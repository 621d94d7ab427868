open Ssp_isa

exception Error of string * int

let err line fmt = Format.kasprintf (fun m -> raise (Error (m, line))) fmt

(* ---------- printing ---------- *)

(* The one program printer. Every key, blob and reply carries these
   bytes, so a change to them forks every existing store. *)
let to_string (p : Prog.t) =
  let b = Buffer.create 4096 in
  let str = Buffer.add_string b in
  let num = Op.num b in
  str "; ssp virtual-ISA assembly\nentry "; str p.Prog.entry;
  str "\ndata "; num p.Prog.data_bytes; str "\n\n";
  List.iter
    (fun (f : Prog.func) ->
      str "func "; str f.Prog.name; str "/"; num f.Prog.nparams;
      str " @"; num f.Prog.code_id; str " {\n";
      Array.iter
        (fun (blk : Prog.block) ->
          str blk.Prog.label; str ":\n";
          Array.iter
            (fun op -> str "  "; Op.add_to_buffer b op; str "\n")
            blk.Prog.ops)
        f.Prog.blocks;
      str "}\n\n")
    (Prog.funcs_in_order p);
  Buffer.contents b

let print ppf p = Format.pp_print_string ppf (to_string p)

(* ---------- parsing ---------- *)

let strip_comment s =
  match String.index_opt s ';' with
  | Some i -> String.sub s 0 i
  | None -> s

let tokens_of s =
  (* split on spaces, commas and brackets, keeping "[reg+off]" forms whole *)
  String.split_on_char ' ' s
  |> List.concat_map (String.split_on_char '\t')
  |> List.map (fun t ->
         String.concat ""
           (String.split_on_char ',' t |> List.filter (fun x -> x <> "")))
  |> List.filter (fun t -> t <> "")

let parse_reg line t =
  let fail () = err line "expected a register, found %S" t in
  if String.length t < 2 || t.[0] <> 'r' then fail ()
  else
    match int_of_string_opt (String.sub t 1 (String.length t - 1)) with
    | Some r when Reg.is_valid r -> r
    | Some _ | None -> fail ()

let parse_imm line t =
  match Int64.of_string_opt t with
  | Some v -> v
  | None -> err line "expected an integer, found %S" t

let parse_slot line t =
  if String.length t >= 2 && t.[0] = '#' then
    match int_of_string_opt (String.sub t 1 (String.length t - 1)) with
    | Some s -> s
    | None -> err line "expected a buffer slot, found %S" t
  else err line "expected a buffer slot, found %S" t

(* "[rN+OFF]" or "[rN-OFF]" *)
let parse_mem line t =
  let n = String.length t in
  if n < 4 || t.[0] <> '[' || t.[n - 1] <> ']' then
    err line "expected a memory operand, found %S" t
  else begin
    let inner = String.sub t 1 (n - 2) in
    let split_at i =
      (String.sub inner 0 i, String.sub inner i (String.length inner - i))
    in
    let rec find i =
      if i >= String.length inner then
        err line "expected base+offset in %S" t
      else if (inner.[i] = '+' || inner.[i] = '-') && i > 0 then split_at i
      else find (i + 1)
    in
    let base_s, off_s = find 0 in
    let base = parse_reg line base_s in
    match int_of_string_opt off_s with
    | Some off -> (base, off)
    | None -> err line "expected an offset, found %S" off_s
  end

(* "name/arity" *)
let parse_callee line t =
  match String.index_opt t '/' with
  | None -> err line "expected callee/arity, found %S" t
  | Some i -> (
    let name = String.sub t 0 i in
    match int_of_string_opt (String.sub t (i + 1) (String.length t - i - 1)) with
    | Some n -> (name, n)
    | None -> err line "expected an arity in %S" t)

(* "fn:label" *)
let parse_spawn_target line t =
  match String.index_opt t ':' with
  | None -> err line "expected fn:label, found %S" t
  | Some i ->
    (String.sub t 0 i, String.sub t (i + 1) (String.length t - i - 1))

let alu_of_name = function
  | "add" -> Some Op.Add
  | "sub" -> Some Op.Sub
  | "mul" -> Some Op.Mul
  | "div" -> Some Op.Div
  | "rem" -> Some Op.Rem
  | "and" -> Some Op.And
  | "or" -> Some Op.Or
  | "xor" -> Some Op.Xor
  | "shl" -> Some Op.Shl
  | "shr" -> Some Op.Shr
  | _ -> None

let cmp_of_name = function
  | "eq" -> Some Op.Eq
  | "ne" -> Some Op.Ne
  | "lt" -> Some Op.Lt
  | "le" -> Some Op.Le
  | "gt" -> Some Op.Gt
  | "ge" -> Some Op.Ge
  | _ -> None

let width_of_suffix line = function
  | "1" -> Op.W1
  | "2" -> Op.W2
  | "4" -> Op.W4
  | "8" -> Op.W8
  | s -> err line "bad access width %S" s

let parse_op_line line toks =
  let reg = parse_reg line and imm = parse_imm line in
  match toks with
  | [ "nop" ] -> Op.Nop
  | [ "movi"; d; i ] -> Op.Movi (reg d, imm i)
  | [ "mov"; d; s ] -> Op.Mov (reg d, reg s)
  | [ "ret" ] -> Op.Ret
  | [ "halt" ] -> Op.Halt
  | [ "kill" ] -> Op.Kill
  | [ "br"; l ] -> Op.Br l
  | [ "brnz"; s; l ] -> Op.Brnz (reg s, l)
  | [ "brz"; s; l ] -> Op.Brz (reg s, l)
  | [ "call"; c ] ->
    let name, n = parse_callee line c in
    Op.Call (name, n)
  | [ "icall"; c ] ->
    let r, n = parse_callee line c in
    Op.Icall (reg r, n)
  | [ "chk.c"; l ] -> Op.Chk_c l
  | [ "spawn"; t ] ->
    let fn, l = parse_spawn_target line t in
    Op.Spawn (fn, l)
  | [ "lib.st"; slot; s ] -> Op.Lib_st (parse_slot line slot, reg s)
  | [ "lib.ld"; d; slot ] -> Op.Lib_ld (reg d, parse_slot line slot)
  | [ "alloc"; d; s ] -> Op.Alloc (reg d, reg s)
  | [ "print"; s ] -> Op.Print (reg s)
  | [ "rand"; d ] -> Op.Rand (reg d)
  | [ "lfetch"; m ] ->
    let b, off = parse_mem line m in
    Op.Lfetch (b, off)
  | [ mnem; a; b ] when String.length mnem = 3 && String.sub mnem 0 2 = "ld" ->
    let w = width_of_suffix line (String.sub mnem 2 1) in
    let base, off = parse_mem line b in
    Op.Load (w, reg a, base, off)
  | [ mnem; a; b ] when String.length mnem = 3 && String.sub mnem 0 2 = "st" ->
    let w = width_of_suffix line (String.sub mnem 2 1) in
    let base, off = parse_mem line a in
    Op.Store (w, reg b, base, off)
  | [ mnem; d; a; b ] when String.length mnem >= 5
                           && String.sub mnem 0 4 = "cmp." -> (
    match cmp_of_name (String.sub mnem 4 (String.length mnem - 4)) with
    | Some c -> Op.Cmp (c, reg d, reg a, reg b)
    | None -> err line "unknown comparison %S" mnem)
  | [ mnem; d; a; b ] when String.length mnem >= 6
                           && String.sub mnem 0 5 = "cmpi." -> (
    match cmp_of_name (String.sub mnem 5 (String.length mnem - 5)) with
    | Some c -> Op.Cmpi (c, reg d, reg a, imm b)
    | None -> err line "unknown comparison %S" mnem)
  | [ mnem; d; a; b ] -> (
    (* alu or alui: "add" vs "addi" *)
    match alu_of_name mnem with
    | Some o -> Op.Alu (o, reg d, reg a, reg b)
    | None ->
      let n = String.length mnem in
      if n >= 2 && mnem.[n - 1] = 'i' then
        match alu_of_name (String.sub mnem 0 (n - 1)) with
        | Some o -> Op.Alui (o, reg d, reg a, imm b)
        | None -> err line "unknown mnemonic %S" mnem
      else err line "unknown mnemonic %S" mnem)
  | mnem :: _ -> err line "cannot parse instruction %S" mnem
  | [] -> err line "empty instruction"

let parse_op s =
  match tokens_of (strip_comment s) with
  | [] -> err 0 "empty instruction"
  | toks -> parse_op_line 0 toks

type pstate = {
  mutable entry : string option;
  mutable data : int;
  mutable funcs : Prog.func list;  (* reversed *)
  (* current function *)
  mutable cur : (string * int * int) option;  (* name, nparams, code_id *)
  mutable blocks : (string * Op.t list) list;  (* reversed, ops reversed *)
}

let parse src =
  let st = { entry = None; data = 0; funcs = []; cur = None; blocks = [] } in
  (* A second definition is a parse error here, before [Prog.add_func]
     would reject it with [Invalid_argument]. *)
  let defined = Hashtbl.create 16 in
  let finish_func line =
    match st.cur with
    | None -> err line "'}' without an open function"
    | Some (name, nparams, code_id) ->
      let blocks =
        List.rev_map
          (fun (label, ops) ->
            { Prog.label; ops = Array.of_list (List.rev ops) })
          st.blocks
      in
      st.funcs <-
        { Prog.name; nparams; blocks = Array.of_list blocks; code_id }
        :: st.funcs;
      st.cur <- None;
      st.blocks <- []
  in
  let lines = String.split_on_char '\n' src in
  List.iteri
    (fun i raw ->
      let line = i + 1 in
      let s = String.trim (strip_comment raw) in
      if s = "" then ()
      else if st.cur = None then begin
        match tokens_of s with
        | [ "entry"; e ] -> st.entry <- Some e
        | [ "data"; d ] -> (
          match int_of_string_opt d with
          | Some n -> st.data <- n
          | None -> err line "bad data size %S" d)
        | [ "func"; sig_; at; "{" ] -> (
          let name, nparams = parse_callee line sig_ in
          if Hashtbl.mem defined name then
            err line "function %s defined twice" name;
          Hashtbl.replace defined name ();
          match
            if String.length at > 1 && at.[0] = '@' then
              int_of_string_opt (String.sub at 1 (String.length at - 1))
            else None
          with
          | Some id -> st.cur <- Some (name, nparams, id)
          | None -> err line "expected @code_id, found %S" at)
        | _ -> err line "expected entry/data/func, found %S" s
      end
      else if s = "}" then finish_func line
      else if String.length s > 1 && s.[String.length s - 1] = ':' then
        st.blocks <- (String.sub s 0 (String.length s - 1), []) :: st.blocks
      else begin
        match st.blocks with
        | [] -> err line "instruction before any label"
        | (label, ops) :: rest ->
          let op = parse_op_line line (tokens_of s) in
          st.blocks <- (label, op :: ops) :: rest
      end)
    lines;
  (match st.cur with
  | Some _ -> err (List.length lines) "unterminated function"
  | None -> ());
  let entry =
    match st.entry with
    | Some e -> e
    | None -> err 1 "no entry directive"
  in
  let prog = Prog.create ~entry in
  List.iter (Prog.add_func prog) (List.rev st.funcs);
  prog.Prog.data_bytes <- st.data;
  (match Validate.check prog with
  | Ok () -> ()
  | Error es ->
    let msg =
      String.concat "; "
        (List.map (fun e -> Format.asprintf "%a" Validate.pp_error e) es)
    in
    raise (Error ("invalid program: " ^ msg, 0)));
  prog
