type t = {
  name : string;
  nparams : int;
  code_id : int;
  mutable blocks : (string * Ssp_isa.Op.t list) list;  (* reversed *)
  mutable cur_label : string option;
  mutable cur_ops : Ssp_isa.Op.t list;  (* reversed *)
  mutable next_reg : int;
  mutable next_label : int;
  mutable pending_split : bool;
      (* a branch was just emitted: the next instruction must start a new
         block, so blocks remain proper basic blocks *)
  labels : (string, unit) Hashtbl.t;
}

(* Fallback for callers that don't pick ids themselves (the frontend
   always does); atomic so concurrent builders never collide. *)
let next_code_id = Atomic.make 0

let create ?code_id ~name ~nparams () =
  let code_id =
    match code_id with
    | Some id -> id
    | None -> Atomic.fetch_and_add next_code_id 1 + 1
  in
  {
    name;
    nparams;
    code_id;
    blocks = [];
    cur_label = None;
    cur_ops = [];
    next_reg = Ssp_isa.Reg.first_stacked;
    next_label = 0;
    pending_split = false;
    labels = Hashtbl.create 16;
  }

let fresh_reg b =
  if b.next_reg >= Ssp_isa.Reg.count then
    Error.raise_error ~pass:"builder" ~fn:b.name "out of stacked registers";
  let r = b.next_reg in
  b.next_reg <- r + 1;
  r

let fresh_label b stem =
  let rec pick () =
    let l = Printf.sprintf "%s_%d" stem b.next_label in
    b.next_label <- b.next_label + 1;
    if Hashtbl.mem b.labels l then pick () else l
  in
  pick ()

let seal b =
  match b.cur_label with
  | None -> ()
  | Some l ->
    b.blocks <- (l, List.rev b.cur_ops) :: b.blocks;
    b.cur_label <- None;
    b.cur_ops <- []

let start_block b label =
  if Hashtbl.mem b.labels label then
    Error.raise_error ~pass:"builder" ~fn:b.name
      (Printf.sprintf "duplicate label %s" label);
  Hashtbl.replace b.labels label ();
  seal b;
  b.pending_split <- false;
  b.cur_label <- Some label

(* Branches may only end a block. *)
let ends_block op =
  Ssp_isa.Op.is_terminator op
  || match op with Ssp_isa.Op.Brnz _ | Ssp_isa.Op.Brz _ -> true | _ -> false

let emit b op =
  if b.pending_split then begin
    let l = fresh_label b "fall" in
    start_block b l
  end;
  (match b.cur_label with
  | None -> start_block b "entry"
  | Some _ -> ());
  b.cur_ops <- op :: b.cur_ops;
  if ends_block op then b.pending_split <- true

let finish b : Prog.func =
  seal b;
  let blocks =
    List.rev_map
      (fun (label, ops) -> { Prog.label; ops = Array.of_list ops })
      b.blocks
  in
  {
    Prog.name = b.name;
    nparams = b.nparams;
    blocks = Array.of_list blocks;
    code_id = b.code_id;
  }

let func_of_blocks ?code_id ~name ~nparams blocks =
  let b = create ?code_id ~name ~nparams () in
  List.iter
    (fun (label, ops) ->
      start_block b label;
      List.iter (emit b) ops)
    blocks;
  finish b
