open Ssp_isa

type error = { where : Iref.t option; message : string }

let pp_error ppf e =
  match e.where with
  | Some r -> Format.fprintf ppf "%a: %s" Iref.pp r e.message
  | None -> Format.fprintf ppf "%s" e.message

let check (p : Prog.t) =
  let errs = ref [] in
  let err ?where fmt =
    Format.kasprintf (fun message -> errs := { where; message } :: !errs) fmt
  in
  (match Hashtbl.find_opt p.funcs p.entry with
  | Some _ -> ()
  | None -> err "entry function %s not defined" p.entry);
  let code_ids = Hashtbl.create 16 in
  List.iter
    (fun (f : Prog.func) ->
      match Hashtbl.find_opt code_ids f.code_id with
      | Some g -> err "functions %s and %s share code id %d" g f.name f.code_id
      | None -> Hashtbl.replace code_ids f.code_id f.name)
    (Prog.funcs_in_order p);
  (* Every function's labels, built once: a spawn names a label in
     another function, and a scan of its blocks per spawn would make the
     check quadratic in the program's size. *)
  let labels_of = Hashtbl.create 16 in
  List.iter
    (fun (f : Prog.func) ->
      let labels = Hashtbl.create 16 in
      Array.iter
        (fun (b : Prog.block) ->
          if Hashtbl.mem labels b.label then
            err "function %s: duplicate label %s" f.name b.label
          else Hashtbl.replace labels b.label ())
        f.blocks;
      Hashtbl.replace labels_of f.name labels)
    (Prog.funcs_in_order p);
  List.iter
    (fun (f : Prog.func) ->
      let labels = Hashtbl.find labels_of f.name in
      let resolve where l =
        if not (Hashtbl.mem labels l) then
          err ~where "function %s: unresolved label %s" f.name l
      in
      Array.iteri
        (fun bi (b : Prog.block) ->
          Array.iteri
            (fun ii op ->
              let where = Iref.make f.name bi ii in
              List.iter (resolve where) (Op.branch_targets op);
              (match op with
              | Op.Call (callee, n) ->
                if n > Reg.max_args then
                  err ~where "call arity %d exceeds %d" n Reg.max_args;
                if not (Hashtbl.mem p.funcs callee) then
                  err ~where "call to undefined function %s" callee
              | Op.Icall (_, n) ->
                if n > Reg.max_args then
                  err ~where "call arity %d exceeds %d" n Reg.max_args
              | Op.Spawn (fn, l) -> (
                match Hashtbl.find_opt labels_of fn with
                | None -> err ~where "spawn of undefined function %s" fn
                | Some tl ->
                  if not (Hashtbl.mem tl l) then
                    err ~where "spawn label %s not in %s" l fn)
              | Op.Chk_c l -> resolve where l
              | _ -> ());
              let check_reg r =
                if not (Reg.is_valid r) then
                  err ~where "register %d out of range" r
              in
              List.iter check_reg (Op.defs op);
              List.iter check_reg (Op.uses op))
            b.ops)
        f.blocks;
      (* The last block must not fall off the end of the function. *)
      let nb = Array.length f.blocks in
      if nb > 0 then begin
        let last = f.blocks.(nb - 1) in
        let n = Array.length last.ops in
        if n = 0 || not (Op.is_terminator last.ops.(n - 1)) then
          err "function %s: last block %s falls through past the function"
            f.name last.label
      end
      else err "function %s has no blocks" f.name)
    (Prog.funcs_in_order p);
  match List.rev !errs with [] -> Ok () | es -> Error es
