open Ssp_isa

type t = { callers : (string, (Ssp_ir.Iref.t * string) list) Hashtbl.t }

let compute (p : Ssp_ir.Prog.t) =
  let callers = Hashtbl.create 16 in
  Ssp_ir.Prog.iter_instrs p (fun iref op ->
      match op with
      | Op.Call (callee, _) ->
        Hashtbl.replace callers callee
          ((iref, iref.Ssp_ir.Iref.fn)
          :: Option.value ~default:[] (Hashtbl.find_opt callers callee))
      | _ -> ());
  Hashtbl.iter (fun k v -> Hashtbl.replace callers k (List.rev v)) callers;
  { callers }

let callers t f = Option.value ~default:[] (Hashtbl.find_opt t.callers f)
