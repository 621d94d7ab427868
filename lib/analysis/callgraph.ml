open Ssp_isa

type t = {
  callees : (string, (Ssp_ir.Iref.t * string) list) Hashtbl.t;
  callers : (string, (Ssp_ir.Iref.t * string) list) Hashtbl.t;
  recursive : (string, unit) Hashtbl.t;
}

let compute (p : Ssp_ir.Prog.t) =
  let callees = Hashtbl.create 16 and callers = Hashtbl.create 16 in
  let sites = ref [] in
  let push tbl key v =
    Hashtbl.replace tbl key
      (v :: Option.value ~default:[] (Hashtbl.find_opt tbl key))
  in
  Ssp_ir.Prog.iter_instrs p (fun iref op ->
      match op with
      | Op.Call (callee, _) ->
        push callees iref.Ssp_ir.Iref.fn (iref, callee);
        push callers callee (iref, iref.Ssp_ir.Iref.fn);
        sites := (iref, callee) :: !sites
      | _ -> ());
  Hashtbl.iter (fun k v -> Hashtbl.replace callees k (List.rev v)) callees;
  Hashtbl.iter (fun k v -> Hashtbl.replace callers k (List.rev v)) callers;
  (* Recursion: SCCs of the function-level graph. *)
  let names = List.map (fun (f : Ssp_ir.Prog.func) -> f.name)
      (Ssp_ir.Prog.funcs_in_order p)
  in
  let index = Hashtbl.create 16 in
  List.iteri (fun i n -> Hashtbl.replace index n i) names;
  let edges =
    List.filter_map
      (fun (site, callee) ->
        match Hashtbl.find_opt index callee with
        | Some ci -> Some (Hashtbl.find index site.Ssp_ir.Iref.fn, ci)
        | None -> None)
      !sites
  in
  let g = Digraph.make ~n:(List.length names) edges in
  let comps = Digraph.tarjan_scc g in
  let recursive = Hashtbl.create 8 in
  let name_arr = Array.of_list names in
  Array.iter
    (fun comp ->
      match comp with
      | [ v ] ->
        if List.mem v g.Digraph.succ.(v) then
          Hashtbl.replace recursive name_arr.(v) ()
      | vs -> List.iter (fun v -> Hashtbl.replace recursive name_arr.(v) ()) vs)
    comps;
  { callees; callers; recursive }

let callees t f = Option.value ~default:[] (Hashtbl.find_opt t.callees f)
let callers t f = Option.value ~default:[] (Hashtbl.find_opt t.callers f)
let is_recursive t f = Hashtbl.mem t.recursive f
