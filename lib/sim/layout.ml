module Bundle = Ssp_isa.Bundle
module Op = Ssp_isa.Op

type entry = { func : Ssp_ir.Prog.func; block_base : int array }

type t = {
  tbl : (string, int) Hashtbl.t;
  by_index : entry array;
  n_pcs : int;
  irefs : Ssp_ir.Iref.t array;
  fn_of : int array;
  code : int array;
  imms : int64 array;
  bundle : int array;
  block_start : bool array;
  use_at : int array;
  use_reg : int array;
  def_at : int array;
  def_reg : int array;
  latency : int array;
  mem_op : bool array;
  cond_br : bool array;
}

let code_base = 0x4000_0000

(* [regs op] for every pc in order, flattened: pc [k]'s registers are
   [reg.(at.(k)) .. reg.(at.(k + 1) - 1)]. *)
let flatten ops regs =
  let at = Array.make (Array.length ops + 1) 0 in
  Array.iteri (fun k op -> at.(k + 1) <- at.(k) + List.length (regs op)) ops;
  (at, Array.of_list (List.concat_map regs (Array.to_list ops)))

(* With one flat pc, running off a function's end would silently continue
   in the next function's code; reject the two shapes that can. *)
let check_ends (f : Ssp_ir.Prog.func) =
  let fail what = invalid_arg ("Layout.of_prog: function " ^ f.name ^ what) in
  let nb = Array.length f.blocks in
  if nb = 0 then fail " has no blocks";
  let ops = f.blocks.(nb - 1).ops in
  let n = Array.length ops in
  if n = 0 || not (Op.is_terminator ops.(n - 1)) then
    fail " falls through past its last block"

(* Numbering matches the historical pcmap exactly: functions in
   [funcs_in_order] order, blocks sequential within a function, an empty
   block taking no id (it shares its successor's) — so branch predictor
   and BTB indices, profile counters and fetch addresses are unchanged. *)
let of_prog (prog : Ssp_ir.Prog.t) =
  let funcs = Ssp_ir.Prog.funcs_in_order prog in
  List.iter check_ends funcs;
  let tbl = Hashtbl.create 16 in
  List.iteri
    (fun i (f : Ssp_ir.Prog.func) -> Hashtbl.replace tbl f.name i)
    funcs;
  let next = ref 0 in
  let base (b : Ssp_ir.Prog.block) =
    let k = !next in
    next := k + Array.length b.ops;
    k
  in
  let by_index =
    Array.of_list
      (List.map
         (fun (f : Ssp_ir.Prog.func) ->
           { func = f; block_base = Array.map base f.blocks })
         funcs)
  in
  let block_pc (f : Ssp_ir.Prog.func) l =
    match Ssp_ir.Prog.block_index f l with
    | b -> by_index.(Hashtbl.find tbl f.name).block_base.(b)
    | exception Not_found -> -1
  in
  let entry_pc name =
    match Hashtbl.find_opt tbl name with
    | Some i -> by_index.(i).block_base.(0)
    | None -> -1
  in
  let dec = Decode.decode ~block_pc ~entry_pc funcs in
  (* per pc id, in order: function index, instruction reference, bundle id
     (unique per function, block and bundle) and instruction *)
  let n_bundles = ref 0 in
  let pcs =
    List.concat
      (List.mapi
         (fun fi (f : Ssp_ir.Prog.func) ->
           List.concat
             (List.mapi
                (fun bi (b : Ssp_ir.Prog.block) ->
                  let bundle = Array.make (Array.length b.ops) 0 in
                  List.iter
                    (fun (bd : Bundle.t) ->
                      Array.fill bundle bd.start bd.len !n_bundles;
                      incr n_bundles)
                    (Bundle.of_block b.ops);
                  List.mapi
                    (fun ii op ->
                      (fi, Ssp_ir.Iref.make f.name bi ii, bundle.(ii), op))
                    (Array.to_list b.ops))
                (Array.to_list f.blocks)))
         funcs)
    |> Array.of_list
  in
  let ops = Array.map (fun (_, _, _, op) -> op) pcs in
  let use_at, use_reg = flatten ops Op.uses in
  let def_at, def_reg = flatten ops Op.defs in
  {
    tbl;
    by_index;
    n_pcs = !next;
    irefs = Array.map (fun (_, r, _, _) -> r) pcs;
    fn_of = Array.map (fun (fi, _, _, _) -> fi) pcs;
    code = dec.Decode.code;
    imms = dec.Decode.imms;
    bundle = Array.map (fun (_, _, bd, _) -> bd) pcs;
    block_start = Array.map (fun (_, r, _, _) -> r.Ssp_ir.Iref.ins = 0) pcs;
    use_at;
    use_reg;
    def_at;
    def_reg;
    latency = Array.map Ssp_machine.Latency.of_op ops;
    mem_op =
      Array.map
        (function Op.Load _ | Op.Store _ | Op.Lfetch _ -> true | _ -> false)
        ops;
    cond_br =
      Array.map (function Op.Brnz _ | Op.Brz _ -> true | _ -> false) ops;
  }

let find t fn =
  match Hashtbl.find_opt t.tbl fn with
  | Some i -> i
  | None -> invalid_arg (Printf.sprintf "Layout.find: no function %s" fn)

let name t i = t.by_index.(i).func.Ssp_ir.Prog.name

let pc_of t fn blk = t.by_index.(fn).block_base.(blk)
