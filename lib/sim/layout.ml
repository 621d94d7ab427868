module Bundle = Ssp_isa.Bundle
module Op = Ssp_isa.Op

type entry = {
  func : Ssp_ir.Prog.func;
  block_base : int array;
  bundle_idx : int array array;
  blk0_iaddr : int array;
  dec : Decode.t;
}

type t = {
  tbl : (string, int) Hashtbl.t;
  by_index : entry array;
  n_pcs : int;
  irefs : Ssp_ir.Iref.t array;
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

(* Numbering matches the historical pcmap exactly: functions in
   [funcs_in_order] order, blocks sequential within a function — so branch
   predictor and BTB indices are unchanged by the flat-table rewrite. *)
let of_prog (prog : Ssp_ir.Prog.t) =
  let next = ref 0 in
  let funcs = Ssp_ir.Prog.funcs_in_order prog in
  let tbl = Hashtbl.create 16 in
  List.iteri
    (fun i (f : Ssp_ir.Prog.func) -> Hashtbl.replace tbl f.name i)
    funcs;
  let func_index name =
    match Hashtbl.find_opt tbl name with Some i -> i | None -> -1
  in
  (* in [funcs] order: [next] numbers the pcs *)
  let entry_of (f : Ssp_ir.Prog.func) =
    let nb = Array.length f.blocks in
    let block_base = Array.make nb 0 in
    Array.iteri
      (fun i (b : Ssp_ir.Prog.block) ->
        block_base.(i) <- !next;
        next := !next + Array.length b.ops)
      f.blocks;
    let bundle_idx =
      Array.map
        (fun (b : Ssp_ir.Prog.block) ->
          let idx = Array.make (Array.length b.ops) 0 in
          List.iteri
            (fun bi (bd : Bundle.t) ->
              for k = bd.Bundle.start to bd.Bundle.start + bd.Bundle.len - 1
              do
                idx.(k) <- bi
              done)
            (Bundle.of_block b.ops);
          idx)
        f.blocks
    in
    let blk0_iaddr =
      Array.map (fun base -> code_base + (16 * base)) block_base
    in
    { func = f; block_base; bundle_idx; blk0_iaddr;
      dec = Decode.decode_func ~func_index f }
  in
  let by_index = Array.map entry_of (Array.of_list funcs) in
  let n_pcs = !next in
  let irefs = Array.make (Int.max 1 n_pcs) (Ssp_ir.Iref.make "" 0 0) in
  Array.iter
    (fun e ->
      Array.iteri
        (fun bi (b : Ssp_ir.Prog.block) ->
          let base = e.block_base.(bi) in
          Array.iteri
            (fun ii _ ->
              irefs.(base + ii) <- Ssp_ir.Iref.make e.func.Ssp_ir.Prog.name bi ii)
            b.ops)
        e.func.Ssp_ir.Prog.blocks)
    by_index;
  (* pc id -> instruction *)
  let ops =
    Array.concat
      (List.concat_map
         (fun (f : Ssp_ir.Prog.func) ->
           List.map (fun (b : Ssp_ir.Prog.block) -> b.ops)
             (Array.to_list f.blocks))
         funcs)
  in
  let use_at, use_reg = flatten ops Op.uses in
  let def_at, def_reg = flatten ops Op.defs in
  {
    tbl;
    by_index;
    n_pcs;
    irefs;
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

let iref_of t pc = t.irefs.(pc)
