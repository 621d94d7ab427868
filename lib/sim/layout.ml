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
  tbl : (string, entry) Hashtbl.t;
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

let dummy =
  { func = { Ssp_ir.Prog.name = ""; nparams = 0; blocks = [||]; code_id = -1 };
    block_base = [||]; bundle_idx = [||]; blk0_iaddr = [||];
    dec = Decode.empty }

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
  let tbl = Hashtbl.create 16 in
  let next = ref 0 in
  let entries = ref [] in
  let funcs = Ssp_ir.Prog.funcs_in_order prog in
  let fidx = Hashtbl.create 16 in
  List.iteri
    (fun i (f : Ssp_ir.Prog.func) -> Hashtbl.replace fidx f.name i)
    funcs;
  let func_index name =
    match Hashtbl.find_opt fidx name with Some i -> i | None -> -1
  in
  List.iter
    (fun (f : Ssp_ir.Prog.func) ->
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
      let e =
        { func = f; block_base; bundle_idx; blk0_iaddr;
          dec = Decode.decode_func ~func_index f }
      in
      Hashtbl.replace tbl f.name e;
      entries := e :: !entries)
    funcs;
  let n_pcs = !next in
  let irefs = Array.make (max 1 n_pcs) (Ssp_ir.Iref.make "" 0 0) in
  List.iter
    (fun e ->
      Array.iteri
        (fun bi (b : Ssp_ir.Prog.block) ->
          let base = e.block_base.(bi) in
          Array.iteri
            (fun ii _ ->
              irefs.(base + ii) <- Ssp_ir.Iref.make e.func.Ssp_ir.Prog.name bi ii)
            b.ops)
        e.func.Ssp_ir.Prog.blocks)
    !entries;
  let by_index =
    Array.of_list
      (List.map
         (fun (f : Ssp_ir.Prog.func) -> Hashtbl.find tbl f.name)
         funcs)
  in
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
  | Some e -> e
  | None -> invalid_arg (Printf.sprintf "Layout.find: no function %s" fn)

let iref_of t pc = t.irefs.(pc)
