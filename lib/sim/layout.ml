module Bundle = Ssp_isa.Bundle
module Op = Ssp_isa.Op

type entry = { func : Ssp_ir.Prog.func; block_base : int array }

type t = {
  tbl : (string, int) Hashtbl.t;
  by_index : entry array;
  n_pcs : int;
  irefs : Ssp_ir.Iref.t array;
  fn_of : int array;
  code_ids : int array;
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
  let reg = Array.make at.(Array.length ops) 0 in
  Array.iteri
    (fun k op -> List.iteri (fun i r -> reg.(at.(k) + i) <- r) (regs op))
    ops;
  (at, reg)

(* The first index of [id] in [ids] at or after [i], or -1. A top-level
   loop with every value passed in: a local closure would allocate on
   every indirect call. *)
let rec index_of (ids : int array) id i =
  if i >= Array.length ids then -1
  else if Array.unsafe_get ids i = id then i
  else index_of ids id (i + 1)

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
  let funcs = Array.of_list (Ssp_ir.Prog.funcs_in_order prog) in
  Array.iter check_ends funcs;
  (* An indirect call names its callee by code id, so two functions
     sharing one would make it ambiguous. *)
  let code_ids = Array.map (fun (f : Ssp_ir.Prog.func) -> f.code_id) funcs in
  Array.iteri
    (fun i id ->
      let j = index_of code_ids id 0 in
      if j < i then
        invalid_arg
          (Printf.sprintf
             "Layout.of_prog: functions %s and %s share code id %d"
             funcs.(j).name funcs.(i).name id))
    code_ids;
  let tbl = Hashtbl.create 16 in
  Array.iteri
    (fun i (f : Ssp_ir.Prog.func) -> Hashtbl.replace tbl f.name i)
    funcs;
  let next = ref 0 in
  let base (b : Ssp_ir.Prog.block) =
    let k = !next in
    next := k + Array.length b.ops;
    k
  in
  let by_index =
    Array.map
      (fun (f : Ssp_ir.Prog.func) ->
        { func = f; block_base = Array.map base f.blocks })
      funcs
  in
  let block_pc fn l =
    match Hashtbl.find_opt tbl fn with
    | Some i -> (
      match Ssp_ir.Prog.block_index funcs.(i) l with
      | b -> by_index.(i).block_base.(b)
      | exception Not_found -> -1)
    | None -> -1
  in
  let entry_pc fn =
    match Hashtbl.find_opt tbl fn with
    | Some i -> by_index.(i).block_base.(0)
    | None -> -1
  in
  (* per pc id: function index, instruction reference, bundle id (unique
     per function, block and bundle) and instruction *)
  let n_pcs = !next in
  let fn_of = Array.make n_pcs 0 and bundle = Array.make n_pcs 0 in
  let irefs = Array.make n_pcs (Ssp_ir.Iref.make "" 0 0) in
  let ops = Array.make n_pcs Op.Nop in
  let n_bundles = ref 0 in
  Array.iteri
    (fun fi e ->
      Array.iteri
        (fun bi (b : Ssp_ir.Prog.block) ->
          let base = e.block_base.(bi) in
          Array.iteri
            (fun ii op ->
              fn_of.(base + ii) <- fi;
              irefs.(base + ii) <- Ssp_ir.Iref.make e.func.name bi ii;
              ops.(base + ii) <- op)
            b.ops;
          List.iter
            (fun (bd : Bundle.t) ->
              Array.fill bundle (base + bd.start) bd.len !n_bundles;
              incr n_bundles)
            (Bundle.of_block b.ops))
        e.func.blocks)
    by_index;
  let dec = Decode.decode ~block_pc ~entry_pc funcs fn_of ops in
  let use_at, use_reg = flatten ops Op.uses in
  let def_at, def_reg = flatten ops Op.defs in
  {
    tbl;
    by_index;
    n_pcs;
    irefs;
    fn_of;
    code_ids;
    code = dec.Decode.code;
    imms = dec.Decode.imms;
    bundle;
    block_start = Array.map (fun (r : Ssp_ir.Iref.t) -> r.ins = 0) irefs;
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

let of_code_id t id = index_of t.code_ids id 0
