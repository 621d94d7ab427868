type block = { label : Ssp_isa.Op.label; mutable ops : Ssp_isa.Op.t array }

type func = {
  name : string;
  nparams : int;
  mutable blocks : block array;
  code_id : int;
}

type t = {
  funcs : (string, func) Hashtbl.t;
  mutable rev_func_order : string list;
  entry : string;
  mutable data_bytes : int;
}

let data_base = 0x0010_0000L
let heap_base = 0x1000_0000L
let stack_base = 0x7fff_0000L

let create ~entry =
  { funcs = Hashtbl.create 16; rev_func_order = []; entry; data_bytes = 0 }

let add_func t f =
  if Hashtbl.mem t.funcs f.name then
    invalid_arg (Printf.sprintf "Prog.add_func: duplicate function %s" f.name);
  Hashtbl.replace t.funcs f.name f;
  t.rev_func_order <- f.name :: t.rev_func_order

let find_func t name =
  match Hashtbl.find_opt t.funcs name with
  | Some f -> f
  | None -> invalid_arg (Printf.sprintf "Prog.find_func: no function %s" name)

let funcs_in_order t = List.rev_map (find_func t) t.rev_func_order

(* All parameters passed explicitly: a local closure here would allocate
   on every taken branch of every simulated instruction. *)
let rec block_index_from blocks label n i =
  if i >= n then raise Not_found
  else
    let l = blocks.(i).label in
    (* Labels flow from a single frontend intern point, so physical
       equality almost always decides the comparison without a byte scan. *)
    if l == label || String.equal l label then i
    else block_index_from blocks label n (i + 1)

let block_index f label =
  block_index_from f.blocks label (Array.length f.blocks) 0

let instr t (r : Iref.t) =
  let f = find_func t r.fn in
  f.blocks.(r.blk).ops.(r.ins)

let iter_instrs t k =
  List.iter
    (fun f ->
      Array.iteri
        (fun bi b ->
          Array.iteri (fun ii op -> k (Iref.make f.name bi ii) op) b.ops)
        f.blocks)
    (funcs_in_order t)

let instr_count t =
  let n = ref 0 in
  iter_instrs t (fun _ _ -> incr n);
  !n

let addr_of f (r : Iref.t) =
  let a = ref 0 in
  for b = 0 to r.blk - 1 do
    a := !a + Array.length f.blocks.(b).ops
  done;
  !a + r.ins

let copy t =
  let funcs = Hashtbl.create (Hashtbl.length t.funcs) in
  Hashtbl.iter
    (fun name f ->
      Hashtbl.replace funcs name
        {
          f with
          blocks =
            Array.map
              (fun b -> { b with ops = Array.copy b.ops })
              f.blocks;
        })
    t.funcs;
  { t with funcs }
