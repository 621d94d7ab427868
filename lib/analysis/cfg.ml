open Ssp_isa

type t = { func : Ssp_ir.Prog.func; graph : Digraph.t }

let of_func (f : Ssp_ir.Prog.func) =
  let n = Array.length f.blocks in
  let idx = Hashtbl.create n in
  Array.iteri (fun i (b : Ssp_ir.Prog.block) -> Hashtbl.replace idx b.label i)
    f.blocks;
  let edges = ref [] in
  Array.iteri
    (fun i (b : Ssp_ir.Prog.block) ->
      let nops = Array.length b.ops in
      let add_target l = edges := (i, Hashtbl.find idx l) :: !edges in
      let fallthrough () = if i + 1 < n then edges := (i, i + 1) :: !edges in
      if nops = 0 then fallthrough ()
      else
        match b.ops.(nops - 1) with
        | Op.Br l -> add_target l
        | Op.Brnz (_, l) | Op.Brz (_, l) ->
          add_target l;
          fallthrough ()
        | Op.Ret | Op.Halt | Op.Kill -> ()
        | _ -> fallthrough ())
    f.blocks;
  (* Also collect taken edges of conditional branches that are not in last
     position: the builder never produces those, but appended slice blocks
     written by hand might; treat any branch instruction as an edge source. *)
  Array.iteri
    (fun i (b : Ssp_ir.Prog.block) ->
      let nops = Array.length b.ops in
      Array.iteri
        (fun j op ->
          if j < nops - 1 then
            List.iter
              (fun l -> edges := (i, Hashtbl.find idx l) :: !edges)
              (Op.branch_targets op))
        b.ops)
    f.blocks;
  let graph = Digraph.make ~n (List.rev !edges) in
  { func = f; graph }

let succ t i = t.graph.Digraph.succ.(i)
let pred t i = t.graph.Digraph.pred.(i)
let n_blocks t = t.graph.Digraph.n

let block_of_label t l =
  let n = n_blocks t in
  let rec go i =
    if i >= n then raise Not_found
    else if String.equal t.func.blocks.(i).label l then i
    else go (i + 1)
  in
  go 0

let terminator t i =
  let ops = t.func.blocks.(i).ops in
  let n = Array.length ops in
  if n = 0 then None else Some ops.(n - 1)
