type t = {
  rpo_num : int array;  (* -1 = unreachable *)
  (* Preorder interval labelling of the dominator tree for O(1) queries. *)
  tin : int array;
  tout : int array;
}

(* [idom.(v)] is -1 for the root and for unreachable nodes. *)
let build_tree n idom root rpo_num =
  let kids = Array.make n [] in
  Array.iteri
    (fun v d -> if d >= 0 && v <> root then kids.(d) <- v :: kids.(d))
    idom;
  Array.iteri (fun i l -> kids.(i) <- List.rev l) kids;
  let tin = Array.make n (-1) and tout = Array.make n (-1) in
  let clock = ref 0 in
  let rec dfs v =
    tin.(v) <- !clock;
    incr clock;
    List.iter dfs kids.(v);
    tout.(v) <- !clock;
    incr clock
  in
  dfs root;
  { rpo_num; tin; tout }

let compute (g : Digraph.t) ~entry =
  let n = g.Digraph.n in
  let order = Digraph.rpo g ~entry in
  let rpo_num = Array.make n (-1) in
  Array.iteri (fun i v -> rpo_num.(v) <- i) order;
  let idom = Array.make n (-1) in
  idom.(entry) <- entry;
  let intersect a b =
    let a = ref a and b = ref b in
    while !a <> !b do
      while rpo_num.(!a) > rpo_num.(!b) do
        a := idom.(!a)
      done;
      while rpo_num.(!b) > rpo_num.(!a) do
        b := idom.(!b)
      done
    done;
    !a
  in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun v ->
        if v <> entry then begin
          let new_idom =
            List.fold_left
              (fun acc p ->
                if rpo_num.(p) = -1 || idom.(p) = -1 then acc
                else match acc with None -> Some p | Some a -> Some (intersect p a))
              None g.Digraph.pred.(v)
          in
          match new_idom with
          | None -> ()
          | Some d ->
            if idom.(v) <> d then begin
              idom.(v) <- d;
              changed := true
            end
        end)
      order
  done;
  idom.(entry) <- -1;
  build_tree n idom entry rpo_num

(* The entry is first in reverse postorder, so every reachable node,
   the root included, has a number. *)
let reachable t v = t.rpo_num.(v) <> -1

let dominates t a b =
  reachable t a && reachable t b && t.tin.(a) <= t.tin.(b)
  && t.tout.(b) <= t.tout.(a)
  && t.tin.(a) >= 0 && t.tin.(b) >= 0
