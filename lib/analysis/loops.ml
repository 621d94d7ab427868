type loop = {
  id : int;
  header : int;
  body : int list;
  back_edges : (int * int) list;
  parent : int option;
  depth : int;
}

type t = { loops : loop array; inner : loop option array }

module IS = Set.Make (Int)

let compute (cfg : Cfg.t) dom =
  let n = Cfg.n_blocks cfg in
  (* Collect back edges grouped by header. *)
  let by_header = Hashtbl.create 8 in
  for v = 0 to n - 1 do
    List.iter
      (fun s ->
        if Dom.dominates dom s v then
          Hashtbl.replace by_header s
            ((v, s) :: (Option.value ~default:[] (Hashtbl.find_opt by_header s))))
      (Cfg.succ cfg v)
  done;
  let headers = Hashtbl.fold (fun h _ acc -> h :: acc) by_header [] in
  let headers = List.sort compare headers in
  let bodies =
    List.map
      (fun h ->
        let back_edges = List.rev (Hashtbl.find by_header h) in
        (* Backward reachability from back-edge sources, stopping at h. *)
        let body = ref (IS.singleton h) in
        let rec go v =
          if not (IS.mem v !body) then begin
            body := IS.add v !body;
            List.iter go (Cfg.pred cfg v)
          end
        in
        List.iter (fun (t, _) -> go t) back_edges;
        (h, !body, back_edges))
      headers
  in
  (* Nesting: loop A encloses B iff A's body contains B's header and A≠B.
     The innermost enclosing loop is the one with the smallest body. *)
  let arr = Array.of_list bodies in
  let m = Array.length arr in
  let parent_of i =
    let _, _body_i, _ = arr.(i) in
    let hi, _, _ = arr.(i) in
    let best = ref None in
    for j = 0 to m - 1 do
      if j <> i then begin
        let _, body_j, _ = arr.(j) in
        let _, body_i, _ = arr.(i) in
        if IS.mem hi body_j && not (IS.equal body_i body_j) && IS.subset body_i body_j
        then
          match !best with
          | None -> best := Some j
          | Some k ->
            let _, body_k, _ = arr.(k) in
            if IS.cardinal body_j < IS.cardinal body_k then best := Some j
      end
    done;
    !best
  in
  let parents = Array.init m parent_of in
  let rec depth_of i =
    match parents.(i) with None -> 1 | Some p -> 1 + depth_of p
  in
  let loops =
    Array.init m (fun i ->
        let header, body, back_edges = arr.(i) in
        {
          id = i;
          header;
          body = IS.elements body;
          back_edges;
          parent = parents.(i);
          depth = depth_of i;
        })
  in
  (* Innermost loop per block = deepest loop whose body contains it. *)
  let inner = Array.make n None in
  Array.iter
    (fun l ->
      List.iter
        (fun b ->
          match inner.(b) with
          | None -> inner.(b) <- Some l
          | Some l' -> if l.depth > l'.depth then inner.(b) <- Some l)
        l.body)
    loops;
  { loops; inner }

let all t = Array.to_list t.loops
let find t id = t.loops.(id)
let innermost_at t b = t.inner.(b)
