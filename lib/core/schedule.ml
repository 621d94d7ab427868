open Ssp_isa
open Ssp_analysis
module T = Ssp_telemetry.Telemetry

type spawn_condition =
  | Cond of {
      extra : Ssp_ir.Iref.t list;
      reg : Reg.t;
      spawn_if_nonzero : bool;
    }
  | Predicted of { depth : int }

type inner_loop = {
  loop_id : int;
  body : Ssp_ir.Iref.t list;
  pre : Ssp_ir.Iref.t list;
  carried : Reg.t list;
  cond : spawn_condition;
  trips : int;
}

type t = {
  slice : Slice.t;
  order_critical : Ssp_ir.Iref.t list;
  order_non_critical : Ssp_ir.Iref.t list;
  spawn_cond : spawn_condition;
  recurrence_regs : Reg.t list;
  height_region : int;
  height_critical : int;
  height_slice : int;
  copy_spawn_latency : int;
  rotation : int;
  loop_carried_edges : int;
  available_ilp : float;
  inner : inner_loop option;
}

let latency_of profile cfg prog iref =
  let op = Ssp_ir.Prog.instr prog iref in
  if Op.is_load op then Ssp_profiling.Profile.avg_load_latency profile cfg iref
  else max 1 (Ssp_machine.Latency.of_op op)

(* Dependence edges among a set of instructions of one function:
   (src_index, dst_index, loop_carried). *)
let edges_among regions profile cfg nodes =
  ignore profile;
  ignore cfg;
  let prog = Regions.prog regions in
  let arr = Array.of_list nodes in
  let index = Ssp_ir.Iref.Tbl.create 16 in
  Array.iteri (fun i n -> Ssp_ir.Iref.Tbl.replace index n i) arr;
  let edges = ref [] in
  Array.iteri
    (fun di (use : Ssp_ir.Iref.t) ->
      let reach = Regions.reaching_of regions use.fn in
      let op = Ssp_ir.Prog.instr prog use in
      List.iter
        (fun r ->
          let all = Reaching.reaching_defs reach ~use r in
          let intra = Reaching.defs_without_back_edges reach ~use r in
          List.iter
            (fun (df : Reaching.def) ->
              let site = df.Reaching.site in
              match Ssp_ir.Iref.Tbl.find_opt index site with
              | None -> ()
              | Some si ->
                let is_intra =
                  List.exists
                    (fun (i : Reaching.def) ->
                      Ssp_ir.Iref.equal i.Reaching.site site)
                    intra
                in
                edges := (si, di, not is_intra) :: !edges)
            all)
        (Op.uses op))
    arr;
  (arr, !edges)

(* Longest dependence path (intra-iteration edges only) over the nodes. *)
let height_of regions profile cfg nodes =
  let prog = Regions.prog regions in
  let arr, edges = edges_among regions profile cfg nodes in
  let n = Array.length arr in
  if n = 0 then 0
  else begin
    let g =
      Digraph.make ~n
        (List.filter_map
           (fun (s, d, lc) -> if lc || s = d then None else Some (s, d))
           edges)
    in
    match Digraph.longest_path g ~node_weight:(fun i ->
              latency_of profile cfg prog arr.(i))
    with
    | h -> Array.fold_left max 0 h
    | exception Invalid_argument _ ->
      (* Residual intra-iteration cycle (irreducible flow): fall back to the
         sum of latencies, a conservative overestimate. *)
      Array.fold_left (fun acc x -> acc + latency_of profile cfg prog x) 0 arr
  end

(* The loop's continue branch: a conditional branch in the loop whose taken
   and fall-through successors straddle the loop boundary. Returns
   (branch iref, condition register, spawn_if_nonzero). *)
let continue_branch_of_loop regions fn (loop : Loops.loop) =
    let cfg = Regions.cfg_of regions fn in
    let f = cfg.Cfg.func in
    let candidates = ref [] in
    List.iter
      (fun bi ->
        let ops = f.Ssp_ir.Prog.blocks.(bi).Ssp_ir.Prog.ops in
        let n = Array.length ops in
        if n > 0 then begin
          match ops.(n - 1) with
          | Op.Brnz (r, l) | Op.Brz (r, l) ->
            let target = Cfg.block_of_label cfg l in
            let target_in = List.mem target loop.Loops.body in
            let fall_in =
              bi + 1 < Cfg.n_blocks cfg && List.mem (bi + 1) loop.Loops.body
            in
            if target_in <> fall_in then begin
              (* Exit branch: continue = staying in the loop. *)
              let spawn_if_nonzero =
                match ops.(n - 1) with
                | Op.Brnz _ -> target_in (* taken stays in loop *)
                | Op.Brz _ -> not target_in
                | _ -> assert false
              in
              candidates :=
                (Ssp_ir.Iref.make fn bi (n - 1), r, spawn_if_nonzero)
                :: !candidates
            end
          | _ -> ()
        end)
      loop.Loops.body;
    (* Prefer the branch in the loop header. *)
    let header_first =
      List.sort
        (fun ((a : Ssp_ir.Iref.t), _, _) ((b : Ssp_ir.Iref.t), _, _) ->
          let rank (i : Ssp_ir.Iref.t) =
            if i.blk = loop.Loops.header then 0 else 1
          in
          compare (rank a, a) (rank b, b))
        !candidates
    in
    (match header_first with [] -> None | c :: _ -> Some c)

let continue_branch regions (slice : Slice.t) =
  match Regions.loop_of regions slice.Slice.region with
  | None -> None
  | Some loop -> continue_branch_of_loop regions slice.Slice.fn loop

(* Backward data slice of the continue condition, restricted to the region
   and capped; None = too expensive to precompute (use prediction). *)
let slice_condition regions profile (slice : Slice.t) cond_use cond_reg =
  let fn = slice.Slice.fn in
  let reach = Regions.reaching_of regions fn in
  let prog = Regions.prog regions in
  let blocks = Regions.blocks_of regions slice.Slice.region in
  let in_region (i : Ssp_ir.Iref.t) =
    String.equal i.fn fn && List.mem i.blk blocks
  in
  let extra = ref [] in
  let seen = Hashtbl.create 8 in
  let ok = ref true in
  let budget = 6 in
  let rec go (use : Ssp_ir.Iref.t) r =
    if !ok && r <> Reg.zero && not (Hashtbl.mem seen (use, r)) then begin
      Hashtbl.replace seen (use, r) ();
      List.iter
        (fun (df : Reaching.def) ->
          let site = df.Reaching.site in
          if site.Ssp_ir.Iref.ins = -1 then () (* parameter: live-in *)
          else if not (in_region site) then () (* invariant: live-in *)
          else if Ssp_ir.Iref.Set.mem site slice.Slice.instrs then ()
          else begin
            let op = Ssp_ir.Prog.instr prog site in
            if
              (not
                 (match op with
                 | Op.Movi _ | Op.Mov _ | Op.Alu _ | Op.Alui _ | Op.Cmp _
                 | Op.Cmpi _ ->
                   true
                 | _ -> false))
              || not (Ssp_profiling.Profile.executed profile site)
            then ok := false
            else if not (List.exists (Ssp_ir.Iref.equal site) !extra) then begin
              extra := site :: !extra;
              if List.length !extra > budget then ok := false
              else List.iter (go site) (Op.uses op)
            end
          end)
        (Reaching.reaching_defs reach ~use r)
    end
  in
  go cond_use cond_reg;
  if !ok then begin
    (* Emission order is program order: the backward discovery order would
       evaluate the comparison before its operands. *)
    let f = Ssp_ir.Prog.find_func prog fn in
    Some
      (List.sort
         (fun a b ->
           compare (Ssp_ir.Prog.addr_of f a) (Ssp_ir.Prog.addr_of f b))
         !extra)
  end
  else None

let build regions profile cfg ~trips (slice : Slice.t) =
  T.with_span "schedule" @@ fun () ->
  let prog = Regions.prog regions in
  let fn = slice.Slice.fn in
  let f = Ssp_ir.Prog.find_func prog fn in
  let nodes =
    Ssp_ir.Iref.Set.elements slice.Slice.instrs
    |> List.sort (fun a b ->
           compare (Ssp_ir.Prog.addr_of f a) (Ssp_ir.Prog.addr_of f b))
  in
  let arr, edges = edges_among regions profile cfg nodes in
  let n = Array.length arr in
  let is_loop = Regions.loop_of regions slice.Slice.region <> None in
  (* --- Loop rotation (§3.2.1.1): choose the boundary minimizing remaining
     loop-carried edges without creating new ones. In the rotated order a
     dependence is loop-carried iff the def does not precede the use. --- *)
  let lc_count rot =
    let pos i = (i - rot + n) mod n in
    List.fold_left
      (fun acc (s, d, _lc) -> if pos s >= pos d then acc + 1 else acc)
      0 edges
  in
  let lc_set rot =
    let pos i = (i - rot + n) mod n in
    List.filter (fun (s, d, _) -> pos s >= pos d) edges
  in
  let rotation, loop_carried_edges =
    if (not is_loop) || n = 0 then (0, 0)
    else begin
      let base = lc_set 0 in
      let subset_of_base rot =
        List.for_all (fun e -> List.mem e base) (lc_set rot)
      in
      let best = ref (0, lc_count 0) in
      for rot = 1 to n - 1 do
        let c = lc_count rot in
        if c < snd !best && subset_of_base rot then best := (rot, c)
      done;
      !best
    end
  in
  (* --- SCC partitioning on the full dependence graph (intra + carried,
     in rotated coordinates). --- *)
  let g_all =
    Digraph.make ~n
      (List.filter_map (fun (s, d, _) -> if s = d then None else Some (s, d))
         edges)
  in
  let comps = Digraph.tarjan_scc g_all in
  let comp_of = Digraph.scc_of comps ~n in
  let nondegenerate =
    Array.to_list comps
    |> List.mapi (fun ci c -> (ci, c))
    |> List.filter (fun ((_ci, c) : int * int list) ->
           match c with
           | [ v ] -> List.mem v g_all.Digraph.succ.(v) (* self loop *)
           | _ :: _ :: _ -> true
           | [] -> false)
    |> List.map fst
  in
  if T.is_enabled () then begin
    T.record_hist "schedule.nodes" (float_of_int n);
    T.record_hist "schedule.sccs" (float_of_int (Array.length comps));
    T.record_hist "schedule.nondegenerate_sccs"
      (float_of_int (List.length nondegenerate))
  end;
  (* Critical sub-slice: non-degenerate SCC members plus their
     intra-iteration backward closure (the values the next thread needs). *)
  let critical = Array.make n false in
  List.iter
    (fun ci ->
      Array.iteri (fun v c -> if c = ci then critical.(v) <- true) comp_of)
    nondegenerate;
  let intra_edges =
    List.filter_map (fun (s, d, lc) -> if lc then None else Some (s, d)) edges
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (s, d) ->
        if critical.(d) && not critical.(s) then begin
          critical.(s) <- true;
          changed := true
        end)
      intra_edges
  done;
  (* --- List scheduling by maximum dependence height (intra edges only),
     ties by lower original address. --- *)
  let g_intra =
    Digraph.make ~n (List.filter (fun (s, d) -> s <> d) intra_edges)
  in
  let weights i = latency_of profile cfg prog arr.(i) in
  let heights =
    try Digraph.longest_path g_intra ~node_weight:weights
    with Invalid_argument _ -> Array.init n weights
  in
  let order_of idxs =
    List.sort
      (fun a b ->
        let c = compare heights.(b) heights.(a) in
        if c <> 0 then c
        else
          compare (Ssp_ir.Prog.addr_of f arr.(a)) (Ssp_ir.Prog.addr_of f arr.(b)))
      idxs
    (* Stabilize into a legal order: topological among chosen, using the
       priority order as tie-break. *)
    |> fun prio ->
    let chosen = List.sort_uniq compare idxs in
    let rank = Hashtbl.create 16 in
    List.iteri (fun i v -> Hashtbl.replace rank v i) prio;
    let in_set v = List.mem v chosen in
    let indeg = Hashtbl.create 16 in
    List.iter (fun v -> Hashtbl.replace indeg v 0) chosen;
    List.iter
      (fun (s, d) ->
        if in_set s && in_set d then
          Hashtbl.replace indeg d (1 + Hashtbl.find indeg d))
      intra_edges;
    let out = ref [] in
    let remaining = ref chosen in
    while !remaining <> [] do
      let ready =
        List.filter (fun v -> Hashtbl.find indeg v = 0) !remaining
      in
      let pick =
        match
          List.sort (fun a b -> compare (Hashtbl.find rank a) (Hashtbl.find rank b)) ready
        with
        | p :: _ -> p
        | [] -> List.hd !remaining (* cycle: break arbitrarily *)
      in
      out := pick :: !out;
      remaining := List.filter (fun v -> v <> pick) !remaining;
      List.iter
        (fun (s, d) ->
          if s = pick && in_set d && Hashtbl.find indeg d > 0 then
            Hashtbl.replace indeg d (Hashtbl.find indeg d - 1))
        intra_edges
    done;
    List.rev !out
  in
  let crit_idx = List.filter (fun i -> critical.(i)) (List.init n Fun.id) in
  let noncrit_idx =
    List.filter (fun i -> not critical.(i)) (List.init n Fun.id)
  in
  let order_critical = List.map (fun i -> arr.(i)) (order_of crit_idx) in
  let order_non_critical = List.map (fun i -> arr.(i)) (order_of noncrit_idx) in
  (* --- Spawn condition (§3.2.1.1 condition prediction). --- *)
  let spawn_cond =
    if not is_loop then Predicted { depth = 1 }
    else
      match continue_branch regions slice with
      | None -> Predicted { depth = max 1 trips }
      | Some (br, reg, spawn_if_nonzero) -> (
        match slice_condition regions profile slice br reg with
        | Some extra -> Cond { extra; reg; spawn_if_nonzero }
        | None -> Predicted { depth = max 1 trips })
  in
  (* The condition's own external inputs become additional (invariant)
     live-ins so the speculative thread can evaluate it. *)
  let slice =
    match spawn_cond with
    | Predicted _ -> slice
    | Cond { extra; reg; _ } ->
      let reach = Regions.reaching_of regions fn in
      let blocks = Regions.blocks_of regions slice.Slice.region in
      let in_region (i : Ssp_ir.Iref.t) =
        String.equal i.fn fn && List.mem i.blk blocks
      in
      let known r =
        List.exists (fun (l : Slice.live_in) -> l.Slice.orig_reg = r)
          slice.Slice.live_ins
      in
      let extra_set =
        List.fold_left (fun a i -> Ssp_ir.Iref.Set.add i a)
          slice.Slice.instrs extra
      in
      let new_live = ref [] in
      List.iter
        (fun use ->
          let op = Ssp_ir.Prog.instr prog use in
          List.iter
            (fun r ->
              List.iter
                (fun (df : Reaching.def) ->
                  let site = df.Reaching.site in
                  let external_ =
                    site.Ssp_ir.Iref.ins = -1
                    || (not (in_region site))
                    || not (Ssp_ir.Iref.Set.mem site extra_set)
                  in
                  if external_ && (not (known r))
                     && not
                          (List.exists
                             (fun (l : Slice.live_in) -> l.Slice.orig_reg = r)
                             !new_live)
                  then
                    new_live :=
                      { Slice.orig_reg = r; def_sites = []; recurrence = false }
                      :: !new_live)
                (Reaching.reaching_defs reach ~use r))
            (Op.uses op))
        (extra @ [ (match (continue_branch regions slice, extra) with
                    | Some (br, _, _), _ -> br
                    | None, e :: _ -> e
                    | None, [] ->
                      Ssp_ir.Error.raise_error ~pass:"schedule" ~fn
                        "chaining schedule: region has neither a continue \
                         branch nor chained uses to seed live-ins from") ]);
      ignore reg;
      { slice with Slice.live_ins = slice.Slice.live_ins @ List.rev !new_live }
  in
  (* --- Heights and slack ingredients. --- *)
  let region_nodes =
    List.concat_map
      (fun bi ->
        let ops = f.Ssp_ir.Prog.blocks.(bi).Ssp_ir.Prog.ops in
        List.init (Array.length ops) (fun ii -> Ssp_ir.Iref.make fn bi ii))
      (Regions.blocks_of regions slice.Slice.region)
  in
  let height_region = height_of regions profile cfg region_nodes in
  let height_critical = height_of regions profile cfg order_critical in
  let height_slice = height_of regions profile cfg nodes in
  let nlive = List.length slice.Slice.live_ins in
  let copy_spawn_latency =
    cfg.Ssp_machine.Config.spawn_latency
    + cfg.Ssp_machine.Config.lib_latency
    + ((nlive + 1) / 2)
  in
  let total_latency =
    List.fold_left (fun acc x -> acc + latency_of profile cfg prog x) 0 nodes
  in
  let available_ilp =
    if height_slice = 0 then 1.0
    else float_of_int total_latency /. float_of_int height_slice
  in
  let recurrence_regs =
    List.filter_map
      (fun (l : Slice.live_in) ->
        if l.Slice.recurrence then Some l.Slice.orig_reg else None)
      slice.Slice.live_ins
  in
  (* --- Inner-loop sub-slice (the health pattern): a loop strictly inside
     the region over whose back edge the slice carries a recurrence. When
     found, code generation preserves the loop so a single speculative
     thread prefetches the whole traversal (one inner loop per slice; the
     deepest qualifying one wins). --- *)
  let inner =
    let loops = Regions.loops_of regions fn in
    let region_loop_id =
      match Regions.loop_of regions slice.Slice.region with
      | Some l -> Some l.Loops.id
      | None -> None
    in
    let region_depth = Regions.depth regions slice.Slice.region in
    let candidates =
      List.filter
        (fun (l : Loops.loop) ->
          Some l.Loops.id <> region_loop_id
          && l.Loops.depth > region_depth
          && List.exists
               (fun (i : Ssp_ir.Iref.t) -> List.mem i.blk l.Loops.body)
               nodes)
        (Loops.all loops)
    in
    let deepest =
      List.fold_left
        (fun acc (l : Loops.loop) ->
          match acc with
          | Some (best : Loops.loop) when best.Loops.depth >= l.Loops.depth ->
            acc
          | _ -> Some l)
        None candidates
    in
    match deepest with
    | None -> None
    | Some l ->
      let in_l (i : Ssp_ir.Iref.t) = List.mem i.blk l.Loops.body in
      let order = order_critical @ order_non_critical in
      let body = List.filter in_l order in
      let pre = List.filter (fun i -> not (in_l i)) order in
      (* Registers the slice carries around this loop's back edge. *)
      let reach = Regions.reaching_of regions fn in
      let carried = ref [] in
      List.iter
        (fun (use : Ssp_ir.Iref.t) ->
          let op = Ssp_ir.Prog.instr prog use in
          List.iter
            (fun r ->
              let all = Reaching.reaching_defs reach ~use r in
              let intra = Reaching.defs_without_back_edges reach ~use r in
              List.iter
                (fun (df : Reaching.def) ->
                  let site = df.Reaching.site in
                  if
                    site.Ssp_ir.Iref.ins >= 0 && in_l site
                    && List.exists (Ssp_ir.Iref.equal site) body
                    && (not
                          (List.exists
                             (fun (i : Reaching.def) ->
                               Ssp_ir.Iref.equal i.Reaching.site site)
                             intra))
                    && not (List.mem r !carried)
                  then carried := r :: !carried)
                all)
            (Op.uses op))
        body;
      if body = [] || !carried = [] then None
      else begin
        let inner_entries =
          max 1
            (Ssp_profiling.Profile.block_freq profile fn l.Loops.header
            - List.fold_left
                (fun acc (src, _) ->
                  acc + Ssp_profiling.Profile.block_freq profile fn src)
                0 l.Loops.back_edges)
        in
        let inner_trips =
          max 1
            (Ssp_profiling.Profile.block_freq profile fn l.Loops.header
            / inner_entries)
        in
        let cond =
          match continue_branch_of_loop regions fn l with
          | None -> Predicted { depth = inner_trips }
          | Some (br, reg, continue_if_nonzero) -> (
            match slice_condition regions profile slice br reg with
            | Some extra ->
              Cond { extra; reg; spawn_if_nonzero = continue_if_nonzero }
            | None -> Predicted { depth = inner_trips })
        in
        Some
          {
            loop_id = l.Loops.id;
            body;
            pre;
            carried = !carried;
            cond;
            trips = inner_trips;
          }
      end
  in
  {
    slice;
    order_critical;
    order_non_critical;
    spawn_cond;
    recurrence_regs;
    height_region;
    height_critical;
    height_slice;
    copy_spawn_latency;
    rotation;
    loop_carried_edges;
    available_ilp;
    inner;
  }

let slack_csp t i =
  max 0 ((t.height_region - t.height_critical - t.copy_spawn_latency) * i)

let slack_bsp t i = max 0 ((t.height_region - t.height_slice) * i)
