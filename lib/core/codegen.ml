open Ssp_isa
module F = Ssp_fault.Fault

let site_refuse = F.site "adapt.codegen.refuse"

(* Live-in buffer slot carrying the chain-depth bound of predicted spawn
   conditions: the last slot. *)
let depth_slot = Ssp_sim.Thread.lib_slots - 1

(* Label gensym: [ssp_<stem>_<n>] with [n] counting up from [start].
   [apply] starts every call at 0, so the emitted assembly is deterministic
   and concurrent applies never share state. *)
let gensym start =
  let n = ref start in
  fun stem ->
    Stdlib.incr n;
    Printf.sprintf "ssp_%s_%d" stem !n

(* Raw rewriting (hand adaptation) runs on programs [apply] already
   rewrote, so its numbers start past the largest [ssp_*_<n>] label in the
   program: unique within it, whatever else ran in the process. *)
let program_gensym (prog : Ssp_ir.Prog.t) =
  let number l =
    match String.rindex_opt l '_' with
    | Some i when String.starts_with ~prefix:"ssp_" l ->
      int_of_string_opt (String.sub l (i + 1) (String.length l - i - 1))
    | _ -> None
  in
  let last = ref 0 in
  Hashtbl.iter
    (fun _ (f : Ssp_ir.Prog.func) ->
      Array.iter
        (fun (b : Ssp_ir.Prog.block) ->
          Option.iter (fun k -> last := max !last k) (number b.Ssp_ir.Prog.label))
        f.Ssp_ir.Prog.blocks)
    prog.Ssp_ir.Prog.funcs;
  gensym !last

(* Renaming state for slice emission: original register -> slice register.
   Fresh registers come from the stacked partition of the (clean)
   speculative context. *)
type rename = {
  mutable map : (Reg.t * Reg.t) list;
  mutable next : Reg.t;
  by_site : Reg.t Ssp_ir.Iref.Tbl.t;
      (* renamed destination of each emitted slice instruction, so targets
         whose original registers were reused (temporaries) can resolve
         their address through the defining instruction *)
}

let rename_create () =
  { map = []; next = Reg.first_stacked; by_site = Ssp_ir.Iref.Tbl.create 16 }

let rename_fresh rn =
  if rn.next >= Reg.count then
    Ssp_ir.Error.raise_error ~pass:"codegen" "slice out of registers";
  let r = rn.next in
  rn.next <- r + 1;
  r

let rename_use rn r =
  if r = Reg.zero then Reg.zero
  else
    match List.assoc_opt r rn.map with
    | Some r' -> r'
    | None ->
      (* An unexpected external value: speculative contexts start zeroed, so
         reading a fresh register yields 0 — harmless for prefetching. *)
      let r' = rename_fresh rn in
      rn.map <- (r, r') :: rn.map;
      r'

let rename_def rn r =
  if r = Reg.zero then Reg.zero
  else begin
    let r' = rename_fresh rn in
    rn.map <- (r, r') :: List.remove_assoc r rn.map;
    r'
  end

let rename_instr ?site rn op =
  let record d =
    (match site with
    | Some i -> Ssp_ir.Iref.Tbl.replace rn.by_site i d
    | None -> ());
    d
  in
  match op with
  | Op.Movi (d, i) -> Op.Movi (record (rename_def rn d), i)
  | Op.Mov (d, s) ->
    let s' = rename_use rn s in
    Op.Mov (record (rename_def rn d), s')
  | Op.Alu (o, d, a, b) ->
    let a' = rename_use rn a and b' = rename_use rn b in
    Op.Alu (o, record (rename_def rn d), a', b')
  | Op.Alui (o, d, a, i) ->
    let a' = rename_use rn a in
    Op.Alui (o, record (rename_def rn d), a', i)
  | Op.Cmp (o, d, a, b) ->
    let a' = rename_use rn a and b' = rename_use rn b in
    Op.Cmp (o, record (rename_def rn d), a', b')
  | Op.Cmpi (o, d, a, i) ->
    let a' = rename_use rn a in
    Op.Cmpi (o, record (rename_def rn d), a', i)
  | Op.Load (w, d, b, off) ->
    let b' = rename_use rn b in
    Op.Load (w, record (rename_def rn d), b', off)
  | _ ->
    Ssp_ir.Error.raise_error ~pass:"codegen" ~instr:(Op.to_string op)
      "non-replayable instruction in slice"

let append_blocks (f : Ssp_ir.Prog.func) blocks =
  f.Ssp_ir.Prog.blocks <-
    Array.append f.Ssp_ir.Prog.blocks (Array.of_list blocks)

(* Emit the speculative-thread code of one scheduled slice; returns the
   label of its first block and the emitted prefetch sites (lfetches and
   value-used target-load copies) mapped to their original target loads.

   With [unroll] = K > 1 one speculative thread precomputes K consecutive
   iterations: the critical sub-slice is replicated K times (advancing the
   recurrences K steps) before the chained spawn, and the non-critical
   sub-slice runs once per step using that step's register versions. *)
let emit_slice ~fresh prog (choice : Select.choice) =
  let sched = choice.Select.schedule in
  let slice = sched.Schedule.slice in
  let unroll = max 1 choice.Select.unroll in
  let f = Ssp_ir.Prog.find_func prog slice.Slice.fn in
  let l_slice = fresh "slice" in
  let l_skip = fresh "skip" in
  let rn = rename_create () in
  (* Prefetch-site marks, for attribution: every emitted instruction that
     acts as a prefetch of a target load — the lfetches, and the slice
     copies of value-used target loads (those emit no lfetch; the load
     itself is the prefetch). Recorded as (label, index-in-block, target)
     and resolved to block indices once the blocks are appended. *)
  let marks : (string * int * Ssp_ir.Iref.t) list ref = ref [] in
  let mark label buf target =
    marks := (label, List.length !buf, target) :: !marks
  in
  let vu_loads =
    List.filter_map
      (fun (t : Slice.target) ->
        if t.Slice.value_used then Some t.Slice.load else None)
      slice.Slice.targets
  in
  let is_vu i = List.exists (Ssp_ir.Iref.equal i) vu_loads in
  let resolve_marks () =
    let blocks = f.Ssp_ir.Prog.blocks in
    let index_of label =
      let n = Array.length blocks in
      let rec go i =
        if i >= n then
          Ssp_ir.Error.raise_error ~pass:"codegen" ~fn:slice.Slice.fn
            (Printf.sprintf "unresolved slice label %s" label)
        else if String.equal blocks.(i).Ssp_ir.Prog.label label then i
        else go (i + 1)
      in
      go 0
    in
    List.rev_map
      (fun (label, ins, target) ->
        ({ Ssp_ir.Iref.fn = slice.Slice.fn; blk = index_of label; ins }, target))
      !marks
  in
  let body = ref [] in
  let emit op = body := op :: !body in
  (* Live-in loads. *)
  List.iteri
    (fun slot (l : Slice.live_in) ->
      let r = rename_fresh rn in
      rn.map <- (l.Slice.orig_reg, r) :: rn.map;
      emit (Op.Lib_ld (r, slot)))
    slice.Slice.live_ins;
  let depth_reg =
    match (choice.Select.model, sched.Schedule.spawn_cond) with
    | Select.Chaining, Schedule.Predicted _ ->
      let d = rename_fresh rn in
      emit (Op.Lib_ld (d, depth_slot));
      Some d
    | _ -> None
  in
  let instr_of i = Ssp_ir.Prog.instr prog i in
  (* Reaching definitions of the (not yet rewritten) host function: targets
     resolve their address through the definition that reaches the load, so
     reused temporaries do not alias different targets to one register. *)
  let reach = Ssp_analysis.Reaching.compute (Ssp_analysis.Cfg.of_func f) in
  let target_base_via (t : Slice.target) =
    (* The renamed register holding a target's address: through the slice
       member whose definition reaches the load (reused temporaries would
       otherwise alias different targets), else the current map. *)
    let candidates =
      Ssp_analysis.Reaching.reaching_defs reach ~use:t.Slice.load
        t.Slice.addr_reg
    in
    match
      List.find_map
        (fun (d : Ssp_analysis.Reaching.def) ->
          Ssp_ir.Iref.Tbl.find_opt rn.by_site d.Ssp_analysis.Reaching.site)
        candidates
    with
    | Some r -> r
    | None -> rename_use rn t.Slice.addr_reg
  in
  let emit_prefetches ~label =
    let seen = Hashtbl.create 8 in
    List.iter
      (fun (t : Slice.target) ->
        if not t.Slice.value_used then begin
          let base = target_base_via t in
          if not (Hashtbl.mem seen (base, t.Slice.offset)) then begin
            Hashtbl.replace seen (base, t.Slice.offset) ();
            mark label body t.Slice.load;
            emit (Op.Lfetch (base, t.Slice.offset))
          end
        end)
      slice.Slice.targets
  in
  (* --- Inner-loop slices (basic SP): keep the loop, so one speculative
     thread prefetches the whole traversal (the paper's interprocedural
     health slice). Loop-carried registers get fixed homes; every round
     copies the new versions back before the back edge. --- *)
  match (choice.Select.model, sched.Schedule.inner) with
  | Select.Basic, Some inner ->
    let l_loop = fresh "sloop" in
    let l_done = fresh "sdone" in
    List.iter
      (fun i ->
        if is_vu i then mark l_slice body i;
        emit (rename_instr ~site:i rn (instr_of i)))
      inner.Schedule.pre;
    let homes =
      List.map
        (fun r ->
          let home = rename_fresh rn in
          emit (Op.Mov (home, rename_use rn r));
          rn.map <- (r, home) :: List.remove_assoc r rn.map;
          (r, home))
        inner.Schedule.carried
    in
    (* Bounded even when the condition is predicted: a countdown. *)
    let counter = rename_fresh rn in
    let bound =
      match inner.Schedule.cond with
      | Schedule.Predicted { depth } -> max 1 depth
      | Schedule.Cond _ -> 4 * max 1 inner.Schedule.trips
    in
    emit (Op.Movi (counter, Int64.of_int bound));
    let pre_ops = List.rev !body in
    body := [];
    List.iter
      (fun i ->
        if is_vu i then mark l_loop body i;
        emit (rename_instr ~site:i rn (instr_of i)))
      inner.Schedule.body;
    emit_prefetches ~label:l_loop;
    (match inner.Schedule.cond with
    | Schedule.Cond { extra; reg; spawn_if_nonzero } ->
      List.iter (fun i -> emit (rename_instr ~site:i rn (instr_of i))) extra;
      let c = rename_use rn reg in
      if spawn_if_nonzero then emit (Op.Brz (c, l_done))
      else emit (Op.Brnz (c, l_done))
    | Schedule.Predicted _ -> ());
    List.iter
      (fun (r, home) ->
        let cur = rename_use rn r in
        if cur <> home then emit (Op.Mov (home, cur));
        rn.map <- (r, home) :: List.remove_assoc r rn.map)
      homes;
    let counter' = rename_fresh rn in
    emit (Op.Alui (Op.Sub, counter', counter, 1L));
    emit (Op.Mov (counter, counter'));
    emit (Op.Brnz (counter, l_loop));
    let loop_ops = List.rev !body in
    append_blocks f
      [
        { Ssp_ir.Prog.label = l_slice; ops = Array.of_list pre_ops };
        { Ssp_ir.Prog.label = l_loop; ops = Array.of_list loop_ops };
        { Ssp_ir.Prog.label = l_done; ops = [| Op.Kill |] };
      ];
    (l_slice, resolve_marks ())
  | _ ->
  (* Critical sub-slice, replicated per unrolled step; snapshot the
     register versions after each step for its non-critical twin. *)
  let snapshots = ref [] in
  for _step = 1 to unroll do
    List.iter
      (fun i ->
        if is_vu i then mark l_slice body i;
        emit (rename_instr ~site:i rn (instr_of i)))
      sched.Schedule.order_critical;
    snapshots := rn.map :: !snapshots
  done;
  let snapshots = List.rev !snapshots in
  (* Spawn sequence (chaining only). *)
  (match choice.Select.model with
  | Select.Basic -> ()
  | Select.Chaining ->
    (match sched.Schedule.spawn_cond with
    | Schedule.Cond { extra; reg; spawn_if_nonzero } ->
      List.iter (fun i -> emit (rename_instr ~site:i rn (instr_of i))) extra;
      let c = rename_use rn reg in
      if spawn_if_nonzero then emit (Op.Brz (c, l_skip))
      else emit (Op.Brnz (c, l_skip))
    | Schedule.Predicted _ -> (
      match depth_reg with
      | Some d ->
        let t = rename_fresh rn in
        emit (Op.Cmpi (Op.Le, t, d, 0L));
        emit (Op.Brnz (t, l_skip))
      | None -> ()));
    (* Copy the next thread's live-ins into the buffer. *)
    List.iteri
      (fun slot (l : Slice.live_in) ->
        emit (Op.Lib_st (slot, rename_use rn l.Slice.orig_reg)))
      slice.Slice.live_ins;
    (match depth_reg with
    | Some d ->
      let d' = rename_fresh rn in
      emit (Op.Alui (Op.Sub, d', d, Int64.of_int unroll));
      emit (Op.Lib_st (depth_slot, d'))
    | None -> ());
    emit (Op.Spawn (slice.Slice.fn, l_slice)));
  let head = List.rev !body in
  (* Non-critical sub-slice + prefetches + kill, in the skip block — once
     per unrolled step, reading that step's register versions. *)
  let tail = ref [] in
  let emit op = tail := op :: !tail in
  List.iter
    (fun snapshot ->
      rn.map <- snapshot;
      List.iter
        (fun i ->
          if is_vu i then mark l_skip tail i;
          emit (rename_instr ~site:i rn (instr_of i)))
        sched.Schedule.order_non_critical;
      let seen = Hashtbl.create 8 in
      List.iter
        (fun (t : Slice.target) ->
          if not t.Slice.value_used then begin
            let base = target_base_via t in
            if not (Hashtbl.mem seen (base, t.Slice.offset)) then begin
              Hashtbl.replace seen (base, t.Slice.offset) ();
              mark l_skip tail t.Slice.load;
              emit (Op.Lfetch (base, t.Slice.offset))
            end
          end)
        slice.Slice.targets)
    snapshots;
  emit Op.Kill;
  append_blocks f
    [
      { Ssp_ir.Prog.label = l_slice; ops = Array.of_list head };
      { Ssp_ir.Prog.label = l_skip; ops = Array.of_list (List.rev !tail) };
    ];
  (l_slice, resolve_marks ())

(* Insert a chk.c at a trigger point by splitting the block, appending the
   given stub body (without its final resume branch) as the recovery code. *)
let insert_chk_gen ~fresh prog ~fn ~blk ~pos ~stub_ops =
  let f = Ssp_ir.Prog.find_func prog fn in
  let b = f.Ssp_ir.Prog.blocks.(blk) in
  let ops = b.Ssp_ir.Prog.ops in
  let n = Array.length ops in
  let pos = min pos n in
  let l_stub = fresh "stub" in
  let l_resume = fresh "resume" in
  let head = Array.sub ops 0 pos in
  let tail = Array.sub ops pos (n - pos) in
  (* The moved tail must not fall through past the resume block. *)
  let tail =
    let needs_br =
      n - pos = 0 || not (Op.is_terminator tail.(Array.length tail - 1))
    in
    if needs_br then begin
      if blk + 1 >= Array.length f.Ssp_ir.Prog.blocks then
        Ssp_ir.Error.raise_error ~pass:"codegen" ~fn
          ~instr:(Printf.sprintf "block %d, pos %d" blk pos)
          "fallthrough at function end";
      let next = f.Ssp_ir.Prog.blocks.(blk + 1).Ssp_ir.Prog.label in
      Array.append tail [| Op.Br next |]
    end
    else tail
  in
  b.Ssp_ir.Prog.ops <- Array.append head [| Op.Chk_c l_stub; Op.Br l_resume |];
  append_blocks f
    [
      {
        Ssp_ir.Prog.label = l_stub;
        ops = Array.of_list (stub_ops @ [ Op.Br l_resume ]);
      };
      { Ssp_ir.Prog.label = l_resume; ops = tail };
    ]

let insert_chk prog ~fn ~blk ~pos ~stub_ops =
  insert_chk_gen ~fresh:(program_gensym prog) prog ~fn ~blk ~pos ~stub_ops

let append_raw_block prog ~fn ~stem ops =
  let label = program_gensym prog stem in
  append_blocks (Ssp_ir.Prog.find_func prog fn)
    [ { Ssp_ir.Prog.label; ops = Array.of_list ops } ];
  label

let insert_trigger ~fresh prog (choice : Select.choice) ~slice_label (t : Trigger.t) =
  let sched = choice.Select.schedule in
  let slice = sched.Schedule.slice in
  (* Stub: copy live-ins (main-thread registers) to the buffer, seed the
     chain depth, spawn. Scratch r2 is free by convention. *)
  let stub = ref [] in
  let emit op = stub := op :: !stub in
  List.iteri
    (fun slot (l : Slice.live_in) ->
      emit (Op.Lib_st (slot, l.Slice.orig_reg)))
    slice.Slice.live_ins;
  (match (choice.Select.model, sched.Schedule.spawn_cond) with
  | Select.Chaining, Schedule.Predicted { depth } ->
    emit (Op.Movi (2, Int64.of_int depth));
    emit (Op.Lib_st (depth_slot, 2))
  | _ -> ());
  emit (Op.Spawn (slice.Slice.fn, slice_label));
  insert_chk_gen ~fresh prog ~fn:t.Trigger.fn ~blk:t.Trigger.blk
    ~pos:t.Trigger.pos ~stub_ops:(List.rev !stub)

type apply_result = {
  prefetch_map : Ssp_ir.Iref.t Ssp_ir.Iref.Map.t;
  dropped : (Ssp_ir.Iref.t * Ssp_ir.Error.info) list;
      (* (delinquent load of the failing choice, error); slice-emission
         failures drop the whole choice, trigger failures only that
         trigger — either way the program stays valid and the failure is
         reported instead of aborting adaptation *)
}

let apply prog cfg (choices : Select.choice list) =
  ignore cfg;
  let fresh = gensym 0 in
  let dropped = ref [] in
  let drop (choice : Select.choice) e =
    dropped := (choice.Select.load.Delinquent.iref, e) :: !dropped
  in
  (* Emit every slice first: appends never move existing instructions, so
     the position-based slice references of later choices stay valid. Then
     insert all triggers, globally ordered from the highest position down
     within each block, so splits never invalidate a pending position.
     (Trigger insertion splits original blocks and appends stubs after the
     slice blocks, so the prefetch-site refs collected here stay valid.)

     Failures are isolated per choice: [emit_slice] only mutates the
     program once emission has fully succeeded (blocks are appended at the
     end), so a refusing choice is dropped cleanly; a failing trigger
     leaves its block untouched, and a slice without (all of) its triggers
     is merely dead speculative code — never a correctness hazard. *)
  let prefetch_map = ref Ssp_ir.Iref.Map.empty in
  let pending =
    List.concat_map
      (fun (choice : Select.choice) ->
        let load = choice.Select.load.Delinquent.iref in
        match
          if F.fire ~key:(Ssp_ir.Iref.hash load) site_refuse then
            Ssp_ir.Error.raise_error ~injected:true ~pass:"codegen"
              ~fn:choice.Select.schedule.Schedule.slice.Slice.fn
              ~instr:(Ssp_ir.Iref.to_string load)
              "codegen refused slice";
          emit_slice ~fresh prog choice
        with
        | slice_label, marks ->
          List.iter
            (fun (site, target) ->
              prefetch_map := Ssp_ir.Iref.Map.add site target !prefetch_map)
            marks;
          List.map (fun t -> (choice, slice_label, t)) choice.Select.triggers
        | exception Ssp_ir.Error.Error e ->
          drop choice e;
          [])
      choices
  in
  let pending =
    List.sort
      (fun (_, _, (a : Trigger.t)) (_, _, (b : Trigger.t)) ->
        compare (b.Trigger.fn, b.Trigger.blk, b.Trigger.pos)
          (a.Trigger.fn, a.Trigger.blk, a.Trigger.pos))
      pending
  in
  List.iter
    (fun (choice, slice_label, t) ->
      try insert_trigger ~fresh prog choice ~slice_label t
      with Ssp_ir.Error.Error e -> drop choice e)
    pending;
  (match Ssp_ir.Validate.check prog with
  | Ok () -> ()
  | Error es ->
    let msg =
      String.concat "; "
        (List.map (fun e -> Format.asprintf "%a" Ssp_ir.Validate.pp_error e) es)
    in
    Ssp_ir.Error.raise_error ~pass:"codegen"
      ("invalid program after rewriting: " ^ msg));
  { prefetch_map = !prefetch_map; dropped = List.rev !dropped }
