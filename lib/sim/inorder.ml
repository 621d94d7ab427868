open Ssp_isa
open Ssp_machine
module T = Ssp_telemetry.Telemetry

(* The in-order Itanium-flavoured core. The hot loop runs on flat
   preallocated state: layout tables (pc numbering, bundle indices) come
   from [Smt.layout_of]'s per-context memo, operand queries go through
   caller-owned scratch arrays, and events are constant constructors — the
   steady-state cycle allocates (almost) nothing. A cycle in which no
   context can issue is quiet: nothing changes until the earliest cycle at
   which one can, so the clock jumps there ([Smt.skip_quiet]). *)
let run ?attrib ?sampling (cfg : Config.t) (prog : Ssp_ir.Prog.t) =
  T.with_span "sim.inorder" @@ fun () ->
  let m = Smt.create ?attrib cfg prog in
  let stats = m.Smt.stats in
  let now = ref 0 in
  let stepping = ref m.Smt.ctxs.(0) in
  let env =
    {
      Exec.mem = m.Smt.mem;
      prog;
      chk_free = (fun () -> Smt.chk_allowed m ~now:!now !stepping);
      spawn =
        (fun ~src ~fn ~blk ~live_in ->
          (* Injected chained-spawn breakage: a speculative thread's spawn
             silently fails, cutting the chain. *)
          if
            (!stepping).Smt.thread.Thread.speculative
            && Ssp_fault.Fault.fire Smt.site_chain_break
          then false
          else Smt.try_spawn m ~now:!now ~src ~fn ~blk ~live_in);
      output = (fun v -> Stats.push_output stats v);
      ev_addr = 0L;
    }
  in
  let main = m.Smt.ctxs.(0) in
  (* Scratch for allocation-free operand queries. *)
  let ubuf = Array.make Op.scratch_regs 0 in
  let dbuf = Array.make Op.scratch_regs 0 in
  (* Sampled-simulation bookkeeping (instructions left in the current
     detailed window; fast-forwarded instruction and estimated-cycle
     totals). *)
  let detail_left = ref max_int in
  let ff_total = ref 0 in
  let est_extra = ref 0.0 in
  (* Measurement marks: each fast-forward is extrapolated from the CPI of
     its own surrounding detailed window (local, SMARTS-style), and the
     first third of every detailed window is detailed warming — executed
     cycle-accurately but excluded from the estimator, so the ramp-up of
     the drained fill buffer / pipeline after a fast-forward doesn't bias
     the CPI fast. *)
  let win_cycles0 = ref 0 in
  let win_instrs0 = ref 0 in
  let measuring = ref false in
  let jst = ref Smt.jitter_seed in
  (* Centered extrapolation: a fast-forwarded chunk is charged the average
     CPI of the detailed windows on BOTH sides (the one before is in
     [prev_cpi], the one after settles the [pending_k] instrs) — halves
     the error of chunks spanning a phase transition. *)
  let pending_k = ref 0 in
  let prev_cpi = ref 0.0 in
  (match sampling with
  | Some s -> detail_left := s.Smt.detail_window
  | None -> ());
  (* Shared function units, reset each cycle. *)
  let mem_used = ref 0 in
  let is_mem op =
    match op with
    | Op.Load _ | Op.Store _ | Op.Lfetch _ -> true
    | _ -> false
  in
  (* Scoreboard: the registers [op] defines become ready at cycle [ready]. *)
  let finish_defs (ctx : Smt.context) op ready =
    let nd = Op.defs_into op dbuf in
    for i = 0 to nd - 1 do
      ctx.Smt.reg_ready.(dbuf.(i)) <- ready
    done
  in
  (* Issue as much as the thread's bundle budget allows this cycle.
     Returns the number of instructions issued. *)
  let issue_thread (ctx : Smt.context) =
    stepping := ctx;
    let th = ctx.Smt.thread in
    let issued = ref 0 in
    let blocked = ref false in
    while (not !blocked) && th.Thread.active && ctx.Smt.bundle_left > 0 do
      let e = Smt.layout_of m ctx in
      let blk0 = th.Thread.blk and ins0 = th.Thread.ins in
      let pcid = e.Layout.block_base.(blk0) + ins0 in
      let op = e.Layout.func.Ssp_ir.Prog.blocks.(blk0).ops.(ins0) in
      (* Scoreboard: every source operand must be ready (stall-on-use). *)
      let nu = Op.uses_into op ubuf in
      let unready = ref false in
      for i = 0 to nu - 1 do
        if ctx.Smt.reg_ready.(ubuf.(i)) > !now then unready := true
      done;
      if !unready then blocked := true
      else if is_mem op && !mem_used >= cfg.Config.mem_ports then
        (* structural hazard: both memory ports busy this cycle *)
        blocked := true
      else begin
        let start_bundle = e.Layout.bundle_idx.(blk0).(ins0) in
        (* Instruction-fetch: charge an I-cache access at block entry. *)
        if ins0 = 0 then begin
          let ia = Layout.pc_addr e ~blk:blk0 ~ins:0 in
          let o = Hierarchy.ifetch m.Smt.hier ~now:!now ia in
          if o.Hierarchy.level <> Hierarchy.L1 then begin
            ctx.Smt.redirect_until <- o.Hierarchy.ready;
            blocked := true
          end
        end;
        if not !blocked then begin
          (* Predict branches before executing (Exec moves the pc). *)
          let is_cond =
            match op with Op.Brnz _ | Op.Brz _ -> true | _ -> false
          in
          let predicted =
            is_cond && Bpred.predict m.Smt.bp ~thread:th.Thread.id ~pc:pcid
          in
          let ev = Exec.step_op env th e.Layout.func op in
          incr issued;
          if is_mem op then incr mem_used;
          if th.Thread.id = 0 then begin
            stats.Stats.main_instrs <- stats.Stats.main_instrs + 1;
            decr detail_left
          end
          else stats.Stats.spec_instrs <- stats.Stats.spec_instrs + 1;
          let base_latency = Latency.of_op op in
          (match ev with
          | Exec.Ev_load ->
            let o =
              Smt.demand_access m ~now:!now ~ctx ~pc:pcid env.Exec.ev_addr
            in
            finish_defs ctx op o.Hierarchy.ready
          | Exec.Ev_store -> (
            (* Write-allocate; the store buffer hides the latency. *)
            match m.Smt.attrib with
            | None ->
              ignore
                (Hierarchy.demand m.Smt.hier ~now:!now ~low_priority:false
                   env.Exec.ev_addr)
            | Some _ ->
              ignore
                (Hierarchy.access m.Smt.hier ~now:!now
                   ~demand_main:(th.Thread.id = 0) env.Exec.ev_addr))
          | Exec.Ev_prefetch -> (
            stats.Stats.prefetches <- stats.Stats.prefetches + 1;
            match m.Smt.attrib with
            | None ->
              ignore (Hierarchy.prefetch m.Smt.hier ~now:!now env.Exec.ev_addr)
            | Some _ ->
              let iref = Layout.iref_of m.Smt.lay pcid in
              ignore
                (Hierarchy.access m.Smt.hier ~now:!now ~prefetch:true
                   ?pf_tag:(Smt.pf_tag_of m ctx iref) env.Exec.ev_addr))
          | Exec.Ev_branch_taken | Exec.Ev_branch_not_taken ->
            let taken = ev = Exec.Ev_branch_taken in
            if is_cond then begin
              Bpred.update m.Smt.bp ~thread:th.Thread.id ~pc:pcid ~taken;
              if predicted <> taken then begin
                stats.Stats.mispredicts <- stats.Stats.mispredicts + 1;
                ctx.Smt.redirect_until <- !now + cfg.Config.front_end_penalty;
                blocked := true
              end
              else if taken then begin
                (* Correctly predicted taken: needs the BTB for the target. *)
                if not (Bpred.btb_lookup m.Smt.bp ~pc:pcid) then begin
                  Bpred.btb_insert m.Smt.bp ~pc:pcid;
                  ctx.Smt.redirect_until <- !now + 2;
                  blocked := true
                end
              end
            end
            else if not (Bpred.btb_lookup m.Smt.bp ~pc:pcid) then begin
              (* Unconditional branch: a taken-branch fetch bubble. *)
              Bpred.btb_insert m.Smt.bp ~pc:pcid;
              ctx.Smt.redirect_until <- !now + 1;
              blocked := true
            end
          | Exec.Ev_call | Exec.Ev_ret ->
            finish_defs ctx op (!now + max 1 base_latency);
            (* Calls and returns redirect the front end briefly. *)
            ctx.Smt.redirect_until <- !now + 1;
            blocked := true
          | Exec.Ev_chk_fired ->
            stats.Stats.chk_fired <- stats.Stats.chk_fired + 1;
            if cfg.Config.spawn_flush then begin
              (* Exception-like pipeline flush (§4.4.1). *)
              ctx.Smt.redirect_until <- !now + cfg.Config.front_end_penalty;
              blocked := true
            end
          | Exec.Ev_chk_nofire -> ()
          | Exec.Ev_spawned | Exec.Ev_spawn_denied ->
            finish_defs ctx op (!now + 1)
          | Exec.Ev_lib -> finish_defs ctx op (!now + cfg.Config.lib_latency)
          | Exec.Ev_halt | Exec.Ev_kill ->
            if th.Thread.speculative then
              Smt.note_thread_end m ctx ~now:!now ~watchdog:false;
            blocked := true
          | Exec.Ev_plain -> finish_defs ctx op (!now + max 1 base_latency));
          Smt.watchdog_check m ~now:!now ctx;
          (* Bundle accounting: crossing into a new bundle (or leaving the
             block) consumes one bundle slot. *)
          let crossed =
            (not th.Thread.active)
            ||
            (let e' = Smt.layout_of m ctx in
             e' != e || th.Thread.blk <> blk0
             || e.Layout.bundle_idx.(blk0).(th.Thread.ins) <> start_bundle)
          in
          if crossed then ctx.Smt.bundle_left <- ctx.Smt.bundle_left - 1
        end
      end
    done;
    !issued
  in
  (* Per-interval telemetry: issue rate and demand misses over time. *)
  let tel = Smt.interval "sim.inorder" in
  (* Main loop. Thread selection fills the machine's scratch array; the
     helpers are hoisted so the steady-state cycle allocates nothing. *)
  let running = ref true in
  (* The first cycle at which a context can issue if nothing else happens
     first: its front end is back ([redirect_until]) and every source of
     its next instruction is ready (stall-on-use); [max_int] when idle. A
     thread is only worth an issue slot once it is ready (Itanium
     stall-on-use would waste the slot otherwise) — an ICOUNT-flavoured SMT
     policy — and the earliest ready cycle ends a quiet stretch. *)
  let ready_cycle (c : Smt.context) =
    let th = c.Smt.thread in
    if not th.Thread.active then max_int
    else begin
      let e = Smt.layout_of m c in
      let op =
        e.Layout.func.Ssp_ir.Prog.blocks.(th.Thread.blk).ops.(th.Thread.ins)
      in
      let nu = Op.uses_into op ubuf in
      let r = ref c.Smt.redirect_until in
      for i = 0 to nu - 1 do
        let t = c.Smt.reg_ready.(ubuf.(i)) in
        if t > !r then r := t
      done;
      !r
    end
  in
  let eligible c = ready_cycle c <= !now in
  let main_issued = ref 0 in
  while !running do
    if !now > cfg.Config.max_cycles then
      failwith "Inorder.run: exceeded max_cycles";
    mem_used := 0;
    let nsel = Smt.select_threads m ~eligible in
    if
      nsel = 0
      &&
      (* Quiet cycles leave the sampled-window bookkeeping below alone,
         except that a measurement mark still due (windows under three
         instructions) lands on the first of them: step that one. *)
      match sampling with
      | Some s ->
        !measuring
        || s.Smt.detail_window - !detail_left < s.Smt.detail_window / 3
      | None -> true
    then begin
      (* Quiet: no context can issue, and none can before the earliest
         ready cycle, so every cycle until then is quiet too. Waking at
         [max_cycles + 1] at the latest keeps the bound exact. *)
      let wake = ref (cfg.Config.max_cycles + 1) in
      for i = 0 to Array.length m.Smt.ctxs - 1 do
        let r = ready_cycle m.Smt.ctxs.(i) in
        if r < !wake then wake := r
      done;
      Smt.skip_quiet m tel ~now:!now ~until:!wake;
      now := !wake
    end
    else begin
      if nsel = 1 then
        m.Smt.sel.(0).Smt.bundle_left <- cfg.Config.issue_bundles
      else
        for i = 0 to nsel - 1 do
          m.Smt.sel.(i).Smt.bundle_left <- 1
        done;
      main_issued := 0;
      for i = 0 to nsel - 1 do
        let c = m.Smt.sel.(i) in
        let n = issue_thread c in
        if c.Smt.thread.Thread.id = 0 then main_issued := n
      done;
      Smt.end_cycle m tel ~now:!now ~busy:(!main_issued > 0);
      incr now
    end;
    (* Sampled mode: after the detailed window's instruction budget is
       spent, fast-forward with functional warming and extrapolate the
       skipped cycles from the detailed cycles-per-instruction so far. *)
    (match sampling with
    | Some s ->
      if
        (not !measuring)
        && s.Smt.detail_window - !detail_left >= s.Smt.detail_window / 3
      then begin
        win_cycles0 := !now;
        win_instrs0 := stats.Stats.main_instrs - !ff_total;
        measuring := true
      end;
      if !detail_left <= 0 && main.Smt.thread.Thread.active then begin
        let det_instrs =
          stats.Stats.main_instrs - !ff_total - !win_instrs0
        in
        let det_cycles = !now - !win_cycles0 in
        let cpi_w =
          if det_instrs > 0 then
            float_of_int det_cycles /. float_of_int det_instrs
          else !prev_cpi
        in
        if !pending_k > 0 then
          est_extra :=
            !est_extra
            +. (float_of_int !pending_k *. ((!prev_cpi +. cpi_w) /. 2.0));
        let k =
          Smt.fast_forward m env ~now:!now
            ~instrs:(Smt.ff_jitter jst ~window:s.Smt.ff_window)
        in
        ff_total := !ff_total + k;
        stats.Stats.main_instrs <- stats.Stats.main_instrs + k;
        pending_k := k;
        prev_cpi := cpi_w;
        measuring := false;
        detail_left := s.Smt.detail_window
      end
    | None -> ());
    if not main.Smt.thread.Thread.active then running := false
  done;
  (* Settle attribution: speculative threads still alive at program end,
     then prefetches never demanded. *)
  Array.iter
    (fun c -> Smt.note_thread_end m c ~now:!now ~watchdog:false)
    m.Smt.ctxs;
  (match attrib with Some a -> Attrib.finalize a | None -> ());
  if !ff_total > 0 then begin
    (* The last chunk has no following window; settle it one-sided. *)
    if !pending_k > 0 then
      est_extra := !est_extra +. (float_of_int !pending_k *. !prev_cpi);
    stats.Stats.cycles <- !now + int_of_float (Float.round !est_extra);
    (* Cycle categories are only counted during detailed windows;
       extrapolate them by the same factor as cycles so the printed
       breakdown stays a per-cycle distribution. *)
    let k = float_of_int stats.Stats.cycles /. float_of_int (max 1 !now) in
    Array.iteri
      (fun i c ->
        stats.Stats.categories.(i) <-
          int_of_float (Float.round (float_of_int c *. k)))
      stats.Stats.categories
  end;
  Stats.finish ~irefs:m.Smt.lay.Layout.irefs stats
