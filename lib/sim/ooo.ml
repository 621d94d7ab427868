open Ssp_machine
module T = Ssp_telemetry.Telemetry

(* Reservation-station pressure tracking: a ring buffer counting dispatched
   instructions whose execution starts at a future cycle. *)
let rs_horizon = 4096

(* The per-thread ROB is a preallocated ring of completion cycles in
   program order (dispatch refuses to exceed [rob_entries], so the ring
   never overflows); its indices wrap by comparison, not division. *)
type othread = {
  ctx : Smt.context;
  rob : int array;  (* completion cycles, program order *)
  mutable rob_head : int;
  mutable rob_n : int;
  future_starts : int array;
  mutable waiting : int;  (* dispatched but not yet started *)
  mutable retired_this_cycle : int;
  mutable rob_max : int;  (* max completion among in-flight entries *)
}

let run ?attrib ?sampling (cfg : Config.t) (prog : Ssp_ir.Prog.t) =
  T.with_span "sim.ooo" @@ fun () ->
  let m = Smt.create ?attrib ~sampling cfg prog in
  let stats = m.Smt.stats in
  let now = ref 0 in
  let stepping = ref 0 in
  let env = Smt.env m ~now ~stepping in
  let rob_cap = Int.max 1 cfg.Config.rob_entries in
  let oths =
    Array.map
      (fun ctx ->
        {
          ctx;
          rob = Array.make rob_cap 0;
          rob_head = 0;
          rob_n = 0;
          future_starts = Array.make rs_horizon 0;
          waiting = 0;
          retired_this_cycle = 0;
          rob_max = 0;
        })
      m.Smt.ctxs
  in
  let lay = m.Smt.lay in
  (* Shared memory ports: per-cycle usage ring (cycle-tagged), so a port
     reserved for a distant future cycle never blocks an earlier one. *)
  let port_ring = 8192 in
  let port_tag = Array.make port_ring (-1) in
  let port_cnt = Array.make port_ring 0 in
  let acquire_port start =
    let c = ref (Int.max start !now) in
    let found = ref (-1) in
    while !found < 0 do
      let i = !c mod port_ring in
      if port_tag.(i) <> !c then begin
        port_tag.(i) <- !c;
        port_cnt.(i) <- 0
      end;
      if port_cnt.(i) < cfg.Config.mem_ports then begin
        port_cnt.(i) <- port_cnt.(i) + 1;
        found := !c
      end
      else incr c
    done;
    !found
  in
  let begin_cycle ot =
    let slot = !now mod rs_horizon in
    ot.waiting <- ot.waiting - ot.future_starts.(slot);
    ot.future_starts.(slot) <- 0;
    ot.retired_this_cycle <- 0
  in
  let retire ot =
    let n = ref 0 in
    let continue_ = ref true in
    while !continue_ && !n < cfg.Config.retire_width && ot.rob_n > 0 do
      if ot.rob.(ot.rob_head) <= !now then begin
        let h = ot.rob_head + 1 in
        ot.rob_head <- (if h = rob_cap then 0 else h);
        ot.rob_n <- ot.rob_n - 1;
        incr n
      end
      else continue_ := false
    done;
    if ot.rob_n = 0 then ot.rob_max <- !now;
    ot.retired_this_cycle <- !n
  in
  (* Dispatch one instruction of the thread; false = dispatch must stop. *)
  let dispatch_one ot =
    let ctx = ot.ctx in
    stepping := ctx.Smt.thread.Thread.id;
    let th = ctx.Smt.thread in
    if not th.Thread.active then false
    else if ot.rob_n >= cfg.Config.rob_entries then false
    else begin
      let pcid = th.Thread.pc in
      let ready_at = Int.max !now (Smt.src_ready m ctx pcid) in
      if ready_at > !now && ot.waiting >= cfg.Config.rs_entries then false
      else if ready_at - !now >= rs_horizon then false
      else begin
        let is_cond = lay.Layout.cond_br.(pcid) in
        let predicted =
          is_cond && Bpred.predict m.Smt.bp ~thread:th.Thread.id ~pc:pcid
        in
        let ev =
          Funcsim.step Funcsim.Quiet lay env th lay.Layout.code.(pcid)
        in
        Smt.count_issue m th;
        let base_latency = Int.max 1 lay.Layout.latency.(pcid) in
        let complete = ref (ready_at + base_latency) in
        (match ev with
        | Exec.Ev_load ->
          let start = acquire_port ready_at in
          complete :=
            Smt.demand_access m ~now:start ~ctx ~pc:pcid env.Exec.ev_addr
        | Exec.Ev_store ->
          let start = acquire_port ready_at in
          Smt.store_access m ~now:start ~ctx env.Exec.ev_addr;
          complete := start + 1
        | Exec.Ev_prefetch ->
          let start = acquire_port ready_at in
          Smt.prefetch_access m ~now:start ~ctx ~pc:pcid env.Exec.ev_addr;
          complete := start + 1
        | Exec.Ev_branch_taken | Exec.Ev_branch_not_taken ->
          let taken = ev = Exec.Ev_branch_taken in
          if is_cond then begin
            Bpred.update m.Smt.bp ~thread:th.Thread.id ~pc:pcid ~taken;
            if predicted <> taken then begin
              stats.Stats.mispredicts <- stats.Stats.mispredicts + 1;
              (* Redirect when the branch resolves. *)
              ctx.Smt.redirect_until <- !complete + cfg.Config.front_end_penalty
            end
            else if taken && not (Bpred.btb_lookup m.Smt.bp ~pc:pcid) then begin
              Bpred.btb_insert m.Smt.bp ~pc:pcid;
              ctx.Smt.redirect_until <- !now + 2
            end
          end
          else if not (Bpred.btb_lookup m.Smt.bp ~pc:pcid) then begin
            Bpred.btb_insert m.Smt.bp ~pc:pcid;
            ctx.Smt.redirect_until <- !now + 1
          end
        | Exec.Ev_chk_fired ->
          stats.Stats.chk_fired <- stats.Stats.chk_fired + 1;
          if cfg.Config.spawn_flush then begin
            (* Spawning happens at retirement: flush costs the front-end
               refill plus draining the in-flight window (§4.4.1). *)
            let drain = ot.rob_n / Int.max 1 cfg.Config.retire_width in
            ctx.Smt.redirect_until <-
              !now + cfg.Config.front_end_penalty + drain
          end
        | Exec.Ev_chk_nofire -> ()
        | Exec.Ev_call | Exec.Ev_ret -> ctx.Smt.redirect_until <- !now + 1
        | Exec.Ev_halt | Exec.Ev_kill ->
          if th.Thread.speculative then
            Smt.note_thread_end m ctx ~now:!now ~watchdog:false
        | Exec.Ev_spawned | Exec.Ev_spawn_denied | Exec.Ev_lib | Exec.Ev_plain
          ->
          ());
        (match ev with
        | Exec.Ev_lib -> complete := ready_at + cfg.Config.lib_latency
        | _ -> ());
        Smt.set_defs_ready m ctx pcid !complete;
        let tail = ot.rob_head + ot.rob_n in
        ot.rob.(if tail >= rob_cap then tail - rob_cap else tail) <- !complete;
        ot.rob_n <- ot.rob_n + 1;
        ot.rob_max <- Int.max ot.rob_max !complete;
        (* Spawning happens at the retirement stage (§2.1): the child
           context cannot start before everything ahead of the spawn in
           this thread's window has retired. *)
        (match ev with
        | Exec.Ev_spawned when m.Smt.last_spawned >= 0 ->
          let child = m.Smt.ctxs.(m.Smt.last_spawned) in
          let retire_at = Int.max !now ot.rob_max in
          child.Smt.redirect_until <-
            Int.max child.Smt.redirect_until
              (retire_at + cfg.Config.spawn_latency + cfg.Config.lib_latency)
        | _ -> ());
        if ready_at > !now then begin
          ot.waiting <- ot.waiting + 1;
          ot.future_starts.(ready_at mod rs_horizon) <-
            ot.future_starts.(ready_at mod rs_horizon) + 1
        end;
        Smt.watchdog_check m ~now:!now ctx;
        (* Stop dispatching past a redirect or thread end. *)
        th.Thread.active && ctx.Smt.redirect_until <= !now
      end
    end
  in
  (* Per-interval telemetry: retire rate and demand misses over time. *)
  let tel = Smt.interval "sim.ooo" in
  let main = oths.(0) in
  let running = ref true in
  (* The per-cycle helpers are hoisted out of the main loop so the
     steady-state cycle allocates nothing. *)
  (* The first cycle at which the thread can take dispatch slots if none of
     its ROB entries retires and none of its reservation stations frees up
     first: when its redirect ends, or never ([max_int]) while it is idle
     or its ROB or reservation stations are full — dispatch slots go only
     to threads that can accept work. Occupancy changes every cycle, so
     the context's stored ready cycle is recomputed once per stepped
     cycle, after retirement. *)
  let dispatch_cycle ot =
    if
      ot.ctx.Smt.thread.Thread.active
      && ot.rob_n < cfg.Config.rob_entries
      && ot.waiting < cfg.Config.rs_entries
    then ot.ctx.Smt.redirect_until
    else max_int
  in
  (* The next cycle after [now] at which a quiet machine can change, at
     most [limit]: a ROB head completes (and retires), a redirect ends, or
     a start slot frees a reservation station of a thread held only by
     them. Waking early is harmless (the cycle is quiet again). *)
  let wake_cycle limit =
    let w = ref limit in
    for i = 0 to Array.length oths - 1 do
      let ot = oths.(i) in
      if ot.rob_n > 0 && ot.rob.(ot.rob_head) < !w then
        w := ot.rob.(ot.rob_head);
      let d = ot.ctx.Smt.ready in
      if d < !w then w := d
      else if
        d = max_int && ot.ctx.Smt.thread.Thread.active
        && ot.rob_n < cfg.Config.rob_entries
      then begin
        (* Reservation stations full: the next non-empty start slot. *)
        let t = ref (!now + 1) in
        while !t < !w && ot.future_starts.(!t mod rs_horizon) = 0 do
          incr t
        done;
        w := !t
      end
    done;
    Int.max (!now + 1) !w
  in
  while !running do
    if !now > cfg.Config.max_cycles then failwith "Ooo.run: exceeded max_cycles";
    for i = 0 to Array.length oths - 1 do
      let ot = oths.(i) in
      (* An idle context with an empty ROB and nothing waiting has nothing
         to start or retire: every counted start was drained when its
         cycle passed, so its start ring is empty. *)
      if ot.ctx.Smt.thread.Thread.active || ot.rob_n > 0 || ot.waiting > 0
      then begin
        begin_cycle ot;
        retire ot
      end;
      ot.ctx.Smt.ready <- dispatch_cycle ot
    done;
    let nsel = Smt.select_threads m ~now:!now in
    if nsel = 0 && main.retired_this_cycle = 0 && Smt.may_skip m then begin
      (* Quiet: the main thread retires nothing and no thread dispatches,
         until the wake cycle. The start ring holds no start past
         [now + rs_horizon], and waking at [max_cycles + 1] at the latest
         keeps the bound exact. *)
      let wake =
        wake_cycle (Int.min (!now + rs_horizon) (cfg.Config.max_cycles + 1))
      in
      (* Drain the start slots of the skipped cycles, as [begin_cycle]
         would have. *)
      for i = 0 to Array.length oths - 1 do
        let ot = oths.(i) in
        let t = ref (!now + 1) in
        while ot.waiting > 0 && !t < wake do
          let slot = !t mod rs_horizon in
          ot.waiting <- ot.waiting - ot.future_starts.(slot);
          ot.future_starts.(slot) <- 0;
          incr t
        done
      done;
      Smt.skip_quiet m tel ~now:!now ~until:wake;
      now := wake
    end
    else begin
      let budget = if nsel = 1 then cfg.Config.issue_bundles * 3 else 3 in
      for i = 0 to nsel - 1 do
        let ot = oths.(m.Smt.sel.(i)) in
        let k = ref 0 in
        while !k < budget && dispatch_one ot do
          incr k
        done
      done;
      (* Figure 10 accounting: execution is "active" when the main thread
         retired something this cycle. *)
      Smt.end_cycle m tel ~now:!now ~busy:(main.retired_this_cycle > 0);
      incr now
    end;
    Smt.sample m env ~now:!now;
    (* End when the main thread has halted and drained its window. *)
    if (not main.ctx.Smt.thread.Thread.active) && main.rob_n = 0 then
      running := false
  done;
  Smt.finish m ~now:!now
