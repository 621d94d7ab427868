open Ssp_machine
module T = Ssp_telemetry.Telemetry

(* The in-order Itanium-flavoured core. Each instruction executes on its
   predecoded word through [Funcsim.step]; the thread's position is one pc
   id, the static facts of that pc (word, bundle, block start, sources,
   destinations, latency, memory and branch flags) come from the [Layout]
   tables, and events are constant constructors — the steady-state cycle
   allocates (almost) nothing. Each context keeps the first cycle at which
   it can issue ([Smt.context.ready]), recomputed only where it changes.
   A cycle in which no context can issue is quiet: nothing changes until
   the earliest of those cycles, so the clock jumps there
   ([Smt.skip_quiet]). *)
let run ?attrib ?sampling (cfg : Config.t) (prog : Ssp_ir.Prog.t) =
  T.with_span "sim.inorder" @@ fun () ->
  let m = Smt.create ?attrib ~sampling cfg prog in
  let stats = m.Smt.stats in
  let now = ref 0 in
  let stepping = ref 0 in
  let env = Smt.env m ~now ~stepping in
  let main = m.Smt.ctxs.(0) in
  let lay = m.Smt.lay in
  (* Shared function units, reset each cycle. *)
  let mem_used = ref 0 in
  (* Issue as much as the thread's bundle budget allows this cycle.
     Returns the number of instructions issued. *)
  let issue_thread (ctx : Smt.context) =
    stepping := ctx.Smt.thread.Thread.id;
    let th = ctx.Smt.thread in
    let issued = ref 0 in
    let blocked = ref false in
    while (not !blocked) && th.Thread.active && ctx.Smt.bundle_left > 0 do
      let pcid = th.Thread.pc in
      let is_mem = lay.Layout.mem_op.(pcid) in
      (* Scoreboard: every source operand must be ready (stall-on-use). *)
      if Smt.src_ready m ctx pcid > !now then blocked := true
      else if is_mem && !mem_used >= cfg.Config.mem_ports then
        (* structural hazard: both memory ports busy this cycle *)
        blocked := true
      else begin
        (* Instruction-fetch: charge an I-cache access at block entry. *)
        if lay.Layout.block_start.(pcid) then begin
          let ready =
            Hierarchy.ifetch m.Smt.hier ~now:!now
              (Layout.code_base + (16 * pcid))
          in
          if Hierarchy.last_level m.Smt.hier <> Hierarchy.L1 then begin
            ctx.Smt.redirect_until <- ready;
            blocked := true
          end
        end;
        if not !blocked then begin
          (* Predict branches before executing (the step moves the pc). *)
          let is_cond = lay.Layout.cond_br.(pcid) in
          let predicted =
            is_cond && Bpred.predict m.Smt.bp ~thread:th.Thread.id ~pc:pcid
          in
          let ev =
            Funcsim.step Funcsim.Quiet lay env th lay.Layout.code.(pcid)
          in
          incr issued;
          if is_mem then incr mem_used;
          Smt.count_issue m th;
          let base_latency = lay.Layout.latency.(pcid) in
          (match ev with
          | Exec.Ev_load ->
            Smt.set_defs_ready m ctx pcid
              (Smt.demand_access m ~now:!now ~ctx ~pc:pcid env.Exec.ev_addr)
          | Exec.Ev_store -> Smt.store_access m ~now:!now ~ctx env.Exec.ev_addr
          | Exec.Ev_prefetch ->
            Smt.prefetch_access m ~now:!now ~ctx ~pc:pcid env.Exec.ev_addr
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
            Smt.set_defs_ready m ctx pcid (!now + Int.max 1 base_latency);
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
            Smt.set_defs_ready m ctx pcid (!now + 1)
          | Exec.Ev_lib ->
            Smt.set_defs_ready m ctx pcid (!now + cfg.Config.lib_latency)
          | Exec.Ev_halt | Exec.Ev_kill ->
            if th.Thread.speculative then
              Smt.note_thread_end m ctx ~now:!now ~watchdog:false;
            blocked := true
          | Exec.Ev_plain ->
            Smt.set_defs_ready m ctx pcid (!now + Int.max 1 base_latency));
          Smt.watchdog_check m ~now:!now ctx;
          (* Bundle accounting: crossing into a new bundle (or leaving the
             block) consumes one bundle slot. *)
          let crossed =
            (not th.Thread.active)
            || lay.Layout.bundle.(th.Thread.pc) <> lay.Layout.bundle.(pcid)
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
     helpers are hoisted so the steady-state cycle allocates nothing. A
     thread is only worth an issue slot once it is ready — its front end is
     back and every source of its next instruction is ready (Itanium
     stall-on-use would waste the slot otherwise), an ICOUNT-flavoured SMT
     policy — and the earliest ready cycle ends a quiet stretch. A
     context's ready cycle changes only when it issues, when a spawn binds
     it, or when the sampled controller fast-forwards. *)
  let running = ref true in
  let main_issued = ref 0 in
  while !running do
    if !now > cfg.Config.max_cycles then
      failwith "Inorder.run: exceeded max_cycles";
    mem_used := 0;
    let nsel = Smt.select_threads m ~now:!now in
    if nsel = 0 && Smt.may_skip m then begin
      (* Quiet: no context can issue, and none can before the earliest
         ready cycle, so every cycle until then is quiet too. Waking at
         [max_cycles + 1] at the latest keeps the bound exact. *)
      let wake = ref (cfg.Config.max_cycles + 1) in
      for i = 0 to Array.length m.Smt.ctxs - 1 do
        let r = m.Smt.ctxs.(i).Smt.ready in
        if r < !wake then wake := r
      done;
      Smt.skip_quiet m tel ~now:!now ~until:!wake;
      now := !wake
    end
    else begin
      if nsel = 1 then
        m.Smt.ctxs.(m.Smt.sel.(0)).Smt.bundle_left <- cfg.Config.issue_bundles
      else
        for i = 0 to nsel - 1 do
          m.Smt.ctxs.(m.Smt.sel.(i)).Smt.bundle_left <- 1
        done;
      main_issued := 0;
      for i = 0 to nsel - 1 do
        let c = m.Smt.ctxs.(m.Smt.sel.(i)) in
        let n = issue_thread c in
        Smt.refresh_ready m c;
        if c.Smt.thread.Thread.id = 0 then main_issued := n
      done;
      Smt.end_cycle m tel ~now:!now ~busy:(!main_issued > 0);
      incr now
    end;
    Smt.sample m env ~now:!now;
    if not main.Smt.thread.Thread.active then running := false
  done;
  Smt.finish m ~now:!now
