open Ssp_isa
open Ssp_machine
module T = Ssp_telemetry.Telemetry

(* Reservation-station pressure tracking: a ring buffer counting dispatched
   instructions whose execution starts at a future cycle. *)
let rs_horizon = 4096

(* The per-thread ROB is a preallocated ring of completion cycles in
   program order (dispatch refuses to exceed [rob_entries], so the ring
   never overflows). *)
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
  let rob_cap = max 1 cfg.Config.rob_entries in
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
  (* Scratch for allocation-free operand queries. *)
  let ubuf = Array.make Op.scratch_regs 0 in
  let dbuf = Array.make Op.scratch_regs 0 in
  (* Sampled-simulation bookkeeping. *)
  let detail_left = ref max_int in
  let ff_total = ref 0 in
  let est_extra = ref 0.0 in
  (* Local (per-window) CPI extrapolation with per-window detailed
     warming — see Inorder. *)
  let win_cycles0 = ref 0 in
  let win_instrs0 = ref 0 in
  let measuring = ref false in
  let jst = ref Smt.jitter_seed in
  (* Centered extrapolation — see Inorder. *)
  let pending_k = ref 0 in
  let prev_cpi = ref 0.0 in
  (match sampling with
  | Some s -> detail_left := s.Smt.detail_window
  | None -> ());
  (* Shared memory ports: per-cycle usage ring (cycle-tagged), so a port
     reserved for a distant future cycle never blocks an earlier one. *)
  let port_ring = 8192 in
  let port_tag = Array.make port_ring (-1) in
  let port_cnt = Array.make port_ring 0 in
  let acquire_port start =
    let c = ref (max start !now) in
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
        ot.rob_head <- (ot.rob_head + 1) mod rob_cap;
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
    stepping := ctx;
    let th = ctx.Smt.thread in
    if not th.Thread.active then false
    else if ot.rob_n >= cfg.Config.rob_entries then false
    else begin
      let e = Smt.layout_of m ctx in
      let blk0 = th.Thread.blk and ins0 = th.Thread.ins in
      let pcid = e.Layout.block_base.(blk0) + ins0 in
      let op = e.Layout.func.Ssp_ir.Prog.blocks.(blk0).ops.(ins0) in
      let nu = Op.uses_into op ubuf in
      let ready_at = ref !now in
      for i = 0 to nu - 1 do
        if ctx.Smt.reg_ready.(ubuf.(i)) > !ready_at then
          ready_at := ctx.Smt.reg_ready.(ubuf.(i))
      done;
      let ready_at = !ready_at in
      if ready_at > !now && ot.waiting >= cfg.Config.rs_entries then false
      else if ready_at - !now >= rs_horizon then false
      else begin
        let is_cond =
          match op with Op.Brnz _ | Op.Brz _ -> true | _ -> false
        in
        let predicted =
          is_cond && Bpred.predict m.Smt.bp ~thread:th.Thread.id ~pc:pcid
        in
        let ev = Exec.step_op env th e.Layout.func op in
        if th.Thread.id = 0 then begin
          stats.Stats.main_instrs <- stats.Stats.main_instrs + 1;
          decr detail_left
        end
        else stats.Stats.spec_instrs <- stats.Stats.spec_instrs + 1;
        let base_latency = max 1 (Latency.of_op op) in
        let complete = ref (ready_at + base_latency) in
        (match ev with
        | Exec.Ev_load ->
          let start = acquire_port ready_at in
          let o = Smt.demand_access m ~now:start ~ctx ~pc:pcid env.Exec.ev_addr in
          complete := o.Hierarchy.ready
        | Exec.Ev_store -> (
          let start = acquire_port ready_at in
          (match m.Smt.attrib with
          | None ->
            ignore
              (Hierarchy.demand m.Smt.hier ~now:start ~low_priority:false
                 env.Exec.ev_addr)
          | Some _ ->
            ignore
              (Hierarchy.access m.Smt.hier ~now:start
                 ~demand_main:(th.Thread.id = 0) env.Exec.ev_addr));
          complete := start + 1)
        | Exec.Ev_prefetch -> (
          stats.Stats.prefetches <- stats.Stats.prefetches + 1;
          let start = acquire_port ready_at in
          (match m.Smt.attrib with
          | None ->
            ignore (Hierarchy.prefetch m.Smt.hier ~now:start env.Exec.ev_addr)
          | Some _ ->
            let iref = Layout.iref_of m.Smt.lay pcid in
            ignore
              (Hierarchy.access m.Smt.hier ~now:start ~prefetch:true
                 ?pf_tag:(Smt.pf_tag_of m ctx iref) env.Exec.ev_addr));
          complete := start + 1)
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
            let drain = ot.rob_n / max 1 cfg.Config.retire_width in
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
        let nd = Op.defs_into op dbuf in
        for i = 0 to nd - 1 do
          ctx.Smt.reg_ready.(dbuf.(i)) <- !complete
        done;
        ot.rob.((ot.rob_head + ot.rob_n) mod rob_cap) <- !complete;
        ot.rob_n <- ot.rob_n + 1;
        ot.rob_max <- max ot.rob_max !complete;
        (* Spawning happens at the retirement stage (§2.1): the child
           context cannot start before everything ahead of the spawn in
           this thread's window has retired. *)
        (match ev with
        | Exec.Ev_spawned when m.Smt.last_spawned >= 0 ->
          let child = m.Smt.ctxs.(m.Smt.last_spawned) in
          let retire_at = max !now ot.rob_max in
          child.Smt.redirect_until <-
            max child.Smt.redirect_until
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
  let tel_interval = 8192 in
  let tel_last_instrs = ref 0 in
  let tel_last_misses = ref 0 in
  let tel_ipc = T.series "sim.ooo.interval_ipc" in
  let tel_miss = T.series "sim.ooo.interval_l1d_misses" in
  let tel_tick () =
    if T.is_enabled () && !now mod tel_interval = 0 then begin
      let mi = stats.Stats.main_instrs in
      let ms = Cache.stats_misses (Hierarchy.l1d m.Smt.hier) in
      T.sample tel_ipc ~x:(float_of_int !now)
        ~y:
          (float_of_int (mi - !tel_last_instrs) /. float_of_int tel_interval);
      T.sample tel_miss ~x:(float_of_int !now)
        ~y:(float_of_int (ms - !tel_last_misses));
      tel_last_instrs := mi;
      tel_last_misses := ms
    end
  in
  let main = oths.(0) in
  let running = ref true in
  (* The per-cycle helpers are hoisted out of the main loop (budget passed
     through a scratch ref) so the steady-state cycle allocates nothing. *)
  (* Don't hand dispatch slots to threads that cannot accept work
     (ROB full or reservation stations saturated). *)
  let eligible (c : Smt.context) =
    let ot = oths.(c.Smt.thread.Thread.id) in
    c.Smt.thread.Thread.active
    && c.Smt.redirect_until <= !now
    && ot.rob_n < cfg.Config.rob_entries
    && ot.waiting < cfg.Config.rs_entries
  in
  let dispatch_budget = ref 0 in
  let dispatch_chosen (c : Smt.context) =
    let ot = oths.(c.Smt.thread.Thread.id) in
    let budget = !dispatch_budget in
    let k = ref 0 in
    let go = ref true in
    while !go && !k < budget do
      go := dispatch_one ot;
      incr k
    done
  in
  while !running do
    if !now > cfg.Config.max_cycles then failwith "Ooo.run: exceeded max_cycles";
    Array.iter begin_cycle oths;
    Array.iter retire oths;
    let nsel = Smt.select_threads m ~eligible in
    dispatch_budget :=
      (if nsel = 1 then cfg.Config.issue_bundles * 3 else 3);
    for i = 0 to nsel - 1 do
      dispatch_chosen m.Smt.sel.(i)
    done;
    (* Figure 10 accounting: execution is "active" when the main thread
       retired something this cycle. *)
    let rank = Smt.outstanding_rank main.ctx ~now:!now in
    let active = main.retired_this_cycle > 0 in
    let cat =
      if active then if rank > 0 then Stats.Cat_cache_exec else Stats.Cat_exec
      else
        match rank with
        | 4 -> Stats.Cat_l3
        | 3 -> Stats.Cat_l2
        | 2 -> Stats.Cat_l1
        | _ -> Stats.Cat_other
    in
    Stats.add_category stats cat;
    incr now;
    tel_tick ();
    stats.Stats.cycles <- !now;
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
      if !detail_left <= 0 && main.ctx.Smt.thread.Thread.active then begin
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
    (* End when the main thread has halted and drained its window. *)
    if (not main.ctx.Smt.thread.Thread.active) && main.rob_n = 0 then
      running := false
  done;
  (* Settle attribution: speculative threads still alive at program end,
     then prefetches never demanded. *)
  Array.iter
    (fun c -> Smt.note_thread_end m c ~now:!now ~watchdog:false)
    m.Smt.ctxs;
  (match attrib with Some a -> Attrib.finalize a | None -> ());
  if !ff_total > 0 then begin
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
