type counts = {
  hier : Hierarchy.t;
  mutable mem_ops : int;
  blocks : int array;
  branches : int array;
  loads : int array;
  calls : (int * string, int) Hashtbl.t;
}

type probe = Quiet | Warm of Hierarchy.t * Bpred.t | Count of counts

(* The profiler's pseudo-clock: an in-order machine at IPC 1 that spends
   one more cycle on each data access, so a load or store accesses the
   hierarchy at (main instructions executed + loads and stores so far). *)
let count_access c (th : Thread.t) addr =
  c.mem_ops <- c.mem_ops + 1;
  Hierarchy.demand c.hier
    ~now:(th.Thread.instrs + c.mem_ops)
    ~low_priority:false (Int64.of_int addr)

let count_load c th pc addr =
  let o = count_access c th addr in
  let now = th.Thread.instrs + c.mem_ops in
  let k = 6 * pc in
  let l =
    k + match o.Hierarchy.level with L1 -> 0 | L2 -> 1 | L3 -> 2 | Mem -> 3
  in
  c.loads.(l) <- c.loads.(l) + 1;
  if o.Hierarchy.partial then c.loads.(k + 4) <- c.loads.(k + 4) + 1;
  c.loads.(k + 5) <-
    c.loads.(k + 5)
    + max 0
        (o.Hierarchy.ready - now - Hierarchy.level_latency c.hier Hierarchy.L1)

let count_call c pc callee =
  let k = (pc, callee) in
  Hashtbl.replace c.calls k
    (1 + Option.value ~default:0 (Hashtbl.find_opt c.calls k))

(* The decoded-stream interpreter. The opcode literals below mirror
   [Decode.enc]'s map exactly (see decode.ml for the word layout); every
   functional run goes through here, while the cycle models execute the
   boxed [Exec.step_op], so the sampled-vs-full and Funcsim-vs-cycle-core
   output identities pin the two representations together.

   Invariants the loop leans on: register fields were range-validated by
   every producer (so reads use [unsafe_get]), and r0 is never written (so
   reading [regs.(0)] always yields the hardwired zero without a branch).
   [fn] only changes at calls and returns, so the current layout entry
   lives in a local refreshed on those events. *)
let exec probe (layout : Layout.t) (env : Exec.env) (th : Thread.t) ~instrs =
  let regs = th.Thread.regs in
  let mem = env.Exec.mem in
  let e = ref (Layout.find layout th.Thread.fn) in
  let done_ = ref 0 in
  while !done_ < instrs && th.Thread.active do
    let dec = (!e).Layout.dec in
    let code = dec.Decode.code in
    let nb = Array.length code in
    while
      th.Thread.blk < nb
      && th.Thread.ins >= Array.length (Array.unsafe_get code th.Thread.blk)
    do
      th.Thread.blk <- th.Thread.blk + 1;
      th.Thread.ins <- 0
    done;
    let blk = th.Thread.blk and ins = th.Thread.ins in
    let w = code.(blk).(ins) in
    if ins = 0 then begin
      match probe with
      | Quiet -> ()
      | Warm (h, _) ->
        Hierarchy.warm_ifetch_i h (Array.unsafe_get (!e).Layout.blk0_iaddr blk)
      | Count c ->
        let pc = Array.unsafe_get (!e).Layout.block_base blk in
        c.blocks.(pc) <- c.blocks.(pc) + 1
    end;
    incr done_;
    th.Thread.instrs <- th.Thread.instrs + 1;
    match w land 63 with
    | 0 -> th.Thread.ins <- ins + 1 (* nop *)
    | 1 ->
      (* movi *)
      let d = (w lsr 6) land 127 in
      if d <> 0 then
        Array.unsafe_set regs d (Array.unsafe_get dec.Decode.imms (w asr 27));
      th.Thread.ins <- ins + 1
    | 2 ->
      (* mov *)
      let d = (w lsr 6) land 127 in
      if d <> 0 then
        Array.unsafe_set regs d (Array.unsafe_get regs ((w lsr 13) land 127));
      th.Thread.ins <- ins + 1
    | (3 | 4 | 5 | 6 | 7 | 8 | 9 | 10 | 11 | 12) as opc ->
      (* alu: add sub mul div rem and or xor shl shr *)
      let a = Array.unsafe_get regs ((w lsr 13) land 127)
      and b = Array.unsafe_get regs ((w lsr 20) land 127) in
      let v =
        match opc with
        | 3 -> Int64.add a b
        | 4 -> Int64.sub a b
        | 5 -> Int64.mul a b
        | 6 -> if Int64.equal b 0L then 0L else Int64.div a b
        | 7 -> if Int64.equal b 0L then 0L else Int64.rem a b
        | 8 -> Int64.logand a b
        | 9 -> Int64.logor a b
        | 10 -> Int64.logxor a b
        | 11 -> Int64.shift_left a (Int64.to_int b land 63)
        | _ -> Int64.shift_right a (Int64.to_int b land 63)
      in
      let d = (w lsr 6) land 127 in
      if d <> 0 then Array.unsafe_set regs d v;
      th.Thread.ins <- ins + 1
    | (13 | 14 | 15 | 16 | 17 | 18 | 19 | 20 | 21 | 22) as opc ->
      (* alui *)
      let a = Array.unsafe_get regs ((w lsr 13) land 127)
      and b = Array.unsafe_get dec.Decode.imms (w asr 27) in
      let v =
        match opc with
        | 13 -> Int64.add a b
        | 14 -> Int64.sub a b
        | 15 -> Int64.mul a b
        | 16 -> if Int64.equal b 0L then 0L else Int64.div a b
        | 17 -> if Int64.equal b 0L then 0L else Int64.rem a b
        | 18 -> Int64.logand a b
        | 19 -> Int64.logor a b
        | 20 -> Int64.logxor a b
        | 21 -> Int64.shift_left a (Int64.to_int b land 63)
        | _ -> Int64.shift_right a (Int64.to_int b land 63)
      in
      let d = (w lsr 6) land 127 in
      if d <> 0 then Array.unsafe_set regs d v;
      th.Thread.ins <- ins + 1
    | (23 | 24 | 25 | 26 | 27 | 28) as opc ->
      (* cmp: eq ne lt le gt ge *)
      let a = Array.unsafe_get regs ((w lsr 13) land 127)
      and b = Array.unsafe_get regs ((w lsr 20) land 127) in
      let c = Int64.compare a b in
      let v =
        match opc with
        | 23 -> c = 0
        | 24 -> c <> 0
        | 25 -> c < 0
        | 26 -> c <= 0
        | 27 -> c > 0
        | _ -> c >= 0
      in
      let d = (w lsr 6) land 127 in
      if d <> 0 then Array.unsafe_set regs d (if v then 1L else 0L);
      th.Thread.ins <- ins + 1
    | (29 | 30 | 31 | 32 | 33 | 34) as opc ->
      (* cmpi *)
      let a = Array.unsafe_get regs ((w lsr 13) land 127)
      and b = Array.unsafe_get dec.Decode.imms (w asr 27) in
      let c = Int64.compare a b in
      let v =
        match opc with
        | 29 -> c = 0
        | 30 -> c <> 0
        | 31 -> c < 0
        | 32 -> c <= 0
        | 33 -> c > 0
        | _ -> c >= 0
      in
      let d = (w lsr 6) land 127 in
      if d <> 0 then Array.unsafe_set regs d (if v then 1L else 0L);
      th.Thread.ins <- ins + 1
    | (35 | 36 | 37 | 38) as opc -> (
      (* load, widths 1 2 4 8 *)
      let base = Array.unsafe_get regs ((w lsr 13) land 127) in
      let addr = (Int64.to_int base + (w asr 27)) land max_int in
      let v = Memory.read_i mem addr (1 lsl (opc - 35)) in
      let d = (w lsr 6) land 127 in
      if d <> 0 then Array.unsafe_set regs d v;
      th.Thread.ins <- ins + 1;
      match probe with
      | Quiet -> ()
      | Warm (h, _) -> Hierarchy.warm_i h addr
      | Count c ->
        count_load c th (Array.unsafe_get (!e).Layout.block_base blk + ins) addr)
    | (39 | 40 | 41 | 42) as opc -> (
      (* store, widths 1 2 4 8; a speculative thread never writes memory *)
      let base = Array.unsafe_get regs ((w lsr 13) land 127) in
      let addr = (Int64.to_int base + (w asr 27)) land max_int in
      if not th.Thread.speculative then
        Memory.write_i mem addr
          (1 lsl (opc - 39))
          (Array.unsafe_get regs ((w lsr 6) land 127));
      th.Thread.ins <- ins + 1;
      match probe with
      | Quiet -> ()
      | Warm (h, _) -> Hierarchy.warm_i h addr
      | Count c -> ignore (count_access c th addr))
    | 43 -> (
      (* lfetch: warm the target line — the timed runs' prefetch traffic
         fills the hierarchy, so skipping it would leave the next detailed
         window colder than a full run; the profiler ignores prefetches *)
      th.Thread.ins <- ins + 1;
      match probe with
      | Warm (h, _) ->
        let base = Array.unsafe_get regs ((w lsr 13) land 127) in
        Hierarchy.warm_i h ((Int64.to_int base + (w asr 27)) land max_int)
      | Quiet | Count _ -> ())
    | 44 -> (
      (* br *)
      th.Thread.blk <- w asr 27;
      th.Thread.ins <- 0;
      match probe with
      | Warm (_, bp) ->
        let pc = Array.unsafe_get (!e).Layout.block_base blk + ins in
        if not (Bpred.btb_lookup bp ~pc) then Bpred.btb_insert bp ~pc
      | Quiet | Count _ -> ())
    | (45 | 46) as opc ->
      (* brnz / brz *)
      let z =
        Int64.equal (Array.unsafe_get regs ((w lsr 13) land 127)) 0L
      in
      let taken = if opc = 45 then not z else z in
      (match probe with
      | Quiet -> ()
      | Warm (_, bp) ->
        let pc = Array.unsafe_get (!e).Layout.block_base blk + ins in
        Bpred.update bp ~thread:0 ~pc ~taken;
        if taken && not (Bpred.btb_lookup bp ~pc) then Bpred.btb_insert bp ~pc
      | Count c ->
        let k =
          (2 * (Array.unsafe_get (!e).Layout.block_base blk + ins))
          + if taken then 0 else 1
        in
        c.branches.(k) <- c.branches.(k) + 1);
      if taken then begin
        th.Thread.blk <- w asr 27;
        th.Thread.ins <- 0
      end
      else th.Thread.ins <- ins + 1
    | 47 ->
      (* call: save only the caller's mentioned stacked-register prefix —
         the return restores [saved_n], so the code resuming after it sees
         every register it can read *)
      let fr = Thread.push_frame th ~ret_blk:blk ~ret_ins:(ins + 1) in
      let k = dec.Decode.n_save in
      fr.Thread.saved_n <- k;
      Array.blit regs Ssp_isa.Reg.first_stacked fr.Thread.saved_stacked 0 k;
      let e' = layout.Layout.by_index.(w asr 27) in
      let callee = e'.Layout.func.Ssp_ir.Prog.name in
      (match probe with
      | Count c ->
        count_call c (Array.unsafe_get (!e).Layout.block_base blk + ins) callee
      | Quiet | Warm _ -> ());
      th.Thread.fn <- callee;
      th.Thread.blk <- 0;
      th.Thread.ins <- 0;
      e := e'
    | 48 ->
      (* ret *)
      if th.Thread.frame_n = 0 then th.Thread.active <- false
      else begin
        th.Thread.frame_n <- th.Thread.frame_n - 1;
        let fr = th.Thread.frames.(th.Thread.frame_n) in
        Array.blit fr.Thread.saved_stacked 0 regs Ssp_isa.Reg.first_stacked
          fr.Thread.saved_n;
        th.Thread.fn <- fr.Thread.ret_fn;
        th.Thread.blk <- fr.Thread.ret_blk;
        th.Thread.ins <- fr.Thread.ret_ins;
        e := Layout.find layout th.Thread.fn
      end
    | 49 | 50 -> th.Thread.active <- false (* halt / kill *)
    | 51 ->
      (* chk.c *)
      if env.Exec.chk_free () then begin
        th.Thread.blk <- w asr 27;
        th.Thread.ins <- 0
      end
      else th.Thread.ins <- ins + 1
    | 52 ->
      (* rand: xorshift64*, same stream as Exec *)
      let x = th.Thread.rand_state in
      let x = Int64.logxor x (Int64.shift_left x 13) in
      let x = Int64.logxor x (Int64.shift_right_logical x 7) in
      let x = Int64.logxor x (Int64.shift_left x 17) in
      th.Thread.rand_state <- x;
      let d = (w lsr 6) land 127 in
      if d <> 0 then Array.unsafe_set regs d (Int64.shift_right_logical x 1);
      th.Thread.ins <- ins + 1
    | _ -> (
      (* slow path: rare ops (icall, spawn, lib.st/ld, alloc, print,
         memory offsets too wide for the word, unresolved static targets)
         run on the boxed form; an unresolved branch target raises there *)
      th.Thread.instrs <- th.Thread.instrs - 1 (* step_op recounts *);
      let f = (!e).Layout.func in
      let ev = Exec.step_op env th f f.Ssp_ir.Prog.blocks.(blk).ops.(ins) in
      let addr = Int64.to_int env.Exec.ev_addr land max_int in
      let pc = Array.unsafe_get (!e).Layout.block_base blk + ins in
      match (ev, probe) with
      | (Exec.Ev_load | Exec.Ev_store | Exec.Ev_prefetch), Warm (h, _) ->
        Hierarchy.warm_i h addr
      | Exec.Ev_load, Count c -> count_load c th pc addr
      | Exec.Ev_store, Count c -> ignore (count_access c th addr)
      | Exec.Ev_call, Count c ->
        count_call c pc th.Thread.fn;
        e := Layout.find layout th.Thread.fn
      | Exec.Ev_call, (Quiet | Warm _) -> e := Layout.find layout th.Thread.fn
      | _ -> ())
  done;
  !done_

type result = { outputs : int64 list; instrs : int; spawns : int }

let max_instrs = 200_000_000

(* Speculative threads interleave with the main thread in bursts of
   [burst] instructions each; one that outlives [watchdog] instructions
   is killed. *)
let burst = 64
let watchdog = 1_000_000

let run_probe probe ~spawning layout prog =
  let outputs = ref [] in
  let main = Thread.create ~id:0 in
  main.Thread.fn <- prog.Ssp_ir.Prog.entry;
  main.Thread.active <- true;
  Thread.set main Ssp_isa.Reg.sp Ssp_ir.Prog.stack_base;
  (* at most 3 speculative contexts (4 contexts − main) *)
  let specs : Thread.t option array = Array.make 3 None in
  let spawns = ref 0 in
  let free_slot () =
    let rec go i =
      if i >= Array.length specs then None
      else match specs.(i) with None -> Some i | Some _ -> go (i + 1)
    in
    go 0
  in
  let env =
    {
      Exec.mem = Memory.create ();
      prog;
      chk_free = (fun () -> spawning && Option.is_some (free_slot ()));
      spawn =
        (fun ~src:_ ~fn ~blk ~live_in ->
          if not spawning then false
          else
            match free_slot () with
            | None -> false
            | Some i ->
              let th = Thread.create ~id:(1 + i) in
              Thread.reset_for_spawn th ~fn ~blk ~live_in
                ~rand_state:0x2545F4914F6CDD1DL;
              specs.(i) <- Some th;
              incr spawns;
              true);
      output = (fun v -> outputs := v :: !outputs);
      ev_addr = 0L;
    }
  in
  let main_burst = if spawning then burst else max_instrs in
  while main.Thread.active do
    if main.Thread.instrs >= max_instrs then
      failwith "Funcsim.run: main thread exceeded max_instrs";
    ignore (exec probe layout env main ~instrs:main_burst);
    if spawning then
      Array.iteri
        (fun si slot ->
          match slot with
          | None -> ()
          | Some th ->
            ignore
              (exec Quiet layout env th
                 ~instrs:(min burst (watchdog + 1 - th.Thread.instrs)));
            if th.Thread.instrs > watchdog then th.Thread.active <- false;
            if not th.Thread.active then specs.(si) <- None)
        specs
  done;
  { outputs = List.rev !outputs; instrs = main.Thread.instrs; spawns = !spawns }

let run ?(spawning = false) prog =
  run_probe Quiet ~spawning (Layout.of_prog prog) prog

let count c layout prog = (run_probe (Count c) ~spawning:false layout prog).instrs
