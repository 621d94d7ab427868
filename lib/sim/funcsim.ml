type counts = {
  hier : Hierarchy.t;
  mutable mem_ops : int;
  blocks : int array;
  branches : int array;
  loads : int array;
  site_calls : int array;
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
    ~low_priority:false addr

let count_load c th pc addr =
  let ready = count_access c th addr in
  let now = th.Thread.instrs + c.mem_ops in
  let k = 6 * pc in
  let level = Hierarchy.last_level c.hier in
  let l = k + match level with L1 -> 0 | L2 -> 1 | L3 -> 2 | Mem -> 3 in
  c.loads.(l) <- c.loads.(l) + 1;
  if Hierarchy.last_partial c.hier then c.loads.(k + 4) <- c.loads.(k + 4) + 1;
  c.loads.(k + 5) <-
    c.loads.(k + 5)
    + Int.max 0
        (ready - now - Hierarchy.level_latency c.hier Hierarchy.L1)

let count_call c pc callee =
  let k = (pc, callee) in
  Hashtbl.replace c.calls k
    (1 + Option.value ~default:0 (Hashtbl.find_opt c.calls k))

(* A decoded call site has exactly one callee (its word holds the callee's
   entry pc), so it is counted per pc. Its first call enters the site into
   [calls], where hashing every call would have entered it (so [calls]
   holds its entries in the same order); {!count} settles the counts once
   the run is over. *)
let count_site_call c (layout : Layout.t) pc entry =
  let n = c.site_calls.(pc) in
  c.site_calls.(pc) <- n + 1;
  if n = 0 then
    Hashtbl.replace c.calls
      (pc, Layout.name layout layout.Layout.fn_of.(entry))
      0

(* Byte offsets in [Thread.regs] of word [w]'s register fields d, a and b
   (bits 6, 13 and 20; register r's slot is at byte 8r). *)
let[@inline] d_off w = (w lsr 3) land 0x3f8
let[@inline] a_off w = (w lsr 10) land 0x3f8
let[@inline] b_off w = (w lsr 17) land 0x3f8

(* One instruction: word [w], the one at the thread's pc. The opcode
   literals below mirror [Decode.enc]'s map exactly (see decode.ml for the
   word layout); a target is a pc id and fall-through is [pc + 1] (the
   layout rejects a function that could run off its end). Every engine
   executes through here — [exec] below and both cycle cores — so the
   only second semantics left is [Exec.step_op], for the [slow] word. The
   probe observes loads, stores, prefetches, branches and calls inside
   their arms, so [exec]'s loop dispatches once per instruction; the
   cores pass [Quiet] and time the returned event themselves.

   Invariants the arms lean on: register fields were range-validated by
   every producer (so register slots are read and written unchecked), and
   r0 is never written (so reading its slot always yields the hardwired
   zero without a branch). Registers are unboxed 8-byte slots and every
   comparison is at [int] or [int64], so the arms allocate nothing and
   call nothing in the runtime: a value computed or loaded goes straight
   into its slot.

   [@inline]: [exec]'s loop gets the arms without a call; the cycle cores,
   in other modules, call it ([-opaque] inlines nothing across modules). *)
let[@inline] step probe (layout : Layout.t) (env : Exec.env) (th : Thread.t)
    w =
  let regs = th.Thread.regs in
  let pc = th.Thread.pc in
  th.Thread.instrs <- th.Thread.instrs + 1;
  match w land 63 with
  | 0 ->
    (* nop *)
    th.Thread.pc <- pc + 1;
    Exec.Ev_plain
  | 1 ->
    (* movi *)
    let d = d_off w in
    if d <> 0 then
      Thread.set64u regs d (Array.unsafe_get layout.Layout.imms (w asr 27));
    th.Thread.pc <- pc + 1;
    Exec.Ev_plain
  | 2 ->
    (* mov *)
    let d = d_off w in
    if d <> 0 then Thread.set64u regs d (Thread.get64u regs (a_off w));
    th.Thread.pc <- pc + 1;
    Exec.Ev_plain
  | (3 | 4 | 5 | 6 | 7 | 8 | 9 | 10 | 11 | 12) as opc ->
    (* alu: add sub mul div rem and or xor shl shr *)
    let a = Thread.get64u regs (a_off w)
    and b = Thread.get64u regs (b_off w) in
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
    let d = d_off w in
    if d <> 0 then Thread.set64u regs d v;
    th.Thread.pc <- pc + 1;
    Exec.Ev_plain
  | (13 | 14 | 15 | 16 | 17 | 18 | 19 | 20 | 21 | 22) as opc ->
    (* alui *)
    let a = Thread.get64u regs (a_off w)
    and b = Array.unsafe_get layout.Layout.imms (w asr 27) in
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
    let d = d_off w in
    if d <> 0 then Thread.set64u regs d v;
    th.Thread.pc <- pc + 1;
    Exec.Ev_plain
  | (23 | 24 | 25 | 26 | 27 | 28) as opc ->
    (* cmp: eq ne lt le gt ge *)
    let a = Thread.get64u regs (a_off w)
    and b = Thread.get64u regs (b_off w) in
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
    let d = d_off w in
    if d <> 0 then Thread.set64u regs d (if v then 1L else 0L);
    th.Thread.pc <- pc + 1;
    Exec.Ev_plain
  | (29 | 30 | 31 | 32 | 33 | 34) as opc ->
    (* cmpi *)
    let a = Thread.get64u regs (a_off w)
    and b = Array.unsafe_get layout.Layout.imms (w asr 27) in
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
    let d = d_off w in
    if d <> 0 then Thread.set64u regs d (if v then 1L else 0L);
    th.Thread.pc <- pc + 1;
    Exec.Ev_plain
  | (35 | 36 | 37 | 38) as opc ->
    (* load, widths 1 2 4 8; a load into r0 reads nothing *)
    let base = Thread.get64u regs (a_off w) in
    let addr = (Int64.to_int base + (w asr 27)) land max_int in
    let d = d_off w in
    if d <> 0 then Memory.read_to env.Exec.mem addr (1 lsl (opc - 35)) regs d;
    th.Thread.pc <- pc + 1;
    env.Exec.ev_addr <- addr;
    (match probe with
    | Quiet -> ()
    | Warm (h, _) -> Hierarchy.warm h addr
    | Count c -> count_load c th pc addr);
    Exec.Ev_load
  | (39 | 40 | 41 | 42) as opc ->
    (* store, widths 1 2 4 8; a speculative thread never writes memory *)
    let base = Thread.get64u regs (a_off w) in
    let addr = (Int64.to_int base + (w asr 27)) land max_int in
    if not th.Thread.speculative then
      Memory.write_from env.Exec.mem addr (1 lsl (opc - 39)) regs (d_off w);
    th.Thread.pc <- pc + 1;
    env.Exec.ev_addr <- addr;
    (match probe with
    | Quiet -> ()
    | Warm (h, _) -> Hierarchy.warm h addr
    | Count c -> ignore (count_access c th addr));
    Exec.Ev_store
  | 43 ->
    (* lfetch; warming its line matters — the timed runs' prefetch traffic
       fills the hierarchy, so skipping it would leave the next detailed
       window colder than a full run; the profiler ignores prefetches *)
    let base = Thread.get64u regs (a_off w) in
    let addr = (Int64.to_int base + (w asr 27)) land max_int in
    env.Exec.ev_addr <- addr;
    th.Thread.pc <- pc + 1;
    (match probe with
    | Warm (h, _) -> Hierarchy.warm h addr
    | Quiet | Count _ -> ());
    Exec.Ev_prefetch
  | 44 ->
    (* br *)
    th.Thread.pc <- w asr 27;
    (match probe with
    | Warm (_, bp) ->
      if not (Bpred.btb_lookup bp ~pc) then Bpred.btb_insert bp ~pc
    | Quiet | Count _ -> ());
    Exec.Ev_branch_taken
  | (45 | 46) as opc ->
    (* brnz / brz *)
    let z = Int64.equal (Thread.get64u regs (a_off w)) 0L in
    let taken = (opc = 45) <> z in
    (match probe with
    | Quiet -> ()
    | Warm (_, bp) ->
      Bpred.update bp ~thread:0 ~pc ~taken;
      if taken && not (Bpred.btb_lookup bp ~pc) then Bpred.btb_insert bp ~pc
    | Count c ->
      let k = (2 * pc) + if taken then 0 else 1 in
      c.branches.(k) <- c.branches.(k) + 1);
    if taken then begin
      th.Thread.pc <- w asr 27;
      Exec.Ev_branch_taken
    end
    else begin
      th.Thread.pc <- pc + 1;
      Exec.Ev_branch_not_taken
    end
  | 47 ->
    (* call: save only the caller's mentioned stacked-register prefix (the
       word's b field) — the return restores [saved_n], so the code
       resuming after it sees every register it can read *)
    let fr = Thread.push_frame th ~ret_pc:(pc + 1) in
    let k = (w lsr 20) land 0x7f in
    fr.Thread.saved_n <- k;
    Bytes.blit regs Thread.stacked_off fr.Thread.saved_stacked 0 (8 * k);
    let entry = w asr 27 in
    (match probe with
    | Count c -> count_site_call c layout pc entry
    | Quiet | Warm _ -> ());
    th.Thread.pc <- entry;
    Exec.Ev_call
  | 48 ->
    (* ret; returning from the outermost frame ends the thread *)
    if th.Thread.frame_n = 0 then begin
      th.Thread.active <- false;
      if th.Thread.speculative then Exec.Ev_kill else Exec.Ev_halt
    end
    else begin
      th.Thread.frame_n <- th.Thread.frame_n - 1;
      let fr = th.Thread.frames.(th.Thread.frame_n) in
      Bytes.blit fr.Thread.saved_stacked 0 regs Thread.stacked_off
        (8 * fr.Thread.saved_n);
      th.Thread.pc <- fr.Thread.ret_pc;
      Exec.Ev_ret
    end
  | 49 ->
    th.Thread.active <- false;
    Exec.Ev_halt
  | 50 ->
    th.Thread.active <- false;
    Exec.Ev_kill
  | 51 ->
    (* chk.c *)
    if env.Exec.chk_free () then begin
      th.Thread.pc <- w asr 27;
      Exec.Ev_chk_fired
    end
    else begin
      th.Thread.pc <- pc + 1;
      Exec.Ev_chk_nofire
    end
  | 52 ->
    (* rand: xorshift64*, deterministic per thread *)
    let st = th.Thread.rand_state in
    let x = Thread.get64u st 0 in
    let x = Int64.logxor x (Int64.shift_left x 13) in
    let x = Int64.logxor x (Int64.shift_right_logical x 7) in
    let x = Int64.logxor x (Int64.shift_left x 17) in
    Thread.set64u st 0 x;
    let d = d_off w in
    if d <> 0 then Thread.set64u regs d (Int64.shift_right_logical x 1);
    th.Thread.pc <- pc + 1;
    Exec.Ev_plain
  | _ ->
    (* slow path: rare ops (icall, spawn, lib.st/ld, alloc, print, memory
       offsets too wide for the word, unresolved static targets) run on
       the boxed form; an unresolved branch target raises there *)
    let ev = Exec.step_op env layout th in
    (* probed like the decoded arms, except branches: a [slow] branch has
       an unresolved target, and raises when taken *)
    (match (ev, probe) with
    | (Exec.Ev_load | Exec.Ev_store | Exec.Ev_prefetch), Warm (h, _) ->
      Hierarchy.warm h env.Exec.ev_addr
    | Exec.Ev_load, Count c -> count_load c th pc env.Exec.ev_addr
    | Exec.Ev_store, Count c -> ignore (count_access c th env.Exec.ev_addr)
    | Exec.Ev_call, Count c ->
      count_call c pc
        (Layout.name layout (Array.unsafe_get layout.Layout.fn_of th.Thread.pc))
    | _ -> ());
    ev

(* The functional interpreter: [step] in a loop. *)
let exec probe (layout : Layout.t) (env : Exec.env) (th : Thread.t) ~instrs =
  let done_ = ref 0 in
  while !done_ < instrs && th.Thread.active do
    let pc = th.Thread.pc in
    let w = layout.Layout.code.(pc) in
    if Array.unsafe_get layout.Layout.block_start pc then begin
      match probe with
      | Quiet -> ()
      | Warm (h, _) -> Hierarchy.warm_ifetch h (Layout.code_base + (16 * pc))
      | Count c -> c.blocks.(pc) <- c.blocks.(pc) + 1
    end;
    incr done_;
    ignore (step probe layout env th w)
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
  main.Thread.pc <-
    Layout.pc_of layout (Layout.find layout prog.Ssp_ir.Prog.entry) 0;
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
              Thread.reset_for_spawn th ~pc:(Layout.pc_of layout fn blk)
                ~live_in ~rand_state:0x2545F4914F6CDD1DL;
              specs.(i) <- Some th;
              incr spawns;
              true);
      output = (fun v -> outputs := v :: !outputs);
      ev_addr = 0;
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
                 ~instrs:(Int.min burst (watchdog + 1 - th.Thread.instrs)));
            if th.Thread.instrs > watchdog then th.Thread.active <- false;
            if not th.Thread.active then specs.(si) <- None)
        specs
  done;
  { outputs = List.rev !outputs; instrs = main.Thread.instrs; spawns = !spawns }

let run ?(spawning = false) prog =
  run_probe Quiet ~spawning (Layout.of_prog prog) prog

let count c layout prog =
  let n = (run_probe (Count c) ~spawning:false layout prog).instrs in
  Hashtbl.filter_map_inplace
    (fun (pc, _) k ->
      let site = c.site_calls.(pc) in
      Some (if site > 0 then site else k))
    c.calls;
  n
