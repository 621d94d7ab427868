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

(* The 62-bit effective address: register a plus [off]. *)
let[@inline] ea regs w off =
  (Int64.to_int (Thread.get64u regs (a_off w)) + off) land max_int

(* A wide memory op's offset (in [imms]) and width (its b field). *)
let[@inline] wide_off (layout : Layout.t) w =
  Int64.to_int (Array.unsafe_get layout.Layout.imms (w asr 27))

let[@inline] wide_bytes w = (w lsr 20) land 0x7f

(* The bodies the narrow and wide forms of a load, store and lfetch share,
   once the address and width are known. A load into r0 reads nothing;
   a speculative thread's store writes nothing. *)
let[@inline] load probe env (th : Thread.t) pc w addr bytes =
  let d = d_off w in
  if d <> 0 then Memory.read_to env.Exec.mem addr bytes th.Thread.regs d;
  th.Thread.pc <- pc + 1;
  env.Exec.ev_addr <- addr;
  (match probe with
  | Quiet -> ()
  | Warm (h, _) -> Hierarchy.warm h addr
  | Count c -> count_load c th pc addr);
  Exec.Ev_load

let[@inline] store probe env (th : Thread.t) pc w addr bytes =
  if not th.Thread.speculative then
    Memory.write_from env.Exec.mem addr bytes th.Thread.regs (d_off w);
  th.Thread.pc <- pc + 1;
  env.Exec.ev_addr <- addr;
  (match probe with
  | Quiet -> ()
  | Warm (h, _) -> Hierarchy.warm h addr
  | Count c -> ignore (count_access c th addr));
  Exec.Ev_store

(* Warming an lfetch's line matters — the timed runs' prefetch traffic
   fills the hierarchy, so skipping it would leave the next detailed
   window colder than a full run; the profiler ignores prefetches. *)
let[@inline] lfetch probe env (th : Thread.t) pc addr =
  env.Exec.ev_addr <- addr;
  th.Thread.pc <- pc + 1;
  (match probe with
  | Warm (h, _) -> Hierarchy.warm h addr
  | Quiet | Count _ -> ());
  Exec.Ev_prefetch

(* A call or icall to [entry]: save only the caller's mentioned
   stacked-register prefix (the word's b field) — the return restores
   [saved_n], so the code resuming after it sees every register it can
   read. *)
let[@inline] call (th : Thread.t) pc w entry =
  let fr = Thread.push_frame th ~ret_pc:(pc + 1) in
  let k = (w lsr 20) land 0x7f in
  fr.Thread.saved_n <- k;
  Bytes.blit th.Thread.regs Thread.stacked_off fr.Thread.saved_stacked 0
    (8 * k);
  th.Thread.pc <- entry;
  Exec.Ev_call

(* One instruction: word [w], the one at the thread's pc. The opcode
   literals below mirror [Decode.enc]'s map exactly (see decode.ml for the
   word layout); a target is a pc id and fall-through is [pc + 1] (the
   layout rejects a function that could run off its end and a target that
   does not resolve). Every engine executes every instruction through
   here — [exec] below and both cycle cores — and every op has its own
   arm. The probe observes loads, stores, prefetches, branches and calls
   inside their arms, so [exec]'s loop dispatches once per instruction;
   the cores pass [Quiet] and time the returned event themselves.

   Invariants the arms lean on: register fields were range-validated by
   every producer (so register slots are read and written unchecked), and
   r0 is never written (so reading its slot always yields the hardwired
   zero without a branch). Registers and live-in buffers are unboxed
   8-byte slots and every comparison is at [int] or [int64], so the arms
   allocate nothing and call nothing in the runtime: a value computed or
   loaded goes straight into its slot. Only [alloc] and [print] pass a
   boxed value, to [Memory.alloc] and [env.output].

   [@inline]: [exec]'s loop gets the arms without a call, and so do the
   cycle cores in other modules, since the default (release) build
   compiles without [-opaque]. *)
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
    (* load, widths 1 2 4 8 *)
    load probe env th pc w (ea regs w (w asr 27)) (1 lsl (opc - 35))
  | (39 | 40 | 41 | 42) as opc ->
    (* store, widths 1 2 4 8 *)
    store probe env th pc w (ea regs w (w asr 27)) (1 lsl (opc - 39))
  | 43 ->
    (* lfetch *)
    lfetch probe env th pc (ea regs w (w asr 27))
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
    (* call *)
    let entry = w asr 27 in
    (match probe with
    | Count c -> count_site_call c layout pc entry
    | Quiet | Warm _ -> ());
    call th pc w entry
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
  | 53 ->
    (* icall through the code id in register a; an unknown one is a nop
       in a speculative thread, an error in the main thread *)
    let id = Int64.to_int (Thread.get64u regs (a_off w)) in
    let fn = Layout.of_code_id layout id in
    if fn >= 0 then begin
      (match probe with
      | Count c -> count_call c pc (Layout.name layout fn)
      | Quiet | Warm _ -> ());
      call th pc w (Layout.pc_of layout fn 0)
    end
    else if th.Thread.speculative then begin
      th.Thread.pc <- pc + 1;
      Exec.Ev_plain
    end
    else
      failwith (Printf.sprintf "Exec: indirect call to unknown code id %d" id)
  | 54 ->
    (* spawn at the target pc; the callback reads this thread's pc and
       live-in staging buffer *)
    let accepted = env.Exec.spawn th (w asr 27) in
    th.Thread.pc <- pc + 1;
    if accepted then Exec.Ev_spawned else Exec.Ev_spawn_denied
  | 55 ->
    (* lib.st; slot -1 (out of range) writes nothing *)
    let k = w asr 27 in
    if k >= 0 then
      Thread.set64u th.Thread.lib_out (8 * k) (Thread.get64u regs (a_off w));
    th.Thread.pc <- pc + 1;
    Exec.Ev_lib
  | 56 ->
    (* lib.ld; slot -1 (out of range) reads 0 *)
    let d = d_off w and k = w asr 27 in
    if d <> 0 then
      Thread.set64u regs d
        (if k >= 0 then Thread.get64u th.Thread.live_in (8 * k) else 0L);
    th.Thread.pc <- pc + 1;
    Exec.Ev_lib
  | 57 ->
    (* alloc; a speculative thread allocates nothing and gets 0 *)
    let v =
      if th.Thread.speculative then 0L
      else Memory.alloc env.Exec.mem (Thread.get64u regs (a_off w))
    in
    let d = d_off w in
    if d <> 0 then Thread.set64u regs d v;
    th.Thread.pc <- pc + 1;
    Exec.Ev_plain
  | 58 ->
    (* print; a speculative thread prints nothing *)
    if not th.Thread.speculative then
      env.Exec.output (Thread.get64u regs (a_off w));
    th.Thread.pc <- pc + 1;
    Exec.Ev_plain
  | 59 ->
    (* load, wide offset *)
    load probe env th pc w (ea regs w (wide_off layout w)) (wide_bytes w)
  | 60 ->
    (* store, wide offset *)
    store probe env th pc w (ea regs w (wide_off layout w)) (wide_bytes w)
  | 61 ->
    (* lfetch, wide offset *)
    lfetch probe env th pc (ea regs w (wide_off layout w))
  | opc -> invalid_arg (Printf.sprintf "Funcsim.step: opcode %d" opc)

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

(* The first idle context of the pool at or after [i], or -1. *)
let rec free_slot (specs : Thread.t array) i =
  if i >= Array.length specs then -1
  else if specs.(i).Thread.active then free_slot specs (i + 1)
  else i

let run_probe probe ~spawning layout prog =
  let outputs = ref [] in
  let main = Thread.create ~id:0 in
  main.Thread.pc <-
    Layout.pc_of layout (Layout.find layout prog.Ssp_ir.Prog.entry) 0;
  main.Thread.active <- true;
  Thread.set main Ssp_isa.Reg.sp Ssp_ir.Prog.stack_base;
  (* at most 3 speculative contexts (4 contexts − main), pooled: an idle
     one is inactive, and a spawn binds the first idle one; none without
     [spawning] *)
  let specs =
    Array.init (if spawning then 3 else 0) (fun i -> Thread.create ~id:(1 + i))
  in
  let spawns = ref 0 in
  let env =
    {
      Exec.mem = Memory.create ();
      chk_free = (fun () -> free_slot specs 0 >= 0);
      spawn =
        (fun src target ->
          let i = free_slot specs 0 in
          if i >= 0 then begin
            Thread.reset_for_spawn specs.(i) ~pc:target
              ~live_in:src.Thread.lib_out ~seed:0x2545F4914F6CDD1D;
            incr spawns
          end;
          i >= 0);
      output = (fun v -> outputs := v :: !outputs);
      ev_addr = 0;
    }
  in
  let main_burst = if spawning then burst else max_instrs in
  while main.Thread.active do
    if main.Thread.instrs >= max_instrs then
      failwith "Funcsim.run: main thread exceeded max_instrs";
    ignore (exec probe layout env main ~instrs:main_burst);
    Array.iter
      (fun (th : Thread.t) ->
        if th.Thread.active then begin
          ignore
            (exec Quiet layout env th
               ~instrs:(Int.min burst (watchdog + 1 - th.Thread.instrs)));
          if th.Thread.instrs > watchdog then th.Thread.active <- false
        end)
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
