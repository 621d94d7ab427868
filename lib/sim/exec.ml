open Ssp_isa

type env = {
  mem : Memory.t;
  prog : Ssp_ir.Prog.t;
  chk_free : unit -> bool;
  spawn : src:Ssp_ir.Iref.t -> fn:string -> blk:int -> live_in:int64 array -> bool;
  output : int64 -> unit;
  mutable ev_addr : int64;
}

(* Events are all constant constructors (immediates): returning one from the
   per-instruction hot path allocates nothing. The address of the last
   load/store/prefetch is passed out of band in [env.ev_addr] — assigning an
   int64 that [step] computed anyway stores the existing box. *)
type event =
  | Ev_plain
  | Ev_load
  | Ev_store
  | Ev_prefetch
  | Ev_branch_taken
  | Ev_branch_not_taken
  | Ev_call
  | Ev_ret
  | Ev_halt
  | Ev_kill
  | Ev_chk_fired
  | Ev_chk_nofire
  | Ev_spawned
  | Ev_spawn_denied
  | Ev_lib

(* The per-instruction dispatch allocates nothing on the common paths: no
   closures, and direct [Thread.get]/[Thread.set] applications that the
   compiler can inline. *)
let step_op env (t : Thread.t) (f : Ssp_ir.Prog.func) (op : Op.t) =
  t.instrs <- t.instrs + 1;
  match op with
  | Op.Nop ->
    t.ins <- t.ins + 1;
    Ev_plain
  | Op.Movi (d, i) ->
    Thread.set t d i;
    t.ins <- t.ins + 1;
    Ev_plain
  | Op.Mov (d, s) ->
    Thread.set t d (Thread.get t s);
    t.ins <- t.ins + 1;
    Ev_plain
  | Op.Alu (o, d, a, b) ->
    Thread.set t d (Op.alu_eval o (Thread.get t a) (Thread.get t b));
    t.ins <- t.ins + 1;
    Ev_plain
  | Op.Alui (o, d, a, i) ->
    Thread.set t d (Op.alu_eval o (Thread.get t a) i);
    t.ins <- t.ins + 1;
    Ev_plain
  | Op.Cmp (o, d, a, b) ->
    Thread.set t d
      (if Op.cmp_eval o (Thread.get t a) (Thread.get t b) then 1L else 0L);
    t.ins <- t.ins + 1;
    Ev_plain
  | Op.Cmpi (o, d, a, i) ->
    Thread.set t d (if Op.cmp_eval o (Thread.get t a) i then 1L else 0L);
    t.ins <- t.ins + 1;
    Ev_plain
  | Op.Load (w, d, b, off) ->
    let addr = Int64.add (Thread.get t b) (Int64.of_int off) in
    (* Loads zero-extend (documented in Op); value already masked. *)
    Thread.set t d (Memory.read env.mem addr (Op.width_bytes w));
    t.ins <- t.ins + 1;
    env.ev_addr <- addr;
    Ev_load
  | Op.Store (w, s, b, off) ->
    let addr = Int64.add (Thread.get t b) (Int64.of_int off) in
    if not t.speculative then
      Memory.write env.mem addr (Op.width_bytes w) (Thread.get t s);
    t.ins <- t.ins + 1;
    env.ev_addr <- addr;
    Ev_store
  | Op.Lfetch (b, off) ->
    let addr = Int64.add (Thread.get t b) (Int64.of_int off) in
    t.ins <- t.ins + 1;
    env.ev_addr <- addr;
    Ev_prefetch
  | Op.Br l ->
    t.blk <- Ssp_ir.Prog.block_index f l;
    t.ins <- 0;
    Ev_branch_taken
  | Op.Brnz (s, l) ->
    if not (Int64.equal (Thread.get t s) 0L) then begin
      t.blk <- Ssp_ir.Prog.block_index f l;
      t.ins <- 0;
      Ev_branch_taken
    end
    else begin
      t.ins <- t.ins + 1;
      Ev_branch_not_taken
    end
  | Op.Brz (s, l) ->
    if Int64.equal (Thread.get t s) 0L then begin
      t.blk <- Ssp_ir.Prog.block_index f l;
      t.ins <- 0;
      Ev_branch_taken
    end
    else begin
      t.ins <- t.ins + 1;
      Ev_branch_not_taken
    end
  | Op.Call (callee, _) ->
    let fr = Thread.push_frame t ~ret_blk:t.blk ~ret_ins:(t.ins + 1) in
    Array.blit t.regs Reg.first_stacked fr.Thread.saved_stacked 0
      (Reg.count - Reg.first_stacked);
    t.fn <- callee;
    t.blk <- 0;
    t.ins <- 0;
    Ev_call
  | Op.Icall (r, _) -> (
    let id = Int64.to_int (Thread.get t r) in
    match Ssp_ir.Prog.func_by_code_id env.prog id with
    | None ->
      (* An indirect call through garbage: speculative threads tolerate it
         (treated as a nop); the main thread must not do this. *)
      if not t.speculative then
        failwith
          (Printf.sprintf "Exec: indirect call to unknown code id %d" id);
      t.ins <- t.ins + 1;
      Ev_plain
    | Some callee ->
      let fr = Thread.push_frame t ~ret_blk:t.blk ~ret_ins:(t.ins + 1) in
      Array.blit t.regs Reg.first_stacked fr.Thread.saved_stacked 0
        (Reg.count - Reg.first_stacked);
      t.fn <- callee.Ssp_ir.Prog.name;
      t.blk <- 0;
      t.ins <- 0;
      Ev_call)
  | Op.Ret ->
    if t.frame_n = 0 then begin
      (* Returning from the outermost frame ends the thread. *)
      t.active <- false;
      if t.speculative then Ev_kill else Ev_halt
    end
    else begin
      t.frame_n <- t.frame_n - 1;
      let fr = t.frames.(t.frame_n) in
      Array.blit fr.Thread.saved_stacked 0 t.regs Reg.first_stacked
        fr.Thread.saved_n;
      t.fn <- fr.Thread.ret_fn;
      t.blk <- fr.Thread.ret_blk;
      t.ins <- fr.Thread.ret_ins;
      Ev_ret
    end
  | Op.Halt ->
    t.active <- false;
    Ev_halt
  | Op.Kill ->
    t.active <- false;
    Ev_kill
  | Op.Chk_c stub ->
    if env.chk_free () then begin
      t.blk <- Ssp_ir.Prog.block_index f stub;
      t.ins <- 0;
      Ev_chk_fired
    end
    else begin
      t.ins <- t.ins + 1;
      Ev_chk_nofire
    end
  | Op.Spawn (fn, label) ->
    let target = Ssp_ir.Prog.find_func env.prog fn in
    let blk = Ssp_ir.Prog.block_index target label in
    let src = { Ssp_ir.Iref.fn = t.fn; blk = t.blk; ins = t.ins } in
    let accepted = env.spawn ~src ~fn ~blk ~live_in:t.lib_out in
    t.ins <- t.ins + 1;
    if accepted then Ev_spawned else Ev_spawn_denied
  | Op.Lib_st (slot, s) ->
    if slot >= 0 && slot < Thread.lib_slots then
      t.lib_out.(slot) <- Thread.get t s;
    t.ins <- t.ins + 1;
    Ev_lib
  | Op.Lib_ld (d, slot) ->
    if slot >= 0 && slot < Thread.lib_slots then
      Thread.set t d t.live_in.(slot)
    else Thread.set t d 0L;
    t.ins <- t.ins + 1;
    Ev_lib
  | Op.Alloc (d, s) ->
    if t.speculative then Thread.set t d 0L
    else Thread.set t d (Memory.alloc env.mem (Thread.get t s));
    t.ins <- t.ins + 1;
    Ev_plain
  | Op.Print s ->
    if not t.speculative then env.output (Thread.get t s);
    t.ins <- t.ins + 1;
    Ev_plain
  | Op.Rand d ->
    (* xorshift64*; deterministic per thread. *)
    let x = t.rand_state in
    let x = Int64.logxor x (Int64.shift_left x 13) in
    let x = Int64.logxor x (Int64.shift_right_logical x 7) in
    let x = Int64.logxor x (Int64.shift_left x 17) in
    t.rand_state <- x;
    Thread.set t d (Int64.shift_right_logical x 1);
    t.ins <- t.ins + 1;
    Ev_plain
