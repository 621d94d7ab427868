open Ssp_isa

type env = {
  mem : Memory.t;
  prog : Ssp_ir.Prog.t;
  chk_free : unit -> bool;
  spawn : src:Ssp_ir.Iref.t -> fn:int -> blk:int -> live_in:int64 array -> bool;
  output : int64 -> unit;
  mutable ev_addr : int;
}

(* Events are all constant constructors (immediates): returning one from the
   per-instruction hot path allocates nothing. The address of the last
   load/store/prefetch is passed out of band in [env.ev_addr], a native
   int. *)
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

(* The 62-bit effective address [b + off]. *)
let addr t b off = (Int64.to_int (Thread.get t b) + off) land max_int

(* A call to the function at layout index [fn]: the frame saves the
   caller's stacked registers, all of them, and returns past the call. *)
let call lay (t : Thread.t) fn =
  let fr = Thread.push_frame t ~ret_pc:(t.pc + 1) in
  Bytes.blit t.regs Thread.stacked_off fr.Thread.saved_stacked 0
    (8 * (Reg.count - Reg.first_stacked));
  t.pc <- Layout.pc_of lay fn 0

(* The pc of label [l]'s block in [e]'s function; raises for a label that
   does not resolve. *)
let label_pc (e : Layout.entry) l =
  e.Layout.block_base.(Ssp_ir.Prog.block_index e.Layout.func l)

(* The rare ops [Decode] marks [slow]. Everything else runs on the decoded
   word in [Funcsim.step], which also counts the instruction. The op is
   recovered from the pc, and the names and labels it holds are resolved
   here, once per executed op. *)
let step_op env (lay : Layout.t) (t : Thread.t) =
  let pc = t.pc in
  let src = lay.Layout.irefs.(pc) in
  let e = lay.Layout.by_index.(lay.Layout.fn_of.(pc)) in
  match e.Layout.func.blocks.(src.blk).ops.(src.ins) with
  | Op.Load (w, d, b, off) ->
    let addr = addr t b off in
    (* Loads zero-extend (documented in Op); value already masked. *)
    Thread.set t d (Memory.read env.mem addr (Op.width_bytes w));
    t.pc <- pc + 1;
    env.ev_addr <- addr;
    Ev_load
  | Op.Store (w, s, b, off) ->
    let addr = addr t b off in
    if not t.speculative then
      Memory.write env.mem addr (Op.width_bytes w) (Thread.get t s);
    t.pc <- pc + 1;
    env.ev_addr <- addr;
    Ev_store
  | Op.Lfetch (b, off) ->
    env.ev_addr <- addr t b off;
    t.pc <- pc + 1;
    Ev_prefetch
  | Op.Br l ->
    t.pc <- label_pc e l;
    Ev_branch_taken
  | Op.Brnz (s, l) ->
    if not (Int64.equal (Thread.get t s) 0L) then begin
      t.pc <- label_pc e l;
      Ev_branch_taken
    end
    else begin
      t.pc <- pc + 1;
      Ev_branch_not_taken
    end
  | Op.Brz (s, l) ->
    if Int64.equal (Thread.get t s) 0L then begin
      t.pc <- label_pc e l;
      Ev_branch_taken
    end
    else begin
      t.pc <- pc + 1;
      Ev_branch_not_taken
    end
  | Op.Call (callee, _) ->
    (* decoded as [slow] only when the callee is unknown: raises *)
    call lay t (Layout.find lay callee);
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
      t.pc <- pc + 1;
      Ev_plain
    | Some callee ->
      call lay t (Layout.find lay callee.Ssp_ir.Prog.name);
      Ev_call)
  | Op.Chk_c stub ->
    if env.chk_free () then begin
      t.pc <- label_pc e stub;
      Ev_chk_fired
    end
    else begin
      t.pc <- pc + 1;
      Ev_chk_nofire
    end
  | Op.Spawn (fn, label) ->
    let target = Ssp_ir.Prog.find_func env.prog fn in
    let blk = Ssp_ir.Prog.block_index target label in
    let accepted =
      env.spawn ~src ~fn:(Layout.find lay fn) ~blk ~live_in:t.lib_out
    in
    t.pc <- pc + 1;
    if accepted then Ev_spawned else Ev_spawn_denied
  | Op.Lib_st (slot, s) ->
    if slot >= 0 && slot < Thread.lib_slots then
      t.lib_out.(slot) <- Thread.get t s;
    t.pc <- pc + 1;
    Ev_lib
  | Op.Lib_ld (d, slot) ->
    if slot >= 0 && slot < Thread.lib_slots then
      Thread.set t d t.live_in.(slot)
    else Thread.set t d 0L;
    t.pc <- pc + 1;
    Ev_lib
  | Op.Alloc (d, s) ->
    if t.speculative then Thread.set t d 0L
    else Thread.set t d (Memory.alloc env.mem (Thread.get t s));
    t.pc <- pc + 1;
    Ev_plain
  | Op.Print s ->
    if not t.speculative then env.output (Thread.get t s);
    t.pc <- pc + 1;
    Ev_plain
  | Op.Nop | Op.Movi _ | Op.Mov _ | Op.Alu _ | Op.Alui _ | Op.Cmp _
  | Op.Cmpi _ | Op.Ret | Op.Halt | Op.Kill | Op.Rand _ ->
    invalid_arg "Exec.step_op: op always decodes to its own word"
