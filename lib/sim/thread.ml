(* Registers live unboxed: 8-byte slots of a [Bytes.t], read and written
   with the [%caml_bytes_get64u]/[%caml_bytes_set64u] primitives, so a
   register write neither allocates an [Int64] box nor runs the write
   barrier. A frame's saved stacked registers use the same layout, and a
   call or return moves them with one [Bytes.blit], and the live-in
   buffers are 8-byte slots too, so a spawn copies one into another with
   one [Bytes.blit]. The position is one [Layout] pc id. *)

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

type frame = {
  saved_stacked : Bytes.t;
  mutable saved_n : int;
  mutable ret_pc : int;
}

type t = {
  id : int;
  mutable pc : int;
  regs : Bytes.t;
  mutable frames : frame array;
  mutable frame_n : int;
  live_in : Bytes.t;
  lib_out : Bytes.t;
  mutable speculative : bool;
  mutable active : bool;
  mutable instrs : int;
  rand_state : Bytes.t;
}

let lib_slots = 16

let n_stacked = Ssp_isa.Reg.count - Ssp_isa.Reg.first_stacked

let stacked_off = 8 * Ssp_isa.Reg.first_stacked

let new_frame () =
  { saved_stacked = Bytes.make (8 * n_stacked) '\000'; saved_n = n_stacked;
    ret_pc = 0 }

let create ~id =
  let rand_state = Bytes.create 8 in
  set64u rand_state 0 0x9E3779B97F4A7C15L;
  {
    id;
    pc = 0;
    regs = Bytes.make (8 * Ssp_isa.Reg.count) '\000';
    frames = [||];
    frame_n = 0;
    live_in = Bytes.make (8 * lib_slots) '\000';
    lib_out = Bytes.make (8 * lib_slots) '\000';
    speculative = false;
    active = false;
    instrs = 0;
    rand_state;
  }

let reset_for_spawn t ~pc ~live_in ~seed =
  t.pc <- pc;
  Bytes.fill t.regs 0 (Bytes.length t.regs) '\000';
  t.frame_n <- 0;
  Bytes.blit live_in 0 t.live_in 0 (8 * lib_slots);
  Bytes.fill t.lib_out 0 (8 * lib_slots) '\000';
  t.speculative <- true;
  t.active <- true;
  t.instrs <- 0;
  set64u t.rand_state 0 (Int64.of_int seed)

(* The frame pool starts empty (most speculative threads never call) and
   doubles, from 4, on the first call that finds it full. *)
let push_frame t ~ret_pc =
  let cap = Array.length t.frames in
  if t.frame_n = cap then
    t.frames <-
      Array.init (Int.max 4 (2 * cap)) (fun i ->
          if i < cap then t.frames.(i) else new_frame ());
  let fr = t.frames.(t.frame_n) in
  t.frame_n <- t.frame_n + 1;
  fr.saved_n <- n_stacked;
  fr.ret_pc <- ret_pc;
  fr

(* Register indices are range-validated at every producer, so [set]
   skips the bounds check; r0's slot is never written, so it reads as
   the hardwired zero. *)
let set t r v = if r <> Ssp_isa.Reg.zero then set64u t.regs (8 * r) v
