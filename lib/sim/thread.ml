type frame = {
  saved_stacked : int64 array;
  mutable saved_n : int;
  mutable ret_blk : int;
  mutable ret_ins : int;
  mutable ret_fn : string;
}

type t = {
  id : int;
  mutable fn : string;
  mutable blk : int;
  mutable ins : int;
  regs : int64 array;
  mutable frames : frame array;
  mutable frame_n : int;
  mutable live_in : int64 array;
  lib_out : int64 array;
  mutable speculative : bool;
  mutable active : bool;
  mutable instrs : int;
  mutable rand_state : int64;
}

let lib_slots = 16

let n_stacked = Ssp_isa.Reg.count - Ssp_isa.Reg.first_stacked

let new_frame () =
  { saved_stacked = Array.make n_stacked 0L; saved_n = n_stacked;
    ret_blk = 0; ret_ins = 0; ret_fn = "" }

let create ~id =
  {
    id;
    fn = "";
    blk = 0;
    ins = 0;
    regs = Array.make Ssp_isa.Reg.count 0L;
    frames = Array.init 16 (fun _ -> new_frame ());
    frame_n = 0;
    live_in = Array.make lib_slots 0L;
    lib_out = Array.make lib_slots 0L;
    speculative = false;
    active = false;
    instrs = 0;
    rand_state = 0x9E3779B97F4A7C15L;
  }

let reset_for_spawn t ~fn ~blk ~live_in ~rand_state =
  t.fn <- fn;
  t.blk <- blk;
  t.ins <- 0;
  Array.fill t.regs 0 (Array.length t.regs) 0L;
  t.frame_n <- 0;
  t.live_in <- Array.copy live_in;
  Array.fill t.lib_out 0 lib_slots 0L;
  t.speculative <- true;
  t.active <- true;
  t.instrs <- 0;
  t.rand_state <- rand_state

let push_frame t ~ret_blk ~ret_ins =
  let cap = Array.length t.frames in
  if t.frame_n = cap then
    t.frames <-
      Array.init (2 * cap) (fun i ->
          if i < cap then t.frames.(i) else new_frame ());
  let fr = t.frames.(t.frame_n) in
  t.frame_n <- t.frame_n + 1;
  fr.saved_n <- n_stacked;
  fr.ret_blk <- ret_blk;
  fr.ret_ins <- ret_ins;
  fr.ret_fn <- t.fn;
  fr

(* Register indices are range-validated at every producer (Ir.Builder,
   Core.Codegen, Ir.Asm's parser all reject r >= Reg.count), so the
   per-instruction accessors skip the redundant bounds check. *)
let get t r = if r = Ssp_isa.Reg.zero then 0L else Array.unsafe_get t.regs r

let set t r v =
  if r <> Ssp_isa.Reg.zero then Array.unsafe_set t.regs r v
