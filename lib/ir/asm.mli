(** Textual assembly for the virtual ISA.

    [print] renders a whole program in the same mnemonic syntax the
    instruction printer uses; [parse] reads it back. The format round-trips
    ([parse (to_string p)] is structurally identical to [p]), so adapted
    binaries can be saved, inspected, hand-edited and re-run:

    {v
    ; comment
    entry main
    data 40

    func main/0 @1 {
    entry:
      movi r32, 8000
      st8 [r33+0], r32
      call build/0
      chk.c ssp_stub_1
      halt
    }
    v} *)

exception Error of string * int  (** message, 1-based line *)

val to_string : Prog.t -> string
(** The one program printer: the text above, built in one buffer with
    {!Ssp_isa.Op.add_to_buffer}. Store keys hash these bytes
    ([Ssp_store.Store.hash_program]) and blobs and replies carry them,
    so they must not change. *)

val print : Format.formatter -> Prog.t -> unit
(** The text of {!to_string}. *)

val parse : string -> Prog.t
(** Raises {!Error} on malformed input. The result is validated with
    {!Validate.check}. *)

val parse_op : string -> Ssp_isa.Op.t
(** A single instruction line (for tests and tooling); raises {!Error}. *)
