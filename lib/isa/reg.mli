(** Registers of the virtual research-Itanium ISA.

    The machine has 128 integer registers per thread context, split like
    Itanium into a static and a stacked partition:

    - [r0] always reads as zero and ignores writes;
    - [r1] is the stack pointer by software convention;
    - [r2]–[r15] are static scratch registers; [r8]–[r15] pass procedure
      arguments and [r8] carries the return value (they are clobbered by
      calls);
    - [r32]–[r127] are stacked: each call activates a fresh frame of them,
      restored on return (modeling the Itanium register stack engine). *)

type t = int
(** A register number in [0, 127]. *)

val zero : t
(** [r0], hardwired to zero. *)

val sp : t
(** [r1], the stack pointer. *)

val arg : int -> t
(** [arg i] is the register carrying the [i]-th procedure argument
    (0-based); [arg 0 = r8]. Raises [Invalid_argument] if [i >= 8]. *)

val ret : t
(** [r8], the return-value register. *)

val max_args : int
(** Number of argument registers (8). *)

val first_stacked : t
(** [r32], the first stacked register. *)

val count : int
(** Total number of registers (128). *)

val is_stacked : t -> bool
(** Whether the register belongs to the stacked partition. *)

val is_static : t -> bool
(** Whether the register belongs to the static partition (includes r0, sp). *)

val is_valid : t -> bool
(** Whether the number is within [0, count). *)

val pp : Format.formatter -> t -> unit
(** Prints as [rN]. *)
