(** A benchmark workload: a mini-C program with a size knob.

    [scale] multiplies the working set; the paper-reproduction reference
    setting runs scale 32 (working sets past the 3 MB L3), smaller values
    give fast tests. Every workload prints a checksum so
    adapted binaries can be differentially tested against originals. *)

type t = {
  name : string;
  description : string;
  source : int -> string;  (** mini-C source at a given scale *)
  delinquent_hint : string list;
      (** function names whose loads are expected to dominate misses (used
          only by tests as a sanity check, never by the tool) *)
}

val program : t -> scale:int -> Ssp_ir.Prog.t
(** Compile the workload at the given scale. *)
