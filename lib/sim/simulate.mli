(** The one cycle-simulation dispatch: every front end that simulates
    "under this machine model" goes through here. *)

val run :
  ?attrib:Attrib.t ->
  ?sampling:Smt.sampling ->
  Ssp_machine.Config.t ->
  Ssp_ir.Prog.t ->
  Stats.t
(** {!Inorder.run} or {!Ooo.run}, chosen by [config.pipeline]; [attrib]
    and [sampling] as there. *)
