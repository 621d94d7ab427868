type live_in = {
  orig_reg : Ssp_isa.Reg.t;
  def_sites : Ssp_ir.Iref.t list;
  recurrence : bool;
}

type target = {
  load : Ssp_ir.Iref.t;
  addr_reg : Ssp_isa.Reg.t;
  offset : int;
  value_used : bool;
}

type t = {
  fn : string;
  region : Ssp_analysis.Regions.region;
  targets : target list;
  instrs : Ssp_ir.Iref.Set.t;
  live_ins : live_in list;
  interprocedural : bool;
}

let size t = Ssp_ir.Iref.Set.cardinal t.instrs

let merge a b =
  let instrs = Ssp_ir.Iref.Set.union a.instrs b.instrs in
  let targets =
    a.targets
    @ List.filter
        (fun t ->
          not
            (List.exists
               (fun t' -> Ssp_ir.Iref.equal t'.load t.load)
               a.targets))
        b.targets
  in
  (* A target whose load became a member of the merged slice is fetched by
     executing it — no separate prefetch needed. *)
  let targets =
    List.map
      (fun t ->
        { t with value_used = t.value_used || Ssp_ir.Iref.Set.mem t.load instrs })
      targets
  in
  let live_ins =
    a.live_ins
    @ List.filter
        (fun l ->
          not (List.exists (fun l' -> l'.orig_reg = l.orig_reg) a.live_ins))
        b.live_ins
  in
  {
    a with
    targets;
    instrs;
    live_ins;
    interprocedural = a.interprocedural || b.interprocedural;
  }

let pp prog ppf t =
  Format.fprintf ppf "@[<v>slice in %a (%s%s): %d instrs, %d live-ins@,"
    Ssp_analysis.Regions.pp t.region t.fn
    (if t.interprocedural then ", interprocedural" else "")
    (size t) (List.length t.live_ins);
  List.iter
    (fun tg ->
      Format.fprintf ppf "  target %a%s@," Ssp_ir.Iref.pp tg.load
        (if tg.value_used then " (value used)" else ""))
    t.targets;
  Ssp_ir.Iref.Set.iter
    (fun i ->
      Format.fprintf ppf "  %a: %s@," Ssp_ir.Iref.pp i
        (Ssp_isa.Op.to_string (Ssp_ir.Prog.instr prog i)))
    t.instrs;
  List.iter
    (fun l ->
      Format.fprintf ppf "  live-in %a%s@," Ssp_isa.Reg.pp l.orig_reg
        (if l.recurrence then " (recurrence)" else ""))
    t.live_ins;
  Format.fprintf ppf "@]"
