module T = Ssp_telemetry.Telemetry
module Funcsim = Ssp_sim.Funcsim
module Layout = Ssp_sim.Layout

let collect ?(config = Ssp_machine.Config.in_order) prog =
  T.with_span "profile" @@ fun () ->
  let layout = Layout.of_prog prog in
  let n = layout.Layout.n_pcs in
  let c =
    {
      Funcsim.hier = Ssp_sim.Hierarchy.create ~tprefix:"profile" config;
      mem_ops = 0;
      blocks = Array.make n 0;
      branches = Array.make (2 * n) 0;
      loads = Array.make (6 * n) 0;
      calls = Hashtbl.create 16;
    }
  in
  let profile = Profile.create () in
  profile.Profile.total_instrs <- Funcsim.count c layout prog;
  Array.iter
    (fun (e : Layout.entry) ->
      Hashtbl.replace profile.Profile.blocks e.Layout.func.Ssp_ir.Prog.name
        (Array.mapi
           (fun b (blk : Ssp_ir.Prog.block) ->
             if Array.length blk.ops = 0 then 0
             else c.Funcsim.blocks.(e.Layout.block_base.(b)))
           e.Layout.func.Ssp_ir.Prog.blocks))
    layout.Layout.by_index;
  for pc = 0 to n - 1 do
    let iref = Layout.iref_of layout pc in
    let taken = c.Funcsim.branches.(2 * pc)
    and not_taken = c.Funcsim.branches.((2 * pc) + 1) in
    if taken + not_taken > 0 then
      Ssp_ir.Iref.Tbl.replace profile.Profile.branches iref
        { Profile.taken; not_taken };
    let l = Array.sub c.Funcsim.loads (6 * pc) 6 in
    let accesses = l.(0) + l.(1) + l.(2) + l.(3) in
    if accesses > 0 then
      Ssp_ir.Iref.Tbl.replace profile.Profile.loads iref
        {
          Profile.accesses;
          l1_hits = l.(0);
          l2_hits = l.(1);
          l3_hits = l.(2);
          mem_hits = l.(3);
          partial_hits = l.(4);
          miss_cycles = l.(5);
        }
  done;
  Hashtbl.iter
    (fun (pc, callee) k ->
      let site = Layout.iref_of layout pc in
      let tbl =
        match Ssp_ir.Iref.Tbl.find_opt profile.Profile.calls site with
        | Some t -> t
        | None ->
          let t = Hashtbl.create 4 in
          Ssp_ir.Iref.Tbl.replace profile.Profile.calls site t;
          t
      in
      Hashtbl.replace tbl callee k)
    c.Funcsim.calls;
  if T.is_enabled () then
    T.count "profile.instrs" profile.Profile.total_instrs;
  profile
