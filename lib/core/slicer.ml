open Ssp_isa
open Ssp_analysis
module T = Ssp_telemetry.Telemetry
module F = Ssp_fault.Fault

(* Slices larger than this are rejected ("to avoid a slice becoming too
   big that often leads to wrong address calculations", §3.4.1). *)
let max_slice_size = 48

(* The transitive slice walk is bounded by distinct (use, reg) pairs, so
   this budget never binds on real programs; it exists so adversarial (or
   fault-injected) inputs fail with a structured error instead of
   spinning. *)
let max_worklist_steps = 100_000

let site_budget = F.site "adapt.slicer.budget"
let site_oversized = F.site "adapt.slice.oversized"

(* Can a speculative thread re-execute this instruction? Stores, calls,
   allocation, I/O and randomness are out; so are the SSP instructions
   themselves. Branches are excluded here because the slicer works on data
   dependences only (the scheduler re-introduces the loop branch). *)
let sliceable = function
  | Op.Movi _ | Op.Mov _ | Op.Alu _ | Op.Alui _ | Op.Cmp _ | Op.Cmpi _
  | Op.Load _ ->
    true
  | Op.Nop | Op.Store _ | Op.Lfetch _ | Op.Br _ | Op.Brnz _ | Op.Brz _
  | Op.Call _ | Op.Icall _ | Op.Ret | Op.Halt | Op.Chk_c _ | Op.Spawn _
  | Op.Kill | Op.Lib_st _ | Op.Lib_ld _ | Op.Alloc _ | Op.Print _ | Op.Rand _
    ->
    false

module RS = Set.Make (Int)

let slice_region regions profile ~region (d : Delinquent.load) =
  T.with_span "slice" @@ fun () ->
  T.incr (T.counter "slice.attempts");
  let fn = d.Delinquent.iref.Ssp_ir.Iref.fn in
  if not (String.equal (Regions.func_of region) fn) then None
  else if d.Delinquent.addr_reg = Reg.zero then None
  else begin
    let reach = Regions.reaching_of regions fn in
    let in_region (i : Ssp_ir.Iref.t) =
      String.equal i.fn fn && Regions.in_region regions region i.blk
    in
    (* Reaching-defs queries repeat heavily while the slice is resolved
       (the same (use, reg) pair recurs across the transitive walk and
       again in recurrence detection); memoize them for this call. *)
    let rdefs_memo = Hashtbl.create 64 in
    let rdefs ~use r =
      match Hashtbl.find_opt rdefs_memo (use, r) with
      | Some ds -> ds
      | None ->
        let ds = Reaching.reaching_defs reach ~use r in
        Hashtbl.replace rdefs_memo (use, r) ds;
        ds
    in
    let intra_memo = Hashtbl.create 64 in
    let intra_defs ~use r =
      match Hashtbl.find_opt intra_memo (use, r) with
      | Some ds -> ds
      | None ->
        let ds = Reaching.defs_without_back_edges reach ~use r in
        Hashtbl.replace intra_memo (use, r) ds;
        ds
    in
    if not (in_region d.Delinquent.iref) then None
    else begin
      let key = Ssp_ir.Iref.hash d.Delinquent.iref in
      if F.fire ~key site_oversized then
        Ssp_ir.Error.raise_error ~injected:true ~pass:"slicer" ~fn
          ~instr:(Ssp_ir.Iref.to_string d.Delinquent.iref)
          "oversized region: slice exceeds the size bound";
      let budget_injected = F.fire ~key site_budget in
      let budget = ref (if budget_injected then 4 else max_worklist_steps) in
      let instrs = ref Ssp_ir.Iref.Set.empty in
      (* live-in register -> def sites seen *)
      let live : (Reg.t, Ssp_ir.Iref.Set.t) Hashtbl.t = Hashtbl.create 8 in
      let add_live r (site : Ssp_ir.Iref.t option) =
        let cur =
          Option.value ~default:Ssp_ir.Iref.Set.empty (Hashtbl.find_opt live r)
        in
        let cur =
          match site with
          | Some s -> Ssp_ir.Iref.Set.add s cur
          | None -> cur
        in
        Hashtbl.replace live r cur
      in
      let visited = Hashtbl.create 64 in
      let overflow = ref false in
      let rec resolve (use : Ssp_ir.Iref.t) (r : Reg.t) =
        if r <> Reg.zero && not (Hashtbl.mem visited (use, r)) then begin
          decr budget;
          if !budget < 0 then
            Ssp_ir.Error.raise_error ~injected:budget_injected ~pass:"slicer"
              ~fn
              ~instr:(Ssp_ir.Iref.to_string d.Delinquent.iref)
              "slicing worklist budget exhausted";
          Hashtbl.replace visited (use, r) ();
          let defs = rdefs ~use r in
          List.iter
            (fun (df : Reaching.def) ->
              let site = df.Reaching.site in
              if site.Ssp_ir.Iref.ins = -1 then
                (* function parameter *)
                add_live r None
              else if not (in_region site) then add_live r (Some site)
              else if not (Ssp_profiling.Profile.executed profile site) then
                (* speculative slicing: never-executed path, prune *)
                ()
              else begin
                let op = Ssp_ir.Prog.instr (Regions.prog regions) site in
                if not (sliceable op) then add_live r (Some site)
                else if not (Ssp_ir.Iref.Set.mem site !instrs) then begin
                  instrs := Ssp_ir.Iref.Set.add site !instrs;
                  if Ssp_ir.Iref.Set.cardinal !instrs > max_slice_size then
                    overflow := true
                  else List.iter (resolve site) (Op.uses op)
                end
              end)
            defs
        end
      in
      resolve d.Delinquent.iref d.Delinquent.addr_reg;
      if T.is_enabled () then
        T.record_hist "slice.instrs"
          (float_of_int (Ssp_ir.Iref.Set.cardinal !instrs));
      if !overflow then begin
        T.incr (T.counter "slice.overflow");
        None
      end
      else begin
        (* Was the delinquent load itself pulled into the slice (its value
           feeds the address chain, e.g. p = p->next)? *)
        let value_used = Ssp_ir.Iref.Set.mem d.Delinquent.iref !instrs in
        (* Recurrences: slice-member defs that reach slice uses only around
           the loop back edge. *)
        let recurrent = ref RS.empty in
        (match Regions.loop_of regions region with
        | None -> ()
        | Some _ ->
          Ssp_ir.Iref.Set.iter
            (fun use ->
              let op = Ssp_ir.Prog.instr (Regions.prog regions) use in
              List.iter
                (fun r ->
                  let all = rdefs ~use r in
                  let intra = intra_defs ~use r in
                  List.iter
                    (fun (df : Reaching.def) ->
                      let site = df.Reaching.site in
                      if site.Ssp_ir.Iref.ins >= 0
                         && Ssp_ir.Iref.Set.mem site !instrs
                         && not
                              (List.exists
                                 (fun (i : Reaching.def) ->
                                   Ssp_ir.Iref.equal i.Reaching.site site)
                                 intra)
                      then recurrent := RS.add r !recurrent)
                    all)
                (Op.uses op))
            !instrs);
        (* A recurrence register also needs an initial value at the trigger,
           so it is a live-in even without an outside def. *)
        RS.iter (fun r -> add_live r None) !recurrent;
        let live_ins =
          Hashtbl.fold
            (fun r sites acc ->
              {
                Slice.orig_reg = r;
                def_sites = Ssp_ir.Iref.Set.elements sites;
                recurrence = RS.mem r !recurrent;
              }
              :: acc)
            live []
          |> List.sort (fun a b -> compare a.Slice.orig_reg b.Slice.orig_reg)
        in
        if List.length live_ins > Ssp_sim.Thread.lib_slots - 1 then None
        else
          Some
            {
              Slice.fn;
              region;
              targets =
                [
                  {
                    Slice.load = d.Delinquent.iref;
                    addr_reg = d.Delinquent.addr_reg;
                    offset = d.Delinquent.offset;
                    value_used;
                  };
                ];
              instrs = !instrs;
              live_ins;
              interprocedural = false;
            }
      end
    end
  end

let bind_at_callers regions callgraph profile (s : Slice.t) =
  match s.Slice.region with
  | Regions.Loop _ -> None
  | Regions.Proc fn ->
    (* Every live-in must be a formal parameter (an argument register with
       no outside def sites). *)
    let f = Ssp_ir.Prog.find_func (Regions.prog regions) fn in
    let is_param (l : Slice.live_in) =
      l.Slice.def_sites = []
      && l.Slice.orig_reg >= Reg.arg 0
      && l.Slice.orig_reg < Reg.arg 0 + f.Ssp_ir.Prog.nparams
    in
    if not (List.for_all is_param s.Slice.live_ins) then None
    else begin
      let sites =
        List.filter
          (fun (site, _) -> Ssp_profiling.Profile.executed profile site)
          (Callgraph.callers callgraph fn)
        |> List.map fst
      in
      if sites = [] then None
      else Some ({ s with Slice.interprocedural = true }, sites)
    end
