open Ssp_isa

(* The Figure 3 fixture: the mcf pricing loop. *)
let mcf_like scale =
  Printf.sprintf
    "struct node_t { int potential; int pad; }\n\
     struct arc_t { int cost; node_t* tail; int ident; int pad; }\n\
     arc_t* arcs;\n\
     node_t* nodes;\n\
     int main() {\n\
    \  int narcs = %d;\n\
    \  int nnodes = %d;\n\
    \  nodes = newarray(node_t, nnodes);\n\
    \  for (int i = 0; i < nnodes; i = i + 1) { node_t* n = nodes + i; \
     n->potential = i; }\n\
    \  arcs = newarray(arc_t, narcs);\n\
    \  for (int i = 0; i < narcs; i = i + 1) { arc_t* a = arcs + i; a->cost \
     = i; a->tail = nodes + rand() %% nnodes; a->ident = 1; }\n\
    \  int s = 0;\n\
    \  arc_t* arc = arcs;\n\
    \  arc_t* stop = arcs + narcs;\n\
    \  while (arc < stop) { s = s + arc->tail->potential; arc = arc + 1; }\n\
    \  print_int(s);\n\
    \  return 0;\n\
     }"
    (3000 * scale) (4000 * scale)

let compile_and_profile src =
  let prog = Ssp_minic.Frontend.compile src in
  (* Profile with scaled-down caches: the fixtures are test-sized, and the
     selector (rightly) refuses slices whose loads mostly hit L2. *)
  let profile =
    Ssp_profiling.Collect.collect
      ~config:(Ssp_machine.Config.scale_caches Ssp_machine.Config.in_order 32)
      prog
  in
  (prog, profile)

let test_delinquent_identification () =
  let prog, profile = compile_and_profile (mcf_like 2) in
  let d = Ssp.Delinquent.identify ~coverage:0.9 prog profile in
  Alcotest.(check bool) "found delinquent loads" true
    (d.Ssp.Delinquent.loads <> []);
  Alcotest.(check bool) "coverage reached" true (d.Ssp.Delinquent.covered >= 0.85);
  (* the pointer-chase load must be among them *)
  Alcotest.(check bool) "loads are in main" true
    (List.for_all
       (fun (l : Ssp.Delinquent.load) ->
         String.equal l.Ssp.Delinquent.iref.Ssp_ir.Iref.fn "main")
       d.Ssp.Delinquent.loads)

let slice_one src =
  (* Pick the delinquent load whose slice contains the pointer chase (the
     tail->potential load): the arc->tail load's own slice is the pure
     induction arithmetic. *)
  let prog, profile = compile_and_profile src in
  let d = Ssp.Delinquent.identify prog profile in
  let regions = Ssp_analysis.Regions.compute prog in
  let slices =
    List.filter_map
      (fun (load : Ssp.Delinquent.load) ->
        let region =
          Ssp_analysis.Regions.innermost_at regions load.Ssp.Delinquent.iref
        in
        match Ssp.Slicer.slice_region regions profile ~region load with
        | Some s -> Some (load, s)
        | None -> None)
      d.Ssp.Delinquent.loads
  in
  let with_chase =
    List.find_opt
      (fun (_, (s : Ssp.Slice.t)) ->
        Ssp_ir.Iref.Set.exists
          (fun i -> Op.is_load (Ssp_ir.Prog.instr prog i))
          s.Ssp.Slice.instrs)
      slices
  in
  match (with_chase, slices) with
  | Some (load, s), _ | None, (load, s) :: _ -> (prog, profile, regions, load, s)
  | None, [] -> Alcotest.fail "expected a slice"

let test_slice_contents () =
  let prog, _profile, _regions, load, s = slice_one (mcf_like 2) in
  (* The slice contains only replayable instructions: no stores, calls,
     allocs. *)
  Ssp_ir.Iref.Set.iter
    (fun i ->
      let op = Ssp_ir.Prog.instr prog i in
      Alcotest.(check bool)
        (Printf.sprintf "replayable %s" (Op.to_string op))
        true
        (match op with
        | Op.Movi _ | Op.Mov _ | Op.Alu _ | Op.Alui _ | Op.Cmp _ | Op.Cmpi _
        | Op.Load _ ->
          true
        | _ -> false))
    s.Ssp.Slice.instrs;
  Alcotest.(check bool) "slice is small" true (Ssp.Slice.size s <= 20);
  Alcotest.(check bool) "live-ins bounded" true
    (List.length s.Ssp.Slice.live_ins <= 6);
  (* the induction (arc) must be recognized as a recurrence *)
  Alcotest.(check bool) "has a recurrence live-in" true
    (List.exists (fun (l : Ssp.Slice.live_in) -> l.Ssp.Slice.recurrence)
       s.Ssp.Slice.live_ins);
  ignore load

let test_slice_respects_region () =
  (* Slicing the same load at proc level gives a superset of the loop
     slice's live-in resolution: the loop slice may not contain defs outside
     the loop. *)
  let prog, profile, regions, load, s = slice_one (mcf_like 2) in
  ignore prog;
  let loop_blocks =
    Ssp_analysis.Regions.blocks_of regions s.Ssp.Slice.region
  in
  Ssp_ir.Iref.Set.iter
    (fun (i : Ssp_ir.Iref.t) ->
      Alcotest.(check bool) "slice member inside region" true
        (List.mem i.Ssp_ir.Iref.blk loop_blocks))
    s.Ssp.Slice.instrs;
  ignore profile;
  ignore load

let test_schedule_partition () =
  let _prog, profile, regions, _load, s = slice_one (mcf_like 2) in
  let cfg = Ssp_machine.Config.in_order in
  let sched = Ssp.Schedule.build regions profile cfg ~trips:1000 s in
  (* mcf's induction forms a dependence cycle: critical sub-slice is
     non-empty, and the pointer loads are non-critical. *)
  Alcotest.(check bool) "critical non-empty" true
    (sched.Ssp.Schedule.order_critical <> []);
  Alcotest.(check bool) "partition covers the slice exactly" true
    (List.length sched.Ssp.Schedule.order_critical
     + List.length sched.Ssp.Schedule.order_non_critical
    = Ssp.Slice.size s
    && List.for_all
         (fun i ->
           not
             (List.exists (Ssp_ir.Iref.equal i)
                sched.Ssp.Schedule.order_critical))
         sched.Ssp.Schedule.order_non_critical);
  Alcotest.(check bool) "slice contains the pointer chase" true
    (List.exists
       (fun i -> Op.is_load (Ssp_ir.Prog.instr _prog i))
       (sched.Ssp.Schedule.order_critical
       @ sched.Ssp.Schedule.order_non_critical));
  (* heights are consistent *)
  Alcotest.(check bool) "critical height <= slice height" true
    (sched.Ssp.Schedule.height_critical <= sched.Ssp.Schedule.height_slice);
  Alcotest.(check bool) "slice height <= region height" true
    (sched.Ssp.Schedule.height_slice <= sched.Ssp.Schedule.height_region);
  (* slack grows linearly *)
  Alcotest.(check int) "slack csp linear"
    (2 * Ssp.Schedule.slack_csp sched 1)
    (Ssp.Schedule.slack_csp sched 2);
  (* low ILP in pointer chains, as the paper observes *)
  Alcotest.(check bool) "available ILP is modest" true
    (sched.Ssp.Schedule.available_ilp < 8.0)

let test_schedule_order_legality () =
  (* In the scheduled order, no instruction may read a register defined by a
     later critical/non-critical instruction through an intra-iteration
     dependence. We approximate: within order_critical, defs precede uses
     for slice-internal deps that are not loop-carried. *)
  let prog, profile, regions, _load, s = slice_one (mcf_like 2) in
  let cfg = Ssp_machine.Config.in_order in
  let sched = Ssp.Schedule.build regions profile cfg ~trips:1000 s in
  let order =
    sched.Ssp.Schedule.order_critical @ sched.Ssp.Schedule.order_non_critical
  in
  let pos = Hashtbl.create 16 in
  List.iteri (fun i x -> Hashtbl.replace pos x i) order;
  let reach = Ssp_analysis.Regions.reaching_of regions "main" in
  let ok = ref true in
  List.iter
    (fun use ->
      let op = Ssp_ir.Prog.instr prog use in
      List.iter
        (fun r ->
          List.iter
            (fun (d : Ssp_analysis.Reaching.def) ->
              match Hashtbl.find_opt pos d.Ssp_analysis.Reaching.site with
              | Some dp ->
                let up = Hashtbl.find pos use in
                if dp > up then begin
                  (* must be loop-carried to be legal *)
                  let intra =
                    Ssp_analysis.Reaching.defs_without_back_edges reach ~use r
                  in
                  if
                    List.exists
                      (fun (i : Ssp_analysis.Reaching.def) ->
                        Ssp_ir.Iref.equal i.Ssp_analysis.Reaching.site
                          d.Ssp_analysis.Reaching.site)
                      intra
                  then ok := false
                end
              | None -> ())
            (Ssp_analysis.Reaching.reaching_defs reach ~use r))
        (Op.uses op))
    order;
  Alcotest.(check bool) "no intra-iteration dep violated" true !ok

let adapt src =
  let prog, profile = compile_and_profile src in
  (prog, Ssp.Adapt.run ~config:Ssp_machine.Config.in_order prog profile)

let test_adapt_structure () =
  let original, result = adapt (mcf_like 2) in
  let adapted = result.Ssp.Adapt.prog in
  (* validation already ran in codegen; spot-check the Figure 7 layout *)
  let count_op p =
    let n = ref 0 in
    Ssp_ir.Prog.iter_instrs adapted (fun _ op -> if p op then incr n);
    !n
  in
  Alcotest.(check bool) "has chk.c" true
    (count_op (function Op.Chk_c _ -> true | _ -> false) > 0);
  Alcotest.(check bool) "has spawns" true
    (count_op (function Op.Spawn _ -> true | _ -> false) > 0);
  Alcotest.(check bool) "has kill" true
    (count_op (function Op.Kill -> true | _ -> false) > 0);
  Alcotest.(check bool) "has prefetch or value-used load" true
    (count_op (function Op.Lfetch _ -> true | _ -> false) > 0
    || List.exists
         (fun (c : Ssp.Select.choice) ->
           List.exists
             (fun (t : Ssp.Slice.target) -> t.Ssp.Slice.value_used)
             c.Ssp.Select.schedule.Ssp.Schedule.slice.Ssp.Slice.targets)
         result.Ssp.Adapt.choices);
  (* the original program is untouched *)
  let chk_in_original = ref 0 in
  Ssp_ir.Prog.iter_instrs original (fun _ op ->
      match op with Op.Chk_c _ -> incr chk_in_original | _ -> ());
  Alcotest.(check int) "original untouched" 0 !chk_in_original

let test_adapt_differential () =
  (* The key §2 property: the adapted binary computes exactly what the
     original computes — with spawning disabled (chk.c as nop) and with
     speculative threads running. *)
  let original, result = adapt (mcf_like 1) in
  let adapted = result.Ssp.Adapt.prog in
  let base = Ssp_sim.Funcsim.run original in
  let quiet = Ssp_sim.Funcsim.run ~spawning:false adapted in
  let live = Ssp_sim.Funcsim.run ~spawning:true adapted in
  Alcotest.(check (list int64)) "outputs equal (spawning off)"
    base.Ssp_sim.Funcsim.outputs quiet.Ssp_sim.Funcsim.outputs;
  Alcotest.(check (list int64)) "outputs equal (spawning on)"
    base.Ssp_sim.Funcsim.outputs live.Ssp_sim.Funcsim.outputs;
  Alcotest.(check bool) "speculative threads actually ran" true
    (live.Ssp_sim.Funcsim.spawns > 0)

let test_trigger_dominance () =
  let _original, result = adapt (mcf_like 2) in
  ignore result;
  let prog, profile = compile_and_profile (mcf_like 2) in
  let regions = Ssp_analysis.Regions.compute prog in
  let callgraph = Ssp_analysis.Callgraph.compute prog in
  let d = Ssp.Delinquent.identify prog profile in
  List.iter
    (fun load ->
      match
        Ssp.Select.choose regions callgraph profile
          Ssp_machine.Config.in_order load
      with
      | None -> ()
      | Some c ->
        List.iter
          (fun tr ->
            Alcotest.(check bool) "trigger dominates load" true
              (Ssp.Trigger.dominates_load regions tr load.Ssp.Delinquent.iref))
          c.Ssp.Select.triggers)
    d.Ssp.Delinquent.loads

let test_report_table2 () =
  let _original, result = adapt (mcf_like 2) in
  let n, interproc, avg_size, avg_live = Ssp.Report.table2_row result.Ssp.Adapt.report in
  Alcotest.(check bool) "at least one slice" true (n >= 1);
  Alcotest.(check bool) "interproc <= n" true (interproc <= n);
  Alcotest.(check bool) "sizes positive" true (avg_size > 0.0);
  Alcotest.(check bool) "live-ins positive" true (avg_live > 0.0)

let test_interprocedural_binding () =
  (* A recursive tree walk: the slice of t->left's address lives in the
     whole-procedure region with the parameter as only live-in, so it binds
     at the call sites. *)
  let src =
    "struct tree { int value; tree* left; tree* right; }\n\
     tree* build(int d) { tree* t = new tree; t->value = 1; if (d > 0) { \
     t->left = build(d - 1); t->right = build(d - 1); } else { t->left = \
     null; t->right = null; } return t; }\n\
     int total(tree* t) { if (t == null) { return 0; } return t->value + \
     total(t->left) + total(t->right); }\n\
     int main() { tree* r = build(13); int s = 0; for (int i = 0; i < 2; i \
     = i + 1) { s = s + total(r); } print_int(s); return 0; }"
  in
  let prog = Ssp_minic.Frontend.compile src in
  (* Profile with scaled-down caches so the tree is memory-bound, as the
     reference working sets are: the selector rightly rejects SSP when the
     trigger flush costs more than the prefetch saves. *)
  let profile =
    Ssp_profiling.Collect.collect
      ~config:(Ssp_machine.Config.scale_caches Ssp_machine.Config.in_order 64)
      prog
  in
  let regions = Ssp_analysis.Regions.compute prog in
  let callgraph = Ssp_analysis.Callgraph.compute prog in
  let d = Ssp.Delinquent.identify prog profile in
  let interproc = ref false in
  List.iter
    (fun load ->
      match
        Ssp.Select.choose regions callgraph profile
          Ssp_machine.Config.in_order load
      with
      | Some c
        when c.Ssp.Select.schedule.Ssp.Schedule.slice.Ssp.Slice
             .interprocedural ->
        interproc := true;
        Alcotest.(check bool) "call-site triggers" true
          (List.for_all
             (fun (t : Ssp.Trigger.t) -> t.Ssp.Trigger.kind = Ssp.Trigger.Call_site)
             c.Ssp.Select.triggers)
      | Some _ | None -> ())
    d.Ssp.Delinquent.loads;
  Alcotest.(check bool) "at least one interprocedural slice" true !interproc

let test_adapt_differential_tree () =
  let src =
    "struct tree { int value; tree* left; tree* right; }\n\
     tree* build(int d) { tree* t = new tree; t->value = 1; if (d > 0) { \
     t->left = build(d - 1); t->right = build(d - 1); } else { t->left = \
     null; t->right = null; } return t; }\n\
     int total(tree* t) { if (t == null) { return 0; } return t->value + \
     total(t->left) + total(t->right); }\n\
     int main() { tree* r = build(11); print_int(total(r)); return 0; }"
  in
  let prog, profile = compile_and_profile src in
  let result = Ssp.Adapt.run ~config:Ssp_machine.Config.in_order prog profile in
  let base = Ssp_sim.Funcsim.run prog in
  let live = Ssp_sim.Funcsim.run ~spawning:true result.Ssp.Adapt.prog in
  Alcotest.(check (list int64)) "tree outputs equal"
    base.Ssp_sim.Funcsim.outputs live.Ssp_sim.Funcsim.outputs

let suite =
  [
    Alcotest.test_case "delinquent identification" `Quick
      test_delinquent_identification;
    Alcotest.test_case "slice contents" `Quick test_slice_contents;
    Alcotest.test_case "slice respects region" `Quick test_slice_respects_region;
    Alcotest.test_case "schedule partition" `Quick test_schedule_partition;
    Alcotest.test_case "schedule order legality" `Quick
      test_schedule_order_legality;
    Alcotest.test_case "adapt structure" `Quick test_adapt_structure;
    Alcotest.test_case "adapt differential (mcf)" `Quick test_adapt_differential;
    Alcotest.test_case "trigger dominance" `Quick test_trigger_dominance;
    Alcotest.test_case "report table 2" `Quick test_report_table2;
    Alcotest.test_case "interprocedural binding" `Quick
      test_interprocedural_binding;
    Alcotest.test_case "adapt differential (tree)" `Quick
      test_adapt_differential_tree;
  ]

(* ---------- min-cut trigger placement ---------- *)

let test_mincut_diamond () =
  (* A loop whose body splits into a hot and a cold path before reaching the
     delinquent access: the min cut must cross only frequent edges and
     separate entry from the load block. *)
  let src =
    "struct node { int value; node* next; }\n\
     int main() {\n\
    \  node* head = null;\n\
    \  for (int i = 0; i < 4000; i = i + 1) { node* n = new node; n->value \
     = i; n->next = head; head = n; }\n\
    \  int s = 0;\n\
    \  node* p = head;\n\
    \  while (p != null) { if (p->value % 64 == 0) { s = s + 1; } else { s \
     = s + p->value; } p = p->next; }\n\
    \  print_int(s);\n\
    \  return 0;\n\
     }"
  in
  let prog, profile = compile_and_profile src in
  let d = Ssp.Delinquent.identify prog profile in
  let load = List.hd d.Ssp.Delinquent.loads in
  let regions = Ssp_analysis.Regions.compute prog in
  let cfg = Ssp_analysis.Regions.cfg_of regions "main" in
  let cut =
    Ssp.Mincut.min_cut cfg profile ~sink:load.Ssp.Delinquent.iref.Ssp_ir.Iref.blk ()
  in
  Alcotest.(check bool) "cut is non-empty" true (cut <> []);
  (* Removing the cut edges must disconnect the load from the entry on the
     frequent subgraph. *)
  let n = Ssp_analysis.Cfg.n_blocks cfg in
  let seen = Array.make n false in
  let rec go b =
    if not seen.(b) then begin
      seen.(b) <- true;
      List.iter
        (fun s ->
          if
            not
              (List.exists
                 (fun (e : Ssp.Mincut.cut_edge) ->
                   e.Ssp.Mincut.src = b && e.Ssp.Mincut.dst = s)
                 cut)
          then go s)
        (Ssp_analysis.Cfg.succ cfg b)
    end
  in
  go 0;
  Alcotest.(check bool) "cut separates entry from the load" false
    seen.(load.Ssp.Delinquent.iref.Ssp_ir.Iref.blk)

(* ---------- hand adaptation ---------- *)

let test_hand_adaptations_preserve_semantics () =
  List.iter
    (fun name ->
      let w = Ssp_workloads.Suite.find name in
      let prog = Ssp_workloads.Workload.program w ~scale:1 in
      let profile = Ssp_profiling.Collect.collect prog in
      match
        Ssp.Hand.adapt ~workload:name ~config:Ssp_machine.Config.in_order
          prog profile
      with
      | None -> Alcotest.failf "no hand adaptation for %s" name
      | Some r ->
        let base = Ssp_sim.Funcsim.run prog in
        let live = Ssp_sim.Funcsim.run ~spawning:true r.Ssp.Adapt.prog in
        Alcotest.(check (list int64))
          (name ^ " hand outputs unchanged")
          base.Ssp_sim.Funcsim.outputs live.Ssp_sim.Funcsim.outputs)
    [ "mcf"; "health" ];
  Alcotest.(check bool) "no hand version for em3d" true
    (let w = Ssp_workloads.Suite.find "em3d" in
     let prog = Ssp_workloads.Workload.program w ~scale:1 in
     let profile = Ssp_profiling.Collect.collect prog in
     Ssp.Hand.adapt ~workload:"em3d" ~config:Ssp_machine.Config.in_order prog
       profile
     = None)

(* Raw-rewrite labels depend only on the program, so the hand rewrite
   after the automatic pass validates and repeats byte for byte within one
   process (quick geometry). *)
let test_hand_health_repeatable () =
  let cfg = Ssp_machine.Config.scale_caches Ssp_machine.Config.in_order 16 in
  let adapt () =
    let prog =
      Ssp_workloads.Workload.program (Ssp_workloads.Suite.find "health")
        ~scale:3
    in
    let profile = Ssp_profiling.Collect.collect ~config:cfg prog in
    match Ssp.Hand.adapt ~workload:"health" ~config:cfg prog profile with
    | None -> Alcotest.fail "no hand adaptation for health"
    | Some r ->
      Alcotest.(check bool) "hand rewrite validates" true
        (Result.is_ok (Ssp_ir.Validate.check r.Ssp.Adapt.prog));
      Format.asprintf "%a" Ssp_ir.Asm.print r.Ssp.Adapt.prog
  in
  let first = adapt () in
  Alcotest.(check string) "second hand rewrite, same asm" first (adapt ())

(* ---------- unrolled slices ---------- *)

let test_unroll_preserves_semantics_and_prefetches_more () =
  let prog, profile = compile_and_profile (mcf_like 2) in
  let cfg = Ssp_machine.Config.scale_caches Ssp_machine.Config.in_order 16 in
  let r1 = Ssp.Adapt.run ~config:cfg prog profile in
  let knobs = { Ssp.Adapt.default_knobs with unroll = 4 } in
  let r4 = Ssp.Adapt.run ~knobs ~config:cfg prog profile in
  let base = Ssp_sim.Funcsim.run prog in
  let live = Ssp_sim.Funcsim.run ~spawning:true r4.Ssp.Adapt.prog in
  Alcotest.(check (list int64)) "unrolled outputs unchanged"
    base.Ssp_sim.Funcsim.outputs live.Ssp_sim.Funcsim.outputs;
  let s1 = Ssp_sim.Inorder.run cfg r1.Ssp.Adapt.prog in
  let s4 = Ssp_sim.Inorder.run cfg r4.Ssp.Adapt.prog in
  Alcotest.(check bool) "unroll covers more per spawn" true
    (s4.Ssp_sim.Stats.spawns = 0
    || s4.Ssp_sim.Stats.prefetches / max 1 s4.Ssp_sim.Stats.spawns
       > s1.Ssp_sim.Stats.prefetches / max 1 s1.Ssp_sim.Stats.spawns)

let suite =
  suite
  @ [
      Alcotest.test_case "min-cut trigger placement" `Quick test_mincut_diamond;
      Alcotest.test_case "hand adaptations preserve semantics" `Slow
        test_hand_adaptations_preserve_semantics;
      Alcotest.test_case "hand rewrite of health is repeatable" `Slow
        test_hand_health_repeatable;
      Alcotest.test_case "unrolled slices" `Slow
        test_unroll_preserves_semantics_and_prefetches_more;
    ]

(* ---------- randomized differential testing ----------

   Generate random well-typed pointer kernels, adapt them, and require the
   adapted binary to be observationally equivalent to the original under
   the functional simulator (speculative threads running) and the in-order
   cycle model. This exercises slicing/scheduling/codegen over many shapes:
   array-of-pointer scans, linked-list walks, guards, strides, nested
   arithmetic. *)

type rand_kernel = {
  n : int;
  stride : int;
  guard_mod : int;  (* 0 = no guard *)
  extra_ops : int;
  use_list : bool;
  passes : int;
}

let kernel_source k =
  let guard_open, guard_close =
    if k.guard_mod > 0 then
      ( Printf.sprintf "if (r->f0 %% %d != 0) {" k.guard_mod,
        "}" )
    else ("", "")
  in
  let extra =
    String.concat "\n"
      (List.init k.extra_ops (fun i ->
           Printf.sprintf "      acc = acc + ((r->f1 * %d) >> %d);"
             (3 + i) (1 + (i mod 3))))
  in
  let walk =
    if k.use_list then
      Printf.sprintf
        {|
  rec* p = head;
  while (p != null) {
    rec* r = p;
    %s
    acc = acc + r->f0;
%s
    %s
    p = p->link;
  }
|}
        guard_open extra guard_close
    else
      Printf.sprintf
        {|
  for (int i = 0; i < n; i = i + %d) {
    rec* r = table[i];
    %s
    acc = acc + r->f0;
%s
    %s
  }
|}
        k.stride guard_open extra guard_close
  in
  Printf.sprintf
    {|
struct rec { int f0; int f1; rec* link; }
rec** table;
rec* head;
int n;

void build() {
  n = %d;
  table = newarray(rec*, n);
  rec* arena = newarray(rec, n);
  head = null;
  for (int i = 0; i < n; i = i + 1) {
    rec* r = arena + rand() %% n;
    r->f0 = i %% 13;
    r->f1 = i %% 7;
    table[i] = r;
  }
  for (int i = 0; i < n; i = i + 1) {
    rec* c = new rec;
    c->f0 = i %% 11;
    c->f1 = i %% 5;
    c->link = head;
    head = c;
  }
}

int kernel() {
  int acc = 0;
%s
  return acc;
}

int main() {
  build();
  int total = 0;
  for (int pass = 0; pass < %d; pass = pass + 1) {
    total = total + kernel();
  }
  print_int(total);
  return 0;
}
|}
    k.n walk k.passes

let kernel_gen =
  QCheck.Gen.(
    map
      (fun (n, stride, guard_mod, extra_ops, use_list) ->
        {
          n = 500 + (n * 250);
          stride = 1 + stride;
          guard_mod = (if guard_mod = 0 then 0 else guard_mod + 1);
          extra_ops;
          use_list;
          passes = 2;
        })
      (tup5 (0 -- 6) (0 -- 3) (0 -- 4) (0 -- 3) bool))

let prop_random_adaptation =
  QCheck.Test.make ~name:"adapted random kernels are equivalent" ~count:15
    (QCheck.make kernel_gen) (fun k ->
      let src = kernel_source k in
      let prog = Ssp_minic.Frontend.compile src in
      let cfg =
        Ssp_machine.Config.scale_caches Ssp_machine.Config.in_order 32
      in
      let profile = Ssp_profiling.Collect.collect ~config:cfg prog in
      let result = Ssp.Adapt.run ~config:cfg prog profile in
      let base = Ssp_sim.Funcsim.run prog in
      let quiet = Ssp_sim.Funcsim.run ~spawning:false result.Ssp.Adapt.prog in
      let live = Ssp_sim.Funcsim.run ~spawning:true result.Ssp.Adapt.prog in
      let cyc_base = Ssp_sim.Inorder.run cfg prog in
      let cyc_ssp = Ssp_sim.Inorder.run cfg result.Ssp.Adapt.prog in
      base.Ssp_sim.Funcsim.outputs = quiet.Ssp_sim.Funcsim.outputs
      && base.Ssp_sim.Funcsim.outputs = live.Ssp_sim.Funcsim.outputs
      && cyc_base.Ssp_sim.Stats.outputs = base.Ssp_sim.Funcsim.outputs
      && cyc_ssp.Ssp_sim.Stats.outputs = base.Ssp_sim.Funcsim.outputs)

let suite = suite @ [ QCheck_alcotest.to_alcotest prop_random_adaptation ]
