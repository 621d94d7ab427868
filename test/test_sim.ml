open Ssp_isa
open Ssp_ir
open Ssp_sim

let test_memory_rw () =
  let m = Memory.create () in
  Memory.write m 0x1000 8 0x1122334455667788L;
  Alcotest.(check int64) "rw8" 0x1122334455667788L (Memory.read m 0x1000 8);
  Alcotest.(check int64) "rw1" 0x88L (Memory.read m 0x1000 1);
  Alcotest.(check int64) "rw2" 0x7788L (Memory.read m 0x1000 2);
  Alcotest.(check int64) "rw4" 0x55667788L (Memory.read m 0x1000 4);
  Alcotest.(check int64) "zero init" 0L (Memory.read m 0x9999 8);
  (* Page-crossing access. *)
  let edge = (1 lsl 16) - 4 in
  Memory.write m edge 8 0xdeadbeefcafebabeL;
  Alcotest.(check int64) "page crossing" 0xdeadbeefcafebabeL (Memory.read m edge 8)

let test_memory_alloc () =
  let m = Memory.create () in
  let a = Memory.alloc m 10L in
  let b = Memory.alloc m 8L in
  Alcotest.(check int64) "first at heap base" Prog.heap_base a;
  Alcotest.(check int64) "aligned bump" (Int64.add a 16L) b;
  Alcotest.(check int64) "heap used" 24L (Memory.heap_used m)

let geom size ways latency =
  { Ssp_machine.Config.size_bytes = size; ways; line_bytes = 64; latency }

let test_cache_lru () =
  (* Direct-mapped-ish: 2 sets x 2 ways of 64B lines = 256B. *)
  let c = Cache.create (geom 256 2 1) in
  Alcotest.(check bool) "cold miss" false (Cache.access c 0);
  Alcotest.(check bool) "still missing" false (Cache.probe c 0);
  Cache.install c 0;
  Alcotest.(check bool) "hit after install" true (Cache.access c 0);
  (* Lines mapping to set 0: addresses 0, 128, 256... fill both ways then
     evict LRU (line 0 was touched most recently after installs). *)
  Cache.install c 256;
  Cache.install c 0;
  (* set 0 now holds {0, 256}; 512 evicts LRU = 256. *)
  Cache.install c 512;
  Alcotest.(check bool) "0 survives" true (Cache.probe c 0);
  Alcotest.(check bool) "256 evicted" false (Cache.probe c 256)

let test_hierarchy_levels () =
  let cfg = Ssp_machine.Config.in_order in
  let h = Hierarchy.create cfg in
  let r1 = Hierarchy.access h ~now:0 0x10000 in
  Alcotest.(check bool) "cold access goes to memory" true
    (Hierarchy.last_level h = Hierarchy.Mem);
  Alcotest.(check int) "memory latency" 230 r1;
  (* Same line while in flight: partial hit. *)
  let r2 = Hierarchy.access h ~now:10 0x10008 in
  Alcotest.(check bool) "partial" true (Hierarchy.last_partial h);
  Alcotest.(check int) "ready when fill lands" 230 r2;
  (* After the fill completes the line hits L1. *)
  let r3 = Hierarchy.access h ~now:300 0x10010 in
  Alcotest.(check bool) "L1 hit after fill" true
    (Hierarchy.last_level h = Hierarchy.L1);
  Alcotest.(check int) "L1 latency" 302 r3

let test_hierarchy_perfect () =
  let cfg =
    Ssp_machine.Config.with_memory_mode Ssp_machine.Config.in_order
      Ssp_machine.Config.Perfect_memory
  in
  let h = Hierarchy.create cfg in
  let r = Hierarchy.access h ~now:5 0xdead00 in
  Alcotest.(check bool) "always L1" true
    (Hierarchy.last_level h = Hierarchy.L1);
  Alcotest.(check int) "L1 latency" 7 r

let test_fill_buffer_pressure () =
  let cfg = Ssp_machine.Config.in_order in
  let h = Hierarchy.create cfg in
  (* Launch 16 distinct line misses at cycle 0, then a 17th: it must wait
     for the earliest entry to retire before starting its own fill. *)
  for i = 0 to 15 do
    ignore (Hierarchy.access h ~now:0 (0x100000 + (i * 4096)))
  done;
  let r = Hierarchy.access h ~now:1 0x900000 in
  Alcotest.(check bool) "delayed past a retirement" true (r >= 230 + 230);
  (* Staggered fills, landing at 230..245. At 230 a miss retires the
     earliest and takes its slot (landing at 460); the next miss finds the
     buffer full and starts when the earliest remaining fill lands, 231,
     not when the retired one did. *)
  let h = Hierarchy.create cfg in
  for i = 0 to 15 do
    ignore (Hierarchy.access h ~now:i (0x100000 + (i * 4096)))
  done;
  Alcotest.(check int) "the freed slot starts at once" (230 + 230)
    (Hierarchy.access h ~now:230 0x900000);
  Alcotest.(check int) "delayed to the earliest remaining fill" (231 + 230)
    (Hierarchy.access h ~now:230 0xa00000);
  (* A 2-entry buffer has no demand reserve, so a speculative miss finds
     it full even when it is empty; with nothing in flight to wait for,
     the fill starts at once. *)
  let h =
    Hierarchy.create { cfg with Ssp_machine.Config.fill_buffer_entries = 2 }
  in
  let r = Hierarchy.demand h ~now:100 ~low_priority:true 0x123440 in
  Alcotest.(check int) "speculative miss at an empty buffer" 330 r;
  let r = Hierarchy.demand h ~now:101 ~low_priority:false 0x123440 in
  Alcotest.(check bool) "main thread finds it in flight" true
    (Hierarchy.last_partial h);
  Alcotest.(check int) "ready when that fill lands" 330 r

let test_bpred_learns () =
  let cfg = Ssp_machine.Config.in_order in
  let b = Bpred.create cfg in
  (* Train an always-taken branch. *)
  for _ = 1 to 8 do
    Bpred.update b ~thread:0 ~pc:42 ~taken:true
  done;
  Alcotest.(check bool) "predicts taken" true (Bpred.predict b ~thread:0 ~pc:42);
  Alcotest.(check bool) "btb miss then hit" false (Bpred.btb_lookup b ~pc:42);
  Bpred.btb_insert b ~pc:42;
  Alcotest.(check bool) "btb hit" true (Bpred.btb_lookup b ~pc:42)

let test_funcsim_fact () =
  let p = Test_ir.fact_program 10 in
  let r = Funcsim.run p in
  Alcotest.(check (list int64)) "10! printed" [ 3628800L ] r.Funcsim.outputs

(* The functional interpreter keeps the OCaml runtime off its path:
   registers are unboxed and memory pages are found without hashing, so
   a run allocates well under one minor-heap word per instruction (set-up
   included). The count is deterministic. *)
let test_funcsim_alloc_budget () =
  List.iter
    (fun (w : Ssp_workloads.Workload.t) ->
      let prog = Ssp_workloads.Workload.program w ~scale:1 in
      let before = Gc.minor_words () in
      let r = Funcsim.run prog in
      let per_instr =
        (Gc.minor_words () -. before) /. float_of_int r.Funcsim.instrs
      in
      if per_instr > 0.5 then
        Alcotest.failf "%s: %.3f minor words per instruction (budget 0.5)"
          w.Ssp_workloads.Workload.name per_instr)
    Ssp_workloads.Suite.all

let test_funcsim_memory_program () =
  (* Store then load through a pointer chain: a[0]=&b; b[0]=99; print **a. *)
  let open Op in
  let v = 40 and a = 41 and b = 42 in
  let f =
    Builder.func_of_blocks ~name:"main" ~nparams:0
      [
        ( "entry",
          [
            Movi (v, 64L);
            Alloc (a, v);
            Alloc (b, v);
            Store (W8, b, a, 0);
            Movi (v, 99L);
            Store (W8, v, b, 0);
            Load (W8, v, a, 0);
            Load (W8, v, v, 0);
            Print v;
            Halt;
          ] );
      ]
  in
  let p = Prog.create ~entry:"main" in
  Prog.add_func p f;
  let r = Funcsim.run p in
  Alcotest.(check (list int64)) "pointer chain" [ 99L ] r.Funcsim.outputs

(* ---- cycle-core statistics pinned ---- *)

module T = Ssp_telemetry.Telemetry

let pin_inorder = Ssp_machine.Config.scale_caches Ssp_machine.Config.in_order 64

let pin_ooo =
  Ssp_machine.Config.scale_caches Ssp_machine.Config.out_of_order 64

(* Everything a cycle run reports: the [Stats.pp] text, the outputs and
   every per-load site counter, sorted by iref. *)
let stats_text (s : Stats.t) =
  let b = Buffer.create 4096 in
  Buffer.add_string b (Format.asprintf "%a" Stats.pp s);
  List.iter (Printf.bprintf b " %Ld") s.Stats.outputs;
  Iref.Tbl.fold (fun i l acc -> (i, l) :: acc) s.Stats.loads []
  |> List.sort (fun (a, _) (b, _) -> Iref.compare a b)
  |> List.iter (fun (i, (l : Stats.load_site)) ->
         Printf.bprintf b "\n%s %d %d %d %d %d %d %d %d" (Iref.to_string i)
           l.Stats.accesses l.Stats.l1 l.Stats.l2 l.Stats.l2_partial
           l.Stats.l3 l.Stats.l3_partial l.Stats.mem l.Stats.mem_partial);
  Buffer.contents b

(* Every field of an attribution summary; floats in hex, so exactly. *)
let attrib_text (s : Attrib.summary) =
  let b = Buffer.create 4096 in
  List.iter
    (fun (l : Attrib.load_summary) ->
      Printf.bprintf b "\n%s %d %d %d %d %d %d %d %d %d %h %h %h %h %h"
        (Iref.to_string l.Attrib.ls_load)
        l.Attrib.ls_issued l.Attrib.ls_useful l.Attrib.ls_late
        l.Attrib.ls_early_evicted l.Attrib.ls_redundant l.Attrib.ls_dropped
        l.Attrib.ls_unused l.Attrib.ls_demand_accesses l.Attrib.ls_demand_hits
        l.Attrib.ls_coverage l.Attrib.ls_accuracy l.Attrib.ls_timeliness
        l.Attrib.ls_mean_lead l.Attrib.ls_mean_late_wait;
      let h = l.Attrib.ls_lead_hist in
      Printf.bprintf b " | %d %h %h %h |" h.T.hs_n h.T.hs_sum h.T.hs_min
        h.T.hs_max;
      Array.iter (Printf.bprintf b " %d") h.T.hs_counts)
    s.Attrib.loads;
  List.iter
    (fun (ss : Attrib.site_summary) ->
      Printf.bprintf b "\n%s %d %d"
        (Iref.to_string ss.Attrib.ss_site)
        ss.Attrib.ss_spawns ss.Attrib.ss_denied)
    s.Attrib.sites;
  let t = s.Attrib.threads in
  Printf.bprintf b "\n%d %d %d %d %h %d" t.Attrib.th_spawns t.Attrib.th_denied
    t.Attrib.th_ended t.Attrib.th_watchdog_kills t.Attrib.th_mean_lifetime
    t.Attrib.th_max_lifetime;
  Buffer.contents b

let hex s = Digest.to_hex (Digest.string s)

module F = Ssp_fault.Fault

(* A plan that fires every simulator fault site. Each of them changes a
   context's readiness outside that context's own issue: a denied or
   delayed spawn, an injected kill, a starved chk.c, a broken chain, a
   dropped prefetch, an exhausted fill buffer. *)
let sim_fault_plan () =
  F.make ~seed:19
    [
      ("sim.spec.kill", F.spec 0.002);
      ("sim.spawn.deny", F.spec 0.2);
      ("sim.spawn.delay", F.spec 0.25);
      ("sim.context.starve", F.spec 0.2);
      ("sim.chain.break", F.spec 0.25);
      ("sim.prefetch.drop", F.spec 0.25);
      ("sim.fill.exhaust", F.spec 0.05);
    ]

(* One workload's pins: digests of the in-order runs and of the OOO runs
   (unadapted and adapted, full and sampled), of the attribution summary
   of the attributed adapted in-order run, and of the adapted program's
   runs (in-order and OOO, full and sampled) under [sim_fault_plan]; and
   that plan's per-site counts. *)
let cycle_pins (w : Ssp_workloads.Workload.t) =
  let prog = Ssp_workloads.Workload.program w ~scale:1 in
  let profile = Ssp_profiling.Collect.collect ~config:pin_inorder prog in
  let result = Ssp.Adapt.run ~config:pin_inorder prog profile in
  let adapted = result.Ssp.Adapt.prog in
  let sampling = Smt.default_sampling in
  let runs run cfg =
    hex
      (String.concat "\n--\n"
         [
           stats_text (run ?sampling:None cfg prog);
           stats_text (run ?sampling:None cfg adapted);
           stats_text (run ?sampling:(Some sampling) cfg prog);
           stats_text (run ?sampling:(Some sampling) cfg adapted);
         ])
  in
  let attrib =
    Attrib.create ~prefetch_map:result.Ssp.Adapt.prefetch_map ()
  in
  ignore (Inorder.run ~attrib pin_inorder adapted);
  let plan = sim_fault_plan () in
  let faulted =
    F.with_plan plan (fun () ->
        hex
          (String.concat "\n--\n"
             [
               stats_text (Inorder.run pin_inorder adapted);
               stats_text (Inorder.run ~sampling pin_inorder adapted);
               stats_text (Ooo.run pin_ooo adapted);
               stats_text (Ooo.run ~sampling pin_ooo adapted);
             ]))
  in
  ( ( w.Ssp_workloads.Workload.name,
      runs (fun ?sampling cfg p -> Inorder.run ?sampling cfg p) pin_inorder,
      runs (fun ?sampling cfg p -> Ooo.run ?sampling cfg p) pin_ooo,
      hex (attrib_text (Attrib.summary attrib)),
      faulted ),
    F.counts plan )

(* The per-interval IPC series both cores emit with telemetry on. *)
let interval_series name =
  let prog = Ssp_workloads.(Workload.program (Suite.find name) ~scale:1) in
  T.reset ();
  T.set_enabled true;
  let r =
    Fun.protect
      ~finally:(fun () ->
        T.set_enabled false;
        T.reset ())
      (fun () ->
        ignore (Inorder.run pin_inorder prog);
        ignore (Ooo.run pin_ooo prog);
        T.report ())
  in
  let pts series =
    let p = List.assoc series r.T.r_series in
    let xy (x, y) = Printf.sprintf "%h,%h" x y in
    (List.length p, hex (String.concat ";" (List.map xy p)))
  in
  (pts "sim.inorder.interval_ipc", pts "sim.ooo.interval_ipc")

(* Recorded before the cycle cores skipped quiet cycles: skipping must not
   move any of them. The fifth digest, the runs under simulator faults,
   was recorded before the cores kept each context's ready cycle. *)
let pinned_cycles =
  [
    ( "em3d",
      "30b577ae7eb32e9b2f28975b2cbf494a",
      "c39d6c0194c3020f892064fc4698c2e6",
      "7da54e189a0087fe579c429629b3e86f",
      "a430cda1f164e59154883383ee8744e4" );
    ( "health",
      "b16bd11a6e0ab38167c12405de860e1b",
      "3df074abd6b3af1a4c4539c5769a7bec",
      "16f0e7e2a715635896e90578cb948b11",
      "5aa604f20da47c271fb7fdac90bca807" );
    ( "mst",
      "3aac6db0a10f2a86697104617642ac38",
      "8b767f956a1c0352fd4bcf5727384bee",
      "957b039a1aa32ab18a085d4d654e17a2",
      "2442929dc77d2a055f93c907c9547dd8" );
    ( "treeadd.df",
      "44bd8c91b6036165cbf2b85899517479",
      "c577edac8cad74a56a84541375c260a1",
      "1c1be583c05f04cb4e6e07a6eee2fe1c",
      "cf5798c4e9603ceeb62695801f297fd3" );
    ( "treeadd.bf",
      "a9ef74ec3a7616b2e2aa2b8e6e38bf3d",
      "cb0140574ecb131d920e53ac6bb157a6",
      "3506096a364de5999e87777b1a1cd0d4",
      "b06cf60be5ad94de479e104c9574603c" );
    ( "mcf",
      "eb1a23bebec53dfe0c772e31d4297f7a",
      "843e68104ca2a99fedd3be1f73905c3d",
      "48a9722f001539ab65a2c8710c66848f",
      "79065873c4634089f34bca94dcec1df6" );
    ( "vpr",
      "014fe284e0dcc9e60f1dc510406f786b",
      "dbdc404f8b56eb3a91774054d7866782",
      "6166e7f7c2e704f44b5c4710bfac3006",
      "f185053a8d2f450433dcadcfe941d57c" );
    ( "gen:3",
      "084f65d87a8ca911376b766b781ee1e2",
      "8a6a7dbebf2ab2edb73593b39c9434f0",
      "31830f51567d8cc1db99e3d0481c5b5d",
      "d21d2894a47c6e59d780782f0dc33a63" );
    ( "gen:4",
      "7aa12b4479468bff717c0d8d2aa08b1a",
      "3f3ee8c486481e3f4a04dbde09be0ef6",
      "ab19b2aa58e916435112127825abc5b9",
      "8310fbed50877d6d433167be8d9974c5" );
    ( "gen:5",
      "8a3791ae5bf3f4e211f6ce441ed54f50",
      "6c2d9f800b066a7030baa11297da74e2",
      "444cc7f8dd7d406a863b151e0f7fa309",
      "e439972972dc8b1b30d85f5a576389e3" );
    ( "gen:6",
      "5c32267c1c3ff76a21a4e22cce7fd602",
      "3fcc1096c8e31ebd8a5d23c13c76627d",
      "424e447cfec1be28de62b370ce12b8d8",
      "4ad4ea724aceaf8ee9c0714dc456ce41" );
    ( "gen:7",
      "51e08932a7f33d117b1b0307379be56a",
      "7e2c40daebfbc77260b59dc5885393a5",
      "57a5a308fa2bc05d8a1bc31f3d58e889",
      "82538b7653449a423b859803ff7b38ab" );
    ( "gen:8",
      "5d0817408f51bf5ff6681a1009ca4bca",
      "1905773ad9f5606ad72f56eaca7d6e4a",
      "c005dde98d00cba17facee068e0ea921",
      "0042b647208317c7cd27fa9216112320" );
  ]

let pinned_series =
  ((89, "8a8e005d1b776a51f26ebdc866a0a103"),
    (36, "ec3f3bf8ab94a579ac1a771a656f6239"))

let test_cycle_pins () =
  let fired = Hashtbl.create 8 in
  List.iter2
    (fun w (name, inorder, ooo, attrib, faulted) ->
      let (name', inorder', ooo', attrib', faulted'), counts = cycle_pins w in
      Alcotest.(check string) "workload" name name';
      Alcotest.(check string) (name ^ ": in-order stats") inorder inorder';
      Alcotest.(check string) (name ^ ": OOO stats") ooo ooo';
      Alcotest.(check string) (name ^ ": attribution summary") attrib attrib';
      Alcotest.(check string) (name ^ ": under simulator faults") faulted
        faulted';
      List.iter
        (fun (c : F.count) ->
          let n = Option.value ~default:0 (Hashtbl.find_opt fired c.F.site) in
          Hashtbl.replace fired c.F.site (n + c.F.fired))
        counts)
    (Ssp_workloads.Suite.all @ Ssp_workloads.Suite.corpus ~n:6 ~seed:3)
    pinned_cycles;
  List.iter
    (fun site ->
      let name = F.site_name site in
      if String.starts_with ~prefix:"sim." name then
        match Hashtbl.find_opt fired name with
        | Some n when n > 0 -> ()
        | _ -> Alcotest.failf "fault site %s never fired" name)
    (F.all_sites ());
  let (ni, di), (no, d_o) = interval_series "mcf" in
  let (ni', di'), (no', do') = pinned_series in
  Alcotest.(check bool) "in-order crosses 10 intervals" true (ni >= 10);
  Alcotest.(check bool) "OOO crosses 10 intervals" true (no >= 10);
  Alcotest.(check (pair int string))
    "in-order interval IPC" (ni', di') (ni, di);
  Alcotest.(check (pair int string)) "OOO interval IPC" (no', do') (no, d_o)

(* The cycle cores keep the OCaml runtime off their hot paths and a timed
   cache access returns an int, so a run allocates well under one
   minor-heap word per simulated cycle (set-up included), on the
   unadapted and the adapted program alike: spawns bind pooled contexts
   and the live-in buffers are unboxed slots. The counts are
   deterministic. *)
let test_cycle_alloc_budget () =
  List.iter
    (fun (w : Ssp_workloads.Workload.t) ->
      let prog = Ssp_workloads.Workload.program w ~scale:1 in
      let profile = Ssp_profiling.Collect.collect ~config:pin_inorder prog in
      let adapted =
        (Ssp.Adapt.run ~config:pin_inorder prog profile).Ssp.Adapt.prog
      in
      List.iter
        (fun (what, p) ->
          List.iter
            (fun (core, run) ->
              let before = Gc.minor_words () in
              let s : Stats.t = run p in
              let per_cycle =
                (Gc.minor_words () -. before) /. float_of_int s.Stats.cycles
              in
              if per_cycle > 0.2 then
                Alcotest.failf
                  "%s %s %s: %.3f minor words per cycle (budget 0.2)"
                  w.Ssp_workloads.Workload.name what core per_cycle)
            [ ("in-order", Inorder.run pin_inorder); ("OOO", Ooo.run pin_ooo) ])
        [ ("unadapted", prog); ("adapted", adapted) ])
    Ssp_workloads.Suite.all

(* A thread's position is one pc over the whole program, so a function
   that could run off its end would run on into the next one's code: the
   layout rejects it, naming it, before anything runs. *)
let test_runs_off_end () =
  let prog funcs =
    let p = Prog.create ~entry:"main" in
    List.iter
      (fun (name, blocks) ->
        Prog.add_func p (Builder.func_of_blocks ~name ~nparams:0 blocks))
      funcs;
    p
  in
  let g = ("g", [ ("entry", Op.[ Movi (40, 2L); Print 40; Halt ]) ]) in
  let p = prog [ ("main", [ ("entry", Op.[ Movi (40, 1L); Print 40 ]) ]); g ] in
  let falls =
    Invalid_argument
      "Layout.of_prog: function main falls through past its last block"
  in
  Alcotest.check_raises "Funcsim.run" falls (fun () ->
      ignore (Funcsim.run p));
  Alcotest.check_raises "Inorder.run" falls (fun () ->
      ignore (Inorder.run pin_inorder p));
  Alcotest.check_raises "Ooo.run" falls (fun () ->
      ignore (Ooo.run pin_ooo p));
  Alcotest.check_raises "Collect.collect" falls (fun () ->
      ignore (Ssp_profiling.Collect.collect p));
  Alcotest.check_raises "empty last block" falls (fun () ->
      ignore
        (Layout.of_prog
           (prog [ ("main", [ ("entry", Op.[ Halt ]); ("tail", []) ]); g ])));
  Alcotest.check_raises "no blocks"
    (Invalid_argument "Layout.of_prog: function main has no blocks")
    (fun () -> ignore (Layout.of_prog (prog [ ("main", []); g ])))

(* A static target that does not resolve is rejected by the layout, which
   names the function and the label, callee or spawn target, before
   anything runs — not when the op executes. *)
let test_unresolved_targets () =
  let prog op =
    let p = Prog.create ~entry:"main" in
    Prog.add_func p
      (Builder.func_of_blocks ~name:"main" ~nparams:0
         [ ("entry", [ Op.Movi (40, 1L); Op.Print 40; op; Op.Halt ]) ]);
    Prog.add_func p
      (Builder.func_of_blocks ~name:"helper" ~nparams:0
         [ ("entry", [ Op.Kill ]) ]);
    p
  in
  List.iter
    (fun (op, what) ->
      let p = prog op in
      let e =
        Invalid_argument ("Layout.of_prog: function main: unresolved " ^ what)
      in
      let case engine = Op.to_string op ^ ": " ^ engine in
      Alcotest.check_raises (case "Funcsim.run") e (fun () ->
          ignore (Funcsim.run p));
      Alcotest.check_raises (case "Inorder.run") e (fun () ->
          ignore (Inorder.run pin_inorder p));
      Alcotest.check_raises (case "Ooo.run") e (fun () ->
          ignore (Ooo.run pin_ooo p));
      Alcotest.check_raises (case "Collect.collect") e (fun () ->
          ignore (Ssp_profiling.Collect.collect p)))
    Op.
      [
        (Br "nowhere", "label nowhere");
        (Brnz (40, "nowhere"), "label nowhere");
        (Chk_c "nowhere", "label nowhere");
        (Call ("nofn", 0), "callee nofn");
        (Spawn ("helper", "nowhere"), "spawn target helper#nowhere");
        (Spawn ("nofn", "entry"), "spawn target nofn#entry");
      ]

(* An indirect call names its callee by code id, so two functions that
   share one would make it ambiguous: validation rejects them, so the
   assembler and [sspc exec] give a structured error, and the layout
   refuses a program built directly with [Builder]. *)
let test_duplicate_code_ids () =
  let func ~code_id name ops =
    Builder.func_of_blocks ~code_id ~name ~nparams:0 [ ("entry", ops) ]
  in
  let p = Prog.create ~entry:"main" in
  Prog.add_func p
    (func ~code_id:1 "main" Op.[ Movi (40, 2L); Icall (40, 0); Halt ]);
  Prog.add_func p (func ~code_id:2 "a" Op.[ Movi (40, 100L); Print 40; Ret ]);
  Prog.add_func p (func ~code_id:2 "b" Op.[ Movi (40, 200L); Print 40; Ret ]);
  let msg = "functions a and b share code id 2" in
  (match Validate.check p with
  | Ok () -> Alcotest.fail "Validate.check accepted a shared code id"
  | Error es ->
    Alcotest.(check (list string))
      "Validate.check" [ msg ]
      (List.map (fun (e : Validate.error) -> e.Validate.message) es));
  let src = Asm.to_string p in
  Alcotest.check_raises "Asm.parse"
    (Asm.Error ("invalid program: " ^ msg, 0))
    (fun () -> ignore (Asm.parse src));
  let file = Filename.temp_file "ssp_dup" ".s" in
  let err = Filename.temp_file "ssp_dup" ".err" in
  Out_channel.with_open_text file (fun oc -> output_string oc src);
  Alcotest.(check int)
    "sspc exec exit code" 2
    (Sys.command
       (Printf.sprintf "%s exec %s >/dev/null 2>%s" Test_fault.sspc
          (Filename.quote file) (Filename.quote err)));
  Alcotest.(check string)
    "sspc exec diagnostic"
    ("sspc: invalid program: " ^ msg ^ " (line 0)\n")
    (In_channel.with_open_text err In_channel.input_all);
  Sys.remove file;
  Sys.remove err;
  let refused = Invalid_argument ("Layout.of_prog: " ^ msg) in
  Alcotest.check_raises "Layout.of_prog" refused (fun () ->
      ignore (Layout.of_prog p));
  Alcotest.check_raises "Funcsim.run" refused (fun () ->
      ignore (Funcsim.run p))

(* A speculative thread's edge semantics, the same on every engine: its
   [alloc] yields 0 and leaves the heap pointer alone, its [print] prints
   nothing, its [icall] through an unknown code id is a nop, and it reads
   the live-in buffer its spawner wrote (0 outside the buffer). The
   helper reaches its chained spawn only if one of these goes wrong, so
   exactly one spawn happens. Main allocates before and after the helper
   runs and prints the difference. *)
let spec_edge_program () =
  let open Op in
  let helper =
    Builder.func_of_blocks ~name:"helper" ~nparams:0
      [
        ("entry", [ Kill ]);
        ( "h",
          [
            Lib_ld (47, 0);
            Cmpi (Ne, 48, 47, 77L);
            Brnz (48, "bad");
            Lib_ld (49, Thread.lib_slots);
            Brnz (49, "bad");
            Movi (41, 64L);
            Alloc (40, 41);
            Brnz (40, "bad");
            Print 41;
            Movi (42, 999_999L);
            Icall (42, 0);
            Kill;
          ] );
        ("bad", [ Spawn ("helper", "entry"); Kill ]);
      ]
  in
  let main =
    Builder.func_of_blocks ~name:"main" ~nparams:0
      [
        ( "entry",
          [
            Movi (41, 8L);
            Alloc (43, 41);
            Movi (47, 77L);
            Lib_st (0, 47);
            Lib_st (-1, 41);
            Lib_st (Thread.lib_slots, 41);
            Spawn ("helper", "h");
            Movi (40, 3000L);
            Br "loop";
          ] );
        ("loop", [ Alui (Sub, 40, 40, 1L); Brnz (40, "loop"); Br "done" ]);
        ( "done",
          [ Alloc (44, 41); Alu (Sub, 45, 44, 43); Print 45; Print 43; Halt ]
        );
      ]
  in
  let p = Prog.create ~entry:"main" in
  Prog.add_func p main;
  Prog.add_func p helper;
  p

let test_spec_edge_semantics () =
  let p = spec_edge_program () in
  let expect = (Funcsim.run p).Funcsim.outputs in
  Alcotest.(check (list int64))
    "reference outputs" [ 8L; Prog.heap_base ] expect;
  let r = Funcsim.run ~spawning:true p in
  Alcotest.(check (list int64)) "funcsim outputs" expect r.Funcsim.outputs;
  Alcotest.(check int) "funcsim spawns" 1 r.Funcsim.spawns;
  let sampling = Smt.default_sampling in
  List.iter
    (fun (name, (s : Stats.t)) ->
      Alcotest.(check (list int64)) (name ^ " outputs") expect s.Stats.outputs;
      Alcotest.(check int) (name ^ " spawns") 1 s.Stats.spawns;
      Alcotest.(check bool)
        (name ^ " helper ran") true (s.Stats.spec_instrs > 0))
    [
      ("in-order", Inorder.run pin_inorder p);
      ("OOO", Ooo.run pin_ooo p);
      ("sampled in-order", Inorder.run ~sampling pin_inorder p);
      ("sampled OOO", Ooo.run ~sampling pin_ooo p);
    ];
  (* the main thread's indirect call through an unknown code id fails *)
  let p = Prog.create ~entry:"main" in
  Prog.add_func p
    (Builder.func_of_blocks ~name:"main" ~nparams:0
       [ ("entry", Op.[ Movi (40, 999_999L); Icall (40, 0); Halt ]) ]);
  let e = Failure "Exec: indirect call to unknown code id 999999" in
  Alcotest.check_raises "funcsim icall" e (fun () -> ignore (Funcsim.run p));
  Alcotest.check_raises "funcsim spawning icall" e (fun () ->
      ignore (Funcsim.run ~spawning:true p));
  Alcotest.check_raises "in-order icall" e (fun () ->
      ignore (Inorder.run pin_inorder p));
  Alcotest.check_raises "OOO icall" e (fun () -> ignore (Ooo.run pin_ooo p));
  Alcotest.check_raises "sampled in-order icall" e (fun () ->
      ignore (Inorder.run ~sampling pin_inorder p));
  Alcotest.check_raises "sampled OOO icall" e (fun () ->
      ignore (Ooo.run ~sampling pin_ooo p))

(* A run that outlives [max_cycles] fails rather than returning stats. *)
let test_max_cycles () =
  let prog = Ssp_workloads.(Workload.program (Suite.find "mcf") ~scale:1) in
  let bounded cfg = { cfg with Ssp_machine.Config.max_cycles = 5_000 } in
  Alcotest.check_raises "in-order"
    (Failure "Inorder.run: exceeded max_cycles") (fun () ->
      ignore (Inorder.run (bounded pin_inorder) prog));
  Alcotest.check_raises "OOO" (Failure "Ooo.run: exceeded max_cycles")
    (fun () -> ignore (Ooo.run (bounded pin_ooo) prog))

let suite =
  [
    Alcotest.test_case "memory read/write" `Quick test_memory_rw;
    Alcotest.test_case "memory alloc" `Quick test_memory_alloc;
    Alcotest.test_case "cache LRU" `Quick test_cache_lru;
    Alcotest.test_case "hierarchy levels & partial hits" `Quick
      test_hierarchy_levels;
    Alcotest.test_case "hierarchy perfect mode" `Quick test_hierarchy_perfect;
    Alcotest.test_case "fill buffer pressure" `Quick test_fill_buffer_pressure;
    Alcotest.test_case "branch predictor learns" `Quick test_bpred_learns;
    Alcotest.test_case "funcsim factorial" `Quick test_funcsim_fact;
    Alcotest.test_case "funcsim pointer chain" `Quick test_funcsim_memory_program;
    Alcotest.test_case "functional interpreter allocation budget" `Quick
      test_funcsim_alloc_budget;
  ]

(* ---------- property tests ---------- *)

(* Memory vs a byte-map reference model. Accesses interleave bases on
   pages whose ids differ by multiples of the 64-slot page cache (so they
   evict each other from one slot) with a base next to it, and offsets
   reach past a page end, so some accesses cross into the next page. Every
   other write, and every read a second time, goes through the register-
   slot entry points the decoded loads and stores use. *)
let prop_memory =
  let page = 1 lsl 16 in
  let bases =
    [ 0x30000; 0x30000 + (64 * page); 0x30000 + (128 * page);
      0x30000 + (4096 * page); 0x40000; Int64.to_int Prog.heap_base ]
  in
  let gen =
    QCheck.Gen.(
      let off = oneof [ 0 -- 2000; (page - 2000) -- (page + 8) ] in
      list_size (1 -- 60)
        (pair
           (pair (oneofl bases) off)
           (pair (oneofl [ 1; 2; 4; 8 ]) (map Int64.of_int (0 -- 1_000_000)))))
  in
  QCheck.Test.make ~name:"memory matches byte-map reference" ~count:100
    (QCheck.make gen) (fun ops ->
      let m = Memory.create () in
      let ref_bytes = Hashtbl.create 64 in
      let slot = Bytes.create 8 in
      List.iteri
        (fun k ((base, off), (w, v)) ->
          if k land 1 = 0 then Memory.write m (base + off) w v
          else begin
            Bytes.set_int64_ne slot 0 v;
            Memory.write_from m (base + off) w slot 0
          end;
          for i = 0 to w - 1 do
            Hashtbl.replace ref_bytes (base + off + i)
              (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xff)
          done)
        ops;
      List.for_all
        (fun ((base, off), (w, _)) ->
          let got = Memory.read m (base + off) w in
          let expect =
            let rec go i acc =
              if i < 0 then acc
              else
                let b =
                  Option.value ~default:0
                    (Hashtbl.find_opt ref_bytes (base + off + i))
                in
                go (i - 1) Int64.(logor (shift_left acc 8) (of_int b))
            in
            go (w - 1) 0L
          in
          Memory.read_to m (base + off) w slot 0;
          Int64.equal got expect
          && Int64.equal (Bytes.get_int64_ne slot 0) expect)
        ops)

(* Set-associative LRU cache vs a naive reference model. *)
let prop_cache_lru =
  let gen = QCheck.Gen.(list_size (1 -- 200) (0 -- 24)) in
  QCheck.Test.make ~name:"cache matches naive LRU reference" ~count:100
    (QCheck.make gen) (fun lines ->
      let geom =
        { Ssp_machine.Config.size_bytes = 512; ways = 2; line_bytes = 64;
          latency = 1 }
      in
      (* 512B / 64B / 2 ways = 4 sets *)
      let c = Cache.create geom in
      let sets = 4 in
      let reference = Array.make sets [] in
      List.for_all
        (fun line ->
          let addr = line * 64 in
          let s = line mod sets in
          let hit_ref = List.mem line reference.(s) in
          let hit = Cache.access c addr in
          if not hit then Cache.install c addr;
          (* update reference LRU: move/insert to front, keep 2 *)
          reference.(s) <-
            line :: List.filter (fun l -> l <> line) reference.(s);
          (if List.length reference.(s) > 2 then
             reference.(s) <- [ List.nth reference.(s) 0; List.nth reference.(s) 1 ]);
          hit = hit_ref)
        lines)

(* Every engine's instruction arms vs an evaluator written from the ISA's
   definition alone ([Op.alu_eval], [Op.cmp_eval], a byte map for memory,
   a bump pointer for the heap): random straight-line programs over every
   non-control opcode — full 64-bit immediates, division by zero, shift
   counts out of [0, 64), writes to r0, loads, stores and lfetches of
   every width around page boundaries, at negative addresses and at
   offsets on both sides of the word's [-2^35, 2^35) immediate field,
   [alloc] of arbitrary sizes, and live-in buffer accesses inside and
   outside the buffer (a main thread's [lib.ld] reads 0) — print every
   register they wrote and every location they stored. The engines share
   their arms, so a comparison between them could not catch a wrong
   one. *)
module Ref_eval = struct
  let base_reg = 40
  let readback_reg = 41

  (* Addresses keep the low 62 bits (the simulated address space). *)
  let addr base off =
    Int64.to_int
      (Int64.logand (Int64.add base (Int64.of_int off)) 0x3FFF_FFFF_FFFF_FFFFL)

  let run ops =
    let regs = Array.make Reg.count 0L in
    let bytes = Hashtbl.create 64 in
    let rand = ref 0x9E3779B97F4A7C15L in
    let brk = ref Prog.heap_base in
    let out = ref [] in
    let set d v = if d <> Reg.zero then regs.(d) <- v in
    let load w a =
      let n = Op.width_bytes w in
      let v = ref 0L in
      for i = n - 1 downto 0 do
        let b = Option.value ~default:0 (Hashtbl.find_opt bytes (a + i)) in
        v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int b)
      done;
      !v
    in
    let store w a v =
      for i = 0 to Op.width_bytes w - 1 do
        Hashtbl.replace bytes (a + i)
          (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xff)
      done
    in
    let bool v = if v then 1L else 0L in
    List.iter
      (fun (op : Op.t) ->
        match op with
        | Nop | Lfetch _ | Halt | Lib_st _ -> ()
        | Movi (d, i) -> set d i
        | Mov (d, s) -> set d regs.(s)
        | Alu (o, d, a, b) -> set d (Op.alu_eval o regs.(a) regs.(b))
        | Alui (o, d, a, i) -> set d (Op.alu_eval o regs.(a) i)
        | Cmp (o, d, a, b) -> set d (bool (Op.cmp_eval o regs.(a) regs.(b)))
        | Cmpi (o, d, a, i) -> set d (bool (Op.cmp_eval o regs.(a) i))
        | Load (w, d, b, off) -> set d (load w (addr regs.(b) off))
        | Store (w, s, b, off) -> store w (addr regs.(b) off) regs.(s)
        | Rand d ->
          (* xorshift64, the documented per-thread stream *)
          let x = !rand in
          let x = Int64.logxor x (Int64.shift_left x 13) in
          let x = Int64.logxor x (Int64.shift_right_logical x 7) in
          let x = Int64.logxor x (Int64.shift_left x 17) in
          rand := x;
          set d (Int64.shift_right_logical x 1)
        | Alloc (d, s) ->
          (* bump by the size rounded up to a multiple of 8 *)
          let size = Int64.logand (Int64.add regs.(s) 7L) (-8L) in
          set d !brk;
          brk := Int64.add !brk size
        | Lib_ld (d, _) -> set d 0L
        | Print s -> out := regs.(s) :: !out
        | _ -> invalid_arg "Ref_eval: not a straight-line op")
      ops;
    List.rev !out

  let gen_program =
    let open QCheck.Gen in
    let reg = oneofl [ 0; 2; 3; 32; 33; 34; 35; 36 ] in
    let imm =
      oneof
        [
          oneofl
            [ 0L; 1L; -1L; 2L; 7L; 63L; 64L; 65L; 127L; -63L; -64L; -65L;
              Int64.min_int; Int64.max_int; 0x0123_4567_89AB_CDEFL ];
          ui64;
        ]
    in
    let alu = oneofl Op.[ Add; Sub; Mul; Div; Rem; And; Or; Xor; Shl; Shr ] in
    let cmp = oneofl Op.[ Eq; Ne; Lt; Le; Gt; Ge ] in
    let width = oneofl Op.[ W1; W2; W4; W8 ] in
    let wide = 1 lsl 35 in
    let off =
      frequency
        [
          (4, -24 -- 40);
          (1, map (fun o -> wide + o) (-8 -- 40));
          (1, map (fun o -> -wide + o) (-40 -- 8));
        ]
    in
    let slot =
      oneofl [ -1; 0; 1; Thread.lib_slots - 1; Thread.lib_slots; 1 lsl 36 ]
    in
    let op =
      frequency
        [
          (1, return Op.Nop);
          (3, map2 (fun d i -> Op.Movi (d, i)) reg imm);
          (1, map2 (fun d s -> Op.Mov (d, s)) reg reg);
          (4, map4 (fun o d a b -> Op.Alu (o, d, a, b)) alu reg reg reg);
          (4, map4 (fun o d a i -> Op.Alui (o, d, a, i)) alu reg reg imm);
          (2, map4 (fun o d a b -> Op.Cmp (o, d, a, b)) cmp reg reg reg);
          (2, map4 (fun o d a i -> Op.Cmpi (o, d, a, i)) cmp reg reg imm);
          (3, map3 (fun w d o -> Op.Load (w, d, base_reg, o)) width reg off);
          (3, map3 (fun w s o -> Op.Store (w, s, base_reg, o)) width reg off);
          (1, map (fun o -> Op.Lfetch (base_reg, o)) off);
          (1, map (fun d -> Op.Rand d) reg);
          (1, map2 (fun d s -> Op.Alloc (d, s)) reg reg);
          (1, map2 (fun k s -> Op.Lib_st (k, s)) slot reg);
          (1, map2 (fun d k -> Op.Lib_ld (d, k)) reg slot);
        ]
    in
    (* an aligned base, two page-crossing ones (the second at a negative
       address) and the heap *)
    let base = oneofl [ 0x20000L; 0x2FFF8L; -0x10008L; Prog.heap_base ] in
    map2
      (fun base body ->
        let written =
          List.sort_uniq compare (List.concat_map Op.defs body)
        in
        let stored =
          List.sort_uniq compare
            (List.filter_map
               (function Op.Store (_, _, _, o) -> Some o | _ -> None)
               body)
        in
        (Op.Movi (base_reg, base) :: body)
        @ List.map (fun r -> Op.Print r) (Reg.zero :: written)
        @ List.concat_map
            (fun o ->
              [
                Op.Load (W8, readback_reg, base_reg, o);
                Op.Print readback_reg;
              ])
            stored
        @ [ Op.Halt ])
      base
      (list_size (1 -- 40) op)

  let prog_of ops =
    let p = Prog.create ~entry:"main" in
    Prog.add_func p
      (Builder.func_of_blocks ~name:"main" ~nparams:0 [ ("entry", ops) ]);
    p
end

let prop_reference_eval =
  let print ops = String.concat "; " (List.map Op.to_string ops) in
  QCheck.Test.make ~name:"every engine matches a reference evaluator"
    ~count:150 (QCheck.make ~print Ref_eval.gen_program) (fun ops ->
      let expect = Ref_eval.run ops in
      let p = Ref_eval.prog_of ops in
      let sampling = { Smt.detail_window = 1; ff_window = 3 } in
      let inorder = Ssp_machine.Config.in_order
      and ooo = Ssp_machine.Config.out_of_order in
      List.for_all
        (fun (name, outputs) ->
          outputs = expect
          || QCheck.Test.fail_reportf "%s printed %s, reference %s" name
               (String.concat " " (List.map Int64.to_string outputs))
               (String.concat " " (List.map Int64.to_string expect)))
        [
          ("funcsim", (Funcsim.run p).Funcsim.outputs);
          ("inorder", (Inorder.run inorder p).Stats.outputs);
          ("sampled inorder", (Inorder.run ~sampling inorder p).Stats.outputs);
          ("ooo", (Ooo.run ooo p).Stats.outputs);
          ("sampled ooo", (Ooo.run ~sampling ooo p).Stats.outputs);
        ])

(* [install] and [warm_access] find the hit way or the victim in one
   scan of the set. The reference is the two-scan [install] (a hit scan,
   then a first-least-recent victim scan), and [access] followed by it
   on a miss: tags, recency stamps and misses must be equal after every
   step of a random mix of the three calls. *)
module Two_scan = struct
  type t = { tags : int array; lru : int array; mutable clock : int;
             mutable misses : int; sets : int; ways : int }

  let create ~sets ~ways =
    { tags = Array.make (sets * ways) (-1); lru = Array.make (sets * ways) 0;
      clock = 0; misses = 0; sets; ways }

  let find t line =
    let base = line mod t.sets * t.ways in
    let rec go i =
      if i = base + t.ways then -1
      else if t.tags.(i) = line then i
      else go (i + 1)
    in
    go base

  let install t line =
    let i = find t line in
    if i >= 0 then begin
      t.clock <- t.clock + 1;
      t.lru.(i) <- t.clock
    end
    else begin
      let base = line mod t.sets * t.ways in
      let victim = ref base in
      for w = 1 to t.ways - 1 do
        if t.lru.(base + w) < t.lru.(!victim) then victim := base + w
      done;
      t.clock <- t.clock + 1;
      t.tags.(!victim) <- line;
      t.lru.(!victim) <- t.clock
    end

  let access t line =
    let i = find t line in
    if i >= 0 then begin
      t.clock <- t.clock + 1;
      t.lru.(i) <- t.clock;
      true
    end
    else begin
      t.misses <- t.misses + 1;
      false
    end
end

let prop_cache_one_scan =
  let gen = QCheck.Gen.(list_size (1 -- 400) (pair (0 -- 2) (0 -- 40))) in
  QCheck.Test.make ~name:"one-scan install matches the two-scan reference"
    ~count:200 (QCheck.make gen) (fun steps ->
      let geom =
        { Ssp_machine.Config.size_bytes = 1024; ways = 4; line_bytes = 64;
          latency = 1 }
      in
      (* 1024B / 64B / 4 ways = 4 sets *)
      let c = Cache.create geom in
      let r = Two_scan.create ~sets:4 ~ways:4 in
      List.for_all
        (fun (call, line) ->
          let addr = line * 64 in
          let same_answer =
            match call with
            | 0 ->
              Cache.install c addr;
              Two_scan.install r line;
              true
            | 1 -> Bool.equal (Cache.access c addr) (Two_scan.access r line)
            | _ ->
              let hit = Two_scan.access r line in
              if not hit then Two_scan.install r line;
              Bool.equal (Cache.warm_access c addr) hit
          in
          let tags, lru = Cache.state c in
          same_answer && tags = r.Two_scan.tags && lru = r.Two_scan.lru
          && Cache.stats_misses c = r.Two_scan.misses)
        steps)

let extra_suite =
  [ QCheck_alcotest.to_alcotest prop_memory;
    QCheck_alcotest.to_alcotest prop_cache_lru;
    QCheck_alcotest.to_alcotest prop_cache_one_scan ]

let suite =
  suite @ extra_suite
  @ [
      Alcotest.test_case "cycle-core statistics pinned" `Slow test_cycle_pins;
      Alcotest.test_case "max_cycles safety net" `Quick test_max_cycles;
      Alcotest.test_case "cycle-core allocation budget" `Quick
        test_cycle_alloc_budget;
      Alcotest.test_case "a function that runs off its end is rejected" `Quick
        test_runs_off_end;
      Alcotest.test_case "unresolved targets are rejected before anything runs"
        `Quick test_unresolved_targets;
      Alcotest.test_case "duplicate code ids are rejected" `Quick
        test_duplicate_code_ids;
      Alcotest.test_case "speculative edge semantics on every engine" `Quick
        test_spec_edge_semantics;
      QCheck_alcotest.to_alcotest prop_reference_eval;
    ]
