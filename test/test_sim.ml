open Ssp_isa
open Ssp_ir
open Ssp_sim

let test_memory_rw () =
  let m = Memory.create () in
  Memory.write m 0x1000L 8 0x1122334455667788L;
  Alcotest.(check int64) "rw8" 0x1122334455667788L (Memory.read m 0x1000L 8);
  Alcotest.(check int64) "rw1" 0x88L (Memory.read m 0x1000L 1);
  Alcotest.(check int64) "rw2" 0x7788L (Memory.read m 0x1000L 2);
  Alcotest.(check int64) "rw4" 0x55667788L (Memory.read m 0x1000L 4);
  Alcotest.(check int64) "zero init" 0L (Memory.read m 0x9999L 8);
  (* Page-crossing access. *)
  let edge = Int64.of_int ((1 lsl 16) - 4) in
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
  Alcotest.(check bool) "cold miss" false (Cache.access c 0L);
  Alcotest.(check bool) "still missing" false (Cache.probe c 0L);
  Cache.install c 0L;
  Alcotest.(check bool) "hit after install" true (Cache.access c 0L);
  (* Lines mapping to set 0: addresses 0, 128, 256... fill both ways then
     evict LRU (line 0 was touched most recently after installs). *)
  Cache.install c 256L;
  Cache.install c 0L;
  (* set 0 now holds {0, 256}; 512 evicts LRU = 256. *)
  Cache.install c 512L;
  Alcotest.(check bool) "0 survives" true (Cache.probe c 0L);
  Alcotest.(check bool) "256 evicted" false (Cache.probe c 256L)

let test_hierarchy_levels () =
  let cfg = Ssp_machine.Config.in_order in
  let h = Hierarchy.create cfg in
  let o1 = Hierarchy.access h ~now:0 0x10000L in
  Alcotest.(check bool) "cold access goes to memory" true
    (o1.Hierarchy.level = Hierarchy.Mem);
  Alcotest.(check int) "memory latency" 230 o1.Hierarchy.ready;
  (* Same line while in flight: partial hit. *)
  let o2 = Hierarchy.access h ~now:10 0x10008L in
  Alcotest.(check bool) "partial" true o2.Hierarchy.partial;
  Alcotest.(check int) "ready when fill lands" 230 o2.Hierarchy.ready;
  (* After the fill completes the line hits L1. *)
  let o3 = Hierarchy.access h ~now:300 0x10010L in
  Alcotest.(check bool) "L1 hit after fill" true (o3.Hierarchy.level = Hierarchy.L1);
  Alcotest.(check int) "L1 latency" 302 o3.Hierarchy.ready

let test_hierarchy_perfect () =
  let cfg =
    Ssp_machine.Config.with_memory_mode Ssp_machine.Config.in_order
      Ssp_machine.Config.Perfect_memory
  in
  let h = Hierarchy.create cfg in
  let o = Hierarchy.access h ~now:5 0xdead00L in
  Alcotest.(check bool) "always L1" true (o.Hierarchy.level = Hierarchy.L1);
  Alcotest.(check int) "L1 latency" 7 o.Hierarchy.ready

let test_fill_buffer_pressure () =
  let cfg = Ssp_machine.Config.in_order in
  let h = Hierarchy.create cfg in
  (* Launch 16 distinct line misses at cycle 0, then a 17th: it must wait
     for the earliest entry to retire before starting its own fill. *)
  for i = 0 to 15 do
    ignore (Hierarchy.access h ~now:0 (Int64.of_int (0x100000 + (i * 4096))))
  done;
  let o = Hierarchy.access h ~now:1 0x900000L in
  Alcotest.(check bool) "delayed past a retirement" true
    (o.Hierarchy.ready >= 230 + 230)

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
  ]

(* ---------- property tests ---------- *)

(* Memory vs a byte-map reference model. *)
let prop_memory =
  let gen =
    QCheck.Gen.(
      list_size (1 -- 60)
        (triple (0 -- 2000) (oneofl [ 1; 2; 4; 8 ])
           (map Int64.of_int (0 -- 1_000_000))))
  in
  QCheck.Test.make ~name:"memory matches byte-map reference" ~count:100
    (QCheck.make gen) (fun ops ->
      let m = Memory.create () in
      let ref_bytes = Hashtbl.create 64 in
      let base = 0x30000 in
      List.iter
        (fun (off, w, v) ->
          Memory.write m (Int64.of_int (base + off)) w v;
          for i = 0 to w - 1 do
            Hashtbl.replace ref_bytes (base + off + i)
              (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xff)
          done)
        ops;
      List.for_all
        (fun (off, w, _) ->
          let got = Memory.read m (Int64.of_int (base + off)) w in
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
          Int64.equal got expect)
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
          let addr = Int64.of_int (line * 64) in
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

let extra_suite =
  [ QCheck_alcotest.to_alcotest prop_memory;
    QCheck_alcotest.to_alcotest prop_cache_lru ]

let suite = suite @ extra_suite
