open Ssp_profiling

let pointer_program =
  "struct node { int value; node* next; }\n\
   int walk(node* l) { int s = 0; while (l != null) { s = s + l->value; l = \
   l->next; } return s; }\n\
   int main() { node* head = null; for (int i = 0; i < 2000; i = i + 1) { \
   node* n = new node; n->value = i; n->next = head; head = n; } int s = 0; \
   for (int r = 0; r < 3; r = r + 1) { s = s + walk(head); } print_int(s); \
   return 0; }"

let profile_of src = Collect.collect (Ssp_minic.Frontend.compile src)

let test_block_freqs () =
  let prog = Ssp_minic.Frontend.compile pointer_program in
  let p = Collect.collect prog in
  Alcotest.(check int) "main entry once" 1 (Profile.block_freq p "main" 0);
  Alcotest.(check int) "walk called three times" 3 (Profile.block_freq p "walk" 0);
  Alcotest.(check int) "every instruction counted"
    (Ssp_sim.Funcsim.run prog).Ssp_sim.Funcsim.instrs p.Profile.total_instrs

(* [Layout] gives an empty block the pc id of its successor: control
   entering the empty block is counted once, on the successor. *)
let test_empty_block_freq () =
  let open Ssp_isa.Op in
  let f =
    Ssp_ir.Builder.func_of_blocks ~name:"main" ~nparams:0
      [
        ("entry", [ Movi (40, 3L) ]);
        ("empty", []);
        ("body", [ Alui (Sub, 40, 40, 1L); Brnz (40, "empty") ]);
        ("exit", [ Halt ]);
      ]
  in
  let prog = Ssp_ir.Prog.create ~entry:"main" in
  Ssp_ir.Prog.add_func prog f;
  let p = Collect.collect prog in
  Alcotest.(check (list int))
    "entry, empty, body, exit" [ 1; 0; 3; 1 ]
    (List.init 4 (Profile.block_freq p "main"))

let test_branch_bias () =
  let p = profile_of pointer_program in
  (* Some branch must be strongly biased (the list-walk loop). *)
  let found = ref false in
  Ssp_ir.Iref.Tbl.iter
    (fun _ b ->
      let r = Profile.taken_ratio b in
      if b.Profile.taken + b.Profile.not_taken > 1000 && (r > 0.9 || r < 0.1)
      then found := true)
    p.Profile.branches;
  Alcotest.(check bool) "hot biased branch found" true !found

let test_load_stats () =
  let p = profile_of pointer_program in
  (* The walk loop's loads execute 3 * 2000 times each. *)
  let hot =
    Ssp_ir.Iref.Tbl.fold
      (fun (i : Ssp_ir.Iref.t) (s : Profile.load_stats) acc ->
        if String.equal i.Ssp_ir.Iref.fn "walk" && s.Profile.accesses >= 6000
        then s :: acc
        else acc)
      p.Profile.loads []
  in
  Alcotest.(check int) "two hot loads in walk" 2 (List.length hot);
  List.iter
    (fun (s : Profile.load_stats) ->
      Alcotest.(check int) "level counts total to accesses" s.Profile.accesses
        (s.Profile.l1_hits + s.Profile.l2_hits + s.Profile.l3_hits
        + s.Profile.mem_hits))
    hot

let test_call_profile () =
  let p = profile_of pointer_program in
  (match Profile.dominant_call_site p ~callee:"walk" with
  | Some site -> Alcotest.(check string) "walk called from main" "main" site.Ssp_ir.Iref.fn
  | None -> Alcotest.fail "no call site for walk");
  Alcotest.(check bool) "no call site for absent callee" true
    (Profile.dominant_call_site p ~callee:"nothing" = None)

let test_indirect_call_profile () =
  let p =
    profile_of
      "int inc(int x) { return x + 1; }\n\
       int dec(int x) { return x - 1; }\n\
       int main() { fnptr f = &inc; int s = 0; for (int i = 0; i < 10; i = \
       i + 1) { if (i % 2 == 0) { f = &inc; } else { f = &dec; } s = f(s); \
       } print_int(s); return 0; }"
  in
  (* The indirect call site must record both dynamic targets. *)
  let multi =
    Ssp_ir.Iref.Tbl.fold
      (fun _ tbl acc -> max acc (Hashtbl.length tbl))
      p.Profile.calls 0
  in
  Alcotest.(check int) "dynamic call graph captured both targets" 2 multi

let test_avg_latency_and_executed () =
  let p = profile_of pointer_program in
  let cfg = Ssp_machine.Config.in_order in
  (* An unknown load gets the L1 latency. *)
  let ghost = Ssp_ir.Iref.make "nowhere" 0 0 in
  Alcotest.(check int) "default latency" 2 (Profile.avg_load_latency p cfg ghost);
  Alcotest.(check bool) "executed blocks" true
    (Profile.executed p (Ssp_ir.Iref.make "walk" 0 0));
  Alcotest.(check bool) "miss cycles accumulate" true (Profile.total_miss_cycles p > 0)

(* Profile bytes feed every adapted-artifact key ([Store.hash_profile])
   while [Store.profile_key] does not change with the collector, so a
   collector that drifted would silently fork the store. The digests, and
   the instruction and spawn counts of the adapted binaries run with
   spawning on, were recorded once and must not change. A digest covers
   the sealed blob, whose envelope carries [Store.format_version], so a
   format bump re-records them (formats 2 and 3 did; the payloads kept
   their bytes). *)
let pinned =
  [
    ("em3d", "afd70a1804fd5fb8056286b49994b5e3", 708165, 21325);
    ("health", "8f0f015cc93b623988b29e47f0e8fc9b", 178507, 4640);
    ("mst", "335522b66e147d7c078dbe4a5492e294", 710884, 5776);
    ("treeadd.df", "561d47eef05366528b649ba9d402fee0", 869719, 29523);
    ("treeadd.bf", "01e67c1fd9fcd8d69e74e2c6c30fa69b", 954361, 28816);
    ("mcf", "61d0ecf977a26386a2413e84aea2e1b2", 211959, 1872);
    ("vpr", "e4088d9db1b9a2477f5489fe9e6b4931", 876403, 25553);
    ("gen:3", "36bd16648afd17c1c8375d9f023b06a5", 186400, 1);
    ("gen:4", "7696b23a28021d0aefbf5ee45662bf45", 210760, 5841);
    ("gen:5", "6e168ec60922471f15aa0ab70c4c38c0", 124953, 1);
    ("gen:6", "b9aef6ade16e1b8018893dc85371d318", 222231, 7208);
    ("gen:7", "11544577dddfea71ba57554a8281a280", 455167, 14964);
    ("gen:8", "9cdbadb41d4d1fd1fba9cced4d8d2bc4", 227488, 6776);
  ]

let test_pinned () =
  let config = Ssp_machine.Config.scale_caches Ssp_machine.Config.in_order 64 in
  let ooo =
    Ssp_machine.Config.scale_caches Ssp_machine.Config.out_of_order 64
  in
  let digest_of profile =
    Digest.to_hex (Digest.string (Ssp_store.Store.encode_profile profile))
  in
  List.iter2
    (fun (w : Ssp_workloads.Workload.t) (name, digest, instrs, spawns) ->
      Alcotest.(check string) "workload" name w.Ssp_workloads.Workload.name;
      let prog = Ssp_workloads.Workload.program w ~scale:1 in
      let profile = Collect.collect ~config prog in
      Alcotest.(check string)
        (name ^ ": profile digest") digest (digest_of profile);
      (* A profile depends only on the memory hierarchy, which the two
         machine models share: profiling under either gives one profile. *)
      Alcotest.(check string)
        (name ^ ": OOO profile digest") digest
        (digest_of (Collect.collect ~config:ooo prog));
      let adapted = (Ssp.Adapt.run ~config prog profile).Ssp.Adapt.prog in
      let live = Ssp_sim.Funcsim.run ~spawning:true adapted in
      Alcotest.(check int)
        (name ^ ": instrs") instrs live.Ssp_sim.Funcsim.instrs;
      Alcotest.(check int)
        (name ^ ": spawns") spawns live.Ssp_sim.Funcsim.spawns;
      Alcotest.(check (list int64))
        (name ^ ": outputs") (Ssp_sim.Funcsim.run prog).Ssp_sim.Funcsim.outputs
        live.Ssp_sim.Funcsim.outputs)
    (Ssp_workloads.Suite.all @ Ssp_workloads.Suite.corpus ~n:6 ~seed:3)
    pinned

(* Every store key hashes a program's assembly text
   ([Store.hash_program]), so a printer that moved one byte would
   silently fork every existing store. The hashes of each kernel at
   scale 1 and of its in-order adapted binary at the pinned config were
   recorded once and must not change. *)
let pinned_keys =
  [
    ("em3d", "400f8f6dc70ec3c193060ac335f88505",
     "d51b217662b2710bf669edf55850578c");
    ("health", "ed231640f22c6bc5de24a16fa4f8d1b6",
     "66c5d4f8b2114ce11d7ef0b10c683ca5");
    ("mst", "6bbef022527f0a4f22db6bdf475a69a8",
     "df794899a78453915d3c11fc398d2aab");
    ("treeadd.df", "dbba11be3fb823f0e61cc45e4730dbea",
     "090af0e085dc93a4aa62cfe603cc75dc");
    ("treeadd.bf", "0aa7621027df26c87f10fab706ade5a2",
     "012dc18b277ea5080caab8f1c99c801b");
    ("mcf", "fbd6656692440887977cff80539f9ea8",
     "de920aaca2e6edc1de0d8b90317c4e30");
    ("vpr", "fb4a322b8eddd635919fc6387eb01f35",
     "dc389995774972660701e0b9fe61471f");
  ]

let test_pinned_keys () =
  let config = Ssp_machine.Config.scale_caches Ssp_machine.Config.in_order 64 in
  let hash = Ssp_store.Store.hash_program in
  List.iter2
    (fun (w : Ssp_workloads.Workload.t) (name, prog_hash, adapted_hash) ->
      Alcotest.(check string) "workload" name w.Ssp_workloads.Workload.name;
      let prog = Ssp_workloads.Workload.program w ~scale:1 in
      Alcotest.(check string) (name ^ ": program hash") prog_hash (hash prog);
      let profile = Collect.collect ~config prog in
      let adapted = (Ssp.Adapt.run ~config prog profile).Ssp.Adapt.prog in
      Alcotest.(check string)
        (name ^ ": adapted program hash") adapted_hash (hash adapted))
    Ssp_workloads.Suite.all pinned_keys

let suite =
  [
    Alcotest.test_case "block frequencies" `Quick test_block_freqs;
    Alcotest.test_case "branch bias" `Quick test_branch_bias;
    Alcotest.test_case "per-load cache stats" `Quick test_load_stats;
    Alcotest.test_case "call profile" `Quick test_call_profile;
    Alcotest.test_case "indirect call targets" `Quick test_indirect_call_profile;
    Alcotest.test_case "latency annotation" `Quick test_avg_latency_and_executed;
    Alcotest.test_case "empty block counts zero" `Quick test_empty_block_freq;
    Alcotest.test_case "profile bytes and spawning runs pinned" `Quick
      test_pinned;
    Alcotest.test_case "program keys pinned" `Quick test_pinned_keys;
  ]
