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
      let n = b.Profile.taken + b.Profile.not_taken in
      let r = float_of_int b.Profile.taken /. float_of_int n in
      if n > 1000 && (r > 0.9 || r < 0.1) then found := true)
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

let test_avg_latency_and_executed () =
  let p = profile_of pointer_program in
  let cfg = Ssp_machine.Config.in_order in
  (* An unknown load gets the L1 latency. *)
  let ghost = Ssp_ir.Iref.make "nowhere" 0 0 in
  Alcotest.(check int) "default latency" 2 (Profile.avg_load_latency p cfg ghost);
  Alcotest.(check bool) "executed blocks" true
    (Profile.executed p (Ssp_ir.Iref.make "walk" 0 0));
  let miss_cycles =
    Ssp_ir.Iref.Tbl.fold (fun _ s acc -> acc + s.Profile.miss_cycles)
      p.Profile.loads 0
  in
  Alcotest.(check bool) "miss cycles accumulate" true (miss_cycles > 0)

(* Profile bytes feed every adapted-artifact key ([Store.hash_profile])
   while [Store.profile_key] does not change with the collector, so a
   collector that drifted would silently fork the store. The digests, and
   the instruction and spawn counts of the adapted binaries run with
   spawning on, were recorded once and must not change. A digest covers
   the sealed blob, whose envelope carries [Store.format_version], so a
   format bump re-records them (formats 2 and 3 did; the payloads kept
   their bytes). Format 4 re-recorded them because the payload lost its
   per-call-site callee counts; the block, branch and load sections kept
   their bytes. *)
let pinned =
  [
    ("em3d", "3ba9587b1f1772a00affde7088aad0f8", 708165, 21325);
    ("health", "e4a556daaf6faee5a4c4d97781f0613b", 178507, 4640);
    ("mst", "915998f125dfd1fce2d6f7e01021bec7", 710884, 5776);
    ("treeadd.df", "161f99adc63cc0425e195660426a392f", 869719, 29523);
    ("treeadd.bf", "e4e3752b8184b9b6cd78893d0d9c56b6", 954361, 28816);
    ("mcf", "ab62bd22f4e25ce787f98bc0d56159a0", 211959, 1872);
    ("vpr", "74ada20a1977fd68616c4df47fc5bf83", 876403, 25553);
    ("gen:3", "1102233f17fdb329252779c3053f95e8", 186400, 1);
    ("gen:4", "d05e03ff513838556f004f3360e1b64e", 210760, 5841);
    ("gen:5", "a1cc4e1603a67f93a7e2d96d631d64d5", 124953, 1);
    ("gen:6", "8c11b26d130848443bb042e857d685bb", 222231, 7208);
    ("gen:7", "eedf29c94eaa1b6d01740e7032be5257", 455167, 14964);
    ("gen:8", "bc46435d7cc4d73cddbbd1b481f0b437", 227488, 6776);
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
    Alcotest.test_case "latency annotation" `Quick test_avg_latency_and_executed;
    Alcotest.test_case "empty block counts zero" `Quick test_empty_block_freq;
    Alcotest.test_case "profile bytes and spawning runs pinned" `Quick
      test_pinned;
    Alcotest.test_case "program keys pinned" `Quick test_pinned_keys;
  ]
