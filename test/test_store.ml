(* The artifact store: canonical round-trips for every artifact kind on
   every suite workload, rejection of truncated/bit-flipped blobs, and
   the cache's corruption-is-a-miss / LRU behaviour. *)

module Store = Ssp_store.Store
module Workload = Ssp_workloads.Workload
module Suite = Ssp_workloads.Suite

let config = Ssp_machine.Config.in_order

let program_of w = Workload.program w ~scale:Suite.test_scale

(* The store keeps a program only inside an adapted blob: this one
   carries [prog] with an empty report and prefetch map. *)
let carrying prog =
  {
    Store.prog;
    report =
      {
        Ssp.Report.slices = [];
        n_delinquent = 0;
        coverage = 0.;
        diagnostics = [];
      };
    prefetch_map = Ssp_ir.Iref.Map.empty;
  }

let encode_program prog = Store.encode_adapted (carrying prog)
let decode_program blob = (Store.decode_adapted blob).Store.prog

let raises_store_error f =
  match f () with
  | _ -> false
  | exception Ssp_ir.Error.Error _ -> true

(* encode -> decode -> encode must be byte-identical: the property the
   content-addressed keys rely on. *)
let roundtrip ~what encode decode blob =
  let decoded = decode blob in
  Alcotest.(check bool)
    (what ^ ": re-encoding is byte-identical")
    true
    (String.equal blob (encode decoded))

let test_program_roundtrip (w : Workload.t) () =
  let prog = program_of w in
  let blob = encode_program prog in
  roundtrip ~what:"program" encode_program decode_program blob;
  (* The decoded program is the same program: same functional outputs. *)
  let a = Ssp_sim.Funcsim.run prog in
  let b = Ssp_sim.Funcsim.run (decode_program blob) in
  Alcotest.(check (list int64))
    "decoded program computes the same outputs" a.Ssp_sim.Funcsim.outputs
    b.Ssp_sim.Funcsim.outputs

let test_profile_roundtrip (w : Workload.t) () =
  let prog = program_of w in
  let profile = Ssp_profiling.Collect.collect prog in
  let blob = Store.encode_profile profile in
  roundtrip ~what:"profile" Store.encode_profile Store.decode_profile blob

let test_report_and_adapted_roundtrip (w : Workload.t) () =
  let prog = program_of w in
  let profile = Ssp_profiling.Collect.collect prog in
  let result = Ssp.Adapt.run ~config prog profile in
  let adapted =
    {
      Store.prog = result.Ssp.Adapt.prog;
      report = result.Ssp.Adapt.report;
      prefetch_map = result.Ssp.Adapt.prefetch_map;
    }
  in
  let ablob = Store.encode_adapted adapted in
  roundtrip ~what:"report"
    (fun report -> Store.encode_adapted { adapted with Store.report })
    (fun blob -> (Store.decode_adapted blob).Store.report)
    ablob;
  roundtrip ~what:"adapted" Store.encode_adapted Store.decode_adapted ablob;
  let back = Store.decode_adapted ablob in
  Alcotest.(check bool)
    "adapted program text survives" true
    (String.equal
       (Ssp_ir.Asm.to_string result.Ssp.Adapt.prog)
       (Ssp_ir.Asm.to_string back.Store.prog))

let test_rejects_corruption () =
  let prog = program_of (Suite.find "em3d") in
  let profile = Ssp_profiling.Collect.collect prog in
  List.iter
    (fun (what, blob, decode) ->
      let len = String.length blob in
      (* Truncation at the magic, inside the header, mid-payload, and
         one byte short of complete. *)
      List.iter
        (fun cut ->
          Alcotest.(check bool)
            (Printf.sprintf "%s truncated at %d rejected" what cut)
            true
            (raises_store_error (fun () -> decode (String.sub blob 0 cut))))
        [ 0; 3; 7; len / 2; len - 1 ];
      (* A single flipped bit anywhere breaks either a header check or
         the content hash. *)
      List.iter
        (fun pos ->
          let b = Bytes.of_string blob in
          Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x40));
          let flipped = Bytes.to_string b in
          Alcotest.(check bool)
            (Printf.sprintf "%s bit-flipped at %d rejected" what pos)
            true
            (raises_store_error (fun () -> decode flipped)))
        [ 0; 5; 10; len / 2; len - 3 ])
    [
      ("adapted", encode_program prog, fun b -> ignore (decode_program b));
      ( "profile",
        Store.encode_profile profile,
        fun b -> ignore (Store.decode_profile b) );
    ];
  (* Kind confusion: a valid profile blob is not an adapted result. *)
  Alcotest.(check bool)
    "wrong artifact kind rejected" true
    (raises_store_error (fun () ->
         Store.decode_adapted (Store.encode_profile profile)))

let with_temp_cache ?max_bytes f =
  let dir = Filename.temp_dir "sspc_store_test" "" in
  f (Store.Cache.open_dir ?max_bytes dir)

let status_string = function `Hit -> "hit" | `Miss -> "miss" | `Off -> "off"

(* Length fields come off the wire: a value near [max_int] must fail
   the bounds check cleanly (structured store error), not overflow it
   into a String.sub crash; a count larger than the remaining payload
   must be rejected before anything is allocated for it. *)
let test_hostile_lengths () =
  let payload_with_int n rest =
    let b = Store.Bin.writer () in
    Store.Bin.w_int b n;
    Store.Bin.contents b ^ rest
  in
  List.iter
    (fun n ->
      let r = Store.Bin.reader (payload_with_int n "abc") in
      Alcotest.(check bool)
        (Printf.sprintf "r_str with length %d rejected" n)
        true
        (raises_store_error (fun () -> Store.Bin.r_str r)))
    [ max_int; max_int - 4; min_int; -1; 100 ];
  let r = Store.Bin.reader (payload_with_int 3 "abc") in
  Alcotest.(check string)
    "an honest length still reads" "abc" (Store.Bin.r_str r)

module Fb = Ssp_feedback.Feedback

(* Through the pipeline's one lookup path: the cold request misses, the
   warm one hits, and both serve the uncached run's text and report. *)
let test_adapt_hit_identical () =
  with_temp_cache @@ fun cache ->
  let prog = program_of (Suite.find "em3d") in
  let profile = Ssp_profiling.Collect.collect prog in
  let clean = Ssp.Adapt.run ~config prog profile in
  let report_blob (r : Ssp.Adapt.result) =
    Store.encode_adapted
      { (carrying prog) with Store.report = r.Ssp.Adapt.report }
  in
  let cold = Fb.adapt ~cache ~config prog in
  let warm = Fb.adapt ~cache ~config prog in
  Alcotest.(check string) "first lookup misses" "miss"
    (status_string cold.Fb.sv_status);
  Alcotest.(check string) "second lookup hits" "hit"
    (status_string warm.Fb.sv_status);
  List.iter
    (fun (what, (sv : Fb.served)) ->
      let r = Lazy.force sv.Fb.sv_result in
      Alcotest.(check bool)
        (what ^ " text byte-identical to the uncached run")
        true
        (String.equal
           (Ssp_ir.Asm.to_string clean.Ssp.Adapt.prog)
           sv.Fb.sv_text);
      Alcotest.(check bool)
        (what ^ " parsed program prints to the text")
        true
        (String.equal (Ssp_ir.Asm.to_string r.Ssp.Adapt.prog) sv.Fb.sv_text);
      Alcotest.(check bool)
        (what ^ " report identical")
        true
        (String.equal (report_blob clean) (report_blob r)
        && String.equal (report_blob clean)
             (Store.encode_adapted
                { (carrying prog) with Store.report = sv.Fb.sv_report })))
    [ ("cold", cold); ("warm", warm) ];
  Alcotest.(check bool)
    "hit re-identifies the delinquent loads" true
    (List.length
       (Lazy.force warm.Fb.sv_result).Ssp.Adapt.delinquent.Ssp.Delinquent.loads
    = List.length clean.Ssp.Adapt.delinquent.Ssp.Delinquent.loads)

let test_corrupt_entry_recomputes () =
  with_temp_cache @@ fun cache ->
  let prog = program_of (Suite.find "em3d") in
  let clean = Fb.adapt ~cache ~config prog in
  Alcotest.(check int) "the profile and the result cached" 2
    (Store.Cache.entry_count cache);
  (* Scribble over the middle of both published blobs. *)
  let dir = Store.Cache.dir cache in
  Array.iter
    (fun name ->
      if Filename.check_suffix name ".blob" then begin
        let path = Filename.concat dir name in
        let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
        ignore (Unix.lseek fd 40 Unix.SEEK_SET);
        ignore (Unix.write_substring fd "corrupted!" 0 10);
        Unix.close fd
      end)
    (Sys.readdir dir);
  let recomputed = Fb.adapt ~cache ~config prog in
  Alcotest.(check string) "corrupt entry is a miss" "miss"
    (status_string recomputed.Fb.sv_status);
  Alcotest.(check bool)
    "recomputed result identical to the clean run" true
    (String.equal clean.Fb.sv_text recomputed.Fb.sv_text);
  Alcotest.(check bool)
    "recollected profile identical to the clean run" true
    (String.equal
       (Store.encode_profile clean.Fb.sv_profile)
       (Store.encode_profile recomputed.Fb.sv_profile));
  Alcotest.(check string) "republished entry hits again" "hit"
    (status_string (Fb.adapt ~cache ~config prog).Fb.sv_status)

(* A request collects its profile once and stores it under the
   program-form key; the next request reads that entry instead of
   collecting (a doctored entry is what it serves), and no store means
   no entry and a fresh collection. *)
let test_profile_collected_once () =
  with_temp_cache @@ fun cache ->
  let prog = program_of (Suite.find "mst") in
  let direct = Ssp_profiling.Collect.collect prog in
  let key = Store.profile_key ~config prog in
  Alcotest.(check bool) "no profile before the first request" true
    (Store.Cache.find cache key = None);
  let cold = Fb.adapt ~cache ~config prog in
  let stored () =
    match Store.Cache.find cache key with
    | Some blob -> Store.decode_profile blob
    | None -> Alcotest.fail "profile missing under its program-form key"
  in
  let warm = Fb.adapt ~cache ~config prog in
  List.iter
    (fun p ->
      Alcotest.(check bool)
        "cached profile identical to a fresh collection" true
        (String.equal (Store.encode_profile direct) (Store.encode_profile p)))
    [ cold.Fb.sv_profile; warm.Fb.sv_profile; stored () ];
  let doctored = stored () in
  doctored.Ssp_profiling.Profile.total_instrs <-
    doctored.Ssp_profiling.Profile.total_instrs + 1;
  Store.Cache.put cache key (Store.encode_profile doctored);
  Alcotest.(check int) "a stored profile is read, not collected"
    (direct.Ssp_profiling.Profile.total_instrs + 1)
    (Fb.adapt ~cache ~config prog).Fb.sv_profile
      .Ssp_profiling.Profile.total_instrs;
  let off = Fb.adapt ~config prog in
  Alcotest.(check string) "no cache means off" "off"
    (status_string off.Fb.sv_status);
  Alcotest.(check bool) "off path still collects" true
    (String.equal (Store.encode_profile direct)
       (Store.encode_profile off.Fb.sv_profile))

let test_lru_eviction () =
  let blob n = String.make 1000 (Char.chr (Char.code 'a' + n)) in
  with_temp_cache ~max_bytes:2500 @@ fun cache ->
  for i = 0 to 4 do
    Store.Cache.put cache (Printf.sprintf "%032x" i) (blob i);
    (* mtime granularity: make the LRU order unambiguous *)
    Unix.sleepf 0.02
  done;
  Alcotest.(check bool)
    "size capped" true
    (Store.Cache.size_bytes cache <= 2500);
  Alcotest.(check int) "oldest entries evicted" 2
    (Store.Cache.entry_count cache);
  Alcotest.(check bool)
    "most recent entry survives" true
    (Store.Cache.find cache (Printf.sprintf "%032x" 4) <> None);
  Alcotest.(check bool)
    "oldest entry evicted" true
    (Store.Cache.find cache (Printf.sprintf "%032x" 0) = None)

(* A put reads no other entry: the cache keeps its byte total and entry
   count, and both must equal what the directory holds after every
   operation that changes it through the handle — a put, a put that
   replaces an entry with one of another size, a removal, a corrupt
   entry dropped by [get], an eviction — and after the scans that reset
   them: [open_dir] and [fsck], which also pick up another writer's
   entries. *)
let test_byte_total () =
  with_temp_cache ~max_bytes:6000 @@ fun cache ->
  let dir = Store.Cache.dir cache in
  let blobs () =
    List.filter
      (fun name -> Filename.check_suffix name ".blob")
      (Array.to_list (Sys.readdir dir))
  in
  let on_disk () =
    List.fold_left
      (fun acc name ->
        acc + (Unix.stat (Filename.concat dir name)).Unix.st_size)
      0 (blobs ())
  in
  let check what =
    Alcotest.(check int) what (on_disk ()) (Store.Cache.size_bytes cache);
    Alcotest.(check int) (what ^ ": entry count")
      (List.length (blobs ()))
      (Store.Cache.entry_count cache)
  in
  let key i = Printf.sprintf "%032x" i in
  let blob n = String.make n 'x' in
  check "empty";
  Store.Cache.put cache (key 1) (blob 1000);
  Store.Cache.put cache (key 2) (blob 2000);
  check "two puts";
  Alcotest.(check int) "the total is the two blobs" 3000
    (Store.Cache.size_bytes cache);
  Store.Cache.put cache (key 1) (blob 500);
  check "a put replacing an entry with a smaller one";
  Store.Cache.remove cache (key 2);
  Store.Cache.remove cache (key 2);
  check "a removal, then a removal of nothing";
  Store.Cache.put cache (key 3) (blob 700);
  Alcotest.(check bool) "an undecodable entry is a miss" true
    (Store.Cache.get cache (key 3) ~decode:Store.decode_profile = None);
  check "a corrupt entry dropped by get";
  for i = 4 to 9 do
    Store.Cache.put cache (key i) (blob 1500);
    Unix.sleepf 0.02
  done;
  Alcotest.(check bool) "puts over the cap evicted" true
    (Store.Cache.evictions cache > 0);
  check "eviction";
  Alcotest.(check bool) "within the cap" true
    (Store.Cache.size_bytes cache <= 6000);
  (* Another writer's entry is counted at the next scan. *)
  let other = Store.encode_profile (Ssp_profiling.Profile.create ()) in
  let oc = open_out_bin (Filename.concat dir (key 10 ^ ".blob")) in
  output_string oc other;
  close_out oc;
  let reopened = Store.Cache.open_dir dir in
  Alcotest.(check int) "a reopened handle counts it"
    (on_disk ())
    (Store.Cache.size_bytes reopened);
  Alcotest.(check int) "a reopened handle counts its entry"
    (List.length (blobs ()))
    (Store.Cache.entry_count reopened);
  ignore (Store.Cache.fsck cache);
  check "fsck"

(* Only a use refreshes an entry's LRU age. A store scan (the feedback
   tuner's walk for persisted reports) reads every entry through [find]
   and must leave their ages alone, or every tuning round would reset
   the order eviction relies on; a decoded [get] hit marks its entry as
   just used. *)
let test_scan_keeps_lru_age () =
  with_temp_cache @@ fun cache ->
  let module Fb = Ssp_feedback.Feedback in
  let report cycles =
    Fb.encode_report
      {
        Fb.fr_prog = Suite.Workload "mcf";
        fr_scale = 2;
        fr_pipeline = "inorder";
        fr_version = 0;
        fr_cycles = cycles;
        fr_loads = [];
      }
  in
  let blobs = [ report 1; report 2 ] in
  let keys = List.map Fb.report_store_key blobs in
  List.iter2 (Store.Cache.put cache) keys blobs;
  let day = 86_400. in
  let aged = Unix.gettimeofday () -. day in
  let path key = Filename.concat (Store.Cache.dir cache) (key ^ ".blob") in
  List.iter (fun key -> Unix.utimes (path key) aged aged) keys;
  let age key = Unix.gettimeofday () -. (Unix.stat (path key)).Unix.st_mtime in
  Alcotest.(check int) "the scan finds both reports" 2
    (List.length (Fb.reports_in_store cache));
  List.iter (fun key -> ignore (Store.Cache.find cache key)) keys;
  List.iter
    (fun key ->
      Alcotest.(check bool) "a scan leaves the age alone" true
        (age key > day -. 60.))
    keys;
  let hit = List.hd keys in
  Alcotest.(check bool) "get hits" true
    (Store.Cache.get cache hit ~decode:Fb.decode_report <> None);
  Alcotest.(check bool) "a get hit refreshes the entry" true (age hit < 60.);
  Alcotest.(check bool) "the other entry stays old" true
    (age (List.nth keys 1) > day -. 60.)

(* ---- crash safety: kill -9 at every step of [put] ---- *)

module F = Ssp_fault.Fault

let tmp_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun n ->
         String.length n >= 5 && String.equal (String.sub n 0 5) ".tmp.")

(* A writer dying at [site] mid-[put] must leave the store readable:
   the key is a clean miss (no partial bytes ever visible), the orphan
   tmp is on disk but invisible, the sweep reclaims it, and a retried
   put publishes normally. This is the same guarantee a real kill -9
   gets, because the sites stop the writer exactly where the kernel
   would. *)
let test_crash_during_put site () =
  with_temp_cache @@ fun cache ->
  let dir = Store.Cache.dir cache in
  let key = String.make 32 'a' in
  let prog = program_of (Suite.find "em3d") in
  let blob = encode_program prog in
  F.with_plan (F.make ~seed:7 [ (site, F.spec ~limit:1 1.0) ]) (fun () ->
      Store.Cache.put cache key blob);
  Alcotest.(check bool)
    (site ^ ": crashed put is a clean miss")
    true
    (Store.Cache.find cache key = None);
  (* A concurrent reader racing the corpse sees a miss, never an error
     or partial bytes. *)
  Alcotest.(check bool)
    (site ^ ": get through decode never errors")
    true
    (Store.Cache.get cache key ~decode:Store.decode_adapted = None);
  Alcotest.(check int)
    (site ^ ": exactly one orphaned tmp left behind")
    1
    (List.length (tmp_files dir));
  Alcotest.(check int)
    (site ^ ": sweep reclaims the orphan")
    1
    (Store.Cache.sweep ~grace_s:0. cache);
  Alcotest.(check int)
    (site ^ ": no tmp survives the sweep")
    0
    (List.length (tmp_files dir));
  (* The writer restarts: the same put now publishes, byte-identical. *)
  Store.Cache.put cache key blob;
  Alcotest.(check bool)
    (site ^ ": retried put publishes the full blob")
    true
    (match Store.Cache.find cache key with
    | Some b -> String.equal b blob
    | None -> false)

(* open_dir's startup sweep: stale orphans (older than the grace) are
   reclaimed, an in-flight writer's young tmp is left alone. *)
let test_startup_sweep () =
  let dir = Filename.temp_dir "sspc_store_test" "" in
  let write name =
    let oc = open_out_bin (Filename.concat dir name) in
    output_string oc "orphan";
    close_out oc
  in
  write ".tmp.1.0.stale";
  (let old = Unix.gettimeofday () -. 3600. in
   Unix.utimes (Filename.concat dir ".tmp.1.0.stale") old old);
  write ".tmp.2.0.young";
  let cache = Store.Cache.open_dir dir in
  let left = tmp_files dir in
  Alcotest.(check (list string))
    "startup sweep removes the stale orphan, spares the live writer"
    [ ".tmp.2.0.young" ] left;
  Alcotest.(check int) "explicit zero-grace sweep takes the rest" 1
    (Store.Cache.sweep ~grace_s:0. cache)

let test_fsck () =
  with_temp_cache @@ fun cache ->
  let dir = Store.Cache.dir cache in
  let prog = program_of (Suite.find "em3d") in
  let good1 = encode_program prog in
  let good2 = Store.encode_profile (Ssp_profiling.Collect.collect prog) in
  Store.Cache.put cache (String.make 32 'a') good1;
  Store.Cache.put cache (String.make 32 'b') good2;
  (* A truncated entry (crash between rename and a torn disk, or plain
     bit rot): published under a real name but failing its envelope. *)
  let oc = open_out_bin (Filename.concat dir (String.make 32 'c' ^ ".blob")) in
  output_string oc (String.sub good1 0 (String.length good1 / 2));
  close_out oc;
  let oc = open_out_bin (Filename.concat dir ".tmp.9.9.orphan") in
  output_string oc "dead writer";
  close_out oc;
  let r = Store.Cache.fsck cache in
  Alcotest.(check int) "fsck scanned all entries" 3 r.Store.Cache.scanned;
  Alcotest.(check int) "fsck kept the valid entries" 2 r.Store.Cache.valid;
  Alcotest.(check int) "fsck removed the corrupt entry" 1
    r.Store.Cache.corrupt_removed;
  Alcotest.(check int) "fsck swept the orphan" 1 r.Store.Cache.tmp_removed;
  Alcotest.(check int)
    "fsck accounted the surviving bytes"
    (String.length good1 + String.length good2)
    r.Store.Cache.valid_bytes;
  (* Idempotence: a clean store fscks clean. *)
  let r2 = Store.Cache.fsck cache in
  Alcotest.(check int) "second fsck finds nothing corrupt" 0
    r2.Store.Cache.corrupt_removed;
  Alcotest.(check int) "second fsck finds no orphans" 0
    r2.Store.Cache.tmp_removed;
  Alcotest.(check int) "second fsck still sees both entries" 2
    r2.Store.Cache.valid;
  (* The valid entries still read back whole. *)
  Alcotest.(check bool)
    "valid entry unharmed by fsck" true
    (match Store.Cache.find cache (String.make 32 'a') with
    | Some b -> String.equal b good1
    | None -> false)

(* A hit serves the stored text unparsed: on every kernel and three
   generated programs, the hit's text is the miss's, and the result the
   hit parses on demand prints to those bytes and carries the same
   report. *)
let test_hit_serves_stored_text () =
  let config = Ssp_machine.Config.scale_caches config 64 in
  let report_text r = Format.asprintf "%a" Ssp.Report.pp r in
  List.iter
    (fun (w : Workload.t) ->
      with_temp_cache @@ fun cache ->
      let name = w.Workload.name in
      let prog = Workload.program w ~scale:1 in
      let m = Fb.adapt ~cache ~config prog in
      let h = Fb.adapt ~cache ~config prog in
      Alcotest.(check string) (name ^ ": cold misses") "miss"
        (status_string m.Fb.sv_status);
      Alcotest.(check string) (name ^ ": warm hits") "hit"
        (status_string h.Fb.sv_status);
      Alcotest.(check bool) (name ^ ": hit text is the miss text") true
        (String.equal m.Fb.sv_text h.Fb.sv_text);
      let parsed = Lazy.force h.Fb.sv_result in
      Alcotest.(check bool)
        (name ^ ": parsed hit prints to the text")
        true
        (String.equal
           (Ssp_ir.Asm.to_string parsed.Ssp.Adapt.prog)
           h.Fb.sv_text);
      Alcotest.(check string) (name ^ ": hit report")
        (report_text m.Fb.sv_report) (report_text h.Fb.sv_report);
      Alcotest.(check string) (name ^ ": parsed hit report")
        (report_text m.Fb.sv_report) (report_text parsed.Ssp.Adapt.report))
    (Suite.all @ Suite.corpus ~n:3 ~seed:11)

let per_workload name f =
  List.map
    (fun (w : Workload.t) ->
      Alcotest.test_case
        (Printf.sprintf "%s %s" w.Workload.name name)
        `Quick (f w))
    Suite.all

let suite =
  per_workload "program round-trip" test_program_roundtrip
  @ per_workload "profile round-trip" test_profile_roundtrip
  @ per_workload "report+adapted round-trip" test_report_and_adapted_roundtrip
  @ [
      Alcotest.test_case "corruption rejected" `Quick test_rejects_corruption;
      Alcotest.test_case "hostile length fields rejected" `Quick
        test_hostile_lengths;
      Alcotest.test_case "an adapt hit is byte-identical" `Quick
        test_adapt_hit_identical;
      Alcotest.test_case "a hit serves the miss's text" `Quick
        test_hit_serves_stored_text;
      Alcotest.test_case "corrupt cache entry recomputes" `Quick
        test_corrupt_entry_recomputes;
      Alcotest.test_case "a profile is collected once, then read" `Quick
        test_profile_collected_once;
      Alcotest.test_case "LRU eviction" `Quick test_lru_eviction;
      Alcotest.test_case "byte total follows every change" `Quick
        test_byte_total;
      Alcotest.test_case "LRU: a get hit refreshes, a scan does not" `Quick
        test_scan_keeps_lru_age;
      Alcotest.test_case "crash at tmp open leaves store clean" `Quick
        (test_crash_during_put "store.put.crash_tmp_open");
      Alcotest.test_case "crash mid-write leaves store clean" `Quick
        (test_crash_during_put "store.put.crash_partial_write");
      Alcotest.test_case "crash before rename leaves store clean" `Quick
        (test_crash_during_put "store.put.crash_pre_rename");
      Alcotest.test_case "startup sweep honors the grace period" `Quick
        test_startup_sweep;
      Alcotest.test_case "fsck verifies, GCs, and is idempotent" `Quick
        test_fsck;
    ]
