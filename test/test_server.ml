(* The adaptation daemon, hosted in-process on a thread: served replies
   must be byte-identical to the offline pipeline, a warm cache must
   hit, and chaos clients (malformed frames, oversized frames,
   mid-request disconnects) must get structured errors — or lose only
   their own connection — while the daemon keeps serving. *)

module Server = Ssp_server.Server
module Client = Ssp_server.Client
module Proto = Ssp_server.Proto
module Store = Ssp_store.Store
module Suite = Ssp_workloads.Suite
module Workload = Ssp_workloads.Workload

let scale = Suite.test_scale
let config = Ssp_machine.Config.in_order

let wait_for_socket socket =
  let rec go tries =
    if tries = 0 then Alcotest.fail "server socket never came up";
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | () -> Unix.close fd
    | exception Unix.Unix_error _ ->
      Unix.close fd;
      Thread.delay 0.05;
      go (tries - 1)
  in
  go 100

let with_server ?(jobs = 2) ?(with_cache = true) ?cache_max_bytes
    ?(timeout_s = 60.) ?(max_batch = 32) ?(max_queue = 256) ?(tune = false) f =
  let dir = Filename.temp_dir "sspc_server_test" "" in
  let socket = Filename.concat dir "d.sock" in
  let cache =
    if with_cache then
      Some
        (Store.Cache.open_dir ?max_bytes:cache_max_bytes
           (Filename.concat dir "cache"))
    else None
  in
  let cfg =
    {
      Server.socket = Some socket;
      tcp = None;
      jobs;
      cache;
      max_frame = Proto.default_max_frame;
      timeout_s;
      max_batch;
      max_queue;
      retry_after_s = 0.05;
      tune;
    }
  in
  let th = Thread.create Server.serve cfg in
  wait_for_socket socket;
  let shut () =
    (try ignore (Client.request ~socket Proto.Shutdown)
     with Unix.Unix_error _ | Ssp_ir.Error.Error _ -> ());
    Thread.join th
  in
  Fun.protect ~finally:shut (fun () -> f socket)

let offline_adapt name =
  let prog = Workload.program (Suite.find name) ~scale in
  let profile = Ssp_profiling.Collect.collect prog in
  let result = Ssp.Adapt.run ~config prog profile in
  ( Format.asprintf "%a@." Ssp.Report.pp result.Ssp.Adapt.report,
    Format.asprintf "%a@." Ssp_ir.Asm.print result.Ssp.Adapt.prog )

let adapt_req ?(tenant = Proto.default_tenant) name =
  Proto.Adapt { prog = Proto.Workload name; scale; pipeline = "inorder"; tenant }

let expect_adapted = function
  | Proto.Adapted { report; asm; cache } -> (report, asm, cache)
  | Proto.Error_reply { pass; what; _ } ->
    Alcotest.fail (Printf.sprintf "server error [%s]: %s" pass what)
  | _ -> Alcotest.fail "expected an Adapted reply"

let test_adapt_cold_warm_identical () =
  with_server @@ fun socket ->
  let exp_report, exp_asm = offline_adapt "em3d" in
  let r1, a1, c1 = expect_adapted (Client.request ~socket (adapt_req "em3d")) in
  let r2, a2, c2 = expect_adapted (Client.request ~socket (adapt_req "em3d")) in
  Alcotest.(check string) "cold request misses" "miss" c1;
  Alcotest.(check string) "warm request hits" "hit" c2;
  Alcotest.(check bool) "cold report matches offline" true
    (String.equal exp_report r1);
  Alcotest.(check bool) "cold asm matches offline" true
    (String.equal exp_asm a1);
  Alcotest.(check bool) "warm report identical" true (String.equal r1 r2);
  Alcotest.(check bool) "warm asm identical" true (String.equal a1 a2)

let test_no_cache_serves_off () =
  with_server ~with_cache:false @@ fun socket ->
  let _, _, c = expect_adapted (Client.request ~socket (adapt_req "em3d")) in
  Alcotest.(check string) "cacheless server reports off" "off" c

let test_sim_matches_offline () =
  with_server @@ fun socket ->
  let prog = Workload.program (Suite.find "em3d") ~scale in
  let expected =
    Format.asprintf "%a@." Ssp_sim.Stats.pp (Ssp_sim.Inorder.run config prog)
  in
  match
    Client.request ~socket
      (Proto.Sim
         { prog = Proto.Workload "em3d"; scale; pipeline = "inorder";
           ssp = false; tenant = Proto.default_tenant })
  with
  | Proto.Simmed { stats } ->
    Alcotest.(check bool) "sim stats match offline" true
      (String.equal expected stats)
  | _ -> Alcotest.fail "expected a Simmed reply"

let test_stats_and_errors () =
  with_server @@ fun socket ->
  (match Client.request ~socket Proto.Stats with
  | Proto.Stats_reply _ -> ()
  | _ -> Alcotest.fail "expected a Stats reply");
  (match Client.request ~socket (adapt_req "no-such-workload") with
  | Proto.Error_reply { pass; _ } ->
    Alcotest.(check string) "unknown workload is a server error" "server" pass
  | _ -> Alcotest.fail "expected an error for an unknown workload");
  List.iter
    (fun req ->
      match Client.request ~socket req with
      | Proto.Error_reply { pass; _ } ->
        Alcotest.(check string) "unknown pipeline is a server error" "server"
          pass
      | _ -> Alcotest.fail "expected an error for an unknown pipeline")
    [
      Proto.Adapt
        { prog = Proto.Workload "em3d"; scale; pipeline = "oo";
          tenant = Proto.default_tenant };
      Proto.Sim
        { prog = Proto.Workload "em3d"; scale; pipeline = "oo"; ssp = false;
          tenant = Proto.default_tenant };
    ];
  match
    Client.request ~socket
      (Proto.Adapt
         { prog = Proto.Source "int main( {"; scale; pipeline = "inorder";
           tenant = Proto.default_tenant })
  with
  | Proto.Error_reply { pass; _ } ->
    Alcotest.(check string) "bad source is a frontend error" "frontend" pass
  | _ -> Alcotest.fail "expected an error for unparsable source"

(* ---- chaos clients ---- *)

let raw_connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  fd

let test_malformed_frame () =
  with_server @@ fun socket ->
  let fd = raw_connect socket in
  (* A well-framed payload of garbage: decoding must fail structurally. *)
  Proto.write_frame fd "this is not a request";
  (match Proto.read_frame fd with
  | Some payload -> (
    match Proto.decode_response payload with
    | Proto.Error_reply _ -> ()
    | _ -> Alcotest.fail "expected an error reply to garbage")
  | None -> Alcotest.fail "server closed without replying");
  Unix.close fd;
  (* The daemon survived. *)
  let _, _, _ = expect_adapted (Client.request ~socket (adapt_req "em3d")) in
  ()

let test_oversized_frame () =
  with_server @@ fun socket ->
  let fd = raw_connect socket in
  (* Only the 4-byte header, declaring an absurd length. *)
  let b = Buffer.create 4 in
  Buffer.add_int32_be b (Int32.of_int (Proto.default_max_frame + 1));
  let n = Unix.write_substring fd (Buffer.contents b) 0 4 in
  Alcotest.(check int) "header sent" 4 n;
  (match Proto.read_frame fd with
  | Some payload -> (
    match Proto.decode_response payload with
    | Proto.Error_reply { pass; _ } ->
      Alcotest.(check string) "oversized frame is a proto error" "proto" pass
    | _ -> Alcotest.fail "expected an error reply to an oversized frame")
  | None -> Alcotest.fail "server closed without replying");
  Unix.close fd;
  let _, _, _ = expect_adapted (Client.request ~socket (adapt_req "em3d")) in
  ()

let test_hostile_length_field () =
  with_server @@ fun socket ->
  let fd = raw_connect socket in
  (* A well-framed Adapt request whose workload-name length is near
     max_int: the bounds check must fail structurally, not overflow into
     a crash that kills the daemon. *)
  let b = Store.Bin.writer () in
  Store.Bin.w_str b "SSPQ";
  Store.Bin.w_u8 b Proto.proto_version;
  Store.Bin.w_u8 b 1 (* Adapt *);
  Store.Bin.w_u8 b 0 (* Workload *);
  Store.Bin.w_int b (max_int - 4);
  Proto.write_frame fd (Store.Bin.contents b);
  (match Proto.read_frame fd with
  | Some payload -> (
    match Proto.decode_response payload with
    | Proto.Error_reply { pass; _ } ->
      Alcotest.(check string) "hostile length is a store error" "store" pass
    | _ -> Alcotest.fail "expected an error reply to a hostile length")
  | None -> Alcotest.fail "server closed without replying");
  Unix.close fd;
  let _, _, _ = expect_adapted (Client.request ~socket (adapt_req "em3d")) in
  ()

let test_non_draining_peer () =
  with_server @@ fun socket ->
  (* Pipeline many adapt requests and never read a byte: the replies
     overrun the socket buffer, and must park in the server's per-conn
     output buffer instead of wedging the select loop. *)
  let stalled = raw_connect socket in
  let req = Proto.frame (Proto.encode_request (adapt_req "em3d")) in
  for _ = 1 to 40 do
    ignore (Unix.write_substring stalled req 0 (String.length req))
  done;
  (* Other clients must still be served while the stalled peer sits on
     its unread replies. *)
  let _, _, _ = expect_adapted (Client.request ~socket (adapt_req "mst")) in
  let _, _, _ = expect_adapted (Client.request ~socket (adapt_req "mst")) in
  Unix.close stalled;
  let _, _, _ = expect_adapted (Client.request ~socket (adapt_req "em3d")) in
  ()

let test_mid_request_disconnect () =
  with_server @@ fun socket ->
  let fd = raw_connect socket in
  (* Declare 100 payload bytes, deliver 10, vanish. *)
  let b = Buffer.create 16 in
  Buffer.add_int32_be b 100l;
  Buffer.add_string b "partialpay";
  ignore (Unix.write_substring fd (Buffer.contents b) 0 (Buffer.length b));
  Unix.close fd;
  (* The daemon shrugs and keeps serving. *)
  let _, _, _ = expect_adapted (Client.request ~socket (adapt_req "em3d")) in
  ()

let test_partial_frame_times_out () =
  with_server ~timeout_s:0.2 @@ fun socket ->
  let fd = raw_connect socket in
  let b = Buffer.create 16 in
  Buffer.add_int32_be b 100l;
  Buffer.add_string b "stalled";
  ignore (Unix.write_substring fd (Buffer.contents b) 0 (Buffer.length b));
  (* Don't finish the frame; the server's sweep must reply with a
     structured timeout (its select tick is 1s). *)
  (match Proto.read_frame fd with
  | Some payload -> (
    match Proto.decode_response payload with
    | Proto.Error_reply { pass; what; _ } ->
      Alcotest.(check string) "timeout is a server error" "server" pass;
      Alcotest.(check bool) "mentions the timeout" true
        (String.length what > 0)
    | _ -> Alcotest.fail "expected a timeout error reply")
  | None -> Alcotest.fail "server closed without replying");
  Unix.close fd

let test_concurrent_clients () =
  with_server ~jobs:2 @@ fun socket ->
  let results = Array.make 4 None in
  let threads =
    List.init 4 (fun i ->
        Thread.create
          (fun () ->
            let name = if i mod 2 = 0 then "em3d" else "mst" in
            results.(i) <- Some (Client.request ~socket (adapt_req name)))
          ())
  in
  List.iter Thread.join threads;
  Array.iteri
    (fun i r ->
      match r with
      | Some (Proto.Adapted _) -> ()
      | Some (Proto.Error_reply { pass; what; _ }) ->
        Alcotest.fail
          (Printf.sprintf "client %d got server error [%s]: %s" i pass what)
      | _ -> Alcotest.fail (Printf.sprintf "client %d got no reply" i))
    results

(* ---- admission control ---- *)

module Admission = Ssp_server.Admission

let test_drr_fairness () =
  (* A hot tenant with 100 queued requests must not starve a light one:
     deficit round-robin alternates, so a round of 6 takes 3 from each. *)
  let adm = Admission.create () in
  for i = 1 to 100 do
    Admission.enqueue adm ~tenant:"hot" (Printf.sprintf "hot-%d" i)
  done;
  for i = 1 to 3 do
    Admission.enqueue adm ~tenant:"light" (Printf.sprintf "light-%d" i)
  done;
  let round = Admission.select adm ~max:6 in
  let count t = List.length (List.filter (fun (t', _) -> t' = t) round) in
  Alcotest.(check int) "round size" 6 (List.length round);
  Alcotest.(check int) "hot tenant share" 3 (count "hot");
  Alcotest.(check int) "light tenant share" 3 (count "light");
  Alcotest.(check int) "backlog accounts the round" 97 (Admission.backlog adm);
  (* The light tenant drains; the hot one keeps the whole next round. *)
  let round2 = Admission.select adm ~max:4 in
  Alcotest.(check int) "drained tenant leaves the rotation" 4
    (List.length (List.filter (fun (t, _) -> t = "hot") round2))

let test_drr_order_within_tenant () =
  let adm = Admission.create () in
  List.iter (fun x -> Admission.enqueue adm ~tenant:"t" x) [ "a"; "b"; "c" ];
  Alcotest.(check (list string))
    "FIFO within a tenant" [ "a"; "b"; "c" ]
    (List.map snd (Admission.select adm ~max:10))

let test_saturation_busy_reply () =
  (* With a backlog bound of 2, pipelining many requests on one
     connection must produce at least one Busy_reply — and every
     non-busy reply must still carry the right bytes. *)
  with_server ~jobs:1 ~max_batch:1 ~max_queue:2 @@ fun socket ->
  let exp_report, exp_asm = offline_adapt "em3d" in
  let fd = raw_connect socket in
  let req = Proto.frame (Proto.encode_request (adapt_req "em3d")) in
  let n = 10 in
  for _ = 1 to n do
    ignore (Unix.write_substring fd req 0 (String.length req))
  done;
  let busy = ref 0 and served = ref 0 in
  for _ = 1 to n do
    match Proto.read_frame fd with
    | None -> Alcotest.fail "server closed mid-pipeline"
    | Some payload -> (
      match Proto.decode_response payload with
      | Proto.Busy_reply { retry_after_s } ->
        incr busy;
        Alcotest.(check bool) "retry-after hint is positive" true
          (retry_after_s > 0.)
      | Proto.Adapted { report; asm; cache = _ } ->
        incr served;
        Alcotest.(check bool) "served bytes identical under pressure" true
          (String.equal exp_report report && String.equal exp_asm asm)
      | _ -> Alcotest.fail "unexpected reply under saturation")
  done;
  Unix.close fd;
  Alcotest.(check int) "every request answered" n (!busy + !served);
  Alcotest.(check bool) "saturation produced rejections" true (!busy > 0);
  Alcotest.(check bool) "some requests were still served" true (!served > 0)

let test_reject_all_when_queue_zero () =
  with_server ~max_queue:0 @@ fun socket ->
  match Client.request ~socket (adapt_req "em3d") with
  | Proto.Busy_reply _ -> ()
  | _ -> Alcotest.fail "max_queue=0 must reject all work"

(* ---- v3 trace plane + snapshot stats plane ---- *)

module T = Ssp_telemetry.Telemetry
module Snapshot = Ssp_server.Snapshot
module Bin = Store.Bin
module Fb = Ssp_feedback.Feedback

(* Telemetry is process-global; scope it tightly so the other suites in
   this binary keep seeing it off. *)
let with_telemetry f () =
  T.reset ();
  T.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      T.set_enabled false;
      T.reset ())
    f

let rejected what payload decode =
  match decode payload with
  | _ -> Alcotest.failf "%s accepted" what
  | exception Ssp_ir.Error.Error _ -> ()

(* Decoders accept exactly [proto_version]: every peer ships from this
   repository. Hand-built payloads of older versions are structured
   errors. *)
let test_proto_one_version () =
  let payload magic v tag =
    let b = Bin.writer () in
    Bin.w_str b magic;
    Bin.w_u8 b v;
    Bin.w_u8 b tag;
    Bin.contents b
  in
  (* v2 carried no envelope between the version byte and the tag *)
  rejected "v2 request" (payload "SSPQ" 2 3) Proto.decode_request_env;
  rejected "v2 response" (payload "SSPR" 2 4) Proto.decode_response_env;
  rejected "v1 request" (payload "SSPQ" 1 3) Proto.decode_request_env;
  (* a version-1 snapshot (it carried a dists list) is a snapshot error *)
  let b = Bin.writer () in
  Bin.w_str b "SSPS";
  Bin.w_u8 b 1;
  Bin.w_str b "s1";
  (* empty counters, gauges, dists and hists; no dropped events *)
  for _ = 1 to 5 do
    Bin.w_int b 0
  done;
  (match Snapshot.decode (Bin.contents b) with
  | _ -> Alcotest.fail "v1 snapshot accepted"
  | exception Ssp_ir.Error.Error e ->
    Alcotest.(check string) "snapshot pass" "snapshot" e.Ssp_ir.Error.pass);
  (* so is a version-2 one (its own counter and histogram lists, no
     spans), and a version-5 request (its Stats reply was text) *)
  let b = Bin.writer () in
  Bin.w_str b "SSPS";
  Bin.w_u8 b 2;
  Bin.w_str b "s1";
  (* empty counters, gauges and hists; no dropped events *)
  for _ = 1 to 4 do
    Bin.w_int b 0
  done;
  (match Snapshot.decode (Bin.contents b) with
  | _ -> Alcotest.fail "v2 snapshot accepted"
  | exception Ssp_ir.Error.Error e ->
    Alcotest.(check string) "v2 snapshot pass" "snapshot" e.Ssp_ir.Error.pass);
  rejected "v5 request" (payload "SSPQ" 5 3) Proto.decode_request_env;
  (* the trace context and the breakdown round-trip *)
  let ctx = { Proto.trace_id = "cafe01"; span_id = 7 } in
  let req', { Proto.re_trace = trace'; _ } =
    Proto.decode_request_env (Proto.encode_request ~trace:ctx (adapt_req "em3d"))
  in
  (match req' with
  | Proto.Adapt { tenant; _ } ->
    Alcotest.(check string) "body survives the envelope" Proto.default_tenant
      tenant
  | _ -> Alcotest.fail "traced request body misdecoded");
  (match trace' with
  | Some c ->
    Alcotest.(check string) "trace id" "cafe01" c.Proto.trace_id;
    Alcotest.(check int) "span id" 7 c.Proto.span_id
  | None -> Alcotest.fail "trace context dropped");
  Alcotest.(check bool) "untraced request decodes as None" true
    ((snd (Proto.decode_request_env (Proto.encode_request Proto.Stats)))
       .Proto.re_trace = None);
  let hops =
    [
      { Proto.hop_node = "s1"; hop_stage = "queue"; hop_ms = 1.25 };
      { Proto.hop_node = "s1"; hop_stage = "compute"; hop_ms = 40.5 };
    ]
  in
  let resp', hops', _ =
    Proto.decode_response_env (Proto.encode_response ~hops Proto.Ok_reply)
  in
  (match resp' with
  | Proto.Ok_reply -> ()
  | _ -> Alcotest.fail "response body misdecoded");
  Alcotest.(check int) "hops round-trip" 2 (List.length hops');
  List.iter2
    (fun a b ->
      Alcotest.(check string) "node" a.Proto.hop_node b.Proto.hop_node;
      Alcotest.(check string) "stage" a.Proto.hop_stage b.Proto.hop_stage;
      Alcotest.(check (float 1e-9)) "ms" a.Proto.hop_ms b.Proto.hop_ms)
    hops hops'

(* A v4 payload (the same envelope, no Feedback tag) is a structured
   error too; the Feedback request round-trips. *)
let test_proto_v4_rejected () =
  let b = Bin.writer () in
  Bin.w_str b "SSPQ";
  Bin.w_u8 b 4;
  (* v4 envelope: trace, deadline, artifact ask *)
  Bin.w_str b "";
  Bin.w_int b 0;
  Bin.w_float b 125.;
  Bin.w_u8 b Proto.artifacts_on_miss;
  Bin.w_u8 b 3;
  (* Stats *)
  rejected "v4 request" (Bin.contents b) Proto.decode_request_env;
  let b = Bin.writer () in
  Bin.w_str b "SSPR";
  Bin.w_u8 b 4;
  Bin.w_int b 0;
  (* no hops *)
  Bin.w_int b 0;
  (* no artifacts *)
  Bin.w_u8 b 4;
  (* Ok *)
  rejected "v4 response" (Bin.contents b) Proto.decode_response_env;
  (* The Feedback request round-trips with its workload identity intact
     (the router hashes it for shard affinity). *)
  let req =
    Proto.Feedback
      {
        prog = Proto.Workload "em3d";
        scale = 3;
        pipeline = "inorder";
        tenant = "fleet";
        blob = "sealed-bytes";
      }
  in
  match Proto.decode_request_env (Proto.encode_request req) with
  | Proto.Feedback { prog = Proto.Workload w; scale; pipeline; tenant; blob }, _
    ->
    Alcotest.(check string) "workload" "em3d" w;
    Alcotest.(check int) "scale" 3 scale;
    Alcotest.(check string) "pipeline" "inorder" pipeline;
    Alcotest.(check string) "tenant" "fleet" tenant;
    Alcotest.(check string) "blob" "sealed-bytes" blob
  | _ -> Alcotest.fail "Feedback request misdecoded"

let feedback_req blob =
  Proto.Feedback
    {
      prog = Proto.Workload "em3d";
      scale;
      pipeline = "inorder";
      tenant = Proto.default_tenant;
      blob;
    }

let synthetic_report i =
  {
    Fb.fr_prog = Suite.Workload "em3d";
    fr_scale = scale;
    fr_pipeline = "inorder";
    fr_version = 0;
    fr_cycles = 1000 + i;
    fr_loads =
      [
        {
          Fb.fl_load = Ssp_ir.Iref.make "walk" 0 0;
          fl_issued = 0;
          fl_useful = 0;
          fl_late = 0;
          fl_early_evicted = 0;
          fl_redundant = 1000;
          fl_dropped = 0;
          fl_unused = 0;
          fl_demand_accesses = 1000;
          fl_demand_hits = 1000;
          fl_lead_hist = T.empty_hist_summary ();
        };
      ];
  }

(* An upload whose blob is not a sealed feedback report is a structured
   error — never a crash — and the daemon keeps serving. *)
let test_feedback_bad_blob () =
  with_server @@ fun socket ->
  (match Client.request ~socket (feedback_req "garbage") with
  | Proto.Error_reply { pass; _ } ->
    Alcotest.(check string) "unsealed blob rejected by pass" "feedback" pass
  | _ -> Alcotest.fail "garbage blob must be a structured error");
  (* A valid blob of the wrong kind (an aggregate) is rejected too. *)
  (match
     Client.request ~socket
       (feedback_req (Fb.encode_aggregate Fb.empty_aggregate))
   with
  | Proto.Error_reply { pass; what; _ } ->
    Alcotest.(check string) "wrong kind rejected by pass" "feedback" pass;
    Alcotest.(check bool)
      "error names the expected kind" true
      (String.length what > 0)
  | _ -> Alcotest.fail "wrong-kind blob must be a structured error");
  (* A sealed report for an unknown pipeline is neither stored nor
     aggregated. *)
  (match
     Client.request ~socket
       (feedback_req
          (Fb.encode_report
             {
               Fb.fr_prog = Suite.Workload "em3d";
               fr_scale = scale;
               fr_pipeline = "oo";
               fr_version = 0;
               fr_cycles = 1;
               fr_loads = [];
             }))
   with
  | Proto.Error_reply { pass; _ } ->
    Alcotest.(check string) "unknown pipeline rejected" "server" pass
  | _ -> Alcotest.fail "a report for pipeline oo must be a structured error");
  match Client.request ~socket Proto.Ping with
  | Proto.Ok_reply -> ()
  | _ -> Alcotest.fail "daemon must survive hostile uploads"

(* The ingest path keeps the tuner's error for a report naming no known
   workload. *)
let test_feedback_unknown_workload () =
  with_server @@ fun socket ->
  let rep = { (synthetic_report 0) with Fb.fr_prog = Suite.Workload "nope" } in
  match Client.request ~socket (feedback_req (Fb.encode_report rep)) with
  | Proto.Error_reply { pass; _ } ->
    Alcotest.(check string) "unknown workload rejected" "feedback" pass
  | _ -> Alcotest.fail "a report for an unknown workload must be an error"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Daemon ≡ offline after tuning. A full and two sampled treeadd.bf runs
   upload their attribution reports, and one tuning round publishes v1,
   whose binary differs from the untuned one. [sspc adapt --store] must
   then print what a daemon on the same store serves: v1, from the
   cache. *)
let test_offline_adapt_serves_published_version () =
  let dir = Filename.temp_dir "sspc_published" "" in
  let store = Filename.concat dir "store" in
  let cache = Store.Cache.open_dir store in
  let name = "treeadd.bf" in
  let prog = Workload.program (Suite.find name) ~scale in
  let untuned =
    Lazy.force (Fb.adapt ~cache ~config prog).Fb.sv_result
  in
  List.iter
    (fun sampling ->
      let attrib =
        Ssp_sim.Attrib.create ~prefetch_map:untuned.Ssp.Adapt.prefetch_map ()
      in
      let stats =
        Ssp_sim.Inorder.run ~attrib ?sampling config untuned.Ssp.Adapt.prog
      in
      let blob =
        Fb.encode_report
          (Fb.report_of_attrib ~prog:(Suite.Workload name) ~scale
             ~pipeline:"inorder" ~version:0 ~cycles:stats.Ssp_sim.Stats.cycles
             (Ssp_sim.Attrib.summary attrib))
      in
      Store.Cache.put cache (Fb.report_store_key blob) blob)
    [
      None;
      Some { Ssp_sim.Smt.detail_window = 2000; ff_window = 8000 };
      Some { Ssp_sim.Smt.detail_window = 4000; ff_window = 4000 };
    ];
  let asm p = Format.asprintf "%a@." Ssp_ir.Asm.print p in
  (match Fb.tune_store cache with
  | [ { Fb.st_tuned = Some t; _ } ] ->
    Alcotest.(check int) "published v1" 1
      t.Fb.td_aggregate.Fb.ag_version;
    Alcotest.(check bool) "v1 differs from the untuned binary" false
      (String.equal (asm untuned.Ssp.Adapt.prog)
         (asm t.Fb.td_result.Ssp.Adapt.prog))
  | _ -> Alcotest.fail "expected one tuning round to publish");
  let file f = Filename.concat dir f in
  let code =
    Sys.command
      (Printf.sprintf "%s adapt %s --scale %d --store %s -o %s > %s 2> %s"
         Test_fault.sspc name scale (Filename.quote store)
         (Filename.quote (file "offline.s"))
         (Filename.quote (file "offline.txt"))
         (Filename.quote (file "offline.err")))
  in
  Alcotest.(check int) "sspc adapt --store exits 0" 0 code;
  Alcotest.(check string) "offline status" "sspc: cache hit\n"
    (read_file (file "offline.err"));
  let socket = file "d.sock" in
  let th =
    Thread.create Server.serve
      {
        Server.socket = Some socket;
        tcp = None;
        jobs = 1;
        cache = Some (Store.Cache.open_dir store);
        max_frame = Proto.default_max_frame;
        timeout_s = 60.;
        max_batch = 32;
        max_queue = 256;
        retry_after_s = 0.05;
        tune = false;
      }
  in
  wait_for_socket socket;
  let report, asm, status =
    Fun.protect
      ~finally:(fun () ->
        ignore (Client.request ~socket Proto.Shutdown);
        Thread.join th)
      (fun () -> expect_adapted (Client.request ~socket (adapt_req name)))
  in
  Alcotest.(check string) "daemon status" "hit" status;
  Alcotest.(check string) "same report" report (read_file (file "offline.txt"));
  Alcotest.(check string) "same binary" asm (read_file (file "offline.s"))

let test_traced_hops () =
  (* A traced request comes back with a per-hop latency breakdown even
     when the shard's own telemetry is off; untraced requests don't pay
     for one. *)
  with_server @@ fun socket ->
  let addr = Client.Unix_sock socket in
  let ctx = { Proto.trace_id = "deadbeef"; span_id = 1 } in
  let resp, hops = Client.request_hops ~trace:ctx addr (adapt_req "em3d") in
  ignore (expect_adapted resp);
  let stage s = List.exists (fun h -> String.equal h.Proto.hop_stage s) hops in
  List.iter
    (fun s -> Alcotest.(check bool) ("hop " ^ s) true (stage s))
    [ "queue"; "store.lookup"; "compute"; "serialize" ];
  List.iter
    (fun h ->
      Alcotest.(check bool) "hop duration non-negative" true (h.Proto.hop_ms >= 0.);
      Alcotest.(check bool) "hop node named" true
        (String.length h.Proto.hop_node > 0))
    hops;
  let _, nohops = Client.request_hops addr (adapt_req "em3d") in
  Alcotest.(check int) "untraced: no hops" 0 (List.length nohops)

(* With the shard's telemetry on, the per-pass span tree rides into the
   breakdown as nested span:* hops and the trace id lands in the shard's
   counters (the CI smoke greps for it on both sides of the router). *)
let test_traced_hops_spans =
  with_telemetry @@ fun () ->
  with_server @@ fun socket ->
  let addr = Client.Unix_sock socket in
  let ctx = { Proto.trace_id = "feedf00d"; span_id = 1 } in
  let resp, hops = Client.request_hops ~trace:ctx addr (adapt_req "em3d") in
  ignore (expect_adapted resp);
  Alcotest.(check bool) "nested pass spans ride along" true
    (List.exists
       (fun h ->
         String.length h.Proto.hop_stage > 5
         && String.equal (String.sub h.Proto.hop_stage 0 5) "span:")
       hops);
  Alcotest.(check int) "trace id counted shard-side" 1
    (List.assoc "trace.feedf00d" (T.report ()).T.r_counters)

let fetch_snapshot socket =
  match Client.request ~socket Proto.Stats with
  | Proto.Stats_reply { snapshot } -> snapshot
  | _ -> Alcotest.fail "expected a Stats_reply"

let counter snap name =
  Option.value ~default:0
    (List.assoc_opt name snap.Snapshot.report.T.r_counters)

(* Satellite: the per-tenant admission counters are visible through the
   stats plane and line up with the Busy replies the client saw. *)
(* The daemon-side loop: three distinct reports cross the confidence
   floor, the tuner publishes a version, and the liveness gauges reach
   the stats plane. *)
let test_feedback_upload_and_tune =
  with_telemetry @@ fun () ->
  with_server ~tune:true @@ fun socket ->
  List.iter
    (fun i ->
      match
        Client.request ~socket
          (feedback_req (Fb.encode_report (synthetic_report i)))
      with
      | Proto.Ok_reply -> ()
      | Proto.Error_reply { pass; what; _ } ->
        Alcotest.fail (Printf.sprintf "upload failed [%s]: %s" pass what)
      | _ -> Alcotest.fail "expected Ok for a report upload")
    [ 0; 1; 2 ];
  let snap = fetch_snapshot socket in
  Alcotest.(check int) "uploads counted" 3
    (counter snap "server.feedback.reports");
  let gauge name =
    match List.assoc_opt name snap.Snapshot.gauges with
    | Some v -> v
    | None -> Alcotest.failf "gauge %s missing from the snapshot" name
  in
  Alcotest.(check bool) "a tuning round ran" true (gauge "feedback.rounds" >= 1.);
  Alcotest.(check bool)
    "a tuned version was published" true
    (gauge "feedback.version_max" >= 1.);
  Alcotest.(check bool)
    "report liveness age is fresh" true
    (let age = gauge "feedback.last_report_age_s" in
     age >= 0. && age < 60.);
  (* Serving still works on the tuned store (the synthetic overrides
     name no real load, so the served artifact equals the offline one —
     published under the bumped version key). *)
  let _, asm = offline_adapt "em3d" in
  let _, asm', _ = expect_adapted (Client.request ~socket (adapt_req "em3d")) in
  Alcotest.(check string) "tuned serving stays byte-identical" asm asm'

(* Seven uploads to a --tune daemon: three at v0 (the third publishes
   v1), one more at v0 (stale on arrival), then three at v1 (the last
   publishes v2). Every upload runs the round [sspc tune] runs, so the
   fold of the persisted reports is the one count: all seven reports
   sit at versions other than v2, and the counters say what arrived. *)
let test_feedback_tune_counts =
  with_telemetry @@ fun () ->
  with_server ~tune:true @@ fun socket ->
  List.iter
    (fun (i, version) ->
      let rep = { (synthetic_report i) with Fb.fr_version = version } in
      match Client.request ~socket (feedback_req (Fb.encode_report rep)) with
      | Proto.Ok_reply -> ()
      | _ -> Alcotest.fail "expected Ok for a report upload")
    [ (0, 0); (1, 0); (2, 0); (3, 0); (4, 1); (5, 1); (6, 1) ];
  let cache =
    Store.Cache.open_dir (Filename.concat (Filename.dirname socket) "cache")
  in
  let prog = Workload.program (Suite.find "em3d") ~scale in
  (* The profile the daemon stored, under the program-form key. *)
  let profile =
    match Store.Cache.find cache (Store.profile_key ~config prog) with
    | Some blob -> Store.decode_profile blob
    | None -> Alcotest.fail "the daemon stored no profile under its key"
  in
  let fold =
    Fb.fold_workload cache
      ~key:(Fb.aggregate_key ~config prog profile)
      (Suite.Workload "em3d", scale, "inorder")
  in
  Alcotest.(check int) "published v2" 2 fold.Fb.ag_version;
  Alcotest.(check int) "no report at v2" 0 fold.Fb.ag_reports;
  Alcotest.(check int) "seven at other versions" 7 fold.Fb.ag_stale;
  Alcotest.(check bool)
    "explain shows the fold's counts" true
    (String.starts_with
       ~prefix:"feedback: v2  0 reports (7 stale)  last action v2: "
       (Fb.explain_header fold));
  let snap = fetch_snapshot socket in
  Alcotest.(check int) "uploads" 7 (counter snap "server.feedback.reports");
  Alcotest.(check int) "stale on arrival" 1
    (counter snap "server.feedback.stale");
  Alcotest.(check int) "rounds that published" 2
    (counter snap "server.feedback.tuned")

let test_snapshot_admission_counters =
  with_telemetry @@ fun () ->
  with_server ~max_queue:0 @@ fun socket ->
  let busy = ref 0 in
  for _ = 1 to 5 do
    match Client.request ~socket (adapt_req ~tenant:"hog" "em3d") with
    | Proto.Busy_reply { retry_after_s } ->
      incr busy;
      Alcotest.(check bool) "retry-after positive" true (retry_after_s > 0.)
    | _ -> Alcotest.fail "max_queue=0 must reject"
  done;
  let snap = fetch_snapshot socket in
  Alcotest.(check int) "server.rejected matches Busy replies" !busy
    (counter snap "server.rejected");
  Alcotest.(check int) "per-tenant rejected matches" !busy
    (counter snap "server.tenant.hog.rejected");
  Alcotest.(check int) "nothing served" 0 (counter snap "server.tenant.hog.served");
  (* the snapshot codec round-trips what the server sent *)
  let again = Snapshot.decode (Snapshot.encode snap) in
  Alcotest.(check bool) "snapshot codec round-trips" true (again = snap);
  ignore (Test_telemetry.parse_json (Snapshot.to_json snap))

(* Satellite: cache pressure is observable end to end — force LRU
   evictions with a tiny cache and require the store.evict counter to
   reach the snapshot, agreeing with the handle's own count. *)
let test_snapshot_eviction_counter =
  with_telemetry @@ fun () ->
  with_server ~cache_max_bytes:2000 @@ fun socket ->
  List.iter
    (fun name -> ignore (expect_adapted (Client.request ~socket (adapt_req name))))
    [ "em3d"; "mst"; "health" ];
  let snap = fetch_snapshot socket in
  let evicted = counter snap "store.evict" in
  Alcotest.(check bool) "tiny cache forced evictions" true (evicted > 0);
  (match List.assoc_opt "store.evictions" snap.Snapshot.gauges with
  | Some g -> Alcotest.(check int) "gauge agrees with counter" evicted
      (int_of_float g)
  | None -> Alcotest.fail "store.evictions gauge missing");
  Alcotest.(check bool) "service-time histogram populated" true
    (match List.assoc_opt "server.service_ms" snap.Snapshot.report.T.r_hists with
    | Some h -> h.T.hs_n >= 3
    | None -> false);
  Alcotest.(check bool) "queue depth gauge present" true
    (List.mem_assoc "server.queue_depth" snap.Snapshot.gauges)

(* ---- v4: end-to-end deadlines + the replica write plane ---- *)

(* A request whose budget arrives already spent must be shed at
   admission with a structured reply — and, the acceptance criterion,
   never reach compute: the shed counter shows up in the snapshot and
   the batch/served counters stay at zero. *)
let test_deadline_shed_at_admission =
  with_telemetry @@ fun () ->
  with_server @@ fun socket ->
  let addr = Client.Unix_sock socket in
  (match
     Client.request_env ~deadline_ms:(-5.) addr (adapt_req ~tenant:"late" "em3d")
   with
  | Proto.Deadline_exceeded { stage; budget_ms; elapsed_ms = _ }, _, _ ->
    Alcotest.(check string) "shed at admission" "admission" stage;
    Alcotest.(check bool) "budget echoed as stamped" true (budget_ms < 0.)
  | _ -> Alcotest.fail "expected a Deadline_exceeded reply");
  let snap = fetch_snapshot socket in
  Alcotest.(check int) "shed counted through the snapshot plane" 1
    (counter snap "server.deadline.shed_admission");
  Alcotest.(check int) "per-tenant shed counted" 1
    (counter snap "server.tenant.late.deadline_shed");
  Alcotest.(check int) "the shed request never reached compute" 0
    (counter snap "server.batches");
  Alcotest.(check int) "nothing served" 0
    (counter snap "server.tenant.late.served")

let test_deadline_generous_serves () =
  (* A live budget changes nothing about the bytes. *)
  with_server @@ fun socket ->
  let exp_report, exp_asm = offline_adapt "em3d" in
  let resp, _, _ =
    Client.request_env ~deadline_ms:60_000.
      (Client.Unix_sock socket) (adapt_req "em3d")
  in
  let report, asm, _ = expect_adapted resp in
  Alcotest.(check bool) "deadline-stamped reply byte-identical" true
    (String.equal exp_report report && String.equal exp_asm asm)

let test_ping () =
  with_server ~with_cache:false @@ fun socket ->
  match Client.request ~socket Proto.Ping with
  | Proto.Ok_reply -> ()
  | _ -> Alcotest.fail "expected Ok_reply to Ping"

(* A signal is not a transport failure. [Client] sets socket timeouts,
   so SA_RESTART cannot restart an interrupted read: with a 5 ms
   interval timer firing while the peer takes 200 ms to answer, the
   exchange must still complete. *)
let test_signal_mid_exchange () =
  let dir = Filename.temp_dir "sspc_eintr_test" "" in
  let path = Filename.concat dir "peer.sock" in
  let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind lfd (Unix.ADDR_UNIX path);
  Unix.listen lfd 1;
  let rec accept () =
    match Unix.accept lfd with
    | fd, _ -> fd
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept ()
  in
  let peer =
    Thread.create
      (fun () ->
        let fd = accept () in
        ignore (Proto.read_frame fd);
        Unix.sleepf 0.2;
        Proto.write_frame fd (Proto.encode_response Proto.Ok_reply);
        Unix.close fd)
      ()
  in
  let old = Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> ())) in
  let timer v =
    ignore
      (Unix.setitimer Unix.ITIMER_REAL
         { Unix.it_interval = v; it_value = v })
  in
  let reply =
    Fun.protect
      ~finally:(fun () ->
        timer 0.;
        Sys.set_signal Sys.sigalrm old)
      (fun () ->
        timer 0.005;
        Client.request_addr ~timeout_s:5. (Client.Unix_sock path) Proto.Ping)
  in
  Thread.join peer;
  Unix.close lfd;
  match reply with
  | Proto.Ok_reply -> ()
  | _ -> Alcotest.fail "expected Ok_reply to Ping"

(* The artifact ask: a cold adapt with [artifacts_on_miss] returns the
   cache entries the reply was built from (the router's write-through
   source); a warm one returns none (nothing new to replicate); a warm
   [artifacts_always] returns them anyway (the read-repair source). *)
let test_artifact_attachment () =
  with_server @@ fun socket ->
  let addr = Client.Unix_sock socket in
  let ask a = Client.request_env ~artifacts:a addr (adapt_req "em3d") in
  let resp, _, cold_arts = ask Proto.artifacts_on_miss in
  let _, _, c1 = expect_adapted resp in
  Alcotest.(check string) "cold misses" "miss" c1;
  Alcotest.(check int) "cold miss attaches profile + adapted" 2
    (List.length cold_arts);
  List.iter
    (fun (key, blob) ->
      Alcotest.(check bool) "artifact key is a cache digest" true
        (String.length key = 32);
      Alcotest.(check bool) "artifact blob is a sealed envelope" true
        (Store.blob_ok blob))
    cold_arts;
  let resp, _, warm_arts = ask Proto.artifacts_on_miss in
  let _, _, c2 = expect_adapted resp in
  Alcotest.(check string) "warm hits" "hit" c2;
  Alcotest.(check int) "warm on_miss attaches nothing" 0
    (List.length warm_arts);
  let resp, _, repair_arts = ask Proto.artifacts_always in
  ignore (expect_adapted resp);
  Alcotest.(check int) "warm always attaches for read-repair" 2
    (List.length repair_arts);
  (* And the write side: replaying an attached artifact through
     Put_blob is accepted (idempotent replica write)... *)
  (match
     Client.request ~socket
       (Proto.Put_blob
          { key = fst (List.hd repair_arts); blob = snd (List.hd repair_arts) })
   with
  | Proto.Ok_reply -> ()
  | _ -> Alcotest.fail "valid replica write rejected");
  (* ...while a hostile key (would escape the cache directory) and a
     garbage blob (fails the sealed-envelope check) are rejected before
     touching the store. *)
  (match
     Client.request ~socket
       (Proto.Put_blob { key = "../../etc/passwd"; blob = snd (List.hd repair_arts) })
   with
  | Proto.Error_reply { pass; _ } ->
    Alcotest.(check string) "hostile key is a store error" "store" pass
  | _ -> Alcotest.fail "hostile replica key accepted");
  match
    Client.request ~socket
      (Proto.Put_blob { key = String.make 32 'f'; blob = "not a sealed blob" })
  with
  | Proto.Error_reply { pass; _ } ->
    Alcotest.(check string) "garbage blob is a store error" "store" pass
  | _ -> Alcotest.fail "garbage replica blob accepted"

(* A replica write is the one way bytes enter a store from outside, and
   a hit serves an adapted blob's text unparsed, so the write must carry
   a program that parses, validates and re-encodes to the same bytes. An
   honest envelope around anything else is refused as a store error, and
   the key stays absent. *)
let test_put_blob_checks_adapted () =
  with_server @@ fun socket ->
  let prog = Ssp_minic.Frontend.compile "int main() { return 0; }" in
  let text = Ssp_ir.Asm.to_string prog in
  let empty_report =
    { Ssp.Report.slices = []; n_delinquent = 0; coverage = 0.;
      diagnostics = [] }
  in
  let honest =
    Store.encode_adapted
      { Store.prog; report = empty_report;
        prefetch_map = Ssp_ir.Iref.Map.empty }
  in
  (* The same report and prefetch map, sealed around another text. *)
  let sealed_with text' =
    let payload = Store.unseal_kind ~kind:Store.kind_adapted honest in
    let skip = 8 + String.length text in
    let b = Store.Bin.writer () in
    Store.Bin.w_str b text';
    Store.seal_kind ~kind:Store.kind_adapted
      (Store.Bin.contents b
      ^ String.sub payload skip (String.length payload - skip))
  in
  let stored key =
    Sys.file_exists
      (Filename.concat
         (Filename.concat (Filename.dirname socket) "cache")
         (key ^ ".blob"))
  in
  let put key blob = Client.request ~socket (Proto.Put_blob { key; blob }) in
  List.iter
    (fun (what, key, text', reason) ->
      let blob = sealed_with text' in
      Alcotest.(check bool) (what ^ ": envelope is clean") true
        (Store.blob_ok blob);
      (match put key blob with
      | Proto.Error_reply { pass; what = msg; _ } ->
        Alcotest.(check string) (what ^ ": a store error") "store" pass;
        if not (Test_fault.contains msg reason) then
          Alcotest.failf "%s: rejected for %S" what msg;
        if String.length msg > 1024 then
          Alcotest.failf "%s: a %d-byte reason" what (String.length msg)
      | _ -> Alcotest.failf "%s: replica write accepted" what);
      Alcotest.(check bool) (what ^ ": key absent") false (stored key);
      (* The check runs on the select loop: whatever the blob made the
         decoder raise, the daemon is still there. *)
      match Client.request ~socket Proto.Ping with
      | Proto.Ok_reply -> ()
      | _ -> Alcotest.failf "%s: the daemon stopped answering" what)
    [
      ( "unparsable program", String.make 32 'a',
        "entry main\n\nfunc main/0 @1 {\nentry:\n  frob r1\n}\n",
        "cannot parse instruction" );
      ( "invalid program", String.make 32 'b',
        "entry main\ndata 0\n\nfunc main/0 @1 {\nentry:\n  br nowhere\n}\n\n",
        "invalid program" );
      ( "non-canonical text", String.make 32 'c', text ^ "; a comment\n",
        "does not re-encode" );
      ( "function defined twice", String.make 32 'e',
        "entry main\ndata 0\n\nfunc main/0 @1 {\nentry:\n  ret\n}\n\n\
         func main/0 @2 {\nentry:\n  ret\n}\n\n",
        "function main defined twice" );
      ( "thousands of invalid instructions", String.make 32 'f',
        "entry main\ndata 0\n\nfunc main/0 @1 {\nentry:\n"
        ^ String.concat "" (List.init 5000 (fun _ -> "  br nowhere\n"))
        ^ "  ret\n}\n\n",
        "unresolved label nowhere" );
      ( "blob over the replica limit", String.make 32 '0',
        text ^ String.make Store.max_untrusted_bytes ';',
        "replica limit" );
    ];
  Alcotest.(check bool) "the honest blob is the re-sealed text" true
    (String.equal honest (sealed_with text));
  (match put (String.make 32 'd') honest with
  | Proto.Ok_reply -> ()
  | _ -> Alcotest.fail "canonical replica write rejected");
  Alcotest.(check bool) "canonical blob stored" true
    (stored (String.make 32 'd'))

(* A result too large for a replica to check is served, and left out of
   the artifacts a router would write through: a refused write would
   open its breaker on a healthy shard. *)
let test_artifacts_within_replica_limit () =
  with_server @@ fun socket ->
  let b = Buffer.create 131072 in
  for i = 1 to 4000 do
    Printf.bprintf b "int f%d() { return %d; }\n" i i
  done;
  Buffer.add_string b "int main() { print_int(f1()); return 0; }\n";
  let req =
    Proto.Adapt
      { prog = Proto.Source (Buffer.contents b); scale; pipeline = "inorder";
        tenant = Proto.default_tenant }
  in
  match
    Client.request_env ~artifacts:Proto.artifacts_always
      (Client.Unix_sock socket) req
  with
  | Proto.Adapted { asm; _ }, _, artifacts ->
    Alcotest.(check bool) "the program is over the limit" true
      (String.length asm > Store.max_untrusted_bytes);
    Alcotest.(check (list (option string))) "only the profile is handed out"
      [ Some "profile" ]
      (List.map
         (fun (_, blob) -> Option.map Store.kind_name (Store.blob_kind blob))
         artifacts)
  | resp, _, _ -> ignore (expect_adapted resp)

let test_put_blob_without_cache () =
  with_server ~with_cache:false @@ fun socket ->
  match
    Client.request ~socket
      (Proto.Put_blob { key = String.make 32 'a'; blob = "x" })
  with
  | Proto.Error_reply { pass; _ } ->
    Alcotest.(check string) "cacheless replica write is a server error"
      "server" pass
  | _ -> Alcotest.fail "expected an error from a cacheless shard"

let test_shutdown () =
  let dir = Filename.temp_dir "sspc_server_test" "" in
  let socket = Filename.concat dir "d.sock" in
  let cfg =
    {
      (Server.default_config ~socket) with
      Server.cache = None;
      jobs = 1;
    }
  in
  let th = Thread.create Server.serve cfg in
  wait_for_socket socket;
  (match Client.request ~socket Proto.Shutdown with
  | Proto.Ok_reply -> ()
  | _ -> Alcotest.fail "expected shutdown to be acknowledged");
  Thread.join th;
  Alcotest.(check bool) "socket file removed" false (Sys.file_exists socket)

let suite =
  [
    Alcotest.test_case "adapt: cold/warm, byte-identical to offline" `Quick
      test_adapt_cold_warm_identical;
    Alcotest.test_case "adapt without a cache" `Quick test_no_cache_serves_off;
    Alcotest.test_case "sim matches offline" `Quick test_sim_matches_offline;
    Alcotest.test_case "stats + structured request errors" `Quick
      test_stats_and_errors;
    Alcotest.test_case "chaos: malformed frame" `Quick test_malformed_frame;
    Alcotest.test_case "chaos: oversized frame" `Quick test_oversized_frame;
    Alcotest.test_case "chaos: hostile length field" `Quick
      test_hostile_length_field;
    Alcotest.test_case "chaos: non-draining peer" `Quick
      test_non_draining_peer;
    Alcotest.test_case "chaos: mid-request disconnect" `Quick
      test_mid_request_disconnect;
    Alcotest.test_case "chaos: stalled partial frame times out" `Quick
      test_partial_frame_times_out;
    Alcotest.test_case "concurrent clients" `Quick test_concurrent_clients;
    Alcotest.test_case "admission: DRR fairness across tenants" `Quick
      test_drr_fairness;
    Alcotest.test_case "admission: FIFO within a tenant" `Quick
      test_drr_order_within_tenant;
    Alcotest.test_case "admission: saturation gets Busy, service stays exact"
      `Quick test_saturation_busy_reply;
    Alcotest.test_case "admission: max_queue=0 rejects all work" `Quick
      test_reject_all_when_queue_zero;
    Alcotest.test_case "proto: one version + trace roundtrip" `Quick
      test_proto_one_version;
    Alcotest.test_case "proto: v4 rejected + Feedback codec" `Quick
      test_proto_v4_rejected;
    Alcotest.test_case "feedback: hostile blobs get structured errors" `Quick
      test_feedback_bad_blob;
    Alcotest.test_case "feedback: upload, aggregate, daemon tuning round"
      `Quick test_feedback_upload_and_tune;
    Alcotest.test_case "feedback: a --tune daemon's counts match its fold"
      `Quick test_feedback_tune_counts;
    Alcotest.test_case "trace: per-hop breakdown" `Quick test_traced_hops;
    Alcotest.test_case "trace: span hops + trace counter" `Quick
      test_traced_hops_spans;
    Alcotest.test_case "snapshot: admission counters line up" `Quick
      test_snapshot_admission_counters;
    Alcotest.test_case "snapshot: eviction counter reaches the plane" `Quick
      test_snapshot_eviction_counter;
    Alcotest.test_case "deadline: expired budget shed at admission" `Quick
      test_deadline_shed_at_admission;
    Alcotest.test_case "deadline: live budget serves identically" `Quick
      test_deadline_generous_serves;
    Alcotest.test_case "ping answers ok" `Quick test_ping;
    Alcotest.test_case "a signal mid-exchange is not a transport failure"
      `Quick test_signal_mid_exchange;
    Alcotest.test_case "artifacts: attach, replay, reject hostile" `Quick
      test_artifact_attachment;
    Alcotest.test_case "replica write of an adapted blob is checked" `Quick
      test_put_blob_checks_adapted;
    Alcotest.test_case "replication: no artifact over the replica limit"
      `Quick test_artifacts_within_replica_limit;
    Alcotest.test_case "replica write without a cache" `Quick
      test_put_blob_without_cache;
    Alcotest.test_case "clean shutdown" `Quick test_shutdown;
    Alcotest.test_case "feedback: unknown workload is a feedback error" `Quick
      test_feedback_unknown_workload;
    Alcotest.test_case "adapt --store prints the daemon's published version"
      `Slow test_offline_adapt_serves_published_version;
  ]
