(* The cluster layer: consistent-hash ring properties (balance, minimal
   movement, determinism), TCP transport byte-identity, router failover
   under a mid-campaign shard kill, and the client's retry/backoff
   behavior against a saturated or flaky endpoint. *)

module Ring = Ssp_cluster.Ring
module Router = Ssp_cluster.Router
module Server = Ssp_server.Server
module Client = Ssp_server.Client
module Proto = Ssp_server.Proto
module Store = Ssp_store.Store
module Suite = Ssp_workloads.Suite
module Workload = Ssp_workloads.Workload

let scale = Suite.test_scale

(* ---- ring ---- *)

let keys n = List.init n (fun i -> Printf.sprintf "key-%d" i)

let placements ring ks =
  List.map
    (fun k ->
      match Ring.lookup ring k with
      | Some node -> (k, node)
      | None -> Alcotest.fail "lookup on a non-empty ring returned None")
    ks

let test_ring_balance () =
  (* 10k keys over 8 shards with 128 vnodes: the χ² statistic over the
     8 bucket counts must stay small (7 degrees of freedom; χ² < 500
     would already mean a 40% hot shard — we assert well under that and
     bound the worst shard directly). *)
  let shards = List.init 8 (fun i -> Printf.sprintf "shard-%d" i) in
  let ring = Ring.create shards in
  let n = 10_000 in
  let counts = Hashtbl.create 8 in
  List.iter
    (fun (_, node) ->
      Hashtbl.replace counts node
        (1 + Option.value ~default:0 (Hashtbl.find_opt counts node)))
    (placements ring (keys n));
  Alcotest.(check int) "every shard owns keys" 8 (Hashtbl.length counts);
  let expected = float_of_int n /. 8. in
  let chi2 =
    Hashtbl.fold
      (fun _ c acc ->
        let d = float_of_int c -. expected in
        acc +. (d *. d /. expected))
      counts 0.
  in
  let worst = Hashtbl.fold (fun _ c m -> max c m) counts 0 in
  Alcotest.(check bool)
    (Printf.sprintf "chi^2 %.1f < 200" chi2)
    true (chi2 < 200.);
  Alcotest.(check bool)
    (Printf.sprintf "max/mean %.2f < 1.5" (float_of_int worst /. expected))
    true
    (float_of_int worst < 1.5 *. expected)

(* A router restarted with one more or one fewer [--shard] builds a new
   ring over the changed list; these compare such a ring with the old. *)
let ring_of n = Ring.create (List.init n (fun i -> Printf.sprintf "s%d" i))

let test_ring_minimal_movement_on_join () =
  let before = ring_of 4 in
  let after = ring_of 5 in
  let ks = keys 10_000 in
  let pb = placements before ks and pa = placements after ks in
  let moved =
    List.fold_left2
      (fun acc (_, nb) (k, na) ->
        if String.equal nb na then acc
        else begin
          (* Any key that moved may only have moved TO the joining
             shard; shuffling between survivors would defeat the cache
             affinity the ring exists for. *)
          Alcotest.(check string)
            (Printf.sprintf "moved key %s lands on the new shard" k)
            "s4" na;
          acc + 1
        end)
      0 pb pa
  in
  (* The new shard owns ~1/5 of the circle. *)
  Alcotest.(check bool)
    (Printf.sprintf "moved fraction %.3f in (0.05, 0.4)"
       (float_of_int moved /. 10_000.))
    true
    (moved > 500 && moved < 4_000)

let test_ring_minimal_movement_on_leave () =
  let before = ring_of 4 in
  let after = ring_of 3 in
  let ks = keys 10_000 in
  List.iter2
    (fun (_, nb) (k, na) ->
      if String.equal nb "s3" then
        Alcotest.(check bool)
          (Printf.sprintf "orphaned key %s rehomed off s3" k)
          true
          (not (String.equal na "s3"))
      else
        Alcotest.(check string)
          (Printf.sprintf "unaffected key %s stays put" k)
          nb na)
    (placements before ks) (placements after ks)

let test_ring_deterministic_across_processes () =
  (* Placement must be a pure function of the membership — no
     per-process seeding — or routers would disagree. These expected
     placements were computed once and hardcoded; a change here is a
     placement-breaking change (it silently cools every cluster cache
     on upgrade). *)
  let ring = Ring.create [ "alpha"; "beta"; "gamma" ] in
  let got =
    List.map (fun k -> Option.get (Ring.lookup ring k))
      [ "key-0"; "key-1"; "key-2"; "key-3"; "key-4" ]
  in
  let ring' = Ring.create [ "gamma"; "alpha"; "beta"; "alpha" ] in
  List.iter2
    (fun k g ->
      Alcotest.(check string)
        (k ^ " placement order/dup independent")
        g
        (Option.get (Ring.lookup ring' k)))
    [ "key-0"; "key-1"; "key-2"; "key-3"; "key-4" ]
    got;
  (* Fresh ring, same inputs, same answers (pure function). *)
  List.iter2
    (fun k g ->
      Alcotest.(check string) (k ^ " stable across builds") g
        (Option.get
           (Ring.lookup (Ring.create [ "alpha"; "beta"; "gamma" ]) k)))
    [ "key-0"; "key-1"; "key-2"; "key-3"; "key-4" ]
    got

let test_ring_successors () =
  let ring = Ring.create [ "a"; "b"; "c" ] in
  let succ = Ring.successors ring "some-key" in
  Alcotest.(check int) "failover covers all nodes" 3 (List.length succ);
  Alcotest.(check (list string))
    "distinct nodes" (List.sort_uniq compare succ)
    (List.sort compare succ);
  Alcotest.(check (option string))
    "head is the owner" (Ring.lookup ring "some-key")
    (Some (List.hd succ))

(* ---- in-process shards and routers ---- *)

let temp_dir = Filename.temp_dir "sspc_cluster_test" ""

let fresh =
  let n = ref 0 in
  fun prefix ->
    incr n;
    Filename.concat temp_dir (Printf.sprintf "%s%d" prefix !n)

let shard_config ?(max_queue = 256) ~cache_dir () =
  {
    Server.socket = None;
    tcp = Some ("127.0.0.1", 0);
    jobs = 1;
    cache = Some (Store.Cache.open_dir cache_dir);
    max_frame = Proto.default_max_frame;
    timeout_s = 60.;
    max_batch = 8;
    max_queue;
    retry_after_s = 0.05;
    tune = false;
  }

let start_shard ?max_queue () =
  let port = ref None in
  let cfg = shard_config ?max_queue ~cache_dir:(fresh "cache") () in
  let th =
    Thread.create
      (fun () -> Server.serve ~ready:(fun ~tcp_port -> port := tcp_port) cfg)
      ()
  in
  let rec wait tries =
    if tries = 0 then Alcotest.fail "shard never came up";
    match !port with
    | Some p -> p
    | None ->
      Thread.delay 0.01;
      wait (tries - 1)
  in
  (th, wait 500)

let start_router shards =
  let socket = fresh "router" ^ ".sock" in
  let cfg =
    {
      (Router.default_config ~shards) with
      Router.socket = Some socket;
      quarantine_s = 0.5;
    }
  in
  let up = ref false in
  let th =
    Thread.create
      (fun () -> Router.serve ~ready:(fun ~tcp_port:_ -> up := true) cfg)
      ()
  in
  let rec wait tries =
    if tries = 0 then Alcotest.fail "router never came up"
    else if not !up then begin
      Thread.delay 0.01;
      wait (tries - 1)
    end
  in
  wait 500;
  (th, socket)

let adapt_req name =
  Proto.Adapt
    { prog = Proto.Workload name; scale; pipeline = "inorder";
      tenant = Proto.default_tenant }

let shutdown addr =
  match Client.request_addr addr Proto.Shutdown with
  | Proto.Ok_reply -> ()
  | _ -> Alcotest.fail "shutdown not acknowledged"

let offline_adapt name =
  let config = Ssp_machine.Config.in_order in
  let prog = Workload.program (Suite.find name) ~scale in
  let profile = Ssp_profiling.Collect.collect prog in
  let result = Ssp.Adapt.run ~config prog profile in
  ( Format.asprintf "%a@." Ssp.Report.pp result.Ssp.Adapt.report,
    Format.asprintf "%a@." Ssp_ir.Asm.print result.Ssp.Adapt.prog )

let expect_adapted = function
  | Proto.Adapted { report; asm; cache } -> (report, asm, cache)
  | Proto.Error_reply { pass; what; _ } ->
    Alcotest.fail (Printf.sprintf "server error [%s]: %s" pass what)
  | _ -> Alcotest.fail "expected an Adapted reply"

let test_tcp_transport_identical () =
  (* The TCP listener must speak the exact same protocol as the Unix
     socket: a served adapt over TCP is byte-identical to offline. *)
  let th, port = start_shard () in
  let addr = Client.Tcp ("127.0.0.1", port) in
  let exp_report, exp_asm = offline_adapt "em3d" in
  let r, a, c = expect_adapted (Client.request_addr addr (adapt_req "em3d")) in
  Alcotest.(check string) "cold miss over TCP" "miss" c;
  Alcotest.(check bool) "report identical over TCP" true
    (String.equal exp_report r);
  Alcotest.(check bool) "asm identical over TCP" true (String.equal exp_asm a);
  let _, a2, c2 =
    expect_adapted (Client.request_addr addr (adapt_req "em3d"))
  in
  Alcotest.(check string) "warm hit over TCP" "hit" c2;
  Alcotest.(check bool) "warm asm identical" true (String.equal a a2);
  shutdown addr;
  Thread.join th

let test_router_routes_and_caches () =
  let th1, p1 = start_shard () in
  let th2, p2 = start_shard () in
  let r_th, r_sock = start_router [ ("127.0.0.1", p1); ("127.0.0.1", p2) ] in
  let router = Client.Unix_sock r_sock in
  let exp_report, exp_asm = offline_adapt "em3d" in
  let r, a, c = expect_adapted (Client.request_addr router (adapt_req "em3d")) in
  Alcotest.(check string) "cold miss via router" "miss" c;
  Alcotest.(check bool) "routed report identical" true
    (String.equal exp_report r);
  Alcotest.(check bool) "routed asm identical" true (String.equal exp_asm a);
  (* The ring sends the repeat to the same shard: warm hit. *)
  let _, _, c2 =
    expect_adapted (Client.request_addr router (adapt_req "em3d"))
  in
  Alcotest.(check string) "affinity makes the repeat hit" "hit" c2;
  (* Stats is answered by the router itself. *)
  (match Client.request_addr router Proto.Stats with
  | Proto.Stats_reply _ -> ()
  | _ -> Alcotest.fail "expected the router's own stats");
  shutdown router;
  Thread.join r_th;
  shutdown (Client.Tcp ("127.0.0.1", p1));
  shutdown (Client.Tcp ("127.0.0.1", p2));
  Thread.join th1;
  Thread.join th2

(* A client opens one connection per request, so a long-lived router
   must keep nothing for a connection once it closes: its retained heap
   stays flat over thousands of sequential requests (it used to keep
   every connection's thread handle, about 10 words per request). *)
let test_router_keeps_no_closed_connection () =
  let th, port = start_shard () in
  let r_th, r_sock = start_router [ ("127.0.0.1", port) ] in
  let router = Client.Unix_sock r_sock in
  let requests n =
    for _ = 1 to n do
      match Client.request_addr router Proto.Ping with
      | Proto.Ok_reply -> ()
      | _ -> Alcotest.fail "expected the router's pong"
    done
  in
  let live_words () =
    (* Give the last connection's thread time to see its peer close. *)
    Thread.delay 0.05;
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  requests 200;
  let before = live_words () in
  let n = 2000 in
  requests n;
  let growth = live_words () - before in
  Alcotest.(check bool)
    (Printf.sprintf "%d live words more after %d requests" growth n)
    true
    (growth < n / 2);
  shutdown router;
  Thread.join r_th;
  shutdown (Client.Tcp ("127.0.0.1", port));
  Thread.join th

let test_router_failover_mid_campaign () =
  (* The acceptance scenario: warm a set of keys through a 2-shard
     router, kill one shard mid-campaign, and require every subsequent
     reply to remain byte-identical — degraded service, never wrong
     bytes. *)
  let th1, p1 = start_shard () in
  let th2, p2 = start_shard () in
  let r_th, r_sock = start_router [ ("127.0.0.1", p1); ("127.0.0.1", p2) ] in
  let router = Client.Unix_sock r_sock in
  let names = [ "em3d"; "mst" ] in
  let expected = List.map (fun n -> (n, offline_adapt n)) names in
  let check_all tag =
    List.iter
      (fun (n, (er, ea)) ->
        let r, a, _ =
          expect_adapted
            (Client.request_retry ~attempts:6 router (adapt_req n))
        in
        Alcotest.(check bool)
          (Printf.sprintf "%s: %s report identical" tag n)
          true (String.equal er r);
        Alcotest.(check bool)
          (Printf.sprintf "%s: %s asm identical" tag n)
          true (String.equal ea a))
      expected
  in
  check_all "both shards live";
  (* Kill shard 1 (no clean shutdown needed — a vanished peer is the
     point), then keep the campaign going. *)
  shutdown (Client.Tcp ("127.0.0.1", p1));
  Thread.join th1;
  check_all "one shard down";
  check_all "one shard down, repeat";
  (* Kill the last shard: the router must answer with a structured
     degraded error naming the attempts, not hang or lie. *)
  shutdown (Client.Tcp ("127.0.0.1", p2));
  Thread.join th2;
  (match Client.request_addr router (adapt_req "em3d") with
  | Proto.Error_reply { pass; what; _ } ->
    Alcotest.(check string) "degraded error is the router's" "router" pass;
    Alcotest.(check bool) "names the degradation" true
      (String.length what > 0
      && String.starts_with ~prefix:"degraded" what)
  | _ -> Alcotest.fail "expected a degraded-mode error");
  shutdown router;
  Thread.join r_th

let test_router_forwards_busy () =
  (* A saturated shard's Busy_reply must come back to the client (with
     the retry-after hint), not trigger failover to a shard that does
     not own the key. *)
  let th, port = start_shard ~max_queue:0 () in
  let r_th, r_sock = start_router [ ("127.0.0.1", port) ] in
  let router = Client.Unix_sock r_sock in
  (match Client.request_addr router (adapt_req "em3d") with
  | Proto.Busy_reply { retry_after_s } ->
    Alcotest.(check bool) "retry-after hint positive" true (retry_after_s > 0.)
  | _ -> Alcotest.fail "expected the shard's Busy_reply through the router");
  shutdown router;
  Thread.join r_th;
  shutdown (Client.Tcp ("127.0.0.1", port));
  Thread.join th

(* ---- the trace and stats planes across the router ---- *)

module T = Ssp_telemetry.Telemetry
module Snapshot = Ssp_server.Snapshot

let with_telemetry f () =
  T.reset ();
  T.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      T.set_enabled false;
      T.reset ())
    f

let test_traced_through_router =
  with_telemetry @@ fun () ->
  let th1, p1 = start_shard () in
  let th2, p2 = start_shard () in
  let r_th, r_sock = start_router [ ("127.0.0.1", p1); ("127.0.0.1", p2) ] in
  let router = Client.Unix_sock r_sock in
  let ctx = { Proto.trace_id = "0ddba11"; span_id = 1 } in
  let t0 = Unix.gettimeofday () in
  let resp, hops = Client.request_hops ~trace:ctx router (adapt_req "em3d") in
  let total_ms = (Unix.gettimeofday () -. t0) *. 1000. in
  ignore (expect_adapted resp);
  (* One trace crosses both processes: the router stamps its forward
     window, the shard its queue/lookup/compute/serialize breakdown. *)
  let forward =
    List.filter
      (fun h ->
        String.equal h.Proto.hop_node "router"
        && String.equal h.Proto.hop_stage "forward")
      hops
  in
  Alcotest.(check int) "router stamped one forward hop" 1 (List.length forward);
  let fwd_ms = (List.hd forward).Proto.hop_ms in
  let shard_sum =
    List.fold_left
      (fun acc h ->
        if
          (not (String.equal h.Proto.hop_node "router"))
          && List.mem h.Proto.hop_stage [ "queue"; "compute"; "serialize" ]
        then acc +. h.Proto.hop_ms
        else acc)
      0. hops
  in
  Alcotest.(check bool) "shard did measurable work" true (shard_sum > 0.);
  (* The windows nest: shard breakdown <= router forward <= client
     total, each within scheduling slop. *)
  let slop = 50. in
  Alcotest.(check bool)
    (Printf.sprintf "shard %.1fms <= forward %.1fms (+slop)" shard_sum fwd_ms)
    true
    (shard_sum <= fwd_ms +. slop);
  Alcotest.(check bool)
    (Printf.sprintf "forward %.1fms <= total %.1fms (+slop)" fwd_ms total_ms)
    true
    (fwd_ms <= total_ms +. slop);
  (* Both hops of the path counted the same trace id (everything is
     in-process here, so one report sees both). *)
  Alcotest.(check int) "trace id counted at router and shard" 2
    (List.assoc "trace.0ddba11" (T.report ()).T.r_counters);
  shutdown router;
  Thread.join r_th;
  shutdown (Client.Tcp ("127.0.0.1", p1));
  shutdown (Client.Tcp ("127.0.0.1", p2));
  Thread.join th1;
  Thread.join th2

let test_cluster_snapshot_merge =
  with_telemetry @@ fun () ->
  let th1, p1 = start_shard () in
  let th2, p2 = start_shard () in
  let r_th, r_sock = start_router [ ("127.0.0.1", p1); ("127.0.0.1", p2) ] in
  let router = Client.Unix_sock r_sock in
  List.iter
    (fun n -> ignore (expect_adapted (Client.request_addr router (adapt_req n))))
    [ "em3d"; "mst" ];
  let snap =
    match Client.request_addr router Proto.Stats with
    | Proto.Stats_reply { snapshot } -> snapshot
    | _ -> Alcotest.fail "expected the router's merged snapshot"
  in
  Alcotest.(check string) "merged under the cluster node" "cluster"
    snap.Snapshot.node;
  (* Both shards report live, exactly once each (no double prefixes). *)
  List.iter
    (fun p ->
      let key = Printf.sprintf "shard.127.0.0.1:%d.up" p in
      match List.assoc_opt key snap.Snapshot.gauges with
      | Some v -> Alcotest.(check (float 0.)) (key ^ " = 1") 1.0 v
      | None -> Alcotest.fail ("missing liveness gauge " ^ key))
    [ p1; p2 ];
  Alcotest.(check bool) "no double-prefixed gauges" true
    (List.for_all
       (fun (name, _) ->
         not
           (String.length name >= 12
           && String.equal (String.sub name 0 12) "shard.router"))
       snap.Snapshot.gauges);
  (* The merged histograms cover the served requests; the router's
     forward times ride in the same snapshot. *)
  (match List.assoc_opt "server.service_ms" snap.Snapshot.report.T.r_hists with
  | Some h -> Alcotest.(check bool) "service hist populated" true (h.T.hs_n >= 2)
  | None -> Alcotest.fail "server.service_ms histogram missing");
  (match List.assoc_opt "router.forward_ms" snap.Snapshot.report.T.r_hists with
  | Some h -> Alcotest.(check bool) "forward hist populated" true (h.T.hs_n >= 2)
  | None -> Alcotest.fail "router.forward_ms histogram missing");
  Alcotest.(check bool) "router counted the requests" true
    (Option.value ~default:0
       (List.assoc_opt "router.requests" snap.Snapshot.report.T.r_counters)
    >= 2);
  shutdown router;
  Thread.join r_th;
  shutdown (Client.Tcp ("127.0.0.1", p1));
  shutdown (Client.Tcp ("127.0.0.1", p2));
  Thread.join th1;
  Thread.join th2

(* The router's merge is Telemetry.merge plus per-shard attribution:
   counters sum by name and rejections also stay under
   shard.<node>.<name>, gauges are shard-prefixed, histograms and spans
   merge, and the merged view survives the snapshot codec. *)
let test_snapshot_merge_attribution =
  with_telemetry @@ fun () ->
  T.count "server.rejected" 2;
  T.count "server.tenant.t.served" 3;
  T.record_hist "server.service_ms" 4.0;
  T.with_span "server.request" (fun () -> T.with_span "adapt" ignore);
  let snap node =
    Snapshot.capture ~node ~gauges:[ ("server.queue_depth", 1.) ] ()
  in
  let m = Snapshot.merge [ snap "a:1"; snap "b:2" ] in
  let counter name = List.assoc_opt name m.Snapshot.report.T.r_counters in
  Alcotest.(check (option int)) "counters sum" (Some 4)
    (counter "server.rejected");
  Alcotest.(check (option int)) "served sums" (Some 6)
    (counter "server.tenant.t.served");
  Alcotest.(check (option int)) "rejections stay per shard" (Some 2)
    (counter "shard.b:2.server.rejected");
  Alcotest.(check (option int)) "served is not attributed" None
    (counter "shard.a:1.server.tenant.t.served");
  Alcotest.(check (list string)) "gauges per shard"
    [ "shard.a:1.server.queue_depth"; "shard.b:2.server.queue_depth" ]
    (List.map fst m.Snapshot.gauges);
  (match List.assoc_opt "server.service_ms" m.Snapshot.report.T.r_hists with
  | Some h -> Alcotest.(check int) "histograms merge" 2 h.T.hs_n
  | None -> Alcotest.fail "merged histogram missing");
  (match T.find_span m.Snapshot.report.T.r_spans [ "server.request"; "adapt" ] with
  | Some sp -> Alcotest.(check int) "spans merge by path" 2 sp.T.calls
  | None -> Alcotest.fail "merged span missing");
  Alcotest.(check bool) "the merged view survives the codec" true
    (Snapshot.decode (Snapshot.encode m) = m)

(* A serve whose TCP port is taken raises, and leaves no fd open and no
   socket file behind: the daemon and the router bind through one
   listener setup. *)
let test_bind_failure_leaks_nothing () =
  let taken = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close taken) @@ fun () ->
  Unix.bind taken (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen taken 1;
  let port =
    match Unix.getsockname taken with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> Alcotest.fail "no TCP port"
  in
  let open_fds () =
    if Sys.file_exists "/proc/self/fd" then
      Array.length (Sys.readdir "/proc/self/fd")
    else 0
  in
  let check what serve =
    let socket = fresh what ^ ".sock" in
    let before = open_fds () in
    (match serve (Some socket) (Some ("127.0.0.1", port)) with
    | () -> Alcotest.failf "%s served on a taken port" what
    | exception Unix.Unix_error (Unix.EADDRINUSE, _, _) -> ());
    Alcotest.(check int) (what ^ ": fd count unchanged") before (open_fds ());
    Alcotest.(check bool) (what ^ ": no socket file left") false
      (Sys.file_exists socket)
  in
  let server_cfg =
    { (shard_config ~cache_dir:(fresh "cache") ()) with Server.cache = None }
  in
  check "server" (fun socket tcp ->
      Server.serve { server_cfg with Server.socket; tcp });
  check "router" (fun socket tcp ->
      Router.serve
        {
          (Router.default_config ~shards:[ ("127.0.0.1", port) ]) with
          Router.socket;
          tcp;
        })

(* ---- replication, breakers, deadlines ---- *)

(* Decorrelated-jitter backoff: bounded by [base, cap], geometric growth
   across consecutive failures, and the jitter draw actually spreads. *)
let test_next_backoff () =
  let base = 2. and cap = 30. in
  List.iter
    (fun (prev, u) ->
      let d = Router.next_backoff ~base ~cap ~prev u in
      Alcotest.(check bool)
        (Printf.sprintf "backoff(prev=%.1f, u=%.2f) = %.2f within [base, cap]"
           prev u d)
        true
        (d >= base && d <= cap))
    [ (0., 0.); (0., 0.99); (2., 0.5); (10., 0.99); (30., 0.99); (1e9, 0.5) ];
  (* u=0 pins the draw at base; u->1 approaches min cap (3*prev). *)
  Alcotest.(check (float 1e-9)) "low draw is the base" base
    (Router.next_backoff ~base ~cap ~prev:5. 0.);
  Alcotest.(check bool) "high draw grows toward 3x prev" true
    (Router.next_backoff ~base ~cap ~prev:5. 0.99 > 12.);
  Alcotest.(check bool) "growth is capped" true
    (Router.next_backoff ~base ~cap ~prev:100. 0.99 <= cap)

(* The replica set of a key on a 2-shard ring: (primary, successor) —
   the same placement rule the router applies. *)
let replica_set_of ports req =
  let nodes = List.map (fun p -> Printf.sprintf "127.0.0.1:%d" p) ports in
  let ring = Ring.create nodes in
  let key = Option.get (Router.affinity_key req) in
  let port_of node =
    int_of_string (List.nth (String.split_on_char ':' node) 1)
  in
  match Ring.successors ring key with
  | primary :: replica :: _ -> (port_of primary, port_of replica)
  | _ -> Alcotest.fail "2-node ring must yield 2 successors"

let counter_of name =
  Option.value ~default:0 (List.assoc_opt name (T.report ()).T.r_counters)

(* The tentpole acceptance scenario: a cold adapt through the router is
   written through to the ring successor, so killing the primary
   mid-campaign degrades to a *warm* hit on the replica — same bytes,
   no recompute. *)
let test_replication_warm_failover =
  with_telemetry @@ fun () ->
  let th1, p1 = start_shard () in
  let th2, p2 = start_shard () in
  let r_th, r_sock = start_router [ ("127.0.0.1", p1); ("127.0.0.1", p2) ] in
  let router = Client.Unix_sock r_sock in
  let exp_report, exp_asm = offline_adapt "em3d" in
  let primary, _replica = replica_set_of [ p1; p2 ] (adapt_req "em3d") in
  let r, a, c = expect_adapted (Client.request_addr router (adapt_req "em3d")) in
  Alcotest.(check string) "cold miss on the primary" "miss" c;
  Alcotest.(check bool) "cold bytes identical" true
    (String.equal exp_report r && String.equal exp_asm a);
  (* The write-through happened before the reply was forwarded. *)
  Alcotest.(check bool) "replication counted" true
    (counter_of "router.replicate.ok" >= 1);
  (* Kill the primary; the failover read must be a warm (replica) hit. *)
  shutdown (Client.Tcp ("127.0.0.1", primary));
  Thread.join (if primary = p1 then th1 else th2);
  let r2, a2, c2 =
    expect_adapted (Client.request_retry ~attempts:6 router (adapt_req "em3d"))
  in
  Alcotest.(check string) "failover read is a warm hit, not a recompute"
    "hit" c2;
  Alcotest.(check bool) "failover bytes identical" true
    (String.equal exp_report r2 && String.equal exp_asm a2);
  Alcotest.(check bool) "failover counted" true
    (counter_of "router.failover" >= 1);
  (* The dead primary's read-repair blobs parked as hints. *)
  Alcotest.(check bool) "read-repair blobs parked for the dead primary" true
    (counter_of "router.hinted_handoff.stored" >= 1);
  shutdown router;
  Thread.join r_th;
  let survivor = if primary = p1 then p2 else p1 in
  shutdown (Client.Tcp ("127.0.0.1", survivor));
  Thread.join (if primary = p1 then th2 else th1)

(* A shard restarted on its old port is probed, re-admitted, and handed
   its parked hints — after which it serves the campaign's keys warm
   from a cache it never computed into. *)
let test_breaker_probe_and_hint_flush =
  with_telemetry @@ fun () ->
  let th1, p1 = start_shard () in
  let th2, p2 = start_shard () in
  let r_th, r_sock = start_router [ ("127.0.0.1", p1); ("127.0.0.1", p2) ] in
  let router = Client.Unix_sock r_sock in
  let exp_report, exp_asm = offline_adapt "mst" in
  let primary, _ = replica_set_of [ p1; p2 ] (adapt_req "mst") in
  (* Kill the primary first: the survivor computes, and the write-through
     aimed at the dead primary parks in the hinted-handoff buffer. *)
  shutdown (Client.Tcp ("127.0.0.1", primary));
  Thread.join (if primary = p1 then th1 else th2);
  let _, _, c =
    expect_adapted (Client.request_retry ~attempts:6 router (adapt_req "mst"))
  in
  Alcotest.(check string) "survivor computes cold" "miss" c;
  Alcotest.(check bool) "hints parked for the dead primary" true
    (counter_of "router.hinted_handoff.stored" >= 2);
  (* Restart a shard on the same port with an empty cache. *)
  let port = ref None in
  let cfg =
    { (shard_config ~cache_dir:(fresh "cache") ()) with
      Server.tcp = Some ("127.0.0.1", primary) }
  in
  let th_new =
    Thread.create
      (fun () -> Server.serve ~ready:(fun ~tcp_port -> port := tcp_port) cfg)
      ()
  in
  let rec wait tries =
    if tries = 0 then Alcotest.fail "restarted shard never came up";
    if !port = None then begin
      Thread.delay 0.01;
      wait (tries - 1)
    end
  in
  wait 500;
  (* The prober re-admits it (breaker close) and flushes the hints. *)
  let rec poll tries =
    if tries = 0 then
      Alcotest.fail "breaker never closed / hints never flushed";
    if
      counter_of "router.breaker.close" >= 1
      && counter_of "router.hinted_handoff.flushed" >= 2
    then ()
    else begin
      Thread.delay 0.1;
      poll (tries - 1)
    end
  in
  poll 200;
  Alcotest.(check bool) "the probe was what re-admitted it" true
    (counter_of "router.breaker.probe_ok" >= 1);
  (* The restarted shard now owns the key again and serves it warm from
     the flushed hints — a cache it never computed into. *)
  let r, a, c2 =
    expect_adapted (Client.request_retry ~attempts:6 router (adapt_req "mst"))
  in
  Alcotest.(check string) "restarted primary serves warm from hints" "hit" c2;
  Alcotest.(check bool) "hint-served bytes identical" true
    (String.equal exp_report r && String.equal exp_asm a);
  shutdown router;
  Thread.join r_th;
  shutdown (Client.Tcp ("127.0.0.1", primary));
  Thread.join th_new;
  let survivor = if primary = p1 then p2 else p1 in
  shutdown (Client.Tcp ("127.0.0.1", survivor));
  Thread.join (if primary = p1 then th2 else th1)

(* End-to-end deadlines across the router: an expired budget is shed at
   the router (structured, stage "router") without burning a shard; a
   live budget is decremented per hop and the request still serves. *)
let test_deadline_through_router =
  with_telemetry @@ fun () ->
  let th, p = start_shard () in
  let r_th, r_sock = start_router [ ("127.0.0.1", p) ] in
  let router = Client.Unix_sock r_sock in
  let before = counter_of "server.batches" in
  (match
     Client.request_env ~deadline_ms:(-5.) router (adapt_req "em3d")
   with
  | Proto.Deadline_exceeded { stage; _ }, _, _ ->
    Alcotest.(check string) "shed at the router" "router" stage
  | _ -> Alcotest.fail "expected a router-side deadline shed");
  Alcotest.(check int) "router counted the shed" 1
    (counter_of "router.deadline.shed");
  Alcotest.(check int) "the shed request never reached a shard batch"
    before (counter_of "server.batches");
  let resp, _, _ =
    Client.request_env ~deadline_ms:60_000. router (adapt_req "em3d")
  in
  ignore (expect_adapted resp);
  shutdown router;
  Thread.join r_th;
  shutdown (Client.Tcp ("127.0.0.1", p));
  Thread.join th

(* ---- client retry/backoff ---- *)

let test_client_retries_connect () =
  (* No listener yet: request_retry must back off and succeed once the
     daemon appears — the 'daemon still starting' case. *)
  let socket = fresh "late" ^ ".sock" in
  let waits = ref 0 in
  let starter =
    Thread.create
      (fun () ->
        Thread.delay 0.3;
        Server.serve
          {
            Server.socket = Some socket;
            tcp = None;
            jobs = 1;
            cache = None;
            max_frame = Proto.default_max_frame;
            timeout_s = 60.;
            max_batch = 8;
            max_queue = 256;
            retry_after_s = 0.05;
            tune = false;
          })
      ()
  in
  let resp =
    Client.request_retry ~attempts:10
      ~on_wait:(fun ~reason:_ ~delay_s:_ -> incr waits)
      (Client.Unix_sock socket) Proto.Stats
  in
  (match resp with
  | Proto.Stats_reply _ -> ()
  | _ -> Alcotest.fail "expected stats once the daemon came up");
  Alcotest.(check bool) "at least one backoff happened" true (!waits > 0);
  shutdown (Client.Unix_sock socket);
  Thread.join starter

let test_client_retries_busy () =
  (* A fake endpoint that replies Busy twice, then serves: the client
     must wait twice (honoring retry-after) and return the real reply. *)
  let socket = fresh "busy" ^ ".sock" in
  let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind lfd (Unix.ADDR_UNIX socket);
  Unix.listen lfd 8;
  let server =
    Thread.create
      (fun () ->
        let serve_one resp =
          let fd, _ = Unix.accept lfd in
          (match Proto.read_frame fd with
          | Some _ -> Proto.write_frame fd (Proto.encode_response resp)
          | None -> ());
          Unix.close fd
        in
        serve_one (Proto.Busy_reply { retry_after_s = 0.02 });
        serve_one (Proto.Busy_reply { retry_after_s = 0.02 });
        serve_one Proto.Ok_reply)
      ()
  in
  let reasons = ref [] in
  let resp =
    Client.request_retry ~attempts:5
      ~on_wait:(fun ~reason ~delay_s ->
        Alcotest.(check bool) "positive delay" true (delay_s > 0.);
        reasons := reason :: !reasons)
      (Client.Unix_sock socket) Proto.Shutdown
  in
  Thread.join server;
  Unix.close lfd;
  (match resp with
  | Proto.Ok_reply -> ()
  | _ -> Alcotest.fail "expected the post-busy reply");
  Alcotest.(check int) "waited exactly twice" 2 (List.length !reasons);
  List.iter
    (fun r ->
      Alcotest.(check string) "busy wait says saturated" "server saturated" r)
    !reasons

let test_client_busy_exhaustion () =
  (* When every attempt is rejected, the client must surface the last
     Busy_reply (so callers can report honestly), not loop forever. *)
  let th, port = start_shard ~max_queue:0 () in
  let addr = Client.Tcp ("127.0.0.1", port) in
  (match
     Client.request_retry ~attempts:2 addr (adapt_req "em3d")
   with
  | Proto.Busy_reply _ -> ()
  | _ -> Alcotest.fail "exhausted retries must return the Busy_reply");
  shutdown addr;
  Thread.join th

let suite =
  [
    Alcotest.test_case "ring: chi^2 balance over 10k keys" `Quick
      test_ring_balance;
    Alcotest.test_case "ring: minimal movement on join" `Quick
      test_ring_minimal_movement_on_join;
    Alcotest.test_case "ring: minimal movement on leave" `Quick
      test_ring_minimal_movement_on_leave;
    Alcotest.test_case "ring: deterministic placement" `Quick
      test_ring_deterministic_across_processes;
    Alcotest.test_case "ring: successors cover all nodes" `Quick
      test_ring_successors;
    Alcotest.test_case "tcp transport byte-identical" `Quick
      test_tcp_transport_identical;
    Alcotest.test_case "router: routes, caches, answers stats" `Quick
      test_router_routes_and_caches;
    Alcotest.test_case "router: keeps nothing of closed connections" `Quick
      test_router_keeps_no_closed_connection;
    Alcotest.test_case "router: chaos failover mid-campaign" `Quick
      test_router_failover_mid_campaign;
    Alcotest.test_case "router: forwards Busy untouched" `Quick
      test_router_forwards_busy;
    Alcotest.test_case "trace: one id across router and shard" `Quick
      test_traced_through_router;
    Alcotest.test_case "stats plane: merged cluster snapshot" `Quick
      test_cluster_snapshot_merge;
    Alcotest.test_case "stats plane: merge attributes per shard" `Quick
      test_snapshot_merge_attribution;
    Alcotest.test_case "listeners: a failed bind leaks nothing" `Quick
      test_bind_failure_leaks_nothing;
    Alcotest.test_case "breaker: decorrelated-jitter backoff bounds" `Quick
      test_next_backoff;
    Alcotest.test_case "replication: kill primary, replica serves warm"
      `Quick test_replication_warm_failover;
    Alcotest.test_case "breaker: probe re-admits, hints flush" `Quick
      test_breaker_probe_and_hint_flush;
    Alcotest.test_case "deadline: shed at router, live budget serves" `Quick
      test_deadline_through_router;
    Alcotest.test_case "client: backoff until daemon appears" `Quick
      test_client_retries_connect;
    Alcotest.test_case "client: honors retry-after, bounded waits" `Quick
      test_client_retries_busy;
    Alcotest.test_case "client: busy exhaustion surfaces Busy" `Quick
      test_client_busy_exhaustion;
  ]
