(* The serving workload, serve-mix.

   One closed-loop client (one request in flight) sends Adapt requests
   carrying generated mini-C source to an in-process router with
   replication on, in front of two TCP shards with one worker each and a
   cache of their own. A cold request carries a program never sent
   before: the shard compiles, profiles and adapts it, publishes the
   artifacts with fsync, and the router writes them through to the ring
   successor. A warm request repeats a program the shards already hold:
   a store lookup, decoding, asm rendering, the wire and the router hop,
   and no profiling, adapting or simulation.

   Checks: every cold reply says "miss", every warm reply says "hit" and
   carries exactly the asm and report of that program's cold reply; any
   other reply or exception is a failure. After measuring, the adapted
   binaries served for the first [speedup_set] programs are simulated
   in-order against their originals: outputs must equal the Funcsim
   outputs, and the geomean speedup is the workload's
   ssp_speedup_inorder. *)

module P = Ssp_server.Proto
module C = Ssp_server.Client
module Store = Ssp_store.Store
module T = Ssp_telemetry.Telemetry

type plan = {
  scale : int;  (** gen: program size *)
  warm_set : int;  (** programs requested cold during set-up *)
  speedup_set : int;  (** served binaries simulated for the speedup *)
  cold_per_pass : int;
  warm_per_cold : int;
  min_cold : int;  (** cold samples a measurement needs: p90 *)
  min_warm : int;  (** warm samples a measurement needs: p99 *)
}

let plan ~tiny =
  if tiny then
    { scale = 1; warm_set = 2; speedup_set = 2; cold_per_pass = 2; warm_per_cold = 2;
      min_cold = 2; min_warm = 4 }
  else
    { scale = 2; warm_set = 10; speedup_set = 30; cold_per_pass = 10; warm_per_cold = 10;
      min_cold = 100; min_warm = 1000 }

let workdir = ".ledger"

(* See Meter. *)
let meter_power = 1.

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let mkdir_p path =
  let rec go p =
    if p <> "" && p <> "." && p <> "/" && not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      Sys.mkdir p 0o755
    end
  in
  go path

type cluster = {
  dir : string;
  shards : (string * int) list;
  caches : Store.Cache.t list;
  router : C.addr;
  threads : Thread.t list;
}

let wait_port what port =
  let rec go tries =
    match !port with
    | Some p -> p
    | None when tries = 0 -> failwith (what ^ " never came up")
    | None ->
      Thread.delay 0.005;
      go (tries - 1)
  in
  go 2000

let start_shard dir i =
  let cache = Store.Cache.open_dir (Filename.concat dir (Printf.sprintf "shard%d" i)) in
  let port = ref None in
  let cfg =
    {
      Ssp_server.Server.socket = None;
      tcp = Some ("127.0.0.1", 0);
      jobs = 1;
      cache = Some cache;
      max_frame = P.default_max_frame;
      timeout_s = 120.;
      max_batch = 32;
      max_queue = 256;
      retry_after_s = 0.2;
      tune = false;
    }
  in
  let th =
    Thread.create
      (fun () -> Ssp_server.Server.serve ~ready:(fun ~tcp_port -> port := tcp_port) cfg)
      ()
  in
  (th, cache, ("127.0.0.1", wait_port "shard" port))

let start ~id =
  let dir = Filename.concat workdir (Printf.sprintf "tmp-%d-%d" (Unix.getpid ()) id) in
  rm_rf dir;
  mkdir_p dir;
  let th1, c1, s1 = start_shard dir 1 in
  let th2, c2, s2 = start_shard dir 2 in
  let shards = [ s1; s2 ] in
  let port = ref None in
  let cfg =
    {
      (Ssp_cluster.Router.default_config ~shards) with
      Ssp_cluster.Router.tcp = Some ("127.0.0.1", 0);
      replicate = true;
    }
  in
  let rth =
    Thread.create
      (fun () -> Ssp_cluster.Router.serve ~ready:(fun ~tcp_port -> port := tcp_port) cfg)
      ()
  in
  let router = C.Tcp ("127.0.0.1", wait_port "router" port) in
  { dir; shards; caches = [ c1; c2 ]; router; threads = [ rth; th1; th2 ] }

let stop cl =
  let shutdown addr =
    match C.request_addr ~timeout_s:30. addr P.Shutdown with
    | _ -> ()
    | exception _ -> ()
  in
  shutdown cl.router;
  List.iter (fun (h, p) -> shutdown (C.Tcp (h, p))) cl.shards;
  List.iter Thread.join cl.threads;
  rm_rf cl.dir

type held = { source : string; report : string; asm : string }

type state = {
  plan : plan;
  seed : int;
  cluster : cluster;
  mutable next_seed : int;  (** index into the fresh-program stream *)
  mutable fresh : int;  (** fresh programs drawn *)
  used : (string, unit) Hashtbl.t;  (** hashes of the programs sent *)
  mutable held : held array;  (** programs the shards hold, first [n_held] *)
  mutable n_held : int;
  warm_pick : Seeds.rng;
  mutable attempted : int;
  mutable failed : int;
  mutable trace : P.trace_ctx option;
}

let failure st why =
  st.failed <- st.failed + 1;
  if st.failed <= 5 then prerr_endline ("ledger: check failed: " ^ why)

(* The next program never sent before. Fresh programs cycle through the
   generator's three skeleton families, whose programs cost the shards
   quite different times, so that every run sends them in the same
   proportions. Distinct gen: seeds can compile to the same program (the
   tree skeleton folds footprints into a few depths), and the shards'
   caches key on the compiled program, so programs are told apart by its
   hash. *)
let fresh_source st =
  let family = Ssp_workloads.Gen.[| List_walk; Tree_walk; Hash_walk |].(st.fresh mod 3) in
  st.fresh <- st.fresh + 1;
  let rec go () =
    let g = Seeds.derive ~seed:st.seed ~stream:2 st.next_seed in
    st.next_seed <- st.next_seed + 1;
    if (Ssp_workloads.Gen.params_of_seed g).skeleton <> family then go () else
    let source =
      (Ssp_workloads.Gen.workload ~seed:g).Ssp_workloads.Workload.source st.plan.scale
    in
    let key = Store.hash_program (Ssp_minic.Frontend.compile source) in
    if Hashtbl.mem st.used key then go ()
    else begin
      Hashtbl.replace st.used key ();
      source
    end
  in
  go ()

let request source =
  P.Adapt
    { prog = P.Source source; scale = 1; pipeline = "inorder";
      tenant = P.default_tenant }

(* Per-request stage times (ms) gathered from traced replies. *)
type stages = {
  mutable requests : int;
  mutable queue : float;
  mutable lookup : float;
  mutable compute : float;
  mutable serialize : float;
  mutable forward : float;
  mutable frontend : float;
  mutable frontend_n : int;
  mutable profile : float;
  mutable adapt : float;
  mutable adapt_n : int;
  mutable profiled : (string * float) list;
      (** cold programs and their profile time (ms) *)
}

let new_stages () =
  { requests = 0; queue = 0.; lookup = 0.; compute = 0.; serialize = 0.;
    forward = 0.; frontend = 0.; frontend_n = 0; profile = 0.; adapt = 0.;
    adapt_n = 0; profiled = [] }

(* The reply's hop list becomes spans under the request span, laid out
   in stage order: router forward, then the shard's queue, store lookup,
   compute (with the frontend, profile and adapt spans the shard
   recorded) and serialize. *)
let record_hops stages ~request_id ~t0 ~dur hops =
  let ms stage =
    List.fold_left
      (fun acc (h : P.hop) -> if h.hop_stage = stage then acc +. h.hop_ms else acc)
      0. hops
  in
  let fwd = ms "forward" /. 1000. in
  let fwd_t0 = t0 +. Float.max 0. ((dur -. fwd) /. 2.) in
  let fwd_id = Spans.child ~parent:request_id ~name:"cluster.forward" ~t0:fwd_t0 ~dur:fwd in
  let cursor = ref fwd_t0 in
  let stage ?(parent = fwd_id) name secs =
    let id = Spans.child ~parent ~name ~t0:!cursor ~dur:secs in
    cursor := !cursor +. secs;
    id
  in
  let q = ms "queue" and l = ms "store.lookup" and c = ms "compute" in
  let z = ms "serialize" in
  ignore (stage "server.queue" (q /. 1000.));
  ignore (stage "store.lookup" (l /. 1000.));
  let compute_t0 = !cursor in
  let compute_id = stage "server.compute" (c /. 1000.) in
  let after_compute = !cursor in
  cursor := compute_t0;
  let inner name stage_name =
    let v = ms ("span:server.request/" ^ stage_name) in
    if v > 0. then ignore (stage ~parent:compute_id name (v /. 1000.));
    v
  in
  let fe = inner "minic.compile" "frontend" in
  let pr = inner "profiling.collect" "profile" in
  let ad = inner "core.adapt" "adapt" in
  cursor := after_compute;
  ignore (stage "server.serialize" (z /. 1000.));
  stages.requests <- stages.requests + 1;
  stages.queue <- stages.queue +. q;
  stages.lookup <- stages.lookup +. l;
  stages.compute <- stages.compute +. c;
  stages.serialize <- stages.serialize +. z;
  stages.forward <- stages.forward +. (fwd *. 1000.);
  if fe > 0. then begin
    stages.frontend <- stages.frontend +. fe;
    stages.frontend_n <- stages.frontend_n + 1
  end;
  stages.profile <- stages.profile +. pr;
  if ad > 0. then begin
    stages.adapt <- stages.adapt +. ad;
    stages.adapt_n <- stages.adapt_n + 1
  end;
  pr

(* One request; the client-observed latency in seconds, the process's
   CPU seconds for it at the reference host speed (see Meter), the reply
   if it was an Adapted one, and the profile time the shard reported
   (ms). *)
let send st ?stages addr source =
  st.attempted <- st.attempted + 1;
  let req = request source in
  Meter.poll ();
  let ((reply, hops), scaled), dur, id =
    Spans.with_op st.attempted @@ fun () ->
    Spans.timed "request" @@ fun () ->
    Meter.timed ~power:meter_power (fun () ->
        match st.trace with
        | None -> (
          match C.request_addr ~timeout_s:60. addr req with
          | r -> (Ok r, [])
          | exception e -> (Error (Printexc.to_string e), []))
        | Some tc -> (
          let trace = { tc with P.span_id = Spans.current () } in
          match C.request_hops ~timeout_s:60. ~trace addr req with
          | r, hops -> (Ok r, hops)
          | exception e -> (Error (Printexc.to_string e), [])))
  in
  let profile_ms =
    match stages with
    | Some stages ->
      let t0 = Unix.gettimeofday () -. dur in
      record_hops stages ~request_id:id ~t0 ~dur hops
    | None -> 0.
  in
  let fail why =
    failure st why;
    (dur, scaled, None, profile_ms)
  in
  match reply with
  | Ok (P.Adapted { report; asm; cache }) ->
    (dur, scaled, Some (report, asm, cache), profile_ms)
  | Ok (P.Error_reply { pass; what; _ }) ->
    fail (Printf.sprintf "error reply [%s]: %s" pass what)
  | Ok (P.Busy_reply _) -> fail "busy reply"
  | Ok (P.Deadline_exceeded { stage; _ }) -> fail ("deadline exceeded at " ^ stage)
  | Ok _ -> fail "unexpected reply"
  | Error why -> fail ("request raised " ^ why)

let hold st h =
  if st.n_held = Array.length st.held then
    st.held <- Array.append st.held (Array.make (max 16 st.n_held) h);
  st.held.(st.n_held) <- h;
  st.n_held <- st.n_held + 1

let cold st ?stages () =
  let source = fresh_source st in
  let ((_, _, reply, profile_ms) as r) = send st ?stages st.cluster.router source in
  Option.iter
    (fun stages -> stages.profiled <- (source, profile_ms) :: stages.profiled)
    stages;
  (match reply with
  | Some (report, asm, "miss") -> hold st { source; report; asm }
  | Some (_, _, cache) -> failure st ("cold request answered " ^ cache)
  | None -> ());
  r

let warm st ?stages () =
  let h = st.held.(Seeds.draw st.warm_pick st.n_held) in
  let ((_, _, reply, _) as r) = send st ?stages st.cluster.router h.source in
  (match reply with
  | Some (report, asm, "hit") ->
    if not (String.equal report h.report && String.equal asm h.asm) then
      failure st "warm reply differs from the cold reply"
  | Some (_, _, cache) -> failure st ("warm request answered " ^ cache)
  | None -> ());
  r

let setup p ~seed ~id =
  let cluster = start ~id in
  let st =
    {
      plan = p; seed; cluster; next_seed = 0; fresh = 0; used = Hashtbl.create 64;
      held = [||]; n_held = 0; warm_pick = Seeds.rng ~seed ~stream:3;
      attempted = 0; failed = 0; trace = None;
    }
  in
  for _ = 1 to p.warm_set do
    ignore (cold st ())
  done;
  for _ = 1 to p.warm_set do
    ignore (warm st ())
  done;
  st

type samples = {
  mutable cold_ms : float list;
  mutable warm_ms : float list;
  mutable cold_ref_ms : float list;  (** CPU ms at the reference speed *)
  mutable warm_ref_ms : float list;
  mutable passes : int;
}

let new_samples () =
  { cold_ms = []; warm_ms = []; cold_ref_ms = []; warm_ref_ms = []; passes = 0 }

(* CPU seconds of a pass at the reference host speed: its requests at
   the median CPU time of a cold and of a warm request. Each pass sends
   programs of different sizes, so the median over all requests of a
   kind varies less between runs than the sum of any one pass. *)
let pass_s plan smp =
  ((float_of_int plan.cold_per_pass *. Pct.median smp.cold_ref_ms)
  +. (float_of_int (plan.cold_per_pass * plan.warm_per_cold)
     *. Pct.median smp.warm_ref_ms))
  /. 1000.

(* A pass: [cold_per_pass] fresh programs, each followed by
   [warm_per_cold] repeats of programs already held. *)
let pass st ?stages smp =
  for _ = 1 to st.plan.cold_per_pass do
    let dur, scaled, _, _ = cold st ?stages () in
    smp.cold_ms <- (dur *. 1000.) :: smp.cold_ms;
    smp.cold_ref_ms <- (scaled *. 1000.) :: smp.cold_ref_ms;
    for _ = 1 to st.plan.warm_per_cold do
      let dur, scaled, _, _ = warm st ?stages () in
      smp.warm_ms <- (dur *. 1000.) :: smp.warm_ms;
      smp.warm_ref_ms <- (scaled *. 1000.) :: smp.warm_ref_ms
    done
  done;
  smp.passes <- smp.passes + 1

let measure st ?stages ~seconds ~min_samples () =
  let smp = new_samples () in
  let t0 = Unix.gettimeofday () in
  while
    smp.passes = 0
    || Unix.gettimeofday () -. t0 < seconds
    || (min_samples
       && (List.length smp.cold_ms < st.plan.min_cold
          || List.length smp.warm_ms < st.plan.min_warm))
  do
    pass st ?stages smp
  done;
  smp

(* In-order simulation of the binaries served for the first programs:
   the adapted binary must print what Funcsim says the original prints.
   Returns the geomean speedup. *)
let served_speedup st =
  let config = Ssp_machine.Config.in_order in
  let speedups =
    List.filter_map
      (fun i ->
        let h = st.held.(i) in
        st.attempted <- st.attempted + 1;
        match
          let prog = Ssp_minic.Frontend.compile h.source in
          let reference = (Ssp_sim.Funcsim.run prog).Ssp_sim.Funcsim.outputs in
          let adapted = Ssp_ir.Asm.parse h.asm in
          let base = Ssp_sim.Inorder.run config prog in
          let ssp = Ssp_sim.Inorder.run config adapted in
          if base.outputs <> reference || ssp.outputs <> reference then None
          else Some (float_of_int base.cycles /. float_of_int ssp.cycles)
        with
        | Some s -> Some s
        | None ->
          failure st "served binary's outputs differ from Funcsim";
          None
        | exception e ->
          failure st ("served binary: " ^ Printexc.to_string e);
          None)
      (List.init (min st.plan.speedup_set st.n_held) Fun.id)
  in
  match speedups with [] -> 0. | xs -> Pct.geomean xs

(* Store codecs and artifacts of the given cold programs, read back from
   the shards' caches: encode/decode cost, blob size, the adaptation
   report behind each served binary, and the profiled instructions per
   second of profile time the shard reported. *)
let artifact_metrics st profiled =
  let config = Ssp_machine.Config.in_order in
  let find key =
    List.find_map (fun c -> Store.Cache.find c key) st.cluster.caches
  in
  let enc = ref [] and dec = ref [] and bytes = ref [] in
  let n = ref 0 and instrs = ref 0 and adapted_instrs = ref 0 in
  let delinquent = ref 0 and slices = ref 0 and degraded = ref 0 in
  let profiled_instrs = ref 0 and profile_ms = ref 0. in
  List.iter
    (fun (source, pr_ms) ->
      let prog = Ssp_minic.Frontend.compile source in
      match find (Store.profile_key ~config prog) with
      | None -> failure st "profile artifact missing from the shards"
      | Some pblob -> (
        let profile = Store.decode_profile pblob in
        profiled_instrs := !profiled_instrs + profile.Ssp_profiling.Profile.total_instrs;
        profile_ms := !profile_ms +. pr_ms;
        match find (Store.adapted_key ~config prog profile) with
        | None -> failure st "adapted artifact missing from the shards"
        | Some blob ->
          let t0 = Unix.gettimeofday () in
          let a = Store.decode_adapted blob in
          let t1 = Unix.gettimeofday () in
          let again = Store.encode_adapted a in
          let t2 = Unix.gettimeofday () in
          if not (String.equal again blob) then
            failure st "adapted artifact does not re-encode to the same bytes";
          dec := ((t1 -. t0) *. 1e6) :: !dec;
          enc := ((t2 -. t1) *. 1e6) :: !enc;
          bytes := float_of_int (String.length blob) :: !bytes;
          incr n;
          instrs := !instrs + Ssp_ir.Prog.instr_count prog;
          adapted_instrs := !adapted_instrs + Ssp_ir.Prog.instr_count a.Store.prog;
          delinquent := !delinquent + a.Store.report.Ssp.Report.n_delinquent;
          slices := !slices + List.length a.Store.report.Ssp.Report.slices;
          degraded := !degraded + List.length a.Store.report.Ssp.Report.diagnostics))
    profiled;
  let per v = float_of_int v /. float_of_int (max 1 !n) in
  let med = function [] -> 0. | xs -> Pct.median xs in
  let ratio a b = if b = 0. then 0. else a /. b in
  [
    ("store.encode_us", med !enc);
    ("store.decode_us", med !dec);
    ("store.blob_bytes", med !bytes);
    ("minic.static_instrs", per !instrs);
    ("core.delinquent_loads", per !delinquent);
    ("core.slices", per !slices);
    ("core.degraded", per !degraded);
    ("core.code_growth", ratio (float_of_int !adapted_instrs) (float_of_int !instrs));
    ( "profiling.minstr_per_s",
      ratio (float_of_int !profiled_instrs /. 1e6) (!profile_ms /. 1000.) );
  ]

(* Wire cost of one warm exchange without the network: encode and decode
   a request and its reply, median of repeated rounds, in microseconds. *)
let proto_roundtrip_us st =
  let h = st.held.(0) in
  let req = request h.source in
  let resp = P.Adapted { report = h.report; asm = h.asm; cache = "hit" } in
  let round () =
    let t0 = Unix.gettimeofday () in
    ignore (P.decode_request (P.encode_request req));
    ignore (P.decode_response (P.encode_response resp));
    (Unix.gettimeofday () -. t0) *. 1e6
  in
  Pct.median (List.init 201 (fun _ -> round ()))

(* The shard the router sends a program to, from the router's own ring. *)
let owner st source =
  let ring =
    Ssp_cluster.Ring.create
      (List.map Ssp_cluster.Router.node_of_shard st.cluster.shards)
  in
  match Ssp_cluster.Router.affinity_key (request source) with
  | None -> failwith "no affinity key"
  | Some key -> (
    match Ssp_cluster.Ring.lookup ring key with
    | Some node ->
      let h, p =
        List.find (fun s -> Ssp_cluster.Router.node_of_shard s = node) st.cluster.shards
      in
      C.Tcp (h, p)
    | None -> failwith "empty ring")

let direct_warm_ms st ~n =
  let h = st.held.(0) in
  let addr = owner st h.source in
  List.init n (fun _ ->
      let dur, _, reply, _ = send st addr h.source in
      (match reply with
      | Some (report, asm, "hit") when String.equal report h.report && String.equal asm h.asm -> ()
      | Some _ -> failure st "direct warm reply differs"
      | None -> ());
      dur *. 1000.)

let hist_mean name =
  match List.assoc_opt name (T.report ()).T.r_hists with
  | Some h -> T.hist_mean h
  | None -> 0.

let counter name =
  Option.value ~default:0 (List.assoc_opt name (T.report ()).T.r_counters)
