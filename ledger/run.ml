(* One benchmark run: set up, measure, check, and collect the metrics of
   the run's list — end to end without tracing, per layer with it.

   setup_s and pass_s are CPU seconds at the reference host speed of
   Meter; the per-layer times are wall-clock. Set-up runs several times
   and setup_s is the median. On serve-mix [setups] set-ups come first
   and the last one is measured; on the offline workloads the first one
   is measured and one more runs after each of its passes, so that
   set-up is timed across the whole run as the pass is. A traced run
   first measures untraced for half its time (the base of
   telemetry.overhead and the source of the latency percentiles), then
   traces for the other half. *)

type workload = Suite_full | Corpus_sampled | Serve_mix

let workloads =
  [ ("suite-full", Suite_full); ("corpus-sampled", Corpus_sampled);
    ("serve-mix", Serve_mix) ]

type config = {
  workload : workload;
  seed : int;
  seconds : float;
  trace : bool;
  tiny : bool;  (** smoke-test sizes *)
}

let setups cfg = if cfg.tiny then 1 else 5

(* Runs [setup] [setups cfg] times, tearing down all but the last;
   returns the last state and the median set-up time. The set-up's
   requests sample the host speed meter. *)
let repeated_setup cfg ~setup ~teardown =
  let rec go i times =
    let st, t = Meter.timed ~power:Serve.meter_power (fun () -> setup i) in
    if i + 1 < setups cfg then begin
      teardown st;
      go (i + 1) (t :: times)
    end
    else (st, Pct.median (t :: times))
  in
  go 0 []

let layer_of name =
  match name with
  | "request" -> "client"
  | _ -> (
    match String.index_opt name '.' with
    | Some i when List.mem (String.sub name 0 i) Metrics.layers -> String.sub name 0 i
    | _ -> "bench")

(* Self time per layer, per pass, from the recorded spans. *)
let self_metrics ~passes =
  let by_layer = Hashtbl.create 16 in
  List.iter
    (fun (name, s) ->
      let l = layer_of name in
      Hashtbl.replace by_layer l (s +. Option.value ~default:0. (Hashtbl.find_opt by_layer l)))
    (Spans.self_times ());
  let total = Hashtbl.fold (fun _ v acc -> acc +. v) by_layer 0. in
  Printf.printf "self times sum to %.6f s of %.6f s traced (%d passes)\n" total
    (Spans.root_s ()) passes;
  List.map
    (fun l ->
      ( "self." ^ l ^ "_s",
        Option.value ~default:0. (Hashtbl.find_opt by_layer l)
        /. float_of_int (max 1 passes) ))
    Metrics.layers

(* Per-layer metrics the workload does not produce read 0. *)
let fill_layers values =
  List.map
    (fun (name, _) ->
      (name, Option.value ~default:0. (List.assoc_opt name values)))
    Metrics.per_layer

let info fmt = Printf.printf ("info: " ^^ fmt ^^ "\n%!")

let trace_path cfg =
  let name = fst (List.find (fun (_, w) -> w = cfg.workload) workloads) in
  Filename.concat Serve.workdir (Printf.sprintf "trace-%s-%d.json" name cfg.seed)

let finish cfg ~attempted ~failed ~values =
  info "host speed: mean meter loop %.4f ms, %.3fx the reference"
    (Meter.mean_loop_s () *. 1000.) (Meter.reference_s /. Meter.mean_loop_s ());
  if cfg.trace then begin
    Serve.mkdir_p Serve.workdir;
    Spans.write_chrome (trace_path cfg);
    info "trace written to %s" (trace_path cfg)
  end;
  { Metrics.correct = failed = 0; attempted; failed; values }

let fail_share ~attempted ~failed =
  float_of_int failed /. float_of_int (max 1 attempted)

let offline cfg kind =
  Meter.with_timer @@ fun () ->
  let plan = Offline.plan ~tiny:cfg.tiny kind in
  let setup () =
    Meter.timed ~power:Offline.meter_power (fun () -> Offline.setup plan ~seed:cfg.seed)
  in
  let inputs, first_s = setup () in
  info "%d programs, %d dynamic instructions" (Array.length inputs)
    (Array.fold_left (fun s (i : Offline.input) -> s + i.instrs) 0 inputs);
  let st = Offline.create plan inputs in
  let setup_times = ref [ first_s ] in
  let between () =
    let again, t = setup () in
    setup_times := t :: !setup_times;
    if again <> inputs then Offline.failure st "set-up is not deterministic"
  in
  let seconds = if cfg.trace then cfg.seconds /. 2. else cfg.seconds in
  let raw_pass_s = Offline.measure st ~seconds ~between in
  let setup_s = Pct.median !setup_times in
  let pass_s = Offline.pass_s st raw_pass_s in
  let io, ooo = Offline.speedup_geomeans st in
  info "ssp speedup in-order %.4fx (paper 1.87x), OOO %.4fx (paper 1.05x); \
        the model is not validated against hardware" io ooo;
  let values =
    if not cfg.trace then
      [ ("setup_s", setup_s); ("pass_s", pass_s); ("ssp_speedup_inorder", io);
        ("max_rss_mb", Metrics.max_rss_mb ()) ]
    else begin
      let layers = Offline.traced_pass st ~untraced_pass_s:raw_pass_s in
      fill_layers
        (layers
        @ [ ("fail_share", fail_share ~attempted:st.attempted ~failed:st.failed) ]
        @ self_metrics ~passes:1 @ Loc.ledger ())
    end
  in
  finish cfg ~attempted:st.attempted ~failed:st.failed ~values

let serve cfg =
  let plan = Serve.plan ~tiny:cfg.tiny in
  Serve.mkdir_p Serve.workdir;
  let st, setup_s =
    repeated_setup cfg
      ~setup:(fun id -> Serve.setup plan ~seed:cfg.seed ~id)
      ~teardown:(fun (st : Serve.state) -> Serve.stop st.cluster)
  in
  Fun.protect ~finally:(fun () -> Serve.stop st.cluster) @@ fun () ->
  let seconds = if cfg.trace then cfg.seconds /. 2. else cfg.seconds in
  let smp = Serve.measure st ~seconds ~min_samples:true () in
  let pass_s = Serve.pass_s plan smp in
  let tail ~bp xs =
    match Pct.tail ~bp xs with
    | Ok v -> v
    | Error _ when cfg.tiny -> 0.
    | Error why -> failwith why
  in
  let cold50 = Pct.median smp.cold_ms and warm50 = Pct.median smp.warm_ms in
  let cold90 = tail ~bp:9000 smp.cold_ms and warm99 = tail ~bp:9900 smp.warm_ms in
  let highest xs =
    match Pct.highest (List.length xs) with
    | Some bp -> Printf.sprintf "p%g %.3f" (float_of_int bp /. 100.) (tail ~bp xs)
    | None -> "no tail percentile"
  in
  info "cold ms: %d samples, p50 %.3f, %s; warm ms: %d samples, p50 %.3f, %s"
    (List.length smp.cold_ms) cold50 (highest smp.cold_ms)
    (List.length smp.warm_ms) warm50 (highest smp.warm_ms);
  info "p50 CPU ms at the reference speed: cold %.3f, warm %.3f"
    (Pct.median smp.cold_ref_ms) (Pct.median smp.warm_ref_ms);
  let values =
    if not cfg.trace then begin
      let speedup = Serve.served_speedup st in
      info "served binaries: in-order ssp speedup %.4fx" speedup;
      [ ("setup_s", setup_s); ("pass_s", pass_s); ("ssp_speedup_inorder", speedup);
        ("max_rss_mb", Metrics.max_rss_mb ()) ]
    end
    else begin
      let direct = Serve.direct_warm_ms st ~n:(if cfg.tiny then 4 else 200) in
      let direct50 = Pct.median direct in
      let module T = Ssp_telemetry.Telemetry in
      T.reset ();
      T.set_enabled true;
      Spans.reset ();
      Spans.tracing := true;
      st.trace <- Some { Ssp_server.Proto.trace_id = Printf.sprintf "ledger-%d" cfg.seed; span_id = 0 };
      let stages = Serve.new_stages () in
      let gc0 = Gc.quick_stat () in
      let traced = Serve.measure st ~stages ~seconds ~min_samples:false () in
      let gc1 = Gc.quick_stat () in
      st.trace <- None;
      Spans.tracing := false;
      let put_ms = Serve.hist_mean "store.put_ms" and get_ms = Serve.hist_mean "store.get_ms" in
      let hits = Serve.counter "store.hit" and misses = Serve.counter "store.miss" in
      T.set_enabled false;
      let passes = traced.passes in
      let per_pass v = v /. float_of_int (max 1 passes) in
      let per_req v = v /. float_of_int (max 1 stages.requests) in
      let ratio a b = if b = 0. then 0. else a /. b in
      let artifacts = Serve.artifact_metrics st stages.profiled in
      let roundtrip = Serve.proto_roundtrip_us st in
      ignore (Serve.served_speedup st);
      fill_layers
        ([
           ("cold_ms_p50", cold50); ("cold_ms_p90", cold90);
           ("warm_ms_p50", warm50); ("warm_ms_p99", warm99);
           ("fail_share", fail_share ~attempted:st.attempted ~failed:st.failed);
           ("minic.compile_ms", ratio stages.frontend (float_of_int stages.frontend_n));
           ("profiling.collect_s", per_pass (stages.profile /. 1000.));
           ("core.adapt_ms", ratio stages.adapt (float_of_int stages.adapt_n));
           ("store.put_ms", put_ms); ("store.get_ms", get_ms);
           ("store.hit_share", ratio (float_of_int hits) (float_of_int (hits + misses)));
           ("proto.roundtrip_us", roundtrip);
           ("server.queue_ms", per_req stages.queue);
           ("server.store_lookup_ms", per_req stages.lookup);
           ("server.compute_ms", per_req stages.compute);
           ("server.serialize_ms", per_req stages.serialize);
           ("server.direct_warm_ms_p50", direct50);
           ("cluster.forward_ms", per_req stages.forward);
           ("cluster.router_overhead_ms", warm50 -. direct50);
           ("telemetry.overhead", ratio (Serve.pass_s plan traced) pass_s);
           ("gc.minor_words", per_pass (gc1.Gc.minor_words -. gc0.Gc.minor_words));
           ( "gc.major_collections",
             per_pass (float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections)) );
         ]
        @ artifacts @ self_metrics ~passes @ Loc.ledger ())
    end
  in
  finish cfg ~attempted:st.attempted ~failed:st.failed ~values

let run cfg =
  match cfg.workload with
  | Suite_full -> offline cfg Offline.Suite_full
  | Corpus_sampled -> offline cfg Offline.Corpus_sampled
  | Serve_mix -> serve cfg

let declared cfg = if cfg.trace then Metrics.per_layer else Metrics.end_to_end
