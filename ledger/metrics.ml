(* The metric names and units the benchmark prints; BENCHMARK.json at the
   repository root lists the same names (the self-test checks it).

   Every run prints every metric of its list: the end-to-end list without
   tracing, the per-layer list with it. A per-layer metric of a layer the
   workload does not exercise reads 0. *)

let end_to_end =
  [
    ("setup_s", "s");
    ("pass_s", "s");
    ("ssp_speedup_inorder", "x");
    ("max_rss_mb", "MB");
  ]

(* Libraries under lib/ whose non-blank OCaml lines the ledger counts;
   a library that is deleted reads 0, and loc.total also covers any
   library added later. *)
let loc_libraries =
  [
    "analysis"; "cluster"; "core"; "fault"; "feedback"; "harness"; "ir";
    "isa"; "machine"; "minic"; "parallel"; "profiling"; "server"; "sim";
    "store"; "telemetry"; "workloads";
  ]

(* Layers that self time is attributed to; "bench" is the benchmark's own
   glue (output checks, bookkeeping) inside a traced program or request. *)
let layers =
  [ "minic"; "profiling"; "core"; "sim"; "store"; "server"; "cluster";
    "client"; "bench" ]

let per_layer =
  [
    ("sim_minstr_per_s", "Minstr/s");
    ("ssp_speedup_ooo", "x");
    ("cold_ms_p50", "ms");
    ("cold_ms_p90", "ms");
    ("warm_ms_p50", "ms");
    ("warm_ms_p99", "ms");
    ("fail_share", "ratio");
    ("minic.compile_ms", "ms");
    ("minic.static_instrs", "count");
    ("profiling.collect_s", "s");
    ("profiling.minstr_per_s", "Minstr/s");
    ("core.adapt_ms", "ms");
    ("core.delinquent_loads", "count");
    ("core.slices", "count");
    ("core.degraded", "count");
    ("core.code_growth", "ratio");
    ("sim.inorder.minstr_per_s", "Minstr/s");
    ("sim.ooo.minstr_per_s", "Minstr/s");
    ("sim.spec_share", "ratio");
    ("sim.minor_words_per_cycle", "words/cycle");
    ("sim.prefetch.useful", "count");
    ("sim.prefetch.accuracy", "ratio");
    ("sim.prefetch.coverage", "ratio");
    ("sim.spawns", "count");
    ("sim.spawn_denied", "count");
    ("sim.sampled.s", "s");
    ("sim.sampled.minstr_per_s", "Minstr/s");
    ("store.encode_us", "us");
    ("store.decode_us", "us");
    ("store.put_ms", "ms");
    ("store.get_ms", "ms");
    ("store.blob_bytes", "bytes");
    ("store.hit_share", "ratio");
    ("proto.roundtrip_us", "us");
    ("server.queue_ms", "ms");
    ("server.store_lookup_ms", "ms");
    ("server.compute_ms", "ms");
    ("server.serialize_ms", "ms");
    ("server.direct_warm_ms_p50", "ms");
    ("cluster.forward_ms", "ms");
    ("cluster.router_overhead_ms", "ms");
    ("telemetry.overhead", "ratio");
    ("gc.minor_words", "words");
    ("gc.major_collections", "count");
  ]
  @ List.map (fun l -> ("self." ^ l ^ "_s", "s")) layers
  @ List.map
      (fun l -> ("loc." ^ l, "lines"))
      (loc_libraries @ [ "bin"; "total" ])

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  values : (string * float) list;
}

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

(* The values in declared order; a missing, unknown or non-finite value
   is a defect of the benchmark, not of the program under test. *)
let ordered ~declared values =
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name declared) then
        failwith ("undeclared metric " ^ name))
    values;
  List.map
    (fun (name, unit) ->
      match List.assoc_opt name values with
      | Some v when Float.is_finite v -> (name, v, unit)
      | Some _ -> failwith ("non-finite metric " ^ name)
      | None -> failwith ("missing metric " ^ name))
    declared

(* Human-readable lines, then the result as one JSON object on the last
   line of standard output. *)
let print ~declared r =
  let rows = ordered ~declared r.values in
  List.iter
    (fun (name, v, unit) -> Printf.printf "%-30s %16.6f %s\n" name v unit)
    rows;
  Printf.printf "attempted %d, failed %d, correct %b\n" r.attempted r.failed
    r.correct;
  let metric (name, v, unit) =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    r.correct r.attempted r.failed
    (String.concat ", " (List.map metric rows))

(* Peak resident memory of this process, from /proc (Linux); the OCaml
   heap's peak where /proc is unavailable. *)
let max_rss_mb () =
  let from_proc () =
    let ic = open_in "/proc/self/status" in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        let rec scan () =
          match input_line ic with
          | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
              (fun kb -> float_of_int kb /. 1024.)
          | _ -> scan ()
        in
        scan ())
  in
  match from_proc () with
  | mb -> mb
  | exception (Sys_error _ | End_of_file | Scanf.Scan_failure _ | Failure _) ->
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1048576.
