(* sspc: command-line driver for the SSP post-pass tool chain.

   Subcommands:
     compile    mini-C source -> ISA assembly listing
     exec       assemble and execute a saved listing
     run        functional execution (outputs + instruction counts)
     profile    profile a program and list the delinquent loads
     adapt      run the SSP post-pass and show slices/triggers
     fsck       verify and garbage-collect an artifact store
     sim        cycle simulation (in-order / ooo, with or without SSP)
     explain    pipeline + attributed simulation: per-delinquent-load
                prefetch effectiveness (coverage/accuracy/timeliness)
     tune       one offline closed-loop tuning round over a store
     stats      run the full pipeline and print the telemetry summary
     top        live view of a daemon's or router's telemetry
     chaos      fault-injection campaigns with speculative-safety
                invariance checking (exits 1 on any violation)
     serve      the adaptation daemon (one cluster shard)
     route      the cluster router in front of shard daemons
     client     adapt / sim / stats / shutdown against a daemon or router
     bench      list workloads
     table1     print the machine models

   'adapt', 'sim', 'explain' and 'stats' answer through the same
   functions as the daemon: Suite.compile, Feedback.adapt and
   Simulate.run.

   'adapt', 'sim' and 'stats' take [--trace out.json] to enable the
   telemetry subsystem and dump the structured run report; 'sim' and
   'explain' take [--trace-events out.json] to export a Chrome
   trace-event (Perfetto-loadable) timeline. *)

open Cmdliner
module T = Ssp_telemetry.Telemetry
module Json = Ssp_telemetry.Json
module Fb = Ssp_feedback.Feedback
module Suite = Ssp_workloads.Suite

(* Robustness contract: anything wrong with the *input* — a missing or
   unreadable file, source that doesn't compile, a corrupt assembly
   listing, a malformed --faults spec — exits with code 2 and a one-line
   diagnostic, never an uncaught exception with a backtrace. *)
let fail2 msg =
  Printf.eprintf "sspc: %s\n" msg;
  exit 2

let guard k =
  try k () with
  | Sys_error msg -> fail2 msg
  | Ssp_minic.Frontend.Error msg -> fail2 msg
  | Ssp_ir.Asm.Error (msg, line) ->
    fail2 (Printf.sprintf "%s (line %d)" msg line)
  | Ssp_ir.Error.Error e -> fail2 (Ssp_ir.Error.to_string e)
  | Unix.Unix_error (e, _, arg) ->
    fail2
      (if String.equal arg "" then Unix.error_message e
       else arg ^ ": " ^ Unix.error_message e)

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* The one resolver: a suite name travels as [Workload] (the daemon and
   the tuner compile it by name); anything else is a mini-C file, read
   here and carried as [Source] text. *)
let program_of src =
  match Suite.find src with
  | _ -> Suite.Workload src
  | exception Not_found -> Suite.Source (read_file src)

let compile program scale = Suite.compile ~pass:"sspc" program ~scale

let src_arg =
  let doc = "Workload name (em3d, health, mst, treeadd.df, treeadd.bf, mcf, vpr) or path to a mini-C file." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"PROGRAM" ~doc)

let scale_arg =
  let doc = "Workload scale (working-set size knob)." in
  Arg.(value & opt int Ssp_workloads.Suite.test_scale & info [ "scale" ] ~doc)

let out_arg =
  let doc = "Write output to this file instead of stdout." in
  Arg.(value & opt (some string) None & info [ "o"; "out" ] ~doc)

let trace_arg =
  let doc =
    "Enable telemetry and write the structured run report (spans, counters, \
     histograms, series) as JSON to this file."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"OUT.JSON" ~doc)

let write_trace path report =
  try T.write_json path report
  with Sys_error msg ->
    Printf.eprintf "sspc: cannot write trace: %s\n" msg;
    exit 1

(* Telemetry stays off unless a trace (or 'stats') asks for it, so the
   default outputs are byte-identical to the uninstrumented tool. *)
let with_trace trace k =
  (match trace with Some _ -> T.set_enabled true | None -> ());
  k ();
  match trace with Some path -> write_trace path (T.report ()) | None -> ()

let trace_events_arg =
  let doc =
    "Enable the telemetry event stream and write a Chrome trace-event JSON \
     (loadable in Perfetto or chrome://tracing: pass spans on one process \
     timeline, speculative-thread lifetimes per hardware context on \
     another, with ts in simulated cycles) to this file."
  in
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-events" ] ~docv:"TRACE.JSON" ~doc)

let with_trace_events trace_events k =
  (match trace_events with
  | Some _ ->
    T.set_enabled true;
    T.set_events true
  | None -> ());
  k ();
  match trace_events with
  | Some path -> (
    try
      T.write_trace_events path;
      let dropped = T.events_dropped_count () in
      if dropped > 0 then
        Printf.eprintf
          "sspc: warning: trace-events export truncated — %d events dropped \
           at the %d-event capacity\n\
           %!"
          dropped !T.event_capacity
    with Sys_error msg ->
      Printf.eprintf "sspc: cannot write trace events: %s\n" msg;
      exit 1)
  | None -> ()

let with_out out k =
  match out with
  | None -> k Format.std_formatter
  | Some path ->
    let oc = open_out path in
    let ppf = Format.formatter_of_out_channel oc in
    k ppf;
    Format.pp_print_flush ppf ();
    close_out oc

let compile_cmd =
  let run src scale out =
    guard @@ fun () ->
    let prog = compile (program_of src) scale in
    with_out out (fun ppf -> Format.fprintf ppf "%a@." Ssp_ir.Asm.print prog)
  in
  Cmd.v
    (Cmd.info "compile"
       ~doc:"Compile mini-C and emit assembly (re-runnable via 'exec')")
    Term.(const run $ src_arg $ scale_arg $ out_arg)

let exec_cmd =
  let run path =
    guard @@ fun () ->
    let prog = Ssp_ir.Asm.parse (read_file path) in
    let r = Ssp_sim.Funcsim.run prog in
    List.iter (fun v -> Format.printf "%Ld@." v) r.Ssp_sim.Funcsim.outputs
  in
  let path_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE.S"
           ~doc:"Assembly file produced by 'compile' or 'adapt'.")
  in
  Cmd.v (Cmd.info "exec" ~doc:"Assemble and execute a saved binary")
    Term.(const run $ path_arg)

let run_cmd =
  let run src scale =
    guard @@ fun () ->
    let prog = compile (program_of src) scale in
    let t0 = Unix.gettimeofday () in
    let r = Ssp_sim.Funcsim.run prog in
    let dt = Unix.gettimeofday () -. t0 in
    List.iter (fun v -> Format.printf "%Ld@." v) r.Ssp_sim.Funcsim.outputs;
    Format.printf "; %d instructions in %.2fs (%.1f Minstr/s)@."
      r.Ssp_sim.Funcsim.instrs dt
      (float_of_int r.Ssp_sim.Funcsim.instrs /. dt /. 1e6)
  in
  Cmd.v (Cmd.info "run" ~doc:"Execute functionally and print outputs")
    Term.(const run $ src_arg $ scale_arg)

let profile_cmd =
  let run src scale =
    guard @@ fun () ->
    let prog = compile (program_of src) scale in
    let profile = Ssp_profiling.Collect.collect prog in
    let d =
      Ssp.Delinquent.identify ~coverage:Ssp.Adapt.default_knobs.coverage prog
        profile
    in
    Format.printf "%a@." Ssp.Delinquent.pp d
  in
  Cmd.v
    (Cmd.info "profile" ~doc:"Profile and print the delinquent loads")
    Term.(const run $ src_arg $ scale_arg)

let jobs_arg =
  let doc =
    "Run the adaptation pipeline across $(docv) domains. The output is \
     byte-identical to --jobs 1; this only changes wall-clock time."
  in
  Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let store_arg =
  let doc =
    "Use the content-addressed artifact store in $(docv): profiles and \
     adaptation results are looked up by content hash before being \
     recomputed. The cache status (hit/miss) is reported on stderr; stdout \
     stays byte-identical to an uncached run until a tuning round publishes \
     a version in the store, after which the published version is printed, \
     as a daemon serving the same store does."
  in
  Arg.(value & opt (some string) None & info [ "store" ] ~docv:"DIR" ~doc)

let adapt_cmd =
  let run src scale out trace jobs store =
    guard @@ fun () ->
    with_trace trace @@ fun () ->
    let config = Ssp_machine.Config.in_order in
    let prog = compile (program_of src) scale in
    let cache = Option.map Ssp_store.Store.Cache.open_dir store in
    let sv = Fb.adapt ?cache ~jobs ~config prog in
    if sv.Fb.sv_status <> `Off then
      Printf.eprintf "sspc: cache %s\n%!" (Fb.status_string sv.Fb.sv_status);
    Format.printf "%a@." Ssp.Report.pp sv.Fb.sv_report;
    with_out out (fun ppf -> Format.fprintf ppf "%s@." sv.Fb.sv_text)
  in
  Cmd.v
    (Cmd.info "adapt"
       ~doc:"Run the SSP post-pass; emit the adapted binary as assembly")
    Term.(
      const run $ src_arg $ scale_arg $ out_arg $ trace_arg $ jobs_arg
      $ store_arg)

let fsck_cmd =
  let dir_pos =
    let doc = "The artifact store directory to verify." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR" ~doc)
  in
  let run dir =
    guard @@ fun () ->
    if not (Sys.file_exists dir && Sys.is_directory dir) then
      fail2 (Printf.sprintf "%s: not a directory" dir)
    else begin
      (* Open with an infinite sweep grace so fsck itself observes (and
         reports) the orphans instead of open_dir silently eating them. *)
      let cache =
        Ssp_store.Store.Cache.open_dir ~sweep_grace_s:infinity dir
      in
      let r = Ssp_store.Store.Cache.fsck cache in
      Printf.printf
        "sspc fsck %s: %d scanned, %d valid (%d bytes), %d corrupt removed, \
         %d orphaned tmp removed\n"
        dir r.Ssp_store.Store.Cache.scanned r.Ssp_store.Store.Cache.valid
        r.Ssp_store.Store.Cache.valid_bytes
        r.Ssp_store.Store.Cache.corrupt_removed
        r.Ssp_store.Store.Cache.tmp_removed
    end
  in
  Cmd.v
    (Cmd.info "fsck"
       ~doc:
         "Verify and GC an artifact store: check every entry's sealed \
          envelope (magic, version, length, content hash), delete corrupt \
          entries and orphaned tmp files left by crashed writers, and \
          report what was found. Always exits 0 on a readable store — \
          after one pass the store is clean by construction.")
    Term.(const run $ dir_pos)

let pipeline_arg =
  let doc = "Pipeline model: inorder or ooo." in
  Arg.(value & opt string "inorder" & info [ "pipeline" ] ~doc)

let ssp_flag =
  let doc = "Adapt the binary with the SSP post-pass before simulating." in
  Arg.(value & flag & info [ "ssp" ] ~doc)

let config_of_pipeline pipeline =
  match Ssp_machine.Config.of_pipeline_name pipeline with
  | Some config -> config
  | None -> fail2 ("unknown pipeline " ^ pipeline ^ " (want inorder or ooo)")

let sample_arg =
  let doc =
    "Sampled simulation: alternate $(docv) (DETAIL:FF, in main-thread \
     instructions) cycle-accurate instructions with FF fast-forwarded, \
     functionally-warmed ones. Outputs stay byte-identical to a full run; \
     cycles are extrapolated from the detailed windows. 'default' picks \
     the validated windows."
  in
  Arg.(
    value & opt (some string) None & info [ "sample" ] ~docv:"DETAIL:FF" ~doc)

let parse_sampling = function
  | None -> None
  | Some "default" -> Some Ssp_sim.Smt.default_sampling
  | Some s -> (
    match String.index_opt s ':' with
    | Some i -> (
      let d = int_of_string_opt (String.sub s 0 i) in
      let f =
        int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1))
      in
      match (d, f) with
      | Some d, Some f when d > 0 && f > 0 ->
        Some { Ssp_sim.Smt.detail_window = d; ff_window = f }
      | _ -> fail2 ("bad --sample spec " ^ s ^ " (want DETAIL:FF)"))
    | None -> fail2 ("bad --sample spec " ^ s ^ " (want DETAIL:FF)"))

let explain_flag =
  let doc =
    "Adapt with the SSP post-pass, simulate with prefetch-lifecycle \
     attribution attached, and print the per-delinquent-load attribution \
     report after the stats (implies --ssp)."
  in
  Arg.(value & flag & info [ "explain" ] ~doc)

(* 'sspc top' and --upload-feedback accept either a router/shard TCP
   endpoint or a Unix socket path, so they compose with every topology
   the repo can start. *)
let cluster_addr_of s =
  match String.rindex_opt s ':' with
  | Some i
    when int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1))
         <> None ->
    Ssp_server.Client.Tcp
      ( String.sub s 0 i,
        int_of_string (String.sub s (i + 1) (String.length s - i - 1)) )
  | _ -> Ssp_server.Client.Unix_sock s

let sim_cmd =
  let run src scale pipeline ssp explain trace trace_events jobs sample upload
      fb_version =
    guard @@ fun () ->
    with_trace trace @@ fun () ->
    with_trace_events trace_events @@ fun () ->
    let sampling = parse_sampling sample in
    let config = config_of_pipeline pipeline in
    let program = program_of src in
    let prog = compile program scale in
    let ssp = ssp || explain || upload <> None in
    let result =
      if ssp then
        Some (Lazy.force (Fb.adapt ~jobs ~config prog).Fb.sv_result)
      else None
    in
    let prog =
      match result with Some a -> a.Ssp.Adapt.prog | None -> prog
    in
    let attrib =
      match result with
      | Some a when explain || upload <> None ->
        Some
          (Ssp_sim.Attrib.create ~prefetch_map:a.Ssp.Adapt.prefetch_map ())
      | _ -> None
    in
    let t0 = Unix.gettimeofday () in
    let r = Ssp_sim.Simulate.run ?attrib ?sampling config prog in
    let dt = Unix.gettimeofday () -. t0 in
    Format.printf "%a@." Ssp_sim.Stats.pp r;
    Format.printf "; simulated in %.2fs (%.2f Mcycle/s)@." dt
      (float_of_int r.Ssp_sim.Stats.cycles /. dt /. 1e6);
    (match (attrib, result) with
    | Some a, Some res when explain ->
      let ex =
        Ssp.Explain.build ~result:res ~stats:r
          ~attrib:(Ssp_sim.Attrib.summary a) ()
      in
      Format.printf "@.%a@." Ssp.Explain.pp ex
    | _ -> ());
    match (upload, attrib) with
    | Some addr, Some a ->
      let rep =
        Fb.report_of_attrib ~prog:program ~scale ~pipeline ~version:fb_version
          ~cycles:r.Ssp_sim.Stats.cycles (Ssp_sim.Attrib.summary a)
      in
      let req =
        Ssp_server.Proto.Feedback
          {
            prog = program;
            scale;
            pipeline;
            tenant = Ssp_server.Proto.default_tenant;
            blob = Fb.encode_report rep;
          }
      in
      (match
         Ssp_server.Client.request_addr ~timeout_s:60. (cluster_addr_of addr)
           req
       with
      | Ssp_server.Proto.Ok_reply ->
        Printf.eprintf
          "sspc: feedback uploaded (%d loads, artifact version %d)\n%!"
          (List.length rep.Fb.fr_loads)
          fb_version
      | Ssp_server.Proto.Error_reply { pass; what; _ } ->
        fail2 (Printf.sprintf "feedback upload failed [%s]: %s" pass what)
      | _ -> fail2 "unexpected reply to feedback upload")
    | _ -> ()
  in
  let upload_arg =
    let doc =
      "After the simulation, upload the per-delinquent-load attribution \
       report to the daemon or router at $(docv) (HOST:PORT or a Unix \
       socket path), feeding the cluster's closed-loop tuner. Implies the \
       attributed SSP pipeline."
    in
    Arg.(
      value
      & opt (some string) None
      & info [ "upload-feedback" ] ~docv:"ADDR" ~doc)
  in
  let fb_version_arg =
    let doc =
      "Tuning version of the adapted artifact this run measured (0 = \
       untuned); stamped into the uploaded report so the tuner can tell \
       fresh reports from stale ones."
    in
    Arg.(value & opt int 0 & info [ "feedback-version" ] ~docv:"N" ~doc)
  in
  Cmd.v (Cmd.info "sim" ~doc:"Cycle-level simulation")
    Term.(
      const run $ src_arg $ scale_arg $ pipeline_arg $ ssp_flag $ explain_flag
      $ trace_arg $ trace_events_arg $ jobs_arg $ sample_arg $ upload_arg
      $ fb_version_arg)

let explain_cmd =
  let run src scale pipeline json trace_events jobs feedback store =
    guard @@ fun () ->
    with_trace_events trace_events @@ fun () ->
    let config = config_of_pipeline pipeline in
    let program = program_of src in
    let prog = compile program scale in
    (* No store here: a store hit carries no selection choices, and the
       table is built from them. *)
    let sv = Fb.adapt ~jobs ~config prog in
    let result = Lazy.force sv.Fb.sv_result in
    let attrib =
      Ssp_sim.Attrib.create ~prefetch_map:result.Ssp.Adapt.prefetch_map ()
    in
    let stats = Ssp_sim.Simulate.run ~attrib config result.Ssp.Adapt.prog in
    (* --feedback joins the fleet's view into the local table: the fold
       of this workload's persisted reports (uploaded by 'sim
       --upload-feedback' runs cluster-wide) onto its published state —
       the tuner's decision input — and the published per-load knobs. *)
    let fb_lookup, fb_header =
      if not feedback then ((fun _ -> None), None)
      else begin
        let dir =
          match store with
          | Some d -> d
          | None -> Ssp_store.Store.Cache.default_dir ()
        in
        let cache = Ssp_store.Store.Cache.open_dir dir in
        let key = Fb.aggregate_key ~config prog sv.Fb.sv_profile in
        let agg = Fb.fold_workload cache ~key (program, scale, pipeline) in
        (Fb.explain_cell agg, Some (Fb.explain_header agg))
      end
    in
    let ex =
      Ssp.Explain.build ~feedback:fb_lookup ~result ~stats
        ~attrib:(Ssp_sim.Attrib.summary attrib) ()
    in
    (match fb_header with Some h -> Format.printf "%s@." h | None -> ());
    Format.printf "%a@." Ssp.Explain.pp ex;
    match json with
    | Some path ->
      let oc = open_out path in
      output_string oc (Ssp.Explain.to_json ex);
      output_char oc '\n';
      close_out oc
    | None -> ()
  in
  let json_arg =
    let doc = "Also write the attribution report as JSON to this file." in
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"OUT.JSON" ~doc)
  in
  let feedback_flag =
    let doc =
      "Join the fleet's feedback into the table: the fold of this \
       workload's persisted reports onto its published version \
       (per-load coverage, accuracy, timeliness), which is what the tuner \
       decides on, and the published per-load knobs."
    in
    Arg.(value & flag & info [ "feedback" ] ~doc)
  in
  let store_arg =
    let doc =
      "Artifact-store directory holding the feedback reports (default: \
       the usual cache directory)."
    in
    Arg.(value & opt (some string) None & info [ "store" ] ~docv:"DIR" ~doc)
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Run the full pipeline with prefetch attribution and report, per \
          delinquent load: profile miss share, slice/scheme/slack, trigger \
          placement, and the simulated useful/late/early-evicted/redundant/\
          dropped classification with coverage, accuracy and timeliness")
    Term.(
      const run $ src_arg $ scale_arg $ pipeline_arg $ json_arg
      $ trace_events_arg $ jobs_arg $ feedback_flag $ store_arg)

(* ---- sspc tune: offline closed-loop tuning over a store ---- *)

let tune_cmd =
  let name_of = function
    | Suite.Workload n -> n
    | Suite.Source src ->
      "inline-" ^ String.sub (Digest.to_hex (Digest.string src)) 0 12
  in
  let run store explain asm_dir json min_reports min_samples =
    guard @@ fun () ->
    let dir =
      match store with
      | Some d -> d
      | None -> Ssp_store.Store.Cache.default_dir ()
    in
    let cache = Ssp_store.Store.Cache.open_dir dir in
    let results = Fb.tune_store ~min_reports ~min_samples cache in
    if results = [] then
      print_endline "no feedback reports in the store; nothing to tune";
    List.iter
      (fun st ->
        let name = name_of st.Fb.st_prog in
        let agg = st.Fb.st_aggregate in
        match st.Fb.st_tuned with
        | None ->
          Printf.printf
            "%s scale %d %s: %d reports, no action (v%d holds)\n" name
            st.Fb.st_scale st.Fb.st_pipeline st.Fb.st_reports
            agg.Fb.ag_version
        | Some t ->
          Printf.printf "%s scale %d %s: %d reports -> published v%d (%d %s)\n"
            name st.Fb.st_scale st.Fb.st_pipeline st.Fb.st_reports
            agg.Fb.ag_version
            (List.length t.Fb.td_actions)
            (if List.length t.Fb.td_actions = 1 then "action" else "actions");
          if explain then
            List.iter
              (fun a -> Printf.printf "  %s\n" (Fb.action_to_string a))
              t.Fb.td_actions;
          (match asm_dir with
          | Some d ->
            let path =
              Filename.concat d
                (Printf.sprintf "%s-s%d-%s-v%d.s" name st.Fb.st_scale
                   st.Fb.st_pipeline agg.Fb.ag_version)
            in
            let oc = open_out path in
            output_string oc
              (Format.asprintf "%a@." Ssp_ir.Asm.print
                 t.Fb.td_result.Ssp.Adapt.prog);
            close_out oc;
            Printf.printf "  wrote %s\n" path
          | None -> ()))
      results;
    match json with
    | None -> ()
    | Some path ->
      let action a =
        Json.Obj
          [
            ("load", String (Ssp_ir.Iref.to_string a.Fb.act_load));
            ("what", String a.Fb.act_what);
            ("why", String a.Fb.act_why);
          ]
      in
      let status st =
        let actions =
          match st.Fb.st_tuned with None -> [] | Some t -> t.Fb.td_actions
        in
        Json.Obj
          [
            ("workload", String (name_of st.Fb.st_prog));
            ("scale", Int st.Fb.st_scale);
            ("pipeline", String st.Fb.st_pipeline);
            ("reports", Int st.Fb.st_reports);
            ("version", Int st.Fb.st_aggregate.Fb.ag_version);
            ("actions", List (List.map action actions));
          ]
      in
      let oc = open_out path in
      output_string oc (Json.to_string (List (List.map status results)));
      output_char oc '\n';
      close_out oc
  in
  let store_pos =
    let doc =
      "Artifact-store directory to tune (default: the usual cache \
       directory)."
    in
    Arg.(value & pos 0 (some string) None & info [] ~docv:"STORE" ~doc)
  in
  let explain_flag =
    let doc =
      "Print the structured tuning diff: every per-load action with the \
       aggregate signal that triggered it."
    in
    Arg.(value & flag & info [ "explain" ] ~doc)
  in
  let asm_dir_arg =
    let doc =
      "Write each newly published tuned artifact's assembly to \
       $(docv)/<workload>-s<scale>-<pipeline>-v<version>.s (byte-identical \
       to what a daemon serving the same store returns)."
    in
    Arg.(value & opt (some string) None & info [ "asm-dir" ] ~docv:"DIR" ~doc)
  in
  let json_arg =
    let doc = "Also write the tuning diff as JSON to this file." in
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"OUT.JSON" ~doc)
  in
  let min_reports_arg =
    let doc = "Confidence floor: tune only on at least $(docv) reports." in
    Arg.(
      value
      & opt int Fb.default_min_reports
      & info [ "min-reports" ] ~docv:"N" ~doc)
  in
  let min_samples_arg =
    let doc =
      "Per-load confidence floor: decide only about loads with at least \
       $(docv) (decayed) attempted prefetches."
    in
    Arg.(
      value
      & opt float Fb.default_min_samples
      & info [ "min-samples" ] ~docv:"X" ~doc)
  in
  Cmd.v
    (Cmd.info "tune"
       ~doc:
         "Run one offline closed-loop tuning round over a store: fold \
          each workload's persisted attribution reports onto its \
          published version, derive per-load knob overrides (demote \
          mostly-redundant loads toward skip, promote chronically-late \
          ones toward chaining and wider lookahead), and publish the \
          re-adapted artifact under the next immutable version. \
          Deterministic: a daemon tuning the same store publishes \
          byte-identical artifacts")
    Term.(
      const run $ store_pos $ explain_flag $ asm_dir_arg $ json_arg
      $ min_reports_arg $ min_samples_arg)

let json_flag =
  let doc = "Print the snapshot as JSON instead of a table." in
  Arg.(value & flag & info [ "json" ] ~doc)

let stats_cmd =
  let run src scale pipeline trace json =
    guard @@ fun () ->
    T.set_enabled true;
    let config = config_of_pipeline pipeline in
    let prog = compile (program_of src) scale in
    let adapted = Lazy.force (Fb.adapt ~config prog).Fb.sv_result in
    let r = Ssp_sim.Simulate.run config adapted.Ssp.Adapt.prog in
    if json then
      print_endline
        (Ssp_server.Snapshot.to_json (Ssp_server.Snapshot.capture ()))
    else begin
      let report = T.report () in
      Format.printf "%a@.@.%a@." Ssp_sim.Stats.pp r T.pp_summary report;
      Format.printf "telemetry events dropped: %d@."
        (T.events_dropped_count ())
    end;
    match trace with Some path -> write_trace path (T.report ()) | None -> ()
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Run the full pipeline (compile, profile, adapt, simulate) with \
          telemetry on and print the phase-timing and counter summary")
    Term.(
      const run $ src_arg $ scale_arg $ pipeline_arg $ trace_arg $ json_flag)

let chaos_cmd =
  let run seed campaigns faults json jobs corpus workloads =
    guard @@ fun () ->
    let specs =
      match faults with
      | None -> Ssp_harness.Chaos.default_specs
      | Some s -> (
        match Ssp_fault.Fault.parse_specs s with
        | Ok specs -> specs
        | Error msg -> fail2 msg)
    in
    let named =
      List.map
        (fun n ->
          match Ssp_workloads.Suite.find n with
          | w -> w
          | exception Not_found -> fail2 ("unknown workload " ^ n))
        workloads
    in
    let generated =
      if corpus > 0 then Ssp_workloads.Suite.corpus ~n:corpus ~seed else []
    in
    let ws =
      match named @ generated with
      | [] -> Ssp_workloads.Suite.all
      | ws -> ws
    in
    let report = Ssp_harness.Chaos.run ~jobs ~specs ~seed ~campaigns ws in
    Format.printf "%a@." Ssp_harness.Chaos.pp report;
    (match json with
    | Some path ->
      let oc = open_out path in
      output_string oc (Ssp_harness.Chaos.to_json report);
      output_char oc '\n';
      close_out oc
    | None -> ());
    if Ssp_harness.Chaos.violations report > 0 then exit 1
  in
  let seed_arg =
    let doc = "Base seed for the fault campaigns." in
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc)
  in
  let campaigns_arg =
    let doc = "Fault campaigns (seeded plans) per workload." in
    Arg.(value & opt int 8 & info [ "campaigns" ] ~docv:"N" ~doc)
  in
  let faults_arg =
    let doc =
      "Per-site fault probabilities as site=p[:limit],... (default: every \
       registered site at a rate tuned to its query frequency)."
    in
    Arg.(
      value & opt (some string) None & info [ "faults" ] ~docv:"SPECS" ~doc)
  in
  let json_arg =
    let doc = "Also write the chaos report as JSON to this file." in
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"OUT.JSON" ~doc)
  in
  let workloads_arg =
    let doc = "Workloads to sweep (default: all)." in
    Arg.(value & pos_all string [] & info [] ~docv:"WORKLOAD" ~doc)
  in
  let corpus_arg =
    let doc =
      "Also sweep $(docv) generated workloads (gen:SEED .. gen:SEED+N-1, \
       seeds starting at --seed): a seeded, replayable corpus grid \
       differential-testing the adaptation pipeline."
    in
    Arg.(value & opt int 0 & info [ "corpus" ] ~docv:"N" ~doc)
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Fault-injection campaigns: adapt and simulate every workload \
          under seeded fault plans (killed speculative threads, dropped \
          prefetches, broken chains, refused slices, stale profiles, ...) \
          and verify main-thread outputs stay bit-identical to the \
          fault-free unadapted run. Exits 1 on any safety violation.")
    Term.(
      const run $ seed_arg $ campaigns_arg $ faults_arg $ json_arg $ jobs_arg
      $ corpus_arg $ workloads_arg)

let bench_cmd =
  let run () =
    List.iter
      (fun w ->
        Format.printf "%-12s %s@." w.Ssp_workloads.Workload.name
          w.Ssp_workloads.Workload.description)
      Ssp_workloads.Suite.all
  in
  Cmd.v (Cmd.info "bench" ~doc:"List the benchmark workloads")
    Term.(const run $ const ())

let table1_cmd =
  let run () =
    Format.printf "== In-order model ==@.%a@.@.== Out-of-order model ==@.%a@."
      Ssp_machine.Config.pp Ssp_machine.Config.in_order Ssp_machine.Config.pp
      Ssp_machine.Config.out_of_order
  in
  Cmd.v (Cmd.info "table1" ~doc:"Print the Table 1 machine models")
    Term.(const run $ const ())

(* ---- the adaptation service (sspc serve / route / client ...) ---- *)

let socket_arg =
  let doc = "Unix-domain socket path of the adaptation daemon (or router)." in
  Arg.(
    value & opt string "/tmp/sspc.sock" & info [ "socket" ] ~docv:"PATH" ~doc)

let hostport_conv =
  let parse s =
    match String.rindex_opt s ':' with
    | Some i -> (
      let host = String.sub s 0 i in
      let port = String.sub s (i + 1) (String.length s - i - 1) in
      match int_of_string_opt port with
      | Some p when host <> "" && p >= 0 && p < 65536 -> Ok (host, p)
      | _ -> Error (`Msg (Printf.sprintf "expected HOST:PORT, got %S" s)))
    | None -> Error (`Msg (Printf.sprintf "expected HOST:PORT, got %S" s))
  in
  let print ppf (h, p) = Format.fprintf ppf "%s:%d" h p in
  Arg.conv (parse, print)

let tcp_arg =
  let doc =
    "Also listen on (serve/route) or talk to (client) this TCP endpoint. \
     Port 0 binds an ephemeral port."
  in
  Arg.(
    value & opt (some hostport_conv) None & info [ "tcp" ] ~docv:"HOST:PORT" ~doc)

let serve_cmd =
  let run socket tcp jobs store no_cache max_frame timeout max_batch max_queue
      retry_after tune trace =
    guard @@ fun () ->
    (* The daemon always counts: its telemetry is the cluster's
       observability surface ('sspc client stats'), trace or not. *)
    T.set_enabled true;
    with_trace trace @@ fun () ->
    let cache =
      if no_cache then None
      else begin
        let dir =
          match store with
          | Some d -> d
          | None -> Ssp_store.Store.Cache.default_dir ()
        in
        Some (Ssp_store.Store.Cache.open_dir dir)
      end
    in
    Ssp_server.Server.serve
      {
        Ssp_server.Server.socket = Some socket;
        tcp;
        jobs;
        cache;
        max_frame;
        timeout_s = timeout;
        max_batch;
        max_queue;
        retry_after_s = retry_after;
        tune;
      }
  in
  let store_dir_arg =
    let doc =
      "Artifact-store directory (default: $SSPC_CACHE_DIR, else \
       $XDG_CACHE_HOME/sspc, else ~/.cache/sspc)."
    in
    Arg.(value & opt (some string) None & info [ "store" ] ~docv:"DIR" ~doc)
  in
  let no_cache_flag =
    let doc = "Serve without the content-addressed artifact store." in
    Arg.(value & flag & info [ "no-cache" ] ~doc)
  in
  let max_frame_arg =
    let doc = "Reject request frames larger than $(docv) bytes." in
    Arg.(
      value
      & opt int Ssp_server.Proto.default_max_frame
      & info [ "max-frame" ] ~docv:"BYTES" ~doc)
  in
  let timeout_arg =
    let doc =
      "Per-request budget in seconds: queued requests and half-received \
       frames older than this get a structured timeout error."
    in
    Arg.(value & opt float 60. & info [ "timeout" ] ~docv:"SECONDS" ~doc)
  in
  let max_batch_arg =
    let doc = "Admission: fan out at most $(docv) work requests per round." in
    Arg.(value & opt int 32 & info [ "max-batch" ] ~docv:"N" ~doc)
  in
  let max_queue_arg =
    let doc =
      "Admission: total backlog bound; arrivals beyond it are answered with \
       a retry-after rejection (0 rejects all work — useful to drain a \
       shard or exercise client backoff)."
    in
    Arg.(value & opt int 256 & info [ "max-queue" ] ~docv:"N" ~doc)
  in
  let retry_after_arg =
    let doc = "Retry-after hint (seconds) carried by rejection replies." in
    Arg.(value & opt float 0.2 & info [ "retry-after" ] ~docv:"SECONDS" ~doc)
  in
  let tune_flag =
    let doc =
      "Closed-loop tuning: after each uploaded attribution report, run \
       the tuning round 'sspc tune' runs on the report's workload, which \
       publishes the next artifact version once its persisted reports \
       cross the confidence thresholds. Without this flag the daemon only \
       persists reports (run 'sspc tune' offline)."
    in
    Arg.(value & flag & info [ "tune" ] ~doc)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the adaptation daemon (one cluster shard): a socket service — \
          Unix-domain, and TCP with --tcp — that batches concurrent \
          adapt/sim requests across a domain pool under per-tenant \
          round-robin admission control, and answers repeated \
          requests from the content-addressed artifact store")
    Term.(
      const run $ socket_arg $ tcp_arg $ jobs_arg $ store_dir_arg
      $ no_cache_flag $ max_frame_arg $ timeout_arg $ max_batch_arg
      $ max_queue_arg $ retry_after_arg $ tune_flag $ trace_arg)

let route_cmd =
  let run socket tcp shards vnodes quarantine quarantine_max probe_interval
      shard_timeout no_replicate max_frame trace =
    guard @@ fun () ->
    T.set_enabled true;
    with_trace trace @@ fun () ->
    Ssp_cluster.Router.serve
      {
        Ssp_cluster.Router.socket = Some socket;
        tcp;
        shards;
        vnodes;
        max_frame;
        quarantine_s = quarantine;
        quarantine_max_s = quarantine_max;
        probe_interval_s = probe_interval;
        shard_timeout_s = shard_timeout;
        replicate = not no_replicate;
      }
  in
  let shard_arg =
    let doc =
      "A shard daemon's TCP endpoint ('sspc serve --tcp ...'); repeatable. \
       Order does not matter: placement comes from the consistent-hash \
       ring, so every router with the same shard set routes identically."
    in
    Arg.(
      value & opt_all hostport_conv [] & info [ "shard" ] ~docv:"HOST:PORT" ~doc)
  in
  let vnodes_arg =
    let doc = "Virtual nodes per shard on the consistent-hash ring." in
    Arg.(value & opt int 128 & info [ "vnodes" ] ~docv:"N" ~doc)
  in
  let quarantine_arg =
    let doc =
      "Circuit-breaker backoff base: roughly how long a shard's first \
       failure quarantines it (growing per consecutive failure, with \
       decorrelated jitter). A quarantined shard is re-admitted only after \
       a Ping probe succeeds."
    in
    Arg.(value & opt float 2. & info [ "quarantine" ] ~docv:"SECONDS" ~doc)
  in
  let quarantine_max_arg =
    let doc = "Circuit-breaker backoff cap." in
    Arg.(value & opt float 30. & info [ "quarantine-max" ] ~docv:"SECONDS" ~doc)
  in
  let probe_interval_arg =
    let doc =
      "How often the health prober scans for quarantined shards whose \
       backoff expired and pings them (half-open probing)."
    in
    Arg.(
      value & opt float 0.25 & info [ "probe-interval" ] ~docv:"SECONDS" ~doc)
  in
  let no_replicate_flag =
    let doc =
      "Disable replication: do not write adapt artifacts through to the \
       ring successor (failover falls back to cold recompute)."
    in
    Arg.(value & flag & info [ "no-replicate" ] ~doc)
  in
  let shard_timeout_arg =
    let doc =
      "Socket timeout per shard exchange: a shard that accepts but never \
       replies is treated as dead (failover) instead of hanging the client."
    in
    Arg.(value & opt float 120. & info [ "shard-timeout" ] ~docv:"SECONDS" ~doc)
  in
  let max_frame_arg =
    let doc = "Reject frames larger than $(docv) bytes." in
    Arg.(
      value
      & opt int Ssp_server.Proto.default_max_frame
      & info [ "max-frame" ] ~docv:"BYTES" ~doc)
  in
  Cmd.v
    (Cmd.info "route"
       ~doc:
         "Run the cluster router: place client requests on shard daemons by \
          consistent hashing (cache affinity), replicate adapt artifacts to \
          the ring successor (warm failover + hinted handoff), fail \
          transport errors over to the ring's next live shard behind \
          probing circuit breakers, spend end-to-end deadline budgets, \
          forward admission rejections untouched, and degrade to a \
          structured error — never wrong bytes — when no shard answers")
    Term.(
      const run $ socket_arg $ tcp_arg $ shard_arg $ vnodes_arg
      $ quarantine_arg $ quarantine_max_arg $ probe_interval_arg
      $ shard_timeout_arg $ no_replicate_flag $ max_frame_arg $ trace_arg)

let server_error_to_exit2 = function
  | Ssp_server.Proto.Error_reply { pass; what; injected = _ } ->
    fail2 (Printf.sprintf "server error [%s]: %s" pass what)
  | Ssp_server.Proto.Busy_reply { retry_after_s } ->
    fail2
      (Printf.sprintf "server saturated (retries exhausted; retry after %.2fs)"
         retry_after_s)
  | Ssp_server.Proto.Deadline_exceeded { stage; budget_ms; elapsed_ms } ->
    fail2
      (Printf.sprintf
         "deadline exceeded at %s (budget %.0fms, elapsed %.0fms)" stage
         budget_ms elapsed_ms)
  | resp -> resp

let tenant_arg =
  let doc =
    "Tenant this request is accounted to (per-tenant fairness and counters)."
  in
  Arg.(
    value
    & opt string Ssp_server.Proto.default_tenant
    & info [ "tenant" ] ~docv:"NAME" ~doc)

let retries_arg =
  let doc =
    "Retry transient connection failures and retry-after rejections up to \
     $(docv) times with capped jittered backoff before giving up (requests \
     are idempotent, so retrying is always safe)."
  in
  Arg.(value & opt int 4 & info [ "retries" ] ~docv:"N" ~doc)

let deadline_arg =
  let doc =
    "End-to-end deadline: the client mints a budget of $(docv) seconds \
     covering every attempt, retry sleep, and hop; each hop spends it and \
     sheds the request with a structured reply (exit 2) once it expires, \
     instead of burning server time on an answer nobody is waiting for. 0 \
     disables the deadline."
  in
  Arg.(value & opt float 0. & info [ "deadline" ] ~docv:"SECONDS" ~doc)

(* --tcp wins when both endpoints are given: the client talks to exactly
   one peer (a daemon or a router), never both. *)
let addr_of ~socket ~tcp =
  match tcp with
  | Some (host, port) -> Ssp_server.Client.Tcp (host, port)
  | None -> Ssp_server.Client.Unix_sock socket

let client_request ?trace ?deadline_s ~socket ~tcp ~retries req =
  let on_wait ~reason ~delay_s =
    Printf.eprintf "sspc: %s; retrying in %.2fs\n%!" reason delay_s
  in
  Ssp_server.Client.request_retry_hops ~attempts:retries ~on_wait ?trace
    ?deadline_s (addr_of ~socket ~tcp) req

let write_text out text =
  match out with
  | None -> print_string text
  | Some path ->
    let oc = open_out path in
    output_string oc text;
    close_out oc

(* ---- distributed tracing: mint, propagate, stitch ---- *)

let mint_trace_id () =
  let st = Random.State.make_self_init () in
  Printf.sprintf "%04x%04x%04x%04x"
    (Random.State.int st 0x10000)
    (Random.State.int st 0x10000)
    (Random.State.int st 0x10000)
    (Random.State.int st 0x10000)

let client_trace_arg =
  let doc =
    "Distributed trace: mint a trace id, propagate it through the router \
     into the shard, and write one stitched Chrome trace (one process \
     timeline per hop — client, router, shard — with the per-hop latency \
     breakdown, ts in microseconds) to this file. The trace id is printed \
     on stderr and counted in each process's telemetry."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"OUT.JSON" ~doc)

(* The reply carries durations, not wall-clock timestamps (the processes
   do not share a clock); the stitcher centers each hop's window inside
   its parent — nesting and widths are faithful, absolute offsets are a
   visualization choice. Disjoint stages (queue/compute/serialize) are
   laid out sequentially inside their node's window; span:* hops nest by
   path under compute. *)
let stitch_events ~trace_id ~label ~total_ms hops =
  let module P = Ssp_server.Proto in
  let nodes =
    List.fold_left
      (fun acc h ->
        if List.mem h.P.hop_node acc then acc else acc @ [ h.P.hop_node ])
      [] hops
  in
  let processes =
    (0, "client")
    :: List.mapi
         (fun i n -> (i + 1, if String.equal n "router" then n else "shard " ^ n))
         nodes
  in
  let pid_of node =
    let rec idx i = function
      | [] -> 0
      | n :: _ when String.equal n node -> i + 1
      | _ :: rest -> idx (i + 1) rest
    in
    idx 0 nodes
  in
  let us ms = ms *. 1000. in
  let events = ref [] in
  let emit ?(args = []) ~pid ~ts ~dur name =
    events :=
      T.complete_event ~args ~cat:"trace" ~pid ~tid:0 ~ts:(us ts) ~dur:(us dur)
        name
      :: !events
  in
  emit
    ~args:[ ("trace_id", trace_id) ]
    ~pid:0 ~ts:0. ~dur:total_ms ("request " ^ label);
  let hops_of node = List.filter (fun h -> String.equal h.P.hop_node node) hops in
  (* Client window -> router forward window (if any) -> shard window. *)
  let outer = ref (0., total_ms) in
  let router_hops = hops_of "router" in
  List.iter
    (fun h ->
      if String.equal h.P.hop_stage "forward" then begin
        let start, dur = !outer in
        let s = start +. Float.max 0. ((dur -. h.P.hop_ms) /. 2.) in
        emit ~pid:(pid_of "router") ~ts:s ~dur:h.P.hop_ms "forward";
        outer := (s, h.P.hop_ms)
      end)
    router_hops;
  List.iter
    (fun node ->
      if not (String.equal node "router") then begin
        let nhops = hops_of node in
        let disjoint =
          List.filter
            (fun h ->
              List.mem h.P.hop_stage [ "queue"; "compute"; "serialize" ])
            nhops
        in
        let window =
          List.fold_left (fun acc h -> acc +. h.P.hop_ms) 0. disjoint
        in
        let ostart, odur = !outer in
        let cursor = ref (ostart +. Float.max 0. ((odur -. window) /. 2.)) in
        let pid = pid_of node in
        let compute_win = ref None in
        List.iter
          (fun h ->
            emit ~pid ~ts:!cursor ~dur:h.P.hop_ms h.P.hop_stage;
            if String.equal h.P.hop_stage "compute" then
              compute_win := Some (!cursor, h.P.hop_ms);
            cursor := !cursor +. h.P.hop_ms)
          disjoint;
        let cstart, _ =
          match !compute_win with Some w -> w | None -> (ostart, odur)
        in
        (* store.lookup sits at the head of compute; span hops nest by
           path, children packed from their parent's start. *)
        List.iter
          (fun h ->
            if String.equal h.P.hop_stage "store.lookup" then
              emit ~pid ~ts:cstart ~dur:h.P.hop_ms h.P.hop_stage)
          nhops;
        let cursors : (string, float) Hashtbl.t = Hashtbl.create 16 in
        Hashtbl.replace cursors "" cstart;
        List.iter
          (fun h ->
            match
              if String.length h.P.hop_stage > 5
                 && String.equal (String.sub h.P.hop_stage 0 5) "span:"
              then
                Some
                  (String.sub h.P.hop_stage 5 (String.length h.P.hop_stage - 5))
              else None
            with
            | None -> ()
            | Some path ->
              let parent =
                match String.rindex_opt path '/' with
                | Some i -> String.sub path 0 i
                | None -> ""
              in
              let at =
                match Hashtbl.find_opt cursors parent with
                | Some c -> c
                | None -> cstart
              in
              emit ~pid ~ts:at ~dur:h.P.hop_ms ("span " ^ path);
              Hashtbl.replace cursors path at;
              Hashtbl.replace cursors parent (at +. h.P.hop_ms))
          nhops
      end)
    nodes;
  (* Whatever the nested windows do not explain is connect + wire +
     frame I/O: surfaced as its own client-side slice so the breakdown
     visibly sums to the observed latency. *)
  let _, inner = !outer in
  let shard_window =
    List.fold_left
      (fun acc h ->
        if
          (not (String.equal h.P.hop_node "router"))
          && List.mem h.P.hop_stage [ "queue"; "compute"; "serialize" ]
        then acc +. h.P.hop_ms
        else acc)
      0. hops
  in
  let child = if router_hops <> [] then inner else shard_window in
  let residual = Float.max 0. (total_ms -. child) in
  events :=
    T.complete_event
      ~args:[ ("trace_id", trace_id) ]
      ~cat:"trace" ~pid:0 ~tid:1 ~ts:0. ~dur:(us residual) "network+flush"
    :: !events;
  (processes, List.rev !events)

let write_stitched_trace path ~trace_id ~label ~total_ms hops =
  let processes, events = stitch_events ~trace_id ~label ~total_ms hops in
  let oc = open_out path in
  output_string oc (T.chrome_trace_json ~processes events);
  output_char oc '\n';
  close_out oc;
  let pick stage =
    List.fold_left
      (fun acc h ->
        if String.equal h.Ssp_server.Proto.hop_stage stage then
          acc +. h.Ssp_server.Proto.hop_ms
        else acc)
      0. hops
  in
  Printf.eprintf
    "sspc: trace %s: total %.2fms = queue %.2f + store.lookup %.2f + compute \
     %.2f + serialize %.2f + network/flush %.2f (%d hops -> %s)\n\
     %!"
    trace_id total_ms (pick "queue") (pick "store.lookup") (pick "compute")
    (pick "serialize")
    (Float.max 0.
       (total_ms -. pick "queue" -. pick "compute" -. pick "serialize"))
    (List.length hops) path

let with_client_trace trace label k =
  match trace with
  | None ->
    let resp, _ = k None in
    resp
  | Some path ->
    let trace_id = mint_trace_id () in
    Printf.eprintf "sspc: trace %s\n%!" trace_id;
    let ctx = { Ssp_server.Proto.trace_id; span_id = 1 } in
    let t0 = Unix.gettimeofday () in
    let resp, hops = k (Some ctx) in
    let total_ms = (Unix.gettimeofday () -. t0) *. 1000. in
    write_stitched_trace path ~trace_id ~label ~total_ms hops;
    resp

let client_adapt_cmd =
  let run src scale pipeline socket tcp tenant retries deadline out trace =
    guard @@ fun () ->
    let deadline_s = if deadline > 0. then Some deadline else None in
    let req =
      Ssp_server.Proto.Adapt
        { prog = program_of src; scale; pipeline; tenant }
    in
    let resp =
      with_client_trace trace ("adapt " ^ src) (fun ctx ->
          client_request ?trace:ctx ?deadline_s ~socket ~tcp ~retries req)
    in
    match server_error_to_exit2 resp with
    | Ssp_server.Proto.Adapted { report; asm; cache } ->
      (* Cache status goes to stderr so stdout stays byte-identical to
         the offline 'sspc adapt'. *)
      Printf.eprintf "sspc: cache %s\n%!" cache;
      print_string report;
      write_text out asm
    | _ -> fail2 "unexpected reply to adapt request"
  in
  Cmd.v
    (Cmd.info "adapt"
       ~doc:
         "Adapt via the daemon or router (output matches 'sspc adapt')")
    Term.(
      const run $ src_arg $ scale_arg $ pipeline_arg $ socket_arg $ tcp_arg
      $ tenant_arg $ retries_arg $ deadline_arg $ out_arg $ client_trace_arg)

let client_sim_cmd =
  let run src scale pipeline ssp socket tcp tenant retries deadline trace =
    guard @@ fun () ->
    let deadline_s = if deadline > 0. then Some deadline else None in
    let req =
      Ssp_server.Proto.Sim
        { prog = program_of src; scale; pipeline; ssp; tenant }
    in
    let resp =
      with_client_trace trace ("sim " ^ src) (fun ctx ->
          client_request ?trace:ctx ?deadline_s ~socket ~tcp ~retries req)
    in
    match server_error_to_exit2 resp with
    | Ssp_server.Proto.Simmed { stats } -> print_string stats
    | _ -> fail2 "unexpected reply to sim request"
  in
  Cmd.v (Cmd.info "sim" ~doc:"Cycle-simulate via the daemon or router")
    Term.(
      const run $ src_arg $ scale_arg $ pipeline_arg $ ssp_flag $ socket_arg
      $ tcp_arg $ tenant_arg $ retries_arg $ deadline_arg $ client_trace_arg)

let snapshot_of_reply resp =
  match server_error_to_exit2 resp with
  | Ssp_server.Proto.Stats_reply { snapshot } -> snapshot
  | _ -> fail2 "unexpected reply to stats request"

let client_stats_cmd =
  let run socket tcp retries json =
    guard @@ fun () ->
    let snap =
      snapshot_of_reply
        (fst (client_request ~socket ~tcp ~retries Ssp_server.Proto.Stats))
    in
    if json then print_endline (Ssp_server.Snapshot.to_json snap)
    else Format.printf "%a@." Ssp_server.Snapshot.pp snap
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Print the daemon's telemetry snapshot: phase timings, counters, \
          histograms and gauges. Against a router this is the cluster \
          view: every live shard's snapshot merged with the router's own \
          (counters sum, histograms merge bucket-wise, spans merge by \
          path; eviction and rejection counters stay attributed per shard \
          under shard.<node>.<name>, and each shard has an up gauge)")
    Term.(const run $ socket_arg $ tcp_arg $ retries_arg $ json_flag)

let client_shutdown_cmd =
  let run socket tcp =
    guard @@ fun () ->
    match
      server_error_to_exit2
        (Ssp_server.Client.request_addr (addr_of ~socket ~tcp)
           Ssp_server.Proto.Shutdown)
    with
    | Ssp_server.Proto.Ok_reply -> ()
    | _ -> fail2 "unexpected reply to shutdown request"
  in
  Cmd.v
    (Cmd.info "shutdown"
       ~doc:"Stop the daemon or router (acknowledged before exit)")
    Term.(const run $ socket_arg $ tcp_arg)

let client_cmd =
  Cmd.group
    (Cmd.info "client"
       ~doc:
         "Talk to a running adaptation daemon ('sspc serve') or cluster \
          router ('sspc route')")
    [ client_adapt_cmd; client_sim_cmd; client_stats_cmd; client_shutdown_cmd ]

(* ---- sspc top: poll the stats plane and redraw ---- *)

let top_cmd =
  let addr_pos =
    let doc = "Router or daemon endpoint (HOST:PORT or a Unix socket path)." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"ADDR" ~doc)
  in
  let interval_arg =
    let doc = "Seconds between polls." in
    Arg.(value & opt float 2.0 & info [ "interval" ] ~docv:"SECONDS" ~doc)
  in
  let iterations_arg =
    let doc = "Stop after $(docv) redraws (0 = run until interrupted)." in
    Arg.(value & opt int 0 & info [ "iterations" ] ~docv:"N" ~doc)
  in
  let starts_with prefix s =
    String.length s >= String.length prefix
    && String.equal (String.sub s 0 (String.length prefix)) prefix
  in
  let strip prefix s =
    String.sub s (String.length prefix) (String.length s - String.length prefix)
  in
  let draw ~prev ~dt (snap : Ssp_server.Snapshot.t) =
    let module S = Ssp_server.Snapshot in
    let b = Buffer.create 1024 in
    let addf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
    addf "sspc top — node %s, %d counters, %d histograms\n"
      (if snap.S.node = "" then "-" else snap.S.node)
      (List.length snap.S.report.T.r_counters)
      (List.length snap.S.report.T.r_hists);
    (* Shard health + queue depth, from the merged gauges. Keys are
       shard.<node>.<metric> where <node> itself contains dots
       (host:port), so split by matching known metric suffixes. *)
    let shard_metrics =
      [ "up"; "server.queue_depth"; "store.entries"; "store.bytes";
        "store.evictions"; "feedback.last_report_age_s";
        "feedback.version_max"; "feedback.rounds" ]
    in
    let shards =
      List.filter_map
        (fun (name, v) ->
          if starts_with "shard." name then
            let rest = strip "shard." name in
            List.find_map
              (fun m ->
                let suffix = "." ^ m in
                let ls = String.length suffix and lr = String.length rest in
                if
                  lr > ls
                  && String.equal (String.sub rest (lr - ls) ls) suffix
                then Some (String.sub rest 0 (lr - ls), m, v)
                else None)
              shard_metrics
          else None)
        snap.S.gauges
    in
    let nodes =
      List.sort_uniq String.compare (List.map (fun (n, _, _) -> n) shards)
    in
    if nodes <> [] then begin
      addf "shards:\n";
      List.iter
        (fun node ->
          let find metric =
            List.find_map
              (fun (n, m, v) ->
                if String.equal n node && String.equal m metric then Some v
                else None)
              shards
          in
          let health =
            match find "up" with
            | Some v when v > 0.5 -> "up"
            | Some _ -> "DOWN"
            | None -> "?"
          in
          let depth =
            match find "server.queue_depth" with
            | Some v -> Printf.sprintf "%5.0f" v
            | None -> "    -"
          in
          let feedback =
            (* Liveness of the closed loop: highest published tuned
               version on this shard and seconds since the last
               attribution report landed. *)
            match (find "feedback.version_max", find "feedback.last_report_age_s")
            with
            | (Some v, age) when v > 0. ->
              Printf.sprintf "  tuned v%.0f%s" v
                (match age with
                | Some a when a >= 0. -> Printf.sprintf " (fb %.0fs ago)" a
                | _ -> "")
            | (_, Some a) when a >= 0. -> Printf.sprintf "  fb %.0fs ago" a
            | _ -> ""
          in
          addf "  %-28s %-5s queue %s%s\n" node health depth feedback)
        nodes
    end;
    (* Per-tenant req/s from served-counter deltas against the previous
       poll; p99 from the merged service-time histograms. *)
    let served t snap =
      match
        List.assoc_opt ("server.tenant." ^ t ^ ".served") snap.S.report.T.r_counters
      with
      | Some v -> v
      | None -> 0
    in
    let tenants =
      List.filter_map
        (fun (name, _) ->
          if starts_with "server.tenant." name then
            let rest = strip "server.tenant." name in
            match String.rindex_opt rest '.' with
            | Some i -> Some (String.sub rest 0 i)
            | None -> None
          else None)
        snap.S.report.T.r_counters
      |> List.sort_uniq String.compare
    in
    if tenants <> [] then begin
      addf "tenants:\n";
      addf "  %-20s %10s %10s %9s %9s\n" "" "served" "req/s" "p99 ms" "rejected";
      List.iter
        (fun t ->
          let now = served t snap in
          let rate =
            match prev with
            | Some p when dt > 0. -> float_of_int (now - served t p) /. dt
            | _ -> 0.
          in
          let p99 =
            match
              List.assoc_opt
                ("server.tenant." ^ t ^ ".service_ms")
                snap.S.report.T.r_hists
            with
            | Some h -> Printf.sprintf "%9.3f" (T.hist_quantile h 0.99)
            | None -> "        -"
          in
          let rejected =
            match
              List.assoc_opt
                ("server.tenant." ^ t ^ ".rejected")
                snap.S.report.T.r_counters
            with
            | Some v -> v
            | None -> 0
          in
          addf "  %-20s %10d %10.1f %s %9d\n" t now rate p99 rejected)
        tenants
    end;
    (match List.assoc_opt "server.service_ms" snap.S.report.T.r_hists with
    | Some h ->
      addf "service_ms: p50 %.3f  p90 %.3f  p99 %.3f  max %.3f  (n=%d)\n"
        (T.hist_quantile h 0.5) (T.hist_quantile h 0.9)
        (T.hist_quantile h 0.99) h.T.hs_max h.T.hs_n
    | None -> ());
    if snap.S.events_dropped > 0 then
      addf "telemetry events dropped: %d\n" snap.S.events_dropped;
    Buffer.contents b
  in
  let run addr interval iterations =
    guard @@ fun () ->
    let addr = cluster_addr_of addr in
    let interval = Float.max 0.05 interval in
    let prev = ref None in
    let t_prev = ref (Unix.gettimeofday ()) in
    let i = ref 0 in
    let continue () = iterations <= 0 || !i < iterations in
    while continue () do
      incr i;
      let snap =
        snapshot_of_reply
          (Ssp_server.Client.request_addr ~timeout_s:30. addr
             Ssp_server.Proto.Stats)
      in
      let now = Unix.gettimeofday () in
      let dt = now -. !t_prev in
      (* \027[H\027[2J = home + clear: redraw in place on a terminal,
         harmless noise when piped. *)
      if Unix.isatty Unix.stdout then print_string "\027[H\027[2J";
      print_string (draw ~prev:!prev ~dt snap);
      flush stdout;
      prev := Some snap;
      t_prev := now;
      if continue () then Unix.sleepf interval
    done
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live cluster view: poll the stats plane and redraw \
          per-tenant request rates, p99 service time, shard queue depths \
          and shard health")
    Term.(const run $ addr_pos $ interval_arg $ iterations_arg)

let () =
  let info = Cmd.info "sspc" ~doc:"SSP post-pass binary adaptation tool" in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            compile_cmd;
            exec_cmd;
            run_cmd;
            profile_cmd;
            adapt_cmd;
            fsck_cmd;
            sim_cmd;
            explain_cmd;
            tune_cmd;
            stats_cmd;
            top_cmd;
            chaos_cmd;
            serve_cmd;
            route_cmd;
            client_cmd;
            bench_cmd;
            table1_cmd;
          ]))
