(* Tests for the telemetry subsystem: counter and histogram math, span
   nesting, JSON export (validated with a small in-test JSON parser), a
   full pipeline run asserting the expected spans/counters exist, and the
   guarantee that instrumentation changes nothing when telemetry is off. *)

module T = Ssp_telemetry.Telemetry

(* Every test starts from a clean, disabled subsystem and leaves it so:
   the other suites in this binary must see telemetry off. *)
let scoped f () =
  T.reset ();
  T.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      T.set_enabled false;
      T.reset ())
    f

(* ---- a minimal JSON parser, enough to validate what the tools write ---- *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of json list
  | Obj of (string * json) list

exception Bad_json of string

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let fail msg = raise (Bad_json (Printf.sprintf "%s at %d" msg !pos)) in
  let skip_ws () =
    while
      !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    if peek () = Some c then advance ()
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let literal lit v =
    if !pos + String.length lit <= n && String.sub s !pos (String.length lit) = lit
    then begin
      pos := !pos + String.length lit;
      v
    end
    else fail ("expected " ^ lit)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
        | Some 'n' -> Buffer.add_char b '\n'; advance ()
        | Some 't' -> Buffer.add_char b '\t'; advance ()
        | Some 'r' -> Buffer.add_char b '\r'; advance ()
        | Some 'u' ->
          advance ();
          if !pos + 4 > n then fail "bad \\u escape";
          let code = int_of_string ("0x" ^ String.sub s !pos 4) in
          pos := !pos + 4;
          Buffer.add_char b (Char.chr (code land 0xff))
        | Some c -> Buffer.add_char b c; advance ()
        | None -> fail "bad escape");
        go ()
      | Some c ->
        Buffer.add_char b c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    while
      !pos < n
      &&
      match s.[!pos] with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    do
      advance ()
    done;
    Num (float_of_string (String.sub s start (!pos - start)))
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin advance (); Obj [] end
      else begin
        let rec members acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); members ((k, v) :: acc)
          | Some '}' -> advance (); Obj (List.rev ((k, v) :: acc))
          | _ -> fail "expected ',' or '}'"
        in
        members []
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin advance (); Arr [] end
      else begin
        let rec elements acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); elements (v :: acc)
          | Some ']' -> advance (); Arr (List.rev (v :: acc))
          | _ -> fail "expected ',' or ']'"
        in
        elements []
      end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
    | None -> fail "unexpected end of input"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let member name = function
  | Obj fields -> List.assoc name fields
  | _ -> Alcotest.fail ("not an object looking up " ^ name)

let num = function Num f -> f | _ -> Alcotest.fail "not a number"

(* ---- counters ---- *)

let test_counter_math =
  scoped @@ fun () ->
  let c = T.counter "t.c" in
  T.incr c;
  T.add c 41;
  let r = T.report () in
  Alcotest.(check (option int)) "count" (Some 42) (List.assoc_opt "t.c" r.T.r_counters);
  (* interning: the same name yields the same counter *)
  T.incr (T.counter "t.c");
  Alcotest.(check int) "interned" 43 (List.assoc "t.c" (T.report ()).T.r_counters);
  (* disabled increments are dropped *)
  T.set_enabled false;
  T.incr c;
  T.count "t.c" 100;
  T.set_enabled true;
  Alcotest.(check int) "gated" 43 (List.assoc "t.c" (T.report ()).T.r_counters)

(* ---- distributions ---- *)

(* A recorded value stream keeps its exact count, sum, mean and range in
   its histogram summary; there is no stddev since dist folded into hist. *)
let test_dist_math =
  scoped @@ fun () ->
  List.iter (T.record_hist "t.d") [ 2.0; 4.0; 6.0; 8.0 ];
  let r = T.report () in
  let s = List.assoc "t.d" r.T.r_hists in
  Alcotest.(check int) "n" 4 s.T.hs_n;
  Alcotest.(check (float 1e-9)) "sum" 20.0 s.T.hs_sum;
  Alcotest.(check (float 1e-9)) "mean" 5.0 (T.hist_mean s);
  Alcotest.(check (float 1e-9)) "min" 2.0 s.T.hs_min;
  Alcotest.(check (float 1e-9)) "max" 8.0 s.T.hs_max;
  (* disabled records are dropped and intern no name *)
  T.set_enabled false;
  T.record_hist "t.d" 100.0;
  T.record_hist "t.off" 1.0;
  T.set_enabled true;
  let r = T.report () in
  Alcotest.(check int) "gated" 4 (List.assoc "t.d" r.T.r_hists).T.hs_n;
  Alcotest.(check bool) "off not interned" false
    (List.mem_assoc "t.off" r.T.r_hists);
  (* empty distributions are not reported *)
  ignore (T.hist "t.empty");
  Alcotest.(check bool) "empty hidden" false
    (List.mem_assoc "t.empty" (T.report ()).T.r_hists)

let test_series =
  scoped @@ fun () ->
  let s = T.series "t.s" in
  T.sample s ~x:1.0 ~y:10.0;
  T.sample s ~x:2.0 ~y:20.0;
  let r = T.report () in
  Alcotest.(check (list (pair (float 0.) (float 0.))))
    "in order" [ (1.0, 10.0); (2.0, 20.0) ]
    (List.assoc "t.s" r.T.r_series)

(* Samples recorded out of x-order (e.g. from racing domains) export
   sorted, so downstream plotting never sees a zig-zag artifact. *)
let test_series_sorted =
  scoped @@ fun () ->
  let s = T.series "t.sorted" in
  T.sample s ~x:3.0 ~y:30.0;
  T.sample s ~x:1.0 ~y:10.0;
  T.sample s ~x:2.0 ~y:20.0;
  let r = T.report () in
  Alcotest.(check (list (pair (float 0.) (float 0.))))
    "sorted by x"
    [ (1.0, 10.0); (2.0, 20.0); (3.0, 30.0) ]
    (List.assoc "t.sorted" r.T.r_series)

(* ---- log-bucketed quantile histograms ---- *)

(* With [hist_subbuckets] sub-buckets per octave the bucket edges are
   2^(1/8) apart, so a geometric-midpoint estimate is within
   2^(1/16) - 1 (< 4.5%) of the true value — check against a known
   stream with a safety margin. *)
let test_hist_quantiles =
  scoped @@ fun () ->
  let h = T.hist "t.h" in
  for i = 1 to 1000 do
    T.hobserve h (float_of_int i)
  done;
  let r = T.report () in
  let s = List.assoc "t.h" r.T.r_hists in
  Alcotest.(check int) "n" 1000 s.T.hs_n;
  Alcotest.(check (float 1e-9)) "sum" 500500.0 s.T.hs_sum;
  Alcotest.(check (float 1e-9)) "min" 1.0 s.T.hs_min;
  Alcotest.(check (float 1e-9)) "max" 1000.0 s.T.hs_max;
  List.iter
    (fun (q, truth) ->
      let est = T.hist_quantile s q in
      let rel = Float.abs (est -. truth) /. truth in
      if rel > 0.05 then
        Alcotest.failf "q=%.3f: estimate %.2f vs true %.2f (rel %.3f)" q est
          truth rel)
    [ (0.5, 500.); (0.9, 900.); (0.99, 990.); (0.999, 999.) ];
  (* quantiles clamp into the observed range *)
  Alcotest.(check bool) "p999 <= max" true (T.hist_quantile s 0.999 <= 1000.0);
  Alcotest.(check bool) "p0 >= min" true (T.hist_quantile s 0.0001 >= 1.0);
  (* the empty histogram reports 0 and stays out of the report *)
  Alcotest.(check (float 0.)) "empty" 0.0
    (T.hist_quantile (T.empty_hist_summary ()) 0.99)

(* The acceptance property of the stats plane: merging per-shard
   histograms bucket-wise is EXACT — quantiles of the merged summary
   equal quantiles of a single histogram fed the union of the streams,
   bit for bit, because the layout is fixed at compile time. *)
let test_hist_merge_exact =
  scoped @@ fun () ->
  let stream_a = List.init 400 (fun i -> 0.05 +. (float_of_int i *. 0.37)) in
  let stream_b = List.init 300 (fun i -> 3.0 +. (float_of_int i *. 5.11)) in
  let summarize name values =
    T.reset ();
    let h = T.hist name in
    List.iter (T.hobserve h) values;
    List.assoc name (T.report ()).T.r_hists
  in
  let sa = summarize "t.m" stream_a in
  let sb = summarize "t.m" stream_b in
  let union = summarize "t.m" (stream_a @ stream_b) in
  let merged = T.merge_hist_summary sa sb in
  Alcotest.(check int) "n" union.T.hs_n merged.T.hs_n;
  Alcotest.(check (float 1e-9)) "sum" union.T.hs_sum merged.T.hs_sum;
  Alcotest.(check (float 0.)) "min" union.T.hs_min merged.T.hs_min;
  Alcotest.(check (float 0.)) "max" union.T.hs_max merged.T.hs_max;
  Alcotest.(check (array int)) "buckets" union.T.hs_counts merged.T.hs_counts;
  List.iter
    (fun q ->
      Alcotest.(check (float 0.))
        (Printf.sprintf "q=%.3f exact" q)
        (T.hist_quantile union q) (T.hist_quantile merged q))
    [ 0.5; 0.9; 0.99; 0.999 ];
  (* merging a layout from another build must fail loudly *)
  let alien = { sa with T.hs_counts = Array.make 7 0 } in
  (match T.merge_hist_summary sa alien with
  | _ -> Alcotest.fail "layout mismatch accepted"
  | exception Invalid_argument _ -> ())

(* capture_spans diffs the live span tree around a thunk: only spans
   opened inside the window appear, with per-window times. *)
let test_capture_spans =
  scoped @@ fun () ->
  T.with_span "outside" (fun () -> ());
  let (), delta =
    T.capture_spans (fun () ->
        T.with_span "win" (fun () ->
            T.with_span "sub" (fun () -> ());
            T.with_span "sub" (fun () -> ())))
  in
  let names = List.map (fun s -> s.T.sp_name) delta in
  Alcotest.(check (list string)) "window roots" [ "win" ] names;
  (match T.find_span delta [ "win"; "sub" ] with
  | Some s -> Alcotest.(check int) "window calls" 2 s.T.calls
  | None -> Alcotest.fail "nested delta missing");
  Alcotest.(check bool) "outside excluded" true
    (T.find_span delta [ "outside" ] = None)

(* ---- spans ---- *)

let test_span_nesting =
  scoped @@ fun () ->
  T.with_span "outer" (fun () ->
      T.with_span "inner" (fun () -> ());
      T.with_span "inner" (fun () -> ());
      T.with_span "other" (fun () -> ()));
  T.with_span "outer" (fun () -> ());
  let r = T.report () in
  let outer =
    match T.find_span r.T.r_spans [ "outer" ] with
    | Some s -> s
    | None -> Alcotest.fail "outer span missing"
  in
  Alcotest.(check int) "outer calls" 2 outer.T.calls;
  Alcotest.(check bool) "outer timed" true (outer.T.ms >= 0.0);
  (match T.find_span r.T.r_spans [ "outer"; "inner" ] with
  | Some inner -> Alcotest.(check int) "inner merged" 2 inner.T.calls
  | None -> Alcotest.fail "inner span missing");
  Alcotest.(check bool) "no toplevel inner" true
    (T.find_span r.T.r_spans [ "inner" ] = None);
  (* an exception still pops the stack *)
  (try T.with_span "boom" (fun () -> failwith "x") with Failure _ -> ());
  T.with_span "after" (fun () -> ());
  Alcotest.(check bool) "stack popped on raise" true
    (T.find_span (T.report ()).T.r_spans [ "after" ] <> None)

let test_json_roundtrip =
  scoped @@ fun () ->
  T.incr (T.counter "j.count");
  T.record_hist "j.hist" 3.5;
  T.sample (T.series "j.series") ~x:1.0 ~y:2.0;
  T.with_span "j.outer" (fun () -> T.with_span "j \"quoted\"" (fun () -> ()));
  let j = parse_json (T.to_json (T.report ())) in
  Alcotest.(check (float 0.)) "counter" 1.0 (num (member "j.count" (member "counters" j)));
  Alcotest.(check (float 1e-9)) "hist mean" 3.5
    (num (member "mean" (member "j.hist" (member "hists" j))));
  (match member "j.series" (member "series" j) with
  | Arr [ Arr [ Num x; Num y ] ] ->
    Alcotest.(check (float 0.)) "x" 1.0 x;
    Alcotest.(check (float 0.)) "y" 2.0 y
  | _ -> Alcotest.fail "series shape");
  (match member "spans" j with
  | Arr spans ->
    let outer =
      List.find
        (fun sp -> member "name" sp = Str "j.outer")
        spans
    in
    (match member "children" outer with
    | Arr [ child ] ->
      (* escaping round-trips through the parser *)
      Alcotest.(check bool) "escaped name" true
        (member "name" child = Str "j \"quoted\"");
      Alcotest.(check (float 0.)) "child calls" 1.0 (num (member "calls" child))
    | _ -> Alcotest.fail "children shape")
  | _ -> Alcotest.fail "spans not a list");
  (* the trace-event stream past its capacity ends in the dropped note *)
  T.set_events true;
  T.set_event_capacity 1;
  Fun.protect
    ~finally:(fun () ->
      T.set_events false;
      T.set_event_capacity 65536)
    (fun () ->
      T.emit_instant ~cat:"j" ~pid:0 ~tid:0 ~ts:1.0 "j.first";
      T.emit_instant ~cat:"j" ~pid:0 ~tid:0 ~ts:2.0 "j.second";
      match member "traceEvents" (parse_json (T.trace_events_json ())) with
      | Arr evs ->
        Alcotest.(check (list string)) "kept, then the note"
          [
            "process_name";
            "process_name";
            "j.first";
            "events dropped (capacity reached)";
          ]
          (List.map
             (fun e -> match member "name" e with Str s -> s | _ -> "")
             evs)
      | _ -> Alcotest.fail "traceEvents not a list");
  (* a Chrome trace that names no process is still JSON *)
  let ev ts = T.complete_event ~cat:"j" ~pid:3 ~tid:0 ~ts ~dur:1.0 "j.ev" in
  let bare = T.chrome_trace_json ~processes:[] [ ev 1.0; ev 2.0 ] in
  match member "traceEvents" (parse_json bare) with
  | Arr evs -> Alcotest.(check int) "both events" 2 (List.length evs)
  | _ -> Alcotest.fail "traceEvents not a list"

(* The one JSON writer: every control byte, a quote and a backslash
   survive a round trip; JSON has no infinities, so they print as null. *)
let test_json_writer () =
  let module J = Ssp_telemetry.Json in
  let tricky = String.init 0x20 Char.chr ^ "\"\\" in
  Alcotest.(check bool) "string round-trips" true
    (parse_json (J.to_string (J.String tricky)) = Str tricky);
  Alcotest.(check bool) "non-finite is null" true
    (parse_json (J.to_string (J.List [ Float nan; Float infinity; Float 3.0 ]))
    = Arr [ Null; Null; Num 3.0 ])

(* ---- pipeline integration ---- *)

let small_prog () =
  Ssp_workloads.(Workload.program (Suite.find "mcf") ~scale:1)

let test_pipeline_report =
  scoped @@ fun () ->
  let cfg = Ssp_machine.Config.scale_caches Ssp_machine.Config.in_order 64 in
  let prog = small_prog () in
  let profile = Ssp_profiling.Collect.collect prog in
  let adapted = Ssp.Adapt.run ~config:cfg prog profile in
  ignore (Ssp_sim.Inorder.run cfg adapted.Ssp.Adapt.prog);
  let r = T.report () in
  List.iter
    (fun path ->
      if T.find_span r.T.r_spans path = None then
        Alcotest.fail ("missing span " ^ String.concat "/" path))
    [
      [ "profile" ];
      [ "adapt" ];
      [ "adapt"; "delinquent" ];
      [ "adapt"; "adapt.regions" ];
      [ "adapt"; "adapt.select" ];
      [ "adapt"; "adapt.select"; "slice" ];
      [ "adapt"; "adapt.codegen" ];
      [ "sim.inorder" ];
    ];
  let counter name =
    match List.assoc_opt name r.T.r_counters with
    | Some v -> v
    | None -> Alcotest.fail ("missing counter " ^ name)
  in
  Alcotest.(check bool) "profiled instrs" true (counter "profile.instrs" > 0);
  Alcotest.(check bool) "l1d traffic" true
    (counter "sim.l1d.hits" + counter "sim.l1d.misses" > 0);
  Alcotest.(check bool) "delinquent found" true
    (counter "delinquent.selected" > 0);
  Alcotest.(check bool) "slices attempted" true (counter "slice.attempts" > 0);
  Alcotest.(check bool) "spawned" true (counter "sim.spawns" > 0);
  Alcotest.(check bool) "slice sizes sane" true
    (match List.assoc_opt "slice.instrs" r.T.r_hists with
    | Some h -> h.T.hs_n > 0 && h.T.hs_max <= 48.0 && h.T.hs_min >= 0.0
    | None -> false);
  (* the adapt span dominates its children *)
  match T.find_span r.T.r_spans [ "adapt" ] with
  | None -> Alcotest.fail "adapt span"
  | Some sp ->
    let child_ms =
      List.fold_left (fun acc c -> acc +. c.T.ms) 0.0 sp.T.children
    in
    Alcotest.(check bool) "parent >= children" true (sp.T.ms >= child_ms *. 0.99)

(* Instrumentation must not change behavior: the adapted binary rendered
   with telemetry off is byte-identical to the one rendered with it on. *)
let test_off_identical () =
  T.reset ();
  T.set_enabled false;
  let cfg = Ssp_machine.Config.in_order in
  let adapt_asm () =
    let prog = small_prog () in
    let profile = Ssp_profiling.Collect.collect prog in
    let adapted = Ssp.Adapt.run ~config:cfg prog profile in
    Format.asprintf "%a@." Ssp_ir.Asm.print adapted.Ssp.Adapt.prog
  in
  let off = adapt_asm () in
  T.set_enabled true;
  let on = adapt_asm () in
  T.set_enabled false;
  T.reset ();
  Alcotest.(check string) "adapt output identical" off on;
  (* and a telemetry-off run records nothing *)
  let r = T.report () in
  Alcotest.(check (list (pair string int))) "no spans recorded" []
    (List.map (fun s -> (s.T.sp_name, s.T.calls)) r.T.r_spans);
  Alcotest.(check bool) "no counts recorded" true
    (List.for_all (fun (_, v) -> v = 0) r.T.r_counters)

let suite =
  [
    Alcotest.test_case "counter math" `Quick test_counter_math;
    Alcotest.test_case "distribution math" `Quick test_dist_math;
    Alcotest.test_case "series" `Quick test_series;
    Alcotest.test_case "series sorted by x" `Quick test_series_sorted;
    Alcotest.test_case "hist quantiles" `Quick test_hist_quantiles;
    Alcotest.test_case "hist merge exact" `Quick test_hist_merge_exact;
    Alcotest.test_case "capture spans" `Quick test_capture_spans;
    Alcotest.test_case "span nesting" `Quick test_span_nesting;
    Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
    Alcotest.test_case "json writer" `Quick test_json_writer;
    Alcotest.test_case "pipeline report" `Slow test_pipeline_report;
    Alcotest.test_case "telemetry off is inert" `Slow test_off_identical;
  ]
