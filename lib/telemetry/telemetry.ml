(* Telemetry: named counters, quantile histograms, sample series,
   hierarchical wall-clock spans, and a structured run report exportable as
   JSON or as a human-readable summary table.

   The subsystem is global and OFF by default: every recording entry point
   is gated on [enabled], so an instrumented hot path costs a single branch
   when telemetry is off. Handles ([counter], [hist], [series]) are interned
   by name at creation time and stay valid across [reset] — a pass may hold
   one for its whole lifetime.

   Domain safety is by sharding, not locking: every domain that records
   anything gets its own shard (counters, histograms, series, span tree,
   event buffer) through domain-local storage, registered once in a global
   list. The hot recording paths therefore stay plain unsynchronized
   mutations — same cost as before domains — and [report]/[events] merge
   the shards by name at the (cold) reporting boundary ([report] through
   [merge], which also merges a cluster's stats snapshots). The one rule
   this imposes on callers: use a handle on the domain that interned it
   (every instrumented subsystem already creates its handles where it
   runs). *)

let enabled = ref false
let set_enabled b = enabled := b
let is_enabled () = !enabled

type counter = { c_name : string; mutable count : int }

(* ---- quantile histograms ----

   Log-bucketed with a FIXED layout shared by every histogram in every
   process: [hist_subbuckets] buckets per power of two, from 2^-20 up to
   2^44, plus an underflow and an overflow bucket. Because the layout is
   a compile-time constant, two shards' (or two cluster nodes')
   histograms of the same name merge EXACTLY by adding bucket counts —
   the quantiles of the merge equal the quantiles of the union stream.
   A bucket spans a value ratio of 2^(1/subbuckets) (~9% at 8), so any
   quantile estimate (the bucket's geometric midpoint) carries a bounded
   relative error of about +/-4.5%. *)

let hist_subbuckets = 8
let hist_min_log2 = -20.0 (* ~1e-6: below this is the underflow bucket *)
let hist_log_buckets = 64 * hist_subbuckets (* up to 2^44 *)
let hist_bucket_count = hist_log_buckets + 2 (* + underflow + overflow *)

(* Index 0 is underflow (v < 2^-20, zero, negative, or non-finite),
   index [hist_bucket_count - 1] overflow; bucket i in between covers
   [2^(min + (i-1)/sub), 2^(min + i/sub)). *)
let hist_index v =
  if not (Float.is_finite v) || v < 0x1p-20 then 0
  else
    let e = (Float.log2 v -. hist_min_log2) *. float_of_int hist_subbuckets in
    let i = 1 + int_of_float e in
    if i > hist_log_buckets then hist_log_buckets + 1 else i

(* Geometric midpoint of bucket [i] — the bounded-relative-error
   representative used for quantile estimates. *)
let hist_bucket_value i =
  Float.exp2
    (hist_min_log2
    +. ((float_of_int (i - 1) +. 0.5) /. float_of_int hist_subbuckets))

type hist = {
  h_name : string;
  h_counts : int array; (* length [hist_bucket_count] *)
  mutable h_n : int;
  mutable h_sum : float;
  mutable h_lo : float;
  mutable h_hi : float;
}

type series = {
  s_name : string;
  mutable points : (float * float) list; (* newest first *)
}

(* ---- spans: a tree of wall-clock timed phases ---- *)

type span = {
  sp_name : string;
  mutable ms : float; (* accumulated wall-clock milliseconds *)
  mutable calls : int;
  mutable children : span list; (* newest first *)
}

let new_span name = { sp_name = name; ms = 0.; calls = 0; children = [] }

(* ---- bounded timestamped event stream (Chrome trace-event export) ---- *)

let pid_passes = 0
let pid_sim = 1

type event_phase = Ph_complete | Ph_instant

type event = {
  e_name : string;
  e_cat : string;
  e_pid : int;
  e_tid : int;
  e_ts : float;
  e_dur : float; (* Ph_complete only *)
  e_ph : event_phase;
  e_args : (string * string) list;
}

(* ---- per-domain shards ---- *)

type shard = {
  counters : (string, counter) Hashtbl.t;
  hists : (string, hist) Hashtbl.t;
  seriess : (string, series) Hashtbl.t;
  root : span;
  mutable stack : span list; (* innermost first *)
  mutable events_rev : event list; (* newest first *)
  mutable event_count : int;
  mutable events_dropped : int;
}

let new_shard () =
  {
    counters = Hashtbl.create 64;
    hists = Hashtbl.create 16;
    seriess = Hashtbl.create 16;
    root = new_span "root";
    stack = [];
    events_rev = [];
    event_count = 0;
    events_dropped = 0;
  }

(* Registration order is the merge order; the main domain's shard is
   created eagerly here so it is always first. *)
let shards_mutex = Mutex.create ()
let main_shard = new_shard ()
let shards : shard list ref = ref [ main_shard ]

let shard_key =
  Domain.DLS.new_key (fun () ->
      let s = new_shard () in
      Mutex.lock shards_mutex;
      shards := !shards @ [ s ];
      Mutex.unlock shards_mutex;
      s)

(* The main domain reuses the eagerly created shard. *)
let () = Domain.DLS.set shard_key main_shard

let my_shard () = Domain.DLS.get shard_key

let all_shards () =
  Mutex.lock shards_mutex;
  let l = !shards in
  Mutex.unlock shards_mutex;
  l

(* ---- counters ---- *)

let counter name =
  let sh = my_shard () in
  match Hashtbl.find_opt sh.counters name with
  | Some c -> c
  | None ->
    let c = { c_name = name; count = 0 } in
    Hashtbl.replace sh.counters name c;
    c

let incr c = if !enabled then c.count <- c.count + 1
let add c n = if !enabled then c.count <- c.count + n

(* Convenience for cold paths; interns by name on every call. *)
let count name n = add (counter name) n

(* ---- histograms ---- *)

let hist name =
  let sh = my_shard () in
  match Hashtbl.find_opt sh.hists name with
  | Some h -> h
  | None ->
    let h =
      {
        h_name = name;
        h_counts = Array.make hist_bucket_count 0;
        h_n = 0;
        h_sum = 0.;
        h_lo = infinity;
        h_hi = neg_infinity;
      }
    in
    Hashtbl.replace sh.hists name h;
    h

let hobserve h v =
  if !enabled then begin
    let i = hist_index v in
    h.h_counts.(i) <- h.h_counts.(i) + 1;
    h.h_n <- h.h_n + 1;
    h.h_sum <- h.h_sum +. v;
    if v < h.h_lo then h.h_lo <- v;
    if v > h.h_hi then h.h_hi <- v
  end

(* Convenience for cold paths; interns by name on every call, and only
   while telemetry is on. *)
let record_hist name v = if !enabled then hobserve (hist name) v

(* ---- series (x/y samples, e.g. per-interval simulator events) ---- *)

let series name =
  let sh = my_shard () in
  match Hashtbl.find_opt sh.seriess name with
  | Some s -> s
  | None ->
    let s = { s_name = name; points = [] } in
    Hashtbl.replace sh.seriess name s;
    s

let sample s ~x ~y = if !enabled then s.points <- (x, y) :: s.points

(* ---- events ----

   Events are a second, opt-in layer on top of [enabled]: pass spans and
   simulator timelines are recorded as individual timestamped events only
   when [set_events true] has been called, and the stream is bounded
   (keep-first per shard; overflow is counted, not silently discarded).
   Two timelines share the stream, distinguished by pid:
     pid 0  tool passes, timestamps in wall-clock microseconds since the
            first event of the run;
     pid 1  simulator, timestamps in cycles (exported in the trace's "ts"
            field; one "microsecond" on screen = one cycle). *)

let record_events = ref false
let event_capacity = ref 65536
let trace_t0 : float option ref = ref None
let trace_t0_mutex = Mutex.create ()

let set_events b = record_events := b
let events_on () = !enabled && !record_events
let set_event_capacity n = event_capacity := max 1 n

(* Wall-clock microseconds since the first event of the run (pid 0). *)
let now_us () =
  let t = Unix.gettimeofday () in
  Mutex.lock trace_t0_mutex;
  let t0 =
    match !trace_t0 with
    | Some t0 -> t0
    | None ->
      trace_t0 := Some t;
      t
  in
  Mutex.unlock trace_t0_mutex;
  (t -. t0) *. 1e6

let push_event ev =
  (* [incr] is shadowed by the counter API above. *)
  let sh = my_shard () in
  if sh.event_count >= !event_capacity then
    sh.events_dropped <- sh.events_dropped + 1
  else begin
    sh.events_rev <- ev :: sh.events_rev;
    sh.event_count <- sh.event_count + 1
  end

let emit_complete ?(args = []) ~cat ~pid ~tid ~ts ~dur name =
  if events_on () then
    push_event
      {
        e_name = name;
        e_cat = cat;
        e_pid = pid;
        e_tid = tid;
        e_ts = ts;
        e_dur = dur;
        e_ph = Ph_complete;
        e_args = args;
      }

let emit_instant ?(args = []) ~cat ~pid ~tid ~ts name =
  if events_on () then
    push_event
      {
        e_name = name;
        e_cat = cat;
        e_pid = pid;
        e_tid = tid;
        e_ts = ts;
        e_dur = 0.;
        e_ph = Ph_instant;
        e_args = args;
      }

(* Merged view: shard streams concatenated in registration order (the
   main domain first). Within a shard events keep insertion order; the
   two pids deliberately use different time units, so no global sort. *)
let events () =
  all_shards () |> List.concat_map (fun sh -> List.rev sh.events_rev)

let events_dropped_count () =
  List.fold_left (fun acc sh -> acc + sh.events_dropped) 0 (all_shards ())

(* Repeated spans of the same name under the same parent merge: time
   accumulates and [calls] counts the invocations (e.g. one "slice" node
   per region, not one per call). When the event stream is on each
   invocation additionally becomes one Complete event on the pass
   timeline, so merged spans still show up individually in the trace. *)
let child_of parent name =
  match List.find_opt (fun s -> String.equal s.sp_name name) parent.children with
  | Some s -> s
  | None ->
    let s = new_span name in
    parent.children <- s :: parent.children;
    s

let with_span name f =
  if not !enabled then f ()
  else begin
    let sh = my_shard () in
    let parent = match sh.stack with s :: _ -> s | [] -> sh.root in
    let sp = child_of parent name in
    sh.stack <- sp :: sh.stack;
    let ev_ts = if events_on () then Some (now_us ()) else None in
    let t0 = Unix.gettimeofday () in
    Fun.protect
      ~finally:(fun () ->
        sp.ms <- sp.ms +. ((Unix.gettimeofday () -. t0) *. 1000.);
        sp.calls <- sp.calls + 1;
        (match ev_ts with
        | Some ts ->
          emit_complete ~cat:"pass" ~pid:pid_passes ~tid:0 ~ts
            ~dur:((Unix.gettimeofday () -. t0) *. 1e6)
            name
        | None -> ());
        match sh.stack with _ :: rest -> sh.stack <- rest | [] -> ())
      f
  end

(* ---- reset ---- *)

let reset () =
  List.iter
    (fun sh ->
      Hashtbl.iter (fun _ c -> c.count <- 0) sh.counters;
      Hashtbl.iter
        (fun _ h ->
          Array.fill h.h_counts 0 hist_bucket_count 0;
          h.h_n <- 0;
          h.h_sum <- 0.;
          h.h_lo <- infinity;
          h.h_hi <- neg_infinity)
        sh.hists;
      Hashtbl.iter (fun _ s -> s.points <- []) sh.seriess;
      sh.root.children <- [];
      sh.root.ms <- 0.;
      sh.root.calls <- 0;
      sh.stack <- [];
      sh.events_rev <- [];
      sh.event_count <- 0;
      sh.events_dropped <- 0)
    (all_shards ());
  Mutex.lock trace_t0_mutex;
  trace_t0 := None;
  Mutex.unlock trace_t0_mutex

(* ---- structured run report ---- *)

type hist_summary = {
  hs_n : int;
  hs_sum : float;
  hs_min : float;
  hs_max : float;
  hs_counts : int array; (* the fixed layout: [hist_bucket_count] *)
}

let empty_hist_summary () =
  {
    hs_n = 0;
    hs_sum = 0.;
    hs_min = infinity;
    hs_max = neg_infinity;
    hs_counts = Array.make hist_bucket_count 0;
  }

(* Bucket-wise exact merge: both sides share the fixed layout, so the
   merged histogram is indistinguishable from one that observed the
   union of the two sample streams. *)
let merge_hist_summary a b =
  if Array.length a.hs_counts <> Array.length b.hs_counts then
    invalid_arg "Telemetry.merge_hist_summary: bucket layouts differ";
  {
    hs_n = a.hs_n + b.hs_n;
    hs_sum = a.hs_sum +. b.hs_sum;
    hs_min = Float.min a.hs_min b.hs_min;
    hs_max = Float.max a.hs_max b.hs_max;
    hs_counts = Array.init (Array.length a.hs_counts) (fun i ->
        a.hs_counts.(i) + b.hs_counts.(i));
  }

(* Quantile estimate with bounded relative error: walk the cumulative
   counts to the target rank, answer the bucket's geometric midpoint
   (underflow/overflow answer the observed min/max), clamped into the
   observed [min, max]. *)
let hist_quantile hs q =
  if hs.hs_n = 0 then 0.
  else begin
    let target = Float.max 1.0 (q *. float_of_int hs.hs_n) in
    let cum = ref 0 in
    let found = ref None in
    Array.iteri
      (fun i c ->
        cum := !cum + c;
        if !found = None && c > 0 && float_of_int !cum >= target then
          found := Some i)
      hs.hs_counts;
    let raw =
      match !found with
      | None | Some 0 -> hs.hs_min
      | Some i when i = Array.length hs.hs_counts - 1 -> hs.hs_max
      | Some i -> hist_bucket_value i
    in
    Float.min hs.hs_max (Float.max hs.hs_min raw)
  end

let hist_mean hs = if hs.hs_n = 0 then 0. else hs.hs_sum /. float_of_int hs.hs_n

type report = {
  r_spans : span list; (* deep copies, oldest first *)
  r_counters : (string * int) list; (* sorted by name *)
  r_hists : (string * hist_summary) list;
  r_series : (string * (float * float) list) list; (* sorted by x *)
}

let rec copy_span sp =
  {
    sp with
    children = List.rev_map copy_span sp.children (* oldest first *);
  }

(* Merge a span tree into an accumulating copy: children match by name,
   times and call counts add. Worker-domain spans that ran with an empty
   stack surface as top-level phases next to the main domain's. *)
let rec merge_span_into (dst : span) (src : span) =
  dst.ms <- dst.ms +. src.ms;
  dst.calls <- dst.calls + src.calls;
  (* [src] lists children oldest first. [child_of] prepends, so dst
     ends newest first — [merge] re-orients. *)
  List.iter
    (fun (c : span) ->
      let dc = child_of dst c.sp_name in
      merge_span_into dc c)
    src.children

(* The one merge of run reports: [report] merges the domains' shards, and
   the cluster router merges its shards' snapshots. Counters add by name,
   histograms merge bucket-wise, spans merge by path, and series
   concatenate in list order. Every list comes out in [report]'s order. *)
let merge reports =
  let by_name (a, _) (b, _) = String.compare a b in
  let table combine field =
    let acc = Hashtbl.create 64 in
    List.iter
      (fun r ->
        List.iter
          (fun (name, v) ->
            Hashtbl.replace acc name
              (match Hashtbl.find_opt acc name with
              | Some prev -> combine prev v
              | None -> v))
          (field r))
      reports;
    Hashtbl.fold (fun name v l -> (name, v) :: l) acc [] |> List.sort by_name
  in
  let root = new_span "root" in
  List.iter
    (fun r -> merge_span_into root { (new_span "root") with children = r.r_spans })
    reports;
  let rec orient sp = { sp with children = List.rev_map orient sp.children } in
  {
    r_spans = (orient root).children;
    r_counters = table ( + ) (fun r -> r.r_counters);
    r_hists = table merge_hist_summary (fun r -> r.r_hists);
    r_series =
      (* Each shard's points arrive in insertion order; exports sort by x
         (stable: ties keep shard insertion order). *)
      table ( @ ) (fun r -> r.r_series)
      |> List.map (fun (name, pts) ->
             ( name,
               List.stable_sort (fun (x1, _) (x2, _) -> Float.compare x1 x2) pts
             ));
  }

let shard_report ~series sh =
  {
    r_spans = (copy_span sh.root).children;
    r_counters = Hashtbl.fold (fun name c l -> (name, c.count) :: l) sh.counters [];
    r_hists =
      Hashtbl.fold
        (fun name h l ->
          if h.h_n = 0 then l
          else
            ( name,
              {
                hs_n = h.h_n;
                hs_sum = h.h_sum;
                hs_min = h.h_lo;
                hs_max = h.h_hi;
                hs_counts = Array.copy h.h_counts;
              } )
            :: l)
        sh.hists [];
    r_series =
      (if not series then []
       else
         Hashtbl.fold
           (fun name s l ->
             if s.points = [] then l else (name, List.rev s.points) :: l)
           sh.seriess []);
  }

(* [~series:false] leaves the series out without walking them: a stats
   snapshot ships none, and gathering them costs time in proportion to
   every point the run has sampled. *)
let report ?(series = true) () =
  merge (List.map (shard_report ~series) (all_shards ()))

(* ---- JSON export ---- *)

let hist_json h =
  Json.Obj
    [
      ("n", Int h.hs_n);
      ("sum", Float h.hs_sum);
      ("min", Float h.hs_min);
      ("max", Float h.hs_max);
      ("mean", Float (hist_mean h));
      ("p50", Float (hist_quantile h 0.5));
      ("p90", Float (hist_quantile h 0.9));
      ("p99", Float (hist_quantile h 0.99));
      ("p999", Float (hist_quantile h 0.999));
    ]

let rec span_json sp =
  Json.Obj
    [
      ("name", String sp.sp_name);
      ("ms", Float sp.ms);
      ("calls", Int sp.calls);
      ("children", List (List.map span_json sp.children));
    ]

(* [extra] fields follow the report's four: a stats snapshot adds its
   node, gauges and dropped-event count. *)
let to_json ?(extra = []) r =
  let named f xs = Json.Obj (List.map (fun (name, v) -> (name, f v)) xs) in
  let point (x, y) = Json.List [ Float x; Float y ] in
  Json.to_string
    (Obj
       ([
          ("spans", Json.List (List.map span_json r.r_spans));
          ("counters", named (fun v -> Json.Int v) r.r_counters);
          ("hists", named hist_json r.r_hists);
          ( "series",
            named (fun pts -> Json.List (List.map point pts)) r.r_series );
        ]
       @ extra))

let write_json path r =
  let oc = open_out path in
  output_string oc (to_json r);
  output_char oc '\n';
  close_out oc

(* ---- Chrome trace-event export (chrome://tracing, Perfetto) ----

   JSON object format: {"traceEvents":[...]} where each event carries
   name/cat/ph/ts/pid/tid (+dur for "X"). Metadata ("M") events name the
   processes so the viewer labels the timelines. [chrome_trace_json]
   renders an explicit event list with caller-chosen pids (the stitched
   cluster trace gives one pid to each process a request crossed);
   [trace_events_json] renders this process's stream under the two
   fixed pids. *)

let complete_event ?(args = []) ~cat ~pid ~tid ~ts ~dur name =
  {
    e_name = name;
    e_cat = cat;
    e_pid = pid;
    e_tid = tid;
    e_ts = ts;
    e_dur = dur;
    e_ph = Ph_complete;
    e_args = args;
  }

let event_json ev =
  let ph, timing =
    match ev.e_ph with
    | Ph_complete -> ("X", [ ("dur", Json.Float ev.e_dur) ])
    | Ph_instant -> ("i", [ ("s", Json.String "t") ])
  in
  let args =
    if ev.e_args = [] then []
    else
      let arg (k, v) = (k, Json.String v) in
      [ ("args", Json.Obj (List.map arg ev.e_args)) ]
  in
  Json.(
    Obj
      ([
         ("name", String ev.e_name);
         ("cat", String ev.e_cat);
         ("ph", String ph);
         ("ts", Float ev.e_ts);
       ]
      @ timing
      @ [ ("pid", Int ev.e_pid); ("tid", Int ev.e_tid) ]
      @ args))

let chrome_trace_json ~processes evs =
  let process (pid, name) =
    Json.Obj
      [
        ("name", String "process_name");
        ("ph", String "M");
        ("pid", Int pid);
        ("tid", Int 0);
        ("args", Obj [ ("name", String name) ]);
      ]
  in
  Json.to_string
    (Obj
       [
         ( "traceEvents",
           List (List.map process processes @ List.map event_json evs) );
         ("displayTimeUnit", String "ms");
       ])

let trace_events_json () =
  let dropped = events_dropped_count () in
  let note =
    if dropped = 0 then []
    else
      [
        {
          e_name = "events dropped (capacity reached)";
          e_cat = "telemetry";
          e_pid = pid_passes;
          e_tid = 0;
          e_ts = 0.;
          e_dur = 0.;
          e_ph = Ph_instant;
          e_args = [ ("dropped", string_of_int dropped) ];
        };
      ]
  in
  chrome_trace_json
    ~processes:
      [
        (pid_passes, "sspc passes (wall-clock us)");
        (pid_sim, "simulator (ts = cycles)");
      ]
    (events () @ note)

let write_trace_events path =
  let oc = open_out path in
  output_string oc (trace_events_json ());
  output_char oc '\n';
  close_out oc

(* ---- summary table ---- *)

(* The one table of a run report: [sspc stats] prints it, and a stats
   snapshot prints it between its node line and its gauges. *)
let pp_summary ppf r =
  Format.fprintf ppf "@[<v>";
  if r.r_spans <> [] then begin
    Format.fprintf ppf "phase timings:@,";
    let rec pp_sp depth sp =
      Format.fprintf ppf "  %s%-*s %10.3f ms  x%d@," (String.make (2 * depth) ' ')
        (max 1 (28 - (2 * depth)))
        sp.sp_name sp.ms sp.calls;
      List.iter (pp_sp (depth + 1)) sp.children
    in
    List.iter (pp_sp 0) r.r_spans
  end;
  if r.r_counters <> [] then begin
    Format.fprintf ppf "counters:@,";
    List.iter
      (fun (name, v) -> Format.fprintf ppf "  %-30s %12d@," name v)
      r.r_counters
  end;
  if r.r_hists <> [] then begin
    Format.fprintf ppf "histograms:@,";
    Format.fprintf ppf "  %-30s %8s %10s %10s %10s %10s %10s@," "" "n" "mean"
      "p50" "p90" "p99" "max";
    List.iter
      (fun (name, h) ->
        Format.fprintf ppf "  %-30s %8d %10.3f %10.3f %10.3f %10.3f %10.3f@,"
          name h.hs_n (hist_mean h) (hist_quantile h 0.5) (hist_quantile h 0.9)
          (hist_quantile h 0.99) h.hs_max)
      r.r_hists
  end;
  if r.r_series <> [] then begin
    Format.fprintf ppf "series:@,";
    List.iter
      (fun (name, pts) ->
        Format.fprintf ppf "  %-30s %d samples@," name (List.length pts))
      r.r_series
  end;
  Format.fprintf ppf "@]"

(* Test / tooling helper: walk the copied span tree by path. *)
let rec find_span spans = function
  | [] -> None
  | [ name ] -> List.find_opt (fun s -> String.equal s.sp_name name) spans
  | name :: rest -> (
    match List.find_opt (fun s -> String.equal s.sp_name name) spans with
    | Some s -> find_span s.children rest
    | None -> None)

(* ---- per-request span capture (distributed tracing) ----

   Spans accumulate globally; a traced server request needs just ITS
   slice of the tree. [capture_spans f] snapshots the calling domain's
   span tree, runs [f], and returns the delta — safe because a domain
   (one pool worker, or the main thread) runs one request at a time, so
   everything that accrued on this domain during [f] belongs to it. *)

let rec span_delta (before : span option) (after : span) =
  let b_ms, b_calls, b_children =
    match before with
    | Some b -> (b.ms, b.calls, b.children)
    | None -> (0., 0, [])
  in
  let children =
    List.filter_map
      (fun (c : span) ->
        let bc =
          List.find_opt (fun (x : span) -> String.equal x.sp_name c.sp_name)
            b_children
        in
        span_delta bc c)
      after.children
  in
  let ms = Float.max 0. (after.ms -. b_ms) in
  let calls = max 0 (after.calls - b_calls) in
  if calls = 0 && ms <= 0. && children = [] then None
  else Some { sp_name = after.sp_name; ms; calls; children }

let capture_spans f =
  if not !enabled then (f (), [])
  else begin
    let sh = my_shard () in
    let before = copy_span sh.root in
    let r = f () in
    let after = copy_span sh.root in
    let delta =
      match span_delta (Some before) after with
      | Some d -> d.children
      | None -> []
    in
    (r, delta)
  end
