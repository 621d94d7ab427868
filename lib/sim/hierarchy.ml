open Ssp_machine
module T = Ssp_telemetry.Telemetry
module F = Ssp_fault.Fault

let site_pf_drop = F.site "sim.prefetch.drop"
let site_fill_exhaust = F.site "sim.fill.exhaust"

type level = L1 | L2 | L3 | Mem

(* The in-flight fill buffer lives in parallel flat arrays (structure of
   arrays), preallocated and compacted in place: the per-access probe and
   the retire sweep allocate nothing. The logical entry count is [fl_n];
   capacity grows by doubling in the rare overflow case (entries can
   transiently exceed [fill_buffer_entries]: a "full" buffer delays the new
   fill's start but still tracks it). [fl_first] is the earliest [fl_done]
   among the entries ([max_int] with none), so an access with no fill due
   skips the sweep. *)
type t = {
  cfg : Config.t;
  l1d : Cache.t;
  l1i : Cache.t;
  l2 : Cache.t;
  l3 : Cache.t;
  mutable fl_line : int array;
  mutable fl_origin : level array;
  mutable fl_done : int array;
  mutable fl_n : int;
  mutable fl_first : int;
  mutable attrib : Attrib.t option;  (* prefetch-lifecycle attribution *)
  warm_shift : int;  (* L1 line_bits: line key = addr lsr warm_shift *)
  mutable warm_dline : int;
      (* last L1d line warmed by {!warm}; a repeat touch of the same line
         with no other access in between is an LRU no-op, so the filter is
         exact — reset whenever the timed path may have intervened *)
  mutable warm_iline : int;  (* same, for {!warm_ifetch} / L1i *)
  mutable last_level : level;  (* origin of the last timed access's data *)
  mutable last_partial : bool;  (* the last timed access found it in transit *)
  tel_dropped : T.counter;  (* prefetches dropped on a full fill buffer *)
  tel_stalled : T.counter;  (* fills delayed by a full fill buffer *)
}

(* [tprefix] namespaces the telemetry counters so the cycle simulators
   ("sim.*") and the profiling pass ("profile.*") stay distinguishable in
   one run report. *)
let create ?(tprefix = "sim") (cfg : Config.t) =
  let cap = Int.max 32 (2 * cfg.fill_buffer_entries) in
  let l1d = Cache.create ~name:(tprefix ^ ".l1d") cfg.l1 in
  {
    cfg;
    l1d;
    l1i = Cache.create ~name:(tprefix ^ ".l1i") cfg.l1;
    l2 = Cache.create ~name:(tprefix ^ ".l2") cfg.l2;
    l3 = Cache.create ~name:(tprefix ^ ".l3") cfg.l3;
    fl_line = Array.make cap 0;
    fl_origin = Array.make cap L1;
    fl_done = Array.make cap 0;
    fl_n = 0;
    fl_first = max_int;
    attrib = None;
    warm_shift = Cache.line_bits l1d;
    warm_dline = -1;
    warm_iline = -1;
    last_level = L1;
    last_partial = false;
    tel_dropped = T.counter (tprefix ^ ".fill.dropped_prefetch");
    tel_stalled = T.counter (tprefix ^ ".fill.full_stall");
  }

let l1d t = t.l1d
let set_attrib t a = t.attrib <- Some a
let last_level t = t.last_level
let last_partial t = t.last_partial

(* A timed access returns its ready cycle and leaves where the data came
   from in the hierarchy, so the access allocates nothing. *)
let[@inline] outcome t level ~partial ready =
  t.last_level <- level;
  t.last_partial <- partial;
  ready

let level_latency t = function
  | L1 -> t.cfg.l1.latency
  | L2 -> t.cfg.l2.latency
  | L3 -> t.cfg.l3.latency
  | Mem -> t.cfg.mem_latency

let add_fill t ~line ~origin ~done_at =
  let n = t.fl_n in
  if n >= Array.length t.fl_line then begin
    let cap = 2 * Array.length t.fl_line in
    let line' = Array.make cap 0 in
    let origin' = Array.make cap L1 in
    let done' = Array.make cap 0 in
    Array.blit t.fl_line 0 line' 0 n;
    Array.blit t.fl_origin 0 origin' 0 n;
    Array.blit t.fl_done 0 done' 0 n;
    t.fl_line <- line';
    t.fl_origin <- origin';
    t.fl_done <- done'
  end;
  t.fl_line.(n) <- line;
  t.fl_origin.(n) <- origin;
  t.fl_done.(n) <- done_at;
  t.fl_n <- n + 1;
  if done_at < t.fl_first then t.fl_first <- done_at

let retire_fills t ~now =
  let n = t.fl_n in
  if now >= t.fl_first then begin
    (* Install newest-first: entries append in age order, and the previous
       list representation retired cons-newest-first — LRU state (and so
       downstream timing) is bit-identical. *)
    for i = n - 1 downto 0 do
      if t.fl_done.(i) <= now then begin
        let line = t.fl_line.(i) in
        Cache.install t.l1d line;
        Cache.install t.l2 line;
        Cache.install t.l3 line;
        match t.attrib with
        | Some a -> Attrib.fill_retired a ~line ~now:t.fl_done.(i)
        | None -> ()
      end
    done;
    let k = ref 0 in
    let first = ref max_int in
    for i = 0 to n - 1 do
      let d = t.fl_done.(i) in
      if d > now then begin
        if !k <> i then begin
          t.fl_line.(!k) <- t.fl_line.(i);
          t.fl_origin.(!k) <- t.fl_origin.(i);
          t.fl_done.(!k) <- d
        end;
        if d < !first then first := d;
        incr k
      end
    done;
    t.fl_n <- !k;
    t.fl_first <- !first
  end

(* The fill-buffer entry in transit for [line] from entry [i] on, or -1.
   All parameters explicit: a local closure would allocate on every L1
   miss. *)
let rec find_fill (lines : int array) n (line : int) i =
  if i >= n then -1
  else if Array.unsafe_get lines i = line then i
  else find_fill lines n line (i + 1)

let perfect_hit t ~now = outcome t L1 ~partial:false (now + t.cfg.l1.latency)

let access_real t ~now ~instruction ~nt ~low_priority ~pf_tag ~demand_iref
    ~demand_main addr =
  retire_fills t ~now;
  let l1 = if instruction then t.l1i else t.l1d in
  let line = Cache.line_addr t.l2 addr in
  (* Attribution: a tagged access IS a prefetch (an lfetch, or a
     speculative demand load standing in for one); an untagged data
     access is a potential use settling the line's outstanding
     prefetch. Bookkeeping only — never changes the outcome. The matches
     are written out inline (no helper closures) to keep the usual
     attrib-off path allocation-free. *)
  if Cache.access l1 addr then begin
    let ready = now + t.cfg.l1.latency in
    (match (t.attrib, pf_tag) with
    | Some a, Some tag -> Attrib.prefetch_redundant a tag
    | Some a, None ->
      if not instruction then
        Attrib.demand_use a ?iref:demand_iref ~main:demand_main ~line
          ~hit:true ~partial:false ~now ~ready ()
    | None, _ -> ());
    outcome t L1 ~partial:false ready
  end
  else begin
    (* Fill buffer: line already in transit? *)
    let fi = find_fill t.fl_line t.fl_n line 0 in
    if fi >= 0 then begin
      let done_at = t.fl_done.(fi) in
      let ready = Int.max done_at (now + t.cfg.l1.latency) in
      (match (t.attrib, pf_tag) with
      | Some a, Some tag -> Attrib.prefetch_redundant a tag
      | Some a, None ->
        if not instruction then
          Attrib.demand_use a ?iref:demand_iref ~main:demand_main ~line
            ~hit:false ~partial:true ~now ~ready ()
      | None, _ -> ());
      outcome t t.fl_origin.(fi) ~partial:true ready
    end
    else begin
      let used = t.fl_n in
      let full = used >= t.cfg.fill_buffer_entries in
      (* Demand priority: the last few entries are reserved for the main
         thread, so speculative traffic cannot starve the misses it is
         supposed to be helping. Prefetches are dropped outright when the
         buffer is full; speculative loads wait as if it were full. *)
      let reserve = Int.max 0 (t.cfg.fill_buffer_entries - 4) in
      let full = full || (low_priority && used >= reserve) in
      (* Injected fill-buffer exhaustion: pretend the buffer is full (only
         meaningful while fills are actually in flight — the delay is
         computed from the earliest outstanding entry). *)
      let full = full || (t.fl_n > 0 && F.fire site_fill_exhaust) in
      if nt && (full || F.fire site_pf_drop) then begin
        T.incr t.tel_dropped;
        (match (t.attrib, pf_tag) with
        | Some a, Some tag -> Attrib.prefetch_dropped a tag
        | _ -> ());
        outcome t L1 ~partial:false (now + 1)
      end
      else begin
        (* A full fill buffer delays the new fill until the earliest
           outstanding one retires. One with nothing in flight (a buffer
           of 4 entries or fewer has no demand reserve, so a speculative
           miss finds it full even when empty) starts the fill now. *)
        let delayed = full && t.fl_n > 0 in
        if delayed then T.incr t.tel_stalled;
        let origin, latency =
          if Cache.access t.l2 addr then (L2, t.cfg.l2.latency)
          else if Cache.access t.l3 addr then (L3, t.cfg.l3.latency)
          else (Mem, t.cfg.mem_latency)
        in
        let start = if delayed then t.fl_first else now in
        let done_at = start + latency in
        add_fill t ~line ~origin ~done_at;
        (match (t.attrib, pf_tag) with
        | Some a, Some tag -> Attrib.prefetch_issued a tag ~line ~now
        | Some a, None ->
          if not instruction then
            Attrib.demand_use a ?iref:demand_iref ~main:demand_main ~line
              ~hit:false ~partial:false ~now ~ready:done_at ()
        | None, _ -> ());
        if instruction then Cache.install t.l1i addr;
        outcome t origin ~partial:false done_at
      end
    end
  end

let access t ~now ?(prefetch = false) ?(low_priority = false)
    ?(instruction = false) ?pf_tag ?demand_iref ?(demand_main = false) addr =
  match t.cfg.memory_mode with
  | Config.Perfect_memory -> perfect_hit t ~now
  | Config.Normal | Config.Perfect_delinquent _ ->
    access_real t ~now ~instruction ~nt:prefetch
      ~low_priority:(low_priority || prefetch) ~pf_tag ~demand_iref
      ~demand_main addr

(* Non-optional hot-path entry points: the cycle simulators call these when
   no attribution is attached, dodging the optional-argument plumbing. *)
let demand t ~now ~low_priority addr =
  match t.cfg.memory_mode with
  | Config.Perfect_memory -> perfect_hit t ~now
  | Config.Normal | Config.Perfect_delinquent _ ->
    access_real t ~now ~instruction:false ~nt:false ~low_priority ~pf_tag:None
      ~demand_iref:None ~demand_main:(not low_priority) addr

let prefetch t ~now addr =
  match t.cfg.memory_mode with
  | Config.Perfect_memory -> perfect_hit t ~now
  | Config.Normal | Config.Perfect_delinquent _ ->
    access_real t ~now ~instruction:false ~nt:true ~low_priority:true
      ~pf_tag:None ~demand_iref:None ~demand_main:false addr

let ifetch t ~now addr =
  match t.cfg.memory_mode with
  | Config.Perfect_memory -> perfect_hit t ~now
  | Config.Normal | Config.Perfect_delinquent _ ->
    access_real t ~now ~instruction:true ~nt:false ~low_priority:false
      ~pf_tag:None ~demand_iref:None ~demand_main:false addr

(* Functional warming for sampled simulation: bring the line in at every
   level with no timing, no fill-buffer traffic and no attribution — keeps
   cache contents (and so the next detailed window) honest while the
   fast-forward window skips the clock. *)
let reset_warm_filter t =
  t.warm_dline <- -1;
  t.warm_iline <- -1

let warm t a =
  match t.cfg.memory_mode with
  | Config.Perfect_memory -> ()
  | Config.Normal | Config.Perfect_delinquent _ ->
    let a = a land max_int in
    let line = a lsr t.warm_shift in
    if line <> t.warm_dline then begin
      t.warm_dline <- line;
      if not (Cache.warm_access t.l1d a) then begin
        ignore (Cache.warm_access t.l2 a);
        ignore (Cache.warm_access t.l3 a)
      end
    end

let warm_ifetch t a =
  match t.cfg.memory_mode with
  | Config.Perfect_memory -> ()
  | Config.Normal | Config.Perfect_delinquent _ ->
    let a = a land max_int in
    let line = a lsr t.warm_shift in
    if line <> t.warm_iline then begin
      t.warm_iline <- line;
      ignore (Cache.warm_access t.l1i a)
    end
