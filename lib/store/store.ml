(* Content-addressed artifact store: canonical binary codecs for the
   pipeline's durable artifacts inside a versioned, hash-sealed envelope,
   the cache keys, and the on-disk cache. It stores and reads; running
   the pipeline on a miss is [Ssp_feedback.Feedback.adapt]'s.

   Canonical means: hash-table contents are emitted in sorted key order
   and programs travel as their assembly text (the one serialization the
   repo already guarantees round-trips structurally). Decode -> encode is
   therefore byte-identical, which is what lets a blob's digest double as
   the artifact's identity. *)

module Iref = Ssp_ir.Iref
module Profile = Ssp_profiling.Profile
module T = Ssp_telemetry.Telemetry
module F = Ssp_fault.Fault

let format_version = 4
let magic = "SSPA"

let corrupt what = Ssp_ir.Error.raise_error ~pass:"store" what

(* ---- binary primitives ---- *)

module Bin = struct
  type writer = Buffer.t

  let writer () = Buffer.create 1024
  let contents = Buffer.contents
  let w_u8 b v = Buffer.add_uint8 b (v land 0xff)
  let w_int b v = Buffer.add_int64_be b (Int64.of_int v)
  let w_bool b v = w_u8 b (if v then 1 else 0)
  let w_float b f = Buffer.add_int64_be b (Int64.bits_of_float f)

  let w_str b s =
    w_int b (String.length s);
    Buffer.add_string b s

  type reader = { data : string; mutable pos : int }

  let reader data = { data; pos = 0 }

  (* Overflow-safe: lengths come off the wire, so [r.pos + n] may wrap
     for a hostile [n] near [max_int]. Compare against the remaining
     byte count instead. *)
  let need r n =
    if n < 0 || n > String.length r.data - r.pos then
      corrupt "payload truncated"

  let r_u8 r =
    need r 1;
    let v = Char.code r.data.[r.pos] in
    r.pos <- r.pos + 1;
    v

  let r_int r =
    need r 8;
    let v = Int64.to_int (String.get_int64_be r.data r.pos) in
    r.pos <- r.pos + 8;
    v

  let r_bool r =
    match r_u8 r with
    | 0 -> false
    | 1 -> true
    | _ -> corrupt "malformed boolean"

  let r_float r =
    need r 8;
    let v = Int64.float_of_bits (String.get_int64_be r.data r.pos) in
    r.pos <- r.pos + 8;
    v

  let r_str r =
    let n = r_int r in
    if n < 0 then corrupt "negative string length";
    need r n;
    let s = String.sub r.data r.pos n in
    r.pos <- r.pos + n;
    s

  let at_end r = r.pos = String.length r.data
  let expect_end r = if not (at_end r) then corrupt "trailing bytes in payload"
end

(* ---- envelope: magic | version | kind | payload length | payload | md5 ---- *)

let header_len = 4 + 2 + 1 + 8
let digest_len = 16

let kind_adapted = 4
let kind_feedback_report = 5
let kind_feedback_aggregate = 6

let kind_name = function
  | 2 -> "profile"
  | 4 -> "adapted"
  | 5 -> "feedback report"
  | 6 -> "feedback aggregate"
  | _ -> "unknown"

let seal ~kind payload =
  let b = Buffer.create (String.length payload + header_len + digest_len) in
  Buffer.add_string b magic;
  Buffer.add_uint16_be b format_version;
  Buffer.add_uint8 b kind;
  Buffer.add_int64_be b (Int64.of_int (String.length payload));
  Buffer.add_string b payload;
  let body = Buffer.contents b in
  body ^ Digest.string body

(* Validate the whole envelope (magic, version, length, digest) without
   committing to an artifact kind — the shared core of [unseal] and of
   kind-agnostic integrity checks ([fsck], [check_untrusted]). *)
let unseal_any blob =
  let len = String.length blob in
  if len < header_len + digest_len then corrupt "blob truncated";
  if not (String.equal (String.sub blob 0 4) magic) then corrupt "bad magic";
  let ver = (Char.code blob.[4] lsl 8) lor Char.code blob.[5] in
  if ver <> format_version then
    corrupt (Printf.sprintf "format version %d (want %d)" ver format_version);
  let k = Char.code blob.[6] in
  let plen = Int64.to_int (String.get_int64_be blob 7) in
  if plen < 0 || plen <> len - header_len - digest_len then
    corrupt "payload length mismatch";
  let dig = String.sub blob (len - digest_len) digest_len in
  if not (String.equal (Digest.substring blob 0 (len - digest_len)) dig) then
    corrupt "content hash mismatch";
  (k, String.sub blob header_len plen)

let unseal ~kind blob =
  let k, payload = unseal_any blob in
  if k <> kind then
    corrupt
      (Printf.sprintf "artifact kind %s (want %s)" (kind_name k)
         (kind_name kind));
  payload

let blob_kind blob =
  match unseal_any blob with
  | k, _ -> Some k
  | exception Ssp_ir.Error.Error _ -> None

let blob_ok blob = blob_kind blob <> None

(* ---- iref / common sub-codecs ---- *)

let w_iref b (i : Iref.t) =
  Bin.w_str b i.Iref.fn;
  Bin.w_int b i.Iref.blk;
  Bin.w_int b i.Iref.ins

let r_iref r =
  let fn = Bin.r_str r in
  let blk = Bin.r_int r in
  let ins = Bin.r_int r in
  Iref.make fn blk ins

(* The one codec of a program identity: the wire protocol's requests and
   the feedback plane's reports both carry one. *)
let w_program b = function
  | Ssp_workloads.Suite.Workload name ->
    Bin.w_u8 b 0;
    Bin.w_str b name
  | Ssp_workloads.Suite.Source text ->
    Bin.w_u8 b 1;
    Bin.w_str b text

let r_program r =
  match Bin.r_u8 r with
  | 0 -> Ssp_workloads.Suite.Workload (Bin.r_str r)
  | 1 -> Ssp_workloads.Suite.Source (Bin.r_str r)
  | k -> corrupt (Printf.sprintf "unknown program-identity tag %d" k)

(* The one codec of a histogram summary, shared by the feedback plane's
   blobs and the stats snapshot: a layout other than this build's is
   rejected, since merging across layouts would be silently wrong. *)
let w_hist b (h : T.hist_summary) =
  Bin.w_int b h.T.hs_n;
  Bin.w_float b h.T.hs_sum;
  Bin.w_float b h.T.hs_min;
  Bin.w_float b h.T.hs_max;
  Bin.w_int b (Array.length h.T.hs_counts);
  Array.iter (Bin.w_int b) h.T.hs_counts

let r_hist r =
  let hs_n = Bin.r_int r in
  let hs_sum = Bin.r_float r in
  let hs_min = Bin.r_float r in
  let hs_max = Bin.r_float r in
  let n = Bin.r_int r in
  if n <> T.hist_bucket_count then
    corrupt
      (Printf.sprintf "histogram layout %d buckets (want %d)" n
         T.hist_bucket_count);
  let hs_counts = Array.init n (fun _ -> Bin.r_int r) in
  { T.hs_n; hs_sum; hs_min; hs_max; hs_counts }

let w_list b xs emit =
  Bin.w_int b (List.length xs);
  List.iter (emit b) xs

let remaining (r : Bin.reader) = String.length r.Bin.data - r.Bin.pos

let r_list r read =
  let n = Bin.r_int r in
  (* Every element consumes at least one byte, so a count beyond the
     remaining payload can only be corruption — reject it before
     allocating anything proportional to it. *)
  if n < 0 || n > remaining r then corrupt "implausible list length";
  List.init n (fun _ -> read r)

(* ---- profile ---- *)

let sorted_tbl tbl fold cmp =
  fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort (fun (a, _) (b, _) -> cmp a b)

let profile_payload (p : Profile.t) =
  let b = Bin.writer () in
  let blocks =
    sorted_tbl p.Profile.blocks
      (fun f tbl acc -> Hashtbl.fold f tbl acc)
      String.compare
  in
  w_list b blocks (fun b (fn, arr) ->
      Bin.w_str b fn;
      Bin.w_int b (Array.length arr);
      Array.iter (Bin.w_int b) arr);
  let branches =
    sorted_tbl p.Profile.branches
      (fun f tbl acc -> Iref.Tbl.fold f tbl acc)
      Iref.compare
  in
  w_list b branches (fun b (i, (s : Profile.branch_stats)) ->
      w_iref b i;
      Bin.w_int b s.Profile.taken;
      Bin.w_int b s.Profile.not_taken);
  let loads =
    sorted_tbl p.Profile.loads
      (fun f tbl acc -> Iref.Tbl.fold f tbl acc)
      Iref.compare
  in
  w_list b loads (fun b (i, (s : Profile.load_stats)) ->
      w_iref b i;
      Bin.w_int b s.Profile.accesses;
      Bin.w_int b s.Profile.l1_hits;
      Bin.w_int b s.Profile.l2_hits;
      Bin.w_int b s.Profile.l3_hits;
      Bin.w_int b s.Profile.mem_hits;
      Bin.w_int b s.Profile.partial_hits;
      Bin.w_int b s.Profile.miss_cycles);
  Bin.w_int b p.Profile.total_instrs;
  Bin.contents b

let encode_profile p = seal ~kind:2 (profile_payload p)

let profile_of_payload payload =
  let r = Bin.reader payload in
  let p = Profile.create () in
  List.iter
    (fun (fn, arr) -> Hashtbl.replace p.Profile.blocks fn arr)
    (r_list r (fun r ->
         let fn = Bin.r_str r in
         let n = Bin.r_int r in
         (* 8 bytes per counter; [Array.init] allocates up front, so
            bound the count by the payload actually present. *)
         if n < 0 || n > remaining r / 8 then corrupt "implausible block count";
         (fn, Array.init n (fun _ -> Bin.r_int r))));
  List.iter
    (fun (i, s) -> Iref.Tbl.replace p.Profile.branches i s)
    (r_list r (fun r ->
         let i = r_iref r in
         let taken = Bin.r_int r in
         let not_taken = Bin.r_int r in
         (i, { Profile.taken; not_taken })));
  List.iter
    (fun (i, s) -> Iref.Tbl.replace p.Profile.loads i s)
    (r_list r (fun r ->
         let i = r_iref r in
         let accesses = Bin.r_int r in
         let l1_hits = Bin.r_int r in
         let l2_hits = Bin.r_int r in
         let l3_hits = Bin.r_int r in
         let mem_hits = Bin.r_int r in
         let partial_hits = Bin.r_int r in
         let miss_cycles = Bin.r_int r in
         ( i,
           {
             Profile.accesses;
             l1_hits;
             l2_hits;
             l3_hits;
             mem_hits;
             partial_hits;
             miss_cycles;
           } )));
  p.Profile.total_instrs <- Bin.r_int r;
  Bin.expect_end r;
  p

let decode_profile blob = profile_of_payload (unseal ~kind:2 blob)

(* ---- report (carried inside the adapted result) ---- *)

let report_payload_into b (t : Ssp.Report.t) =
  w_list b t.Ssp.Report.slices (fun b (s : Ssp.Report.slice_info) ->
      Bin.w_str b s.Ssp.Report.fn;
      Bin.w_str b s.Ssp.Report.region;
      Bin.w_str b s.Ssp.Report.model;
      Bin.w_int b s.Ssp.Report.size;
      Bin.w_int b s.Ssp.Report.live_ins;
      Bin.w_bool b s.Ssp.Report.interprocedural;
      Bin.w_int b s.Ssp.Report.targets;
      Bin.w_int b s.Ssp.Report.triggers;
      Bin.w_int b s.Ssp.Report.trips;
      Bin.w_int b s.Ssp.Report.slack1;
      Bin.w_float b s.Ssp.Report.available_ilp;
      Bin.w_str b s.Ssp.Report.spawn_condition);
  w_list b t.Ssp.Report.diagnostics (fun b (d : Ssp.Report.diag) ->
      Bin.w_str b d.Ssp.Report.load;
      Bin.w_str b d.Ssp.Report.stage;
      Bin.w_str b d.Ssp.Report.action;
      Bin.w_str b d.Ssp.Report.detail);
  Bin.w_int b t.Ssp.Report.n_delinquent;
  Bin.w_float b t.Ssp.Report.coverage

let report_of_reader r =
  let slices =
    r_list r (fun r ->
        let fn = Bin.r_str r in
        let region = Bin.r_str r in
        let model = Bin.r_str r in
        let size = Bin.r_int r in
        let live_ins = Bin.r_int r in
        let interprocedural = Bin.r_bool r in
        let targets = Bin.r_int r in
        let triggers = Bin.r_int r in
        let trips = Bin.r_int r in
        let slack1 = Bin.r_int r in
        let available_ilp = Bin.r_float r in
        let spawn_condition = Bin.r_str r in
        {
          Ssp.Report.fn;
          region;
          model;
          size;
          live_ins;
          interprocedural;
          targets;
          triggers;
          trips;
          slack1;
          available_ilp;
          spawn_condition;
        })
  in
  let diagnostics =
    r_list r (fun r ->
        let load = Bin.r_str r in
        let stage = Bin.r_str r in
        let action = Bin.r_str r in
        let detail = Bin.r_str r in
        { Ssp.Report.load; stage; action; detail })
  in
  let n_delinquent = Bin.r_int r in
  let coverage = Bin.r_float r in
  { Ssp.Report.slices; n_delinquent; coverage; diagnostics }

(* ---- adapted result ----

   The program travels as its assembly text: the repo's one canonical
   program serialization, stable under print -> parse -> print. Every
   adapted blob in a store decodes clean and re-encodes to its own
   bytes: [put_adapted] seals only results the post-pass built, and a
   replica write must pass [check_untrusted]. So a hit can serve the
   text as stored and parse it only when a caller needs the program. *)

type adapted = {
  prog : Ssp_ir.Prog.t;
  report : Ssp.Report.t;
  prefetch_map : Iref.t Iref.Map.t;
}

let encode_adapted_text ~text report prefetch_map =
  let b = Bin.writer () in
  Bin.w_str b text;
  report_payload_into b report;
  (* Map bindings are already sorted by key. *)
  w_list b (Iref.Map.bindings prefetch_map) (fun b (site, load) ->
      w_iref b site;
      w_iref b load);
  seal ~kind:kind_adapted (Bin.contents b)

let encode_adapted a =
  encode_adapted_text ~text:(Ssp_ir.Asm.to_string a.prog) a.report
    a.prefetch_map

(* The one reader of an adapted blob: the program's text as stored, the
   report and the prefetch map. *)
let read_adapted blob =
  let r = Bin.reader (unseal ~kind:kind_adapted blob) in
  let text = Bin.r_str r in
  let report = report_of_reader r in
  let prefetch_map =
    List.fold_left
      (fun acc (site, load) -> Iref.Map.add site load acc)
      Iref.Map.empty
      (r_list r (fun r ->
           let site = r_iref r in
           let load = r_iref r in
           (site, load)))
  in
  Bin.expect_end r;
  (text, report, prefetch_map)

(* The parser names every validation error, so a hostile text can make
   its message about as long as the text; the first few hundred bytes
   say what is wrong. *)
let parse_adapted text =
  match Ssp_ir.Asm.parse text with
  | p -> p
  | exception Ssp_ir.Asm.Error (msg, line) ->
    let msg =
      if String.length msg <= 400 then msg else String.sub msg 0 400 ^ " ..."
    in
    corrupt
      (Printf.sprintf "embedded adapted program rejected: %s (line %d)" msg
         line)

let decode_adapted blob =
  let text, report, prefetch_map = read_adapted blob in
  { prog = parse_adapted text; report; prefetch_map }

(* Bytes from outside the store: every kind must carry a clean envelope,
   since every read of the others decodes them in full. An adapted
   result must also decode clean and re-encode to the same bytes, since
   a hit serves its text unparsed. Its caller answers on the daemon's
   select loop, so the size cap bounds the time one write holds it, and
   whatever the decode raises on hostile bytes leaves as the structured
   error. *)
let max_untrusted_bytes = 256 * 1024

let check_untrusted blob =
  if String.length blob > max_untrusted_bytes then
    corrupt
      (Printf.sprintf "blob of %d bytes is over the %d-byte replica limit"
         (String.length blob) max_untrusted_bytes);
  let k, _ = unseal_any blob in
  if k = kind_adapted then
    match encode_adapted (decode_adapted blob) with
    | re ->
      if not (String.equal re blob) then
        corrupt "adapted blob does not re-encode to its own bytes"
    | exception (Ssp_ir.Error.Error _ as e) -> raise e
    | exception e ->
      corrupt ("adapted blob does not decode: " ^ Printexc.to_string e)

(* ---- content hashes and cache keys ---- *)

let hash_program p = Digest.to_hex (Digest.string (Ssp_ir.Asm.to_string p))
let hash_profile p = Digest.to_hex (Digest.string (profile_payload p))
let cache_key parts = Digest.to_hex (Digest.string (String.concat "\x00" parts))

(* ---- on-disk cache ---- *)

(* Cache-lookup wall clock accumulated per domain: the serving layer
   attributes a request's store time to its trace hop by draining this
   after running the request on a pool worker, with no timing plumbed
   through the pipeline's return types. *)
let lookup_ms_key = Domain.DLS.new_key (fun () -> ref 0.)

let add_lookup_ms ms =
  let r = Domain.DLS.get lookup_ms_key in
  r := !r +. ms

let take_lookup_ms () =
  let r = Domain.DLS.get lookup_ms_key in
  let v = !r in
  r := 0.;
  v

(* Crash-injection sites simulating kill -9 at each step of [Cache.put]:
   the writer stops dead (tmp just created / half written / fully
   written but unrenamed) and the orphan stays behind, exactly as a
   killed process would leave it. The crash-recovery tests assert the
   published invariant: an unrenamed tmp is invisible to [find], the
   sweep reclaims it, and no reader ever sees partial bytes. *)
let crash_tmp_open = F.site "store.put.crash_tmp_open"
let crash_partial_write = F.site "store.put.crash_partial_write"
let crash_pre_rename = F.site "store.put.crash_pre_rename"

module Cache = struct
  (* [bytes] and [count] are the entries' total size and number as this
     handle keeps them: [open_dir] counts them with one scan, and [put],
     [remove], [fsck] and eviction adjust them under [mu], so neither a
     put nor a count costs more at a larger store. [put] runs on pool
     domains when the server fans a batch out, hence the lock and the
     atomic [evictions]. *)
  type t = {
    dir : string;
    max_bytes : int;
    evictions : int Atomic.t;
    mu : Mutex.t;
    mutable bytes : int;
    mutable count : int;
  }

  let default_dir () =
    match Sys.getenv_opt "SSPC_CACHE_DIR" with
    | Some d when d <> "" -> d
    | _ -> (
      match Sys.getenv_opt "XDG_CACHE_HOME" with
      | Some d when d <> "" -> Filename.concat d "sspc"
      | _ ->
        let home = Option.value ~default:"." (Sys.getenv_opt "HOME") in
        Filename.concat (Filename.concat home ".cache") "sspc")

  let rec mkdir_p dir =
    if not (Sys.file_exists dir) then begin
      mkdir_p (Filename.dirname dir);
      try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end

  let tmp_prefix = ".tmp."

  let is_tmp name =
    String.length name >= String.length tmp_prefix
    && String.equal (String.sub name 0 (String.length tmp_prefix)) tmp_prefix

  let default_sweep_grace_s = 600.

  (* Reclaim orphaned [.tmp.*] files left by crashed writers. The grace
     period protects in-flight writes from other processes: a live
     writer's tmp file is younger than any reasonable grace, a crashed
     one only gets older. *)
  let sweep ?(grace_s = default_sweep_grace_s) t =
    match Sys.readdir t.dir with
    | exception Sys_error _ -> 0
    | names ->
      let now = Unix.gettimeofday () in
      Array.fold_left
        (fun acc name ->
          if is_tmp name then begin
            let p = Filename.concat t.dir name in
            match Unix.stat p with
            | st
              when st.Unix.st_kind = Unix.S_REG
                   && now -. st.Unix.st_mtime >= grace_s -> (
              match Sys.remove p with
              | () ->
                T.count "store.sweep" 1;
                acc + 1
              | exception Sys_error _ -> acc)
            | _ -> acc
            | exception Unix.Unix_error _ -> acc
          end
          else acc)
        0 names

  let entries t =
    match Sys.readdir t.dir with
    | exception Sys_error _ -> []
    | names ->
      Array.to_list names
      |> List.filter_map (fun name ->
             if Filename.check_suffix name ".blob" then
               let p = Filename.concat t.dir name in
               match Unix.stat p with
               | st when st.Unix.st_kind = Unix.S_REG ->
                 Some (p, st.Unix.st_size, st.Unix.st_mtime)
               | _ | (exception Unix.Unix_error _) -> None
             else None)

  let total es = List.fold_left (fun acc (_, sz, _) -> acc + sz) 0 es

  let open_dir ?(max_bytes = 256 * 1024 * 1024)
      ?(sweep_grace_s = default_sweep_grace_s) dir =
    mkdir_p dir;
    let t =
      { dir; max_bytes = max 0 max_bytes; evictions = Atomic.make 0;
        mu = Mutex.create (); bytes = 0; count = 0 }
    in
    ignore (sweep ~grace_s:sweep_grace_s t);
    let es = entries t in
    t.bytes <- total es;
    t.count <- List.length es;
    t

  let dir t = t.dir
  let evictions t = Atomic.get t.evictions
  let path t key = Filename.concat t.dir (key ^ ".blob")
  let size_bytes t = Mutex.protect t.mu (fun () -> t.bytes)
  let entry_count t = Mutex.protect t.mu (fun () -> t.count)

  (* Size of the entry at [p]; -1 when there is none. *)
  let size_of p =
    match Unix.stat p with
    | st when st.Unix.st_kind = Unix.S_REG -> st.Unix.st_size
    | _ | (exception Unix.Unix_error _) -> -1

  (* Every cached key, for offline scans (the feedback tuner walks the
     store for persisted reports). Order is unspecified. *)
  let keys t =
    List.map
      (fun (p, _, _) -> Filename.chop_suffix (Filename.basename p) ".blob")
      (entries t)

  let touch p =
    try Unix.utimes p 0.0 0.0 (* both zero: set atime/mtime to now *)
    with Unix.Unix_error _ -> ()

  let read t key f =
    match open_in_bin (path t key) with
    | exception Sys_error _ -> None
    | ic -> (
      (* The entry can shrink or vanish between the length query and the
         read (concurrent evict/replace from another process or domain);
         per the corrupt-entry-is-a-miss policy that is a miss, not an
         exception for the caller. *)
      match
        Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> f ic)
      with
      | blob -> blob
      | exception (End_of_file | Sys_error _ | Invalid_argument _) -> None)

  let find t key =
    read t key (fun ic -> Some (really_input_string ic (in_channel_length ic)))

  (* The kind is decided from the header alone; [unseal] vouches for the
     rest of the envelope. *)
  let find_kind t ~kind key =
    read t key (fun ic ->
        let h = really_input_string ic header_len in
        let version = (Char.code h.[4] lsl 8) lor Char.code h.[5] in
        if
          String.equal (String.sub h 0 4) magic
          && version = format_version
          && Char.code h.[6] = kind
        then
          Some (h ^ really_input_string ic (in_channel_length ic - header_len))
        else None)

  let remove t key =
    Mutex.protect t.mu (fun () ->
        let p = path t key in
        let sz = size_of p in
        if sz >= 0 then
          match Sys.remove p with
          | () ->
            t.bytes <- t.bytes - sz;
            t.count <- t.count - 1
          | exception Sys_error _ -> ())

  (* Oldest-mtime-first eviction until the directory fits the cap; the
     total and the count become what the scan found, less what it
     evicted. Callers hold [mu]. *)
  let evict t =
    let es = entries t in
    let kept = ref (total es) in
    let count = ref (List.length es) in
    if !kept > t.max_bytes then
      List.iter
        (fun (p, sz, _) ->
          if !kept > t.max_bytes then begin
            (try Sys.remove p with Sys_error _ -> ());
            kept := !kept - sz;
            decr count;
            Atomic.incr t.evictions;
            T.count "store.evict" 1
          end)
        (List.sort (fun (_, _, a) (_, _, b) -> compare a b) es);
    t.bytes <- !kept;
    t.count <- !count

  (* Distinguishes concurrent writers of the same key inside one
     process (pool domains missing together): pid alone is not unique. *)
  let tmp_seq = Atomic.make 0

  let put t key blob =
    let tput = if !T.enabled then Unix.gettimeofday () else 0. in
    let tmp =
      Filename.concat t.dir
        (Printf.sprintf "%s%d.%d.%s" tmp_prefix (Unix.getpid ())
           (Atomic.fetch_and_add tmp_seq 1) key)
    in
    (try
       let oc = open_out_bin tmp in
       if F.fire crash_tmp_open then close_out_noerr oc
       else begin
         let crashed =
           Fun.protect
             ~finally:(fun () -> close_out_noerr oc)
             (fun () ->
               if F.fire crash_partial_write then begin
                 output_string oc
                   (String.sub blob 0 (String.length blob / 2));
                 true
               end
               else begin
                 output_string oc blob;
                 F.fire crash_pre_rename
               end)
         in
         if not crashed then begin
           (* Only a total over the cap lists the directory. *)
           Mutex.protect t.mu (fun () ->
               let p = path t key in
               let replaced = size_of p in
               Unix.rename tmp p;
               if replaced < 0 then t.count <- t.count + 1;
               t.bytes <- t.bytes + String.length blob - Int.max 0 replaced;
               if t.bytes > t.max_bytes then evict t);
           T.count "store.put" 1
         end
       end
     with Sys_error _ | Unix.Unix_error _ ->
       (try Sys.remove tmp with Sys_error _ -> ()));
    if !T.enabled then
      T.record_hist "store.put_ms" ((Unix.gettimeofday () -. tput) *. 1000.)

  let get t key ~decode =
    let t0 = if !T.enabled then Unix.gettimeofday () else 0. in
    let r =
      match find t key with
      | None ->
        T.count "store.miss" 1;
        None
      | Some blob -> (
        match decode blob with
        | v ->
          (* Only a use refreshes the LRU order: a scan through [find]
             leaves every entry's age alone. *)
          touch (path t key);
          T.count "store.hit" 1;
          Some v
        | exception Ssp_ir.Error.Error _ ->
          T.count "store.corrupt" 1;
          remove t key;
          None)
    in
    if !T.enabled then begin
      let ms = (Unix.gettimeofday () -. t0) *. 1000. in
      T.record_hist "store.get_ms" ms;
      add_lookup_ms ms
    end;
    r

  type fsck_report = {
    scanned : int;
    valid : int;
    corrupt_removed : int;
    tmp_removed : int;
    valid_bytes : int;
  }

  (* Offline verify/GC: every [.blob] must be a whole, digest-clean
     envelope (of any artifact kind); anything else is deleted — the
     same corrupt-entry-is-a-miss policy [get] applies lazily, applied
     eagerly to the whole directory. Orphaned tmp files are swept with
     the caller's grace (default 0: fsck is explicit, nothing in flight
     deserves protection). *)
  let fsck ?(grace_s = 0.) t =
    let tmp_removed = sweep ~grace_s t in
    let scanned = ref 0 in
    let valid = ref 0 in
    let corrupt_removed = ref 0 in
    let valid_bytes = ref 0 in
    List.iter
      (fun (p, sz, _) ->
        incr scanned;
        let ok =
          match open_in_bin p with
          | exception Sys_error _ -> false
          | ic -> (
            match
              Fun.protect
                ~finally:(fun () -> close_in_noerr ic)
                (fun () -> really_input_string ic (in_channel_length ic))
            with
            | blob -> blob_ok blob
            | exception (End_of_file | Sys_error _) -> false)
        in
        if ok then begin
          incr valid;
          valid_bytes := !valid_bytes + sz
        end
        else begin
          (try Sys.remove p with Sys_error _ -> ());
          incr corrupt_removed;
          T.count "store.fsck.corrupt" 1
        end)
      (entries t);
    Mutex.protect t.mu (fun () ->
        t.bytes <- !valid_bytes;
        t.count <- !valid);
    {
      scanned = !scanned;
      valid = !valid;
      corrupt_removed = !corrupt_removed;
      tmp_removed;
      valid_bytes = !valid_bytes;
    }
end

(* ---- cache keys ---- *)

(* The key recipes take the program's and the profile's hashes and the
   config's fingerprint, so a request that computes each once names
   every artifact from them; the program forms below are the same keys
   for a caller holding only the program. *)
let profile_key_of_hash ~fingerprint prog_hash =
  cache_key [ "profile"; string_of_int format_version; prog_hash; fingerprint ]

let profile_key ~config prog =
  profile_key_of_hash
    ~fingerprint:(Ssp_machine.Config.fingerprint config)
    (hash_program prog)

let adapted_key_of_hashes ?tuning ~fingerprint prog_hash profile_hash =
  let parts =
    [
      "adapted";
      string_of_int format_version;
      prog_hash;
      profile_hash;
      fingerprint;
      Ssp.Adapt.knobs_string Ssp.Adapt.default_knobs;
    ]
  in
  (* Tuned artifacts live under their own version-stamped keys: version
     0 (untuned) keeps the historical key unchanged, and every published
     version keeps its key forever — the tuner only ever writes under a
     fresh version, never over an old one. *)
  let parts =
    match tuning with
    | Some (version, overrides) when version > 0 ->
      parts @ [ "tuned"; string_of_int version; overrides ]
    | _ -> parts
  in
  cache_key parts

let adapted_key ?tuning ~config prog profile =
  adapted_key_of_hashes ?tuning
    ~fingerprint:(Ssp_machine.Config.fingerprint config)
    (hash_program prog) (hash_profile profile)

(* ---- the typed read and the one writer of an adapted entry ---- *)

let get_adapted c key =
  T.with_span "store.lookup" (fun () -> Cache.get c key ~decode:read_adapted)

let put_adapted c key (r : Ssp.Adapt.result) =
  let text = Ssp_ir.Asm.to_string r.Ssp.Adapt.prog in
  Cache.put c key
    (encode_adapted_text ~text r.Ssp.Adapt.report r.Ssp.Adapt.prefetch_map);
  text
