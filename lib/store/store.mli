(** Content-addressed artifact store.

    Versioned, integrity-checked binary serialization for the artifacts
    the cache holds — profiles ({!Ssp_profiling.Profile.t}, kind 2),
    adaptation results (adapted program + {!Ssp.Report.t} + prefetch map,
    kind 4) and the feedback plane's reports and tuning state (kinds 5
    and 6, codecs in [Ssp_feedback]) — plus an on-disk content-addressed
    cache keyed by [hash(program) x hash(profile) x canonicalized adapt
    configuration]. The store keeps and reads bytes; it never runs the
    pipeline. Looking an artifact up and computing it on a miss is
    [Ssp_feedback.Feedback.adapt]'s.

    Every blob is an envelope: 4-byte magic, format version, artifact
    kind, payload length, payload, and an MD5 content hash over
    everything before it. Decoding verifies all of them and raises a
    structured {!Ssp_ir.Error.Error} (pass ["store"]) on any mismatch, so
    a truncated or bit-flipped blob is always rejected, never
    misinterpreted. Encoding is canonical (hash-table contents are
    emitted in sorted order), so serialize -> deserialize -> serialize is
    byte-identical — the property the cache keys rely on.

    The cache publishes atomically (write to a dot-temporary in the same
    directory, then rename; no fsync), caps its total size LRU-by-mtime
    from a byte total it keeps, and treats a corrupt entry as a miss:
    the entry is deleted, the [store.corrupt] telemetry counter is
    bumped, and the caller recomputes.

    {b What a stored adapted blob is.} Every adapted blob a store holds
    decodes clean (its program parses and passes
    {!Ssp_ir.Validate.check}) and re-encodes to its own bytes. The one
    writer of the store's own adapted entries is {!put_adapted}, which
    takes an {!Ssp.Adapt.result}: a program the post-pass built and
    validated. Bytes from anywhere else (a replica write) are stored
    only after {!check_untrusted}. A hit ({!get_adapted}) therefore
    checks only the envelope's MD5, which catches a torn or bit-flipped
    file, and serves the stored text without parsing it. The digest
    does not protect against a process that writes the directory around
    these entry points. *)

val format_version : int
(** Bumped whenever any payload encoding changes; part of every envelope
    and of every cache key, so stale-format entries simply miss. Format
    2: the feedback aggregate holds only the published tuning state, and
    reports tag their program identity as the wire protocol does. Format
    3: the payloads are format 2's, but an adapted blob is served
    without parsing its program, so an entry admitted under format 2's
    envelope-only replica check is never read. *)

(** Low-level binary reader/writer used by every codec (and by the wire
    protocol of {!Ssp_server}). Integers are 8-byte big-endian, strings
    length-prefixed, floats bit-exact via their IEEE-754 image. Readers
    raise [Ssp_ir.Error.Error] (pass ["store"]) on underflow. *)
module Bin : sig
  type writer

  val writer : unit -> writer
  val contents : writer -> string
  val w_u8 : writer -> int -> unit
  val w_int : writer -> int -> unit
  val w_bool : writer -> bool -> unit
  val w_float : writer -> float -> unit
  val w_str : writer -> string -> unit

  type reader

  val reader : string -> reader
  val r_u8 : reader -> int
  val r_int : reader -> int
  val r_bool : reader -> bool
  val r_float : reader -> float
  val r_str : reader -> string
  val at_end : reader -> bool
  val expect_end : reader -> unit
  (** Raises if trailing bytes remain (catches mis-framed payloads). *)
end

(** {1 Shared sub-codecs} *)

val w_iref : Bin.writer -> Ssp_ir.Iref.t -> unit
val r_iref : Bin.reader -> Ssp_ir.Iref.t

val w_program : Bin.writer -> Ssp_workloads.Suite.program -> unit
(** A program identity: tag 0 and the workload name, or tag 1 and the
    mini-C source text. The wire protocol's requests and the feedback
    plane's reports share this one codec. *)

val r_program : Bin.reader -> Ssp_workloads.Suite.program
(** Raises [Ssp_ir.Error.Error] (pass ["store"]) on an unknown tag. *)

val w_hist : Bin.writer -> Ssp_telemetry.Telemetry.hist_summary -> unit

val r_hist : Bin.reader -> Ssp_telemetry.Telemetry.hist_summary
(** Raises [Ssp_ir.Error.Error] (pass ["store"]) on a histogram whose
    bucket count differs from this build's
    ({!Ssp_telemetry.Telemetry.hist_bucket_count}). *)

val w_list : Bin.writer -> 'a list -> (Bin.writer -> 'a -> unit) -> unit

val r_list : Bin.reader -> (Bin.reader -> 'a) -> 'a list
(** A count, then the elements. Raises [Ssp_ir.Error.Error] (pass
    ["store"]) on a count larger than the bytes left. *)

(** {1 Artifact codecs} *)

val encode_profile : Ssp_profiling.Profile.t -> string
val decode_profile : string -> Ssp_profiling.Profile.t

type adapted = {
  prog : Ssp_ir.Prog.t;  (** the adapted binary *)
  report : Ssp.Report.t;
  prefetch_map : Ssp_ir.Iref.t Ssp_ir.Iref.Map.t;
}
(** The cacheable part of an {!Ssp.Adapt.result}: everything a served
    [adapt] or [sim] needs. (Selection-stage [choices] are not
    serialized; a cache hit carries an empty choice list.) *)

val encode_adapted : adapted -> string
(** Prints the program with {!Ssp_ir.Asm.to_string}. *)

val decode_adapted : string -> adapted
(** The reader {!get_adapted} uses, plus {!parse_adapted}. Raises the
    structured [store] error on a blob that fails either. *)

val parse_adapted : string -> Ssp_ir.Prog.t
(** Parse (and so validate) an adapted program's stored text; raises the
    structured [store] error on text that fails. *)

val max_untrusted_bytes : int
(** The largest blob {!check_untrusted} admits: 256 KiB, about 35 times
    the largest adapted program of the suite and the generated corpus
    (vpr's 7.5 KB blob). The check costs time linear in the blob on the
    daemon's select loop, so this cap is what bounds one replica write;
    a daemon hands no larger blob out for replication. *)

val check_untrusted : string -> unit
(** The check on bytes that enter a store from outside (the daemon's
    replica write). Every blob must be at most {!max_untrusted_bytes}
    and pass its envelope check; the other kinds are decoded in full on
    every read. An adapted blob must also {!decode_adapted} clean and
    re-encode to exactly its own bytes, because a hit serves its text
    unparsed. Raises the structured [store] error otherwise, and no
    other exception. Nothing ties the blob to the key it is stored
    under. *)

(** {1 Content hashes and cache keys} *)

val hash_program : Ssp_ir.Prog.t -> string
(** Hex MD5 of the program's assembly text ({!Ssp_ir.Asm.to_string}):
    it prints the whole program, so a request computes it once. *)

val hash_profile : Ssp_profiling.Profile.t -> string

val cache_key : string list -> string
(** Hex digest of the joined key parts (order-sensitive). *)

val profile_key_of_hash : fingerprint:string -> string -> string
(** The key a profile is stored under, from the config's
    {!Ssp_machine.Config.fingerprint} and the program's {!hash_program}:
    [hash(program) x fingerprint(config)] plus the format version. *)

val profile_key : config:Ssp_machine.Config.t -> Ssp_ir.Prog.t -> string
(** {!profile_key_of_hash} of the config's fingerprint and the program's
    hash. *)

val adapted_key_of_hashes :
  ?tuning:int * string -> fingerprint:string -> string -> string -> string
(** The key an adaptation result is stored under, from the config's
    fingerprint and the program's and the profile's hashes. Its knobs
    component is always {!Ssp.Adapt.default_knobs}. [tuning] is
    [(version, Adapt.overrides_string overrides)] for a feedback-tuned
    artifact: version 0 is the untuned key (unchanged from before tuning
    existed), and each published version keys its own immutable entry —
    the tuner never overwrites an old version. *)

val adapted_key :
  ?tuning:int * string ->
  config:Ssp_machine.Config.t ->
  Ssp_ir.Prog.t ->
  Ssp_profiling.Profile.t ->
  string
(** {!adapted_key_of_hashes} of the config's fingerprint and the
    program's and the profile's hashes. *)

val blob_kind : string -> int option
(** Artifact kind of a sealed blob after verifying the whole envelope
    (magic, format version, payload length, content hash) — [None] if
    any check fails. Kind-agnostic: accepts every artifact kind. *)

val blob_ok : string -> bool
(** [blob_kind blob <> None]: whole-envelope integrity, what {!Cache.fsck}
    checks of every entry. *)

val kind_name : int -> string
(** Human name of an artifact kind (["unknown"] for unassigned codes). *)

val kind_adapted : int
(** Envelope kind of an adaptation result. *)

val kind_feedback_report : int
(** Envelope kind of a feedback attribution report ([Ssp_feedback]). *)

val kind_feedback_aggregate : int
(** Envelope kind of a per-workload feedback aggregate. *)

val seal : kind:int -> string -> string
(** Seal a payload in the standard envelope; the feedback plane seals
    its reports and aggregates, whose codecs live outside this module,
    with it too. *)

val unseal : kind:int -> string -> string
(** Verify the whole envelope and the expected kind, and return the
    payload; raises the usual structured [store] error otherwise. *)

(** {1 On-disk content-addressed cache} *)

val take_lookup_ms : unit -> float
(** Drain the calling domain's accumulated {!Cache.get} wall-clock
    (milliseconds; only accumulates while telemetry is enabled). The
    serving layer uses this to attribute a traced request's cache-lookup
    time to its per-hop latency breakdown. *)

module Cache : sig
  type t

  val default_dir : unit -> string
  (** [$SSPC_CACHE_DIR], else [$XDG_CACHE_HOME/sspc], else
      [~/.cache/sspc]. *)

  val open_dir : ?max_bytes:int -> ?sweep_grace_s:float -> string -> t
  (** Creates the directory (and parents) if missing, runs {!sweep} with
      [sweep_grace_s] (default 600 s), so orphans left by crashed
      writers stop leaking into the byte budget at the next startup, and
      sums the entries' sizes: the byte total {!size_bytes} keeps.

      [max_bytes] (default 256 MiB) is a soft cap on that total. Only a
      {!put} that takes the total over it lists the directory: it evicts
      least-recently-used entries (by mtime; {!get} hits touch) until the
      directory fits, and the total becomes what that scan found less
      what it evicted. Another process writing the same directory keeps
      its own total, so its writes count here only at this handle's next
      scan: the directory can exceed the cap by what other writers added
      since, and their removals make this handle scan early. *)

  val dir : t -> string

  val sweep : ?grace_s:float -> t -> int
  (** Delete orphaned [.tmp.*] files older than [grace_s] (default
      600 s) and return how many were removed. The grace period keeps
      the sweep from racing a live writer in another process: an
      in-flight tmp file is always younger than the grace, a crashed
      writer's only ever gets older. Counted under [store.sweep]. *)

  val find : t -> string -> string option
  (** Raw blob by key: a plain read that leaves the entry's mtime, and
      so its LRU age, alone — what a scan over {!keys} wants. No
      integrity check — use {!get}. *)

  val find_kind : t -> kind:int -> string -> string option
  (** {!find}, for an entry whose envelope header (magic, format version,
      artifact kind) names this kind; any other entry is [None] after a
      15-byte read. No integrity check beyond the header — decode the
      blob. What a scan for one kind of entry wants. *)

  val put : t -> string -> string -> unit
  (** Stages the blob in a dot-temporary and renames it over the key's
      entry: a killed writer leaves the old entry or the new one (plus a
      tmp {!sweep} reclaims), never a partial one. No fsync: an entry a
      power loss tears fails its seal and is a miss. Adds the blob's size
      to the byte total, less the size of the entry it replaced, and one
      to the entry count when it replaced none; below
      the cap it reads no other entry (see {!open_dir}). I/O errors are
      swallowed (the cache is best-effort; computation never fails
      because the cache is unwritable). *)

  val remove : t -> string -> unit
  (** Deletes the entry and subtracts its size from the byte total and one
      from the entry count; a key with no entry changes neither. *)

  val get : t -> string -> decode:(string -> 'a) -> 'a option
  (** {!find} + decode. A decoded hit touches the entry's mtime, so
      eviction sees it as just used. A blob the decoder rejects is
      deleted and counted under the [store.corrupt] telemetry counter,
      and the call returns [None] — corruption is indistinguishable from
      a miss. Bumps [store.hit] / [store.miss] accordingly. *)

  val size_bytes : t -> int
  (** The byte total this handle keeps: the entries' sizes at its last
      directory scan ({!open_dir}, an eviction, {!fsck}) plus its own
      puts and removals since. Exact while it is the only writer. *)

  val entry_count : t -> int
  (** The entry count this handle keeps beside the byte total, and as
      soft against other writers: the entries at its last directory scan
      ({!open_dir}, an eviction, {!fsck}) plus its own puts of absent
      keys, less its own removals since. Lists nothing. *)

  val keys : t -> string list
  (** Every cached key (unspecified order) — offline scans, e.g. the
      feedback tuner walking a store for persisted reports. *)

  val evictions : t -> int
  (** Entries this handle has evicted under cache pressure since
      [open_dir] — the in-process view of the [store.evict] telemetry
      counter, visible in 'sspc stats' / 'sspc client stats' next to
      [store.corrupt] so cache pressure is observable even when a run
      did not ask for a trace. *)

  type fsck_report = {
    scanned : int;  (** [.blob] entries examined *)
    valid : int;  (** entries whose envelope verified clean *)
    corrupt_removed : int;  (** truncated/bit-flipped entries deleted *)
    tmp_removed : int;  (** orphaned [.tmp.*] files deleted *)
    valid_bytes : int;  (** total size of the surviving entries *)
  }

  val fsck : ?grace_s:float -> t -> fsck_report
  (** Offline verify/GC (the engine behind [sspc fsck]): checks every
      entry's sealed envelope — magic, format version, payload length,
      content hash — deletes anything that fails (eagerly applying the
      corrupt-entry-is-a-miss policy {!get} applies lazily), and sweeps
      orphaned tmp files with [grace_s] (default 0: fsck is explicit).
      A store that a writer was kill -9'd into is clean after one fsck:
      unrenamed tmp files go away and no partial entry survives,
      because publication is atomic-rename. Corrupt deletions are
      counted under [store.fsck.corrupt]. The byte total becomes
      [valid_bytes]. *)
end

(** {1 Adapted entries} *)

val get_adapted :
  Cache.t ->
  string ->
  (string * Ssp.Report.t * Ssp_ir.Iref.t Ssp_ir.Iref.Map.t) option
(** {!Cache.get} of an adapted entry, as the span [store.lookup]: the
    program's text as stored, the report and the prefetch map, checked
    by the envelope's MD5 and not parsed (see the invariant above). *)

val put_adapted : Cache.t -> string -> Ssp.Adapt.result -> string
(** The one writer of the store's own adapted entries: seal the result
    and {!Cache.put} it under the key. Returns the program's text, the
    one print that went into the blob. *)
