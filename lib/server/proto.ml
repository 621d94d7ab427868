(* Wire protocol: 4-byte big-endian length framing, then a magic +
   version + tag + Bin-encoded body. Shares the binary primitives with
   the artifact store so the two layers cannot drift apart. *)

module Store = Ssp_store.Store
module Bin = Store.Bin

let proto_version = 6
let default_max_frame = 8 * 1024 * 1024
let req_magic = "SSPQ"
let resp_magic = "SSPR"
let default_tenant = "anon"

let malformed what = Ssp_ir.Error.raise_error ~pass:"proto" what

type program_ref = Ssp_workloads.Suite.program =
  | Workload of string
  | Source of string

(* Trace context rides in the envelope ahead of the request tag, so the
   request variants themselves (and every construction site) are
   untouched. An empty trace id on the wire means "untraced". *)
type trace_ctx = { trace_id : string; span_id : int }

(* Per-hop latency breakdown stamped into response envelopes by each
   process a traced request crosses. *)
type hop = { hop_node : string; hop_stage : string; hop_ms : float }

(* Request envelope fields riding after the trace context.

   [re_deadline_ms] is the client-minted end-to-end budget *remaining*
   at send time: 0. means no deadline, negative means already expired
   (senders may stamp an expired budget rather than suppress the
   request so the receiver can account the shed). Each hop re-stamps
   the remainder before forwarding, which is what replaces independent
   per-hop timeouts.

   [re_artifacts] is the router's replication ask: [artifacts_none]
   for plain clients, [artifacts_on_miss] when the primary should
   attach freshly-computed artifacts for write-through,
   [artifacts_always] when a failover target should attach them even
   on a hit so the router can read-repair the primary. *)
type req_env = {
  re_trace : trace_ctx option;
  re_deadline_ms : float;
  re_artifacts : int;
}

let artifacts_none = 0
let artifacts_on_miss = 1
let artifacts_always = 2

type request =
  | Adapt of {
      prog : program_ref;
      scale : int;
      pipeline : string;
      tenant : string;
    }
  | Sim of {
      prog : program_ref;
      scale : int;
      pipeline : string;
      ssp : bool;
      tenant : string;
    }
  | Stats
  | Shutdown
  | Put_blob of { key : string; blob : string }
  | Ping
  | Feedback of {
      prog : program_ref;
      scale : int;
      pipeline : string;
      tenant : string;
      blob : string; (* sealed attribution report (Ssp_feedback) *)
    }

let tenant_of = function
  | Adapt { tenant; _ } | Sim { tenant; _ } | Feedback { tenant; _ } -> tenant
  | Stats | Shutdown | Put_blob _ | Ping -> "-"

type error_info = { pass : string; what : string; injected : bool }

type response =
  | Adapted of { report : string; asm : string; cache : string }
  | Simmed of { stats : string }
  | Stats_reply of { snapshot : Snapshot.t }
  | Ok_reply
  | Busy_reply of { retry_after_s : float }
  | Deadline_exceeded of { stage : string; budget_ms : float; elapsed_ms : float }
  | Error_reply of error_info

(* ---- body codecs ---- *)

(* Envelopes, between the version byte and the body tag: trace fields,
   the deadline budget and the artifact ask (requests); a hop list and
   the replicated artifact list (responses). Every peer ships from this
   repository, so a decoder accepts exactly [proto_version]. *)

let encode magic envelope emit =
  let b = Bin.writer () in
  Bin.w_str b magic;
  Bin.w_u8 b proto_version;
  envelope b;
  emit b;
  Bin.contents b

let decode magic payload envelope k =
  let r = Bin.reader payload in
  let m = Bin.r_str r in
  if not (String.equal m magic) then malformed "bad payload magic";
  let v = Bin.r_u8 r in
  if v <> proto_version then
    malformed (Printf.sprintf "protocol version %d (want %d)" v proto_version);
  let env = envelope r in
  let x = k r in
  Bin.expect_end r;
  (x, env)

let w_trace b = function
  | None ->
    Bin.w_str b "";
    Bin.w_int b 0
  | Some { trace_id; span_id } ->
    Bin.w_str b trace_id;
    Bin.w_int b span_id

let r_trace r =
  let trace_id = Bin.r_str r in
  let span_id = Bin.r_int r in
  if String.equal trace_id "" then None else Some { trace_id; span_id }

let w_hops b hops =
  Bin.w_int b (List.length hops);
  List.iter
    (fun { hop_node; hop_stage; hop_ms } ->
      Bin.w_str b hop_node;
      Bin.w_str b hop_stage;
      Bin.w_float b hop_ms)
    hops

let r_hops r =
  let n = Bin.r_int r in
  if n < 0 || n > 4096 then
    malformed (Printf.sprintf "implausible hop count %d" n);
  List.init n (fun _ ->
      let hop_node = Bin.r_str r in
      let hop_stage = Bin.r_str r in
      let hop_ms = Bin.r_float r in
      { hop_node; hop_stage; hop_ms })

let w_artifacts b artifacts =
  Bin.w_int b (List.length artifacts);
  List.iter
    (fun (key, blob) ->
      Bin.w_str b key;
      Bin.w_str b blob)
    artifacts

let r_artifacts r =
  let n = Bin.r_int r in
  if n < 0 || n > 64 then
    malformed (Printf.sprintf "implausible artifact count %d" n);
  List.init n (fun _ ->
      let key = Bin.r_str r in
      let blob = Bin.r_str r in
      (key, blob))

let encode_request ?trace ?(deadline_ms = 0.) ?(artifacts = artifacts_none) req
    =
  encode req_magic
    (fun b ->
      w_trace b trace;
      Bin.w_float b deadline_ms;
      Bin.w_u8 b artifacts)
    (fun b ->
      match req with
      | Adapt { prog; scale; pipeline; tenant } ->
        Bin.w_u8 b 1;
        Store.w_program b prog;
        Bin.w_int b scale;
        Bin.w_str b pipeline;
        Bin.w_str b tenant
      | Sim { prog; scale; pipeline; ssp; tenant } ->
        Bin.w_u8 b 2;
        Store.w_program b prog;
        Bin.w_int b scale;
        Bin.w_str b pipeline;
        Bin.w_bool b ssp;
        Bin.w_str b tenant
      | Stats -> Bin.w_u8 b 3
      | Shutdown -> Bin.w_u8 b 4
      | Put_blob { key; blob } ->
        Bin.w_u8 b 6;
        Bin.w_str b key;
        Bin.w_str b blob
      | Ping -> Bin.w_u8 b 7
      | Feedback { prog; scale; pipeline; tenant; blob } ->
        (* The workload identity rides beside the blob so the router can
           place the report on the key's primary shard with the same
           affinity hash Adapt/Sim use. *)
        Bin.w_u8 b 8;
        Store.w_program b prog;
        Bin.w_int b scale;
        Bin.w_str b pipeline;
        Bin.w_str b tenant;
        Bin.w_str b blob)

let r_req_env r =
  let re_trace = r_trace r in
  let re_deadline_ms = Bin.r_float r in
  let re_artifacts = Bin.r_u8 r in
  if re_artifacts > artifacts_always then
    malformed (Printf.sprintf "unknown artifact ask %d" re_artifacts);
  { re_trace; re_deadline_ms; re_artifacts }

let decode_request_env payload =
  decode req_magic payload r_req_env (fun r ->
      match Bin.r_u8 r with
      | 1 ->
        let prog = Store.r_program r in
        let scale = Bin.r_int r in
        let pipeline = Bin.r_str r in
        let tenant = Bin.r_str r in
        Adapt { prog; scale; pipeline; tenant }
      | 2 ->
        let prog = Store.r_program r in
        let scale = Bin.r_int r in
        let pipeline = Bin.r_str r in
        let ssp = Bin.r_bool r in
        let tenant = Bin.r_str r in
        Sim { prog; scale; pipeline; ssp; tenant }
      | 3 -> Stats
      | 4 -> Shutdown
      | 6 ->
        let key = Bin.r_str r in
        let blob = Bin.r_str r in
        Put_blob { key; blob }
      | 7 -> Ping
      | 8 ->
        let prog = Store.r_program r in
        let scale = Bin.r_int r in
        let pipeline = Bin.r_str r in
        let tenant = Bin.r_str r in
        let blob = Bin.r_str r in
        Feedback { prog; scale; pipeline; tenant; blob }
      | t -> malformed (Printf.sprintf "unknown request tag %d" t))

let decode_request payload = fst (decode_request_env payload)

let encode_response ?(hops = []) ?(artifacts = []) resp =
  encode resp_magic
    (fun b ->
      w_hops b hops;
      w_artifacts b artifacts)
    (fun b ->
      match resp with
      | Adapted { report; asm; cache } ->
        Bin.w_u8 b 1;
        Bin.w_str b report;
        Bin.w_str b asm;
        Bin.w_str b cache
      | Simmed { stats } ->
        Bin.w_u8 b 2;
        Bin.w_str b stats
      | Stats_reply { snapshot } ->
        Bin.w_u8 b 3;
        Bin.w_str b (Snapshot.encode snapshot)
      | Ok_reply -> Bin.w_u8 b 4
      | Busy_reply { retry_after_s } ->
        Bin.w_u8 b 5;
        Bin.w_float b retry_after_s
      | Deadline_exceeded { stage; budget_ms; elapsed_ms } ->
        Bin.w_u8 b 7;
        Bin.w_str b stage;
        Bin.w_float b budget_ms;
        Bin.w_float b elapsed_ms
      | Error_reply { pass; what; injected } ->
        Bin.w_u8 b 255;
        Bin.w_str b pass;
        Bin.w_str b what;
        Bin.w_bool b injected)

let decode_response_env payload =
  let resp, (hops, artifacts) =
    decode resp_magic payload
      (fun r ->
        let hops = r_hops r in
        let artifacts = r_artifacts r in
        (hops, artifacts))
      (fun r ->
          match Bin.r_u8 r with
      | 1 ->
        let report = Bin.r_str r in
        let asm = Bin.r_str r in
        let cache = Bin.r_str r in
        Adapted { report; asm; cache }
      | 2 -> Simmed { stats = Bin.r_str r }
      | 3 -> Stats_reply { snapshot = Snapshot.decode (Bin.r_str r) }
      | 4 -> Ok_reply
      | 5 -> Busy_reply { retry_after_s = Bin.r_float r }
      | 7 ->
        let stage = Bin.r_str r in
        let budget_ms = Bin.r_float r in
        let elapsed_ms = Bin.r_float r in
        Deadline_exceeded { stage; budget_ms; elapsed_ms }
      | 255 ->
        let pass = Bin.r_str r in
        let what = Bin.r_str r in
        let injected = Bin.r_bool r in
        Error_reply { pass; what; injected }
      | t -> malformed (Printf.sprintf "unknown response tag %d" t))
  in
  (resp, hops, artifacts)

let decode_response payload =
  let resp, _, _ = decode_response_env payload in
  resp

(* ---- framing ---- *)

let frame payload =
  let n = String.length payload in
  let b = Buffer.create (n + 4) in
  Buffer.add_int32_be b (Int32.of_int n);
  Buffer.add_string b payload;
  Buffer.contents b

(* A signal interrupts a blocking call on a socket with SO_RCVTIMEO or
   SO_SNDTIMEO set, as [Client] sets them, even under SA_RESTART. It
   says nothing about the exchange, so the call is made again. A write
   is one system call at a time, so an interrupted one wrote nothing. *)
let rec restarting f =
  match f () with
  | v -> v
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> restarting f

let write_all fd s =
  let n = String.length s in
  let off = ref 0 in
  while !off < n do
    let w =
      restarting (fun () -> Unix.single_write_substring fd s !off (n - !off))
    in
    if w = 0 then malformed "short write";
    off := !off + w
  done

let write_frame fd payload = write_all fd (frame payload)

let read_exact fd n ~eof_ok =
  let b = Bytes.create n in
  let off = ref 0 in
  let eof = ref false in
  while !off < n && not !eof do
    match restarting (fun () -> Unix.read fd b !off (n - !off)) with
    | 0 -> eof := true
    | k -> off := !off + k
  done;
  if !eof then
    if !off = 0 && eof_ok then None else malformed "truncated frame"
  else Some (Bytes.to_string b)

let read_frame fd =
  match read_exact fd 4 ~eof_ok:true with
  | None -> None
  | Some hdr ->
    let n = Int32.to_int (String.get_int32_be hdr 0) in
    if n < 0 || n > default_max_frame then
      malformed
        (Printf.sprintf "frame of %d bytes exceeds limit %d" n default_max_frame);
    if n = 0 then Some ""
    else (
      match read_exact fd n ~eof_ok:false with
      | Some payload -> Some payload
      | None -> malformed "truncated frame")
