(* Spans the benchmark records around each public call it makes.

   Every call is timed and its duration added to a per-name total whether
   or not tracing is on: two clock reads against calls that take a
   millisecond or more. With [tracing] on, each call also becomes a span
   record (name, start, duration, parent span, and the id of the program
   or request it belongs to), kept in memory and written out once, at
   exit, as a Chrome trace through the telemetry exporter. Only the
   benchmark's own thread records spans. *)

type span = {
  id : int;
  parent : int;  (** 0 for a root *)
  op : int;  (** the program or request the span belongs to *)
  name : string;
  t0 : float;  (** wall-clock seconds *)
  dur : float;  (** seconds *)
}

let tracing = ref false
let recorded : span list ref = ref []
let stack : int list ref = ref []
let next_id = ref 0
let op_id = ref 0

type total = { mutable secs : float; mutable calls : int }

let totals : (string, total) Hashtbl.t = Hashtbl.create 32

let reset () =
  Hashtbl.reset totals;
  recorded := [];
  stack := []

let add_total name dur =
  match Hashtbl.find_opt totals name with
  | Some t ->
    t.secs <- t.secs +. dur;
    t.calls <- t.calls + 1
  | None -> Hashtbl.replace totals name { secs = dur; calls = 1 }

let total_s name =
  match Hashtbl.find_opt totals name with Some t -> t.secs | None -> 0.

(* Mean duration per call in milliseconds; 0 when never called. *)
let mean_ms name =
  match Hashtbl.find_opt totals name with
  | Some t when t.calls > 0 -> t.secs *. 1000. /. float_of_int t.calls
  | _ -> 0.

let record ~id ~parent ~name ~t0 ~dur =
  if !tracing then recorded := { id; parent; op = !op_id; name; t0; dur } :: !recorded

let fresh () =
  incr next_id;
  !next_id

let with_op op f =
  op_id := op;
  f ()

let current () = match !stack with p :: _ -> p | [] -> 0

(* [timed name f] runs [f], returning its result, its duration in
   seconds and its span id. *)
let timed name f =
  let id = fresh () in
  let parent = current () in
  stack := id :: !stack;
  let t0 = Unix.gettimeofday () in
  let finish () =
    let dur = Unix.gettimeofday () -. t0 in
    (stack := match !stack with _ :: rest -> rest | [] -> []);
    add_total name dur;
    record ~id ~parent ~name ~t0 ~dur;
    dur
  in
  match f () with
  | r -> (r, finish (), id)
  | exception e ->
    ignore (finish ());
    raise e

let span name f =
  let r, _, _ = timed name f in
  r

(* A span whose start and duration are known from elsewhere — the
   per-stage breakdown a server reply carries — placed under [parent]. *)
let child ~parent ~name ~t0 ~dur =
  let id = fresh () in
  add_total name dur;
  record ~id ~parent ~name ~t0 ~dur;
  id

(* Self time per span name, in seconds: each span's duration minus the
   durations of its direct children, summed over the recorded spans. The
   self times of a tree sum to its root's duration. *)
let self_times () =
  let children = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace children s.parent
          (s.dur +. Option.value ~default:0. (Hashtbl.find_opt children s.parent)))
    !recorded;
  let self = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let own =
        s.dur -. Option.value ~default:0. (Hashtbl.find_opt children s.id)
      in
      Hashtbl.replace self s.name
        (own +. Option.value ~default:0. (Hashtbl.find_opt self s.name)))
    !recorded;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) self []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let root_s () =
  List.fold_left
    (fun acc s -> if s.parent = 0 then acc +. s.dur else acc)
    0. !recorded

let write_chrome path =
  let module T = Ssp_telemetry.Telemetry in
  let spans = List.rev !recorded in
  let base = List.fold_left (fun m s -> Float.min m s.t0) infinity spans in
  let events =
    List.map
      (fun s ->
        T.complete_event ~cat:"ledger" ~pid:0 ~tid:0
          ~ts:((s.t0 -. base) *. 1e6)
          ~dur:(s.dur *. 1e6)
          ~args:
            [
              ("id", string_of_int s.id);
              ("parent", string_of_int s.parent);
              ("op", string_of_int s.op);
            ]
          s.name)
      spans
  in
  let oc = open_out path in
  output_string oc (T.chrome_trace_json ~processes:[ (0, "ledger") ] events);
  output_char oc '\n';
  close_out oc
