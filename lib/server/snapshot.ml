(* Versioned binary telemetry snapshot: what a daemon hands back for a
   Stats request, and what the router merges across shards. Lives here
   (not in lib/telemetry) because the codec reuses the store's Bin
   primitives and telemetry must stay dependency-free. *)

module T = Ssp_telemetry.Telemetry
module Store = Ssp_store.Store
module Bin = Store.Bin
module Json = Ssp_telemetry.Json

let magic = "SSPS"
let version = 3
let malformed what = Ssp_ir.Error.raise_error ~pass:"snapshot" what

type t = {
  node : string;
  report : T.report;
  gauges : (string * float) list;
  events_dropped : int;
}

let by_name (a, _) (b, _) = String.compare a b

let capture ?(node = "") ?(gauges = []) () =
  {
    node;
    report = T.report ~series:false ();
    gauges = List.sort by_name gauges;
    events_dropped = T.events_dropped_count ();
  }

(* ---- codec ---- *)

let rec w_span b (sp : T.span) =
  Bin.w_str b sp.T.sp_name;
  Bin.w_float b sp.T.ms;
  Bin.w_int b sp.T.calls;
  Store.w_list b sp.T.children w_span

(* Span trees are as deep as the pipeline's nesting; a hostile payload
   must not turn the decoder's recursion into a stack overflow. *)
let max_span_depth = 64

let rec r_span depth r =
  if depth > max_span_depth then malformed "span tree too deep";
  let sp_name = Bin.r_str r in
  let ms = Bin.r_float r in
  let calls = Bin.r_int r in
  let children = Store.r_list r (r_span (depth + 1)) in
  { T.sp_name; ms; calls; children }

let named w b (name, v) =
  Bin.w_str b name;
  w b v

let r_named read r =
  let name = Bin.r_str r in
  (name, read r)

let encode t =
  let b = Bin.writer () in
  Bin.w_str b magic;
  Bin.w_u8 b version;
  Bin.w_str b t.node;
  Store.w_list b t.report.T.r_spans w_span;
  Store.w_list b t.report.T.r_counters (named Bin.w_int);
  Store.w_list b t.report.T.r_hists (named Store.w_hist);
  Store.w_list b t.gauges (named Bin.w_float);
  Bin.w_int b t.events_dropped;
  Bin.contents b

let decode payload =
  let r = Bin.reader payload in
  let m = Bin.r_str r in
  if not (String.equal m magic) then malformed "bad snapshot magic";
  let v = Bin.r_u8 r in
  if v <> version then
    malformed (Printf.sprintf "snapshot version %d (want %d)" v version);
  let node = Bin.r_str r in
  let r_spans = Store.r_list r (r_span 1) in
  let r_counters = Store.r_list r (r_named Bin.r_int) in
  let r_hists = Store.r_list r (r_named Store.r_hist) in
  let gauges = Store.r_list r (r_named Bin.r_float) in
  let events_dropped = Bin.r_int r in
  Bin.expect_end r;
  {
    node;
    report = { T.r_spans; r_counters; r_hists; r_series = [] };
    gauges;
    events_dropped;
  }

(* ---- cluster merge ---- *)

(* Backpressure / integrity counters stay attributed: knowing WHICH
   shard evicted, rejected or saw corrupt entries is the point of
   collecting them. They contribute to the cluster-wide sum too, under
   their plain name. *)
let per_shard_counter name =
  String.equal name "store.evict"
  || String.equal name "store.corrupt"
  || String.equal name "server.rejected"
  || String.starts_with ~prefix:"server.tenant." name
     && String.ends_with ~suffix:".rejected" name

let shard_key node name = "shard." ^ node ^ "." ^ name

let merge ?(node = "cluster") snaps =
  let attributed s =
    let own =
      if s.node = "" then []
      else
        List.filter_map
          (fun (name, v) ->
            if per_shard_counter name then Some (shard_key s.node name, v)
            else None)
          s.report.T.r_counters
    in
    { s.report with T.r_counters = s.report.T.r_counters @ own }
  in
  let gauges = Hashtbl.create 16 in
  List.iter
    (fun s ->
      List.iter
        (fun (name, v) ->
          (* Gauges the router already attributed (shard.<node>.up) keep
             their key; prefixing again would nest "shard." twice. *)
          let key =
            if s.node = "" || String.starts_with ~prefix:"shard." name then name
            else shard_key s.node name
          in
          Hashtbl.replace gauges key v)
        s.gauges)
    snaps;
  {
    node;
    report = T.merge (List.map attributed snaps);
    gauges =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) gauges []
      |> List.sort by_name;
    events_dropped =
      List.fold_left (fun acc s -> acc + s.events_dropped) 0 snaps;
  }

(* ---- rendering ---- *)

let pp ppf t =
  Format.fprintf ppf "@[<v>node: %s@,%a"
    (if t.node = "" then "-" else t.node)
    T.pp_summary t.report;
  if t.gauges <> [] then begin
    Format.fprintf ppf "gauges:@,";
    List.iter
      (fun (name, v) -> Format.fprintf ppf "  %-44s %12.2f@," name v)
      t.gauges
  end;
  if t.events_dropped > 0 then
    Format.fprintf ppf "events dropped: %d@," t.events_dropped;
  Format.fprintf ppf "@]"

let to_json t =
  T.to_json t.report
    ~extra:
      [
        ("node", Json.String t.node);
        ( "gauges",
          Json.Obj (List.map (fun (name, v) -> (name, Json.Float v)) t.gauges) );
        ("events_dropped", Json.Int t.events_dropped);
      ]
