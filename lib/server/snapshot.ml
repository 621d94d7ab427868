(* Versioned binary telemetry snapshot: what a shard hands back for a
   Stats_snapshot request, and what the router merges across shards.
   Lives here (not in lib/telemetry) because the codec reuses the
   store's Bin primitives and telemetry must stay dependency-free. *)

module T = Ssp_telemetry.Telemetry
module Bin = Ssp_store.Store.Bin
module Json = Ssp_telemetry.Json

let magic = "SSPS"
let version = 2
let malformed what = Ssp_ir.Error.raise_error ~pass:"snapshot" what

type t = {
  node : string;
  counters : (string * int) list;
  gauges : (string * float) list;
  hists : (string * T.hist_summary) list;
  events_dropped : int;
}

let capture ?(node = "") ?(gauges = []) () =
  let r = T.report () in
  {
    node;
    counters = r.T.r_counters;
    gauges = List.sort (fun (a, _) (b, _) -> String.compare a b) gauges;
    hists = r.T.r_hists;
    events_dropped = T.events_dropped_count ();
  }

(* ---- codec ---- *)

let max_entries = 1 lsl 20

let w_list b xs emit =
  let n = List.length xs in
  Bin.w_int b n;
  List.iter (emit b) xs

let r_list r what read =
  let n = Bin.r_int r in
  if n < 0 || n > max_entries then
    malformed (Printf.sprintf "implausible %s count %d" what n);
  List.init n (fun _ -> read r)

let encode t =
  let b = Bin.writer () in
  Bin.w_str b magic;
  Bin.w_u8 b version;
  Bin.w_str b t.node;
  w_list b t.counters (fun b (name, v) ->
      Bin.w_str b name;
      Bin.w_int b v);
  w_list b t.gauges (fun b (name, v) ->
      Bin.w_str b name;
      Bin.w_float b v);
  w_list b t.hists (fun b (name, h) ->
      Bin.w_str b name;
      Bin.w_int b h.T.hs_n;
      Bin.w_float b h.T.hs_sum;
      Bin.w_float b h.T.hs_min;
      Bin.w_float b h.T.hs_max;
      Bin.w_int b (Array.length h.T.hs_counts);
      Array.iter (Bin.w_int b) h.T.hs_counts);
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
  let counters =
    r_list r "counter" (fun r ->
        let name = Bin.r_str r in
        (name, Bin.r_int r))
  in
  let gauges =
    r_list r "gauge" (fun r ->
        let name = Bin.r_str r in
        (name, Bin.r_float r))
  in
  let hists =
    r_list r "hist" (fun r ->
        let name = Bin.r_str r in
        let hs_n = Bin.r_int r in
        let hs_sum = Bin.r_float r in
        let hs_min = Bin.r_float r in
        let hs_max = Bin.r_float r in
        let nbuckets = Bin.r_int r in
        if nbuckets <> T.hist_bucket_count then
          malformed
            (Printf.sprintf "histogram layout %d buckets (want %d)" nbuckets
               T.hist_bucket_count);
        let hs_counts = Array.init nbuckets (fun _ -> Bin.r_int r) in
        (name, { T.hs_n; hs_sum; hs_min; hs_max; hs_counts }))
  in
  let events_dropped = Bin.r_int r in
  Bin.expect_end r;
  { node; counters; gauges; hists; events_dropped }

(* ---- cluster merge ---- *)

(* Backpressure / integrity counters stay attributed: knowing WHICH
   shard evicted, rejected or saw corrupt entries is the point of
   collecting them. They contribute to the cluster-wide sum too, under
   their plain name. *)
let per_shard_counter name =
  String.equal name "store.evict"
  || String.equal name "store.corrupt"
  || String.equal name "server.rejected"
  ||
  (String.length name > 14
  && String.equal (String.sub name 0 14) "server.tenant."
  && String.length name > 9
  && String.equal (String.sub name (String.length name - 9) 9) ".rejected")

let shard_key node name = "shard." ^ node ^ "." ^ name

let merge ?(node = "cluster") snaps =
  let counters = Hashtbl.create 64 in
  let gauges = Hashtbl.create 16 in
  let hists = Hashtbl.create 32 in
  let dropped = ref 0 in
  let bump tbl merge_v name v =
    match Hashtbl.find_opt tbl name with
    | None -> Hashtbl.replace tbl name v
    | Some prev -> Hashtbl.replace tbl name (merge_v prev v)
  in
  List.iter
    (fun s ->
      dropped := !dropped + s.events_dropped;
      List.iter
        (fun (name, v) ->
          bump counters ( + ) name v;
          if per_shard_counter name && s.node <> "" then
            bump counters ( + ) (shard_key s.node name) v)
        s.counters;
      List.iter
        (fun (name, v) ->
          (* Gauges the router already attributed (shard.<node>.up) keep
             their key; prefixing again would nest "shard." twice. *)
          let key =
            if
              s.node = ""
              || String.length name >= 6
                 && String.equal (String.sub name 0 6) "shard."
            then name
            else shard_key s.node name
          in
          bump gauges (fun _ v -> v) key v)
        s.gauges;
      List.iter (fun (name, h) -> bump hists T.merge_hist_summary name h) s.hists)
    snaps;
  let sorted tbl =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  {
    node;
    counters = sorted counters;
    gauges = sorted gauges;
    hists = sorted hists;
    events_dropped = !dropped;
  }

(* ---- rendering ---- *)

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  Format.fprintf ppf "node: %s@," (if t.node = "" then "-" else t.node);
  if t.counters <> [] then begin
    Format.fprintf ppf "counters:@,";
    List.iter
      (fun (name, v) -> Format.fprintf ppf "  %-44s %12d@," name v)
      t.counters
  end;
  if t.gauges <> [] then begin
    Format.fprintf ppf "gauges:@,";
    List.iter
      (fun (name, v) -> Format.fprintf ppf "  %-44s %12.2f@," name v)
      t.gauges
  end;
  if t.hists <> [] then begin
    Format.fprintf ppf "histograms:@,";
    Format.fprintf ppf "  %-34s %8s %9s %9s %9s %9s %9s@," "" "n" "p50" "p90"
      "p99" "p999" "max";
    List.iter
      (fun (name, h) ->
        Format.fprintf ppf "  %-34s %8d %9.3f %9.3f %9.3f %9.3f %9.3f@," name
          h.T.hs_n
          (T.hist_quantile h 0.5)
          (T.hist_quantile h 0.9)
          (T.hist_quantile h 0.99)
          (T.hist_quantile h 0.999)
          h.T.hs_max)
      t.hists
  end;
  if t.events_dropped > 0 then
    Format.fprintf ppf "events dropped: %d@," t.events_dropped;
  Format.fprintf ppf "@]"

let to_json t =
  let named f xs = Json.Obj (List.map (fun (name, v) -> (name, f v)) xs) in
  Json.to_string
    (Obj
       [
         ("node", String t.node);
         ("counters", named (fun v -> Json.Int v) t.counters);
         ("gauges", named (fun v -> Json.Float v) t.gauges);
         ("hists", named T.hist_json t.hists);
         ("events_dropped", Int t.events_dropped);
       ])
