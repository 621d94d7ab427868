type pipeline = In_order | Out_of_order

type cache_geom = {
  size_bytes : int;
  ways : int;
  line_bytes : int;
  latency : int;
}

type memory_mode =
  | Normal
  | Perfect_memory
  | Perfect_delinquent of Ssp_ir.Iref.Set.t

type t = {
  pipeline : pipeline;
  n_contexts : int;
  fetch_bundles : int;
  fetch_threads : int;
  issue_bundles : int;
  issue_threads : int;
  int_units : int;
  mem_ports : int;
  br_units : int;
  expansion_queue_bundles : int;
  rob_entries : int;
  rs_entries : int;
  retire_width : int;
  front_end_penalty : int;
  l1 : cache_geom;
  l2 : cache_geom;
  l3 : cache_geom;
  mem_latency : int;
  fill_buffer_entries : int;
  gshare_entries : int;
  btb_entries : int;
  btb_ways : int;
  spawn_flush : bool;
  chk_min_free : int;
  chk_refractory : int;
  lib_latency : int;
  spawn_latency : int;
  memory_mode : memory_mode;
  spec_watchdog : int;
  max_cycles : int;
}

let kb n = n * 1024

let in_order =
  {
    pipeline = In_order;
    n_contexts = 4;
    fetch_bundles = 2;
    fetch_threads = 2;
    issue_bundles = 2;
    issue_threads = 2;
    int_units = 4;
    mem_ports = 2;
    br_units = 3;
    expansion_queue_bundles = 16;
    rob_entries = 0;
    rs_entries = 0;
    retire_width = 6;
    (* 12-stage pipeline: mispredict redirect refills most of the front
       end. *)
    front_end_penalty = 9;
    l1 = { size_bytes = kb 16; ways = 4; line_bytes = 64; latency = 2 };
    l2 = { size_bytes = kb 256; ways = 4; line_bytes = 64; latency = 14 };
    l3 = { size_bytes = kb 3072; ways = 12; line_bytes = 64; latency = 30 };
    mem_latency = 230;
    fill_buffer_entries = 16;
    gshare_entries = 2048;
    btb_entries = 256;
    btb_ways = 4;
    spawn_flush = true;
    chk_min_free = 1;
    chk_refractory = 64;
    lib_latency = 2;
    spawn_latency = 4;
    memory_mode = Normal;
    spec_watchdog = 200_000;
    max_cycles = 2_000_000_000;
  }

let out_of_order =
  {
    in_order with
    pipeline = Out_of_order;
    (* Four additional front-end stages for renaming and scheduling. *)
    front_end_penalty = 13;
    rob_entries = 255;
    rs_entries = 18;
    retire_width = 6;
    expansion_queue_bundles = 16;
  }

let with_memory_mode t m = { t with memory_mode = m }

let scale_caches t factor =
  let sc (g : cache_geom) =
    let size = max (g.ways * g.line_bytes) (g.size_bytes / factor) in
    { g with size_bytes = size }
  in
  { t with l1 = sc t.l1; l2 = sc t.l2; l3 = sc t.l3 }

(* The pipeline's name on the command line, on the wire and in the
   fingerprint. *)
let pipeline_name = function In_order -> "inorder" | Out_of_order -> "ooo"

let of_pipeline_name = function
  | "inorder" -> Some in_order
  | "ooo" -> Some out_of_order
  | _ -> None

(* Canonical identity string: every field that can change simulation or
   adaptation behaviour, in a fixed order. Content-addressed caching keys
   on this, so two configs fingerprint equal iff they are the same
   machine. *)
let fingerprint t =
  let geom (g : cache_geom) =
    Printf.sprintf "%d/%d/%d/%d" g.size_bytes g.ways g.line_bytes g.latency
  in
  let mm =
    match t.memory_mode with
    | Normal -> "normal"
    | Perfect_memory -> "perfect"
    | Perfect_delinquent s ->
      "perfect-delinquent:"
      ^ String.concat ","
          (List.map Ssp_ir.Iref.to_string (Ssp_ir.Iref.Set.elements s))
  in
  Printf.sprintf
    "%s|ctx=%d|fetch=%d/%d|issue=%d/%d|units=%d/%d/%d|eq=%d|rob=%d|rs=%d|\
     retire=%d|fep=%d|l1=%s|l2=%s|l3=%s|mem=%d|fill=%d|gshare=%d|btb=%d/%d|\
     spawnflush=%b|chkfree=%d|chkrefr=%d|lib=%d|spawn=%d|watchdog=%d|\
     maxcyc=%d|mm=%s"
    (pipeline_name t.pipeline)
    t.n_contexts t.fetch_bundles t.fetch_threads t.issue_bundles
    t.issue_threads t.int_units t.mem_ports t.br_units
    t.expansion_queue_bundles t.rob_entries t.rs_entries t.retire_width
    t.front_end_penalty (geom t.l1) (geom t.l2) (geom t.l3) t.mem_latency
    t.fill_buffer_entries t.gshare_entries t.btb_entries t.btb_ways
    t.spawn_flush t.chk_min_free t.chk_refractory t.lib_latency
    t.spawn_latency t.spec_watchdog t.max_cycles mm

let pp ppf t =
  let pipe =
    match t.pipeline with
    | In_order -> "In-order: 12-stage pipeline"
    | Out_of_order -> "OOO: 16-stage pipeline"
  in
  Format.fprintf ppf
    "@[<v>Threading      SMT processor with %d hardware thread contexts@,\
     Pipelining     %s@,\
     Fetch/cycle    %d bundles from 1 thread or 1 each from %d threads@,\
     Issue/cycle    %d bundles from 1 thread or 1 each from %d threads@,\
     Funct. units   %d int units, %d branch units, %d memory ports@,\
     Window         %s@,\
     L1 (sep I&D)   %dKB each, %d-way, %d-cycle latency@,\
     L2 (shared)    %dKB, %d-way, %d-cycle latency@,\
     L3 (shared)    %dKB, %d-way, %d-cycle latency@,\
     Fill buffer    %d entries; all caches have %d-byte lines@,\
     Memory         %d-cycle latency@,\
     Branch pred.   %d-entry GSHARE, %d-entry %d-way BTB@]"
    t.n_contexts pipe t.fetch_bundles t.fetch_threads t.issue_bundles
    t.issue_threads t.int_units t.br_units t.mem_ports
    (match t.pipeline with
    | In_order ->
      Printf.sprintf "per-thread %d-bundle expansion queue"
        t.expansion_queue_bundles
    | Out_of_order ->
      Printf.sprintf "per-thread %d-entry ROB, %d-entry reservation station"
        t.rob_entries t.rs_entries)
    (t.l1.size_bytes / 1024) t.l1.ways t.l1.latency (t.l2.size_bytes / 1024)
    t.l2.ways t.l2.latency (t.l3.size_bytes / 1024) t.l3.ways t.l3.latency
    t.fill_buffer_entries t.l1.line_bytes t.mem_latency t.gshare_entries
    t.btb_entries t.btb_ways
