type load_stats = {
  mutable accesses : int;
  mutable l1_hits : int;
  mutable l2_hits : int;
  mutable l3_hits : int;
  mutable mem_hits : int;
  mutable partial_hits : int;
  mutable miss_cycles : int;
}

type branch_stats = { mutable taken : int; mutable not_taken : int }

type t = {
  blocks : (string, int array) Hashtbl.t;
  branches : branch_stats Ssp_ir.Iref.Tbl.t;
  loads : load_stats Ssp_ir.Iref.Tbl.t;
  calls : (string, int) Hashtbl.t Ssp_ir.Iref.Tbl.t;
  mutable total_instrs : int;
}

let create () =
  {
    blocks = Hashtbl.create 16;
    branches = Ssp_ir.Iref.Tbl.create 64;
    loads = Ssp_ir.Iref.Tbl.create 64;
    calls = Ssp_ir.Iref.Tbl.create 16;
    total_instrs = 0;
  }

let block_freq t fn blk =
  match Hashtbl.find_opt t.blocks fn with
  | Some arr when blk < Array.length arr -> arr.(blk)
  | Some _ | None -> 0

let branch_bias t i = Ssp_ir.Iref.Tbl.find_opt t.branches i
let load_stats t i = Ssp_ir.Iref.Tbl.find_opt t.loads i

let taken_ratio b =
  let n = b.taken + b.not_taken in
  if n = 0 then 0.0 else float_of_int b.taken /. float_of_int n

let dominant_call_site t ~callee =
  let best = ref None in
  Ssp_ir.Iref.Tbl.iter
    (fun site tbl ->
      match Hashtbl.find_opt tbl callee with
      | Some n -> (
        match !best with
        | Some (_, m) when m >= n -> ()
        | _ -> best := Some (site, n))
      | None -> ())
    t.calls;
  Option.map fst !best

let avg_load_latency t (cfg : Ssp_machine.Config.t) i =
  let l1 = cfg.Ssp_machine.Config.l1.Ssp_machine.Config.latency in
  match load_stats t i with
  | None -> l1
  | Some s when s.accesses = 0 -> l1
  | Some s -> l1 + (s.miss_cycles / s.accesses)

let total_miss_cycles t =
  Ssp_ir.Iref.Tbl.fold (fun _ s acc -> acc + s.miss_cycles) t.loads 0

let executed t (i : Ssp_ir.Iref.t) = block_freq t i.fn i.blk > 0
