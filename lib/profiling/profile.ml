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
  mutable total_instrs : int;
}

let create () =
  {
    blocks = Hashtbl.create 16;
    branches = Ssp_ir.Iref.Tbl.create 64;
    loads = Ssp_ir.Iref.Tbl.create 64;
    total_instrs = 0;
  }

let block_freq t fn blk =
  match Hashtbl.find_opt t.blocks fn with
  | Some arr when blk < Array.length arr -> arr.(blk)
  | Some _ | None -> 0

let branch_bias t i = Ssp_ir.Iref.Tbl.find_opt t.branches i
let load_stats t i = Ssp_ir.Iref.Tbl.find_opt t.loads i

let avg_load_latency t (cfg : Ssp_machine.Config.t) i =
  let l1 = cfg.Ssp_machine.Config.l1.Ssp_machine.Config.latency in
  match load_stats t i with
  | None -> l1
  | Some s when s.accesses = 0 -> l1
  | Some s -> l1 + (s.miss_cycles / s.accesses)

let executed t (i : Ssp_ir.Iref.t) = block_freq t i.fn i.blk > 0
