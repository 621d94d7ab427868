type category = Cat_l3 | Cat_l2 | Cat_l1 | Cat_cache_exec | Cat_exec | Cat_other

type load_site = {
  mutable accesses : int;
  mutable l1 : int;
  mutable l2 : int;
  mutable l2_partial : int;
  mutable l3 : int;
  mutable l3_partial : int;
  mutable mem : int;
  mutable mem_partial : int;
}

type t = {
  mutable cycles : int;
  mutable main_instrs : int;
  mutable spec_instrs : int;
  mutable spawns : int;
  mutable chk_fired : int;
  mutable mispredicts : int;
  mutable prefetches : int;
  categories : int array;
  loads : load_site Ssp_ir.Iref.Tbl.t;
  mutable outputs : int64 list;
  mutable out_buf : int64 array;
  mutable out_n : int;
  mutable sites : load_site option array;
}

let create () =
  {
    cycles = 0;
    main_instrs = 0;
    spec_instrs = 0;
    spawns = 0;
    chk_fired = 0;
    mispredicts = 0;
    prefetches = 0;
    categories = Array.make 6 0;
    loads = Ssp_ir.Iref.Tbl.create 64;
    outputs = [];
    out_buf = [||];
    out_n = 0;
    sites = [||];
  }

let push_output t v =
  let n = t.out_n in
  let cap = Array.length t.out_buf in
  if n >= cap then begin
    let nb = Array.make (Int.max 64 (2 * cap)) 0L in
    Array.blit t.out_buf 0 nb 0 cap;
    t.out_buf <- nb
  end;
  t.out_buf.(n) <- v;
  t.out_n <- n + 1

let ensure_sites t n =
  if Array.length t.sites < n then begin
    let ns = Array.make n None in
    Array.blit t.sites 0 ns 0 (Array.length t.sites);
    t.sites <- ns
  end

let category_index = function
  | Cat_l3 -> 0
  | Cat_l2 -> 1
  | Cat_l1 -> 2
  | Cat_cache_exec -> 3
  | Cat_exec -> 4
  | Cat_other -> 5

let add_category t c =
  let i = category_index c in
  t.categories.(i) <- t.categories.(i) + 1

let new_site () =
  {
    accesses = 0;
    l1 = 0;
    l2 = 0;
    l2_partial = 0;
    l3 = 0;
    l3_partial = 0;
    mem = 0;
    mem_partial = 0;
  }

let load_site t iref =
  match Ssp_ir.Iref.Tbl.find_opt t.loads iref with
  | Some s -> s
  | None ->
    let s = new_site () in
    Ssp_ir.Iref.Tbl.replace t.loads iref s;
    s

let record_load_pc t ~pc level ~partial =
  let s =
    match t.sites.(pc) with
    | Some s -> s
    | None ->
      let s = new_site () in
      t.sites.(pc) <- Some s;
      s
  in
  s.accesses <- s.accesses + 1;
  match (level, partial) with
  | Hierarchy.L1, _ -> s.l1 <- s.l1 + 1
  | Hierarchy.L2, false -> s.l2 <- s.l2 + 1
  | Hierarchy.L2, true -> s.l2_partial <- s.l2_partial + 1
  | Hierarchy.L3, false -> s.l3 <- s.l3 + 1
  | Hierarchy.L3, true -> s.l3_partial <- s.l3_partial + 1
  | Hierarchy.Mem, false -> s.mem <- s.mem + 1
  | Hierarchy.Mem, true -> s.mem_partial <- s.mem_partial + 1

let finish ?irefs t =
  (* Merge the pc-indexed site counters into the per-Iref table consumers
     read (figures, bench miss rates). *)
  (match irefs with
  | Some irefs ->
    Array.iteri
      (fun pc slot ->
        match slot with
        | Some s when pc < Array.length irefs ->
          let dst = load_site t irefs.(pc) in
          dst.accesses <- dst.accesses + s.accesses;
          dst.l1 <- dst.l1 + s.l1;
          dst.l2 <- dst.l2 + s.l2;
          dst.l2_partial <- dst.l2_partial + s.l2_partial;
          dst.l3 <- dst.l3 + s.l3;
          dst.l3_partial <- dst.l3_partial + s.l3_partial;
          dst.mem <- dst.mem + s.mem;
          dst.mem_partial <- dst.mem_partial + s.mem_partial
        | _ -> ())
      t.sites
  | None -> ());
  (* Buffered outputs are in program order by construction. *)
  t.outputs <- List.init t.out_n (fun i -> t.out_buf.(i));
  t

let ipc t =
  if t.cycles = 0 then 0.0 else float_of_int t.main_instrs /. float_of_int t.cycles

let pp ppf t =
  let cat name i = (name, t.categories.(i)) in
  let cats =
    [
      cat "L3" 0; cat "L2" 1; cat "L1" 2; cat "Cache+Exec" 3; cat "Exec" 4;
      cat "Other" 5;
    ]
  in
  Format.fprintf ppf
    "@[<v>cycles        %d@,main instrs   %d (IPC %.3f)@,spec instrs   %d@,\
     spawns        %d (chk fired %d)@,mispredicts   %d@,prefetches    %d@,\
     cycle breakdown:@,"
    t.cycles t.main_instrs (ipc t) t.spec_instrs t.spawns t.chk_fired
    t.mispredicts t.prefetches;
  List.iter
    (fun (n, v) ->
      Format.fprintf ppf "  %-11s %d (%.1f%%)@," n v
        (if t.cycles = 0 then 0.0
         else 100.0 *. float_of_int v /. float_of_int t.cycles))
    cats;
  Format.fprintf ppf "@]"
