let benchmarks () = Ssp_workloads.Suite.all

let table1 ppf () =
  Format.fprintf ppf
    "@[<v>Table 1. Modeled research Itanium processors@,@,\
     == In-order model ==@,%a@,@,== Out-of-order model ==@,%a@,@]"
    Ssp_machine.Config.pp Ssp_machine.Config.in_order Ssp_machine.Config.pp
    Ssp_machine.Config.out_of_order

let fig2 ?setting ppf () =
  let rows =
    List.concat_map
      (fun w ->
        let r = Experiment.run_benchmark ?setting w in
        [
          [
            r.Experiment.name ^ " (io)";
            Render.f2
              (Experiment.speedup ~baseline:r.Experiment.io_base
                 r.Experiment.io_pmem);
            Render.f2
              (Experiment.speedup ~baseline:r.Experiment.io_base
                 r.Experiment.io_pdel);
          ];
          [
            r.Experiment.name ^ " (ooo)";
            Render.f2
              (Experiment.speedup ~baseline:r.Experiment.ooo_base
                 r.Experiment.ooo_pmem);
            Render.f2
              (Experiment.speedup ~baseline:r.Experiment.ooo_base
                 r.Experiment.ooo_pdel);
          ];
        ])
      (benchmarks ())
  in
  Format.fprintf ppf
    "@[<v>Figure 2. Speedup assuming perfect memory vs. assuming delinquent \
     loads always hit the cache@,@,";
  Render.table ppf
    ~header:[ "benchmark"; "perfect memory"; "perfect delinq." ]
    rows;
  Format.fprintf ppf "@]"

let table2 ?setting ppf () =
  let rows =
    List.map
      (fun w ->
        let r = Experiment.run_benchmark ?setting w in
        let n, interproc, size, live = Ssp.Report.table2_row r.Experiment.report in
        [
          r.Experiment.name;
          string_of_int n;
          string_of_int interproc;
          Printf.sprintf "%.1f" size;
          Printf.sprintf "%.1f" live;
        ])
      (benchmarks ())
  in
  Format.fprintf ppf "@[<v>Table 2. Slice characteristics@,@,";
  Render.table ppf
    ~header:
      [ "Benchmark"; "Slices (#)"; "Interproc slices (#)"; "Average size";
        "Average # live-in" ]
    rows;
  Format.fprintf ppf "@]"

(* (benchmark, in-order+SSP, OOO, OOO+SSP) speedups. *)
let fig8_data ?setting () =
  List.map
    (fun w ->
      let r = Experiment.run_benchmark ?setting w in
      let base = r.Experiment.io_base in
      ( r.Experiment.name,
        Experiment.speedup ~baseline:base r.Experiment.io_ssp,
        Experiment.speedup ~baseline:base r.Experiment.ooo_base,
        Experiment.speedup ~baseline:base r.Experiment.ooo_ssp ))
    (benchmarks ())

let fig8 ?setting ppf () =
  let data = fig8_data ?setting () in
  let avg f =
    List.fold_left (fun acc x -> acc +. f x) 0.0 data
    /. float_of_int (List.length data)
  in
  let rows =
    List.map
      (fun (name, a, b, c) ->
        [ name; Render.f2 a; Render.f2 b; Render.f2 c;
          Render.bar a ~max:5.0 ~width:25 ])
      data
    @ [
        [
          "average";
          Render.f2 (avg (fun (_, a, _, _) -> a));
          Render.f2 (avg (fun (_, _, b, _) -> b));
          Render.f2 (avg (fun (_, _, _, c) -> c));
          "";
        ];
      ]
  in
  Format.fprintf ppf
    "@[<v>Figure 8. Speedups of SSP, OOO model, SSP+OOO model over the \
     baseline in-order model@,@,";
  Render.table ppf
    ~header:[ "benchmark"; "in-order+SSP"; "OOO"; "OOO+SSP"; "in-order+SSP bar" ]
    rows;
  Format.fprintf ppf "@]"

(* Figure 9: delinquent-load satisfaction breakdown. *)
let fig9_rows (r : Experiment.runs) =
  let breakdown tag (s : Ssp_sim.Stats.t) =
    let acc =
      Ssp_ir.Iref.Tbl.fold
        (fun iref (ls : Ssp_sim.Stats.load_site) acc ->
          if Ssp_ir.Iref.Set.mem iref r.Experiment.delinquent then
            match acc with
            | None -> Some (Ssp_sim.Stats.{
                accesses = ls.accesses; l1 = ls.l1; l2 = ls.l2;
                l2_partial = ls.l2_partial; l3 = ls.l3;
                l3_partial = ls.l3_partial; mem = ls.mem;
                mem_partial = ls.mem_partial })
            | Some t ->
              t.Ssp_sim.Stats.accesses <- t.Ssp_sim.Stats.accesses + ls.Ssp_sim.Stats.accesses;
              t.Ssp_sim.Stats.l1 <- t.Ssp_sim.Stats.l1 + ls.Ssp_sim.Stats.l1;
              t.Ssp_sim.Stats.l2 <- t.Ssp_sim.Stats.l2 + ls.Ssp_sim.Stats.l2;
              t.Ssp_sim.Stats.l2_partial <- t.Ssp_sim.Stats.l2_partial + ls.Ssp_sim.Stats.l2_partial;
              t.Ssp_sim.Stats.l3 <- t.Ssp_sim.Stats.l3 + ls.Ssp_sim.Stats.l3;
              t.Ssp_sim.Stats.l3_partial <- t.Ssp_sim.Stats.l3_partial + ls.Ssp_sim.Stats.l3_partial;
              t.Ssp_sim.Stats.mem <- t.Ssp_sim.Stats.mem + ls.Ssp_sim.Stats.mem;
              t.Ssp_sim.Stats.mem_partial <- t.Ssp_sim.Stats.mem_partial + ls.Ssp_sim.Stats.mem_partial;
              Some t
          else acc)
        s.Ssp_sim.Stats.loads None
    in
    match acc with
    | None -> [ tag; "-"; "-"; "-"; "-"; "-"; "-"; "-" ]
    | Some t ->
      let open Ssp_sim.Stats in
      let total = max 1 t.accesses in
      let miss_rate =
        float_of_int (total - t.l1) /. float_of_int total
      in
      let part x = Render.pct (float_of_int x /. float_of_int total) in
      [
        tag;
        Render.pct miss_rate;
        part t.l2;
        part t.l2_partial;
        part t.l3;
        part t.l3_partial;
        part t.mem;
        part t.mem_partial;
      ]
  in
  [
    breakdown "  io" r.Experiment.io_base;
    breakdown "  io+SSP" r.Experiment.io_ssp;
    breakdown "  ooo" r.Experiment.ooo_base;
    breakdown "  ooo+SSP" r.Experiment.ooo_ssp;
  ]

let fig9 ?setting ppf () =
  Format.fprintf ppf
    "@[<v>Figure 9. Where delinquent loads are satisfied when missing L1 \
     (%% of all delinquent accesses; height of a bar = miss rate)@,@,";
  List.iter
    (fun w ->
      let r = Experiment.run_benchmark ?setting w in
      Format.fprintf ppf "%s:@," r.Experiment.name;
      Render.table ppf
        ~header:
          [ "config"; "L1 miss"; "L2"; "L2 part"; "L3"; "L3 part"; "Mem";
            "Mem part" ]
        (fig9_rows r);
      Format.fprintf ppf "@,")
    (benchmarks ());
  Format.fprintf ppf "@]"

(* Figure 10: normalized cycle breakdown for em3d, treeadd.df, vpr. *)
let fig10_benchmarks = [ "em3d"; "treeadd.df"; "vpr" ]

let fig10 ?setting ppf () =
  Format.fprintf ppf
    "@[<v>Figure 10. Cycle breakdown normalized to the baseline in-order \
     cycle count@,@,";
  List.iter
    (fun name ->
      let w = Ssp_workloads.Suite.find name in
      let r = Experiment.run_benchmark ?setting w in
      let base = float_of_int r.Experiment.io_base.Ssp_sim.Stats.cycles in
      let row tag (s : Ssp_sim.Stats.t) =
        let cat c =
          Render.pct
            (float_of_int
               s.Ssp_sim.Stats.categories.(Ssp_sim.Stats.category_index c)
            /. base)
        in
        let open Ssp_sim.Stats in
        [
          tag;
          cat Cat_l3;
          cat Cat_l2;
          cat Cat_l1;
          cat Cat_cache_exec;
          cat Cat_exec;
          cat Cat_other;
          Render.pct (float_of_int s.cycles /. base);
        ]
      in
      Format.fprintf ppf "%s:@," name;
      Render.table ppf
        ~header:
          [ "config"; "L3"; "L2"; "L1"; "Cache+Exec"; "Exec"; "Other";
            "total" ]
        [
          row "  io" r.Experiment.io_base;
          row "  io+SSP" r.Experiment.io_ssp;
          row "  ooo" r.Experiment.ooo_base;
          row "  ooo+SSP" r.Experiment.ooo_ssp;
        ];
      Format.fprintf ppf "@,")
    fig10_benchmarks;
  Format.fprintf ppf "@]"
