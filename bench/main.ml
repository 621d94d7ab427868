(* Regenerates the tables and figures of the paper's evaluation: Table 1
   (the machine models), Table 2, Figures 2/8/9/10, the §4.5 hand-vs-auto
   comparison and the design-choice ablation. Performance is measured by
   the ledger benchmark (ledger/main.exe), not here.

   Usage: main.exe [--quick] [--jobs N] [EXHIBIT]...
   EXHIBIT is one of table1 table2 fig2 fig8 fig9 fig10 hand ablate; with
   none named, all of them run in that (paper) order. [--quick] switches to
   small working sets and scaled-down caches (same shapes, seconds instead
   of minutes). [--jobs N] runs the heavy simulation/adaptation work across
   N domains; outputs are identical to --jobs 1 by construction. *)

open Cmdliner
open Ssp_harness

let ppf = Format.std_formatter

let exhibits =
  [
    ("table1", fun ~setting:_ ~jobs:_ -> Figures.table1 ppf ());
    ("table2", fun ~setting ~jobs:_ -> Figures.table2 ~setting ppf ());
    ("fig2", fun ~setting ~jobs:_ -> Figures.fig2 ~setting ppf ());
    ("fig8", fun ~setting ~jobs:_ -> Figures.fig8 ~setting ppf ());
    ("fig9", fun ~setting ~jobs:_ -> Figures.fig9 ~setting ppf ());
    ("fig10", fun ~setting ~jobs:_ -> Figures.fig10 ~setting ppf ());
    ("hand", fun ~setting ~jobs:_ -> Hand_vs_auto.print ~setting ppf ());
    ("ablate", fun ~setting ~jobs -> Ablation.print ~setting ~jobs ppf ());
  ]

(* The exhibits that render from the per-(workload, setting) memo. *)
let memo_exhibits = [ "table2"; "fig2"; "fig8"; "fig9"; "fig10" ]

let run quick jobs wanted =
  let setting = if quick then Experiment.quick else Experiment.reference in
  let wanted = if wanted = [] then List.map fst exhibits else wanted in
  Format.fprintf ppf
    "SSP post-pass reproduction — %s setting (scale %d, caches /%d)@."
    setting.label setting.scale setting.cache_divisor;
  if jobs > 1 then Format.fprintf ppf "parallel engine: %d jobs@." jobs;
  (* With a pool available, fill the memo up front so the exhibits below
     render from cache hits. *)
  if jobs > 1 && List.exists (fun s -> List.mem s memo_exhibits) wanted then
    Experiment.prime ~setting ~jobs Ssp_workloads.Suite.all;
  List.iter
    (fun (name, exhibit) ->
      if List.mem name wanted then begin
        Format.fprintf ppf "@.==== %s ====@.@." name;
        let t0 = Unix.gettimeofday () in
        exhibit ~setting ~jobs;
        Format.fprintf ppf "@.[%.1fs]@." (Unix.gettimeofday () -. t0)
      end)
    exhibits;
  Format.fprintf ppf "@."

let quick_arg =
  let doc =
    "Small working sets and caches scaled down 16x: the same shapes in \
     seconds instead of minutes."
  in
  Arg.(value & flag & info [ "quick" ] ~doc)

let jobs_arg =
  let positive =
    let parse s =
      match int_of_string_opt s with
      | Some n when n >= 1 -> Ok n
      | _ -> Error (`Msg "expected a positive integer")
    in
    Arg.conv (parse, Format.pp_print_int)
  in
  let doc = "Run the simulation and adaptation work across $(docv) domains." in
  Arg.(value & opt positive 1 & info [ "jobs" ] ~docv:"N" ~doc)

let exhibits_arg =
  let doc =
    "Exhibit to regenerate: $(b,table1), $(b,table2), $(b,fig2), $(b,fig8), \
     $(b,fig9), $(b,fig10), $(b,hand) or $(b,ablate). All of them when none \
     is given."
  in
  let names = List.map (fun (n, _) -> (n, n)) exhibits in
  Arg.(value & pos_all (enum names) [] & info [] ~docv:"EXHIBIT" ~doc)

let () =
  let info =
    Cmd.info "bench" ~doc:"Regenerate the paper's tables and figures"
  in
  exit
    (Cmd.eval (Cmd.v info Term.(const run $ quick_arg $ jobs_arg $ exhibits_arg)))
