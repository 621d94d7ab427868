(* The ledger benchmark.

     dune exec ./ledger/main.exe -- --workload suite-full --seed 1 \
       --seconds 20 --trace 0

   Run from the repository root. Prints each metric by name with its
   unit, then the result as one JSON object on the last line. With
   --trace 1 it prints the per-layer metrics instead of the end-to-end
   ones and writes a Chrome trace under .ledger/. *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let spec =
    [
      ( "--workload",
        Arg.Set_string workload,
        " " ^ String.concat " | " (List.map fst Ledger.Run.workloads) );
      ("--seed", Arg.Set_int seed, " seed of the generated inputs");
      ("--seconds", Arg.Set_float seconds, " how long to measure");
      ("--trace", Arg.Set_int trace, " 1: per-layer metrics from a traced run");
    ]
  in
  let usage = "ledger --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse (Arg.align spec) (fun a -> raise (Arg.Bad ("unexpected " ^ a))) usage;
  let workload =
    match List.assoc_opt !workload Ledger.Run.workloads with
    | Some w -> w
    | None ->
      prerr_endline ("ledger: unknown workload " ^ !workload ^ "\n" ^ usage);
      exit 2
  in
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "ledger: --trace takes 0 or 1";
    exit 2
  end;
  if not (Sys.file_exists "lib" && Sys.is_directory "lib") then begin
    prerr_endline "ledger: run from the repository root";
    exit 2
  end;
  let cfg =
    {
      Ledger.Run.workload;
      seed = !seed;
      seconds = Float.max 0. !seconds;
      trace = !trace = 1;
      tiny = false;
    }
  in
  match Ledger.Run.run cfg with
  | r -> Ledger.Metrics.print ~declared:(Ledger.Run.declared cfg) r
  | exception e ->
    prerr_endline ("ledger: " ^ Printexc.to_string e);
    exit 1
