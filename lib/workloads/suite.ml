let all =
  [
    Em3d.workload;
    Health.workload;
    Mst.workload;
    Treeadd.df;
    Treeadd.bf;
    Mcf.workload;
    Vpr.workload;
  ]

(* [gen:<seed>] names are resolved through the generator, so any seeded
   corpus member can be addressed like a built-in benchmark (CLI, tests,
   chaos campaigns) without being part of [all]. *)
let find name =
  match Gen.seed_of_name name with
  | Some seed -> Gen.workload ~seed
  | None -> List.find (fun w -> String.equal w.Workload.name name) all

type program = Workload of string | Source of string

let compile ~pass program ~scale =
  match program with
  | Workload name -> (
    match find name with
    | w -> Workload.program w ~scale
    | exception Not_found ->
      Ssp_ir.Error.raise_error ~pass ("unknown workload " ^ name))
  | Source text -> Ssp_minic.Frontend.compile text

let corpus = Gen.corpus
let test_scale = 2
