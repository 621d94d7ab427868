open Ssp_analysis

(* ---------- Digraph ---------- *)

let diamond () =
  (* 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3 *)
  Digraph.make ~n:4 [ (0, 1); (0, 2); (1, 3); (2, 3) ]

let test_rpo () =
  let g = diamond () in
  let order = Digraph.rpo g ~entry:0 in
  Alcotest.(check int) "all reachable" 4 (Array.length order);
  Alcotest.(check int) "entry first" 0 order.(0);
  Alcotest.(check int) "exit last" 3 order.(3)

let test_topo_and_longest () =
  let g = diamond () in
  (match Digraph.topo_order g with
  | [ 0; _; _; 3 ] -> ()
  | o -> Alcotest.failf "bad topo %s" (String.concat "," (List.map string_of_int o)));
  let h = Digraph.longest_path g ~node_weight:(fun v -> v + 1) in
  (* longest from 0: 0 -> 2 -> 3 with weights 1 + 3 + 4 = 8 *)
  Alcotest.(check int) "height of 0" 8 h.(0);
  let cyclic = Digraph.make ~n:2 [ (0, 1); (1, 0) ] in
  Alcotest.(check bool) "topo rejects cycles" true
    (match Digraph.topo_order cyclic with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* qcheck: Tarjan SCC vs naive reachability-based computation. *)
let random_graph_gen =
  QCheck.Gen.(
    sized_size (2 -- 12) (fun n ->
        list_size (0 -- (n * 2)) (pair (0 -- (n - 1)) (0 -- (n - 1)))
        >|= fun edges -> (max 1 n, edges)))

let naive_scc n edges =
  let reach = Array.make_matrix n n false in
  for i = 0 to n - 1 do
    reach.(i).(i) <- true
  done;
  List.iter (fun (a, b) -> reach.(a).(b) <- true) edges;
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if reach.(i).(k) && reach.(k).(j) then reach.(i).(j) <- true
      done
    done
  done;
  (* two nodes share a component iff they reach each other *)
  Array.init n (fun i ->
      List.filter (fun j -> reach.(i).(j) && reach.(j).(i)) (List.init n Fun.id))

let prop_scc =
  QCheck.Test.make ~name:"tarjan matches naive SCC" ~count:200
    (QCheck.make random_graph_gen) (fun (n, edges) ->
      let g = Digraph.make ~n edges in
      let comps = Digraph.tarjan_scc g in
      let mine = Digraph.scc_of comps ~n in
      let naive = naive_scc n edges in
      List.for_all
        (fun i ->
          List.for_all
            (fun j -> (mine.(i) = mine.(j)) = List.mem j naive.(i))
            (List.init n Fun.id))
        (List.init n Fun.id))

(* ---------- Dominators ---------- *)

let naive_dominates n edges entry a b =
  (* a dominates b iff removing a disconnects b from entry (or a = b). *)
  if a = b then true
  else begin
    let adj = Array.make n [] in
    List.iter
      (fun (x, y) -> if x <> a && y <> a then adj.(x) <- y :: adj.(x))
      edges;
    let seen = Array.make n false in
    let rec go v =
      if (not seen.(v)) && v <> a then begin
        seen.(v) <- true;
        List.iter go adj.(v)
      end
    in
    if entry <> a then go entry;
    not seen.(b)
  end

let prop_dominators =
  QCheck.Test.make ~name:"CHK dominators match naive definition" ~count:200
    (QCheck.make random_graph_gen) (fun (n, edges) ->
      let g = Digraph.make ~n edges in
      let dom = Dom.compute g ~entry:0 in
      let reach = Digraph.reachable g ~from:0 in
      List.for_all
        (fun a ->
          List.for_all
            (fun b ->
              if not (reach.(a) && reach.(b)) then true
              else Dom.dominates dom a b = naive_dominates n edges 0 a b)
            (List.init n Fun.id))
        (List.init n Fun.id))

(* ---------- CFG / loops on a real function ---------- *)

let loopy_func () =
  (* while (i < n) { if (i % 2) a else b; i++ } *)
  Ssp_minic.Frontend.compile
    "int main() { int s = 0; int i = 0; int n = 10; while (i < n) { if (i % \
     2 == 0) { s = s + i; } else { s = s - i; } i = i + 1; } print_int(s); \
     return 0; }"

let test_cfg_loops () =
  let prog = loopy_func () in
  let f = Ssp_ir.Prog.find_func prog "main" in
  let cfg = Cfg.of_func f in
  let dom = Dom.compute cfg.Cfg.graph ~entry:0 in
  let loops = Loops.compute cfg dom in
  Alcotest.(check int) "one loop" 1 (List.length (Loops.all loops));
  let l = List.hd (Loops.all loops) in
  Alcotest.(check bool) "header in body" true (List.mem l.Loops.header l.Loops.body);
  Alcotest.(check bool) "has back edge" true (l.Loops.back_edges <> []);
  Alcotest.(check int) "depth 1" 1 l.Loops.depth;
  (* every block of the body is dominated by the header *)
  Alcotest.(check bool) "header dominates body" true
    (List.for_all (fun b -> Dom.dominates dom l.Loops.header b) l.Loops.body)

let test_nested_loops () =
  let prog =
    Ssp_minic.Frontend.compile
      "int main() { int s = 0; for (int i = 0; i < 4; i = i + 1) { for (int \
       j = 0; j < 4; j = j + 1) { s = s + i * j; } } print_int(s); return \
       0; }"
  in
  let f = Ssp_ir.Prog.find_func prog "main" in
  let cfg = Cfg.of_func f in
  let dom = Dom.compute cfg.Cfg.graph ~entry:0 in
  let loops = Loops.compute cfg dom in
  Alcotest.(check int) "two loops" 2 (List.length (Loops.all loops));
  let depths = List.map (fun l -> l.Loops.depth) (Loops.all loops) in
  Alcotest.(check (list int)) "nesting depths" [ 1; 2 ] (List.sort compare depths);
  let inner = List.find (fun l -> l.Loops.depth = 2) (Loops.all loops) in
  (match inner.Loops.parent with
  | Some p ->
    Alcotest.(check int) "parent is the outer loop" 1
      (Loops.find loops p).Loops.depth
  | None -> Alcotest.fail "inner loop has no parent")

(* ---------- Reaching definitions ---------- *)

let test_reaching () =
  let open Ssp_isa in
  (* entry: r40 <- 1; brnz r41, other; fall: r40 <- 2; br join;
     other: nop; join: use r40 *)
  let f =
    Ssp_ir.Builder.func_of_blocks ~name:"main" ~nparams:1
      [
        ("entry", [ Op.Movi (40, 1L); Op.Brnz (Reg.arg 0, "other") ]);
        ("fall", [ Op.Movi (40, 2L); Op.Br "join" ]);
        ("other", [ Op.Nop ]);
        ("join", [ Op.Mov (42, 40); Op.Halt ]);
      ]
  in
  let cfg = Cfg.of_func f in
  let reach = Reaching.compute cfg in
  let use = Ssp_ir.Iref.make "main" 3 0 in
  let defs = Reaching.reaching_defs reach ~use 40 in
  Alcotest.(check int) "two defs reach the join" 2 (List.length defs);
  (* the parameter reaches its use *)
  let use_param = Ssp_ir.Iref.make "main" 0 1 in
  let pdefs = Reaching.reaching_defs reach ~use:use_param (Reg.arg 0) in
  Alcotest.(check bool) "parameter pseudo-def" true
    (List.exists (fun (d : Reaching.def) -> d.Reaching.site.Ssp_ir.Iref.ins = -1) pdefs)

let test_reaching_loop_carried () =
  let open Ssp_isa in
  (* loop: r40 <- r40 + 1, conditional back edge; the use of r40 sees both
     the init (intra on first entry) and the loop def (around back edge). *)
  let f =
    Ssp_ir.Builder.func_of_blocks ~name:"main" ~nparams:0
      [
        ("entry", [ Op.Movi (40, 0L) ]);
        ( "loop",
          [
            Op.Alui (Op.Add, 40, 40, 1L);
            Op.Cmpi (Op.Lt, 41, 40, 10L);
            Op.Brnz (41, "loop");
          ] );
        ("exit", [ Op.Halt ]);
      ]
  in
  let cfg = Cfg.of_func f in
  let reach = Reaching.compute cfg in
  let use = Ssp_ir.Iref.make "main" 1 0 in
  let all = Reaching.reaching_defs reach ~use 40 in
  let intra = Reaching.defs_without_back_edges reach ~use 40 in
  Alcotest.(check int) "both defs reach" 2 (List.length all);
  Alcotest.(check int) "only init reaches intra-iteration" 1 (List.length intra);
  let only = List.hd intra in
  Alcotest.(check int) "the intra def is the init" 0 only.Reaching.site.Ssp_ir.Iref.blk

(* ---------- Call graph ---------- *)

let test_callgraph () =
  let prog =
    Ssp_minic.Frontend.compile
      "int g(int x) { if (x <= 0) { return 0; } return g(x - 1) + 1; }\n\
       int f(int x) { return g(x); }\n\
       int main() { print_int(f(3)); return 0; }"
  in
  let cg = Callgraph.compute prog in
  Alcotest.(check bool) "g recursive" true (Callgraph.is_recursive cg "g");
  Alcotest.(check bool) "f not recursive" false (Callgraph.is_recursive cg "f");
  Alcotest.(check int) "f has one callee" 1 (List.length (Callgraph.callees cg "f"));
  Alcotest.(check int) "g called from f and itself" 2
    (List.length (Callgraph.callers cg "g"))

(* ---------- Regions ---------- *)

let test_regions () =
  let prog = loopy_func () in
  let regions = Regions.compute prog in
  let f = Ssp_ir.Prog.find_func prog "main" in
  (* find a load/any instruction inside the loop: use the loop header *)
  let loops = Regions.loops_of regions "main" in
  let l = List.hd (Loops.all loops) in
  let iref = Ssp_ir.Iref.make "main" l.Loops.header 0 in
  (match Regions.innermost_at regions iref with
  | Regions.Loop ("main", _) -> ()
  | r -> Alcotest.failf "expected loop region, got %s" (Format.asprintf "%a" Regions.pp r));
  let entry = Ssp_ir.Iref.make "main" 0 0 in
  (match Regions.innermost_at regions entry with
  | Regions.Proc "main" -> ()
  | r -> Alcotest.failf "expected proc region, got %s" (Format.asprintf "%a" Regions.pp r));
  (* parent of the loop region is the proc *)
  (match Regions.parent regions (Regions.Loop ("main", l.Loops.id)) with
  | Some (Regions.Proc "main") -> ()
  | _ -> Alcotest.fail "loop's parent should be the proc");
  Alcotest.(check int) "proc covers all blocks"
    (Array.length f.Ssp_ir.Prog.blocks)
    (List.length (Regions.blocks_of regions (Regions.Proc "main")))

let suite =
  [
    Alcotest.test_case "rpo" `Quick test_rpo;
    Alcotest.test_case "topo and longest path" `Quick test_topo_and_longest;
    QCheck_alcotest.to_alcotest prop_scc;
    QCheck_alcotest.to_alcotest prop_dominators;
    Alcotest.test_case "cfg and natural loops" `Quick test_cfg_loops;
    Alcotest.test_case "nested loops" `Quick test_nested_loops;
    Alcotest.test_case "reaching definitions" `Quick test_reaching;
    Alcotest.test_case "loop-carried classification" `Quick
      test_reaching_loop_carried;
    Alcotest.test_case "call graph" `Quick test_callgraph;
    Alcotest.test_case "region graph" `Quick test_regions;
  ]
