(* Tests for the domain-pool parallel engine: combinator semantics,
   deterministic result ordering under skewed task durations, exception
   propagation, domain-sharded telemetry counters, and the end-to-end
   invariant that the figures' simulation grid, filled on a pool, is
   byte-identical to the sequential run. *)

module Pool = Ssp_parallel.Pool
module T = Ssp_telemetry.Telemetry

let test_map_matches_sequential () =
  Pool.with_pool ~jobs:4 (fun pool ->
      let xs = List.init 100 Fun.id in
      Alcotest.(check (list int))
        "map" (List.map succ xs)
        (Pool.map pool succ xs);
      Alcotest.(check (array int))
        "map_array"
        (Array.map (fun i -> i * i) (Array.of_list xs))
        (Pool.map_array pool (fun i -> i * i) (Array.of_list xs)))

(* Skew the per-task work so completion order differs wildly from input
   order; results must still come back in input order. *)
let test_order_under_skew () =
  let rec spin n = if n > 0 then spin (n - 1) in
  Pool.with_pool ~jobs:4 (fun pool ->
      let xs = List.init 64 Fun.id in
      let f i =
        spin ((i mod 7) * 20_000);
        i * 3
      in
      Alcotest.(check (list int)) "ordered" (List.map f xs) (Pool.map pool f xs))

let test_sequential_fallback () =
  Pool.with_pool ~jobs:1 (fun pool ->
      Alcotest.(check int) "jobs" 1 (Pool.jobs pool);
      Alcotest.(check (list int))
        "map" [ 2; 3; 4 ]
        (Pool.map pool succ [ 1; 2; 3 ]))

let test_exception_lowest_index () =
  Pool.with_pool ~jobs:4 (fun pool ->
      let f i = if i >= 3 then failwith (string_of_int i) else i in
      match Pool.map pool f (List.init 16 Fun.id) with
      | _ -> Alcotest.fail "expected an exception"
      | exception Failure msg ->
        Alcotest.(check string) "lowest failing index wins" "3" msg);
  (* The pool must survive a failed batch and run the next one. *)
  Pool.with_pool ~jobs:4 (fun pool ->
      (match Pool.map pool (fun _ -> failwith "boom") [ 1; 2 ] with
      | _ -> Alcotest.fail "expected an exception"
      | exception Failure _ -> ());
      Alcotest.(check (list int)) "reusable" [ 10; 20 ]
        (Pool.map pool (fun x -> x * 10) [ 1; 2 ]))

(* The winning (lowest-index) exception must carry the *worker's*
   backtrace: the pool stores the raw backtrace captured at the raise
   site and re-raises with [Printexc.raise_with_backtrace], so the trace
   names this file, not the pool's re-raise site. *)
let test_exception_backtrace_preserved () =
  Printexc.record_backtrace true;
  (* Non-tail recursion so the raise site leaves real frames. *)
  let rec deep n = if n = 0 then failwith "deep-raise" else 1 + deep (n - 1) in
  Pool.with_pool ~jobs:4 (fun pool ->
      let f i =
        Printexc.record_backtrace true;
        if i = 2 then deep 10 else i
      in
      match Pool.map pool f (List.init 8 Fun.id) with
      | _ -> Alcotest.fail "expected an exception"
      | exception Failure msg ->
        let bt = Printexc.get_backtrace () in
        Alcotest.(check string) "original exception" "deep-raise" msg;
        let mentions_worker =
          let n = String.length bt and sub = "test_parallel" in
          let m = String.length sub in
          let rec go i = i + m <= n && (String.sub bt i m = sub || go (i + 1)) in
          go 0
        in
        if not mentions_worker then
          Alcotest.failf "backtrace lost the worker's frames:@.%s" bt)

(* The daemon's shape: one long-lived pool, one batch per select round.
   Batches of 1-40 tasks of uneven cost follow each other with no pause,
   so workers still leaving one batch race the next one's start. Every
   task must run exactly once, in its own batch, and each batch's results
   come back in input order. *)
let test_many_batches () =
  let rec spin n = if n > 0 then spin (n - 1) in
  let batches = 5_000 in
  let rng = Random.State.make [| 24 |] in
  let sizes = Array.init batches (fun _ -> 1 + Random.State.int rng 40) in
  let runs =
    Array.map (fun n -> Array.init n (fun _ -> Atomic.make 0)) sizes
  in
  Pool.with_pool ~jobs:4 (fun pool ->
      Array.iteri
        (fun b n ->
          let xs = List.init n (fun i -> (b, i)) in
          let f (b, i) =
            Atomic.incr runs.(b).(i);
            spin ((((b * 7) + i) mod 5) * 2_000);
            (b * 100) + i
          in
          let got = Pool.map pool f xs in
          if got <> List.map (fun (b, i) -> (b * 100) + i) xs then
            Alcotest.failf "batch %d: results out of input order" b)
        sizes);
  Array.iteri
    (fun b counts ->
      Array.iteri
        (fun i c ->
          if Atomic.get c <> 1 then
            Alcotest.failf "batch %d task %d ran %d times" b i (Atomic.get c))
        counts)
    runs

(* Concurrent counter increments from N domains must sum exactly: each
   pool worker mutates its own domain-local shard unsynchronized, and the
   report merge adds the shards up by name. *)
let test_sharded_counters () =
  T.reset ();
  T.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      T.set_enabled false;
      T.reset ())
    (fun () ->
      let tasks = 40 and per_task = 1000 in
      Pool.with_pool ~jobs:4 (fun pool ->
          ignore
            (Pool.map pool
               (fun _ ->
                 let c = T.counter "parallel.test" in
                 for _ = 1 to per_task do
                   T.incr c
                 done)
               (List.init tasks Fun.id)));
      Alcotest.(check int)
        "exact sum across domains" (tasks * per_task)
        (List.assoc "parallel.test" (T.report ()).T.r_counters))

(* The pooled simulation grid behind every figure: the memo [prime] fills
   on a 2-domain pool, whole adaptations and every kernel's sim points,
   reproduces the sequential sim points and adaptation report on every
   suite kernel. The memo is keyed by setting label, so each run gets its
   own. *)
let test_grid_jobs_invariant () =
  let module E = Ssp_harness.Experiment in
  let setting label = { E.scale = 1; cache_divisor = 64; label } in
  let render (r : E.runs) =
    String.concat "\n"
      (List.map
         (Format.asprintf "%a" Ssp_sim.Stats.pp)
         [ r.E.io_base; r.io_ssp; r.io_pmem; r.io_pdel; r.ooo_base; r.ooo_ssp;
           r.ooo_pmem; r.ooo_pdel ])
    ^ Format.asprintf "%a" Ssp.Report.pp r.E.report
  in
  E.prime ~setting:(setting "grid-prime") ~jobs:2 Ssp_workloads.Suite.all;
  List.iter
    (fun (w : Ssp_workloads.Workload.t) ->
      let name = w.Ssp_workloads.Workload.name in
      let sequential =
        render (E.run_benchmark ~setting:(setting "grid-seq") w)
      in
      Alcotest.(check string)
        (name ^ ": primed sim grid and report")
        sequential
        (render (E.run_benchmark ~setting:(setting "grid-prime") w)))
    Ssp_workloads.Suite.all

let suite =
  [
    Alcotest.test_case "map/map_array/mapi match sequential" `Quick
      test_map_matches_sequential;
    Alcotest.test_case "result order survives skewed durations" `Quick
      test_order_under_skew;
    Alcotest.test_case "jobs=1 sequential fallback" `Quick
      test_sequential_fallback;
    Alcotest.test_case "lowest-index exception propagates" `Quick
      test_exception_lowest_index;
    Alcotest.test_case "exception keeps worker backtrace" `Quick
      test_exception_backtrace_preserved;
    Alcotest.test_case "one pool runs 5,000 uneven batches" `Quick
      test_many_batches;
    Alcotest.test_case "sharded counters sum exactly" `Quick
      test_sharded_counters;
    Alcotest.test_case "sim grid jobs=2 byte-identical: suite" `Slow
      test_grid_jobs_invariant;
  ]
