(* Fixed-size domain pool with one claim counter per batch.

   One batch runs at a time ([map] and friends are not reentrant: a task
   must not submit to the pool it runs on). Every worker, the caller
   included, claims the batch's next index with one atomic increment
   until the array is spent; tasks never submit tasks, so nothing else
   needs scheduling. The counters belong to the batch, not to the pool:
   a worker that wakes after its batch drained still holds that batch,
   so it claims nothing from the next one.

   Determinism: tasks write into a per-batch results array at their input
   index; the caller re-assembles (and re-raises the lowest-index
   exception) after the batch drains, so scheduling order never shows in
   the output. *)

type batch = {
  tasks : (unit -> unit) array;
  next : int Atomic.t;  (* the next unclaimed index *)
  remaining : int Atomic.t;  (* tasks not yet finished *)
}

type t = {
  njobs : int;
  mutable domains : unit Domain.t list;
  m : Mutex.t;
  work_ready : Condition.t;  (* a new batch generation, or stop *)
  batch_done : Condition.t;  (* the current batch's remaining reached zero *)
  mutable batch : batch;
  mutable generation : int;
  mutable stop : bool;
}

let jobs t = t.njobs

(* Tasks themselves never raise (they are wrapped to capture exceptions
   into the results array); the finisher wakes the caller. *)
let drain pool b =
  let n = Array.length b.tasks in
  let rec claim () =
    let i = Atomic.fetch_and_add b.next 1 in
    if i < n then begin
      b.tasks.(i) ();
      if Atomic.fetch_and_add b.remaining (-1) = 1 then begin
        Mutex.lock pool.m;
        Condition.broadcast pool.batch_done;
        Mutex.unlock pool.m
      end;
      claim ()
    end
  in
  claim ()

let worker pool =
  let last_gen = ref 0 in
  let running = ref true in
  while !running do
    Mutex.lock pool.m;
    while (not pool.stop) && pool.generation = !last_gen do
      Condition.wait pool.work_ready pool.m
    done;
    let stop = pool.stop and batch = pool.batch in
    last_gen := pool.generation;
    Mutex.unlock pool.m;
    if stop then running := false else drain pool batch
  done

let create ~jobs =
  let njobs = max 1 jobs in
  let pool =
    {
      njobs;
      domains = [];
      m = Mutex.create ();
      work_ready = Condition.create ();
      batch_done = Condition.create ();
      batch = { tasks = [||]; next = Atomic.make 0; remaining = Atomic.make 0 };
      generation = 0;
      stop = false;
    }
  in
  if njobs > 1 then
    pool.domains <-
      List.init (njobs - 1) (fun _ -> Domain.spawn (fun () -> worker pool));
  pool

let shutdown pool =
  Mutex.lock pool.m;
  pool.stop <- true;
  Condition.broadcast pool.work_ready;
  Mutex.unlock pool.m;
  List.iter Domain.join pool.domains;
  pool.domains <- []

let with_pool ~jobs f =
  let pool = create ~jobs in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)

type 'b slot = Pending | Done of 'b | Raised of exn * Printexc.raw_backtrace

let run_batch pool tasks =
  let remaining = Atomic.make (Array.length tasks) in
  let b = { tasks; next = Atomic.make 0; remaining } in
  Mutex.lock pool.m;
  pool.batch <- b;
  pool.generation <- pool.generation + 1;
  Condition.broadcast pool.work_ready;
  Mutex.unlock pool.m;
  drain pool b;
  Mutex.lock pool.m;
  while Atomic.get b.remaining > 0 do
    Condition.wait pool.batch_done pool.m
  done;
  Mutex.unlock pool.m

let map_array pool f xs =
  let n = Array.length xs in
  if pool.domains = [] || n <= 1 then Array.map f xs
  else begin
    let results = Array.make n Pending in
    let task i () =
      match f xs.(i) with
      | v -> results.(i) <- Done v
      | exception e ->
        results.(i) <- Raised (e, Printexc.get_raw_backtrace ())
    in
    run_batch pool (Array.init n task);
    Array.map
      (function
        | Done v -> v
        | Raised (e, bt) -> Printexc.raise_with_backtrace e bt
        | Pending -> assert false)
      results
  end

let map pool f xs = Array.to_list (map_array pool f (Array.of_list xs))
