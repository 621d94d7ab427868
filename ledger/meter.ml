(* Host speed meter.

   On a shared host the speed of a core drifts by tens of percent over
   minutes as neighbours come and go, and a run of the benchmark sees
   whichever phase it lands in: on a 2-vCPU Xeon VM one pass over the same
   kernels took from 0.8x to 1.6x its median within five minutes. So the
   benchmark reports CPU time at a reference host speed. It takes the
   process's CPU seconds (all threads, user and system), which leave out
   waits for the disk and for a woken thread to get a core, and scales
   them by a power of [reference_s] over the time of a fixed integer loop
   that stays in the L1 cache (about 0.2 ms there), timed every
   [period_s] around the work. The loop is the benchmark's own code, so
   no change to the program under test can speed it up.

   Work does not slow by the same factor as the loop. In four sets of
   runs of 3-5 minutes there, log suite-full pass time followed log loop
   time with a slope of 1.6-2.3, so the offline workloads scale by the
   power 1.5 of the loop's slowdown. serve-mix's CPU time followed the
   loop with a slope of 1 or less, so it scales by the first power. Over
   ten seeds, pass times still spread by 0.05-0.10 of their median: the
   loop does not see every slow phase of the host.

   The offline workloads sample from a SIGALRM timer, so samples fall
   inside long calls; serve-mix, whose sockets a signal could interrupt,
   samples between requests. The loop's own time is left out of the time
   it scales. *)

let reference_s = 2e-4
let period_s = 0.02

let table = Array.init 4096 (fun i -> (i * 2654435761) land 0xFFFF)

let loop () =
  let h = ref 1 and acc = ref 0 in
  for k = 1 to 40_000 do
    let v = Array.unsafe_get table (!h land 4095) in
    h := if v land 1 = 0 then !h + v + k else (!h lxor v) * 3;
    acc := !acc + (!h land 1)
  done;
  !acc

(* The last [window] loop times, the number taken and their sum. *)
let window = 16
let recent = Array.make window reference_s
let samples = ref 0
let sum = ref 0.
let last = ref 0.

let sample () =
  let t0 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (loop ()));
  let t1 = Unix.gettimeofday () in
  recent.(!samples mod window) <- t1 -. t0;
  incr samples;
  sum := !sum +. (t1 -. t0);
  last := t1

let fill () =
  for _ = 1 to window do
    sample ()
  done

(* Samples once [period_s] has passed since the last sample. *)
let poll () =
  if !samples = 0 then fill ()
  else if Unix.gettimeofday () -. !last >= period_s then sample ()

(* Runs [f] with a sample every [period_s] from a timer signal. *)
let with_timer f =
  if !samples = 0 then fill ();
  let set v =
    ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = v; it_value = v })
  in
  Sys.set_signal Sys.sigalrm (Sys.Signal_handle (fun _ -> sample ()));
  set period_s;
  Fun.protect f ~finally:(fun () ->
      set 0.;
      Sys.set_signal Sys.sigalrm Sys.Signal_default)

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* [timed ~power f] runs [f] and returns its result and the process's
   CPU seconds while [f] ran, less the loop's, at the reference speed:
   scaled by [reference_s] over the mean loop time, to the power
   [power]. The mean is over the samples taken while [f] ran, or over the
   last [window] samples when [f] took fewer. *)
let timed ~power f =
  let n0 = !samples and s0 = !sum in
  let c0 = cpu_s () in
  let r = f () in
  let own = !sum -. s0 and n = !samples - n0 in
  let cpu = cpu_s () -. c0 -. own in
  let loop_s =
    if n >= window then own /. float_of_int n
    else Array.fold_left ( +. ) 0. recent /. float_of_int window
  in
  (r, cpu *. ((reference_s /. loop_s) ** power))

(* The mean loop time over every sample so far. *)
let mean_loop_s () = !sum /. float_of_int (max 1 !samples)
