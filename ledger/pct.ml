(* Order statistics over timing samples.

   Percentiles use the nearest-rank definition, with the percentile given
   in basis points so that "how many samples lie beyond it" is exact
   integer arithmetic. A tail percentile is only reported when at least
   [min_beyond] samples lie strictly beyond it: p90 needs 100 samples,
   p99 needs 1000. *)

let min_beyond = 10

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  match sorted xs with
  | [||] -> invalid_arg "Pct.median: no samples"
  | a ->
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* 1-based rank of the nearest-rank [bp]/10000 percentile of [n] samples. *)
let rank ~bp n = ((bp * n) + 9999) / 10000

let beyond ~bp n = n - rank ~bp n
let supported ~bp n = n > 0 && beyond ~bp n >= min_beyond

let tail ~bp xs =
  let n = List.length xs in
  if not (supported ~bp n) then
    Error
      (Printf.sprintf "p%g needs %d samples beyond it; %d samples give %d"
         (float_of_int bp /. 100.) min_beyond n
         (if n = 0 then 0 else beyond ~bp n))
  else Ok (sorted xs).(rank ~bp n - 1)

(* The percentiles a report may use, highest first (basis points). *)
let ladder = [ 9990; 9900; 9000; 7500; 5000 ]

let highest n = List.find_opt (fun bp -> supported ~bp n) ladder

let geomean = function
  | [] -> invalid_arg "Pct.geomean: no samples"
  | xs ->
    exp
      (List.fold_left (fun acc x -> acc +. log x) 0. xs
      /. float_of_int (List.length xs))
