(* Generated-program seeds derived from the benchmark's --seed: stream
   [stream], index [i] maps through splitmix64 to a non-negative 30-bit
   gen: seed, so the same benchmark seed names the same programs in every
   process. *)

let mix z =
  let z = Int64.add z 0x9E3779B97F4A7C15L in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

let derive ~seed ~stream i =
  let z = mix (Int64.add (mix (Int64.of_int seed)) (Int64.of_int stream)) in
  Int64.to_int (Int64.shift_right_logical (mix (Int64.add z (Int64.of_int i))) 34)

(* A deterministic stream of uniform draws in [0, bound). *)
type rng = { mutable state : int64 }

let rng ~seed ~stream = { state = Int64.of_int (derive ~seed ~stream 0) }

let draw r bound =
  r.state <- mix r.state;
  Int64.to_int (Int64.shift_right_logical r.state 34) mod bound
