type t = int

let zero = 0
let sp = 1
let ret = 8
let max_args = 8

let arg i =
  if i < 0 || i >= max_args then invalid_arg "Reg.arg: index out of range";
  8 + i

let first_stacked = 32
let count = 128
let is_valid r = r >= 0 && r < count
let is_stacked r = r >= first_stacked && r < count
let is_static r = r >= 0 && r < first_stacked
let pp ppf r = Format.fprintf ppf "r%d" r
