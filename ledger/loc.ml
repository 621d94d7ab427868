(* Lines-of-code ledger: non-blank lines of OCaml (.ml and .mli) per
   library under lib/ and in bin/, read from the source tree the
   benchmark runs in. *)

let is_ocaml f = Filename.check_suffix f ".ml" || Filename.check_suffix f ".mli"

let non_blank_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go n =
        match input_line ic with
        | line -> go (if String.trim line = "" then n else n + 1)
        | exception End_of_file -> n
      in
      go 0)

let rec count dir =
  match Sys.readdir dir with
  | entries ->
    Array.fold_left
      (fun acc e ->
        let p = Filename.concat dir e in
        if Sys.is_directory p then acc + count p
        else if is_ocaml e then acc + non_blank_lines p
        else acc)
      0 entries
  | exception Sys_error _ -> 0

let ledger () =
  let libs =
    List.map
      (fun l -> ("loc." ^ l, float_of_int (count (Filename.concat "lib" l))))
      Metrics.loc_libraries
  in
  let bin = float_of_int (count "bin") in
  libs
  @ [
      ("loc.bin", bin);
      ("loc.total", float_of_int (count "lib") +. bin);
    ]
