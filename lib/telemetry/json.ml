(* The one JSON writer behind every document the tools emit: the
   telemetry report, Chrome traces, the stats snapshot, [sspc explain],
   and the chaos and tune reports. Writing only: no parser, no
   pretty-printer. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let to_string v =
  let b = Buffer.create 4096 in
  let str s =
    Buffer.add_char b '"';
    String.iter
      (fun ch ->
        match ch with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\r' -> Buffer.add_string b "\\r"
        | '\t' -> Buffer.add_string b "\\t"
        | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.add_char b '"'
  in
  (* Integral values print without a fraction; JSON has no infinities
     or NaN, so a non-finite value is [null]. *)
  let num f =
    if not (Float.is_finite f) then Buffer.add_string b "null"
    else if Float.is_integer f && Float.abs f < 1e15 then
      Buffer.add_string b (Printf.sprintf "%.0f" f)
    else Buffer.add_string b (Printf.sprintf "%.6g" f)
  in
  let seq opening closing emit xs =
    Buffer.add_char b opening;
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char b ',';
        emit x)
      xs;
    Buffer.add_char b closing
  in
  let rec go = function
    | Null -> Buffer.add_string b "null"
    | Bool v -> Buffer.add_string b (if v then "true" else "false")
    | Int n -> Buffer.add_string b (string_of_int n)
    | Float f -> num f
    | String s -> str s
    | List xs -> seq '[' ']' go xs
    | Obj fields ->
      seq '{' '}'
        (fun (k, v) ->
          str k;
          Buffer.add_char b ':';
          go v)
        fields
  in
  go v;
  Buffer.contents b
