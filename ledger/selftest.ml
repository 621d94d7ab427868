(* The benchmark's own tests:
   - percentile selection picks the highest percentile with at least ten
     samples beyond it and refuses fewer samples;
   - the metric names and units the benchmark prints are exactly those of
     BENCHMARK.json (its path is the first argument);
   - a tiny-size run of each workload, untraced and traced, passes its
     output checks and prints only declared metrics. *)

open Ledger

let failures = ref 0

let check what ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" what
  end
  else Printf.printf "ok   %s\n%!" what

(* ---- percentiles ---- *)

let percentiles () =
  let upto n = List.init n (fun i -> float_of_int (i + 1)) in
  check "p90 of 100 samples is the 90th" (Pct.tail ~bp:9000 (upto 100) = Ok 90.);
  check "p90 refuses 99 samples" (Result.is_error (Pct.tail ~bp:9000 (upto 99)));
  check "p99 of 1000 samples is the 990th" (Pct.tail ~bp:9900 (upto 1000) = Ok 990.);
  check "p99 refuses 999 samples" (Result.is_error (Pct.tail ~bp:9900 (upto 999)));
  check "p90 of shuffled samples"
    (Pct.tail ~bp:9000 (List.rev (upto 200)) = Ok 180.);
  check "highest for 19 samples: none" (Pct.highest 19 = None);
  check "highest for 20 samples: p50" (Pct.highest 20 = Some 5000);
  check "highest for 40 samples: p75" (Pct.highest 40 = Some 7500);
  check "highest for 100 samples: p90" (Pct.highest 100 = Some 9000);
  check "highest for 999 samples: p90" (Pct.highest 999 = Some 9000);
  check "highest for 1000 samples: p99" (Pct.highest 1000 = Some 9900);
  check "highest for 10000 samples: p99.9" (Pct.highest 10000 = Some 9990);
  check "median odd" (Pct.median [ 3.; 1.; 2. ] = 2.);
  check "median even" (Pct.median [ 4.; 1.; 2.; 3. ] = 2.5)

(* ---- BENCHMARK.json ---- *)

type json =
  | Obj of (string * json) list
  | Arr of json list
  | Str of string
  | Num of float
  | Lit of string

(* A minimal JSON reader: enough for BENCHMARK.json. *)
let parse_json s =
  let n = String.length s in
  let pos = ref 0 in
  let rec ws () =
    if !pos < n && (s.[!pos] = ' ' || s.[!pos] = '\n' || s.[!pos] = '\t' || s.[!pos] = '\r')
    then (incr pos; ws ())
  in
  let expect c =
    ws ();
    if !pos >= n || s.[!pos] <> c then failwith (Printf.sprintf "expected %c at %d" c !pos);
    incr pos
  in
  let str () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match s.[!pos] with
      | '"' -> incr pos
      | '\\' ->
        Buffer.add_char b s.[!pos + 1];
        pos := !pos + 2;
        go ()
      | c ->
        Buffer.add_char b c;
        incr pos;
        go ()
    in
    go ();
    Buffer.contents b
  in
  let rec value () =
    ws ();
    match s.[!pos] with
    | '{' ->
      incr pos;
      ws ();
      if s.[!pos] = '}' then (incr pos; Obj [])
      else
        let rec fields acc =
          let k = str () in
          expect ':';
          let v = value () in
          ws ();
          if s.[!pos] = ',' then (incr pos; fields ((k, v) :: acc))
          else (expect '}'; Obj (List.rev ((k, v) :: acc)))
        in
        fields []
    | '[' ->
      incr pos;
      ws ();
      if s.[!pos] = ']' then (incr pos; Arr [])
      else
        let rec items acc =
          let v = value () in
          ws ();
          if s.[!pos] = ',' then (incr pos; items (v :: acc))
          else (expect ']'; Arr (List.rev (v :: acc)))
        in
        items []
    | '"' -> Str (str ())
    | _ ->
      let start = !pos in
      while !pos < n && not (List.mem s.[!pos] [ ','; '}'; ']'; ' '; '\n' ]) do incr pos done;
      let tok = String.sub s start (!pos - start) in
      (match float_of_string_opt tok with Some f -> Num f | None -> Lit tok)
  in
  let v = value () in
  ws ();
  if !pos <> n then failwith "trailing bytes";
  v

let metric_list j key =
  match j with
  | Obj fields -> (
    match List.assoc_opt key fields with
    | Some (Arr items) ->
      List.map
        (function
          | Obj f -> (
            match (List.assoc_opt "name" f, List.assoc_opt "unit" f) with
            | Some (Str n), Some (Str u) -> (n, u)
            | _ -> failwith ("malformed entry in " ^ key))
          | _ -> failwith ("malformed entry in " ^ key))
        items
    | _ -> failwith ("no list " ^ key))
  | _ -> failwith "not an object"

let names_match path =
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let j = parse_json text in
  check "end-to-end metrics match BENCHMARK.json"
    (metric_list j "end_to_end" = Metrics.end_to_end);
  check "per-layer metrics match BENCHMARK.json"
    (metric_list j "per_layer" = Metrics.per_layer);
  let workloads =
    match j with
    | Obj f -> (
      match List.assoc_opt "workloads" f with
      | Some (Arr ws) ->
        List.filter_map
          (function Obj w -> (match List.assoc_opt "name" w with Some (Str n) -> Some n | _ -> None) | _ -> None)
          ws
      | _ -> [])
    | _ -> []
  in
  check "workloads match BENCHMARK.json" (workloads = List.map fst Run.workloads)

(* ---- smoke runs ---- *)

let smoke () =
  List.iter
    (fun (name, workload) ->
      List.iter
        (fun trace ->
          let cfg = { Run.workload; seed = 7; seconds = 0.; trace; tiny = true } in
          let what = Printf.sprintf "%s%s smoke run" name (if trace then " traced" else "") in
          match Run.run cfg with
          | r ->
            check (what ^ " passes its output checks")
              (r.Metrics.correct && r.Metrics.failed = 0 && r.Metrics.attempted > 0);
            check (what ^ " prints exactly the declared metrics")
              (match Metrics.ordered ~declared:(Run.declared cfg) r.Metrics.values with
              | _ -> true
              | exception Failure why -> prerr_endline why; false)
          | exception e ->
            check (what ^ " raised " ^ Printexc.to_string e) false)
        [ false; true ])
    Run.workloads

let () =
  percentiles ();
  names_match Sys.argv.(1);
  smoke ();
  if !failures > 0 then begin
    Printf.printf "%d checks failed\n" !failures;
    exit 1
  end
