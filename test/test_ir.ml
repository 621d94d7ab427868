open Ssp_isa
open Ssp_ir

let a8 = Reg.arg 0

(* fact(n) = n <= 1 ? 1 : n * fact(n-1), the classic recursion exercise for
   the register stack. *)
let fact_func () =
  let b = Builder.create ~name:"fact" ~nparams:1 () in
  let n = Builder.fresh_reg b in
  let t = Builder.fresh_reg b in
  let r = Builder.fresh_reg b in
  Builder.start_block b "entry";
  Builder.emit b (Op.Mov (n, a8));
  Builder.emit b (Op.Cmpi (Op.Le, t, n, 1L));
  Builder.emit b (Op.Brnz (t, "base"));
  Builder.start_block b "rec";
  Builder.emit b (Op.Alui (Op.Sub, a8, n, 1L));
  Builder.emit b (Op.Call ("fact", 1));
  Builder.emit b (Op.Mov (r, a8));
  Builder.emit b (Op.Alu (Op.Mul, a8, n, r));
  Builder.emit b (Op.Ret);
  Builder.start_block b "base";
  Builder.emit b (Op.Movi (a8, 1L));
  Builder.emit b (Op.Ret);
  Builder.finish b

let main_calls_fact n =
  Builder.func_of_blocks ~name:"main" ~nparams:0
    [
      ( "entry",
        [
          Op.Movi (a8, Int64.of_int n);
          Op.Call ("fact", 1);
          Op.Print a8;
          Op.Halt;
        ] );
    ]

let fact_prog n =
  let p = Prog.create ~entry:"main" in
  Prog.add_func p (main_calls_fact n);
  Prog.add_func p (fact_func ());
  p

let test_builder_layout () =
  let f = fact_func () in
  Alcotest.(check int) "three blocks" 3 (Array.length f.Prog.blocks);
  Alcotest.(check string) "entry first" "entry" f.Prog.blocks.(0).Prog.label;
  Alcotest.(check int) "block_index" 2 (Prog.block_index f "base")

let test_validate_ok () =
  let p = fact_prog 5 in
  match Validate.check p with
  | Ok () -> ()
  | Error es ->
    Alcotest.failf "unexpected errors: %s"
      (String.concat "; "
         (List.map (fun e -> Format.asprintf "%a" Validate.pp_error e) es))

let test_validate_catches () =
  (* Unresolved label. *)
  let f =
    Builder.func_of_blocks ~name:"main" ~nparams:0
      [ ("entry", [ Op.Br "nowhere" ]) ]
  in
  let p = Prog.create ~entry:"main" in
  Prog.add_func p f;
  (match Validate.check p with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "expected unresolved-label error");
  (* Missing terminator in last block. *)
  let f2 =
    Builder.func_of_blocks ~name:"main" ~nparams:0 [ ("entry", [ Op.Nop ]) ]
  in
  let p2 = Prog.create ~entry:"main" in
  Prog.add_func p2 f2;
  (match Validate.check p2 with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "expected fallthrough error");
  (* Call to an undefined function. *)
  let f3 =
    Builder.func_of_blocks ~name:"main" ~nparams:0
      [ ("entry", [ Op.Call ("ghost", 0); Op.Halt ]) ]
  in
  let p3 = Prog.create ~entry:"main" in
  Prog.add_func p3 f3;
  (match Validate.check p3 with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "expected undefined-callee error");
  (* A spawn names a label of another function: one that exists passes,
     a missing label or function is an error naming it. *)
  let spawning (fn, label) =
    let p = Prog.create ~entry:"main" in
    Prog.add_func p
      (Builder.func_of_blocks ~name:"main" ~nparams:0
         [ ("entry", [ Op.Spawn (fn, label); Op.Halt ]) ]);
    Prog.add_func p
      (Builder.func_of_blocks ~name:"helper" ~nparams:0
         [ ("entry", [ Op.Nop ]); ("slice", [ Op.Kill ]) ]);
    match Validate.check p with
    | Ok () -> "ok"
    | Error es ->
      String.concat "; "
        (List.map (fun e -> Format.asprintf "%a" Validate.pp_error e) es)
  in
  Alcotest.(check string) "spawn to an existing label" "ok"
    (spawning ("helper", "slice"));
  Alcotest.(check string) "spawn to a missing label"
    "main.0.0: spawn label gone not in helper"
    (spawning ("helper", "gone"));
  Alcotest.(check string) "spawn to a missing function"
    "main.0.0: spawn of undefined function ghost"
    (spawning ("ghost", "entry"))

let test_iref_and_addr () =
  let f = fact_func () in
  let r = Iref.make "fact" 1 2 in
  Alcotest.(check int) "addr linearizes" 5 (Prog.addr_of f r);
  Alcotest.(check bool) "iref order" true (Iref.compare (Iref.make "a" 0 0) r < 0)

let test_instr_lookup () =
  let p = fact_prog 3 in
  match Prog.instr p (Iref.make "main" 0 1) with
  | Op.Call ("fact", 1) -> ()
  | op -> Alcotest.failf "unexpected instr %s" (Op.to_string op)

let suite =
  [
    Alcotest.test_case "builder layout" `Quick test_builder_layout;
    Alcotest.test_case "validate accepts fact" `Quick test_validate_ok;
    Alcotest.test_case "validate catches errors" `Quick test_validate_catches;
    Alcotest.test_case "iref addressing" `Quick test_iref_and_addr;
    Alcotest.test_case "instruction lookup" `Quick test_instr_lookup;
  ]

(* Shared with other test modules. *)
let fact_program = fact_prog

(* ---------- assembler round-trip ---------- *)

let structurally_equal (a : Prog.t) (b : Prog.t) =
  let fa = Prog.funcs_in_order a and fb = Prog.funcs_in_order b in
  List.length fa = List.length fb
  && a.Prog.entry = b.Prog.entry
  && a.Prog.data_bytes = b.Prog.data_bytes
  && List.for_all2
       (fun (x : Prog.func) (y : Prog.func) ->
         x.Prog.name = y.Prog.name
         && x.Prog.nparams = y.Prog.nparams
         && x.Prog.code_id = y.Prog.code_id
         && Array.length x.Prog.blocks = Array.length y.Prog.blocks
         && Array.for_all2
              (fun (bx : Prog.block) (by : Prog.block) ->
                bx.Prog.label = by.Prog.label && bx.Prog.ops = by.Prog.ops)
              x.Prog.blocks y.Prog.blocks)
       fa fb

let test_asm_roundtrip_fact () =
  let p = fact_prog 5 in
  let text = Asm.to_string p in
  let p' = Asm.parse text in
  Alcotest.(check bool) "round trip" true (structurally_equal p p');
  (* and it still runs *)
  let r = Ssp_sim.Funcsim.run p' in
  Alcotest.(check (list int64)) "5! = 120" [ 120L ] r.Ssp_sim.Funcsim.outputs

let test_asm_parse_op () =
  let cases =
    [
      "movi r32, -5";
      "add r40, r41, r42";
      "subi r40, r41, 7";
      "cmp.lt r33, r34, r32";
      "cmpi.ge r33, r34, 100";
      "ld8 r36, [r34+0]";
      "st4 [r33-8], r32";
      "lfetch [r38+24]";
      "brnz r33, somewhere";
      "call fact/1";
      "icall r5/2";
      "chk.c stub_1";
      "spawn main:slice_1";
      "lib.st #3, r38";
      "lib.ld r32, #0";
      "alloc r32, r33";
      "kill";
      "halt";
    ]
  in
  List.iter
    (fun s ->
      let op = Asm.parse_op s in
      (* printing the parsed op must re-parse to the same op *)
      let s' = Ssp_isa.Op.to_string op in
      Alcotest.(check bool)
        (Printf.sprintf "print/parse fixpoint for %S" s)
        true
        (Asm.parse_op s' = op))
    cases

let test_asm_errors () =
  let bad =
    [
      "bogus r1, r2";
      "movi r999, 5";
      "ld8 r36, r34";
      "call fact";
      "lib.st 3, r38";
    ]
  in
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Printf.sprintf "rejects %S" s)
        true
        (match Asm.parse_op s with
        | _ -> false
        | exception Asm.Error _ -> true))
    bad;
  (* whole-program errors *)
  Alcotest.(check bool) "missing entry" true
    (match Asm.parse "func f/0 @1 {\nentry:\n  halt\n}" with
    | _ -> false
    | exception Asm.Error _ -> true);
  (* A second definition is the parser's own error at its line, not
     [Prog.add_func]'s [Invalid_argument]. *)
  match
    Asm.parse
      "entry main\nfunc main/0 @1 {\nentry:\n  halt\n}\n\n\
       func main/0 @2 {\nentry:\n  halt\n}\n"
  with
  | _ -> Alcotest.fail "a function defined twice parsed"
  | exception Asm.Error (msg, line) ->
    Alcotest.(check string) "duplicate function" "function main defined twice"
      msg;
    Alcotest.(check int) "at its second definition" 7 line

let suite =
  suite
  @ [
      Alcotest.test_case "asm round-trip (fact)" `Quick test_asm_roundtrip_fact;
      Alcotest.test_case "asm op print/parse fixpoint" `Quick test_asm_parse_op;
      Alcotest.test_case "asm rejects malformed input" `Quick test_asm_errors;
    ]
