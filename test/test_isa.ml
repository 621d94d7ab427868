open Ssp_isa

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_reg_conventions () =
  check_int "zero" 0 Reg.zero;
  check_int "sp" 1 Reg.sp;
  check_int "arg0" 8 (Reg.arg 0);
  check_int "arg7" 15 (Reg.arg 7);
  check_bool "arg out of range" true
    (try
       ignore (Reg.arg 8);
       false
     with Invalid_argument _ -> true);
  check_bool "r32 stacked" true (Reg.is_stacked 32);
  check_bool "r31 static" true (Reg.is_static 31);
  check_bool "r128 invalid" false (Reg.is_valid 128)

let test_defs_uses () =
  let open Op in
  Alcotest.(check (list int)) "alu defs" [ 40 ] (defs (Alu (Add, 40, 41, 42)));
  Alcotest.(check (list int)) "alu uses" [ 41; 42 ] (uses (Alu (Add, 40, 41, 42)));
  Alcotest.(check (list int)) "r0 write dropped" [] (defs (Movi (0, 5L)));
  Alcotest.(check (list int)) "r0 read dropped" [] (uses (Mov (40, 0)));
  Alcotest.(check (list int)) "store defs nothing" [] (defs (Store (W8, 40, 41, 0)));
  Alcotest.(check (list int)) "store uses" [ 40; 41 ] (uses (Store (W8, 40, 41, 0)));
  Alcotest.(check (list int)) "call clobbers args" [ 8; 9; 10; 11; 12; 13; 14; 15 ]
    (defs (Call ("f", 2)));
  Alcotest.(check (list int)) "call uses its args" [ 8; 9 ] (uses (Call ("f", 2)));
  Alcotest.(check (list int)) "ret uses r8" [ 8 ] (uses Ret);
  Alcotest.(check (list int)) "lib.ld defs" [ 40 ] (defs (Lib_ld (40, 0)))

let test_classification () =
  let open Op in
  check_bool "br is control" true (is_control (Br "x"));
  check_bool "br is terminator" true (is_terminator (Br "x"));
  check_bool "brnz not terminator" false (is_terminator (Brnz (40, "x")));
  check_bool "call control, not terminator" true
    (is_control (Call ("f", 0)) && not (is_terminator (Call ("f", 0))));
  check_bool "load" true (is_load (Load (W8, 40, 41, 0)));
  check_bool "chk.c no branch targets" true (branch_targets (Chk_c "s") = [])

let test_eval () =
  let open Op in
  Alcotest.(check int64) "add" 7L (alu_eval Add 3L 4L);
  Alcotest.(check int64) "div0" 0L (alu_eval Div 3L 0L);
  Alcotest.(check int64) "shl" 8L (alu_eval Shl 1L 3L);
  Alcotest.(check int64) "shr sign" (-1L) (alu_eval Shr (-2L) 1L);
  check_bool "lt signed" true (cmp_eval Lt (-1L) 0L);
  check_bool "ge" true (cmp_eval Ge 5L 5L)

let test_bundles () =
  let open Op in
  let ops = [| Nop; Nop; Nop; Nop |] in
  let bs = Bundle.of_block ops in
  check_int "two bundles" 2 (List.length bs);
  (match bs with
  | [ a; b ] ->
    check_int "first len" 3 a.Bundle.len;
    check_int "second len" 1 b.Bundle.len
  | _ -> Alcotest.fail "expected 2 bundles");
  (* A branch ends its bundle early. *)
  let ops = [| Nop; Br "x"; Nop |] in
  (match Bundle.of_block ops with
  | [ a; b ] ->
    check_int "branch bundle len" 2 a.Bundle.len;
    check_int "tail" 1 b.Bundle.len
  | _ -> Alcotest.fail "expected 2 bundles");
  check_int "empty block" 0 (Bundle.count_of_block [||])

let prop_bundle_cover =
  QCheck.Test.make ~name:"bundles cover the block exactly once" ~count:200
    QCheck.(list_of_size Gen.(0 -- 40) (QCheck.make (QCheck.Gen.oneofl
      Op.[ Nop; Movi (40, 1L); Br "x"; Ret; Load (W8, 40, 41, 0) ])))
    (fun ops ->
      let arr = Array.of_list ops in
      let bs = Bundle.of_block arr in
      let covered = List.fold_left (fun acc b -> acc + b.Bundle.len) 0 bs in
      let contiguous =
        let rec go pos = function
          | [] -> pos = Array.length arr
          | b :: rest -> b.Bundle.start = pos && go (pos + b.Bundle.len) rest
        in
        go 0 bs
      in
      covered = Array.length arr && contiguous
      && List.for_all (fun b -> b.Bundle.len >= 1 && b.Bundle.len <= 3) bs)

(* The printer appends integers digit by digit; its bytes must be
   [string_of_int]'s and [Int64.to_string]'s, which every store key and
   served binary was printed with. *)
let printed add v =
  let b = Buffer.create 24 in
  add b v;
  Buffer.contents b

let test_integer_text () =
  List.iter
    (fun n ->
      Alcotest.(check string) "num" (string_of_int n) (printed Op.num n))
    [ 0; 1; -1; 9; -9; 10; -10; max_int; min_int ];
  List.iter
    (fun i ->
      Alcotest.(check string) "imm" (Int64.to_string i) (printed Op.imm i))
    [ 0L; 1L; -1L; 9L; -9L; 10L; -10L; Int64.of_int max_int;
      Int64.of_int min_int; Int64.succ (Int64.of_int max_int);
      Int64.pred (Int64.of_int min_int); Int64.max_int; Int64.min_int ]

let prop_integer_text =
  QCheck.Test.make ~name:"integers print as string_of_int and Int64.to_string"
    ~count:2000
    QCheck.(pair int int64)
    (fun (n, i) ->
      String.equal (string_of_int n) (printed Op.num n)
      && String.equal (Int64.to_string i) (printed Op.imm i))

let suite =
  [
    Alcotest.test_case "register conventions" `Quick test_reg_conventions;
    Alcotest.test_case "defs and uses" `Quick test_defs_uses;
    Alcotest.test_case "classification" `Quick test_classification;
    Alcotest.test_case "evaluation" `Quick test_eval;
    Alcotest.test_case "bundle formation" `Quick test_bundles;
    QCheck_alcotest.to_alcotest prop_bundle_cover;
    Alcotest.test_case "integer text" `Quick test_integer_text;
    QCheck_alcotest.to_alcotest prop_integer_text;
  ]
