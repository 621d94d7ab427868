open Ssp_minic

let run_and_outputs src =
  let prog = Frontend.compile src in
  (Ssp_sim.Funcsim.run prog).Ssp_sim.Funcsim.outputs

let check_outputs name src expected =
  Alcotest.(check (list int64)) name expected (run_and_outputs src)

let test_arith () =
  check_outputs "arith"
    "int main() { print_int(2 + 3 * 4); print_int((2 + 3) * 4); print_int(7 \
     / 2); print_int(7 % 2); print_int(1 << 5); print_int(-8 >> 2); return \
     0; }"
    [ 14L; 20L; 3L; 1L; 32L; -2L ]

let test_logic () =
  check_outputs "short circuit"
    "int die() { print_int(666); return 1; }\n\
     int main() { if (0 && die()) { print_int(1); } if (1 || die()) { \
     print_int(2); } print_int(1 && 2); print_int(!5); return 0; }"
    [ 2L; 1L; 0L ]

let test_control_flow () =
  check_outputs "loops and break/continue"
    "int main() { int s = 0; for (int i = 0; i < 10; i = i + 1) { if (i == \
     3) { continue; } if (i == 7) { break; } s = s + i; } print_int(s); int \
     j = 0; while (j < 5) { j = j + 1; } print_int(j); return 0; }"
    [ 18L; 5L ]

let test_recursion () =
  check_outputs "fibonacci"
    "int fib(int n) { if (n <= 1) { return n; } return fib(n - 1) + fib(n - \
     2); }\n\
     int main() { print_int(fib(15)); return 0; }"
    [ 610L ]

let test_structs_and_lists () =
  check_outputs "linked list"
    "struct node { int value; node* next; }\n\
     int sum(node* l) { int s = 0; while (l != null) { s = s + l->value; l \
     = l->next; } return s; }\n\
     int main() { node* head = null; for (int i = 1; i <= 10; i = i + 1) { \
     node* n = new node; n->value = i; n->next = head; head = n; } \
     print_int(sum(head)); return 0; }"
    [ 55L ]

let test_arrays () =
  check_outputs "heap arrays"
    "int main() { int* a = newarray(int, 10); for (int i = 0; i < 10; i = i \
     + 1) { a[i] = i * i; } int s = 0; for (int i = 0; i < 10; i = i + 1) { \
     s = s + a[i]; } print_int(s); return 0; }"
    [ 285L ]

let test_globals () =
  check_outputs "globals and global arrays"
    "int counter;\n\
     int table[4];\n\
     void bump() { counter = counter + 1; }\n\
     int main() { bump(); bump(); bump(); print_int(counter); table[2] = \
     42; print_int(table[2]); int* p = table; print_int(p[2]); return 0; }"
    [ 3L; 42L; 42L ]

let test_pointer_arith () =
  check_outputs "struct pointer arithmetic"
    "struct pair { int a; int b; }\n\
     int main() { pair* ps = newarray(pair, 4); pair* p = ps + 2; p->a = 7; \
     p->b = 9; pair* q = ps + 2; print_int(q->a + q->b); \
     print_int(sizeof(pair)); return 0; }"
    [ 16L; 16L ]

let test_fnptr () =
  check_outputs "indirect calls"
    "int double_it(int x) { return x * 2; }\n\
     int triple_it(int x) { return x * 3; }\n\
     int apply(fnptr f, int x) { return f(x); }\n\
     int main() { print_int(apply(&double_it, 21)); \
     print_int(apply(&triple_it, 5)); return 0; }"
    [ 42L; 15L ]

let test_tree () =
  check_outputs "binary tree build + dfs sum"
    "struct tree { int value; tree* left; tree* right; }\n\
     tree* build(int depth) { tree* t = new tree; t->value = 1; if (depth > \
     0) { t->left = build(depth - 1); t->right = build(depth - 1); } else { \
     t->left = null; t->right = null; } return t; }\n\
     int total(tree* t) { if (t == null) { return 0; } return t->value + \
     total(t->left) + total(t->right); }\n\
     int main() { print_int(total(build(6))); return 0; }"
    [ 127L ]

let test_rand_deterministic () =
  let src =
    "int main() { print_int(rand() % 1000); print_int(rand() % 1000); \
     return 0; }"
  in
  let a = run_and_outputs src in
  let b = run_and_outputs src in
  Alcotest.(check (list int64)) "deterministic prng" a b;
  Alcotest.(check bool) "values in range" true
    (List.for_all
       (fun v -> Int64.compare v 0L >= 0 && Int64.compare v 1000L < 0)
       a)

let expect_frontend_error name src =
  Alcotest.test_case name `Quick (fun () ->
      match Frontend.compile src with
      | _ -> Alcotest.failf "%s: expected a frontend error" name
      | exception Frontend.Error _ -> ())

let error_cases =
  [
    expect_frontend_error "unbound variable" "int main() { return x; }";
    expect_frontend_error "bad field"
      "struct s { int a; } int main() { s* p = new s; return p->b; }";
    expect_frontend_error "arity mismatch"
      "int f(int a, int b) { return a; } int main() { return f(1); }";
    expect_frontend_error "assigning int to pointer"
      "struct s { int a; } int main() { s* p = 5; return 0; }";
    expect_frontend_error "void as value"
      "void f() { return; } int main() { return f(); }";
    expect_frontend_error "break outside loop"
      "int main() { break; return 0; }";
    expect_frontend_error "unterminated comment" "int main() { /* oops ";
    expect_frontend_error "syntax error" "int main() { int = 4; }";
    expect_frontend_error "struct by value"
      "struct s { int a; } int main() { s x; return 0; }";
    expect_frontend_error "redeclaration"
      "int main() { int x = 1; int x = 2; return x; }";
    expect_frontend_error "no main" "int f() { return 1; }";
  ]

(* A literal beyond int64 is a lexical error at its position, so sspc
   exits 2 on it as on any bad input; the largest one still compiles. *)
let test_literal_range () =
  check_outputs "largest literal"
    "int main() { print_int(9223372036854775807); return 0; }"
    [ Int64.max_int ];
  let src = "int main() { print_int(99999999999999999999999); return 0; }" in
  (match Frontend.compile src with
  | _ -> Alcotest.fail "an out-of-range literal compiled"
  | exception Frontend.Error msg ->
    Alcotest.(check string) "lexical error at the literal"
      "1:24: lexical error: integer literal 99999999999999999999999 out of \
       range"
      msg);
  let file = Filename.temp_file "sspc_literal" ".mc" in
  Out_channel.with_open_bin file (fun oc -> output_string oc src);
  let code =
    Sys.command
      (Printf.sprintf "%s run %s >/dev/null 2>&1" Test_fault.sspc
         (Filename.quote file))
  in
  Sys.remove file;
  Alcotest.(check int) "sspc run exits 2" 2 code

let suite =
  [
    Alcotest.test_case "arithmetic" `Quick test_arith;
    Alcotest.test_case "short-circuit logic" `Quick test_logic;
    Alcotest.test_case "control flow" `Quick test_control_flow;
    Alcotest.test_case "recursion" `Quick test_recursion;
    Alcotest.test_case "structs and lists" `Quick test_structs_and_lists;
    Alcotest.test_case "arrays" `Quick test_arrays;
    Alcotest.test_case "globals" `Quick test_globals;
    Alcotest.test_case "pointer arithmetic" `Quick test_pointer_arith;
    Alcotest.test_case "function pointers" `Quick test_fnptr;
    Alcotest.test_case "trees" `Quick test_tree;
    Alcotest.test_case "rand determinism" `Quick test_rand_deterministic;
    Alcotest.test_case "integer literal range" `Quick test_literal_range;
  ]
  @ error_cases
