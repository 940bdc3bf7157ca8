(* Lexer, parser, pretty-printer and typechecker tests for Mini-C. *)

open Minic

let parse = Parser.parse
let parse_expr = Parser.parse_expr

(* ---- lexer ----------------------------------------------------------------- *)

let toks src = List.map fst (Lexer.tokenize src)

let test_lexer_basics () =
  Alcotest.(check int) "count" 6 (List.length (toks "int x = 42;"));
  match toks "int x = 42;" with
  | [ Lexer.KW_INT; IDENT "x"; EQ; INT 42L; SEMI; EOF ] -> ()
  | _ -> Alcotest.fail "unexpected token stream"

let test_lexer_ops () =
  match toks "a == b != c <= >= << >> && || += ++" with
  | [ Lexer.IDENT "a"; EQEQ; IDENT "b"; NE; IDENT "c"; LE; GE; SHL; SHR;
      AMPAMP; PIPEPIPE; PLUSEQ; PLUSPLUS; EOF ] -> ()
  | _ -> Alcotest.fail "operator lexing"

let test_lexer_literals () =
  (match toks {|'a' '\n' '\0' "hi\n" 0x10|} with
  | [ Lexer.CHARLIT 'a'; CHARLIT '\n'; CHARLIT '\000'; STRING "hi\n"; INT 16L; EOF ]
    -> ()
  | _ -> Alcotest.fail "literal lexing");
  match toks "critical char" with
  | [ Lexer.KW_CRITICAL; KW_CHAR; EOF ] -> ()
  | _ -> Alcotest.fail "keyword lexing"

let test_lexer_comments () =
  match toks "a // line comment\n b /* block \n comment */ c" with
  | [ Lexer.IDENT "a"; IDENT "b"; IDENT "c"; EOF ] -> ()
  | _ -> Alcotest.fail "comments not skipped"

let test_lexer_errors () =
  (match Lexer.tokenize "@" with
  | exception Lexer.Error (1, _) -> ()
  | _ -> Alcotest.fail "expected error");
  match Lexer.tokenize "\n\n\"unterminated" with
  | exception Lexer.Error (3, _) -> ()
  | _ -> Alcotest.fail "expected error with line number"

(* ---- parser ----------------------------------------------------------------- *)

let test_parse_precedence () =
  match parse_expr "1 + 2 * 3" with
  | Ast.Ebinop (Ast.Add, Ast.Eint 1L, Ast.Ebinop (Ast.Mul, Ast.Eint 2L, Ast.Eint 3L))
    -> ()
  | _ -> Alcotest.fail "precedence"

let test_parse_associativity () =
  match parse_expr "10 - 3 - 2" with
  | Ast.Ebinop (Ast.Sub, Ast.Ebinop (Ast.Sub, Ast.Eint 10L, Ast.Eint 3L), Ast.Eint 2L)
    -> ()
  | _ -> Alcotest.fail "left associativity"

let test_parse_logical_layers () =
  match parse_expr "a || b && c" with
  | Ast.Ebinop (Ast.Lor, Ast.Evar "a", Ast.Ebinop (Ast.Land, Ast.Evar "b", Ast.Evar "c"))
    -> ()
  | _ -> Alcotest.fail "|| binds looser than &&"

let test_parse_unary_and_index () =
  match parse_expr "-a[i + 1]" with
  | Ast.Eunop (Ast.Neg, Ast.Eindex (Ast.Evar "a", Ast.Ebinop (Ast.Add, Ast.Evar "i", Ast.Eint 1L)))
    -> ()
  | _ -> Alcotest.fail "unary/index"

let test_parse_call_args () =
  match parse_expr "f(1, g(2), h())" with
  | Ast.Ecall ("f", [ Ast.Eint 1L; Ast.Ecall ("g", [ Ast.Eint 2L ]); Ast.Ecall ("h", []) ])
    -> ()
  | _ -> Alcotest.fail "call args"

let test_parse_program_shape () =
  let p =
    parse
      {|
int g = 5;
char name[10];

int helper(int a, char *s) {
  return a;
}

int main() {
  critical int secret;
  int i;
  for (i = 0; i < 10; i++) {
    secret = i;
  }
  do { i--; } while (i > 0);
  return helper(g, name);
}
|}
  in
  Alcotest.(check int) "globals" 2 (List.length p.Ast.globals);
  Alcotest.(check int) "functions" 2 (List.length p.Ast.funcs);
  let main = Option.get (Ast.find_func p "main") in
  let decls = Typecheck.block_decls main.Ast.f_body in
  Alcotest.(check int) "locals" 2 (List.length decls);
  Alcotest.(check bool) "critical flag" true
    (List.exists (fun d -> d.Ast.d_critical && d.Ast.d_name = "secret") decls)

let test_parse_for_decl () =
  let p = parse "int main() { int s = 0; for (int i = 0; i < 4; i++) { s += i; } return s; }" in
  let main = Option.get (Ast.find_func p "main") in
  (match
     List.find_opt (function Ast.Sfor (Some (Ast.Sdecl _), _, _, _) -> true | _ -> false)
       main.Ast.f_body
   with
  | Some _ -> ()
  | None -> Alcotest.fail "for-decl not parsed as a declaration");
  (* scoping is function-flat: the loop variable is a normal local *)
  Alcotest.(check bool) "i visible" true (Typecheck.type_of_var p main "i" = Some Ast.Tint)

let test_parse_sugar () =
  let p = parse "int main() { int x; x = 0; x += 2; x -= 1; x++; x--; return x; }" in
  let main = Option.get (Ast.find_func p "main") in
  (* sugar desugars to plain assignments *)
  let assigns =
    List.filter (function Ast.Sassign _ -> true | _ -> false) main.Ast.f_body
  in
  Alcotest.(check int) "desugared" 5 (List.length assigns)

let test_parse_array_param_decays () =
  let p = parse "int f(char buf[]) { return buf[0]; } int main() { return 0; }" in
  let f = Option.get (Ast.find_func p "f") in
  match f.Ast.f_params with
  | [ ("buf", Ast.Tptr Ast.Tchar) ] -> ()
  | _ -> Alcotest.fail "array param should decay to pointer"

let test_parse_errors () =
  (match parse "int main() { return 1 }" with
  | exception Parser.Error (_, _) -> ()
  | _ -> Alcotest.fail "missing semicolon accepted");
  (match parse "int main() { 1 = 2; }" with
  | exception Parser.Error (_, _) -> ()
  | _ -> Alcotest.fail "assignment to literal accepted");
  match parse "critical int f() { return 0; }" with
  | exception Parser.Error (_, _) -> ()
  | _ -> Alcotest.fail "critical function accepted"

(* ---- pretty-printer roundtrip ------------------------------------------------ *)

let test_pretty_roundtrip_corpus () =
  (* every benchmark and victim program must round-trip through the
     pretty-printer *)
  let sources =
    List.map (fun b -> b.Workload.Spec.source) Workload.Spec.all
    @ [
        Workload.Vuln.fork_server_net ~buffer_size:16;
        Workload.Vuln.raf_correctness_probe;
        Workload.Vuln.leaky_server;
        Workload.Vuln.lv_stealth_victim;
      ]
    @ List.map
        (fun (p : Workload.Servers.profile) -> p.Workload.Servers.source)
        (Workload.Servers.web @ Workload.Servers.db)
  in
  List.iter
    (fun src ->
      let ast = parse src in
      let printed = Pretty.program_to_string ast in
      let reparsed = parse printed in
      if reparsed <> ast then
        Alcotest.fail ("pretty-print roundtrip failed for:\n" ^ printed))
    sources;
  Alcotest.(check bool) "all round-tripped" true (List.length sources > 30)

let test_pretty_expr () =
  Alcotest.(check string) "parens where needed" "(1 + 2) * 3"
    (Pretty.expr_to_string
       (Ast.Ebinop (Ast.Mul, Ast.Ebinop (Ast.Add, Ast.Eint 1L, Ast.Eint 2L), Ast.Eint 3L)));
  Alcotest.(check string) "no spurious parens" "1 + 2 * 3"
    (Pretty.expr_to_string (parse_expr "1 + 2 * 3"))

(* ---- typechecker -------------------------------------------------------------- *)

let expect_error src =
  match Typecheck.check (parse src) with
  | exception Typecheck.Error _ -> ()
  | _ -> Alcotest.fail ("typecheck accepted: " ^ src)

let expect_ok src =
  match Typecheck.check (parse src) with
  | _ -> ()
  | exception Typecheck.Error msg -> Alcotest.fail ("typecheck rejected: " ^ msg)

let test_typecheck_accepts_suite () =
  List.iter (fun b -> expect_ok b.Workload.Spec.source) Workload.Spec.all

let test_typecheck_unknown_var () =
  expect_error "int main() { return nope; }"

let test_typecheck_unknown_function () =
  expect_error "int main() { return mystery(); }"

let test_typecheck_arity () =
  expect_error "int f(int a) { return a; } int main() { return f(1, 2); }";
  expect_error "int main() { return strlen(); }"

let test_typecheck_builtin_known () =
  expect_ok {|int main() { char b[8]; strcpy(b, "x"); return strlen(b); }|}

let test_typecheck_index_scalar () =
  expect_error "int main() { int x; return x[0]; }"

let test_typecheck_assign_array () =
  expect_error "int main() { char b[4]; b = 0; return 0; }"

let test_typecheck_break_outside_loop () =
  expect_error "int main() { break; return 0; }";
  expect_error "int main() { continue; return 0; }"

let test_typecheck_duplicates () =
  expect_error "int main() { int x; int x; return 0; }";
  expect_error "int f(int a, int a) { return a; } int main() { return 0; }";
  expect_error "int g; int g; int main() { return 0; }"

let test_typecheck_missing_main () =
  expect_error "int f() { return 0; }"

let test_typecheck_critical_global () =
  expect_error "critical int g; int main() { return 0; }"

let test_typecheck_redefine_builtin () =
  expect_error "int strlen(int x) { return x; } int main() { return 0; }"

let test_typecheck_array_initialiser () =
  expect_error "int main() { char b[4] = 1; return 0; }"

let test_type_of_var_scoping () =
  let p = parse "int g; int f(int a) { int l; l = a; return l; } int main() { return 0; }" in
  let f = Option.get (Ast.find_func p "f") in
  Alcotest.(check bool) "param" true (Typecheck.type_of_var p f "a" = Some Ast.Tint);
  Alcotest.(check bool) "local" true (Typecheck.type_of_var p f "l" = Some Ast.Tint);
  Alcotest.(check bool) "global" true (Typecheck.type_of_var p f "g" = Some Ast.Tint);
  Alcotest.(check bool) "unknown" true (Typecheck.type_of_var p f "zzz" = None)

(* ---- constant folding --------------------------------------------------------- *)

let test_fold_arithmetic () =
  let f src = Pretty.expr_to_string (Fold.expr (parse_expr src)) in
  Alcotest.(check string) "arith" "9" (f "2 + 3 * 4 - 10 / 2");
  Alcotest.(check string) "comparisons" "1" (f "3 < 4");
  Alcotest.(check string) "logic" "0" (f "1 && 0");
  Alcotest.(check string) "shift masks like hardware" "2" (f "1 << 65");
  Alcotest.(check string) "unary" "-5" (f "-(2 + 3)");
  Alcotest.(check string) "char literals" "97" (f "'a' + 0")

let test_fold_preserves_div_by_zero () =
  match Fold.expr (parse_expr "1 / 0") with
  | Ast.Ebinop (Ast.Div, Ast.Eint 1L, Ast.Eint 0L) -> ()
  | _ -> Alcotest.fail "division by zero must not be folded away"

let test_fold_keeps_nonliteral () =
  match Fold.expr (parse_expr "x + (2 * 3)") with
  | Ast.Ebinop (Ast.Add, Ast.Evar "x", Ast.Eint 6L) -> ()
  | _ -> Alcotest.fail "partial folding"

let test_fold_dead_branch_keeps_decls () =
  let p =
    parse
      {|
int main() {
  if (0) {
    int ghost = 5;
    print_int(ghost);
  }
  ghost = 7;
  return ghost;
}
|}
  in
  let folded = Fold.program p in
  (* still typechecks: ghost's declaration survived the dead branch *)
  ignore (Typecheck.check folded);
  (* and the print inside the dead branch is gone *)
  let main = Option.get (Ast.find_func folded "main") in
  let rec has_call block =
    List.exists
      (function
        | Ast.Sexpr (Ast.Ecall ("print_int", _)) -> true
        | Ast.Sblock b | Ast.Swhile (_, b) -> has_call b
        | Ast.Sif (_, a, b) -> has_call a || has_call b
        | _ -> false)
      block
  in
  Alcotest.(check bool) "dead call removed" false (has_call main.Ast.f_body)

let test_fold_dead_while () =
  let p = parse "int main() { while (1 - 1) { print_int(1); } return 0; }" in
  let folded = Fold.program p in
  let main = Option.get (Ast.find_func folded "main") in
  Alcotest.(check bool) "loop removed" false
    (List.exists (function Ast.Swhile _ -> true | _ -> false) main.Ast.f_body)

(* ---- ast helpers ---------------------------------------------------------------- *)

let test_sizeof () =
  Alcotest.(check int) "int" 8 (Ast.sizeof Ast.Tint);
  Alcotest.(check int) "char" 1 (Ast.sizeof Ast.Tchar);
  Alcotest.(check int) "ptr" 8 (Ast.sizeof (Ast.Tptr Ast.Tchar));
  Alcotest.(check int) "array" 24 (Ast.sizeof (Ast.Tarray (Ast.Tint, 3)))

let test_elem_size () =
  Alcotest.(check int) "char array" 1 (Ast.elem_size (Ast.Tarray (Ast.Tchar, 4)));
  Alcotest.(check int) "int ptr" 8 (Ast.elem_size (Ast.Tptr Ast.Tint));
  match Ast.elem_size Ast.Tint with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "scalar should not be indexable"

let () =
  Alcotest.run "minic"
    [
      ( "lexer",
        [
          Alcotest.test_case "basics" `Quick test_lexer_basics;
          Alcotest.test_case "operators" `Quick test_lexer_ops;
          Alcotest.test_case "literals" `Quick test_lexer_literals;
          Alcotest.test_case "comments" `Quick test_lexer_comments;
          Alcotest.test_case "errors with lines" `Quick test_lexer_errors;
        ] );
      ( "parser",
        [
          Alcotest.test_case "precedence" `Quick test_parse_precedence;
          Alcotest.test_case "associativity" `Quick test_parse_associativity;
          Alcotest.test_case "logical layers" `Quick test_parse_logical_layers;
          Alcotest.test_case "unary/index" `Quick test_parse_unary_and_index;
          Alcotest.test_case "call args" `Quick test_parse_call_args;
          Alcotest.test_case "program shape" `Quick test_parse_program_shape;
          Alcotest.test_case "for-decl" `Quick test_parse_for_decl;
          Alcotest.test_case "sugar desugars" `Quick test_parse_sugar;
          Alcotest.test_case "array param decays" `Quick test_parse_array_param_decays;
          Alcotest.test_case "errors" `Quick test_parse_errors;
        ] );
      ( "pretty",
        [
          Alcotest.test_case "corpus roundtrip" `Quick test_pretty_roundtrip_corpus;
          Alcotest.test_case "expr forms" `Quick test_pretty_expr;
        ] );
      ( "typecheck",
        [
          Alcotest.test_case "accepts the suite" `Quick test_typecheck_accepts_suite;
          Alcotest.test_case "unknown variable" `Quick test_typecheck_unknown_var;
          Alcotest.test_case "unknown function" `Quick test_typecheck_unknown_function;
          Alcotest.test_case "arity" `Quick test_typecheck_arity;
          Alcotest.test_case "builtins known" `Quick test_typecheck_builtin_known;
          Alcotest.test_case "indexing scalars" `Quick test_typecheck_index_scalar;
          Alcotest.test_case "assigning arrays" `Quick test_typecheck_assign_array;
          Alcotest.test_case "break placement" `Quick test_typecheck_break_outside_loop;
          Alcotest.test_case "duplicates" `Quick test_typecheck_duplicates;
          Alcotest.test_case "missing main" `Quick test_typecheck_missing_main;
          Alcotest.test_case "critical global" `Quick test_typecheck_critical_global;
          Alcotest.test_case "redefining builtins" `Quick test_typecheck_redefine_builtin;
          Alcotest.test_case "array initialiser" `Quick test_typecheck_array_initialiser;
          Alcotest.test_case "type_of_var scoping" `Quick test_type_of_var_scoping;
        ] );
      ( "fold",
        [
          Alcotest.test_case "arithmetic" `Quick test_fold_arithmetic;
          Alcotest.test_case "div-by-zero preserved" `Quick test_fold_preserves_div_by_zero;
          Alcotest.test_case "partial folding" `Quick test_fold_keeps_nonliteral;
          Alcotest.test_case "dead branch keeps decls" `Quick
            test_fold_dead_branch_keeps_decls;
          Alcotest.test_case "dead while removed" `Quick test_fold_dead_while;
        ] );
      ( "ast",
        [
          Alcotest.test_case "sizeof" `Quick test_sizeof;
          Alcotest.test_case "elem_size" `Quick test_elem_size;
        ] );
    ]
