(* Experiment-level integration tests: each table/figure generator must
   reproduce the paper's qualitative result (small budgets for speed;
   the full-scale numbers come from bench/main.exe). *)

let test_table5_shape () =
  (* Table V's ordering: P-SSP tiny; OWF < NT < LV(4) ; LV(2) close to NT *)
  let cost scheme criticals = Harness.Table5.measure_scheme ~calls:3000 scheme ~criticals in
  let pssp = cost Pssp.Scheme.Pssp 0 in
  let nt = cost Pssp.Scheme.Pssp_nt 0 in
  let lv2 = cost (Pssp.Scheme.Pssp_lv 1) 1 in
  let lv4 = cost (Pssp.Scheme.Pssp_lv 3) 3 in
  let owf = cost Pssp.Scheme.Pssp_owf 0 in
  Alcotest.(check bool) "P-SSP is cheap (paper: 6)" true (pssp > 2.0 && pssp < 20.0);
  Alcotest.(check bool) "NT ~ one rdrand (paper: 343)" true (nt > 250.0 && nt < 450.0);
  Alcotest.(check bool) "LV2 ~ NT (paper: 343)" true (abs_float (lv2 -. nt) < 60.0);
  Alcotest.(check bool) "LV4 ~ 3x rdrand (paper: 986)" true
    (lv4 > 2.5 *. nt && lv4 < 3.5 *. nt);
  Alcotest.(check bool) "OWF ~ two AES (paper: 278)" true (owf > 180.0 && owf < 400.0)

let test_fig5_subset () =
  let benches = List.filteri (fun i _ -> i < 3) Workload.Spec.all in
  let r = Harness.Fig5.run ~benches () in
  Alcotest.(check int) "three rows" 3 (List.length r.Harness.Fig5.rows);
  List.iter
    (fun row ->
      Alcotest.(check bool) "overheads are small and non-negative" true
        (row.Harness.Fig5.compiler_pct >= -0.5 && row.Harness.Fig5.compiler_pct < 10.0))
    r.Harness.Fig5.rows

let test_parallel_runs_deterministic () =
  (* serial and parallel campaigns must emit byte-identical tables *)
  let benches = List.filteri (fun i _ -> i < 3) Workload.Spec.all in
  let render_fig5 jobs =
    Util.Table.render (Harness.Fig5.to_table (Harness.Fig5.run ~jobs ~benches ()))
  in
  Alcotest.(check string) "Fig 5: jobs=2 = jobs=1" (render_fig5 1) (render_fig5 2);
  let render_t5 jobs =
    Util.Table.render (Harness.Table5.to_table (Harness.Table5.run ~jobs ~calls:2000 ()))
  in
  Alcotest.(check string) "Table V: jobs=3 = jobs=1" (render_t5 1) (render_t5 3);
  (* one baseline run per victim serves all its rows: each row still
     reads what measuring it alone reads, for every victim *)
  let rows = (Harness.Table5.run ~calls:2000 ()).Harness.Table5.rows in
  List.iter
    (fun (label, scheme, criticals) ->
      let row = List.find (fun r -> r.Harness.Table5.label = label) rows in
      Alcotest.(check (float 0.0)) label
        (Harness.Table5.measure_scheme ~calls:2000 scheme ~criticals)
        row.Harness.Table5.cycles)
    [
      ("P-SSP", Pssp.Scheme.Pssp, 0);
      ("P-SSP-LV (2 variables)", Pssp.Scheme.Pssp_lv 1, 1);
      ("P-SSP-LV (4 variables)", Pssp.Scheme.Pssp_lv 3, 3);
    ]

let test_table2_invariants () =
  let benches = List.filteri (fun i _ -> i < 4) Workload.Spec.all in
  let r = Harness.Table2.run ~benches () in
  List.iter
    (fun row ->
      Alcotest.(check bool) "dynamic instrumentation adds 0 bytes" true
        (row.Harness.Table2.instr_dynamic_pct = 0.0);
      Alcotest.(check bool) "compiler expansion positive, small" true
        (row.Harness.Table2.compiler_pct > 0.0 && row.Harness.Table2.compiler_pct < 10.0);
      Alcotest.(check bool) "static expansion largest" true
        (row.Harness.Table2.instr_static_pct > row.Harness.Table2.compiler_pct))
    r.Harness.Table2.rows

let test_compat_all_pass () =
  let r = Harness.Compat.run () in
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (s.Harness.Compat.scenario_name ^ " passes")
        true s.Harness.Compat.passed)
    r.Harness.Compat.scenarios

let test_theorem1 () =
  let r = Harness.Theorem1.run ~samples:20_000 () in
  Alcotest.(check bool) "C1 uniform" true r.Harness.Theorem1.uniform;
  Alcotest.(check bool) "C1 independent of C" true r.Harness.Theorem1.invariant

let test_theorem1_machine () =
  let r = Harness.Theorem1.run_machine ~children:600 () in
  Alcotest.(check int) "all pairs consistent" r.Harness.Theorem1.children
    r.Harness.Theorem1.consistent;
  Alcotest.(check bool) "pairs re-randomized" true
    (r.Harness.Theorem1.distinct_pairs > r.Harness.Theorem1.children * 9 / 10);
  Alcotest.(check bool) "C never changes" true r.Harness.Theorem1.c_stable

let test_exposure () =
  let hijacked_pssp, _ = Harness.Exposure.attack_with_leak Pssp.Scheme.Pssp in
  let hijacked_owf, _ = Harness.Exposure.attack_with_leak Pssp.Scheme.Pssp_owf in
  Alcotest.(check bool) "leak breaks P-SSP across frames" true hijacked_pssp;
  Alcotest.(check bool) "leak does not transfer under OWF" false hijacked_owf

let test_effectiveness_ssp_falls () =
  let broken, trials, _ =
    Harness.Effectiveness.attack_server ~budget:4000
      (Harness.Effectiveness.Scheme Pssp.Scheme.Ssp) ~buffer_size:16
  in
  Alcotest.(check bool) "SSP broken" true broken;
  Alcotest.(check bool) "~1024 trials" true (trials > 200 && trials < 3000)

let test_effectiveness_pssp_holds () =
  List.iter
    (fun target ->
      let broken, _, _ =
        Harness.Effectiveness.attack_server ~budget:2500 target ~buffer_size:16
      in
      Alcotest.(check bool) "resists" false broken)
    [
      Harness.Effectiveness.Scheme Pssp.Scheme.Pssp;
      Harness.Effectiveness.Scheme Pssp.Scheme.Pssp_nt;
      Harness.Effectiveness.Instrumented;
    ]

(* ---- pinned byte-by-byte outcomes for the defense families ---------------- *)

let test_effectiveness_shadow_detects_without_canary () =
  (* shadow stacks put no canary on the frame (canary_len = 0), so the
     attack has nothing to disclose: every hijack probe trips the
     epilogue's return-address check, burning a restart each time *)
  List.iter
    (fun scheme ->
      let broken, _, restarts =
        Harness.Effectiveness.attack_server ~budget:400
          (Harness.Effectiveness.Scheme scheme) ~buffer_size:16
      in
      Alcotest.(check bool) (Pssp.Scheme.name scheme ^ " resists") false broken;
      Alcotest.(check bool)
        (Pssp.Scheme.name scheme ^ " detected without canary")
        true (restarts > 0))
    [ Pssp.Scheme.Shadow_compact; Pssp.Scheme.Shadow_parallel ]

let test_effectiveness_pac_no_fork_transfer () =
  (* the PAC prologue signs a fresh random draw per call, so a canary
     byte disclosed in one forked child is stale in the next — the
     attack never accumulates a prefix *)
  let broken, _, _ =
    Harness.Effectiveness.attack_server ~budget:2500
      (Harness.Effectiveness.Scheme Pssp.Scheme.Pac_canary) ~buffer_size:16
  in
  Alcotest.(check bool) "pac-canary resists" false broken

let test_wasm_ssp_detects_only_at_epilogue () =
  (* the same wild write that traps mid-copy under ssp (SIGSEGV at the
     unmapped page past stack_top) lands silently under wasm-ssp and is
     caught only by the epilogue canary check (SIGABRT) *)
  let long_payload = Bytes.make 5000 'A' in
  let crash scheme =
    let image =
      Mcc.Driver.compile ~scheme
        (Minic.Parser.parse (Workload.Vuln.fork_server_net ~buffer_size:16))
    in
    let oracle =
      Attack.Oracle.create ~preload:(Mcc.Driver.preload_for scheme) image
    in
    match Attack.Oracle.query oracle long_payload with
    | Attack.Oracle.Crashed (s, _) -> Os.Process.signal_name s
    | Attack.Oracle.Survived _ -> "survived"
    | Attack.Oracle.Server_down _ -> "server-down"
  in
  Alcotest.(check string) "ssp traps mid-write" "SIGSEGV" (crash Pssp.Scheme.Ssp);
  Alcotest.(check string) "wasm-ssp detects only at the epilogue" "SIGABRT"
    (crash Pssp.Scheme.Wasm_ssp)

let test_ablation_families () =
  (* the family cells of the ablation grid: outcome + guard layout *)
  let shadow = Harness.Ablation.family_cell ~budget:400 Pssp.Scheme.Shadow_compact in
  Alcotest.(check bool) "shadow-compact resists" false
    shadow.Harness.Ablation.fam_broken;
  Alcotest.(check int) "shadow-compact keeps the guard off-frame" 0
    shadow.Harness.Ablation.fam_guard_words;
  let pac = Harness.Ablation.family_cell ~budget:400 Pssp.Scheme.Pac_canary in
  Alcotest.(check bool) "pac-canary resists" false pac.Harness.Ablation.fam_broken;
  Alcotest.(check int) "pac-canary keeps SSP's one guard word" 1
    pac.Harness.Ablation.fam_guard_words;
  Alcotest.(check bool) "pac-canary costs cycles" true
    (pac.Harness.Ablation.fam_cycles_per_call > 0.0)

let test_threaded_server_attack () =
  (* threads clone the TLS exactly like fork (SII-B), so the attack story
     must carry over: threaded SSP falls, threaded P-SSP holds (the
     preload wraps pthread_create too, SV-A) *)
  let victim =
    {|
int handle(int fd) {
  char buf[16];
  read(fd, buf, 1024);
  write_str(fd, "OK\n");
  return 0;
}

int conn_worker(int fd) {
  handle(fd);
  close(fd);
  return 0;
}

int main() {
  int lfd;
  int fd;
  lfd = socket();
  bind(lfd, 8080);
  listen(lfd, 16);
  while (1) {
    fd = accept();
    if (fd < 0) {
      break;
    }
    pthread_create(&conn_worker, fd);
    close(fd);
    waitpid();
  }
  return 0;
}
|}
  in
  let attack scheme budget =
    let image = Mcc.Driver.compile ~scheme (Minic.Parser.parse victim) in
    let oracle = Attack.Oracle.create ~preload:(Mcc.Driver.preload_for scheme) image in
    let layout = Harness.Layouts.compiler_layout scheme ~buffer_size:16 in
    Attack.Byte_by_byte.run oracle ~layout ~max_trials:budget
  in
  (match attack Pssp.Scheme.Ssp 4000 with
  | Attack.Byte_by_byte.Broken _ -> ()
  | other ->
    Alcotest.failf "threaded SSP resisted: %s" (Attack.Byte_by_byte.outcome_to_string other));
  match attack Pssp.Scheme.Pssp 2500 with
  | Attack.Byte_by_byte.Exhausted _ -> ()
  | other ->
    Alcotest.failf "threaded P-SSP: %s" (Attack.Byte_by_byte.outcome_to_string other)

let test_ablation_nonce () =
  match Harness.Ablation.run_nonce ~budget:8000 () with
  | [ owf; weak ] ->
    Alcotest.(check bool) "OWF resists" false owf.Harness.Ablation.broken;
    Alcotest.(check bool) "no-nonce falls" true weak.Harness.Ablation.broken
  | _ -> Alcotest.fail "expected two rows"

let test_ablation_width_scaling () =
  let rows = Harness.Ablation.run_width ~widths:[ 8; 12 ] () in
  List.iter
    (fun r ->
      Alcotest.(check bool) "re-randomized cost within 16x of 2^(w-1)" true
        (float_of_int r.Harness.Ablation.rerand_trials
        < 16.0 *. r.Harness.Ablation.rerand_expected))
    rows

let test_ablation_global_buffer () =
  List.iter
    (fun r ->
      Alcotest.(check bool) "no false positives across fork trees" true
        r.Harness.Ablation.all_passed)
    (Harness.Ablation.run_global_buffer ())

let test_table1_rows () =
  (* tiny-budget variant: BROP column only, to keep the suite fast *)
  let r = Harness.Table1.run ~brop_budget:3000
      ~benches:(List.filteri (fun i _ -> i < 2) Workload.Spec.all) ()
  in
  let row scheme =
    List.find
      (fun (x : Harness.Table1.row) -> Pssp.Scheme.equal x.Harness.Table1.scheme scheme)
      r.Harness.Table1.rows
  in
  Alcotest.(check bool) "SSP loses the BROP column" false
    (row Pssp.Scheme.Ssp).Harness.Table1.brop_prevented;
  Alcotest.(check bool) "P-SSP wins the BROP column" true
    (row Pssp.Scheme.Pssp).Harness.Table1.brop_prevented;
  Alcotest.(check bool) "RAF fails correctness" false
    (row Pssp.Scheme.Raf_ssp).Harness.Table1.correct;
  Alcotest.(check bool) "DynaGuard correct" true
    (row Pssp.Scheme.Dynaguard).Harness.Table1.correct;
  Alcotest.(check bool) "DCR correct" true (row Pssp.Scheme.Dcr).Harness.Table1.correct

let test_servers_measurable () =
  let r = Harness.Table34.run_web ~requests:20 () in
  List.iter
    (fun row ->
      Alcotest.(check bool) "positive time" true (row.Harness.Table34.native_ms > 0.0);
      Alcotest.(check bool) "P-SSP within 1% of native" true
        (abs_float (row.Harness.Table34.compiler_ms -. row.Harness.Table34.native_ms)
        /. row.Harness.Table34.native_ms
        < 0.01))
    r.Harness.Table34.rows

let () =
  Alcotest.run "harness"
    [
      ( "experiments",
        [
          Alcotest.test_case "Table V shape" `Slow test_table5_shape;
          Alcotest.test_case "Fig 5 subset" `Slow test_fig5_subset;
          Alcotest.test_case "parallel runs deterministic" `Slow
            test_parallel_runs_deterministic;
          Alcotest.test_case "Table II invariants" `Slow test_table2_invariants;
          Alcotest.test_case "compatibility" `Slow test_compat_all_pass;
          Alcotest.test_case "Theorem 1" `Slow test_theorem1;
          Alcotest.test_case "Theorem 1 (machine level)" `Slow test_theorem1_machine;
          Alcotest.test_case "exposure resilience" `Slow test_exposure;
          Alcotest.test_case "SSP falls" `Slow test_effectiveness_ssp_falls;
          Alcotest.test_case "P-SSP holds" `Slow test_effectiveness_pssp_holds;
          Alcotest.test_case "shadow stacks detect without canary" `Slow
            test_effectiveness_shadow_detects_without_canary;
          Alcotest.test_case "PAC disclosure does not transfer across forks"
            `Slow test_effectiveness_pac_no_fork_transfer;
          Alcotest.test_case "wasm-ssp detects only at the epilogue" `Slow
            test_wasm_ssp_detects_only_at_epilogue;
          Alcotest.test_case "family ablation cells" `Slow test_ablation_families;
          Alcotest.test_case "threaded-server attack" `Slow test_threaded_server_attack;
          Alcotest.test_case "nonce ablation" `Slow test_ablation_nonce;
          Alcotest.test_case "width ablation" `Slow test_ablation_width_scaling;
          Alcotest.test_case "global buffer ablation" `Quick test_ablation_global_buffer;
          Alcotest.test_case "Table I verdicts" `Slow test_table1_rows;
          Alcotest.test_case "servers measurable" `Slow test_servers_measurable;
        ] );
    ]
