(* Workload validity: every benchmark parses, compiles under every
   scheme, runs deterministically to exit 0, and emits identical output
   under every protection scheme. *)

let schemes_to_check =
  [ Pssp.Scheme.None_; Pssp.Scheme.Ssp; Pssp.Scheme.Pssp; Pssp.Scheme.Pssp_owf ]

(* enqueue + schedule + stop_of: run one process to its next park *)
let kernel_run ?fuel k p =
  Os.Kernel.enqueue k p;
  Os.Kernel.schedule ?fuel k;
  Os.Kernel.stop_of p

let run_bench bench scheme =
  let image = Mcc.Driver.compile ~scheme (Workload.Spec.parse bench) in
  let k = Os.Kernel.create () in
  let p = Os.Kernel.spawn k ~preload:(Mcc.Driver.preload_for scheme) image in
  match kernel_run ~fuel:80_000_000 k p with
  | Os.Kernel.Stop_exit 0 -> Os.Process.stdout p
  | other ->
    Alcotest.failf "%s/%s: %s" bench.Workload.Spec.bench_name
      (Pssp.Scheme.name scheme) (Os.Kernel.stop_to_string other)

let test_suite_complete () =
  Alcotest.(check int) "28 benchmarks" 28 (List.length Workload.Spec.all);
  Alcotest.(check int) "12 int" 12
    (List.length (List.filter (fun b -> b.Workload.Spec.suite = `Int) Workload.Spec.all));
  Alcotest.(check int) "16 fp" 16
    (List.length (List.filter (fun b -> b.Workload.Spec.suite = `Fp) Workload.Spec.all))

let test_names_unique () =
  let names = Workload.Spec.names in
  Alcotest.(check int) "no duplicates" (List.length names)
    (List.length (List.sort_uniq compare names))

let test_find () =
  Alcotest.(check bool) "finds bzip2" true (Workload.Spec.find "bzip2" <> None);
  Alcotest.(check bool) "unknown" true (Workload.Spec.find "doom" = None)

let bench_case bench =
  Alcotest.test_case bench.Workload.Spec.bench_name `Slow (fun () ->
      let outputs = List.map (run_bench bench) schemes_to_check in
      match outputs with
      | reference :: rest ->
        Alcotest.(check bool) "nonempty checksum" true (String.length reference > 1);
        List.iter
          (fun out ->
            Alcotest.(check string) "schemes agree on output" reference out)
          rest
      | [] -> assert false)

let test_benchmarks_deterministic () =
  let b = Option.get (Workload.Spec.find "perlbench") in
  Alcotest.(check string) "two runs agree"
    (run_bench b Pssp.Scheme.None_)
    (run_bench b Pssp.Scheme.None_)

let test_guarded_functions_exist () =
  (* each benchmark must have at least one canary-guarded function, or
     Fig. 5 would measure nothing *)
  List.iter
    (fun bench ->
      let image = Mcc.Driver.compile ~scheme:Pssp.Scheme.Ssp (Workload.Spec.parse bench) in
      let sites = Rewriter.Scan.scan image in
      Alcotest.(check bool)
        (bench.Workload.Spec.bench_name ^ " has guards")
        true
        (List.length sites.Rewriter.Scan.prologues > 0))
    Workload.Spec.all

(* ---- servers ------------------------------------------------------------------- *)

let drain_conn conn =
  let buf = Buffer.create 64 in
  let rec go () =
    match Net.Conn.client_recv conn ~max:4096 with
    | Net.Conn.Data b ->
      Buffer.add_bytes buf b;
      go ()
    | Net.Conn.Would_block | Net.Conn.Eof | Net.Conn.Closed -> ()
  in
  go ();
  Buffer.contents buf

(* The PR 5 servers read requests from a connection fd and write the
   response back over it, so the test plays client: connect, send the
   request, half-close, run the kernel, read the response. *)
let server_case (profile : Workload.Servers.profile) =
  Alcotest.test_case profile.Workload.Servers.profile_name `Slow (fun () ->
      let image =
        Mcc.Driver.compile ~scheme:Pssp.Scheme.Pssp
          (Minic.Parser.parse profile.Workload.Servers.source)
      in
      let k = Os.Kernel.create () in
      let p = Os.Kernel.spawn k ~preload:Os.Preload.Pssp_wide image in
      (match kernel_run k p with
      | Os.Kernel.Stop_accept -> ()
      | other -> Alcotest.failf "no accept: %s" (Os.Kernel.stop_to_string other));
      List.iter
        (fun req ->
          match Os.Kernel.connect k p with
          | None -> Alcotest.fail "connection refused"
          | Some conn -> (
            let now = Os.Kernel.now k in
            Alcotest.(check bool) "request accepted by conn" true
              (Net.Conn.client_send conn ~now req);
            Net.Conn.client_shutdown conn ~now;
            match kernel_run k p with
            | Os.Kernel.Stop_accept -> (
              Os.Kernel.reap_zombies k p;
              match Os.Kernel.last_reaped k with
              | Some child ->
                Alcotest.(check bool) "child exited cleanly" true
                  (child.Os.Process.status = Os.Process.Exited 0);
                Alcotest.(check bool) "child produced a response" true
                  (String.length (drain_conn conn) > 0)
              | None -> Alcotest.fail "no child")
            | other ->
              Alcotest.failf "server died: %s" (Os.Kernel.stop_to_string other)))
        profile.Workload.Servers.requests)

(* ---- victims ------------------------------------------------------------------- *)

let test_victims_parse_and_typecheck () =
  List.iter
    (fun src -> ignore (Minic.Typecheck.check (Minic.Parser.parse src)))
    [
      Workload.Vuln.fork_server_net ~buffer_size:16;
      Workload.Vuln.fork_server_net ~buffer_size:64;
      Workload.Vuln.echo_once ~buffer_size:16;
      Workload.Vuln.raf_correctness_probe;
      Workload.Vuln.leaky_server;
      Workload.Vuln.lv_stealth_victim;
    ]

let test_raf_probe_discriminates () =
  let image scheme =
    Mcc.Driver.compile ~scheme (Minic.Parser.parse Workload.Vuln.raf_correctness_probe)
  in
  let child_status scheme =
    let k = Os.Kernel.create () in
    let p = Os.Kernel.spawn k ~preload:(Mcc.Driver.preload_for scheme) (image scheme) in
    ignore (kernel_run k p);
    match Os.Kernel.last_reaped k with
    | Some child -> child.Os.Process.status
    | None -> Alcotest.fail "no child"
  in
  (* correct schemes: the child exits 7 through inherited frames *)
  List.iter
    (fun scheme ->
      Alcotest.(check bool)
        (Pssp.Scheme.name scheme ^ " correct")
        true
        (child_status scheme = Os.Process.Exited 7))
    [ Pssp.Scheme.Ssp; Pssp.Scheme.Pssp; Pssp.Scheme.Dynaguard; Pssp.Scheme.Dcr ];
  (* RAF-SSP falsely aborts the child (the Table I correctness flaw) *)
  match child_status Pssp.Scheme.Raf_ssp with
  | Os.Process.Killed (Os.Process.Sigabrt, _) -> ()
  | other -> Alcotest.failf "RAF child: %s" (Os.Process.status_to_string other)

let () =
  Alcotest.run "workload"
    [
      ( "registry",
        [
          Alcotest.test_case "28 programs" `Quick test_suite_complete;
          Alcotest.test_case "unique names" `Quick test_names_unique;
          Alcotest.test_case "find" `Quick test_find;
          Alcotest.test_case "deterministic" `Slow test_benchmarks_deterministic;
          Alcotest.test_case "all have guarded functions" `Slow
            test_guarded_functions_exist;
        ] );
      ("benchmarks", List.map bench_case Workload.Spec.all);
      ("servers", List.map server_case (Workload.Servers.web @ Workload.Servers.db));
      ( "threaded servers",
        List.map
          (fun p -> server_case (Workload.Servers.threaded p))
          (Workload.Servers.web @ Workload.Servers.db) );
      ( "victims",
        [
          Alcotest.test_case "parse and typecheck" `Quick test_victims_parse_and_typecheck;
          Alcotest.test_case "RAF probe discriminates" `Slow test_raf_probe_discriminates;
        ] );
    ]
