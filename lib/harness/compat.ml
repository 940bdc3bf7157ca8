type scenario = {
  scenario_name : string;
  expected : string;
  passed : bool;
  detail : string;
}

type result = { scenarios : scenario list }

let run_image ?(input = Bytes.create 0) image preload =
  let kernel = Os.Kernel.create () in
  let proc = Os.Kernel.spawn kernel ~input ~preload image in
  Os.Kernel.enqueue kernel proc;
  Os.Kernel.schedule kernel;
  (kernel, Os.Kernel.stop_of proc)

(* P-SSP child returns through frames created before fork: the defining
   compatibility property (the §III caveat). *)
let pssp_fork_return () =
  let image =
    Mcc.Driver.compile ~scheme:Pssp.Scheme.Pssp
      (Minic.Parser.parse Workload.Vuln.raf_correctness_probe)
  in
  let kernel, stop = run_image image Os.Preload.Pssp_wide in
  let child_ok =
    match Os.Kernel.last_reaped kernel with
    | Some child -> child.Os.Process.status = Os.Process.Exited 7
    | None -> false
  in
  {
    scenario_name = "P-SSP child returns into inherited (pre-fork) frames";
    expected = "no false positive; child exits 7";
    passed = stop = Os.Kernel.Stop_exit 0 && child_ok;
    detail = Os.Kernel.stop_to_string stop;
  }

(* SSP binary running under the P-SSP preload (mixed deployment). *)
let ssp_under_pssp_preload () =
  let image =
    Mcc.Driver.compile ~scheme:Pssp.Scheme.Ssp
      (Minic.Parser.parse (Workload.Vuln.echo_once ~buffer_size:16))
  in
  let _, stop = run_image ~input:(Bytes.of_string "ok") image Os.Preload.Pssp_wide in
  {
    scenario_name = "SSP binary under the P-SSP preload library";
    expected = "runs normally";
    passed = stop = Os.Kernel.Stop_exit 0;
    detail = Os.Kernel.stop_to_string stop;
  }

(* SSP binary + the instrumented (overriding) __stack_chk_fail: a real
   smash must still abort (the final compatibility argument of §V-C). *)
let ssp_smash_with_override () =
  let image =
    Mcc.Driver.compile ~scheme:Pssp.Scheme.Ssp
      (Minic.Parser.parse (Workload.Vuln.echo_once ~buffer_size:16))
  in
  let _, stop =
    run_image ~input:(Bytes.make 40 'A') image Os.Preload.Pssp_packed
  in
  let aborted =
    match stop with
    | Os.Kernel.Stop_kill (Os.Process.Sigabrt, _) -> true
    | _ -> false
  in
  {
    scenario_name =
      "SSP epilogue detects a smash and calls the overridden __stack_chk_fail";
    expected = "still aborts (rdi fails the packed check)";
    passed = aborted;
    detail = Os.Kernel.stop_to_string stop;
  }

(* P-SSP binary making heavy use of the SSP-era C library. *)
let pssp_calls_ssp_library () =
  let bench = Option.get (Workload.Spec.find "perlbench") in
  let image =
    Mcc.Driver.compile ~scheme:Pssp.Scheme.Pssp (Workload.Spec.parse bench)
  in
  let _, stop = run_image image Os.Preload.Pssp_wide in
  {
    scenario_name = "P-SSP program against the stock (SSP-era) C library";
    expected = "runs normally";
    passed = stop = Os.Kernel.Stop_exit 0;
    detail = Os.Kernel.stop_to_string stop;
  }

(* Instrumented (packed) server forking across many requests. *)
let instrumented_fork_stability () =
  let ssp =
    Mcc.Driver.compile ~scheme:Pssp.Scheme.Ssp
      (Minic.Parser.parse (Workload.Vuln.fork_server_net ~buffer_size:16))
  in
  let image, _ = Rewriter.Driver.instrument ssp in
  let oracle =
    Attack.Oracle.create ~preload:(Rewriter.Driver.required_preload image) image
  in
  let ok = ref true in
  for i = 0 to 49 do
    match Attack.Oracle.query oracle (Bytes.of_string (Printf.sprintf "r%d" i)) with
    | Attack.Oracle.Survived _ -> ()
    | _ -> ok := false
  done;
  {
    scenario_name = "Instrumented P-SSP fork server across 50 benign requests";
    expected = "every child exits cleanly";
    passed = !ok && Attack.Oracle.server_alive oracle;
    detail = Printf.sprintf "%d queries" (Attack.Oracle.queries oracle);
  }

(* The SVI-C mixed-compilation experiment, in one binary: "library"
   functions compiled with SSP, "application" functions with P-SSP (and
   the reverse), calling through each other across a fork. *)
let mixed_source =
  {|
int lib_copy(char *dst, char *src) {
  char tmp[16];
  strcpy(tmp, src);
  strcpy(dst, tmp);
  return strlen(dst);
}

int app_handle(int round) {
  char buf[16];
  int n = lib_copy(buf, "payload");
  return n + round;
}

int app_fork_step() {
  char pad[16];
  int pid;
  pad[0] = 'x';
  pid = fork();
  if (pid == 0) {
    exit(app_handle(1));
  }
  waitpid();
  return app_handle(2) + pad[0];
}

int main() {
  int total = 0;
  int i;
  for (i = 0; i < 5; i++) {
    total += app_fork_step();
  }
  exit(total & 127);
}
|}

let mixed_schemes ~app ~lib ~label =
  let overrides = [ ("lib_copy", lib); ("app_handle", app); ("app_fork_step", app) ] in
  let image =
    Mcc.Driver.compile ~scheme:app ~scheme_overrides:overrides
      (Minic.Parser.parse mixed_source)
  in
  let preload =
    (* the preload serves whichever side needs the shadow *)
    if Pssp.Scheme.equal app Pssp.Scheme.Pssp || Pssp.Scheme.equal lib Pssp.Scheme.Pssp
    then Os.Preload.Pssp_wide
    else Os.Preload.No_preload
  in
  let kernel, stop = run_image image preload in
  ignore kernel;
  let ok = match stop with Os.Kernel.Stop_exit _ -> true | _ -> false in
  {
    scenario_name = label;
    expected = "runs across forks with no false positives";
    passed = ok;
    detail = Os.Kernel.stop_to_string stop;
  }

let scenario_cells =
  [
    pssp_fork_return;
    ssp_under_pssp_preload;
    ssp_smash_with_override;
    pssp_calls_ssp_library;
    instrumented_fork_stability;
    (fun () ->
      mixed_schemes ~app:Pssp.Scheme.Pssp ~lib:Pssp.Scheme.Ssp
        ~label:"one binary: P-SSP app functions calling SSP library functions");
    (fun () ->
      mixed_schemes ~app:Pssp.Scheme.Ssp ~lib:Pssp.Scheme.Pssp
        ~label:"one binary: SSP app functions calling P-SSP library functions");
  ]

let run () = { scenarios = List.map (fun f -> f ()) scenario_cells }

let to_table result =
  let t =
    Util.Table.create
      ~title:"Compatibility between P-SSP and SSP (SVI-C)"
      [ "Scenario"; "Expected"; "Result"; "Detail" ]
  in
  List.iter
    (fun s ->
      Util.Table.add_row t
        [
          s.scenario_name;
          s.expected;
          (if s.passed then "PASS" else "FAIL");
          s.detail;
        ])
    result.scenarios;
  t

let all_passed result = List.for_all (fun s -> s.passed) result.scenarios

let campaign () =
  Campaign.v ~name:"compat"
    ~title:"Compatibility (SVI-C) - P-SSP and SSP in one control flow"
    ~cells:(List.length scenario_cells)
    ~run_cell:(fun i -> Campaign.pack ((List.nth scenario_cells i) ()))
    ~merge:(fun rows ->
      Util.Table.print
        (to_table
           { scenarios = List.map (fun r -> (Campaign.unpack r : scenario)) rows }))
    ()
