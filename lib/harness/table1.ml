type row = {
  scheme : Pssp.Scheme.t;
  brop_prevented : bool;
  brop_trials : int;
  correct : bool;
  compiler_overhead_pct : float option;
  instr_overhead_pct : float option;
}

type result = { rows : row list }

let default_benches =
  List.filter_map Workload.Spec.find
    [ "perlbench"; "gobmk"; "sjeng"; "omnetpp"; "povray"; "mcf"; "hmmer"; "lbm" ]

let buffer_size = 16

(* A real byte-by-byte campaign against a fork server under the scheme. *)
let brop_campaign scheme ~budget =
  let image =
    Mcc.Driver.compile ~scheme
      (Minic.Parser.parse (Workload.Vuln.fork_server_net ~buffer_size))
  in
  let oracle = Attack.Oracle.create ~preload:(Mcc.Driver.preload_for scheme) image in
  let layout = Layouts.compiler_layout scheme ~buffer_size in
  match Attack.Byte_by_byte.run oracle ~layout ~max_trials:budget with
  | Attack.Byte_by_byte.Broken { trials; _ } -> (false, trials)
  | Attack.Byte_by_byte.Exhausted { trials; _ } -> (true, trials)
  | Attack.Byte_by_byte.Oracle_lost { trials; _ } -> (true, trials)

(* Fork inside a guarded frame; the child returns through it. *)
let correctness_probe scheme =
  let image =
    Mcc.Driver.compile ~scheme (Minic.Parser.parse Workload.Vuln.raf_correctness_probe)
  in
  let kernel = Os.Kernel.create () in
  let parent = Os.Kernel.spawn kernel ~preload:(Mcc.Driver.preload_for scheme) image in
  Os.Kernel.enqueue kernel parent;
  Os.Kernel.schedule kernel;
  match Os.Kernel.stop_of parent with
  | Os.Kernel.Stop_exit 0 -> (
    match Os.Kernel.last_reaped kernel with
    | Some child -> child.Os.Process.status = Os.Process.Exited 7
    | None -> false)
  | _ -> false

let mean_overhead benches deployment =
  let pcts =
    List.map
      (fun bench ->
        let native = Runner.run_bench Runner.Native bench in
        Runner.overhead_pct ~native (Runner.run_bench deployment bench))
      benches
  in
  Util.Stats.mean (Array.of_list pcts)

let instr_deployment_for (scheme : Pssp.Scheme.t) =
  match scheme with
  | Pssp.Scheme.Pssp -> Some Runner.Instr_dynamic
  | Dynaguard -> Some Runner.Dynaguard_pin
  | Dcr -> Some Runner.Dcr_static
  | Ssp | Raf_ssp | None_ | Pssp_nt | Pssp_lv _ | Pssp_owf | Pssp_owf_weak
  | Pssp_gb | Shadow_compact | Shadow_parallel | Pac_canary | Wasm_ssp ->
    None

(* The paper's Table I set, extended with the beyond-the-paper defense
   families so every row exists for every scheme head-to-head. *)
let schemes =
  [
    Pssp.Scheme.Ssp;
    Pssp.Scheme.Raf_ssp;
    Pssp.Scheme.Dynaguard;
    Pssp.Scheme.Dcr;
    Pssp.Scheme.Pssp;
  ]
  @ Pssp.Scheme.all_families

let measure_row ~brop_budget ~benches scheme =
  let brop_prevented, brop_trials = brop_campaign scheme ~budget:brop_budget in
  let correct = correctness_probe scheme in
  let compiler_overhead_pct =
    match scheme with
    | Pssp.Scheme.Ssp -> None (* the baseline everything compares to *)
    | _ -> Some (mean_overhead benches (Runner.Compiler scheme))
  in
  let instr_overhead_pct =
    Option.map (mean_overhead benches) (instr_deployment_for scheme)
  in
  { scheme; brop_prevented; brop_trials; correct; compiler_overhead_pct;
    instr_overhead_pct }

let run ?(jobs = 1) ?(brop_budget = 6000) ?(benches = default_benches) () =
  { rows = Pool.map ~jobs (measure_row ~brop_budget ~benches) schemes }

let to_table result =
  let t =
    Util.Table.create
      ~title:"Table I: Comparison of brute force attack defence tools (measured)"
      [
        "Defence"; "BROP prevented"; "(trials)"; "Correct";
        "Compiler overhead"; "Instrumentation overhead";
      ]
  in
  List.iter
    (fun r ->
      Util.Table.add_row t
        [
          Pssp.Scheme.title r.scheme;
          (if r.brop_prevented then "Yes" else "No");
          string_of_int r.brop_trials;
          (if r.correct then "Yes" else "No");
          (match r.compiler_overhead_pct with
          | Some v -> Util.Table.cell_pct v
          | None -> "-");
          (match r.instr_overhead_pct with
          | Some v -> Util.Table.cell_pct v
          | None -> "-");
        ])
    result.rows;
  t

let campaign () =
  Campaign.v ~name:"table1"
    ~title:"Table I - brute-force defence comparison (all cells measured)"
    ~cells:(List.length schemes)
    ~run_cell:(fun i ->
      Campaign.pack
        (measure_row ~brop_budget:6000 ~benches:default_benches
           (List.nth schemes i)))
    ~merge:(fun rows ->
      Util.Table.print
        (to_table { rows = List.map (fun r -> (Campaign.unpack r : row)) rows });
      print_string
        "Paper: SSP no-BROP-prevention; RAF incorrect; DynaGuard 1.5%/156%;\n\
         DCR NA/>24%; P-SSP prevents BROP, correct, lightest overheads.\n")
    ()
