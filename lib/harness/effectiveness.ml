type target = Scheme of Pssp.Scheme.t | Instrumented

let target_name = function
  | Scheme s -> Pssp.Scheme.title s
  | Instrumented -> "P-SSP (binary instrumentation)"

type row = {
  target : target;
  service : string;
  broken : bool;
  trials : int;
  restarts : int;
}

type result = { rows : row list }

let build_target target ~buffer_size =
  let program = Minic.Parser.parse (Workload.Vuln.fork_server_net ~buffer_size) in
  match target with
  | Scheme scheme ->
    let image = Mcc.Driver.compile ~scheme program in
    (image, Mcc.Driver.preload_for scheme, Layouts.compiler_layout scheme ~buffer_size)
  | Instrumented ->
    let ssp = Mcc.Driver.compile ~scheme:Pssp.Scheme.Ssp program in
    let image, _ = Rewriter.Driver.instrument ssp in
    ( image,
      Rewriter.Driver.required_preload image,
      Layouts.instrumented_layout ~buffer_size )

(* One tick per finished campaign cell: lets a long effectiveness run
   report progress through --metrics-out / --trace-out without touching
   its stdout. *)
let g_cells = Telemetry.Registry.counter "harness.effectiveness.cells"

let attack_server ?(budget = 20_000) ?(respawn = Attack.Oracle.No_respawn)
    target ~buffer_size =
  let image, preload, layout = build_target target ~buffer_size in
  let oracle = Attack.Oracle.create ~preload ~respawn image in
  match Attack.Byte_by_byte.run oracle ~layout ~max_trials:budget with
  | Attack.Byte_by_byte.Broken { trials; _ } -> (true, trials, 0)
  | Attack.Byte_by_byte.Exhausted { trials; restarts; _ } ->
    (false, trials, restarts)
  | Attack.Byte_by_byte.Oracle_lost { trials; _ } -> (false, trials, 0)

let services = [ ("Nginx (seeded CVE)", 16); ("Ali (seeded CVE)", 32) ]

let default_targets =
  [
    Scheme Pssp.Scheme.Ssp;
    Scheme Pssp.Scheme.Pssp;
    Scheme Pssp.Scheme.Pssp_nt;
    Scheme Pssp.Scheme.Pssp_owf;
  ]
  @ List.map (fun s -> Scheme s) Pssp.Scheme.all_families
  @ [ Instrumented ]

let cells_of targets =
  List.concat_map
    (fun target -> List.map (fun service -> (target, service)) services)
    targets

let run_cell ~budget ~respawn (target, (service, buffer_size)) =
  let broken, trials, restarts =
    attack_server ~budget ~respawn target ~buffer_size
  in
  Telemetry.Registry.incr g_cells;
  if Telemetry.Trace.enabled () then
    Telemetry.Trace.instant "effectiveness.cell"
      ~args:
        [
          ("target", target_name target);
          ("service", service);
          ("outcome", if broken then "broken" else "resisted");
          ("trials", string_of_int trials);
        ];
  { target; service; broken; trials; restarts }

let run ?(jobs = 1) ?(budget = 20_000) ?(respawn = Attack.Oracle.No_respawn)
    ?(targets = default_targets) () =
  { rows = Pool.map ~jobs (run_cell ~budget ~respawn) (cells_of targets) }

let to_table result =
  let t =
    Util.Table.create
      ~title:
        "Effectiveness (SVI-C): byte-by-byte attack against forking servers"
      [ "Protection"; "Service"; "Attack outcome"; "Trials"; "Restarts" ]
  in
  List.iter
    (fun r ->
      Util.Table.add_row t
        [
          target_name r.target;
          r.service;
          (if r.broken then "BROKEN (hijack verified)" else "resisted");
          string_of_int r.trials;
          string_of_int r.restarts;
        ])
    result.rows;
  t

let campaign ?(budget = 20_000) ?(respawn = Attack.Oracle.No_respawn)
    ?(targets = default_targets) () =
  let cells = cells_of targets in
  Campaign.v ~name:"effectiveness"
    ~title:"Effectiveness (SVI-C) - byte-by-byte attacks on forking servers"
    ~cells:(List.length cells)
    ~run_cell:(fun i -> Campaign.pack (run_cell ~budget ~respawn (List.nth cells i)))
    ~merge:(fun rows ->
      Util.Table.print
        (to_table { rows = List.map (fun r -> (Campaign.unpack r : row)) rows });
      print_string
        "Paper: the attack succeeds on SSP-compiled Nginx/Ali and fails on the\n\
         P-SSP-compiled versions.\n")
    ()
