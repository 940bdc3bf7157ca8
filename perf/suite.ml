(* The four perf-v1 workloads. Each is built only from public layer
   calls and timed from outside: a set-up phase (images, boot to ready,
   oracles, load generator) and a timed phase. Sizes and seeds are
   frozen; a change that claims a gain may not edit this file. *)

type config = {
  seed : int64 option;  (* [None]: every library default seed *)
  scale : float;  (* multiplies trial budgets, request counts and calls *)
}

let scaled cfg n =
  Stdlib.max 1 (int_of_float (Float.round (float_of_int n *. cfg.scale)))

(* Phase times of a rep, corrected to reference host speed (see
   Calib), and the raw wall time of the timed phase. *)
type times = { setup_s : float; wall_s : float; raw_wall_s : float }

type result = {
  times : times;
  attempted : int;
  failed : int;
  guest : (string * float) list;  (* exact guest-side end-to-end metrics *)
  observed : (string * float) list;
      (* layer values only the benchmark sees, e.g. idle jumps *)
  delta : (string * int) list;  (* registry deltas over the timed phase *)
  errors : string list;  (* failed correctness pins *)
}

let s_setup = Span.name "perf.setup"
let s_timed = Span.name "perf.timed"
let s_parse = Span.name "minic.parse"
let s_compile = Span.name "mcc.compile"
let s_instrument = Span.name "rewriter.instrument"
let s_boot = Span.name "os.boot"
let s_schedule = Span.name "os.schedule"
let s_connect = Span.name "os.connect"
let s_advance = Span.name "os.advance_to"
let s_reap = Span.name "os.reap_zombies"
let s_lg_create = Span.name "net.loadgen.create"
let s_step = Span.name "net.loadgen.step"
let s_next = Span.name "net.loadgen.next_event"
let s_report = Span.name "net.loadgen.report"
let s_oracle = Span.name "attack.oracle_create"
let s_attack = Span.name "attack.run"
let s_table5 = Span.name "harness.table5"

let parse src = Span.with_ s_parse (fun () -> Minic.Parser.parse src)

let compile scheme program =
  Span.with_ s_compile (fun () -> Mcc.Driver.compile ~scheme program)

let schedule ?fuel kernel =
  Span.with_ s_schedule (fun () -> Os.Kernel.schedule ?fuel kernel)

let registry_delta before after =
  List.map
    (fun (name, v) ->
      (name, v - Option.value (List.assoc_opt name before) ~default:0))
    after

(* Raised instead of running the timed phase under [perf rep
   --setup-only], which times one cold set-up. *)
exception Set_up of float

let setup_only = ref false

let measure ~setup ~timed =
  let state, _, setup_s = Calib.time (fun () -> Span.with_ s_setup setup) in
  if !setup_only then raise (Set_up setup_s);
  let before = Telemetry.Registry.snapshot () in
  let value, raw_wall_s, wall_s =
    Calib.time (fun () -> Span.with_ s_timed (fun () -> timed state))
  in
  let delta = registry_delta before (Telemetry.Registry.snapshot ()) in
  ({ setup_s; wall_s; raw_wall_s }, value, delta)

(* Every guest output of a rep at the default seeds and [pin_scale],
   one line per workload. A change that only speeds up the simulator
   leaves the line identical. The smoke test and every fixed-length run
   check it, so guest behaviour is gated at any --seed. *)
let pin_scale = 0.02

let guest_pin cfg ~pinned got =
  if cfg.seed = None && cfg.scale = pin_scale && got <> pinned then
    [ Printf.sprintf "guest outputs at --scale %g read %S, pinned %S" pin_scale got pinned ]
  else []

(* ---- attack ---------------------------------------------------------- *)

let attack_schemes =
  Pssp.Scheme.[ Ssp; Pssp; Pssp_nt; Pssp_owf; Shadow_compact ]

let attack_buffers = [ 16; 32 ]
let attack_budget = 100_000

(* Worst case for the byte-by-byte attack on a fixed 8-byte canary: 256
   guesses per byte, then the hijack probe. *)
let ssp_worst_trials = (8 * 256) + 1
let ssp_trials = 1280
let ssp_canary = "4db5cbe6f9c8651e"

let attack_pins cfg ~budget (scheme, buffer_size, outcome) =
  let open Attack.Byte_by_byte in
  let cell = Printf.sprintf "%s/buf%d" (Pssp.Scheme.name scheme) buffer_size in
  let fail () = [ cell ^ ": unexpected " ^ outcome_to_string outcome ] in
  match (scheme, outcome) with
  | Pssp.Scheme.Ssp, Broken { canary; trials } ->
    if cfg.seed = None && (trials <> ssp_trials || Util.Hex.of_bytes canary <> ssp_canary)
    then fail ()
    else []
  | Pssp.Scheme.Ssp, Exhausted _ ->
    if budget >= ssp_worst_trials || (cfg.seed = None && budget >= ssp_trials) then
      fail ()
    else []
  (* a lucky guess can hold a byte at other seeds; none breaks *)
  | (Pssp.Scheme.Pssp | Pssp_nt | Pssp_owf), Exhausted { trials; max_bytes_recovered; _ }
    when trials = budget && (cfg.seed <> None || max_bytes_recovered = 0) ->
    []
  | Pssp.Scheme.Shadow_compact, Exhausted { trials; restarts; _ } when trials = restarts
    ->
    []
  | _ -> fail ()

(* Per cell: B<trials> when broken, E<trials>/<restarts>/<bytes held>
   when exhausted, L<trials> when the oracle was lost. *)
let attack_pin =
  "B1280 B1280 E2000/7/0 E2000/7/0 E2000/7/0 E2000/7/0 E2000/7/0 E2000/7/0 E2000/2000/0 \
   E2000/2000/0"

let attack_outputs outcomes =
  String.concat " "
    (List.map
       (fun (_, _, o) ->
         match o with
         | Attack.Byte_by_byte.Broken { trials; _ } -> Printf.sprintf "B%d" trials
         | Exhausted { trials; restarts; max_bytes_recovered } ->
           Printf.sprintf "E%d/%d/%d" trials restarts max_bytes_recovered
         | Oracle_lost { trials; _ } -> Printf.sprintf "L%d" trials)
       outcomes)

let attack cfg =
  let budget = scaled cfg attack_budget in
  let cells =
    List.concat_map
      (fun scheme -> List.map (fun b -> (scheme, b)) attack_buffers)
      attack_schemes
  in
  let setup () =
    List.map
      (fun (scheme, buffer_size) ->
        let image = compile scheme (parse (Workload.Vuln.fork_server_net ~buffer_size)) in
        let oracle =
          Span.with_ s_oracle (fun () ->
              Attack.Oracle.create ?seed:cfg.seed
                ~preload:(Mcc.Driver.preload_for scheme)
                ~respawn:Attack.Oracle.Zygote image)
        in
        (scheme, buffer_size, Harness.Layouts.compiler_layout scheme ~buffer_size, oracle))
      cells
  in
  let timed victims =
    List.map
      (fun (scheme, buffer_size, layout, oracle) ->
        ( scheme,
          buffer_size,
          Span.with_ s_attack (fun () ->
              Attack.Byte_by_byte.run oracle ~layout ~max_trials:budget) ))
      victims
  in
  let times, outcomes, delta = measure ~setup ~timed in
  let trials, lost =
    List.fold_left
      (fun (t, l) (_, _, o) ->
        match o with
        | Attack.Byte_by_byte.Broken { trials; _ } | Exhausted { trials; _ } ->
          (t + trials, l)
        | Oracle_lost { trials; _ } -> (t + trials, l + 1))
      (0, 0) outcomes
  in
  {
    times;
    attempted = List.length cells;
    failed = lost;
    guest = [];
    observed = [ ("attack.trials", float_of_int trials) ];
    delta;
    errors =
      List.concat_map (attack_pins cfg ~budget) outcomes
      @ guest_pin cfg ~pinned:attack_pin (attack_outputs outcomes);
  }

(* ---- serve ----------------------------------------------------------- *)

type serve = {
  profile : Workload.Servers.profile;
  mode : Net.Loadgen.mode;
  clients : int;
  keepalive : int;
  pinned : string;
      (* sent/completed/failed/aborted, retired cycles, p50, p999 and
         sat_rps at [pin_scale] *)
}

let serve_fork =
  {
    profile = Workload.Servers.nginx;
    mode = Net.Loadgen.Closed;
    clients = 64;
    keepalive = 8;
    pinned = "400/396/0/4 24098678 3196532 18082835 418.79349070757382";
  }

(* 80k-cycle interarrival keeps the event loop about 74% busy. *)
let serve_event =
  {
    profile = Workload.Servers.event_loop Workload.Servers.nginx;
    mode = Net.Loadgen.Open { interarrival = 80_000L };
    clients = 100_000;
    keepalive = 1;
    pinned = "400/396/0/4 23832242 59682 121695 265.77563435715757";
  }

let serve_requests = 20_000

(* Loadbench's client mix and Harness.Runner's defaults, so the pump
   below replays Runner.run_load exactly (pinned by the smoke test). *)
let slow_every = 17
let abort_every = 97
let conn_timeout = 2_000_000L
let pump_slice = 262_144
let kernel_seed = 0x5E44EL
let loadgen_seed = 0x10AD6E4L

type load = {
  sent : int;
  completed : int;
  lg_failed : int;
  aborted : int;
  p50 : float;
  p999 : float;
  sat_rps : float;
  virtual_cycles : int64;  (* Kernel.now at the end, boot included *)
  retired : int64;  (* timed-phase cycles, idle jumps excluded *)
  idle : int64;
  steps : int;
  max_late : int64;  (* measured only while tracing *)
  alive : bool;
}

let boot_server ~seed image ~preload =
  Span.with_ s_boot (fun () ->
      let kernel = Os.Kernel.create ~seed () in
      let server = Os.Kernel.spawn kernel ~preload image in
      Os.Kernel.enqueue kernel server;
      schedule kernel;
      match Os.Kernel.stop_of server with
      | Os.Kernel.Stop_accept | Os.Kernel.Stop_io -> (kernel, server)
      | other -> failwith ("server never became ready: " ^ Os.Kernel.stop_to_string other))

let serve_setup ?(seed = kernel_seed) ?(lg_seed = loadgen_seed) spec ~total () =
  let image = compile Pssp.Scheme.Pssp (parse spec.profile.Workload.Servers.source) in
  let kernel, server =
    boot_server ~seed image ~preload:(Mcc.Driver.preload_for Pssp.Scheme.Pssp)
  in
  Os.Kernel.set_conn_timeout kernel (Some conn_timeout);
  let lg =
    Span.with_ s_lg_create (fun () ->
        Net.Loadgen.create ~seed:lg_seed ~slow_every ~abort_every ~mode:spec.mode
          ~clients:spec.clients ~keepalive:spec.keepalive ~total
          ~mix:spec.profile.Workload.Servers.requests ())
  in
  (kernel, server, lg)

(* Harness.Runner's pump, with a span around every layer call: loadgen
   steps and kernel slices alternate, and when neither moves, virtual
   time jumps to the next client event or connection deadline. *)
let pump spec (kernel, server, lg) =
  let start = Os.Kernel.now kernel in
  let idle = ref 0L and steps = ref 0 and max_late = ref 0L in
  let advance target =
    let before = Os.Kernel.now kernel in
    Span.with_ s_advance (fun () -> Os.Kernel.advance_to kernel target);
    idle := Int64.add !idle (Int64.sub (Os.Kernel.now kernel) before)
  in
  let try_connect () =
    Span.with_ s_connect (fun () -> Os.Kernel.connect kernel server)
  in
  let stalls = ref 0 in
  let finished = ref false in
  while not !finished do
    let now0 = Os.Kernel.now kernel in
    (* generator lateness costs an extra scan, so only traced reps pay it *)
    (if Span.enabled () then
       match Net.Loadgen.next_event lg with
       | Some due when Int64.compare due now0 < 0 ->
         let late = Int64.sub now0 due in
         if Int64.compare late !max_late > 0 then max_late := late
       | _ -> ());
    let moved =
      Span.with_ s_step (fun () -> Net.Loadgen.step lg ~now:now0 ~try_connect)
    in
    incr steps;
    schedule kernel ~fuel:pump_slice;
    if Net.Loadgen.finished lg then finished := true
    else if moved || Int64.compare (Os.Kernel.now kernel) now0 > 0 then stalls := 0
    else begin
      let next =
        Span.with_ s_next (fun () ->
            match (Net.Loadgen.next_event lg, Os.Kernel.next_deadline kernel) with
            | None, None -> None
            | (Some _ as a), None -> a
            | None, (Some _ as b) -> b
            | Some a, Some b -> Some (if Int64.compare a b <= 0 then a else b))
      in
      (match next with
      | Some target when Int64.compare target now0 > 0 -> advance target
      | _ -> incr stalls);
      if !stalls > 3 then begin
        Net.Loadgen.force_finish lg ~now:(Os.Kernel.now kernel);
        finished := true
      end
    end
  done;
  schedule kernel;
  (match Os.Kernel.next_deadline kernel with
  | Some deadline ->
    advance deadline;
    schedule kernel
  | None -> ());
  Span.with_ s_reap (fun () -> Os.Kernel.reap_zombies kernel server);
  let r = Span.with_ s_report (fun () -> Net.Loadgen.report lg) in
  let latencies = Array.map Int64.to_float r.Net.Loadgen.latencies in
  let pct p = if latencies = [||] then 0.0 else Util.Stats.percentile latencies p in
  let cycles_per_ms = spec.profile.Workload.Servers.cycles_per_ms in
  let busy_ms = Int64.to_float r.Net.Loadgen.busy_cycles /. cycles_per_ms in
  let finish = Os.Kernel.now kernel in
  {
    sent = r.Net.Loadgen.sent;
    completed = r.Net.Loadgen.completed;
    lg_failed = r.Net.Loadgen.failed;
    aborted = r.Net.Loadgen.aborted;
    p50 = pct 50.0;
    p999 = pct 99.9;
    sat_rps =
      (if busy_ms > 0.0 then float_of_int r.Net.Loadgen.completed /. (busy_ms /. 1000.0)
       else 0.0);
    virtual_cycles = finish;
    retired = Int64.sub (Int64.sub finish start) !idle;
    idle = !idle;
    steps = !steps;
    max_late = !max_late;
    alive =
      (match server.Os.Process.status with
      | Os.Process.Exited _ | Os.Process.Killed _ -> false
      | _ -> true);
  }

let serve spec cfg =
  let total = scaled cfg serve_requests in
  let times, l, delta =
    measure
      ~setup:(serve_setup ?seed:cfg.seed ?lg_seed:cfg.seed spec ~total)
      ~timed:(pump spec)
  in
  let errors =
    (if l.completed + l.lg_failed + l.aborted <> l.sent || l.sent <> total then
       [
         Printf.sprintf "completed %d + failed %d + aborted %d <> sent %d (want %d)"
           l.completed l.lg_failed l.aborted l.sent total;
       ]
     else [])
    @ (if l.alive then [] else [ "server died" ])
    @ guest_pin cfg ~pinned:spec.pinned
        (Printf.sprintf "%d/%d/%d/%d %Ld %.17g %.17g %.17g" l.sent l.completed l.lg_failed
           l.aborted l.retired l.p50 l.p999 l.sat_rps)
  in
  {
    times;
    attempted = l.sent - l.aborted;
    failed = l.lg_failed;
    guest =
      [
        ("guest_cycles", Int64.to_float l.retired);
        ("guest_p50_latency_cycles", l.p50);
        ("guest_p999_latency_cycles", l.p999);
        ("guest_sat_rps", l.sat_rps);
      ];
    observed =
      [
        ("os.idle_cycles", Int64.to_float l.idle);
        ("net.loadgen.steps", float_of_int l.steps);
        ("net.loadgen.max_late_cycles", Int64.to_float l.max_late);
        ("requests_completed", float_of_int l.completed);
      ];
    delta;
    errors;
  }

(* ---- overhead -------------------------------------------------------- *)

let table5_calls = 100_000
let fig5_seed = 0x5EED5L

(* Fig. 5 averages (compiler, instrumented) and Table V cycles per call,
   as printed by the fig5 and table5 campaigns. *)
let fig5_avgs = ("0.21", "0.79")
let table5_cycles = [ "9.0"; "343.0"; "345.0"; "1019.0"; "267.0"; "11.0"; "5.0"; "345.0"; "5.0" ]

(* Fig. 5 guest cycles and both averages, then Table V, at [pin_scale]. *)
let overhead_pin =
  "12160023 0.59034955537011158 2.2302094313981993 \
   9.0/343.0/345.0/1019.0/267.0/11.0/5.0/345.0/5.0"

(* The three Fig. 5 deployments of Harness.Runner.build: native, compiler
   P-SSP, and an SSP binary rewritten to P-SSP. *)
let fig5_builds program =
  let instr =
    let ssp = compile Pssp.Scheme.Ssp program in
    Span.with_ s_instrument (fun () -> fst (Rewriter.Driver.instrument ssp))
  in
  [
    (compile Pssp.Scheme.None_ program, Os.Preload.No_preload);
    (compile Pssp.Scheme.Pssp program, Mcc.Driver.preload_for Pssp.Scheme.Pssp);
    (instr, Rewriter.Driver.required_preload instr);
  ]

type fig5_run = { stop : Os.Kernel.stop; cycles : int64; output : string; now : int64 }

(* A fresh kernel and an empty translation cache per run, as the fig5
   campaign does. *)
let run_image ~seed (image, preload) =
  let kernel, proc =
    Span.with_ s_boot (fun () ->
        let kernel = Os.Kernel.create ~seed () in
        let proc = Os.Kernel.spawn kernel ~preload image in
        Os.Kernel.enqueue kernel proc;
        (kernel, proc))
  in
  schedule kernel;
  {
    stop = Os.Kernel.stop_of proc;
    cycles = Os.Process.cycles proc;
    output = Os.Process.stdout proc;
    now = Os.Kernel.now kernel;
  }

let overhead cfg =
  let seed = Option.value cfg.seed ~default:fig5_seed in
  let calls = scaled cfg table5_calls in
  (* at --scale below 1 only a prefix of the Fig. 5 suite runs *)
  let benches =
    List.filteri (fun i _ -> i < scaled cfg (List.length Workload.Spec.all)) Workload.Spec.all
  in
  let full = List.length benches = List.length Workload.Spec.all in
  let setup () =
    List.map
      (fun b -> (b.Workload.Spec.bench_name, fig5_builds (parse b.Workload.Spec.source)))
      benches
  in
  let timed benches =
    let runs =
      List.map (fun (name, builds) -> (name, List.map (run_image ~seed) builds)) benches
    in
    let table5 =
      Span.with_ s_table5 (fun () ->
          match Harness.Table5.run ~calls () with
          | r -> Ok r.Harness.Table5.rows
          | exception Failure msg -> Error msg)
    in
    (runs, table5)
  in
  let times, (runs, table5), delta = measure ~setup ~timed in
  let all_runs = List.concat_map snd runs in
  let bad = List.filter (fun r -> r.stop <> Os.Kernel.Stop_exit 0) all_runs in
  let run_errors =
    List.concat_map
      (fun (name, rs) ->
        match rs with
        | native :: others ->
          List.concat_map
            (fun r ->
              if r.stop <> Os.Kernel.Stop_exit 0 then
                [ name ^ ": " ^ Os.Kernel.stop_to_string r.stop ]
              else if r.output <> native.output then [ name ^ ": checksum differs from native" ]
              else [])
            (native :: others)
        | [] -> [])
      runs
  in
  let pct i =
    Util.Stats.mean
      (Array.of_list
         (List.map
            (fun (_, rs) ->
              let cycles j = Int64.to_float (List.nth rs j).cycles in
              Util.Stats.overhead_pct ~baseline:(cycles 0) ~measured:(cycles i))
            runs))
  in
  let compiler_avg = pct 1 and instr_avg = pct 2 in
  let avg_errors =
    let got = (Printf.sprintf "%.2f" compiler_avg, Printf.sprintf "%.2f" instr_avg) in
    if cfg.seed = None && full && got <> fig5_avgs then
      [ Printf.sprintf "Fig. 5 averages %s%% / %s%%" (fst got) (snd got) ]
    else []
  in
  let table5_got =
    match table5 with
    | Error _ -> []
    | Ok rows -> List.map (fun r -> Printf.sprintf "%.1f" r.Harness.Table5.cycles) rows
  in
  let table5_errors, table5_failed =
    match table5 with
    | Error msg -> ([ "Table V: " ^ msg ], List.length table5_cycles)
    | Ok _ ->
      if calls = table5_calls && table5_got <> table5_cycles then
        ([ "Table V reads " ^ String.concat "/" table5_got ], 0)
      else ([], 0)
  in
  let guest_cycles =
    List.fold_left (fun acc r -> acc +. Int64.to_float r.now) 0.0 all_runs
  in
  let pin_errors =
    guest_pin cfg ~pinned:overhead_pin
      (Printf.sprintf "%.0f %.17g %.17g %s" guest_cycles compiler_avg instr_avg
         (String.concat "/" table5_got))
  in
  {
    times;
    attempted = List.length all_runs + List.length table5_cycles;
    failed = List.length bad + table5_failed;
    guest =
      [ ("guest_cycles", guest_cycles); ("pssp_overhead_pct", compiler_avg) ];
    observed = [];
    delta;
    errors = run_errors @ avg_errors @ table5_errors @ pin_errors;
  }

(* ---- the suite ------------------------------------------------------- *)

(* Why each workload is in the suite (BENCHMARK.json and README carry
   the same reasons):
   - attack: fork, CoW, crash/reap and snapshot resume dominate; almost
     no translation, loadgen or long compiled runs.
   - serve-fork: kernel scheduling and compiled handlers with a fork per
     connection.
   - serve-event: the same server code on the other kernel path —
     connect/accept/epoll churn and readiness wakeups, no forks — so a
     fork-path gain that costs readiness shows.
   - overhead: translation, long hot compiled loops and AES; no fork, no
     net. *)
let all =
  [
    ("attack", attack);
    ("serve-fork", serve serve_fork);
    ("serve-event", serve serve_event);
    ("overhead", overhead);
  ]

let names = List.map fst all
