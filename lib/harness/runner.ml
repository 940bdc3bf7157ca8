type deployment =
  | Native
  | Compiler of Pssp.Scheme.t
  | Instr_dynamic
  | Instr_static
  | Dynaguard_pin
  | Dcr_static

let deployment_name = function
  | Native -> "native"
  | Compiler s -> "compiler/" ^ Pssp.Scheme.name s
  | Instr_dynamic -> "instr/pssp-dynamic"
  | Instr_static -> "instr/pssp-static"
  | Dynaguard_pin -> "instr/dynaguard-pin"
  | Dcr_static -> "instr/dcr-static"

let pin_insn_tax = 2
let dcr_call_tax = 24

type built = {
  image : Os.Image.t;
  preload : Os.Preload.mode;
  insn_tax : int;
  call_tax : int;
}

let build deployment program =
  match deployment with
  | Native ->
    let image = Mcc.Driver.compile ~scheme:Pssp.Scheme.None_ program in
    { image; preload = Os.Preload.No_preload; insn_tax = 0; call_tax = 0 }
  | Compiler scheme ->
    let image = Mcc.Driver.compile ~scheme program in
    { image; preload = Mcc.Driver.preload_for scheme; insn_tax = 0; call_tax = 0 }
  | Instr_dynamic ->
    let ssp = Mcc.Driver.compile ~scheme:Pssp.Scheme.Ssp program in
    let image, _report = Rewriter.Driver.instrument ssp in
    { image; preload = Rewriter.Driver.required_preload image; insn_tax = 0; call_tax = 0 }
  | Instr_static ->
    let ssp =
      Mcc.Driver.compile ~scheme:Pssp.Scheme.Ssp ~linkage:Os.Image.Static program
    in
    let image, _report = Rewriter.Driver.instrument ssp in
    { image; preload = Os.Preload.No_preload; insn_tax = 0; call_tax = 0 }
  | Dynaguard_pin ->
    let image = Mcc.Driver.compile ~scheme:Pssp.Scheme.Dynaguard program in
    {
      image;
      preload = Os.Preload.Dynaguard_fix;
      insn_tax = pin_insn_tax;
      call_tax = 0;
    }
  | Dcr_static ->
    let image = Mcc.Driver.compile ~scheme:Pssp.Scheme.Dcr program in
    { image; preload = Os.Preload.Dcr_fix; insn_tax = 0; call_tax = dcr_call_tax }

type run = {
  stop : Os.Kernel.stop;
  cycles : int64;
  output : string;
  mem_bytes : int;
}

let run_built ?(input = Bytes.create 0) ?fuel ?(seed = 0x5EED5L) built =
  let kernel = Os.Kernel.create ~seed () in
  let proc =
    Os.Kernel.spawn kernel ~input ~preload:built.preload ~insn_tax:built.insn_tax
      ~call_tax:built.call_tax built.image
  in
  Os.Kernel.enqueue kernel proc;
  Os.Kernel.schedule ?fuel kernel;
  let stop = Os.Kernel.stop_of proc in
  {
    stop;
    cycles = Os.Process.cycles proc;
    output = Os.Process.stdout proc;
    mem_bytes = Vm64.Memory.mapped_bytes proc.Os.Process.mem;
  }

let run_bench ?seed deployment bench =
  Telemetry.Trace.with_span "runner.bench"
    ~args:
      [
        ("bench", bench.Workload.Spec.bench_name);
        ("deployment", deployment_name deployment);
      ]
    (fun () ->
  let built = build deployment (Workload.Spec.parse bench) in
  let run = run_built ?seed built in
  (match run.stop with
  | Os.Kernel.Stop_exit 0 -> ()
  | other ->
    failwith
      (Printf.sprintf "Runner.run_bench: %s under %s: %s"
         bench.Workload.Spec.bench_name (deployment_name deployment)
         (Os.Kernel.stop_to_string other)));
  run)

let overhead_pct ~native run =
  Util.Stats.overhead_pct
    ~baseline:(Int64.to_float native.cycles)
    ~measured:(Int64.to_float run.cycles)

(* Per-request guest-cycle distribution across every [run_server] call
   in the process; bucket bounds bracket the few-hundred-to-few-hundred-
   thousand-cycle requests the Table III/IV profiles produce. *)
let g_request_cycles =
  Telemetry.Registry.histogram "harness.server.request_cycles"
    ~bounds:[| 100; 300; 1_000; 3_000; 10_000; 30_000; 100_000; 300_000; 1_000_000 |]

type server_run = {
  avg_request_cycles : float;
  p50_request_cycles : float;
  p99_request_cycles : float;
  server_mem_bytes : int;
  server_resident_bytes : int;
  server_shared_bytes : int;
  forks : int;
  failed_requests : int;
  tcache_hits : int;
  tcache_misses : int;
  tcache_compiles : int;
}

let run_server ?(seed = 0x5E44EL) deployment (profile : Workload.Servers.profile)
    ~requests =
  let program = Minic.Parser.parse profile.Workload.Servers.source in
  let built = build deployment program in
  let kernel = Os.Kernel.create ~seed () in
  let server =
    Os.Kernel.spawn kernel ~preload:built.preload ~insn_tax:built.insn_tax
      ~call_tax:built.call_tax built.image
  in
  Os.Kernel.enqueue kernel server;
  Os.Kernel.schedule kernel;
  (match Os.Kernel.stop_of server with
  | Os.Kernel.Stop_accept -> ()
  | other ->
    failwith
      (Printf.sprintf "Runner.run_server: %s never reached accept: %s"
         profile.Workload.Servers.profile_name (Os.Kernel.stop_to_string other)));
  let mix = Array.of_list profile.Workload.Servers.requests in
  let samples = Array.make requests 0.0 in
  let failed = ref 0 in
  for i = 0 to requests - 1 do
    let request = Bytes.of_string mix.(i mod Array.length mix) in
    let before = Os.Process.cycles server in
    ignore (Os.Kernel.deliver_request kernel server request);
    Os.Kernel.schedule kernel;
    Os.Kernel.reap_zombies kernel server;
    (match Os.Kernel.stop_of server with
    | Os.Kernel.Stop_accept -> ()
    | other ->
      failwith
        (Printf.sprintf "Runner.run_server: server died: %s"
           (Os.Kernel.stop_to_string other)));
    let child_work =
      match Os.Kernel.last_reaped kernel with
      | Some child ->
        (match child.Os.Process.status with
        | Os.Process.Killed _ -> incr failed
        | _ -> ());
        Int64.to_float (Int64.sub (Os.Process.cycles child) before)
      | None -> 0.0
    in
    let parent_work = Int64.to_float (Int64.sub (Os.Process.cycles server) before) in
    samples.(i) <- child_work +. parent_work;
    Telemetry.Registry.observe g_request_cycles (int_of_float samples.(i))
  done;
  let xs = Vm64.Tcache.exec_stats server.Os.Process.cpu.Vm64.Cpu.tcache in
  {
    avg_request_cycles = Util.Stats.mean samples;
    p50_request_cycles = Util.Stats.median samples;
    p99_request_cycles = Util.Stats.percentile samples 99.0;
    server_mem_bytes = Vm64.Memory.mapped_bytes server.Os.Process.mem;
    server_resident_bytes = Vm64.Memory.resident_bytes server.Os.Process.mem;
    server_shared_bytes = Vm64.Memory.shared_bytes server.Os.Process.mem;
    forks = Os.Kernel.fork_count kernel;
    failed_requests = !failed;
    tcache_hits = xs.Vm64.Tcache.hits;
    tcache_misses = xs.Vm64.Tcache.misses;
    tcache_compiles = xs.Vm64.Tcache.compiles;
  }

(* ---- concurrent load ------------------------------------------------------ *)

type load_run = {
  sent : int;
  completed : int;
  load_failed : int;
  aborted : int;
  refused : int;
  peak_open : int;
  virtual_cycles : int64;
  throughput_rps : float;
  avg_latency_cycles : float;
  p50_latency_cycles : float;
  p99_latency_cycles : float;
  p999_latency_cycles : float;
  saturation_rps : float;
  load_forks : int;
  server_alive : bool;
}

let default_conn_timeout = 2_000_000L

(* Instruction budget per kernel turn inside the pump. Small enough
   that client state machines interleave with server execution well
   below the connection idle timeout (a saturated ready queue would
   otherwise run the whole campaign's cycles in one [schedule] call,
   starving slow senders until their conns time out), large enough
   that the pump loop itself is cheap. *)
let pump_slice = 262_144

(* The pump: alternate load-generator steps with kernel scheduling, and
   when neither side can move at the current virtual time, jump the
   clock to the earliest scheduled event (a client's send/retry stamp
   or a blocked connection's timeout deadline). All state is per-call
   and seeded, so a given configuration replays byte-identically no
   matter how many worker domains run pumps concurrently. *)
let pump kernel server lg =
  let try_connect () = Os.Kernel.connect kernel server in
  let stalls = ref 0 in
  let finished = ref false in
  while not !finished do
    let now0 = Os.Kernel.now kernel in
    let moved = Net.Loadgen.step lg ~now:now0 ~try_connect in
    Os.Kernel.schedule kernel ~fuel:pump_slice;
    if Net.Loadgen.finished lg then finished := true
    else if moved || Int64.compare (Os.Kernel.now kernel) now0 > 0 then
      stalls := 0
    else begin
      let next =
        match (Net.Loadgen.next_event lg, Os.Kernel.next_deadline kernel) with
        | None, None -> None
        | (Some _ as a), None -> a
        | None, (Some _ as b) -> b
        | Some a, Some b -> Some (if Int64.compare a b <= 0 then a else b)
      in
      (match next with
      | Some target when Int64.compare target now0 > 0 ->
        Os.Kernel.advance_to kernel target
      | _ -> incr stalls);
      (* nothing scheduled and nobody movable: a protocol wedge — fail
         the outstanding requests instead of spinning forever *)
      if !stalls > 3 then begin
        Net.Loadgen.force_finish lg ~now:(Os.Kernel.now kernel);
        finished := true
      end
    end
  done;
  (* let forked children drain: parked clients half-closed their conns,
     so blocked handlers see EOF; stragglers hit the conn timeout *)
  Os.Kernel.schedule kernel;
  match Os.Kernel.next_deadline kernel with
  | Some deadline ->
    Os.Kernel.advance_to kernel deadline;
    Os.Kernel.schedule kernel
  | None -> ()

let run_load ?(seed = 0x5E44EL) ?(loadgen_seed = 0x10AD6E4L)
    ?(conn_timeout = default_conn_timeout) ?(slow_every = 0) ?(abort_every = 0)
    deployment (profile : Workload.Servers.profile) ~mode ~connections
    ~keepalive ~total =
  Telemetry.Trace.with_span "runner.load"
    ~args:
      [
        ("profile", profile.Workload.Servers.profile_name);
        ("deployment", deployment_name deployment);
      ]
    (fun () ->
      let program = Minic.Parser.parse profile.Workload.Servers.source in
      let built = build deployment program in
      let kernel = Os.Kernel.create ~seed () in
      let server =
        Os.Kernel.spawn kernel ~preload:built.preload ~insn_tax:built.insn_tax
          ~call_tax:built.call_tax built.image
      in
      (* Forking servers park in accept; an event-loop server parks in
         epoll_wait and a sharded parent in waitpid (both Stop_io) —
         each means "ready for connections". *)
      Os.Kernel.enqueue kernel server;
      Os.Kernel.schedule kernel;
      (match Os.Kernel.stop_of server with
      | Os.Kernel.Stop_accept | Os.Kernel.Stop_io -> ()
      | other ->
        failwith
          (Printf.sprintf "Runner.run_load: %s never became ready: %s"
             profile.Workload.Servers.profile_name
             (Os.Kernel.stop_to_string other)));
      Os.Kernel.set_conn_timeout kernel (Some conn_timeout);
      let lg =
        Net.Loadgen.create ~seed:loadgen_seed ~slow_every ~abort_every ~mode
          ~clients:connections ~keepalive ~total
          ~mix:profile.Workload.Servers.requests ()
      in
      pump kernel server lg;
      Os.Kernel.reap_zombies kernel server;
      let r = Net.Loadgen.report lg in
      let latencies = Array.map Int64.to_float r.Net.Loadgen.latencies in
      let cycles = Os.Kernel.now kernel in
      let ms =
        Int64.to_float cycles /. profile.Workload.Servers.cycles_per_ms
      in
      {
        sent = r.Net.Loadgen.sent;
        completed = r.Net.Loadgen.completed;
        load_failed = r.Net.Loadgen.failed;
        aborted = r.Net.Loadgen.aborted;
        refused = r.Net.Loadgen.refused;
        peak_open = r.Net.Loadgen.peak_open;
        virtual_cycles = cycles;
        throughput_rps =
          (if ms > 0.0 then float_of_int r.Net.Loadgen.completed /. (ms /. 1000.0)
           else 0.0);
        avg_latency_cycles =
          (if Array.length latencies = 0 then 0.0 else Util.Stats.mean latencies);
        p50_latency_cycles =
          (if Array.length latencies = 0 then 0.0
           else Util.Stats.median latencies);
        p99_latency_cycles =
          (if Array.length latencies = 0 then 0.0
           else Util.Stats.percentile latencies 99.0);
        p999_latency_cycles =
          (if Array.length latencies = 0 then 0.0
           else Util.Stats.percentile latencies 99.9);
        saturation_rps =
          (let busy_ms =
             Int64.to_float r.Net.Loadgen.busy_cycles
             /. profile.Workload.Servers.cycles_per_ms
           in
           if busy_ms > 0.0 then
             float_of_int r.Net.Loadgen.completed /. (busy_ms /. 1000.0)
           else 0.0);
        load_forks = Os.Kernel.fork_count kernel;
        server_alive =
          (match server.Os.Process.status with
          | Os.Process.Exited _ | Os.Process.Killed _ -> false
          | _ -> true);
      })
