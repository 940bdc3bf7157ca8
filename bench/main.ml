(* Benchmark driver: regenerates every table and figure of the paper's
   evaluation (SVI) from the simulator.

   Usage:
     bench/main.exe [OPTIONS]             run every experiment
     bench/main.exe [OPTIONS] <exp> [...] run selected experiments
     bench/main.exe tierbench             compiled vs interpreter A/B
     bench/main.exe zygotebench           cold-boot vs zygote-resume A/B
     bench/main.exe validate FILE [...]   check telemetry JSON files
     bench/main.exe merge FILE [...]      combine --shard output files
   Experiments: table1 table2 table3 table4 table5 fig5 effectiveness
                loadbench compat theorem1 exposure ablation
   Flags are declared through Harness.Cli (shared with pssp_cli);
   bench/main.exe --help prints the generated option list.

   Every experiment is a Harness.Campaign — a fixed number of
   deterministic cells plus a merge step that renders the stdout body —
   so this driver is a table-driven dispatcher over Harness.Campaigns.
   [--shards N] runs each campaign as N in-process shard passes
   (byte-identical output for every N); [--shard K/N] computes one
   shard silently and records its rows in the --bench-out file for a
   later [merge].

   With --bench-out FILE, the run also records wall-clock + registry
   metrics per campaign in FILE (schema-3 perf trajectory record;
   stdout is unaffected). Without it, nothing is written. *)

let section = Harness.Campaign.section

(* ---- telemetry + perf trajectory ----------------------------------------- *)

let mem_stats_enabled = ref false
let effectiveness_budget = ref None
let bench_out : string option ref = ref None

(* loadbench knobs (see the `loadbench` campaign) *)
let load_connections = ref 64
let load_keepalive = ref 8
let load_mode = ref Net.Loadgen.Closed

let load_archs =
  ref [ Harness.Loadbench.Fork; Harness.Loadbench.Event; Harness.Loadbench.Reuseport ]

(* effectiveness victim respawn (--zygote) *)
let respawn = ref Attack.Oracle.No_respawn

(* --scheme (repeatable): narrow effectiveness to these schemes *)
let schemes = ref []

(* shard execution (--shards N / --shard K/N) *)
let shards = ref 1
let shard_spec : (int * int) option ref = ref None

let campaign_records : Util.Benchfile.campaign list ref = ref []

let metric snapshot name =
  match List.assoc_opt name snapshot with Some v -> v | None -> 0

(* The deterministic fork-path line (--mem-stats). Registry snapshots
   are sums over per-kernel work taken after worker domains join, so
   the line is byte-identical for every --jobs and --shards value —
   and, with --mem-stats off, stdout is byte-identical whether or not
   --metrics-out/--trace-out are recording. *)
let print_mem_stats name m =
  Printf.printf
    "MEM_STATS %s: forks=%d pages_shared=%d pages_cow_copied=%d \
     tcache_blocks_shared=%d tcache_hits=%d tcache_misses=%d \
     tcache_compiles=%d\n"
    name
    (metric m "os.kernel.forks")
    (metric m Vm64.Memory.metric_pages_aliased)
    (metric m Vm64.Memory.metric_cow_breaks)
    (metric m Vm64.Tcache.metric_blocks_shared)
    (metric m Vm64.Tcache.metric_hits)
    (metric m Vm64.Tcache.metric_misses)
    (metric m Vm64.Tcache.metric_compiles)

let record ?context ?cells ~name ~wall_s metrics =
  campaign_records :=
    Util.Benchfile.campaign ?context ?cells ~name ~wall_s metrics
    :: !campaign_records

let write_bench_json ~jobs =
  match (!bench_out, List.rev !campaign_records) with
  | None, _ | _, [] -> ()
  | Some file, campaigns ->
    let shards, shard =
      match !shard_spec with
      | Some (k, n) -> (n, Some k)
      | None -> (!shards, None)
    in
    Util.Benchfile.write file
      (Util.Benchfile.make ~shards ?shard ~pr:10 ~jobs
         ~compile_tier:(if Vm64.Compile.enabled () then 3 else 0)
         campaigns)

(* One campaign under the dispatcher. In shard mode compute this
   shard's rows silently and carry them to the merge step through the
   --bench-out file; otherwise run all cells (as --shards in-process
   passes), render, and record the merged metrics. *)
let run_campaign ~jobs (c : Harness.Campaign.t) =
  match !shard_spec with
  | Some (k, n) ->
    Telemetry.Registry.reset_all ();
    let t0 = Unix.gettimeofday () in
    let rows = Harness.Campaign.run_shard ~jobs ~shards:n ~shard:k c in
    let wall = Unix.gettimeofday () -. t0 in
    record ~context:c.Harness.Campaign.context ~cells:rows
      ~name:c.Harness.Campaign.name ~wall_s:wall
      (Telemetry.Registry.snapshot ())
  | None ->
    let t0 = Unix.gettimeofday () in
    let m = Harness.Campaign.run ~jobs ~shards:!shards c in
    let wall = Unix.gettimeofday () -. t0 in
    record ~context:c.Harness.Campaign.context ~name:c.Harness.Campaign.name
      ~wall_s:wall m;
    if !mem_stats_enabled then print_mem_stats c.Harness.Campaign.name m

(* `validate FILE...`: re-read telemetry JSON through the Benchfile
   reader (campaign record first, bare metrics snapshot second) so CI
   catches writer/reader drift. *)
let run_validate files =
  List.iter
    (fun file ->
      match Util.Benchfile.read file with
      | Ok t ->
        Printf.printf "VALIDATE %s: ok (campaign record, %d campaign(s))\n" file
          (List.length t.Util.Benchfile.campaigns)
      | Error bench_err -> (
        match Util.Benchfile.read_metrics file with
        | Ok m ->
          Printf.printf "VALIDATE %s: ok (metrics snapshot, %d metric(s))\n" file
            (List.length m)
        | Error metrics_err ->
          Printf.eprintf "VALIDATE %s: FAILED\n  as campaign record: %s\n  as metrics snapshot: %s\n"
            file bench_err metrics_err;
          exit 1))
    files

(* ---- merge: combine --shard output files ---------------------------------- *)

let die fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "%s\n" msg;
      exit 1)
    fmt

(* Read the shard files, check that they tile a single run
   ([Benchfile.tile]), then render each campaign's body from the union
   of rows and write the merged record. Output is byte-identical to
   running the same experiments unsharded. A damaged row never reaches
   [Campaign.unpack]: the reader refuses it by its digest. *)
let run_merge ~config files =
  let records =
    List.map
      (fun file ->
        match Util.Benchfile.read file with
        | Ok t -> (file, t)
        | Error msg -> die "merge: %s: %s" file msg)
      files
  in
  let campaigns =
    match Util.Benchfile.tile records with
    | Ok campaigns -> campaigns
    | Error msg -> die "merge: %s" msg
  in
  let merged =
    List.map
      (fun parts ->
        let c = List.hd parts in
        let name = c.Util.Benchfile.name and context = c.Util.Benchfile.context in
        let rows = List.concat_map (fun (p : Util.Benchfile.campaign) -> p.cells) parts in
        (match Harness.Campaigns.find config name with
        | Some campaign -> (
          (* a missing or duplicated cell *)
          try Harness.Campaign.render ~context campaign rows
          with Failure msg -> die "merge: %s" msg)
        | None -> die "merge: unknown campaign %s" name);
        let metrics =
          Telemetry.Registry.merge
            (List.map (fun (p : Util.Benchfile.campaign) -> p.metrics) parts)
        in
        if !mem_stats_enabled then print_mem_stats name metrics;
        Util.Benchfile.campaign ~context ~name
          ~wall_s:
            (List.fold_left
               (fun acc (p : Util.Benchfile.campaign) -> acc +. p.wall_s)
               0.0 parts)
          metrics)
      campaigns
  in
  let _, first = List.hd records in
  Option.iter
    (fun file ->
      Util.Benchfile.write file
        (Util.Benchfile.make ~shards:first.Util.Benchfile.shards ~merged_from:files
           ~pr:first.Util.Benchfile.pr ~jobs:first.Util.Benchfile.jobs
           ~compile_tier:first.Util.Benchfile.compile_tier merged))
    !bench_out

(* ---- tier A/B: same workload, compiled execution off then on ---------- *)

let run_tierbench () =
  section "Tier A/B - interpreter vs compiled (threaded chain)";
  (* best-of-3 to shrug off GC and scheduler noise; the first run
     doubles as warm-up for the host *)
  let best_of_3 f =
    let best = ref infinity in
    for _ = 1 to 3 do
      let t0 = Unix.gettimeofday () in
      f ();
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best then best := dt
    done;
    !best
  in
  (* each timed cell also lands in the --bench-out record as its own
     campaign, named by the record's compile_tier value (0 off, 3 on),
     so the perf trajectory file carries the delta alongside the
     campaign walls *)
  let time_mode ~workload on f =
    Vm64.Compile.set_enabled on;
    Telemetry.Registry.reset_all ();
    let dt = best_of_3 f in
    record
      ~name:(Printf.sprintf "tierbench/%s@tier%d" workload (if on then 3 else 0))
      ~wall_s:dt
      (Telemetry.Registry.snapshot ());
    Vm64.Compile.set_enabled true;
    dt
  in
  (* the gate: compiled execution beats the interpreter on the
     forking-server workload *)
  let profile = Workload.Servers.nginx in
  let requests = 2000 in
  let serve () =
    ignore
      (Harness.Runner.run_server (Harness.Runner.Compiler Pssp.Scheme.Pssp)
         profile ~requests)
  in
  let interp_s = time_mode ~workload:"nginx" false serve in
  let compiled_s = time_mode ~workload:"nginx" true serve in
  Printf.printf
    "TIERBENCH profile=%s requests=%d interp_s=%.3f compiled_s=%.3f speedup=%.2fx\n"
    profile.Workload.Servers.profile_name requests interp_s compiled_s
    (interp_s /. compiled_s);
  if compiled_s >= interp_s then begin
    Printf.eprintf
      "tierbench: compiled execution (%.3fs) is not faster than the \
       interpreter (%.3fs)\n"
      compiled_s interp_s;
    exit 1
  end

(* ---- zygote A/B: cold-boot vs snapshot-resume victim respawn ------------- *)

let run_zygotebench ~jobs () =
  section "Zygote A/B - cold-boot vs snapshot-resume victim respawn";
  let image =
    Mcc.Driver.compile ~scheme:Pssp.Scheme.Pssp
      (Minic.Parser.parse (Workload.Vuln.fork_server_net ~buffer_size:16))
  in
  (* gate (PR 9): thawing the warm snapshot beats re-running boot in an
     empty translation cache. The respawn loop is the unit an attack's
     restarts pay for; amplifying it isolates the cost from attack
     noise. *)
  let respawns = 500 in
  let time_respawns mode name =
    Telemetry.Registry.reset_all ();
    let oracle =
      Attack.Oracle.create ~preload:Os.Preload.Pssp_wide ~respawn:mode image
    in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to respawns do
      ignore (Attack.Oracle.restart_victim oracle)
    done;
    let dt = Unix.gettimeofday () -. t0 in
    record
      ~name:(Printf.sprintf "zygotebench/respawn@%s" name)
      ~wall_s:dt
      (Telemetry.Registry.snapshot ());
    dt
  in
  let cold_s = time_respawns Attack.Oracle.Cold "cold" in
  let zygote_s = time_respawns Attack.Oracle.Zygote "zygote" in
  Printf.printf
    "ZYGOTEBENCH respawns=%d cold_s=%.3f zygote_s=%.3f speedup=%.2fx\n" respawns
    cold_s zygote_s (cold_s /. zygote_s);
  if zygote_s >= cold_s then begin
    Printf.eprintf
      "zygotebench: zygote resume (%.3fs) is not faster than cold boot \
       (%.3fs)\n"
      zygote_s cold_s;
    exit 1
  end;
  (* the full effectiveness campaign under both respawn modes (same
     attack, bit-identical victims — only the restart path differs),
     recorded in the perf trajectory file *)
  let budget = Option.value !effectiveness_budget ~default:20_000 in
  let time_eff mode name =
    Telemetry.Registry.reset_all ();
    let t0 = Unix.gettimeofday () in
    ignore (Harness.Effectiveness.run ~jobs ~budget ~respawn:mode ());
    let dt = Unix.gettimeofday () -. t0 in
    record
      ~name:(Printf.sprintf "zygotebench/effectiveness@%s" name)
      ~wall_s:dt
      (Telemetry.Registry.snapshot ());
    dt
  in
  let eff_cold_s = time_eff Attack.Oracle.Cold "cold" in
  let eff_zygote_s = time_eff Attack.Oracle.Zygote "zygote" in
  Printf.printf
    "ZYGOTEBENCH2 experiment=effectiveness budget=%d jobs=%d cold_s=%.3f \
     zygote_s=%.3f speedup=%.2fx\n"
    budget jobs eff_cold_s eff_zygote_s (eff_cold_s /. eff_zygote_s)

let () =
  let jobs = ref 1 in
  let telem = Harness.Cli.telemetry_opts () in
  let specs =
    [
      Harness.Cli.nonneg_int ~name:"--jobs" ~docv:"N"
        ~doc:
          "fan the campaign workloads across N domains (default 1;\n\
           0 = recommended domain count). Output is byte-identical for any N."
        (fun j -> jobs := j);
      Harness.Cli.pos_int ~name:"--budget" ~docv:"N"
        ~doc:
          "trial budget per effectiveness cell (default 20000) /\n\
           requests per loadbench cell (default 512)"
        (fun b -> effectiveness_budget := Some b);
      Harness.Cli.pos_int ~name:"--shards" ~docv:"N"
        ~doc:
          "run each campaign as N in-process shard passes and merge\n\
           (default 1). Output is byte-identical for any N."
        (fun n -> shards := n);
      Harness.Cli.value ~name:"--shard" ~docv:"K/N"
        ~doc:
          "compute only shard K of N (0-based) and record its rows in\n\
           the --bench-out file for a later `merge`; prints nothing"
        (fun s ->
          match Scanf.sscanf_opt s "%d/%d%!" (fun k n -> (k, n)) with
          | Some (k, n) when n >= 1 && k >= 0 && k < n ->
            shard_spec := Some (k, n);
            Ok ()
          | _ ->
            Error
              (Harness.Cli.expects ~name:"--shard" ~what:"K/N with 0 <= K < N" s));
      Harness.Cli.value ~name:"--zygote" ~docv:"off|on|cold"
        ~doc:
          "effectiveness victim respawn at each attack restart: off\n\
           (default) keeps the long-lived parent, on thaws the zygote\n\
           snapshot captured at boot, cold boots afresh (on and cold are\n\
           observationally identical; only the restart cost differs)"
        (fun s ->
          match s with
          | "off" ->
            respawn := Attack.Oracle.No_respawn;
            Ok ()
          | "on" ->
            respawn := Attack.Oracle.Zygote;
            Ok ()
          | "cold" ->
            respawn := Attack.Oracle.Cold;
            Ok ()
          | _ ->
            Error (Harness.Cli.expects ~name:"--zygote" ~what:"off, on or cold" s));
      Harness.Cli.scheme_value ~name:"--scheme"
        ~doc:
          "narrow the effectiveness campaign to this protection scheme\n\
           (repeatable; default: the full target list). Rejects names\n\
           Pssp.Scheme.of_name does not know."
        (fun s -> schemes := !schemes @ [ s ]);
      Harness.Cli.pos_int ~name:"--connections" ~docv:"N"
        ~doc:"loadbench: concurrent client population (default 64)"
        (fun n -> load_connections := n);
      Harness.Cli.pos_int ~name:"--keepalive" ~docv:"N"
        ~doc:"loadbench: requests per connection before reconnecting (default 8)"
        (fun n -> load_keepalive := n);
      Harness.Cli.value ~name:"--loadgen" ~docv:"open|closed"
        ~doc:
          "loadbench population model: closed loop (default) or open\n\
           arrivals on a fixed interarrival clock"
        (fun s ->
          match s with
          | "closed" ->
            load_mode := Net.Loadgen.Closed;
            Ok ()
          | "open" ->
            load_mode := Net.Loadgen.Open { interarrival = 20_000L };
            Ok ()
          | _ -> Error (Harness.Cli.expects ~name:"--loadgen" ~what:"open or closed" s));
      Harness.Cli.value ~name:"--server-arch" ~docv:"fork|event|reuseport|all"
        ~doc:
          "loadbench server architecture: fork-per-connection, the\n\
           single-process epoll event loop, SO_REUSEPORT-style sharded\n\
           acceptors, or all three (default all)"
        (fun s ->
          match s with
          | "fork" ->
            load_archs := [ Harness.Loadbench.Fork ];
            Ok ()
          | "event" ->
            load_archs := [ Harness.Loadbench.Event ];
            Ok ()
          | "reuseport" ->
            load_archs := [ Harness.Loadbench.Reuseport ];
            Ok ()
          | "all" ->
            load_archs :=
              [
                Harness.Loadbench.Fork;
                Harness.Loadbench.Event;
                Harness.Loadbench.Reuseport;
              ];
            Ok ()
          | _ ->
            Error
              (Harness.Cli.expects ~name:"--server-arch"
                 ~what:"fork, event, reuseport or all" s));
      Harness.Cli.flag ~name:"--mem-stats"
        ~doc:
          "print a deterministic fork-path + translation-cache telemetry\n\
           line after each campaign: forks, pages shared and CoW-copied\n\
           at fork, and the fork family's decode cache (blocks shared at\n\
           fork, hits, misses, compiles). NOTE: the tcache counters\n\
           depend on --compile-tier (compiles is 0 when off; chained\n\
           execution bypasses hit accounting), so off/on output diffs\n\
           must not enable it."
        (fun () -> mem_stats_enabled := true);
      Harness.Cli.on_off ~name:"--compile-tier"
        ~doc:
          "on (default): run translations as the threaded chain; off:\n\
           interpret every instruction. Campaign output is\n\
           byte-identical either way."
        Vm64.Compile.set_enabled;
      Harness.Cli.string_value ~name:"--bench-out" ~docv:"FILE"
        ~doc:"write the perf trajectory record to FILE (without it, none is written)"
        (fun f -> bench_out := Some f);
    ]
    @ Harness.Cli.telemetry_specs telem
  in
  let args =
    Harness.Cli.parse_or_exit ~prog:"bench/main.exe"
      ~positional:
        "[tierbench | zygotebench | validate FILE... | merge FILE... \
         | <experiment>...]"
      specs
      (List.tl (Array.to_list Sys.argv))
  in
  if !shard_spec <> None && !shards <> 1 then begin
    Printf.eprintf "--shard and --shards are mutually exclusive\n";
    exit 1
  end;
  if !shard_spec <> None && !bench_out = None then begin
    Printf.eprintf "--shard K/N needs --bench-out FILE to record the shard's rows\n";
    exit 1
  end;
  let jobs = if !jobs = 0 then Harness.Pool.default_jobs () else !jobs in
  let config =
    {
      Harness.Campaigns.budget = !effectiveness_budget;
      connections = !load_connections;
      keepalive = !load_keepalive;
      load_mode = !load_mode;
      load_archs = !load_archs;
      respawn = !respawn;
      schemes = !schemes;
    }
  in
  Harness.Cli.telemetry_start telem;
  (match args with
  | [ "tierbench" ] -> run_tierbench ()
  | [ "zygotebench" ] -> run_zygotebench ~jobs ()
  | "validate" :: files -> run_validate files
  | "merge" :: files -> run_merge ~config files
  | [] ->
    if !shard_spec = None then
      print_string
        "P-SSP reproduction: regenerating every table and figure of the paper\n";
    List.iter (run_campaign ~jobs) (Harness.Campaigns.all config)
  | names ->
    let campaigns = Harness.Campaigns.all config in
    List.iter
      (fun name ->
        match
          List.find_opt
            (fun (c : Harness.Campaign.t) ->
              String.equal c.Harness.Campaign.name name)
            campaigns
        with
        | Some c -> run_campaign ~jobs c
        | None ->
          Printf.eprintf "unknown experiment %s (have: %s, tierbench)\n"
            name
            (String.concat " " (Harness.Campaigns.names config));
          exit 1)
      names);
  (* merge writes its own combined record *)
  (match args with "merge" :: _ -> () | _ -> write_bench_json ~jobs);
  Harness.Cli.telemetry_finish telem
