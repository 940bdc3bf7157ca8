(* perf — the perf-v1 benchmark: four frozen workloads, each rep in a
   fresh single-domain process, host metrics as medians over reps, exact
   guest metrics, a traced rep for per-layer numbers, and a compare
   verdict between two result files. See perf/README.md. *)

open Cmdliner
module J = Util.Json

(* ---- one rep, in this process ------------------------------------------ *)

(* VmHWM of this process, in MB. *)
let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> failwith "VmHWM missing from /proc/self/status"
        | Some l when String.starts_with ~prefix:"VmHWM:" l ->
          Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1000.0)
        | Some _ -> go ()
      in
      go ())

(* Per-layer values of a traced rep: span totals, registry deltas over
   the timed phase, and what the workload observed from outside. *)
let layers (r : Suite.result) =
  let totals = Span.totals () in
  let span n = Option.value (Hashtbl.find_opt totals n) ~default:(0.0, 0) in
  let span_s n = fst (span n) in
  let delta n = float_of_int (Option.value (List.assoc_opt n r.delta) ~default:0) in
  let obs n = Option.value (List.assoc_opt n r.observed) ~default:0.0 in
  let per a b = if b > 0.0 then a /. b else 0.0 in
  let guest = Option.value (List.assoc_opt "guest_cycles" r.guest) ~default:0.0 in
  let hits = delta "vm.tcache.hits" and misses = delta "vm.tcache.misses" in
  (* a traced rep is not host-speed corrected: spans are raw wall time *)
  let wall = r.times.raw_wall_s in
  [
    ("minic.parse_s", span_s "minic.parse");
    ("mcc.compile_s", span_s "mcc.compile");
    ("rewriter.instrument_s", span_s "rewriter.instrument");
    ("os.boot_s", span_s "os.boot");
    ("os.schedule_s", span_s "os.schedule");
    ("os.schedule.calls", float_of_int (snd (span "os.schedule")));
    ("os.guest_cycles", guest);
    ("os.idle_cycles", obs "os.idle_cycles");
    ("os.ns_per_guest_cycle", per (span_s "os.schedule" *. 1e9) guest);
    ("os.connect_s", span_s "os.connect");
    ("os.us_per_request", per (wall *. 1e6) (obs "requests_completed"));
    ("vm64.tcache.hit_ratio", per hits (hits +. misses));
    ("vm64.guest_cycles_per_translation", per guest (delta "vm.tcache.compiles"));
    ("net.loadgen.step_s", span_s "net.loadgen.step");
    ("net.loadgen.steps", obs "net.loadgen.steps");
    ("net.loadgen.max_late_cycles", obs "net.loadgen.max_late_cycles");
    ("attack.oracle_create_s", span_s "attack.oracle_create");
    ("attack.run_s", span_s "attack.run");
    ("attack.trials", obs "attack.trials");
    ("attack.us_per_trial", per (wall *. 1e6) (obs "attack.trials"));
    ("harness.table5_s", span_s "harness.table5");
    ("perf.unattributed_s", wall -. Span.children_s "perf.timed");
    ("perf.traced_wall_s", wall);
  ]
  (* registry counters; the library's [vm.] metrics belong to vm64 *)
  @ List.map
      (fun n ->
        let layer =
          if String.starts_with ~prefix:"vm." n then "vm64" ^ String.sub n 2 (String.length n - 2)
          else n
        in
        (layer, delta n))
      [
        "os.kernel.forks"; "os.kernel.crashes"; "os.kernel.exits"; "os.kernel.wakeups";
        "os.snapshot.captures"; "os.snapshot.resumes"; "vm.tcache.hits"; "vm.tcache.misses";
        "vm.tcache.compiles"; "vm.tcache.blocks_shared"; "vm.tcache.tables_materialised";
        "vm.compile.superblocks"; "vm.compile.chains_patched"; "vm.compile.dispatch_avoided";
        "vm.compile.spills"; "vm.compile.reloads"; "vm.mem.clones"; "vm.mem.cow_breaks";
        "vm.mem.pages_aliased"; "net.conn.opened"; "net.conn.accepted"; "net.conn.refused";
        "net.conn.reset"; "net.conn.timeouts"; "net.bytes.rx"; "net.bytes.tx";
        "attack.restarts"; "attack.victim_respawns";
      ]

let floats_obj kvs = J.Obj (List.map (fun (k, v) -> (k, J.Float v)) kvs)

let print_rep ~workload ~errors ~attempted ~failed ~metrics ~layers =
  print_endline
    (J.to_string
       (J.Obj
          [
            ("workload", J.String workload);
            ("correct", J.Bool (errors = []));
            ("errors", J.List (List.map (fun e -> J.String e) errors));
            ("attempted", J.Int attempted);
            ("failed", J.Int failed);
            ("metrics", floats_obj metrics);
            ("layers", floats_obj layers);
          ]))

let rep workload cfg ~traced ~setup_only ~spans_out =
  Span.enable traced;
  Calib.enabled := not traced;
  Suite.setup_only := setup_only;
  match List.assoc workload Suite.all cfg with
  | exception Suite.Set_up setup_s ->
    print_rep ~workload ~errors:[] ~attempted:0 ~failed:0 ~metrics:[ ("setup_s", setup_s) ]
      ~layers:[];
    0
  | r ->
    Span.enable false;
    let metrics =
      [
        ("setup_s", r.times.setup_s);
        ("wall_s", r.times.wall_s);
        ("raw_wall_s", r.times.raw_wall_s);
        (* the calibration heap is the benchmark's, not the program's *)
        ("peak_rss_mb", peak_rss_mb () -. Calib.heap_mb ());
        ("failed_frac", float_of_int r.failed /. float_of_int (Stdlib.max 1 r.attempted));
      ]
      @ r.guest
    in
    Option.iter
      (fun path ->
        Out_channel.with_open_gen [ Open_wronly; Open_append; Open_creat ] 0o644 path
          (fun oc -> Span.write_line oc ~workload))
      spans_out;
    print_rep ~workload ~errors:r.errors ~attempted:r.attempted ~failed:r.failed ~metrics
      ~layers:(if traced then layers r else []);
    0

(* ---- reps in child processes -------------------------------------------- *)

type rep_result = {
  ok : bool;
  errors : string list;
  attempted : int;
  failed : int;
  values : (string * float) list;
  layer_values : (string * float) list;
}

let floats_of j =
  Option.value ~default:[]
    (Option.map
       (List.filter_map (fun (k, v) -> Option.map (fun f -> (k, f)) (J.to_float_opt v)))
       (Option.bind j J.to_obj_opt))

let parse_rep line =
  let ( let* ) = Option.bind in
  let* j = Result.to_option (J.parse line) in
  let* ok = Option.bind (J.member "correct" j) J.to_bool_opt in
  let* attempted = Option.bind (J.member "attempted" j) J.to_int_opt in
  let* failed = Option.bind (J.member "failed" j) J.to_int_opt in
  let errors =
    Option.value ~default:[]
      (Option.map (List.filter_map J.to_string_opt)
         (Option.bind (J.member "errors" j) J.to_list_opt))
  in
  Some
    {
      ok;
      errors;
      attempted;
      failed;
      values = floats_of (J.member "metrics" j);
      layer_values = floats_of (J.member "layers" j);
    }

let rep_args workload (cfg : Suite.config) =
  [ "rep"; "--workload"; workload; "--scale"; Printf.sprintf "%.17g" cfg.scale ]
  @ match cfg.seed with None -> [] | Some s -> [ "--seed"; Int64.to_string s ]

let failed_rep msg =
  { ok = false; errors = [ msg ]; attempted = 1; failed = 1; values = []; layer_values = [] }

(* Run one rep in a fresh process of this executable and read the JSON
   line it prints last. *)
let spawn_rep args =
  let exe = Sys.executable_name in
  let r, w = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin w Unix.stderr in
  Unix.close w;
  let text = In_channel.input_all (Unix.in_channel_of_descr r) in
  Unix.close r;
  let last =
    List.fold_left
      (fun acc l -> if String.trim l = "" then acc else l)
      "" (String.split_on_char '\n' text)
  in
  match snd (Unix.waitpid [] pid) with
  | Unix.WEXITED 0 -> (
    match parse_rep last with
    | Some rr -> rr
    | None -> failed_rep "rep printed no result line")
  | Unix.WEXITED n -> failed_rep (Printf.sprintf "rep process exited %d" n)
  | Unix.WSIGNALED n | Unix.WSTOPPED n ->
    failed_rep (Printf.sprintf "rep process killed by signal %d" n)

let value n rr = List.assoc_opt n rr.values

let summarise workload ~reps:(rs : rep_result list) ~traced =
  let metrics =
    List.filter_map
      (fun (m : Report.metric) ->
        if not (Report.applies m workload) then None
        else
          match List.filter_map (value m.name) rs with
          | [] -> None
          | samples -> Some (m.name, Report.summarise samples))
      Report.end_to_end
  in
  let layers =
    match traced with
    | None -> []
    | Some t ->
      let untraced = List.filter_map (value "raw_wall_s") rs in
      let overhead =
        match (value "raw_wall_s" t, untraced) with
        | Some tw, _ :: _ -> (tw /. Report.median untraced) -. 1.0
        | _ -> 0.0
      in
      t.layer_values @ [ ("perf.trace_overhead_frac", overhead) ]
  in
  let all = rs @ Option.to_list traced in
  {
    Report.workload;
    correct = List.for_all (fun r -> r.ok) all;
    errors = List.sort_uniq compare (List.concat_map (fun r -> r.errors) all);
    attempted = List.fold_left (fun a r -> a + r.attempted) 0 all;
    failed = List.fold_left (fun a r -> a + r.failed) 0 all;
    metrics;
    layers;
  }

(* Reps interleave across workloads, so slow drift on the host spreads
   over every workload instead of landing on one. *)
let run_suite ~reps ~(cfg : Suite.config) ~trace =
  let results = Hashtbl.create 4 in
  for i = 1 to reps do
    List.iter
      (fun w ->
        Printf.eprintf "perf: rep %d/%d %s\n%!" i reps w;
        Hashtbl.add results w (spawn_rep (rep_args w cfg)))
      Suite.names
  done;
  let traced =
    match trace with
    | None -> fun _ -> None
    | Some path ->
      Out_channel.with_open_bin path (fun _ -> ());
      let tbl =
        List.map
          (fun w ->
            Printf.eprintf "perf: traced rep %s\n%!" w;
            (w, spawn_rep (rep_args w cfg @ [ "--trace"; "--spans-out"; path ])))
          Suite.names
      in
      fun w -> List.assoc_opt w tbl
  in
  {
    Report.seed = cfg.seed;
    scale = cfg.scale;
    reps;
    workloads =
      List.map
        (fun w -> summarise w ~reps:(List.rev (Hashtbl.find_all results w)) ~traced:(traced w))
        Suite.names;
  }

(* ---- the fixed-length form BENCHMARK.json describes ---------------------- *)

let now_s () = float_of_int (Span.now_ns ()) *. 1e-9

(* Set-up takes milliseconds, so one set-up is a noisy sample; the
   untraced form takes this many more, each cold in its own process. *)
let setup_reps = 9

(* First, off the clock, one rep at the default seeds and the pin scale,
   whose exact guest outputs gate [correct] whatever [--seed] is.
   Untraced: [setup_reps] set-ups, then whole reps back to back while
   the next one still fits in [seconds] (at least one), reporting the
   end-to-end host metrics as medians. Traced: one untraced and one
   traced rep, reporting the per-layer and guest metrics. *)
let bench workload (cfg : Suite.config) ~seconds ~trace =
  let pin = spawn_rep (rep_args workload { Suite.seed = None; scale = Suite.pin_scale }) in
  let args = rep_args workload cfg in
  let reps, traced =
    if trace then ([ spawn_rep args ], Some (spawn_rep (args @ [ "--trace" ])))
    else begin
      let t0 = now_s () in
      let setups = List.init setup_reps (fun _ -> spawn_rep (args @ [ "--setup-only" ])) in
      let t1 = now_s () in
      let rec go done_ =
        let now = now_s () and n = List.length done_ in
        (* the next rep would take the mean of those so far *)
        if n > 0 && now -. t0 +. ((now -. t1) /. float_of_int n) > float_of_int seconds
        then List.rev done_
        else go (spawn_rep args :: done_)
      in
      (setups @ go [], None)
    end
  in
  let w = summarise workload ~reps ~traced in
  let value name =
    match List.assoc_opt name w.metrics with
    | Some s -> Some s.med
    | None -> List.assoc_opt name w.layers
  in
  let metrics =
    if trace then
      List.map
        (fun (n, unit_, _) -> (n, unit_, Option.value (value n) ~default:0.0))
        Report.traced_metrics
    else
      List.filter_map
        (fun (m : Report.metric) ->
          if m.kind <> Report.Host then None
          else Option.map (fun v -> (m.name, m.unit_, v)) (value m.name))
        Report.end_to_end
  in
  print_endline
    (J.to_string
       (J.Obj
          [
            ("correct", J.Bool (w.correct && pin.ok));
            ("attempted", J.Int w.attempted);
            ("failed", J.Int w.failed);
            ( "metrics",
              J.Obj
                (List.map
                   (fun (n, unit_, v) ->
                     (n, J.Obj [ ("value", J.Float v); ("unit", J.String unit_) ]))
                   metrics) );
          ]));
  List.iter (fun e -> Printf.eprintf "perf: %s: %s\n" workload e) (pin.errors @ w.errors);
  0

(* ---- smoke test (dune runtest) ------------------------------------------ *)

let pump_requests = 500

(* BENCHMARK.json repeats the workload names and every metric's name,
   unit and direction; they must agree with this program. *)
let check_benchmark_json path =
  match J.parse (In_channel.with_open_bin path In_channel.input_all) with
  | Error e -> [ path ^ ": " ^ e ]
  | Ok j ->
    let rows key fields =
      List.map
        (fun e ->
          List.map
            (fun f -> Option.value ~default:"?" (Option.bind (J.member f e) J.to_string_opt))
            fields)
        (Option.value ~default:[] (Option.bind (J.member key j) J.to_list_opt))
    in
    let metric (name, unit_, better) = [ name; unit_; Report.better_name better ] in
    let host =
      List.filter_map
        (fun (m : Report.metric) ->
          if m.kind = Report.Host then Some (metric (m.name, m.unit_, m.better)) else None)
        Report.end_to_end
    in
    let rec first_diff = function
      | g :: gs, w :: ws -> if g = w then first_diff (gs, ws) else Some (g, w)
      | g :: _, [] -> Some (g, [ "nothing" ])
      | [], w :: _ -> Some ([ "nothing" ], w)
      | [], [] -> None
    in
    List.filter_map
      (fun (key, got, want) ->
        Option.map
          (fun (g, w) ->
            Printf.sprintf "%s: %s lists %S where perf.exe has %S" path key
              (String.concat " " g) (String.concat " " w))
          (first_diff (got, want)))
      [
        ("workloads", rows "workloads" [ "name" ], List.map (fun n -> [ n ]) Suite.names);
        ("end_to_end", rows "end_to_end" [ "name"; "unit"; "better" ], host);
        ( "per_layer",
          rows "per_layer" [ "name"; "unit"; "better" ],
          List.map metric Report.traced_metrics );
      ]

(* The perf pump must replay Harness.Runner.run_load exactly. *)
let check_pump (spec : Suite.serve) =
  let mine = Suite.pump spec (Suite.serve_setup spec ~total:pump_requests ()) in
  let theirs =
    Harness.Runner.run_load (Harness.Runner.Compiler Pssp.Scheme.Pssp) spec.profile
      ~mode:spec.mode ~connections:spec.clients ~keepalive:spec.keepalive
      ~total:pump_requests ~slow_every:Suite.slow_every ~abort_every:Suite.abort_every
  in
  let fields = Printf.sprintf "%d/%d/%d/%.0f/%.0f/%Ld" in
  let a =
    fields mine.sent mine.completed mine.lg_failed mine.p50 mine.p999 mine.virtual_cycles
  in
  let b =
    fields theirs.sent theirs.completed theirs.load_failed theirs.p50_latency_cycles
      theirs.p999_latency_cycles theirs.virtual_cycles
  in
  if a = b then [] else [ Printf.sprintf "pump %s <> run_load %s" a b ]

let smoke benchmark_json =
  let out = Filename.temp_file "perf-smoke" ".json" in
  let spans = Filename.temp_file "perf-smoke" ".spans" in
  let cfg = { Suite.seed = None; scale = Suite.pin_scale } in
  let t = run_suite ~reps:1 ~cfg ~trace:(Some spans) in
  Report.write out t;
  let check what errors =
    Printf.printf "%s %s\n" (if errors = [] then "ok  " else "FAIL") what;
    List.iter (Printf.printf "     %s\n") errors;
    errors = []
  in
  let pins =
    List.concat_map
      (fun (w : Report.workload_result) ->
        if w.correct then [] else List.map (fun e -> w.workload ^ ": " ^ e) w.errors)
      t.workloads
  in
  let reread =
    match Report.read out with
    | Error e -> [ e ]
    | Ok t' ->
      let lines =
        List.filter (( <> ) "")
          (String.split_on_char '\n' (In_channel.with_open_bin spans In_channel.input_all))
      in
      (if t' = t then [] else [ "result file does not re-read to the same value" ])
      @ (if List.length lines = List.length Suite.names then []
         else [ "spans: not one line per workload" ])
      @ List.filter_map
          (fun l -> match J.parse l with Ok _ -> None | Error e -> Some ("spans: " ^ e))
          lines
  in
  let coverage =
    List.filter_map
      (fun (w : Report.workload_result) ->
        let get n = Option.value (List.assoc_opt n w.layers) ~default:nan in
        let c = 1.0 -. (get "perf.unattributed_s" /. get "perf.traced_wall_s") in
        if c >= 0.95 then None
        else Some (Printf.sprintf "%s: spans cover %.1f%% of wall_s" w.workload (c *. 100.0)))
      t.workloads
  in
  let pump = check_pump Suite.serve_fork @ check_pump Suite.serve_event in
  Sys.remove out;
  Sys.remove spans;
  let results =
    List.map
      (fun (what, errors) -> check what errors)
      [
        (Printf.sprintf "pins of all workloads at --scale %g" Suite.pin_scale, pins);
        ("result and span files re-read", reread);
        ("traced spans cover >= 95% of wall_s", coverage);
        (Printf.sprintf "pump replays Runner.run_load (%d requests)" pump_requests, pump);
        ("BENCHMARK.json agrees with perf.exe", check_benchmark_json benchmark_json);
      ]
  in
  if List.for_all Fun.id results then 0 else 1

(* ---- command line -------------------------------------------------------- *)

let workload_conv =
  let parse s =
    if List.mem s Suite.names then Ok s
    else
      Error
        (`Msg
          (Printf.sprintf "unknown workload %S (have: %s)" s (String.concat ", " Suite.names)))
  in
  Arg.conv (parse, Format.pp_print_string)

let seed_arg =
  let doc = "Replace every kernel, load-generator and oracle seed with $(docv)." in
  Arg.(value & opt (some int64) None & info [ "seed" ] ~docv:"S" ~doc)

let scale_arg =
  let doc =
    "Multiply trial budgets, request counts, Table V calls and the number of \
     Fig. 5 programs by $(docv). Exact pins hold only at 1."
  in
  Arg.(value & opt float 1.0 & info [ "scale" ] ~docv:"X" ~doc)

let config_term =
  Term.(const (fun seed scale -> { Suite.seed; scale }) $ seed_arg $ scale_arg)

let workload_arg =
  Arg.(required & opt (some workload_conv) None & info [ "workload" ] ~docv:"NAME")

let rep_cmd =
  let traced = Arg.(value & flag & info [ "trace" ] ~doc:"Record spans.") in
  let setup_only =
    Arg.(value & flag & info [ "setup-only" ] ~doc:"Stop after the set-up phase.")
  in
  let spans_out =
    Arg.(value & opt (some string) None & info [ "spans-out" ] ~docv:"FILE"
           ~doc:"Append the recorded spans to $(docv) as one JSON line.")
  in
  Cmd.v
    (Cmd.info "rep" ~doc:"Run one rep of one workload in this process; print a JSON line.")
    Term.(
      const (fun w cfg traced setup_only spans_out -> rep w cfg ~traced ~setup_only ~spans_out)
      $ workload_arg $ config_term $ traced $ setup_only $ spans_out)

let run_cmd =
  let reps = Arg.(value & opt int 5 & info [ "reps" ] ~docv:"N" ~doc:"Untraced reps per workload.") in
  let trace =
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
           ~doc:"Add one traced rep per workload; write its spans to $(docv).")
  in
  let out =
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE"
           ~doc:"Write the result file (the input of $(b,compare)).")
  in
  let action reps cfg trace out =
    if reps < 1 then `Error (false, "--reps must be at least 1")
    else begin
      let t = run_suite ~reps ~cfg ~trace in
      Report.print t;
      Option.iter (fun path -> Report.write path t) out;
      if List.for_all (fun (w : Report.workload_result) -> w.correct) t.workloads then `Ok 0
      else `Ok 1
    end
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run the suite and print every metric by name and unit.")
    Term.(ret (const action $ reps $ config_term $ trace $ out))

let compare_cmd =
  let file n docv = Arg.(required & pos n (some file) None & info [] ~docv) in
  let action old_ new_ =
    let compared =
      Result.bind (Report.read old_) (fun o ->
          Result.bind (Report.read new_) (Report.compare_results o))
    in
    match compared with
    | Error e -> `Error (false, e)
    | Ok worse -> `Ok (if worse then 1 else 0)
  in
  Cmd.v
    (Cmd.info "compare"
       ~doc:"Compare two result files; exit 1 when any end-to-end metric got worse.")
    Term.(ret (const action $ file 0 "OLD.json" $ file 1 "NEW.json"))

let bench_cmd =
  let seconds = Arg.(value & opt int 30 & info [ "seconds" ] ~docv:"S") in
  let trace =
    Arg.(value & opt (enum [ ("0", false); ("1", true) ]) false & info [ "trace" ] ~docv:"0|1")
  in
  Cmd.v
    (Cmd.info "bench" ~doc:"Fixed-length run printing one JSON result line.")
    Term.(
      const (fun w cfg seconds trace -> bench w cfg ~seconds ~trace)
      $ workload_arg $ config_term $ seconds $ trace)

let smoke_cmd =
  let benchmark_json = Arg.(required & pos 0 (some file) None & info [] ~docv:"BENCHMARK.json") in
  Cmd.v (Cmd.info "smoke" ~doc:"The runtest smoke check.") Term.(const smoke $ benchmark_json)

let () =
  let doc = "perf-v1: the pinned four-workload benchmark" in
  exit
    (Cmd.eval'
       (Cmd.group (Cmd.info "perf" ~doc)
          [ run_cmd; compare_cmd; rep_cmd; bench_cmd; smoke_cmd ]))
