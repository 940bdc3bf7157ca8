(* Telemetry subsystem: registry semantics under concurrency, trace span
   nesting, profiler attribution, registry reads over a real workload,
   the schema-3 JSON files, and the shared CLI specs. *)

let reg_int = Telemetry.Registry.read_int

(* ---- registry ------------------------------------------------------------- *)

let test_counter_concurrent () =
  let c = Telemetry.Registry.counter "test.concurrent" in
  Telemetry.Registry.reset "test.concurrent";
  let per_task = 25_000 in
  let tasks = List.init 8 Fun.id in
  ignore
    (Harness.Pool.map ~jobs:4
       (fun _ ->
         for _ = 1 to per_task do
           Telemetry.Registry.incr c
         done)
       tasks);
  Alcotest.(check int)
    "increments from 4 domains sum exactly"
    (per_task * List.length tasks)
    (Telemetry.Registry.counter_value c);
  Alcotest.(check int) "read_int sees the same total" (per_task * List.length tasks)
    (reg_int "test.concurrent")

let test_counter_kind_clash () =
  ignore (Telemetry.Registry.counter "test.kind");
  Alcotest.check_raises "histogram over a counter name"
    (Invalid_argument "Registry.histogram: test.kind is not a histogram")
    (fun () -> ignore (Telemetry.Registry.histogram "test.kind" ~bounds:[| 1 |]))

let test_histogram_flatten () =
  let h = Telemetry.Registry.histogram "test.hist" ~bounds:[| 10; 100 |] in
  Telemetry.Registry.reset "test.hist";
  List.iter (Telemetry.Registry.observe h) [ 5; 50; 500 ];
  let snap = Telemetry.Registry.snapshot () in
  let get name =
    match List.assoc_opt name snap with
    | Some v -> v
    | None -> Alcotest.failf "snapshot is missing %s" name
  in
  Alcotest.(check int) "le=10 bucket" 1 (get "test.hist/le=10");
  Alcotest.(check int) "le=100 bucket" 1 (get "test.hist/le=100");
  Alcotest.(check int) "overflow bucket" 1 (get "test.hist/le=inf");
  Alcotest.(check int) "count" 3 (get "test.hist/count");
  Alcotest.(check int) "sum" 555 (get "test.hist/sum");
  Alcotest.(check int) "read_int = observation count" 3 (reg_int "test.hist")

let test_snapshot_sorted () =
  let snap = Telemetry.Registry.snapshot () in
  let names = List.map fst snap in
  Alcotest.(check (list string)) "snapshot is name-sorted" (List.sort compare names) names

(* ---- registry reads over a real workload ---------------------------------- *)

let run_small_fork_workload () =
  let image =
    Mcc.Driver.compile ~scheme:Pssp.Scheme.Pssp
      (Minic.Parser.parse (Workload.Vuln.fork_server_net ~buffer_size:16))
  in
  let oracle = Attack.Oracle.create ~preload:Os.Preload.Pssp_wide image in
  for _ = 1 to 5 do
    ignore (Attack.Oracle.query oracle (Bytes.make 17 'A'))
  done

(* PR 5 removed the deprecated per-module stats wrappers; the registry
   names are now the only interface, so pin down that a real workload
   populates them. *)
let test_read_registry () =
  Telemetry.Registry.reset Vm64.Memory.metric_clones;
  Telemetry.Registry.reset Vm64.Tcache.metric_hits;
  Telemetry.Registry.reset Os.Kernel.metric_forks;
  run_small_fork_workload ();
  Alcotest.(check bool)
    "workload forked (os.kernel.forks)" true
    (reg_int Os.Kernel.metric_forks > 0);
  Alcotest.(check bool)
    "fork path cloned memories (vm.mem.clones)" true
    (reg_int Vm64.Memory.metric_clones > 0);
  Alcotest.(check bool)
    "execution hit the tcache (vm.tcache.hits)" true
    (reg_int Vm64.Tcache.metric_hits > 0);
  Telemetry.Registry.reset Os.Kernel.metric_forks;
  Alcotest.(check int) "reset zeroes os.kernel.forks" 0
    (reg_int Os.Kernel.metric_forks)

(* ---- trace spans ---------------------------------------------------------- *)

let parse_json line =
  match Util.Json.parse line with
  | Ok j -> j
  | Error e -> Alcotest.failf "unparseable trace line %S: %s" line e

let jstr j name =
  match Option.bind (Util.Json.member name j) Util.Json.to_string_opt with
  | Some s -> s
  | None -> Alcotest.failf "missing string field %s" name

let jint j name =
  match Option.bind (Util.Json.member name j) Util.Json.to_int_opt with
  | Some n -> n
  | None -> Alcotest.failf "missing int field %s" name

let test_span_nesting () =
  let sink, lines = Telemetry.Trace.memory_sink () in
  Telemetry.Trace.set_sink (Some sink);
  let cyc = ref 0L in
  let next_cycle () =
    cyc := Int64.add !cyc 10L;
    !cyc
  in
  Telemetry.Trace.with_span "outer" ~cycles:next_cycle (fun () ->
      Telemetry.Trace.with_span "inner" ~cycles:next_cycle (fun () -> ());
      Telemetry.Trace.instant "tick" ~cycles:99L);
  Telemetry.Trace.set_sink None;
  match List.map parse_json (lines ()) with
  | [ inner; tick; outer ] ->
    Alcotest.(check string) "inner emitted first" "inner" (jstr inner "name");
    Alcotest.(check int) "inner depth" 1 (jint inner "depth");
    Alcotest.(check string) "instant in the middle" "tick" (jstr tick "name");
    Alcotest.(check string) "instant kind" "instant" (jstr tick "ev");
    Alcotest.(check int) "instant cycle stamp" 99 (jint tick "cyc");
    Alcotest.(check string) "outer emitted last" "outer" (jstr outer "name");
    Alcotest.(check int) "outer depth" 0 (jint outer "depth");
    Alcotest.(check bool) "outer brackets inner" true
      (jint outer "cyc0" < jint inner "cyc0" && jint inner "cyc1" < jint outer "cyc1")
  | other -> Alcotest.failf "expected 3 trace lines, got %d" (List.length other)

let test_trace_disabled_is_free () =
  Alcotest.(check bool) "no sink => disabled" false (Telemetry.Trace.enabled ());
  (* no sink: spans run their body and emit nothing *)
  let r = Telemetry.Trace.with_span "ignored" (fun () -> 41 + 1) in
  Alcotest.(check int) "body result passes through" 42 r

(* ---- profiler ------------------------------------------------------------- *)

let two_function_source =
  {|
int hot(int n) {
  int acc = 0;
  int i = 0;
  while (i < n) {
    acc = acc + i * 3;
    i = i + 1;
  }
  return acc;
}

int cold(int n) {
  return n + 1;
}

int main() {
  int total = 0;
  int j = 0;
  while (j < 50) {
    total = total + hot(200);
    total = total + cold(j);
    j = j + 1;
  }
  return 0;
}
|}

let test_profile_attribution () =
  let image =
    Mcc.Driver.compile ~scheme:Pssp.Scheme.Pssp
      (Minic.Parser.parse two_function_source)
  in
  Telemetry.Profile.reset ();
  Telemetry.Profile.set_enabled true;
  let kernel = Os.Kernel.create () in
  let proc = Os.Kernel.spawn kernel ~preload:Os.Preload.Pssp_wide image in
  Os.Kernel.enqueue kernel proc;
  Os.Kernel.schedule kernel;
  let stop = Os.Kernel.stop_of proc in
  Telemetry.Profile.set_enabled false;
  Alcotest.(check string) "program exits cleanly" "exited 0"
    (Os.Kernel.stop_to_string stop);
  let rows = Telemetry.Profile.dump () in
  Alcotest.(check bool) "profiler sampled blocks" true (rows <> []);
  let resolve addr =
    Option.map (fun s -> s.Os.Image.sym_name) (Os.Image.symbol_covering image addr)
  in
  (match Telemetry.Profile.attribute ~resolve rows with
  | (name, cycles, blocks) :: rest ->
    Alcotest.(check string) "hottest symbol is hot()" "hot" name;
    Alcotest.(check bool) "hot dominates" true
      (List.for_all (fun (_, c, _) -> c <= cycles) rest);
    Alcotest.(check bool) "counts are positive" true (cycles > 0 && blocks > 0)
  | [] -> Alcotest.fail "no attributed rows");
  let report = Telemetry.Profile.report ~resolve ~top:3 () in
  Alcotest.(check bool) "report names hot()" true
    (Astring.String.is_infix ~affix:"hot" report);
  Telemetry.Profile.reset ();
  Alcotest.(check (list (triple string int int))) "reset empties the tables" []
    (Telemetry.Profile.attribute (Telemetry.Profile.dump ()))

(* ---- Json / Benchfile ----------------------------------------------------- *)

let test_json_roundtrip () =
  let j =
    Util.Json.Obj
      [
        ("s", Util.Json.String "a \"quoted\"\nline\twith \\ bits");
        ("i", Util.Json.Int (-42));
        ("f", Util.Json.Float 0.125);
        ("b", Util.Json.Bool true);
        ("n", Util.Json.Null);
        ("l", Util.Json.List [ Util.Json.Int 1; Util.Json.Int 2 ]);
      ]
  in
  match Util.Json.parse (Util.Json.to_string j) with
  | Error e -> Alcotest.failf "round-trip parse failed: %s" e
  | Ok j' ->
    Alcotest.(check bool) "round-trips structurally" true (j = j');
    Alcotest.(check (option string)) "string survives escaping"
      (Some "a \"quoted\"\nline\twith \\ bits")
      (Option.bind (Util.Json.member "s" j') Util.Json.to_string_opt)

let test_benchfile_roundtrip () =
  let t =
    Util.Benchfile.make ~pr:4 ~jobs:2 ~compile_tier:2
      [
        Util.Benchfile.campaign ~name:"effectiveness" ~wall_s:1.25
          [ ("a.count", 3); ("b.count", 0) ];
      ]
  in
  let file = Filename.temp_file "bench" ".json" in
  Util.Benchfile.write file t;
  (match Util.Benchfile.read file with
  | Ok t' -> Alcotest.(check bool) "campaign record round-trips" true (t = t')
  | Error e -> Alcotest.failf "read failed: %s" e);
  Sys.remove file;
  (* a shard file: provenance and cell rows survive *)
  let sharded =
    Util.Benchfile.make ~shards:4 ~shard:1 ~pr:9 ~jobs:1 ~compile_tier:3
      [
        Util.Benchfile.campaign ~context:"budget=500"
          ~cells:[ (1, "00ff10"); (5, "abcd") ]
          ~name:"effectiveness" ~wall_s:0.5
          [ ("a.count", 7) ];
      ]
  in
  let sfile = Filename.temp_file "shard" ".json" in
  Util.Benchfile.write sfile sharded;
  (match Util.Benchfile.read sfile with
  | Ok t' -> Alcotest.(check bool) "shard file round-trips" true (sharded = t')
  | Error e -> Alcotest.failf "shard read failed: %s" e);
  Sys.remove sfile;
  let metrics = [ ("x", 1); ("y", 2) ] in
  let mfile = Filename.temp_file "metrics" ".json" in
  Util.Benchfile.write_metrics mfile metrics;
  (match Util.Benchfile.read_metrics mfile with
  | Ok m -> Alcotest.(check (list (pair string int))) "snapshot round-trips" metrics m
  | Error e -> Alcotest.failf "read_metrics failed: %s" e);
  Sys.remove mfile

let test_benchfile_rejects_wrong_schema () =
  let file = Filename.temp_file "bad" ".json" in
  let oc = open_out file in
  output_string oc "{\"schema\": 1, \"metrics\": {}}";
  close_out oc;
  (match Util.Benchfile.read_metrics file with
  | Ok _ -> Alcotest.fail "schema 1 must be rejected"
  | Error _ -> ());
  Sys.remove file

(* Schema 2 is no longer read: a record in its shape is refused by the
   schema check, and relabelled as schema 3, its boolean compile_tier
   and its missing shard count are each refused too. *)
let test_benchfile_rejects_schema_2 () =
  let read ~schema ~header =
    let file = Filename.temp_file "schema2" ".json" in
    let oc = open_out file in
    Printf.fprintf oc
      "{\"schema\": %d, \"pr\": 5, \"jobs\": 1, %s, \"campaigns\": \
       [{\"name\": \"table5\", \"wall_s\": 0.5, \"metrics\": {\"a.count\": 1}}]}"
      schema header;
    close_out oc;
    let r = Util.Benchfile.read file in
    Sys.remove file;
    r
  in
  List.iter
    (fun (schema, header, expected) ->
      match read ~schema ~header with
      | Ok _ -> Alcotest.failf "schema %d with %s must be rejected" schema header
      | Error msg -> Alcotest.(check string) "error" expected msg)
    [
      (2, "\"compile_tier\": true", "unsupported schema 2 (want 3)");
      (3, "\"compile_tier\": true, \"shards\": 1", "missing or ill-typed \"compile_tier\"");
      (3, "\"compile_tier\": 1", "missing or ill-typed \"shards\"");
    ]

(* ---- Harness.Cli ---------------------------------------------------------- *)

let specs_for jobs budget compiled =
  [
    Harness.Cli.nonneg_int ~name:"--jobs" ~docv:"N" ~doc:"jobs" (fun v -> jobs := v);
    Harness.Cli.pos_int ~name:"--budget" ~docv:"N" ~doc:"budget" (fun v -> budget := v);
    Harness.Cli.on_off ~name:"--compile-tier" ~doc:"compiled" (fun v -> compiled := v);
  ]

let check_bad specs args expected =
  match Harness.Cli.parse specs args with
  | Harness.Cli.Bad msg -> Alcotest.(check string) "error message" expected msg
  | Harness.Cli.Positionals _ -> Alcotest.failf "%s parsed" (String.concat " " args)
  | Harness.Cli.Help -> Alcotest.fail "unexpected help"

let test_cli_parse () =
  let jobs = ref 1 and budget = ref 0 and compiled = ref true in
  let specs = specs_for jobs budget compiled in
  (match
     Harness.Cli.parse specs
       [ "table5"; "--jobs"; "4"; "--budget"; "500"; "--compile-tier"; "off"; "fig5" ]
   with
  | Harness.Cli.Positionals p ->
    Alcotest.(check (list string)) "positionals in order" [ "table5"; "fig5" ] p;
    Alcotest.(check int) "--jobs applied" 4 !jobs;
    Alcotest.(check int) "--budget applied" 500 !budget;
    Alcotest.(check bool) "--compile-tier off applied" false !compiled;
    (match Harness.Cli.parse specs [ "--compile-tier"; "on" ] with
    | Harness.Cli.Positionals [] ->
      Alcotest.(check bool) "--compile-tier on applied" true !compiled
    | _ -> Alcotest.fail "--compile-tier on must parse")
  | _ -> Alcotest.fail "mixed flags + positionals must parse");
  match Harness.Cli.parse specs [ "--help" ] with
  | Harness.Cli.Help -> ()
  | _ -> Alcotest.fail "--help must be recognised"

(* Every malformed flag is a [Bad] — the wording is the bench driver's
   historical stderr contract, and [parse_or_exit] turns each into a
   non-zero exit. *)
let test_cli_errors () =
  let jobs = ref 1 and budget = ref 0 and compiled = ref true in
  let specs = specs_for jobs budget compiled in
  check_bad specs [ "--jobs"; "x" ] "--jobs expects a non-negative integer, got x";
  check_bad specs [ "--jobs"; "-2" ] "--jobs expects a non-negative integer, got -2";
  check_bad specs [ "--jobs" ] "--jobs expects an argument";
  check_bad specs [ "--budget"; "0" ] "--budget expects a positive integer, got 0";
  check_bad specs [ "--budget" ] "--budget expects an argument";
  check_bad specs [ "--compile-tier"; "maybe" ] "--compile-tier expects on or off, got maybe";
  (* numeric values are rejected: compiled execution is on or off *)
  List.iter
    (fun n ->
      check_bad specs [ "--compile-tier"; n ]
        ("--compile-tier expects on or off, got " ^ n))
    [ "0"; "1"; "2"; "3" ]

let test_cli_profile_top () =
  (match Harness.Cli.parse_profile_top "top=10" with
  | Ok n -> Alcotest.(check int) "top=10" 10 n
  | Error e -> Alcotest.failf "top=10 rejected: %s" e);
  List.iter
    (fun s ->
      match Harness.Cli.parse_profile_top s with
      | Ok _ -> Alcotest.failf "%S must be rejected" s
      | Error msg ->
        Alcotest.(check string) "error message"
          (Printf.sprintf "--profile expects top=N with N positive, got %s" s)
          msg)
    [ "top=0"; "top=x"; "bogus"; "n=3" ]

let test_cli_usage () =
  let usage =
    Harness.Cli.usage ~prog:"bench/main.exe" ~positional:"[<experiment>...]"
      (specs_for (ref 0) (ref 0) (ref true))
  in
  Alcotest.(check bool) "usage lists --jobs" true
    (Astring.String.is_infix ~affix:"--jobs N" usage);
  Alcotest.(check bool) "usage lists --compile-tier docv" true
    (Astring.String.is_infix ~affix:"--compile-tier on|off" usage)

let () =
  Alcotest.run "telemetry"
    [
      ( "registry",
        [
          Alcotest.test_case "concurrent counters sum exactly" `Quick
            test_counter_concurrent;
          Alcotest.test_case "kind clash rejected" `Quick test_counter_kind_clash;
          Alcotest.test_case "histogram flattening" `Quick test_histogram_flatten;
          Alcotest.test_case "snapshot sorted" `Quick test_snapshot_sorted;
          Alcotest.test_case "registry reads over a fork workload" `Quick
            test_read_registry;
        ] );
      ( "trace",
        [
          Alcotest.test_case "span nesting and ordering" `Quick test_span_nesting;
          Alcotest.test_case "disabled tracing is pass-through" `Quick
            test_trace_disabled_is_free;
        ] );
      ( "profile",
        [
          Alcotest.test_case "two-function attribution" `Quick
            test_profile_attribution;
        ] );
      ( "files",
        [
          Alcotest.test_case "Json round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "Benchfile round-trip" `Quick test_benchfile_roundtrip;
          Alcotest.test_case "wrong schema rejected" `Quick
            test_benchfile_rejects_wrong_schema;
          Alcotest.test_case "schema-2 record rejected" `Quick
            test_benchfile_rejects_schema_2;
        ] );
      ( "cli",
        [
          Alcotest.test_case "flags + positionals" `Quick test_cli_parse;
          Alcotest.test_case "error messages pinned" `Quick test_cli_errors;
          Alcotest.test_case "--profile top=N parser" `Quick test_cli_profile_top;
          Alcotest.test_case "generated usage" `Quick test_cli_usage;
        ] );
    ]
