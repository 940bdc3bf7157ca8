(* pssp — command-line front end: compile/run/disassemble Mini-C programs
   under any protection scheme, instrument SSP binaries, and launch
   attack campaigns. *)

open Cmdliner

let read_source path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let scheme_conv =
  let parse s =
    match Pssp.Scheme.of_name s with
    | Some scheme -> Ok scheme
    | None -> Error (`Msg (Printf.sprintf "unknown scheme %S" s))
  in
  Arg.conv (parse, fun fmt s -> Format.pp_print_string fmt (Pssp.Scheme.name s))

let scheme_arg =
  let doc =
    "Protection scheme: none, ssp, raf-ssp, dynaguard, dcr, pssp, pssp-nt, \
     pssp-lvN, pssp-owf, pssp-owf-weak, shadow-compact, shadow-parallel, \
     pac-canary, wasm-ssp."
  in
  Arg.(value & opt scheme_conv Pssp.Scheme.Pssp & info [ "s"; "scheme" ] ~doc)

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.c" ~doc:"Mini-C source file")

let input_arg =
  let doc = "Bytes fed to the program's stdin (read_input/read_n)." in
  Arg.(value & opt string "" & info [ "i"; "input" ] ~doc)

let static_arg =
  Arg.(value & flag & info [ "static" ] ~doc:"Link statically (embed glibc stubs).")

let compile_image ~scheme ~static path =
  let linkage = if static then Os.Image.Static else Os.Image.Dynamic in
  Mcc.Driver.compile ~name:(Filename.basename path) ~scheme ~linkage
    (Minic.Parser.parse (read_source path))

(* ---- telemetry options (shared flag semantics with bench via Harness.Cli) -- *)

let profile_conv =
  let parse s =
    match Harness.Cli.parse_profile_top s with
    | Ok n -> Ok n
    | Error msg -> Error (`Msg msg)
  in
  Arg.conv (parse, fun fmt n -> Format.fprintf fmt "top=%d" n)

let telemetry_term =
  let metrics_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:"Write the final registry snapshot as schema-3 metrics JSON.")
  in
  let trace_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:"Stream trace spans (JSONL, one object per line) to $(docv).")
  in
  let profile_arg =
    Arg.(
      value
      & opt (some profile_conv) None
      & info [ "profile" ] ~docv:"top=N"
          ~doc:"Cycle-attributed VM profile; print the N hottest guest symbols.")
  in
  let make metrics_out trace_out profile_top =
    let o = Harness.Cli.telemetry_opts () in
    o.Harness.Cli.metrics_out <- metrics_out;
    o.Harness.Cli.trace_out <- trace_out;
    o.Harness.Cli.profile_top <- profile_top;
    o
  in
  Term.(const make $ metrics_out_arg $ trace_out_arg $ profile_arg)

let image_resolver image addr =
  Option.map
    (fun sym -> sym.Os.Image.sym_name)
    (Os.Image.symbol_covering image addr)

let wrap f =
  try f () with
  | Minic.Lexer.Error (line, msg) ->
    Printf.eprintf "lex error (line %d): %s\n" line msg;
    exit 1
  | Minic.Parser.Error (line, msg) ->
    Printf.eprintf "parse error (line %d): %s\n" line msg;
    exit 1
  | Minic.Typecheck.Error msg ->
    Printf.eprintf "error: %s\n" msg;
    exit 1

(* ---- compile / exec ---------------------------------------------------------- *)

let compile_cmd =
  let action scheme static optimize path out =
    wrap (fun () ->
        let linkage = if static then Os.Image.Static else Os.Image.Dynamic in
        let image =
          Mcc.Driver.compile ~name:(Filename.basename path) ~scheme ~linkage
            ~optimize
            (Minic.Parser.parse (read_source path))
        in
        Os.Objfile.save image out;
        Printf.printf "wrote %s (%d code bytes, scheme %s)\n" out
          (Os.Image.code_size image) image.Os.Image.scheme_tag)
  in
  let out_arg =
    Arg.(value & opt string "a.out.pssp" & info [ "o"; "output" ] ~doc:"Output file.")
  in
  let opt_flag =
    Arg.(value & flag & info [ "O" ] ~doc:"Enable the peephole optimiser.")
  in
  let doc = "Compile a Mini-C program to an on-disk pssp executable." in
  Cmd.v (Cmd.info "compile" ~doc)
    Term.(const action $ scheme_arg $ static_arg $ opt_flag $ file_arg $ out_arg)

let exec_cmd =
  let action path input telem =
    wrap (fun () ->
        let image =
          try Os.Objfile.load path
          with Os.Objfile.Format_error msg ->
            Printf.eprintf "%s: %s\n" path msg;
            exit 1
        in
        let preload =
          match Pssp.Scheme.of_name image.Os.Image.scheme_tag with
          | Some scheme -> Mcc.Driver.preload_for scheme
          | None -> Rewriter.Driver.required_preload image
        in
        Harness.Cli.telemetry_start telem;
        let kernel = Os.Kernel.create () in
        let proc =
          Os.Kernel.spawn kernel ~input:(Bytes.of_string input) ~preload image
        in
        let stop =
          Os.Kernel.enqueue kernel proc;
          Os.Kernel.schedule kernel;
          Os.Kernel.stop_of proc
        in
        print_string (Os.Process.stdout proc);
        prerr_string (Os.Process.stderr proc);
        Printf.printf "[%s: %s]\n" image.Os.Image.name
          (Os.Kernel.stop_to_string stop);
        (* [exit] skips Fun.protect finalisers, so flush the telemetry
           sinks before leaving. *)
        Harness.Cli.telemetry_finish ~resolve:(image_resolver image) telem;
        match stop with Os.Kernel.Stop_exit n -> exit n | _ -> exit 128)
  in
  let bin_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.pssp" ~doc:"Executable.")
  in
  let doc = "Load and run an on-disk pssp executable." in
  Cmd.v (Cmd.info "exec" ~doc) Term.(const action $ bin_arg $ input_arg $ telemetry_term)

(* ---- run ------------------------------------------------------------------- *)

let run_cmd =
  let action scheme static path input telem =
    wrap (fun () ->
        let image = compile_image ~scheme ~static path in
        Harness.Cli.telemetry_start telem;
        let kernel = Os.Kernel.create () in
        let proc =
          Os.Kernel.spawn kernel
            ~input:(Bytes.of_string input)
            ~preload:(Mcc.Driver.preload_for scheme) image
        in
        let stop =
          Os.Kernel.enqueue kernel proc;
          Os.Kernel.schedule kernel;
          Os.Kernel.stop_of proc
        in
        print_string (Os.Process.stdout proc);
        prerr_string (Os.Process.stderr proc);
        Printf.printf "[%s under %s: %s, %Ld cycles]\n" (Filename.basename path)
          (Pssp.Scheme.title scheme) (Os.Kernel.stop_to_string stop)
          (Os.Process.cycles proc);
        (* [exit] skips Fun.protect finalisers, so flush the telemetry
           sinks before leaving. *)
        Harness.Cli.telemetry_finish ~resolve:(image_resolver image) telem;
        match stop with Os.Kernel.Stop_exit n -> exit n | _ -> exit 128)
  in
  let doc = "Compile and run a Mini-C program on the simulated machine." in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(const action $ scheme_arg $ static_arg $ file_arg $ input_arg $ telemetry_term)

(* ---- disasm ---------------------------------------------------------------- *)

let disasm_cmd =
  let action scheme static path =
    wrap (fun () ->
        let image = compile_image ~scheme ~static path in
        Format.printf "%a@?" Os.Image.pp_disassembly image)
  in
  let doc = "Compile a Mini-C program and print its disassembly." in
  Cmd.v (Cmd.info "disasm" ~doc)
    Term.(const action $ scheme_arg $ static_arg $ file_arg)

(* ---- rewrite ---------------------------------------------------------------- *)

let rewrite_cmd =
  let action static path run_it input =
    wrap (fun () ->
        let ssp = compile_image ~scheme:Pssp.Scheme.Ssp ~static path in
        let patched, report = Rewriter.Driver.instrument ssp in
        Format.printf "rewriter: %a@." Rewriter.Driver.pp_report report;
        if run_it then begin
          let kernel = Os.Kernel.create () in
          let proc =
            Os.Kernel.spawn kernel
              ~input:(Bytes.of_string input)
              ~preload:(Rewriter.Driver.required_preload patched)
              patched
          in
          let stop =
          Os.Kernel.enqueue kernel proc;
          Os.Kernel.schedule kernel;
          Os.Kernel.stop_of proc
        in
          print_string (Os.Process.stdout proc);
          Printf.printf "[instrumented: %s]\n" (Os.Kernel.stop_to_string stop)
        end
        else Format.printf "%a@?" Os.Image.pp_disassembly patched)
  in
  let run_flag =
    Arg.(value & flag & info [ "run" ] ~doc:"Run the instrumented binary instead of disassembling it.")
  in
  let doc =
    "Compile with plain SSP, upgrade the binary to P-SSP with the rewriter \
     (SV-C), then disassemble or run it."
  in
  Cmd.v (Cmd.info "rewrite" ~doc)
    Term.(const action $ static_arg $ file_arg $ run_flag $ input_arg)

(* ---- trace ------------------------------------------------------------------- *)

let trace_cmd =
  let action scheme path input window =
    wrap (fun () ->
        let image = compile_image ~scheme ~static:false path in
        let tracer = Os.Debug.ring_tracer ~capacity:window in
        let kernel = Os.Kernel.create ~on_retire:(Os.Debug.on_retire tracer) () in
        let proc =
          Os.Kernel.spawn kernel ~input:(Bytes.of_string input)
            ~preload:(Mcc.Driver.preload_for scheme) image
        in
        let stop =
          Os.Kernel.enqueue kernel proc;
          Os.Kernel.schedule kernel;
          Os.Kernel.stop_of proc
        in
        Printf.printf "stopped: %s (%d instructions retired)\n"
          (Os.Kernel.stop_to_string stop)
          (Os.Debug.retired tracer);
        Printf.printf "last %d instructions (oldest first):\n" window;
        List.iter (fun l -> print_endline ("  " ^ l)) (Os.Debug.recent tracer ~image ());
        print_endline "autopsy:";
        Format.printf "%a@?" Os.Autopsy.pp_report (Os.Autopsy.examine proc))
  in
  let window_arg =
    Arg.(value & opt int 24 & info [ "window" ] ~doc:"Instructions to retain.")
  in
  let doc = "Run a program with an execution tracer and print the tail + backtrace." in
  Cmd.v (Cmd.info "trace" ~doc)
    Term.(const action $ scheme_arg $ file_arg $ input_arg $ window_arg)

(* ---- attack ----------------------------------------------------------------- *)

let attack_cmd =
  let action scheme budget buffer =
    wrap (fun () ->
        let src = Workload.Vuln.fork_server_net ~buffer_size:buffer in
        let image = Mcc.Driver.compile ~scheme (Minic.Parser.parse src) in
        let oracle =
          Attack.Oracle.create ~preload:(Mcc.Driver.preload_for scheme) image
        in
        let layout =
          {
            Attack.Payload.overflow_distance = buffer;
            canary_len = 8 * Pssp.Scheme.stack_words scheme;
          }
        in
        Printf.printf
          "byte-by-byte attack vs a forking server under %s (buffer %d, budget %d)...\n%!"
          (Pssp.Scheme.title scheme) buffer budget;
        let outcome = Attack.Byte_by_byte.run oracle ~layout ~max_trials:budget in
        print_endline (Attack.Byte_by_byte.outcome_to_string outcome))
  in
  let budget_arg =
    Arg.(value & opt int 20000 & info [ "budget" ] ~doc:"Trial budget.")
  in
  let buffer_arg =
    Arg.(value & opt int 16 & info [ "buffer" ] ~doc:"Victim buffer size (multiple of 8).")
  in
  let doc = "Run the SII-B byte-by-byte attack against a forking server." in
  Cmd.v (Cmd.info "attack" ~doc)
    Term.(const action $ scheme_arg $ budget_arg $ buffer_arg)

(* ---- fuzz ------------------------------------------------------------------- *)

let fuzz_cmd =
  let action count seed_base jobs verbose =
    let jobs = if jobs = 0 then Harness.Pool.default_jobs () else jobs in
    let check i =
      let seed = Int64.add seed_base (Int64.of_int (i * 7919)) in
      let program = Workload.Progen.generate ~seed in
      let run scheme =
        let image = Mcc.Driver.compile ~scheme program in
        let kernel = Os.Kernel.create () in
        let proc =
          Os.Kernel.spawn kernel ~preload:(Mcc.Driver.preload_for scheme) image
        in
        let stop =
          Os.Kernel.enqueue kernel proc;
          Os.Kernel.schedule ~fuel:20_000_000 kernel;
          Os.Kernel.stop_of proc
        in
        (stop, Os.Process.stdout proc)
      in
      let reference = run Pssp.Scheme.None_ in
      let diverged =
        List.filter_map
          (fun scheme ->
            if run scheme <> reference then Some (Pssp.Scheme.name scheme) else None)
          [ Pssp.Scheme.Ssp; Pssp.Scheme.Pssp; Pssp.Scheme.Pssp_nt; Pssp.Scheme.Pssp_owf ]
      in
      (seed, diverged)
    in
    (* Run the campaigns in parallel, report in seed order so the output
       is identical for every jobs count. *)
    let results = Harness.Pool.map ~jobs check (List.init count Fun.id) in
    let failures = ref 0 in
    List.iter
      (fun (seed, diverged) ->
        if diverged <> [] then begin
          incr failures;
          Printf.printf "seed %Ld DIVERGED under: %s\n" seed
            (String.concat ", " diverged);
          if verbose then print_endline (Workload.Progen.generate_source ~seed)
        end
        else if verbose then Printf.printf "seed %Ld ok\n" seed)
      results;
    Printf.printf "fuzz: %d program(s), %d divergence(s)\n" count !failures;
    if !failures > 0 then exit 1
  in
  let count_arg =
    Arg.(value & opt int 50 & info [ "n" ] ~doc:"Number of random programs.")
  in
  let seed_arg =
    Arg.(value & opt int64 1L & info [ "seed" ] ~doc:"Base seed.")
  in
  let jobs_arg =
    Arg.(
      value & opt int 1
      & info [ "j"; "jobs" ]
          ~doc:"Fuzz in N parallel domains (0 = recommended count).")
  in
  let verbose_arg = Arg.(value & flag & info [ "v" ] ~doc:"Print every seed.") in
  let doc =
    "Differential fuzzing: random Mini-C programs must behave identically      under every protection scheme."
  in
  Cmd.v (Cmd.info "fuzz" ~doc)
    Term.(const action $ count_arg $ seed_arg $ jobs_arg $ verbose_arg)

(* ---- bench ------------------------------------------------------------------ *)

let schemes_cmd =
  let action () =
    List.iter
      (fun s -> Printf.printf "%-14s %s\n" (Pssp.Scheme.name s) (Pssp.Scheme.title s))
      (Pssp.Scheme.all_basic @ Pssp.Scheme.all_extensions
      @ [ Pssp.Scheme.Pssp_owf_weak; Pssp.Scheme.Pssp_gb ]
      @ Pssp.Scheme.all_families)
  in
  Cmd.v (Cmd.info "schemes" ~doc:"List available protection schemes.")
    Term.(const action $ const ())

let main_cmd =
  let doc = "Polymorphic Stack Smashing Protection (DSN'18) toolchain" in
  Cmd.group (Cmd.info "pssp" ~version:"1.0.0" ~doc)
    [
      run_cmd; compile_cmd; exec_cmd; disasm_cmd; rewrite_cmd; trace_cmd;
      attack_cmd; fuzz_cmd; schemes_cmd;
    ]

let () = exit (Cmd.eval main_cmd)
