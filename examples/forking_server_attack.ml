(* The paper's headline experiment (SII-B vs SIII-C): a byte-by-byte
   attack against a forking network server.

     dune exec examples/forking_server_attack.exe

   Under SSP every forked worker inherits the same stack canary, so the
   attacker confirms it one byte at a time (~8 x 128 trials). Under
   P-SSP each fork re-randomizes the (C0, C1) shadow pair, so confirmed
   bytes go stale and nothing accumulates. *)

let buffer_size = 16

let campaign scheme ~budget =
  Printf.printf "== %s ==\n%!" (Pssp.Scheme.title scheme);
  let source = Workload.Vuln.fork_server_net ~buffer_size in
  let image = Mcc.Driver.compile ~scheme (Minic.Parser.parse source) in
  let oracle =
    Attack.Oracle.create ~preload:(Mcc.Driver.preload_for scheme) image
  in
  let layout =
    {
      Attack.Payload.overflow_distance = buffer_size;
      canary_len = 8 * Pssp.Scheme.stack_words scheme;
    }
  in
  (* a few warm-up probes, narrated *)
  Printf.printf "  probe: benign request            -> %s\n"
    (match Attack.Oracle.query oracle (Bytes.of_string "GET /") with
    | Attack.Oracle.Survived _ -> "worker replied"
    | Attack.Oracle.Crashed (_, m) -> m
    | Attack.Oracle.Server_down m -> m);
  Printf.printf "  probe: %d-byte overflow          -> %s\n"
    (buffer_size + 1)
    (match Attack.Oracle.query oracle (Bytes.make (buffer_size + 1) 'A') with
    | Attack.Oracle.Survived _ -> "worker replied (!)"
    | Attack.Oracle.Crashed (_, _) -> "worker crashed; parent respawns"
    | Attack.Oracle.Server_down m -> m);
  let outcome = Attack.Byte_by_byte.run oracle ~layout ~max_trials:budget in
  Printf.printf "  campaign: %s\n\n" (Attack.Byte_by_byte.outcome_to_string outcome)

let () =
  print_endline
    "Byte-by-byte (BROP-style) attack against a fork-per-request server\n";
  campaign Pssp.Scheme.Ssp ~budget:20_000;
  campaign Pssp.Scheme.Pssp ~budget:20_000;
  campaign Pssp.Scheme.Pssp_nt ~budget:20_000;
  print_endline
    "SSP falls in about a thousand trials (paper: ~1024); the polymorphic\n\
     schemes burn the whole budget without holding more than a lucky byte."
