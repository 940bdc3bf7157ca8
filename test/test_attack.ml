(* Attack framework tests: the oracle, payload construction, and the
   byte-by-byte / exhaustive campaigns on small budgets. *)

let compile ?(scheme = Pssp.Scheme.Ssp) src =
  Mcc.Driver.compile ~scheme (Minic.Parser.parse src)

let oracle ?(scheme = Pssp.Scheme.Ssp) ?(buffer_size = 16) () =
  let image = compile ~scheme (Workload.Vuln.fork_server_net ~buffer_size) in
  Attack.Oracle.create ~preload:(Mcc.Driver.preload_for scheme) image

let layout ?(scheme = Pssp.Scheme.Ssp) ?(buffer_size = 16) () =
  {
    Attack.Payload.overflow_distance = buffer_size;
    canary_len = 8 * Pssp.Scheme.stack_words scheme;
  }

(* ---- oracle -------------------------------------------------------------------- *)

let test_oracle_benign () =
  let o = oracle () in
  (match Attack.Oracle.query o (Bytes.of_string "hello") with
  | Attack.Oracle.Survived out ->
    Alcotest.(check string) "child replied" "OK\n" out
  | _ -> Alcotest.fail "benign request crashed");
  Alcotest.(check int) "one query" 1 (Attack.Oracle.queries o)

let test_oracle_crash_signal () =
  let o = oracle () in
  match Attack.Oracle.query o (Bytes.make 64 'A') with
  | Attack.Oracle.Crashed (Os.Process.Sigabrt, msg) ->
    Alcotest.(check bool) "canary message" true
      (String.length msg > 0 && msg.[0] = '*')
  | _ -> Alcotest.fail "expected canary abort"

let test_oracle_survives_many_crashes () =
  let o = oracle () in
  for _ = 1 to 30 do
    ignore (Attack.Oracle.query o (Bytes.make 64 'B'))
  done;
  (match Attack.Oracle.query o (Bytes.of_string "fine") with
  | Attack.Oracle.Survived _ -> ()
  | _ -> Alcotest.fail "server should still answer");
  Alcotest.(check bool) "alive" true (Attack.Oracle.server_alive o)

(* ---- payloads ------------------------------------------------------------------- *)

let test_guess_prefix_shape () =
  let l = layout () in
  let p = Attack.Payload.guess_prefix l ~known:(Bytes.of_string "\x11\x22") ~guess:0x33 in
  Alcotest.(check int) "length" (16 + 2 + 1) (Bytes.length p);
  Alcotest.(check char) "filler" 'A' (Bytes.get p 0);
  Alcotest.(check int) "known byte replayed" 0x11 (Char.code (Bytes.get p 16));
  Alcotest.(check int) "guess byte last" 0x33 (Char.code (Bytes.get p 18))

let test_guess_prefix_full_canary_rejected () =
  let l = layout () in
  Alcotest.check_raises "full canary"
    (Invalid_argument "Payload.guess_prefix: canary already fully known")
    (fun () ->
      ignore (Attack.Payload.guess_prefix l ~known:(Bytes.create 8) ~guess:0))

let test_hijack_shape () =
  let l = layout () in
  let p = Attack.Payload.hijack l ~canary:(Bytes.make 8 'C') in
  Alcotest.(check int) "length covers rbp+ret" (16 + 8 + 16) (Bytes.length p);
  Alcotest.(check bool) "ret = magic" true
    (Bytes.get_int64_le p (16 + 8 + 8) = Attack.Payload.magic_ret)

let test_stealth_shape () =
  let l = layout () in
  let p = Attack.Payload.stealth_corruption l ~canary:(Bytes.make 8 'C') in
  Alcotest.(check int) "stops before ret" (16 + 8 + 8) (Bytes.length p)

let test_hijacked_detection () =
  Alcotest.(check bool) "segv at magic" true
    (Attack.Payload.hijacked
       (Attack.Oracle.Crashed
          (Os.Process.Sigsegv, "segmentation fault at 0xdead0000")));
  Alcotest.(check bool) "other segv" false
    (Attack.Payload.hijacked
       (Attack.Oracle.Crashed (Os.Process.Sigsegv, "segmentation fault at 0x1234")));
  Alcotest.(check bool) "abort is not hijack" false
    (Attack.Payload.hijacked
       (Attack.Oracle.Crashed (Os.Process.Sigabrt, "0xdead0000")));
  Alcotest.(check bool) "survival is not hijack" false
    (Attack.Payload.hijacked (Attack.Oracle.Survived "0xdead0000"))

let test_stealth_landed_detection () =
  let segv addr =
    Attack.Oracle.Crashed
      (Os.Process.Sigsegv, Printf.sprintf "segmentation fault at 0x%Lx" addr)
  in
  Alcotest.(check bool) "survival lands" true
    (Attack.Payload.stealth_landed (Attack.Oracle.Survived ""));
  Alcotest.(check bool) "segv through the planted rbp lands" true
    (Attack.Payload.stealth_landed (segv 0x4242424242424232L));
  Alcotest.(check bool) "canary abort does not land" false
    (Attack.Payload.stealth_landed
       (Attack.Oracle.Crashed
          (Os.Process.Sigabrt, "*** stack smashing detected ***: terminated")));
  Alcotest.(check bool) "segv at magic_ret does not land" false
    (Attack.Payload.stealth_landed (segv Attack.Payload.magic_ret));
  Alcotest.(check bool) "unrelated segv does not land" false
    (Attack.Payload.stealth_landed (segv 0x7fff0000L))

(* ---- campaigns -------------------------------------------------------------------- *)

let test_byte_by_byte_breaks_ssp () =
  let o = oracle ~scheme:Pssp.Scheme.Ssp () in
  match Attack.Byte_by_byte.run o ~layout:(layout ()) ~max_trials:4000 with
  | Attack.Byte_by_byte.Broken { trials; canary } ->
    Alcotest.(check bool) "order of 8*128 trials (SII-B)" true
      (trials > 100 && trials < 3000);
    Alcotest.(check int) "recovered 8 bytes" 8 (Bytes.length canary)
  | other -> Alcotest.failf "SSP resisted: %s" (Attack.Byte_by_byte.outcome_to_string other)

let test_recovered_canary_is_the_real_one () =
  (* the recovered canary must equal the TLS canary of the victim *)
  let image = compile (Workload.Vuln.fork_server_net ~buffer_size:16) in
  let kernel_seed = 0xA77ACCL in
  let o = Attack.Oracle.create ~seed:kernel_seed image in
  match Attack.Byte_by_byte.run o ~layout:(layout ()) ~max_trials:4000 with
  | Attack.Byte_by_byte.Broken { canary; _ } ->
    (* replay against a fresh oracle with the same seed: first try wins *)
    let o2 = Attack.Oracle.create ~seed:kernel_seed image in
    let response = Attack.Oracle.query o2 (Attack.Payload.hijack (layout ()) ~canary) in
    Alcotest.(check bool) "one-shot replay hijacks" true
      (Attack.Payload.hijacked response)
  | other -> Alcotest.failf "%s" (Attack.Byte_by_byte.outcome_to_string other)

let test_byte_by_byte_fails_on_pssp () =
  let o = oracle ~scheme:Pssp.Scheme.Pssp () in
  match
    Attack.Byte_by_byte.run o ~layout:(layout ~scheme:Pssp.Scheme.Pssp ())
      ~max_trials:3000
  with
  | Attack.Byte_by_byte.Exhausted { max_bytes_recovered; _ } ->
    Alcotest.(check bool) "no accumulation (Theorem 1)" true
      (max_bytes_recovered <= 3)
  | other -> Alcotest.failf "unexpected: %s" (Attack.Byte_by_byte.outcome_to_string other)

let test_exhaustive_fails_within_budget () =
  let o = oracle ~scheme:Pssp.Scheme.Pssp () in
  match
    Attack.Exhaustive.run o ~layout:(layout ~scheme:Pssp.Scheme.Pssp ())
      ~max_trials:500
  with
  | Attack.Exhaustive.Exhausted { trials } -> Alcotest.(check int) "budget" 500 trials
  | other -> Alcotest.failf "unexpected: %s" (Attack.Exhaustive.outcome_to_string other)

(* ---- detection guarantees (property) --------------------------------------- *)

(* Any payload overwriting the whole canary region with random bytes is
   caught (a silent pass needs a full 64/128-bit collision). Payloads
   that stop exactly at the buffer boundary never trip anything. *)
let prop_full_overwrite_always_caught scheme =
  let o = oracle ~scheme () in
  let l = layout ~scheme () in
  QCheck.Test.make
    ~name:(Printf.sprintf "full overwrite always caught (%s)" (Pssp.Scheme.name scheme))
    ~count:60
    QCheck.(int_bound 0xFFFFFF)
    (fun seed ->
      let rng = Util.Prng.create (Int64.of_int seed) in
      let payload =
        Util.Prng.bytes rng (l.Attack.Payload.overflow_distance + l.Attack.Payload.canary_len + 16)
      in
      match Attack.Oracle.query o payload with
      | Attack.Oracle.Crashed _ -> true
      | Attack.Oracle.Survived _ | Attack.Oracle.Server_down _ -> false)

let prop_boundary_never_trips scheme =
  let o = oracle ~scheme () in
  QCheck.Test.make
    ~name:(Printf.sprintf "boundary writes never trip (%s)" (Pssp.Scheme.name scheme))
    ~count:60
    QCheck.(int_bound 0xFFFFFF)
    (fun seed ->
      let rng = Util.Prng.create (Int64.of_int seed) in
      let len = 1 + Util.Prng.int rng 16 (* at most fills the buffer *) in
      match Attack.Oracle.query o (Util.Prng.bytes rng len) with
      | Attack.Oracle.Survived _ -> true
      | Attack.Oracle.Crashed _ | Attack.Oracle.Server_down _ -> false)

let () =
  Alcotest.run "attack"
    [
      ( "oracle",
        [
          Alcotest.test_case "benign query" `Quick test_oracle_benign;
          Alcotest.test_case "crash signal" `Quick test_oracle_crash_signal;
          Alcotest.test_case "survives crashes" `Quick test_oracle_survives_many_crashes;
        ] );
      ( "payload",
        [
          Alcotest.test_case "guess prefix" `Quick test_guess_prefix_shape;
          Alcotest.test_case "full canary rejected" `Quick
            test_guess_prefix_full_canary_rejected;
          Alcotest.test_case "hijack" `Quick test_hijack_shape;
          Alcotest.test_case "stealth" `Quick test_stealth_shape;
          Alcotest.test_case "hijack detection" `Quick test_hijacked_detection;
          Alcotest.test_case "stealth detection" `Quick test_stealth_landed_detection;
        ] );
      ( "campaigns",
        [
          Alcotest.test_case "byte-by-byte breaks SSP" `Slow test_byte_by_byte_breaks_ssp;
          Alcotest.test_case "recovered canary replays" `Slow
            test_recovered_canary_is_the_real_one;
          Alcotest.test_case "byte-by-byte fails on P-SSP" `Slow
            test_byte_by_byte_fails_on_pssp;
          Alcotest.test_case "exhaustive exhausts" `Slow test_exhaustive_fails_within_budget;
        ] );
      ( "guarantees",
        [
          QCheck_alcotest.to_alcotest (prop_full_overwrite_always_caught Pssp.Scheme.Ssp);
          QCheck_alcotest.to_alcotest (prop_full_overwrite_always_caught Pssp.Scheme.Pssp);
          QCheck_alcotest.to_alcotest (prop_full_overwrite_always_caught Pssp.Scheme.Pssp_owf);
          QCheck_alcotest.to_alcotest (prop_boundary_never_trips Pssp.Scheme.Ssp);
          QCheck_alcotest.to_alcotest (prop_boundary_never_trips Pssp.Scheme.Pssp);
          QCheck_alcotest.to_alcotest (prop_boundary_never_trips Pssp.Scheme.Pssp_owf);
        ] );
    ]
