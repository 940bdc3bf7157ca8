(** The byte-by-byte attack of §II-B.

    Guess the canary one byte at a time, lowest address first: overflow
    exactly up to byte [k] with bytes [0..k-1] replayed from previous
    successes; a surviving child confirms byte [k]. Against SSP's
    fork-constant canary this needs ~128 trials per byte (~1024 total
    on 64-bit). Against P-SSP every fork re-randomizes the pair, so
    "confirmed" bytes are stale and the final exploit never verifies —
    the attacker's advantage does not accumulate (Theorem 1). *)

type outcome =
  | Broken of { canary : bytes; trials : int }
      (** full canary recovered AND a control-flow hijack verified *)
  | Exhausted of { trials : int; restarts : int; max_bytes_recovered : int }
      (** trial budget spent without a verified exploit *)
  | Oracle_lost of { trials : int; detail : string }

val outcome_to_string : outcome -> string

type verify_mode =
  | Hijack  (** overwrite the return address; verify the jump landed *)
  | Stealth
      (** leave the return address alone; verify a corruption of the
          saved-rbp word beyond the canary went undetected
          ({!Payload.stealth_landed}: the child survives, or faults on
          the planted frame pointer). Needed against
          return-address-bound canaries (P-SSP-OWF), where a hijack
          payload invalidates the very canary being replayed. *)

val run :
  ?verify:verify_mode ->
  Oracle.t ->
  layout:Payload.layout ->
  max_trials:int ->
  outcome
(** Run until verified success or the budget is exhausted. Each
    completed canary recovery is verified per [verify] (default
    {!Hijack}); a failed verification restarts the attack from scratch
    (as a real BROP attacker must when the canary turns out wrong). *)
