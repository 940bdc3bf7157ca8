(** Post-mortem classification of a dead process — the forensic view of
    what a canary scheme did (or failed to do).

    Distinguishes the three endings the paper's experiments produce:
    a canary abort (the defence worked), a control-flow hijack (the
    attacker landed: rip left the mapped text), and a wild fault (the
    overflow corrupted something other than the return address). *)

type verdict =
  | Not_dead  (** the process is still alive: runnable or parked *)
  | Clean_exit of int
  | Canary_abort of { message : string }
      (** [__stack_chk_fail] (or the P-SSP check) fired *)
  | Control_flow_hijack of {
      target : int64;  (** where execution was redirected *)
      payload_shaped : bool;
          (** the target reads like attacker filler (one repeated
              printable byte) *)
    }
  | Wild_fault of { at_rip : int64; detail : string }
      (** a fault while executing mapped code — data corruption, not a
          seized return address *)

type report = {
  verdict : verdict;
  crash_function : string option;
      (** symbol covering rip at death, when rip is still inside the
          image *)
  frames : Debug.frame list;  (** best-effort backtrace *)
}

val examine : Process.t -> report

val verdict_to_string : verdict -> string
val pp_report : Format.formatter -> report -> unit
