(** Table V: average CPU cycles spent by the canary code in the function
    prologue and epilogue, per scheme (paper: P-SSP 6, P-SSP-NT 343,
    P-SSP-LV 343/986, P-SSP-OWF 278).

    Measured as the per-call cycle delta between a protected and an
    unprotected build of a guarded leaf function called in a tight loop.
    Following the paper's counting, "P-SSP-LV with n variables" denotes
    a frame carrying n canaries, i.e. n-1 [rdrand] draws (§VI-B). *)

type row = {
  label : string;
  scheme : Pssp.Scheme.t;
  cycles : float;  (** prologue+epilogue canary cycles per call *)
}

type result = { rows : row list }

val run : ?jobs:int -> ?calls:int -> unit -> result
(** [calls] defaults to 20_000. Each distinct unprotected victim runs
    once and serves every row with its number of critical variables.
    [jobs] fans the runs out over a {!Pool} of domains; results are
    identical for every [jobs], and to {!measure_scheme}'s per row. *)

val to_table : result -> Util.Table.t

val measure_scheme : ?calls:int -> Pssp.Scheme.t -> criticals:int -> float
(** Per-call canary cost of one scheme on a frame with the given number
    of [critical] variables, from a protected and an unprotected run of
    its own (the ablation grid and the tests use it). *)

val campaign : unit -> Campaign.t
(** {!run}'s cells and rows at 20_000 calls: one cell per distinct
    unprotected victim, then one per scheme row. *)
