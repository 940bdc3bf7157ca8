(** Declarative argv specs shared by the bench driver and [pssp_cli].

    One {!spec} per flag — name, arity, parser, help line — replaces the
    hand-rolled match ladders the two binaries used to duplicate.
    {!parse} folds flags out of an argv slice and returns the remaining
    positionals; every parse failure surfaces as a message (and a
    non-zero exit through {!parse_or_exit}), never a silent fallthrough.
    The error-message strings are part of the surface: tests pin the
    historical bench wording. *)

type action =
  | Set of (unit -> unit)  (** flag without argument *)
  | Arg of (string -> (unit, string) result)  (** flag with one argument *)

type spec = { name : string; docv : string; doc : string; action : action }

val flag : name:string -> doc:string -> (unit -> unit) -> spec
val value :
  name:string -> docv:string -> doc:string -> (string -> (unit, string) result) -> spec

val nonneg_int : name:string -> docv:string -> doc:string -> (int -> unit) -> spec
(** Rejects with ["NAME expects a non-negative integer, got X"]. *)

val pos_int : name:string -> docv:string -> doc:string -> (int -> unit) -> spec
(** Rejects with ["NAME expects a positive integer, got X"]. *)

val on_off : name:string -> doc:string -> (bool -> unit) -> spec
(** Rejects with ["NAME expects on or off, got X"]. *)

val string_value : name:string -> docv:string -> doc:string -> (string -> unit) -> spec

val scheme_value : name:string -> doc:string -> (Pssp.Scheme.t -> unit) -> spec
(** Protection-scheme selector via {!Pssp.Scheme.of_name}. Rejects with
    {!unknown_scheme}'s message. *)

val unknown_scheme : string -> string
(** ["unknown scheme \"X\" (have: none ssp ... wasm-ssp)"] — the pinned
    rejection message for scheme selector flags. *)

val expects : name:string -> what:string -> string -> string
(** ["NAME expects WHAT, got X"] — the shared rejection-message shape,
    for custom {!value} parsers. *)

val missing_arg : string -> string
(** ["NAME expects an argument"] — the message {!parse} produces when a
    value flag ends the argv. *)

type parsed =
  | Positionals of string list  (** non-flag arguments, in order *)
  | Help  (** [--help]/[-h] seen *)
  | Bad of string  (** parse failure message *)

val parse : spec list -> string list -> parsed
(** Arguments matching no spec pass through as positionals (the bench
    driver rejects unknown experiment names itself, preserving its
    historical error text). *)

val usage : prog:string -> ?positional:string -> spec list -> string
(** Generated help text over the specs. *)

val parse_or_exit : prog:string -> ?positional:string -> spec list -> string list -> string list
(** {!parse}, then: [Bad] prints the message to stderr and exits 1;
    [Help] prints {!usage} and exits 0. *)

(** {2 Telemetry flags}

    The [--metrics-out] / [--trace-out] / [--profile top=N] trio, shared
    verbatim by both binaries. *)

type telemetry_opts = {
  mutable metrics_out : string option;
  mutable trace_out : string option;
  mutable profile_top : int option;
}

val telemetry_opts : unit -> telemetry_opts
val telemetry_specs : telemetry_opts -> spec list

val parse_profile_top : string -> (int, string) result
(** Parses ["top=N"], [N > 0] — exposed for [pssp_cli]'s cmdliner
    converter. *)

val telemetry_start : telemetry_opts -> unit
(** Install the trace sink and enable the profiler as requested. Call
    before the workload runs. *)

val telemetry_finish : ?resolve:(int64 -> string option) -> telemetry_opts -> unit
(** Write the metrics snapshot, print the profile report (symbolised
    through [?resolve]), and close the trace sink. Call once after the
    workload. *)
