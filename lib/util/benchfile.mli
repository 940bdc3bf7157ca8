(** Versioned schema for the telemetry JSON files.

    Two shapes share the version number {!schema_version}:
    - the perf trajectory record ([--bench-out], [BENCH_*.json], and
      the shard files [--shard K/N] writes):
      [{"schema": 3, "pr": .., "jobs": .., "compile_tier": ..,
      "shards": .., "shard"?: .., "merged_from"?: [..],
      "campaigns": [{"name", "wall_s", "metrics": {..},
      "context"?: .., "cells"?: [[i, hex, digest], ..]}]}]
    - the bare metrics snapshot ([--metrics-out]):
      [{"schema": 3, "metrics": {..}}]

    Schema 3 carries shard provenance (shard index/count, merged-from)
    and optional per-campaign cell rows, each written as hex with the
    hex MD5 digest of its bytes; the readers accept schema 3
    only (the schema-2 records BENCH_pr5, pr7 and pr8 were rewritten
    as schema 3). Metrics objects
    map registry metric names to integers (histograms are
    pre-flattened into per-bucket entries by the registry snapshot).
    [read (write x) = Ok x] up to float representation — the CI perf
    gate relies on this round-trip. *)

val schema_version : int

type campaign = {
  name : string;
  wall_s : float;
  metrics : (string * int) list;  (** name-sorted registry snapshot *)
  context : string;
      (** campaign-config fingerprint (e.g. the loadbench header
          line); shards must agree on it before their rows may merge.
          [""] when the campaign takes no configuration. *)
  cells : (int * string) list;
      (** (cell index, marshalled row) pairs — present only in shard
          files, where they carry the shard's computed rows to the
          merge step *)
}

type t = {
  pr : int;
  jobs : int;
  compile_tier : int;
      (** 0 = interpreter, 3 = compiled (the threaded chain). Older
          records also carry 1 and 2, for execution modes since
          removed. *)
  shards : int;  (** total shard count; 1 = unsharded *)
  shard : int option;
      (** [Some k] on a file written by [--shard K/N] (0-based) *)
  merged_from : string list;
      (** shard files a [bench merge] combined into this record *)
  campaigns : campaign list;
}

val campaign :
  ?context:string ->
  ?cells:(int * string) list ->
  name:string ->
  wall_s:float ->
  (string * int) list ->
  campaign

val make :
  ?shards:int ->
  ?shard:int ->
  ?merged_from:string list ->
  pr:int ->
  jobs:int ->
  compile_tier:int ->
  campaign list ->
  t

val to_json : t -> Json.t

val of_json : Json.t -> (t, string) result
(** [Error] names the first missing or ill-typed field, or a cell row
    whose text is not hex or whose bytes do not match its digest, so
    a row it returns is the one written. *)

val write : string -> t -> unit
val read : string -> (t, string) result

val tile : (string * t) list -> (campaign list list, string) result
(** [tile [(path, record); ..]] checks that the shard files tile one
    sharded run: each has the first file's shard count and a shard
    index in range, every index appears exactly once, every file lists
    the same campaigns in the same order, and each campaign ran under
    the first file's context and holds only cells its shard owns
    (index [i] with [i mod shards = k]). [Ok] gives, for each campaign
    in order, its part from every file, in file order; [Error] names
    the first broken rule and the file that broke it. *)

val metrics_snapshot_to_json : (string * int) list -> Json.t
val write_metrics : string -> (string * int) list -> unit
val read_metrics : string -> ((string * int) list, string) result
