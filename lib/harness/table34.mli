(** Tables III and IV: service-level impact of P-SSP on web servers
    (average time per request) and database servers (query execution
    time and memory usage).

    Simulated cycles are converted to the paper's millisecond scale via
    each profile's calibration constant (see
    {!Workload.Servers.profile}), so the native column lands near the
    paper's absolute numbers and the P-SSP columns show the same
    (non-)effect. *)

type row = {
  service : string;
  native_ms : float;
  compiler_ms : float;
  instr_ms : float;
  native_mem_mb : float;
  compiler_mem_mb : float;
  instr_mem_mb : float;
}

type result = { rows : row list }

val run_web : ?requests:int -> unit -> result
(** Table III: Apache2- and Nginx-profile servers; default 300 requests. *)

val to_table3 : result -> Util.Table.t
val to_table4 : result -> Util.Table.t

type latency_row = {
  lat_service : string;
  deployment : string;
  p50_ms : float;
  p99_ms : float;
}

val latency_table : latency_row list -> Util.Table.t

val campaign3 : unit -> Campaign.t
(** Table III: one cell per web profile (300 requests each). *)

val campaign4 : unit -> Campaign.t
(** Table IV: one cell per db profile plus one per service x deployment
    latency-percentile cell (200 requests each). *)
