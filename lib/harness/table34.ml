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

let mb bytes = float_of_int bytes /. (1024.0 *. 1024.0)

let measure profile ~requests =
  let per_deployment d =
    Runner.run_server d profile ~requests
  in
  let native = per_deployment Runner.Native in
  let compiler = per_deployment (Runner.Compiler Pssp.Scheme.Pssp) in
  let instr = per_deployment Runner.Instr_dynamic in
  let to_ms (r : Runner.server_run) =
    r.Runner.avg_request_cycles /. profile.Workload.Servers.cycles_per_ms
  in
  {
    service = profile.Workload.Servers.profile_name;
    native_ms = to_ms native;
    compiler_ms = to_ms compiler;
    instr_ms = to_ms instr;
    native_mem_mb = mb native.Runner.server_mem_bytes;
    compiler_mem_mb = mb compiler.Runner.server_mem_bytes;
    instr_mem_mb = mb instr.Runner.server_mem_bytes;
  }

let run_web ?(requests = 300) () =
  { rows = List.map (measure ~requests) Workload.Servers.web }

let to_table3 result =
  let t =
    Util.Table.create
      ~title:
        "Table III: P-SSP's performance impact on web servers (average time \
         per request, ms)"
      [ "Service"; "Native execution"; "Compiler based P-SSP"; "Instrumentation based P-SSP" ]
  in
  List.iter
    (fun r ->
      Util.Table.add_row t
        [
          r.service;
          Util.Table.cell_float ~digits:3 r.native_ms;
          Util.Table.cell_float ~digits:3 r.compiler_ms;
          Util.Table.cell_float ~digits:3 r.instr_ms;
        ])
    result.rows;
  t

let to_table4 result =
  let t =
    Util.Table.create
      ~title:"Table IV: P-SSP's performance impact on database servers"
      [
        "Service";
        "Native query (ms)"; "Native mem (MB)";
        "Compiler query (ms)"; "Compiler mem (MB)";
        "Instr query (ms)"; "Instr mem (MB)";
      ]
  in
  List.iter
    (fun r ->
      Util.Table.add_row t
        [
          r.service;
          Util.Table.cell_float ~digits:2 r.native_ms;
          Util.Table.cell_float ~digits:2 r.native_mem_mb;
          Util.Table.cell_float ~digits:2 r.compiler_ms;
          Util.Table.cell_float ~digits:2 r.compiler_mem_mb;
          Util.Table.cell_float ~digits:2 r.instr_ms;
          Util.Table.cell_float ~digits:2 r.instr_mem_mb;
        ])
    result.rows;
  t


type latency_row = {
  lat_service : string;
  deployment : string;
  p50_ms : float;
  p99_ms : float;
}

let latency_table rows =
  let t =
    Util.Table.create
      ~title:
        "Latency distribution (extension): per-request percentiles, native vs compiler P-SSP"
      [ "Service"; "Deployment"; "p50 (ms)"; "p99 (ms)" ]
  in
  List.iter
    (fun r ->
      Util.Table.add_row t
        [
          r.lat_service;
          r.deployment;
          Util.Table.cell_float ~digits:3 r.p50_ms;
          Util.Table.cell_float ~digits:3 r.p99_ms;
        ])
    rows;
  t

(* ---- campaigns ---------------------------------------------------------- *)

let campaign3 () =
  let profiles = Workload.Servers.web in
  Campaign.v ~name:"table3"
    ~title:"Table III - web server response time (ms per request)"
    ~cells:(List.length profiles)
    ~run_cell:(fun i -> Campaign.pack (measure ~requests:300 (List.nth profiles i)))
    ~merge:(fun rows ->
      Util.Table.print
        (to_table3 { rows = List.map (fun r -> (Campaign.unpack r : row)) rows });
      print_string
        "Paper: Apache2 33.006/33.008/33.099; Nginx 3.088/3.090/3.088.\n")
    ()

(* Table IV interleaves two cell kinds: the per-service db rows first,
   then the latency-percentile extension's service x deployment cells. *)
type t4_cell = Db of row | Lat of latency_row

let latency_cell ~requests profile (label, deployment) =
  let r = Runner.run_server deployment profile ~requests in
  {
    lat_service = profile.Workload.Servers.profile_name;
    deployment = label;
    p50_ms = r.Runner.p50_request_cycles /. profile.Workload.Servers.cycles_per_ms;
    p99_ms = r.Runner.p99_request_cycles /. profile.Workload.Servers.cycles_per_ms;
  }

let latency_deployments =
  [ ("native", Runner.Native); ("P-SSP", Runner.Compiler Pssp.Scheme.Pssp) ]

let campaign4 () =
  let dbs = Workload.Servers.db in
  let lat_cells =
    List.concat_map
      (fun profile -> List.map (fun d -> (profile, d)) latency_deployments)
      (Workload.Servers.web @ Workload.Servers.db)
  in
  let n_db = List.length dbs in
  Campaign.v ~name:"table4"
    ~title:"Table IV - database server query time and memory"
    ~cells:(n_db + List.length lat_cells)
    ~run_cell:(fun i ->
      if i < n_db then Campaign.pack (Db (measure ~requests:200 (List.nth dbs i)))
      else
        let profile, d = List.nth lat_cells (i - n_db) in
        Campaign.pack (Lat (latency_cell ~requests:200 profile d)))
    ~merge:(fun rows ->
      let cells = List.map (fun r -> (Campaign.unpack r : t4_cell)) rows in
      let db_rows = List.filter_map (function Db r -> Some r | Lat _ -> None) cells in
      let lat_rows = List.filter_map (function Lat r -> Some r | Db _ -> None) cells in
      Util.Table.print (to_table4 { rows = db_rows });
      print_string
        "Paper: MySQL 3.33 ms & 22.59 MB in all three columns; SQLite\n\
         167.27/167.27/167 ms. The invariance across columns is the result.\n";
      Util.Table.print (latency_table lat_rows))
    ()
