(* perf-v1 metric definitions, summary statistics, the result file and
   the compare verdicts. *)

type better = Lower | Higher

(* Host metrics carry run-to-run noise and a relative bound (plus an
   absolute floor where the value is tiny); guest metrics are exact and
   may not move at all. *)
type kind = Host | Exact

type metric = {
  name : string;
  unit_ : string;
  better : better;
  bound : float;
  floor : float;
  kind : kind;
  only : string list;  (* workloads it applies to; [] = all *)
}

let serve = [ "serve-fork"; "serve-event" ]

let host ?(floor = 0.0) name unit_ =
  { name; unit_; better = Lower; bound = 0.10; floor; kind = Host; only = [] }

let exact ?(better = Lower) ?(only = []) name unit_ =
  { name; unit_; better; bound = 0.0; floor = 0.0; kind = Exact; only }

let end_to_end =
  [
    host "setup_s" "s" ~floor:0.02;
    host "wall_s" "s";
    host "peak_rss_mb" "MB";
    exact "failed_frac" "ratio";
    exact "guest_cycles" "cycles" ~only:("overhead" :: serve);
    exact "guest_p50_latency_cycles" "cycles" ~only:serve;
    exact "guest_p999_latency_cycles" "cycles" ~only:serve;
    exact "guest_sat_rps" "req/s" ~better:Higher ~only:serve;
    exact "pssp_overhead_pct" "%" ~only:[ "overhead" ];
  ]

let applies m workload = m.only = [] || List.mem workload m.only

(* Per-layer metrics of the traced rep: name, unit, and which way is
   better (fewer events of work, more reuse). *)
let per_layer =
  [
    ("minic.parse_s", "s", Lower);
    ("mcc.compile_s", "s", Lower);
    ("rewriter.instrument_s", "s", Lower);
    ("os.boot_s", "s", Lower);
    ("os.schedule_s", "s", Lower);
    ("os.schedule.calls", "count", Lower);
    ("os.guest_cycles", "cycles", Lower);
    ("os.idle_cycles", "cycles", Higher);
    ("os.ns_per_guest_cycle", "ns/cycle", Lower);
    ("os.kernel.forks", "count", Lower);
    ("os.kernel.crashes", "count", Lower);
    ("os.kernel.exits", "count", Lower);
    ("os.kernel.wakeups", "count", Lower);
    ("os.snapshot.captures", "count", Lower);
    ("os.snapshot.resumes", "count", Lower);
    ("os.connect_s", "s", Lower);
    ("os.us_per_request", "us", Lower);
    ("vm64.tcache.hits", "count", Higher);
    ("vm64.tcache.misses", "count", Lower);
    ("vm64.tcache.compiles", "count", Lower);
    ("vm64.tcache.hit_ratio", "ratio", Higher);
    ("vm64.guest_cycles_per_translation", "cycles", Higher);
    ("vm64.compile.superblocks", "count", Higher);
    ("vm64.compile.chains_patched", "count", Higher);
    ("vm64.compile.dispatch_avoided", "count", Higher);
    ("vm64.compile.spills", "count", Lower);
    ("vm64.compile.reloads", "count", Lower);
    ("vm64.mem.clones", "count", Lower);
    ("vm64.mem.cow_breaks", "count", Lower);
    ("vm64.mem.pages_aliased", "count", Higher);
    ("vm64.tcache.blocks_shared", "count", Higher);
    ("vm64.tcache.tables_materialised", "count", Lower);
    ("net.loadgen.step_s", "s", Lower);
    ("net.loadgen.steps", "count", Lower);
    ("net.loadgen.max_late_cycles", "cycles", Lower);
    ("net.conn.opened", "count", Lower);
    ("net.conn.accepted", "count", Lower);
    ("net.conn.refused", "count", Lower);
    ("net.conn.reset", "count", Lower);
    ("net.conn.timeouts", "count", Lower);
    ("net.bytes.rx", "bytes", Lower);
    ("net.bytes.tx", "bytes", Lower);
    ("attack.oracle_create_s", "s", Lower);
    ("attack.run_s", "s", Lower);
    ("attack.trials", "count", Lower);
    ("attack.restarts", "count", Lower);
    ("attack.victim_respawns", "count", Lower);
    ("attack.us_per_trial", "us", Lower);
    ("harness.table5_s", "s", Lower);
    ("perf.unattributed_s", "s", Lower);
    ("perf.traced_wall_s", "s", Lower);
    ("perf.trace_overhead_frac", "ratio", Lower);
  ]

(* What a traced fixed-length run reports: the per-layer metrics, then
   the exact guest metrics (0 on a workload that has none). *)
let traced_metrics =
  per_layer
  @ List.filter_map
      (fun m ->
        if m.kind = Exact && m.name <> "failed_frac" then Some (m.name, m.unit_, m.better)
        else None)
      end_to_end

(* ---- statistics ------------------------------------------------------ *)

let sorted xs = List.sort compare xs

let median xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* First and third quartiles by Python's [statistics.quantiles(xs, n=4)]
   (the exclusive method), so spreads read the same in either tool. *)
let quartiles xs =
  let a = Array.of_list (sorted xs) in
  let ld = Array.length a in
  if ld = 0 then (nan, nan)
  else if ld = 1 then (a.(0), a.(0))
  else
    let q i =
      let m = ld + 1 in
      let j = Stdlib.min (ld - 1) (Stdlib.max 1 (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 3)

(* ---- result files ---------------------------------------------------- *)

type summary = { samples : float list; med : float; q1 : float; q3 : float }

let summarise samples =
  let q1, q3 = quartiles samples in
  { samples; med = median samples; q1; q3 }

type workload_result = {
  workload : string;
  correct : bool;
  errors : string list;
  attempted : int;
  failed : int;
  metrics : (string * summary) list;
  layers : (string * float) list;  (* the traced rep; [] when untraced *)
}

type t = {
  seed : int64 option;
  scale : float;
  reps : int;
  workloads : workload_result list;
}

let benchmark = "perf-v1"

module J = Util.Json

let better_name = function Lower -> "lower" | Higher -> "higher"
let floats xs = J.List (List.map (fun x -> J.Float x) xs)

let to_json t =
  let metric name s =
    let m = List.find (fun m -> m.name = name) end_to_end in
    J.Obj
      [
        ("name", J.String name);
        ("unit", J.String m.unit_);
        ("better", J.String (better_name m.better));
        ("bound", J.Float m.bound);
        ("floor", J.Float m.floor);
        ("samples", floats s.samples);
        ("median", J.Float s.med);
        ("q1", J.Float s.q1);
        ("q3", J.Float s.q3);
      ]
  in
  let workload w =
    J.Obj
      [
        ("name", J.String w.workload);
        ("correct", J.Bool w.correct);
        ("errors", J.List (List.map (fun e -> J.String e) w.errors));
        ("attempted", J.Int w.attempted);
        ("failed", J.Int w.failed);
        ("metrics", J.List (List.map (fun (n, s) -> metric n s) w.metrics));
        ("layers", J.Obj (List.map (fun (n, v) -> (n, J.Float v)) w.layers));
      ]
  in
  J.Obj
    [
      ("benchmark", J.String benchmark);
      ( "seed",
        match t.seed with None -> J.Null | Some s -> J.Int (Int64.to_int s) );
      ("scale", J.Float t.scale);
      ("reps", J.Int t.reps);
      ("workloads", J.List (List.map workload t.workloads));
    ]

let ( let* ) = Option.bind
let field name conv j = let* v = J.member name j in conv v

let list_of conv j =
  let* xs = J.to_list_opt j in
  List.fold_right
    (fun x acc ->
      let* acc = acc in
      let* v = conv x in
      Some (v :: acc))
    xs (Some [])

let of_json j =
  let metric j =
    let* name = field "name" J.to_string_opt j in
    let* samples = field "samples" (list_of J.to_float_opt) j in
    let* med = field "median" J.to_float_opt j in
    let* q1 = field "q1" J.to_float_opt j in
    let* q3 = field "q3" J.to_float_opt j in
    Some (name, { samples; med; q1; q3 })
  in
  let workload j =
    let* workload = field "name" J.to_string_opt j in
    let* correct = field "correct" J.to_bool_opt j in
    let* errors = field "errors" (list_of J.to_string_opt) j in
    let* attempted = field "attempted" J.to_int_opt j in
    let* failed = field "failed" J.to_int_opt j in
    let* metrics = field "metrics" (list_of metric) j in
    let* layers = field "layers" J.to_obj_opt j in
    let layers =
      List.filter_map (fun (n, v) -> Option.map (fun f -> (n, f)) (J.to_float_opt v)) layers
    in
    Some { workload; correct; errors; attempted; failed; metrics; layers }
  in
  let* name = field "benchmark" J.to_string_opt j in
  if name <> benchmark then None
  else
    let* seed =
      match J.member "seed" j with
      | Some J.Null -> Some None
      | Some v -> Option.map (fun s -> Some (Int64.of_int s)) (J.to_int_opt v)
      | None -> None
    in
    let* scale = field "scale" J.to_float_opt j in
    let* reps = field "reps" J.to_int_opt j in
    let* workloads = field "workloads" (list_of workload) j in
    Some { seed; scale; reps; workloads }

let read path =
  let text = In_channel.with_open_bin path In_channel.input_all in
  match J.parse text with
  | Error e -> Error (path ^ ": " ^ e)
  | Ok j -> (
    match of_json j with
    | Some t -> Ok t
    | None -> Error (path ^ ": not a " ^ benchmark ^ " result file"))

let write path t =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (J.to_string (to_json t));
      output_char oc '\n')

(* ---- printing and compare -------------------------------------------- *)

let pp_value v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.abs v >= 100.0 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.4g" v

let pp_summary s =
  if s.q1 = s.q3 then pp_value s.med
  else Printf.sprintf "%s [%s, %s]" (pp_value s.med) (pp_value s.q1) (pp_value s.q3)

let pp_bound m =
  match m.kind with
  | Exact -> "exact"
  | Host ->
    if m.floor > 0.0 then Printf.sprintf "%.0f%% (>= %gs)" (m.bound *. 100.0) m.floor
    else Printf.sprintf "%.0f%%" (m.bound *. 100.0)

let print t =
  Printf.printf
    "%s: %d rep(s) per workload, each in a fresh process; seed %s, scale %g\n\
     host metrics read median [q1, q3]; guest metrics are exact\n"
    benchmark t.reps
    (match t.seed with None -> "default" | Some s -> Int64.to_string s)
    t.scale;
  List.iter
    (fun w ->
      Printf.printf "\n%s  %s  (attempted %d, failed %d)\n" w.workload
        (if w.correct then "pins ok" else "PINS FAILED")
        w.attempted w.failed;
      List.iter (fun e -> Printf.printf "  ! %s\n" e) w.errors;
      List.iter
        (fun (n, s) ->
          let m = List.find (fun m -> m.name = n) end_to_end in
          Printf.printf "  %-27s %-30s %-7s bound %s\n" n (pp_summary s) m.unit_
            (pp_bound m))
        w.metrics;
      if w.layers <> [] then begin
        Printf.printf "  per-layer (traced rep):\n";
        List.iter
          (fun (n, unit_, _) ->
            match List.assoc_opt n w.layers with
            | Some v when v <> 0.0 -> Printf.printf "    %-36s %s %s\n" n (pp_value v) unit_
            | _ -> ())
          per_layer
      end)
    t.workloads

type verdict = Better | Worse | Unchanged | Unresolved

let verdict_name = function
  | Better -> "better"
  | Worse -> "WORSE"
  | Unchanged -> "unchanged"
  | Unresolved -> "unresolved"

let judge m old_ new_ =
  let sign = match m.better with Lower -> 1.0 | Higher -> -1.0 in
  (* positive = the new value is worse *)
  let worse_by = sign *. (new_.med -. old_.med) in
  match m.kind with
  | Exact ->
    if worse_by > 0.0 then Worse else if worse_by < 0.0 then Better else Unchanged
  | Host ->
    let tol = Float.max (m.bound *. Float.abs old_.med) m.floor in
    let spread = Float.max (old_.q3 -. old_.q1) (new_.q3 -. new_.q1) in
    (* every new rep beats (or loses to) every old rep *)
    let all cmp =
      List.for_all
        (fun n -> List.for_all (fun o -> cmp (sign *. (n -. o)) 0.0) old_.samples)
        new_.samples
    in
    if new_.samples = old_.samples then Unchanged
    else if spread > tol && not (all ( < ) || all ( > )) then Unresolved
    else if worse_by > tol then Worse
    else if -.worse_by > tol then Better
    else Unchanged

(* Prints one row per (workload, metric) and returns whether anything
   got worse (a workload that stopped passing its pins counts). *)
let compare_results old_ new_ =
  if old_.seed <> new_.seed || old_.scale <> new_.scale then
    Error "results are not comparable: seed or scale differ"
  else begin
    let worse = ref false in
    Printf.printf "%-12s %-27s %-30s %-30s %9s %-12s %s\n" "workload" "metric"
      "old median [q1, q3]" "new median [q1, q3]" "delta" "bound" "verdict";
    List.iter
      (fun nw ->
        match List.find_opt (fun w -> w.workload = nw.workload) old_.workloads with
        | None -> Printf.printf "%-12s (not in the old result)\n" nw.workload
        | Some ow ->
          if ow.correct && not nw.correct then begin
            worse := true;
            Printf.printf "%-12s pins now FAIL: %s\n" nw.workload
              (String.concat "; " nw.errors)
          end;
          List.iter
            (fun m ->
              match (List.assoc_opt m.name ow.metrics, List.assoc_opt m.name nw.metrics) with
              | Some o, Some n ->
                let v = judge m o n in
                if v = Worse then worse := true;
                let delta =
                  if o.med = 0.0 then if n.med = 0.0 then "0%" else "new"
                  else Printf.sprintf "%+.2f%%" ((n.med -. o.med) /. Float.abs o.med *. 100.0)
                in
                Printf.printf "%-12s %-27s %-30s %-30s %9s %-12s %s\n" nw.workload m.name
                  (pp_summary o) (pp_summary n) delta (pp_bound m) (verdict_name v)
              | _ -> ())
            end_to_end)
      new_.workloads;
    Ok !worse
  end
