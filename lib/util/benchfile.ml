(* Versioned on-disk schema for the perf trajectory record
   (--bench-out), the metrics snapshot (--metrics-out), and shard
   files. Every campaign carries a generic registry snapshot, a
   {"metric-name": int} object. Schema 3 records shard provenance —
   shard index/count on files written by `--shard K/N`, merged-from on
   files produced by `bench merge` — and optional per-campaign cell
   rows (hex-encoded marshalled cells a shard file carries so the merge
   step can render the combined body). The reader accepts schema 3
   only. *)

let schema_version = 3

type campaign = {
  name : string;
  wall_s : float;
  metrics : (string * int) list;  (* name-sorted registry snapshot *)
  context : string;
      (* campaign-config fingerprint (e.g. the loadbench header line);
         shards must agree on it before their rows may merge *)
  cells : (int * string) list;
      (* (cell index, hex-encoded marshalled row) — only in shard files *)
}

type t = {
  pr : int;
  jobs : int;
  compile_tier : int;
      (* 0 = interpreter, 3 = compiled (threaded chain); older records
         carry 1 and 2 for execution modes since removed *)
  shards : int;  (* total shard count; 1 = unsharded *)
  shard : int option;  (* Some k on a shard file (0-based, of [shards]) *)
  merged_from : string list;  (* shard files a `bench merge` combined *)
  campaigns : campaign list;
}

let campaign ?(context = "") ?(cells = []) ~name ~wall_s metrics =
  { name; wall_s; metrics; context; cells }

let make ?(shards = 1) ?shard ?(merged_from = []) ~pr ~jobs ~compile_tier
    campaigns =
  { pr; jobs; compile_tier; shards; shard; merged_from; campaigns }

let metrics_to_json metrics = Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) metrics)

let campaign_to_json c =
  Json.Obj
    ([
       ("name", Json.String c.name);
       ("wall_s", Json.Float c.wall_s);
       ("metrics", metrics_to_json c.metrics);
     ]
    @ (if String.equal c.context "" then []
       else [ ("context", Json.String c.context) ])
    @
    match c.cells with
    | [] -> []
    | cells ->
      [
        ( "cells",
          Json.List
            (List.map
               (fun (i, row) -> Json.List [ Json.Int i; Json.String row ])
               cells) );
      ])

let to_json t =
  Json.Obj
    ([
       ("schema", Json.Int schema_version);
       ("pr", Json.Int t.pr);
       ("jobs", Json.Int t.jobs);
       ("compile_tier", Json.Int t.compile_tier);
       ("shards", Json.Int t.shards);
     ]
    @ (match t.shard with Some k -> [ ("shard", Json.Int k) ] | None -> [])
    @ (match t.merged_from with
      | [] -> []
      | fs -> [ ("merged_from", Json.List (List.map (fun f -> Json.String f) fs)) ])
    @ [ ("campaigns", Json.List (List.map campaign_to_json t.campaigns)) ])

let write path t =
  let oc = open_out path in
  output_string oc (Json.to_string (to_json t));
  output_char oc '\n';
  close_out oc

(* ---- readers -------------------------------------------------------------- *)

let ( let* ) = Result.bind

let require what = function Some v -> Ok v | None -> Error ("missing or ill-typed " ^ what)

let check_schema j =
  let* v = require "\"schema\"" (Option.bind (Json.member "schema" j) Json.to_int_opt) in
  if v <> schema_version then
    Error (Printf.sprintf "unsupported schema %d (want %d)" v schema_version)
  else Ok ()

let metrics_of_json what j =
  let* fields = require what (Json.to_obj_opt j) in
  List.fold_left
    (fun acc (k, v) ->
      let* acc = acc in
      match Json.to_int_opt v with
      | Some n -> Ok ((k, n) :: acc)
      | None -> Error (Printf.sprintf "metric %S is not an integer" k))
    (Ok []) fields
  |> Result.map List.rev

let cells_of_json j =
  match Json.to_list_opt j with
  | None -> Error "campaign \"cells\" is not a list"
  | Some entries ->
    List.fold_left
      (fun acc e ->
        let* acc = acc in
        match Json.to_list_opt e with
        | Some [ i; row ] -> (
          match (Json.to_int_opt i, Json.to_string_opt row) with
          | Some i, Some row -> Ok ((i, row) :: acc)
          | _ -> Error "ill-typed cell entry")
        | _ -> Error "ill-typed cell entry")
      (Ok []) entries
    |> Result.map List.rev

let campaign_of_json j =
  let* name = require "campaign \"name\"" (Option.bind (Json.member "name" j) Json.to_string_opt) in
  let* wall_s =
    require "campaign \"wall_s\"" (Option.bind (Json.member "wall_s" j) Json.to_float_opt)
  in
  let* metrics =
    let* m = require "campaign \"metrics\"" (Json.member "metrics" j) in
    metrics_of_json "campaign \"metrics\"" m
  in
  let context =
    Option.value ~default:""
      (Option.bind (Json.member "context" j) Json.to_string_opt)
  in
  let* cells =
    match Json.member "cells" j with
    | None -> Ok []
    | Some c -> cells_of_json c
  in
  Ok { name; wall_s; metrics; context; cells }

let of_json j =
  let* () = check_schema j in
  let* pr = require "\"pr\"" (Option.bind (Json.member "pr" j) Json.to_int_opt) in
  let* jobs = require "\"jobs\"" (Option.bind (Json.member "jobs" j) Json.to_int_opt) in
  let* compile_tier =
    require "\"compile_tier\"" (Option.bind (Json.member "compile_tier" j) Json.to_int_opt)
  in
  let* shards = require "\"shards\"" (Option.bind (Json.member "shards" j) Json.to_int_opt) in
  let shard = Option.bind (Json.member "shard" j) Json.to_int_opt in
  let merged_from =
    match Option.bind (Json.member "merged_from" j) Json.to_list_opt with
    | None -> []
    | Some fs -> List.filter_map Json.to_string_opt fs
  in
  let* campaigns =
    let* cs = require "\"campaigns\"" (Option.bind (Json.member "campaigns" j) Json.to_list_opt) in
    List.fold_left
      (fun acc c ->
        let* acc = acc in
        let* c = campaign_of_json c in
        Ok (c :: acc))
      (Ok []) cs
    |> Result.map List.rev
  in
  Ok { pr; jobs; compile_tier; shards; shard; merged_from; campaigns }

let read_file path =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic ->
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    Ok s

let read path =
  let* s = read_file path in
  let* j = Json.parse s in
  of_json j

(* A --metrics-out snapshot: {"schema": 3, "metrics": {...}}. *)

let metrics_snapshot_to_json metrics =
  Json.Obj [ ("schema", Json.Int schema_version); ("metrics", metrics_to_json metrics) ]

let write_metrics path metrics =
  let oc = open_out path in
  output_string oc (Json.to_string (metrics_snapshot_to_json metrics));
  output_char oc '\n';
  close_out oc

let read_metrics path =
  let* s = read_file path in
  let* j = Json.parse s in
  let* () = check_schema j in
  let* m = require "\"metrics\"" (Json.member "metrics" j) in
  metrics_of_json "\"metrics\"" m
