(* Versioned on-disk schema for the perf trajectory record
   (--bench-out), the metrics snapshot (--metrics-out), and shard
   files. Every campaign carries a generic registry snapshot, a
   {"metric-name": int} object. Schema 3 records shard provenance —
   shard index/count on files written by `--shard K/N`, merged-from on
   files produced by `bench merge` — and optional per-campaign cell
   rows (the marshalled cells a shard file carries so the merge step
   can render the combined body). A row is written as hex with the hex
   MD5 digest of its bytes, and the reader refuses one whose text is
   not hex or whose bytes do not match the digest: the merge step
   unmarshals rows, and unmarshalling damaged bytes can crash the
   process. The reader accepts schema 3 only. *)

let schema_version = 3

type campaign = {
  name : string;
  wall_s : float;
  metrics : (string * int) list;  (* name-sorted registry snapshot *)
  context : string;
      (* campaign-config fingerprint (e.g. the loadbench header line);
         shards must agree on it before their rows may merge *)
  cells : (int * string) list;  (* (cell index, marshalled row) — only in shard files *)
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
               (fun (i, row) ->
                 Json.List
                   [
                     Json.Int i;
                     Json.String (Hex.of_string row);
                     Json.String (Digest.to_hex (Digest.string row));
                   ])
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

let cell_of_json e =
  match Json.to_list_opt e with
  | Some [ i; hex; digest ] -> (
    match (Json.to_int_opt i, Json.to_string_opt hex, Json.to_string_opt digest) with
    | Some i, Some hex, Some digest -> (
      match Bytes.to_string (Hex.to_bytes hex) with
      | exception Invalid_argument _ -> Error (Printf.sprintf "cell %d: row is not hex" i)
      | row ->
        if String.equal (Digest.to_hex (Digest.string row)) digest then Ok (i, row)
        else Error (Printf.sprintf "cell %d: row does not match its digest" i))
    | _ -> Error "ill-typed cell entry")
  | _ -> Error "ill-typed cell entry"

let cells_of_json j =
  match Json.to_list_opt j with
  | None -> Error "campaign \"cells\" is not a list"
  | Some entries ->
    List.fold_left
      (fun acc e ->
        let* acc = acc in
        let* cell = cell_of_json e in
        Ok (cell :: acc))
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
    | Some c ->
      Result.map_error (Printf.sprintf "campaign %s: %s" name) (cells_of_json c)
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

(* ---- shard files ---------------------------------------------------------- *)

let tile files =
  let fail fmt = Printf.ksprintf (fun msg -> Error msg) fmt in
  match files with
  | [] -> Error "no shard files given"
  | (first_file, first) :: _ ->
    let n = first.shards in
    let names t = List.map (fun c -> c.name) t.campaigns in
    (* a part ran under the first file's configuration and holds only
       cells shard [k] owns *)
    let check_part file k acc (c, f) =
      let* () = acc in
      if not (String.equal c.context f.context) then
        fail "%s: campaign %s ran under a different configuration\n  %s\n  vs %s" file
          c.name c.context f.context
      else
        match List.find_opt (fun (i, _) -> i mod n <> k) c.cells with
        | Some (i, _) -> fail "%s: campaign %s: cell %d is not shard %d/%d's" file c.name i k n
        | None -> Ok ()
    in
    let check_file acc (file, t) =
      let* seen = acc in
      if t.shards <> n then fail "%s has %d shard(s), expected %d" file t.shards n
      else
        match t.shard with
        | None -> fail "%s is not a shard file (no \"shard\" index)" file
        | Some k when k < 0 || k >= n -> fail "%s: shard %d is not in 0..%d" file k (n - 1)
        | Some k when List.mem k seen -> fail "duplicate shard %d/%d (%s)" k n file
        | Some k ->
          if names t <> names first then
            fail "%s lists different campaigns than %s" file first_file
          else
            let* () =
              List.fold_left (check_part file k) (Ok ())
                (List.combine t.campaigns first.campaigns)
            in
            Ok (k :: seen)
    in
    let* seen = List.fold_left check_file (Ok []) files in
    if List.length seen <> n then fail "have %d of %d shard file(s)" (List.length seen) n
    else
      Ok
        (List.mapi
           (fun idx _ -> List.map (fun (_, t) -> List.nth t.campaigns idx) files)
           first.campaigns)

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
