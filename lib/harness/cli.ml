(* Shared argv handling for the bench driver and pssp_cli's hand-rolled
   corners: one declarative spec per flag (name, arity, parser, help
   line) instead of two divergent match ladders. Error messages are
   pinned by test_telemetry — the bench driver's historical strings
   ("--jobs expects a non-negative integer, got x") are the contract. *)

type action =
  | Set of (unit -> unit)  (* flag, no argument *)
  | Arg of (string -> (unit, string) result)  (* flag VALUE *)

type spec = { name : string; docv : string; doc : string; action : action }

let flag ~name ~doc f = { name; docv = ""; doc; action = Set f }
let value ~name ~docv ~doc parse = { name; docv; doc; action = Arg parse }

(* [expects] pins the shared error-message shape. *)
let expects ~name ~what got = Printf.sprintf "%s expects %s, got %s" name what got
let missing_arg name = Printf.sprintf "%s expects an argument" name

let int_value ~name ~docv ~doc ~what ~ok set =
  value ~name ~docv ~doc (fun s ->
      match int_of_string_opt s with
      | Some v when ok v -> set v; Ok ()
      | _ -> Error (expects ~name ~what s))

let nonneg_int ~name ~docv ~doc set =
  int_value ~name ~docv ~doc ~what:"a non-negative integer" ~ok:(fun v -> v >= 0) set

let pos_int ~name ~docv ~doc set =
  int_value ~name ~docv ~doc ~what:"a positive integer" ~ok:(fun v -> v > 0) set

let on_off ~name ~doc set =
  value ~name ~docv:"on|off" ~doc (fun s ->
      match s with
      | "on" -> set true; Ok ()
      | "off" -> set false; Ok ()
      | _ -> Error (expects ~name ~what:"on or off" s))

let string_value ~name ~docv ~doc set =
  value ~name ~docv ~doc (fun s -> set s; Ok ())

(* The scheme names a selector flag advertises: the paper schemes, the
   extensions, and the defense families — every [Scheme.of_name]-able
   spelling except the open-ended pssp-lvN family, which the two
   listed widths stand in for. *)
let known_scheme_names =
  List.map Pssp.Scheme.name
    (Pssp.Scheme.all_basic @ Pssp.Scheme.all_extensions
    @ [ Pssp.Scheme.Pssp_owf_weak; Pssp.Scheme.Pssp_gb ]
    @ Pssp.Scheme.all_families)

let unknown_scheme s =
  Printf.sprintf "unknown scheme %S (have: %s)" s
    (String.concat " " known_scheme_names)

let scheme_value ~name ~doc set =
  value ~name ~docv:"SCHEME" ~doc (fun s ->
      match Pssp.Scheme.of_name s with
      | Some scheme -> set scheme; Ok ()
      | None -> Error (unknown_scheme s))

type parsed = Positionals of string list | Help | Bad of string

let parse specs args =
  let rec go acc = function
    | [] -> Positionals (List.rev acc)
    | ("--help" | "-h" | "-help") :: _ -> Help
    | a :: rest -> (
      match List.find_opt (fun s -> String.equal s.name a) specs with
      | None -> go (a :: acc) rest  (* positional; unknowns rejected by caller *)
      | Some { action = Set f; _ } -> f (); go acc rest
      | Some { name; action = Arg _; _ } when rest = [] -> Bad (missing_arg name)
      | Some { action = Arg p; _ } -> (
        match p (List.hd rest) with
        | Ok () -> go acc (List.tl rest)
        | Error msg -> Bad msg))
  in
  go [] args

let usage ~prog ?(positional = "") specs =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "Usage: %s [OPTIONS]%s\nOptions:\n" prog
       (if positional = "" then "" else " " ^ positional));
  List.iter
    (fun s ->
      let lhs =
        if s.docv = "" then s.name else Printf.sprintf "%s %s" s.name s.docv
      in
      let lines = String.split_on_char '\n' s.doc in
      Buffer.add_string b (Printf.sprintf "  %-22s %s\n" lhs (List.hd lines));
      List.iter
        (fun l -> Buffer.add_string b (Printf.sprintf "  %-22s %s\n" "" l))
        (List.tl lines))
    specs;
  Buffer.contents b

let parse_or_exit ~prog ?positional specs args =
  match parse specs args with
  | Positionals p -> p
  | Help ->
    print_string (usage ~prog ?positional specs);
    exit 0
  | Bad msg ->
    Printf.eprintf "%s\n" msg;
    exit 1

(* ---- the telemetry flag trio, shared verbatim by both binaries ---- *)

type telemetry_opts = {
  mutable metrics_out : string option;
  mutable trace_out : string option;
  mutable profile_top : int option;
}

let telemetry_opts () = { metrics_out = None; trace_out = None; profile_top = None }

let parse_profile_top s =
  match String.index_opt s '=' with
  | Some i when String.sub s 0 i = "top" -> (
    let v = String.sub s (i + 1) (String.length s - i - 1) in
    match int_of_string_opt v with
    | Some n when n > 0 -> Ok n
    | _ -> Error (expects ~name:"--profile" ~what:"top=N with N positive" s))
  | _ -> Error (expects ~name:"--profile" ~what:"top=N with N positive" s)

let telemetry_specs opts =
  [
    string_value ~name:"--metrics-out" ~docv:"FILE"
      ~doc:"write the final registry snapshot as schema-3 metrics JSON"
      (fun f -> opts.metrics_out <- Some f);
    string_value ~name:"--trace-out" ~docv:"FILE"
      ~doc:"stream trace spans (JSONL, one object per line) to FILE"
      (fun f -> opts.trace_out <- Some f);
    value ~name:"--profile" ~docv:"top=N"
      ~doc:"cycle-attributed VM profile; print the N hottest blocks/symbols"
      (fun s ->
        match parse_profile_top s with
        | Ok n ->
          opts.profile_top <- Some n;
          Ok ()
        | Error e -> Error e);
  ]

let telemetry_start opts =
  (match opts.trace_out with
  | Some file -> Telemetry.Trace.set_sink (Some (Telemetry.Trace.file_sink file))
  | None -> ());
  if opts.profile_top <> None then begin
    Telemetry.Profile.reset ();
    Telemetry.Profile.set_enabled true
  end

let telemetry_finish ?resolve opts =
  (match opts.metrics_out with
  | Some file -> Util.Benchfile.write_metrics file (Telemetry.Registry.snapshot ())
  | None -> ());
  (match opts.profile_top with
  | Some top ->
    print_string (Telemetry.Profile.report ?resolve ~top ());
    Telemetry.Profile.set_enabled false
  | None -> ());
  Telemetry.Trace.close ()
