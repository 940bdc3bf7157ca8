(* The byte boundaries against random and mutated input. Each takes
   bytes from outside the program — an instruction stream, an assembly
   listing, a Mini-C source, an object file, a bench JSON file — and
   must end every input in a value or in its documented error:
   - [Decode.decode]: [Bad_encoding];
   - [Asm_parser.parse_listing]: [Asm_parser.Error];
   - [Minic.Parser.parse]: [Parser.Error] or [Lexer.Error];
   - [Objfile.read]: [Format_error];
   - [Json.parse], then [Benchfile.of_json]: [Error _];
   - bench merge's reading and [Benchfile.tile] of shard files: [Error _]
     for every damaged row, truncated file and set of files that does
     not tile one run.
   Any other exception fails the property, which prints the input.
   Mutants start from a real input of each kind and take a few edits;
   every property runs from a fixed seed, and the watchdog fails a
   boundary that hangs. *)

open Isa

(* One edit of [s]: overwrite a byte, insert one, delete or duplicate a
   short run, or truncate. A new byte is one of [s]'s own half the
   time, so text mutants stay mostly text. *)
let edit st s =
  let n = String.length s in
  let pos () = Random.State.int st (n + 1) in
  let byte () =
    if n > 0 && Random.State.bool st then s.[Random.State.int st n]
    else Char.chr (Random.State.int st 256)
  in
  let run i = Stdlib.min (n - i) (1 + Random.State.int st 16) in
  match Random.State.int st 5 with
  | 0 when n > 0 ->
    let i = Random.State.int st n in
    String.mapi (fun j c -> if j = i then byte () else c) s
  | 1 ->
    let i = pos () in
    String.sub s 0 i ^ String.make 1 (byte ()) ^ String.sub s i (n - i)
  | 2 ->
    let i = pos () in
    let l = run i in
    String.sub s 0 i ^ String.sub s (i + l) (n - i - l)
  | 3 ->
    let i = pos () in
    String.sub s 0 (i + run i) ^ String.sub s i (n - i)
  | _ -> String.sub s 0 (pos ())

(* [seed] after one to eight edits. *)
let mutant seed : string QCheck.arbitrary =
  QCheck.make ~print:String.escaped (fun st ->
      let rec go k s = if k = 0 then s else go (k - 1) (edit st s) in
      go (1 + Random.State.int st 8) seed)

let prop ~name ~count arb ok =
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| Hashtbl.hash name |])
    (QCheck.Test.make ~name ~count arb ok)

(* ---- the real inputs the mutants start from ------------------------------ *)

let source = Workload.Vuln.fork_server_net ~buffer_size:16
let image = Mcc.Driver.compile ~scheme:Pssp.Scheme.Pssp (Minic.Parser.parse source)
let text = Bytes.to_string image.Os.Image.text

(* The text as a listing: a label, then one instruction a line, with a
   comment every eighth. *)
let listing =
  let lines =
    List.mapi
      (fun k (_, insn) ->
        "  " ^ Asm.to_string insn ^ if k mod 8 = 0 then "  # note" else "")
      (Decode.decode_all image.Os.Image.text)
  in
  String.concat "\n" ("main:" :: lines)

let objfile = Bytes.to_string (Os.Objfile.write image)

let bench_json =
  Util.Json.to_string
    (Util.Benchfile.to_json
       (Util.Benchfile.make ~shards:4 ~shard:1 ~pr:9 ~jobs:2 ~compile_tier:3
          [
            Util.Benchfile.campaign ~context:"budget=500" ~cells:[ (1, "00ff10") ]
              ~name:"effectiveness" ~wall_s:0.5
              [ ("a.count", 7); ("b.count", 0) ];
          ]))

(* ---- the boundaries ------------------------------------------------------- *)

let decodes code off =
  match Decode.decode code off with
  | _ -> true
  | exception Decode.Bad_encoding _ -> true

(* Short random strings at every offset, and mutated text at a random
   one. *)
let prop_decode_random =
  prop ~name:"decode: random bytes" ~count:50_000
    QCheck.(string_gen_of_size Gen.(int_range 0 24) Gen.char)
    (fun s ->
      let code = Bytes.of_string s in
      List.for_all (decodes code) (List.init (Bytes.length code + 1) Fun.id))

let prop_decode_text =
  prop ~name:"decode: mutated text" ~count:5_000 (mutant text) (fun s ->
      decodes (Bytes.of_string s) (Hashtbl.hash s mod (String.length s + 1)))

let prop_listing =
  prop ~name:"parse_listing: mutated listings" ~count:5_000 (mutant listing) (fun s ->
      match Asm_parser.parse_listing s with
      | _ -> true
      | exception Asm_parser.Error _ -> true)

let prop_minic =
  prop ~name:"Mini-C parse: mutated sources" ~count:5_000 (mutant source) (fun s ->
      match Minic.Parser.parse s with
      | _ -> true
      | exception (Minic.Parser.Error _ | Minic.Lexer.Error _) -> true)

let prop_objfile =
  prop ~name:"Objfile.read: mutated object files" ~count:5_000 (mutant objfile) (fun s ->
      match Os.Objfile.read (Bytes.of_string s) with
      | _ -> true
      | exception Os.Objfile.Format_error _ -> true)

let prop_benchfile =
  prop ~name:"Json.parse and Benchfile.of_json: mutated bench files" ~count:10_000
    (mutant bench_json) (fun s ->
      match Util.Json.parse s with
      | Error _ -> true
      | Ok j -> (
        match Util.Benchfile.of_json j with Ok _ | Error _ -> true))

(* ---- bench merge over shard files ----------------------------------------- *)

(* One sharded run as bench merge reads it: three shard files of two
   campaigns, each cell a marshalled row. *)
let shard_count = 3

let shard_record ?(shards = shard_count) ?(context = "budget=500") k =
  let rows name =
    List.filter_map
      (fun i ->
        if i mod shards = k then Some (i, Harness.Campaign.pack (name, i, float_of_int i *. 0.5))
        else None)
      (List.init 8 Fun.id)
  in
  Util.Benchfile.make ~shards ~shard:k ~pr:9 ~jobs:1 ~compile_tier:3
    [
      Util.Benchfile.campaign ~context ~cells:(rows "effectiveness") ~name:"effectiveness"
        ~wall_s:0.5 [ ("a.count", k) ];
      Util.Benchfile.campaign ~cells:(rows "table5") ~name:"table5" ~wall_s:0.25 [];
    ]

let shard_text t = Util.Json.to_string (Util.Benchfile.to_json t)
let shard_files = List.init shard_count (fun k -> (Printf.sprintf "s%d.json" k, shard_text (shard_record k)))

(* merge's checks, from file text to the tiled parts *)
let tile files =
  let ( let* ) = Result.bind in
  let* records =
    List.fold_left
      (fun acc (file, text) ->
        let* acc = acc in
        let* j = Util.Json.parse text in
        let* t = Util.Benchfile.of_json j in
        Ok ((file, t) :: acc))
      (Ok []) files
  in
  Util.Benchfile.tile (List.rev records)

let replace_nth l n x = List.mapi (fun i y -> if i = n then x else y) l
let show_files files = String.concat "\n" (List.map snd files)

(* One cell row of one shard file damaged in its hex text: a digit
   changed to another hex digit or to a non-hex byte, a digit dropped,
   or the row's second half zeroed. *)
let mutated_shards =
  QCheck.make ~print:show_files (fun st ->
      let f = Random.State.int st shard_count in
      let file, text = List.nth shard_files f in
      let campaigns = (shard_record f).Util.Benchfile.campaigns in
      let c = List.nth campaigns (Random.State.int st (List.length campaigns)) in
      let _, row = List.nth c.cells (Random.State.int st (List.length c.cells)) in
      let hex = Util.Hex.of_string row in
      let n = String.length hex and at = Random.State.int st (String.length hex) in
      let set ch = String.mapi (fun k x -> if k = at then ch else x) hex in
      let rec other_hex () =
        match "0123456789abcdef".[Random.State.int st 16] with
        | d when d = hex.[at] -> other_hex ()
        | d -> set d
      in
      let rec non_hex () =
        match Char.chr (32 + Random.State.int st 95) with
        | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' | '"' | '\\' -> non_hex ()
        | ch -> set ch
      in
      let zeroed = String.sub hex 0 (n / 2) ^ String.make (n - (n / 2)) '0' in
      let damaged =
        match Random.State.int st 4 with
        | 0 -> other_hex ()
        | 1 -> non_hex ()
        | 2 -> String.sub hex 0 at ^ String.sub hex (at + 1) (n - at - 1)
        | _ -> if zeroed = hex then other_hex () else zeroed
      in
      let k = Option.get (Astring.String.find_sub ~sub:hex text) in
      let text = String.sub text 0 k ^ damaged ^ String.sub text (k + n) (String.length text - k - n) in
      replace_nth shard_files f (file, text))

(* One shard file cut short anywhere before its end. *)
let truncated_shards =
  QCheck.make ~print:show_files (fun st ->
      let f = Random.State.int st shard_count in
      let file, text = List.nth shard_files f in
      replace_nth shard_files f (file, String.sub text 0 (Random.State.int st (String.length text))))

(* Files that do not tile one run: one dropped or given twice, or one
   from a run with another shard count, another configuration, other
   campaigns, another shard index, or a cell of another shard. *)
let mismatched_shards =
  QCheck.make ~print:show_files (fun st ->
      let f = Random.State.int st shard_count in
      let g = (f + 1 + Random.State.int st (shard_count - 1)) mod shard_count in
      let with_record t = replace_nth shard_files f (fst (List.nth shard_files f), shard_text t) in
      let r = shard_record f in
      match Random.State.int st 7 with
      | 0 -> List.filteri (fun i _ -> i <> f) shard_files
      | 1 -> replace_nth shard_files f (List.nth shard_files g)
      | 2 -> with_record (shard_record ~shards:(shard_count + 1) f)
      | 3 -> with_record (shard_record ~context:"budget=2000" f)
      | 4 -> with_record { r with Util.Benchfile.campaigns = List.tl r.Util.Benchfile.campaigns }
      | 5 -> with_record { r with Util.Benchfile.shard = Some g }
      | _ ->
        let moved (c : Util.Benchfile.campaign) =
          { c with Util.Benchfile.cells = List.map (fun (i, row) -> (i + 1, row)) c.cells }
        in
        with_record { r with Util.Benchfile.campaigns = List.map moved r.campaigns })

let ends_in_error files = match tile files with Error _ -> true | Ok _ -> false

let prop_shards_mutated =
  prop ~name:"merge: mutated shard rows" ~count:2_000 mutated_shards ends_in_error

let prop_shards_truncated =
  prop ~name:"merge: truncated shard files" ~count:2_000 truncated_shards ends_in_error

let prop_shards_mismatched =
  prop ~name:"merge: mismatched shard files" ~count:2_000 mismatched_shards ends_in_error

(* The seeds themselves are accepted, so the mutants start from inputs
   that reach each boundary's whole path. *)
let test_seeds_accepted () =
  Alcotest.(check bool) "listing parses" true (Asm_parser.parse_listing listing <> []);
  let back = Os.Objfile.read (Bytes.of_string objfile) in
  Alcotest.(check bool)
    "object file reads back" true
    (Bytes.equal back.Os.Image.text image.Os.Image.text);
  Alcotest.(check bool)
    "bench file reads back" true
    (match Util.Json.parse bench_json with
    | Ok j -> Result.is_ok (Util.Benchfile.of_json j)
    | Error _ -> false);
  match tile shard_files with
  | Ok parts ->
    Alcotest.(check (list (list int)))
      "shard files tile, each campaign's rows in file order"
      [ [ 0; 3; 6; 1; 4; 7; 2; 5 ]; [ 0; 3; 6; 1; 4; 7; 2; 5 ] ]
      (List.map
         (List.concat_map (fun (c : Util.Benchfile.campaign) -> List.map fst c.cells))
         parts)
  | Error msg -> Alcotest.failf "shard files refused: %s" msg

let () =
  Alcotest.run "boundaries" @@ Watchdog.suites
    [
      ( "seeded",
        [
          Alcotest.test_case "seed inputs are accepted" `Quick test_seeds_accepted;
          prop_decode_random;
          prop_decode_text;
          prop_listing;
          prop_minic;
          prop_objfile;
          prop_benchfile;
          prop_shards_mutated;
          prop_shards_truncated;
          prop_shards_mismatched;
        ] );
    ]
