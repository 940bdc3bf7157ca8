(* The byte boundaries against random and mutated input. Each takes
   bytes from outside the program — an instruction stream, an assembly
   listing, a Mini-C source, an object file, a bench JSON file — and
   must end every input in a value or in its documented error:
   - [Decode.decode]: [Bad_encoding];
   - [Asm_parser.parse_listing]: [Asm_parser.Error];
   - [Minic.Parser.parse]: [Parser.Error] or [Lexer.Error];
   - [Objfile.read]: [Format_error];
   - [Json.parse], then [Benchfile.of_json]: [Error _].
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
    | Error _ -> false)

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
        ] );
    ]
