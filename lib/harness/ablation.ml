(* ---- 1. the nonce ablation -------------------------------------------- *)

type nonce_row = { nonce_scheme : Pssp.Scheme.t; broken : bool; trials : int }

(* OWF canaries are return-address-bound, so the campaign verifies with
   a stealth (rbp-only) corruption instead of a ret hijack. *)
let nonce_schemes = [ Pssp.Scheme.Pssp_owf; Pssp.Scheme.Pssp_owf_weak ]

let nonce_cell ~budget scheme =
  let buffer_size = 16 in
  let program = Minic.Parser.parse (Workload.Vuln.fork_server_net ~buffer_size) in
  let image = Mcc.Driver.compile ~scheme program in
  let oracle =
    Attack.Oracle.create ~preload:(Mcc.Driver.preload_for scheme) image
  in
  let layout = Layouts.compiler_layout scheme ~buffer_size in
  let broken, trials =
    match
      Attack.Byte_by_byte.run ~verify:Attack.Byte_by_byte.Stealth oracle
        ~layout ~max_trials:budget
    with
    | Attack.Byte_by_byte.Broken { trials; _ } -> (true, trials)
    | Attack.Byte_by_byte.Exhausted { trials; _ }
    | Attack.Byte_by_byte.Oracle_lost { trials; _ } -> (false, trials)
  in
  { nonce_scheme = scheme; broken; trials }

let run_nonce ?(budget = 30_000) () = List.map (nonce_cell ~budget) nonce_schemes

let nonce_table rows =
  let t =
    Util.Table.create
      ~title:"Ablation: the rdtsc nonce in P-SSP-OWF (SIV-C caveat)"
      [ "Variant"; "Byte-by-byte outcome"; "Trials" ]
  in
  List.iter
    (fun r ->
      Util.Table.add_row t
        [
          Pssp.Scheme.title r.nonce_scheme;
          (if r.broken then "BROKEN" else "resisted");
          string_of_int r.trials;
        ])
    rows;
  t

(* ---- 2. canary width, model level -------------------------------------- *)

type width_row = {
  bits : int;
  fixed_trials : int;
  rerand_trials : int;
  rerand_expected : float;
}

(* Byte-by-byte against a canary that stays fixed across "forks"
   (SSP-with-narrow-canary model). *)
let fixed_campaign rng ~bits =
  let nbytes = bits / 8 in
  let canary = Array.init nbytes (fun _ -> Util.Prng.byte rng) in
  let trials = ref 0 in
  Array.iteri
    (fun _i target ->
      (* scan guesses in random order, as a stealthy attacker would *)
      let order = Array.init 256 (fun g -> g) in
      Util.Prng.shuffle rng order;
      let rec scan k =
        incr trials;
        if order.(k) <> target then scan (k + 1)
      in
      scan 0)
    canary;
  !trials

(* Exhaustive guessing against a canary re-randomized on every trial
   (P-SSP model): success only when the whole guess matches. *)
let rerand_campaign rng ~bits ~cap =
  let mask = Int64.sub (Int64.shift_left 1L bits) 1L in
  let rec go trials =
    if trials >= cap then trials
    else begin
      let canary = Int64.logand (Util.Prng.next64 rng) mask in
      let guess = Int64.logand (Util.Prng.next64 rng) mask in
      if Int64.equal canary guess then trials + 1 else go (trials + 1)
    end
  in
  go 0

let run_width ?(widths = [ 8; 12; 16 ]) ?(seed = 0x31D7L) () =
  let rng = Util.Prng.create seed in
  List.map
    (fun bits ->
      let fixed_trials =
        if bits mod 8 = 0 then fixed_campaign rng ~bits else 0
      in
      let expected = 2.0 ** float_of_int (bits - 1) in
      let cap = int_of_float (expected *. 16.0) in
      { bits; fixed_trials; rerand_trials = rerand_campaign rng ~bits ~cap;
        rerand_expected = expected })
    widths

let width_table rows =
  let t =
    Util.Table.create
      ~title:
        "Ablation: canary width vs attack cost (model level; SV-C caveat). \
         Fixed = byte-by-byte vs a fork-constant canary; re-randomized = \
         exhaustive search, expectation 2^(w-1)."
      [ "Width (bits)"; "Fixed canary trials"; "Re-randomized trials"; "2^(w-1)" ]
  in
  List.iter
    (fun r ->
      Util.Table.add_row t
        [
          string_of_int r.bits;
          (if r.fixed_trials = 0 then "n/a" else string_of_int r.fixed_trials);
          string_of_int r.rerand_trials;
          Util.Table.cell_float ~digits:0 r.rerand_expected;
        ])
    rows;
  t

(* ---- 3. the global-buffer alternative (SVII-C) ------------------------- *)

type buffer_row = { depth : int; forks : int; checks : int; all_passed : bool }

(* Simulate a process: a call stack of frames whose C0 halves live "on the
   stack" and C1 halves in the global buffer; fork clones both; children
   unwind through inherited frames. *)
let simulate rng ~depth ~forks =
  let tls_canary = Util.Prng.next64 rng in
  let checks = ref 0 in
  let failures = ref 0 in
  let unwind buffer stack =
    List.iter
      (fun c0 ->
        incr checks;
        if not (Pssp.Global_buffer.check_and_pop buffer ~tls_canary ~stack_c0:c0)
        then incr failures)
      stack
  in
  (* parent builds [depth] frames *)
  let parent_buffer = Pssp.Global_buffer.create () in
  let parent_stack = ref [] in
  for _ = 1 to depth do
    let c0 = Pssp.Global_buffer.push_frame parent_buffer rng ~tls_canary in
    parent_stack := c0 :: !parent_stack
  done;
  (* each fork clones the buffer (and inherits the stack), pushes its own
     frames, then unwinds through everything including inherited frames *)
  for _ = 1 to forks do
    let child_buffer = Pssp.Global_buffer.clone parent_buffer in
    let child_stack = ref !parent_stack in
    for _ = 1 to depth do
      let c0 = Pssp.Global_buffer.push_frame child_buffer rng ~tls_canary in
      child_stack := c0 :: !child_stack
    done;
    unwind child_buffer !child_stack
  done;
  unwind parent_buffer !parent_stack;
  (!checks, !failures = 0)

let run_global_buffer ?(seed = 0x6B0FL) () =
  let rng = Util.Prng.create seed in
  List.map
    (fun (depth, forks) ->
      let checks, all_passed = simulate rng ~depth ~forks in
      { depth; forks; checks; all_passed })
    [ (4, 1); (16, 8); (64, 32) ]

let buffer_table rows =
  let t =
    Util.Table.create
      ~title:
        "Ablation: SVII-C global-buffer variant (full 64-bit pairs, SSP \
         stack layout) across fork trees"
      [ "Stack depth"; "Forks"; "Epilogue checks"; "False positives" ]
  in
  List.iter
    (fun r ->
      Util.Table.add_row t
        [
          string_of_int r.depth;
          string_of_int r.forks;
          string_of_int r.checks;
          (if r.all_passed then "none" else "SOME");
        ])
    rows;
  t


(* ---- 3b. the global-buffer variant as compiled code --------------------- *)

type gb_compiled = {
  gb_broken : bool;
  gb_trials : int;
  gb_guard_words : int;
  gb_cycles_per_call : float;
}

let run_global_buffer_compiled ?(budget = 12_000) () =
  let buffer_size = 16 in
  let program = Minic.Parser.parse (Workload.Vuln.fork_server_net ~buffer_size) in
  let image = Mcc.Driver.compile ~scheme:Pssp.Scheme.Pssp_gb program in
  let oracle = Attack.Oracle.create image in
  let layout = Layouts.compiler_layout Pssp.Scheme.Pssp_gb ~buffer_size in
  let gb_broken, gb_trials =
    match Attack.Byte_by_byte.run oracle ~layout ~max_trials:budget with
    | Attack.Byte_by_byte.Broken { trials; _ } -> (true, trials)
    | Attack.Byte_by_byte.Exhausted { trials; _ }
    | Attack.Byte_by_byte.Oracle_lost { trials; _ } -> (false, trials)
  in
  let handle =
    Option.get (Minic.Ast.find_func program "handle")
  in
  let frame = Mcc.Frame.layout ~scheme:Pssp.Scheme.Pssp_gb handle in
  {
    gb_broken;
    gb_trials;
    gb_guard_words = frame.Mcc.Frame.guard_words;
    gb_cycles_per_call = Table5.measure_scheme ~calls:5000 Pssp.Scheme.Pssp_gb ~criticals:0;
  }

let gb_compiled_table r =
  let t =
    Util.Table.create
      ~title:"Ablation: SVII-C global-buffer variant as compiled code"
      [ "Property"; "Value" ]
  in
  Util.Table.add_row t
    [
      "byte-by-byte";
      (if r.gb_broken then Printf.sprintf "BROKEN after %d" r.gb_trials
       else Printf.sprintf "resisted %d trials" r.gb_trials);
    ];
  Util.Table.add_row t
    [ "stack canary words (SSP layout preserved)"; string_of_int r.gb_guard_words ];
  Util.Table.add_row t [ "canary entropy"; "full 64 bits (vs 32 packed)" ];
  Util.Table.add_row t
    [
      "prologue+epilogue cycles per call";
      Util.Table.cell_float ~digits:1 r.gb_cycles_per_call ^ " (rdrand-bound, ~P-SSP-NT)";
    ];
  t

(* ---- 4. the defense families as compiled code --------------------------- *)

type family_row = {
  fam_scheme : Pssp.Scheme.t;
  fam_broken : bool;
  fam_trials : int;
  fam_guard_words : int;
  fam_cycles_per_call : float;
}

(* Same probes as the compiled global-buffer cell, one row per family:
   byte-by-byte outcome, on-frame guard words, prologue+epilogue cycles.
   Expected column: shadow stacks and PAC resist with zero or one guard
   word; wasm-ssp keeps the SSP layout and falls the same way. *)
let family_cell ?(budget = 12_000) scheme =
  let buffer_size = 16 in
  let program = Minic.Parser.parse (Workload.Vuln.fork_server_net ~buffer_size) in
  let image = Mcc.Driver.compile ~scheme program in
  let oracle =
    Attack.Oracle.create ~preload:(Mcc.Driver.preload_for scheme) image
  in
  let layout = Layouts.compiler_layout scheme ~buffer_size in
  let fam_broken, fam_trials =
    match Attack.Byte_by_byte.run oracle ~layout ~max_trials:budget with
    | Attack.Byte_by_byte.Broken { trials; _ } -> (true, trials)
    | Attack.Byte_by_byte.Exhausted { trials; _ }
    | Attack.Byte_by_byte.Oracle_lost { trials; _ } -> (false, trials)
  in
  let handle = Option.get (Minic.Ast.find_func program "handle") in
  let frame = Mcc.Frame.layout ~scheme handle in
  {
    fam_scheme = scheme;
    fam_broken;
    fam_trials;
    fam_guard_words = frame.Mcc.Frame.guard_words;
    fam_cycles_per_call = Table5.measure_scheme ~calls:5000 scheme ~criticals:0;
  }

let family_schemes = Pssp.Scheme.all_families

let run_families ?budget () = List.map (family_cell ?budget) family_schemes

let family_table rows =
  let t =
    Util.Table.create
      ~title:
        "Ablation: defense families (shadow stacks, PAC canary, Wasm SSP) \
         as compiled code"
      [ "Scheme"; "Byte-by-byte"; "Guard words"; "Cycles per call" ]
  in
  List.iter
    (fun r ->
      Util.Table.add_row t
        [
          Pssp.Scheme.title r.fam_scheme;
          (if r.fam_broken then Printf.sprintf "BROKEN after %d" r.fam_trials
           else Printf.sprintf "resisted %d trials" r.fam_trials);
          string_of_int r.fam_guard_words;
          Util.Table.cell_float ~digits:1 r.fam_cycles_per_call;
        ])
    rows;
  t

(* ---- the campaign ------------------------------------------------------- *)

(* Nine cells: one per nonce scheme, the width, model-level
   global-buffer, and compiled global-buffer sub-runs, then one per
   defense family. Width/Buffer stay single cells because each threads
   one PRNG through its whole sweep — splitting them would change the
   draw sequence. *)
type cell =
  | Nonce of nonce_row
  | Width of width_row list
  | Buffer of buffer_row list
  | Gb of gb_compiled
  | Family of family_row

let campaign () =
  Campaign.v ~name:"ablation"
    ~title:"Ablations - nonce, canary width, global-buffer, defense families"
    ~cells:(5 + List.length family_schemes)
    ~run_cell:(fun i ->
      Campaign.pack
        (match i with
        | 0 | 1 -> Nonce (nonce_cell ~budget:30_000 (List.nth nonce_schemes i))
        | 2 -> Width (run_width ())
        | 3 -> Buffer (run_global_buffer ())
        | 4 -> Gb (run_global_buffer_compiled ())
        | i -> Family (family_cell (List.nth family_schemes (i - 5)))))
    ~merge:(fun rows ->
      match List.map (fun r -> (Campaign.unpack r : cell)) rows with
      | Nonce n0 :: Nonce n1 :: Width w :: Buffer b :: Gb gb :: families ->
        let families =
          List.map
            (function
              | Family f -> f
              | _ -> failwith "Ablation.campaign: unexpected cell shape")
            families
        in
        Util.Table.print (nonce_table [ n0; n1 ]);
        Util.Table.print (width_table w);
        Util.Table.print (buffer_table b);
        Util.Table.print (gb_compiled_table gb);
        Util.Table.print (family_table families)
      | _ -> failwith "Ablation.campaign: unexpected cell shape")
    ()
