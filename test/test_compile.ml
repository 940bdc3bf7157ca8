(* Differential oracle for compiled execution.

   Compiled execution must be observationally identical to the
   interpreter: same registers, flags, xmm state, memory, cycle counter,
   RNG draws and fault identity after every run. The two are
   independent writings — the interpreter keeps its own flag setters,
   condition tests and stack discipline — so a wrong formula in either
   can show up as a divergence. Rather than trusting each specialized
   closure individually, we fuzz: generate random encodable instruction
   sequences, run each twice from identical initial state — interpreted,
   then compiled (chained and fused, with the fuse threshold forced to 1
   so superblocks actually form, running the threaded chain, which
   faults out of the middle of a translation with no per-step handler,
   hops from chain to chain, and the fuel tail's step loop) — and
   compare the complete machine state. Two programs in three also carry
   the Mini-C compiler's idioms that the chain runs as single fused
   steps, which random draws would not line up. Text is sealed, as the
   loader seals it, so stores into it and jumps into data fault on both
   sides.

   The "tier-2" and "tier-3" groups keep the names of the execution
   modes their tests were written for: chaining and superblocks, and the
   threaded chain. Both are parts of the one compiled mode now. *)

open Isa
open Vm64

let builtin_addr = 0xB00L

let env =
  Exec.create_env
    ~is_builtin:(fun a -> if a = builtin_addr then Some "blt" else None)
    ()

let text_base = 0x1000L
let data_base = 0x20000L
let data_len = 8192
let stack_base = 0x70000L
let stack_len = 8192

(* ---- random program generation ------------------------------------------- *)

let rand_reg p = Reg.of_index_exn (Util.Prng.int p 16)
let rand_xmm p = Reg.Xmm.of_index_exn (Util.Prng.int p 16)

let rand_cond p =
  match Insn.cond_of_index (Util.Prng.int p 12) with
  | Some c -> c
  | None -> assert false

(* Memory operands concentrate on the data region (so loads see real
   bytes and stores land on mapped pages) but also probe the mapping
   edge, plainly unmapped space and the sealed text page, so both
   sides' fault paths, partial cross-page writes and stores into text
   get compared. *)
let rand_mem_record p =
  let mk ?seg_fs ?base ?index disp =
    match Operand.mem ?seg_fs ?base ?index disp with
    | Operand.Mem m -> m
    | _ -> assert false
  in
  match Util.Prng.int p 11 with
  | 0 | 1 | 2 ->
    (* absolute, interior of the data region *)
    mk (Int64.add data_base (Int64.of_int (Util.Prng.int p (data_len - 16))))
  | 3 | 4 ->
    (* base-relative: R15 is pinned to the data base *)
    mk ~base:Reg.R15 (Int64.of_int (Util.Prng.int p 4096))
  | 5 | 6 ->
    (* base + scaled index: R14 is pinned to a small value *)
    let scale =
      match Util.Prng.int p 4 with
      | 0 -> Operand.S1
      | 1 -> Operand.S2
      | 2 -> Operand.S4
      | _ -> Operand.S8
    in
    mk ~base:Reg.R15 ~index:(Reg.R14, scale) (Int64.of_int (Util.Prng.int p 2048))
  | 7 ->
    (* FS-segment form; fs_base is pinned inside the data region *)
    mk ~seg_fs:true (Int64.of_int (Util.Prng.int p 1024))
  | 8 ->
    (* straddling / just past the end of the data mapping *)
    mk (Int64.add data_base (Int64.of_int (data_len - 8 + Util.Prng.int p 24)))
  | 9 ->
    (* the sealed text page, up to its edge: loads read code, stores
       fault *)
    mk (Int64.add text_base (Int64.of_int (Util.Prng.int p 4096)))
  | _ ->
    (* unmapped *)
    mk 0x9000000L

let rand_operand p =
  match Util.Prng.int p 8 with
  | 0 | 1 | 2 -> Operand.reg (rand_reg p)
  | 3 | 4 ->
    Operand.imm
      (if Util.Prng.bool p then Int64.of_int (Util.Prng.int p 4096 - 2048)
       else Util.Prng.next64 p)
  | _ -> Operand.Mem (rand_mem_record p)

let rand_dst p =
  if Util.Prng.int p 4 = 0 then Operand.Mem (rand_mem_record p)
  else Operand.reg (rand_reg p)

(* Control transfers mostly target the first bytes of the text page:
   backward targets create loops (cut by [max_insns], comparing fuel
   accounting), and targets landing mid-instruction exercise garbage
   decode on both sides identically. One in eight lands in the data
   region, where the fetch faults. *)
let rand_target p =
  if Util.Prng.int p 8 = 0 then
    Insn.Abs (Int64.add data_base (Int64.of_int (Util.Prng.int p data_len)))
  else Insn.Abs (Int64.add text_base (Int64.of_int (Util.Prng.int p 96)))

let rand_insn p =
  match Util.Prng.int p 100 with
  | 0 | 1 | 2 | 3 | 4 | 5 | 6 | 7 | 8 | 9 -> Insn.Mov (rand_dst p, rand_operand p)
  | 10 | 11 | 12 -> Insn.Movb (rand_dst p, rand_operand p)
  | 13 | 14 | 15 -> Insn.Movl (rand_dst p, rand_operand p)
  | 16 | 17 | 18 -> Insn.Lea (rand_reg p, rand_mem_record p)
  | 19 | 20 | 21 | 22 -> Insn.Push (rand_operand p)
  | 23 | 24 | 25 -> Insn.Pop (rand_dst p)
  | 26 | 27 | 28 | 29 | 30 | 31 | 32 | 33 | 34 | 35 | 36 | 37 ->
    let op =
      match Insn.binop_of_index (Util.Prng.int p 10) with
      | Some b -> b
      | None -> assert false
    in
    Insn.Bin (op, rand_dst p, rand_operand p)
  | 38 | 39 | 40 ->
    (* explicit idiv/irem with occasional zero divisor: the #DE path *)
    let op = if Util.Prng.bool p then Insn.Idiv else Insn.Irem in
    let src =
      if Util.Prng.int p 3 = 0 then Operand.imm 0L else rand_operand p
    in
    Insn.Bin (op, Operand.reg (rand_reg p), src)
  | 41 | 42 | 43 ->
    let op =
      match Insn.shiftop_of_index (Util.Prng.int p 3) with
      | Some s -> s
      | None -> assert false
    in
    Insn.Shift (op, rand_dst p, Util.Prng.int p 66)
  | 44 | 45 -> Insn.Neg (rand_dst p)
  | 46 | 47 -> Insn.Not (rand_dst p)
  | 48 | 49 | 50 | 51 -> Insn.Setcc (rand_cond p, rand_reg p)
  | 52 | 53 | 54 | 55 | 56 | 57 -> Insn.Jcc (rand_cond p, rand_target p)
  | 58 -> Insn.Jmp (rand_target p)
  | 59 ->
    Insn.Call
      (if Util.Prng.bool p then Insn.Abs builtin_addr else rand_target p)
  | 60 -> Insn.Call_ind (Operand.reg (rand_reg p))
  | 61 -> Insn.Ret
  | 62 -> Insn.Leave
  | 63 | 64 -> Insn.Rdrand (rand_reg p)
  | 65 -> Insn.Rdtsc (* compiled against the static prefix charge *)
  | 66 -> Insn.Syscall
  | 67 | 68 | 69 -> Insn.Movq_to_xmm (rand_xmm p, rand_reg p)
  | 70 | 71 -> Insn.Movq_from_xmm (rand_reg p, rand_xmm p)
  | 72 | 73 -> Insn.Pinsrq_high (rand_xmm p, rand_reg p)
  | 74 | 75 | 76 -> Insn.Movhps_load (rand_xmm p, rand_mem_record p)
  | 77 | 78 | 79 -> Insn.Movq_store (rand_mem_record p, rand_xmm p)
  | 80 | 81 | 82 | 83 -> Insn.Movdqu_load (rand_xmm p, rand_mem_record p)
  | 84 | 85 | 86 | 87 -> Insn.Movdqu_store (rand_mem_record p, rand_xmm p)
  | 88 | 89 -> Insn.Aesenc (rand_xmm p, rand_xmm p)
  | 90 | 91 -> Insn.Aesenclast (rand_xmm p, rand_xmm p)
  | 92 | 93 | 94 -> Insn.Pcmpeq128 (rand_xmm p, rand_mem_record p)
  | 95 | 96 -> Insn.Pac (rand_reg p, rand_reg p)
  | 97 | 98 -> Insn.Aut (rand_reg p, rand_reg p)
  | _ -> Insn.Nop

let idiom_regs =
  (* not rsp, nor r14/r15, which the memory operands are pinned to *)
  Reg.[| RAX; RCX; RDX; RBX; RBP; RSI; RDI; R8; R9; R10; R11; R12; R13 |]

(* Every kind of window the corpus must hold, as [rand_idiom] names them. *)
let window_kinds =
  [ "S = imm"; "S = [r15+d]"; "S = [rsp]"; "S = unmapped" ]
  @ List.init 10 (fun i -> Insn.binop_name (Option.get (Insn.binop_of_index i)) ^ " a, b")
  @ [ "#DE by zero"; "#DE on INT64_MIN / -1" ]

(* mcc's operand shuffle, [push a; mov a, S; mov b, a; pop a], and in
   two draws of three the binop consuming it, [OP a, b]: the threaded
   chain runs each window as one step, and independent draws of
   instructions and registers essentially never line one up. S takes
   each shape mcc's windows and their faults have: a constant, a load
   off r15 (the data base), the pushed value itself at [rsp], and an
   unmapped load. An idiv or irem consumer gets a zero divisor or
   INT64_MIN / -1 in half the draws. Returns the instructions and
   the kinds of window they hold. *)
let rand_idiom p =
  let pick () = idiom_regs.(Util.Prng.int p (Array.length idiom_regs)) in
  let a = pick () in
  let rec other () = match pick () with b when Reg.equal a b -> other () | b -> b in
  let b = other () in
  (* a fault ends the run, so the faulting shapes come rarer *)
  let shape, s =
    match Util.Prng.int p 8 with
    | 0 | 1 | 2 ->
      ( "S = imm",
        Operand.imm
          (if Util.Prng.bool p then Int64.of_int (Util.Prng.int p 64 - 32)
           else Util.Prng.next64 p) )
    | 3 | 4 -> ("S = [r15+d]", Operand.mem ~base:Reg.R15 (Int64.of_int (8 * Util.Prng.int p 1024)))
    | 5 | 6 -> ("S = [rsp]", Operand.mem ~base:Reg.RSP 0L)
    | _ -> ("S = unmapped", Operand.mem 0x9000000L)
  in
  let ra = Operand.reg a in
  let shuffle s = [ Insn.Push ra; Insn.Mov (ra, s); Insn.Mov (Operand.reg b, ra); Insn.Pop ra ] in
  if Util.Prng.int p 3 = 0 then (shuffle s, [ shape ])
  else
    let op = Option.get (Insn.binop_of_index (Util.Prng.int p 10)) in
    let consumer = [ Insn.Bin (op, ra, Operand.reg b) ] and name = Insn.binop_name op ^ " a, b" in
    match (op, Util.Prng.int p 4) with
    | (Insn.Idiv | Insn.Irem), 0 ->
      (shuffle (Operand.imm 0L) @ consumer, [ "S = imm"; name; "#DE by zero" ])
    | (Insn.Idiv | Insn.Irem), 1 ->
      ( (Insn.Mov (ra, Operand.imm Int64.min_int) :: shuffle (Operand.imm (-1L))) @ consumer,
        [ "S = imm"; name; "#DE on INT64_MIN / -1" ] )
    | _ -> (shuffle s @ consumer, [ shape; name ])

(* Not every generated shape is encodable (e.g. mem-to-mem moves);
   resample deterministically until the whole sequence encodes. Two
   programs in three mix mcc's idioms in with the random instructions.
   Returns the program and the kinds of idiom window it holds. *)
let rand_program p =
  let idioms = Util.Prng.int p 3 > 0 in
  let rec gen attempts =
    if attempts > 200 then ([ Insn.Hlt ], [])
    else
      let n = 1 + Util.Prng.int p 24 in
      let pieces =
        List.init n (fun _ ->
            if idioms && Util.Prng.bool p then rand_idiom p else ([ rand_insn p ], []))
      in
      let insns = List.concat_map fst pieces @ [ Insn.Hlt ] in
      match Encode.list_to_bytes insns with
      | _ -> (insns, List.concat_map snd pieces)
      | exception _ -> gen (attempts + 1)
  in
  gen 0

(* ---- machine-state capture ------------------------------------------------ *)

type snapshot = {
  s_result : Exec.run_result;
  s_gprs : int64 array;
  s_xmms : (int64 * int64) array;
  s_rip : int64;
  s_flags : bool * bool * bool * bool;
  s_cycles : int64;
  s_text : bytes;
  s_data : bytes;
  s_stack : bytes;
}

let gprs cpu = Array.init 16 (fun i -> Cpu.get cpu (Reg.of_index_exn i))

(* The machine after a run; [data] is whatever data region the test
   compares. *)
let capture result cpu mem ~data =
  {
    s_result = result;
    s_gprs = gprs cpu;
    s_xmms = Array.copy cpu.Cpu.xmms;
    s_rip = Cpu.rip cpu;
    s_flags =
      (cpu.Cpu.flags.Cpu.zf, cpu.Cpu.flags.Cpu.sf, cpu.Cpu.flags.Cpu.cf, cpu.Cpu.flags.Cpu.of_);
    s_cycles = Cpu.cycles cpu;
    s_text = Memory.read_bytes mem text_base 4096;
    s_data = data;
    s_stack = Memory.read_bytes mem stack_base stack_len;
  }

(* Run [f] with compiled execution on or off, restoring the default. *)
let with_compiled on f =
  Compile.set_enabled on;
  Fun.protect ~finally:(fun () -> Compile.set_enabled true) f

let run_one ~compiled ~trial_seed ~taxes:(insn_tax, call_tax) ~init_gprs ~init_xmms
    ~data ~code =
  with_compiled compiled @@ fun () ->
  let cpu = Cpu.create ~seed:trial_seed () in
  (* keyed MAC for Pac/Aut: same derivation on both sides, so signed
     values and authentication verdicts must agree bit-for-bit *)
  cpu.Cpu.pac_key <- Int64.logxor trial_seed 0x9E3779B97F4A7C15L;
  let mem = Memory.create () in
  Memory.map mem ~addr:text_base ~len:4096;
  Memory.map mem ~addr:data_base ~len:data_len;
  Memory.map mem ~addr:stack_base ~len:stack_len;
  Memory.write_bytes mem data_base data;
  Memory.write_bytes mem text_base code;
  Memory.seal mem ~addr:text_base ~len:4096;
  Array.iteri (fun i v -> Cpu.set cpu (Reg.of_index_exn i) v) init_gprs;
  Array.iteri (fun i v -> cpu.Cpu.xmms.(i) <- v) init_xmms;
  Cpu.set cpu Reg.RSP 0x71800L;
  Cpu.set cpu Reg.R15 data_base;
  Cpu.set cpu Reg.R14 (Int64.of_int (Int64.to_int init_gprs.(14) land 15));
  cpu.Cpu.fs_base <- 0x20400L;
  cpu.Cpu.insn_tax <- insn_tax;
  cpu.Cpu.call_tax <- call_tax;
  Cpu.set_rip cpu text_base;
  let result = Exec.run ~max_insns:200 env cpu mem in
  capture result cpu mem ~data:(Memory.read_bytes mem data_base data_len)

let result_to_string = function
  | Exec.Out_of_fuel -> "out-of-fuel"
  | Exec.Stopped o -> (
    match o with
    | Exec.Running -> "stopped(running?)"
    | Exec.Builtin s -> "builtin " ^ s
    | Exec.Syscall_trap -> "syscall"
    | Exec.Halted -> "hlt"
    | Exec.Faulted f -> "fault " ^ Fault.to_string f)

let compare_snapshots ~trial ~what a b =
  let fail field detail =
    Alcotest.failf "trial %d: %s diverges between interpreter and %s (%s)"
      trial field what detail
  in
  if a.s_result <> b.s_result then
    fail "run result"
      (result_to_string a.s_result ^ " vs " ^ result_to_string b.s_result);
  for i = 0 to 15 do
    if a.s_gprs.(i) <> b.s_gprs.(i) then
      fail
        (Printf.sprintf "gpr %s" (Reg.name (Reg.of_index_exn i)))
        (Printf.sprintf "0x%Lx vs 0x%Lx" a.s_gprs.(i) b.s_gprs.(i));
    if a.s_xmms.(i) <> b.s_xmms.(i) then fail (Printf.sprintf "xmm%d" i) ""
  done;
  if a.s_rip <> b.s_rip then
    fail "rip" (Printf.sprintf "0x%Lx vs 0x%Lx" a.s_rip b.s_rip);
  if a.s_flags <> b.s_flags then fail "flags" "";
  if a.s_cycles <> b.s_cycles then
    fail "cycles" (Printf.sprintf "%Ld vs %Ld" a.s_cycles b.s_cycles);
  if not (Bytes.equal a.s_text b.s_text) then fail "text page" "";
  if not (Bytes.equal a.s_data b.s_data) then fail "data region" "";
  if not (Bytes.equal a.s_stack b.s_stack) then fail "stack region" ""

let trials = 1100

let test_differential_fuzz () =
  let p = Util.Prng.create 0xD1FFC0DEL in
  let halted = ref 0 and faulted = ref 0 and fuel = ref 0 and other = ref 0 in
  let text_stores = ref 0 and data_fetches = ref 0 in
  let within base len a = a >= base && a < Int64.add base (Int64.of_int len) in
  (* force superblock formation on the very first re-entry so the fused
     paths face the same corpus as the plain chained ones *)
  let saved_threshold = Compile.get_fuse_threshold () in
  Compile.set_fuse_threshold 1;
  let windows = Hashtbl.create 16 in
  for trial = 0 to trials - 1 do
    let insns, kinds = rand_program p in
    List.iter
      (fun k ->
        Hashtbl.replace windows k (1 + Option.value ~default:0 (Hashtbl.find_opt windows k)))
      kinds;
    let code = Encode.list_to_bytes insns in
    let data = Util.Prng.bytes p data_len in
    let init_gprs = Array.init 16 (fun _ -> Util.Prng.next64 p) in
    let init_xmms =
      Array.init 16 (fun _ -> (Util.Prng.next64 p, Util.Prng.next64 p))
    in
    let taxes =
      if Util.Prng.int p 4 = 0 then (Util.Prng.int p 3, Util.Prng.int p 10)
      else (0, 0)
    in
    let trial_seed = Util.Prng.next64 p in
    let args ~compiled =
      run_one ~compiled ~trial_seed ~taxes ~init_gprs ~init_xmms ~data ~code
    in
    let interp = args ~compiled:false in
    compare_snapshots ~trial ~what:"compiled" interp (args ~compiled:true);
    (match interp.s_result with
    | Exec.Stopped Exec.Halted -> incr halted
    | Exec.Stopped (Exec.Faulted f) ->
      incr faulted;
      (* text is all mapped and data all mapped, so a segfault there
         is a store into text or a fetch from data *)
      (match f with
      | Fault.Segfault a when within text_base 4096 a -> incr text_stores
      | Fault.Segfault a when within data_base data_len a -> incr data_fetches
      | _ -> ())
    | Exec.Out_of_fuel -> incr fuel
    | _ -> incr other)
  done;
  Compile.set_fuse_threshold saved_threshold;
  (* the corpus must actually exercise the interesting exits *)
  Alcotest.(check bool) "saw clean halts" true (!halted > 100);
  Alcotest.(check bool) "saw faults" true (!faulted > 50);
  Alcotest.(check bool) "saw fuel exhaustion" true (!fuel > 10);
  Alcotest.(check bool) "saw builtin/syscall exits" true (!other > 10);
  Alcotest.(check bool) "saw stores into text" true (!text_stores > 20);
  Alcotest.(check bool) "saw fetches from data" true (!data_fetches > 10);
  (* and every fused step, in each of its shapes and faults *)
  List.iter
    (fun k ->
      let n = Option.value ~default:0 (Hashtbl.find_opt windows k) in
      if n <= 100 then Alcotest.failf "the corpus holds %d windows of kind %s, want > 100" n k)
    window_kinds

(* ---- flag setters and condition tests against the reference ---------------- *)

(* The interpreter's setters ([Exec.set_*_flags]) are written with
   three-way compares; the compiled steps' single-compare forms must set
   the same four flags. The fuzz reaches them only through the flags a
   program happens to read; this property hits the edges directly. *)
(* Carries and overflows flip at the edges of the range and at powers
   of two, so two draws in three come from there. *)
let edge_operands =
  [ 0L; 1L; -1L; Int64.min_int; Int64.max_int; Int64.succ Int64.min_int;
    Int64.pred Int64.max_int ]
  @ List.concat_map
      (fun k -> let v = Int64.shift_left 1L k in [ v; Int64.neg v ])
      (List.init 64 Fun.id)

let gen_operand = QCheck.Gen.(frequency [ (2, oneofl edge_operands); (1, int64) ])

let prop_flag_setters =
  QCheck.Test.make ~name:"flag setters match the three-way-compare reference"
    ~count:20_000
    (QCheck.make
       ~print:(fun (a, b) -> Printf.sprintf "a = 0x%Lx, b = 0x%Lx" a b)
       QCheck.Gen.(pair gen_operand gen_operand))
    (fun (a, b) ->
      (* start the two records apart, so a flag left unset shows too *)
      let agree set reference =
        let f = { Cpu.zf = true; sf = true; cf = true; of_ = true } in
        let g = { Cpu.zf = false; sf = false; cf = false; of_ = false } in
        set f;
        reference g;
        f = g
      in
      let logic r =
        agree (fun f -> Compile.set_logic_flags f r) (fun g -> Exec.set_logic_flags g r)
      in
      let add = Int64.add a b and sub = Int64.sub a b in
      logic a && logic (Int64.logand a b) && logic (Int64.logxor a b)
      && agree
           (fun f -> Compile.set_add_flags f a b add)
           (fun g -> Exec.set_add_flags g a b add)
      && agree
           (fun f -> Compile.set_sub_flags f a b sub)
           (fun g -> Exec.set_sub_flags g a b sub))

(* Every condition in every one of the 16 flag states: the compiled
   steps' [cond_holds] must agree with the interpreter's. *)
let test_cond_holds_exhaustive () =
  for bits = 0 to 15 do
    let f =
      { Cpu.zf = bits land 1 <> 0; sf = bits land 2 <> 0; cf = bits land 4 <> 0;
        of_ = bits land 8 <> 0 }
    in
    for i = 0 to 11 do
      let c = Option.get (Insn.cond_of_index i) in
      if Compile.cond_holds f c <> Exec.cond_holds f c then
        Alcotest.failf "condition %d with zf=%b sf=%b cf=%b of=%b: compiled %b, interpreter %b"
          i f.Cpu.zf f.Cpu.sf f.Cpu.cf f.Cpu.of_ (Compile.cond_holds f c)
          (Exec.cond_holds f c)
    done
  done

(* ---- targeted compiled-execution tests ------------------------------------ *)

let load_program mem insns = Memory.write_bytes mem text_base (Encode.list_to_bytes insns)

(* Hand-built code runs only once sealed, as the loader seals text. *)
let seal_text mem = Memory.seal mem ~addr:text_base ~len:4096

let fresh () =
  let cpu = Cpu.create () in
  let mem = Memory.create () in
  Memory.map mem ~addr:text_base ~len:4096;
  Memory.map mem ~addr:stack_base ~len:stack_len;
  Cpu.set cpu Reg.RSP 0x71800L;
  Cpu.set_rip cpu text_base;
  (cpu, mem)

let run_to_halt cpu mem =
  Cpu.set_rip cpu text_base;
  match Exec.run env cpu mem with
  | Exec.Stopped Exec.Halted -> ()
  | r -> Alcotest.fail ("expected hlt, got " ^ result_to_string r)

let int64_t = Alcotest.testable (Fmt.fmt "0x%Lx") Int64.equal
let check_reg msg reg v cpu = Alcotest.check int64_t msg v (Cpu.get cpu reg)

let block_b = Int64.add text_base 0x80L
let block_c = Int64.add text_base 0x100L

(* A fork child reuses the parent's compiled blocks (shared Tcache
   records carry the translation). Text is sealed, so a store into it is
   killed where it lands, at the written address with rip at the store:
   in the never-forked parent, whose text page was private before the
   seal, and in the child, whose compiled store takes the slow path on a
   page it shares. Both sides keep running the loaded code, compiled and
   interpreted alike. *)
let test_compiled_across_fork () =
  let target = Int64.add text_base 1L in
  List.iter
    (fun compiled ->
      with_compiled compiled @@ fun () ->
      let what s = Printf.sprintf "%s (compiled %b)" s compiled in
      let cpu, mem = fresh () in
      load_program mem [ Insn.Mov (Operand.reg Reg.RAX, Operand.imm 7L); Insn.Hlt ];
      Memory.write_bytes mem block_b
        (Encode.list_to_bytes
           [ Insn.Mov (Operand.mem ~base:Reg.RBX 0L, Operand.reg Reg.RCX); Insn.Hlt ]);
      seal_text mem;
      let store_into_text who cpu mem =
        Cpu.set cpu Reg.RBX target;
        Cpu.set_rip cpu block_b;
        match Exec.run env cpu mem with
        | Exec.Stopped (Exec.Faulted (Fault.Segfault a)) ->
          Alcotest.check int64_t (what (who ^ ": fault at the written address")) target a;
          Alcotest.check int64_t (what (who ^ ": rip at the store")) block_b (Cpu.rip cpu)
        | r -> Alcotest.failf "%s: %s" (what (who ^ "'s store into text")) (result_to_string r)
      in
      run_to_halt cpu mem;
      store_into_text "parent" cpu mem;
      store_into_text "parent, cached" cpu mem;
      let ccpu = Cpu.clone cpu in
      let cmem = Memory.clone mem in
      run_to_halt ccpu cmem;
      check_reg (what "child reuses compiled block") Reg.RAX 7L ccpu;
      store_into_text "child" ccpu cmem;
      run_to_halt ccpu cmem;
      check_reg (what "child keeps the loaded code") Reg.RAX 7L ccpu;
      run_to_halt cpu mem;
      check_reg (what "parent keeps the loaded code") Reg.RAX 7L cpu)
    [ false; true ]

(* ---- chaining / superblock tests ------------------------------------------- *)

let with_fuse_threshold n f =
  let saved = Compile.get_fuse_threshold () in
  Compile.set_fuse_threshold n;
  Fun.protect ~finally:(fun () -> Compile.set_fuse_threshold saved) f

(* Superblock fusion must not perturb profiler attribution: the fused
   translation retires a whole chain in one sweep, yet its
   per-constituent self-notes must reproduce the interpreter's per-block
   rows byte for byte, including the insn/call tax terms. Nor may chain
   links: two blocks ending in conditional branches never fuse, and with
   the profiler off each would hop straight into the other; with it on
   every transfer must reach [run]'s attribution. *)
let test_superblock_profile_attribution () =
  with_fuse_threshold 1 @@ fun () ->
  let profile_rows ~compiled load =
    with_compiled compiled @@ fun () ->
    Telemetry.Profile.reset ();
    Telemetry.Profile.set_enabled true;
    let cpu, mem = fresh () in
    load mem;
    seal_text mem;
    cpu.Cpu.insn_tax <- 2;
    cpu.Cpu.call_tax <- 7;
    for _ = 1 to 10 do
      Cpu.set cpu Reg.RCX 0L;
      run_to_halt cpu mem
    done;
    Telemetry.Profile.set_enabled false;
    let rows = Telemetry.Profile.dump () in
    Telemetry.Profile.reset ();
    (rows, Tcache.exec_stats cpu.Cpu.tcache)
  in
  let rax = Operand.reg Reg.RAX and rcx = Operand.reg Reg.RCX in
  let fused mem =
    load_program mem
      [ Insn.Mov (rax, Operand.imm 1L);
        Insn.Bin (Insn.Add, rax, Operand.imm 2L);
        Insn.Jmp (Insn.Abs block_b) ];
    Memory.write_bytes mem block_b
      (Encode.list_to_bytes
         [ Insn.Bin (Insn.Add, rax, Operand.imm 3L);
           Insn.Mov (Operand.reg Reg.RBX, Operand.imm 2L);
           Insn.Jmp (Insn.Abs block_c) ]);
    Memory.write_bytes mem block_c
      (Encode.list_to_bytes
         [ Insn.Bin (Insn.Add, rax, Operand.imm 4L);
           Insn.Mov (rcx, Operand.imm 3L);
           Insn.Hlt ])
  and linked mem =
    let turn target =
      [ Insn.Bin (Insn.Add, rcx, Operand.imm 1L);
        Insn.Bin (Insn.Cmp, rcx, Operand.imm 20L);
        Insn.Jcc (Insn.L, Insn.Abs target);
        Insn.Hlt ]
    in
    load_program mem (turn block_b);
    Memory.write_bytes mem block_b (Encode.list_to_bytes (turn text_base))
  in
  let show rows =
    String.concat "; "
      (List.map
         (fun r ->
           Printf.sprintf "0x%Lx: %d cycles / %d blocks" r.Telemetry.Profile.addr
             r.Telemetry.Profile.cycles r.Telemetry.Profile.blocks)
         rows)
  in
  List.iter
    (fun (what, load, check) ->
      let reference, _ = profile_rows ~compiled:false load in
      let rows, stats = profile_rows ~compiled:true load in
      check stats;
      Alcotest.(check bool) (what ^ ": profile saw the blocks") true (List.length reference >= 3);
      if reference <> rows then
        Alcotest.failf "attribution diverges under %s:\n  interpreter: %s\n  compiled: %s" what
          (show reference) (show rows))
    [
      ( "fusion",
        fused,
        fun stats ->
          Alcotest.(check bool) "compiled run actually fused" true (stats.Tcache.superblocks >= 1)
      );
      ( "chain links",
        linked,
        fun stats ->
          Alcotest.(check bool) "compiled run followed links" true
            (stats.Tcache.chain_hops > 100) );
    ]

(* ---- the threaded chain ------------------------------------------------------ *)

let mk_block ~start insns =
  Tcache.make_block ~start
    (Array.of_list
       (List.map (fun i -> (i, Bytes.length (Encode.list_to_bytes [ i ]))) insns))

let no_builtin _ = None

(* The self-move peephole: [mov r, r] normalizes to the cost-only no-op
   while a real register move stays executable, and neither rewrite
   loses the decoded cycle cost. *)
let test_normalize_self_move () =
  let b =
    mk_block ~start:text_base
      [
        Insn.Mov (Operand.reg Reg.RCX, Operand.reg Reg.RCX);
        Insn.Mov (Operand.reg Reg.RCX, Operand.reg Reg.RDX);
        Insn.Hlt;
      ]
  in
  let ir = Ir.normalize (Ir.lift ~is_builtin:no_builtin ~inlinable:(fun _ -> false) b) in
  (match ir.Ir.steps.(0).Ir.uop with
  | Ir.Nop_cost -> ()
  | _ -> Alcotest.fail "mov rcx, rcx must normalize to Nop_cost");
  (match ir.Ir.steps.(1).Ir.uop with
  | Ir.Exec (Insn.Mov _) -> ()
  | _ -> Alcotest.fail "mov rcx, rdx must stay a real move");
  Alcotest.(check int) "self-move keeps the move's decoded cost"
    ir.Ir.steps.(1).Ir.cost ir.Ir.steps.(0).Ir.cost

(* rdtsc compiles: mid-block, compiled code reads the counter as
   entry cycles plus the retired prefix's static charge, taxes included,
   which is what the interpreter charged before executing it. *)
let test_rdtsc_compiles () =
  let tsc ~compiled =
    with_compiled compiled @@ fun () ->
    let cpu, mem = fresh () in
    load_program mem
      [
        Insn.Bin (Insn.Add, Operand.reg Reg.RBX, Operand.imm 1L);
        Insn.Call (Insn.Abs (Int64.add text_base 0x40L));
      ];
    Memory.write_bytes mem (Int64.add text_base 0x40L)
      (Encode.list_to_bytes [ Insn.Rdtsc; Insn.Hlt ]);
    seal_text mem;
    cpu.Cpu.insn_tax <- 2;
    cpu.Cpu.call_tax <- 7;
    Cpu.add_cycles cpu 0x1_0000_0000;
    run_to_halt cpu mem;
    (Cpu.get cpu Reg.RAX, Cpu.get cpu Reg.RDX, Cpu.cycles cpu)
  in
  let rax0, rdx0, cycles0 = tsc ~compiled:false in
  Alcotest.(check bool) "rdtsc saw the retired prefix" true
    (Int64.logor (Int64.shift_left rdx0 32) rax0 > 0x1_0000_0000L);
  let rax, rdx, cycles = tsc ~compiled:true in
  Alcotest.check int64_t "compiled rax" rax0 rax;
  Alcotest.check int64_t "compiled rdx" rdx0 rdx;
  Alcotest.check int64_t "compiled cycles" cycles0 cycles

(* Faults are exact mid-superblock: trap on a store page-fault in the
   middle of a fused chain, with a register modified since entry. Every
   interpreter-visible fact — gprs, flags, rip, cycles, fault identity —
   must match an interpreted replay of the same machine. *)
let test_fault_exact_mid_superblock () =
  with_fuse_threshold 1 @@ fun () ->
  let run_at ~compiled =
    with_compiled compiled @@ fun () ->
    let cpu, mem = fresh () in
    Memory.map mem ~addr:data_base ~len:data_len;
    load_program mem
      [
        Insn.Bin (Insn.Add, Operand.reg Reg.RBX, Operand.imm 5L);
        Insn.Jmp (Insn.Abs block_b);
      ];
    Memory.write_bytes mem block_b
      (Encode.list_to_bytes
         [
           Insn.Bin (Insn.Add, Operand.reg Reg.RBX, Operand.imm 1L);
           Insn.Push (Operand.reg Reg.RBX);
           Insn.Mov (Operand.mem ~base:Reg.R13 0L, Operand.reg Reg.RBX);
           Insn.Bin (Insn.Add, Operand.reg Reg.RBX, Operand.imm 100L);
           Insn.Hlt;
         ]);
    seal_text mem;
    cpu.Cpu.insn_tax <- 2;
    cpu.Cpu.call_tax <- 7;
    (* warm up with the store aimed at mapped data: two halting runs
       form the superblock *)
    Cpu.set cpu Reg.R13 data_base;
    run_to_halt cpu mem;
    run_to_halt cpu mem;
    if compiled then
      Alcotest.(check bool) "superblock formed" true
        ((Tcache.exec_stats cpu.Cpu.tcache).Tcache.superblocks >= 1);
    (* aim the store at unmapped space: the chain faults in its middle,
       two adds and the push retired, the +100 not *)
    Cpu.set cpu Reg.R13 0x9000000L;
    Cpu.set cpu Reg.RBX 0L;
    Cpu.set_rip cpu text_base;
    let result = Exec.run env cpu mem in
    ( result,
      gprs cpu,
      ( cpu.Cpu.flags.Cpu.zf,
        cpu.Cpu.flags.Cpu.sf,
        cpu.Cpu.flags.Cpu.cf,
        cpu.Cpu.flags.Cpu.of_ ),
      Cpu.rip cpu,
      Cpu.cycles cpu )
  in
  let r0, g0, f0, rip0, c0 = run_at ~compiled:false in
  let r, g, f, rip, c = run_at ~compiled:true in
  (match r with
  | Exec.Stopped (Exec.Faulted _) -> ()
  | r -> Alcotest.fail ("expected a page fault, got " ^ result_to_string r));
  Alcotest.(check string) "fault identity matches the interpreter"
    (result_to_string r0) (result_to_string r);
  for i = 0 to 15 do
    Alcotest.check int64_t
      (Printf.sprintf "gpr %s at fault" (Reg.name (Reg.of_index_exn i)))
      g0.(i) g.(i)
  done;
  Alcotest.(check bool) "flags at fault" true (f0 = f);
  Alcotest.check int64_t "rip points at the faulting store" rip0 rip;
  Alcotest.check int64_t "cycles at fault" c0 c;
  Alcotest.check int64_t "rbx shows exactly the retired adds" 6L
    g.(Reg.index Reg.RBX)

(* Minor-heap words per retired instruction of a loop run to its hlt,
   after a warm-up run of the same code has translated and fused it. *)
let words_per_insn cpu mem ~warm_up ~measure =
  warm_up ();
  run_to_halt cpu mem;
  measure ();
  Cpu.set_rip cpu text_base;
  let w0 = Gc.minor_words () in
  let rec go retired =
    match Exec.step_block env cpu mem ~max_insns:1_000_000 with
    | Exec.Running, k -> go (retired + k)
    | Exec.Halted, k -> retired + k
    | _ -> Alcotest.fail "loop did not halt"
  in
  let retired = go 0 in
  (Gc.minor_words () -. w0) /. float_of_int retired

(* The page windows: every 8-byte access shape, at addresses on both
   sides of each guard — the last offsets of a mapped page followed by
   an unmapped one, the top of the 128 MiB layout (its last page
   mapped), addresses whose top bit [Int64.to_int] drops (one aliases
   the mapped text page), the sealed text page itself, inside and at
   its edge, and plain junk — must leave the interpreter's full machine
   state, memory, fault and cycles when compiled.
   Each runs in three states of the address space: fresh, where every
   chunk is owned and every data page private; right after
   [Memory.clone], where no chunk is owned; and on owned chunks whose
   pages are still shared with the relative (a write to another page of
   the chunk owned it). A compiled store must break copy-on-write
   exactly as the interpreter does — the same cow_breaks delta — fault
   on the text page, and never reach the relative's bytes. An in-page
   access at the last window offset must also stay on the
   allocation-free path. *)
let test_page_window_guard () =
  let page = data_base and top = Int64.sub Layout.address_limit 4096L in
  let addrs =
    List.init 8 (fun j -> Int64.add page (Int64.of_int (4088 + j)))
    @ List.init 8 (fun j -> Int64.sub Layout.address_limit (Int64.of_int (8 - j)))
    @ [ -8L; Int64.logor Int64.min_int text_base; 0x4141414141414141L ]
    @ List.map (Int64.add text_base) [ 0x800L; 4088L; 4092L ]
  in
  let callee = Int64.add text_base 0x40L in
  let at_rbx = Operand.mem ~base:Reg.RBX 0L in
  (* (name, program, register setup for address a) *)
  let shapes =
    [
      ("mov load", [ Insn.Mov (Operand.reg Reg.RAX, at_rbx) ], fun a -> [ (Reg.RBX, a) ]);
      ("mov store", [ Insn.Mov (at_rbx, Operand.reg Reg.RCX) ], fun a -> [ (Reg.RBX, a) ]);
      ( "add load",
        [ Insn.Bin (Insn.Add, Operand.reg Reg.RAX, at_rbx) ],
        fun a -> [ (Reg.RBX, a) ] );
      ("push", [ Insn.Push (Operand.reg Reg.RCX) ], fun a -> [ (Reg.RSP, Int64.add a 8L) ]);
      ("pop", [ Insn.Pop (Operand.reg Reg.RAX) ], fun a -> [ (Reg.RSP, a) ]);
      ("call", [ Insn.Call (Insn.Abs callee) ], fun a -> [ (Reg.RSP, Int64.add a 8L) ]);
      ("ret", [ Insn.Ret ], fun a -> [ (Reg.RSP, a) ]);
      ("leave", [ Insn.Leave ], fun a -> [ (Reg.RBP, a) ]);
    ]
  in
  let fill = Util.Prng.bytes (Util.Prng.create 0x9A6EL) 4096 in
  (* one more page in each chunk the shapes touch (0 and 255): a write
     there owns the chunk and leaves the other pages shared *)
  let scratch = [ 0x30000L; Int64.sub top 4096L ] in
  let run ~compiled ~state prog regs =
    with_compiled compiled @@ fun () ->
    let cpu, mem = fresh () in
    Memory.map mem ~addr:page ~len:4096;
    Memory.map mem ~addr:top ~len:4096;
    List.iter (fun a -> Memory.map mem ~addr:a ~len:4096) scratch;
    Memory.write_bytes mem page fill;
    Memory.write_bytes mem top fill;
    load_program mem (prog @ [ Insn.Hlt ]);
    Memory.write_bytes mem callee (Encode.list_to_bytes [ Insn.Hlt ]);
    seal_text mem;
    let regions m =
      List.map (fun a -> Memory.read_bytes m a 4096) [ text_base; page; top ]
      @ [ Memory.read_bytes m stack_base stack_len ]
    in
    let relative, mem =
      match state with
      | `Fresh -> (None, mem)
      | `Cloned -> (Some mem, Memory.clone mem)
      | `Owned_shared ->
        let child = Memory.clone mem in
        List.iter (fun a -> Memory.write_u8 child a 0x5A) scratch;
        (Some mem, child)
    in
    let before = Option.map regions relative in
    Cpu.set cpu Reg.RCX 0x1122334455667788L;
    List.iter (fun (r, v) -> Cpu.set cpu r v) regs;
    let cow () = (Memory.family_stats mem).Memory.cow_breaks in
    let cow0 = cow () in
    let result = Exec.run ~max_insns:10 env cpu mem in
    let moved = cow () - cow0 in
    if Option.map regions relative <> before then
      Alcotest.failf "compiled=%b wrote through to the fork relative's bytes" compiled;
    let data = Bytes.cat (Memory.read_bytes mem page 4096) (Memory.read_bytes mem top 4096) in
    (capture result cpu mem ~data, moved)
  in
  let trial = ref 0 in
  List.iter
    (fun (state, state_name) ->
      List.iter
        (fun (name, prog, regs) ->
          List.iter
            (fun a ->
              let interp, moved0 = run ~compiled:false ~state prog (regs a) in
              let what = Printf.sprintf "compiled (%s at 0x%Lx, %s)" name a state_name in
              let got, moved = run ~compiled:true ~state prog (regs a) in
              compare_snapshots ~trial:!trial ~what interp got;
              if moved <> moved0 then
                Alcotest.failf "%s: cow_breaks +%d; the interpreter: +%d" what moved moved0;
              incr trial)
            addrs)
        shapes)
    [ (`Fresh, "fresh"); (`Cloned, "after clone"); (`Owned_shared, "owned chunk, shared page") ];
  (* the last window offset is in the window: 16 loads and stores there
     per turn stay allocation-free *)
  let cpu, mem = fresh () in
  Memory.map mem ~addr:page ~len:4096;
  let body =
    List.concat
      (List.init 16 (fun _ ->
           [
             Insn.Mov (Operand.reg Reg.RAX, at_rbx);
             Insn.Mov (at_rbx, Operand.reg Reg.RAX);
           ]))
  in
  load_program mem
    (body
    @ [
        Insn.Bin (Insn.Sub, Operand.reg Reg.RCX, Operand.imm 1L);
        Insn.Jcc (Insn.NE, Insn.Abs text_base);
        Insn.Hlt;
      ]);
  seal_text mem;
  let set_up n () =
    Cpu.set cpu Reg.RBX (Int64.add page 4088L);
    Cpu.set cpu Reg.RCX n
  in
  let w = words_per_insn cpu mem ~warm_up:(set_up 4L) ~measure:(set_up 1000L) in
  if w >= 0.5 then
    Alcotest.failf "loads and stores at page offset 4088 allocate %.2f words per insn" w

(* The chain allocates nothing per instruction, nor per hop: a loop of
   the shape the Mini-C compiler emits (rbp-relative locals, push/pop
   operand shuffling, imul/irem hashing, cmp/setl/je loop test, jmp
   back) runs 10,000 iterations, with a direct hop every iteration and
   fewer than 0.01 minor-heap words per retired instruction. rip and
   the cycle count are stores into the register file, so an exit
   settles both without a box; what remains is the one dispatch's
   machine record. *)
let test_chain_allocation () =
  let cpu, mem = fresh () in
  let local d = Operand.mem ~base:Reg.RBP (Int64.of_int d) in
  let rax = Operand.reg Reg.RAX and rcx = Operand.reg Reg.RCX in
  let top = text_base in
  let load_rax d = Insn.Mov (rax, local d) in
  let stack_op bop k =
    [
      Insn.Push rax;
      Insn.Mov (rax, Operand.imm k);
      Insn.Pop rcx;
      Insn.Bin (bop, rcx, rax);
      Insn.Mov (rax, rcx);
    ]
  in
  let loop_test =
    [
      load_rax (-8);
      Insn.Push rax;
      load_rax (-24);
      Insn.Pop rcx;
      Insn.Bin (Insn.Cmp, rcx, rax);
      Insn.Setcc (Insn.L, Reg.RAX);
      Insn.Bin (Insn.Cmp, rax, Operand.imm 0L);
    ]
  in
  let test_len =
    Bytes.length (Encode.list_to_bytes (loop_test @ [ Insn.Jcc (Insn.E, Insn.Abs 0L) ]))
  in
  let body =
    [ load_rax (-16) ]
    @ stack_op Insn.Imul 31L
    @ [
        Insn.Push rax;
        load_rax (-8);
        Insn.Pop rcx;
        Insn.Bin (Insn.Add, rcx, rax);
        Insn.Mov (rax, rcx);
      ]
    @ stack_op Insn.Irem 1000003L
    @ [
        Insn.Mov (local (-16), rax);
        load_rax (-8);
        Insn.Bin (Insn.Add, rax, Operand.imm 1L);
        Insn.Mov (local (-8), rax);
        Insn.Jmp (Insn.Abs top);
      ]
  in
  let body_len = Bytes.length (Encode.list_to_bytes body) in
  let exit_ = Int64.add top (Int64.of_int (test_len + body_len)) in
  load_program mem (loop_test @ [ Insn.Jcc (Insn.E, Insn.Abs exit_) ] @ body @ [ Insn.Hlt ]);
  seal_text mem;
  let rbp = 0x71000L in
  let set_up n () =
    Cpu.set cpu Reg.RBP rbp;
    Memory.write_u64 mem (Int64.sub rbp 8L) 0L;
    Memory.write_u64 mem (Int64.sub rbp 16L) 7L;
    Memory.write_u64 mem (Int64.sub rbp 24L) n
  in
  let w = words_per_insn cpu mem ~warm_up:(set_up 20L) ~measure:(set_up 10_000L) in
  Alcotest.(check int64_t) "all iterations retired" 10_000L
    (Memory.read_u64 mem (Int64.sub rbp 8L));
  if w >= 0.01 then
    Alcotest.failf "the threaded chain allocates %.4f minor words per retired instruction" w

(* ---- the fused operand shuffle --------------------------------------------- *)

(* Run from text_base until a non-running outcome or [max_insns]
   retires, counting the retires. *)
let run_counted cpu mem ~max_insns =
  Cpu.set_rip cpu text_base;
  let rec go left retired =
    if left <= 0 then (Exec.Out_of_fuel, retired)
    else
      match Exec.step_block env cpu mem ~max_insns:left with
      | Exec.Running, k -> go (left - k) (retired + k)
      | outcome, k -> (Exec.Stopped outcome, retired + k)
  in
  go max_insns 0

(* mcc wraps a binary operator's one-instruction right operand S in
   [push a; mov a, S; mov b, a; pop a], and the threaded chain runs
   that window as one step. Every S shape, pushes that fault or
   straddle a page, and windows that must not fuse run compiled and
   must leave the interpreter's full state, memory, fault, cycles and
   retire count. The stack is filled with a pattern, so S = [rsp]
   (the pushed value) tells a store made after S is read; S unmapped
   tells a fault charged to the push instead of the mov. *)
let test_fused_shuffle () =
  let rax = Operand.reg Reg.RAX and rcx = Operand.reg Reg.RCX and rsp = Operand.reg Reg.RSP in
  let window ?(a = Reg.RAX) ?(b = Reg.RCX) ?(third = fun a b -> Insn.Mov (b, a)) s =
    let a = Operand.reg a and b = Operand.reg b in
    [ Insn.Push a; Insn.Mov (a, s); third a b; Insn.Pop a ]
  in
  let after = [ Insn.Bin (Insn.Add, rcx, Operand.imm 3L) ] in
  let nops k = List.init k (fun _ -> Insn.Nop) in
  let stack_top = Int64.add stack_base (Int64.of_int stack_len) in
  let fused s = window s @ after in
  (* (name, program, rsp, runs) *)
  let cases =
    [
      ("S = imm", fused (Operand.imm 0x1234_5678_9ABCL), 0x71800L, 1);
      ("S = a (mov a, a: not fused)", fused rax, 0x71800L, 1);
      ("S = b", fused rcx, 0x71800L, 1);
      ("S = rsp", fused rsp, 0x71800L, 1);
      ("S = [rbp+d]", fused (Operand.mem ~base:Reg.RBP (-16L)), 0x71800L, 1);
      ("S = [rsp-8]", fused (Operand.mem ~base:Reg.RSP (-8L)), 0x71800L, 1);
      ("S = [rsp] (the pushed value)", fused (Operand.mem ~base:Reg.RSP 0L), 0x71800L, 1);
      ("S = absolute", fused (Operand.mem (Int64.add data_base 0x40L)), 0x71800L, 1);
      ( "S = indexed",
        fused (Operand.mem ~base:Reg.R15 ~index:(Reg.R14, Operand.S8) 16L),
        0x71800L,
        1 );
      ("S = unmapped", fused (Operand.mem 0x9000000L), 0x71800L, 1);
      ("push store faults", fused (Operand.imm 5L), stack_base, 1);
      ("push straddles two mapped pages", fused (Operand.imm 5L), 0x71004L, 1);
      ("push straddles into an unmapped page", fused (Operand.imm 5L), Int64.add stack_top 4L, 1);
      ("push straddles from an unmapped page", fused (Operand.imm 5L), Int64.add stack_base 4L, 1);
      ( "other registers",
        window ~a:Reg.RDX ~b:Reg.RBX (Operand.mem ~base:Reg.RBP (-24L)) @ after,
        0x71800L,
        1 );
      (* near-misses *)
      ("a = rsp", window ~a:Reg.RSP (Operand.imm 0x71400L) @ after, 0x71800L, 1);
      ("b = rsp", window ~b:Reg.RSP (Operand.imm 0x71400L) @ after, 0x71800L, 1);
      ("a = b", window ~b:Reg.RAX (Operand.imm 9L) @ after, 0x71800L, 1);
      ( "third move is not mov b, a",
        window ~third:(fun _ b -> Insn.Mov (b, b)) (Operand.imm 9L) @ after,
        0x71800L,
        1 );
      (* 60 nops + the window fill a block: the pop is its last step *)
      ("pop is the last step", nops 60 @ fused (Operand.imm 7L), 0x71800L, 1);
      (* the block cap splits the window; the third run enters the
         superblock that fuses the two halves *)
      ("window across superblock constituents", nops 62 @ fused (Operand.imm 7L), 0x71800L, 3);
    ]
  in
  let fill = Util.Prng.bytes (Util.Prng.create 0x5A0FL) stack_len in
  let data = Util.Prng.bytes (Util.Prng.create 0xDA7AL) 4096 in
  let run ~compiled prog ~rsp ~runs =
    with_compiled compiled @@ fun () ->
    let cpu, mem = fresh () in
    Memory.map mem ~addr:data_base ~len:4096;
    Memory.write_bytes mem data_base data;
    Memory.write_bytes mem stack_base fill;
    load_program mem (prog @ [ Insn.Hlt ]);
    seal_text mem;
    cpu.Cpu.insn_tax <- 2;
    cpu.Cpu.call_tax <- 7;
    let result = ref (Exec.Out_of_fuel, 0) in
    for _ = 1 to runs do
      List.iteri
        (fun i r -> Cpu.set cpu (Reg.of_index_exn i) r)
        (List.init 16 (fun i -> Int64.mul 0x0101_0101_0101_0101L (Int64.of_int (i + 1))));
      Cpu.set cpu Reg.RSP rsp;
      Cpu.set cpu Reg.RBP 0x71000L;
      Cpu.set cpu Reg.R15 data_base;
      Cpu.set cpu Reg.R14 3L;
      cpu.Cpu.flags.Cpu.cf <- true;
      cpu.Cpu.flags.Cpu.of_ <- true;
      result := run_counted cpu mem ~max_insns:200
    done;
    let result, retired = !result in
    ( capture result cpu mem ~data:(Memory.read_bytes mem data_base 4096),
      retired,
      (Tcache.exec_stats cpu.Cpu.tcache).Tcache.superblocks )
  in
  with_fuse_threshold 1 @@ fun () ->
  List.iteri
    (fun trial (name, prog, rsp, runs) ->
      let interp, retired0, _ = run ~compiled:false prog ~rsp ~runs in
      let what = Printf.sprintf "compiled (%s)" name in
      let got, retired, superblocks = run ~compiled:true prog ~rsp ~runs in
      compare_snapshots ~trial ~what interp got;
      Alcotest.(check int) (what ^ ": retired") retired0 retired;
      if runs > 1 then
        Alcotest.(check bool) (what ^ ": superblock formed") true (superblocks >= 1))
    cases

(* ---- the fuel tail ----------------------------------------------------------- *)

(* The threaded chain has no fuel boundary inside it, so a translation
   longer than the fuel left runs step by step ([Compile.run_steps]).
   A superblock of three constituents — A with an operand-shuffle
   window and a jmp, B ending in a direct call, C ending in ret — runs
   from its head once for every fuel f shorter than it, and must retire
   exactly f instructions and leave the state the interpreter leaves
   after f. Every cut point is covered: inside the unfused shuffle,
   right after the jmp and the call (steps that set rip mid-superblock),
   and at each constituent boundary. *)
let test_fuel_tail () =
  let rax = Operand.reg Reg.RAX and rbx = Operand.reg Reg.RBX
  and rcx = Operand.reg Reg.RCX and rdx = Operand.reg Reg.RDX in
  let local d = Operand.mem ~base:Reg.RBP (Int64.of_int d) in
  let a =
    [
      Insn.Mov (rax, Operand.imm 5L);
      Insn.Push rax;
      Insn.Mov (rax, local (-16));
      Insn.Mov (rcx, rax);
      Insn.Pop rax;
      Insn.Bin (Insn.Add, rcx, rax);
      Insn.Jmp (Insn.Abs block_b);
    ]
  and b =
    [
      Insn.Bin (Insn.Sub, rbx, Operand.imm 1L);
      Insn.Mov (local (-8), rcx);
      Insn.Call (Insn.Abs block_c);
    ]
  and c =
    [
      Insn.Bin (Insn.Imul, rcx, Operand.imm 3L);
      Insn.Mov (rdx, Operand.mem ~base:Reg.RSP 0L);
      Insn.Ret;
    ]
  in
  let n = List.length a + List.length b + List.length c in
  let fill = Util.Prng.bytes (Util.Prng.create 0xF0E1L) stack_len in
  (* A fresh machine, run to its hlt twice so the superblock forms, then
     set back to the head. The call returns to a hlt after B. *)
  let machine ~compiled =
    let cpu, mem = fresh () in
    load_program mem a;
    Memory.write_bytes mem block_b (Encode.list_to_bytes (b @ [ Insn.Hlt ]));
    Memory.write_bytes mem block_c (Encode.list_to_bytes c);
    seal_text mem;
    cpu.Cpu.insn_tax <- 2;
    cpu.Cpu.call_tax <- 7;
    let reset () =
      List.iteri
        (fun i v -> Cpu.set cpu (Reg.of_index_exn i) v)
        (List.init 16 (fun i -> Int64.mul 0x0303_0303_0303_0303L (Int64.of_int (i + 1))));
      Cpu.set cpu Reg.RSP 0x71800L;
      Cpu.set cpu Reg.RBP 0x71000L;
      Memory.write_bytes mem stack_base fill;
      Cpu.set_rip cpu text_base
    in
    with_compiled compiled (fun () ->
        reset ();
        run_to_halt cpu mem;
        reset ();
        run_to_halt cpu mem);
    reset ();
    (cpu, mem)
  in
  with_fuse_threshold 1 @@ fun () ->
  (* one superblock, and a run from the head retires all [n]
     instructions of A, B and C without a chain hop: the three are one
     translation *)
  (let cpu, mem = machine ~compiled:true in
   let stats () = Tcache.exec_stats cpu.Cpu.tcache in
   Alcotest.(check int) "one superblock" 1 (stats ()).Tcache.superblocks;
   let hops = (stats ()).Tcache.chain_hops in
   let outcome, retired = Exec.step_block env cpu mem ~max_insns:n in
   if outcome <> Exec.Running then Alcotest.fail "the head's run stopped early";
   Alcotest.(check int) "the head's run retires A, B and C" n retired;
   Alcotest.(check int) "without a chain hop" hops (stats ()).Tcache.chain_hops);
  for f = 1 to n - 1 do
    let what = Printf.sprintf "the fuel tail at f = %d" f in
    let cpu, mem = machine ~compiled:true in
    let outcome, retired = Exec.step_block env cpu mem ~max_insns:f in
    if outcome <> Exec.Running then Alcotest.failf "%s: stopped early" what;
    Alcotest.(check int) (what ^ ": retired") f retired;
    let got = capture Exec.Out_of_fuel cpu mem ~data:Bytes.empty in
    let cpu, mem = machine ~compiled:false in
    let result, retired =
      with_compiled false (fun () -> run_counted cpu mem ~max_insns:f)
    in
    Alcotest.(check int) (what ^ ": retired, interpreted") f retired;
    let want = capture result cpu mem ~data:Bytes.empty in
    compare_snapshots ~trial:f ~what want got
  done

(* ---- direct hops ------------------------------------------------------------ *)

(* Two blocks in a loop that never fuse (the threshold is out of reach):
   L adds one to rcx, stores it at [r13 + 8*rcx] and jumps to S; S adds
   [r12 + 8*rcx] to rbx and loops back to L while rcx < 8. A warm-up run
   to the hlt patches both links, so every later L -> S and S -> L
   transfer is a direct hop from one chain into the next. L retires 3
   instructions and S 4 per turn. *)
let hop_machine ~compiled ~r12 =
  let rax = Operand.reg Reg.RAX and rbx = Operand.reg Reg.RBX and rcx = Operand.reg Reg.RCX in
  let cpu, mem = fresh () in
  load_program mem
    [
      Insn.Bin (Insn.Add, rcx, Operand.imm 1L);
      Insn.Mov (Operand.mem ~base:Reg.R13 ~index:(Reg.RCX, Operand.S8) 0L, rcx);
      Insn.Jmp (Insn.Abs block_b);
    ];
  Memory.write_bytes mem block_b
    (Encode.list_to_bytes
       [
         Insn.Mov (rax, Operand.mem ~base:Reg.R12 ~index:(Reg.RCX, Operand.S8) 0L);
         Insn.Bin (Insn.Add, rbx, rax);
         Insn.Bin (Insn.Cmp, rcx, Operand.imm 8L);
         Insn.Jcc (Insn.L, Insn.Abs text_base);
         Insn.Hlt;
       ]);
  seal_text mem;
  cpu.Cpu.insn_tax <- 2;
  let fill = Util.Prng.bytes (Util.Prng.create 0x40BL) stack_len in
  let reset r12 =
    Memory.write_bytes mem stack_base fill;
    Cpu.set cpu Reg.RCX 0L;
    Cpu.set cpu Reg.RBX 0L;
    Cpu.set cpu Reg.R12 r12;
    Cpu.set cpu Reg.R13 0x70800L
  in
  with_compiled compiled (fun () ->
      reset 0x71000L;
      run_to_halt cpu mem);
  reset r12;
  (cpu, mem)

(* The run from L under [fuel], compiled and interpreted, must leave the
   same machine, memory and retire count. Returns the compiled run's
   outcome and its chain transfers. *)
let check_hops ~what ~r12 ~fuel =
  let run ~compiled =
    let cpu, mem = hop_machine ~compiled ~r12 in
    let hops () = (Tcache.exec_stats cpu.Cpu.tcache).Tcache.chain_hops in
    let hops0 = hops () in
    let result, retired = with_compiled compiled (fun () -> run_counted cpu mem ~max_insns:fuel) in
    (capture result cpu mem ~data:Bytes.empty, retired, hops () - hops0)
  in
  let want, retired0, _ = run ~compiled:false in
  let got, retired, hops = run ~compiled:true in
  let what = Printf.sprintf "compiled (%s)" what in
  compare_snapshots ~trial:fuel ~what want got;
  Alcotest.(check int) (what ^ ": retired") retired0 retired;
  (got.s_result, hops)

(* S's load runs off the stack mapping on its fifth entry, which a hop
   from L reaches: the fault names S's load, with four turns and the
   fifth L charged and retired before it. *)
let test_hop_fault () =
  with_fuse_threshold 1_000_000 @@ fun () ->
  let stack_top = Int64.add stack_base (Int64.of_int stack_len) in
  let result, hops =
    check_hops ~what:"fault on the successor's fifth entry"
      ~r12:(Int64.sub stack_top 40L) ~fuel:200
  in
  (match result with
  | Exec.Stopped (Exec.Faulted (Fault.Segfault _)) -> ()
  | r -> Alcotest.fail ("expected a page fault, got " ^ result_to_string r));
  Alcotest.(check int) "nine transfers, all through links" 9 hops

(* Fuel that ends exactly where L would hop to S (3), or one
   instruction into S (4), and every other cut of the first three
   turns: a hop needs the fuel left to cover the successor's whole
   chain, and otherwise [run] cuts it as the interpreter does. *)
let test_hop_fuel_cuts () =
  with_fuse_threshold 1_000_000 @@ fun () ->
  for fuel = 1 to 21 do
    let what =
      match fuel with
      | 3 -> "fuel ends at the L -> S hop"
      | 4 -> "fuel ends one instruction into S"
      | f -> Printf.sprintf "fuel %d" f
    in
    match check_hops ~what ~r12:0x71000L ~fuel with
    | Exec.Out_of_fuel, _ -> ()
    | r, _ -> Alcotest.failf "%s: expected out-of-fuel, got %s" what (result_to_string r)
  done

let () =
  Alcotest.run "compile" @@ Watchdog.suites
    [
      ( "differential",
        [
          Alcotest.test_case
            (Printf.sprintf "interpreter vs compiled tier, %d random programs"
               trials)
            `Slow test_differential_fuzz;
        ] );
      ( "flags",
        [
          QCheck_alcotest.to_alcotest ~speed_level:`Quick
            ~rand:(Random.State.make [| 0xF1A65 |])
            prop_flag_setters;
          Alcotest.test_case "cond_holds matches the interpreter in all 16 flag states"
            `Quick test_cond_holds_exhaustive;
        ] );
      ( "targeted",
        [
          Alcotest.test_case "compiled blocks across CoW fork" `Quick
            test_compiled_across_fork;
        ] );
      ( "tier-2",
        [
          Alcotest.test_case "profile attribution identical under fusion"
            `Quick test_superblock_profile_attribution;
        ] );
      ( "tier-3",
        [
          Alcotest.test_case "normalize rewrites mov r,r to Nop_cost" `Quick
            test_normalize_self_move;
          Alcotest.test_case "rdtsc compiles mid-block" `Quick test_rdtsc_compiles;
          Alcotest.test_case "faults are exact mid-superblock" `Quick
            test_fault_exact_mid_superblock;
          Alcotest.test_case "page windows match the interpreter" `Quick
            test_page_window_guard;
          Alcotest.test_case "chain allocates < 0.5 words/insn" `Quick
            test_chain_allocation;
          Alcotest.test_case "fused operand shuffle matches the interpreter" `Quick
            test_fused_shuffle;
        ] );
      ( "fuel tail",
        [
          Alcotest.test_case "every fuel cut of a superblock matches the interpreter"
            `Quick test_fuel_tail;
        ] );
      ( "direct hops",
        [
          Alcotest.test_case "a fault in the successor matches the interpreter" `Quick
            test_hop_fault;
          Alcotest.test_case "fuel cuts at and after a hop match the interpreter" `Quick
            test_hop_fuel_cuts;
        ] );
    ]
