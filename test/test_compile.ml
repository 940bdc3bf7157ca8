(* Differential oracle for the compiled execution tiers.

   Every compiled tier must be observationally identical to the
   interpreter: same registers, flags, xmm state, memory, cycle counter,
   RNG draws and fault identity after every run. Rather than trusting
   each specialized closure individually, we fuzz: generate random
   encodable instruction sequences, run each four times from identical
   initial state — interpreter, tier 1 (per-block closures), tier 2
   (chained/fused, with the fuse threshold forced to 1 so superblocks
   actually form), tier 3 (register caching, exercising the spill
   protocol at every fault and kernel boundary) — and compare the
   complete machine state. *)

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
   edge and plainly unmapped space, so both tiers' fault paths and
   partial cross-page writes get compared. *)
let rand_mem_record p =
  let mk ?seg_fs ?base ?index disp =
    match Operand.mem ?seg_fs ?base ?index disp with
    | Operand.Mem m -> m
    | _ -> assert false
  in
  match Util.Prng.int p 10 with
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

(* Control transfers target the first bytes of the text page: backward
   targets create loops (cut by [max_insns], comparing fuel accounting),
   and targets landing mid-instruction exercise garbage decode in both
   tiers identically. *)
let rand_target p = Insn.Abs (Int64.add text_base (Int64.of_int (Util.Prng.int p 96)))

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

(* Not every generated shape is encodable (e.g. mem-to-mem moves);
   resample deterministically until the whole sequence encodes. *)
let rand_program p =
  let rec gen attempts =
    if attempts > 200 then [ Insn.Hlt ]
    else
      let n = 1 + Util.Prng.int p 24 in
      let insns = List.init n (fun _ -> rand_insn p) @ [ Insn.Hlt ] in
      match Encode.list_to_bytes insns with
      | _ -> insns
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

let run_one ~tier ~trial_seed ~taxes:(insn_tax, call_tax) ~init_gprs ~init_xmms
    ~data ~code =
  Compile.set_tier tier;
  let cpu = Cpu.create ~seed:trial_seed () in
  (* keyed MAC for Pac/Aut: same derivation in every tier, so signed
     values and authentication verdicts must agree bit-for-bit *)
  cpu.Cpu.pac_key <- Int64.logxor trial_seed 0x9E3779B97F4A7C15L;
  let mem = Memory.create () in
  Memory.map mem ~addr:text_base ~len:4096;
  Memory.map mem ~addr:data_base ~len:data_len;
  Memory.map mem ~addr:stack_base ~len:stack_len;
  Memory.write_bytes mem data_base data;
  Memory.write_bytes mem text_base code;
  Array.blit init_gprs 0 cpu.Cpu.gprs 0 16;
  Array.iteri (fun i v -> cpu.Cpu.xmms.(i) <- v) init_xmms;
  Cpu.set cpu Reg.RSP 0x71800L;
  Cpu.set cpu Reg.R15 data_base;
  Cpu.set cpu Reg.R14 (Int64.of_int (Int64.to_int init_gprs.(14) land 15));
  cpu.Cpu.fs_base <- 0x20400L;
  cpu.Cpu.insn_tax <- insn_tax;
  cpu.Cpu.call_tax <- call_tax;
  cpu.Cpu.rip <- text_base;
  let result = Exec.run ~max_insns:200 env cpu mem in
  Compile.set_tier 3;
  {
    s_result = result;
    s_gprs = Array.copy cpu.Cpu.gprs;
    s_xmms = Array.copy cpu.Cpu.xmms;
    s_rip = cpu.Cpu.rip;
    s_flags =
      ( cpu.Cpu.flags.Cpu.zf,
        cpu.Cpu.flags.Cpu.sf,
        cpu.Cpu.flags.Cpu.cf,
        cpu.Cpu.flags.Cpu.of_ );
    s_cycles = cpu.Cpu.cycles;
    s_text = Memory.read_bytes mem text_base 4096;
    s_data = Memory.read_bytes mem data_base data_len;
    s_stack = Memory.read_bytes mem stack_base stack_len;
  }

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
  (* force superblock formation on the very first re-entry so the fused
     paths face the same corpus as the plain chained ones *)
  let saved_threshold = Compile.get_fuse_threshold () in
  Compile.set_fuse_threshold 1;
  for trial = 0 to trials - 1 do
    let insns = rand_program p in
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
    let args ~tier =
      run_one ~tier ~trial_seed ~taxes ~init_gprs ~init_xmms ~data ~code
    in
    let interp = args ~tier:0 in
    let tier1 = args ~tier:1 in
    let tier2 = args ~tier:2 in
    let tier3 = args ~tier:3 in
    compare_snapshots ~trial ~what:"tier 1" interp tier1;
    compare_snapshots ~trial ~what:"tier 2" interp tier2;
    compare_snapshots ~trial ~what:"tier 3" interp tier3;
    (match interp.s_result with
    | Exec.Stopped Exec.Halted -> incr halted
    | Exec.Stopped (Exec.Faulted _) -> incr faulted
    | Exec.Out_of_fuel -> incr fuel
    | _ -> incr other)
  done;
  Compile.set_fuse_threshold saved_threshold;
  (* the corpus must actually exercise the interesting exits *)
  Alcotest.(check bool) "saw clean halts" true (!halted > 100);
  Alcotest.(check bool) "saw faults" true (!faulted > 50);
  Alcotest.(check bool) "saw fuel exhaustion" true (!fuel > 10);
  Alcotest.(check bool) "saw builtin/syscall exits" true (!other > 10)

(* ---- targeted compiled-tier tests ----------------------------------------- *)

let load_program mem insns = Memory.write_bytes mem text_base (Encode.list_to_bytes insns)

let fresh () =
  let cpu = Cpu.create () in
  let mem = Memory.create () in
  Memory.map mem ~addr:text_base ~len:4096;
  Memory.map mem ~addr:stack_base ~len:stack_len;
  Cpu.set cpu Reg.RSP 0x71800L;
  cpu.Cpu.rip <- text_base;
  (cpu, mem)

let run_to_halt cpu mem =
  cpu.Cpu.rip <- text_base;
  match Exec.run env cpu mem with
  | Exec.Stopped Exec.Halted -> ()
  | r -> Alcotest.fail ("expected hlt, got " ^ result_to_string r)

(* Patching text must reach the compiled tier through invalidation: the
   stale closures are dropped with the block and the patched bytes are
   re-decoded and re-compiled. *)
let test_patch_invalidates_compiled () =
  Alcotest.(check bool) "tier on" true (Compile.enabled ());
  let cpu, mem = fresh () in
  load_program mem [ Insn.Mov (Operand.reg Reg.RAX, Operand.imm 1L); Insn.Hlt ];
  run_to_halt cpu mem;
  Alcotest.check (Alcotest.testable (Fmt.fmt "0x%Lx") Int64.equal) "first run"
    1L (Cpu.get cpu Reg.RAX);
  let compiles_before = (Tcache.exec_stats cpu.Cpu.tcache).Tcache.compiles in
  Alcotest.(check bool) "block was compiled" true (compiles_before >= 1);
  (* patch in place, invalidate, re-run: new semantics must win *)
  let patched = Encode.list_to_bytes [ Insn.Mov (Operand.reg Reg.RAX, Operand.imm 2L); Insn.Hlt ] in
  Memory.write_bytes mem text_base patched;
  Cpu.invalidate_decode cpu ~addr:text_base ~len:(Bytes.length patched);
  Alcotest.(check bool) "invalidation counted" true
    ((Tcache.exec_stats cpu.Cpu.tcache).Tcache.invalidated >= 1);
  run_to_halt cpu mem;
  Alcotest.check (Alcotest.testable (Fmt.fmt "0x%Lx") Int64.equal) "patched run"
    2L (Cpu.get cpu Reg.RAX);
  Alcotest.(check bool) "patched block recompiled" true
    ((Tcache.exec_stats cpu.Cpu.tcache).Tcache.compiles > compiles_before)

(* A fork child reuses the parent's compiled blocks (shared Tcache
   records carry the translation), and divergence after the fork stays
   private to the side that patched. *)
let test_compiled_across_fork () =
  let cpu, mem = fresh () in
  load_program mem [ Insn.Mov (Operand.reg Reg.RAX, Operand.imm 7L); Insn.Hlt ];
  run_to_halt cpu mem;
  let ccpu = Cpu.clone cpu in
  let cmem = Memory.clone mem in
  run_to_halt ccpu cmem;
  Alcotest.check (Alcotest.testable (Fmt.fmt "0x%Lx") Int64.equal)
    "child reuses compiled block" 7L (Cpu.get ccpu Reg.RAX);
  (* child patches its private text; parent must be unaffected *)
  let patched = Encode.list_to_bytes [ Insn.Mov (Operand.reg Reg.RAX, Operand.imm 9L); Insn.Hlt ] in
  Memory.write_bytes cmem text_base patched;
  Cpu.invalidate_decode ccpu ~addr:text_base ~len:(Bytes.length patched);
  run_to_halt ccpu cmem;
  Alcotest.check (Alcotest.testable (Fmt.fmt "0x%Lx") Int64.equal)
    "child sees patch" 9L (Cpu.get ccpu Reg.RAX);
  run_to_halt cpu mem;
  Alcotest.check (Alcotest.testable (Fmt.fmt "0x%Lx") Int64.equal)
    "parent keeps original" 7L (Cpu.get cpu Reg.RAX)

(* Blocks decoded by one fork relative from a CoW-shared page are
   published into the shared table; the other relatives reuse them
   without re-decoding, and the payload anchor — not manual
   invalidation — protects each space once its pages diverge. *)
let test_published_block_and_anchor () =
  let cpu, mem = fresh () in
  let prog_b_addr = Int64.add text_base 0x100L in
  load_program mem [ Insn.Mov (Operand.reg Reg.RAX, Operand.imm 1L); Insn.Hlt ];
  Memory.write_bytes mem prog_b_addr
    (Encode.list_to_bytes [ Insn.Mov (Operand.reg Reg.RAX, Operand.imm 2L); Insn.Hlt ]);
  run_to_halt cpu mem;
  let ccpu = Cpu.clone cpu in
  let cmem = Memory.clone mem in
  Alcotest.(check bool) "tables aliased after fork" true
    (Tcache.is_shared ccpu.Cpu.tcache);
  (* child decodes prog B from the fork-shared text page *)
  ccpu.Cpu.rip <- prog_b_addr;
  (match Exec.run env ccpu cmem with
  | Exec.Stopped Exec.Halted -> ()
  | r -> Alcotest.fail ("child prog B: " ^ result_to_string r));
  Alcotest.(check bool) "publish did not materialise the table" true
    (Tcache.is_shared ccpu.Cpu.tcache);
  Alcotest.(check bool) "parent sees the published block" true
    (Tcache.find cpu.Cpu.tcache prog_b_addr <> None);
  let misses_before = (Tcache.exec_stats cpu.Cpu.tcache).Tcache.misses in
  cpu.Cpu.rip <- prog_b_addr;
  (match Exec.run env cpu mem with
  | Exec.Stopped Exec.Halted -> ()
  | r -> Alcotest.fail ("parent prog B: " ^ result_to_string r));
  Alcotest.check (Alcotest.testable (Fmt.fmt "0x%Lx") Int64.equal)
    "parent runs child's decode" 2L (Cpu.get cpu Reg.RAX);
  Alcotest.(check int) "parent hit, no re-decode" misses_before
    (Tcache.exec_stats cpu.Cpu.tcache).Tcache.misses;
  (* parent rewrites its copy of the page: CoW gives it a fresh payload,
     the published block's anchor goes stale for the parent only, and
     the next fetch re-decodes — no invalidate call involved *)
  Memory.write_bytes mem prog_b_addr
    (Encode.list_to_bytes [ Insn.Mov (Operand.reg Reg.RAX, Operand.imm 3L); Insn.Hlt ]);
  cpu.Cpu.rip <- prog_b_addr;
  (match Exec.run env cpu mem with
  | Exec.Stopped Exec.Halted -> ()
  | r -> Alcotest.fail ("parent patched prog B: " ^ result_to_string r));
  Alcotest.check (Alcotest.testable (Fmt.fmt "0x%Lx") Int64.equal)
    "stale anchor forces parent re-decode" 3L (Cpu.get cpu Reg.RAX);
  Alcotest.(check bool) "staleness counted as miss" true
    ((Tcache.exec_stats cpu.Cpu.tcache).Tcache.misses > misses_before);
  (* the child's payload object is unchanged, so its view is intact *)
  ccpu.Cpu.rip <- prog_b_addr;
  (match Exec.run env ccpu cmem with
  | Exec.Stopped Exec.Halted -> ()
  | r -> Alcotest.fail ("child prog B again: " ^ result_to_string r));
  Alcotest.check (Alcotest.testable (Fmt.fmt "0x%Lx") Int64.equal)
    "child still runs original bytes" 2L (Cpu.get ccpu Reg.RAX)

(* ---- tier-2 chaining / superblock tests ------------------------------------ *)

let block_b = Int64.add text_base 0x80L
let block_c = Int64.add text_base 0x100L

let mov_hlt reg v = Encode.list_to_bytes [ Insn.Mov (Operand.reg reg, Operand.imm v); Insn.Hlt ]

(* A: rax <- 1, jmp B.  B: rbx <- v, hlt.  Tier 2 patches A's exit to
   call B's closure directly (or fuses the pair), so re-running A never
   revisits the dispatcher for B: patching B exercises the link-epoch
   and fused-range invalidation paths, not the per-fetch anchor check. *)
let load_two_blocks mem ~b_value =
  load_program mem
    [ Insn.Mov (Operand.reg Reg.RAX, Operand.imm 1L); Insn.Jmp (Insn.Abs block_b) ];
  Memory.write_bytes mem block_b (mov_hlt Reg.RBX b_value)

let check_reg msg reg v cpu =
  Alcotest.check (Alcotest.testable (Fmt.fmt "0x%Lx") Int64.equal) msg v (Cpu.get cpu reg)

let with_fuse_threshold n f =
  let saved = Compile.get_fuse_threshold () in
  Compile.set_fuse_threshold n;
  Fun.protect ~finally:(fun () -> Compile.set_fuse_threshold saved) f

let test_chained_exit_invalidation () =
  with_fuse_threshold 1_000_000 @@ fun () ->
  let cpu, mem = fresh () in
  load_two_blocks mem ~b_value:2L;
  run_to_halt cpu mem;
  run_to_halt cpu mem;
  let stats = Tcache.exec_stats cpu.Cpu.tcache in
  Alcotest.(check bool) "exit link patched" true (stats.Tcache.chains >= 1);
  Alcotest.(check int) "no superblock at this threshold" 0 stats.Tcache.superblocks;
  check_reg "chained run" Reg.RBX 2L cpu;
  Memory.write_bytes mem block_b (mov_hlt Reg.RBX 9L);
  Cpu.invalidate_decode cpu ~addr:block_b ~len:16;
  run_to_halt cpu mem;
  check_reg "patched successor executed, not the stale link" Reg.RBX 9L cpu

let test_superblock_constituent_patch () =
  with_fuse_threshold 1 @@ fun () ->
  let cpu, mem = fresh () in
  load_two_blocks mem ~b_value:2L;
  run_to_halt cpu mem;
  run_to_halt cpu mem;
  let stats = Tcache.exec_stats cpu.Cpu.tcache in
  Alcotest.(check bool) "superblock formed" true (stats.Tcache.superblocks >= 1);
  run_to_halt cpu mem;
  check_reg "fused run" Reg.RBX 2L cpu;
  (* patch the *interior* constituent: B's own record is dropped by the
     range walk, and the head's fused_ranges entry must take the
     superblock (which tail-duplicated B's code under A's address) down
     with it *)
  Memory.write_bytes mem block_b (mov_hlt Reg.RBX 9L);
  Cpu.invalidate_decode cpu ~addr:block_b ~len:16;
  run_to_halt cpu mem;
  check_reg "patched constituent executed" Reg.RBX 9L cpu;
  check_reg "head semantics intact" Reg.RAX 1L cpu

let test_superblock_across_fork () =
  with_fuse_threshold 1 @@ fun () ->
  let cpu, mem = fresh () in
  load_two_blocks mem ~b_value:2L;
  run_to_halt cpu mem;
  run_to_halt cpu mem;
  Alcotest.(check bool) "superblock formed" true
    ((Tcache.exec_stats cpu.Cpu.tcache).Tcache.superblocks >= 1);
  let ccpu = Cpu.clone cpu in
  let cmem = Memory.clone mem in
  run_to_halt ccpu cmem;
  check_reg "child reuses the superblock" Reg.RBX 2L ccpu;
  (* the child patches its private copy of B and invalidates through the
     family-shared table: the fused head is dropped for every relative,
     yet each side must keep executing its own bytes *)
  Memory.write_bytes cmem block_b (mov_hlt Reg.RBX 9L);
  Cpu.invalidate_decode ccpu ~addr:block_b ~len:16;
  run_to_halt ccpu cmem;
  check_reg "child sees patch" Reg.RBX 9L ccpu;
  run_to_halt cpu mem;
  check_reg "parent keeps original" Reg.RBX 2L cpu;
  (* second family: fork while the superblock is live, then have the
     child write B's CoW-shared page with no invalidate call at all.
     A's page is untouched, so the dispatcher's head-anchor check
     passes; only the entry-time constituent-anchor sweep can strip the
     stale tail-duplicated copy of B *)
  let cpu, mem = fresh () in
  load_two_blocks mem ~b_value:2L;
  run_to_halt cpu mem;
  run_to_halt cpu mem;
  Alcotest.(check bool) "second family fused" true
    ((Tcache.exec_stats cpu.Cpu.tcache).Tcache.superblocks >= 1);
  let dcpu = Cpu.clone cpu in
  let dmem = Memory.clone mem in
  Memory.write_bytes dmem block_b (mov_hlt Reg.RBX 5L);
  run_to_halt dcpu dmem;
  check_reg "constituent anchor strips the fusion" Reg.RBX 5L dcpu;
  run_to_halt cpu mem;
  check_reg "parent unaffected by CoW divergence" Reg.RBX 2L cpu

(* A chain link remembers the space and payload generation of its last
   full anchor check and skips the check while both match. A CoW break
   with no invalidation — the child writes one byte into a chained
   successor's fork-shared text page — moves the child's generation, so
   its next hop re-checks the successor's anchor, finds it stale and
   bounces to the dispatcher, which decodes the new bytes. The successor
   sits on its own page: the dispatcher's head-anchor check cannot see
   the write, only the link can. *)
let test_chain_link_generation () =
  with_fuse_threshold 1_000_000 @@ fun () ->
  let succ = Int64.add text_base 0x1000L in
  let cpu, mem = fresh () in
  Memory.map mem ~addr:succ ~len:4096;
  load_program mem
    [ Insn.Bin (Insn.Add, Operand.reg Reg.RCX, Operand.imm 1L); Insn.Jmp (Insn.Abs succ) ];
  let tail v =
    Encode.list_to_bytes
      [
        Insn.Mov (Operand.reg Reg.RBX, Operand.imm v);
        Insn.Bin (Insn.Cmp, Operand.reg Reg.RCX, Operand.imm 8L);
        Insn.Jcc (Insn.L, Insn.Abs text_base);
        Insn.Hlt;
      ]
  in
  Memory.write_bytes mem succ (tail 2L);
  let loop cpu mem =
    Cpu.set cpu Reg.RCX 0L;
    run_to_halt cpu mem
  in
  loop cpu mem;
  check_reg "parent loop" Reg.RBX 2L cpu;
  let ccpu = Cpu.clone cpu in
  let cmem = Memory.clone mem in
  let stats () = Tcache.exec_stats ccpu.Cpu.tcache in
  let hops = (stats ()).Tcache.chain_hops in
  loop ccpu cmem;
  check_reg "child loop" Reg.RBX 2L ccpu;
  Alcotest.(check bool) "child hopped through its own links" true
    ((stats ()).Tcache.chain_hops > hops + 8);
  let old_b = tail 2L and new_b = tail 9L in
  let i = ref 0 in
  while Bytes.get old_b !i = Bytes.get new_b !i do incr i done;
  let gen = Memory.generation cmem and invalidated = (stats ()).Tcache.invalidated in
  Memory.write_u8 cmem (Int64.add succ (Int64.of_int !i)) (Char.code (Bytes.get new_b !i));
  Alcotest.(check bool) "CoW break moved the generation" true (Memory.generation cmem > gen);
  Alcotest.(check int) "no invalidation" invalidated (stats ()).Tcache.invalidated;
  loop ccpu cmem;
  check_reg "child's next hop runs the new bytes" Reg.RBX 9L ccpu;
  loop cpu mem;
  check_reg "parent keeps the old bytes" Reg.RBX 2L cpu

(* Superblock fusion must not perturb profiler attribution: the fused
   closure retires a whole chain in one sweep, yet its per-constituent
   self-notes must reproduce the per-block rows byte for byte —
   including the insn/call tax terms. RAX is hammered in every block so
   the tier-3 run genuinely caches it: the register-caching chain must
   attribute through the same prefix-sum notes as the per-step loop. *)
let test_superblock_profile_attribution () =
  with_fuse_threshold 1 @@ fun () ->
  let profile_rows ~tier =
    Compile.set_tier tier;
    Telemetry.Profile.reset ();
    Telemetry.Profile.set_enabled true;
    let cpu, mem = fresh () in
    load_program mem
      [ Insn.Mov (Operand.reg Reg.RAX, Operand.imm 1L);
        Insn.Bin (Insn.Add, Operand.reg Reg.RAX, Operand.imm 2L);
        Insn.Jmp (Insn.Abs block_b) ];
    Memory.write_bytes mem block_b
      (Encode.list_to_bytes
         [ Insn.Bin (Insn.Add, Operand.reg Reg.RAX, Operand.imm 3L);
           Insn.Mov (Operand.reg Reg.RBX, Operand.imm 2L);
           Insn.Jmp (Insn.Abs block_c) ]);
    Memory.write_bytes mem block_c
      (Encode.list_to_bytes
         [ Insn.Bin (Insn.Add, Operand.reg Reg.RAX, Operand.imm 4L);
           Insn.Mov (Operand.reg Reg.RCX, Operand.imm 3L);
           Insn.Hlt ]);
    cpu.Cpu.insn_tax <- 2;
    cpu.Cpu.call_tax <- 7;
    for _ = 1 to 10 do
      run_to_halt cpu mem
    done;
    Telemetry.Profile.set_enabled false;
    let rows = Telemetry.Profile.dump () in
    Telemetry.Profile.reset ();
    Compile.set_tier 3;
    (rows, Tcache.exec_stats cpu.Cpu.tcache)
  in
  let rows1, _ = profile_rows ~tier:1 in
  let rows2, stats2 = profile_rows ~tier:2 in
  let rows3, stats3 = profile_rows ~tier:3 in
  Alcotest.(check bool) "tier-2 run actually fused" true (stats2.Tcache.superblocks >= 1);
  Alcotest.(check bool) "tier-3 run actually fused" true (stats3.Tcache.superblocks >= 1);
  Alcotest.(check bool) "profile saw the blocks" true (List.length rows1 >= 3);
  let show rows =
    String.concat "; "
      (List.map
         (fun r ->
           Printf.sprintf "0x%Lx: %d cycles / %d blocks" r.Telemetry.Profile.addr
             r.Telemetry.Profile.cycles r.Telemetry.Profile.blocks)
         rows)
  in
  let check_same what rows =
    if rows1 <> rows then
      Alcotest.failf "attribution diverges under fusion:\n  tier 1: %s\n  %s: %s"
        (show rows1) what (show rows)
  in
  check_same "tier 2" rows2;
  check_same "tier 3" rows3

(* ---- tier-3 register caching ----------------------------------------------- *)

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

(* The caching heuristic is deterministic: most-accessed register first,
   only registers worth an entry reload + exit spill qualify, and a
   block containing rdtsc still translates (against the static prefix
   charge) rather than falling back to the interpreter. *)
let test_cache_plan_and_rdtsc_compiles () =
  let b =
    mk_block ~start:text_base
      [
        Insn.Bin (Insn.Add, Operand.reg Reg.RBX, Operand.imm 1L);
        Insn.Bin (Insn.Add, Operand.reg Reg.RBX, Operand.reg Reg.RCX);
        Insn.Bin (Insn.Add, Operand.reg Reg.RCX, Operand.imm 2L);
        Insn.Mov (Operand.reg Reg.RCX, Operand.reg Reg.RBX);
        Insn.Rdtsc;
        Insn.Hlt;
      ]
  in
  (match Compile.compile ~is_builtin:no_builtin b with
  | Compile.Code c ->
    Alcotest.(check (array int))
      "plan picks the hot gprs, hottest first"
      [| Reg.index Reg.RBX; Reg.index Reg.RCX |]
      (Compile.cached_regs c)
  | _ -> Alcotest.fail "rdtsc block must still compile");
  (* rax/rdx are written once each by rdtsc: below the profitability
     bar, so they must not appear in the plan *)
  let cold =
    mk_block ~start:text_base [ Insn.Rdtsc; Insn.Hlt ]
  in
  match Compile.compile ~is_builtin:no_builtin cold with
  | Compile.Code c ->
    Alcotest.(check (array int)) "cold block caches nothing" [||]
      (Compile.cached_regs c)
  | _ -> Alcotest.fail "cold rdtsc block must still compile"

let int64_t = Alcotest.testable (Fmt.fmt "0x%Lx") Int64.equal

(* Fault-exact spills: trap mid-superblock on a store page-fault while a
   cached register is live (modified since entry) in a closure local.
   Every interpreter-visible fact — gprs, flags, rip, cycles, fault
   identity — must match a tier-1 replay of the same machine. *)
let test_spill_exactness_on_fault () =
  with_fuse_threshold 1 @@ fun () ->
  let run_at tier =
    Compile.set_tier tier;
    Fun.protect ~finally:(fun () -> Compile.set_tier 3) @@ fun () ->
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
    cpu.Cpu.insn_tax <- 2;
    cpu.Cpu.call_tax <- 7;
    (* warm up with the store aimed at mapped data: two halting runs
       form the superblock, whose fused IR caches rbx *)
    Cpu.set cpu Reg.R13 data_base;
    run_to_halt cpu mem;
    run_to_halt cpu mem;
    if tier = 3 then begin
      Alcotest.(check bool) "superblock formed" true
        ((Tcache.exec_stats cpu.Cpu.tcache).Tcache.superblocks >= 1);
      match Tcache.find cpu.Cpu.tcache text_base with
      | Some blk -> (
        match blk.Tcache.compiled with
        | Compile.Code c ->
          Alcotest.(check (array int)) "rbx is cached in the fused chain"
            [| Reg.index Reg.RBX |] (Compile.cached_regs c)
        | _ -> Alcotest.fail "fused head has no compiled slot")
      | None -> Alcotest.fail "fused head record missing"
    end;
    (* aim the store at unmapped space: the chain faults with rbx live
       in a closure local, two adds retired, the +100 not *)
    Cpu.set cpu Reg.R13 0x9000000L;
    Cpu.set cpu Reg.RBX 0L;
    cpu.Cpu.rip <- text_base;
    let result = Exec.run env cpu mem in
    ( result,
      Array.copy cpu.Cpu.gprs,
      ( cpu.Cpu.flags.Cpu.zf,
        cpu.Cpu.flags.Cpu.sf,
        cpu.Cpu.flags.Cpu.cf,
        cpu.Cpu.flags.Cpu.of_ ),
      cpu.Cpu.rip,
      cpu.Cpu.cycles )
  in
  let r1, g1, f1, rip1, c1 = run_at 1 in
  let r3, g3, f3, rip3, c3 = run_at 3 in
  (match r3 with
  | Exec.Stopped (Exec.Faulted _) -> ()
  | r -> Alcotest.fail ("expected a page fault, got " ^ result_to_string r));
  Alcotest.(check string) "fault identity matches tier 1"
    (result_to_string r1) (result_to_string r3);
  for i = 0 to 15 do
    Alcotest.check int64_t
      (Printf.sprintf "gpr %s at fault" (Reg.name (Reg.of_index_exn i)))
      g1.(i) g3.(i)
  done;
  Alcotest.(check bool) "flags at fault" true (f1 = f3);
  Alcotest.check int64_t "rip points at the faulting store" rip1 rip3;
  Alcotest.check int64_t "cycles at fault" c1 c3;
  (* the spilled value is the architecturally current one *)
  Alcotest.check int64_t "rbx shows exactly the retired adds" 6L
    g3.(Reg.index Reg.RBX)

(* patch_text inside the cached region at tier 3: invalidating an
   interior constituent must take the register-caching chain down with
   the superblock, and the patched bytes must retranslate. *)
let test_tier3_patch_in_cached_region () =
  with_fuse_threshold 1 @@ fun () ->
  Compile.set_tier 3;
  let cpu, mem = fresh () in
  load_program mem
    [
      Insn.Bin (Insn.Add, Operand.reg Reg.RBX, Operand.imm 1L);
      Insn.Bin (Insn.Add, Operand.reg Reg.RBX, Operand.imm 2L);
      Insn.Jmp (Insn.Abs block_b);
    ];
  let b_bytes v =
    Encode.list_to_bytes
      [ Insn.Bin (Insn.Add, Operand.reg Reg.RBX, Operand.imm v); Insn.Hlt ]
  in
  Memory.write_bytes mem block_b (b_bytes 4L);
  run_to_halt cpu mem;
  run_to_halt cpu mem;
  Alcotest.(check bool) "superblock formed" true
    ((Tcache.exec_stats cpu.Cpu.tcache).Tcache.superblocks >= 1);
  (match Tcache.find cpu.Cpu.tcache text_base with
  | Some blk -> (
    match blk.Tcache.compiled with
    | Compile.Code c ->
      Alcotest.(check (array int)) "rbx cached in the superblock"
        [| Reg.index Reg.RBX |] (Compile.cached_regs c)
    | _ -> Alcotest.fail "head has no compiled slot")
  | None -> Alcotest.fail "head record missing");
  Cpu.set cpu Reg.RBX 0L;
  run_to_halt cpu mem;
  check_reg "fused run through the cached chain" Reg.RBX 7L cpu;
  Memory.write_bytes mem block_b (b_bytes 40L);
  Cpu.invalidate_decode cpu ~addr:block_b ~len:16;
  Cpu.set cpu Reg.RBX 0L;
  run_to_halt cpu mem;
  check_reg "patched constituent executed, stale cached chain dropped"
    Reg.RBX 43L cpu

let () =
  Alcotest.run "compile"
    [
      ( "differential",
        [
          Alcotest.test_case
            (Printf.sprintf "interpreter vs compiled tier, %d random programs"
               trials)
            `Slow test_differential_fuzz;
        ] );
      ( "targeted",
        [
          Alcotest.test_case "patch_text invalidates compiled block" `Quick
            test_patch_invalidates_compiled;
          Alcotest.test_case "compiled blocks across CoW fork" `Quick
            test_compiled_across_fork;
          Alcotest.test_case "published block + anchor staleness" `Quick
            test_published_block_and_anchor;
        ] );
      ( "tier-2",
        [
          Alcotest.test_case "patching a chained successor unlinks it" `Quick
            test_chained_exit_invalidation;
          Alcotest.test_case "patching inside a superblock drops the fusion"
            `Quick test_superblock_constituent_patch;
          Alcotest.test_case "superblock invalidation across CoW fork" `Quick
            test_superblock_across_fork;
          Alcotest.test_case "CoW break re-checks a chain link's successor" `Quick
            test_chain_link_generation;
          Alcotest.test_case "profile attribution identical under fusion"
            `Quick test_superblock_profile_attribution;
        ] );
      ( "tier-3",
        [
          Alcotest.test_case "normalize rewrites mov r,r to Nop_cost" `Quick
            test_normalize_self_move;
          Alcotest.test_case "cache plan is deterministic; rdtsc compiles"
            `Quick test_cache_plan_and_rdtsc_compiles;
          Alcotest.test_case "spills are fault-exact mid-superblock" `Quick
            test_spill_exactness_on_fault;
          Alcotest.test_case "patching inside the cached region retranslates"
            `Quick test_tier3_patch_in_cached_region;
        ] );
    ]
