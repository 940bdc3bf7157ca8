(* Closure compilation of Tcache blocks, lowered from the explicit
   {!Ir} in passes (lift -> normalize -> fuse -> emit): every decision
   that depends only on the instruction encoding — operand shape,
   immediate values, addressing mode, builtin resolution for direct
   calls — is taken once here, so the retire loop left in [run_code] is
   an array walk over pre-specialized closures. Cycle charging and rip
   updates are deferred to block exit (see the protocol notes on
   [run_code]); both were per-instruction allocations in the interpreter
   (boxed Int64 for [Cpu.add_cycles], caml_modify for rip).

   Tier 2 ([run_tier2]) additionally chains compiled blocks through
   their exits — a taken/fall-through/return transfer jumps straight
   into the successor's translation instead of returning to
   [Exec.step_block]'s dispatch loop — and fuses hot unconditional
   chains into superblock translations. See the link-validity notes on
   [link_live] for how invalidation and CoW forks unlink stale
   successors.

   Tier 3 ([emit3]) caches the translation's hottest guest registers in
   closure "locals" — arguments threaded through a continuation chain —
   so their reads and writes stop going through the [Cpu.gprs] array
   (and its caml_modify write barrier) at every access. The spill
   protocol notes on [emit3] explain why faults still observe exact
   architectural state. *)

module I = Isa.Insn
module O = Isa.Operand

type outcome = Compiled.outcome =
  | Running
  | Builtin of string
  | Syscall_trap
  | Halted
  | Faulted of Fault.t

type op = Cpu.t -> Memory.t -> outcome

type builtin_fn = Cpu.t -> Memory.t -> int64

(* A patched exit: the successor translation this code may enter
   directly, valid only for the address space and invalidation epoch it
   was resolved under (a fork relative or a post-invalidation run must
   re-resolve — see [link_live]). *)
type link = {
  mutable l_space : Tcache.t option;  (* the space the link was resolved in *)
  mutable l_epoch : int;
  mutable l_addr : int64;  (* entry rip the target translates *)
  mutable l_target : code option;
  mutable l_mem : Memory.t option;  (* space of the last full anchor check *)
  mutable l_gen : int;  (* its payload generation at that check *)
}

and code = {
  ops : op array;
  addrs : int64 array;  (* address of each instruction *)
  nexts : int64 array;  (* fall-through rip of each instruction *)
  csum : int array;  (* csum.(k) = static cycles of the first k insns *)
  crsum : int array;  (* crsum.(k) = call/ret insns among the first k *)
  sets_rip : bool array;
      (* closure writes rip when returning Running — terminators, which
         superblock fusion can place mid-array *)
  exit_ : Ir.exit_shape;
  blocks : Tcache.block array;  (* constituent blocks, head first *)
  starts : int array;  (* first instruction index of each constituent *)
  key : int64 -> string option;
      (* the [is_builtin] the code was specialized against; compare with
         (==) — code compiled for another environment must be rebuilt *)
  mutable hot : int;  (* tier-2 entry count, drives superblock formation *)
  mutable fuse_tried : bool;
  link_a : link;  (* taken / unconditional / dynamic target cache *)
  link_b : link;  (* fall-through side of a two-way branch *)
  cached : int array;  (* tier-3 cached gpr indices, [||] when t3 = None *)
  t3 : (Cpu.t -> Memory.t -> outcome * int) option;
      (* tier-3 register-caching chain: runs the whole translation (no
         fuel boundary inside, so only entered with fuel >= length),
         returning [run_code]'s (outcome, retired) — the caller settles
         cycles with [charge_exit] exactly like [run_code]'s finish *)
}

type Compiled.slot += Code of code | Uncompilable

(* Tier switch, read once per block dispatch. Atomic so bench/tests can
   force a tier while campaign domains are quiescent.
   0 = interpreter, 1 = per-block closures (PR 3), 2 = chained/fused
   (PR 7), 3 = chained/fused with register caching (default). *)
let tier_flag = Atomic.make 3

let set_tier n =
  if n < 0 || n > 3 then invalid_arg "Compile.set_tier: expected 0, 1, 2 or 3";
  Atomic.set tier_flag n

let tier () = Atomic.get tier_flag
let set_enabled b = set_tier (if b then 3 else 0)
let enabled () = tier () > 0

(* Entries before a code becomes a superblock-formation candidate.
   Tests force 1 to fuse immediately; the default keeps cold paths out
   of the fused store. *)
let fuse_threshold = Atomic.make 16
let set_fuse_threshold n = Atomic.set fuse_threshold (Stdlib.max 1 n)
let get_fuse_threshold () = Atomic.get fuse_threshold

(* ---- Semantics helpers shared with the interpreter tier ------------ *)
(* [Exec] aliases these; keeping one definition means the two tiers
   cannot drift on flag arithmetic or stack discipline. *)

let set_logic_flags (f : Cpu.flags) r =
  f.zf <- Int64.equal r 0L;
  f.sf <- Int64.compare r 0L < 0;
  f.cf <- false;
  f.of_ <- false

let set_add_flags (f : Cpu.flags) a b r =
  f.zf <- Int64.equal r 0L;
  f.sf <- Int64.compare r 0L < 0;
  f.cf <- Int64.unsigned_compare r a < 0;
  f.of_ <- Int64.compare a 0L < 0 = (Int64.compare b 0L < 0)
           && Int64.compare r 0L < 0 <> (Int64.compare a 0L < 0)

let set_sub_flags (f : Cpu.flags) a b r =
  f.zf <- Int64.equal r 0L;
  f.sf <- Int64.compare r 0L < 0;
  f.cf <- Int64.unsigned_compare a b < 0;
  f.of_ <- Int64.compare a 0L < 0 <> (Int64.compare b 0L < 0)
           && Int64.compare r 0L < 0 <> (Int64.compare a 0L < 0)

let cond_holds (f : Cpu.flags) = function
  | I.E -> f.zf
  | NE -> not f.zf
  | L -> f.sf <> f.of_
  | LE -> f.zf || f.sf <> f.of_
  | G -> (not f.zf) && f.sf = f.of_
  | GE -> f.sf = f.of_
  | B -> f.cf
  | BE -> f.cf || f.zf
  | A -> (not f.cf) && not f.zf
  | AE -> not f.cf
  | S -> f.sf
  | NS -> not f.sf

let push cpu mem v =
  let rsp = Int64.sub (Cpu.get cpu Isa.Reg.RSP) 8L in
  Cpu.set cpu Isa.Reg.RSP rsp;
  Memory.write_u64 mem rsp v

let pop cpu mem =
  let rsp = Cpu.get cpu Isa.Reg.RSP in
  let v = Memory.read_u64 mem rsp in
  Cpu.set cpu Isa.Reg.RSP (Int64.add rsp 8L);
  v

let xmm_to_bytes (lo, hi) =
  let b = Bytes.create 16 in
  Bytes.set_int64_le b 0 lo;
  Bytes.set_int64_le b 8 hi;
  b

let xmm_of_bytes b = (Bytes.get_int64_le b 0, Bytes.get_int64_le b 8)

(* ---- Operand specialization ---------------------------------------- *)

let rsp_i = Isa.Reg.index Isa.Reg.RSP
let rbp_i = Isa.Reg.index Isa.Reg.RBP
let rax_i = Isa.Reg.index Isa.Reg.RAX
let rdx_i = Isa.Reg.index Isa.Reg.RDX

(* Effective address, one closure per addressing mode. Int64 addition is
   associative modulo 2^64, so the specialized sums equal the
   interpreter's seg + base + (index*scale + disp). *)
let rec ea_of (m : O.mem) : Cpu.t -> int64 =
  match (m.O.seg_fs, m.O.base, m.O.index) with
  | true, None, None ->
    let d = m.O.disp in
    fun cpu -> Int64.add cpu.Cpu.fs_base d
  | true, _, _ ->
    let inner = ea_of { m with O.seg_fs = false } in
    fun cpu -> Int64.add cpu.Cpu.fs_base (inner cpu)
  | false, None, None ->
    let d = m.O.disp in
    fun _ -> d
  | false, Some b, None ->
    let b = Isa.Reg.index b and d = m.O.disp in
    fun cpu -> Int64.add (Array.unsafe_get cpu.Cpu.gprs b) d
  | false, None, Some (x, s) ->
    let x = Isa.Reg.index x in
    let s = Int64.of_int (O.scale_factor s) and d = m.O.disp in
    fun cpu -> Int64.add (Int64.mul (Array.unsafe_get cpu.Cpu.gprs x) s) d
  | false, Some b, Some (x, s) ->
    let b = Isa.Reg.index b and x = Isa.Reg.index x in
    let s = Int64.of_int (O.scale_factor s) and d = m.O.disp in
    fun cpu ->
      Int64.add
        (Array.unsafe_get cpu.Cpu.gprs b)
        (Int64.add (Int64.mul (Array.unsafe_get cpu.Cpu.gprs x) s) d)

let store_to_imm addr = Fault.Trap (Fault.Bad_instruction (addr, "store to immediate"))

let read64_of : O.t -> Cpu.t -> Memory.t -> int64 = function
  | O.Reg r ->
    let i = Isa.Reg.index r in
    fun cpu _ -> Array.unsafe_get cpu.Cpu.gprs i
  | O.Imm v -> fun _ _ -> v
  | O.Mem m ->
    let ea = ea_of m in
    fun cpu mem -> Memory.read_u64 mem (ea cpu)

let write64_of addr : O.t -> Cpu.t -> Memory.t -> int64 -> unit = function
  | O.Reg r ->
    let i = Isa.Reg.index r in
    fun cpu _ v -> Array.unsafe_set cpu.Cpu.gprs i v
  | O.Mem m ->
    let ea = ea_of m in
    fun cpu mem v -> Memory.write_u64 mem (ea cpu) v
  | O.Imm _ -> fun _ _ _ -> raise (store_to_imm addr)

let read8_of : O.t -> Cpu.t -> Memory.t -> int = function
  | O.Reg r ->
    let i = Isa.Reg.index r in
    fun cpu _ -> Int64.to_int (Int64.logand (Array.unsafe_get cpu.Cpu.gprs i) 0xFFL)
  | O.Imm v ->
    let v = Int64.to_int (Int64.logand v 0xFFL) in
    fun _ _ -> v
  | O.Mem m ->
    let ea = ea_of m in
    fun cpu mem -> Memory.read_u8 mem (ea cpu)

let write8_of addr : O.t -> Cpu.t -> Memory.t -> int -> unit = function
  | O.Reg r ->
    let i = Isa.Reg.index r in
    fun cpu _ v ->
      (* Low-byte merge, like real mov to an 8-bit subregister. *)
      let old = Array.unsafe_get cpu.Cpu.gprs i in
      Array.unsafe_set cpu.Cpu.gprs i
        (Int64.logor (Int64.logand old (-256L)) (Int64.of_int (v land 0xFF)))
  | O.Mem m ->
    let ea = ea_of m in
    fun cpu mem v -> Memory.write_u8 mem (ea cpu) v
  | O.Imm _ -> fun _ _ _ -> raise (store_to_imm addr)

let read32_of : O.t -> Cpu.t -> Memory.t -> int64 = function
  | O.Reg r ->
    let i = Isa.Reg.index r in
    fun cpu _ -> Int64.logand (Array.unsafe_get cpu.Cpu.gprs i) 0xFFFFFFFFL
  | O.Imm v ->
    let v = Int64.logand v 0xFFFFFFFFL in
    fun _ _ -> v
  | O.Mem m ->
    let ea = ea_of m in
    fun cpu mem -> Memory.read_u32 mem (ea cpu)

let write32_of addr : O.t -> Cpu.t -> Memory.t -> int64 -> unit = function
  | O.Reg r ->
    let i = Isa.Reg.index r in
    fun cpu _ v -> Array.unsafe_set cpu.Cpu.gprs i (Int64.logand v 0xFFFFFFFFL)
  | O.Mem m ->
    let ea = ea_of m in
    fun cpu mem v -> Memory.write_u32 mem (ea cpu) v
  | O.Imm _ -> fun _ _ _ -> raise (store_to_imm addr)

let cond_test : I.cond -> Cpu.flags -> bool = function
  | I.E -> fun f -> f.Cpu.zf
  | I.NE -> fun f -> not f.Cpu.zf
  | I.L -> fun f -> f.Cpu.sf <> f.Cpu.of_
  | I.LE -> fun f -> f.Cpu.zf || f.Cpu.sf <> f.Cpu.of_
  | I.G -> fun f -> (not f.Cpu.zf) && f.Cpu.sf = f.Cpu.of_
  | I.GE -> fun f -> f.Cpu.sf = f.Cpu.of_
  | I.B -> fun f -> f.Cpu.cf
  | I.BE -> fun f -> f.Cpu.cf || f.Cpu.zf
  | I.A -> fun f -> (not f.Cpu.cf) && not f.Cpu.zf
  | I.AE -> fun f -> not f.Cpu.cf
  | I.S -> fun f -> f.Cpu.sf
  | I.NS -> fun f -> not f.Cpu.sf

(* ---- Per-instruction translation ----------------------------------- *)

(* [addr] is the instruction's own address (what cpu.rip reads during
   its interpretation — rip itself is stale while compiled code runs),
   [next] its fall-through rip. Each closure must mutate state in the
   interpreter's order so a fault mid-instruction leaves identical
   partial state; comments call out the spots where that order is
   load-bearing. *)
let insn_op ~is_builtin ~inline ~addr ~next (insn : I.t) : op =
  match insn with
  | I.Nop -> fun _ _ -> Running
  (* mov, fused operand shapes first *)
  | I.Mov (O.Reg d, O.Imm v) ->
    let d = Isa.Reg.index d in
    fun cpu _ ->
      Array.unsafe_set cpu.Cpu.gprs d v;
      Running
  | I.Mov (O.Reg d, O.Reg s) ->
    let d = Isa.Reg.index d and s = Isa.Reg.index s in
    fun cpu _ ->
      Array.unsafe_set cpu.Cpu.gprs d (Array.unsafe_get cpu.Cpu.gprs s);
      Running
  | I.Mov (O.Reg d, O.Mem m) ->
    let d = Isa.Reg.index d and ea = ea_of m in
    fun cpu mem ->
      Array.unsafe_set cpu.Cpu.gprs d (Memory.read_u64 mem (ea cpu));
      Running
  | I.Mov (O.Mem m, O.Reg s) ->
    let ea = ea_of m and s = Isa.Reg.index s in
    fun cpu mem ->
      Memory.write_u64 mem (ea cpu) (Array.unsafe_get cpu.Cpu.gprs s);
      Running
  | I.Mov (O.Mem m, O.Imm v) ->
    let ea = ea_of m in
    fun cpu mem ->
      Memory.write_u64 mem (ea cpu) v;
      Running
  | I.Mov (dst, src) ->
    let rd = read64_of src and wr = write64_of addr dst in
    fun cpu mem ->
      (* source read faults before a store-to-immediate traps *)
      let v = rd cpu mem in
      wr cpu mem v;
      Running
  | I.Movb (dst, src) ->
    let rd = read8_of src and wr = write8_of addr dst in
    fun cpu mem ->
      let v = rd cpu mem in
      wr cpu mem v;
      Running
  | I.Movl (dst, src) ->
    let rd = read32_of src and wr = write32_of addr dst in
    fun cpu mem ->
      let v = rd cpu mem in
      wr cpu mem v;
      Running
  | I.Lea (r, m) ->
    let r = Isa.Reg.index r and ea = ea_of m in
    fun cpu _ ->
      Array.unsafe_set cpu.Cpu.gprs r (ea cpu);
      Running
  | I.Push (O.Reg s) ->
    let s = Isa.Reg.index s in
    fun cpu mem ->
      (* value read before rsp moves: push rsp stores the old rsp *)
      let v = Array.unsafe_get cpu.Cpu.gprs s in
      let rsp = Int64.sub (Array.unsafe_get cpu.Cpu.gprs rsp_i) 8L in
      Array.unsafe_set cpu.Cpu.gprs rsp_i rsp;
      Memory.write_u64 mem rsp v;
      Running
  | I.Push (O.Imm v) ->
    fun cpu mem ->
      let rsp = Int64.sub (Array.unsafe_get cpu.Cpu.gprs rsp_i) 8L in
      Array.unsafe_set cpu.Cpu.gprs rsp_i rsp;
      Memory.write_u64 mem rsp v;
      Running
  | I.Push op ->
    let rd = read64_of op in
    fun cpu mem ->
      let v = rd cpu mem in
      push cpu mem v;
      Running
  | I.Pop (O.Reg d) ->
    let d = Isa.Reg.index d in
    fun cpu mem ->
      let rsp = Array.unsafe_get cpu.Cpu.gprs rsp_i in
      let v = Memory.read_u64 mem rsp in
      (* rsp bump before the destination write: pop rsp ends at v *)
      Array.unsafe_set cpu.Cpu.gprs rsp_i (Int64.add rsp 8L);
      Array.unsafe_set cpu.Cpu.gprs d v;
      Running
  | I.Pop op ->
    let wr = write64_of addr op in
    fun cpu mem ->
      let v = pop cpu mem in
      wr cpu mem v;
      Running
  (* binops, fused shapes for the compiler's stack/compare idioms *)
  | I.Bin (I.Add, O.Reg d, O.Imm v) ->
    let d = Isa.Reg.index d in
    fun cpu _ ->
      let a = Array.unsafe_get cpu.Cpu.gprs d in
      let r = Int64.add a v in
      set_add_flags cpu.Cpu.flags a v r;
      Array.unsafe_set cpu.Cpu.gprs d r;
      Running
  | I.Bin (I.Sub, O.Reg d, O.Imm v) ->
    let d = Isa.Reg.index d in
    fun cpu _ ->
      let a = Array.unsafe_get cpu.Cpu.gprs d in
      let r = Int64.sub a v in
      set_sub_flags cpu.Cpu.flags a v r;
      Array.unsafe_set cpu.Cpu.gprs d r;
      Running
  | I.Bin (I.Cmp, O.Reg d, O.Imm v) ->
    let d = Isa.Reg.index d in
    fun cpu _ ->
      let a = Array.unsafe_get cpu.Cpu.gprs d in
      set_sub_flags cpu.Cpu.flags a v (Int64.sub a v);
      Running
  | I.Bin (I.Cmp, O.Reg d, O.Reg s) ->
    let d = Isa.Reg.index d and s = Isa.Reg.index s in
    fun cpu _ ->
      let a = Array.unsafe_get cpu.Cpu.gprs d in
      let b = Array.unsafe_get cpu.Cpu.gprs s in
      set_sub_flags cpu.Cpu.flags a b (Int64.sub a b);
      Running
  | I.Bin (bop, dst, src) -> (
    let rd_d = read64_of dst and rd_s = read64_of src in
    match bop with
    | I.Add ->
      let wr = write64_of addr dst in
      fun cpu mem ->
        let a = rd_d cpu mem in
        let b = rd_s cpu mem in
        let r = Int64.add a b in
        (* flags settle before the destination write, so a faulting
           mem-dst store still leaves them updated (as interpreted) *)
        set_add_flags cpu.Cpu.flags a b r;
        wr cpu mem r;
        Running
    | I.Sub ->
      let wr = write64_of addr dst in
      fun cpu mem ->
        let a = rd_d cpu mem in
        let b = rd_s cpu mem in
        let r = Int64.sub a b in
        set_sub_flags cpu.Cpu.flags a b r;
        wr cpu mem r;
        Running
    | I.Xor ->
      let wr = write64_of addr dst in
      fun cpu mem ->
        let a = rd_d cpu mem in
        let b = rd_s cpu mem in
        let r = Int64.logxor a b in
        set_logic_flags cpu.Cpu.flags r;
        wr cpu mem r;
        Running
    | I.And ->
      let wr = write64_of addr dst in
      fun cpu mem ->
        let a = rd_d cpu mem in
        let b = rd_s cpu mem in
        let r = Int64.logand a b in
        set_logic_flags cpu.Cpu.flags r;
        wr cpu mem r;
        Running
    | I.Or ->
      let wr = write64_of addr dst in
      fun cpu mem ->
        let a = rd_d cpu mem in
        let b = rd_s cpu mem in
        let r = Int64.logor a b in
        set_logic_flags cpu.Cpu.flags r;
        wr cpu mem r;
        Running
    | I.Cmp ->
      fun cpu mem ->
        let a = rd_d cpu mem in
        let b = rd_s cpu mem in
        set_sub_flags cpu.Cpu.flags a b (Int64.sub a b);
        Running
    | I.Test ->
      fun cpu mem ->
        let a = rd_d cpu mem in
        let b = rd_s cpu mem in
        set_logic_flags cpu.Cpu.flags (Int64.logand a b);
        Running
    | I.Imul ->
      let wr = write64_of addr dst in
      fun cpu mem ->
        let a = rd_d cpu mem in
        let b = rd_s cpu mem in
        let r = Int64.mul a b in
        set_logic_flags cpu.Cpu.flags r;
        wr cpu mem r;
        Running
    | I.Idiv ->
      let wr = write64_of addr dst in
      fun cpu mem ->
        let a = rd_d cpu mem in
        let b = rd_s cpu mem in
        if Int64.equal b 0L then
          raise (Fault.Trap (Fault.Bad_instruction (addr, "division by zero")));
        if Int64.equal a Int64.min_int && Int64.equal b (-1L) then
          raise (Fault.Trap (Fault.Bad_instruction (addr, "division overflow")));
        let r = Int64.div a b in
        set_logic_flags cpu.Cpu.flags r;
        wr cpu mem r;
        Running
    | I.Irem ->
      let wr = write64_of addr dst in
      fun cpu mem ->
        let a = rd_d cpu mem in
        let b = rd_s cpu mem in
        if Int64.equal b 0L then
          raise (Fault.Trap (Fault.Bad_instruction (addr, "division by zero")));
        if Int64.equal a Int64.min_int && Int64.equal b (-1L) then
          raise (Fault.Trap (Fault.Bad_instruction (addr, "division overflow")));
        let r = Int64.rem a b in
        set_logic_flags cpu.Cpu.flags r;
        wr cpu mem r;
        Running)
  | I.Shift (sop, dst, k) -> (
    match k land 63 with
    (* masked count 0: no read, no flag or destination change *)
    | 0 -> fun _ _ -> Running
    | k ->
      let rd = read64_of dst and wr = write64_of addr dst in
      let shift =
        match sop with
        | I.Shl -> fun a -> Int64.shift_left a k
        | I.Shr -> fun a -> Int64.shift_right_logical a k
        | I.Sar -> fun a -> Int64.shift_right a k
      in
      fun cpu mem ->
        let r = shift (rd cpu mem) in
        set_logic_flags cpu.Cpu.flags r;
        wr cpu mem r;
        Running)
  | I.Neg op ->
    let rd = read64_of op and wr = write64_of addr op in
    fun cpu mem ->
      let a = rd cpu mem in
      let r = Int64.neg a in
      let flags = cpu.Cpu.flags in
      set_logic_flags flags r;
      flags.Cpu.cf <- not (Int64.equal a 0L);
      flags.Cpu.of_ <- Int64.equal a Int64.min_int;
      wr cpu mem r;
      Running
  | I.Not op ->
    let rd = read64_of op and wr = write64_of addr op in
    fun cpu mem ->
      let v = Int64.lognot (rd cpu mem) in
      wr cpu mem v;
      Running
  | I.Setcc (c, r) ->
    let test = cond_test c and r = Isa.Reg.index r in
    fun cpu _ ->
      Array.unsafe_set cpu.Cpu.gprs r (if test cpu.Cpu.flags then 1L else 0L);
      Running
  (* control transfers: the only closures that write rip *)
  | I.Jmp (I.Abs a) ->
    fun cpu _ ->
      cpu.Cpu.rip <- a;
      Running
  | I.Jmp (I.Sym s) -> fun _ _ -> raise (Isa.Encode.Unresolved_symbol s)
  | I.Jcc (c, I.Abs a) ->
    let test = cond_test c in
    fun cpu _ ->
      cpu.Cpu.rip <- (if test cpu.Cpu.flags then a else next);
      Running
  | I.Jcc (c, I.Sym s) ->
    let test = cond_test c in
    fun cpu _ ->
      (* symbolic target only resolves (and faults) when taken *)
      if test cpu.Cpu.flags then raise (Isa.Encode.Unresolved_symbol s)
      else begin
        cpu.Cpu.rip <- next;
        Running
      end
  | I.Call (I.Sym s) -> fun _ _ -> raise (Isa.Encode.Unresolved_symbol s)
  | I.Call (I.Abs a) -> (
    (* direct calls resolve the builtin table once, here; [code.key]
       guards against running under a different environment *)
    match is_builtin a with
    | Some name -> (
      match inline name with
      | Some f ->
        (* builtin inlining: the pure core runs inside the block and
           control falls through, so chains and superblocks continue
           straight across the call. Protocol match with the OS path:
           rip advances past the call before the body runs (the kernel
           dispatches after the call retired), the return value lands
           in rax, and a fault inside the body kills with rip already
           past the call — which is why the Trap is consumed here and
           not left to [run_code]'s handler (that would rewind rip to
           the call itself). Cycle charges happen inside [f], exactly
           as the OS dispatch would have charged them. *)
        fun cpu mem ->
          cpu.Cpu.rip <- next;
          (match f cpu mem with
          | v ->
            Array.unsafe_set cpu.Cpu.gprs rax_i v;
            Running
          | exception Fault.Trap fault -> Faulted fault)
      | None ->
        fun cpu _ ->
          cpu.Cpu.rip <- next;
          Builtin name)
    | None ->
      fun cpu mem ->
        push cpu mem next;
        cpu.Cpu.rip <- a;
        Running)
  | I.Call_ind op ->
    let rd = read64_of op in
    fun cpu mem ->
      let a = rd cpu mem in
      (match is_builtin a with
      | Some name ->
        cpu.Cpu.rip <- next;
        Builtin name
      | None ->
        push cpu mem next;
        cpu.Cpu.rip <- a;
        Running)
  | I.Ret ->
    fun cpu mem ->
      let a = pop cpu mem in
      cpu.Cpu.rip <- a;
      Running
  | I.Leave ->
    fun cpu mem ->
      Array.unsafe_set cpu.Cpu.gprs rsp_i (Array.unsafe_get cpu.Cpu.gprs rbp_i);
      let rbp = pop cpu mem in
      Array.unsafe_set cpu.Cpu.gprs rbp_i rbp;
      Running
  | I.Rdrand r ->
    let r = Isa.Reg.index r in
    fun cpu _ ->
      Array.unsafe_set cpu.Cpu.gprs r (Util.Prng.next64 cpu.Cpu.rng);
      let flags = cpu.Cpu.flags in
      flags.Cpu.cf <- true;
      flags.Cpu.zf <- false;
      Running
  | I.Pac (d, m) ->
    let d = Isa.Reg.index d and m = Isa.Reg.index m in
    fun cpu _ ->
      let value = Array.unsafe_get cpu.Cpu.gprs d in
      let modifier = Array.unsafe_get cpu.Cpu.gprs m in
      Array.unsafe_set cpu.Cpu.gprs d (Cpu.pac_sign cpu ~value ~modifier);
      Running
  | I.Aut (d, m) ->
    let d = Isa.Reg.index d and m = Isa.Reg.index m in
    fun cpu _ ->
      let value = Array.unsafe_get cpu.Cpu.gprs d in
      let modifier = Array.unsafe_get cpu.Cpu.gprs m in
      let flags = cpu.Cpu.flags in
      flags.Cpu.zf <- Cpu.pac_auth cpu ~value ~modifier;
      flags.Cpu.sf <- false;
      flags.Cpu.cf <- false;
      flags.Cpu.of_ <- false;
      Array.unsafe_set cpu.Cpu.gprs d (Cpu.pac_strip value);
      Running
  | I.Rdtsc ->
    (* reads cpu.cycles mid-block, which deferred charging leaves at the
       block-entry value; [emit] intercepts it with a closure that adds
       the retired prefix's static charge (it needs the prefix sums this
       per-insn lowering does not see) *)
    assert false
  | I.Syscall ->
    fun cpu _ ->
      cpu.Cpu.rip <- next;
      Syscall_trap
  | I.Hlt ->
    fun cpu _ ->
      (* the interpreter leaves rip at the hlt itself *)
      cpu.Cpu.rip <- addr;
      Halted
  | I.Movq_to_xmm (x, r) ->
    let x = Isa.Reg.Xmm.index x and r = Isa.Reg.index r in
    fun cpu _ ->
      Array.unsafe_set cpu.Cpu.xmms x (Array.unsafe_get cpu.Cpu.gprs r, 0L);
      Running
  | I.Movq_from_xmm (r, x) ->
    let r = Isa.Reg.index r and x = Isa.Reg.Xmm.index x in
    fun cpu _ ->
      let lo, _ = Array.unsafe_get cpu.Cpu.xmms x in
      Array.unsafe_set cpu.Cpu.gprs r lo;
      Running
  | I.Pinsrq_high (x, r) ->
    let x = Isa.Reg.Xmm.index x and r = Isa.Reg.index r in
    fun cpu _ ->
      let lo, _ = Array.unsafe_get cpu.Cpu.xmms x in
      Array.unsafe_set cpu.Cpu.xmms x (lo, Array.unsafe_get cpu.Cpu.gprs r);
      Running
  | I.Movhps_load (x, m) ->
    let x = Isa.Reg.Xmm.index x and ea = ea_of m in
    fun cpu mem ->
      let lo, _ = Array.unsafe_get cpu.Cpu.xmms x in
      let hi = Memory.read_u64 mem (ea cpu) in
      Array.unsafe_set cpu.Cpu.xmms x (lo, hi);
      Running
  | I.Movq_store (m, x) ->
    let ea = ea_of m and x = Isa.Reg.Xmm.index x in
    fun cpu mem ->
      let lo, _ = Array.unsafe_get cpu.Cpu.xmms x in
      Memory.write_u64 mem (ea cpu) lo;
      Running
  | I.Movdqu_load (x, m) ->
    let x = Isa.Reg.Xmm.index x and ea = ea_of m in
    fun cpu mem ->
      let a = ea cpu in
      (* high qword first, matching the interpreter's read order, so a
         half-unmapped access faults at the same address *)
      let hi = Memory.read_u64 mem (Int64.add a 8L) in
      let lo = Memory.read_u64 mem a in
      Array.unsafe_set cpu.Cpu.xmms x (lo, hi);
      Running
  | I.Movdqu_store (m, x) ->
    let ea = ea_of m and x = Isa.Reg.Xmm.index x in
    fun cpu mem ->
      let a = ea cpu in
      let lo, hi = Array.unsafe_get cpu.Cpu.xmms x in
      Memory.write_u64 mem a lo;
      Memory.write_u64 mem (Int64.add a 8L) hi;
      Running
  | I.Aesenc (dst, src) ->
    let d = Isa.Reg.Xmm.index dst and s = Isa.Reg.Xmm.index src in
    fun cpu _ ->
      let state = xmm_to_bytes (Array.unsafe_get cpu.Cpu.xmms d) in
      let round_key = xmm_to_bytes (Array.unsafe_get cpu.Cpu.xmms s) in
      Array.unsafe_set cpu.Cpu.xmms d
        (xmm_of_bytes (Crypto.Aes128.aesenc ~state ~round_key));
      Running
  | I.Aesenclast (dst, src) ->
    let d = Isa.Reg.Xmm.index dst and s = Isa.Reg.Xmm.index src in
    fun cpu _ ->
      let state = xmm_to_bytes (Array.unsafe_get cpu.Cpu.xmms d) in
      let round_key = xmm_to_bytes (Array.unsafe_get cpu.Cpu.xmms s) in
      Array.unsafe_set cpu.Cpu.xmms d
        (xmm_of_bytes (Crypto.Aes128.aesenclast ~state ~round_key));
      Running
  | I.Pcmpeq128 (x, m) ->
    let x = Isa.Reg.Xmm.index x and ea = ea_of m in
    fun cpu mem ->
      let lo, hi = Array.unsafe_get cpu.Cpu.xmms x in
      let a = ea cpu in
      let mlo = Memory.read_u64 mem a in
      let mhi = Memory.read_u64 mem (Int64.add a 8L) in
      let flags = cpu.Cpu.flags in
      flags.Cpu.zf <- Int64.equal lo mlo && Int64.equal hi mhi;
      flags.Cpu.sf <- false;
      flags.Cpu.cf <- false;
      flags.Cpu.of_ <- false;
      Running

(* ---- Uop lowering ---------------------------------------------------- *)

let nop_op : op = fun _ _ -> Running

let uop_op ~is_builtin ~inline ~addr ~next (u : Ir.uop) : op =
  match u with
  | Ir.Zero r ->
    (* normalized [xor r, r]: no operand reads, constant flag settle *)
    fun cpu _ ->
      Array.unsafe_set cpu.Cpu.gprs r 0L;
      let f = cpu.Cpu.flags in
      f.Cpu.zf <- true;
      f.Cpu.sf <- false;
      f.Cpu.cf <- false;
      f.Cpu.of_ <- false;
      Running
  | Ir.Nop_cost -> nop_op
  | Ir.Exec insn -> insn_op ~is_builtin ~inline ~addr ~next insn

(* ---- Tier 3: guest-register caching in closure locals ---------------- *)

(* Tier 3 threads the translation's hottest guest registers (picked by
   [Ir.cache_plan]) through the emitted code as plain int64 arguments
   instead of routing every access through the [Cpu.gprs] array. OCaml
   has no mutable locals that survive closure boundaries without
   boxing, so the "locals" are the arguments of a continuation chain:
   step [i]'s closure computes its effect on the cached values and
   tail-calls step [i+1] with the results. Exact-arity indirect tail
   calls keep the chain flat on the stack, and an unchanged boxed-int64
   argument is a pointer pass — no re-boxing and no caml_modify write
   barrier, the costs this tier removes.

   Spill protocol (the correctness core): [Cpu.gprs] is stale for the
   cached registers while the chain runs, so every point where the
   architectural state becomes observable must first write the cached
   values back:

   - faults: each specialized step with a fault point carries its own
     handler that spills, settles rip to the step's address and returns
     [Faulted] — with the values architecturally current at that fault
     point (a push that faults on its store spills the
     already-decremented rsp, exactly the interpreter's partial state);
   - exits and chain transfers: the exit continuation spills before
     control returns to [run_tier2] or the dispatcher;
   - kernel-visible outcomes (syscall, hlt, non-inlined builtin calls)
     and steps the emitter does not specialize (xmm traffic, byte/word
     moves, division, inlined builtin bodies, dynamic calls): a generic
     wrapper spills, runs the tier-1 closure — which reads and writes
     [Cpu.gprs] directly, so [Os.Glibc] and builtin cores see exact
     registers — and reloads the cached values on the way back in.

   Spilling every slot unconditionally (clean or dirty) keeps the
   protocol one plain store per slot; clean spills rewrite the same
   value. The plan is a heuristic only: registers outside it simply
   stay in [Cpu.gprs], and unspecialized shapes run through the generic
   wrapper, so plan quality affects speed, never semantics. *)

(* Kept registered for metric-schema continuity: since rdtsc became
   emittable (the last uncompilable shape), nothing increments it. *)
let (_ : Telemetry.Registry.counter) =
  Telemetry.Registry.counter "vm.compile.uncompilable"

(* Emit-time tier-3 telemetry: registers cached per translation, and
   static spill/reload sites emitted (fault handlers, generic-wrapper
   crossings, chain entry/exit). *)
let g_regs_cached = Telemetry.Registry.counter "vm.compile.regs_cached"
let g_spills = Telemetry.Registry.counter "vm.compile.spills"
let g_reloads = Telemetry.Registry.counter "vm.compile.reloads"

type k3 = Cpu.t -> Memory.t -> int64 -> int64 -> outcome * int

(* Where a register lives during the chain: slot A / slot B (the two
   threaded arguments) or its [Cpu.gprs] cell. *)
type slot = SA | SB | SN of int

let emit3 ~is_builtin (ir : Ir.t) ~(ops : op array) ~(addrs : int64 array)
    ~(nexts : int64 array) ~(sets_rip : bool array) :
    (int array * (Cpu.t -> Memory.t -> outcome * int)) option =
  let plan = Ir.cache_plan ir in
  if Array.length plan = 0 then None
  else begin
    let steps = ir.Ir.steps in
    let n = Array.length steps in
    let ra = plan.(0) in
    let rb = if Array.length plan > 1 then plan.(1) else -1 in
    let sloti i = if i = ra then SA else if i = rb then SB else SN i in
    let slot r = sloti (Isa.Reg.index r) in
    (* static spill/reload sites, counted as they are emitted *)
    let spills = ref 0 and reloads = ref 0 in
    let spill cpu va vb =
      Array.unsafe_set cpu.Cpu.gprs ra va;
      if rb >= 0 then Array.unsafe_set cpu.Cpu.gprs rb vb
    in
    (* fault exit for step [i]: flush, rip at the faulting instruction *)
    let faulted i =
      incr spills;
      fun f cpu va vb ->
        spill cpu va vb;
        cpu.Cpu.rip <- Array.unsafe_get addrs i;
        (Faulted f, i + 1)
    in
    (* universal fallback: flush, run the tier-1 closure against
       [Cpu.gprs], reload on the way back in *)
    let generic i (k : k3) : k3 =
      incr spills;
      incr reloads;
      let op = Array.unsafe_get ops i in
      let addr = Array.unsafe_get addrs i in
      fun cpu mem va vb ->
        spill cpu va vb;
        (match op cpu mem with
        | Running ->
          let va' = Array.unsafe_get cpu.Cpu.gprs ra in
          let vb' = if rb >= 0 then Array.unsafe_get cpu.Cpu.gprs rb else vb in
          k cpu mem va' vb'
        | outcome -> (outcome, i + 1)
        | exception Fault.Trap f ->
          cpu.Cpu.rip <- addr;
          (Faulted f, i + 1)
        | exception Isa.Encode.Unresolved_symbol s ->
          cpu.Cpu.rip <- addr;
          (Faulted (Fault.Bad_instruction (addr, "unresolved symbol " ^ s)), i + 1))
    in
    (* effective address against the cached values. [None] bounces the
       step to the generic wrapper — only fs-segment or scaled-index
       uses of a *cached* register are left unspecialized. *)
    let ea3 (m : O.mem) : (Cpu.t -> int64 -> int64 -> int64) option =
      let is_cached r = match slot r with SN _ -> false | _ -> true in
      let base_cached =
        match m.O.base with Some r -> is_cached r | None -> false
      in
      let index_cached =
        match m.O.index with Some (r, _) -> is_cached r | None -> false
      in
      if not (base_cached || index_cached) then
        let ea = ea_of m in
        Some (fun cpu _ _ -> ea cpu)
      else if m.O.seg_fs || index_cached then None
      else
        match (m.O.base, m.O.index) with
        | Some b, None -> (
          let d = m.O.disp in
          match slot b with
          | SA -> Some (fun _ va _ -> Int64.add va d)
          | SB -> Some (fun _ _ vb -> Int64.add vb d)
          | SN _ -> None)
        | Some b, Some (x, s) -> (
          let x = Isa.Reg.index x in
          let s = Int64.of_int (O.scale_factor s) and d = m.O.disp in
          match slot b with
          | SA ->
            Some
              (fun cpu va _ ->
                Int64.add va
                  (Int64.add (Int64.mul (Array.unsafe_get cpu.Cpu.gprs x) s) d))
          | SB ->
            Some
              (fun cpu _ vb ->
                Int64.add vb
                  (Int64.add (Int64.mul (Array.unsafe_get cpu.Cpu.gprs x) s) d))
          | SN _ -> None)
        | None, _ -> None
    in
    (* a 64-bit source read against the cached values *)
    let src64 : O.t -> (Cpu.t -> Memory.t -> int64 -> int64 -> int64) option =
      function
      | O.Reg r -> (
        match slot r with
        | SA -> Some (fun _ _ va _ -> va)
        | SB -> Some (fun _ _ _ vb -> vb)
        | SN j -> Some (fun cpu _ _ _ -> Array.unsafe_get cpu.Cpu.gprs j))
      | O.Imm v -> Some (fun _ _ _ _ -> v)
      | O.Mem m -> (
        match ea3 m with
        | None -> None
        | Some ea ->
          Some (fun cpu mem va vb -> Memory.read_u64 mem (ea cpu va vb)))
    in
    (* chain exit: flush, settle rip like [run_code]'s fuel-boundary
       stop, bounce to the chain/dispatch logic *)
    let exit_k : k3 =
      incr spills;
      let last_sets = Array.unsafe_get sets_rip (n - 1) in
      let fall = Array.unsafe_get nexts (n - 1) in
      fun cpu _ va vb ->
        spill cpu va vb;
        if not last_sets then cpu.Cpu.rip <- fall;
        (Running, n)
    in
    (* Per-step specialization. Every arm mutates state in the
       interpreter's order (value reads before rsp moves, flags before
       destination writes, register writes before the store that can
       fault), so the spilled state at any fault point is exactly the
       interpreted partial state. *)
    let step3 i (k : k3) : k3 =
      match (Array.unsafe_get steps i).Ir.uop with
      | Ir.Nop_cost | Ir.Exec I.Nop -> k
      | Ir.Zero r -> (
        let set0 (f : Cpu.flags) =
          f.Cpu.zf <- true;
          f.Cpu.sf <- false;
          f.Cpu.cf <- false;
          f.Cpu.of_ <- false
        in
        match sloti r with
        | SA ->
          fun cpu mem _ vb ->
            set0 cpu.Cpu.flags;
            k cpu mem 0L vb
        | SB ->
          fun cpu mem va _ ->
            set0 cpu.Cpu.flags;
            k cpu mem va 0L
        | SN j ->
          fun cpu mem va vb ->
            Array.unsafe_set cpu.Cpu.gprs j 0L;
            set0 cpu.Cpu.flags;
            k cpu mem va vb)
      | Ir.Exec (I.Mov (O.Reg d, O.Imm v)) -> (
        match slot d with
        | SA -> fun cpu mem _ vb -> k cpu mem v vb
        | SB -> fun cpu mem va _ -> k cpu mem va v
        | SN j ->
          fun cpu mem va vb ->
            Array.unsafe_set cpu.Cpu.gprs j v;
            k cpu mem va vb)
      | Ir.Exec (I.Mov (O.Reg d, O.Reg sr)) -> (
        match (slot d, slot sr) with
        | SA, SA | SB, SB -> k
        | SA, SB -> fun cpu mem _ vb -> k cpu mem vb vb
        | SB, SA -> fun cpu mem va _ -> k cpu mem va va
        | SA, SN j ->
          fun cpu mem _ vb -> k cpu mem (Array.unsafe_get cpu.Cpu.gprs j) vb
        | SB, SN j ->
          fun cpu mem va _ -> k cpu mem va (Array.unsafe_get cpu.Cpu.gprs j)
        | SN j, SA ->
          fun cpu mem va vb ->
            Array.unsafe_set cpu.Cpu.gprs j va;
            k cpu mem va vb
        | SN j, SB ->
          fun cpu mem va vb ->
            Array.unsafe_set cpu.Cpu.gprs j vb;
            k cpu mem va vb
        | SN j, SN j' ->
          fun cpu mem va vb ->
            Array.unsafe_set cpu.Cpu.gprs j (Array.unsafe_get cpu.Cpu.gprs j');
            k cpu mem va vb)
      | Ir.Exec (I.Mov (O.Reg d, O.Mem m)) -> (
        match ea3 m with
        | None -> generic i k
        | Some ea -> (
          let fault = faulted i in
          match slot d with
          | SA -> (
            fun cpu mem va vb ->
              match Memory.read_u64 mem (ea cpu va vb) with
              | v -> k cpu mem v vb
              | exception Fault.Trap f -> fault f cpu va vb)
          | SB -> (
            fun cpu mem va vb ->
              match Memory.read_u64 mem (ea cpu va vb) with
              | v -> k cpu mem va v
              | exception Fault.Trap f -> fault f cpu va vb)
          | SN j -> (
            fun cpu mem va vb ->
              match Memory.read_u64 mem (ea cpu va vb) with
              | v ->
                Array.unsafe_set cpu.Cpu.gprs j v;
                k cpu mem va vb
              | exception Fault.Trap f -> fault f cpu va vb)))
      | Ir.Exec (I.Mov (O.Mem m, ((O.Reg _ | O.Imm _) as src))) -> (
        match (ea3 m, src64 src) with
        | Some ea, Some rd -> (
          let fault = faulted i in
          fun cpu mem va vb ->
            let v = rd cpu mem va vb in
            match Memory.write_u64 mem (ea cpu va vb) v with
            | () -> k cpu mem va vb
            | exception Fault.Trap f -> fault f cpu va vb)
        | _ -> generic i k)
      | Ir.Exec (I.Lea (r, m)) -> (
        match ea3 m with
        | None -> generic i k
        | Some ea -> (
          match slot r with
          | SA -> fun cpu mem va vb -> k cpu mem (ea cpu va vb) vb
          | SB -> fun cpu mem va vb -> k cpu mem va (ea cpu va vb)
          | SN j ->
            fun cpu mem va vb ->
              Array.unsafe_set cpu.Cpu.gprs j (ea cpu va vb);
              k cpu mem va vb))
      | Ir.Exec (I.Push ((O.Reg _ | O.Imm _) as src)) -> (
        match src64 src with
        | None -> generic i k
        | Some rd -> (
          let fault = faulted i in
          match sloti rsp_i with
          | SA -> (
            fun cpu mem va vb ->
              (* value read before rsp moves: push rsp stores old rsp *)
              let v = rd cpu mem va vb in
              let rsp = Int64.sub va 8L in
              match Memory.write_u64 mem rsp v with
              | () -> k cpu mem rsp vb
              | exception Fault.Trap f -> fault f cpu rsp vb)
          | SB -> (
            fun cpu mem va vb ->
              let v = rd cpu mem va vb in
              let rsp = Int64.sub vb 8L in
              match Memory.write_u64 mem rsp v with
              | () -> k cpu mem va rsp
              | exception Fault.Trap f -> fault f cpu va rsp)
          | SN j -> (
            fun cpu mem va vb ->
              let v = rd cpu mem va vb in
              let rsp = Int64.sub (Array.unsafe_get cpu.Cpu.gprs j) 8L in
              Array.unsafe_set cpu.Cpu.gprs j rsp;
              match Memory.write_u64 mem rsp v with
              | () -> k cpu mem va vb
              | exception Fault.Trap f -> fault f cpu va vb)))
      | Ir.Exec (I.Pop (O.Reg d)) -> (
        let fault = faulted i in
        (* rsp bump before the destination write: pop rsp ends at v *)
        match (sloti rsp_i, slot d) with
        | SA, SA -> (
          fun cpu mem va vb ->
            match Memory.read_u64 mem va with
            | v -> k cpu mem v vb
            | exception Fault.Trap f -> fault f cpu va vb)
        | SA, SB -> (
          fun cpu mem va vb ->
            match Memory.read_u64 mem va with
            | v -> k cpu mem (Int64.add va 8L) v
            | exception Fault.Trap f -> fault f cpu va vb)
        | SA, SN j -> (
          fun cpu mem va vb ->
            match Memory.read_u64 mem va with
            | v ->
              Array.unsafe_set cpu.Cpu.gprs j v;
              k cpu mem (Int64.add va 8L) vb
            | exception Fault.Trap f -> fault f cpu va vb)
        | SB, SA -> (
          fun cpu mem va vb ->
            match Memory.read_u64 mem vb with
            | v -> k cpu mem v (Int64.add vb 8L)
            | exception Fault.Trap f -> fault f cpu va vb)
        | SB, SB -> (
          fun cpu mem va vb ->
            match Memory.read_u64 mem vb with
            | v -> k cpu mem va v
            | exception Fault.Trap f -> fault f cpu va vb)
        | SB, SN j -> (
          fun cpu mem va vb ->
            match Memory.read_u64 mem vb with
            | v ->
              Array.unsafe_set cpu.Cpu.gprs j v;
              k cpu mem va (Int64.add vb 8L)
            | exception Fault.Trap f -> fault f cpu va vb)
        | SN j, SA -> (
          fun cpu mem va vb ->
            let rsp = Array.unsafe_get cpu.Cpu.gprs j in
            match Memory.read_u64 mem rsp with
            | v ->
              Array.unsafe_set cpu.Cpu.gprs j (Int64.add rsp 8L);
              k cpu mem v vb
            | exception Fault.Trap f -> fault f cpu va vb)
        | SN j, SB -> (
          fun cpu mem va vb ->
            let rsp = Array.unsafe_get cpu.Cpu.gprs j in
            match Memory.read_u64 mem rsp with
            | v ->
              Array.unsafe_set cpu.Cpu.gprs j (Int64.add rsp 8L);
              k cpu mem va v
            | exception Fault.Trap f -> fault f cpu va vb)
        | SN j, SN j' -> (
          fun cpu mem va vb ->
            let rsp = Array.unsafe_get cpu.Cpu.gprs j in
            match Memory.read_u64 mem rsp with
            | v ->
              Array.unsafe_set cpu.Cpu.gprs j (Int64.add rsp 8L);
              Array.unsafe_set cpu.Cpu.gprs j' v;
              k cpu mem va vb
            | exception Fault.Trap f -> fault f cpu va vb))
      | Ir.Exec (I.Bin (I.Add, O.Reg d, O.Imm v)) -> (
        match slot d with
        | SA ->
          fun cpu mem va vb ->
            let r = Int64.add va v in
            set_add_flags cpu.Cpu.flags va v r;
            k cpu mem r vb
        | SB ->
          fun cpu mem va vb ->
            let r = Int64.add vb v in
            set_add_flags cpu.Cpu.flags vb v r;
            k cpu mem va r
        | SN j ->
          fun cpu mem va vb ->
            let a = Array.unsafe_get cpu.Cpu.gprs j in
            let r = Int64.add a v in
            set_add_flags cpu.Cpu.flags a v r;
            Array.unsafe_set cpu.Cpu.gprs j r;
            k cpu mem va vb)
      | Ir.Exec (I.Bin (I.Sub, O.Reg d, O.Imm v)) -> (
        match slot d with
        | SA ->
          fun cpu mem va vb ->
            let r = Int64.sub va v in
            set_sub_flags cpu.Cpu.flags va v r;
            k cpu mem r vb
        | SB ->
          fun cpu mem va vb ->
            let r = Int64.sub vb v in
            set_sub_flags cpu.Cpu.flags vb v r;
            k cpu mem va r
        | SN j ->
          fun cpu mem va vb ->
            let a = Array.unsafe_get cpu.Cpu.gprs j in
            let r = Int64.sub a v in
            set_sub_flags cpu.Cpu.flags a v r;
            Array.unsafe_set cpu.Cpu.gprs j r;
            k cpu mem va vb)
      | Ir.Exec (I.Bin (I.Cmp, O.Reg d, O.Imm v)) -> (
        match slot d with
        | SA ->
          fun cpu mem va vb ->
            set_sub_flags cpu.Cpu.flags va v (Int64.sub va v);
            k cpu mem va vb
        | SB ->
          fun cpu mem va vb ->
            set_sub_flags cpu.Cpu.flags vb v (Int64.sub vb v);
            k cpu mem va vb
        | SN j ->
          fun cpu mem va vb ->
            let a = Array.unsafe_get cpu.Cpu.gprs j in
            set_sub_flags cpu.Cpu.flags a v (Int64.sub a v);
            k cpu mem va vb)
      | Ir.Exec (I.Bin ((I.Cmp | I.Test) as bop, d, s)) -> (
        match (src64 d, src64 s) with
        | Some rd, Some rs -> (
          let fault = faulted i in
          let setf =
            match bop with
            | I.Cmp ->
              fun f a b -> set_sub_flags f a b (Int64.sub a b)
            | _ -> fun f a b -> set_logic_flags f (Int64.logand a b)
          in
          fun cpu mem va vb ->
            match
              let a = rd cpu mem va vb in
              let b = rs cpu mem va vb in
              setf cpu.Cpu.flags a b
            with
            | () -> k cpu mem va vb
            | exception Fault.Trap f -> fault f cpu va vb)
        | _ -> generic i k)
      | Ir.Exec (I.Bin (bop, O.Reg d, s)) -> (
        match src64 s with
        | None -> generic i k
        | Some rs -> (
          let addr = Array.unsafe_get addrs i in
          let apply =
            match bop with
            | I.Add ->
              fun f a b ->
                let r = Int64.add a b in
                set_add_flags f a b r;
                r
            | I.Sub ->
              fun f a b ->
                let r = Int64.sub a b in
                set_sub_flags f a b r;
                r
            | I.Xor ->
              fun f a b ->
                let r = Int64.logxor a b in
                set_logic_flags f r;
                r
            | I.And ->
              fun f a b ->
                let r = Int64.logand a b in
                set_logic_flags f r;
                r
            | I.Or ->
              fun f a b ->
                let r = Int64.logor a b in
                set_logic_flags f r;
                r
            | I.Imul ->
              fun f a b ->
                let r = Int64.mul a b in
                set_logic_flags f r;
                r
            | I.Idiv ->
              fun f a b ->
                if Int64.equal b 0L then
                  raise
                    (Fault.Trap (Fault.Bad_instruction (addr, "division by zero")));
                if Int64.equal a Int64.min_int && Int64.equal b (-1L) then
                  raise
                    (Fault.Trap
                       (Fault.Bad_instruction (addr, "division overflow")));
                let r = Int64.div a b in
                set_logic_flags f r;
                r
            | I.Irem ->
              fun f a b ->
                if Int64.equal b 0L then
                  raise
                    (Fault.Trap (Fault.Bad_instruction (addr, "division by zero")));
                if Int64.equal a Int64.min_int && Int64.equal b (-1L) then
                  raise
                    (Fault.Trap
                       (Fault.Bad_instruction (addr, "division overflow")));
                let r = Int64.rem a b in
                set_logic_flags f r;
                r
            | I.Cmp | I.Test -> assert false (* matched above *)
          in
          let fault = faulted i in
          match slot d with
          | SA -> (
            fun cpu mem va vb ->
              match
                let b = rs cpu mem va vb in
                apply cpu.Cpu.flags va b
              with
              | r -> k cpu mem r vb
              | exception Fault.Trap f -> fault f cpu va vb)
          | SB -> (
            fun cpu mem va vb ->
              match
                let b = rs cpu mem va vb in
                apply cpu.Cpu.flags vb b
              with
              | r -> k cpu mem va r
              | exception Fault.Trap f -> fault f cpu va vb)
          | SN j -> (
            fun cpu mem va vb ->
              match
                let a = Array.unsafe_get cpu.Cpu.gprs j in
                let b = rs cpu mem va vb in
                apply cpu.Cpu.flags a b
              with
              | r ->
                Array.unsafe_set cpu.Cpu.gprs j r;
                k cpu mem va vb
              | exception Fault.Trap f -> fault f cpu va vb)))
      | Ir.Exec (I.Shift (sop, O.Reg d, kk)) when kk land 63 <> 0 -> (
        let kk = kk land 63 in
        let sh =
          match sop with
          | I.Shl -> fun a -> Int64.shift_left a kk
          | I.Shr -> fun a -> Int64.shift_right_logical a kk
          | I.Sar -> fun a -> Int64.shift_right a kk
        in
        match slot d with
        | SA ->
          fun cpu mem va vb ->
            let r = sh va in
            set_logic_flags cpu.Cpu.flags r;
            k cpu mem r vb
        | SB ->
          fun cpu mem va vb ->
            let r = sh vb in
            set_logic_flags cpu.Cpu.flags r;
            k cpu mem va r
        | SN j ->
          fun cpu mem va vb ->
            let r = sh (Array.unsafe_get cpu.Cpu.gprs j) in
            set_logic_flags cpu.Cpu.flags r;
            Array.unsafe_set cpu.Cpu.gprs j r;
            k cpu mem va vb)
      | Ir.Exec (I.Setcc (c, r)) -> (
        let test = cond_test c in
        match slot r with
        | SA ->
          fun cpu mem _ vb ->
            k cpu mem (if test cpu.Cpu.flags then 1L else 0L) vb
        | SB ->
          fun cpu mem va _ ->
            k cpu mem va (if test cpu.Cpu.flags then 1L else 0L)
        | SN j ->
          fun cpu mem va vb ->
            Array.unsafe_set cpu.Cpu.gprs j
              (if test cpu.Cpu.flags then 1L else 0L);
            k cpu mem va vb)
      | Ir.Exec (I.Jmp (I.Abs tgt)) ->
        fun cpu mem va vb ->
          cpu.Cpu.rip <- tgt;
          k cpu mem va vb
      | Ir.Exec (I.Jcc (c, I.Abs tgt)) ->
        let test = cond_test c in
        let next = Array.unsafe_get nexts i in
        fun cpu mem va vb ->
          cpu.Cpu.rip <- (if test cpu.Cpu.flags then tgt else next);
          k cpu mem va vb
      | Ir.Exec (I.Call (I.Abs tgt)) when Option.is_none (is_builtin tgt) -> (
        let next = Array.unsafe_get nexts i in
        let fault = faulted i in
        match sloti rsp_i with
        | SA -> (
          fun cpu mem va vb ->
            let rsp = Int64.sub va 8L in
            match Memory.write_u64 mem rsp next with
            | () ->
              cpu.Cpu.rip <- tgt;
              k cpu mem rsp vb
            | exception Fault.Trap f -> fault f cpu rsp vb)
        | SB -> (
          fun cpu mem va vb ->
            let rsp = Int64.sub vb 8L in
            match Memory.write_u64 mem rsp next with
            | () ->
              cpu.Cpu.rip <- tgt;
              k cpu mem va rsp
            | exception Fault.Trap f -> fault f cpu va rsp)
        | SN j -> (
          fun cpu mem va vb ->
            let rsp = Int64.sub (Array.unsafe_get cpu.Cpu.gprs j) 8L in
            Array.unsafe_set cpu.Cpu.gprs j rsp;
            match Memory.write_u64 mem rsp next with
            | () ->
              cpu.Cpu.rip <- tgt;
              k cpu mem va vb
            | exception Fault.Trap f -> fault f cpu va vb))
      | Ir.Exec I.Ret -> (
        let fault = faulted i in
        match sloti rsp_i with
        | SA -> (
          fun cpu mem va vb ->
            match Memory.read_u64 mem va with
            | a ->
              cpu.Cpu.rip <- a;
              k cpu mem (Int64.add va 8L) vb
            | exception Fault.Trap f -> fault f cpu va vb)
        | SB -> (
          fun cpu mem va vb ->
            match Memory.read_u64 mem vb with
            | a ->
              cpu.Cpu.rip <- a;
              k cpu mem va (Int64.add vb 8L)
            | exception Fault.Trap f -> fault f cpu va vb)
        | SN j -> (
          fun cpu mem va vb ->
            let rsp = Array.unsafe_get cpu.Cpu.gprs j in
            match Memory.read_u64 mem rsp with
            | a ->
              Array.unsafe_set cpu.Cpu.gprs j (Int64.add rsp 8L);
              cpu.Cpu.rip <- a;
              k cpu mem va vb
            | exception Fault.Trap f -> fault f cpu va vb))
      | Ir.Exec I.Leave -> (
        (* rsp := rbp first, so a faulting pop spills rsp = rbp *)
        let fault = faulted i in
        match (sloti rsp_i, sloti rbp_i) with
        | SA, SB -> (
          fun cpu mem _ vb ->
            match Memory.read_u64 mem vb with
            | v -> k cpu mem (Int64.add vb 8L) v
            | exception Fault.Trap f -> fault f cpu vb vb)
        | SB, SA -> (
          fun cpu mem va _ ->
            match Memory.read_u64 mem va with
            | v -> k cpu mem v (Int64.add va 8L)
            | exception Fault.Trap f -> fault f cpu va va)
        | SA, SN j -> (
          fun cpu mem _ vb ->
            let rbp = Array.unsafe_get cpu.Cpu.gprs j in
            match Memory.read_u64 mem rbp with
            | v ->
              Array.unsafe_set cpu.Cpu.gprs j v;
              k cpu mem (Int64.add rbp 8L) vb
            | exception Fault.Trap f -> fault f cpu rbp vb)
        | SB, SN j -> (
          fun cpu mem va _ ->
            let rbp = Array.unsafe_get cpu.Cpu.gprs j in
            match Memory.read_u64 mem rbp with
            | v ->
              Array.unsafe_set cpu.Cpu.gprs j v;
              k cpu mem va (Int64.add rbp 8L)
            | exception Fault.Trap f -> fault f cpu va rbp)
        | SN j, SA -> (
          fun cpu mem va vb ->
            Array.unsafe_set cpu.Cpu.gprs j va;
            match Memory.read_u64 mem va with
            | v ->
              Array.unsafe_set cpu.Cpu.gprs j (Int64.add va 8L);
              k cpu mem v vb
            | exception Fault.Trap f -> fault f cpu va vb)
        | SN j, SB -> (
          fun cpu mem va vb ->
            Array.unsafe_set cpu.Cpu.gprs j vb;
            match Memory.read_u64 mem vb with
            | v ->
              Array.unsafe_set cpu.Cpu.gprs j (Int64.add vb 8L);
              k cpu mem va v
            | exception Fault.Trap f -> fault f cpu va vb)
        | SN j, SN j' -> (
          fun cpu mem va vb ->
            let rbp = Array.unsafe_get cpu.Cpu.gprs j' in
            Array.unsafe_set cpu.Cpu.gprs j rbp;
            match Memory.read_u64 mem rbp with
            | v ->
              Array.unsafe_set cpu.Cpu.gprs j (Int64.add rbp 8L);
              Array.unsafe_set cpu.Cpu.gprs j' v;
              k cpu mem va vb
            | exception Fault.Trap f -> fault f cpu va vb)
        | (SA, SA | SB, SB) -> generic i k (* rsp and rbp are distinct *))
      | _ -> generic i k
    in
    let rec build i = if i >= n then exit_k else step3 i (build (i + 1)) in
    let chain = build 0 in
    incr reloads;
    let entry cpu mem =
      let va = Array.unsafe_get cpu.Cpu.gprs ra in
      let vb = if rb >= 0 then Array.unsafe_get cpu.Cpu.gprs rb else 0L in
      chain cpu mem va vb
    in
    Telemetry.Registry.add g_regs_cached (Array.length plan);
    Telemetry.Registry.add g_spills !spills;
    Telemetry.Registry.add g_reloads !reloads;
    Some (plan, entry)
  end

(* ---- Block translation: lift -> normalize -> emit -------------------- *)

let fresh_link () =
  { l_space = None; l_epoch = 0; l_addr = 0L; l_target = None; l_mem = None; l_gen = 0 }

let emit ~is_builtin ~inline (ir : Ir.t) : code =
  let steps = ir.Ir.steps in
  let n = Array.length steps in
  let addrs = Array.map (fun (s : Ir.step) -> s.Ir.addr) steps in
  let nexts = Array.map (fun (s : Ir.step) -> s.Ir.next) steps in
  let sets_rip = Array.map (fun (s : Ir.step) -> s.Ir.sets_rip) steps in
  let csum = Array.make (n + 1) 0 in
  let crsum = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    csum.(i + 1) <- csum.(i) + steps.(i).Ir.cost;
    crsum.(i + 1) <- crsum.(i) + Bool.to_int steps.(i).Ir.callret
  done;
  let ops =
    Array.init n (fun i ->
        match steps.(i).Ir.uop with
        | Ir.Exec I.Rdtsc ->
          (* Deferred charging leaves cpu.cycles at the block-entry value
             while compiled code runs, but the interpreter charges
             instruction [i] before executing it — so the tsc it would
             read here is the entry cycles plus the retired prefix's
             static charge, all known at translation time. *)
          let static = csum.(i + 1) and calls = crsum.(i + 1) in
          let retired = i + 1 in
          fun cpu _ ->
            let tsc =
              Int64.add cpu.Cpu.cycles
                (Int64.of_int
                   (static + (retired * cpu.Cpu.insn_tax)
                   + (calls * cpu.Cpu.call_tax)))
            in
            Array.unsafe_set cpu.Cpu.gprs rax_i (Int64.logand tsc 0xFFFFFFFFL);
            Array.unsafe_set cpu.Cpu.gprs rdx_i (Int64.shift_right_logical tsc 32);
            Running
        | u -> uop_op ~is_builtin ~inline ~addr:addrs.(i) ~next:nexts.(i) u)
  in
  let cached, t3 =
    match emit3 ~is_builtin ir ~ops ~addrs ~nexts ~sets_rip with
    | Some (plan, f) -> (plan, Some f)
    | None -> ([||], None)
  in
  {
    ops;
    addrs;
    nexts;
    csum;
    crsum;
    sets_rip;
    exit_ = ir.Ir.exit_;
    blocks = Array.map (fun (p : Ir.part) -> p.Ir.block) ir.Ir.parts;
    starts = Array.map (fun (p : Ir.part) -> p.Ir.start) ir.Ir.parts;
    key = is_builtin;
    hot = 0;
    fuse_tried = Array.length ir.Ir.parts > 1;
    link_a = fresh_link ();
    link_b = fresh_link ();
    cached;
    t3;
  }

let no_inline : string -> builtin_fn option = fun _ -> None

let block_ir ~is_builtin ~inline (b : Tcache.block) =
  let inlinable name = Option.is_some (inline name) in
  Ir.normalize (Ir.lift ~is_builtin ~inlinable b)

let compile ?(inline = no_inline) ~is_builtin (b : Tcache.block) : Compiled.slot =
  Code (emit ~is_builtin ~inline (block_ir ~is_builtin ~inline b))

let key (c : code) = c.key
let cached_regs (c : code) = Array.copy c.cached

(* ---- Execution ------------------------------------------------------ *)

(* Protocol: while compiled code runs, cpu.rip is stale (still the block
   entry). Straight-line closures never touch it; control closures set
   it before returning; every exit path below settles it to exactly what
   the interpreter would have left. Cycles (static cost + insn tax +
   call tax) are settled once per exit from the prefix sums — the
   interpreter charges instruction [i] before executing it, so a block
   that retires k instructions has charged the first k either way. *)
let charge_exit (code : code) cpu k =
  Cpu.add_cycles cpu
    (Array.unsafe_get code.csum k
    + (k * cpu.Cpu.insn_tax)
    + (Array.unsafe_get code.crsum k * cpu.Cpu.call_tax))

let run_code (code : code) cpu mem ~limit =
  let ops = code.ops in
  let n = Array.length ops in
  let limit = if limit < n then limit else n in
  let finish outcome k =
    charge_exit code cpu k;
    (outcome, k)
  in
  let rec go i =
    match (Array.unsafe_get ops i) cpu mem with
    | Running when i + 1 < limit -> go (i + 1)
    | Running ->
      (* stop here (terminator or fuel boundary): settle rip to the
         fall-through unless this closure already wrote it — in a
         superblock, jmp/call closures sit mid-array too *)
      if not (Array.unsafe_get code.sets_rip i) then
        cpu.Cpu.rip <- Array.unsafe_get code.nexts i;
      finish Running (i + 1)
    | outcome -> finish outcome (i + 1)
    | exception Fault.Trap fault ->
      cpu.Cpu.rip <- Array.unsafe_get code.addrs i;
      finish (Faulted fault) (i + 1)
    | exception Isa.Encode.Unresolved_symbol s ->
      let a = Array.unsafe_get code.addrs i in
      cpu.Cpu.rip <- a;
      finish (Faulted (Fault.Bad_instruction (a, "unresolved symbol " ^ s))) (i + 1)
  in
  go 0

(* ---- Tier 2: chaining, superblocks, profiling attribution ----------- *)

(* Every constituent is still decodable-as-cached in this space. The
   dispatcher's fetch validated the head block only; a superblock's
   tail constituents need their own check (their pages may have
   CoW-diverged without any invalidation — e.g. a relative published
   the fused translation before the pages split). *)
let code_anchors_ok mem (c : code) =
  let ok = ref true in
  for i = 0 to Array.length c.blocks - 1 do
    if not (Tcache.anchor_valid mem (Array.unsafe_get c.blocks i)) then ok := false
  done;
  !ok

(* The code is still what the head block's slot holds. Replacing the
   slot (superblock formation, stale-superblock strip) retargets every
   chain link pointing at the old translation on its next traversal. *)
let slot_current (c : code) =
  match (Array.unsafe_get c.blocks 0).Tcache.compiled with
  | Code c' -> c' == c
  | _ -> false

(* A link may be followed only when every way it can go stale is ruled
   out:
   - [l_addr]: the exit really goes where the target translates
     (dynamic exits — ret, indirect call — carry a 1-entry inline
     cache);
   - [l_space] (==): links live in code objects that fork relatives
     share; a link resolved in one address space says nothing about
     another, so each space claims links for itself;
   - [l_epoch]: invalidation in this space since resolution — the ONLY
     signal for [patch_text]'s in-place mutation of a private page,
     which anchors cannot see;
   - [slot_current] + anchors + [key]: the target is this space's live,
     decode-consistent translation for the right environment.
   A passing anchor check is remembered as ([l_mem], [l_gen]) and not
   repeated while the same space keeps the same payload generation: no
   page slot has changed payload since, so every anchor still matches.
   [install_link] forgets it, because the check was of the old target. *)
let anchors_current (l : link) mem c =
  (match l.l_mem with
  | Some m -> m == mem && l.l_gen = Memory.generation mem
  | None -> false)
  || code_anchors_ok mem c
     && begin
       l.l_mem <- Some mem;
       l.l_gen <- Memory.generation mem;
       true
     end

let link_live tc mem (l : link) rip key =
  match l.l_target with
  | None -> None
  | Some c ->
    if
      Int64.equal l.l_addr rip
      && (match l.l_space with Some s -> s == tc | None -> false)
      && l.l_epoch = Tcache.epoch tc
      && c.key == key
      && slot_current c
      && anchors_current l mem c
    then Some c
    else None

let link_for (c : code) rip =
  match c.exit_ with
  | Ir.Branch { taken; _ } ->
    if Int64.equal rip taken then c.link_a else c.link_b
  | _ -> c.link_a

let install_link tc (l : link) rip target =
  l.l_space <- Some tc;
  l.l_epoch <- Tcache.epoch tc;
  l.l_addr <- rip;
  l.l_target <- Some target;
  l.l_mem <- None;
  Tcache.note_chain tc

(* Resolve the translation for [rip] in this space, compiling the
   cached block if needed. [None] bounces to the dispatcher (block not
   cached / stale / uncompilable), which decodes and accounts the miss. *)
let resolve tc mem ~is_builtin ~inline rip =
  match Tcache.find tc rip with
  | Some b when Tcache.anchor_valid mem b -> (
    match b.Tcache.compiled with
    | Code c when c.key == is_builtin -> Some c
    | Uncompilable -> None
    | _ -> (
      match compile ~inline ~is_builtin b with
      | Code c as slot ->
        b.Tcache.compiled <- slot;
        Tcache.note_compile tc;
        Some c
      | slot ->
        b.Tcache.compiled <- slot;
        None))
  | _ -> None

(* Superblock caps: enough to swallow a guarded call's prologue + body
   + epilogue chain, small enough that tail duplication (a block fused
   into several superblocks) stays cheap. *)
let max_super_parts = 8
let max_super_insns = 256

(* Fuse the hot single-block [c] forward along unconditional static
   exits (fall-through, jmp abs, direct call) while the successors are
   already this space's live translations. Conditional branches and
   dynamic exits end the superblock — they stay chain links — and an
   exit back into the superblock's own entries stops growth (the loop
   closes through a link instead). The fused translation replaces the
   head block's slot: entering the head runs the whole chain, side
   entries to constituents keep their own per-block translations
   (tail duplication, the classic trace-JIT shape). *)
let try_fuse tc mem ~is_builtin ~inline (c : code) =
  c.fuse_tried <- true;
  let head = Array.unsafe_get c.blocks 0 in
  let entry_of (b : Tcache.block) = b.Tcache.bb_start in
  let rec grow ir parts =
    if List.length parts >= max_super_parts || Ir.length ir >= max_super_insns
    then ir
    else
      match Ir.jump_target ir with
      | None -> ir
      | Some a ->
        if List.exists (fun b -> Int64.equal (entry_of b) a) parts then ir
        else begin
          match Tcache.find tc a with
          | Some b
            when Tcache.anchor_valid mem b
                 && Ir.length ir + Array.length b.Tcache.insns <= max_super_insns
            -> grow (Ir.fuse ir (block_ir ~is_builtin ~inline b)) (b :: parts)
          | _ -> ir
        end
  in
  let ir = block_ir ~is_builtin ~inline head in
  let fused = grow ir [ head ] in
  if Array.length fused.Ir.parts < 2 then None
  else begin
    let sc = emit ~is_builtin ~inline fused in
    (* register the tail constituents' text extents on the (shared)
       head record BEFORE publishing the translation, so no invalidate
       can observe the superblock without its ranges *)
    head.Tcache.fused_ranges <-
      Array.map
        (fun (b : Tcache.block) -> (b.Tcache.bb_start, b.Tcache.bb_bytes))
        (Array.sub sc.blocks 1 (Array.length sc.blocks - 1));
    head.Tcache.compiled <- Code sc;
    Tcache.note_superblock tc;
    Some sc
  end

(* Per-constituent cycle attribution for the profiler: the same static
   prefix-sum formula [run_code]'s finish charges with, split at
   constituent boundaries, clamped to the retired prefix. Note order
   inside a dispatch is irrelevant (the profiler aggregates by
   address), so fused output is byte-identical to the per-block tiers. *)
let note_profile (c : code) cpu k =
  let parts = Array.length c.starts in
  let n = Array.length c.ops in
  let charge i = c.csum.(i) + (i * cpu.Cpu.insn_tax) + (c.crsum.(i) * cpu.Cpu.call_tax) in
  let j = ref 0 in
  while !j < parts && c.starts.(!j) < k do
    let lo = c.starts.(!j) in
    let hi = if !j + 1 < parts then c.starts.(!j + 1) else n in
    let hi = if k < hi then k else hi in
    Telemetry.Profile.note
      ~addr:(Array.unsafe_get c.blocks !j).Tcache.bb_start
      ~cycles:(charge hi - charge lo);
    incr j
  done

(* The tier-2 block runner: execute [c0], then keep transferring
   through live (or freshly patched) chain links until fuel runs out,
   a non-[Running] outcome exits to the OS, or the successor is not
   resolvable in-cache (bounce to the dispatcher, which decodes it).
   Fuel, cycle and fault accounting are exactly the per-block tier's:
   each hop retires through [run_code] with the remaining fuel. *)
let run_tier2 cpu mem ~is_builtin ~inline (c0 : code) ~fuel =
  let tc = cpu.Cpu.tcache in
  let profiling = Telemetry.Profile.enabled () in
  let threshold = Atomic.get fuse_threshold in
  let tier3 = Atomic.get tier_flag >= 3 in
  let rec enter (c : code) fuel acc =
    let c =
      if c.fuse_tried || c.hot < threshold then c
      else match try_fuse tc mem ~is_builtin ~inline c with Some sc -> sc | None -> c
    in
    c.hot <- c.hot + 1;
    let outcome, k =
      (* The register-caching chain has no fuel boundary inside it, so
         it only runs when fuel covers the whole translation; otherwise
         (and at tier 2) the per-step loop retires with exact limits. *)
      match c.t3 with
      | Some run3 when tier3 && fuel >= Array.length c.ops ->
        let ((_, k) as r) = run3 cpu mem in
        charge_exit c cpu k;
        r
      | _ -> run_code c cpu mem ~limit:fuel
    in
    if profiling then note_profile c cpu k;
    let acc = acc + k and fuel = fuel - k in
    match outcome with
    | Running when fuel > 0 -> follow c fuel acc
    | _ -> (outcome, acc)
  and follow c fuel acc =
    let rip = cpu.Cpu.rip in
    let l = link_for c rip in
    match link_live tc mem l rip is_builtin with
    | Some target ->
      Tcache.note_chain_hop tc;
      enter target fuel acc
    | None -> (
      match c.exit_ with
      | Ir.Stop -> (Running, acc)
      | _ -> (
        match resolve tc mem ~is_builtin ~inline rip with
        | Some target ->
          install_link tc l rip target;
          Tcache.note_chain_hop tc;
          enter target fuel acc
        | None -> (Running, acc)))
  in
  (* The dispatcher validated the head block's anchor; a superblock's
     tail constituents may still have gone stale. Strip back to a
     single-block translation rather than run stale code. *)
  let c0 =
    if Array.length c0.blocks > 1 && not (code_anchors_ok mem c0) then begin
      let head = Array.unsafe_get c0.blocks 0 in
      head.Tcache.fused_ranges <- [||];
      match compile ~inline ~is_builtin head with
      | Code c as slot ->
        head.Tcache.compiled <- slot;
        Tcache.note_compile tc;
        c
      | _ -> assert false (* compile always returns Code *)
    end
    else c0
  in
  enter c0 fuel 0
