(* Closure compilation of Tcache blocks, lowered from the explicit
   {!Ir} in passes (lift -> normalize -> fuse -> emit): every decision
   that depends only on the instruction encoding — operand shape,
   immediate values, addressing mode, builtin resolution for direct
   calls — is taken once here. Cycle charging and rip updates are
   deferred to block exit (see the protocol notes on [charge_exit]).

   Every instruction is lowered once, by [lower], into a step: a
   one-argument closure over the machine ([mach]) that updates the
   register file in place and tail-calls its continuation. A
   translation runs as the threaded chain, every step tail-calling the
   next ([run_chain]), which also runs mcc's four-instruction operand
   shuffle as one step ([shuffle]), and the shuffle with the binop that
   consumes it as one step too ([alu_window]). The chain has no fuel
   boundary inside it, so a translation longer than the fuel left — the
   fuel tail — runs the same steps one per loop turn against a
   continuation that just reports [Running] ([run_steps], exact
   limits). A step's own cost is kept small: each flag is one int64
   compare, rip and the cycle count are plain stores into the register
   file, and an 8-byte guest access inside one page reads the page
   table in place ([load]/[store]) rather than calling into [Memory].

   Translations also hand control to each other without leaving
   compiled code: a chain's exit follows its live chain link straight
   into the successor's chain ([hop]), and [run] takes over for every
   transfer a hop does not make — a link to patch, a fuel tail, a
   superblock to fuse, a stop. Hot unconditional chains are fused into
   superblock translations. Code is fetched from sealed pages only,
   which no fork relative can write, so a cached translation may run in
   every space of the family; see [translation] and [link_live]. *)

module I = Isa.Insn
module O = Isa.Operand

type outcome = Compiled.outcome =
  | Running
  | Builtin of string
  | Syscall_trap
  | Halted
  | Faulted of Fault.t

type builtin_fn = Cpu.t -> Memory.t -> int64

(* The one value a step takes: the CPU plus its address space, with the
   register file and flags one load away. [at] is the index of the step
   that stopped the run: a step sets it before anything that can raise
   or end the run, so a fault needs no more than rip set to that step's
   address. A chain may hop into its successor's chain at its exit
   ([hop]), so [cur] names the translation running now, [fuel] the fuel
   left at its entry and [retired] what the run has retired before it. *)
type mach = {
  cpu : Cpu.t;
  mem : Memory.t;
  regs : Bytes.t;
  flags : Cpu.flags;
  tmp : Bytes.t;  (* 8 bytes: where a slow 8-byte load leaves its value *)
  mutable at : int;
  mutable cur : code;
  mutable fuel : int;
  mutable retired : int;
  hops : bool;  (* direct hops allowed: off while the profiler runs *)
  threshold : int;  (* the fuse threshold, read once per run *)
  is_builtin : int64 -> string option;  (* the environment a link's target must fit *)
  tc : Tcache.t;
}

and step = mach -> outcome

(* A patched exit: the successor translation this code may enter
   directly while [link_live] holds. *)
and link = {
  mutable l_addr : int64;  (* entry rip the target translates *)
  mutable l_target : code option;
}

and code = {
  ops : step array;  (* step i against a [Running] continuation: the fuel tail *)
  chain : step;  (* the threaded chain: all steps, then the exit's [hop] *)
  addrs : int64 array;  (* address of each instruction *)
  nexts : int64 array;  (* fall-through rip of each insn, for the fuel tail *)
  csum : int array;  (* csum.(k) = static cycles of the first k insns *)
  crsum : int array;  (* crsum.(k) = call/ret insns among the first k *)
  sets_rip : bool array;
      (* step writes rip when returning Running — terminators, which
         superblock fusion can place mid-array; read by the fuel tail *)
  exit_ : Ir.exit_shape;
  blocks : Tcache.block array;  (* constituent blocks, head first *)
  starts : int array;  (* first instruction index of each constituent *)
  key : int64 -> string option;
      (* the [is_builtin] the code was specialized against; compare with
         (==) — code compiled for another environment must be rebuilt *)
  mutable hot : int;  (* entry count, drives superblock formation *)
  mutable fuse_tried : bool;
  mutable slot_current : bool;
      (* still what the head block's slot holds; cleared where the slot
         is overwritten ([translation] and [try_fuse], by [install]) *)
  link_a : link;  (* taken / unconditional / dynamic target cache *)
  link_b : link;  (* fall-through side of a two-way branch *)
}

type Compiled.slot += Code of code

(* Compiled execution on (default) or off, read once per block
   dispatch. Atomic so bench/tests can switch it while campaign domains
   are quiescent. *)
let enabled_flag = Atomic.make true

let set_enabled on = Atomic.set enabled_flag on
let enabled () = Atomic.get enabled_flag

(* Entries before a code becomes a superblock-formation candidate.
   Tests force 1 to fuse immediately; the default keeps cold paths out
   of the fused store. *)
let fuse_threshold = Atomic.make 16
let set_fuse_threshold n = Atomic.set fuse_threshold (Stdlib.max 1 n)
let get_fuse_threshold () = Atomic.get fuse_threshold

(* ---- Flag arithmetic and condition tests ---------------------------- *)
(* The steps' own writings; the interpreter keeps plain ones
   ([Exec.set_sub_flags] and the rest), the reference these are tested
   against. Inlined into the steps, so their int64 arguments are never
   boxed. Each flag is one compare on annotated int64 (never
   [Int64.compare], which builds a three-way result and compares it
   again): unsigned order is signed order with the sign bit flipped,
   and overflow is the sign of a xor mask — an add overflows when both
   operands differ in sign from the result, a sub when the operands
   differ in sign and the result's sign is not the minuend's. *)

let[@inline] ult (a : int64) (b : int64) =
  Int64.logxor a Int64.min_int < Int64.logxor b Int64.min_int

let[@inline] set_logic_flags (f : Cpu.flags) (r : int64) =
  f.zf <- r = 0L;
  f.sf <- r < 0L;
  f.cf <- false;
  f.of_ <- false

let[@inline] set_add_flags (f : Cpu.flags) (a : int64) (b : int64) (r : int64) =
  f.zf <- r = 0L;
  f.sf <- r < 0L;
  f.cf <- ult r a;
  f.of_ <- Int64.logand (Int64.logxor a r) (Int64.logxor b r) < 0L

let[@inline] set_sub_flags (f : Cpu.flags) (a : int64) (b : int64) (r : int64) =
  f.zf <- r = 0L;
  f.sf <- r < 0L;
  f.cf <- ult a b;
  f.of_ <- Int64.logand (Int64.logxor a b) (Int64.logxor a r) < 0L

let[@inline] cond_holds (f : Cpu.flags) = function
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

let xmm_to_bytes (lo, hi) =
  let b = Bytes.create 16 in
  Bytes.set_int64_le b 0 lo;
  Bytes.set_int64_le b 8 hi;
  b

let xmm_of_bytes b = (Bytes.get_int64_le b 0, Bytes.get_int64_le b 8)

(* ---- Register file and guest memory -------------------------------- *)

(* Register-file byte offset of a gpr. *)
let ro r = Isa.Reg.index r lsl 3

(* The offsets steps use by name, then rip and the cycle count past the
   gprs: literals for the same reason as the page geometry below *)
let rax_o = 0
let rdx_o = 24
let rbp_o = 48
let rsp_o = 56
let rip_o = 128
let cycles_o = 136

let () =
  assert (rax_o = ro Isa.Reg.RAX && rdx_o = ro Isa.Reg.RDX);
  assert (rbp_o = ro Isa.Reg.RBP && rsp_o = ro Isa.Reg.RSP);
  assert (rip_o = Cpu.rip_offset && cycles_o = Cpu.cycles_offset)

let[@inline] rget m o = Cpu.get64u m.regs o
let[@inline] rset m o v = Cpu.set64u m.regs o v

(* 8-byte guest accesses. One that lies inside the 128 MiB layout and
   inside one page reads the page table in place: an int address in,
   two array loads to the payload, nothing boxed and no call. A load
   then reads the payload, mapped or shared. A store writes it in place
   only when the chunk is owned and the page's privacy byte is set —
   the page is mapped and this space is its only owner (see
   {!Memory.t}) — and otherwise asks [Memory.store_page] for a private
   payload, which owns the chunk and breaks copy-on-write as
   [write_u64] would (a sealed text page is never private, so a store
   into text takes [store_page], which faults). Every other access
   takes Memory.read_u64/write_u64, and so does every access on a
   big-endian host (the payload primitives are native-endian, guest
   memory is little-endian) and a load from an unmapped page. Both
   paths fault at the same address. All page-table mutation stays
   inside [Memory].

   The layout test is unsigned: [Layout.address_limit] is a power of
   two, so an address lies inside it exactly when none of the bits at
   and above the limit is set. That also rejects addresses whose top bit
   [Int64.to_int] would drop, so the int address is the guest address,
   and its chunk index is below 256. The page-table geometry is written
   as literals (page shift 12, chunk shift 19, slot mask 127), which a
   dune dev build's [-opaque] would otherwise turn into loads; the
   asserts below tie them to [Memory]'s. *)
let above_layout = Int64.neg Layout.address_limit
let () = assert (Int64.logand Layout.address_limit (Int64.pred Layout.address_limit) = 0L)
let page_mask = Memory.page_size - 1
let last_off = Memory.page_size - 8

let () =
  assert (Memory.page_size = 1 lsl 12);
  assert (Memory.chunk_pages = 1 lsl (19 - 12));
  assert (Memory.chunk_pages - 1 = 127)

let[@inline] in_window a =
  (not Sys.big_endian)
  && Int64.logand a above_layout = 0L
  && Int64.to_int a land page_mask <= last_off

(* The slow load passes its value through [m.tmp], so both arms of
   [load] end in the same unboxed read: an arm returning read_u64's box
   would make the compiler box the window arm's value too. *)
let[@inline never] load_slow m a = Cpu.set64u m.tmp 0 (Memory.read_u64 m.mem a)

let[@inline] load m a =
  let p =
    if in_window a then
      let ai = Int64.to_int a in
      Array.unsafe_get (Array.unsafe_get m.mem.Memory.top (ai lsr 19)) ((ai lsr 12) land 127)
    else Memory.no_page
  in
  if p != Memory.no_page then Cpu.get64u p (Int64.to_int a land page_mask)
  else begin
    load_slow m a;
    Cpu.get64u m.tmp 0
  end

let[@inline] store m a v =
  if in_window a then begin
    let ai = Int64.to_int a in
    let mem = m.mem in
    let c = ai lsr 19 and s = (ai lsr 12) land 127 in
    let p =
      if
        Bytes.unsafe_get mem.Memory.owned c = '\001'
        && Bytes.unsafe_get (Array.unsafe_get mem.Memory.privs c) s = '\001'
      then Array.unsafe_get (Array.unsafe_get mem.Memory.top c) s
      else Memory.store_page mem ai
    in
    Cpu.set64u p (ai land page_mask) v
  end
  else Memory.write_u64 m.mem a v

(* Stack discipline of the interpreter's [push]/[pop]: rsp moves before
   the store (a faulting push leaves it decremented) and after the load
   (a faulting pop leaves it unchanged). *)
let[@inline] push_m m v =
  let rsp = Int64.sub (rget m rsp_o) 8L in
  rset m rsp_o rsp;
  store m rsp v

let[@inline] pop_m m =
  let rsp = rget m rsp_o in
  let v = load m rsp in
  rset m rsp_o (Int64.add rsp 8L);
  v

(* ---- Operands ------------------------------------------------------- *)

(* An effective address as captured values, evaluated in line at each
   use so the sum stays an unboxed int64: [b]/[x] are register-file
   offsets, -1 when absent. Int64 addition is associative modulo 2^64,
   so the sum equals the interpreter's seg + base + (index*scale + disp). *)
type ea = { fs : bool; b : int; x : int; s : int64; d : int64 }

let ea_of (m : O.mem) =
  let b = match m.O.base with Some r -> ro r | None -> -1 in
  let x, s =
    match m.O.index with
    | Some (r, s) -> (ro r, Int64.of_int (O.scale_factor s))
    | None -> (-1, 0L)
  in
  { fs = m.O.seg_fs; b; x; s; d = m.O.disp }

let[@inline] ea_val m e =
  let a = if e.b < 0 then e.d else Int64.add (rget m e.b) e.d in
  let a = if e.x < 0 then a else Int64.add a (Int64.mul (rget m e.x) e.s) in
  if e.fs then Int64.add m.cpu.Cpu.fs_base a else a

type opnd = R of int | K of int64 | M of ea

let opnd = function O.Reg r -> R (ro r) | O.Imm v -> K v | O.Mem m -> M (ea_of m)

let store_to_imm addr = Fault.Trap (Fault.Bad_instruction (addr, "store to immediate"))

let[@inline] read m = function
  | R o -> rget m o
  | K v -> v
  | M e -> load m (ea_val m e)

let[@inline] write m addr o v =
  match o with
  | R o -> rset m o v
  | M e -> store m (ea_val m e) v
  | K _ -> raise (store_to_imm addr)

let[@inline] read8 m = function
  | R o -> Int64.to_int (rget m o) land 0xFF
  | K v -> Int64.to_int v land 0xFF
  | M e -> Memory.read_u8 m.mem (ea_val m e)

let[@inline] write8 m addr o v =
  match o with
  | R o ->
    (* low-byte merge, like real mov to an 8-bit subregister *)
    rset m o (Int64.logor (Int64.logand (rget m o) (-256L)) (Int64.of_int (v land 0xFF)))
  | M e -> Memory.write_u8 m.mem (ea_val m e) v
  | K _ -> raise (store_to_imm addr)

let[@inline] read32 m = function
  | R o -> Int64.logand (rget m o) 0xFFFFFFFFL
  | K v -> Int64.logand v 0xFFFFFFFFL
  | M e -> Memory.read_u32 m.mem (ea_val m e)

let[@inline] write32 m addr o v =
  match o with
  | R o -> rset m o (Int64.logand v 0xFFFFFFFFL)
  | M e -> Memory.write_u32 m.mem (ea_val m e) v
  | K _ -> raise (store_to_imm addr)

let[@inline] logic f r =
  set_logic_flags f r;
  r

let[@inline] check_div addr a b =
  if Int64.equal b 0L then
    raise (Fault.Trap (Fault.Bad_instruction (addr, "division by zero")));
  (* x86 #DE also covers INT64_MIN / -1 *)
  if Int64.equal a Int64.min_int && Int64.equal b (-1L) then
    raise (Fault.Trap (Fault.Bad_instruction (addr, "division overflow")))

(* Result of a writing binop, flags settled. Cmp/Test only set flags
   and are lowered apart. *)
let[@inline] alu f addr bop a b =
  match bop with
  | I.Add ->
    let r = Int64.add a b in
    set_add_flags f a b r;
    r
  | I.Sub ->
    let r = Int64.sub a b in
    set_sub_flags f a b r;
    r
  | I.Xor -> logic f (Int64.logxor a b)
  | I.And -> logic f (Int64.logand a b)
  | I.Or -> logic f (Int64.logor a b)
  | I.Imul -> logic f (Int64.mul a b)
  | I.Idiv ->
    check_div addr a b;
    logic f (Int64.div a b)
  | I.Irem ->
    check_div addr a b;
    logic f (Int64.rem a b)
  | I.Cmp | I.Test -> assert false

let[@inline] zero_flags (f : Cpu.flags) =
  f.zf <- true;
  f.sf <- false;
  f.cf <- false;
  f.of_ <- false

(* ---- Lowering: one step per instruction ----------------------------- *)

type env = {
  is_builtin : int64 -> string option;
  inline : string -> builtin_fn option;
  csum : int array;
  crsum : int array;
}

(* Step [i] of a translation, continuing into [k]. [addr] is the
   instruction's own address (what rip reads during its
   interpretation — rip itself is stale while compiled code runs),
   [next] its fall-through rip. Each step mutates state in the
   interpreter's order — value reads before rsp moves, flags before the
   destination write, register writes before a store that can fault —
   so a fault mid-instruction leaves identical partial state. A step
   that can raise or end the run sets [m.at <- i] first. *)
let lower env ~i (st : Ir.step) (k : step) : step =
  let addr = st.Ir.addr and next = st.Ir.next in
  match st.Ir.uop with
  | Ir.Nop_cost -> k
  | Ir.Zero r ->
    (* normalized [xor r, r]: no operand reads, constant flag settle *)
    let r = r lsl 3 in
    fun m ->
      rset m r 0L;
      zero_flags m.flags;
      k m
  | Ir.Exec insn -> (
    match insn with
    | I.Nop -> k
    (* mov, the stack machine's shapes first *)
    | I.Mov (O.Reg d, O.Imm v) ->
      let d = ro d in
      fun m ->
        rset m d v;
        k m
    | I.Mov (O.Reg d, O.Reg s) ->
      let d = ro d and s = ro s in
      fun m ->
        rset m d (rget m s);
        k m
    | I.Mov (O.Reg d, O.Mem { O.seg_fs = false; base = Some b; index = None; disp }) ->
      let d = ro d and b = ro b in
      fun m ->
        m.at <- i;
        rset m d (load m (Int64.add (rget m b) disp));
        k m
    | I.Mov (O.Mem { O.seg_fs = false; base = Some b; index = None; disp }, O.Reg s) ->
      let b = ro b and s = ro s in
      fun m ->
        m.at <- i;
        store m (Int64.add (rget m b) disp) (rget m s);
        k m
    | I.Mov (dst, src) ->
      let dst = opnd dst and src = opnd src in
      fun m ->
        m.at <- i;
        (* source read faults before a store-to-immediate traps *)
        let v = read m src in
        write m addr dst v;
        k m
    | I.Movb (dst, src) ->
      let dst = opnd dst and src = opnd src in
      fun m ->
        m.at <- i;
        let v = read8 m src in
        write8 m addr dst v;
        k m
    | I.Movl (dst, src) ->
      let dst = opnd dst and src = opnd src in
      fun m ->
        m.at <- i;
        let v = read32 m src in
        write32 m addr dst v;
        k m
    | I.Lea (r, e) ->
      let r = ro r and e = ea_of e in
      fun m ->
        rset m r (ea_val m e);
        k m
    | I.Push (O.Reg s) ->
      let s = ro s in
      fun m ->
        m.at <- i;
        (* value read before rsp moves: push rsp stores the old rsp *)
        push_m m (rget m s);
        k m
    | I.Push src ->
      let src = opnd src in
      fun m ->
        m.at <- i;
        push_m m (read m src);
        k m
    | I.Pop (O.Reg d) ->
      let d = ro d in
      fun m ->
        m.at <- i;
        (* rsp bump before the destination write: pop rsp ends at v *)
        let v = pop_m m in
        rset m d v;
        k m
    | I.Pop dst ->
      let dst = opnd dst in
      fun m ->
        m.at <- i;
        let v = pop_m m in
        write m addr dst v;
        k m
    (* binops: the compare idioms, then the general shape *)
    | I.Bin (I.Add, O.Reg d, O.Imm v) ->
      let d = ro d in
      fun m ->
        let a = rget m d in
        let r = Int64.add a v in
        set_add_flags m.flags a v r;
        rset m d r;
        k m
    | I.Bin (I.Sub, O.Reg d, O.Imm v) ->
      let d = ro d in
      fun m ->
        let a = rget m d in
        let r = Int64.sub a v in
        set_sub_flags m.flags a v r;
        rset m d r;
        k m
    | I.Bin (I.Cmp, O.Reg d, O.Imm v) ->
      let d = ro d in
      fun m ->
        let a = rget m d in
        set_sub_flags m.flags a v (Int64.sub a v);
        k m
    | I.Bin (I.Cmp, O.Reg d, O.Reg s) ->
      let d = ro d and s = ro s in
      fun m ->
        let a = rget m d and b = rget m s in
        set_sub_flags m.flags a b (Int64.sub a b);
        k m
    | I.Bin (I.Cmp, dst, src) ->
      let dst = opnd dst and src = opnd src in
      fun m ->
        m.at <- i;
        let a = read m dst in
        let b = read m src in
        set_sub_flags m.flags a b (Int64.sub a b);
        k m
    | I.Bin (I.Test, dst, src) ->
      let dst = opnd dst and src = opnd src in
      fun m ->
        m.at <- i;
        let a = read m dst in
        let b = read m src in
        set_logic_flags m.flags (Int64.logand a b);
        k m
    | I.Bin (bop, dst, src) ->
      let dst = opnd dst and src = opnd src in
      fun m ->
        m.at <- i;
        let a = read m dst in
        let b = read m src in
        (* flags settle before the destination write, so a faulting
           mem-dst store still leaves them updated (as interpreted) *)
        let r = alu m.flags addr bop a b in
        write m addr dst r;
        k m
    | I.Shift (sop, dst, n) -> (
      match n land 63 with
      (* masked count 0: no read, no flag or destination change *)
      | 0 -> k
      | n ->
        let dst = opnd dst in
        fun m ->
          m.at <- i;
          let a = read m dst in
          let r =
            match sop with
            | I.Shl -> Int64.shift_left a n
            | I.Shr -> Int64.shift_right_logical a n
            | I.Sar -> Int64.shift_right a n
          in
          set_logic_flags m.flags r;
          write m addr dst r;
          k m)
    | I.Neg op ->
      let op = opnd op in
      fun m ->
        m.at <- i;
        let a = read m op in
        let r = Int64.neg a in
        let f = m.flags in
        set_logic_flags f r;
        f.cf <- not (Int64.equal a 0L);
        f.of_ <- Int64.equal a Int64.min_int;
        write m addr op r;
        k m
    | I.Not op ->
      let op = opnd op in
      fun m ->
        m.at <- i;
        let v = Int64.lognot (read m op) in
        write m addr op v;
        k m
    | I.Setcc (c, r) ->
      let r = ro r in
      fun m ->
        rset m r (if cond_holds m.flags c then 1L else 0L);
        k m
    (* control transfers: the only steps that write rip *)
    | I.Jmp (I.Abs a) ->
      fun m ->
        rset m rip_o a;
        k m
    | I.Jcc (c, I.Abs a) ->
      fun m ->
        rset m rip_o (if cond_holds m.flags c then a else next);
        k m
    | I.Jcc (c, I.Sym s) ->
      fun m ->
        (* symbolic target only resolves (and faults) when taken *)
        if cond_holds m.flags c then begin
          m.at <- i;
          raise (Isa.Encode.Unresolved_symbol s)
        end
        else begin
          rset m rip_o next;
          k m
        end
    | I.Jmp (I.Sym s) | I.Call (I.Sym s) ->
      fun m ->
        m.at <- i;
        raise (Isa.Encode.Unresolved_symbol s)
    | I.Call (I.Abs a) -> (
      (* direct calls resolve the builtin table once, here; [code.key]
         guards against running under a different environment *)
      match env.is_builtin a with
      | Some name -> (
        match env.inline name with
        | Some f -> (
          (* builtin inlining: the pure core runs inside the block and
             control falls through, so chains and superblocks continue
             straight across the call. Protocol match with the OS path:
             rip advances past the call before the body runs (the kernel
             dispatches after the call retired), the return value lands
             in rax, and a fault inside the body kills with rip already
             past the call — which is why the Trap is consumed here, not
             left to the runner (that would rewind rip to the call
             itself). Cycle charges happen inside [f], exactly as the OS
             dispatch would have charged them. *)
          fun m ->
            rset m rip_o next;
            match f m.cpu m.mem with
            | v ->
              rset m rax_o v;
              k m
            | exception Fault.Trap fault ->
              m.at <- i;
              Faulted fault)
        | None ->
          fun m ->
            rset m rip_o next;
            m.at <- i;
            Builtin name)
      | None ->
        fun m ->
          m.at <- i;
          push_m m next;
          rset m rip_o a;
          k m)
    | I.Call_ind op ->
      let op = opnd op and is_builtin = env.is_builtin in
      fun m -> (
        m.at <- i;
        let a = read m op in
        match is_builtin a with
        | Some name ->
          rset m rip_o next;
          Builtin name
        | None ->
          push_m m next;
          rset m rip_o a;
          k m)
    | I.Ret ->
      fun m ->
        m.at <- i;
        let a = pop_m m in
        rset m rip_o a;
        k m
    | I.Leave ->
      fun m ->
        m.at <- i;
        (* rsp := rbp first, so a faulting pop leaves rsp = rbp *)
        rset m rsp_o (rget m rbp_o);
        let v = pop_m m in
        rset m rbp_o v;
        k m
    | I.Rdrand r ->
      let r = ro r in
      fun m ->
        rset m r (Util.Prng.next64 m.cpu.Cpu.rng);
        m.flags.Cpu.cf <- true;
        m.flags.Cpu.zf <- false;
        k m
    | I.Pac (d, md) ->
      let d = ro d and md = ro md in
      fun m ->
        let value = rget m d and modifier = rget m md in
        rset m d (Cpu.pac_sign m.cpu ~value ~modifier);
        k m
    | I.Aut (d, md) ->
      let d = ro d and md = ro md in
      fun m ->
        let value = rget m d and modifier = rget m md in
        let f = m.flags in
        f.zf <- Cpu.pac_auth m.cpu ~value ~modifier;
        f.sf <- false;
        f.cf <- false;
        f.of_ <- false;
        rset m d (Cpu.pac_strip value);
        k m
    | I.Rdtsc ->
      (* Deferred charging leaves the cycle count at the translation-entry
         value while compiled code runs, but the interpreter charges
         instruction [i] before executing it — so the tsc it would read
         here is the entry cycles plus the retired prefix's static
         charge, all known at translation time. *)
      let static = env.csum.(i + 1) and calls = env.crsum.(i + 1) and retired = i + 1 in
      fun m ->
        let cpu = m.cpu in
        let tsc =
          Int64.add (rget m cycles_o)
            (Int64.of_int
               (static + (retired * cpu.Cpu.insn_tax) + (calls * cpu.Cpu.call_tax)))
        in
        rset m rax_o (Int64.logand tsc 0xFFFFFFFFL);
        rset m rdx_o (Int64.shift_right_logical tsc 32);
        k m
    | I.Syscall ->
      fun m ->
        rset m rip_o next;
        m.at <- i;
        Syscall_trap
    | I.Hlt ->
      fun m ->
        (* the interpreter leaves rip at the hlt itself *)
        rset m rip_o addr;
        m.at <- i;
        Halted
    | I.Movq_to_xmm (x, r) ->
      let x = Isa.Reg.Xmm.index x and r = ro r in
      fun m ->
        Array.unsafe_set m.cpu.Cpu.xmms x (rget m r, 0L);
        k m
    | I.Movq_from_xmm (r, x) ->
      let r = ro r and x = Isa.Reg.Xmm.index x in
      fun m ->
        let lo, _ = Array.unsafe_get m.cpu.Cpu.xmms x in
        rset m r lo;
        k m
    | I.Pinsrq_high (x, r) ->
      let x = Isa.Reg.Xmm.index x and r = ro r in
      fun m ->
        let xmms = m.cpu.Cpu.xmms in
        let lo, _ = Array.unsafe_get xmms x in
        Array.unsafe_set xmms x (lo, rget m r);
        k m
    | I.Movhps_load (x, e) ->
      let x = Isa.Reg.Xmm.index x and e = ea_of e in
      fun m ->
        m.at <- i;
        let xmms = m.cpu.Cpu.xmms in
        let lo, _ = Array.unsafe_get xmms x in
        let hi = load m (ea_val m e) in
        Array.unsafe_set xmms x (lo, hi);
        k m
    | I.Movq_store (e, x) ->
      let e = ea_of e and x = Isa.Reg.Xmm.index x in
      fun m ->
        m.at <- i;
        let lo, _ = Array.unsafe_get m.cpu.Cpu.xmms x in
        store m (ea_val m e) lo;
        k m
    | I.Movdqu_load (x, e) ->
      let x = Isa.Reg.Xmm.index x and e = ea_of e in
      fun m ->
        m.at <- i;
        let a = ea_val m e in
        (* high qword first, matching the interpreter's read order, so a
           half-unmapped access faults at the same address *)
        let hi = load m (Int64.add a 8L) in
        let lo = load m a in
        Array.unsafe_set m.cpu.Cpu.xmms x (lo, hi);
        k m
    | I.Movdqu_store (e, x) ->
      let e = ea_of e and x = Isa.Reg.Xmm.index x in
      fun m ->
        m.at <- i;
        let a = ea_val m e in
        let lo, hi = Array.unsafe_get m.cpu.Cpu.xmms x in
        store m a lo;
        store m (Int64.add a 8L) hi;
        k m
    | I.Aesenc (dst, src) ->
      let d = Isa.Reg.Xmm.index dst and s = Isa.Reg.Xmm.index src in
      fun m ->
        let xmms = m.cpu.Cpu.xmms in
        let state = xmm_to_bytes (Array.unsafe_get xmms d) in
        let round_key = xmm_to_bytes (Array.unsafe_get xmms s) in
        Array.unsafe_set xmms d (xmm_of_bytes (Crypto.Aes128.aesenc ~state ~round_key));
        k m
    | I.Aesenclast (dst, src) ->
      let d = Isa.Reg.Xmm.index dst and s = Isa.Reg.Xmm.index src in
      fun m ->
        let xmms = m.cpu.Cpu.xmms in
        let state = xmm_to_bytes (Array.unsafe_get xmms d) in
        let round_key = xmm_to_bytes (Array.unsafe_get xmms s) in
        Array.unsafe_set xmms d
          (xmm_of_bytes (Crypto.Aes128.aesenclast ~state ~round_key));
        k m
    | I.Pcmpeq128 (x, e) ->
      let x = Isa.Reg.Xmm.index x and e = ea_of e in
      fun m ->
        m.at <- i;
        let lo, hi = Array.unsafe_get m.cpu.Cpu.xmms x in
        let a = ea_val m e in
        let mlo = load m a in
        let mhi = load m (Int64.add a 8L) in
        let f = m.flags in
        f.zf <- Int64.equal lo mlo && Int64.equal hi mhi;
        f.sf <- false;
        f.cf <- false;
        f.of_ <- false;
        k m)

(* ---- Charging, links and direct hops ------------------------------- *)

(* Protocol: while compiled code runs, rip is stale (still the
   translation entry). Straight-line steps never touch it; control steps
   set it before continuing; every way out settles it to exactly what
   the interpreter would have left. Cycles (static cost + insn tax +
   call tax) are settled once per translation from the prefix sums —
   the interpreter charges instruction [i] before executing it, so a
   translation that retires k instructions has charged the first k
   either way. A direct hop charges the translation it leaves, all of
   whose steps retired; [run] charges the one a run stops in, whose
   stopping step both runners leave in [m.at], so k is [m.at + 1]. *)
let[@inline] charge_exit m (c : code) k =
  let cpu = m.cpu in
  let n =
    Array.unsafe_get c.csum k
    + (k * cpu.Cpu.insn_tax)
    + (Array.unsafe_get c.crsum k * cpu.Cpu.call_tax)
  in
  rset m cycles_o (Int64.add (rget m cycles_o) (Int64.of_int n))

(* A link skips the dispatcher's fetch, so it may be followed only
   while [translation] would still answer with its target:
   - [l_addr]: the exit really goes where the target translates
     (dynamic exits — ret, indirect call — carry a 1-entry inline
     cache);
   - [key] and [slot_current]: the target is the head slot's
     translation for this environment.
   Links live in code that a fork family shares; the code was decoded
   from sealed pages, so one resolved in a relative is safe to follow
   here. *)
let[@inline] link_live (l : link) (c : code) rip key =
  Int64.equal l.l_addr rip && c.key == key && c.slot_current

(* The exit of [m.cur]'s chain, all [n] of its steps retired and rip
   settled: enter the successor behind [l] directly, without returning
   to [run], when
   - the profiler is off ([note_profile] sees every translation),
   - the fuel left after [m.cur] covers the successor's whole chain,
   - the successor is not due for superblock formation (checked before
     its entry count moves, as [run] does), and
   - the link is live.
   The hop charges and counts [m.cur] first, just as [run] would have.
   Otherwise [Running] hands the transfer back to [run]. *)
let[@inline] hop m n (l : link) rip =
  match l.l_target with
  | Some t
    when m.hops
         && m.fuel - n >= Array.length t.ops
         && (t.fuse_tried || t.hot < m.threshold)
         && link_live l t rip m.is_builtin ->
    charge_exit m m.cur n;
    m.fuel <- m.fuel - n;
    m.retired <- m.retired + n;
    t.hot <- t.hot + 1;
    Tcache.note_chain_hop m.tc;
    m.cur <- t;
    t.chain m
  | _ -> Running

(* ---- Block translation: lift -> normalize -> emit -------------------- *)

let running : step = fun _ -> Running

let fresh_link () = { l_addr = 0L; l_target = None }

(* mcc's operand shuffle, [push a; mov a, S; mov b, a; pop a], which
   moves S into b around a scratch stack slot, as one chain step at
   steps [i..i+3]: it stores a at rsp - 8 and sets b to S, and leaves a,
   rsp and the flags as they were. The pop would reload the value just
   stored and nothing in between writes memory, so a keeps its own
   value. The store comes first with rsp lowered and names the push; S
   is read with rsp still lowered and names the mov; so a fault in
   either leaves the interpreter's partial state and retire count. The
   mov b, a and the pop cannot fault. *)
let shuffle_window (ir : Ir.t) i =
  let st = ir.Ir.steps in
  let n = Array.length st in
  let reg = Isa.Reg.equal in
  let starts_inside (p : Ir.part) = p.Ir.start > i && p.Ir.start <= i + 3 in
  (* the pop is not the last step, and no constituent starts inside *)
  if i + 3 >= n - 1 || Array.exists starts_inside ir.Ir.parts then None
  else
    match (st.(i).Ir.uop, st.(i + 1).Ir.uop, st.(i + 2).Ir.uop, st.(i + 3).Ir.uop) with
    | ( Ir.Exec (I.Push (O.Reg a)),
        Ir.Exec (I.Mov (O.Reg a1, src)),
        Ir.Exec (I.Mov (O.Reg b, O.Reg a2)),
        Ir.Exec (I.Pop (O.Reg a3)) )
      when reg a1 a && reg a2 a && reg a3 a && (not (reg b a))
           && (not (reg a Isa.Reg.RSP)) && not (reg b Isa.Reg.RSP) ->
      Some (a, b, src)
    | _ -> None

(* The binop consuming the shuffle window at [i], mcc's [OP a, b] right
   after the pop on the same a and b, when it is not the last step and
   no constituent starts at it. *)
let alu_consumer (ir : Ir.t) i a b =
  let st = ir.Ir.steps and j = i + 4 in
  if j >= Array.length st - 1 || Array.exists (fun (p : Ir.part) -> p.Ir.start = j) ir.Ir.parts
  then None
  else
    match st.(j).Ir.uop with
    | Ir.Exec (I.Bin (bop, O.Reg a', O.Reg b')) when Isa.Reg.equal a a' && Isa.Reg.equal b b'
      ->
      Some bop
    | _ -> None

(* The shuffle's push: a stored at rsp - 8 with rsp lowered, as step
   [i]. Returns the rsp to restore. *)
let[@inline] shuffle_push m i a =
  m.at <- i;
  let rsp = rget m rsp_o in
  let sp = Int64.sub rsp 8L in
  rset m rsp_o sp;
  store m sp (rget m a);
  rsp

(* The whole shuffle for each shape of S: the push, b set to S read
   with rsp still lowered (naming the mov), rsp restored. mcc's right
   operands are constants and locals, so those two shapes get their own
   code. *)
let[@inline] shuffle_imm m i a b v =
  let rsp = shuffle_push m i a in
  rset m b v;
  rset m rsp_o rsp

let[@inline] shuffle_local m i a b r disp =
  let rsp = shuffle_push m i a in
  m.at <- i + 1;
  rset m b (load m (Int64.add (rget m r) disp));
  rset m rsp_o rsp

let[@inline] shuffle_any m i a b src =
  let rsp = shuffle_push m i a in
  m.at <- i + 1;
  rset m b (read m src);
  rset m rsp_o rsp

let shuffle ~i a b src (k : step) : step =
  let a = ro a and b = ro b in
  match src with
  | O.Imm v ->
    fun m ->
      shuffle_imm m i a b v;
      k m
  | O.Mem { O.seg_fs = false; base = Some r; index = None; disp } ->
    let r = ro r in
    fun m ->
      shuffle_local m i a b r disp;
      k m
  | src ->
    let src = opnd src in
    fun m ->
      shuffle_any m i a b src;
      k m

(* [OP a, b], step [i + 4] at [addr], after the shuffle set b. Flags
   settle through the steps' own setters; only idiv and irem can fault
   (#DE), and they name the OP. *)
let[@inline] consume m i addr a b bop =
  let x = rget m a and y = rget m b in
  match bop with
  | I.Cmp -> set_sub_flags m.flags x y (Int64.sub x y)
  | I.Test -> set_logic_flags m.flags (Int64.logand x y)
  | I.Idiv | I.Irem ->
    m.at <- i + 4;
    rset m a (alu m.flags addr bop x y)
  | _ -> rset m a (alu m.flags addr bop x y)

(* mcc's binary-expression idiom, [push a; mov a, S; mov b, a; pop a;
   OP a, b], as one chain step at steps [i..i+4]: the shuffle, then the
   OP. Each (OP, shape of S) pair gets a closure of its own, so [consume]
   folds to that OP's code and no step branches on the OP. *)
let alu_window ~i ~addr a b src bop (k : step) : step =
  let a = ro a and b = ro b in
  match src with
  | O.Imm v -> (
    match bop with
    | I.Add -> fun m -> shuffle_imm m i a b v; consume m i addr a b I.Add; k m
    | I.Sub -> fun m -> shuffle_imm m i a b v; consume m i addr a b I.Sub; k m
    | I.Xor -> fun m -> shuffle_imm m i a b v; consume m i addr a b I.Xor; k m
    | I.And -> fun m -> shuffle_imm m i a b v; consume m i addr a b I.And; k m
    | I.Or -> fun m -> shuffle_imm m i a b v; consume m i addr a b I.Or; k m
    | I.Cmp -> fun m -> shuffle_imm m i a b v; consume m i addr a b I.Cmp; k m
    | I.Test -> fun m -> shuffle_imm m i a b v; consume m i addr a b I.Test; k m
    | I.Imul -> fun m -> shuffle_imm m i a b v; consume m i addr a b I.Imul; k m
    | I.Idiv -> fun m -> shuffle_imm m i a b v; consume m i addr a b I.Idiv; k m
    | I.Irem -> fun m -> shuffle_imm m i a b v; consume m i addr a b I.Irem; k m)
  | O.Mem { O.seg_fs = false; base = Some r; index = None; disp } -> (
    let r = ro r in
    match bop with
    | I.Add -> fun m -> shuffle_local m i a b r disp; consume m i addr a b I.Add; k m
    | I.Sub -> fun m -> shuffle_local m i a b r disp; consume m i addr a b I.Sub; k m
    | I.Xor -> fun m -> shuffle_local m i a b r disp; consume m i addr a b I.Xor; k m
    | I.And -> fun m -> shuffle_local m i a b r disp; consume m i addr a b I.And; k m
    | I.Or -> fun m -> shuffle_local m i a b r disp; consume m i addr a b I.Or; k m
    | I.Cmp -> fun m -> shuffle_local m i a b r disp; consume m i addr a b I.Cmp; k m
    | I.Test -> fun m -> shuffle_local m i a b r disp; consume m i addr a b I.Test; k m
    | I.Imul -> fun m -> shuffle_local m i a b r disp; consume m i addr a b I.Imul; k m
    | I.Idiv -> fun m -> shuffle_local m i a b r disp; consume m i addr a b I.Idiv; k m
    | I.Irem -> fun m -> shuffle_local m i a b r disp; consume m i addr a b I.Irem; k m)
  | src -> (
    let src = opnd src in
    match bop with
    | I.Add -> fun m -> shuffle_any m i a b src; consume m i addr a b I.Add; k m
    | I.Sub -> fun m -> shuffle_any m i a b src; consume m i addr a b I.Sub; k m
    | I.Xor -> fun m -> shuffle_any m i a b src; consume m i addr a b I.Xor; k m
    | I.And -> fun m -> shuffle_any m i a b src; consume m i addr a b I.And; k m
    | I.Or -> fun m -> shuffle_any m i a b src; consume m i addr a b I.Or; k m
    | I.Cmp -> fun m -> shuffle_any m i a b src; consume m i addr a b I.Cmp; k m
    | I.Test -> fun m -> shuffle_any m i a b src; consume m i addr a b I.Test; k m
    | I.Imul -> fun m -> shuffle_any m i a b src; consume m i addr a b I.Imul; k m
    | I.Idiv -> fun m -> shuffle_any m i a b src; consume m i addr a b I.Idiv; k m
    | I.Irem -> fun m -> shuffle_any m i a b src; consume m i addr a b I.Irem; k m)

(* The threaded chain: step [i] tail-calls step [i+1] through that
   closure's own code pointer (a one-argument application needs no
   caml_applyN trampoline), and the last one continues into the exit,
   which settles rip like [run_steps]'s stop at the translation end and
   then tries a direct [hop] into the successor. Inside the chain a
   jmp's or direct call's rip write is dead — every later way out (a
   fault, a kernel-visible stop, the exit) writes rip itself — so the
   chain drops the jmp and keeps only the call's push. An operand
   shuffle becomes one step ([shuffle]), and so does a shuffle with its
   consuming binop ([alu_window]). These are emission details of the
   chain: the IR keeps one step per instruction, and so do the fuel
   tail's per-step [ops]. *)
let emit_chain env (ir : Ir.t) =
  let steps = ir.Ir.steps in
  let n = Array.length steps in
  let last = steps.(n - 1) in
  let exit_ : step =
    match ir.Ir.exit_ with
    | Ir.Branch { taken; _ } ->
      (* the jcc wrote rip; pick the link for the side it took *)
      fun m ->
        m.at <- n - 1;
        let rip = rget m rip_o in
        hop m n (if Int64.equal rip taken then m.cur.link_a else m.cur.link_b) rip
    | _ when last.Ir.sets_rip ->
      fun m ->
        m.at <- n - 1;
        hop m n m.cur.link_a (rget m rip_o)
    | _ ->
      let fall = last.Ir.next in
      fun m ->
        rset m rip_o fall;
        m.at <- n - 1;
        hop m n m.cur.link_a fall
  in
  let inner (st : Ir.step) =
    match st.Ir.uop with
    | Ir.Exec (I.Jmp (I.Abs _)) -> { st with Ir.uop = Ir.Nop_cost }
    | Ir.Exec (I.Call (I.Abs a)) when Option.is_none (env.is_builtin a) ->
      { st with Ir.uop = Ir.Exec (I.Push (O.Imm st.Ir.next)) }
    | _ -> st
  in
  let rec build i =
    if i = n - 1 then lower env ~i last exit_
    else
      match shuffle_window ir i with
      | Some (a, b, src) -> (
        match alu_consumer ir i a b with
        | Some bop -> alu_window ~i ~addr:steps.(i + 4).Ir.addr a b src bop (build (i + 5))
        | None -> shuffle ~i a b src (build (i + 4)))
      | None -> lower env ~i (inner steps.(i)) (build (i + 1))
  in
  build 0

let emit ~is_builtin ~inline (ir : Ir.t) : code =
  let steps = ir.Ir.steps in
  let n = Array.length steps in
  let csum = Array.make (n + 1) 0 in
  let crsum = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    csum.(i + 1) <- csum.(i) + steps.(i).Ir.cost;
    crsum.(i + 1) <- crsum.(i) + Bool.to_int steps.(i).Ir.callret
  done;
  let env = { is_builtin; inline; csum; crsum } in
  {
    ops = Array.mapi (fun i st -> lower env ~i st running) steps;
    chain = emit_chain env ir;
    addrs = Array.map (fun (s : Ir.step) -> s.Ir.addr) steps;
    nexts = Array.map (fun (s : Ir.step) -> s.Ir.next) steps;
    csum;
    crsum;
    sets_rip = Array.map (fun (s : Ir.step) -> s.Ir.sets_rip) steps;
    exit_ = ir.Ir.exit_;
    blocks = Array.map (fun (p : Ir.part) -> p.Ir.block) ir.Ir.parts;
    starts = Array.map (fun (p : Ir.part) -> p.Ir.start) ir.Ir.parts;
    key = is_builtin;
    hot = 0;
    fuse_tried = Array.length ir.Ir.parts > 1;
    slot_current = true;
    link_a = fresh_link ();
    link_b = fresh_link ();
  }

let block_ir ~is_builtin ~inline (b : Tcache.block) =
  let inlinable name = Option.is_some (inline name) in
  Ir.normalize (Ir.lift ~is_builtin ~inlinable b)

(* ---- Execution ------------------------------------------------------ *)

(* A step raised: the interpreter leaves rip at the faulting
   instruction, step [i] of the running translation. *)
let fault_exit m i e =
  let a = Array.unsafe_get m.cur.addrs i in
  m.at <- i;
  rset m rip_o a;
  match e with
  | Fault.Trap f -> Faulted f
  | Isa.Encode.Unresolved_symbol s ->
    Faulted (Fault.Bad_instruction (a, "unresolved symbol " ^ s))
  | e -> raise e

(* The fuel tail: one step per turn, stopping after [limit]. *)
let rec steps_from (code : code) m i limit =
  match (Array.unsafe_get code.ops i) m with
  | Running when i + 1 < limit -> steps_from code m (i + 1) limit
  | Running ->
    (* stop here (terminator or fuel boundary): settle rip to the
       fall-through unless this step already wrote it — in a
       superblock, jmp/call steps sit mid-array too *)
    if not (Array.unsafe_get code.sets_rip i) then
      rset m rip_o (Array.unsafe_get code.nexts i);
    m.at <- i;
    Running
  | outcome ->
    m.at <- i;
    outcome
  | exception ((Fault.Trap _ | Isa.Encode.Unresolved_symbol _) as e) -> fault_exit m i e

let run_steps (code : code) m ~limit =
  let n = Array.length code.ops in
  steps_from code m 0 (if limit < n then limit else n)

(* [m.cur]'s whole chain, and the chains it hops into, in one run. A
   fault names its step in whichever translation is running then. *)
let run_chain m =
  match m.cur.chain m with
  | outcome -> outcome
  | exception ((Fault.Trap _ | Isa.Encode.Unresolved_symbol _) as e) -> fault_exit m m.at e

(* ---- Chaining, superblocks, profiling attribution ------------------- *)

(* Put [c] in [b]'s slot. The code it replaces is no longer current, so
   every chain link pointing at it retargets on its next traversal. *)
let install (b : Tcache.block) c =
  (match b.Tcache.compiled with Code old -> old.slot_current <- false | _ -> ());
  b.Tcache.compiled <- Code c

(* The one decision on whether a cached translation may run: its
   slot's code runs when it was compiled for this environment, and
   otherwise the single block is compiled into the slot. *)
let translation tc ~is_builtin ~inline (b : Tcache.block) =
  match b.Tcache.compiled with
  | Code c when c.key == is_builtin -> c
  | _ ->
    let c = emit ~is_builtin ~inline (block_ir ~is_builtin ~inline b) in
    install b c;
    Tcache.note_compile tc;
    c

let link_for (c : code) rip =
  match c.exit_ with
  | Ir.Branch { taken; _ } ->
    if Int64.equal rip taken then c.link_a else c.link_b
  | _ -> c.link_a

let install_link tc (l : link) rip target =
  l.l_addr <- rip;
  l.l_target <- Some target;
  Tcache.note_chain tc

(* Resolve the translation for [rip]. [None] bounces to the dispatcher
   (block not cached), which decodes and accounts the miss. *)
let resolve tc ~is_builtin ~inline rip =
  Option.map (translation tc ~is_builtin ~inline) (Tcache.find tc rip)

(* Superblock caps: enough to swallow a guarded call's prologue + body
   + epilogue chain, small enough that tail duplication (a block fused
   into several superblocks) stays cheap. *)
let max_super_parts = 8
let max_super_insns = 256

(* Fuse the hot single-block [c] forward along unconditional static
   exits (fall-through, jmp abs, direct call) while the successors are
   already cached. Conditional branches and dynamic exits end the
   superblock — they stay chain links — and an exit back into the
   superblock's own entries stops growth (the loop closes through a
   link instead). The fused translation replaces the
   head block's slot: entering the head runs the whole chain, side
   entries to constituents keep their own per-block translations
   (tail duplication, the classic trace-JIT shape). *)
let try_fuse tc ~is_builtin ~inline (c : code) =
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
          | Some b when Ir.length ir + Array.length b.Tcache.insns <= max_super_insns ->
            grow (Ir.fuse ir (block_ir ~is_builtin ~inline b)) (b :: parts)
          | _ -> ir
        end
  in
  let ir = block_ir ~is_builtin ~inline head in
  let fused = grow ir [ head ] in
  if Array.length fused.Ir.parts < 2 then None
  else begin
    let sc = emit ~is_builtin ~inline fused in
    install head sc;
    Tcache.note_superblock tc;
    Some sc
  end

(* Per-constituent cycle attribution for the profiler: the same static
   prefix-sum formula [charge_exit] charges with, split at constituent
   boundaries, clamped to the retired prefix. Note order inside a
   dispatch is irrelevant (the profiler aggregates by address), so
   fused output is byte-identical to the interpreter's per-block notes. *)
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

(* The block runner: execute [b]'s translation, then keep transferring
   through live (or freshly patched) chain links until fuel runs out, a
   non-[Running] outcome exits to the OS, or the successor is not
   resolvable in-cache (bounce to the dispatcher, which decodes it).
   Most transfers are direct hops inside the chain ([hop]); [run] makes
   the rest: the first entry, fuel tails, links to patch, superblock
   formation, and every transfer while the profiler runs. Fuel, cycle
   and fault accounting are exactly the interpreter's. One [mach] serves
   every transfer. *)
let run cpu mem ~is_builtin ~inline (b : Tcache.block) ~fuel =
  let tc = cpu.Cpu.tcache in
  let profiling = Telemetry.Profile.enabled () in
  let threshold = Atomic.get fuse_threshold in
  let m =
    {
      cpu;
      mem;
      regs = cpu.Cpu.gprs;
      flags = cpu.Cpu.flags;
      tmp = Bytes.create 8;
      at = 0;
      cur = translation tc ~is_builtin ~inline b;
      fuel;
      retired = 0;
      hops = not profiling;
      threshold;
      is_builtin;
      tc;
    }
  in
  let rec enter (c : code) =
    let c =
      if c.fuse_tried || c.hot < threshold then c
      else match try_fuse tc ~is_builtin ~inline c with Some sc -> sc | None -> c
    in
    c.hot <- c.hot + 1;
    m.cur <- c;
    let outcome =
      (* The chain has no fuel boundary inside it, so it only runs when
         fuel covers the whole translation; the fuel tail retires step
         by step with an exact limit. *)
      if m.fuel >= Array.length c.ops then run_chain m else run_steps c m ~limit:m.fuel
    in
    (* direct hops charged and counted every translation before the one
       the run stopped in *)
    let c = m.cur and k = m.at + 1 in
    charge_exit m c k;
    if profiling then note_profile c cpu k;
    m.fuel <- m.fuel - k;
    m.retired <- m.retired + k;
    match outcome with
    | Running when m.fuel > 0 -> follow c
    | _ -> (outcome, m.retired)
  and follow c =
    let rip = rget m rip_o in
    let l = link_for c rip in
    match l.l_target with
    | Some target when link_live l target rip is_builtin ->
      Tcache.note_chain_hop tc;
      enter target
    | _ -> (
      match c.exit_ with
      | Ir.Stop -> (Running, m.retired)
      | _ -> (
        match resolve tc ~is_builtin ~inline rip with
        | Some target ->
          install_link tc l rip target;
          Tcache.note_chain_hop tc;
          enter target
        | None -> (Running, m.retired)))
  in
  enter m.cur
