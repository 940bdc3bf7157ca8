type outcome = Compiled.outcome =
  | Running
  | Builtin of string
  | Syscall_trap
  | Halted
  | Faulted of Fault.t

type env = {
  is_builtin : int64 -> string option;
  inline_builtin : string -> Compile.builtin_fn option;
      (* builtin inlining: cores a direct call may run in line
         instead of exiting to the OS dispatcher. Default: none — only
         environments whose dispatcher semantics the inline cores
         reproduce exactly (the kernel's) opt in. *)
  on_retire : (Cpu.t -> Isa.Insn.t -> unit) option;
}

let no_inline : string -> Compile.builtin_fn option = fun _ -> None

let create_env ?on_retire ?(inline_builtin = no_inline) ~is_builtin () =
  { is_builtin; inline_builtin; on_retire }

let max_insn_len = 32

(* Slow path, only taken when rip sits in the last [max_insn_len] bytes
   of a page (the next page may not be sealed) or off a sealed page:
   collect the bytes one by one up to the first byte off a sealed page,
   so a valid instruction at the end of the text still decodes. The
   decode runs over zero padding past the [n] bytes fetched: one that
   reads a byte there — its length runs past [n], or it fails at or
   past [n] — needed a byte that cannot be fetched, and faults at the
   first such byte, as x86 raises the page fault there. An encoding
   invalid inside the fetched bytes is an illegal instruction. *)
let fetch_slow mem rip =
  let buf = Bytes.make max_insn_len '\000' in
  let rec collect i =
    if i >= max_insn_len then i
    else
      match Memory.code_window mem (Int64.add rip (Int64.of_int i)) with
      | Some (page, off) ->
        Bytes.set buf i (Bytes.get page off);
        collect (i + 1)
      | None -> i
  in
  let n = collect 0 in
  let past_fetch = Error (Fault.Segfault (Int64.add rip (Int64.of_int n))) in
  match Isa.Decode.decode buf 0 with
  | insn, len when len <= n -> Ok (insn, len)
  | _ -> past_fetch
  | exception Isa.Decode.Bad_encoding (off, _) when off >= n -> past_fetch
  | exception Isa.Decode.Bad_encoding (_, msg) -> Error (Fault.Bad_instruction (rip, msg))

(* Common path: decode in place against the sealed page. No instruction
   encodes to more than 19 bytes, so [max_insn_len] bytes of lookahead
   decide exactly the same way a page-sized window does — the slow path
   exists only for rip near a page boundary (next page possibly not
   sealed) and for rip off a sealed page. *)
let fetch_one mem rip =
  match Memory.code_window mem rip with
  | Some (page, off) when off + max_insn_len <= Memory.page_size -> (
    match Isa.Decode.decode page off with
    | insn, len -> Ok (insn, len)
    | exception Isa.Decode.Bad_encoding (_, msg) ->
      Error (Fault.Bad_instruction (rip, msg)))
  | _ -> fetch_slow mem rip

(* Control leaves the straight-line run after any of these. *)
let block_terminator = function
  | Isa.Insn.Jmp _ | Jcc _ | Call _ | Call_ind _ | Ret | Syscall | Hlt -> true
  | _ -> false

(* Decode a straight-line run starting at [rip]. Only a failure on the
   FIRST instruction is an error; a later bad byte just ends the block
   (the fault is re-discovered when execution reaches that address). *)
let decode_block mem rip =
  match fetch_one mem rip with
  | Error f -> Error f
  | Ok ((insn0, len0) as first) ->
    let rev = ref [ first ] in
    let count = ref 1 in
    let addr = ref (Int64.add rip (Int64.of_int len0)) in
    let stop = ref (block_terminator insn0) in
    while (not !stop) && !count < Tcache.max_block_insns do
      match fetch_one mem !addr with
      | Error _ -> stop := true
      | Ok ((insn, len) as pair) ->
        rev := pair :: !rev;
        addr := Int64.add !addr (Int64.of_int len);
        incr count;
        if block_terminator insn then stop := true
    done;
    Ok (Tcache.make_block ~start:rip (Array.of_list (List.rev !rev)))

(* A cached block is valid in every space of the fork family: it was
   decoded from sealed pages, which no relative can write. *)
let fetch_block cpu mem =
  let tc = cpu.Cpu.tcache in
  match Tcache.find tc (Cpu.rip cpu) with
  | Some b ->
    Tcache.note_hit tc;
    Ok b
  | None -> (
    Tcache.note_miss tc;
    match decode_block mem (Cpu.rip cpu) with
    | Error f -> Error f
    | Ok b ->
      Tcache.add tc b;
      Ok b)

let effective_address cpu (m : Isa.Operand.mem) =
  let base = match m.base with Some r -> Cpu.get cpu r | None -> 0L in
  let index =
    match m.index with
    | Some (r, s) ->
      Int64.mul (Cpu.get cpu r) (Int64.of_int (Isa.Operand.scale_factor s))
    | None -> 0L
  in
  let seg = if m.seg_fs then cpu.Cpu.fs_base else 0L in
  Int64.add (Int64.add seg base) (Int64.add index m.disp)

let read64 cpu mem = function
  | Isa.Operand.Reg r -> Cpu.get cpu r
  | Isa.Operand.Imm v -> v
  | Isa.Operand.Mem m -> Memory.read_u64 mem (effective_address cpu m)

let write64 cpu mem op v =
  match op with
  | Isa.Operand.Reg r -> Cpu.set cpu r v
  | Isa.Operand.Mem m -> Memory.write_u64 mem (effective_address cpu m) v
  | Isa.Operand.Imm _ ->
    raise (Fault.Trap (Fault.Bad_instruction (Cpu.rip cpu, "store to immediate")))

let read8 cpu mem = function
  | Isa.Operand.Reg r -> Int64.to_int (Int64.logand (Cpu.get cpu r) 0xFFL)
  | Isa.Operand.Imm v -> Int64.to_int (Int64.logand v 0xFFL)
  | Isa.Operand.Mem m -> Memory.read_u8 mem (effective_address cpu m)

let write8 cpu mem op v =
  match op with
  | Isa.Operand.Reg r ->
    (* Low-byte merge, like real mov to an 8-bit subregister. *)
    let old = Cpu.get cpu r in
    Cpu.set cpu r (Int64.logor (Int64.logand old (-256L)) (Int64.of_int (v land 0xFF)))
  | Isa.Operand.Mem m -> Memory.write_u8 mem (effective_address cpu m) v
  | Isa.Operand.Imm _ ->
    raise (Fault.Trap (Fault.Bad_instruction (Cpu.rip cpu, "store to immediate")))

let read32 cpu mem = function
  | Isa.Operand.Reg r -> Int64.logand (Cpu.get cpu r) 0xFFFFFFFFL
  | Isa.Operand.Imm v -> Int64.logand v 0xFFFFFFFFL
  | Isa.Operand.Mem m -> Memory.read_u32 mem (effective_address cpu m)

let write32 cpu mem op v =
  match op with
  | Isa.Operand.Reg r -> Cpu.set cpu r (Int64.logand v 0xFFFFFFFFL)
  | Isa.Operand.Mem m -> Memory.write_u32 mem (effective_address cpu m) v
  | Isa.Operand.Imm _ ->
    raise (Fault.Trap (Fault.Bad_instruction (Cpu.rip cpu, "store to immediate")))

(* ---- Reference semantics -------------------------------------------- *)
(* Flag arithmetic, condition tests and stack discipline, written out
   plainly and apart from [Compile]'s single-compare steps, so the two
   semantics are independent writings that the differential tests can
   hold against each other. *)

let negative r = Int64.compare r 0L < 0

let set_logic_flags (f : Cpu.flags) r =
  f.zf <- Int64.equal r 0L;
  f.sf <- negative r;
  f.cf <- false;
  f.of_ <- false

(* An add overflows when both operands have one sign and the result
   the other; a sub when the operands differ in sign and the result's
   sign is not the minuend's. *)
let set_add_flags (f : Cpu.flags) a b r =
  f.zf <- Int64.equal r 0L;
  f.sf <- negative r;
  f.cf <- Int64.unsigned_compare r a < 0;
  f.of_ <- negative a = negative b && negative r <> negative a

let set_sub_flags (f : Cpu.flags) a b r =
  f.zf <- Int64.equal r 0L;
  f.sf <- negative r;
  f.cf <- Int64.unsigned_compare a b < 0;
  f.of_ <- negative a <> negative b && negative r <> negative a

(* Signed order reads "less" off sf <> of, unsigned order "below" off
   cf; each condition and its negation come in pairs. *)
let cond_holds (f : Cpu.flags) (c : Isa.Insn.cond) =
  let less = f.sf <> f.of_ and below = f.cf in
  match c with
  | E -> f.zf
  | NE -> not f.zf
  | L -> less
  | GE -> not less
  | LE -> less || f.zf
  | G -> not (less || f.zf)
  | B -> below
  | AE -> not below
  | BE -> below || f.zf
  | A -> not (below || f.zf)
  | S -> f.sf
  | NS -> not f.sf

(* rsp moves before the store, so a faulting push leaves it lowered;
   after the load, so a faulting pop leaves it unchanged. *)
let push cpu mem v =
  let rsp = Int64.sub (Cpu.get cpu Isa.Reg.RSP) 8L in
  Cpu.set cpu Isa.Reg.RSP rsp;
  Memory.write_u64 mem rsp v

let pop cpu mem =
  let rsp = Cpu.get cpu Isa.Reg.RSP in
  let v = Memory.read_u64 mem rsp in
  Cpu.set cpu Isa.Reg.RSP (Int64.add rsp 8L);
  v

let xmm_to_bytes = Compile.xmm_to_bytes
let xmm_of_bytes = Compile.xmm_of_bytes

let target_addr = function
  | Isa.Insn.Abs a -> a
  | Isa.Insn.Sym s -> raise (Isa.Encode.Unresolved_symbol s)

(* Top-level (not closed over per-call state) so executing an
   instruction allocates nothing on the fall-through path. *)
let continue_at cpu addr =
  Cpu.set_rip cpu addr;
  Running

let execute env cpu mem insn next_rip =
  let flags = cpu.Cpu.flags in
  match insn with
  | Isa.Insn.Nop -> continue_at cpu next_rip
  | Mov (dst, src) ->
    write64 cpu mem dst (read64 cpu mem src);
    continue_at cpu next_rip
  | Movb (dst, src) ->
    write8 cpu mem dst (read8 cpu mem src);
    continue_at cpu next_rip
  | Movl (dst, src) ->
    write32 cpu mem dst (read32 cpu mem src);
    continue_at cpu next_rip
  | Lea (r, m) ->
    Cpu.set cpu r (effective_address cpu m);
    continue_at cpu next_rip
  | Push op ->
    push cpu mem (read64 cpu mem op);
    continue_at cpu next_rip
  | Pop op ->
    let v = pop cpu mem in
    write64 cpu mem op v;
    continue_at cpu next_rip
  | Bin (bop, dst, src) ->
    let a = read64 cpu mem dst in
    let b = read64 cpu mem src in
    (match bop with
    | Add ->
      let r = Int64.add a b in
      set_add_flags flags a b r;
      write64 cpu mem dst r
    | Sub ->
      let r = Int64.sub a b in
      set_sub_flags flags a b r;
      write64 cpu mem dst r
    | Xor ->
      let r = Int64.logxor a b in
      set_logic_flags flags r;
      write64 cpu mem dst r
    | And ->
      let r = Int64.logand a b in
      set_logic_flags flags r;
      write64 cpu mem dst r
    | Or ->
      let r = Int64.logor a b in
      set_logic_flags flags r;
      write64 cpu mem dst r
    | Cmp ->
      let r = Int64.sub a b in
      set_sub_flags flags a b r
    | Test ->
      let r = Int64.logand a b in
      set_logic_flags flags r
    | Imul ->
      let r = Int64.mul a b in
      set_logic_flags flags r;
      write64 cpu mem dst r
    | Idiv | Irem ->
      if Int64.equal b 0L then
        raise (Fault.Trap (Fault.Bad_instruction (Cpu.rip cpu, "division by zero")));
      (* x86 #DE also covers INT64_MIN / -1, whose quotient is
         unrepresentable; OCaml's Int64.div would silently wrap. *)
      if Int64.equal a Int64.min_int && Int64.equal b (-1L) then
        raise
          (Fault.Trap (Fault.Bad_instruction (Cpu.rip cpu, "division overflow")));
      let r = if bop = Idiv then Int64.div a b else Int64.rem a b in
      set_logic_flags flags r;
      write64 cpu mem dst r);
    continue_at cpu next_rip
  | Shift (sop, dst, k) -> (
    let k = k land 63 in
    (* x86: a masked shift count of 0 leaves both the destination and
       every flag untouched. *)
    match k with
    | 0 -> continue_at cpu next_rip
    | k ->
      let a = read64 cpu mem dst in
      let r =
        match sop with
        | Shl -> Int64.shift_left a k
        | Shr -> Int64.shift_right_logical a k
        | Sar -> Int64.shift_right a k
      in
      set_logic_flags flags r;
      write64 cpu mem dst r;
      continue_at cpu next_rip)
  | Neg op ->
    let a = read64 cpu mem op in
    let r = Int64.neg a in
    set_logic_flags flags r;
    (* x86: CF = (source <> 0); OF = (source = INT64_MIN, the one value
       whose negation overflows back to itself). *)
    flags.cf <- not (Int64.equal a 0L);
    flags.of_ <- Int64.equal a Int64.min_int;
    write64 cpu mem op r;
    continue_at cpu next_rip
  | Not op ->
    write64 cpu mem op (Int64.lognot (read64 cpu mem op));
    continue_at cpu next_rip
  | Setcc (c, r) ->
    Cpu.set cpu r (if cond_holds flags c then 1L else 0L);
    continue_at cpu next_rip
  | Jmp t -> continue_at cpu (target_addr t)
  | Jcc (c, t) ->
    if cond_holds flags c then continue_at cpu (target_addr t) else continue_at cpu next_rip
  | Call t -> (
    let addr = target_addr t in
    match env.is_builtin addr with
    | Some name ->
      Cpu.set_rip cpu next_rip;
      Builtin name
    | None ->
      push cpu mem next_rip;
      continue_at cpu addr)
  | Call_ind op -> (
    let addr = read64 cpu mem op in
    match env.is_builtin addr with
    | Some name ->
      Cpu.set_rip cpu next_rip;
      Builtin name
    | None ->
      push cpu mem next_rip;
      continue_at cpu addr)
  | Ret ->
    let addr = pop cpu mem in
    continue_at cpu addr
  | Leave ->
    Cpu.set cpu Isa.Reg.RSP (Cpu.get cpu Isa.Reg.RBP);
    let rbp = pop cpu mem in
    Cpu.set cpu Isa.Reg.RBP rbp;
    continue_at cpu next_rip
  | Rdrand r ->
    Cpu.set cpu r (Util.Prng.next64 cpu.Cpu.rng);
    flags.cf <- true;
    flags.zf <- false;
    continue_at cpu next_rip
  | Pac (d, m) ->
    let value = Cpu.get cpu d and modifier = Cpu.get cpu m in
    Cpu.set cpu d (Cpu.pac_sign cpu ~value ~modifier);
    continue_at cpu next_rip
  | Aut (d, m) ->
    let value = Cpu.get cpu d and modifier = Cpu.get cpu m in
    flags.zf <- Cpu.pac_auth cpu ~value ~modifier;
    flags.sf <- false;
    flags.cf <- false;
    flags.of_ <- false;
    Cpu.set cpu d (Cpu.pac_strip value);
    continue_at cpu next_rip
  | Rdtsc ->
    let tsc = Cpu.cycles cpu in
    Cpu.set cpu Isa.Reg.RAX (Int64.logand tsc 0xFFFFFFFFL);
    Cpu.set cpu Isa.Reg.RDX (Int64.shift_right_logical tsc 32);
    continue_at cpu next_rip
  | Syscall ->
    Cpu.set_rip cpu next_rip;
    Syscall_trap
  | Hlt -> Halted
  | Movq_to_xmm (x, r) ->
    Cpu.set_xmm cpu x (Cpu.get cpu r, 0L);
    continue_at cpu next_rip
  | Movq_from_xmm (r, x) ->
    let lo, _ = Cpu.get_xmm cpu x in
    Cpu.set cpu r lo;
    continue_at cpu next_rip
  | Pinsrq_high (x, r) ->
    let lo, _ = Cpu.get_xmm cpu x in
    Cpu.set_xmm cpu x (lo, Cpu.get cpu r);
    continue_at cpu next_rip
  | Movhps_load (x, m) ->
    let lo, _ = Cpu.get_xmm cpu x in
    Cpu.set_xmm cpu x (lo, Memory.read_u64 mem (effective_address cpu m));
    continue_at cpu next_rip
  | Movq_store (m, x) ->
    let lo, _ = Cpu.get_xmm cpu x in
    Memory.write_u64 mem (effective_address cpu m) lo;
    continue_at cpu next_rip
  | Movdqu_load (x, m) ->
    let ea = effective_address cpu m in
    (* explicit high-then-low read order (what the right-to-left tuple
       evaluation always compiled to), pinned so the compiled steps can
       mirror the fault address of a half-unmapped access *)
    let hi = Memory.read_u64 mem (Int64.add ea 8L) in
    let lo = Memory.read_u64 mem ea in
    Cpu.set_xmm cpu x (lo, hi);
    continue_at cpu next_rip
  | Movdqu_store (m, x) ->
    let ea = effective_address cpu m in
    let lo, hi = Cpu.get_xmm cpu x in
    Memory.write_u64 mem ea lo;
    Memory.write_u64 mem (Int64.add ea 8L) hi;
    continue_at cpu next_rip
  | Aesenc (dst, src) ->
    let state = xmm_to_bytes (Cpu.get_xmm cpu dst) in
    let round_key = xmm_to_bytes (Cpu.get_xmm cpu src) in
    Cpu.set_xmm cpu dst (xmm_of_bytes (Crypto.Aes128.aesenc ~state ~round_key));
    continue_at cpu next_rip
  | Aesenclast (dst, src) ->
    let state = xmm_to_bytes (Cpu.get_xmm cpu dst) in
    let round_key = xmm_to_bytes (Cpu.get_xmm cpu src) in
    Cpu.set_xmm cpu dst (xmm_of_bytes (Crypto.Aes128.aesenclast ~state ~round_key));
    continue_at cpu next_rip
  | Pcmpeq128 (x, m) ->
    let lo, hi = Cpu.get_xmm cpu x in
    let ea = effective_address cpu m in
    let mlo = Memory.read_u64 mem ea in
    let mhi = Memory.read_u64 mem (Int64.add ea 8L) in
    flags.zf <- Int64.equal lo mlo && Int64.equal hi mhi;
    flags.sf <- false;
    flags.cf <- false;
    flags.of_ <- false;
    continue_at cpu next_rip

(* The interpreter: retire up to [max_insns] instructions from
   block [b], charging cycles and running the [on_retire] probe per
   instruction. Instructions before the block's terminator are
   straight-line by construction, so as long as [execute] returns
   [Running] the next array slot is the instruction at the new rip. *)
let interp_block env cpu mem b ~max_insns =
  let steps = b.Tcache.steps in
  let limit = Stdlib.min (Array.length steps) max_insns in
  let rec go i =
    let st = steps.(i) in
    (match env.on_retire with Some f -> f cpu st.Tcache.insn | None -> ());
    let call_extra = if st.Tcache.callret then cpu.Cpu.call_tax else 0 in
    Cpu.add_cycles cpu (st.Tcache.cost + cpu.Cpu.insn_tax + call_extra);
    match execute env cpu mem st.Tcache.insn st.Tcache.next with
    | Running when i + 1 < limit -> go (i + 1)
    | outcome -> (outcome, i + 1)
    | exception Fault.Trap fault -> (Faulted fault, i + 1)
    | exception Isa.Encode.Unresolved_symbol s ->
      (Faulted (Fault.Bad_instruction (Cpu.rip cpu, "unresolved symbol " ^ s)), i + 1)
  in
  go 0

(* Dispatch. Traced runs and runs with compiled execution off interpret
   (the probe observes every retire), and the cycle profiler gets one
   note per interpreted block: all it charged, at its start address.
   Otherwise [Compile.run] runs the block's translation — compiled once
   per environment and reused by every relative reaching the block
   record, since compilation is deterministic and the result immutable
   — and keeps control inside compiled code across block exits until
   fuel runs out or a successor misses the cache, noting
   per-constituent cycles itself. A fetch fault retires nothing. *)
let dispatch_block env cpu mem b ~max_insns =
  if Option.is_some env.on_retire || not (Compile.enabled ()) then begin
    let c0 = Cpu.cycles cpu in
    let r = interp_block env cpu mem b ~max_insns in
    if Telemetry.Profile.enabled () then
      Telemetry.Profile.note ~addr:(Tcache.start b)
        ~cycles:(Int64.to_int (Int64.sub (Cpu.cycles cpu) c0));
    r
  end
  else
    Compile.run cpu mem ~is_builtin:env.is_builtin ~inline:env.inline_builtin b
      ~fuel:max_insns

let step_block env cpu mem ~max_insns =
  match fetch_block cpu mem with
  | Error fault -> (Faulted fault, 0)
  | Ok b -> dispatch_block env cpu mem b ~max_insns

let step env cpu mem = fst (step_block env cpu mem ~max_insns:1)

type run_result = Stopped of outcome | Out_of_fuel

let run ?(max_insns = 100_000_000) env cpu mem =
  let rec loop remaining =
    if remaining <= 0 then Out_of_fuel
    else begin
      let outcome, retired = step_block env cpu mem ~max_insns:remaining in
      match outcome with
      | Running -> loop (remaining - retired)
      | other -> Stopped other
    end
  in
  loop max_insns
