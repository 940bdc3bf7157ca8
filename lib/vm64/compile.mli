(** Closure compilation of {!Tcache} blocks — tiers 1, 2 and 3 of the
    execution stack.

    [compile] lowers a decoded block through the explicit {!Ir}
    (lift -> normalize -> emit) into one step per instruction, with
    everything resolvable at translation time already resolved: operand
    shapes and addressing modes specialized, immediates captured,
    direct-call builtin targets resolved against the environment's
    table, and straight-line cycle costs pre-summed so
    {!Cpu.add_cycles} runs once per block exit. A step is a
    one-argument closure over the machine (the {!Cpu.t} plus its
    {!Memory.t}): it updates the register file in place and tail-calls
    its continuation, and it allocates nothing on its common path — the
    register file is read and written through {!Cpu.get64u}/
    {!Cpu.set64u}, and an 8-byte guest access inside the layout and
    inside one page reads {!Memory.t}'s page table in place: a load
    reads the payload, a store writes it in place when this space is
    the page's only owner and otherwise through {!Memory.store_page}.

    Tier 1 ([run_code]) runs the steps of one block, one per loop turn.
    Tier 2 ([run_tier2]) keeps control inside compiled code across block
    boundaries: each code carries chain links that are patched to the
    successor's translation the first time an exit resolves, hot codes
    are fused forward along unconditional static exits into superblock
    translations, and small pure glibc builtins can be emitted in line
    at their call sites ([compile ~inline]). Links are validated per
    traversal against the address space's identity and invalidation
    epoch, the target's slot and decode anchors, and the environment key
    — see the notes in the implementation for why each check exists
    (fork relatives, [patch_text] on private pages, superblock
    replacement). Tier 3 runs each hop as the threaded chain: every step
    tail-calls the next, for the whole translation at once, and mcc's
    operand shuffle [push a; mov a, S; mov b, a; pop a] runs as one
    step.

    All tiers are semantically invisible: faults (identity and partial
    state), fuel accounting, builtin trapping, rdrand draws and the
    cycle counter after every exit are byte-for-byte those of the
    interpreter. [rdtsc] compiles against the retired prefix's static
    cycle charge (deferred charging leaves [cycles] at the entry value,
    and the charge to any mid-block point is translation-time static).
    Traced runs still interpret ([on_retire] observes every retire,
    which the compiled loop deliberately does not).

    Compiled code is immutable and keyed ([(==)]) to the [is_builtin]
    closure it was specialized against, so fork clones sharing Tcache
    block records reuse it for free, and a block reached from a
    different environment is transparently recompiled. Invalidation
    needs no extra work for single blocks: dropping the {!Tcache.block}
    drops its slot. Superblocks additionally register their fused text
    extents on the head record ([Tcache.block.fused_ranges]) so
    patching any constituent drops the head entry too. *)

type outcome = Compiled.outcome =
  | Running
  | Builtin of string
  | Syscall_trap
  | Halted
  | Faulted of Fault.t

type code

type Compiled.slot += Code of code

type builtin_fn = Cpu.t -> Memory.t -> int64
(** An inlinable builtin core: reads its arguments from the calling
    convention registers, performs the effect (memory + cycle charges)
    and returns the rax value. May raise {!Fault.Trap}. *)

val compile :
  ?inline:(string -> builtin_fn option) ->
  is_builtin:(int64 -> string option) ->
  Tcache.block ->
  code
(** The block's translation; store it as [Code _]. [inline] (default:
    none) lets direct calls to resolved builtins execute in line — the emitted
    closure advances rip past the call, runs the core, writes rax and
    continues, instead of exiting to the OS dispatcher. Faults raised by
    the core surface as [Faulted] with rip at the return point, exactly
    as the dispatcher leaves it. *)

val key : code -> int64 -> string option
(** The [is_builtin] the code was specialized against. Stale if not
    physically equal to the current environment's resolver. *)

val run_code : code -> Cpu.t -> Memory.t -> limit:int -> outcome * int
(** Retire up to [limit] instructions from the code's start, returning
    the last outcome and the retire count, with the interpreter's exact
    cycle charging and rip/fault semantics. *)

val run_tier2 :
  Cpu.t ->
  Memory.t ->
  is_builtin:(int64 -> string option) ->
  inline:(string -> builtin_fn option) ->
  code ->
  fuel:int ->
  outcome * int
(** Tier-2/3 dispatch: run the code, then keep transferring through
    live chain links (patching them on first resolution, forming
    superblocks past the hotness threshold) until fuel is exhausted, a
    non-[Running] outcome must surface to the OS, or the successor is
    not resolvable from the cache — in which case [(Running, retired)]
    bounces control back to {!Exec.step_block}'s dispatcher, which
    decodes it. At tier 3 each hop runs the threaded chain instead of
    the per-step loop whenever remaining fuel covers the whole
    translation. Also attributes per-constituent cycles to
    {!Telemetry.Profile} when profiling is on (the caller must not note
    again). *)

val set_tier : int -> unit
(** Process-wide tier switch: 0 = interpreter, 1 = per-block closures,
    2 = chained/fused, 3 = chained/fused running the threaded chain
    (default). Flip only while no simulated cpu is mid-run — the bench
    driver's [--compile-tier] and tests. Raises [Invalid_argument]
    outside [0..3]. *)

val tier : unit -> int

val enabled : unit -> bool
(** Some compile tier is active ([tier () > 0]). *)

val set_fuse_threshold : int -> unit
(** Tier-2 entries a code must see before superblock formation is
    attempted (clamped to >= 1; default 16). Tests set 1 to fuse on
    first execution. *)

val get_fuse_threshold : unit -> int

(** {2 Shared semantics helpers}

    Single definitions used by both tiers (and by targeted tests), so
    flag arithmetic and stack discipline cannot drift between them. *)

val set_logic_flags : Cpu.flags -> int64 -> unit
val set_add_flags : Cpu.flags -> int64 -> int64 -> int64 -> unit
val set_sub_flags : Cpu.flags -> int64 -> int64 -> int64 -> unit
val cond_holds : Cpu.flags -> Isa.Insn.cond -> bool
val push : Cpu.t -> Memory.t -> int64 -> unit
val pop : Cpu.t -> Memory.t -> int64
val xmm_to_bytes : int64 * int64 -> bytes
val xmm_of_bytes : bytes -> int64 * int64
