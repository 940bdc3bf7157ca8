(** Closure compilation of {!Tcache} blocks — the compiled half of the
    execution stack; {!Exec}'s interpreter is the other half.

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

    [run] runs each translation as the threaded chain: every step
    tail-calls the next, for the whole translation at once, and mcc's
    operand shuffle [push a; mov a, S; mov b, a; pop a] runs as one
    step. The chain has no fuel boundary inside it, so a translation
    longer than the fuel left — the fuel tail — runs the same steps one
    per loop turn with an exact limit. [run] keeps control inside
    compiled code across block boundaries: each code carries chain
    links that are patched to the successor's translation the first
    time an exit resolves, hot codes are fused forward along
    unconditional static exits into superblock translations, and small
    pure glibc builtins can be emitted in line at their call sites
    ([compile ~inline]). Links are validated per traversal against the
    address space's identity and invalidation epoch, the target's slot
    and decode anchors, and the environment key — see the notes in the
    implementation for why each check exists (fork relatives,
    [patch_text] on private pages, superblock replacement).

    Compiled execution is semantically invisible: faults (identity and
    partial state), fuel accounting, builtin trapping, rdrand draws and
    the cycle counter after every exit are byte-for-byte those of the
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
  inline:(string -> builtin_fn option) ->
  is_builtin:(int64 -> string option) ->
  Tcache.block ->
  code
(** The block's translation; store it as [Code _]. [inline] lets direct
    calls to resolved builtins execute in line — the emitted closure
    advances rip past the call, runs the core, writes rax and
    continues, instead of exiting to the OS dispatcher. Faults raised by
    the core surface as [Faulted] with rip at the return point, exactly
    as the dispatcher leaves it. *)

val key : code -> int64 -> string option
(** The [is_builtin] the code was specialized against. Stale if not
    physically equal to the current environment's resolver. *)

val run :
  Cpu.t ->
  Memory.t ->
  is_builtin:(int64 -> string option) ->
  inline:(string -> builtin_fn option) ->
  code ->
  fuel:int ->
  outcome * int
(** Run the code, then keep transferring through live chain links
    (patching them on first resolution, forming superblocks past the
    hotness threshold) until fuel is exhausted, a non-[Running] outcome
    must surface to the OS, or the successor is not resolvable from the
    cache — in which case [(Running, retired)] bounces control back to
    {!Exec.step_block}'s dispatcher, which decodes it. Each hop runs the
    threaded chain when the remaining fuel covers the whole translation
    and the fuel tail's step loop otherwise. Also attributes
    per-constituent cycles to {!Telemetry.Profile} when profiling is on
    (the caller must not note again). *)

val set_enabled : bool -> unit
(** Process-wide switch between compiled execution (default) and the
    interpreter. Flip only while no simulated cpu is mid-run, as
    [bench/main.exe --compile-tier] and the tests do. *)

val enabled : unit -> bool

val set_fuse_threshold : int -> unit
(** Entries a code must see before superblock formation is attempted
    (clamped to >= 1; default 16). Tests set 1 to fuse on first
    execution. *)

val get_fuse_threshold : unit -> int

(** {2 Flag arithmetic}

    The steps' single-compare writings, exported so tests can hold them
    against the interpreter's own ({!Exec.set_sub_flags} and the rest),
    which are the reference. *)

val set_logic_flags : Cpu.flags -> int64 -> unit
val set_add_flags : Cpu.flags -> int64 -> int64 -> int64 -> unit
val set_sub_flags : Cpu.flags -> int64 -> int64 -> int64 -> unit
val cond_holds : Cpu.flags -> Isa.Insn.cond -> bool

(** {2 xmm byte order}, shared with the interpreter's AES steps. *)

val xmm_to_bytes : int64 * int64 -> bytes
val xmm_of_bytes : bytes -> int64 * int64
