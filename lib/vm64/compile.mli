(** Closure compilation of {!Tcache} blocks — the compiled half of the
    execution stack; {!Exec}'s interpreter is the other half.

    A block is lowered through the explicit {!Ir} (lift -> fuse ->
    emit) into one step per instruction, with everything resolvable at
    translation time already resolved: operand shapes and addressing
    modes specialized, immediates captured, direct-call builtin targets
    resolved against the environment's table, and straight-line cycle
    costs pre-summed so the cycle count moves once per translation. A
    step is a one-argument closure over the machine (the {!Cpu.t} plus
    its {!Memory.t}): it updates the register file in place and
    tail-calls its continuation, and it allocates nothing on its common
    path — the register file, rip and the cycle count included, is read
    and written through {!Cpu.get64u}/{!Cpu.set64u}, and an 8-byte guest
    access inside the layout and inside one page reads {!Memory.t}'s
    page table in place: a load reads the payload, a store writes it in
    place when this space is the page's only owner and otherwise through
    {!Memory.store_page}. One at rsp or rbp plus a constant first tries
    the run's stack page: one page private to the space, filled by such
    an access that misses it, and never invalidated, since every run
    starts without one and a page stays private for a whole run.

    [run] runs each translation as the threaded chain: every step
    tail-calls the next, for the whole translation at once. mcc's
    operand shuffle [push a; mov a, S; mov b, a; pop a] runs as one
    step, and so does the shuffle followed by the binop that consumes
    it, [OP a, b]. The chain has no fuel boundary inside it, so a
    translation longer than the fuel left — the fuel tail — runs the
    same steps one per loop turn with an exact limit. Control stays
    inside compiled code across block boundaries: each translation
    carries chain links, and a chain's exit makes every transfer
    itself. Its inlined fast path enters the successor's chain through
    a live link (a direct hop), charging the translation it leaves,
    when the fuel left covers the successor, the successor is not due
    for superblock formation and the profiler is off. Every other case
    goes to one out-of-line transfer, which patches the link to the
    successor's translation, compiles the successor or fuses it forward
    along unconditional static exits into a superblock, runs its fuel
    tail, and notes the profile. Small pure glibc builtins can be
    emitted in line at their call sites (the [inline] argument).

    A translation lives in its head block's [Tcache.block.compiled]
    slot and is shared by the whole fork family. Its blocks were
    decoded from sealed pages ({!Memory.seal}), which no relative can
    write, so it is valid in every space of the family. One internal
    decision — the slot's code was compiled for this environment (the
    [is_builtin] closure, compared with [(==)]) — either keeps the
    slot's code or compiles the single block into the slot. A chain
    link, direct hops included, is followed only while it still leads
    to the address it was patched for and to the code its target's slot
    holds.

    Compiled execution is semantically invisible: faults (identity and
    partial state), fuel accounting, builtin trapping, rdrand draws and
    the cycle counter after every exit are byte-for-byte those of the
    interpreter. [rdtsc] compiles against the retired prefix's static
    cycle charge (deferred charging leaves [cycles] at the entry value,
    and the charge to any mid-block point is translation-time static).
    Traced runs still interpret ([on_retire] observes every retire,
    which the compiled loop deliberately does not). *)

type outcome = Compiled.outcome =
  | Running
  | Builtin of string
  | Syscall_trap
  | Halted
  | Faulted of Fault.t

type builtin_fn = Cpu.t -> Memory.t -> int64
(** An inlinable builtin core: reads its arguments from the calling
    convention registers, performs the effect (memory + cycle charges)
    and returns the rax value. May raise {!Fault.Trap}. *)

val run :
  Cpu.t ->
  Memory.t ->
  is_builtin:(int64 -> string option) ->
  inline:(string -> builtin_fn option) ->
  Tcache.block ->
  fuel:int ->
  outcome * int
(** Enter the block's translation — compiling it first if its slot
    holds none that may run here — inside one fault handler; the
    chains' exits carry control on until fuel is exhausted, a
    non-[Running] outcome must surface to the OS, or a successor is not
    in the cache — in which case [(Running, retired)] bounces control
    back to {!Exec.step_block}'s dispatcher, which decodes it. [run]
    then settles the translation the run stopped in. Each translation
    runs as the threaded chain when the remaining fuel covers it and as
    the fuel tail's step loop otherwise. Also attributes
    per-constituent cycles to {!Telemetry.Profile} when profiling is on
    (the caller must not note again); direct hops are off then, so
    every translation reaches the attribution. The returned count is
    every instruction retired, across transfers.

    [inline] lets direct calls to resolved builtins execute in line —
    the emitted closure advances rip past the call, runs the core,
    writes rax and continues, instead of exiting to the OS dispatcher.
    Faults raised by the core surface as [Faulted] with rip at the
    return point, exactly as the dispatcher leaves it. *)

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
