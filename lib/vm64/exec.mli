(** The instruction interpreter — the reference semantics — and the
    dispatcher.

    [step] retires exactly one instruction. Control leaves the
    interpreter in four ways, which the OS layer dispatches on:
    glibc-builtin calls, syscall traps, [hlt], and hardware faults.

    Untraced runs execute through {!Compile} while it is enabled (the
    default), translating each block on first execution; traced runs
    ([on_retire]) and runs with it off interpret instruction by
    instruction. The two semantics are written apart — the interpreter
    has its own flag arithmetic, condition tests and stack discipline,
    below — and are observationally identical: registers, flags,
    memory, cycle counts, RNG draws, fault identity and fuel accounting.
    Which one ran is invisible to everything above {!Exec}. *)

type outcome = Compiled.outcome =
  | Running  (** instruction retired; rip advanced *)
  | Builtin of string
      (** [call] targeted a glibc slot; rip already points past the call
          and NO return address was pushed — the OS runs the builtin and
          resumes *)
  | Syscall_trap  (** [syscall] retired; number in rax; rip advanced *)
  | Halted  (** [hlt] *)
  | Faulted of Fault.t

type env
(** Immutable execution environment: builtin address resolution. The
    basic-block translation cache lives in {!Cpu.t} (one per fork
    family). Instructions are fetched from sealed pages only
    ({!Memory.seal}), which no relative can write, so a cached block is
    valid in every space of the family (see {!Tcache}). A fetch that
    needs a byte off a sealed page faults with [Segfault] at the first
    such byte. *)

val create_env :
  ?on_retire:(Cpu.t -> Isa.Insn.t -> unit) ->
  ?inline_builtin:(string -> Compile.builtin_fn option) ->
  is_builtin:(int64 -> string option) ->
  unit ->
  env
(** [on_retire] is invoked after each instruction's cost is charged and
    before it executes — the hook behind execution tracing. Supplying it
    pins execution to the interpreter tier.

    [inline_builtin] (default: none) gives compiled code permission to
    run the named builtin cores in line at direct call sites instead of exiting
    with [Builtin]. Only supply cores whose effects — memory writes,
    cycle charges, rax, fault behaviour — are exactly what the OS
    dispatcher would have produced; with inlining on, a [Stopped
    (Builtin _)] for those names simply never surfaces from {!run}. *)

val step : env -> Cpu.t -> Memory.t -> outcome

val step_block : env -> Cpu.t -> Memory.t -> max_insns:int -> outcome * int
(** Retire up to [max_insns] instructions from the pre-decoded basic
    block at rip (decoding and caching it on a miss), returning the last
    outcome and the number of instructions retired. The count is 0
    exactly when the initial fetch faulted (rip off a sealed page, or
    undecodable) — nothing retired, nothing charged; otherwise it is
    >= 1.
    Cycle charging, taxes, and the [on_retire] hook are applied exactly
    as by [step] — a run dispatched block-at-a-time retires the same
    instruction stream with the same cycle counts as one dispatched with
    [step]. [max_insns] must be positive. *)

type run_result =
  | Stopped of outcome  (** a non-[Running] outcome occurred *)
  | Out_of_fuel

val run : ?max_insns:int -> env -> Cpu.t -> Memory.t -> run_result
(** Step until something interesting happens. [max_insns] defaults to
    100 million — a runaway-loop backstop, not a tuning knob. *)

(** {2 Reference semantics}

    The interpreter's own flag arithmetic ([set_add_flags f a b r] for
    [r = a + b]), condition tests and stack discipline, which
    {!Compile}'s steps are tested against. *)

val set_logic_flags : Cpu.flags -> int64 -> unit
val set_add_flags : Cpu.flags -> int64 -> int64 -> int64 -> unit
val set_sub_flags : Cpu.flags -> int64 -> int64 -> int64 -> unit
val cond_holds : Cpu.flags -> Isa.Insn.cond -> bool
val push : Cpu.t -> Memory.t -> int64 -> unit
val pop : Cpu.t -> Memory.t -> int64
