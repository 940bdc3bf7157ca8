(** The compiled-code attachment point, kept free of dependencies so the
    translation cache can hold compiled code without a module cycle.

    {!Tcache.block} stores a [slot]; {!Compile} (which must sit above
    {!Cpu} in the dependency order, while [Tcache] sits below it)
    extends [slot] with its actual code representation. [outcome] is the
    interpreter's exit status, defined here so both {!Compile} and
    {!Exec} share one type ([Exec.outcome] re-exports it). *)

type outcome =
  | Running  (** instruction retired; rip advanced *)
  | Builtin of string  (** [call] targeted a glibc slot *)
  | Syscall_trap  (** [syscall] retired; rip advanced *)
  | Halted  (** [hlt] *)
  | Faulted of Fault.t

type slot = ..

type slot += Not_compiled  (** block not yet compiled *)
