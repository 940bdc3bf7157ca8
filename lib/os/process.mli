(** A simulated process: one address space, one CPU context, stdio plus
    a file-descriptor table over {!Net} connections.

    Text is fixed at load: binary rewriting works on the {!Image}
    before spawn, and the kernel seals the loaded code
    ({!Vm64.Memory.seal}). A write into the process's own text kills it
    with SIGSEGV at the written address, and so does a jump into its
    data, heap or stack. *)

type signal = Sigsegv | Sigabrt | Sigill

val signal_name : signal -> string

val signal_number : signal -> int
(** Classic Linux signal number (SIGSEGV = 11, SIGABRT = 6, SIGILL = 4)
    — the low bits of a crashed child's waitpid status word. *)

val signal_of_fault : Vm64.Fault.t -> signal

type status =
  | Runnable
  | Blocked of Glibc.call
      (** parked in a kernel service until an event may let it
          complete; a parked write carries how much it has moved *)
  | Exited of int
  | Killed of signal * string

val status_is_dead : status -> bool
val status_to_string : status -> string

type t = {
  pid : int;
  parent : t option;  (** the forking process; [None] when spawned or resumed *)
  image : Image.t;
  mem : Vm64.Memory.t;
  cpu : Vm64.Cpu.t;
  io : Glibc.io;
  preload : Preload.mode;
  mutable status : status;
  pending_children : t Queue.t;
      (** oldest first, not yet waited; a queue so fork's append is O(1)
          even for a fork-per-connection server that reaps lazily *)
  mutable queued : bool;
      (** scheduler-internal: already in the ready queue *)
  mutable wake_pending : bool;
      (** scheduler-internal: already in the wake queue (a readiness
          event fired for this blocked process, retry not yet run) *)
  mutable reaped : bool;
      (** reaped (by a guest [waitpid] or [Kernel.reap_zombies]) or
          dropped by [Kernel.shutdown]: no longer in its kernel's
          process table. The kernel's queues hold processes by
          reference, so an entry may outlive its process in the table;
          dispatch skips a reaped one. *)
}

val crashed : t -> bool
(** Died from a signal (segfault or canary abort) — the event the
    byte-by-byte attacker's oracle distinguishes. *)

val stdout : t -> string
val stderr : t -> string
val cycles : t -> int64
