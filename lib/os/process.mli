(** A simulated process: one address space, one CPU context, stdio plus
    a file-descriptor table over {!Net} connections.

    Text is fixed at load: binary rewriting works on the {!Image}
    before spawn, and nothing here writes loaded code. A write into the
    process's own text is not seen by blocks it has already decoded
    (see {!Vm64.Tcache}). *)

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
  parent : int option;
  image : Image.t;
  mem : Vm64.Memory.t;
  cpu : Vm64.Cpu.t;
  io : Glibc.io;
  preload : Preload.mode;
  mutable status : status;
  pending_children : int Queue.t;
      (** oldest first, not yet waited; a queue so fork's append is O(1)
          even for a fork-per-connection server that reaps lazily *)
  mutable queued : bool;
      (** scheduler-internal: already in the ready queue *)
  mutable wake_pending : bool;
      (** scheduler-internal: already in the wake queue (a readiness
          event fired for this blocked process, retry not yet run) *)
}

val crashed : t -> bool
(** Died from a signal (segfault or canary abort) — the event the
    byte-by-byte attacker's oracle distinguishes. *)

val stdout : t -> string
val stderr : t -> string
val cycles : t -> int64
