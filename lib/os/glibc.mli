(** The simulated C library.

    Each glibc entry point occupies a fixed pseudo-address slot; a
    [call] that lands on a slot traps out of the interpreter and is
    served here, in OCaml, against the process's simulated memory.
    Memory-writing builtins ([memcpy], [strcpy], [read_input], [read],
    …) perform {e raw, unchecked} byte writes — they are the overflow
    vector the paper defends against.

    Builtins that need kernel services (fork, exit, waitpid, accept,
    and the fd operations that may block on a {!Net.Conn}) return a
    [Control] value that {!Kernel} interprets. [read], [write],
    [write_str] and [write_int] serve connection fds only: the kernel
    returns -1 for any other fd. A program's stdin and stdout are
    [read_input], [read_n] and the [print_*] family. *)

(** A kernel service that may block. The kernel runs it through one
    attempt, on its first issue and again after each wakeup; a process
    parked in it holds it as its status ([Process.Blocked]). *)
type call =
  | Accept
      (** the next pending connection on the process's listening
          socket; -1 at once without one *)
  | Read of { fd : int; dst : int64; cap : int }
      (** read from a connection fd into the guest buffer at [dst] *)
  | Write of { fd : int; data : bytes; written : int }
      (** write [data] to a connection fd; [written] is how much of it
          earlier attempts already moved. The payload is snapshotted at
          call time, like [write(2)]. *)
  | Poll of { dst : int64; cap : int }
      (** epoll-style readiness query over the whole open fd table:
          writes the ready fds into the guest array at [dst] (8-byte
          slots, at most [cap]) *)
  | Wait_child  (** blocking waitpid: reaps the oldest pending child *)

type control =
  | Exit of int
  | Abort of string  (** SIGABRT with diagnostic (stack smashing etc.) *)
  | Fork
  | Spawn_thread of { start : int64; arg : int64 }
  | Wait_child_nb  (** WNOHANG-style reap of one dead child, never parks *)
  | Listen of { fd : int; backlog : int }
      (** kernel-served so every listener lands in the kernel's
          port-sharding table (SO_REUSEPORT semantics) *)
  | Call of call
  | Close_fd of int

type outcome =
  | Ret of int64  (** completed; value for rax *)
  | Control of control

type fd_obj = Fd_conn of Net.Conn.t | Fd_listener of Net.Socket.t

val eagain : int64
(** The -2 sentinel non-blocking [accept]/[read]/[write] return instead
    of parking (EAGAIN). Distinct from -1 (error/closed) and 0 (EOF). *)

(** Per-process standard I/O, the heap break, and the fd table. *)
type fd_entry = { obj : fd_obj; mutable nonblock : bool }

(** The kernel's tables keyed by a pid or port: [Hashtbl.Make] over
    [int] with {!Int_table.hash}, so they iterate in the polymorphic
    table's order. *)
module Int_table : sig
  include Hashtbl.S with type key = int

  val hash : int -> int
  (** [Hashtbl.hash] on an int, written in OCaml (the runtime's
      MurmurHash3 mix of the tagged word, masked to 30 bits), so a
      lookup never calls [caml_hash]. Assumes 63-bit ints, which the
      module asserts at initialisation. *)
end

type io = {
  mutable input : bytes;
  mutable input_pos : int;
  output : Buffer.t;
  errout : Buffer.t;
  mutable brk : int64;
  mutable fds : fd_entry option array;
      (** indexed by fd, [None] when closed; grown by doubling when a
          fresh fd lands past its end *)
  mutable free_fds : int list;
      (** closed fds below [next_fd], ascending — install reuses the
          lowest first, keeping fd values dense under churn *)
  mutable next_fd : int;
  mutable listener : Net.Socket.t option;
      (** the most recently created listening socket — what [accept]
          (which takes no fd, see {!Kernel}) and kernel-side connects
          operate on *)
  mutable listener_fd : int;  (** fd of [listener], -1 when none *)
}

val make_io : input:bytes -> io
(** A fresh process's io: [input] is its stdin, the fd table empty. *)

val clone_io : io -> io
(** Fork/pthread semantics: stdio buffers are fresh, pending input is
    copied, and the fd table is inherited (each connection and listener
    gains one more holder). *)

val snapshot_io : io -> io
(** Zygote-snapshot copy: stdio buffer {e contents} are preserved (a
    resumed process must be indistinguishable from the frozen one) and
    every listener is rebuilt as a fresh socket with the same
    port/backlog/listening state, empty backlog, same fd numbering —
    the copy aliases no live kernel object. Raises [Invalid_argument]
    if any connection fd is open: snapshots are taken of quiescent
    processes parked in [accept]/[epoll_wait]. *)

val fd_obj_of : io -> int -> fd_obj option
(** One bounds-checked index: a negative or huge fd reads as closed. *)

val conn_of_fd : io -> int -> Net.Conn.t option
val listener_of : io -> Net.Socket.t option
val listener_fd : io -> int

val fd_nonblock : io -> int -> bool
(** O_NONBLOCK status of the fd ([false] for unknown fds). *)

val set_fd_nonblock : io -> int -> bool -> bool
(** Set/clear O_NONBLOCK; [false] if the fd is not open. *)

val open_fds : io -> int list
(** Every open fd, ascending — the deterministic scan order epoll-style
    readiness queries use. *)

val install_conn : io -> Net.Conn.t -> int
(** Retain the connection and assign it the lowest free fd. *)

val install_listener : io -> Net.Socket.t -> int

val close_fd : io -> int -> now:int64 -> bool
(** Drop the fd; releases the underlying connection or listener.
    [false] if the fd was not open. *)

val close_all : io -> now:int64 -> graceful:bool -> unit
(** Process-death cleanup, in ascending fd order: graceful (exit)
    half-closes connections so buffered responses still reach the
    client; non-graceful (crash) aborts them — the reset the attacker's
    client observes. Either way every fd's hold on its conn or
    listener is dropped. *)

val names : string list
(** Every entry point, in slot order. *)

val addr_of : string -> int64
(** Raises [Invalid_argument] on an unknown name. *)

val name_of_addr : int64 -> string option
(** [Some name] iff the address is exactly a known slot. *)

val inline_core : string -> Vm64.Compile.builtin_fn option
(** The pure cores — builtins whose entire effect is a function of
    (cpu, mem): the mem*/str* family and [AES_ENCRYPT_128]. [dispatch]
    executes exactly these closures for those names, so handing the
    table to {!Vm64.Exec.create_env}'s [inline_builtin] lets compiled code run
    them in line at direct call sites with identical memory effects,
    cycle charges, fault addresses and rax. [None] for every builtin
    that touches [io] or needs kernel control (and for
    [__stack_chk_fail], which {!Preload} may remap per-process). *)

val dispatch :
  name:string -> Vm64.Cpu.t -> Vm64.Memory.t -> pid:int -> io -> outcome
(** Execute one builtin. Arguments are taken from the SysV registers
    (rdi, rsi, rdx). Cycle costs are charged to the CPU. May raise
    [Vm64.Fault.Trap] if a memory-touching builtin walks off mapped
    memory — the kernel converts that into a crash, exactly like a
    hardware fault. Raises [Invalid_argument] on an unknown name. *)
