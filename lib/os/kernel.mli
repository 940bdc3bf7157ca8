(** The kernel: process creation, fork/thread semantics, a round-robin
    ready-queue scheduler, connection-level services over {!Net}, and
    the request-driving interface the attack harness and server
    benchmarks use.

    Processes run in bounded instruction slices. A kernel service that
    may block ([accept], conn [read]/[write], [epoll_wait], blocking
    [waitpid]) is a {!Glibc.call}, and one attempt runs it, both when
    the process issues it and on every retry after a wakeup. A call
    that cannot complete parks the process in [Process.Blocked call]
    and registers a one-shot waiter on the object being waited on
    (conn, socket, child); the event fires the waiter, which queues
    the process on a FIFO wake queue the scheduler drains before
    dispatching — no per-dispatch scan over blocked processes. The
    queues hold processes by reference; one reaped since it was queued
    is skipped. A
    parked write's call carries the bytes it has moved, so its retry
    continues from there. Wakeups are FIFO across events and pid-ordered
    within one event, so for a deterministic workload the interleaving
    is deterministic. Virtual time ([now]) advances with the cycles
    retired across all processes — one simulated core — and drives
    connection timeouts and the load generator. *)

type t

exception Not_blocked_in_accept of { pid : int; status : Process.status }
(** Raised by {!deliver_request} when the target process is not parked
    in [accept]. *)

val create :
  ?seed:int64 ->
  ?on_retire:(Vm64.Cpu.t -> Isa.Insn.t -> unit) ->
  unit ->
  t
(** [on_retire] traces every retired instruction across all processes
    of this kernel (see {!Debug.ring_tracer}). *)

val spawn :
  t ->
  ?input:bytes ->
  ?preload:Preload.mode ->
  ?insn_tax:int ->
  ?call_tax:int ->
  Image.t ->
  Process.t
(** Load an image into a fresh process: map text/data/stack/TLS, install
    a fresh TLS canary, run the preload constructor, point rip at the
    entry symbol. [input] is the process's stdin (what [read_input] and
    [read_n] consume; default empty), for single-shot programs — a
    server's requests arrive as connections ({!deliver_request},
    {!connect}). [insn_tax] models dynamic-binary-translation overhead
    (cycles added to every instruction). *)

type stop =
  | Stop_exit of int
  | Stop_kill of Process.signal * string
  | Stop_accept  (** parked in [Blocked Accept] *)
  | Stop_io
      (** parked in any other call: a conn read or write, [epoll_wait]
          ([Poll]) or a blocking [waitpid] ([Wait_child]) *)
  | Stop_fuel

val stop_to_string : stop -> string

val enqueue : t -> Process.t -> unit
(** Queue a runnable process for the scheduler (idempotent — a process
    already in the ready queue keeps its one slot; blocked processes
    are queued but skipped at dispatch until an event wakes them).
    Raises [Invalid_argument] if the process is already dead. The old
    [run k p] composite is [enqueue k p; schedule k; stop_of p]. *)

val schedule : ?fuel:int -> t -> unit
(** Run the scheduler until every process is parked or dead (or [fuel]
    runs out — instructions, shared across all runnable processes;
    default 50M), without singling out one process. Drivers pair this
    with {!enqueue}/{!deliver_request} and read results off
    {!stop_of}. *)

val stop_of : Process.t -> stop
(** The process's current state as a scheduler stop reason. *)

val deliver_request : t -> Process.t -> bytes -> Net.Conn.t
(** Deliver a request to a process blocked in [accept] {e without}
    running the scheduler: a one-shot connection (payload + FIN) pushed
    onto its listening socket's backlog, past the backlog check.
    Returns the client end, whose receive side holds the response once
    the handler has run. Follow with {!schedule} (and {!reap_zombies}
    if {!last_reaped} should name the child that served the request).
    Raises {!Not_blocked_in_accept} if the process is parked elsewhere.
    ([accept] without a listening socket returns -1 at once, so a
    process blocked in it always has one.) *)

val connect : ?tx_capacity:int -> t -> Process.t -> Net.Conn.t option
(** Client-side connect: to the process's own listening socket if it
    holds one, else round-robin across the live listeners registered on
    the kernel's port table (SO_REUSEPORT-style — how connects reach
    the sharded acceptors forked by a parent that owns no socket).
    [None] (and a [net.conn.refused] tick) when there is no listener
    anywhere or every candidate backlog is full — the caller backs off
    and retries, like a real client seeing SYN drops. *)

val now : t -> int64
(** Virtual time: cycles retired across all of this kernel's processes. *)

val advance_to : t -> int64 -> unit
(** Jump virtual time forward (never backward) — the pump uses this to
    skip idle stretches to the next load-generator event or connection
    deadline. *)

val set_conn_timeout : t -> int64 option -> unit
(** When set, a conn operation blocked for that many idle cycles resets
    the connection and completes with -1 ([net.conn.timeouts]). *)

val next_deadline : t -> int64 option
(** Earliest virtual cycle at which a currently-blocked conn operation
    would time out, if a timeout is configured. *)

val reap_zombies : t -> Process.t -> unit
(** Reap the process's dead children (without a guest waitpid), updating
    {!last_reaped} — used by drivers for servers that reap lazily. *)

val last_reaped : t -> Process.t option
(** The most recent child reaped — by a guest [waitpid]/[waitpid_nb] or
    by {!reap_zombies}. The attack oracle reads the child's fate here.
    Its memory stays readable until the next reap, which releases it
    ({!Vm64.Memory.release}): from then on its written pages fault. *)

val shutdown : t -> unit
(** The kernel is being discarded: release the memory of every process
    it holds and of {!last_reaped}, returning their private frames to
    the free list. Nothing of the kernel may run or be read after. *)

val check_invariants : t -> (unit, string) result
(** Sweep the kernel's bookkeeping; [Error] names the first broken
    rule and the process or object it found broken:
    - every process in the process table is unreaped;
    - {!last_reaped}, when set, is reaped and dead;
    - no reaped process is parked on conn I/O ([blocked_io]); a stale
      ready- or wake-queue entry is legal, since dispatch skips it;
    - a dead process (a zombie, or {!last_reaped}) holds no fd;
    - each connection's and listening socket's server refcount equals
      the number of live fds that hold it;
    - every parked process can wake: a blocking [waitpid] has a
      pending child, an [accept] a listening socket, a conn read or
      write its conn and a [blocked_io] entry, an [epoll_wait] an open
      fd;
    - every zombie can be reaped: each [pending_children] entry names
      the queue's owner as its parent, and a dead, unreaped process
      whose parent is unreaped sits in that parent's queue.
    Reads only; a driver may call it between any two kernel calls. *)

val fork_count : t -> int
(** Forks (and thread spawns, which clone an address space) this kernel
    has served. Process-wide counts live in the metrics registry
    ({!metric_forks}). *)

val metric_forks : string
(** Registry counter name for forks across all kernels
    (["os.kernel.forks"]). *)

val exit_stub_addr : int64
(** Where the loader's process-exit trampoline lives ([main] returns to
    it). *)

val run_to_exit : ?fuel:int -> t -> Process.t -> int
(** {!enqueue} + {!schedule}, expecting a plain exit; raises [Failure]
    with the stop description otherwise. Returns the exit code. *)

(** {1 Zygote snapshots}

    A snapshot freezes a fully loaded, protected, warmed process — CoW
    page-store clone, exact CPU state including the RNG position and
    the compiled translation-cache tier, and a rebuilt fd table that
    aliases no live kernel object. Resuming stamps out a warm copy in
    any kernel, bit-identical to the frozen original: the
    prefork/zygote pattern production servers use, here so campaigns
    restart trial victims without paying cold spawn + warmup each
    time. *)

type snapshot

val capture_snapshot : t -> Process.t -> snapshot
(** Freeze the process. It must be quiescent — [Runnable], or
    [Blocked] in [Accept] or [Poll], with no pending children and no
    open connection fds; raises [Invalid_argument] otherwise. The
    live process is unaffected and keeps running. *)

val resume_snapshot : t -> snapshot -> Process.t
(** Thaw a fresh process (new pid) from the snapshot into this kernel:
    listeners are re-registered on the kernel's port table and the
    frozen call is issued again, which parks and re-arms its
    [accept]/[epoll_wait] waiters, so the
    resumed process is immediately connectable. The snapshot itself
    stays frozen and can be resumed any number of times. Virtual time
    advances to at least the capture-time clock, so a resumed
    process's cycle counts continue where the original's stood. *)
