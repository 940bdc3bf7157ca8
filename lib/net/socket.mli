(** A listening socket with a bounded accept backlog.

    Connections queue between the client's connect and the server's
    [accept]; a full backlog refuses further connects ([can_push] is
    false and the would-be conn is never created). Refcounted across
    fork/pthread fd-table clones — the last {!release} stops listening
    and aborts anything still queued. *)

type t

val create : unit -> t
val bind : t -> port:int -> unit
val listen : t -> backlog:int -> unit
(** Start accepting; the backlog is clamped to at least 1. *)

val port : t -> int
val backlog : t -> int
val listening : t -> bool
val pending_count : t -> int

val can_push : t -> bool
(** Listening and the backlog has room. *)

val push : t -> Conn.t -> unit
(** Queue a connection (unchecked — callers test {!can_push} first;
    the kernel's request delivery to a server parked in [accept] pushes
    past the check on purpose). Wakes at most one parked accept
    waiter. *)

val add_accept_waiter : t -> key:int -> (unit -> unit) -> unit
(** Park a one-shot accept waiter. {!push} wakes waiters one at a time
    in park (FIFO) order — acceptor processes sharing a socket take
    turns. Re-adding an already-parked [key] is a no-op. *)

val note_refused : unit -> unit
(** Count one refused connect under ["net.conn.refused"]. *)

val accept_opt : t -> Conn.t option
(** Pop the oldest still-live pending connection (conns reset while
    queued are dropped silently, like a SYN-queue entry whose client
    went away). *)

val retain : t -> unit
val release : t -> now:int64 -> unit

val refs : t -> int
(** Fds currently counted as holding this socket. *)
