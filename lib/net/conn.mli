(** A simulated connection: client->server ("rx") and server->client
    ("tx") byte streams with partial read/write, half-close (FIN),
    abortive close (RST), and deterministic virtual-cycle timestamps.

    The server side addresses a connection through a process fd and is
    refcounted ([retain]/[server_close]) so fork/pthread clones of the
    fd table keep the connection open until the last holder closes it.
    The client side is driven directly by {!Loadgen} or the attack
    oracle. All [~now] arguments are kernel virtual cycles — nothing
    here reads a wall clock. *)

type t

val create : ?tx_capacity:int -> id:int -> now:int64 -> unit -> t
(** [tx_capacity] bounds un-consumed server->client bytes; a full TX
    buffer blocks the server's [write] (default 64 KiB). *)

val id : t -> int
val opened_at : t -> int64

val last_activity : t -> int64
(** Cycle stamp of the most recent byte or state change — the idle
    clock connection timeouts are measured against. *)

val idle_cycles : t -> now:int64 -> int64
val is_reset : t -> bool
val server_closed : t -> bool

val rx_pending : t -> int
(** Bytes sent by the client not yet read by the server. *)

val tx_pending : t -> int
(** Bytes written by the server not yet received by the client. *)

val touch : t -> now:int64 -> unit
(** Advance [last_activity] (monotonic; earlier stamps are ignored). *)

val readable : t -> bool
(** True when a server-side read would not block: pending RX bytes, an
    undelivered EOF, or a reset (the read completes with an error). *)

val writable : t -> bool
(** True when a server-side write would not block (TX space, or the
    conn is closed so the write completes with an error). *)

(** {1 Readiness waiters}

    One-shot callbacks the kernel parks on a connection instead of
    polling it. RX waiters fire when the client makes the server side
    readable (bytes, FIN, reset); TX waiters when it becomes writable
    again (client drained bytes, reset). A waiter re-registered under
    the same [key] replaces the previous one; firing happens in key
    order (the kernel keys by pid, preserving pid-order wakeups). *)

val add_rx_waiter : t -> key:int -> (unit -> unit) -> unit
val add_tx_waiter : t -> key:int -> (unit -> unit) -> unit

(** {1 Server side} *)

val retain : t -> unit
(** One more server fd references this conn (fd install, fd-table
    clone at fork/pthread_create). *)

val server_refs : t -> int
(** Server fds currently counted as holding this conn. *)

type read_result =
  | Data of bytes  (** 1..max bytes *)
  | Would_block  (** no data yet; stream still open *)
  | Eof  (** client half-closed and drained — delivered exactly once *)
  | Closed  (** reset, or reading past the one EOF *)

val server_read : t -> now:int64 -> max:int -> read_result

type write_result =
  | Wrote of int  (** 1..len bytes accepted (partial if TX fills) *)
  | Tx_full  (** no room; caller should block *)
  | Conn_closed  (** reset or already closed server-side *)

val server_write : t -> now:int64 -> bytes -> write_result

val server_close : t -> now:int64 -> unit
(** Drop one server reference; the last drop half-closes TX (graceful
    FIN — the client can still drain buffered bytes, then sees [Eof]). *)

val abort : t -> now:int64 -> unit
(** Abortive close (RST): both directions die immediately. Used when a
    handler process crashes or a client disconnects abruptly. *)

val timeout : t -> now:int64 -> unit
(** {!abort}, counted under ["net.conn.timeouts"] — the kernel calls
    this when a blocked read/write exceeds the connection timeout. *)

(** {1 Client side} *)

val client_send : t -> now:int64 -> string -> bool
(** Append request bytes; [false] if the conn is reset or already
    half-closed client-side. *)

val client_shutdown : t -> now:int64 -> unit
(** Half-close: no more client bytes; the server's next drained read
    returns [Eof]. *)

val client_recv : t -> max:int -> read_result
(** Drain server response bytes. A reset connection returns [Closed]
    immediately and discards anything still buffered — RST kills the
    receive queue, unlike the FIN path which drains then reports
    [Eof]. *)
