(* A simulated TCP-ish connection: two independent byte streams (client
   -> server "rx", server -> client "tx") with partial read/write,
   half-close, reset, and deterministic-cycle timestamps. All times are
   virtual kernel cycles supplied by the caller — nothing here reads a
   wall clock, so a seeded run replays byte-identically. *)

let metric_opened = "net.conn.opened"
let metric_closed = "net.conn.closed"
let metric_reset = "net.conn.reset"
let metric_timeouts = "net.conn.timeouts"
let metric_rx_bytes = "net.bytes.rx"
let metric_tx_bytes = "net.bytes.tx"

let g_opened = Telemetry.Registry.counter metric_opened
let g_closed = Telemetry.Registry.counter metric_closed
let g_reset = Telemetry.Registry.counter metric_reset
let g_timeouts = Telemetry.Registry.counter metric_timeouts
let g_rx_bytes = Telemetry.Registry.counter metric_rx_bytes
let g_tx_bytes = Telemetry.Registry.counter metric_tx_bytes

(* One direction of the stream: every byte ever sent, a read cursor,
   and a FIN flag set when the writing side is done. *)
type half = { data : Buffer.t; mutable consumed : int; mutable fin : bool }

let make_half () = { data = Buffer.create 64; consumed = 0; fin = false }
let avail h = Buffer.length h.data - h.consumed

type t = {
  id : int;
  opened_at : int64;
  mutable last_activity : int64;
  rx : half;  (* client -> server *)
  tx : half;  (* server -> client *)
  tx_capacity : int;
  mutable reset : bool;
  mutable eof_delivered : bool;
  mutable server_refs : int;  (* server-side fds referencing this conn *)
  (* One-shot readiness waiters, keyed (by pid) so a waiter parked twice
     replaces itself instead of firing twice. RX waiters fire when the
     client makes the server side readable (bytes, FIN, RST); TX waiters
     when it makes the server side writable again (drained bytes, RST).
     Firing sorts by key, so several processes parked on one fd wake in
     pid order — the determinism contract the kernel's old global poll
     scan provided. *)
  mutable rx_waiters : (int * (unit -> unit)) list;
  mutable tx_waiters : (int * (unit -> unit)) list;
}

let create ?(tx_capacity = 65536) ~id ~now () =
  Telemetry.Registry.incr g_opened;
  if Telemetry.Trace.enabled () then
    Telemetry.Trace.instant "net.conn.open"
      ~args:[ ("conn", string_of_int id) ]
      ~cycles:now;
  {
    id;
    opened_at = now;
    last_activity = now;
    rx = make_half ();
    tx = make_half ();
    tx_capacity;
    reset = false;
    eof_delivered = false;
    server_refs = 0;
    rx_waiters = [];
    tx_waiters = [];
  }

(* ---- readiness waiters ------------------------------------------------ *)

let add_waiter waiters ~key f = (key, f) :: List.remove_assoc key waiters
let add_rx_waiter t ~key f = t.rx_waiters <- add_waiter t.rx_waiters ~key f
let add_tx_waiter t ~key f = t.tx_waiters <- add_waiter t.tx_waiters ~key f

let by_pid (a, _) (b, _) = Int.compare a b

(* Clear before calling: a callback may register fresh waiters. *)
let fire_rx t =
  let ws = t.rx_waiters in
  t.rx_waiters <- [];
  List.iter (fun (_, f) -> f ()) (List.sort by_pid ws)

let fire_tx t =
  let ws = t.tx_waiters in
  t.tx_waiters <- [];
  List.iter (fun (_, f) -> f ()) (List.sort by_pid ws)

let id t = t.id
let opened_at t = t.opened_at
let last_activity t = t.last_activity
let is_reset t = t.reset
let server_closed t = t.tx.fin
let idle_cycles t ~now = Int64.sub now t.last_activity
let rx_pending t = avail t.rx
let tx_pending t = avail t.tx

let touch t ~now =
  if Int64.compare now t.last_activity > 0 then t.last_activity <- now

(* ---- server side ------------------------------------------------------ *)

let retain t = t.server_refs <- t.server_refs + 1
let server_refs t = t.server_refs

type read_result = Data of bytes | Would_block | Eof | Closed

let server_read t ~now ~max =
  if t.reset then Closed
  else begin
    let n = Stdlib.min max (avail t.rx) in
    if n > 0 then begin
      let b = Bytes.of_string (Buffer.sub t.rx.data t.rx.consumed n) in
      t.rx.consumed <- t.rx.consumed + n;
      touch t ~now;
      Telemetry.Registry.add g_rx_bytes n;
      Data b
    end
    else if t.rx.fin then
      if t.eof_delivered then Closed
      else begin
        t.eof_delivered <- true;
        Eof
      end
    else Would_block
  end

let tx_space t = t.tx_capacity - avail t.tx

type write_result = Wrote of int | Tx_full | Conn_closed

let server_write t ~now data =
  if t.reset || t.tx.fin then Conn_closed
  else begin
    let space = tx_space t in
    if space <= 0 then Tx_full
    else begin
      let n = Stdlib.min (Bytes.length data) space in
      Buffer.add_subbytes t.tx.data data 0 n;
      touch t ~now;
      Telemetry.Registry.add g_tx_bytes n;
      Wrote n
    end
  end

let close_event t ~now name =
  if Telemetry.Trace.enabled () then
    Telemetry.Trace.instant name
      ~args:[ ("conn", string_of_int t.id) ]
      ~cycles:now

let server_close t ~now =
  if t.server_refs > 0 then t.server_refs <- t.server_refs - 1;
  if t.server_refs = 0 && (not t.tx.fin) && not t.reset then begin
    t.tx.fin <- true;
    touch t ~now;
    Telemetry.Registry.incr g_closed;
    close_event t ~now "net.conn.close"
  end

let abort t ~now =
  if not t.reset then begin
    t.reset <- true;
    touch t ~now;
    Telemetry.Registry.incr g_reset;
    close_event t ~now "net.conn.reset";
    (* a reset completes every blocked operation (with an error) *)
    fire_rx t;
    fire_tx t
  end

let timeout t ~now =
  if not t.reset then begin
    Telemetry.Registry.incr g_timeouts;
    abort t ~now
  end

(* ---- client side ------------------------------------------------------ *)

let client_send t ~now data =
  if t.reset || t.rx.fin then false
  else begin
    Buffer.add_string t.rx.data data;
    touch t ~now;
    fire_rx t;
    true
  end

let client_shutdown t ~now =
  if (not t.rx.fin) && not t.reset then begin
    t.rx.fin <- true;
    touch t ~now;
    fire_rx t
  end

(* RST semantics: a reset kills the receive queue too — buffered
   response bytes are discarded, the client sees the connection die
   with an error. This is the one-bit crash signal the byte-by-byte
   attack reads (crash = RST, clean close = FIN + drained bytes), so a
   reset must never drain like a graceful close. *)
let client_recv t ~max =
  if t.reset then Closed
  else
    let n = Stdlib.min max (avail t.tx) in
    if n > 0 then begin
      let b = Bytes.of_string (Buffer.sub t.tx.data t.tx.consumed n) in
      t.tx.consumed <- t.tx.consumed + n;
      (* the server side regained TX space *)
      fire_tx t;
      Data b
    end
    else if t.tx.fin then Eof
    else Would_block

(* ---- readiness probes (epoll layer) ----------------------------------- *)

(* True when a server-side read would not block: bytes pending, an
   undelivered EOF, or a reset (the read completes with an error). *)
let readable t = t.reset || avail t.rx > 0 || (t.rx.fin && not t.eof_delivered)

let writable t = t.reset || t.tx.fin || tx_space t > 0
