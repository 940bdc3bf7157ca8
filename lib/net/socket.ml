(* A listening socket: a bounded accept backlog of pending connections.
   Like the kernel's SYN/accept queue, a full backlog refuses new
   connections (the client sees ECONNREFUSED and may retry). The socket
   is refcounted across fork/pthread fd-table clones; the last release
   stops listening and resets whatever is still queued. *)

let g_refused = Telemetry.Registry.counter "net.conn.refused"
let g_accepted = Telemetry.Registry.counter "net.conn.accepted"

type t = {
  mutable port : int;
  mutable backlog : int;
  mutable listening : bool;
  pending : Conn.t Queue.t;
  mutable refs : int;
  (* One-shot accept waiters in FIFO park order. Each pushed connection
     wakes exactly one waiter (wake-one, no thundering herd), so several
     acceptor processes sharing a socket take turns — the wake order is
     the order they parked, which round-robins naturally. *)
  accept_waiters : (int * (unit -> unit)) Queue.t;
}

let create () =
  {
    port = 0;
    backlog = 0;
    listening = false;
    pending = Queue.create ();
    refs = 1;
    accept_waiters = Queue.create ();
  }

let bind t ~port = t.port <- port

let listen t ~backlog =
  t.backlog <- Stdlib.max 1 backlog;
  t.listening <- true

let port t = t.port
let backlog t = t.backlog
let listening t = t.listening
let pending_count t = Queue.length t.pending
let can_push t = t.listening && Queue.length t.pending < t.backlog

let add_accept_waiter t ~key f =
  (* dedup: a process re-parking before its wakeup fired keeps its slot *)
  if not (Queue.fold (fun seen (k, _) -> seen || k = key) false t.accept_waiters)
  then Queue.push (key, f) t.accept_waiters

let push t conn =
  Queue.push conn t.pending;
  (* wake-one: the longest-parked acceptor gets this connection *)
  match Queue.take_opt t.accept_waiters with
  | Some (_, f) -> f ()
  | None -> ()

let note_refused () = Telemetry.Registry.incr g_refused

let rec accept_opt t =
  match Queue.take_opt t.pending with
  | None -> None
  | Some c ->
    (* a client that aborted while queued never reaches the server *)
    if Conn.is_reset c then accept_opt t
    else begin
      Telemetry.Registry.incr g_accepted;
      Some c
    end

let retain t = t.refs <- t.refs + 1
let refs t = t.refs

let release t ~now =
  if t.refs > 0 then t.refs <- t.refs - 1;
  if t.refs = 0 then begin
    t.listening <- false;
    Queue.iter (fun c -> Conn.abort c ~now) t.pending;
    Queue.clear t.pending
  end
