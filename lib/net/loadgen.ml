(* Deterministic client populations driving a simulated server.

   Two shapes:
   - [Closed]: a fixed population of clients, each with at most one
     request in flight; a client reconnects (keep-alive permitting) as
     soon as its previous request resolves.
   - [Open]: sessions arrive on a fixed interarrival clock, up to
     [clients] concurrent sessions; each session behaves like a closed
     client but goes dormant when its connection closes.

   Everything is a pure state machine over virtual cycles: [step] is
   called with the kernel's current [~now] and a [try_connect] thunk;
   request choice, slow senders and abrupt disconnects come from a
   seeded PRNG and global request indices, so a seeded run replays
   byte-identically regardless of host timing or [--jobs]. Responses
   are framed by the first '\n'. *)

let g_requests = Telemetry.Registry.counter "net.loadgen.requests"
let g_responses = Telemetry.Registry.counter "net.loadgen.responses"
let g_failures = Telemetry.Registry.counter "net.loadgen.failures"

let g_latency =
  Telemetry.Registry.histogram "net.loadgen.latency_cycles"
    ~bounds:
      [|
        1_000;
        3_000;
        10_000;
        30_000;
        100_000;
        300_000;
        1_000_000;
        3_000_000;
        10_000_000;
      |]

type mode = Closed | Open of { interarrival : int64 }

type phase =
  | Parked  (* open-loop slot waiting for an arrival *)
  | Idle of int64  (* may (re)connect once [now] reaches the stamp *)
  | Sending of {
      req : string;
      sent : int;
      next_at : int64;
      started : int64;
      gap : int64;
      abort_at : int;  (* byte index to disconnect abruptly at; -1 = never *)
    }
  | Awaiting of { started : int64; resp : Buffer.t }
  | Done

type client = {
  cid : int;
  mutable conn : Conn.t option;
  mutable left_on_conn : int;  (* keep-alive budget remaining *)
  mutable phase : phase;
}

type t = {
  mode : mode;
  keepalive : int;
  total : int;
  mix : string array;
  rng : Util.Prng.t;
  slow_every : int;
  slow_gap : int64;
  abort_every : int;
  retry_gap : int64;
  clients : client array;
  parked : int Queue.t;  (* open mode: cids awaiting an arrival, FIFO *)
  mutable active : int list;
      (* cids possibly not Parked/Done, sorted ascending — the only
         slots [step]/[next_event] visit, so a large open-mode
         population costs O(concurrency) per pump iteration, not
         O(population). Maintained lazily: parking leaves the cid in
         place and the next sweep prunes it (activation dedups against
         stale entries), so order and transitions stay byte-identical
         to the full array walk. *)
  mutable started : int;  (* requests begun (each resolves exactly once) *)
  mutable completed : int;
  mutable failed : int;
  mutable aborted : int;
  mutable refused : int;  (* refused connect attempts (not requests) *)
  mutable open_conns : int;
  mutable peak_open : int;
  mutable latencies : int64 list;  (* completion order, newest first *)
  mutable first_done : int64;  (* stamp of the first completion; -1 = none *)
  mutable last_done : int64;  (* stamp of the latest completion *)
  mutable next_arrival : int64;  (* open mode only *)
  mutable transitions : int;  (* progress detector for the pump loop *)
}

let create ?(seed = 0x10AD6E4L) ?(slow_every = 0) ?(slow_gap = 2_000L)
    ?(abort_every = 0) ?(retry_gap = 1_000L) ~mode ~clients ~keepalive ~total
    ~mix () =
  if clients <= 0 then invalid_arg "Loadgen.create: clients must be positive";
  if mix = [] then invalid_arg "Loadgen.create: empty request mix";
  let initial = match mode with Closed -> Idle 0L | Open _ -> Parked in
  let parked = Queue.create () in
  (match mode with
  | Open _ -> for cid = 0 to clients - 1 do Queue.push cid parked done
  | Closed -> ());
  {
    mode;
    keepalive = Stdlib.max 1 keepalive;
    total;
    mix = Array.of_list mix;
    rng = Util.Prng.create seed;
    slow_every;
    slow_gap;
    abort_every;
    retry_gap;
    clients =
      Array.init clients (fun cid ->
          { cid; conn = None; left_on_conn = 0; phase = initial });
    parked;
    active =
      (match mode with
      | Closed -> List.init clients Fun.id  (* everyone starts Idle *)
      | Open _ -> []);
    started = 0;
    completed = 0;
    failed = 0;
    aborted = 0;
    refused = 0;
    open_conns = 0;
    peak_open = 0;
    latencies = [];
    first_done = -1L;
    last_done = -1L;
    next_arrival = 0L;
    transitions = 0;
  }

let remaining t = t.total - t.started
let resolved t = t.completed + t.failed + t.aborted
let finished t = t.started >= t.total && resolved t >= t.total

let drop_conn t (c : client) ~now ~abortive =
  (match c.conn with
  | Some conn ->
    if abortive then Conn.abort conn ~now else Conn.client_shutdown conn ~now;
    t.open_conns <- t.open_conns - 1
  | None -> ());
  c.conn <- None;
  c.left_on_conn <- 0

(* A slot with no budget left goes dormant: open-loop slots park (their
   session is over), closed-loop clients are done for good. *)
let park t (c : client) ~now =
  drop_conn t c ~now ~abortive:false;
  match t.mode with
  | Closed -> c.phase <- Done
  | Open _ ->
    c.phase <- Parked;
    Queue.push c.cid t.parked

let after_resolve t (c : client) ~now =
  if remaining t <= 0 then park t c ~now
  else
    match t.mode with
    | Closed -> c.phase <- Idle now
    | Open _ ->
      (* one session = one connection's worth of requests *)
      if c.conn <> None && c.left_on_conn > 0 then c.phase <- Idle now
      else park t c ~now

let fail_request t (c : client) ~now =
  t.failed <- t.failed + 1;
  Telemetry.Registry.incr g_failures;
  drop_conn t c ~now ~abortive:false;
  after_resolve t c ~now

(* Begin the next request on c's live connection. Returns the new phase
   directly so callers fall through the send path this same step. *)
let begin_request t (c : client) ~now =
  t.started <- t.started + 1;
  Telemetry.Registry.incr g_requests;
  let idx = t.started in
  let req = t.mix.(Util.Prng.int t.rng (Array.length t.mix)) in
  let abort_at =
    if t.abort_every > 0 && idx mod t.abort_every = 0 then
      Stdlib.max 1 (String.length req / 2)
    else -1
  in
  let slow = t.slow_every > 0 && idx mod t.slow_every = 0 in
  let gap = if slow then t.slow_gap else 0L in
  c.left_on_conn <- c.left_on_conn - 1;
  c.phase <- Sending { req; sent = 0; next_at = now; started = now; gap; abort_at }

let conn_dead conn = Conn.is_reset conn

(* ascending insert, dropping duplicates — a parked cid pruned lazily
   may still sit in [active] when its slot re-wakes *)
let rec insert_active (cid : int) = function
  | [] -> [ cid ]
  | hd :: tl as l ->
    if cid < hd then cid :: l
    else if cid = hd then l
    else hd :: insert_active cid tl

let inactive (c : client) = match c.phase with Parked | Done -> true | _ -> false

(* One transition attempt for one client; true if anything changed. *)
let rec step_client t (c : client) ~now ~try_connect =
  match c.phase with
  | Done | Parked -> false
  | Idle at when Int64.compare now at < 0 -> false
  | Idle _ -> (
    if remaining t <= 0 then begin
      park t c ~now;
      true
    end
    else
      match c.conn with
      | Some conn when c.left_on_conn > 0 && not (conn_dead conn) ->
        (* keep-alive: reuse the live connection while budget remains *)
        begin_request t c ~now;
        ignore (step_client t c ~now ~try_connect);
        true
      | _ -> (
        (match c.conn with
        | Some _ -> drop_conn t c ~now ~abortive:false
        | None -> ());
        match try_connect () with
        | None ->
          t.refused <- t.refused + 1;
          c.phase <- Idle (Int64.add now t.retry_gap);
          true
        | Some conn ->
          c.conn <- Some conn;
          c.left_on_conn <- t.keepalive;
          t.open_conns <- t.open_conns + 1;
          if t.open_conns > t.peak_open then t.peak_open <- t.open_conns;
          begin_request t c ~now;
          ignore (step_client t c ~now ~try_connect);
          true))
  | Sending s -> (
    match c.conn with
    | None ->
      fail_request t c ~now;
      true
    | Some conn ->
      if conn_dead conn then begin
        (* server aborted us (timeout / handler crash) mid-request *)
        fail_request t c ~now;
        true
      end
      else if s.abort_at >= 0 && s.sent >= s.abort_at then begin
        (* abrupt disconnect: client vanishes mid-request *)
        t.aborted <- t.aborted + 1;
        Telemetry.Registry.incr g_failures;
        drop_conn t c ~now ~abortive:true;
        after_resolve t c ~now;
        true
      end
      else if Int64.compare now s.next_at < 0 then false
      else begin
        (* drain any early server bytes so slow trickles can't wedge on
           a full TX buffer *)
        (match Conn.client_recv conn ~max:4096 with _ -> ());
        let len = String.length s.req in
        let n =
          if Int64.compare s.gap 0L > 0 then 1 (* byte-at-a-time sender *)
          else len - s.sent
        in
        (* an aborting client stops exactly at its abort byte so the
           next transition takes the disconnect branch above *)
        let n =
          if s.abort_at >= 0 then Stdlib.min n (s.abort_at - s.sent) else n
        in
        let chunk = String.sub s.req s.sent n in
        if not (Conn.client_send conn ~now chunk) then begin
          fail_request t c ~now;
          true
        end
        else begin
          let sent = s.sent + n in
          if sent >= len then begin
            Conn.touch conn ~now;
            c.phase <- Awaiting { started = s.started; resp = Buffer.create 64 }
          end
          else
            c.phase <-
              Sending { s with sent; next_at = Int64.add now s.gap };
          true
        end
      end)
  | Awaiting a -> (
    match c.conn with
    | None ->
      fail_request t c ~now;
      true
    | Some conn -> (
      match Conn.client_recv conn ~max:4096 with
      | Conn.Data b ->
        Buffer.add_bytes a.resp b;
        if Bytes.index_opt b '\n' <> None then begin
          let latency = Int64.sub now a.started in
          t.completed <- t.completed + 1;
          Telemetry.Registry.incr g_responses;
          Telemetry.Registry.observe g_latency (Int64.to_int latency);
          t.latencies <- latency :: t.latencies;
          if Int64.compare t.first_done 0L < 0 then t.first_done <- now;
          t.last_done <- now;
          after_resolve t c ~now
        end;
        true
      | Conn.Would_block -> false
      | Conn.Eof | Conn.Closed ->
        (* server went away before a full response *)
        fail_request t c ~now;
        true))

let arrivals t ~now =
  match t.mode with
  | Closed -> false
  | Open { interarrival } ->
    let moved = ref false in
    let continue = ref true in
    while !continue do
      if Int64.compare t.next_arrival now > 0 || remaining t <= 0 then
        continue := false
      else begin
        match Queue.take_opt t.parked with
        | None -> continue := false (* at max concurrency: arrivals stall *)
        | Some cid ->
          let c = t.clients.(cid) in
          (* stale queue entries (slot re-woken some other way) are
             skipped without consuming the arrival *)
          if c.phase = Parked then begin
            c.phase <- Idle t.next_arrival;
            t.active <- insert_active cid t.active;
            t.next_arrival <- Int64.add t.next_arrival interarrival;
            moved := true
          end
      end
    done;
    !moved

let step t ~now ~try_connect =
  let moved = ref (arrivals t ~now) in
  (* sweep only the active set, pruning slots that parked (before this
     step or during their own transitions) as we rebuild the list —
     same ascending-cid visit order as the full array walk, on which
     parked/done slots were no-op transitions *)
  let rec sweep = function
    | [] -> []
    | cid :: rest ->
      let c = t.clients.(cid) in
      if inactive c then sweep rest
      else begin
        (* let a client chain transitions within one step (drain + next
           request), bounded by the phase machine itself *)
        let rec go budget =
          if budget > 0 && step_client t c ~now ~try_connect then begin
            moved := true;
            t.transitions <- t.transitions + 1;
            go (budget - 1)
          end
        in
        go 8;
        if inactive c then sweep rest else cid :: sweep rest
      end
  in
  t.active <- sweep t.active;
  !moved

(* Earliest future cycle at which some client has a scheduled move. *)
let next_event t =
  let best = ref None in
  let consider at =
    match !best with
    | None -> best := Some at
    | Some b -> if Int64.compare at b < 0 then best := Some at
  in
  (match t.mode with
  | Open _ when remaining t > 0 ->
    if not (Queue.is_empty t.parked) then consider t.next_arrival
  | _ -> ());
  List.iter
    (fun cid ->
      match t.clients.(cid).phase with
      | Idle at -> consider at
      | Sending s -> consider s.next_at
      | Parked | Awaiting _ | Done -> ())
    t.active;
  !best

(* Stall-breaker: fail everything outstanding so the pump can report
   instead of spinning. *)
let force_finish t ~now =
  Array.iter
    (fun c ->
      match c.phase with
      | Sending _ | Awaiting _ -> fail_request t c ~now
      | Idle _ -> park t c ~now
      | Parked | Done -> ())
    t.clients;
  t.active <- [];
  (* un-begun budget resolves as failed connect attempts *)
  while t.started < t.total do
    t.started <- t.started + 1;
    t.failed <- t.failed + 1;
    Telemetry.Registry.incr g_failures
  done

type report = {
  sent : int;
  completed : int;
  failed : int;
  aborted : int;
  refused : int;
  peak_open : int;
  latencies : int64 array;  (** completion order *)
  busy_cycles : int64;
      (** virtual cycles between the first and last completion — the
          saturated window, excluding connect ramp-up *)
}

let report t =
  {
    sent = t.started;
    completed = t.completed;
    failed = t.failed;
    aborted = t.aborted;
    refused = t.refused;
    peak_open = t.peak_open;
    latencies = Array.of_list (List.rev t.latencies);
    busy_cycles =
      (if Int64.compare t.first_done 0L < 0 then 0L
       else Int64.sub t.last_done t.first_done);
  }
