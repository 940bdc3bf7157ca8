(* lib/net integration: connection stream semantics, accept-backlog
   limits, keep-alive across forked children, connection timeouts, the
   seeded load generator, and the byte-by-byte attack carried over a
   real connection. *)

let compile ?(scheme = Pssp.Scheme.Pssp) src =
  Mcc.Driver.compile ~scheme (Minic.Parser.parse src)

(* enqueue + schedule + stop_of: run one process to its next park *)
let kernel_run k p =
  Os.Kernel.enqueue k p;
  Os.Kernel.schedule k;
  Os.Kernel.stop_of p

let spawn_server ?(scheme = Pssp.Scheme.Pssp) src =
  let k = Os.Kernel.create () in
  let p = Os.Kernel.spawn k ~preload:(Mcc.Driver.preload_for scheme) (compile ~scheme src) in
  (match kernel_run k p with
  | Os.Kernel.Stop_accept -> ()
  | other -> Alcotest.failf "server never accepted: %s" (Os.Kernel.stop_to_string other));
  (k, p)

let drain conn =
  let buf = Buffer.create 64 in
  let rec go () =
    match Net.Conn.client_recv conn ~max:4096 with
    | Net.Conn.Data b ->
      Buffer.add_bytes buf b;
      go ()
    | Net.Conn.Would_block | Net.Conn.Eof | Net.Conn.Closed -> ()
  in
  go ();
  Buffer.contents buf

(* ---- conn stream semantics ----------------------------------------------------- *)

let test_eof_exactly_once () =
  let conn = Net.Conn.create ~id:1 ~now:0L () in
  Alcotest.(check bool) "send" true (Net.Conn.client_send conn ~now:1L "abc");
  Net.Conn.client_shutdown conn ~now:2L;
  (* buffered bytes drain first, in order, honouring partial reads *)
  (match Net.Conn.server_read conn ~now:3L ~max:2 with
  | Net.Conn.Data b -> Alcotest.(check string) "partial read" "ab" (Bytes.to_string b)
  | _ -> Alcotest.fail "expected data");
  (match Net.Conn.server_read conn ~now:4L ~max:16 with
  | Net.Conn.Data b -> Alcotest.(check string) "tail" "c" (Bytes.to_string b)
  | _ -> Alcotest.fail "expected tail");
  (* then EOF is delivered exactly once, and only once *)
  (match Net.Conn.server_read conn ~now:5L ~max:16 with
  | Net.Conn.Eof -> ()
  | _ -> Alcotest.fail "expected Eof");
  match Net.Conn.server_read conn ~now:6L ~max:16 with
  | Net.Conn.Closed -> ()
  | _ -> Alcotest.fail "second read after EOF must be Closed"

let test_tx_backpressure () =
  let conn = Net.Conn.create ~tx_capacity:4 ~id:2 ~now:0L () in
  (match Net.Conn.server_write conn ~now:1L (Bytes.of_string "abcdef") with
  | Net.Conn.Wrote n -> Alcotest.(check int) "partial write" 4 n
  | _ -> Alcotest.fail "expected partial write");
  (match Net.Conn.server_write conn ~now:2L (Bytes.of_string "ef") with
  | Net.Conn.Tx_full -> ()
  | _ -> Alcotest.fail "expected Tx_full");
  (match Net.Conn.client_recv conn ~max:16 with
  | Net.Conn.Data b -> Alcotest.(check string) "client sees flushed bytes" "abcd" (Bytes.to_string b)
  | _ -> Alcotest.fail "expected data");
  match Net.Conn.server_write conn ~now:3L (Bytes.of_string "ef") with
  | Net.Conn.Wrote 2 -> ()
  | _ -> Alcotest.fail "space reclaimed after client drained"

let test_rst_discards_buffered_bytes () =
  let conn = Net.Conn.create ~id:3 ~now:0L () in
  (* bytes buffered in both directions when the RST lands *)
  (match Net.Conn.server_write conn ~now:1L (Bytes.of_string "late reply") with
  | Net.Conn.Wrote 10 -> ()
  | _ -> Alcotest.fail "expected full write");
  Alcotest.(check bool) "send" true
    (Net.Conn.client_send conn ~now:1L "partial requ");
  Net.Conn.abort conn ~now:2L;
  (* client direction: RST kills the receive queue — buffered response
     bytes must not drain like a graceful FIN close would *)
  (match Net.Conn.client_recv conn ~max:4096 with
  | Net.Conn.Closed -> ()
  | Net.Conn.Data _ -> Alcotest.fail "client drained stale tx after RST"
  | Net.Conn.Eof -> Alcotest.fail "RST must not read as graceful Eof"
  | Net.Conn.Would_block -> Alcotest.fail "expected Closed");
  (* server direction: buffered request bytes die the same way *)
  (match Net.Conn.server_read conn ~now:3L ~max:4096 with
  | Net.Conn.Closed -> ()
  | Net.Conn.Data _ -> Alcotest.fail "server drained stale rx after RST"
  | Net.Conn.Eof -> Alcotest.fail "RST must not read as graceful Eof"
  | Net.Conn.Would_block -> Alcotest.fail "expected Closed");
  Alcotest.(check bool) "send on reset conn refused" false
    (Net.Conn.client_send conn ~now:4L "x")

(* ---- accept backlog ------------------------------------------------------------- *)

let test_backlog_overflow_refuses () =
  (* fork_server_net listens with backlog 16: with the parent parked in
     accept, 16 connects queue and the 17th is refused *)
  let k, p = spawn_server (Workload.Vuln.fork_server_net ~buffer_size:16) in
  let refused_before = Telemetry.Registry.read_int "net.conn.refused" in
  let conns =
    List.init 16 (fun i ->
        match Os.Kernel.connect k p with
        | Some c -> c
        | None -> Alcotest.failf "connect %d refused below backlog" i)
  in
  (match Os.Kernel.connect k p with
  | None -> ()
  | Some _ -> Alcotest.fail "connect beyond backlog must be refused");
  Alcotest.(check int) "refusal counted" (refused_before + 1)
    (Telemetry.Registry.read_int "net.conn.refused");
  (* the refusal leaves the queued connections fully servable *)
  List.iter
    (fun c ->
      ignore (Net.Conn.client_send c ~now:(Os.Kernel.now k) "ping");
      Net.Conn.client_shutdown c ~now:(Os.Kernel.now k))
    conns;
  (match kernel_run k p with
  | Os.Kernel.Stop_accept -> ()
  | other -> Alcotest.failf "server died: %s" (Os.Kernel.stop_to_string other));
  List.iter
    (fun c ->
      Alcotest.(check bool) "queued conn served" true (String.length (drain c) > 0))
    conns;
  Alcotest.(check int) "one child per queued conn" 16 (Os.Kernel.fork_count k)

(* ---- keep-alive across forked children ------------------------------------------ *)

let test_keepalive_across_child () =
  let profile = Workload.Servers.apache2 in
  let k, p = spawn_server profile.Workload.Servers.source in
  let conn =
    match Os.Kernel.connect k p with
    | Some c -> c
    | None -> Alcotest.fail "refused"
  in
  let request i =
    let req = List.nth profile.Workload.Servers.requests
        (i mod List.length profile.Workload.Servers.requests) in
    Alcotest.(check bool) "sent" true
      (Net.Conn.client_send conn ~now:(Os.Kernel.now k) req);
    (match kernel_run k p with
    | Os.Kernel.Stop_accept -> ()
    | other -> Alcotest.failf "server died: %s" (Os.Kernel.stop_to_string other));
    let resp = drain conn in
    Alcotest.(check bool) (Printf.sprintf "response %d" i) true
      (String.length resp > 0 && String.contains resp '\n')
  in
  (* several requests ride the same connection — and the same child *)
  request 0;
  request 1;
  request 2;
  Alcotest.(check int) "one fork serves the whole connection" 1
    (Os.Kernel.fork_count k);
  (* half-closing the conn ends the child's recv loop: it exits 0 *)
  Net.Conn.client_shutdown conn ~now:(Os.Kernel.now k);
  (match kernel_run k p with
  | Os.Kernel.Stop_accept -> ()
  | other -> Alcotest.failf "server died: %s" (Os.Kernel.stop_to_string other));
  Os.Kernel.reap_zombies k p;
  (match Os.Kernel.last_reaped k with
  | Some child ->
    Alcotest.(check bool) "child exited cleanly" true
      (child.Os.Process.status = Os.Process.Exited 0)
  | None -> Alcotest.fail "child not reaped");
  (* the server accepts fresh connections after the child is gone *)
  match Os.Kernel.connect k p with
  | Some conn2 ->
    ignore (Net.Conn.client_send conn2 ~now:(Os.Kernel.now k)
              (List.hd profile.Workload.Servers.requests));
    Net.Conn.client_shutdown conn2 ~now:(Os.Kernel.now k);
    (match kernel_run k p with
    | Os.Kernel.Stop_accept ->
      Alcotest.(check bool) "second connection served" true
        (String.length (drain conn2) > 0)
    | other -> Alcotest.failf "server died: %s" (Os.Kernel.stop_to_string other))
  | None -> Alcotest.fail "reconnect refused"

(* ---- connection timeout --------------------------------------------------------- *)

let test_slow_sender_times_out () =
  let profile = Workload.Servers.nginx in
  let k, p = spawn_server profile.Workload.Servers.source in
  Os.Kernel.set_conn_timeout k (Some 1_000_000L);
  (* conn A sends half a request and goes silent *)
  let slow =
    match Os.Kernel.connect k p with
    | Some c -> c
    | None -> Alcotest.fail "refused"
  in
  ignore (Net.Conn.client_send slow ~now:(Os.Kernel.now k) "GET /inde");
  (match kernel_run k p with
  | Os.Kernel.Stop_accept -> ()
  | other -> Alcotest.failf "server died: %s" (Os.Kernel.stop_to_string other));
  Alcotest.(check bool) "handler parked, not timed out yet" false
    (Net.Conn.is_reset slow);
  (* a well-behaved conn B is served while A is wedged *)
  (match Os.Kernel.connect k p with
  | Some good ->
    ignore (Net.Conn.client_send good ~now:(Os.Kernel.now k)
              (List.hd profile.Workload.Servers.requests));
    Net.Conn.client_shutdown good ~now:(Os.Kernel.now k);
    (match kernel_run k p with
    | Os.Kernel.Stop_accept ->
      Alcotest.(check bool) "good conn served around the slow one" true
        (String.length (drain good) > 0)
    | other -> Alcotest.failf "server died: %s" (Os.Kernel.stop_to_string other))
  | None -> Alcotest.fail "refused");
  (* idle past the timeout: the kernel resets A and unwedges its child *)
  let timeouts_before = Telemetry.Registry.read_int "net.conn.timeouts" in
  Os.Kernel.advance_to k (Int64.add (Os.Kernel.now k) 2_000_000L);
  (match kernel_run k p with
  | Os.Kernel.Stop_accept -> ()
  | other -> Alcotest.failf "server died: %s" (Os.Kernel.stop_to_string other));
  Alcotest.(check bool) "slow conn reset" true (Net.Conn.is_reset slow);
  Alcotest.(check int) "timeout counted" (timeouts_before + 1)
    (Telemetry.Registry.read_int "net.conn.timeouts");
  (* the ready queue is not wedged: a third connection still works *)
  match Os.Kernel.connect k p with
  | Some c ->
    ignore (Net.Conn.client_send c ~now:(Os.Kernel.now k)
              (List.hd profile.Workload.Servers.requests));
    Net.Conn.client_shutdown c ~now:(Os.Kernel.now k);
    (match kernel_run k p with
    | Os.Kernel.Stop_accept ->
      Alcotest.(check bool) "post-timeout conn served" true
        (String.length (drain c) > 0)
    | other -> Alcotest.failf "server died: %s" (Os.Kernel.stop_to_string other))
  | None -> Alcotest.fail "refused"

(* ---- non-blocking fds and the event-driven server tier -------------------------- *)

let test_nonblock_read_eagain () =
  (* a non-blocking read on an empty stream returns EAGAIN (-2) instead
     of parking the process *)
  let src =
    {|
int main() {
  char buf[8];
  int lfd;
  int fd;
  lfd = socket();
  bind(lfd, 8080);
  listen(lfd, 8);
  fd = accept();
  set_nonblock(fd);
  print_int(read(fd, buf, 8));
  exit(0);
  return 0;
}
|}
  in
  let k = Os.Kernel.create () in
  let p =
    Os.Kernel.spawn k ~preload:Os.Preload.No_preload
      (compile ~scheme:Pssp.Scheme.None_ src)
  in
  (match kernel_run k p with
  | Os.Kernel.Stop_accept -> ()
  | other ->
    Alcotest.failf "server never accepted: %s" (Os.Kernel.stop_to_string other));
  (match Os.Kernel.connect k p with
  | Some _ -> ()
  | None -> Alcotest.fail "refused");
  (match kernel_run k p with
  | Os.Kernel.Stop_exit 0 -> ()
  | other -> Alcotest.failf "server died: %s" (Os.Kernel.stop_to_string other));
  Alcotest.(check string) "read returned EAGAIN" "-2" (Os.Process.stdout p)

let spawn_ready ?(scheme = Pssp.Scheme.Pssp) src =
  (* like spawn_server, but for architectures that park in epoll_wait
     (event loop) or waitpid (sharded parent) rather than accept *)
  let k = Os.Kernel.create () in
  let p =
    Os.Kernel.spawn k ~preload:(Mcc.Driver.preload_for scheme)
      (compile ~scheme src)
  in
  (match kernel_run k p with
  | Os.Kernel.Stop_accept | Os.Kernel.Stop_io -> ()
  | other ->
    Alcotest.failf "server never became ready: %s"
      (Os.Kernel.stop_to_string other));
  (k, p)

let test_event_server_keepalive () =
  let profile = Workload.Servers.event_loop Workload.Servers.nginx in
  let k, p = spawn_ready profile.Workload.Servers.source in
  let connect () =
    match Os.Kernel.connect k p with
    | Some c -> c
    | None -> Alcotest.fail "refused"
  in
  let a = connect () in
  let b = connect () in
  let request conn label =
    Alcotest.(check bool) "sent" true
      (Net.Conn.client_send conn ~now:(Os.Kernel.now k)
         (List.hd profile.Workload.Servers.requests));
    (match kernel_run k p with
    | Os.Kernel.Stop_io -> ()
    | other ->
      Alcotest.failf "server died: %s" (Os.Kernel.stop_to_string other));
    let resp = drain conn in
    Alcotest.(check bool) label true
      (String.length resp > 0 && String.contains resp '\n')
  in
  (* keep-alive requests interleaved across two connections, all served
     by the one process — no forks, no threads *)
  request a "a first";
  request b "b first";
  request a "a second";
  request b "b second";
  Alcotest.(check int) "single-process architecture" 0 (Os.Kernel.fork_count k);
  (* half-close ends the connection server-side without killing the loop *)
  Net.Conn.client_shutdown a ~now:(Os.Kernel.now k);
  (match kernel_run k p with
  | Os.Kernel.Stop_io -> ()
  | other -> Alcotest.failf "server died: %s" (Os.Kernel.stop_to_string other));
  Alcotest.(check bool) "closed conn released" true (Net.Conn.server_closed a);
  request b "b after a left";
  Alcotest.(check bool) "server still alive" true
    (match p.Os.Process.status with
    | Os.Process.Exited _ | Os.Process.Killed _ -> false
    | _ -> true)

let run_event_load () =
  Harness.Runner.run_load (Harness.Runner.Compiler Pssp.Scheme.Pssp)
    (Workload.Servers.event_loop Workload.Servers.nginx)
    ~mode:Net.Loadgen.Closed ~connections:8 ~keepalive:4 ~total:32
    ~slow_every:7 ~abort_every:19

let test_event_load_mix () =
  (* the event-loop server under a loadgen mix of slow byte-at-a-time
     senders and abrupt disconnects: the campaign completes, the server
     survives, and two identical runs are byte-identical *)
  let a = run_event_load () in
  let b = run_event_load () in
  Alcotest.(check bool) "identical reports" true (a = b);
  Alcotest.(check int) "all requests begun" 32 a.Harness.Runner.sent;
  Alcotest.(check bool) "requests completed" true
    (a.Harness.Runner.completed > 0);
  Alcotest.(check bool) "aborts happened" true (a.Harness.Runner.aborted > 0);
  Alcotest.(check int) "no forks: one process serves everyone" 0
    a.Harness.Runner.load_forks;
  Alcotest.(check bool) "server survives the campaign" true
    a.Harness.Runner.server_alive

(* ---- SO_REUSEPORT-style sharded listeners --------------------------------------- *)

let pid_shard_src ~shards =
  Printf.sprintf
    {|
int shard_serve() {
  char buf[8];
  int lfd;
  int fd;
  int r;
  lfd = socket();
  bind(lfd, 8080);
  listen(lfd, 8);
  while (1) {
    fd = accept();
    if (fd < 0) {
      break;
    }
    r = read(fd, buf, 8);
    while (r > 0) {
      r = read(fd, buf, 8);
    }
    write_int(fd, getpid());
    write_str(fd, "\n");
    close(fd);
  }
  return 0;
}

int main() {
  int i;
  int pid;
  i = 0;
  while (i < %d) {
    pid = fork();
    if (pid == 0) {
      shard_serve();
      exit(0);
    }
    i++;
  }
  while (1) {
    waitpid();
  }
  return 0;
}
|}
    shards

let test_sharded_round_robin () =
  (* four acceptor processes listen on the same port; the kernel
     round-robins connects across them, so 8 connects land 2 on each
     shard, cycling in a fixed order *)
  let k, p = spawn_ready ~scheme:Pssp.Scheme.None_ (pid_shard_src ~shards:4) in
  let conns =
    List.init 8 (fun i ->
        match Os.Kernel.connect k p with
        | Some c -> c
        | None -> Alcotest.failf "connect %d refused" i)
  in
  (* EOF-framed requests: each shard answers with its pid *)
  List.iter
    (fun c -> Net.Conn.client_shutdown c ~now:(Os.Kernel.now k))
    conns;
  (match kernel_run k p with
  | Os.Kernel.Stop_io -> ()
  | other -> Alcotest.failf "server died: %s" (Os.Kernel.stop_to_string other));
  let pids = List.map (fun c -> String.trim (drain c)) conns in
  (match pids with
  | [ a; b; c; d; a'; b'; c'; d' ] ->
    let shard_set = List.sort_uniq compare [ a; b; c; d ] in
    Alcotest.(check int) "four distinct shards took the first four" 4
      (List.length shard_set);
    Alcotest.(check (list string)) "second lap repeats the same cycle"
      [ a; b; c; d ] [ a'; b'; c'; d' ]
  | _ -> Alcotest.fail "expected 8 responses");
  Alcotest.(check int) "exactly the shard forks" 4 (Os.Kernel.fork_count k)

let run_sharded_load () =
  Harness.Runner.run_load (Harness.Runner.Compiler Pssp.Scheme.Pssp)
    (Workload.Servers.sharded Workload.Servers.nginx)
    ~mode:Net.Loadgen.Closed ~connections:8 ~keepalive:4 ~total:32
    ~slow_every:7 ~abort_every:19

let test_sharded_load_mix () =
  let a = run_sharded_load () in
  let b = run_sharded_load () in
  Alcotest.(check bool) "identical reports" true (a = b);
  Alcotest.(check bool) "requests completed" true
    (a.Harness.Runner.completed > 0);
  Alcotest.(check int) "only the shard forks" 4 a.Harness.Runner.load_forks;
  Alcotest.(check bool) "parent survives the campaign" true
    a.Harness.Runner.server_alive

(* ---- wakeup ordering ------------------------------------------------------------ *)

let wake_order_transcript () =
  (* three forked children parked in read; data arrives on their conns
     in the order 2, 0, 1. The wake queue is FIFO across events, so the
     whole interleaving — response bytes and virtual time — must replay
     exactly. *)
  let profile = Workload.Servers.mysql in
  let k, p = spawn_server profile.Workload.Servers.source in
  let conns =
    Array.init 3 (fun i ->
        let c =
          match Os.Kernel.connect k p with
          | Some c -> c
          | None -> Alcotest.failf "connect %d refused" i
        in
        (match kernel_run k p with
        | Os.Kernel.Stop_accept -> ()
        | other ->
          Alcotest.failf "server died: %s" (Os.Kernel.stop_to_string other));
        c)
  in
  List.iter
    (fun i ->
      ignore
        (Net.Conn.client_send conns.(i) ~now:(Os.Kernel.now k) "SELECT 77");
      Net.Conn.client_shutdown conns.(i) ~now:(Os.Kernel.now k))
    [ 2; 0; 1 ];
  (match kernel_run k p with
  | Os.Kernel.Stop_accept -> ()
  | other -> Alcotest.failf "server died: %s" (Os.Kernel.stop_to_string other));
  let responses = Array.map drain conns in
  Array.iter
    (fun r -> Alcotest.(check bool) "conn served" true (String.length r > 0))
    responses;
  String.concat "|" (Array.to_list responses)
  ^ Printf.sprintf "@%Ld" (Os.Kernel.now k)

let test_wake_order_deterministic () =
  Alcotest.(check string) "wakeups replay byte-identically"
    (wake_order_transcript ()) (wake_order_transcript ())

(* ---- load generator ------------------------------------------------------------- *)

let run_load_cell () =
  Harness.Runner.run_load (Harness.Runner.Compiler Pssp.Scheme.Pssp)
    Workload.Servers.nginx ~mode:Net.Loadgen.Closed ~connections:8 ~keepalive:4
    ~total:32 ~slow_every:7 ~abort_every:19

let test_load_deterministic () =
  let a = run_load_cell () in
  let b = run_load_cell () in
  Alcotest.(check bool) "identical reports" true (a = b);
  Alcotest.(check int) "all requests begun" 32 a.Harness.Runner.sent;
  Alcotest.(check bool) "requests completed" true (a.Harness.Runner.completed > 0);
  Alcotest.(check bool) "aborts happened" true (a.Harness.Runner.aborted > 0);
  Alcotest.(check int) "population saturates" 8 a.Harness.Runner.peak_open;
  Alcotest.(check bool) "keep-alive shares forks" true
    (a.Harness.Runner.load_forks < a.Harness.Runner.sent);
  Alcotest.(check bool) "server survives the campaign" true
    a.Harness.Runner.server_alive;
  (* the campaign leaves latency and byte-flow evidence in the registry *)
  Alcotest.(check bool) "net.* metrics populated" true
    (Telemetry.Registry.read_int "net.conn.opened" > 0
    && Telemetry.Registry.read_int "net.bytes.rx" > 0
    && Telemetry.Registry.read_int "net.loadgen.responses" > 0)

(* ---- the attack, carried over a connection -------------------------------------- *)

let net_oracle scheme =
  let image = compile ~scheme (Workload.Vuln.fork_server_net ~buffer_size:16) in
  Attack.Oracle.create ~preload:(Mcc.Driver.preload_for scheme) image

let layout scheme =
  {
    Attack.Payload.overflow_distance = 16;
    canary_len = 8 * Pssp.Scheme.stack_words scheme;
  }

let test_net_oracle_reply () =
  let o = net_oracle Pssp.Scheme.Ssp in
  match Attack.Oracle.query o (Bytes.of_string "hello") with
  | Attack.Oracle.Survived out -> Alcotest.(check string) "child replied" "OK\n" out
  | _ -> Alcotest.fail "benign request crashed"

let test_byte_by_byte_over_conn_breaks_ssp () =
  let o = net_oracle Pssp.Scheme.Ssp in
  match Attack.Byte_by_byte.run o ~layout:(layout Pssp.Scheme.Ssp) ~max_trials:4000 with
  | Attack.Byte_by_byte.Broken { trials; _ } ->
    Alcotest.(check bool) "found within budget" true (trials <= 4000);
    Alcotest.(check bool) "server still up" true (Attack.Oracle.server_alive o)
  | other ->
    Alcotest.failf "SSP resisted over conn: %s"
      (Attack.Byte_by_byte.outcome_to_string other)

let test_byte_by_byte_over_conn_fails_pssp () =
  let o = net_oracle Pssp.Scheme.Pssp in
  match Attack.Byte_by_byte.run o ~layout:(layout Pssp.Scheme.Pssp) ~max_trials:3000 with
  | Attack.Byte_by_byte.Exhausted _ -> ()
  | other ->
    Alcotest.failf "P-SSP broken over conn: %s"
      (Attack.Byte_by_byte.outcome_to_string other)

(* ---- page frames on the fork victim ---------------------------------------------- *)

(* One attack trial against the parked P-SSP net fork server: connect,
   send a wrong first canary byte (16 filler bytes, then the guess),
   FIN, run the kernel, reap the child. *)
let pssp_trial k p =
  match Os.Kernel.connect k p with
  | None -> Alcotest.fail "connect refused"
  | Some c -> (
    ignore (Net.Conn.client_send c ~now:(Os.Kernel.now k) (String.make 17 'A'));
    Net.Conn.client_shutdown c ~now:(Os.Kernel.now k);
    Os.Kernel.schedule k;
    match Os.Kernel.stop_of p with
    | Os.Kernel.Stop_accept -> Os.Kernel.reap_zombies k p
    | other -> Alcotest.failf "server died: %s" (Os.Kernel.stop_to_string other))

let fork_victim () =
  let k, p = spawn_server (Workload.Vuln.fork_server_net ~buffer_size:16) in
  for _ = 1 to 20 do pssp_trial k p done;
  (k, p)

let test_victim_two_copies_per_trial () =
  (* steady state: the fork pre-copies the parent's hot stack page and
     the child breaks sharing on its TLS page, nothing else *)
  let k, p = fork_victim () in
  let cow () = (Vm64.Memory.family_stats p.Os.Process.mem).Vm64.Memory.cow_breaks in
  let misses () = (Vm64.Tcache.exec_stats p.Os.Process.cpu.Vm64.Cpu.tcache).Vm64.Tcache.misses in
  let cow0 = cow () and misses0 = misses () in
  for _ = 1 to 100 do pssp_trial k p done;
  Alcotest.(check int) "no tcache misses" 0 (misses () - misses0);
  Alcotest.(check int) "two counted copies a trial" 200 (cow () - cow0)

let test_last_reaped_readable_until_next_reap () =
  let k, p = fork_victim () in
  let fs_base = p.Os.Process.cpu.Vm64.Cpu.fs_base in
  let c1 = Option.get (Os.Kernel.last_reaped k) in
  Alcotest.(check int64) "last reaped child's TLS canary readable"
    (Pssp.Tls.canary p.Os.Process.mem ~fs_base)
    (Pssp.Tls.canary c1.Os.Process.mem ~fs_base);
  pssp_trial k p;
  let c2 = Option.get (Os.Kernel.last_reaped k) in
  Alcotest.(check bool) "a new child was reaped" true (c2 != c1);
  Alcotest.(check int) "released child keeps no written page" 0
    (Vm64.Memory.resident_bytes c1.Os.Process.mem);
  (match Pssp.Tls.canary c1.Os.Process.mem ~fs_base with
  | exception Vm64.Fault.Trap (Vm64.Fault.Segfault _) -> ()
  | _ -> Alcotest.fail "released child's TLS page must fault");
  Alcotest.(check int64) "the new last reaped child stays readable"
    (Pssp.Tls.canary p.Os.Process.mem ~fs_base)
    (Pssp.Tls.canary c2.Os.Process.mem ~fs_base)

let test_victim_major_heap_quiet () =
  (* recycled frames: a steady-state trial allocates almost nothing in
     the major heap (a fresh 4 KiB frame for each of three copies adds
     about 1,500 words a trial) *)
  let k, p = fork_victim () in
  let w0 = (Gc.quick_stat ()).Gc.major_words in
  for _ = 1 to 1000 do pssp_trial k p done;
  let per_trial = ((Gc.quick_stat ()).Gc.major_words -. w0) /. 1000. in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f major-heap words a trial, under 100" per_trial)
    true (per_trial < 100.)

(* A shadow-compact victim thawed from a zygote snapshot: there is no
   canary to guess, so every trial is a failed hijack and a restart. *)
let zygote_victim () =
  let scheme = Pssp.Scheme.Shadow_compact in
  let image = compile ~scheme (Workload.Vuln.fork_server_net ~buffer_size:16) in
  let o =
    Attack.Oracle.create ~preload:(Mcc.Driver.preload_for scheme)
      ~respawn:Attack.Oracle.Zygote image
  in
  let layout = Harness.Layouts.compiler_layout scheme ~buffer_size:16 in
  let payload = Attack.Payload.hijack layout ~canary:Bytes.empty in
  let trial () =
    (match Attack.Oracle.query o payload with
    | Attack.Oracle.Server_down detail -> Alcotest.failf "server down: %s" detail
    | Attack.Oracle.Survived _ | Attack.Oracle.Crashed _ -> ());
    ignore (Attack.Oracle.restart_victim o)
  in
  for _ = 1 to 200 do trial () done;
  (o, trial)

let test_zygote_restart_major_heap_quiet () =
  (* a resumed server's first fork pre-copies the stack page it broke
     and keeps it, so the restart's shutdown recycles that frame; a
     frame orphaned at each restart adds about 500 words a trial *)
  let o, trial = zygote_victim () in
  let respawns0 = Attack.Oracle.respawns o in
  let w0 = (Gc.quick_stat ()).Gc.major_words in
  for _ = 1 to 1000 do trial () done;
  let per_trial = ((Gc.quick_stat ()).Gc.major_words -. w0) /. 1000. in
  Alcotest.(check int) "a restart per trial" 1000 (Attack.Oracle.respawns o - respawns0);
  Alcotest.(check bool)
    (Printf.sprintf "%.1f major-heap words a trial, under 100" per_trial)
    true (per_trial < 100.)

(* ---- accept without a listener --------------------------------------------------- *)

let test_accept_without_listener () =
  (* accept() serves a listening socket; with none (no socket, or one
     never listen()ed) it fails at once instead of parking *)
  let image =
    compile ~scheme:Pssp.Scheme.None_
      {|
int main() {
  int lfd;
  print_int(accept());
  lfd = socket();
  bind(lfd, 8080);
  print_int(accept());
  return 0;
}
|}
  in
  let k = Os.Kernel.create () in
  let p = Os.Kernel.spawn k image in
  Alcotest.(check string) "ran to exit" "exited 0"
    (Os.Kernel.stop_to_string (kernel_run k p));
  Alcotest.(check string) "both accepts -1" "-1-1" (Os.Process.stdout p)

(* ---- a parked write ------------------------------------------------------------- *)

(* Two 100-byte writes to a client whose connection buffers 16 bytes. *)
let write_server_src ~nonblock =
  Printf.sprintf
    {|
int main() {
  char buf[100];
  int lfd;
  int fd;
  lfd = socket();
  bind(lfd, 8080);
  listen(lfd, 8);
  fd = accept();
  %s
  print_int(write(fd, buf, 100));
  print_str(" ");
  print_int(write(fd, buf, 100));
  exit(0);
  return 0;
}
|}
    (if nonblock then "set_nonblock(fd);" else "")

(* Connect to the write server with a 16-byte TX buffer and run it to
   its first stop after the accept. *)
let start_write_server ?timeout ~nonblock () =
  let k = Os.Kernel.create () in
  Os.Kernel.set_conn_timeout k timeout;
  let p =
    Os.Kernel.spawn k
      (compile ~scheme:Pssp.Scheme.None_ (write_server_src ~nonblock))
  in
  (match kernel_run k p with
  | Os.Kernel.Stop_accept -> ()
  | other ->
    Alcotest.failf "server never accepted: %s" (Os.Kernel.stop_to_string other));
  let conn =
    match Os.Kernel.connect ~tx_capacity:16 k p with
    | Some c -> c
    | None -> Alcotest.fail "refused"
  in
  Os.Kernel.schedule k;
  (k, p, conn)

let check_parked_in_write p =
  Alcotest.(check string) "stop" "blocked on io"
    (Os.Kernel.stop_to_string (Os.Kernel.stop_of p));
  Alcotest.(check string) "status" "blocked (write fd 4)"
    (Os.Process.status_to_string p.Os.Process.status)

let test_parked_write_resumes () =
  (* each wakeup continues the write from the byte it stopped at *)
  let k, p, conn = start_write_server ~nonblock:false () in
  let received = Buffer.create 200 in
  let rounds = ref 0 in
  while Os.Kernel.stop_of p = Os.Kernel.Stop_io && !rounds < 40 do
    check_parked_in_write p;
    Buffer.add_string received (drain conn);
    Os.Kernel.schedule k;
    incr rounds
  done;
  Buffer.add_string received (drain conn);
  Alcotest.(check string) "exit" "exited 0"
    (Os.Kernel.stop_to_string (Os.Kernel.stop_of p));
  Alcotest.(check string) "both writes whole" "100 100" (Os.Process.stdout p);
  Alcotest.(check int) "each byte once" 200 (Buffer.length received)

let test_parked_write_reset () =
  (* a reset after 32 bytes landed: the parked write reports them, the
     next write fails *)
  let k, p, conn = start_write_server ~nonblock:false () in
  check_parked_in_write p;
  ignore (drain conn);
  Os.Kernel.schedule k;
  check_parked_in_write p;
  ignore (drain conn);
  Net.Conn.abort conn ~now:(Os.Kernel.now k);
  Os.Kernel.schedule k;
  Alcotest.(check string) "partial count, then -1" "32 -1" (Os.Process.stdout p)

let test_nonblock_short_write () =
  (* a non-blocking write returns what fit; with nothing fitting, EAGAIN *)
  let _, p, _ = start_write_server ~nonblock:true () in
  Alcotest.(check string) "exit" "exited 0"
    (Os.Kernel.stop_to_string (Os.Kernel.stop_of p));
  Alcotest.(check string) "short write, then EAGAIN" "16 -2"
    (Os.Process.stdout p)

let test_parked_write_times_out () =
  (* the timeout resets the conn under a parked write that already moved
     32 bytes: it reports them, the next write fails *)
  let k, p, conn = start_write_server ~timeout:1000L ~nonblock:false () in
  check_parked_in_write p;
  ignore (drain conn);
  Os.Kernel.schedule k;
  check_parked_in_write p;
  let deadline = Int64.add (Net.Conn.last_activity conn) 1000L in
  Alcotest.(check (option int64)) "deadline" (Some deadline)
    (Os.Kernel.next_deadline k);
  Os.Kernel.advance_to k deadline;
  Os.Kernel.schedule k;
  Alcotest.(check bool) "conn timed out" true (Net.Conn.is_reset conn);
  Alcotest.(check string) "partial count, then -1" "32 -1" (Os.Process.stdout p)

(* ---- a blocking call that faults ------------------------------------------------ *)

(* The call writes through p = 16, an unmapped address, after accepting
   one connection. *)
let fault_server_src call =
  Printf.sprintf
    {|
int main() {
  char *p;
  int lfd;
  int fd;
  p = 16;
  lfd = socket();
  bind(lfd, 8080);
  listen(lfd, 8);
  fd = accept();
  %s;
  exit(0);
  return 0;
}
|}
    call

let connect_to k p =
  match Os.Kernel.connect k p with
  | Some c -> c
  | None -> Alcotest.fail "refused"

(* Run the fault server with one client connected. [event] makes the
   call ready: [`First] fires it before the server runs, so the first
   try faults; [`Retry] fires it once the server has parked in the
   call, so the retry after the wakeup faults. *)
let check_fault_segv ~call ~event attempt =
  let k = Os.Kernel.create () in
  let p =
    Os.Kernel.spawn k (compile ~scheme:Pssp.Scheme.None_ (fault_server_src call))
  in
  (match kernel_run k p with
  | Os.Kernel.Stop_accept -> ()
  | other ->
    Alcotest.failf "server never accepted: %s" (Os.Kernel.stop_to_string other));
  let conn = connect_to k p in
  if attempt = `First then event k p conn;
  Os.Kernel.schedule k;
  if attempt = `Retry then begin
    Alcotest.(check string) "parked first" "blocked on io"
      (Os.Kernel.stop_to_string (Os.Kernel.stop_of p));
    event k p conn;
    Os.Kernel.schedule k
  end;
  match Os.Kernel.stop_of p with
  | Os.Kernel.Stop_kill (Os.Process.Sigsegv, _) -> ()
  | other -> Alcotest.failf "expected SIGSEGV: %s" (Os.Kernel.stop_to_string other)

let test_read_fault () =
  let send k _ conn =
    ignore (Net.Conn.client_send conn ~now:(Os.Kernel.now k) "abcdefgh")
  in
  check_fault_segv ~call:"read(fd, p, 8)" ~event:send `First;
  check_fault_segv ~call:"read(fd, p, 8)" ~event:send `Retry

let test_epoll_fault () =
  (* a second connection queued on the listener makes it ready *)
  let connect_another k p _ = ignore (connect_to k p) in
  check_fault_segv ~call:"epoll_wait(p, 4)" ~event:connect_another `First;
  check_fault_segv ~call:"epoll_wait(p, 4)" ~event:connect_another `Retry

(* ---- typed resume error --------------------------------------------------------- *)

let test_not_blocked_in_accept () =
  (* a process that ran to exit is not parked in accept: resuming it
     with a request is a driver bug, reported as a typed error *)
  let scheme = Pssp.Scheme.None_ in
  let image = compile ~scheme "int main() { return 0; }" in
  let k = Os.Kernel.create () in
  let p = Os.Kernel.spawn k ~preload:Os.Preload.No_preload image in
  ignore (Os.Kernel.run_to_exit k p);
  match Os.Kernel.deliver_request k p (Bytes.of_string "x") with
  | _ -> Alcotest.fail "delivery to an exited process must raise"
  | exception Os.Kernel.Not_blocked_in_accept { pid; status } ->
    Alcotest.(check int) "pid" p.Os.Process.pid pid;
    Alcotest.(check bool) "status carried" true (status = Os.Process.Exited 0)

let () =
  Alcotest.run "net"
    [
      ( "conn",
        [
          Alcotest.test_case "EOF exactly once on half-close" `Quick test_eof_exactly_once;
          Alcotest.test_case "tx backpressure" `Quick test_tx_backpressure;
          Alcotest.test_case "RST discards buffered bytes both ways" `Quick
            test_rst_discards_buffered_bytes;
        ] );
      ( "kernel",
        [
          Alcotest.test_case "backlog overflow refuses" `Slow test_backlog_overflow_refuses;
          Alcotest.test_case "keep-alive across forked child" `Slow test_keepalive_across_child;
          Alcotest.test_case "slow sender times out" `Slow test_slow_sender_times_out;
          Alcotest.test_case "typed resume error" `Quick test_not_blocked_in_accept;
          Alcotest.test_case "accept without a listener fails" `Quick
            test_accept_without_listener;
          Alcotest.test_case "parked write resumes at its progress" `Quick
            test_parked_write_resumes;
          Alcotest.test_case "parked write reset reports its progress" `Quick
            test_parked_write_reset;
          Alcotest.test_case "non-blocking write is short, then EAGAIN" `Quick
            test_nonblock_short_write;
          Alcotest.test_case "parked write timeout reports its progress" `Quick
            test_parked_write_times_out;
          Alcotest.test_case "read fault on first try and on retry" `Quick
            test_read_fault;
          Alcotest.test_case "epoll fault on first try and on retry" `Quick
            test_epoll_fault;
        ] );
      ( "event tier",
        [
          Alcotest.test_case "non-blocking empty read is EAGAIN" `Quick
            test_nonblock_read_eagain;
          Alcotest.test_case "event-loop server keep-alive" `Slow
            test_event_server_keepalive;
          Alcotest.test_case "event-loop server under load mix" `Slow
            test_event_load_mix;
          Alcotest.test_case "sharded listeners round-robin" `Slow
            test_sharded_round_robin;
          Alcotest.test_case "sharded server under load mix" `Slow
            test_sharded_load_mix;
          Alcotest.test_case "wakeup ordering deterministic" `Slow
            test_wake_order_deterministic;
        ] );
      ( "loadgen",
        [ Alcotest.test_case "deterministic campaign" `Slow test_load_deterministic ] );
      ( "attack over conn",
        [
          Alcotest.test_case "oracle relays the child's reply" `Slow test_net_oracle_reply;
          Alcotest.test_case "byte-by-byte breaks SSP" `Slow
            test_byte_by_byte_over_conn_breaks_ssp;
          Alcotest.test_case "byte-by-byte fails on P-SSP" `Slow
            test_byte_by_byte_over_conn_fails_pssp;
        ] );
      ( "frames",
        [
          Alcotest.test_case "fork victim copies two frames a trial" `Quick
            test_victim_two_copies_per_trial;
          Alcotest.test_case "last reaped readable until the next reap" `Quick
            test_last_reaped_readable_until_next_reap;
          Alcotest.test_case "fork victim major heap quiet" `Quick
            test_victim_major_heap_quiet;
          Alcotest.test_case "zygote restart major heap quiet" `Quick
            test_zygote_restart_major_heap_quiet;
        ] );
    ]
