open Vm64

(* A round-robin ready-queue scheduler with event-driven blocking.
   Processes run in bounded slices. A kernel service that may block
   (accept, conn read/write, epoll_wait, blocking waitpid) is a
   [Glibc.call], and one [attempt] runs it, both on its first issue and
   on every retry after a wakeup. A call that cannot complete parks the
   process in [Blocked call], registering a one-shot waiter on the exact
   object it waits for — conn RX/TX, a socket's accept queue, or
   (implicitly) a child's death — and the event that may let it
   complete pushes its pid onto a wake queue. Waiters fire in pid order
   within one event and FIFO across events, so scheduling stays
   deterministic for a deterministic workload. Virtual time ([now]) is
   the cycles retired across all processes — one simulated core — and
   drives connection timeouts and the load generator's clocks. *)

(* Listeners sharing a port, SO_REUSEPORT-style: [listen] registers the
   socket here and the kernel round-robins incoming connects across the
   live listeners, in registration order. *)
type port_entry = { mutable socks : Net.Socket.t list; mutable rr : int }

type t = {
  procs : (int, Process.t) Hashtbl.t;
  env : Exec.env;
  master_rng : Util.Prng.t;
  mutable next_pid : int;
  mutable last_reaped : Process.t option;
  mutable forks : int;  (* fork_child calls served by this kernel *)
  ready : int Queue.t;
  wake : int Queue.t;
      (* pids whose blocked condition may now hold (an event fired);
         drained before each dispatch, FIFO *)
  blocked_io : (int, unit) Hashtbl.t;
      (* pids parked in a conn read or write — the only calls
         connection timeouts apply to *)
  mutable next_timeout_check : int64 option;
      (* earliest deadline at which some blocked conn op could time
         out; the sweep runs only when [now] passes this *)
  ports : (int, port_entry) Hashtbl.t;
  mutable now : int64;  (* virtual cycles retired across all processes *)
  mutable conn_timeout : int64 option;
  mutable next_conn_id : int;
}

exception
  Not_blocked_in_accept of { pid : int; status : Process.status }

let () =
  Printexc.register_printer (function
    | Not_blocked_in_accept { pid; status } ->
      Some
        (Printf.sprintf
           "Kernel.Not_blocked_in_accept { pid = %d; status = %s }" pid
           (Process.status_to_string status))
    | _ -> None)

(* Process-wide lifecycle telemetry across all kernels (domain-safe),
   published to the metrics registry: forks feed the bench driver's
   MEM_STATS line alongside the Memory/Tcache metrics; crash/exit
   counters give campaigns a single pane of glass over guest process
   churn. *)
let metric_forks = "os.kernel.forks"

let g_forks = Telemetry.Registry.counter metric_forks
let g_crashes = Telemetry.Registry.counter "os.kernel.crashes"
let g_exits = Telemetry.Registry.counter "os.kernel.exits"

(* Readiness events delivered to parked processes — the direct-wakeup
   path that replaced the every-dispatch scan over all blocked procs. *)
let g_wakeups = Telemetry.Registry.counter "os.kernel.wakeups"

(* A readiness event fired for this blocked process: queue it for a
   retry of its parked call. The [wake_pending] flag dedups — one
   queue slot per process no matter how many events fire. *)
let mark_ready t (p : Process.t) =
  match p.Process.status with
  | Process.Blocked _ when not p.Process.wake_pending ->
    p.Process.wake_pending <- true;
    Telemetry.Registry.incr g_wakeups;
    Queue.push p.Process.pid t.wake
  | _ -> ()

(* A dying child is the event a parent parked in waitpid sleeps on. *)
let mark_parent_of_dead t (p : Process.t) =
  match p.Process.parent with
  | None -> ()
  | Some ppid -> (
    match Hashtbl.find_opt t.procs ppid with
    | Some ({ Process.status = Process.Blocked Glibc.Wait_child; _ } as parent)
      ->
      mark_ready t parent
    | _ -> ())

(* Every transition to a dead status funnels through these two, so the
   registry counts match the statuses processes end up with. Death also
   tears down the fd table: exits half-close connections (buffered
   responses still drain to the client), crashes reset them — the RST
   the remote attacker's probe connection observes. *)
let note_exited t (p : Process.t) code =
  Telemetry.Registry.incr g_exits;
  p.Process.status <- Process.Exited code;
  Glibc.close_all p.Process.io ~now:t.now ~graceful:true;
  mark_parent_of_dead t p

let note_killed t (p : Process.t) signal msg =
  Telemetry.Registry.incr g_crashes;
  p.Process.status <- Process.Killed (signal, msg);
  Glibc.close_all p.Process.io ~now:t.now ~graceful:false;
  mark_parent_of_dead t p;
  if Telemetry.Trace.enabled () then
    Telemetry.Trace.instant "kernel.crash"
      ~args:
        [
          ("pid", string_of_int p.Process.pid);
          ("signal", Process.signal_name signal);
          ("msg", msg);
        ]
      ~cycles:(Cpu.cycles p.Process.cpu)

let note_fault t p fault =
  note_killed t p (Process.signal_of_fault fault) (Fault.to_string fault)

(* Above the builtin slot table (41 slots x 64 B); the glibc region is
   mapped 8 KiB so both stubs fit comfortably. *)
let exit_stub_addr = Int64.add Layout.glibc_base 0x1800L
let ctor_trampoline_addr = Int64.add Layout.glibc_base 0x1900L

let create ?(seed = 0xC0FFEEL) ?on_retire () =
  let is_builtin addr = Glibc.name_of_addr addr in
  (* Builtin inlining: the pure glibc cores (mem*/str*, AES) are
     exactly what [handle_builtin] would run for those names — Preload's
     per-process remapping only touches __stack_chk_fail, which
     [inline_core] excludes — so direct calls to them may execute in
     line inside compiled code. *)
  {
    procs = Hashtbl.create 16;
    env =
      Exec.create_env ?on_retire ~inline_builtin:Glibc.inline_core ~is_builtin ();
    master_rng = Util.Prng.create seed;
    next_pid = 1;
    last_reaped = None;
    forks = 0;
    ready = Queue.create ();
    wake = Queue.create ();
    blocked_io = Hashtbl.create 16;
    next_timeout_check = None;
    ports = Hashtbl.create 4;
    now = 0L;
    conn_timeout = None;
    next_conn_id = 1;
  }

let find t pid = Hashtbl.find_opt t.procs pid

let fresh_pid t =
  let pid = t.next_pid in
  t.next_pid <- pid + 1;
  pid

let enqueue t (p : Process.t) =
  if (not p.Process.queued) && not (Process.status_is_dead p.Process.status)
  then begin
    p.Process.queued <- true;
    Queue.push p.Process.pid t.ready
  end

(* Every process — spawned, forked or resumed from a snapshot — starts
   runnable, with a fresh pid, in the process table. *)
let new_process t ~parent ~image ~mem ~cpu ~io ~preload =
  let p =
    {
      Process.pid = fresh_pid t;
      parent;
      image;
      mem;
      cpu;
      io;
      preload;
      status = Process.Runnable;
      pending_children = Queue.create ();
      queued = false;
      wake_pending = false;
    }
  in
  Hashtbl.add t.procs p.Process.pid p;
  p

(* The trampoline main returns to: pass its return value to exit(). *)
let exit_stub_code =
  Isa.Encode.list_to_bytes
    [
      Isa.Insn.Mov (Isa.Operand.reg Isa.Reg.RDI, Isa.Operand.reg Isa.Reg.RAX);
      Isa.Insn.Call (Isa.Insn.Abs (Glibc.addr_of "exit"));
      Isa.Insn.Hlt;
    ]

let spawn t ?(input = Bytes.create 0) ?(preload = Preload.No_preload)
    ?(insn_tax = 0) ?(call_tax = 0) (image : Image.t) =
  let mem = Memory.create () in
  (* glibc region: slots are never fetched, but the exit stub is real code. *)
  Memory.map mem ~addr:Layout.glibc_base ~len:8192;
  Memory.write_bytes mem exit_stub_addr exit_stub_code;
  (* text / extra / data *)
  Memory.map mem ~addr:image.Image.text_base ~len:(max 1 (Bytes.length image.Image.text));
  Memory.write_bytes mem image.Image.text_base image.Image.text;
  if Bytes.length image.Image.extra > 0 then begin
    Memory.map mem ~addr:image.Image.extra_base ~len:(Bytes.length image.Image.extra);
    Memory.write_bytes mem image.Image.extra_base image.Image.extra
  end;
  (* W^X: code is read-only and executable, everything else is data.
     The extra section may share text's last page, so both are written
     before either is sealed. *)
  Memory.seal mem ~addr:image.Image.text_base ~len:(max 1 (Bytes.length image.Image.text));
  if Bytes.length image.Image.extra > 0 then
    Memory.seal mem ~addr:image.Image.extra_base ~len:(Bytes.length image.Image.extra);
  Memory.map mem ~addr:image.Image.data_base ~len:(max 4096 (Bytes.length image.Image.data));
  if Bytes.length image.Image.data > 0 then
    Memory.write_bytes mem image.Image.data_base image.Image.data;
  Memory.map mem ~addr:Layout.dynaguard_buffer_base ~len:Layout.dynaguard_buffer_size;
  Memory.map mem ~addr:Layout.global_canary_buffer_base
    ~len:Layout.global_canary_buffer_size;
  Memory.map mem ~addr:Layout.heap_base ~len:Layout.heap_size;
  (* stack (the guard below it stays unmapped) *)
  Memory.map mem
    ~addr:(Int64.sub Layout.stack_top (Int64.of_int Layout.stack_size))
    ~len:Layout.stack_size;
  (* TLS *)
  Memory.map mem ~addr:Layout.tls_base ~len:Layout.tls_size;
  let cpu = Cpu.create ~seed:(Util.Prng.next64 t.master_rng) () in
  cpu.Cpu.fs_base <- Layout.tls_base;
  cpu.Cpu.insn_tax <- insn_tax;
  cpu.Cpu.call_tax <- call_tax;
  Telemetry.Trace.with_span "kernel.spawn.preload"
    ~args:[ ("image", image.Image.name) ]
    ~cycles:(fun () -> Cpu.cycles cpu)
    (fun () ->
      ignore
        (Pssp.Tls.install_fresh_canary t.master_rng mem ~fs_base:Layout.tls_base);
      Preload.on_start preload cpu.Cpu.rng mem ~fs_base:Layout.tls_base);
  (* P-SSP-OWF keeps its AES key in the callee-saved r12/r13 pair, set up
     once at program start (§V-E3). *)
  if
    String.equal image.Image.scheme_tag "pssp-owf"
    || String.equal image.Image.scheme_tag "pssp-owf-weak"
  then begin
    Cpu.set cpu Isa.Reg.R12 (Util.Prng.next64 t.master_rng);
    Cpu.set cpu Isa.Reg.R13 (Util.Prng.next64 t.master_rng)
  end;
  (* Scheme-family setup, keyed on the image's scheme tag so processes
     under other schemes keep their exact memory footprint and PRNG
     stream. The regions are ordinary mappings: CoW fork and zygote
     snapshots clone them with the rest of the address space. *)
  if String.equal image.Image.scheme_tag "shadow-compact" then begin
    (* the compact shadow stack, plus its pointer in TLS *)
    Memory.map mem ~addr:Layout.shadow_stack_base ~len:Layout.shadow_stack_size;
    Memory.write_u64 mem
      (Int64.add Layout.tls_base Layout.tls_shadow_sp_offset)
      Layout.shadow_stack_base
  end;
  if String.equal image.Image.scheme_tag "shadow-parallel" then
    (* the mirror of the stack's return-address slots, at a fixed delta *)
    Memory.map mem
      ~addr:
        (Int64.sub
           (Int64.sub Layout.stack_top (Int64.of_int Layout.stack_size))
           Layout.shadow_parallel_delta)
      ~len:Layout.stack_size;
  if String.equal image.Image.scheme_tag "pac-canary" then
    cpu.Cpu.pac_key <- Util.Prng.next64 t.master_rng;
  if String.equal image.Image.scheme_tag "wasm-ssp" then
    (* linear-memory semantics: a write running off the top of the stack
       lands in this spill region instead of trapping, so an overflow is
       only caught when the epilogue canary check runs *)
    Memory.map mem ~addr:Layout.stack_top ~len:Layout.wasm_spill_size;
  (* initial stack: rsp -> return address = exit trampoline *)
  let rsp = Int64.sub Layout.stack_top 64L in
  Cpu.set cpu Isa.Reg.RSP (Int64.sub rsp 8L);
  Memory.write_u64 mem (Int64.sub rsp 8L) exit_stub_addr;
  (* Rewriter-added constructors (setup_p-ssp, §V-A) run before main via
     a small trampoline. *)
  (match Image.find_symbol image "__pssp_ctor" with
  | Some ctor ->
    Memory.write_bytes mem ctor_trampoline_addr
      (Isa.Encode.list_to_bytes
         [
           Isa.Insn.Call (Isa.Insn.Abs ctor.Image.sym_addr);
           Isa.Insn.Jmp (Isa.Insn.Abs image.Image.entry);
         ]);
    Cpu.set_rip cpu ctor_trampoline_addr
  | None -> Cpu.set_rip cpu image.Image.entry);
  Memory.seal mem ~addr:Layout.glibc_base ~len:8192;
  new_process t ~parent:None ~image ~mem ~cpu ~io:(Glibc.make_io ~input)
    ~preload

type stop =
  | Stop_exit of int
  | Stop_kill of Process.signal * string
  | Stop_accept
  | Stop_io
  | Stop_fuel

let stop_to_string = function
  | Stop_exit n -> Printf.sprintf "exited %d" n
  | Stop_kill (s, msg) -> Printf.sprintf "killed %s: %s" (Process.signal_name s) msg
  | Stop_accept -> "blocked on accept"
  | Stop_io -> "blocked on io"
  | Stop_fuel -> "out of fuel"

let fork_child t (parent : Process.t) =
  t.forks <- t.forks + 1;
  Telemetry.Registry.incr g_forks;
  let cpu = Cpu.clone parent.Process.cpu in
  let mem = Memory.clone parent.Process.mem in
  (* fork() returns 0 in the child, the child's pid in the parent *)
  Cpu.set cpu Isa.Reg.RAX 0L;
  Preload.on_fork_child parent.Process.preload cpu.Cpu.rng mem
    ~fs_base:cpu.Cpu.fs_base;
  let child =
    new_process t ~parent:(Some parent.Process.pid)
      ~image:parent.Process.image ~mem ~cpu
      ~io:(Glibc.clone_io parent.Process.io) ~preload:parent.Process.preload
  in
  let child_pid = child.Process.pid in
  if Telemetry.Trace.enabled () then
    Telemetry.Trace.instant "kernel.fork"
      ~args:
        [
          ("parent", string_of_int parent.Process.pid);
          ("child", string_of_int child_pid);
        ]
      ~cycles:(Cpu.cycles parent.Process.cpu);
  Cpu.set parent.Process.cpu Isa.Reg.RAX (Int64.of_int child_pid);
  (* O(1) append (oldest child stays at the head) — a list-append here
     goes quadratic for a fork-per-connection server reaping lazily *)
  Queue.push child_pid parent.Process.pending_children;
  enqueue t child;
  child

let spawn_thread t (parent : Process.t) ~start ~arg =
  (* Modelled as a cloned address space with its own stack pointer and a
     fresh TLS-shadow refresh — see DESIGN.md for why this preserves the
     behaviour the evaluation depends on. *)
  let child = fork_child t parent in
  let cpu = child.Process.cpu in
  let rsp = Int64.sub Layout.stack_top 64L in
  Cpu.set cpu Isa.Reg.RSP (Int64.sub rsp 8L);
  Memory.write_u64 child.Process.mem (Int64.sub rsp 8L) exit_stub_addr;
  Cpu.set cpu Isa.Reg.RDI arg;
  Cpu.set_rip cpu start;
  Preload.on_thread_start parent.Process.preload cpu.Cpu.rng child.Process.mem
    ~fs_base:cpu.Cpu.fs_base;
  (* Statically instrumented binaries have no preload; the rewritten
     pthread_create's new-thread TLS refresh is applied here (the stub's
     own refresh covers the creating thread). *)
  if String.equal parent.Process.image.Image.scheme_tag "pssp-instr-static" then
    Preload.on_thread_start Preload.Pssp_packed cpu.Cpu.rng child.Process.mem
      ~fs_base:cpu.Cpu.fs_base;
  child

(* waitpid status word: low byte = exit code for a clean exit; for a
   signal death, bit 8 set with the signal number in the low bits (so
   SIGABRT encodes as 262, SIGSEGV as 267) — callers can distinguish a
   canary abort from a wild-pointer segfault, not just "crashed". *)
let encode_wait_status (p : Process.t) =
  match p.Process.status with
  | Process.Exited n -> Int64.of_int (n land 0xFF)
  | Process.Killed (s, _) -> Int64.of_int (256 lor Process.signal_number s)
  | _ -> 512L

(* ---- connection-level services ---------------------------------------- *)

let fresh_conn ?tx_capacity t =
  let id = t.next_conn_id in
  t.next_conn_id <- id + 1;
  Net.Conn.create ?tx_capacity ~id ~now:t.now ()

let set_conn_timeout t timeout = t.conn_timeout <- timeout
let now t = t.now

let advance_to t target =
  if Int64.compare target t.now > 0 then t.now <- target

(* [listen] lands here: remember every listener on the port, in
   registration order, so connects can round-robin across them. *)
let register_port t sock =
  let port = Net.Socket.port sock in
  let entry =
    match Hashtbl.find_opt t.ports port with
    | Some e -> e
    | None ->
      let e = { socks = []; rr = 0 } in
      Hashtbl.replace t.ports port e;
      e
  in
  if not (List.exists (fun s -> s == sock) entry.socks) then
    entry.socks <- entry.socks @ [ sock ]

(* Round-robin across the port's live listeners, skipping full
   backlogs; [None] when nothing on the port can take the conn. *)
let pick_listener t port =
  match Hashtbl.find_opt t.ports port with
  | None -> None
  | Some entry ->
    let live = List.filter Net.Socket.listening entry.socks in
    entry.socks <- live;
    let n = List.length live in
    let rec probe i =
      if i >= n then None
      else
        let s = List.nth live ((entry.rr + i) mod n) in
        if Net.Socket.can_push s then begin
          entry.rr <- (entry.rr + i + 1) mod n;
          Some s
        end
        else probe (i + 1)
    in
    if n = 0 then None else probe 0

let connect ?tx_capacity t (p : Process.t) =
  let sock =
    match Glibc.listener_of p.Process.io with
    | Some sock -> if Net.Socket.can_push sock then Some sock else None
    | None ->
      (* the target process owns no listener itself (SO_REUSEPORT
         sharding: its forked children each listen on the port) — pick
         one from the port table, lowest port first *)
      let rec first = function
        | [] -> None
        | port :: rest -> (
          match pick_listener t port with
          | Some s -> Some s
          | None -> first rest)
      in
      first
        (List.sort compare
           (Hashtbl.fold (fun port _ acc -> port :: acc) t.ports []))
  in
  match sock with
  | Some sock ->
    let conn = fresh_conn ?tx_capacity t in
    Net.Socket.push sock conn;
    Some conn
  | None ->
    Net.Socket.note_refused ();
    None

(* A blocked conn operation that outlived the timeout is torn down: the
   conn resets and the blocked call completes with -1 (a write that
   moved bytes reports them). *)
let timed_out t conn =
  match t.conn_timeout with
  | Some tmo when Int64.compare (Net.Conn.idle_cycles conn ~now:t.now) tmo >= 0
    ->
    Net.Conn.timeout conn ~now:t.now;
    true
  | _ -> false

(* accept() takes no fd: it serves the process's listening socket, and
   without one it fails at once (EINVAL), so a process parked in accept
   always has a socket to wait on. *)
let accept_socket (p : Process.t) =
  match Glibc.listener_of p.Process.io with
  | Some sock when Net.Socket.listening sock -> Some sock
  | Some _ | None -> None

let release (p : Process.t) = Memory.release p.Process.mem

(* The previous [last_reaped] stops being exposed here, so its private
   frames go back to the free list. *)
let do_reap t (child : Process.t) =
  Option.iter release t.last_reaped;
  t.last_reaped <- Some child;
  Hashtbl.remove t.procs child.Process.pid

(* One rotation of p's pending children, which keeps their order: drop
   the children already gone and reap the dead ones — only the first
   found when [first]. Returns the pid of the last child reaped. *)
let reap_dead t (p : Process.t) ~first =
  let q = p.Process.pending_children in
  let reaped = ref None in
  for _ = 1 to Queue.length q do
    let child_pid = Queue.pop q in
    match find t child_pid with
    | None -> ()
    | Some child
      when Process.status_is_dead child.Process.status
           && not (first && Option.is_some !reaped) ->
      do_reap t child;
      reaped := Some child_pid
    | Some _ -> Queue.push child_pid q
  done;
  !reaped

(* ---- blocking calls: one attempt, one park ----------------------------- *)

(* Run a call that may block. [`Done rax] when it completes now;
   [`Again call] when it must wait, where [call] is what to run on the
   next attempt (a write's carries the bytes moved so far). The first
   issue and every retry after a wakeup come through here. May raise
   Fault.Trap when a guest buffer is unmapped, like any memory-writing
   builtin. *)
let attempt t (p : Process.t) (call : Glibc.call) =
  let io = p.Process.io in
  match call with
  | Glibc.Accept -> (
    match accept_socket p with
    | None -> `Done (-1L)
    | Some sock -> (
      match Net.Socket.accept_opt sock with
      | Some conn ->
        let fd = Glibc.install_conn io conn in
        Net.Conn.touch conn ~now:t.now;
        `Done (Int64.of_int fd)
      | None -> `Again call))
  | Glibc.Read { fd; dst; cap } -> (
    match Glibc.conn_of_fd io fd with
    | None -> `Done (-1L)
    | Some conn -> (
      match Net.Conn.server_read conn ~now:t.now ~max:(Stdlib.max 0 cap) with
      | Net.Conn.Data b ->
        Memory.write_bytes p.Process.mem dst b;
        Cpu.add_cycles p.Process.cpu
          (Cost.builtin_byte_cycles * Bytes.length b);
        `Done (Int64.of_int (Bytes.length b))
      | Net.Conn.Eof -> `Done 0L
      | Net.Conn.Closed -> `Done (-1L)
      | Net.Conn.Would_block ->
        if timed_out t conn then `Done (-1L) else `Again call))
  | Glibc.Write { fd; data; written } -> (
    match Glibc.conn_of_fd io fd with
    | None -> `Done (-1L)
    | Some conn ->
      let len = Bytes.length data in
      (* write(2) semantics: once any bytes of this call landed, a close
         mid-write reports the partial count; -1 (EPIPE) only when
         nothing was written at all *)
      let closed_rax written =
        if written > 0 then Int64.of_int written else -1L
      in
      let rec push written =
        if written >= len then `Done (Int64.of_int len)
        else
          let chunk = Bytes.sub data written (len - written) in
          match Net.Conn.server_write conn ~now:t.now chunk with
          | Net.Conn.Wrote n ->
            Cpu.add_cycles p.Process.cpu (Cost.builtin_byte_cycles * n);
            push (written + n)
          | Net.Conn.Conn_closed -> `Done (closed_rax written)
          | Net.Conn.Tx_full ->
            if timed_out t conn then `Done (closed_rax written)
            else `Again (Glibc.Write { fd; data; written })
      in
      push written)
  | Glibc.Poll { dst; cap } -> (
    (* Level-triggered readiness scan over the whole fd table, ascending
       fd order: a listener is ready when connections are queued, a conn
       when a read would not block (bytes, EOF, reset). Ready fds go
       into the guest array at [dst] as 8-byte ints, at most [cap]. *)
    let ready =
      List.filter
        (fun fd ->
          match Glibc.fd_obj_of io fd with
          | Some (Glibc.Fd_conn c) -> Net.Conn.readable c
          | Some (Glibc.Fd_listener s) -> Net.Socket.pending_count s > 0
          | None -> false)
        (Glibc.open_fds io)
    in
    match ready with
    | [] -> `Again call
    | _ ->
      let cap = Stdlib.max 0 cap in
      let n = ref 0 in
      List.iter
        (fun fd ->
          if !n < cap then begin
            Memory.write_u64 p.Process.mem
              (Int64.add dst (Int64.of_int (!n * 8)))
              (Int64.of_int fd);
            incr n
          end)
        ready;
      Cpu.add_cycles p.Process.cpu (Cost.builtin_byte_cycles * 8 * !n);
      `Done (Int64.of_int !n))
  | Glibc.Wait_child -> (
    (* the oldest pending child, whichever child died first: a younger
       child's death wakes the parent only to park it again *)
    match Queue.peek_opt p.Process.pending_children with
    | None -> `Done (-1L)
    | Some child_pid -> (
      match find t child_pid with
      | None ->
        ignore (Queue.pop p.Process.pending_children);
        `Done (-1L)
      | Some child when Process.status_is_dead child.Process.status ->
        ignore (Queue.pop p.Process.pending_children);
        do_reap t child;
        `Done (encode_wait_status child)
      | Some _ -> `Again call))

(* What a call on a non-blocking fd returns instead of parking: EAGAIN,
   or the count a short write already moved. *)
let nonblocking_rax io : Glibc.call -> int64 option = function
  | Glibc.Accept when Glibc.fd_nonblock io (Glibc.listener_fd io) ->
    Some Glibc.eagain
  | Glibc.Read { fd; _ } when Glibc.fd_nonblock io fd -> Some Glibc.eagain
  | Glibc.Write { fd; written; _ } when Glibc.fd_nonblock io fd ->
    Some (if written > 0 then Int64.of_int written else Glibc.eagain)
  | _ -> None

(* Cache the earliest cycle at which this conn's blocked op could time
   out; the sweep only runs when [now] passes the cache. *)
let note_io_deadline t conn =
  match t.conn_timeout with
  | None -> ()
  | Some tmo -> (
    let d = Int64.add (Net.Conn.last_activity conn) tmo in
    match t.next_timeout_check with
    | Some cur when Int64.compare cur d <= 0 -> ()
    | _ -> t.next_timeout_check <- Some d)

(* Park p in [call]: register one-shot waiters on what it waits for. A
   blocking waitpid registers none — the child's death marks its parent
   directly. epoll parks on everything at once: any conn turning
   readable (or any queued connect) re-queues the process for a fresh
   scan. Connection timeouts apply to conn reads and writes only: an
   event-loop process is not stuck in one conn's op, it is waiting for
   work. *)
let park t (p : Process.t) (call : Glibc.call) =
  p.Process.status <- Process.Blocked call;
  let pid = p.Process.pid in
  let io = p.Process.io in
  let wake () = mark_ready t p in
  let on_conn fd add_waiter =
    match Glibc.conn_of_fd io fd with
    | None -> ()
    | Some conn ->
      Hashtbl.replace t.blocked_io pid ();
      add_waiter conn ~key:pid wake;
      note_io_deadline t conn
  in
  match call with
  | Glibc.Accept ->
    Option.iter
      (fun sock -> Net.Socket.add_accept_waiter sock ~key:pid wake)
      (accept_socket p)
  | Glibc.Read { fd; _ } -> on_conn fd Net.Conn.add_rx_waiter
  | Glibc.Write { fd; _ } -> on_conn fd Net.Conn.add_tx_waiter
  | Glibc.Poll _ ->
    List.iter
      (fun fd ->
        match Glibc.fd_obj_of io fd with
        | Some (Glibc.Fd_conn c) -> Net.Conn.add_rx_waiter c ~key:pid wake
        | Some (Glibc.Fd_listener s) ->
          Net.Socket.add_accept_waiter s ~key:pid wake
        | None -> ())
      (Glibc.open_fds io)
  | Glibc.Wait_child -> ()

(* ---- the scheduler ---------------------------------------------------- *)

let slice_insns = 4096

let set_rax (p : Process.t) v = Cpu.set p.Process.cpu Isa.Reg.RAX v

(* Issue a call that may block, first or again after a wakeup. Returns
   true when it completed (rax holds its result); on false p has parked
   in it or died of a fault. *)
let syscall t (p : Process.t) call =
  match attempt t p call with
  | exception Fault.Trap fault ->
    note_fault t p fault;
    false
  | `Done rax ->
    set_rax p rax;
    true
  | `Again call -> (
    match nonblocking_rax p.Process.io call with
    | Some rax ->
      set_rax p rax;
      true
    | None ->
      park t p call;
      false)

(* Handle one Control from a builtin. Returns true when the process may
   keep executing in its current slice; on false it has died or parked
   (p.status says which). *)
let handle_control t (p : Process.t) control =
  match control with
  | Glibc.Exit code ->
    note_exited t p code;
    false
  | Glibc.Abort msg ->
    note_killed t p Process.Sigabrt msg;
    false
  | Glibc.Fork ->
    ignore (fork_child t p);
    true
  | Glibc.Spawn_thread { start; arg } ->
    ignore (spawn_thread t p ~start ~arg);
    true
  | Glibc.Wait_child_nb ->
    set_rax p
      (match reap_dead t p ~first:true with
      | Some child_pid -> Int64.of_int child_pid
      | None -> if Queue.is_empty p.Process.pending_children then -1L else 0L);
    true
  | Glibc.Listen { fd; backlog } ->
    (match Glibc.fd_obj_of p.Process.io fd with
    | Some (Glibc.Fd_listener s) ->
      Net.Socket.listen s ~backlog;
      register_port t s;
      set_rax p 0L
    | _ -> set_rax p (-1L));
    true
  | Glibc.Call call -> syscall t p call
  | Glibc.Close_fd fd ->
    set_rax p
      (if Glibc.close_fd p.Process.io fd ~now:t.now then 0L else -1L);
    true

let handle_builtin t (p : Process.t) name =
  (* LD_PRELOAD semantics: the P-SSP shared library for instrumented
     binaries exports its own __stack_chk_fail (the combined
     check-and-fail routine of Figs. 3/4). *)
  let name =
    match (name, p.Process.preload) with
    | "__stack_chk_fail", Preload.Pssp_packed -> "__stack_chk_fail_pssp"
    | _ -> name
  in
  match
    Glibc.dispatch ~name p.Process.cpu p.Process.mem ~pid:p.Process.pid
      p.Process.io
  with
  | exception Fault.Trap fault ->
    note_fault t p fault;
    false
  | Glibc.Ret v ->
    set_rax p v;
    true
  | Glibc.Control control -> handle_control t p control

(* Run p for one scheduling slice (or until it parks/dies/fuel runs
   out), advancing virtual time by the cycles it retires. *)
let run_slice t (p : Process.t) fuel =
  let c0 = Cpu.cycles p.Process.cpu in
  let budget = ref (Stdlib.min slice_insns !fuel) in
  let continue_ = ref true in
  while !continue_ && !budget > 0 do
    let outcome, retired =
      Exec.step_block t.env p.Process.cpu p.Process.mem ~max_insns:!budget
    in
    budget := !budget - retired;
    fuel := !fuel - retired;
    match outcome with
    | Exec.Running -> ()
    | Exec.Halted ->
      note_exited t p 0;
      continue_ := false
    | Exec.Faulted fault ->
      note_fault t p fault;
      continue_ := false
    | Exec.Syscall_trap ->
      note_killed t p Process.Sigill "raw syscall not supported";
      continue_ := false
    | Exec.Builtin name ->
      if not (handle_builtin t p name) then continue_ := false
  done;
  t.now <- Int64.add t.now (Int64.sub (Cpu.cycles p.Process.cpu) c0)

(* A wakeup event fired for a parked process: issue its call again. If
   it still cannot complete (another process took the bytes or the
   connection, the epoll scan came up empty, the oldest child still
   lives), it parks again, re-arming the one-shot waiter the event
   consumed. *)
let retry_blocked t (p : Process.t) =
  match p.Process.status with
  | Process.Blocked call ->
    if syscall t p call then begin
      p.Process.status <- Process.Runnable;
      Hashtbl.remove t.blocked_io p.Process.pid;
      enqueue t p
    end
  | Process.Runnable | Process.Exited _ | Process.Killed _ -> ()

(* Drain the wake queue: each pid retried once per queued event, FIFO.
   Events fire their waiters in pid order (Conn/Socket sort by key), so
   the composite order — FIFO across events, pid order within one — is
   deterministic for a deterministic workload. *)
let service_wake t =
  let rec go () =
    match Queue.take_opt t.wake with
    | None -> ()
    | Some pid ->
      (match find t pid with
      | None -> ()
      | Some p ->
        p.Process.wake_pending <- false;
        retry_blocked t p);
      go ()
  in
  go ()

(* The conn a process parked in a read or write waits on. *)
let io_conn (p : Process.t) =
  match p.Process.status with
  | Process.Blocked (Glibc.Read { fd; _ } | Glibc.Write { fd; _ }) ->
    Glibc.conn_of_fd p.Process.io fd
  | _ -> None

(* Time out idle conns with a blocked op on them. Runs only when [now]
   passes the cached earliest deadline, so the common path costs one
   comparison; the sweep itself is O(blocked ops), not O(procs). A
   timed-out conn resets, which fires its waiters — the woken call then
   completes through the normal retry path. *)
let sweep_timeouts t =
  match (t.conn_timeout, t.next_timeout_check) with
  | Some tmo, Some due when Int64.compare t.now due >= 0 ->
    t.next_timeout_check <- None;
    let stale = ref [] in
    Hashtbl.iter
      (fun pid () ->
        match Option.bind (find t pid) io_conn with
        | None -> stale := pid :: !stale
        | Some conn ->
          if Int64.compare (Net.Conn.idle_cycles conn ~now:t.now) tmo >= 0
          then Net.Conn.timeout conn ~now:t.now
          else note_io_deadline t conn)
      t.blocked_io;
    List.iter (Hashtbl.remove t.blocked_io) !stale
  | _ -> ()

let schedule ?(fuel = 50_000_000) t =
  let fuel = ref fuel in
  let continue_ = ref true in
  while !continue_ do
    sweep_timeouts t;
    service_wake t;
    if !fuel <= 0 then continue_ := false
    else
      match Queue.take_opt t.ready with
      | None -> continue_ := false
      | Some pid -> (
        match find t pid with
        | None -> ()
        | Some p -> (
          p.Process.queued <- false;
          match p.Process.status with
          | Process.Runnable ->
            run_slice t p fuel;
            (* round-robin: a process still runnable after its slice
               goes to the back of the queue *)
            (match p.Process.status with
            | Process.Runnable -> enqueue t p
            | _ -> ())
          | _ -> ()))
  done

(* Earliest cycle at which a blocked conn operation would time out —
   the pump uses this to jump virtual time across idle stretches. Scans
   only the processes parked on conn I/O, not the whole process table. *)
let next_deadline t =
  match t.conn_timeout with
  | None -> None
  | Some tmo ->
    Hashtbl.fold
      (fun pid () acc ->
        match Option.bind (find t pid) io_conn with
        | None -> acc
        | Some conn -> (
          let d = Int64.add (Net.Conn.last_activity conn) tmo in
          match acc with
          | Some best when Int64.compare best d <= 0 -> acc
          | _ -> Some d))
      t.blocked_io None

let stop_of (p : Process.t) =
  match p.Process.status with
  | Process.Exited n -> Stop_exit n
  | Process.Killed (s, msg) -> Stop_kill (s, msg)
  | Process.Blocked Glibc.Accept -> Stop_accept
  | Process.Blocked _ -> Stop_io
  | Process.Runnable -> Stop_fuel

(* Reap p's dead children without a waitpid from the guest — the compat
   shim uses this so [last_reaped] names the child that served the
   request even for servers that reap lazily with waitpid_nb. *)
let reap_zombies t p = ignore (reap_dead t p ~first:false)

(* The internal [enqueue] silently skips dead processes (scheduler
   convenience); handing a dead process to the public entry point is a
   driver bug and says so. *)
let enqueue t (p : Process.t) =
  if Process.status_is_dead p.Process.status then
    invalid_arg "Kernel.enqueue: process already dead";
  enqueue t p

(* The request arrives as a one-shot conn (send + FIN) pushed straight
   onto the accept backlog. *)
let deliver_request t (p : Process.t) request =
  match (p.Process.status, accept_socket p) with
  | Process.Blocked Glibc.Accept, Some sock ->
    let conn = fresh_conn t in
    ignore (Net.Conn.client_send conn ~now:t.now (Bytes.to_string request));
    Net.Conn.client_shutdown conn ~now:t.now;
    Net.Socket.push sock conn;
    conn
  | status, _ -> raise (Not_blocked_in_accept { pid = p.Process.pid; status })

let last_reaped t = t.last_reaped
let fork_count t = t.forks

let shutdown t =
  Option.iter release t.last_reaped;
  t.last_reaped <- None;
  Hashtbl.iter (fun _ p -> release p) t.procs;
  Hashtbl.reset t.procs

let run_to_exit ?fuel t p =
  enqueue t p;
  schedule ?fuel t;
  match stop_of p with
  | Stop_exit code -> code
  | other -> failwith ("Kernel.run_to_exit: " ^ stop_to_string other)

(* ---- zygote snapshots ------------------------------------------------- *)

(* A frozen, fully warmed process: private CoW page-store clone, exact
   CPU state (RNG position preserved — see {!Cpu.snapshot}), compiled
   translation cache, and a rebuilt fd table that aliases no live
   kernel object. [resume_snapshot] thaws a fresh process from it in
   any kernel, bit-identical to the original at capture time — the
   prefork/zygote pattern: pay cold spawn + warmup once, then stamp out
   warm copies. *)
type snapshot = {
  snap_image : Image.t;
  snap_mem : Memory.t;
  snap_cpu : Cpu.t;
  snap_io : Glibc.io;
  snap_preload : Preload.mode;
  snap_status : Process.status;
  snap_now : int64;  (* kernel virtual time at capture *)
}

let g_captures = Telemetry.Registry.counter "os.snapshot.captures"
let g_resumes = Telemetry.Registry.counter "os.snapshot.resumes"

let capture_snapshot t (p : Process.t) =
  (match p.Process.status with
  | Process.Runnable | Process.Blocked (Glibc.Accept | Glibc.Poll _) -> ()
  | status ->
    invalid_arg
      (Printf.sprintf "Kernel.capture_snapshot: unsupported status (%s)"
         (Process.status_to_string status)));
  if not (Queue.is_empty p.Process.pending_children) then
    invalid_arg "Kernel.capture_snapshot: process has pending children";
  Telemetry.Registry.incr g_captures;
  {
    snap_image = p.Process.image;
    snap_mem = Memory.clone p.Process.mem;
    snap_cpu = Cpu.snapshot p.Process.cpu;
    snap_io = Glibc.snapshot_io p.Process.io;
    snap_preload = p.Process.preload;
    snap_status = p.Process.status;
    snap_now = t.now;
  }

let resume_snapshot t snap =
  Telemetry.Registry.incr g_resumes;
  (* clone-of-clone: the snapshot stays frozen and can be resumed any
     number of times *)
  let mem = Memory.clone snap.snap_mem in
  let cpu = Cpu.snapshot snap.snap_cpu in
  let io = Glibc.snapshot_io snap.snap_io in
  let proc =
    new_process t ~parent:None ~image:snap.snap_image ~mem ~cpu ~io
      ~preload:snap.snap_preload
  in
  (* listeners frozen in the fd table come back live: register their
     ports so connects can reach them *)
  List.iter
    (fun fd ->
      match Glibc.fd_obj_of io fd with
      | Some (Glibc.Fd_listener s) when Net.Socket.listening s ->
        register_port t s
      | _ -> ())
    (Glibc.open_fds io);
  (* re-create the frozen park (accept or epoll_wait, the only ones
     capture_snapshot admits): the rebuilt sockets hold nothing yet, so
     the call parks again and re-arms the one-shot waiters the
     original held at capture *)
  (match snap.snap_status with
  | Process.Runnable -> enqueue t proc
  | status ->
    proc.Process.status <- status;
    retry_blocked t proc);
  (* a resumed process has already retired its warmup cycles *)
  advance_to t snap.snap_now;
  proc
