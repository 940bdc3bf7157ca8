open Vm64

type call =
  | Accept
  | Read of { fd : int; dst : int64; cap : int }
  | Write of { fd : int; data : bytes; written : int }
  | Poll of { dst : int64; cap : int }
  | Wait_child

type control =
  | Exit of int
  | Abort of string
  | Fork
  | Spawn_thread of { start : int64; arg : int64 }
  | Wait_child_nb
  | Listen of { fd : int; backlog : int }
  | Call of call
  | Close_fd of int

type outcome = Ret of int64 | Control of control

type fd_obj = Fd_conn of Net.Conn.t | Fd_listener of Net.Socket.t

type fd_entry = { obj : fd_obj; mutable nonblock : bool }

(* [Hashtbl.hash] on an int, in OCaml: the runtime's MurmurHash3 mix of
   the tagged word [2v+1], folded to 32 bits as its high half ([v asr
   31]) xor its sign ([v asr 62]) xor itself, then the final mix, masked
   to 30 bits. Every step is on 32-bit values held in a 63-bit int, and
   the low 32 bits of a product survive its wrap, so no step needs
   Int32. *)
let () = assert (Sys.int_size = 63)

let hash_int v =
  let rotl x n = ((x lsl n) lor (x lsr (32 - n))) land 0xFFFF_FFFF in
  let d = ((v asr 31) lxor (v asr 62) lxor ((v lsl 1) lor 1)) land 0xFFFF_FFFF in
  let d = (d * 0xcc9e2d51) land 0xFFFF_FFFF in
  let d = (rotl d 15 * 0x1b873593) land 0xFFFF_FFFF in
  let h = ((rotl d 13 * 5) + 0xe6546b64) land 0xFFFF_FFFF in
  let h = h lxor (h lsr 16) in
  let h = (h * 0x85ebca6b) land 0xFFFF_FFFF in
  let h = h lxor (h lsr 13) in
  let h = (h * 0xc2b2ae35) land 0xFFFF_FFFF in
  (h lxor (h lsr 16)) land 0x3FFF_FFFF

(* Tables keyed by a pid or port: monomorphic, with the polymorphic
   table's own hash, so their buckets, and so the order [iter] and
   [fold] visit them in, are the polymorphic table's; no lookup calls
   [caml_hash]. *)
module Int_table = struct
  include Hashtbl.Make (struct
    type t = int

    let equal = Int.equal
    let hash = hash_int
  end)

  let hash = hash_int
end

(* EAGAIN/EWOULDBLOCK sentinel returned by non-blocking accept/read/
   write (-1 stays "error/closed", 0 stays "EOF"/"wrote nothing"). *)
let eagain = -2L

type io = {
  mutable input : bytes;
  mutable input_pos : int;
  output : Buffer.t;
  errout : Buffer.t;
  mutable brk : int64;
  mutable fds : fd_entry option array;  (* indexed by fd, [None] when closed *)
  mutable free_fds : int list;  (* closed fds below next_fd, ascending *)
  mutable next_fd : int;
  mutable listener : Net.Socket.t option;
  mutable listener_fd : int;  (* fd of [listener], -1 when none *)
}

let make_io ~input =
  {
    input = Bytes.copy input;
    input_pos = 0;
    output = Buffer.create 64;
    errout = Buffer.create 64;
    brk = Layout.heap_base;
    fds = Array.make 8 None;
    free_fds = [];
    next_fd = 3;
    listener = None;
    listener_fd = -1;
  }

let clone_io io =
  (* fork/pthread_create semantics: the child inherits the fd table, so
     every connection (and the listener) gains one more holder. Status
     flags (O_NONBLOCK) are per-entry and copied, like dup'd
     descriptors sharing an open file description. *)
  let fds = Array.make (Array.length io.fds) None in
  for fd = 0 to Array.length fds - 1 do
    match io.fds.(fd) with
    | None -> ()
    | Some e ->
      (match e.obj with
      | Fd_conn c -> Net.Conn.retain c
      | Fd_listener s -> Net.Socket.retain s);
      fds.(fd) <- Some { obj = e.obj; nonblock = e.nonblock }
  done;
  {
    input = Bytes.copy io.input;
    input_pos = io.input_pos;
    output = Buffer.create 64;
    errout = Buffer.create 64;
    brk = io.brk;
    fds;
    free_fds = io.free_fds;
    next_fd = io.next_fd;
    listener = io.listener;
    listener_fd = io.listener_fd;
  }

(* Zygote-snapshot semantics: a frozen fd table must not alias live
   kernel objects, so every listener is rebuilt as a fresh socket with
   the same port/backlog/listening state (and an empty backlog — a
   checkpoint holds no in-flight SYNs). Sockets shared by several fds
   (dup-style) stay shared in the copy. Connection fds are refused: a
   zygote is captured quiescent, parked in accept/epoll with no client
   attached. *)
let snapshot_io io =
  let memo = ref [] in
  let build_sock s =
    let s' = Net.Socket.create () in
    Net.Socket.bind s' ~port:(Net.Socket.port s);
    if Net.Socket.listening s then
      Net.Socket.listen s' ~backlog:(Net.Socket.backlog s);
    memo := (s, s') :: !memo;
    s'
  in
  (* one refcount per holding fd, like clone_io *)
  let rebuild_sock s =
    match List.assq_opt s !memo with
    | Some s' ->
      Net.Socket.retain s';
      s'
    | None -> build_sock s
  in
  let fds = Array.make (Array.length io.fds) None in
  for fd = 0 to Array.length fds - 1 do
    match io.fds.(fd) with
    | None -> ()
    | Some { obj = Fd_conn _; _ } ->
      invalid_arg
        "Glibc.snapshot_io: open connection fd (snapshot a quiescent process)"
    | Some { obj = Fd_listener s; nonblock } ->
      fds.(fd) <- Some { obj = Fd_listener (rebuild_sock s); nonblock }
  done;
  let copy_buf b =
    let b' = Buffer.create (max 64 (Buffer.length b)) in
    Buffer.add_string b' (Buffer.contents b);
    b'
  in
  {
    input = Bytes.copy io.input;
    input_pos = io.input_pos;
    output = copy_buf io.output;
    errout = copy_buf io.errout;
    brk = io.brk;
    fds;
    free_fds = io.free_fds;
    next_fd = io.next_fd;
    listener =
      (* the [listener] field is a plain alias, not a refcount holder *)
      Option.map
        (fun s ->
          match List.assq_opt s !memo with Some s' -> s' | None -> build_sock s)
        io.listener;
    listener_fd = io.listener_fd;
  }

(* ---- fd table --------------------------------------------------------- *)

(* A negative or huge guest fd reads as closed. *)
let fd_entry_of io fd =
  if fd >= 0 && fd < Array.length io.fds then Array.unsafe_get io.fds fd else None

let fd_obj_of io fd =
  match fd_entry_of io fd with Some e -> Some e.obj | None -> None

let conn_of_fd io fd =
  match fd_obj_of io fd with Some (Fd_conn c) -> Some c | _ -> None

let listener_of io = io.listener
let listener_fd io = io.listener_fd

let fd_nonblock io fd =
  match fd_entry_of io fd with Some e -> e.nonblock | None -> false

let set_fd_nonblock io fd v =
  match fd_entry_of io fd with
  | Some e ->
    e.nonblock <- v;
    true
  | None -> false

let open_fds io =
  let acc = ref [] in
  for fd = Array.length io.fds - 1 downto 0 do
    if Option.is_some io.fds.(fd) then acc := fd :: !acc
  done;
  !acc

(* Lowest closed fd first, like a real per-process table. Reuse keeps
   fd values small and dense, so a long-lived event-loop process can
   index flat per-fd state arrays by fd, and so can the table itself: a
   fresh fd is one past the highest ever used, and only one past the
   table's end grows it, by doubling. *)
let install_fd io obj =
  let fd =
    match io.free_fds with
    | fd :: rest ->
      io.free_fds <- rest;
      fd
    | [] ->
      let fd = io.next_fd in
      io.next_fd <- fd + 1;
      fd
  in
  let n = Array.length io.fds in
  if fd = n then begin
    let grown = Array.make (2 * n) None in
    Array.blit io.fds 0 grown 0 n;
    io.fds <- grown
  end;
  io.fds.(fd) <- Some { obj; nonblock = false };
  fd

let install_conn io conn =
  Net.Conn.retain conn;
  install_fd io (Fd_conn conn)

let install_listener io sock =
  io.listener <- Some sock;
  let fd = install_fd io (Fd_listener sock) in
  io.listener_fd <- fd;
  fd

(* keep [free_fds] sorted ascending; the list stays short under churn
   because install always takes the head *)
let rec insert_free (fd : int) = function
  | [] -> [ fd ]
  | hd :: tl as l ->
    if fd < hd then fd :: l
    else if fd = hd then l
    else hd :: insert_free fd tl

let close_fd io fd ~now =
  match fd_entry_of io fd with
  | None -> false
  | Some e ->
    io.fds.(fd) <- None;
    io.free_fds <- insert_free fd io.free_fds;
    (match e.obj with
    | Fd_conn c -> Net.Conn.server_close c ~now
    | Fd_listener s ->
      Net.Socket.release s ~now;
      (match io.listener with
      | Some cur when cur == s ->
        io.listener <- None;
        io.listener_fd <- -1
      | _ -> ()));
    true

(* In ascending fd order. A crash resets a conn before dropping its
   hold, so the drop sends no FIN. *)
let close_all io ~now ~graceful =
  for fd = 0 to Array.length io.fds - 1 do
    match io.fds.(fd) with
    | None -> ()
    | Some e -> (
      io.fds.(fd) <- None;
      match e.obj with
      | Fd_conn c ->
        if not graceful then Net.Conn.abort c ~now;
        Net.Conn.server_close c ~now
      | Fd_listener s -> Net.Socket.release s ~now)
  done;
  io.free_fds <- [];
  io.listener <- None;
  io.listener_fd <- -1

let names =
  [
    "exit";
    "abort";
    "fork";
    "pthread_create";
    "waitpid";
    "getpid";
    "accept";
    "__stack_chk_fail";
    "__stack_chk_fail_pssp";
    "__GI__fortify_fail";
    "memcpy";
    "memmove";
    "memset";
    "memcmp";
    "strcpy";
    "strncpy";
    "strcat";
    "strlen";
    "strcmp";
    "read_input";
    "read_n";
    "print_str";
    "print_int";
    "putchar";
    "puts";
    "write_out";
    "rand";
    "srand";
    "malloc";
    "free";
    "AES_ENCRYPT_128";
    (* fd-oriented networking (PR 5) — appended so existing slot
       addresses stay stable *)
    "socket";
    "bind";
    "listen";
    "read";
    "write";
    "close";
    "write_str";
    "write_int";
    "waitpid_nb";
    (* readiness / event-loop tier (PR 6) — appended, slots stay stable *)
    "set_nonblock";
    "epoll_wait";
  ]

let slot_table = Hashtbl.create 64

let () =
  List.iteri
    (fun i name ->
      let addr =
        Int64.add Layout.glibc_base (Int64.of_int (i * Layout.glibc_slot_size))
      in
      Hashtbl.add slot_table name addr)
    names

let addr_of name =
  match Hashtbl.find_opt slot_table name with
  | Some a -> a
  | None -> invalid_arg (Printf.sprintf "Glibc.addr_of: unknown builtin %s" name)

(* Every [is_builtin] query looks an address up here, so the table
   compares and hashes the int64 itself, as the block table does. *)
module Addr_table = Hashtbl.Make (struct
  type t = int64

  let equal (a : int64) b = a = b
  let hash a = Int64.to_int a land max_int
end)

let addr_table =
  let t = Addr_table.create 64 in
  List.iter (fun name -> Addr_table.add t (addr_of name) name) names;
  t

let name_of_addr addr = Addr_table.find_opt addr_table addr

(* ---- helpers ---------------------------------------------------------- *)

let arg cpu i =
  match i with
  | 0 -> Cpu.get cpu Isa.Reg.RDI
  | 1 -> Cpu.get cpu Isa.Reg.RSI
  | 2 -> Cpu.get cpu Isa.Reg.RDX
  | _ -> invalid_arg "Glibc.arg"

let charge cpu n = Cpu.add_cycles cpu n
let charge_bytes cpu n = charge cpu (Cost.builtin_base_cycles + (n * Cost.builtin_byte_cycles))

(* Page-aware: one blit per page instead of one Hashtbl probe per byte.
   [cstr_len] faults at the same address a byte-at-a-time scan would. *)
let read_cstring mem addr =
  Bytes.to_string (Memory.read_bytes mem addr (Memory.cstr_len mem addr))

(* ---- pure builtin cores ------------------------------------------------ *)

(* The builtins whose whole effect is a function of (cpu, mem) — no
   [io], no kernel control transfer, no PRNG. Factored out as
   {!Compile.builtin_fn} cores so the OS dispatch below and compiled
   call-site inlining ({!inline_core}) execute the {e same} closure:
   byte writes, cycle charges, fault addresses and the rax value cannot
   drift between the two paths. *)

let core_memcpy cpu mem =
  let dst = arg cpu 0 and src = arg cpu 1 and n = Int64.to_int (arg cpu 2) in
  charge_bytes cpu n;
  if n > 0 then Memory.write_bytes mem dst (Memory.read_bytes mem src n);
  dst

let core_memset cpu mem =
  let dst = arg cpu 0 and c = Int64.to_int (arg cpu 1) and n = Int64.to_int (arg cpu 2) in
  charge_bytes cpu n;
  if n > 0 then Memory.write_bytes mem dst (Bytes.make n (Char.chr (c land 0xFF)));
  dst

let core_memcmp cpu mem =
  let a = arg cpu 0 and b = arg cpu 1 and n = Int64.to_int (arg cpu 2) in
  charge_bytes cpu n;
  let r =
    if n <= 0 then 0
    else compare (Memory.read_bytes mem a n) (Memory.read_bytes mem b n)
  in
  Int64.of_int r

let core_strcpy cpu mem =
  (* copies the terminating NUL in the same bulk write *)
  let dst = arg cpu 0 and src = arg cpu 1 in
  let n = Memory.cstr_len mem src in
  charge_bytes cpu (n + 1);
  Memory.write_bytes mem dst (Memory.read_bytes mem src (n + 1));
  dst

let core_strncpy cpu mem =
  let dst = arg cpu 0 and src = arg cpu 1 and n = Int64.to_int (arg cpu 2) in
  let len = Stdlib.min (Memory.cstr_len mem src) n in
  charge_bytes cpu n;
  if len > 0 then Memory.write_bytes mem dst (Memory.read_bytes mem src len);
  if n > len then
    Memory.write_bytes mem
      (Int64.add dst (Int64.of_int len))
      (Bytes.make (n - len) '\000');
  dst

let core_strcat cpu mem =
  let dst = arg cpu 0 and src = arg cpu 1 in
  let dlen = Memory.cstr_len mem dst in
  let slen = Memory.cstr_len mem src in
  charge_bytes cpu (dlen + slen + 1);
  Memory.write_bytes mem
    (Int64.add dst (Int64.of_int dlen))
    (Memory.read_bytes mem src (slen + 1));
  dst

let core_strlen cpu mem =
  let n = Memory.cstr_len mem (arg cpu 0) in
  charge_bytes cpu n;
  Int64.of_int n

let core_strcmp cpu mem =
  let a = read_cstring mem (arg cpu 0) in
  let b = read_cstring mem (arg cpu 1) in
  charge_bytes cpu (String.length a + String.length b);
  Int64.of_int (compare a b)

(* The last key schedule expanded in this domain, with its key words.
   P-SSP-OWF's key is fixed per process, so nearly every call reuses it;
   a schedule is never mutated, so sharing one is safe. *)
let aes_key_memo : (int64 * int64 * Crypto.Aes128.key) option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let expanded_key lo hi =
  let memo = Domain.DLS.get aes_key_memo in
  match !memo with
  | Some (l, h, key) when Int64.equal l lo && Int64.equal h hi -> key
  | _ ->
    let key = Crypto.Aes128.key_of_int64s lo hi in
    memo := Some (lo, hi, key);
    key

let core_aes_encrypt cpu _mem =
  (* Key in xmm1, plaintext in xmm15, ciphertext back to xmm15 — the
     helper Code 8 calls. Cost matches AES-NI latency. *)
  charge cpu Cost.aes_encrypt_call_cycles;
  let key_lo, key_hi = Cpu.get_xmm cpu Isa.Reg.Xmm.xmm1 in
  let pt_lo, pt_hi = Cpu.get_xmm cpu Isa.Reg.Xmm.xmm15 in
  let key = expanded_key key_lo key_hi in
  let ct_lo, ct_hi = Crypto.Aes128.encrypt_int64s key pt_lo pt_hi in
  Cpu.set_xmm cpu Isa.Reg.Xmm.xmm15 (ct_lo, ct_hi);
  0L

let inline_core : string -> Compile.builtin_fn option = function
  | "memcpy" | "memmove" -> Some core_memcpy
  | "memset" -> Some core_memset
  | "memcmp" -> Some core_memcmp
  | "strcpy" -> Some core_strcpy
  | "strncpy" -> Some core_strncpy
  | "strcat" -> Some core_strcat
  | "strlen" -> Some core_strlen
  | "strcmp" -> Some core_strcmp
  | "AES_ENCRYPT_128" -> Some core_aes_encrypt
  | _ -> None

(* ---- the canary-check routine patched into __stack_chk_fail (Fig. 4) -- *)

let stack_chk_fail_pssp cpu mem =
  (* rdi carries the candidate canary word: C1 (high 32) || C0 (low 32).
     If C0 xor C1 equals the low half of the TLS canary, set ZF and
     return; otherwise fall through to __GI__fortify_fail. This keeps
     compatibility with plain SSP epilogues, whose (already mismatching)
     rdi fails the test with overwhelming probability. *)
  let candidate = Cpu.get cpu Isa.Reg.RDI in
  let tls_canary = Pssp.Tls.canary mem ~fs_base:cpu.Cpu.fs_base in
  (* cost of the real check-and-fail routine: the ~12 ALU/mov
     instructions of Fig. 4 plus PLT indirection and the call/ret pair
     the epilogue pays to reach it *)
  charge cpu 28;
  if Pssp.Canary.packed32_checks_out ~tls_canary candidate then begin
    cpu.Cpu.flags.Cpu.zf <- true;
    (* runs inside the epilogue: rax holds the function's return value
       and must survive the check *)
    Ret (Cpu.get cpu Isa.Reg.RAX)
  end
  else Control (Abort "*** buffer overflow detected ***: terminated")

(* ---- dispatch --------------------------------------------------------- *)

(* The payload is snapshotted at call time, like write(2). *)
let write fd data = Control (Call (Write { fd; data; written = 0 }))

let dispatch ~name cpu mem ~pid io =
  match inline_core name with
  | Some core -> Ret (core cpu mem)  (* pure cores, shared with inlining *)
  | None -> (
  match name with
  | "exit" ->
    charge cpu Cost.builtin_base_cycles;
    Control (Exit (Int64.to_int (arg cpu 0)))
  | "abort" ->
    charge cpu Cost.builtin_base_cycles;
    Control (Abort "Aborted")
  | "fork" ->
    charge cpu Cost.fork_cycles;
    Control Fork
  | "pthread_create" ->
    charge cpu Cost.fork_cycles;
    Control (Spawn_thread { start = arg cpu 0; arg = arg cpu 1 })
  | "waitpid" ->
    charge cpu Cost.syscall_cycles;
    Control (Call Wait_child)
  | "waitpid_nb" ->
    charge cpu Cost.syscall_cycles;
    Control Wait_child_nb
  | "getpid" ->
    charge cpu Cost.builtin_base_cycles;
    Ret (Int64.of_int pid)
  | "accept" ->
    charge cpu Cost.syscall_cycles;
    Control (Call Accept)
  | "socket" ->
    charge cpu Cost.syscall_cycles;
    Ret (Int64.of_int (install_listener io (Net.Socket.create ())))
  | "bind" -> (
    let fd = Int64.to_int (arg cpu 0) and port = Int64.to_int (arg cpu 1) in
    charge cpu Cost.syscall_cycles;
    match fd_obj_of io fd with
    | Some (Fd_listener s) ->
      Net.Socket.bind s ~port;
      Ret 0L
    | _ -> Ret (-1L))
  | "listen" ->
    (* kernel-served: listening registers the socket in the kernel's
       port table (SO_REUSEPORT-style sharding needs the kernel to see
       every listener on a port) *)
    let fd = Int64.to_int (arg cpu 0) and backlog = Int64.to_int (arg cpu 1) in
    charge cpu Cost.syscall_cycles;
    Control (Listen { fd; backlog })
  | "set_nonblock" ->
    (* fcntl(fd, F_SETFL, O_NONBLOCK) in spirit: accept/read/write on
       the fd return EAGAIN (-2) instead of parking *)
    let fd = Int64.to_int (arg cpu 0) in
    charge cpu Cost.syscall_cycles;
    Ret (if set_fd_nonblock io fd true then 0L else -1L)
  | "epoll_wait" ->
    (* epoll_wait(events, cap): writes ready fds (8-byte ints) into the
       guest array at [dst], blocking until at least one is ready. The
       whole open fd table is the interest set — level-triggered. *)
    let dst = arg cpu 0 and cap = Int64.to_int (arg cpu 1) in
    charge cpu Cost.syscall_cycles;
    Control (Call (Poll { dst; cap }))
  | "close" ->
    charge cpu Cost.syscall_cycles;
    Control (Close_fd (Int64.to_int (arg cpu 0)))
  | "read" ->
    let fd = Int64.to_int (arg cpu 0)
    and dst = arg cpu 1
    and cap = Int64.to_int (arg cpu 2) in
    charge cpu Cost.syscall_cycles;
    Control (Call (Read { fd; dst; cap }))
  | "write" ->
    let fd = Int64.to_int (arg cpu 0)
    and src = arg cpu 1
    and n = Int64.to_int (arg cpu 2) in
    charge_bytes cpu n;
    write fd (if n > 0 then Memory.read_bytes mem src n else Bytes.create 0)
  | "write_str" ->
    let fd = Int64.to_int (arg cpu 0) in
    let s = read_cstring mem (arg cpu 1) in
    charge_bytes cpu (String.length s);
    write fd (Bytes.of_string s)
  | "write_int" ->
    let fd = Int64.to_int (arg cpu 0) in
    let s = Int64.to_string (arg cpu 1) in
    charge cpu (Cost.builtin_base_cycles + 16);
    write fd (Bytes.of_string s)
  | "__stack_chk_fail" ->
    Buffer.add_string io.errout "*** stack smashing detected ***: terminated\n";
    Control (Abort "*** stack smashing detected ***: terminated")
  | "__stack_chk_fail_pssp" -> (
    match stack_chk_fail_pssp cpu mem with
    | Control (Abort msg) as c ->
      Buffer.add_string io.errout (msg ^ "\n");
      c
    | other -> other)
  | "__GI__fortify_fail" ->
    Buffer.add_string io.errout "*** buffer overflow detected ***: terminated\n";
    Control (Abort "*** buffer overflow detected ***: terminated")
  | "read_input" ->
    (* recv(2)-like: copies ALL pending input into the buffer with no
       bounds check and no terminator — the paper's overflow vector,
       writing exactly the attacker's bytes. *)
    let dst = arg cpu 0 in
    let n = Bytes.length io.input - io.input_pos in
    charge_bytes cpu n;
    if n > 0 then
      Memory.write_bytes mem dst (Bytes.sub io.input io.input_pos n);
    io.input_pos <- Bytes.length io.input;
    Ret (Int64.of_int n)
  | "read_n" ->
    let dst = arg cpu 0 and cap = Int64.to_int (arg cpu 1) in
    let avail = Bytes.length io.input - io.input_pos in
    let n = Stdlib.max 0 (Stdlib.min cap avail) in
    charge_bytes cpu n;
    if n > 0 then Memory.write_bytes mem dst (Bytes.sub io.input io.input_pos n);
    io.input_pos <- io.input_pos + n;
    Ret (Int64.of_int n)
  | "print_str" ->
    let s = read_cstring mem (arg cpu 0) in
    charge_bytes cpu (String.length s);
    Buffer.add_string io.output s;
    Ret (Int64.of_int (String.length s))
  | "print_int" ->
    let v = arg cpu 0 in
    charge cpu (Cost.builtin_base_cycles + 16);
    Buffer.add_string io.output (Int64.to_string v);
    Ret 0L
  | "putchar" ->
    charge cpu Cost.builtin_base_cycles;
    Buffer.add_char io.output (Char.chr (Int64.to_int (arg cpu 0) land 0xFF));
    Ret (arg cpu 0)
  | "puts" ->
    let s = read_cstring mem (arg cpu 0) in
    charge_bytes cpu (String.length s + 1);
    Buffer.add_string io.output s;
    Buffer.add_char io.output '\n';
    Ret (Int64.of_int (String.length s + 1))
  | "write_out" ->
    let src = arg cpu 0 and n = Int64.to_int (arg cpu 1) in
    charge_bytes cpu n;
    if n > 0 then Buffer.add_bytes io.output (Memory.read_bytes mem src n);
    Ret (Int64.of_int n)
  | "rand" ->
    charge cpu (Cost.builtin_base_cycles + 8);
    Ret (Int64.logand (Util.Prng.next64 cpu.Cpu.rng) 0x7FFFFFFFL)
  | "srand" ->
    charge cpu Cost.builtin_base_cycles;
    Ret 0L
  | "malloc" ->
    let n = Int64.to_int (arg cpu 0) in
    charge cpu (Cost.builtin_base_cycles + 20);
    let aligned = (n + 15) land lnot 15 in
    let ptr = io.brk in
    let limit = Int64.add Layout.heap_base (Int64.of_int Layout.heap_size) in
    if Int64.compare (Int64.add ptr (Int64.of_int aligned)) limit > 0 then Ret 0L
    else begin
      io.brk <- Int64.add ptr (Int64.of_int aligned);
      Ret ptr
    end
  | "free" ->
    charge cpu Cost.builtin_base_cycles;
    Ret 0L
  | other -> invalid_arg (Printf.sprintf "Glibc.dispatch: unknown builtin %s" other))
