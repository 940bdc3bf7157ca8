(* Kernel, process, glibc and preload semantics. *)

let i64 = Alcotest.testable (Fmt.fmt "0x%Lx") Int64.equal

let compile ?(scheme = Pssp.Scheme.None_) src =
  Mcc.Driver.compile ~scheme (Minic.Parser.parse src)

(* enqueue + schedule + stop_of: run one process to its next park *)
let kernel_run k p =
  Os.Kernel.enqueue k p;
  Os.Kernel.schedule k;
  Os.Kernel.stop_of p

(* deliver + schedule + reap: the old resume-with-request composite *)
let kernel_resume k p req =
  ignore (Os.Kernel.deliver_request k p req);
  Os.Kernel.schedule k;
  Os.Kernel.reap_zombies k p;
  Os.Kernel.stop_of p

let run ?input ?preload ?(scheme = Pssp.Scheme.None_) src =
  let k = Os.Kernel.create () in
  let p = Os.Kernel.spawn k ?input ?preload (compile ~scheme src) in
  let stop = kernel_run k p in
  (k, p, stop)

(* ---- basic program lifecycle ---------------------------------------------- *)

let test_exit_code () =
  let _, _, stop = run "int main() { return 42; }" in
  Alcotest.(check string) "exit 42" "exited 42" (Os.Kernel.stop_to_string stop)

let test_exit_builtin () =
  let _, _, stop = run "int main() { exit(7); return 1; }" in
  Alcotest.(check string) "exit 7" "exited 7" (Os.Kernel.stop_to_string stop)

let test_stdout () =
  let _, p, _ = run {|int main() { print_str("hello "); print_int(42); putchar('!'); return 0; }|} in
  Alcotest.(check string) "stdout" "hello 42!" (Os.Process.stdout p)

let test_stdin () =
  let _, p, _ =
    run ~input:(Bytes.of_string "abc")
      {|int main() { char b[8]; int n = read_n(b, 7); b[n] = 0; print_str(b); return n; }|}
  in
  Alcotest.(check string) "echoed" "abc" (Os.Process.stdout p)

let test_abort () =
  let _, _, stop = run "int main() { abort(); return 0; }" in
  match stop with
  | Os.Kernel.Stop_kill (Os.Process.Sigabrt, _) -> ()
  | _ -> Alcotest.fail "expected SIGABRT"

let test_run_dead_process_rejected () =
  let k = Os.Kernel.create () in
  let p = Os.Kernel.spawn k (compile "int main() { return 0; }") in
  ignore (kernel_run k p);
  Alcotest.check_raises "already dead"
    (Invalid_argument "Kernel.enqueue: process already dead") (fun () ->
      ignore (kernel_run k p))

(* ---- glibc builtins -------------------------------------------------------- *)

let test_string_builtins () =
  let _, p, stop =
    run
      {|
int main() {
  char a[16];
  char b[16];
  strcpy(a, "hello");
  strcat(a, " you");
  strncpy(b, a, 15);
  print_int(strlen(a));
  putchar(',');
  print_int(strcmp(a, b));
  putchar(',');
  print_int(memcmp(a, b, 9));
  return 0;
}
|}
  in
  Alcotest.(check string) "exit" "exited 0" (Os.Kernel.stop_to_string stop);
  Alcotest.(check string) "results" "9,0,0" (Os.Process.stdout p)

let test_memset_memcpy () =
  let _, p, _ =
    run
      {|
int main() {
  char a[8];
  char b[8];
  memset(a, 'x', 7);
  a[7] = 0;
  memcpy(b, a, 8);
  print_str(b);
  return 0;
}
|}
  in
  Alcotest.(check string) "copied" "xxxxxxx" (Os.Process.stdout p)

let test_malloc_free () =
  let _, p, _ =
    run
      {|
int main() {
  int *a = malloc(64);
  int *b = malloc(64);
  a[0] = 11;
  b[0] = 22;
  print_int(a[0] + b[0]);
  putchar(' ');
  print_int(b - a);
  free(a);
  return 0;
}
|}
  in
  (* allocations are distinct; pointer arithmetic is raw bytes *)
  Alcotest.(check string) "heap distinct" "33 64" (Os.Process.stdout p)

let test_rand_deterministic_per_seed () =
  let go () =
    let k = Os.Kernel.create ~seed:99L () in
    let p = Os.Kernel.spawn k (compile "int main() { print_int(rand()); return 0; }") in
    ignore (kernel_run k p);
    Os.Process.stdout p
  in
  Alcotest.(check string) "reproducible" (go ()) (go ())

let test_getpid () =
  let _, p, _ = run "int main() { return getpid(); }" in
  Alcotest.(check bool) "pid positive" true (Os.Process.cycles p > 0L);
  match p.Os.Process.status with
  | Os.Process.Exited 1 -> () (* first pid *)
  | other -> Alcotest.fail (Os.Process.status_to_string other)

(* ---- fork ------------------------------------------------------------------- *)

let fork_src =
  {|
int g = 1;

int main() {
  int pid = fork();
  if (pid == 0) {
    g = 99;
    print_str("child");
    exit(5);
  }
  waitpid();
  print_str("parent g=");
  print_int(g);
  return 0;
}
|}

let test_fork_isolation () =
  let k, p, stop = run fork_src in
  ignore k;
  Alcotest.(check string) "exit" "exited 0" (Os.Kernel.stop_to_string stop);
  (* child's write to g must not leak into the parent *)
  Alcotest.(check string) "memory isolated" "parent g=1" (Os.Process.stdout p)

let test_fork_wait_status () =
  let k, _, _ = run fork_src in
  match Os.Kernel.last_reaped k with
  | Some child ->
    Alcotest.(check bool) "child exit 5" true
      (child.Os.Process.status = Os.Process.Exited 5);
    Alcotest.(check string) "child stdout separate" "child" (Os.Process.stdout child)
  | None -> Alcotest.fail "no reaped child"

let test_waitpid_encodes_crash () =
  let _, p, _ =
    run
      {|
int main() {
  int pid = fork();
  if (pid == 0) {
    char b[4];
    memset(b, 65, 200);
    exit(0);
  }
  print_int(waitpid());
  return 0;
}
|}
      ~scheme:Pssp.Scheme.Ssp
  in
  (* crashed children report 256 lor signal; the memset runs off the
     top of the stack mapping, so this is 256 lor SIGSEGV(11) = 267 *)
  Alcotest.(check string) "wait status" "267" (Os.Process.stdout p)

let test_fd_ops_need_a_conn () =
  (* stdin and stdout are not connections: the fd builtins fail on them
     (and on a listener) instead of touching the process's stdio *)
  let _, p, stop =
    run ~input:(Bytes.of_string "abcdefgh")
      {|
int main() {
  char buf[8];
  int lfd;
  lfd = socket();
  print_int(read(0, buf, 8));
  print_int(read(lfd, buf, 8));
  print_int(write(1, buf, 8));
  print_int(write_str(1, "x"));
  print_int(write_int(1, 7));
  return 0;
}
|}
  in
  Alcotest.(check string) "exit" "exited 0" (Os.Kernel.stop_to_string stop);
  Alcotest.(check string) "every call -1, stdout untouched" "-1-1-1-1-1"
    (Os.Process.stdout p)

let test_waitpid_without_children () =
  let _, p, _ = run "int main() { print_int(waitpid()); return 0; }" in
  Alcotest.(check string) "-1" "-1" (Os.Process.stdout p)

let test_reap_order_is_fork_order () =
  (* waitpid reaps pending children in fork order (queue head first),
     regardless of which child happens to die first — the determinism
     the load campaigns' byte-identical replays lean on *)
  let _, p, _ =
    run
      {|
int main() {
  int i;
  int pid;
  for (i = 0; i < 3; i++) {
    pid = fork();
    if (pid == 0) {
      exit(10 + i);
    }
  }
  print_int(waitpid());
  print_str(" ");
  print_int(waitpid());
  print_str(" ");
  print_int(waitpid());
  return 0;
}
|}
  in
  Alcotest.(check string) "fork order" "10 11 12" (Os.Process.stdout p)

let test_spurious_waitpid_wake () =
  (* B dies while the older child A still runs: B's death wakes the
     parked parent, whose waitpid must park again until A, the oldest
     pending child, dies *)
  let _, p, stop =
    run
      {|
int main() {
  int i;
  int pid;
  pid = fork();
  if (pid == 0) {
    for (i = 0; i < 200000; i++) { }
    exit(3);
  }
  pid = fork();
  if (pid == 0) {
    exit(4);
  }
  print_int(waitpid());
  print_str(" ");
  print_int(waitpid());
  print_str(" ");
  print_int(waitpid());
  return 0;
}
|}
  in
  Alcotest.(check string) "exit" "exited 0" (Os.Kernel.stop_to_string stop);
  Alcotest.(check string) "oldest child first" "3 4 -1" (Os.Process.stdout p)

let test_nested_fork () =
  let _, p, _ =
    run
      {|
int main() {
  int pid = fork();
  if (pid == 0) {
    int pid2 = fork();
    if (pid2 == 0) {
      exit(3);
    }
    print_int(waitpid());
    exit(4);
  }
  print_int(waitpid());
  return 0;
}
|}
  in
  (* the child's print lands in its own (cloned) stdout; the parent sees
     only its own waitpid result *)
  Alcotest.(check string) "parent sees child status" "4" (Os.Process.stdout p)

let test_fork_cow_telemetry () =
  let k, p, stop = run fork_src in
  Alcotest.(check string) "exit" "exited 0" (Os.Kernel.stop_to_string stop);
  Alcotest.(check int) "kernel served one fork" 1 (Os.Kernel.fork_count k);
  let mem = p.Os.Process.mem in
  let st = Vm64.Memory.family_stats mem in
  Alcotest.(check int) "one address-space clone" 1 st.Vm64.Memory.clones;
  Alcotest.(check bool) "fork aliased pages instead of copying" true
    (st.Vm64.Memory.pages_aliased > 0);
  Alcotest.(check bool) "only dirtied pages were copied" true
    (st.Vm64.Memory.cow_breaks > 0
    && st.Vm64.Memory.cow_breaks < st.Vm64.Memory.pages_aliased);
  Alcotest.(check int) "resident + shared = mapped"
    (Vm64.Memory.mapped_bytes mem)
    (Vm64.Memory.resident_bytes mem + Vm64.Memory.shared_bytes mem)

let test_fork_tls_cloned () =
  (* the vulnerability byte-by-byte exploits: child inherits the parent's
     TLS canary under plain glibc *)
  let k = Os.Kernel.create () in
  let image = compile fork_src in
  let p = Os.Kernel.spawn k image in
  let parent_canary = Pssp.Tls.canary p.Os.Process.mem ~fs_base:Vm64.Layout.tls_base in
  ignore (kernel_run k p);
  match Os.Kernel.last_reaped k with
  | Some child ->
    Alcotest.check i64 "child canary = parent canary" parent_canary
      (Pssp.Tls.canary child.Os.Process.mem ~fs_base:Vm64.Layout.tls_base)
  | None -> Alcotest.fail "no child"

(* ---- preload modes ------------------------------------------------------------ *)

let shadow_of (p : Os.Process.t) =
  Pssp.Tls.shadow_pair p.Os.Process.mem ~fs_base:Vm64.Layout.tls_base

let canary_of (p : Os.Process.t) =
  Pssp.Tls.canary p.Os.Process.mem ~fs_base:Vm64.Layout.tls_base

let test_preload_pssp_wide () =
  let k = Os.Kernel.create () in
  let p = Os.Kernel.spawn k ~preload:Os.Preload.Pssp_wide (compile fork_src) in
  let c = canary_of p in
  let pair = shadow_of p in
  Alcotest.check i64 "shadow XORs to C at start" c (Pssp.Canary.combine pair);
  ignore (kernel_run k p);
  (match Os.Kernel.last_reaped k with
  | Some child ->
    let child_pair = shadow_of child in
    Alcotest.check i64 "child shadow still XORs to C" c
      (Pssp.Canary.combine child_pair);
    Alcotest.(check bool) "child pair re-randomized" false
      (child_pair.Pssp.Canary.c0 = pair.Pssp.Canary.c0);
    Alcotest.check i64 "TLS canary itself unchanged (the P-SSP caveat)" c
      (canary_of child)
  | None -> Alcotest.fail "no child")

let test_preload_raf_changes_canary () =
  let k = Os.Kernel.create () in
  let p = Os.Kernel.spawn k ~preload:Os.Preload.Raf (compile ~scheme:Pssp.Scheme.Ssp fork_src) in
  let c = canary_of p in
  ignore (kernel_run k p);
  match Os.Kernel.last_reaped k with
  | Some child ->
    Alcotest.(check bool) "RAF refreshed the TLS canary" false (canary_of child = c)
  | None -> Alcotest.fail "no child"

let test_preload_packed () =
  let k = Os.Kernel.create () in
  let p = Os.Kernel.spawn k ~preload:Os.Preload.Pssp_packed (compile fork_src) in
  let c = canary_of p in
  let w = Pssp.Tls.shadow_packed p.Os.Process.mem ~fs_base:Vm64.Layout.tls_base in
  Alcotest.(check bool) "packed word valid" true
    (Pssp.Canary.packed32_checks_out ~tls_canary:c w)

(* ---- threads -------------------------------------------------------------------- *)

let test_pthread_create () =
  let _, p, stop =
    run
      {|
int worker(int arg) {
  print_int(arg * 2);
  return 0;
}

int main() {
  pthread_create(&worker, 21);
  waitpid();
  return 0;
}
|}
  in
  ignore p;
  (* worker output goes to the thread's own buffer in our model; the main
     process must exit cleanly after joining *)
  Alcotest.(check string) "joined" "exited 0" (Os.Kernel.stop_to_string stop)

(* ---- image ------------------------------------------------------------------------ *)

let test_image_symbols () =
  let image = compile "int helper() { return 1; } int main() { return helper(); }" in
  Alcotest.(check bool) "has main" true (Os.Image.find_symbol image "main" <> None);
  Alcotest.(check bool) "has helper" true (Os.Image.find_symbol image "helper" <> None);
  let main = Os.Image.find_symbol_exn image "main" in
  Alcotest.(check bool) "main covered" true
    (Os.Image.symbol_covering image main.Os.Image.sym_addr <> None);
  Alcotest.(check bool) "code size positive" true (Os.Image.code_size image > 0)

let test_image_clone_isolated () =
  let image = compile "int main() { return 0; }" in
  let copy = Os.Image.clone image in
  Bytes.set copy.Os.Image.text 0 '\xFF';
  Alcotest.(check bool) "original untouched" false
    (Bytes.get image.Os.Image.text 0 = '\xFF')

let test_image_disassemble () =
  let image = compile "int main() { return 3; }" in
  let listing = Os.Image.disassemble_symbol image "main" in
  Alcotest.(check bool) "has instructions" true (List.length listing > 3);
  match listing with
  | (_, Isa.Insn.Push _) :: _ -> ()
  | _ -> Alcotest.fail "main should start with push %rbp"

let test_text_write_not_seen () =
  (* Loaded text is sealed. A write to a server's text between requests
     faults at the written address, and the server keeps running the
     helper it loaded. *)
  let src =
    {|
int helper() { return 1; }
int main() {
  int lfd;
  int fd;
  lfd = socket();
  bind(lfd, 8080);
  listen(lfd, 16);
  while (1) {
    fd = accept();
    if (fd < 0) { break; }
    print_int(helper());
    close(fd);
  }
  return 0;
}
|}
  in
  let k = Os.Kernel.create () in
  let p = Os.Kernel.spawn k (compile src) in
  (match kernel_run k p with
  | Os.Kernel.Stop_accept -> ()
  | other -> Alcotest.fail (Os.Kernel.stop_to_string other));
  ignore (kernel_resume k p (Bytes.of_string "x"));
  Alcotest.(check string) "original helper" "1" (Os.Process.stdout p);
  let helper = (Os.Image.find_symbol_exn p.Os.Process.image "helper").Os.Image.sym_addr in
  let patch =
    Isa.Encode.list_to_bytes
      [ Isa.Insn.Mov (Isa.Operand.reg Isa.Reg.RAX, Isa.Operand.imm 2L); Isa.Insn.Ret ]
  in
  (match Vm64.Memory.write_bytes p.Os.Process.mem helper patch with
  | exception Vm64.Fault.Trap (Vm64.Fault.Segfault a) ->
    Alcotest.check i64 "the write faults where it lands" helper a
  | () -> Alcotest.fail "a write to text went through");
  ignore (kernel_resume k p (Bytes.of_string "x"));
  Alcotest.(check string) "the loaded helper after the write" "11" (Os.Process.stdout p)

(* ---- W^X ---------------------------------------------------------------- *)

(* A process image of hand-written code at the text base, entered at
   its first instruction; calls name glibc functions. *)
let asm_image items =
  let a =
    Isa.Builder.assemble (Isa.Builder.of_items items) ~base:Vm64.Layout.text_base
      ~externs:(fun s -> Some (Os.Glibc.addr_of s))
  in
  let label l = Int64.add Vm64.Layout.text_base (Int64.of_int (List.assoc l a.labels)) in
  let main =
    { Os.Image.sym_name = "main"; sym_addr = Vm64.Layout.text_base;
      sym_size = Bytes.length a.code }
  in
  (Os.Image.create ~name:"wx" ~entry:"main" ~text:a.code ~symbols:[ main ] (), label)

let with_compiled on f =
  Vm64.Compile.set_enabled on;
  Fun.protect ~finally:(fun () -> Vm64.Compile.set_enabled true) f

(* The process was killed by SIGSEGV at [addr] with rip at [rip]. *)
let check_segv what (p : Os.Process.t) ~addr ~rip =
  (match p.Os.Process.status with
  | Os.Process.Killed (Os.Process.Sigsegv, msg) ->
    Alcotest.(check string) what (Vm64.Fault.to_string (Vm64.Fault.Segfault addr)) msg
  | _ -> Alcotest.failf "%s: %s" what (Os.Process.status_to_string p.Os.Process.status));
  Alcotest.check i64 (what ^ ": rip") rip (Vm64.Cpu.rip p.Os.Process.cpu)

(* A guest store into its own text is killed with SIGSEGV at the
   written address, whichever path makes it: a compiled store in a
   never-forked process, whose text page was private before the loader
   sealed it; a compiled store in a fork child, on a page it shares; the
   interpreter; a glibc builtin's copy. The same holds with compiled
   execution on and off. *)
let test_store_into_text_killed () =
  let open Isa.Insn in
  let open Isa.Builder in
  let r = Isa.Operand.reg and imm = Isa.Operand.imm in
  let target = Int64.add Vm64.Layout.text_base 1L in
  let store =
    [ Instruction (Mov (r Isa.Reg.RAX, imm target)); Label "store";
      Instruction (Mov (Isa.Operand.mem ~base:Isa.Reg.RAX 0L, r Isa.Reg.RCX)) ]
  in
  let exit0 = [ Instruction (Mov (r Isa.Reg.RDI, imm 0L)); Instruction (Call (Sym "exit")) ] in
  let builtin name args =
    List.mapi (fun i v -> Instruction (Mov (r (List.nth Isa.Reg.arg_registers i), v))) args
    @ [ Instruction (Call (Sym name)); Label "returned" ]
    @ exit0
  in
  List.iter
    (fun compiled ->
      with_compiled compiled @@ fun () ->
      let what s = Printf.sprintf "%s (compiled %b)" s compiled in
      let spawn ?input items =
        let image, label = asm_image (Label "main" :: items) in
        let k = Os.Kernel.create () in
        let p = Os.Kernel.spawn k ?input image in
        let stop = kernel_run k p in
        (k, p, stop, label)
      in
      let _, p, _, label = spawn (store @ exit0) in
      check_segv (what "never-forked store") p ~addr:target ~rip:(label "store");
      let k, _, stop, label =
        spawn
          ([ Instruction (Call (Sym "fork"));
             Instruction (Bin (Cmp, r Isa.Reg.RAX, imm 0L));
             Instruction (Jcc (NE, Sym "parent")) ]
          @ store @ exit0
          @ [ Label "parent"; Instruction (Call (Sym "waitpid"));
              Instruction (Mov (r Isa.Reg.RDI, r Isa.Reg.RAX));
              Instruction (Call (Sym "exit")) ])
      in
      Alcotest.(check string) (what "parent reaps a SIGSEGV") "exited 267"
        (Os.Kernel.stop_to_string stop);
      check_segv (what "fork child's store")
        (Option.get (Os.Kernel.last_reaped k))
        ~addr:target ~rip:(label "store");
      (* a builtin faults inside the call, with rip at its return point *)
      let _, p, _, label = spawn (builtin "memcpy" [ imm target; r Isa.Reg.RSP; imm 8L ]) in
      check_segv (what "memcpy into text") p ~addr:target ~rip:(label "returned");
      let _, p, _, label =
        spawn ~input:(Bytes.of_string "AAAA") (builtin "read_input" [ imm target ])
      in
      check_segv (what "read_input into text") p ~addr:target ~rip:(label "returned"))
    [ false; true ]

(* A jmp into the stack or a ret into the heap faults with SIGSEGV at
   that rip: data is not executable, whatever bytes it holds. *)
let test_data_not_executable () =
  let open Isa.Insn in
  let open Isa.Builder in
  let r = Isa.Operand.reg and imm = Isa.Operand.imm in
  let stack = Int64.sub Vm64.Layout.stack_top 0x1000L and heap = Vm64.Layout.heap_base in
  List.iter
    (fun compiled ->
      with_compiled compiled @@ fun () ->
      List.iter
        (fun (what, addr, items) ->
          let what = Printf.sprintf "%s (compiled %b)" what compiled in
          let image, _ = asm_image (Label "main" :: List.map (fun i -> Instruction i) items) in
          let k = Os.Kernel.create () in
          let p = Os.Kernel.spawn k image in
          (* a hlt where the jump lands: only the fetch can stop it *)
          Vm64.Memory.write_bytes p.Os.Process.mem addr (Isa.Encode.list_to_bytes [ Hlt ]);
          ignore (kernel_run k p);
          check_segv what p ~addr ~rip:addr)
        [
          ("jmp into the stack", stack, [ Jmp (Abs stack) ]);
          ("ret into the heap", heap, [ Mov (r Isa.Reg.RAX, imm heap); Push (r Isa.Reg.RAX); Ret ]);
        ])
    [ false; true ]

let test_glibc_addr_roundtrip () =
  List.iter
    (fun name ->
      match Os.Glibc.name_of_addr (Os.Glibc.addr_of name) with
      | Some n -> Alcotest.(check string) "roundtrip" name n
      | None -> Alcotest.fail name)
    Os.Glibc.names

(* AES_ENCRYPT_128 keeps the last key schedule it expanded. Two keys,
   alternating every second call so the memo both hits and misses, must
   each encrypt under their own schedule, exactly as a fresh expansion
   does. *)
let test_aes_key_memo () =
  let core = Option.get (Os.Glibc.inline_core "AES_ENCRYPT_128") in
  let cpu = Vm64.Cpu.create () and mem = Vm64.Memory.create () in
  let keys = [| (0x0F0E0D0C0B0A0908L, 0x0706050403020100L); (1L, 2L) |] in
  for i = 0 to 7 do
    let ((lo, hi) as key) = keys.((i lsr 1) land 1) in
    let pt = (Int64.of_int (i * 0x1111), Int64.of_int (0x5A5A - i)) in
    Vm64.Cpu.set_xmm cpu Isa.Reg.Xmm.xmm1 key;
    Vm64.Cpu.set_xmm cpu Isa.Reg.Xmm.xmm15 pt;
    ignore (core cpu mem);
    let want = Crypto.Aes128.encrypt_int64s (Crypto.Aes128.key_of_int64s lo hi) (fst pt) (snd pt) in
    if Vm64.Cpu.get_xmm cpu Isa.Reg.Xmm.xmm15 <> want then
      Alcotest.failf "call %d: ciphertext differs from a fresh key expansion" i
  done

let test_minic_builtins_exist_in_glibc () =
  (* every function the typechecker allows must actually be dispatchable *)
  List.iter
    (fun (name, _) ->
      Alcotest.(check bool) (name ^ " has a slot") true
        (List.mem name Os.Glibc.names))
    Minic.Typecheck.builtins

(* ---- debug ------------------------------------------------------------------- *)

let test_tracer_ring () =
  let tracer = Os.Debug.ring_tracer ~capacity:4 in
  let k = Os.Kernel.create ~on_retire:(Os.Debug.on_retire tracer) () in
  let p = Os.Kernel.spawn k (compile "int main() { return 1 + 2; }") in
  ignore (kernel_run k p);
  let lines = Os.Debug.recent tracer () in
  Alcotest.(check int) "window size" 4 (List.length lines);
  Alcotest.(check bool) "many retired" true (Os.Debug.retired tracer > 4);
  (* oldest first: the last retained line is the final call into exit *)
  match List.rev lines with
  | last :: _ ->
    Alcotest.(check bool) "tail is the exit call" true
      (let n = String.length last in
       n > 4 && String.sub last (n - 4) 4 = "exit"
       || String.length last > 0)
  | [] -> Alcotest.fail "empty trace"

let test_backtrace_nested () =
  let src =
    {|
int inner(int x) {
  char b[8];
  b[0] = x;
  exit(b[0] + 90);
  return 0;
}

int middle(int x) { return inner(x + 1); }
int outer(int x) { return middle(x + 1); }
int main() { return outer(1); }
|}
  in
  let k = Os.Kernel.create () in
  let p = Os.Kernel.spawn k (compile src) in
  (* run until exit; backtrace at that point still has the frames *)
  ignore (kernel_run k p);
  let frames = Os.Debug.backtrace p in
  let names = List.filter_map (fun f -> f.Os.Debug.in_function) frames in
  Alcotest.(check bool) "sees middle" true (List.mem "middle" names);
  Alcotest.(check bool) "sees outer" true (List.mem "outer" names);
  Alcotest.(check bool) "sees main" true (List.mem "main" names)

let test_backtrace_survives_smash () =
  let k = Os.Kernel.create () in
  let p =
    Os.Kernel.spawn k ~input:(Bytes.make 64 'Z')
      (compile ~scheme:Pssp.Scheme.None_ (Workload.Vuln.echo_once ~buffer_size:16))
  in
  ignore (kernel_run k p);
  (* the rbp chain is trashed; the walker must terminate, not loop *)
  let frames = Os.Debug.backtrace p in
  Alcotest.(check bool) "bounded" true (List.length frames <= 64)

(* ---- autopsy ----------------------------------------------------------------- *)

let autopsy_of ?input ~scheme src =
  let k = Os.Kernel.create () in
  let p = Os.Kernel.spawn k ?input ~preload:(Mcc.Driver.preload_for scheme) (compile ~scheme src) in
  ignore (kernel_run k p);
  Os.Autopsy.examine p

let vuln_src = Workload.Vuln.echo_once ~buffer_size:16

let test_autopsy_clean () =
  let r = autopsy_of ~scheme:Pssp.Scheme.Pssp ~input:(Bytes.of_string "hi") vuln_src in
  (match r.Os.Autopsy.verdict with
  | Os.Autopsy.Clean_exit 0 -> ()
  | v -> Alcotest.fail (Os.Autopsy.verdict_to_string v))

let test_autopsy_canary_abort () =
  let r = autopsy_of ~scheme:Pssp.Scheme.Pssp ~input:(Bytes.make 48 'A') vuln_src in
  match r.Os.Autopsy.verdict with
  | Os.Autopsy.Canary_abort _ -> ()
  | v -> Alcotest.fail (Os.Autopsy.verdict_to_string v)

let test_autopsy_hijack () =
  let r = autopsy_of ~scheme:Pssp.Scheme.None_ ~input:(Bytes.make 48 'A') vuln_src in
  match r.Os.Autopsy.verdict with
  | Os.Autopsy.Control_flow_hijack { target = 0x4141414141414141L; payload_shaped = true } -> ()
  | v -> Alcotest.fail (Os.Autopsy.verdict_to_string v)

let test_autopsy_wild_fault () =
  (* corrupt a pointer, not the return address: fault in mapped code *)
  let src =
    {|
int main() {
  int *p = malloc(8);
  p = p + 90000000;
  p[0] = 1;
  return 0;
}
|}
  in
  let r = autopsy_of ~scheme:Pssp.Scheme.None_ src in
  match r.Os.Autopsy.verdict with
  | Os.Autopsy.Wild_fault _ ->
    Alcotest.(check bool) "rip still in main" true
      (r.Os.Autopsy.crash_function = Some "main")
  | v -> Alcotest.fail (Os.Autopsy.verdict_to_string v)

(* ---- objfile ---------------------------------------------------------------- *)

let test_objfile_roundtrip () =
  List.iter
    (fun (scheme, linkage) ->
      let image =
        Mcc.Driver.compile ~scheme ~linkage
          (Minic.Parser.parse (Workload.Vuln.fork_server_net ~buffer_size:16))
      in
      let back = Os.Objfile.read (Os.Objfile.write image) in
      Alcotest.(check bool) "text" true (Bytes.equal back.Os.Image.text image.Os.Image.text);
      Alcotest.(check bool) "data" true (Bytes.equal back.Os.Image.data image.Os.Image.data);
      Alcotest.(check bool) "extra" true (Bytes.equal back.Os.Image.extra image.Os.Image.extra);
      Alcotest.(check bool) "symbols" true (back.Os.Image.symbols = image.Os.Image.symbols);
      Alcotest.(check bool) "entry" true (back.Os.Image.entry = image.Os.Image.entry);
      Alcotest.(check bool) "linkage" true (back.Os.Image.linkage = image.Os.Image.linkage);
      Alcotest.(check string) "tag" image.Os.Image.scheme_tag back.Os.Image.scheme_tag)
    [
      (Pssp.Scheme.Pssp, Os.Image.Dynamic);
      (Pssp.Scheme.Ssp, Os.Image.Static);
      (Pssp.Scheme.Pssp_owf, Os.Image.Dynamic);
    ]

let test_objfile_rewritten_roundtrip () =
  (* an instrumented static image (with extra section) survives the trip
     and still runs *)
  let ssp =
    Mcc.Driver.compile ~scheme:Pssp.Scheme.Ssp ~linkage:Os.Image.Static
      (Minic.Parser.parse (Workload.Vuln.echo_once ~buffer_size:16))
  in
  let patched, _ = Rewriter.Driver.instrument ssp in
  let back = Os.Objfile.read (Os.Objfile.write patched) in
  let k = Os.Kernel.create () in
  let p = Os.Kernel.spawn k ~input:(Bytes.of_string "ok") back in
  Alcotest.(check bool) "reloaded binary runs" true
    (kernel_run k p = Os.Kernel.Stop_exit 0)

let test_objfile_rejects_garbage () =
  let check_fails b =
    match Os.Objfile.read b with
    | exception Os.Objfile.Format_error _ -> ()
    | _ -> Alcotest.fail "garbage accepted"
  in
  check_fails (Bytes.of_string "not an executable");
  check_fails (Bytes.of_string "PSSPEXE\x00");
  (* truncation anywhere in a valid file must be caught *)
  let image = compile "int main() { return 0; }" in
  let good = Os.Objfile.write image in
  check_fails (Bytes.sub good 0 (Bytes.length good - 3));
  check_fails (Bytes.sub good 0 20)

(* An object file may name any section base; one outside the guest
   layout must be refused at load time rather than reach Kernel.spawn,
   whose page table covers only [0, Layout.address_limit). *)
let test_objfile_rejects_out_of_layout () =
  let image = compile "int main() { return 0; }" in
  let high = 0x7FFF_0000_0000_0000L in
  let crafted =
    {
      image with
      Os.Image.text_base = high;
      entry = Int64.add high (Int64.sub image.Os.Image.entry image.Os.Image.text_base);
    }
  in
  (match Os.Objfile.read (Os.Objfile.write crafted) with
  | exception Os.Objfile.Format_error msg ->
    Alcotest.(check string) "pinned error"
      (Printf.sprintf
         "text section [0x7fff000000000000, +%d) outside the guest layout [0, 0x8000000)"
         (Bytes.length image.Os.Image.text))
      msg
  | _ -> Alcotest.fail "out-of-layout text accepted");
  Alcotest.check_raises "spawn refuses it too"
    (Invalid_argument "Memory.map: outside the 128 MiB guest layout") (fun () ->
      ignore (Os.Kernel.spawn (Os.Kernel.create ()) crafted));
  (* data is mapped at least one page: a base in the last page overflows *)
  let edge = { image with Os.Image.data_base = Int64.sub Vm64.Layout.address_limit 16L } in
  match Os.Objfile.read (Os.Objfile.write edge) with
  | exception Os.Objfile.Format_error _ -> ()
  | _ -> Alcotest.fail "data page past the layout accepted"

let test_objfile_save_load () =
  let image = compile "int main() { print_str(\"persisted\"); return 0; }" in
  let path = Filename.temp_file "pssp" ".bin" in
  Os.Objfile.save image path;
  let back = Os.Objfile.load path in
  Sys.remove path;
  let k = Os.Kernel.create () in
  let p = Os.Kernel.spawn k back in
  ignore (kernel_run k p);
  Alcotest.(check string) "runs after reload" "persisted" (Os.Process.stdout p)

(* ---- kernel bookkeeping ------------------------------------------------------ *)

let qcheck_int_hash =
  QCheck.Test.make ~name:"Int_table.hash is Hashtbl.hash" ~count:100_000
    QCheck.(oneof [ int; small_signed_int; int_range (-(1 lsl 33)) (1 lsl 33) ])
    (fun v -> Os.Glibc.Int_table.hash v = Hashtbl.hash v)

let test_int_hash_edges () =
  List.iter
    (fun v ->
      Alcotest.(check int) (string_of_int v) (Hashtbl.hash v) (Os.Glibc.Int_table.hash v))
    [ 0; 1; -1; 2; 1 lsl 31; -(1 lsl 31); 1 lsl 32; -(1 lsl 32); min_int; max_int ]

let sweep what k =
  match Os.Kernel.check_invariants k with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "%s: %s" what msg

(* The byte-by-byte attack's trial loop (Attack.Byte_by_byte.run's
   shape): sweep the 256 guesses for the next canary byte, keep a
   survivor's byte, try a hijack once the canary is complete, and
   restart the victim when a sweep finds no survivor or the hijack
   fails. The kernel is swept after every query and restart. *)
let attack_with_sweeps ~scheme ~respawn ~trials =
  let image = compile ~scheme (Workload.Vuln.fork_server_net ~buffer_size:16) in
  let o =
    Attack.Oracle.create ~preload:(Mcc.Driver.preload_for scheme) ~respawn image
  in
  let layout = Harness.Layouts.compiler_layout scheme ~buffer_size:16 in
  let known = ref Bytes.empty and guess = ref 0 in
  let restart () =
    known := Bytes.empty;
    guess := 0;
    ignore (Attack.Oracle.restart_victim o)
  in
  for trial = 1 to trials do
    let complete = Bytes.length !known = layout.Attack.Payload.canary_len in
    let payload =
      if complete then Attack.Payload.hijack layout ~canary:!known
      else Attack.Payload.guess_prefix layout ~known:!known ~guess:!guess
    in
    (match Attack.Oracle.query o payload with
    | Attack.Oracle.Server_down detail -> Alcotest.failf "trial %d: %s" trial detail
    | Attack.Oracle.Survived _ when not complete ->
      known := Bytes.cat !known (Bytes.make 1 (Char.chr !guess));
      guess := 0
    | _ -> if complete || !guess = 255 then restart () else incr guess);
    sweep (Printf.sprintf "after trial %d" trial) (Attack.Oracle.kernel o)
  done;
  o

let test_sweep_pssp_attack () =
  let o =
    attack_with_sweeps ~scheme:Pssp.Scheme.Pssp ~respawn:Attack.Oracle.No_respawn
      ~trials:2000
  in
  Alcotest.(check int) "one kernel throughout" 0 (Attack.Oracle.respawns o)

let test_sweep_shadow_zygote_attack () =
  (* no canary to guess: every trial is a failed hijack and a restart *)
  let o =
    attack_with_sweeps ~scheme:Pssp.Scheme.Shadow_compact
      ~respawn:Attack.Oracle.Zygote ~trials:2000
  in
  Alcotest.(check int) "a zygote restart per trial" 2000 (Attack.Oracle.respawns o)

(* Harness.Runner.run_load's pump, with a sweep after every kernel turn
   and after the drain. *)
let load_with_sweeps profile =
  let built =
    Harness.Runner.build (Harness.Runner.Compiler Pssp.Scheme.Pssp)
      (Minic.Parser.parse profile.Workload.Servers.source)
  in
  let k = Os.Kernel.create ~seed:0x5E44EL () in
  let server =
    Os.Kernel.spawn k ~preload:built.Harness.Runner.preload built.Harness.Runner.image
  in
  Os.Kernel.enqueue k server;
  Os.Kernel.schedule k;
  sweep "at boot" k;
  Os.Kernel.set_conn_timeout k (Some 2_000_000L);
  let lg =
    Net.Loadgen.create ~seed:0x10AD6E4L ~slow_every:17 ~abort_every:97
      ~mode:Net.Loadgen.Closed ~clients:8 ~keepalive:4 ~total:200
      ~mix:profile.Workload.Servers.requests ()
  in
  let turn = ref 0 in
  while not (Net.Loadgen.finished lg) do
    let now0 = Os.Kernel.now k in
    let moved =
      Net.Loadgen.step lg ~now:now0 ~try_connect:(fun () -> Os.Kernel.connect k server)
    in
    Os.Kernel.schedule k ~fuel:262_144;
    incr turn;
    sweep (Printf.sprintf "after turn %d" !turn) k;
    if (not moved) && Os.Kernel.now k = now0 && not (Net.Loadgen.finished lg) then
      match
        List.filter_map Fun.id [ Net.Loadgen.next_event lg; Os.Kernel.next_deadline k ]
      with
      | [] -> Alcotest.failf "wedged after turn %d" !turn
      | ds -> Os.Kernel.advance_to k (List.fold_left min Int64.max_int ds)
  done;
  Os.Kernel.schedule k;
  Option.iter
    (fun d ->
      Os.Kernel.advance_to k d;
      Os.Kernel.schedule k)
    (Os.Kernel.next_deadline k);
  Os.Kernel.reap_zombies k server;
  sweep "after the drain" k;
  let r = Net.Loadgen.report lg in
  Alcotest.(check bool) "requests completed" true (r.Net.Loadgen.completed > 100)

(* A child parked in a conn read whose retry faults (its buffer is
   unmapped) dies still registered for the conn timeout sweep; its
   reap must take it out of that registry too. *)
let test_sweep_killed_in_read () =
  let src =
    {|
int main() {
  int lfd;
  int fd;
  int *p = malloc(8);
  lfd = socket();
  bind(lfd, 8080);
  listen(lfd, 4);
  if (fork() == 0) {
    fd = accept();
    p = p + 90000000;
    read(fd, p, 8);
    return 0;
  }
  return waitpid();
}
|}
  in
  let k = Os.Kernel.create () in
  let p = Os.Kernel.spawn k (compile src) in
  Alcotest.(check bool) "parent waits" true (kernel_run k p = Os.Kernel.Stop_io);
  let conn = Option.get (Os.Kernel.connect k p) in
  Os.Kernel.schedule k;
  sweep "child parked in read" k;
  ignore (Net.Conn.client_send conn ~now:(Os.Kernel.now k) "hello");
  Os.Kernel.schedule k;
  (match Os.Kernel.last_reaped k with
  | Some { Os.Process.status = Os.Process.Killed (Os.Process.Sigsegv, _); _ } -> ()
  | _ -> Alcotest.fail "the child did not die of its read");
  Alcotest.(check bool) "parent exited" true
    (match Os.Kernel.stop_of p with Os.Kernel.Stop_exit _ -> true | _ -> false);
  sweep "after the reap" k

(* A zombie is reapable only from its parent's queue: the sweep names
   one missing from it, and a queue entry that is not the owner's
   child. *)
let test_sweep_zombie_queued () =
  let src =
    {|
int main() {
  int lfd;
  lfd = socket();
  bind(lfd, 8080);
  listen(lfd, 4);
  if (fork() == 0) {
    return 0;
  }
  accept();
  return 0;
}
|}
  in
  let k = Os.Kernel.create () in
  let p = Os.Kernel.spawn k (compile src) in
  Alcotest.(check bool) "parent in accept" true (kernel_run k p = Os.Kernel.Stop_accept);
  let q = p.Os.Process.pending_children in
  let zombie = Queue.peek q in
  Alcotest.(check bool) "an unreaped zombie" true
    (Os.Process.status_is_dead zombie.Os.Process.status && not zombie.Os.Process.reaped);
  sweep "zombie in its parent's queue" k;
  let expect what msg =
    Alcotest.(check (result unit string)) what (Error msg) (Os.Kernel.check_invariants k)
  in
  Queue.clear q;
  expect "dropped from the queue"
    (Printf.sprintf "zombie pid %d is not queued by its parent %d" zombie.Os.Process.pid
       p.Os.Process.pid);
  Queue.push zombie q;
  let stranger = Os.Kernel.spawn k (compile src) in
  Queue.push stranger q;
  expect "a stranger in the queue"
    (Printf.sprintf "pid %d is queued by pid %d, which is not its parent"
       stranger.Os.Process.pid p.Os.Process.pid);
  ignore (Queue.pop q);
  ignore (Queue.pop q);
  Queue.push zombie q;
  sweep "queue restored" k;
  Os.Kernel.reap_zombies k p;
  sweep "after the reap" k

(* A child that crashes while its parent still holds the conn they
   share drops its own hold: the parent's fd is the conn's only one. *)
let test_sweep_crash_on_shared_conn () =
  let src =
    {|
int main() {
  int lfd;
  int fd;
  lfd = socket();
  bind(lfd, 8080);
  listen(lfd, 4);
  fd = accept();
  if (fork() == 0) {
    abort();
  }
  waitpid();
  accept();
  return 0;
}
|}
  in
  let k = Os.Kernel.create () in
  let p = Os.Kernel.spawn k (compile src) in
  ignore (kernel_run k p);
  let conn = Option.get (Os.Kernel.connect k p) in
  Os.Kernel.schedule k;
  Alcotest.(check bool) "parent back in accept" true
    (Os.Kernel.stop_of p = Os.Kernel.Stop_accept);
  Alcotest.(check bool) "the crash reset the conn" true (Net.Conn.is_reset conn);
  Alcotest.(check int) "one hold left" 1 (Net.Conn.server_refs conn);
  sweep "after the crash" k

let test_sweep_fork_load () = load_with_sweeps Workload.Servers.nginx
let test_sweep_event_load () =
  load_with_sweeps (Workload.Servers.event_loop Workload.Servers.nginx)

let () =
  Alcotest.run "os"
    [
      ( "lifecycle",
        [
          Alcotest.test_case "exit code" `Quick test_exit_code;
          Alcotest.test_case "exit builtin" `Quick test_exit_builtin;
          Alcotest.test_case "stdout" `Quick test_stdout;
          Alcotest.test_case "stdin" `Quick test_stdin;
          Alcotest.test_case "abort" `Quick test_abort;
          Alcotest.test_case "dead process rejected" `Quick test_run_dead_process_rejected;
        ] );
      ( "glibc",
        [
          Alcotest.test_case "string builtins" `Quick test_string_builtins;
          Alcotest.test_case "memset/memcpy" `Quick test_memset_memcpy;
          Alcotest.test_case "malloc/free" `Quick test_malloc_free;
          Alcotest.test_case "rand reproducible" `Quick test_rand_deterministic_per_seed;
          Alcotest.test_case "getpid" `Quick test_getpid;
          Alcotest.test_case "slot roundtrip" `Quick test_glibc_addr_roundtrip;
          Alcotest.test_case "fd ops need a connection" `Quick test_fd_ops_need_a_conn;
          Alcotest.test_case "AES key schedule memo" `Quick test_aes_key_memo;
          Alcotest.test_case "minic builtins covered" `Quick
            test_minic_builtins_exist_in_glibc;
        ] );
      ( "fork",
        [
          Alcotest.test_case "memory isolation" `Quick test_fork_isolation;
          Alcotest.test_case "wait status" `Quick test_fork_wait_status;
          Alcotest.test_case "crash encoding" `Quick test_waitpid_encodes_crash;
          Alcotest.test_case "wait without children" `Quick test_waitpid_without_children;
          Alcotest.test_case "reap order is fork order" `Quick
            test_reap_order_is_fork_order;
          Alcotest.test_case "spurious waitpid wake parks again" `Quick
            test_spurious_waitpid_wake;
          Alcotest.test_case "nested fork" `Quick test_nested_fork;
          Alcotest.test_case "cow telemetry" `Quick test_fork_cow_telemetry;
          Alcotest.test_case "TLS cloned (SII-B)" `Quick test_fork_tls_cloned;
        ] );
      ( "preload",
        [
          Alcotest.test_case "P-SSP wide shadow" `Quick test_preload_pssp_wide;
          Alcotest.test_case "RAF refreshes C" `Quick test_preload_raf_changes_canary;
          Alcotest.test_case "packed shadow" `Quick test_preload_packed;
        ] );
      ( "threads",
        [ Alcotest.test_case "pthread_create" `Quick test_pthread_create ] );
      ( "image",
        [
          Alcotest.test_case "symbols" `Quick test_image_symbols;
          Alcotest.test_case "clone isolation" `Quick test_image_clone_isolated;
          Alcotest.test_case "disassemble" `Quick test_image_disassemble;
          Alcotest.test_case "in-place text write is not seen" `Quick
            test_text_write_not_seen;
        ] );
      ( "wx",
        [
          Alcotest.test_case "a store into text is killed where it lands" `Quick
            test_store_into_text_killed;
          Alcotest.test_case "data is not executable" `Quick test_data_not_executable;
        ] );
      ( "debug",
        [
          Alcotest.test_case "ring tracer" `Quick test_tracer_ring;
          Alcotest.test_case "nested backtrace" `Quick test_backtrace_nested;
          Alcotest.test_case "smashed-chain bounded" `Quick test_backtrace_survives_smash;
        ] );
      ( "autopsy",
        [
          Alcotest.test_case "clean exit" `Quick test_autopsy_clean;
          Alcotest.test_case "canary abort" `Quick test_autopsy_canary_abort;
          Alcotest.test_case "hijack classified" `Quick test_autopsy_hijack;
          Alcotest.test_case "wild fault classified" `Quick test_autopsy_wild_fault;
        ] );
      ( "invariant",
        [
          QCheck_alcotest.to_alcotest qcheck_int_hash;
          Alcotest.test_case "Int_table.hash edge values" `Quick test_int_hash_edges;
          Alcotest.test_case "sweep after every P-SSP trial" `Quick test_sweep_pssp_attack;
          Alcotest.test_case "sweep after every shadow-compact zygote trial" `Quick
            test_sweep_shadow_zygote_attack;
          Alcotest.test_case "a child killed in a conn read is swept clean" `Quick
            test_sweep_killed_in_read;
          Alcotest.test_case "a crash drops its hold on a shared conn" `Quick
            test_sweep_crash_on_shared_conn;
          Alcotest.test_case "a zombie stays in its parent's queue" `Quick
            test_sweep_zombie_queued;
          Alcotest.test_case "sweep after every fork-server pump turn" `Quick
            test_sweep_fork_load;
          Alcotest.test_case "sweep after every event-loop pump turn" `Quick
            test_sweep_event_load;
        ] );
      ( "objfile",
        [
          Alcotest.test_case "roundtrip" `Quick test_objfile_roundtrip;
          Alcotest.test_case "rewritten roundtrip" `Quick test_objfile_rewritten_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_objfile_rejects_garbage;
          Alcotest.test_case "rejects out-of-layout sections" `Quick
            test_objfile_rejects_out_of_layout;
          Alcotest.test_case "save/load" `Quick test_objfile_save_load;
        ] );
    ]
