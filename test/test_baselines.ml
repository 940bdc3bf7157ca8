(* White-box tests of the baseline schemes' runtime machinery: the
   DynaGuard canary-address buffer and DCR's offset-linked in-stack
   canary list, inspected in the memory of live processes. *)

let i64 = Alcotest.testable (Fmt.fmt "0x%Lx") Int64.equal

let compile ?(scheme = Pssp.Scheme.Dynaguard) src =
  Mcc.Driver.compile ~scheme (Minic.Parser.parse src)

(* A program that listens, then pauses (blocks in accept) with three
   guarded frames live on the stack: main -> outer -> inner -> accept. *)
let nested_pause_src =
  {|
int inner() {
  char ibuf[8];
  ibuf[0] = 'i';
  accept();
  return ibuf[0];
}

int outer() {
  char obuf[8];
  obuf[0] = 'o';
  return inner() + obuf[0];
}

int main() {
  char mbuf[8];
  int lfd;
  lfd = socket();
  bind(lfd, 8080);
  listen(lfd, 16);
  mbuf[0] = 'm';
  return outer() + mbuf[0];
}
|}

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

let pause kernel image preload =
  let proc = Os.Kernel.spawn kernel ~preload image in
  match kernel_run kernel proc with
  | Os.Kernel.Stop_accept -> proc
  | other -> Alcotest.failf "never paused: %s" (Os.Kernel.stop_to_string other)

(* ---- DynaGuard --------------------------------------------------------------- *)

let dg_count mem =
  Int64.to_int (Vm64.Memory.read_u64 mem Vm64.Layout.dynaguard_buffer_base)

let dg_entry mem i =
  Vm64.Memory.read_u64 mem
    (Int64.add Vm64.Layout.dynaguard_buffer_base (Int64.of_int (8 * (i + 1))))

let test_dynaguard_buffer_tracks_frames () =
  let kernel = Os.Kernel.create () in
  let proc = pause kernel (compile nested_pause_src) Os.Preload.Dynaguard_fix in
  let mem = proc.Os.Process.mem in
  (* three guarded frames are live: main, outer, inner *)
  Alcotest.(check int) "three recorded canaries" 3 (dg_count mem);
  let c = Pssp.Tls.canary mem ~fs_base:Vm64.Layout.tls_base in
  for i = 0 to 2 do
    let addr = dg_entry mem i in
    Alcotest.check i64
      (Printf.sprintf "entry %d points at a live canary" i)
      c
      (Vm64.Memory.read_u64 mem addr)
  done;
  (* finish the run: epilogues decrement the count back to zero *)
  (match kernel_resume kernel proc (Bytes.create 0) with
  | Os.Kernel.Stop_exit _ -> ()
  | other -> Alcotest.failf "did not finish: %s" (Os.Kernel.stop_to_string other));
  Alcotest.(check int) "buffer drained on return" 0 (dg_count mem)

let test_dynaguard_fork_rewrites_live_canaries () =
  (* fork with live guarded frames: the child's TLS canary changes AND
     every recorded stack canary is rewritten to match (the correctness
     property RAF-SSP lacks) *)
  let src =
    {|
int worker() {
  char wbuf[8];
  int pid;
  wbuf[0] = 'w';
  pid = fork();
  if (pid == 0) {
    exit(7);
  }
  waitpid();
  return wbuf[0];
}

int main() {
  char mbuf[8];
  mbuf[0] = 'm';
  return worker() + mbuf[0];
}
|}
  in
  let kernel = Os.Kernel.create () in
  let proc =
    Os.Kernel.spawn kernel ~preload:Os.Preload.Dynaguard_fix (compile src)
  in
  let parent_c = Pssp.Tls.canary proc.Os.Process.mem ~fs_base:Vm64.Layout.tls_base in
  (match kernel_run kernel proc with
  | Os.Kernel.Stop_exit _ -> ()
  | other -> Alcotest.failf "run: %s" (Os.Kernel.stop_to_string other));
  match Os.Kernel.last_reaped kernel with
  | None -> Alcotest.fail "no child"
  | Some child ->
    let mem = child.Os.Process.mem in
    let child_c = Pssp.Tls.canary mem ~fs_base:Vm64.Layout.tls_base in
    Alcotest.(check bool) "child TLS canary refreshed" false
      (Int64.equal child_c parent_c);
    (* both live frames were rewritten to the child's new canary *)
    Alcotest.(check int) "two live frames at fork" 2 (dg_count mem);
    for i = 0 to 1 do
      Alcotest.check i64 "stack canary rewritten" child_c
        (Vm64.Memory.read_u64 mem (dg_entry mem i))
    done

(* ---- DCR ---------------------------------------------------------------------- *)

let dcr_head mem =
  Vm64.Memory.read_u64 mem
    (Int64.add Vm64.Layout.tls_base Vm64.Layout.tls_dcr_head_offset)

let test_dcr_list_structure () =
  let kernel = Os.Kernel.create () in
  let proc =
    pause kernel (compile ~scheme:Pssp.Scheme.Dcr nested_pause_src) Os.Preload.Dcr_fix
  in
  let mem = proc.Os.Process.mem in
  let c = Pssp.Tls.canary mem ~fs_base:Vm64.Layout.tls_base in
  (* walk the in-stack linked list: three nodes, each matching low48(C),
     terminated by the end marker *)
  let rec walk addr acc =
    if Int64.equal addr 0L then List.rev acc
    else begin
      let word = Vm64.Memory.read_u64 mem addr in
      Alcotest.(check bool) "node matches low48(C)" true
        (Os.Preload.dcr_matches ~tls_canary:c word);
      let delta = Os.Preload.dcr_delta word in
      if delta = Os.Preload.dcr_end_marker then List.rev (addr :: acc)
      else walk (Int64.add addr (Int64.of_int (8 * delta))) (addr :: acc)
    end
  in
  let nodes = walk (dcr_head mem) [] in
  Alcotest.(check int) "three linked canaries" 3 (List.length nodes);
  (* addresses ascend: inner frame (newest) is lowest *)
  let sorted = List.sort Int64.compare nodes in
  Alcotest.(check bool) "list runs from newest (lowest) upwards" true (sorted = nodes);
  (* unwind: the head pointer must retreat as frames pop *)
  (match kernel_resume kernel proc (Bytes.create 0) with
  | Os.Kernel.Stop_exit _ -> ()
  | other -> Alcotest.failf "did not finish: %s" (Os.Kernel.stop_to_string other));
  Alcotest.check i64 "head cleared after full unwind" 0L (dcr_head mem)

let test_dcr_pack_roundtrip () =
  let word = Os.Preload.dcr_pack ~delta:42 ~canary:0xABCDEF0123456789L in
  Alcotest.(check int) "delta" 42 (Os.Preload.dcr_delta word);
  Alcotest.check i64 "low48" 0x0000EF0123456789L (Os.Preload.dcr_low48 word);
  Alcotest.check_raises "delta range"
    (Invalid_argument "Preload.dcr_pack: delta out of range") (fun () ->
      ignore (Os.Preload.dcr_pack ~delta:0x10000 ~canary:0L))

let test_dcr_fork_rerandomizes_list () =
  let kernel = Os.Kernel.create () in
  let image = compile ~scheme:Pssp.Scheme.Dcr nested_pause_src in
  let proc = pause kernel image Os.Preload.Dcr_fix in
  let parent_c = Pssp.Tls.canary proc.Os.Process.mem ~fs_base:Vm64.Layout.tls_base in
  (* simulate the fork fixup directly on a clone (the preload hook) *)
  let child_mem = Vm64.Memory.clone proc.Os.Process.mem in
  let rng = Util.Prng.create 0x12345L in
  Os.Preload.on_fork_child Os.Preload.Dcr_fix rng child_mem
    ~fs_base:Vm64.Layout.tls_base;
  let child_c = Pssp.Tls.canary child_mem ~fs_base:Vm64.Layout.tls_base in
  Alcotest.(check bool) "C refreshed" false (Int64.equal child_c parent_c);
  (* every node in the child's list now matches the NEW canary and the
     deltas (list shape) are unchanged *)
  let rec walk mem addr count =
    if Int64.equal addr 0L then count
    else begin
      let word = Vm64.Memory.read_u64 mem addr in
      let delta = Os.Preload.dcr_delta word in
      if delta = Os.Preload.dcr_end_marker then count + 1
      else walk mem (Int64.add addr (Int64.of_int (8 * delta))) (count + 1)
    end
  in
  let child_head = dcr_head child_mem in
  Alcotest.(check int) "same list length" 3 (walk child_mem child_head 0);
  let word = Vm64.Memory.read_u64 child_mem child_head in
  Alcotest.(check bool) "head matches new C" true
    (Os.Preload.dcr_matches ~tls_canary:child_c word);
  Alcotest.(check bool) "head no longer matches old C" false
    (Os.Preload.dcr_matches ~tls_canary:parent_c word)

let () =
  Alcotest.run "baselines"
    [
      ( "dynaguard",
        [
          Alcotest.test_case "buffer tracks frames" `Quick
            test_dynaguard_buffer_tracks_frames;
          Alcotest.test_case "fork rewrites live canaries" `Quick
            test_dynaguard_fork_rewrites_live_canaries;
        ] );
      ( "dcr",
        [
          Alcotest.test_case "in-stack list structure" `Quick test_dcr_list_structure;
          Alcotest.test_case "pack/unpack" `Quick test_dcr_pack_roundtrip;
          Alcotest.test_case "fork re-randomizes the list" `Quick
            test_dcr_fork_rerandomizes_list;
        ] );
    ]
