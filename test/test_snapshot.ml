(* Zygote snapshots: capture/resume round-trips, machine-state
   equality against a cold spawn, and compiled-tier survival. *)

let i64 = Alcotest.testable (Fmt.fmt "0x%Lx") Int64.equal

let compile ?(scheme = Pssp.Scheme.Pssp) src =
  Mcc.Driver.compile ~scheme (Minic.Parser.parse src)

let kernel_run k p =
  Os.Kernel.enqueue k p;
  Os.Kernel.schedule k;
  Os.Kernel.stop_of p

(* Boot an image to its first accept and return (kernel, process). *)
let boot ?(seed = 0x5EEDL) ?(preload = Os.Preload.Pssp_wide) image =
  let k = Os.Kernel.create ~seed () in
  let p = Os.Kernel.spawn k ~preload image in
  (match kernel_run k p with
  | Os.Kernel.Stop_accept -> ()
  | other -> Alcotest.failf "never accepted: %s" (Os.Kernel.stop_to_string other));
  (k, p)

let serve k p req =
  ignore (Os.Kernel.deliver_request k p (Bytes.of_string req));
  Os.Kernel.schedule k;
  Os.Kernel.reap_zombies k p

let server_src =
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

let check_machine_equal msg (a : Os.Process.t) (b : Os.Process.t) =
  let ca = a.Os.Process.cpu and cb = b.Os.Process.cpu in
  List.iter
    (fun r ->
      Alcotest.check i64
        (Printf.sprintf "%s: %s" msg (Isa.Reg.name r))
        (Vm64.Cpu.get ca r) (Vm64.Cpu.get cb r))
    Isa.Reg.all;
  Alcotest.check i64 (msg ^ ": rip") (Vm64.Cpu.rip ca) (Vm64.Cpu.rip cb);
  Alcotest.check i64 (msg ^ ": fs_base") ca.Vm64.Cpu.fs_base cb.Vm64.Cpu.fs_base;
  Alcotest.check i64 (msg ^ ": cycles") (Vm64.Cpu.cycles ca) (Vm64.Cpu.cycles cb);
  Alcotest.check i64 (msg ^ ": TLS canary")
    (Pssp.Tls.canary a.Os.Process.mem ~fs_base:Vm64.Layout.tls_base)
    (Pssp.Tls.canary b.Os.Process.mem ~fs_base:Vm64.Layout.tls_base);
  let pa = Pssp.Tls.shadow_pair a.Os.Process.mem ~fs_base:Vm64.Layout.tls_base in
  let pb = Pssp.Tls.shadow_pair b.Os.Process.mem ~fs_base:Vm64.Layout.tls_base in
  Alcotest.check i64 (msg ^ ": shadow c0") pa.Pssp.Canary.c0 pb.Pssp.Canary.c0;
  Alcotest.check i64 (msg ^ ": shadow c1") pa.Pssp.Canary.c1 pb.Pssp.Canary.c1

(* ---- capture/resume round-trip -------------------------------------------- *)

let test_resume_bit_identical () =
  (* the thawed copy carries the frozen process's exact machine state:
     same registers, rip, cycle count, RNG-derived TLS words *)
  let image = compile (Workload.Vuln.fork_server_net ~buffer_size:16) in
  let k, p = boot image in
  let snap = Os.Kernel.capture_snapshot k p in
  let q = Os.Kernel.resume_snapshot k snap in
  check_machine_equal "resumed = frozen" p q;
  Alcotest.(check bool) "fresh pid" false (p.Os.Process.pid = q.Os.Process.pid);
  Alcotest.(check bool) "resumed parked in accept" true
    (Os.Kernel.stop_of q = Os.Kernel.Stop_accept)

let test_resume_matches_cold_spawn () =
  (* cold boot with the same kernel seed reaches the same quiescent
     state the snapshot froze — resume is a shortcut, not a fork in
     behaviour *)
  let image = compile (Workload.Vuln.fork_server_net ~buffer_size:16) in
  let k1, p1 = boot ~seed:77L image in
  let snap = Os.Kernel.capture_snapshot k1 p1 in
  let k2 = Os.Kernel.create ~seed:77L () in
  let q = Os.Kernel.resume_snapshot k2 snap in
  let k3, cold = boot ~seed:77L image in
  ignore k3;
  check_machine_equal "resumed = cold spawn" cold q;
  ignore k2

let test_snapshot_immutable_and_reusable () =
  (* one snapshot stamps out many identical copies, even after earlier
     copies ran and diverged *)
  let image = compile (Workload.Vuln.fork_server_net ~buffer_size:16) in
  let k, p = boot image in
  let snap = Os.Kernel.capture_snapshot k p in
  let q1 = Os.Kernel.resume_snapshot k snap in
  serve k q1 "AAAA";
  let q2 = Os.Kernel.resume_snapshot k snap in
  check_machine_equal "second resume unaffected by first copy's run" p q2

let test_resume_serves_like_original () =
  (* behavioural equality: the resumed server answers a request stream
     exactly as the original would *)
  let image = compile ~scheme:Pssp.Scheme.Pssp server_src in
  let k1, p1 = boot ~seed:9L image in
  let snap = Os.Kernel.capture_snapshot k1 p1 in
  let k2 = Os.Kernel.create ~seed:9L () in
  let q = Os.Kernel.resume_snapshot k2 snap in
  serve k1 p1 "x";
  serve k1 p1 "y";
  serve k2 q "x";
  serve k2 q "y";
  Alcotest.(check string) "same stdout" (Os.Process.stdout p1) (Os.Process.stdout q);
  Alcotest.(check bool) "resumed back in accept" true
    (Os.Kernel.stop_of q = Os.Kernel.Stop_accept)

(* ---- quiescence guard ------------------------------------------------------ *)

let test_capture_rejects_dead_process () =
  let image = compile ~scheme:Pssp.Scheme.None_ "int main() { return 0; }" in
  let k = Os.Kernel.create () in
  let p = Os.Kernel.spawn k ~preload:Os.Preload.No_preload image in
  ignore (kernel_run k p);
  match Os.Kernel.capture_snapshot k p with
  | _ -> Alcotest.fail "capturing a dead process must raise"
  | exception Invalid_argument _ -> ()

(* ---- compiled tier ---------------------------------------------------------- *)

let test_compiled_blocks_survive_resume () =
  (* warm the translation cache before capture; the thawed copy reuses
     the compiled blocks (no recompilation) and still runs correctly *)
  let prev = Vm64.Compile.enabled () in
  Vm64.Compile.set_enabled true;
  Fun.protect ~finally:(fun () -> Vm64.Compile.set_enabled prev) @@ fun () ->
  let image = compile ~scheme:Pssp.Scheme.Pssp server_src in
  let k, p = boot image in
  serve k p "warm";
  serve k p "warm";
  (* back in accept with no open conns: quiescent again *)
  let snap = Os.Kernel.capture_snapshot k p in
  let q = Os.Kernel.resume_snapshot k snap in
  Telemetry.Registry.reset_all ();
  serve k q "go";
  let compiles =
    match
      List.assoc_opt Vm64.Tcache.metric_compiles (Telemetry.Registry.snapshot ())
    with
    | Some n -> n
    | None -> 0
  in
  Alcotest.(check string) "resumed warm server output"
    (String.concat "" [ "1"; "1"; "1" ])
    (Os.Process.stdout q);
  (* the handler path was compiled pre-capture; serving from the thawed
     copy must not recompile it (fork children share the warm cache) *)
  Alcotest.(check int) "no recompilation after resume" 0 compiles

(* ---- defense-family state across snapshots and forks ------------------------ *)

let test_pac_key_survives_resume () =
  (* the per-process signing key lives in the CPU record; a thawed copy
     must authenticate frames with the exact key the frozen process
     signed them under *)
  let image =
    compile ~scheme:Pssp.Scheme.Pac_canary (Workload.Vuln.fork_server_net ~buffer_size:16)
  in
  let k, p = boot ~preload:Os.Preload.No_preload image in
  let key = p.Os.Process.cpu.Vm64.Cpu.pac_key in
  Alcotest.(check bool) "spawn drew a key" false (Int64.equal key 0L);
  let snap = Os.Kernel.capture_snapshot k p in
  let q = Os.Kernel.resume_snapshot k snap in
  Alcotest.check i64 "resumed key" key q.Os.Process.cpu.Vm64.Cpu.pac_key;
  (* and the thawed server still signs/authenticates its handler frames *)
  serve k q "AAAA";
  Alcotest.(check bool) "resumed pac server back in accept" true
    (Os.Kernel.stop_of q = Os.Kernel.Stop_accept)

let test_shadow_siblings_do_not_share () =
  (* two copies thawed from one snapshot have CoW-isolated shadow
     regions: a push in one must not appear in the other or in the
     frozen original *)
  let image =
    compile ~scheme:Pssp.Scheme.Shadow_compact
      (Workload.Vuln.fork_server_net ~buffer_size:16)
  in
  let k, p = boot ~preload:Os.Preload.No_preload image in
  let sp0 = Pssp.Tls.shadow_sp p.Os.Process.mem ~fs_base:Vm64.Layout.tls_base in
  Alcotest.check i64 "boot initialised the shadow SP"
    Vm64.Layout.shadow_stack_base sp0;
  let snap = Os.Kernel.capture_snapshot k p in
  let q1 = Os.Kernel.resume_snapshot k snap in
  let q2 = Os.Kernel.resume_snapshot k snap in
  (* simulate a shadow push in q1: bump its pointer and write an entry *)
  Vm64.Memory.write_u64 q1.Os.Process.mem Vm64.Layout.shadow_stack_base 0xFACEL;
  Pssp.Tls.set_shadow_sp q1.Os.Process.mem ~fs_base:Vm64.Layout.tls_base
    (Int64.add Vm64.Layout.shadow_stack_base 8L);
  Alcotest.check i64 "sibling's shadow entry untouched" 0L
    (Vm64.Memory.read_u64 q2.Os.Process.mem Vm64.Layout.shadow_stack_base);
  Alcotest.check i64 "sibling's shadow SP untouched"
    Vm64.Layout.shadow_stack_base
    (Pssp.Tls.shadow_sp q2.Os.Process.mem ~fs_base:Vm64.Layout.tls_base);
  Alcotest.check i64 "frozen original untouched" 0L
    (Vm64.Memory.read_u64 p.Os.Process.mem Vm64.Layout.shadow_stack_base);
  (* both siblings still serve: their own shadow regions are intact *)
  serve k q2 "AAAA";
  Alcotest.(check bool) "sibling serves and re-accepts" true
    (Os.Kernel.stop_of q2 = Os.Kernel.Stop_accept)

(* ---- the oracle's zygote mode ----------------------------------------------- *)

let test_oracle_zygote_respawn_counts () =
  let image = compile (Workload.Vuln.fork_server_net ~buffer_size:16) in
  let oracle =
    Attack.Oracle.create ~preload:Os.Preload.Pssp_wide
      ~respawn:Attack.Oracle.Zygote image
  in
  Alcotest.(check bool) "restart works" true (Attack.Oracle.restart_victim oracle);
  Alcotest.(check bool) "restart again" true (Attack.Oracle.restart_victim oracle);
  Alcotest.(check int) "respawns counted" 2 (Attack.Oracle.respawns oracle);
  Alcotest.(check bool) "victim alive" true (Attack.Oracle.server_alive oracle)

let test_oracle_zygote_equals_cold () =
  (* the attack sees the same oracle either way: respawned victims are
     bit-identical, so outcomes and trial counts agree *)
  let attack respawn =
    let image = compile (Workload.Vuln.fork_server_net ~buffer_size:16) in
    let oracle = Attack.Oracle.create ~preload:Os.Preload.Pssp_wide ~respawn image in
    let layout = Harness.Layouts.compiler_layout Pssp.Scheme.Pssp ~buffer_size:16 in
    match Attack.Byte_by_byte.run oracle ~layout ~max_trials:2_500 with
    | Attack.Byte_by_byte.Broken { trials; _ } -> ("broken", trials)
    | Attack.Byte_by_byte.Exhausted { trials; _ } -> ("exhausted", trials)
    | Attack.Byte_by_byte.Oracle_lost { trials; _ } -> ("lost", trials)
  in
  let outcome_z, trials_z = attack Attack.Oracle.Zygote in
  let outcome_c, trials_c = attack Attack.Oracle.Cold in
  Alcotest.(check string) "same outcome" outcome_c outcome_z;
  Alcotest.(check int) "same trial count" trials_c trials_z

let () =
  Alcotest.run "snapshot"
    [
      ( "roundtrip",
        [
          Alcotest.test_case "resume is bit-identical to the frozen process"
            `Quick test_resume_bit_identical;
          Alcotest.test_case "resume matches a same-seed cold spawn" `Quick
            test_resume_matches_cold_spawn;
          Alcotest.test_case "snapshot is immutable and reusable" `Quick
            test_snapshot_immutable_and_reusable;
          Alcotest.test_case "resumed server behaves like the original" `Quick
            test_resume_serves_like_original;
          Alcotest.test_case "capture rejects a dead process" `Quick
            test_capture_rejects_dead_process;
        ] );
      ( "compiled tier",
        [
          Alcotest.test_case "warm tcache survives resume" `Quick
            test_compiled_blocks_survive_resume;
        ] );
      ( "defense families",
        [
          Alcotest.test_case "PAC key survives capture/resume" `Quick
            test_pac_key_survives_resume;
          Alcotest.test_case "sibling zygote copies do not share shadow stacks"
            `Quick test_shadow_siblings_do_not_share;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "zygote respawn counts and keeps the victim alive"
            `Quick test_oracle_zygote_respawn_counts;
          Alcotest.test_case "zygote and cold respawn are observationally equal"
            `Quick test_oracle_zygote_equals_cold;
        ] );
    ]
