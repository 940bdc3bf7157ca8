type result = {
  samples : int;
  byte_chi2 : float array;
  critical : float;
  uniform : bool;
  invariance_chi2 : float;
  invariant : bool;
}

let collect_c1_bytes rng c ~samples =
  (* counts.(byte_index).(value) *)
  let counts = Array.make_matrix 8 256 0 in
  for _ = 1 to samples do
    let pair = Pssp.Canary.re_randomize rng c in
    let c1 = pair.Pssp.Canary.c1 in
    for b = 0 to 7 do
      let v =
        Int64.to_int (Int64.logand (Int64.shift_right_logical c1 (8 * b)) 0xFFL)
      in
      counts.(b).(v) <- counts.(b).(v) + 1
    done
  done;
  counts

let run ?(samples = 100_000) ?(seed = 0x7E01L) () =
  let rng = Util.Prng.create seed in
  let c_a = 0xDEADBEEFCAFEF00DL in
  let c_b = 0x0123456789ABCDEFL in
  let counts_a = collect_c1_bytes rng c_a ~samples in
  let counts_b = collect_c1_bytes rng c_b ~samples in
  let byte_chi2 =
    Array.map (fun observed -> Util.Stats.chi_square_uniform ~observed) counts_a
  in
  let critical = Util.Stats.chi_square_critical_256_p001 in
  let uniform = Array.for_all (fun x -> x < critical) byte_chi2 in
  (* two-sample test on byte 0: does C1's distribution shift with C? *)
  let expected =
    Array.map (fun n -> Stdlib.max 1.0 (float_of_int n)) counts_a.(0)
  in
  let observed = Array.map float_of_int counts_b.(0) in
  let invariance_chi2 = Util.Stats.chi_square ~expected ~observed in
  (* two-sample chi2 has roughly twice the variance of the one-sample
     statistic; double the critical value is a conservative bound *)
  let invariant = invariance_chi2 < 2.0 *. critical in
  { samples; byte_chi2; critical; uniform; invariance_chi2; invariant }

let to_table result =
  let t =
    Util.Table.create
      ~title:
        (Printf.sprintf
           "Theorem 1: independence of exposed shadow halves (%d samples, \
            chi-square critical %.1f)"
           result.samples result.critical)
      [ "Test"; "Statistic"; "Verdict" ]
  in
  Array.iteri
    (fun i chi2 ->
      Util.Table.add_row t
        [
          Printf.sprintf "C1 byte %d uniformity" i;
          Util.Table.cell_float ~digits:1 chi2;
          (if chi2 < result.critical then "uniform" else "BIASED");
        ])
    result.byte_chi2;
  Util.Table.add_separator t;
  Util.Table.add_row t
    [
      "C1 invariance under different C";
      Util.Table.cell_float ~digits:1 result.invariance_chi2;
      (if result.invariant then "independent" else "DEPENDENT");
    ];
  t


(* ---- machine-level --------------------------------------------------------- *)

type machine_result = {
  children : int;
  consistent : int;
  distinct_pairs : int;
  c_stable : bool;
  c1_byte0_chi2 : float;
  c1_uniform : bool;
}

let run_machine ?(children = 2000) ?(seed = 0x7E02L) () =
  let image =
    Mcc.Driver.compile ~scheme:Pssp.Scheme.Pssp
      (Minic.Parser.parse (Workload.Vuln.fork_server_net ~buffer_size:16))
  in
  let kernel = Os.Kernel.create ~seed () in
  let server = Os.Kernel.spawn kernel ~preload:Os.Preload.Pssp_wide image in
  Os.Kernel.enqueue kernel server;
  Os.Kernel.schedule kernel;
  (match Os.Kernel.stop_of server with
  | Os.Kernel.Stop_accept -> ()
  | other -> failwith ("Theorem1.run_machine: " ^ Os.Kernel.stop_to_string other));
  let fs_base = Vm64.Layout.tls_base in
  let c = Pssp.Tls.canary server.Os.Process.mem ~fs_base in
  let seen_c0 = Hashtbl.create 1024 in
  let consistent = ref 0 in
  let c_stable = ref true in
  let byte0 = Array.make 256 0 in
  for _ = 1 to children do
    ignore (Os.Kernel.deliver_request kernel server (Bytes.of_string "ping"));
    Os.Kernel.schedule kernel;
    Os.Kernel.reap_zombies kernel server;
    (match Os.Kernel.stop_of server with
    | Os.Kernel.Stop_accept -> ()
    | other -> failwith ("Theorem1.run_machine: " ^ Os.Kernel.stop_to_string other));
    match Os.Kernel.last_reaped kernel with
    | Some child ->
      let pair = Pssp.Tls.shadow_pair child.Os.Process.mem ~fs_base in
      if Pssp.Canary.checks_out ~tls_canary:c pair then incr consistent;
      Hashtbl.replace seen_c0 pair.Pssp.Canary.c0 ();
      if not (Int64.equal (Pssp.Tls.canary child.Os.Process.mem ~fs_base) c) then
        c_stable := false;
      let b = Int64.to_int (Int64.logand pair.Pssp.Canary.c1 0xFFL) in
      byte0.(b) <- byte0.(b) + 1
    | None -> failwith "Theorem1.run_machine: no child"
  done;
  let chi2 = Util.Stats.chi_square_uniform ~observed:byte0 in
  {
    children;
    consistent = !consistent;
    distinct_pairs = Hashtbl.length seen_c0;
    c_stable = !c_stable;
    c1_byte0_chi2 = chi2;
    c1_uniform = chi2 < Util.Stats.chi_square_critical_256_p001;
  }

let machine_table r =
  let t =
    Util.Table.create
      ~title:
        (Printf.sprintf
           "Theorem 1, machine level: TLS shadow pairs of %d real forked children"
           r.children)
      [ "Property"; "Value" ]
  in
  Util.Table.add_row t
    [ "children whose C0 xor C1 = C"; Printf.sprintf "%d / %d" r.consistent r.children ];
  Util.Table.add_row t
    [ "distinct C0 values (re-randomization)"; string_of_int r.distinct_pairs ];
  Util.Table.add_row t
    [ "TLS canary C ever changed"; (if r.c_stable then "never" else "YES (bug)") ];
  Util.Table.add_row t
    [
      "chi-square of exposed C1 low byte";
      Printf.sprintf "%.1f (%s)" r.c1_byte0_chi2
        (if r.c1_uniform then "uniform" else "BIASED");
    ];
  t

(* Cell 0 = the statistical run, cell 1 = the machine-level run; the
   merge step unpacks them positionally. *)
let campaign () =
  Campaign.v ~name:"theorem1"
    ~title:"Theorem 1 - exposed shadow halves carry no information about C"
    ~cells:2
    ~run_cell:(fun i ->
      match i with
      | 0 -> Campaign.pack (run ())
      | _ -> Campaign.pack (run_machine ()))
    ~merge:(fun rows ->
      match rows with
      | [ stat; machine ] ->
        Util.Table.print (to_table (Campaign.unpack stat : result));
        Util.Table.print (machine_table (Campaign.unpack machine : machine_result))
      | _ -> failwith "Theorem1.campaign: expected 2 cells")
    ()
