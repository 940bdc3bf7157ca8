(* The binary-instrumentation path (SV-C/SV-D): take an already-compiled
   SSP binary and upgrade it to P-SSP without moving a single byte.

     dune exec examples/binary_hardening.exe *)

let source = Workload.Vuln.fork_server_net ~buffer_size:16

let show_handler title image =
  Printf.printf "%s\n" title;
  List.iter
    (fun (addr, insn) ->
      Printf.printf "  %6Lx:  %s\n" addr (Isa.Asm.to_string (Os.Image.annotate_targets image insn)))
    (Os.Image.disassemble_symbol image "handle");
  print_newline ()

let () =
  (* the legacy binary: compiled with -fstack-protector only *)
  let ssp = Mcc.Driver.compile ~scheme:Pssp.Scheme.Ssp (Minic.Parser.parse source) in
  show_handler "handle() as shipped (plain SSP, Codes 1/2):" ssp;

  (* the rewriter finds the SSP patterns and patches them in place *)
  let patched, report = Rewriter.Driver.instrument ssp in
  Format.printf "rewriter report: %a@.@." Rewriter.Driver.pp_report report;
  show_handler "handle() after instrumentation (Codes 5/6):" patched;
  Printf.printf "text size before/after: %d / %d bytes (address layout preserved)\n\n"
    (Os.Image.code_size ssp) (Os.Image.code_size patched);

  (* byte-by-byte: the original falls, the hardened binary does not *)
  let attack image preload label =
    let oracle = Attack.Oracle.create ~preload image in
    let layout = { Attack.Payload.overflow_distance = 16; canary_len = 8 } in
    let outcome = Attack.Byte_by_byte.run oracle ~layout ~max_trials:15_000 in
    Printf.printf "%-22s %s\n" label (Attack.Byte_by_byte.outcome_to_string outcome)
  in
  attack ssp Os.Preload.No_preload "original SSP binary:";
  attack patched (Rewriter.Driver.required_preload patched) "instrumented binary:";

  (* the static-link variant grows a new section instead of a preload *)
  let ssp_static =
    Mcc.Driver.compile ~scheme:Pssp.Scheme.Ssp ~linkage:Os.Image.Static
      (Minic.Parser.parse source)
  in
  let patched_static, report_static = Rewriter.Driver.instrument ssp_static in
  Format.printf "@.static binary: %a@." Rewriter.Driver.pp_report report_static;
  Printf.printf "added symbols: %s\n"
    (String.concat ", "
       (List.filter_map
          (fun (s : Os.Image.symbol) ->
            if String.length s.Os.Image.sym_name > 6
               && String.sub s.Os.Image.sym_name 0 6 = "__pssp"
            then Some s.Os.Image.sym_name
            else None)
          patched_static.Os.Image.symbols))
