(* P-SSP-OWF (SIV-C): surviving a canary disclosure.

     dune exec examples/exposure_resilience.exe

   The victim's handler serves two requests: 'L' leaks its own stack
   (an OOB read, standing in for a format-string bug), anything else
   takes the classic unbounded overflow. Each request runs in a fresh
   forked child. Leaking frame A's canary under P-SSP reveals
   C = C0 xor C1, which forges canaries for EVERY frame. Under
   P-SSP-OWF the leak is a MAC bound to frame A's return address and
   transfers nowhere. *)

let () =
  print_endline "Victim server (two handlers: 'L...' leaks, anything else overflows):";
  print_endline Workload.Vuln.leaky_server;
  List.iter
    (fun scheme ->
      let hijacked, leaked = Harness.Exposure.attack_with_leak scheme in
      Printf.printf "  %-10s leaked canary region: %s\n" (Pssp.Scheme.name scheme) leaked;
      Printf.printf "  %-10s forged canary in the OTHER handler: %s\n\n"
        "" (if hijacked then "HIJACK SUCCEEDED" else "detected and aborted"))
    [ Pssp.Scheme.Pssp; Pssp.Scheme.Pssp_nt; Pssp.Scheme.Pssp_owf ];
  print_endline
    "One leaked (C0, C1) pair breaks P-SSP everywhere; the AES-bound\n\
     P-SSP-OWF canary is worthless outside its own frame - the paper's\n\
     'stack canary exposure resilience'.";
  (* the same point at the model level *)
  let f = Crypto.Oneway.create ~key_lo:0x1234L ~key_hi:0x5678L in
  let a = Crypto.Oneway.evaluate f ~ret:0x400100L ~nonce:42L in
  let b = Crypto.Oneway.evaluate f ~ret:0x400200L ~nonce:42L in
  Printf.printf
    "\nModel check: F(ret_A||n, C) = F(ret_B||n, C)? %b (different frames,\n\
     different canaries, same key)\n"
    (a = b)
