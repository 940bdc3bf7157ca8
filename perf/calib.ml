(* Host-speed correction of measured phases.

   The host is shared: the same rep runs 10-40% slower for seconds to
   minutes at a time, and no counter inside the VM (steal time, CPU
   time) shows it. So while a phase runs, a timer interrupts it every
   [tick_s] to time a fixed reference computation that lives here and
   never changes. Each slice of the phase between two interruptions is
   scaled by [reference_s] over the mean of the reference times at its
   two ends, and the scaled slices add up to the phase's time at
   reference host speed. That time moves when the program does more or
   less work, and much less when the host slows down: over sets of 1-2 s
   reps whose raw wall times spread 6-52% (quartile distance over the
   median), the corrected times spread 1-14%. *)

let tick_s = 0.05

(* A small interpreter over an 8 MiB heap: dispatch, dependent loads
   and stores that miss the private caches, a hash table and
   short-lived allocation, like the simulator's hot paths. Each part
   earned its place: a 2 MiB heap tracked no better and at times
   worse, and without the table and the allocation corrected reps
   spread about twice as wide. The heap sits outside the OCaml heap,
   so it does not raise how much garbage the GC lets the workload
   keep. *)
let heap_words = 1 lsl 20

let heap =
  lazy
    (let m = Bigarray.Array1.create Bigarray.int Bigarray.c_layout heap_words in
     Bigarray.Array1.fill m 1;
     m)

let reference () =
  let m = Lazy.force heap in
  (* small enough to stay in the minor heap, so little of what the
     reference allocates outlives it *)
  let tbl = Hashtbl.create 256 in
  let mask = heap_words - 1 in
  let x = ref 0x2545F491 and acc = ref 0 in
  for i = 1 to 40_000 do
    x := ((!x * 1103515245) + 12345) land 0x3FFF_FFFF;
    let a = (!x lsr 6) land mask in
    match !x land 7 with
    | 0 | 1 | 2 -> acc := !acc + m.{a}
    | 3 | 4 -> m.{a} <- m.{(a + !acc) land mask} + i
    | 5 -> Hashtbl.replace tbl (a land 255) (i, !acc)
    | 6 -> (
      match Hashtbl.find_opt tbl (a land 255) with
      | Some (j, k) -> acc := !acc lxor (j + k)
      | None -> ())
    | _ -> acc := !acc + List.length [ a; i; !acc ]
  done;
  !acc

(* The reference's typical time between workload slices on a 2-vCPU
   Xeon microVM, so corrected times read about like wall times there. *)
let reference_s = 0.0019

(* Off in traced reps: an interruption inside a span would count
   against the layer it interrupted. *)
let enabled = ref false

(* MB the heap adds to the process's resident set once used. *)
let heap_mb () = if Lazy.is_val heap then float_of_int (heap_words * 8) /. 1e6 else 0.0

let now () = float_of_int (Span.now_ns ()) *. 1e-9
let sink = ref 0

(* Reference times and slices of the running phase, newest first. *)
let refs = ref []
let slices = ref []
let slice_start = ref 0.0

let sample () =
  let t0 = now () in
  sink := !sink lxor reference ();
  let t1 = now () in
  refs := (t1 -. t0) :: !refs;
  t1

let arm seconds =
  ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = 0.0; it_value = seconds })

(* One-shot, re-armed after each sample, so a slow sample never
   interrupts itself. *)
let tick _ =
  slices := (now () -. !slice_start) :: !slices;
  slice_start := sample ();
  arm tick_s

(* [time f] is [f ()], its wall time with the reference runs taken out,
   and that time corrected to reference host speed (the wall time
   itself when correction is off). *)
let time f =
  if not !enabled then begin
    let t0 = now () in
    let v = f () in
    let wall = now () -. t0 in
    (v, wall, wall)
  end
  else begin
    refs := [];
    slices := [];
    slice_start := sample ();
    let old = Sys.signal Sys.sigalrm (Sys.Signal_handle tick) in
    arm tick_s;
    let v =
      Fun.protect f ~finally:(fun () ->
          arm 0.0;
          Sys.set_signal Sys.sigalrm old)
    in
    slices := (now () -. !slice_start) :: !slices;
    ignore (sample ());
    (* refs.(i) and refs.(i + 1) bracket slices.(i) *)
    let refs = Array.of_list (List.rev !refs) in
    let slices = List.rev !slices in
    let wall = List.fold_left ( +. ) 0.0 slices in
    let corrected =
      List.fold_left ( +. ) 0.0
        (List.mapi
           (fun i s -> s *. reference_s /. ((refs.(i) +. refs.(i + 1)) /. 2.0))
           slices)
    in
    (v, wall, corrected)
  end
