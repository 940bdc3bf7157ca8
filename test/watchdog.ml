(* A host-time bound for every test of a suite: a test still running
   after [seconds] fails, named, instead of hanging the suite. The
   alarm is delivered at the test's next safepoint, which OCaml 5 keeps
   even in a loop of non-allocating closure tail calls. *)

let seconds = 120

let bound name f () =
  let expire _ = Alcotest.failf "%s: still running after %d s" name seconds in
  let previous = Sys.signal Sys.sigalrm (Sys.Signal_handle expire) in
  ignore (Unix.alarm seconds);
  Fun.protect f ~finally:(fun () ->
      ignore (Unix.alarm 0);
      Sys.set_signal Sys.sigalrm previous)

let suites suites =
  List.map
    (fun (group, cases) ->
      (group, List.map (fun (name, speed, f) -> (name, speed, bound name f)) cases))
    suites
