(** The attacker's oracle: a forking network server under test.

    One long-lived parent process listens on a socket; each request is
    a connection (payload, then FIN) handled by a forked child that
    reads attacker-controlled bytes into a stack buffer (e.g.
    {!Workload.Vuln.fork_server_net}). The parent reaps crashed
    children and keeps serving — exactly the worker-pool pattern the
    byte-by-byte attack of §II-B exploits. The attacker learns one bit
    (and the crash signature) per request: did the child survive? *)

type t

(** Victim lifecycle across attack restarts (a restart = a full
    byte-sweep failed, or the parent died). [No_respawn] keeps
    hammering the same long-lived parent — the historical oracle.
    [Cold] boots a fresh kernel + spawn + warmup each restart; [Zygote]
    thaws a warm {!Os.Kernel.snapshot} captured at the first accept.
    Cold and Zygote are observationally identical (the snapshot
    round-trip is bit-exact), isolating exactly the restart cost the
    prefork/zygote pattern amortizes. *)
type respawn = No_respawn | Cold | Zygote

val create :
  ?seed:int64 ->
  ?preload:Os.Preload.mode ->
  ?insn_tax:int ->
  ?respawn:respawn ->
  Os.Image.t ->
  t
(** Spawn the server and run it to its first [accept] (capturing the
    zygote snapshot there when [respawn] is [Zygote]; default
    [No_respawn]). Raises [Failure] if the image never reaches
    [accept]. *)

val restart_victim : t -> bool
(** Replace the victim per the [respawn] policy; [false] (and no-op)
    under [No_respawn]. The replacement is booted to its first
    [accept] and the oracle is alive again; the query/trial counter
    keeps counting. Counts under ["attack.victim_respawns"]. *)

val respawns : t -> int
(** Victim replacements served by {!restart_victim} so far. *)

val kernel : t -> Os.Kernel.t
(** The kernel the victim runs in now; {!restart_victim} replaces it
    under [Cold] and [Zygote]. For drivers that inspect it between
    queries, such as {!Os.Kernel.check_invariants}. *)

type response =
  | Survived of string
      (** child exited normally; the bytes it sent on the connection *)
  | Crashed of Os.Process.signal * string  (** signal and fault message *)
  | Server_down of string  (** the parent itself died — oracle gone *)

val query : t -> bytes -> response
(** Deliver one request as a connection ({!Os.Kernel.deliver_request}),
    run the kernel until the parent is back in [accept], and observe
    the child's fate. *)

val queries : t -> int
(** Number of requests made so far (the attack's trial counter). *)

val server_alive : t -> bool
