(* What happens to the victim when the attack declares a restart (a
   full byte-sweep failed — the canary moved under the attacker) or
   loses the server: keep hammering the same long-lived parent (the
   historical oracle), cold-boot a fresh kernel + spawn + warmup, or
   thaw a warm zygote snapshot captured at the first accept. Cold and
   Zygote are observationally identical — the snapshot round-trip is
   bit-exact — so they bench the same attack while isolating the
   restart cost the prefork pattern amortizes. *)
type respawn = No_respawn | Cold | Zygote

type t = {
  mutable kernel : Os.Kernel.t;
  mutable server : Os.Process.t;
  mutable queries : int;
  mutable alive : bool;
  (* the respawn recipe *)
  seed : int64;
  preload : Os.Preload.mode;
  insn_tax : int;
  image : Os.Image.t;
  respawn : respawn;
  snapshot : Os.Kernel.snapshot option;  (* [Some] iff [Zygote] *)
  mutable respawns : int;
}

let g_respawns = Telemetry.Registry.counter "attack.victim_respawns"

(* Cold boot: fresh kernel, spawn, run to the first accept. *)
let boot ~seed ~preload ~insn_tax image =
  let kernel = Os.Kernel.create ~seed () in
  let server = Os.Kernel.spawn kernel ~preload ~insn_tax image in
  Os.Kernel.enqueue kernel server;
  Os.Kernel.schedule kernel;
  match Os.Kernel.stop_of server with
  | Os.Kernel.Stop_accept -> (kernel, server)
  | other ->
    failwith
      ("Oracle.create: server did not reach accept: "
      ^ Os.Kernel.stop_to_string other)

let create ?(seed = 0xA77ACCL) ?(preload = Os.Preload.No_preload)
    ?(insn_tax = 0) ?(respawn = No_respawn) image =
  let kernel, server = boot ~seed ~preload ~insn_tax image in
  let snapshot =
    match respawn with
    | Zygote -> Some (Os.Kernel.capture_snapshot kernel server)
    | No_respawn | Cold -> None
  in
  {
    kernel;
    server;
    queries = 0;
    alive = true;
    seed;
    preload;
    insn_tax;
    image;
    respawn;
    snapshot;
    respawns = 0;
  }

let restart_victim t =
  match t.respawn with
  | No_respawn -> false
  | Cold | Zygote ->
    Os.Kernel.shutdown t.kernel;
    let kernel, server =
      match t.snapshot with
      | None -> boot ~seed:t.seed ~preload:t.preload ~insn_tax:t.insn_tax t.image
      | Some snap ->
        let kernel = Os.Kernel.create ~seed:t.seed () in
        let server = Os.Kernel.resume_snapshot kernel snap in
        (kernel, server)
    in
    t.kernel <- kernel;
    t.server <- server;
    t.alive <- true;
    t.respawns <- t.respawns + 1;
    Telemetry.Registry.incr g_respawns;
    true

type response =
  | Survived of string
  | Crashed of Os.Process.signal * string
  | Server_down of string

(* Pull the response off a cleanly-closed connection: exit FINs the
   conn, so buffered bytes drain before the EOF. Only consulted for
   surviving children — a crashed child's conn was reset, and RST
   discards the receive queue (client_recv returns Closed at once). *)
let drain_conn conn =
  let buf = Buffer.create 64 in
  let rec go () =
    match Net.Conn.client_recv conn ~max:4096 with
    | Net.Conn.Data b ->
      Buffer.add_bytes buf b;
      go ()
    | Net.Conn.Would_block | Net.Conn.Eof | Net.Conn.Closed -> ()
  in
  go ();
  Buffer.contents buf

let child_fate t conn =
  match Os.Kernel.last_reaped t.kernel with
  | Some child -> (
    match child.Os.Process.status with
    | Os.Process.Exited _ -> Survived (drain_conn conn)
    | Os.Process.Killed (signal, msg) -> Crashed (signal, msg)
    | _ -> Server_down "child in impossible state")
  | None -> Server_down "no child reaped"

let query t payload =
  if not t.alive then Server_down "server already down"
  else begin
    t.queries <- t.queries + 1;
    let conn = Os.Kernel.deliver_request t.kernel t.server payload in
    Os.Kernel.schedule t.kernel;
    match Os.Kernel.stop_of t.server with
    | Os.Kernel.Stop_accept ->
      Os.Kernel.reap_zombies t.kernel t.server;
      child_fate t conn
    | other ->
      t.alive <- false;
      Server_down (Os.Kernel.stop_to_string other)
  end

let queries t = t.queries
let server_alive t = t.alive
let respawns t = t.respawns
let kernel t = t.kernel
