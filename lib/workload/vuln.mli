(** Deliberately vulnerable victim programs for the security
    experiments. *)

val fork_server_net : buffer_size:int -> string
(** The §II-B victim: a forking server that listens on a socket and
    forks a child per connection. The child handler [read]s up to 1024
    bytes of the connection's payload into a fixed stack buffer in one
    unchecked call, then replies ["OK\n"] on the connection.
    [buffer_size] should be a multiple of 8 so the overflow distance to
    the canary is exactly [buffer_size]. *)

val echo_once : buffer_size:int -> string
(** Single-shot vulnerable program (spawn, feed input, observe). *)

val raf_correctness_probe : string
(** The Table I "Correctness" experiment: [fork] happens inside a
    canary-guarded function and the child then returns from it. Schemes
    that refresh the TLS canary without fixing live stack frames
    (RAF-SSP) falsely abort the child; correct schemes let it exit with
    code 7. *)

val leaky_server : string
(** Exposure-resilience victim (§IV-C), on {!fork_server_net}'s forking
    serve loop. Its [handle(fd)] reads one command byte from the
    connection. On ['L'] it [write]s the 64 bytes starting at its
    16-byte buffer back to the client, an out-of-bounds read that
    covers its canary region. On any other byte it [read]s the rest of
    the request into that buffer with no bounds check. Leak and
    overflow happen in different requests, each in a fresh child's
    frame, so a forged canary must transfer across frames to win. *)

val leaky_overflow_distance : int
(** Bytes from the vulnerable buffer's start to the canary region in the
    handler frame: the 16-byte buffer, then the 8-byte command array
    above it. *)

val lv_stealth_victim : string
(** P-SSP-LV demonstration: a [critical] buffer sits above a plain
    buffer; a measured overflow from the plain buffer corrupts the
    critical one without ever reaching the return-address guard.
    Undetected by SSP/P-SSP-NT; caught by P-SSP-LV's per-variable
    canary. Prints the critical buffer's first byte so corruption is
    observable. *)

val lv_stealth_payload : bytes
(** A 24-byte payload that corrupts the critical buffer (or its LV
    canary) but stops short of the return-address guard. *)
