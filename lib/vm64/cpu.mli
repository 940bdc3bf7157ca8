(** Architectural state of one simulated hardware thread.

    The register file holds rip and the retired cycle count beside the
    16 general-purpose registers, so compiled code updates all of them
    with plain stores: no boxed int64 and no write barrier. Read and
    write them through {!rip}/{!set_rip} and {!cycles}/{!add_cycles}. *)

type flags = {
  mutable zf : bool;
  mutable sf : bool;
  mutable cf : bool;
  mutable of_ : bool;
}

type t = {
  gprs : Bytes.t;
      (** The register file: 16 general-purpose registers, 8 bytes each,
          register [i] (by {!Isa.Reg.index}) at byte offset [8 * i],
          then rip at {!rip_offset} and the retired cycle count at
          {!cycles_offset}. Access it with {!get}/{!set} and the rip and
          cycle accessors, or with {!get64u}/{!set64u} at those
          offsets. Bytes rather than an [int64 array], so a write is a
          plain store: no boxed int64 and no write barrier. {!clone} and
          {!snapshot} copy all of it. *)
  xmms : (int64 * int64) array;  (** 16 XMM registers as (lo, hi) qwords *)
  flags : flags;
  mutable fs_base : int64;  (** TLS segment base *)
  mutable insn_tax : int;
      (** extra cycles charged per instruction — models dynamic binary
          translation (PIN) overhead for the DynaGuard baseline *)
  mutable call_tax : int;
      (** extra cycles charged per call/ret — models the trampoline cost
          of static binary rewriting (the DCR deployment) *)
  mutable pac_key : int64;
      (** per-process pointer-authentication key behind the [pac]/[aut]
          instructions. Installed at spawn for pac-canary processes,
          inherited verbatim by {!clone} (fork children must still
          authenticate parent-signed frames) and {!snapshot}. *)
  rng : Util.Prng.t;  (** entropy source behind [rdrand] *)
  tcache : Tcache.t;
      (** the basic-block translation cache, one per fork family: fork
          children and resumed snapshots use the parent's table (see
          {!Tcache.clone}); unrelated processes never share one *)
}

val create : ?seed:int64 -> unit -> t

val get : t -> Isa.Reg.t -> int64
val set : t -> Isa.Reg.t -> int64 -> unit

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
(** [get64u b off] is the native-endian int64 at byte offset [off] of
    [b], unchecked: the caller guarantees
    [0 <= off <= Bytes.length b - 8]. A compiler primitive, so it is
    inlined at every call site, even across [-opaque] module
    boundaries, and its result stays unboxed when int64 arithmetic or
    {!set64u} consumes it. Compiled code reads the register file
    ([get64u cpu.gprs (8 * i)]) and guest page payloads with it. *)

external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
(** [set64u b off v] stores [v] native-endian at byte offset [off] of
    [b]; unchecked and inlined like {!get64u}. *)

val get_xmm : t -> Isa.Reg.Xmm.t -> int64 * int64
val set_xmm : t -> Isa.Reg.Xmm.t -> int64 * int64 -> unit

val clone : t -> t
(** Deep copy with an independently split RNG — used by [fork] so parent
    and child draw different entropy afterwards (as real [rdrand]
    would). The child keeps the parent's translation cache. *)

val snapshot : t -> t
(** Deep copy preserving the exact RNG state (unlike {!clone}, which
    splits it). Used by zygote snapshots: a process resumed from a
    snapshot must draw the same [rdrand] stream the frozen original
    would have, so restored runs are bit-identical to cold spawns. The
    copy keeps the original's translation cache, like {!clone}. *)

val rip_offset : int
(** Byte offset of rip in {!t.gprs}: 128. *)

val cycles_offset : int
(** Byte offset of the retired cycle count in {!t.gprs}: 136. *)

val rip : t -> int64
val set_rip : t -> int64 -> unit

val cycles : t -> int64
(** The retired cycle count; also feeds [rdtsc]. *)

val add_cycles : t -> int -> unit

(** {2 Pointer-authentication MAC}

    The keyed tag behind the [pac]/[aut] instructions: a 16-bit MAC
    over a value's low 48 bits and a 64-bit modifier, carried in the
    value's high 16 bits (unused VA top bits, as on AArch64). *)

val pac_sign : t -> value:int64 -> modifier:int64 -> int64
(** [pac_sign t ~value ~modifier] replaces the top 16 bits of [value]
    with the tag MAC(pac_key, low48(value), modifier). *)

val pac_auth : t -> value:int64 -> modifier:int64 -> bool
(** Whether [value]'s top 16 bits carry the valid tag for its low 48
    bits under [modifier]. *)

val pac_strip : int64 -> int64
(** Drop the tag bits: the low 48 bits of the value. *)
