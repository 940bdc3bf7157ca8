(** Basic-block translation cache.

    The interpreter decodes straight-line instruction runs once and
    stores them as arrays of steps with precomputed addresses and cycle
    costs; {!Exec} then dispatches through the arrays instead of
    re-hashing the rip on every instruction, and {!Compile} lowers a
    block from the same array.

    A block starts at the address execution first entered it (jump
    target, call target, or fall-through from a fuel boundary) and ends
    at the first control-transfer instruction, at a decode failure (the
    fault is re-discovered on the next fetch), or at {!max_block_insns}.
    Overlapping blocks are allowed: jumping into the middle of an
    already-cached run simply decodes a second block starting there.

    Loaded text is immutable: binary rewriting happens on images,
    before load, and the loader seals text ({!Memory.seal}) before the
    first fork, so no relative can write it and instructions are
    fetched from sealed pages only. So a fork family shares one table:
    [clone] (the fork primitive) returns the parent's table, and a
    block any relative decodes is valid, and a hit, for all of them. *)

(** One decoded instruction, with what dispatch needs of it. *)
type step = {
  addr : int64;  (** the instruction's own address *)
  next : int64;  (** fall-through rip *)
  cost : int;  (** {!Cost.cycles} *)
  callret : bool;  (** charged the per-call tax *)
  sets_rip : bool;
      (** a control transfer (jmp, jcc, call, ret): compiled code writes
          rip when it retires [Running] *)
  insn : Isa.Insn.t;
}

type block = {
  steps : step array;  (** in address order; never empty *)
  mutable compiled : Compiled.slot;
      (** compiled translation, written by {!Compile}; deterministic,
          so every relative reaching this record shares the compiled
          code. Starts [Not_compiled]. {!Compile} may later replace the
          slot with a superblock that subsumes it (same entry semantics,
          more instructions). *)
}

val max_block_insns : int

val make_block : start:int64 -> (Isa.Insn.t * int) array -> block
(** [make_block ~start pairs] builds the steps of decoded
    [(insn, byte_length)] pairs laid out from [start]. [pairs] must be
    non-empty. *)

val start : block -> int64
(** The address of the block's first instruction. *)

type t

val create : unit -> t

val clone : t -> t
(** The fork child's table: the parent's own. Counts the clone and the
    blocks it shares for the fork-path telemetry. *)

val find : t -> int64 -> block option
(** Uncounted lookup. *)

val note_hit : t -> unit
(** Record one cache hit. *)

val note_miss : t -> unit
(** Record one lookup that forced a decode. *)

val note_compile : t -> unit
(** Record one compiled block translation. *)

val note_chain : t -> unit
(** Record one exit link patched to a successor's translation. *)

val note_superblock : t -> unit
(** Record one hot chain fused into a superblock translation. *)

val note_chain_hops : t -> int -> unit
(** Record [n] block-to-block transfers served by chain links (returns
    to the dispatch loop avoided); {!Compile.run} adds its run's count
    once, when the run settles. *)

val add : t -> block -> unit
(** Insert a block into the family's table, replacing any entry at its
    start. *)

val metric_clones : string
val metric_blocks_shared : string
val metric_hits : string
val metric_misses : string
val metric_compiles : string
val metric_chains : string
val metric_superblocks : string
val metric_chain_hops : string
(** Names under which the process-wide tcache/compiled-execution totals are
    published to {!Telemetry.Registry}. clones/blocks_shared are plain
    counters; the rest form one fold-metric group (resetting any resets all). Read process-wide
    totals with [Telemetry.Registry.read_int] on these names. *)

(** Execution-path telemetry (lookups, decodes, compiled-execution activity),
    [Memory.family_stats]-style. *)
type exec_stats = {
  mutable hits : int;  (** block lookups served from the cache *)
  mutable misses : int;  (** lookups that forced a decode *)
  mutable compiles : int;  (** blocks translated by {!Compile} *)
  mutable chains : int;  (** exit links patched to a successor *)
  mutable superblocks : int;  (** hot chains fused into one translation *)
  mutable chain_hops : int;  (** dispatcher returns avoided via a link *)
}

val exec_stats : t -> exec_stats
(** Snapshot for this cache's fork family (surviving the relatives'
    reaping). *)
