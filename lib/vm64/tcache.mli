(** Basic-block translation cache.

    The interpreter decodes straight-line instruction runs once and
    stores them as flat arrays with precomputed byte lengths and cycle
    costs; {!Exec} then dispatches through the arrays instead of
    re-hashing the rip on every instruction.

    A block starts at the address execution first entered it (jump
    target, call target, or fall-through from a fuel boundary) and ends
    at the first control-transfer instruction, at a decode failure (the
    fault is re-discovered on the next fetch), or at {!max_block_insns}.
    Overlapping blocks are allowed: jumping into the middle of an
    already-cached run simply decodes a second block starting there.

    Each address space owns one cache. [clone] (the fork primitive) is
    lazy copy-on-write: parent and child alias one block table until
    either side first mutates it (new decode or invalidation), which
    materialises a private shallow copy first — so invalidation in one
    address space can never expose a relative to stale decodes, and a
    fork child that only re-executes the parent's warm text never pays
    a table copy. Cached blocks assume the underlying text does not
    change; any patch to loaded code must go through
    {!invalidate_range} (see [Cpu.invalidate_decode] /
    [Os.Process.patch_text]). *)

type block = {
  bb_start : int64;  (** address of the first instruction *)
  insns : Isa.Insn.t array;
  lens : int array;  (** encoded byte length per instruction *)
  costs : int array;  (** {!Cost.cycles} per instruction *)
  callret : bool array;  (** instruction is charged the per-call tax *)
  nexts : int64 array;  (** fall-through rip per instruction *)
  bb_bytes : int;  (** total bytes of text the block covers *)
  anchor : bytes array;
      (** the page payload objects the block was decoded from, one per
          covered page. {!Exec} re-validates them (physical equality
          against the space's current payloads) on every hit: CoW never
          mutates an aliased payload in place, so identity implies the
          decoded bytes are unchanged — which is what makes publishing
          blocks into a fork-shared table sound. Empty = always valid
          (test-built blocks). *)
  mutable compiled : Compiled.slot;
      (** compiled translation, written by {!Exec}/{!Compile};
          deterministic, so clones aliasing this record share compiled
          code for free. Starts [Not_compiled]; dropping the block drops
          the translation, which is how invalidation reaches compiled
          code. {!Compile} may later replace a [Code] slot with a superblock
          that subsumes it (same entry semantics, more instructions). *)
  mutable fused_ranges : (int64 * int) array;
      (** extra [(addr, len)] text extents covered by a superblock
          stored in [compiled] — the fused successors' bytes.
          {!invalidate_range} treats them like the block's own range, so
          patching any constituent drops the head entry. On the shared
          record, so every fork relative's invalidation sees it. *)
}

val max_block_insns : int

val anchor_valid : Memory.t -> block -> bool
(** The block is still decodable-as-cached in this address space: every
    covered page holds the same payload {e object} it was decoded from
    (physical equality — CoW never mutates an aliased payload in
    place). Empty anchor (test-built blocks) is always valid. Checked by
    {!Exec.fetch_block} on every hit and by compiled chain links before
    jumping into a successor's translation. *)

val make_block : ?anchor:bytes array -> start:int64 -> (Isa.Insn.t * int) array -> block
(** [make_block ~start pairs] precomputes the dispatch arrays from
    decoded [(insn, byte_length)] pairs. [pairs] must be non-empty.
    [anchor] defaults to empty (always valid). *)

type t

val create : unit -> t

val clone : t -> t
(** Logically independent table over the same (immutable) block
    records. Physically shared until first mutation on either side. *)

val is_shared : t -> bool
(** The table is currently aliased with a fork relative — for tests
    and the fork-path telemetry. *)

val find : t -> int64 -> block option
(** Uncounted lookup. {!Exec.fetch_block} validates the block's anchor
    before treating the result as a hit. *)

val note_hit : t -> unit
(** Record one anchor-valid cache hit. *)

val note_miss : t -> unit
(** Record one lookup that forced a decode (absent or stale entry). *)

val note_compile : t -> unit
(** Record one compiled block translation. *)

val note_chain : t -> unit
(** Record one exit link patched to a successor's translation. *)

val note_superblock : t -> unit
(** Record one hot chain fused into a superblock translation. *)

val note_chain_hop : t -> unit
(** Record one block-to-block transfer served by a chain link (a return
    to the dispatch loop avoided). *)

val epoch : t -> int
(** Invalidation epoch of this address space: bumped every time
    invalidation drops anything from the table. Tier-2 chain links
    record the (space, epoch) they were resolved under and are dead on
    mismatch — this is what unlinks stale successors after
    [patch_text], which mutates private pages in place where the anchor
    check cannot see it. *)

val add : ?publish:bool -> t -> block -> unit
(** Insert a block. With [~publish:true] the insert goes into the
    (possibly fork-shared) table without materialising a private copy —
    only sound when every page in the block's anchor is CoW-aliased
    (see {!Memory.payload_shared}), so relatives see exactly the bytes
    the block was decoded from; anchor re-validation on hit protects
    them once the pages diverge. Default is the private-table insert
    (materialise, then add). *)

val invalidate_range : t -> addr:int64 -> len:int -> unit
(** Drop every block overlapping [addr, addr+len). Call after patching
    loaded text, before executing it. *)

val invalidate_all : t -> unit

val stats : t -> int * int
(** [(blocks, instructions)] currently cached — for tests and debug. *)

val metric_clones : string
val metric_blocks_shared : string
val metric_tables_materialised : string
val metric_hits : string
val metric_misses : string
val metric_compiles : string
val metric_invalidated : string
val metric_chains : string
val metric_superblocks : string
val metric_chain_hops : string
(** Names under which the process-wide tcache/compiled-execution totals are
    published to {!Telemetry.Registry}. clones/blocks_shared/
    tables_materialised are plain counters; the rest form one
    fold-metric group (resetting any resets all). Read process-wide
    totals with [Telemetry.Registry.read_int] on these names. *)

(** Execution-path telemetry (lookups, decodes, compiled-execution activity),
    [Memory.family_stats]-style. *)
type exec_stats = {
  mutable hits : int;  (** block lookups served from the cache *)
  mutable misses : int;  (** lookups that forced a decode *)
  mutable compiles : int;  (** blocks translated by {!Compile} *)
  mutable invalidated : int;  (** cached blocks dropped by invalidation *)
  mutable chains : int;  (** exit links patched to a successor *)
  mutable superblocks : int;  (** hot chains fused into one translation *)
  mutable chain_hops : int;  (** dispatcher returns avoided via a link *)
}

val exec_stats : t -> exec_stats
(** Snapshot for this cache's clone family (shared with fork relatives,
    surviving their reaping). *)
