(** Byte-addressable paged memory for one simulated address space, with
    copy-on-write fork.

    Pages must be explicitly mapped (the OS layer maps text, data, stack
    and TLS regions); any access to an unmapped address raises
    [Fault.Trap (Segfault _)] — which is precisely the signal the
    byte-by-byte attacker observes as a child crash.

    Pages live in a fixed two-level table: 256 chunks of 128 pages,
    exactly the 128 MiB guest layout below [0x0800_0000]. {!clone} (the
    [fork] primitive) copies only the 256-entry chunk directory, small
    enough for OCaml's minor heap: the child aliases the parent's
    chunks, and each side copies a chunk's payload array on its first
    write there. The first write to a page whose payload may be aliased
    then breaks the sharing with a private copy (see DESIGN.md §5 for
    the invariants). Reads never copy.

    Frames, a page's 4 KiB payload, have a lifecycle. {!map} installs
    one shared, never-written zero frame, and a page gets its own frame
    on its first write. Every frame copy (a CoW break, a zero fill, a
    fork pre-copy) reuses a frame from a per-domain free list of at
    most 256 when it can. {!release} hands a dead space's private
    frames back to that list. A page a space CoW-breaks after its first
    {!clone} is {e hot}: every later clone copies it into the child up
    front while the parent keeps it private, so a fork server's
    rewritten stack page is copied once per fork instead of broken on
    both sides, and the pre-fork frame is never orphaned. Writes made
    before the first clone (loading text and data at spawn) are never
    hot: counting them copied text into every child. The invariants:
    a frame private to one space is reachable from no other space; a
    free-list frame is reachable from no space; the zero frame is never
    private. DESIGN.md §5 gives the measurements. Memory is W^X: see
    {!seal}. *)

(** Fork-path telemetry. *)
type family_stats = {
  mutable clones : int;  (** {!clone} calls *)
  mutable pages_aliased : int;  (** pages shared instead of copied at clone *)
  mutable cow_breaks : int;
      (** frames copied from a relative's data: CoW breaks and fork
          pre-copies (not zero fills) *)
}

(** The page table, readable in place and mutable only through this
    module. Page [s] of chunk [c] is the page at address
    [(c * chunk_pages + s) * page_size].

    The fact {!Compile} relies on: a ['\001'] privacy byte in an owned
    chunk means the page is mapped and this space is its payload's only
    owner, so writing that payload in place is exactly what
    {!write_u64} would do. Under any other combination the payload may
    be a relative's too, or sealed, and a write must go through
    {!store_page} or {!write_u64}. Reads may use [top] whatever the
    bytes say. *)
type t = private {
  top : bytes array array;  (** chunk -> page payloads, {!no_page} if unmapped *)
  privs : Bytes.t array;  (** chunk -> one privacy byte per page *)
  owned : Bytes.t;  (** one ownership byte per chunk, ['\001'] if owned *)
  exec : string array;
      (** chunk -> one byte per page, ['\001'] if sealed; one string,
          shared by the fork family *)
  mutable mapped_pages : int;
  family : family_stats;
  mutable forked : bool;  (** cloned at least once: CoW breaks mark pages hot *)
  mutable hot : int list;  (** page numbers CoW-broken since the first clone *)
}

val no_page : bytes
(** The payload of every unmapped page slot: compare with [(==)]. *)

val chunk_pages : int
(** Pages per chunk of the directory (128). *)

val create : unit -> t

val page_size : int

val map : t -> addr:int64 -> len:int -> unit
(** Map all pages covering [addr, addr+len) to the shared zero frame,
    privacy byte clear: they read as zeros, and the first write gives
    a page its own frame without counting a CoW break. Already
    mapped pages are left untouched. Raises
    [Invalid_argument "Memory.map: outside the 128 MiB guest layout"]
    (mapping nothing) when any of those pages lies at or above
    [0x0800_0000]. *)

val seal : t -> addr:int64 -> len:int -> unit
(** Seal the mapped pages covering [addr, addr+len), as the loader does
    with text: they become read-only and executable, the only pages
    {!code_window} serves, and count as shared. A write to one raises
    [Fault.Trap (Segfault a)] at the written address [a]. A sealed
    payload never changes and is the same object in every relative, so
    code decoded in one space is the whole fork family's. Raises
    [Invalid_argument] once the family has been cloned. *)

val is_mapped : t -> int64 -> bool

val read_u8 : t -> int64 -> int
val write_u8 : t -> int64 -> int -> unit

val read_u64 : t -> int64 -> int64
(** Little-endian, no alignment requirement. *)

val write_u64 : t -> int64 -> int64 -> unit

(** {2 Page window}

    Compiled code's slow path for an 8-byte store whose page the
    caller cannot write in place (see {!t}). It takes the address as an
    [int], so no boxed int64 crosses the call. Callers use it only for
    an [a] with [0 <= a < 0x0800_0000] whose 8 bytes stay inside one
    page; any other access goes through {!write_u64}. For such an [a],
    a store through the window is indistinguishable from [write_u64] at
    [Int64.of_int a]: same bytes, same fault, same copy-on-write break,
    same counters. *)

val store_page : t -> int -> bytes
(** The payload under [a], made private first: the chunk is owned and a
    shared payload is replaced by a copy, exactly as {!write_u64} does,
    so writes through it stay in this space. Valid until the next
    {!clone}. Raises [Fault.Trap (Segfault (Int64.of_int a))] when the
    page is unmapped or sealed, before breaking any sharing. *)

val read_u32 : t -> int64 -> int64
(** Zero-extended 32-bit load. *)

val write_u32 : t -> int64 -> int64 -> unit

val read_bytes : t -> int64 -> int -> bytes
val write_bytes : t -> int64 -> bytes -> unit

val code_window : t -> int64 -> (bytes * int) option
(** [(payload, offset)] of the sealed page under the address, or [None]
    when the page is not sealed (unmapped, or mapped as data) — the
    zero-copy instruction-fetch window. The payload is the live page,
    shared by the fork family: callers MUST NOT write through it. Valid
    from [offset] to the page end. *)

val cstr_len : t -> int64 -> int
(** Bytes before the first NUL at the address (page-aware strlen).
    Faults at the first unmapped byte reached before a NUL, exactly
    where a byte-at-a-time scan would. *)

val clone : t -> t
(** The [fork] primitive's address-space clone. Copy-on-write at two
    levels: the child aliases the parent's chunks (one 256-entry
    directory copied, no page touched), and page payloads stay shared
    until first write in either space. Hot pages the parent still holds
    privately are copied into the child now (each counted as a CoW
    break); the parent keeps them private and their chunks owned. The
    child shares the parent's sealed pages and executable map.
    Observable behaviour is identical to a deep copy — writes in either
    space never become visible in the other. *)

val release : t -> unit
(** The space is dead: return its private frames to this domain's free
    list and empty their slots, so a later access to them through [t]
    faults. Shared and sealed pages (and the zero frame) stay mapped
    and untouched. *)

val free_frames : unit -> bytes list
(** This domain's free list, for tests. *)

val mapped_bytes : t -> int
(** Total bytes of mapped address space (resident + shared), for the
    memory-usage columns of Table IV. *)

val resident_bytes : t -> int
(** Bytes whose page payload this space privately owns: written data
    pages only, as RSS counts them (a never-written page holds the
    shared zero frame, and a sealed page counts as shared). Summing
    [mapped_bytes] over a fork family double-counts aliased pages;
    parent [mapped_bytes] + children [resident_bytes] does not. *)

val shared_bytes : t -> int
(** Bytes whose page payload may be aliased by a relative
    ([mapped_bytes t = resident_bytes t + shared_bytes t]). *)

val family_stats : t -> family_stats
(** Counters for this space's clone family (shared by parent and all
    descendants, so they survive children being reaped). Returns a
    snapshot. *)

val metric_clones : string
val metric_pages_aliased : string
val metric_cow_breaks : string
(** Names under which the process-wide fork-path totals are published to
    {!Telemetry.Registry} (one metric group; resetting any of them
    resets all three). Read process-wide totals with
    [Telemetry.Registry.read_int] on these names. *)
