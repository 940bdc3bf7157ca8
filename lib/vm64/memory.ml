let page_size = 4096
let page_bits = 12

(* Fork-path telemetry, shared by every space in one clone family so the
   numbers survive children being reaped. *)
type family_stats = {
  mutable clones : int;  (* Memory.clone calls in this family *)
  mutable pages_aliased : int;  (* pages shared (not copied) at clone time *)
  mutable cow_breaks : int;  (* shared pages privatised by a write *)
}

(* Process-wide totals fold over a registry of family records instead
   of hammering shared atomics from the clone/CoW hot paths (a shared
   atomic bounced between domains measurably slows [--jobs N]
   campaigns). Per-family counts are independent of scheduling, so the
   sums are too; the bench driver reads them only after worker domains
   join, which gives the happens-before edge for the plain mutable
   fields. The fold is published to the process-wide telemetry registry
   as a metric group under the [metric_*] names below. *)
let registry : family_stats list ref = ref []
let registry_mu = Mutex.create ()

let fold_families () =
  Mutex.lock registry_mu;
  let fams = !registry in
  Mutex.unlock registry_mu;
  List.fold_left
    (fun acc (f : family_stats) ->
      {
        clones = acc.clones + f.clones;
        pages_aliased = acc.pages_aliased + f.pages_aliased;
        cow_breaks = acc.cow_breaks + f.cow_breaks;
      })
    { clones = 0; pages_aliased = 0; cow_breaks = 0 }
    fams

let metric_clones = "vm.mem.clones"
let metric_pages_aliased = "vm.mem.pages_aliased"
let metric_cow_breaks = "vm.mem.cow_breaks"

let () =
  Telemetry.Registry.register_group
    ~reset:(fun () ->
      Mutex.lock registry_mu;
      registry := [];
      Mutex.unlock registry_mu)
    [
      (metric_clones, fun () -> (fold_families ()).clones);
      (metric_pages_aliased, fun () -> (fold_families ()).pages_aliased);
      (metric_cow_breaks, fun () -> (fold_families ()).cow_breaks);
    ]

(* Copy-on-write page store over a fixed two-level table.

   256 chunks of 128 pages cover exactly the 128 MiB guest layout
   ([0, 0x0800_0000): stack_top plus the wasm spill region ends there),
   so address translation is two array loads and [clone] — the fork
   primitive — copies two 256-entry directories: 256 words is OCaml's
   minor-heap object limit, so the clone allocates only in the minor
   heap. A chunk is a
   payload array plus one privacy byte per page ('\001': sole owner of
   the payload, safe to write in place). After a clone neither side
   owns any chunk; the first mutating access to a chunk copies its
   payload array whole and starts it with every privacy byte clear.
   Payloads stay copy-on-write: a write to a page whose payload may be
   aliased first replaces it with a private copy.

   Invariants:
   - A payload array or privacy string reachable through an unowned
     chunk is never mutated — every write path calls [own_chunk] first
     (a clone happened since the chunk was last owned, so every payload
     in it is aliased by construction).
   - An aliased payload is never written in place, so payload identity
     implies byte identity (block anchors depend on it).
   - In an owned chunk, a '\001' privacy byte means the page is mapped
     and this space alone holds its payload: only [map] and [break_cow]
     set the byte, both on a page they just gave a fresh payload, and
     [own_chunk] starts every byte clear. [Compile.store] writes such a
     page in place without calling in here.
   - [generation] rises whenever a page slot's payload changes (map or
     CoW break): an unchanged generation means every page still holds
     the payload object it held before.
   - [no_page], [empty_chunk] and [no_privs] are immutable sentinels,
     shared by all spaces and domains. *)
let chunk_bits = 7
let chunk_pages = 1 lsl chunk_bits (* pages per chunk *)
let chunks = Int64.to_int Layout.address_limit / (chunk_pages * page_size) (* 256 *)

let no_page = Bytes.create 0
let empty_chunk : bytes array = Array.make chunk_pages no_page
let no_privs = Bytes.make chunk_pages '\000'

type t = {
  top : bytes array array;  (* chunk -> page payloads, [no_page] if unmapped *)
  privs : Bytes.t array;  (* chunk -> privacy byte per page *)
  owned : Bytes.t;  (* '\001' per chunk: its payload array and privacy bytes are ours *)
  mutable mapped_pages : int;
  mutable generation : int;
  family : family_stats;
}

let create () =
  let family = { clones = 0; pages_aliased = 0; cow_breaks = 0 } in
  Mutex.lock registry_mu;
  registry := family :: !registry;
  Mutex.unlock registry_mu;
  {
    top = Array.make chunks empty_chunk;
    privs = Array.make chunks no_privs;
    owned = Bytes.make chunks '\001';
    mapped_pages = 0;
    generation = 0;
    family;
  }

let[@inline] page_of addr = Int64.to_int (Int64.shift_right_logical addr page_bits)
let[@inline] offset_of addr = Int64.to_int (Int64.logand addr 0xFFFL)

(* Give this space its own copy of chunk [c]: the same payloads, every
   privacy byte clear (an unowned chunk is aliased by construction; an
   empty one has no pages). Relatives keep reading the old arrays. *)
let own_chunk t c =
  let ch = Array.unsafe_get t.top c in
  t.top.(c) <- (if ch == empty_chunk then Array.make chunk_pages no_page else Array.copy ch);
  t.privs.(c) <- Bytes.make chunk_pages '\000';
  Bytes.unsafe_set t.owned c '\001'

let map t ~addr ~len =
  if len <= 0 then invalid_arg "Memory.map: nonpositive length";
  let first = page_of addr in
  let last = page_of (Int64.add addr (Int64.of_int (len - 1))) in
  if first >= chunks * chunk_pages || last >= chunks * chunk_pages then
    invalid_arg "Memory.map: outside the 128 MiB guest layout";
  for idx = first to last do
    let c = idx lsr chunk_bits in
    if Bytes.unsafe_get t.owned c <> '\001' || Array.unsafe_get t.top c == empty_chunk
    then own_chunk t c;
    let ch = Array.unsafe_get t.top c in
    let s = idx land (chunk_pages - 1) in
    if Array.unsafe_get ch s == no_page then begin
      Array.unsafe_set ch s (Bytes.make page_size '\000');
      Bytes.unsafe_set (Array.unsafe_get t.privs c) s '\001';
      t.mapped_pages <- t.mapped_pages + 1;
      t.generation <- t.generation + 1
    end
  done

(* Payload of page number [idx] (any nonnegative int), or [no_page] if
   unmapped or above the layout — never raises. *)
let[@inline] page_at t idx =
  let c = idx lsr chunk_bits in
  if c >= chunks then no_page
  else Array.unsafe_get (Array.unsafe_get t.top c) (idx land (chunk_pages - 1))

let is_mapped t addr = page_at t (page_of addr) != no_page

let segfault addr = Fault.Trap (Fault.Segfault addr)

(* Read path: the payload as-is, shared or not. *)
let[@inline] ro_page t addr =
  let p = page_at t (page_of addr) in
  if p == no_page then raise (segfault addr);
  p

(* First write to a page whose payload may be aliased: replace it with a
   private copy. Out of line, off the hot write path. *)
let break_cow t c s p =
  let d = Bytes.copy p in
  Array.unsafe_set (Array.unsafe_get t.top c) s d;
  Bytes.unsafe_set (Array.unsafe_get t.privs c) s '\001';
  t.generation <- t.generation + 1;
  t.family.cow_breaks <- t.family.cow_breaks + 1;
  d

(* Write path on page number [idx]: own the chunk, then break payload
   sharing on first dirty; [no_page] when unmapped. An unmapped page
   yields [no_page] before any sharing is broken (owning a chunk is
   invisible: no payload is copied and no counter moves). *)
let[@inline] rw_page_at t idx =
  let c = idx lsr chunk_bits in
  if c >= chunks then no_page
  else begin
    if Bytes.unsafe_get t.owned c <> '\001' then own_chunk t c;
    let s = idx land (chunk_pages - 1) in
    let p = Array.unsafe_get (Array.unsafe_get t.top c) s in
    if p == no_page || Bytes.unsafe_get (Array.unsafe_get t.privs c) s = '\001' then p
    else break_cow t c s p
  end

let[@inline] rw_page t addr =
  let p = rw_page_at t (page_of addr) in
  if p == no_page then raise (segfault addr);
  p

(* Page window: the int-address form of [rw_page]. A negative [a] maps
   to a page number far above the layout, so it faults like any address
   outside it. *)
let store_page t a =
  let p = rw_page_at t (a lsr page_bits) in
  if p == no_page then raise (segfault (Int64.of_int a));
  p

(* Decode-path window: the page payload under [addr] plus the offset
   into it, without raising. The caller must treat the payload as
   read-only — handing out the live bytes (shared or not) is exactly
   what makes zero-copy instruction fetch possible; any write through
   it would bypass CoW. *)
let code_window t addr =
  let p = page_at t (page_of addr) in
  if p == no_page then None else Some (p, offset_of addr)

(* The page's payload may be aliased by a fork relative: either the
   whole chunk is still unowned, or its privacy byte is clear. *)
let payload_shared t addr =
  let idx = page_of addr in
  let c = idx lsr chunk_bits in
  let s = idx land (chunk_pages - 1) in
  c < chunks
  && Array.unsafe_get (Array.unsafe_get t.top c) s != no_page
  && (Bytes.unsafe_get t.owned c <> '\001'
     || Bytes.unsafe_get (Array.unsafe_get t.privs c) s <> '\001')

let read_u8 t addr = Char.code (Bytes.get (ro_page t addr) (offset_of addr))

let write_u8 t addr v =
  Bytes.set (rw_page t addr) (offset_of addr) (Char.chr (v land 0xFF))

(* Multi-byte accesses take the fast path when they fit in one page. *)
let read_u64 t addr =
  let off = offset_of addr in
  if off + 8 <= page_size then Bytes.get_int64_le (ro_page t addr) off
  else begin
    let v = ref 0L in
    for i = 7 downto 0 do
      let b = read_u8 t (Int64.add addr (Int64.of_int i)) in
      v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int b)
    done;
    !v
  end

let write_u64 t addr v =
  let off = offset_of addr in
  if off + 8 <= page_size then Bytes.set_int64_le (rw_page t addr) off v
  else
    for i = 0 to 7 do
      let b = Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * i)) 0xFFL) in
      write_u8 t (Int64.add addr (Int64.of_int i)) b
    done

let read_u32 t addr =
  let off = offset_of addr in
  if off + 4 <= page_size then
    Int64.logand (Int64.of_int32 (Bytes.get_int32_le (ro_page t addr) off)) 0xFFFFFFFFL
  else begin
    let v = ref 0L in
    for i = 3 downto 0 do
      let b = read_u8 t (Int64.add addr (Int64.of_int i)) in
      v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int b)
    done;
    !v
  end

let write_u32 t addr v =
  let off = offset_of addr in
  if off + 4 <= page_size then
    Bytes.set_int32_le (rw_page t addr) off (Int64.to_int32 v)
  else
    for i = 0 to 3 do
      let b = Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * i)) 0xFFL) in
      write_u8 t (Int64.add addr (Int64.of_int i)) b
    done

let read_bytes t addr len =
  let out = Bytes.create len in
  let pos = ref 0 in
  while !pos < len do
    let a = Int64.add addr (Int64.of_int !pos) in
    let off = offset_of a in
    let chunk = Stdlib.min (len - !pos) (page_size - off) in
    Bytes.blit (ro_page t a) off out !pos chunk;
    pos := !pos + chunk
  done;
  out

(* Pages are processed in address order and [rw_page] faults on an
   unmapped page before breaking any sharing on it, so a spanning write
   that hits an unmapped page leaves exactly the prefix a per-byte loop
   would have written (and has CoW-broken only those prefix pages). *)
let write_bytes t addr src =
  let len = Bytes.length src in
  let pos = ref 0 in
  while !pos < len do
    let a = Int64.add addr (Int64.of_int !pos) in
    let off = offset_of a in
    let chunk = Stdlib.min (len - !pos) (page_size - off) in
    Bytes.blit src !pos (rw_page t a) off chunk;
    pos := !pos + chunk
  done

(* Bytes until the first NUL at [addr] (page-aware strlen); faults at
   the first unmapped byte reached before a NUL, like a byte loop. *)
let cstr_len t addr =
  let rec scan a acc =
    let off = offset_of a in
    let d = ro_page t a in
    match Bytes.index_from_opt d off '\000' with
    | Some i -> acc + (i - off)
    | None -> scan (Int64.add a (Int64.of_int (page_size - off))) (acc + (page_size - off))
  in
  scan addr 0

(* A fork copies the 256-word directories, never a chunk or a page:
   both sides drop ownership, so chunk and payload copies happen
   lazily on first write in either space. *)
let clone t =
  let n = t.mapped_pages in
  Bytes.fill t.owned 0 chunks '\000';
  t.family.clones <- t.family.clones + 1;
  t.family.pages_aliased <- t.family.pages_aliased + n;
  {
    top = Array.copy t.top;
    privs = Array.copy t.privs;
    owned = Bytes.make chunks '\000';
    mapped_pages = n;
    generation = 0;
    family = t.family;
  }

let generation t = t.generation
let mapped_bytes t = t.mapped_pages * page_size

let resident_bytes t =
  let acc = ref 0 in
  for c = 0 to chunks - 1 do
    if Bytes.get t.owned c = '\001' then
      Array.iteri
        (fun s p ->
          if p != no_page && Bytes.get t.privs.(c) s = '\001' then acc := !acc + page_size)
        t.top.(c)
  done;
  !acc

let shared_bytes t = mapped_bytes t - resident_bytes t

let family_stats t =
  {
    clones = t.family.clones;
    pages_aliased = t.family.pages_aliased;
    cow_breaks = t.family.cow_breaks;
  }
