let page_size = 4096
let page_bits = 12

(* Fork-path telemetry, shared by every space in one clone family so the
   numbers survive children being reaped. *)
type family_stats = {
  mutable clones : int;  (* Memory.clone calls in this family *)
  mutable pages_aliased : int;  (* pages shared (not copied) at clone time *)
  mutable cow_breaks : int;  (* frames copied from a relative: CoW breaks, fork pre-copies *)
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
   heap. A chunk is a payload array plus one privacy byte per page
   ('\001': sole owner of the payload, safe to write in place). After a
   clone neither side owns any chunk, except those holding pages the
   parent keeps private (below); the first mutating access to a chunk
   copies its payload array whole and starts it with every privacy byte
   clear. Payloads stay copy-on-write: a write to a page whose payload
   may be aliased first replaces it with a private copy.

   Frames (page payloads) have a lifecycle. [map] installs the shared,
   never-written [zero_frame]; the first write copies it like any CoW
   break, uncounted since no relative's data moves. Every frame copy
   takes a frame from this domain's free list when it has one.
   Beside the privacy bytes, which compiled code reads, each space
   lists its private pages, so [release] hands a dead space's frames
   back without searching for them. Once its family has cloned, each
   page a space CoW-breaks stays private through every clone of it:
   that clone copies it into the child up front and the parent keeps
   it, so neither side breaks sharing on it and no frame is orphaned.
   Only the family's first clone, of the space [create] made, drops
   the list instead: pre-copying the pages written while loading would
   copy load-time data into every child of a fork server.

   Memory is W^X: [seal], before the first clone, marks mapped pages
   read-only and executable in [exec], whose per-chunk strings the fork
   family shares. Writes to them fault, and only they are fetchable.

   Invariants:
   - A payload array or privacy string reachable through an unowned
     chunk is never mutated — every write path calls [own_chunk] first
     (a clone happened since the chunk was last owned, so every payload
     in it is aliased by construction).
   - An aliased payload is never written in place.
   - In an owned chunk, a '\001' privacy byte means the page is mapped
     and this space alone holds its payload: only [break_cow] and a
     pre-copy in [clone] set the byte, each on a page it just gave a
     fresh frame, [own_chunk] starts every byte clear, and [release]
     and [seal] clear the bytes of the slots they empty or seal.
     [Compile.store] writes such a page in place without calling in
     here. The zero frame is never private, so it is never written or
     released.
   - [private_pages] lists exactly the pages whose privacy byte is set
     in an owned chunk, each once: [break_cow] and the pre-copy push
     the page whose byte they set, [seal] removes the pages it seals,
     [release] empties the list, and the family's first [clone], which
     leaves the parent no owned chunk, empties it too. A space born
     from a clone starts with the pages pre-copied into it.
   - A sealed page is mapped and never private: no write reaches it and
     [release] never frees it.
   - A free-list frame is reachable from no space.
   - [no_page], [zero_frame], [empty_chunk], [no_privs] and [no_exec]
     are immutable sentinels, shared by all spaces and domains. *)
let chunk_bits = 7
let chunk_pages = 1 lsl chunk_bits (* pages per chunk *)
let chunks = Int64.to_int Layout.address_limit / (chunk_pages * page_size) (* 256 *)

let no_page = Bytes.create 0
let zero_frame = Bytes.make page_size '\000'
let empty_chunk : bytes array = Array.make chunk_pages no_page
let no_privs = Bytes.make chunk_pages '\000'
let no_exec = String.make chunk_pages '\000'

(* Per-domain free list: 256 frames is 1 MiB a domain. *)
let free_cap = 256

type free_list = { frames : bytes array; mutable n : int }

let free_list =
  Domain.DLS.new_key (fun () -> { frames = Array.make free_cap no_page; n = 0 })

(* A private copy of [src], in a recycled frame when there is one. *)
let copy_frame src =
  let fl = Domain.DLS.get free_list in
  if fl.n = 0 then Bytes.copy src
  else begin
    fl.n <- fl.n - 1;
    let d = Array.unsafe_get fl.frames fl.n in
    Array.unsafe_set fl.frames fl.n no_page;
    Bytes.blit src 0 d 0 page_size;
    d
  end

let free_frames () =
  let fl = Domain.DLS.get free_list in
  Array.to_list (Array.sub fl.frames 0 fl.n)

type t = {
  top : bytes array array;  (* chunk -> page payloads, [no_page] if unmapped *)
  privs : Bytes.t array;  (* chunk -> privacy byte per page *)
  owned : Bytes.t;  (* '\001' per chunk: its payload array and privacy bytes are ours *)
  exec : string array;  (* chunk -> '\001' per sealed page; [no_exec] if none *)
  mutable mapped_pages : int;
  family : family_stats;
  mutable private_pages : int list;  (* page numbers private in an owned chunk *)
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
    exec = Array.make chunks no_exec;
    mapped_pages = 0;
    family;
    private_pages = [];
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
      Array.unsafe_set ch s zero_frame;
      t.mapped_pages <- t.mapped_pages + 1
    end
  done

(* Before the first clone, a mapped page's chunk is owned ([map]). *)
let seal t ~addr ~len =
  if len <= 0 then invalid_arg "Memory.seal: nonpositive length";
  if t.family.clones > 0 then invalid_arg "Memory.seal: the space has been cloned";
  let first = page_of addr in
  let last = page_of (Int64.add addr (Int64.of_int (len - 1))) in
  for idx = first to Stdlib.min last ((chunks * chunk_pages) - 1) do
    let c = idx lsr chunk_bits and s = idx land (chunk_pages - 1) in
    if Array.unsafe_get t.top.(c) s != no_page then begin
      let x = Bytes.of_string t.exec.(c) in
      Bytes.set x s '\001';
      t.exec.(c) <- Bytes.unsafe_to_string x;
      Bytes.set t.privs.(c) s '\000'
    end
  done;
  (* a private page is mapped, so each one in the range was sealed *)
  t.private_pages <- List.filter (fun idx -> idx < first || idx > last) t.private_pages

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
  let d = copy_frame p in
  Array.unsafe_set (Array.unsafe_get t.top c) s d;
  Bytes.unsafe_set (Array.unsafe_get t.privs c) s '\001';
  if p != zero_frame then t.family.cow_breaks <- t.family.cow_breaks + 1;
  t.private_pages <- (c lsl chunk_bits) lor s :: t.private_pages;
  d

(* Write path on page number [idx]: own the chunk, then break payload
   sharing on first dirty; [no_page] when unmapped or sealed (checked
   only off the private fast path), before any sharing is broken
   (owning a chunk is invisible: no payload is copied, no counter
   moves). *)
let[@inline] rw_page_at t idx =
  let c = idx lsr chunk_bits in
  if c >= chunks then no_page
  else begin
    if Bytes.unsafe_get t.owned c <> '\001' then own_chunk t c;
    let s = idx land (chunk_pages - 1) in
    let p = Array.unsafe_get (Array.unsafe_get t.top c) s in
    if p == no_page || Bytes.unsafe_get (Array.unsafe_get t.privs c) s = '\001' then p
    else if String.unsafe_get (Array.unsafe_get t.exec c) s = '\001' then no_page
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

(* Fetch window: the sealed page's payload under [addr] plus the offset
   into it, without raising. Sealed payloads are never written, so
   handing out the live bytes is safe, and it is what makes zero-copy
   instruction fetch possible. *)
let code_window t addr =
  let idx = page_of addr in
  let c = idx lsr chunk_bits in
  let s = idx land (chunk_pages - 1) in
  if c < chunks && String.unsafe_get (Array.unsafe_get t.exec c) s = '\001' then
    Some (Array.unsafe_get (Array.unsafe_get t.top c) s, offset_of addr)
  else None

let read_u8 t addr = Char.code (Bytes.get (ro_page t addr) (offset_of addr))

let write_u8 t addr v =
  Bytes.set (rw_page t addr) (offset_of addr) (Char.chr (v land 0xFF))

(* A multi-byte access that crosses a page goes a byte at a time: a
   load gathers from the highest byte down, a store scatters from the
   lowest up, so each faults at the byte such a loop reaches first. *)
let gather t addr n =
  let v = ref 0L in
  for i = n - 1 downto 0 do
    let b = read_u8 t (Int64.add addr (Int64.of_int i)) in
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int b)
  done;
  !v

let scatter t addr n v =
  for i = 0 to n - 1 do
    let b = Int64.to_int (Int64.shift_right_logical v (8 * i)) in
    write_u8 t (Int64.add addr (Int64.of_int i)) b
  done

(* Multi-byte accesses take the fast path when they fit in one page. *)
let read_u64 t addr =
  let off = offset_of addr in
  if off + 8 <= page_size then Bytes.get_int64_le (ro_page t addr) off else gather t addr 8

let write_u64 t addr v =
  let off = offset_of addr in
  if off + 8 <= page_size then Bytes.set_int64_le (rw_page t addr) off v
  else scatter t addr 8 v

let read_u32 t addr =
  let off = offset_of addr in
  if off + 4 <= page_size then
    Int64.logand (Int64.of_int32 (Bytes.get_int32_le (ro_page t addr) off)) 0xFFFFFFFFL
  else gather t addr 4

let write_u32 t addr v =
  let off = offset_of addr in
  if off + 4 <= page_size then
    Bytes.set_int32_le (rw_page t addr) off (Int64.to_int32 v)
  else scatter t addr 4 v

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

(* A fork copies the 256-word directories and drops both sides'
   ownership, so chunk and payload copies happen lazily on first write
   in either space. A family's first clone is of the space [create]
   made, whose private pages, written while loading, become shared like
   the rest. Every later clone, of that space or of a space born from a
   clone (a fork child, a snapshot, a resumed server), pre-copies the
   space's private pages: the child gets its own copy of each now, and
   the parent keeps them private and their chunks owned. So a resumed
   server's first fork keeps the stack page it broke. The family shares
   one executable map, which [seal] no longer changes. *)
let clone t =
  let n = t.mapped_pages in
  if t.family.clones = 0 then t.private_pages <- [];
  t.family.clones <- t.family.clones + 1;
  t.family.pages_aliased <- t.family.pages_aliased + n;
  let child =
    {
      top = Array.copy t.top;
      privs = Array.copy t.privs;
      owned = Bytes.make chunks '\000';
      exec = t.exec;
      mapped_pages = n;
      family = t.family;
      private_pages = [];
    }
  in
  Bytes.fill t.owned 0 chunks '\000';
  List.iter
    (fun idx ->
      let c = idx lsr chunk_bits and s = idx land (chunk_pages - 1) in
      if Bytes.get child.owned c <> '\001' then begin
        Bytes.set t.owned c '\001';
        Bytes.set child.owned c '\001';
        child.top.(c) <- Array.copy t.top.(c);
        child.privs.(c) <- Bytes.make chunk_pages '\000'
      end;
      child.top.(c).(s) <- copy_frame t.top.(c).(s);
      Bytes.set child.privs.(c) s '\001';
      child.private_pages <- idx :: child.private_pages;
      t.family.cow_breaks <- t.family.cow_breaks + 1)
    t.private_pages;
  child

let release t =
  let fl = Domain.DLS.get free_list in
  List.iter
    (fun idx ->
      let c = idx lsr chunk_bits and s = idx land (chunk_pages - 1) in
      let ch = t.top.(c) in
      let p = ch.(s) in
      ch.(s) <- no_page;
      Bytes.set t.privs.(c) s '\000';
      t.mapped_pages <- t.mapped_pages - 1;
      if fl.n < free_cap then begin
        fl.frames.(fl.n) <- p;
        fl.n <- fl.n + 1
      end)
    t.private_pages;
  t.private_pages <- []

let mapped_bytes t = t.mapped_pages * page_size
let resident_bytes t = List.length t.private_pages * page_size
let shared_bytes t = mapped_bytes t - resident_bytes t

let family_stats t =
  {
    clones = t.family.clones;
    pages_aliased = t.family.pages_aliased;
    cow_breaks = t.family.cow_breaks;
  }
