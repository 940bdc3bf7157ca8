(* Machine-level tests: memory, faults, and instruction semantics
   executed through the real fetch/decode/execute path. *)

open Isa
open Vm64

let i64 = Alcotest.testable (Fmt.fmt "0x%Lx") Int64.equal

(* ---- memory --------------------------------------------------------------- *)

let test_mem_rw () =
  let m = Memory.create () in
  Memory.map m ~addr:0x1000L ~len:4096;
  Memory.write_u64 m 0x1000L 0x1122334455667788L;
  Alcotest.check i64 "u64" 0x1122334455667788L (Memory.read_u64 m 0x1000L);
  Alcotest.(check int) "low byte (little endian)" 0x88 (Memory.read_u8 m 0x1000L);
  Memory.write_u8 m 0x1007L 0xFF;
  Alcotest.check i64 "byte patch visible" 0xFF22334455667788L (Memory.read_u64 m 0x1000L)

let test_mem_u32 () =
  let m = Memory.create () in
  Memory.map m ~addr:0L ~len:4096;
  Memory.write_u32 m 8L 0xDEADBEEFL;
  Alcotest.check i64 "zero extended" 0xDEADBEEFL (Memory.read_u32 m 8L);
  Alcotest.check i64 "upper half untouched" 0xDEADBEEFL (Memory.read_u64 m 8L)

let test_mem_cross_page () =
  let m = Memory.create () in
  Memory.map m ~addr:0L ~len:8192;
  Memory.write_u64 m 4092L 0x0102030405060708L;
  Alcotest.check i64 "cross-page u64" 0x0102030405060708L (Memory.read_u64 m 4092L);
  Memory.write_bytes m 4090L (Bytes.of_string "ABCDEFGHIJ");
  Alcotest.(check string) "cross-page bytes" "ABCDEFGHIJ"
    (Bytes.to_string (Memory.read_bytes m 4090L 10))

let test_mem_unmapped_faults () =
  let m = Memory.create () in
  Memory.map m ~addr:0x1000L ~len:4096;
  (match Memory.read_u8 m 0x9999999L with
  | exception Fault.Trap (Fault.Segfault 0x9999999L) -> ()
  | _ -> Alcotest.fail "expected segfault");
  match Memory.write_u64 m 0xFF0L 1L with
  | exception Fault.Trap (Fault.Segfault _) -> ()
  | _ -> Alcotest.fail "expected segfault below mapping"

let test_mem_clone_isolated () =
  let m = Memory.create () in
  Memory.map m ~addr:0L ~len:4096;
  Memory.write_u64 m 0L 42L;
  let c = Memory.clone m in
  Memory.write_u64 c 0L 99L;
  Alcotest.check i64 "parent unchanged" 42L (Memory.read_u64 m 0L);
  Alcotest.check i64 "child sees write" 99L (Memory.read_u64 c 0L)

let test_mem_cross_page_u32_u64 () =
  (* the straddling slow paths of the 4- and 8-byte accessors *)
  let m = Memory.create () in
  Memory.map m ~addr:0L ~len:8192;
  List.iter
    (fun off ->
      let a = Int64.of_int off in
      Memory.write_u64 m a 0x1122334455667788L;
      Alcotest.check i64
        (Printf.sprintf "u64 roundtrip @%d" off)
        0x1122334455667788L (Memory.read_u64 m a))
    [ 4089; 4090; 4091; 4092; 4093; 4094; 4095 ];
  List.iter
    (fun off ->
      let a = Int64.of_int off in
      Memory.write_u32 m a 0xDEADBEEFL;
      Alcotest.check i64
        (Printf.sprintf "u32 roundtrip @%d" off)
        0xDEADBEEFL (Memory.read_u32 m a))
    [ 4093; 4094; 4095 ];
  (* little-endian byte layout across the boundary *)
  Memory.write_u64 m 4092L 0x0807060504030201L;
  Alcotest.(check int) "low byte on first page" 0x01 (Memory.read_u8 m 4092L);
  Alcotest.(check int) "fifth byte on second page" 0x05 (Memory.read_u8 m 4096L)

let test_mem_cross_page_fault_partial () =
  (* a spanning write that hits an unmapped page faults at the page
     boundary, leaving exactly the prefix a per-byte loop would write *)
  let m = Memory.create () in
  Memory.map m ~addr:0L ~len:4096;
  (match Memory.write_u64 m 4092L 0x0102030405060708L with
  | exception Fault.Trap (Fault.Segfault a) ->
    Alcotest.check i64 "fault at page boundary" 4096L a
  | () -> Alcotest.fail "expected segfault");
  Alcotest.check i64 "prefix written before the fault" 0x05060708L
    (Memory.read_u32 m 4092L)

(* W^X: a sealed page reads as before, is the only kind of page the
   fetch window serves and counts as shared; a write to it faults at the
   written byte, a spanning one after writing the data prefix, and no
   sealing is possible once the family has been cloned. *)
let test_seal () =
  let m = Memory.create () in
  Memory.map m ~addr:0L ~len:(3 * 4096);
  Memory.write_bytes m 4096L (Bytes.of_string "text");
  Memory.seal m ~addr:4096L ~len:1;
  Alcotest.(check int) "sealed bytes read back" (Char.code 'e') (Memory.read_u8 m 4097L);
  Alcotest.(check bool) "fetch window on the sealed page" true
    (Memory.code_window m 8191L <> None);
  Alcotest.(check bool) "no fetch window on data pages" true
    (Memory.code_window m 4095L = None && Memory.code_window m 8192L = None);
  Alcotest.(check int) "a sealed page is not resident" 0 (Memory.resident_bytes m);
  let faults_at what a f =
    match f () with
    | exception Fault.Trap (Fault.Segfault x) -> Alcotest.check i64 what a x
    | () -> Alcotest.failf "%s: the write went through" what
  in
  faults_at "in-page u64" 4100L (fun () -> Memory.write_u64 m 4100L 1L);
  faults_at "u8 at the page end" 8191L (fun () -> Memory.write_u8 m 8191L 1);
  faults_at "page window" 4096L (fun () -> ignore (Memory.store_page m 4096));
  faults_at "u64 from data into text" 4096L (fun () ->
      Memory.write_u64 m 4092L 0x0102030405060708L);
  Alcotest.check i64 "the data prefix is written" 0x05060708L (Memory.read_u32 m 4092L);
  Alcotest.(check string) "text unchanged" "text"
    (Bytes.to_string (Memory.read_bytes m 4096L 4));
  Memory.write_u8 m 8192L 1;
  let c = Memory.clone m in
  let refused = Invalid_argument "Memory.seal: the space has been cloned" in
  Alcotest.check_raises "seal in the parent after a clone" refused (fun () ->
      Memory.seal m ~addr:0L ~len:4096);
  Alcotest.check_raises "seal in the child" refused (fun () ->
      Memory.seal c ~addr:0L ~len:4096);
  faults_at "the child's write" 4096L (fun () -> Memory.write_u8 c 4096L 1);
  Memory.release c;
  Alcotest.(check bool) "release keeps sealed pages" true (Memory.code_window c 4096L <> None)

(* ---- copy-on-write fork ---------------------------------------------------- *)

let test_cow_isolation_both_directions () =
  let m = Memory.create () in
  Memory.map m ~addr:0L ~len:4096;
  Memory.write_u64 m 0L 42L;
  let c = Memory.clone m in
  Memory.write_u64 m 8L 7L;
  Memory.write_u64 c 0L 99L;
  Alcotest.check i64 "child write invisible to parent" 42L (Memory.read_u64 m 0L);
  Alcotest.check i64 "parent write invisible to child" 0L (Memory.read_u64 c 8L);
  Alcotest.check i64 "parent sees own write" 7L (Memory.read_u64 m 8L);
  Alcotest.check i64 "child sees own write" 99L (Memory.read_u64 c 0L)

let test_cow_fork_chain () =
  let g = Memory.create () in
  Memory.map g ~addr:0L ~len:4096;
  Memory.write_u64 g 0L 1L;
  let p = Memory.clone g in
  let c = Memory.clone p in
  Memory.write_u64 g 0L 10L;
  Memory.write_u64 p 0L 20L;
  Alcotest.check i64 "grandparent" 10L (Memory.read_u64 g 0L);
  Alcotest.check i64 "parent" 20L (Memory.read_u64 p 0L);
  Alcotest.check i64 "child keeps fork-time value" 1L (Memory.read_u64 c 0L);
  let gc = Memory.clone c in
  Memory.write_u64 c 0L 30L;
  Alcotest.check i64 "grandchild keeps its fork-time value" 1L
    (Memory.read_u64 gc 0L);
  Alcotest.check i64 "child" 30L (Memory.read_u64 c 0L)

let test_cow_memoized_page_write_through () =
  (* writing through the one-page memo must still break sharing *)
  let m = Memory.create () in
  Memory.map m ~addr:0L ~len:8192;
  Memory.write_u64 m 0L 5L;
  ignore (Memory.read_u8 m 0L) (* memoize page 0 in the parent *);
  let c = Memory.clone m in
  Memory.write_u64 m 0L 6L (* write via the memoized (now shared) record *);
  Alcotest.check i64 "child unaffected by memoized write" 5L (Memory.read_u64 c 0L);
  Alcotest.check i64 "parent sees it" 6L (Memory.read_u64 m 0L);
  ignore (Memory.read_u8 c 4096L) (* memoize page 1 in the child *);
  Memory.write_u8 c 4097L 0xAB;
  Alcotest.(check int) "parent unaffected by child's memoized write" 0
    (Memory.read_u8 m 4097L)

let test_cow_accounting () =
  (* a page is resident once written: mapping gives shared zero pages *)
  let m = Memory.create () in
  Memory.map m ~addr:0L ~len:(3 * 4096);
  Alcotest.(check int) "mapped, none written" 0 (Memory.resident_bytes m);
  Alcotest.(check int) "zero pages are shared" (3 * 4096) (Memory.shared_bytes m);
  Memory.write_u8 m 4096L 1;
  Memory.write_u8 m 8192L 1;
  Alcotest.(check int) "resident once written" (2 * 4096) (Memory.resident_bytes m);
  let c = Memory.clone m in
  Alcotest.(check int) "mapped unchanged by fork" (3 * 4096) (Memory.mapped_bytes m);
  Alcotest.(check int) "parent fully shared after fork" 0 (Memory.resident_bytes m);
  Alcotest.(check int) "child fully shared after fork" 0 (Memory.resident_bytes c);
  Memory.write_u8 m 4096L 2;
  Alcotest.(check int) "one page privatised by the write" 4096
    (Memory.resident_bytes m);
  Alcotest.(check int) "rest still shared" (2 * 4096) (Memory.shared_bytes m);
  Alcotest.(check int) "resident + shared = mapped" (Memory.mapped_bytes m)
    (Memory.resident_bytes m + Memory.shared_bytes m);
  let st = Memory.family_stats m in
  Alcotest.(check int) "clones" 1 st.Memory.clones;
  Alcotest.(check int) "pages aliased at clone" 3 st.Memory.pages_aliased;
  Alcotest.(check int) "cow breaks (zero fills uncounted)" 1 st.Memory.cow_breaks;
  Alcotest.(check int) "telemetry shared with the child" 1
    (Memory.family_stats c).Memory.clones;
  (* page 1, broken after the first fork, is hot: the next fork copies
     it into the child and the parent keeps it *)
  let c2 = Memory.clone m in
  Alcotest.(check int) "parent keeps its hot page" 4096 (Memory.resident_bytes m);
  Alcotest.(check int) "child starts with a copy of it" 4096 (Memory.resident_bytes c2);
  Alcotest.(check int) "the pre-copy is counted" 2 (Memory.family_stats m).Memory.cow_breaks;
  Memory.write_u8 m 4097L 3;
  Memory.write_u8 c2 4097L 4;
  Alcotest.(check int) "neither side breaks sharing on it" 2
    (Memory.family_stats m).Memory.cow_breaks;
  Alcotest.(check int) "parent's write stays in the parent" 3 (Memory.read_u8 m 4097L);
  Alcotest.(check int) "child's write stays in the child" 4 (Memory.read_u8 c2 4097L);
  Alcotest.(check int) "fork-time byte in the child" 2 (Memory.read_u8 c2 4096L)

let test_cstr_len () =
  let m = Memory.create () in
  Memory.map m ~addr:0L ~len:8192;
  Memory.write_bytes m 4090L (Bytes.of_string "ABCDEFGHIJ");
  Alcotest.(check int) "crosses the page boundary" 10 (Memory.cstr_len m 4090L);
  Alcotest.(check int) "empty string" 0 (Memory.cstr_len m 0L);
  let m2 = Memory.create () in
  Memory.map m2 ~addr:0L ~len:4096;
  Memory.write_bytes m2 0L (Bytes.make 4096 'A');
  match Memory.cstr_len m2 0L with
  | exception Fault.Trap (Fault.Segfault 4096L) -> ()
  | _ -> Alcotest.fail "expected segfault at the first unmapped byte"

let test_mapped_bytes () =
  let m = Memory.create () in
  Memory.map m ~addr:0L ~len:1;
  Alcotest.(check int) "one page" 4096 (Memory.mapped_bytes m);
  Memory.map m ~addr:0L ~len:4096;
  Alcotest.(check int) "idempotent" 4096 (Memory.mapped_bytes m)

let prop_mem_roundtrip =
  QCheck.Test.make ~name:"u64 write/read roundtrip at any offset" ~count:300
    QCheck.(pair (int_range 0 8184) int64)
    (fun (off, v) ->
      let m = Memory.create () in
      Memory.map m ~addr:0L ~len:8192;
      Memory.write_u64 m (Int64.of_int off) v;
      Memory.read_u64 m (Int64.of_int off) = v)

let test_map_outside_layout () =
  let m = Memory.create () in
  let outside = Invalid_argument "Memory.map: outside the 128 MiB guest layout" in
  Alcotest.check_raises "at the limit" outside (fun () ->
      Memory.map m ~addr:Layout.address_limit ~len:1);
  Alcotest.check_raises "straddling the limit" outside (fun () ->
      Memory.map m ~addr:(Int64.sub Layout.address_limit 4096L) ~len:8192);
  Alcotest.check_raises "far above" outside (fun () ->
      Memory.map m ~addr:0x7FFF_0000_0000_0000L ~len:4096);
  Alcotest.(check int) "nothing mapped by a refused map" 0 (Memory.mapped_bytes m);
  Memory.map m ~addr:(Int64.sub Layout.address_limit 4096L) ~len:4096;
  Memory.write_u8 m (Int64.sub Layout.address_limit 1L) 7;
  Alcotest.(check int) "last page usable" 7
    (Memory.read_u8 m (Int64.sub Layout.address_limit 1L))

(* ---- page table vs a deep-copy reference model ----------------------------- *)

(* A family of up to 4 spaces runs random map / seal / write / read /
   clone / release sequences; a model that deep-copies on clone runs
   the same ops. Every result and fault address must agree, and so must
   the page contents and the accounting (mapped/resident/shared, the
   pages a space holds privately, the sealed pages, counted CoW breaks)
   under the frame lifecycle:
   - [map] gives shared zero pages, and a first write privatises a page
     without a counted break;
   - [seal] makes mapped pages read-only and executable, and is refused
     once the family has been cloned; a write to a sealed page faults at
     the written byte, as one to an unmapped page does;
   - a page written after its space's first clone is hot: each later
     clone copies it into the child (a counted break) and the parent
     keeps it private, while every other page becomes shared;
   - [Release i] kills space i: its private pages fault from then on.
   After every op three frame invariants hold: no frame private to one
   live space is reachable from another; no free-list frame is
   reachable from a live space; the zero frame is never private. Frames
   and privacy are read through [Memory.t]'s private record. Addresses
   cluster around the chunk boundary at page 128 and the top of the
   layout, at page ends. *)
type mem_op =
  | Map of int * int64 * int
  | Seal of int * int64 * int
  | W8 of int * int64 * int
  | W64 of int * int64 * int64
  | R8 of int * int64
  | R64 of int * int64
  | Clone of int * int  (* source, slot to replace when the family is full *)
  | Release of int

let show_mem_op = function
  | Map (s, a, n) -> Printf.sprintf "map %d 0x%Lx+%d" s a n
  | Seal (s, a, n) -> Printf.sprintf "seal %d 0x%Lx+%d" s a n
  | W8 (s, a, v) -> Printf.sprintf "w8 %d 0x%Lx %d" s a v
  | W64 (s, a, v) -> Printf.sprintf "w64 %d 0x%Lx 0x%Lx" s a v
  | R8 (s, a) -> Printf.sprintf "r8 %d 0x%Lx" s a
  | R64 (s, a) -> Printf.sprintf "r64 %d 0x%Lx" s a
  | Clone (s, d) -> Printf.sprintf "clone %d->%d" s d
  | Release s -> Printf.sprintf "release %d" s

let model_pages = [ 126; 127; 128; 129; 130; 32766; 32767 ]

let gen_mem_op =
  let open QCheck.Gen in
  let addr =
    map3
      (fun p near_end o -> Int64.of_int ((p * 4096) + if near_end then 4096 - o else o))
      (oneofl model_pages) bool (int_range 1 9)
  in
  let space = int_bound 3 in
  frequency
    [
      (2, map3 (fun s a n -> Map (s, a, n)) space addr (int_range 1 9000));
      (1, map3 (fun s a n -> Seal (s, a, n)) space addr (int_range 1 9000));
      (4, map3 (fun s a v -> W8 (s, a, v)) space addr (int_bound 255));
      (4, map3 (fun s a v -> W64 (s, a, v)) space addr ui64);
      (3, map2 (fun s a -> R8 (s, a)) space addr);
      (3, map2 (fun s a -> R64 (s, a)) space addr);
      (2, map2 (fun s d -> Clone (s, d)) space space);
      (1, map (fun s -> Release s) space);
    ]

type space_model = {
  pages : (int, Bytes.t) Hashtbl.t;
  priv : (int, unit) Hashtbl.t;  (* pages holding a frame of their own *)
  zero : (int, unit) Hashtbl.t;  (* pages still on the shared zero frame *)
  hot : (int, unit) Hashtbl.t;  (* pages written since the first clone *)
  sealed : (int, unit) Hashtbl.t;  (* read-only, executable pages *)
  mutable forked : bool;
  mutable alive : bool;
}

let fresh_model () =
  {
    pages = Hashtbl.create 8;
    priv = Hashtbl.create 8;
    zero = Hashtbl.create 8;
    hot = Hashtbl.create 8;
    sealed = Hashtbl.create 8;
    forked = false;
    alive = true;
  }

type mem_result = Value of int64 | Fault_at of int64 | Refused

(* Page number [p]'s frame in the page table, and whether the space
   holds it privately (chunk owned, privacy byte set). *)
let frame (m : Memory.t) p =
  let f = m.Memory.top.(p lsr 7).(p land 127) in
  if f == Memory.no_page then None else Some f

let held_privately (m : Memory.t) p =
  Bytes.get m.Memory.owned (p lsr 7) = '\001'
  && Bytes.get m.Memory.privs.(p lsr 7) (p land 127) = '\001'

let zero_frame =
  let m = Memory.create () in
  Memory.map m ~addr:0L ~len:1;
  Option.get (frame m 0)

let prop_page_table_model =
  QCheck.Test.make ~name:"page table matches a deep-copy model" ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_mem_op ops))
       QCheck.Gen.(list_size (int_range 1 60) gen_mem_op))
    (fun ops ->
      let pg a = Int64.to_int (Int64.shift_right_logical a 12) in
      let off a = Int64.to_int (Int64.logand a 0xFFFL) in
      let breaks = ref 0 in
      let cloned = ref false in
      let m_read8 s a =
        match Hashtbl.find_opt s.pages (pg a) with
        | Some p -> Char.code (Bytes.get p (off a))
        | None -> raise (Fault.Trap (Fault.Segfault a))
      in
      let m_write8 s a v =
        match Hashtbl.find_opt s.pages (pg a) with
        | None -> raise (Fault.Trap (Fault.Segfault a))
        | Some _ when Hashtbl.mem s.sealed (pg a) -> raise (Fault.Trap (Fault.Segfault a))
        | Some p ->
          if not (Hashtbl.mem s.priv (pg a)) then begin
            if Hashtbl.mem s.zero (pg a) then Hashtbl.remove s.zero (pg a) else incr breaks;
            Hashtbl.replace s.priv (pg a) ();
            if s.forked then Hashtbl.replace s.hot (pg a) ()
          end;
          Bytes.set p (off a) (Char.chr (v land 0xFF))
      in
      let byte v i = Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * i)) 0xFFL) in
      let model_op s = function
        | Map (_, a, n) ->
          let first = pg a and last = pg (Int64.add a (Int64.of_int (n - 1))) in
          if last >= Int64.to_int Layout.address_limit / 4096 then Refused
          else begin
            for p = first to last do
              if not (Hashtbl.mem s.pages p) then begin
                Hashtbl.replace s.pages p (Bytes.make 4096 '\000');
                Hashtbl.replace s.zero p ()
              end
            done;
            Value 0L
          end
        | Seal (_, a, n) ->
          if !cloned then Refused
          else begin
            for p = pg a to pg (Int64.add a (Int64.of_int (n - 1))) do
              if Hashtbl.mem s.pages p then begin
                Hashtbl.replace s.sealed p ();
                Hashtbl.remove s.priv p
              end
            done;
            Value 0L
          end
        | W8 (_, a, v) ->
          m_write8 s a v;
          Value 0L
        | W64 (_, a, v) ->
          (* byte order: a spanning write leaves the prefix before a fault *)
          for i = 0 to 7 do m_write8 s (Int64.add a (Int64.of_int i)) (byte v i) done;
          Value 0L
        | R8 (_, a) -> Value (Int64.of_int (m_read8 s a))
        | R64 (_, a) ->
          (* an in-page load faults at its address, a spanning one at
             its highest unmapped byte (the slow path reads high to low) *)
          if off a + 8 <= 4096 && not (Hashtbl.mem s.pages (pg a)) then
            raise (Fault.Trap (Fault.Segfault a));
          let v = ref 0L in
          for i = 7 downto 0 do
            let b = m_read8 s (Int64.add a (Int64.of_int i)) in
            v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int b)
          done;
          Value !v
        | Clone _ | Release _ -> Value 0L
      in
      let real_op m = function
        | Map (_, a, n) -> (
          match Memory.map m ~addr:a ~len:n with
          | () -> Value 0L
          | exception Invalid_argument _ -> Refused)
        | Seal (_, a, n) -> (
          match Memory.seal m ~addr:a ~len:n with
          | () -> Value 0L
          | exception Invalid_argument _ -> Refused)
        | W8 (_, a, v) ->
          Memory.write_u8 m a v;
          Value 0L
        | W64 (_, a, v) ->
          Memory.write_u64 m a v;
          Value 0L
        | R8 (_, a) -> Value (Int64.of_int (Memory.read_u8 m a))
        | R64 (_, a) -> Value (Memory.read_u64 m a)
        | Clone _ | Release _ -> Value 0L
      in
      let catch f = try f () with Fault.Trap (Fault.Segfault a) -> Fault_at a in
      let cow_total () = Telemetry.Registry.read_int Memory.metric_cow_breaks in
      let cow_before = cow_total () in
      let real = ref [| Memory.create () |] in
      let model = ref [| fresh_model () |] in
      let check_pages i m s =
        (not s.alive)
        || Memory.mapped_bytes m = 4096 * Hashtbl.length s.pages
           && Memory.resident_bytes m = 4096 * Hashtbl.length s.priv
           && Memory.mapped_bytes m = Memory.resident_bytes m + Memory.shared_bytes m
           && List.for_all
                (fun p ->
                  let a = Int64.of_int (p * 4096) in
                  Memory.is_mapped m a = Hashtbl.mem s.pages p
                  && held_privately m p = Hashtbl.mem s.priv p
                  && Option.is_some (Memory.code_window m a) = Hashtbl.mem s.sealed p
                  &&
                  match (frame m p, Hashtbl.find_opt s.pages p) with
                  | Some f, Some b ->
                    Bytes.equal f b && f == zero_frame = Hashtbl.mem s.zero p
                  | None, None -> true
                  | _ -> false)
                model_pages
        || QCheck.Test.fail_reportf "contents or accounting of space %d" i
      in
      (* the frames a live space holds privately, and all it reaches *)
      let live () =
        List.filter (fun i -> !model.(i).alive) (List.init (Array.length !real) Fun.id)
      in
      let private_frames i =
        List.filter_map
          (fun p -> if held_privately !real.(i) p then frame !real.(i) p else None)
          model_pages
      in
      let reachable i = List.filter_map (frame !real.(i)) model_pages in
      let frame_invariants op =
        let free = Memory.free_frames () in
        List.for_all
          (fun i ->
            let mine = private_frames i in
            (not (List.memq zero_frame mine))
            && List.for_all
                 (fun j ->
                   i = j || not (List.exists (fun f -> List.memq f mine) (reachable j)))
                 (live ())
            && not (List.exists (fun f -> List.memq f free) (reachable i)))
          (live ())
        || QCheck.Test.fail_reportf "%s: frame invariant broken" (show_mem_op op)
      in
      List.for_all
        (fun op ->
          let n = Array.length !real in
          let ok =
            match op with
            | Clone (src, _) when not !model.(src mod n).alive -> true
            | Clone (src, dst) ->
              let src = src mod n in
              let c = Memory.clone !real.(src) in
              cloned := true;
              let mc =
                let s = !model.(src) in
                let pre = Hashtbl.create 8 in
                Hashtbl.iter
                  (fun p () -> if Hashtbl.mem s.priv p then Hashtbl.replace pre p ())
                  s.hot;
                breaks := !breaks + Hashtbl.length pre;
                Hashtbl.reset s.priv;
                Hashtbl.iter (fun p () -> Hashtbl.replace s.priv p ()) pre;
                s.forked <- true;
                let pages = Hashtbl.create 8 in
                Hashtbl.iter (fun p b -> Hashtbl.replace pages p (Bytes.copy b)) s.pages;
                {
                  (fresh_model ()) with
                  pages;
                  priv = Hashtbl.copy pre;
                  zero = Hashtbl.copy s.zero;
                  sealed = Hashtbl.copy s.sealed;
                }
              in
              if n < 4 then begin
                real := Array.append !real [| c |];
                model := Array.append !model [| mc |]
              end
              else begin
                !real.(dst) <- c;
                !model.(dst) <- mc
              end;
              true
            | Release s ->
              let i = s mod n in
              let ms = !model.(i) in
              if ms.alive then begin
                Memory.release !real.(i);
                ms.alive <- false;
                (* written pages fault from now on; shared and sealed
                   ones stay *)
                List.for_all
                  (fun p ->
                    Memory.is_mapped !real.(i) (Int64.of_int (p * 4096))
                    = (Hashtbl.mem ms.pages p && not (Hashtbl.mem ms.priv p)))
                  model_pages
                || QCheck.Test.fail_reportf "%s: released pages still mapped" (show_mem_op op)
              end
              else true
            | Map (s, _, _)
            | Seal (s, _, _)
            | W8 (s, _, _)
            | W64 (s, _, _)
            | R8 (s, _)
            | R64 (s, _) ->
              let i = s mod n in
              (not !model.(i).alive)
              ||
              let r = catch (fun () -> real_op !real.(i) op) in
              let e = catch (fun () -> model_op !model.(i) op) in
              r = e || QCheck.Test.fail_reportf "%s: results differ" (show_mem_op op)
          in
          ok
          && Array.for_all Fun.id (Array.mapi (fun i m -> check_pages i m !model.(i)) !real)
          && frame_invariants op
          && (cow_total () - cow_before = !breaks
             || QCheck.Test.fail_reportf "%s: vm.mem.cow_breaks +%d, model %d"
                  (show_mem_op op) (cow_total () - cow_before) !breaks))
        ops)

(* ---- execution harness ----------------------------------------------------- *)

let env = Exec.create_env ~is_builtin:(fun a -> if a = 0x100L then Some "fake" else None) ()

let run_insns ?(setup = fun _ _ -> ()) insns =
  let cpu = Cpu.create () in
  let mem = Memory.create () in
  Memory.map mem ~addr:0x1000L ~len:4096;
  Memory.map mem ~addr:0x20000L ~len:8192;
  Memory.map mem ~addr:0x70000L ~len:8192;
  Cpu.set cpu Reg.RSP 0x71000L;
  Memory.write_bytes mem 0x1000L (Encode.list_to_bytes (insns @ [ Insn.Hlt ]));
  Memory.seal mem ~addr:0x1000L ~len:4096;
  Cpu.set_rip cpu 0x1000L;
  setup cpu mem;
  let rec loop n =
    if n > 10000 then Alcotest.fail "runaway program";
    match Exec.step env cpu mem with
    | Exec.Running -> loop (n + 1)
    | Exec.Halted -> ()
    | Exec.Builtin name -> Alcotest.fail ("unexpected builtin " ^ name)
    | Exec.Syscall_trap -> Alcotest.fail "unexpected syscall"
    | Exec.Faulted f -> Alcotest.fail ("unexpected fault: " ^ Fault.to_string f)
  in
  loop 0;
  (cpu, mem)

let rax = Operand.reg Reg.RAX
let rbx = Operand.reg Reg.RBX
let rcx = Operand.reg Reg.RCX

let test_mov_imm () =
  let cpu, _ = run_insns [ Insn.Mov (rax, Operand.imm 7L) ] in
  Alcotest.check i64 "rax" 7L (Cpu.get cpu Reg.RAX)

let test_arith () =
  let cpu, _ =
    run_insns
      [
        Insn.Mov (rax, Operand.imm 10L);
        Insn.Mov (rbx, Operand.imm 3L);
        Insn.Bin (Insn.Sub, rax, rbx);
        Insn.Bin (Insn.Imul, rax, Operand.imm 6L);
        Insn.Bin (Insn.Idiv, rax, Operand.imm 5L);
        Insn.Bin (Insn.Irem, rax, Operand.imm 3L);
      ]
  in
  Alcotest.check i64 "arith chain" 2L (Cpu.get cpu Reg.RAX)

let test_div_by_zero_faults () =
  let cpu = Cpu.create () in
  let mem = Memory.create () in
  Memory.map mem ~addr:0x1000L ~len:4096;
  Memory.write_bytes mem 0x1000L
    (Encode.list_to_bytes
       [ Insn.Mov (rax, Operand.imm 1L); Insn.Bin (Insn.Idiv, rax, Operand.imm 0L) ]);
  Memory.seal mem ~addr:0x1000L ~len:4096;
  Cpu.set_rip cpu 0x1000L;
  let rec loop () =
    match Exec.step env cpu mem with
    | Exec.Running -> loop ()
    | Exec.Faulted (Fault.Bad_instruction (_, msg)) ->
      Alcotest.(check string) "reason" "division by zero" msg
    | _ -> Alcotest.fail "expected fault"
  in
  loop ()

let test_flags_and_setcc () =
  let cpu, _ =
    run_insns
      [
        Insn.Mov (rax, Operand.imm 3L);
        Insn.Mov (rbx, Operand.imm 9L);
        Insn.Bin (Insn.Cmp, rax, rbx);
        Insn.Setcc (Insn.L, Reg.RCX);
        Insn.Bin (Insn.Cmp, rbx, rax);
        Insn.Setcc (Insn.G, Reg.RDX);
      ]
  in
  Alcotest.check i64 "setl" 1L (Cpu.get cpu Reg.RCX);
  Alcotest.check i64 "setg" 1L (Cpu.get cpu Reg.RDX)

let test_unsigned_conditions () =
  let cpu, _ =
    run_insns
      [
        Insn.Mov (rax, Operand.imm (-1L));
        Insn.Mov (rbx, Operand.imm 1L);
        Insn.Bin (Insn.Cmp, rax, rbx);
        Insn.Setcc (Insn.A, Reg.RCX);
        Insn.Bin (Insn.Cmp, rax, rbx);
        Insn.Setcc (Insn.L, Reg.RDX);
      ]
  in
  Alcotest.check i64 "above (unsigned)" 1L (Cpu.get cpu Reg.RCX);
  Alcotest.check i64 "less (signed)" 1L (Cpu.get cpu Reg.RDX)

let test_push_pop_stack () =
  let cpu, _ =
    run_insns
      [
        Insn.Mov (rax, Operand.imm 0xABCL);
        Insn.Push rax;
        Insn.Mov (rax, Operand.imm 0L);
        Insn.Pop rbx;
      ]
  in
  Alcotest.check i64 "popped" 0xABCL (Cpu.get cpu Reg.RBX);
  Alcotest.check i64 "rsp restored" 0x71000L (Cpu.get cpu Reg.RSP)

let test_call_ret () =
  let fn = [ Insn.Mov (rbx, Operand.imm 55L); Insn.Ret ] in
  let fn_addr = 0x1800L in
  let cpu = Cpu.create () in
  let mem = Memory.create () in
  Memory.map mem ~addr:0x1000L ~len:8192;
  Memory.map mem ~addr:0x70000L ~len:8192;
  Cpu.set cpu Reg.RSP 0x71000L;
  Memory.write_bytes mem 0x1000L
    (Encode.list_to_bytes [ Insn.Call (Insn.Abs fn_addr); Insn.Hlt ]);
  Memory.write_bytes mem fn_addr (Encode.list_to_bytes fn);
  Memory.seal mem ~addr:0x1000L ~len:4096;
  Cpu.set_rip cpu 0x1000L;
  let rec loop () =
    match Exec.step env cpu mem with
    | Exec.Running -> loop ()
    | Exec.Halted -> ()
    | _ -> Alcotest.fail "unexpected stop"
  in
  loop ();
  Alcotest.check i64 "callee ran" 55L (Cpu.get cpu Reg.RBX);
  Alcotest.check i64 "stack balanced" 0x71000L (Cpu.get cpu Reg.RSP)

let test_builtin_call_traps () =
  let cpu = Cpu.create () in
  let mem = Memory.create () in
  Memory.map mem ~addr:0x1000L ~len:4096;
  Memory.map mem ~addr:0x70000L ~len:8192;
  Cpu.set cpu Reg.RSP 0x71000L;
  Memory.write_bytes mem 0x1000L
    (Encode.list_to_bytes [ Insn.Call (Insn.Abs 0x100L); Insn.Hlt ]);
  Memory.seal mem ~addr:0x1000L ~len:4096;
  Cpu.set_rip cpu 0x1000L;
  (match Exec.step env cpu mem with
  | Exec.Builtin "fake" -> ()
  | _ -> Alcotest.fail "expected builtin trap");
  Alcotest.check i64 "rsp untouched (no ret pushed)" 0x71000L (Cpu.get cpu Reg.RSP);
  match Exec.step env cpu mem with
  | Exec.Halted -> ()
  | _ -> Alcotest.fail "expected hlt after builtin"

let test_leave () =
  let cpu, _ =
    run_insns
      [
        Insn.Mov (Operand.reg Reg.RBP, Operand.imm 0x9999L);
        Insn.Push (Operand.reg Reg.RBP);
        Insn.Mov (Operand.reg Reg.RBP, Operand.reg Reg.RSP);
        Insn.Bin (Insn.Sub, Operand.reg Reg.RSP, Operand.imm 64L);
        Insn.Leave;
      ]
  in
  Alcotest.check i64 "rbp restored" 0x9999L (Cpu.get cpu Reg.RBP);
  Alcotest.check i64 "rsp popped" 0x71000L (Cpu.get cpu Reg.RSP)

let test_movb_merges () =
  let cpu, _ =
    run_insns
      [
        Insn.Mov (rax, Operand.imm 0x1111111111111111L);
        Insn.Movb (rax, Operand.imm 0xFFL);
      ]
  in
  Alcotest.check i64 "low byte merged" 0x11111111111111FFL (Cpu.get cpu Reg.RAX)

let test_movl_zero_extends () =
  let cpu, _ =
    run_insns
      [ Insn.Mov (rax, Operand.imm (-1L)); Insn.Movl (rax, Operand.imm 0x1234L) ]
  in
  Alcotest.check i64 "zero extended" 0x1234L (Cpu.get cpu Reg.RAX)

let test_lea_addressing () =
  let cpu, _ =
    run_insns
      [
        Insn.Mov (rbx, Operand.imm 0x1000L);
        Insn.Mov (rcx, Operand.imm 4L);
        Insn.Lea
          ( Reg.RAX,
            { Operand.seg_fs = false; base = Some Reg.RBX;
              index = Some (Reg.RCX, Operand.S8); disp = 16L } );
      ]
  in
  Alcotest.check i64 "base+index*8+disp" 0x1030L (Cpu.get cpu Reg.RAX)

let test_fs_segment () =
  let setup cpu mem =
    cpu.Cpu.fs_base <- 0x20000L;
    Memory.write_u64 mem 0x20028L 0xCAFEL
  in
  let cpu, _ = run_insns ~setup [ Insn.Mov (rax, Operand.fs 0x28L) ] in
  Alcotest.check i64 "TLS load" 0xCAFEL (Cpu.get cpu Reg.RAX)

let test_rdrand_sets_cf () =
  let cpu, _ = run_insns [ Insn.Rdrand Reg.RAX ] in
  Alcotest.(check bool) "CF set" true cpu.Cpu.flags.Cpu.cf

let test_rdrand_deterministic_per_seed () =
  let run () =
    let cpu, _ = run_insns [ Insn.Rdrand Reg.RAX ] in
    Cpu.get cpu Reg.RAX
  in
  Alcotest.check i64 "same seed, same entropy" (run ()) (run ())

let test_rdtsc_composition () =
  let cpu, _ =
    run_insns
      [
        Insn.Nop; Insn.Nop;
        Insn.Rdtsc;
        Insn.Shift (Insn.Shl, Operand.reg Reg.RDX, 32);
        Insn.Bin (Insn.Or, rax, Operand.reg Reg.RDX);
      ]
  in
  let v = Cpu.get cpu Reg.RAX in
  Alcotest.(check bool) "plausible tsc" true
    (Int64.compare v 0L > 0 && Int64.compare v 1000L < 0)

let test_aesenc_matches_crypto () =
  let setup cpu _ =
    Cpu.set_xmm cpu Reg.Xmm.xmm0 (0x1111L, 0x2222L);
    Cpu.set_xmm cpu Reg.Xmm.xmm1 (0x3333L, 0x4444L)
  in
  let cpu, _ = run_insns ~setup [ Insn.Aesenc (Reg.Xmm.xmm0, Reg.Xmm.xmm1) ] in
  let state = Bytes.create 16 in
  Bytes.set_int64_le state 0 0x1111L;
  Bytes.set_int64_le state 8 0x2222L;
  let rk = Bytes.create 16 in
  Bytes.set_int64_le rk 0 0x3333L;
  Bytes.set_int64_le rk 8 0x4444L;
  let expect = Crypto.Aes128.aesenc ~state ~round_key:rk in
  let lo, hi = Cpu.get_xmm cpu Reg.Xmm.xmm0 in
  Alcotest.check i64 "lo" (Bytes.get_int64_le expect 0) lo;
  Alcotest.check i64 "hi" (Bytes.get_int64_le expect 8) hi

let test_pcmpeq128 () =
  let setup cpu mem =
    Cpu.set_xmm cpu Reg.Xmm.xmm15 (0xAAL, 0xBBL);
    Memory.write_u64 mem 0x20000L 0xAAL;
    Memory.write_u64 mem 0x20008L 0xBBL
  in
  let mem_op =
    { Operand.seg_fs = false; base = None; index = None; disp = 0x20000L }
  in
  let cpu, _ = run_insns ~setup [ Insn.Pcmpeq128 (Reg.Xmm.xmm15, mem_op) ] in
  Alcotest.(check bool) "equal -> ZF" true cpu.Cpu.flags.Cpu.zf;
  let setup2 cpu mem =
    setup cpu mem;
    Memory.write_u64 mem 0x20008L 0xBCL
  in
  let cpu2, _ = run_insns ~setup:setup2 [ Insn.Pcmpeq128 (Reg.Xmm.xmm15, mem_op) ] in
  Alcotest.(check bool) "mismatch -> not ZF" false cpu2.Cpu.flags.Cpu.zf

let test_xmm_moves () =
  let setup cpu mem =
    Cpu.set cpu Reg.R12 0x12L;
    Cpu.set cpu Reg.R13 0x13L;
    Memory.write_u64 mem 0x20010L 0x99L
  in
  let _, mem =
    run_insns ~setup
      [
        Insn.Movq_to_xmm (Reg.Xmm.xmm1, Reg.R13);
        Insn.Pinsrq_high (Reg.Xmm.xmm1, Reg.R12);
        Insn.Movhps_load
          (Reg.Xmm.xmm1, { Operand.seg_fs = false; base = None; index = None; disp = 0x20010L });
        Insn.Movdqu_store
          ({ Operand.seg_fs = false; base = None; index = None; disp = 0x20020L }, Reg.Xmm.xmm1);
      ]
  in
  Alcotest.check i64 "low lane" 0x13L (Memory.read_u64 mem 0x20020L);
  Alcotest.check i64 "high lane (movhps overwrote pinsrq)" 0x99L
    (Memory.read_u64 mem 0x20028L)

let test_exec_faults_reported () =
  let cpu = Cpu.create () in
  let mem = Memory.create () in
  Memory.map mem ~addr:0x1000L ~len:4096;
  Memory.write_bytes mem 0x1000L
    (Encode.list_to_bytes [ Insn.Mov (rax, Operand.mem 0x9000000L) ]);
  Memory.seal mem ~addr:0x1000L ~len:4096;
  Cpu.set_rip cpu 0x1000L;
  match Exec.step env cpu mem with
  | Exec.Faulted (Fault.Segfault 0x9000000L) -> ()
  | _ -> Alcotest.fail "expected segfault"

let test_fetch_unmapped () =
  let cpu = Cpu.create () in
  let mem = Memory.create () in
  Cpu.set_rip cpu 0x41414141L;
  match Exec.step env cpu mem with
  | Exec.Faulted (Fault.Segfault _) -> ()
  | _ -> Alcotest.fail "expected fetch fault"

let test_fetch_fault_retires_zero () =
  (* fuel pinning around a segfaulting rip: the block before the bad
     jump retires and is charged normally; the faulting fetch itself
     retires 0 instructions and charges nothing *)
  let cpu = Cpu.create () in
  let mem = Memory.create () in
  Memory.map mem ~addr:0x1000L ~len:4096;
  Memory.write_bytes mem 0x1000L
    (Encode.list_to_bytes [ Insn.Nop; Insn.Nop; Insn.Jmp (Insn.Abs 0x9000000L) ]);
  Memory.seal mem ~addr:0x1000L ~len:4096;
  Cpu.set_rip cpu 0x1000L;
  (match Exec.step_block env cpu mem ~max_insns:50 with
  | Exec.Running, 3 -> ()
  | _, n -> Alcotest.failf "block before the fault: %d retired, want 3" n);
  Alcotest.(check bool) "block was charged" true (Cpu.cycles cpu > 0L);
  let cycles_at_fault = Cpu.cycles cpu in
  (match Exec.step_block env cpu mem ~max_insns:50 with
  | Exec.Faulted (Fault.Segfault 0x9000000L), 0 -> ()
  | Exec.Faulted _, n -> Alcotest.failf "faulting fetch retired %d, want 0" n
  | _ -> Alcotest.fail "expected fetch segfault");
  Alcotest.check i64 "faulting fetch charged nothing" cycles_at_fault
    (Cpu.cycles cpu);
  (* and a whole-run over the same program still terminates *)
  let cpu2 = Cpu.create () in
  Cpu.set_rip cpu2 0x1000L;
  match Exec.run env cpu2 mem with
  | Exec.Stopped (Exec.Faulted (Fault.Segfault 0x9000000L)) ->
    Alcotest.check i64 "run charged only the retired block" cycles_at_fault
      (Cpu.cycles cpu2)
  | _ -> Alcotest.fail "run did not stop on the fetch fault"

(* W^X: instructions come from sealed pages only. A jmp or ret into a
   mapped data page faults at that rip, inside the page and at its edge
   (the fetch's slow path), and an instruction running off the text
   onto a data page does not take the rest of its bytes from there.
   Interpreted and compiled alike. *)
let test_fetch_from_data_faults () =
  let movabs = Encode.list_to_bytes [ Insn.Mov (rax, Operand.imm 0x1122334455667788L) ] in
  let straddle = Int64.sub 0x2000L (Int64.of_int (Bytes.length movabs - 2)) in
  let cases =
    [
      ("jmp into data", 0x1000L, [ Insn.Jmp (Insn.Abs 0x20010L) ], Some 0x20010L);
      ("jmp to a data page's edge", 0x1000L, [ Insn.Jmp (Insn.Abs 0x20FFEL) ], Some 0x20FFEL);
      ( "ret into the stack",
        0x1000L,
        [ Insn.Mov (rax, Operand.imm 0x70800L); Insn.Push rax; Insn.Ret ],
        Some 0x70800L );
      ("off the text onto data", straddle, [], None);
    ]
  in
  List.iter
    (fun compiled ->
      Compile.set_enabled compiled;
      Fun.protect ~finally:(fun () -> Compile.set_enabled true) @@ fun () ->
      List.iter
        (fun (what, rip, prog, want) ->
          let cpu = Cpu.create () in
          let mem = Memory.create () in
          Memory.map mem ~addr:0x1000L ~len:8192;
          Memory.map mem ~addr:0x20000L ~len:8192;
          Memory.map mem ~addr:0x70000L ~len:8192;
          let hlt = Encode.list_to_bytes [ Insn.Hlt ] in
          List.iter (fun a -> Memory.write_bytes mem a hlt) [ 0x20010L; 0x20FFEL; 0x70800L ];
          Memory.write_bytes mem 0x1000L (Encode.list_to_bytes prog);
          Memory.write_bytes mem straddle movabs;
          Memory.seal mem ~addr:0x1000L ~len:4096;
          Cpu.set cpu Reg.RSP 0x71000L;
          Cpu.set_rip cpu rip;
          let what = Printf.sprintf "%s (compiled %b)" what compiled in
          match (Exec.run env cpu mem, want) with
          | Exec.Stopped (Exec.Faulted (Fault.Segfault a)), Some w -> Alcotest.check i64 what w a
          | Exec.Stopped (Exec.Faulted (Fault.Bad_instruction (a, _))), None ->
            Alcotest.check i64 what straddle a
          | r, _ ->
            Alcotest.failf "%s: %s" what
              (match r with
              | Exec.Stopped (Exec.Faulted f) -> Fault.to_string f
              | _ -> "no fault"))
        cases)
    [ false; true ]

let test_insn_tax_charged () =
  let measure tax =
    let cpu = Cpu.create () in
    cpu.Cpu.insn_tax <- tax;
    let mem = Memory.create () in
    Memory.map mem ~addr:0x1000L ~len:4096;
    Memory.write_bytes mem 0x1000L
      (Encode.list_to_bytes [ Insn.Nop; Insn.Nop; Insn.Hlt ]);
    Memory.seal mem ~addr:0x1000L ~len:4096;
    Cpu.set_rip cpu 0x1000L;
    let rec loop () =
      match Exec.step env cpu mem with Exec.Running -> loop () | _ -> ()
    in
    loop ();
    Cpu.cycles cpu
  in
  Alcotest.check i64 "tax adds per insn" (Int64.add (measure 0) 15L) (measure 5)

let test_call_tax_charged () =
  let measure tax =
    let cpu = Cpu.create () in
    cpu.Cpu.call_tax <- tax;
    let mem = Memory.create () in
    Memory.map mem ~addr:0x1000L ~len:4096;
    Memory.map mem ~addr:0x70000L ~len:8192;
    Cpu.set cpu Reg.RSP 0x71000L;
    Memory.write_bytes mem 0x1000L
      (Encode.list_to_bytes [ Insn.Call (Insn.Abs 0x1100L); Insn.Hlt ]);
    Memory.write_bytes mem 0x1100L (Encode.list_to_bytes [ Insn.Ret ]);
    Memory.seal mem ~addr:0x1000L ~len:4096;
    Cpu.set_rip cpu 0x1000L;
    let rec loop () =
      match Exec.step env cpu mem with Exec.Running -> loop () | _ -> ()
    in
    loop ();
    Cpu.cycles cpu
  in
  (* one call + one ret = 2 taxed instructions *)
  Alcotest.check i64 "call tax" (Int64.add (measure 0) 20L) (measure 10)

let test_run_fuel () =
  let cpu = Cpu.create () in
  let mem = Memory.create () in
  Memory.map mem ~addr:0x1000L ~len:4096;
  Memory.write_bytes mem 0x1000L (Encode.list_to_bytes [ Insn.Jmp (Insn.Abs 0x1000L) ]);
  Memory.seal mem ~addr:0x1000L ~len:4096;
  Cpu.set_rip cpu 0x1000L;
  match Exec.run ~max_insns:100 env cpu mem with
  | Exec.Out_of_fuel -> ()
  | _ -> Alcotest.fail "expected fuel exhaustion"

let expect_bad_instruction insns reason =
  let cpu = Cpu.create () in
  let mem = Memory.create () in
  Memory.map mem ~addr:0x1000L ~len:4096;
  Memory.write_bytes mem 0x1000L (Encode.list_to_bytes (insns @ [ Insn.Hlt ]));
  Memory.seal mem ~addr:0x1000L ~len:4096;
  Cpu.set_rip cpu 0x1000L;
  let rec loop () =
    match Exec.step env cpu mem with
    | Exec.Running -> loop ()
    | Exec.Faulted (Fault.Bad_instruction (_, msg)) ->
      Alcotest.(check string) "reason" reason msg
    | _ -> Alcotest.fail "expected fault"
  in
  loop ()

let test_div_overflow_faults () =
  (* INT64_MIN / -1 overflows the quotient: x86 raises #DE, same as /0. *)
  expect_bad_instruction
    [
      Insn.Mov (rax, Operand.imm Int64.min_int);
      Insn.Bin (Insn.Idiv, rax, Operand.imm (-1L));
    ]
    "division overflow";
  expect_bad_instruction
    [
      Insn.Mov (rax, Operand.imm Int64.min_int);
      Insn.Bin (Insn.Irem, rax, Operand.imm (-1L));
    ]
    "division overflow"

let test_shift_count_zero_preserves_flags () =
  let cpu, _ =
    run_insns
      [
        Insn.Mov (rax, Operand.imm (-1L));
        Insn.Bin (Insn.Cmp, rax, rax);
        (* both shifts mask to count 0: flags and destination untouched *)
        Insn.Shift (Insn.Shl, rax, 0);
        Insn.Shift (Insn.Shr, rax, 64);
      ]
  in
  Alcotest.(check bool) "ZF preserved across count-0 shifts" true
    cpu.Cpu.flags.Cpu.zf;
  Alcotest.check i64 "destination untouched" (-1L) (Cpu.get cpu Reg.RAX)

let test_neg_min_int_flags () =
  let cpu, _ =
    run_insns [ Insn.Mov (rax, Operand.imm Int64.min_int); Insn.Neg rax ]
  in
  Alcotest.(check bool) "CF set (nonzero source)" true cpu.Cpu.flags.Cpu.cf;
  Alcotest.(check bool) "OF set (INT64_MIN)" true cpu.Cpu.flags.Cpu.of_;
  Alcotest.check i64 "INT64_MIN negates to itself" Int64.min_int
    (Cpu.get cpu Reg.RAX);
  let cpu0, _ = run_insns [ Insn.Mov (rax, Operand.imm 0L); Insn.Neg rax ] in
  Alcotest.(check bool) "CF clear for zero" false cpu0.Cpu.flags.Cpu.cf;
  Alcotest.(check bool) "OF clear for zero" false cpu0.Cpu.flags.Cpu.of_

(* ---- translation cache ------------------------------------------------------ *)

let run_to_halt cpu mem =
  let rec loop n =
    if n > 10000 then Alcotest.fail "runaway program";
    match Exec.step env cpu mem with
    | Exec.Running -> loop (n + 1)
    | Exec.Halted -> ()
    | other -> ignore other; Alcotest.fail "unexpected stop"
  in
  loop 0

let test_decode_cache_family_table () =
  (* a fork family shares one table: a block either relative decodes
     after the fork, from a page they still share, is a hit for the
     other *)
  let cpu = Cpu.create () in
  let mem = Memory.create () in
  Memory.map mem ~addr:0x1000L ~len:4096;
  let code v = Encode.list_to_bytes [ Insn.Mov (rax, Operand.imm v); Insn.Hlt ] in
  Memory.write_bytes mem 0x1000L (code 1L);
  Memory.write_bytes mem 0x1800L (code 7L);
  Memory.write_bytes mem 0x1900L (code 8L);
  Memory.seal mem ~addr:0x1000L ~len:4096;
  Cpu.set_rip cpu 0x1000L;
  run_to_halt cpu mem;
  let child = Cpu.clone cpu in
  let cmem = Memory.clone mem in
  Alcotest.(check bool) "one table for the family" true
    (cpu.Cpu.tcache == child.Cpu.tcache);
  let misses () = (Tcache.exec_stats cpu.Cpu.tcache).Tcache.misses in
  let run_at cpu mem rip =
    Cpu.set_rip cpu rip;
    run_to_halt cpu mem
  in
  run_at child cmem 0x1000L;
  Alcotest.check i64 "child ran the pre-fork decode" 1L (Cpu.get child Reg.RAX);
  let decodes_then_hits ~first ~other =
    let m = misses () in
    first ();
    let m' = misses () in
    Alcotest.(check bool) "the first relative decodes" true (m' > m);
    other ();
    Alcotest.(check int) "the other hits" m' (misses ())
  in
  decodes_then_hits
    ~first:(fun () -> run_at child cmem 0x1800L)
    ~other:(fun () -> run_at cpu mem 0x1800L);
  Alcotest.check i64 "parent ran the child's decode" 7L (Cpu.get cpu Reg.RAX);
  decodes_then_hits
    ~first:(fun () -> run_at cpu mem 0x1900L)
    ~other:(fun () -> run_at child cmem 0x1900L);
  Alcotest.check i64 "child ran the parent's decode" 8L (Cpu.get child Reg.RAX)

let test_cow_text_write_isolation () =
  (* text is sealed: a write to it faults at the written address, in
     the parent before and after a fork and in the child, without
     breaking any sharing, and both sides keep running the loaded code *)
  let cpu = Cpu.create () in
  let mem = Memory.create () in
  Memory.map mem ~addr:0x1000L ~len:4096;
  let code v = Encode.list_to_bytes [ Insn.Mov (rax, Operand.imm v); Insn.Hlt ] in
  Memory.write_bytes mem 0x1000L (code 1L);
  Memory.seal mem ~addr:0x1000L ~len:4096;
  Cpu.set_rip cpu 0x1000L;
  run_to_halt cpu mem;
  let write_faults what m a =
    match Memory.write_bytes m a (code 2L) with
    | exception Fault.Trap (Fault.Segfault f) -> Alcotest.check i64 what a f
    | () -> Alcotest.failf "%s: the write went through" what
  in
  write_faults "parent's write before the fork" mem 0x1000L;
  (* fork: clone the address space and the cpu, as Kernel.fork_child does *)
  let cmem = Memory.clone mem in
  let ccpu = Cpu.clone cpu in
  write_faults "parent's write after the fork" mem 0x1004L;
  write_faults "child's write" cmem 0x1FF8L;
  Alcotest.(check int) "no sharing broken" 0 (Memory.family_stats mem).Memory.cow_breaks;
  Cpu.set_rip cpu 0x1000L;
  run_to_halt cpu mem;
  Alcotest.check i64 "parent runs the loaded code" 1L (Cpu.get cpu Reg.RAX);
  Cpu.set_rip ccpu 0x1000L;
  run_to_halt ccpu cmem;
  Alcotest.check i64 "child runs the loaded code" 1L (Cpu.get ccpu Reg.RAX)

let test_exec_telemetry () =
  (* the hit/miss/compile counters feed the deterministic --mem-stats
     line; pin their exact values on a tiny program *)
  let cpu = Cpu.create () in
  let mem = Memory.create () in
  Memory.map mem ~addr:0x1000L ~len:4096;
  Memory.write_bytes mem 0x1000L (Encode.list_to_bytes [ Insn.Nop; Insn.Hlt ]);
  Memory.seal mem ~addr:0x1000L ~len:4096;
  let snap () = Tcache.exec_stats cpu.Cpu.tcache in
  let run_blocks cpu mem =
    Cpu.set_rip cpu 0x1000L;
    match Exec.run env cpu mem with
    | Exec.Stopped Exec.Halted -> ()
    | _ -> Alcotest.fail "expected hlt"
  in
  Alcotest.(check int) "fresh cache: no misses" 0 (snap ()).Tcache.misses;
  run_blocks cpu mem;
  let first = snap () in
  Alcotest.(check int) "one decode" 1 first.Tcache.misses;
  Alcotest.(check int) "no hits yet" 0 first.Tcache.hits;
  if Compile.enabled () then
    Alcotest.(check int) "block compiled once" 1 first.Tcache.compiles;
  run_blocks cpu mem;
  let second = snap () in
  Alcotest.(check int) "re-run hits the cache" 1 second.Tcache.hits;
  Alcotest.(check int) "no second decode" 1 second.Tcache.misses;
  Alcotest.(check int) "no recompilation" first.Tcache.compiles
    second.Tcache.compiles;
  (* the stats record is family-wide: a fork child's run shows up, and
     it hits the family's table *)
  let ccpu = Cpu.clone cpu in
  let cmem = Memory.clone mem in
  run_blocks ccpu cmem;
  Alcotest.(check int) "child's hit visible in family stats" 2 (snap ()).Tcache.hits;
  Alcotest.(check int) "no decode in the child" 1 (snap ()).Tcache.misses

let test_cost_model_anchors () =
  Alcotest.(check bool) "rdrand is expensive" true
    (Cost.cycles (Insn.Rdrand Reg.RAX) > 300);
  Alcotest.(check int) "mov is cheap" 1 (Cost.cycles (Insn.Mov (rax, rbx)));
  Alcotest.(check bool) "aes helper cost near AES-NI"
    true
    (Cost.aes_encrypt_call_cycles > 50 && Cost.aes_encrypt_call_cycles < 200)

let qc = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "vm64" @@ Watchdog.suites
    [
      ( "memory",
        [
          Alcotest.test_case "read/write" `Quick test_mem_rw;
          Alcotest.test_case "u32" `Quick test_mem_u32;
          Alcotest.test_case "cross-page access" `Quick test_mem_cross_page;
          Alcotest.test_case "unmapped faults" `Quick test_mem_unmapped_faults;
          Alcotest.test_case "clone isolation" `Quick test_mem_clone_isolated;
          Alcotest.test_case "cross-page u32/u64 slow paths" `Quick
            test_mem_cross_page_u32_u64;
          Alcotest.test_case "cross-page partial-write fault" `Quick
            test_mem_cross_page_fault_partial;
          Alcotest.test_case "mapped bytes" `Quick test_mapped_bytes;
          Alcotest.test_case "cstr_len" `Quick test_cstr_len;
          Alcotest.test_case "map outside the layout" `Quick test_map_outside_layout;
          Alcotest.test_case "sealed pages" `Quick test_seal;
          qc prop_mem_roundtrip;
          qc prop_page_table_model;
        ] );
      ( "cow",
        [
          Alcotest.test_case "isolation both directions" `Quick
            test_cow_isolation_both_directions;
          Alcotest.test_case "fork-of-fork chain" `Quick test_cow_fork_chain;
          Alcotest.test_case "memoized-page write-through" `Quick
            test_cow_memoized_page_write_through;
          Alcotest.test_case "resident/shared accounting" `Quick
            test_cow_accounting;
        ] );
      ( "alu",
        [
          Alcotest.test_case "mov imm" `Quick test_mov_imm;
          Alcotest.test_case "arith chain" `Quick test_arith;
          Alcotest.test_case "div by zero" `Quick test_div_by_zero_faults;
          Alcotest.test_case "div overflow" `Quick test_div_overflow_faults;
          Alcotest.test_case "shift count 0 keeps flags" `Quick
            test_shift_count_zero_preserves_flags;
          Alcotest.test_case "neg min_int flags" `Quick test_neg_min_int_flags;
          Alcotest.test_case "signed conditions" `Quick test_flags_and_setcc;
          Alcotest.test_case "unsigned conditions" `Quick test_unsigned_conditions;
          Alcotest.test_case "movb merges" `Quick test_movb_merges;
          Alcotest.test_case "movl zero-extends" `Quick test_movl_zero_extends;
          Alcotest.test_case "lea addressing" `Quick test_lea_addressing;
        ] );
      ( "control",
        [
          Alcotest.test_case "push/pop" `Quick test_push_pop_stack;
          Alcotest.test_case "call/ret" `Quick test_call_ret;
          Alcotest.test_case "builtin trap" `Quick test_builtin_call_traps;
          Alcotest.test_case "leave" `Quick test_leave;
          Alcotest.test_case "fuel" `Quick test_run_fuel;
        ] );
      ( "special",
        [
          Alcotest.test_case "fs segment" `Quick test_fs_segment;
          Alcotest.test_case "rdrand sets CF" `Quick test_rdrand_sets_cf;
          Alcotest.test_case "rdrand deterministic per seed" `Quick
            test_rdrand_deterministic_per_seed;
          Alcotest.test_case "rdtsc composition" `Quick test_rdtsc_composition;
          Alcotest.test_case "aesenc = crypto" `Quick test_aesenc_matches_crypto;
          Alcotest.test_case "pcmpeq128" `Quick test_pcmpeq128;
          Alcotest.test_case "xmm moves" `Quick test_xmm_moves;
        ] );
      ( "faults+cost",
        [
          Alcotest.test_case "data segfault" `Quick test_exec_faults_reported;
          Alcotest.test_case "fetch segfault" `Quick test_fetch_unmapped;
          Alcotest.test_case "fetch fault retires zero" `Quick
            test_fetch_fault_retires_zero;
          Alcotest.test_case "fetch from data faults" `Quick test_fetch_from_data_faults;
          Alcotest.test_case "insn tax" `Quick test_insn_tax_charged;
          Alcotest.test_case "call tax" `Quick test_call_tax_charged;
          Alcotest.test_case "cost anchors" `Quick test_cost_model_anchors;
        ] );
      ( "tcache",
        [
          Alcotest.test_case "one table per fork family" `Quick
            test_decode_cache_family_table;
          Alcotest.test_case "text writes under CoW fork" `Quick
            test_cow_text_write_isolation;
          Alcotest.test_case "hit/miss/compile/invalidate telemetry" `Quick
            test_exec_telemetry;
        ] );
    ]
