type block = {
  bb_start : int64;
  insns : Isa.Insn.t array;
  lens : int array;
  costs : int array;
  callret : bool array;
  nexts : int64 array;
  bb_bytes : int;
  anchor : bytes array;
      (* page payload objects the block was decoded from, one per page
         of [bb_start, bb_start + bb_bytes). A hit is only valid while
         each page still holds the same payload *object* (physical
         equality): CoW never mutates an aliased payload in place, so
         identity implies the decoded bytes are unchanged. An empty
         anchor (test-built blocks) is always valid. *)
  mutable compiled : Compiled.slot;
}

let max_block_insns = 64

let is_callret = function
  | Isa.Insn.Call _ | Isa.Insn.Call_ind _ | Isa.Insn.Ret -> true
  | _ -> false

let make_block ?(anchor = [||]) ~start pairs =
  let n = Array.length pairs in
  if n = 0 then invalid_arg "Tcache.make_block: empty block";
  let insns = Array.map fst pairs in
  let lens = Array.map snd pairs in
  let costs = Array.map Cost.cycles insns in
  let callret = Array.map is_callret insns in
  let nexts = Array.make n 0L in
  let addr = ref start in
  for i = 0 to n - 1 do
    addr := Int64.add !addr (Int64.of_int lens.(i));
    nexts.(i) <- !addr
  done;
  {
    bb_start = start;
    insns;
    lens;
    costs;
    callret;
    nexts;
    bb_bytes = Int64.to_int (Int64.sub !addr start);
    anchor;
    compiled = Compiled.Not_compiled;
  }

(* The cached block is only valid for a given address space while every
   page it was decoded from still holds the same payload object; CoW
   never mutates an aliased payload in place, so physical identity
   implies byte identity. This is what lets a fork family share one
   table even as each relative adds new decodes to it, and what lets
   chain links jump straight into a successor's translation. *)
let anchor_valid mem b =
  let a = b.anchor in
  let n = Array.length a in
  n = 0
  ||
  let ok = ref true in
  for i = 0 to n - 1 do
    let addr = Int64.add b.bb_start (Int64.of_int (i * Memory.page_size)) in
    (match Memory.code_window mem addr with
    | Some (payload, _) -> if payload != Array.unsafe_get a i then ok := false
    | None -> ok := false)
  done;
  !ok

(* Execution-path telemetry: one record per fork family (the numbers
   survive the relatives' reaping), mirroring [Memory.family_stats]. *)
type exec_stats = {
  mutable hits : int;  (* block lookups served from the cache *)
  mutable misses : int;  (* lookups that forced a decode *)
  mutable compiles : int;  (* blocks translated by Compile *)
  mutable chains : int;  (* exit links patched to a successor *)
  mutable superblocks : int;  (* hot chains fused into one translation *)
  mutable chain_hops : int;  (* dispatcher returns avoided via a link *)
}

(* One table per fork family: loaded text never changes, so a block
   one relative decodes is valid for every relative whose pages still
   anchor it. *)
type t = { blocks : (int64, block) Hashtbl.t; xstats : exec_stats }

(* Fork-path telemetry (process-wide; campaigns fan across domains).
   These fire once per clone, so registry counters (shared atomics) are
   cheap here. *)
let metric_clones = "vm.tcache.clones"
let metric_blocks_shared = "vm.tcache.blocks_shared"

let g_clones = Telemetry.Registry.counter metric_clones
let g_blocks_shared = Telemetry.Registry.counter metric_blocks_shared

(* Execution-path totals fire on EVERY block dispatch, where a shared
   atomic would bounce cache lines between domains (measured: ~3x
   wall-clock on a 4-domain campaign). Instead each family registers
   its stats record once at [create] and the process totals are folded
   over the family registry on demand; the fold is published to the
   telemetry registry as the [vm.tcache.hits/misses/compiles] and
   [vm.compile.*] metric group. Per-family counts are independent of
   [--jobs] scheduling, so the sums are too; they are only read after
   worker domains join (Domain.join gives the happens-before edge). *)
let registry : exec_stats list ref = ref []
let registry_mu = Mutex.create ()

let fold_exec () =
  Mutex.lock registry_mu;
  let fams = !registry in
  Mutex.unlock registry_mu;
  List.fold_left
    (fun acc (x : exec_stats) ->
      {
        hits = acc.hits + x.hits;
        misses = acc.misses + x.misses;
        compiles = acc.compiles + x.compiles;
        chains = acc.chains + x.chains;
        superblocks = acc.superblocks + x.superblocks;
        chain_hops = acc.chain_hops + x.chain_hops;
      })
    { hits = 0; misses = 0; compiles = 0; chains = 0; superblocks = 0; chain_hops = 0 }
    fams

let metric_hits = "vm.tcache.hits"
let metric_misses = "vm.tcache.misses"
let metric_compiles = "vm.tcache.compiles"
let metric_chains = "vm.compile.chains_patched"
let metric_superblocks = "vm.compile.superblocks"
let metric_chain_hops = "vm.compile.dispatch_avoided"

let () =
  Telemetry.Registry.register_group
    ~reset:(fun () ->
      Mutex.lock registry_mu;
      registry := [];
      Mutex.unlock registry_mu)
    [
      (metric_hits, fun () -> (fold_exec ()).hits);
      (metric_misses, fun () -> (fold_exec ()).misses);
      (metric_compiles, fun () -> (fold_exec ()).compiles);
      (metric_chains, fun () -> (fold_exec ()).chains);
      (metric_superblocks, fun () -> (fold_exec ()).superblocks);
      (metric_chain_hops, fun () -> (fold_exec ()).chain_hops);
    ]

let create () =
  let xstats =
    { hits = 0; misses = 0; compiles = 0; chains = 0; superblocks = 0; chain_hops = 0 }
  in
  Mutex.lock registry_mu;
  registry := xstats :: !registry;
  Mutex.unlock registry_mu;
  { blocks = Hashtbl.create 256; xstats }

let clone t =
  Telemetry.Registry.incr g_clones;
  Telemetry.Registry.add g_blocks_shared (Hashtbl.length t.blocks);
  t

let find t rip = Hashtbl.find_opt t.blocks rip

(* Hit/miss accounting is driven by {!Exec.fetch_block}, which decides
   hit-ness only after validating the block's anchor — a cached entry
   whose pages have moved on counts as a miss. *)
let note_hit t = t.xstats.hits <- t.xstats.hits + 1
let note_miss t = t.xstats.misses <- t.xstats.misses + 1
let note_compile t = t.xstats.compiles <- t.xstats.compiles + 1
let note_chain t = t.xstats.chains <- t.xstats.chains + 1
let note_superblock t = t.xstats.superblocks <- t.xstats.superblocks + 1
let note_chain_hop t = t.xstats.chain_hops <- t.xstats.chain_hops + 1

(* A relative whose page diverged fails the block's anchor on its next
   fetch and adds its own decode over this one. *)
let add t block = Hashtbl.replace t.blocks block.bb_start block

let stats t =
  Hashtbl.fold (fun _ b (nb, ni) -> (nb + 1, ni + Array.length b.insns)) t.blocks (0, 0)

let exec_stats t =
  {
    hits = t.xstats.hits;
    misses = t.xstats.misses;
    compiles = t.xstats.compiles;
    chains = t.xstats.chains;
    superblocks = t.xstats.superblocks;
    chain_hops = t.xstats.chain_hops;
  }
