type step = {
  addr : int64;
  next : int64;
  cost : int;
  callret : bool;
  sets_rip : bool;
  insn : Isa.Insn.t;
}

type block = { steps : step array; mutable compiled : Compiled.slot }

let max_block_insns = 64

let is_callret = function
  | Isa.Insn.Call _ | Isa.Insn.Call_ind _ | Isa.Insn.Ret -> true
  | _ -> false

let sets_rip = function
  | Isa.Insn.Jmp _ | Jcc _ | Call _ | Call_ind _ | Ret -> true
  | _ -> false

let make_block ~start pairs =
  if Array.length pairs = 0 then invalid_arg "Tcache.make_block: empty block";
  let addr = ref start in
  let steps =
    Array.init (Array.length pairs) (fun i ->
        let insn, len = pairs.(i) in
        let a = !addr in
        addr := Int64.add a (Int64.of_int len);
        {
          addr = a;
          next = !addr;
          cost = Cost.cycles insn;
          callret = is_callret insn;
          sets_rip = sets_rip insn;
          insn;
        })
  in
  { steps; compiled = Compiled.Not_compiled }

let start b = b.steps.(0).addr

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

(* Blocks by start address. Every dispatch looks one up, so the table
   hashes and compares the int64 itself rather than through the
   polymorphic [Hashtbl]'s C primitives. *)
module Blocks = Hashtbl.Make (struct
  type t = int64

  let equal = Int64.equal
  let hash a = Int64.to_int a land max_int
end)

(* One table per fork family: code is fetched only from sealed pages,
   which no relative can write, so a block one relative decodes is
   valid for every relative. *)
type t = { blocks : block Blocks.t; xstats : exec_stats }

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
  { blocks = Blocks.create 256; xstats }

let clone t =
  Telemetry.Registry.incr g_clones;
  Telemetry.Registry.add g_blocks_shared (Blocks.length t.blocks);
  t

let find t rip = Blocks.find_opt t.blocks rip

(* Hit/miss accounting is driven by {!Exec.fetch_block}. *)
let note_hit t = t.xstats.hits <- t.xstats.hits + 1
let note_miss t = t.xstats.misses <- t.xstats.misses + 1
let note_compile t = t.xstats.compiles <- t.xstats.compiles + 1
let note_chain t = t.xstats.chains <- t.xstats.chains + 1
let note_superblock t = t.xstats.superblocks <- t.xstats.superblocks + 1
let note_chain_hops t n = t.xstats.chain_hops <- t.xstats.chain_hops + n

let add t block = Blocks.replace t.blocks (start block) block

let exec_stats t =
  {
    hits = t.xstats.hits;
    misses = t.xstats.misses;
    compiles = t.xstats.compiles;
    chains = t.xstats.chains;
    superblocks = t.xstats.superblocks;
    chain_hops = t.xstats.chain_hops;
  }
