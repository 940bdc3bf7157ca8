(* Process-wide metrics registry: the single pane of glass over every
   subsystem's counters.

   Three metric backings, chosen by update rate:

   - [counter]: one shared [Atomic.t]. For rare events (forks, cache
     clones) where a process-global atomic is cheap.
   - fold metrics ([register_group]): the subsystem keeps its own
     scheduling-independent records (e.g. one stats record per clone
     family, mutated without synchronisation on the hot path) and
     registers a read callback that folds them. This is how the
     per-block-dispatch counters avoid bouncing a cache line between
     [--jobs] domains; the fold is only called from the driver after
     worker domains join, which provides the happens-before edge.
   - [histogram]: fixed integer bucket bounds, one [Atomic.t] per
     bucket. Safe to observe from any domain.

   Snapshots flatten every metric to (name, int) pairs sorted by name,
   so the JSON files and the MEM_STATS formatter are deterministic for
   any registration order and any [--jobs] value. *)

type counter = { c_name : string; cell : int Atomic.t }

type histogram = {
  h_name : string;
  bounds : int array;  (* strictly increasing bucket upper bounds *)
  buckets : int Atomic.t array;  (* length bounds + 1; last = overflow *)
  h_sum : int Atomic.t;
}

type backing =
  | B_counter of counter
  | B_fold of (unit -> int)
  | B_hist of histogram

type entry = { backing : backing; reset_entry : unit -> unit }

let mu = Mutex.create ()
let entries : (string, entry) Hashtbl.t = Hashtbl.create 64

let locked f =
  Mutex.lock mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

let counter name =
  locked (fun () ->
      match Hashtbl.find_opt entries name with
      | Some { backing = B_counter c; _ } -> c
      | Some _ -> invalid_arg ("Registry.counter: " ^ name ^ " is not a counter")
      | None ->
        let c = { c_name = name; cell = Atomic.make 0 } in
        Hashtbl.add entries name
          { backing = B_counter c; reset_entry = (fun () -> Atomic.set c.cell 0) };
        c)

let incr c = Atomic.incr c.cell
let add c n = ignore (Atomic.fetch_and_add c.cell n)
let counter_value c = Atomic.get c.cell
let counter_name c = c.c_name

let register_group ~reset metrics =
  locked (fun () ->
      List.iter
        (fun (name, read) ->
          if Hashtbl.mem entries name then
            invalid_arg ("Registry.register_group: duplicate metric " ^ name);
          Hashtbl.add entries name { backing = B_fold read; reset_entry = reset })
        metrics)

let histogram name ~bounds =
  Array.iteri
    (fun i b ->
      if i > 0 && b <= bounds.(i - 1) then
        invalid_arg "Registry.histogram: bounds must be strictly increasing")
    bounds;
  locked (fun () ->
      match Hashtbl.find_opt entries name with
      | Some { backing = B_hist h; _ } -> h
      | Some _ -> invalid_arg ("Registry.histogram: " ^ name ^ " is not a histogram")
      | None ->
        let h =
          {
            h_name = name;
            bounds = Array.copy bounds;
            buckets = Array.init (Array.length bounds + 1) (fun _ -> Atomic.make 0);
            h_sum = Atomic.make 0;
          }
        in
        let reset_entry () =
          Array.iter (fun b -> Atomic.set b 0) h.buckets;
          Atomic.set h.h_sum 0
        in
        Hashtbl.add entries name { backing = B_hist h; reset_entry };
        h)

let observe h v =
  let n = Array.length h.bounds in
  let rec bucket i = if i >= n || v <= h.bounds.(i) then i else bucket (i + 1) in
  Atomic.incr h.buckets.(bucket 0);
  ignore (Atomic.fetch_and_add h.h_sum v)

let hist_count h = Array.fold_left (fun acc b -> acc + Atomic.get b) 0 h.buckets
let hist_sum h = Atomic.get h.h_sum

(* ---- reads ---------------------------------------------------------------- *)

let find name = locked (fun () -> Hashtbl.find_opt entries name)

let read_int name =
  match find name with
  | None -> invalid_arg ("Registry.read_int: unknown metric " ^ name)
  | Some { backing = B_counter c; _ } -> counter_value c
  | Some { backing = B_fold f; _ } -> f ()
  | Some { backing = B_hist h; _ } -> hist_count h

let mem name = match find name with Some _ -> true | None -> false

let flatten name backing =
  match backing with
  | B_counter c -> [ (name, counter_value c) ]
  | B_fold f -> [ (name, f ()) ]
  | B_hist h ->
    let buckets =
      Array.to_list
        (Array.mapi
           (fun i b ->
             let label =
               if i < Array.length h.bounds then
                 Printf.sprintf "%s/le=%d" name h.bounds.(i)
               else name ^ "/le=inf"
             in
             (label, Atomic.get b))
           h.buckets)
    in
    buckets @ [ (name ^ "/count", hist_count h); (name ^ "/sum", hist_sum h) ]

let snapshot () =
  let names = locked (fun () -> Hashtbl.fold (fun k e acc -> (k, e) :: acc) entries []) in
  names
  |> List.concat_map (fun (name, e) -> flatten name e.backing)
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* Shard-merge combination. Every backing is additive over disjoint
   work partitions — counters and histogram buckets/sums count events,
   fold metrics fold per-family records created by the work — so the
   pointwise sum of per-shard snapshots (each taken after a reset_all,
   covering exactly that shard's cells) equals the snapshot a serial
   run would produce. *)
let merge snapshots =
  let tbl = Hashtbl.create 64 in
  List.iter
    (List.iter (fun (name, v) ->
         Hashtbl.replace tbl name
           (v + Option.value ~default:0 (Hashtbl.find_opt tbl name))))
    snapshots;
  Hashtbl.fold (fun name v acc -> (name, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let reset name =
  match find name with
  | None -> invalid_arg ("Registry.reset: unknown metric " ^ name)
  | Some e -> e.reset_entry ()

let reset_all () =
  let es = locked (fun () -> Hashtbl.fold (fun _ e acc -> e :: acc) entries []) in
  (* group resets are shared closures; running one several times is
     harmless (clearing an already-empty record list) *)
  List.iter (fun e -> e.reset_entry ()) es
