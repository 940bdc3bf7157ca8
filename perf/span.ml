(* In-memory spans around the benchmark's calls into each layer.

   Recording is off until [enable true]; an untraced rep pays one branch
   per wrapped call. A serve rep records a few hundred thousand spans
   (one per pump step, kernel slice and connect), so each span is packed
   as four ints — name, start ns, end ns, parent span (-1 for none) — in
   one growable array rather than a record apiece. *)

type name = int

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let recording = ref false
let enable b = recording := b
let enabled () = !recording
let names : (string, name) Hashtbl.t = Hashtbl.create 32
let by_index : string array ref = ref [||]

let name s =
  match Hashtbl.find_opt names s with
  | Some i -> i
  | None ->
    let i = Hashtbl.length names in
    Hashtbl.add names s i;
    by_index := Array.append !by_index [| s |];
    i

let data = ref (Array.make (4 * 65_536) 0)
let count = ref 0
let current = ref (-1)

let with_ (n : name) f =
  if not !recording then f ()
  else begin
    let id = !count in
    if 4 * (id + 1) > Array.length !data then begin
      let bigger = Array.make (2 * Array.length !data) 0 in
      Array.blit !data 0 bigger 0 (4 * id);
      data := bigger
    end;
    let d = !data in
    d.(4 * id) <- n;
    d.((4 * id) + 3) <- !current;
    count := id + 1;
    current := id;
    d.((4 * id) + 1) <- now_ns ();
    let finish () =
      (!data).((4 * id) + 2) <- now_ns ();
      current := (!data).((4 * id) + 3)
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

let field id k = (!data).((4 * id) + k)
let duration id = float_of_int (field id 2 - field id 1) *. 1e-9

(* Total seconds and call count per span name. *)
let totals () =
  let tbl = Hashtbl.create 32 in
  for id = 0 to !count - 1 do
    let key = (!by_index).(field id 0) in
    let s, c = Option.value (Hashtbl.find_opt tbl key) ~default:(0.0, 0) in
    Hashtbl.replace tbl key (s +. duration id, c + 1)
  done;
  tbl

(* Seconds covered by the direct children of every span named [parent]. *)
let children_s parent =
  let p = Hashtbl.find_opt names parent in
  let acc = ref 0.0 in
  for id = 0 to !count - 1 do
    let up = field id 3 in
    if up >= 0 && Some (field up 0) = p then acc := !acc +. duration id
  done;
  !acc

(* One JSON line: the name table, then [name, start_ns, end_ns, parent]
   per span in start order. *)
let write_line oc ~workload =
  Printf.fprintf oc "{\"workload\":%S,\"unit\":\"ns\",\"names\":[%s],\"spans\":["
    workload
    (String.concat "," (Array.to_list (Array.map (Printf.sprintf "%S") !by_index)));
  for id = 0 to !count - 1 do
    if id > 0 then output_char oc ',';
    Printf.fprintf oc "[%d,%d,%d,%d]" (field id 0) (field id 1) (field id 2)
      (field id 3)
  done;
  output_string oc "]}\n"
