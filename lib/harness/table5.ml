type row = { label : string; scheme : Pssp.Scheme.t; cycles : float }

type result = { rows : row list }

(* A guarded leaf function with [criticals] critical locals, called in a
   tight loop; the loop body is identical across schemes, so the cycle
   delta against the unprotected build isolates the canary code. *)
let victim ~criticals ~calls =
  let decls =
    String.concat "\n"
      (List.init criticals (fun i ->
           Printf.sprintf "  critical int guard_me%d;" i))
  in
  let uses =
    String.concat "\n"
      (List.init criticals (fun i ->
           Printf.sprintf "  guard_me%d = x + %d;" i i))
  in
  let sums =
    String.concat ""
      (List.init criticals (fun i -> Printf.sprintf " + guard_me%d" i))
  in
  Printf.sprintf
    {|
int work(int x) {
  char buf[16];
%s
  buf[0] = x;
%s
  return buf[0]%s;
}

int main() {
  int i;
  int acc = 0;
  for (i = 0; i < %d; i++) {
    acc = acc + work(i);
  }
  print_int(acc);
  return 0;
}
|}
    decls uses sums calls

let run_cycles scheme ~criticals ~calls =
  let program = Minic.Parser.parse (victim ~criticals ~calls) in
  let image = Mcc.Driver.compile ~scheme program in
  let kernel = Os.Kernel.create () in
  let proc = Os.Kernel.spawn kernel ~preload:(Mcc.Driver.preload_for scheme) image in
  Os.Kernel.enqueue kernel proc;
  Os.Kernel.schedule kernel;
  (match Os.Kernel.stop_of proc with
  | Os.Kernel.Stop_exit 0 -> ()
  | other -> failwith ("Table5: " ^ Os.Kernel.stop_to_string other));
  Os.Process.cycles proc

let per_call ~calls ~protected_ ~baseline =
  Int64.to_float (Int64.sub protected_ baseline) /. float_of_int calls

let measure_scheme ?(calls = 20_000) scheme ~criticals =
  let protected_ = run_cycles scheme ~criticals ~calls in
  let baseline = run_cycles Pssp.Scheme.None_ ~criticals ~calls in
  per_call ~calls ~protected_ ~baseline

let specs =
  [
    ("P-SSP", Pssp.Scheme.Pssp, 0);
    ("P-SSP-NT", Pssp.Scheme.Pssp_nt, 0);
    (* paper counts canaries: "2 variables" = ret guard + 1 critical *)
    ("P-SSP-LV (2 variables)", Pssp.Scheme.Pssp_lv 1, 1);
    ("P-SSP-LV (4 variables)", Pssp.Scheme.Pssp_lv 3, 3);
    ("P-SSP-OWF", Pssp.Scheme.Pssp_owf, 0);
    (* beyond the paper: the defense-family schemes, same harness *)
    ("Shadow stack (compact)", Pssp.Scheme.Shadow_compact, 0);
    ("Shadow stack (parallel)", Pssp.Scheme.Shadow_parallel, 0);
    ("PAC canary", Pssp.Scheme.Pac_canary, 0);
    ("Wasm SSP", Pssp.Scheme.Wasm_ssp, 0);
  ]

(* The unprotected build depends only on the victim, so each distinct
   [criticals] gets one baseline run, shared by its rows. The cells are
   those baseline runs, then one protected run per row; each is one
   run's cycle count. *)
let victims = List.sort_uniq Int.compare (List.map (fun (_, _, criticals) -> criticals) specs)
let cells = List.length victims + List.length specs

let cell ~calls i =
  match List.nth_opt victims i with
  | Some criticals -> run_cycles Pssp.Scheme.None_ ~criticals ~calls
  | None ->
    let _, scheme, criticals = List.nth specs (i - List.length victims) in
    run_cycles scheme ~criticals ~calls

(* The rows from every cell's cycle count, in cell order. *)
let merge ~calls cycles =
  let nv = List.length victims in
  let baselines = List.combine victims (List.filteri (fun i _ -> i < nv) cycles) in
  {
    rows =
      List.map2
        (fun (label, scheme, criticals) protected_ ->
          let baseline = List.assoc criticals baselines in
          { label; scheme; cycles = per_call ~calls ~protected_ ~baseline })
        specs
        (List.filteri (fun i _ -> i >= nv) cycles);
  }

let run ?(jobs = 1) ?(calls = 20_000) () =
  merge ~calls (Pool.map ~jobs (cell ~calls) (List.init cells Fun.id))

let to_table result =
  let t =
    Util.Table.create
      ~title:
        "Table V: Average CPU cycles spent by the canary prologue+epilogue"
      [ "Scheme"; "Cycles per call" ]
  in
  List.iter
    (fun r ->
      Util.Table.add_row t [ r.label; Util.Table.cell_float ~digits:1 r.cycles ])
    result.rows;
  t

let campaign () =
  Campaign.v ~name:"table5" ~title:"Table V - prologue+epilogue canary cycles" ~cells
    ~run_cell:(fun i -> Campaign.pack (cell ~calls:20_000 i))
    ~merge:(fun cycles ->
      Util.Table.print
        (to_table
           (merge ~calls:20_000 (List.map (fun c -> (Campaign.unpack c : int64)) cycles)));
      print_string
        "Paper: P-SSP 6; P-SSP-NT 343; P-SSP-LV 343 / 986; P-SSP-OWF 278.\n")
    ()
