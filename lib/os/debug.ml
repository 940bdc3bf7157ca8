type tracer = {
  ring : (int64 * Isa.Insn.t) option array;
  mutable next : int;
  mutable total : int;
}

let ring_tracer ~capacity =
  if capacity <= 0 then invalid_arg "Debug.ring_tracer: capacity";
  { ring = Array.make capacity None; next = 0; total = 0 }

let on_retire t (cpu : Vm64.Cpu.t) insn =
  t.ring.(t.next) <- Some (Vm64.Cpu.rip cpu, insn);
  t.next <- (t.next + 1) mod Array.length t.ring;
  t.total <- t.total + 1

let recent t ?image () =
  let annotate insn =
    match image with
    | Some img -> Image.annotate_targets img insn
    | None -> insn
  in
  let n = Array.length t.ring in
  let out = ref [] in
  for i = n - 1 downto 0 do
    match t.ring.((t.next + i) mod n) with
    | Some (rip, insn) ->
      out := Printf.sprintf "%8Lx: %s" rip (Isa.Asm.to_string (annotate insn)) :: !out
    | None -> ()
  done;
  !out

let retired t = t.total

type frame = {
  frame_rbp : int64;
  return_address : int64;
  in_function : string option;
}

let backtrace ?(limit = 64) (proc : Process.t) =
  let mem = proc.Process.mem in
  let covering addr =
    Option.map
      (fun (s : Image.symbol) -> s.Image.sym_name)
      (Image.symbol_covering proc.Process.image addr)
  in
  let rec walk rbp depth acc =
    if depth >= limit then List.rev acc
    else if not (Vm64.Memory.is_mapped mem rbp) then List.rev acc
    else begin
      let saved_rbp = Vm64.Memory.read_u64 mem rbp in
      let return_address = Vm64.Memory.read_u64 mem (Int64.add rbp 8L) in
      let frame = { frame_rbp = rbp; return_address; in_function = covering return_address } in
      (* a sane chain grows towards higher addresses; anything else means
         the saved rbp was overwritten *)
      if Int64.compare saved_rbp rbp <= 0 then List.rev (frame :: acc)
      else walk saved_rbp (depth + 1) (frame :: acc)
    end
  in
  walk (Vm64.Cpu.get proc.Process.cpu Isa.Reg.RBP) 0 []

let pp_backtrace fmt frames =
  List.iteri
    (fun i f ->
      Format.fprintf fmt "#%-2d rbp=0x%Lx ret=0x%Lx%s@." i f.frame_rbp
        f.return_address
        (match f.in_function with
        | Some name -> " in <" ^ name ^ ">"
        | None -> ""))
    frames
