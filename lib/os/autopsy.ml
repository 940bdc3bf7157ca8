type verdict =
  | Not_dead
  | Clean_exit of int
  | Canary_abort of { message : string }
  | Control_flow_hijack of { target : int64; payload_shaped : bool }
  | Wild_fault of { at_rip : int64; detail : string }

type report = {
  verdict : verdict;
  crash_function : string option;
  frames : Debug.frame list;
}

(* One printable byte repeated across the whole word — classic filler
   ('AAAA...', 0x41414141...). *)
let payload_shaped addr =
  let b0 = Int64.to_int (Int64.logand addr 0xFFL) in
  b0 >= 0x20 && b0 < 0x7F
  && (let rec all i =
        i = 8
        || Int64.to_int (Int64.logand (Int64.shift_right_logical addr (8 * i)) 0xFFL)
           = b0
           && all (i + 1)
      in
      all 1)

let examine (proc : Process.t) =
  let rip = Vm64.Cpu.rip proc.Process.cpu in
  let crash_function =
    Option.map
      (fun (s : Image.symbol) -> s.Image.sym_name)
      (Image.symbol_covering proc.Process.image rip)
  in
  let frames = Debug.backtrace proc in
  let verdict =
    match proc.Process.status with
    | Process.Runnable | Process.Blocked _ -> Not_dead
    | Process.Exited code -> Clean_exit code
    | Process.Killed (Process.Sigabrt, message) -> Canary_abort { message }
    | Process.Killed (_, detail) ->
      if Vm64.Memory.is_mapped proc.Process.mem rip && crash_function <> None
      then Wild_fault { at_rip = rip; detail }
      else Control_flow_hijack { target = rip; payload_shaped = payload_shaped rip }
  in
  { verdict; crash_function; frames }

let verdict_to_string = function
  | Not_dead -> "process is alive"
  | Clean_exit code -> Printf.sprintf "clean exit (%d)" code
  | Canary_abort { message } ->
    Printf.sprintf "canary abort — the defence fired (%s)" message
  | Control_flow_hijack { target; payload_shaped } ->
    Printf.sprintf "CONTROL-FLOW HIJACK — execution redirected to 0x%Lx%s" target
      (if payload_shaped then " (attacker-filler-shaped address)" else "")
  | Wild_fault { at_rip; detail } ->
    Printf.sprintf "wild fault while executing 0x%Lx (%s) — data corruption, \
                    return address intact"
      at_rip detail

let pp_report fmt r =
  Format.fprintf fmt "verdict: %s@." (verdict_to_string r.verdict);
  (match r.crash_function with
  | Some name -> Format.fprintf fmt "dying in: <%s>@." name
  | None -> Format.fprintf fmt "dying outside any known function@.");
  if r.frames <> [] then begin
    Format.fprintf fmt "backtrace:@.";
    Debug.pp_backtrace fmt r.frames
  end
