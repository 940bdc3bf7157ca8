type signal = Sigsegv | Sigabrt | Sigill

let signal_name = function
  | Sigsegv -> "SIGSEGV"
  | Sigabrt -> "SIGABRT"
  | Sigill -> "SIGILL"

(* Classic Linux signal numbers — what waitpid's status word encodes. *)
let signal_number = function Sigsegv -> 11 | Sigabrt -> 6 | Sigill -> 4

let signal_of_fault = function
  | Vm64.Fault.Segfault _ -> Sigsegv
  | Vm64.Fault.Bad_instruction _ -> Sigill

type status =
  | Runnable
  | Blocked of Glibc.call
  | Exited of int
  | Killed of signal * string

let status_is_dead = function
  | Exited _ | Killed _ -> true
  | Runnable | Blocked _ -> false

let status_to_string = function
  | Runnable -> "runnable"
  | Blocked Glibc.Accept -> "blocked (accept)"
  | Blocked (Glibc.Read { fd; _ }) ->
    Printf.sprintf "blocked (read fd %d)" fd
  | Blocked (Glibc.Write { fd; _ }) ->
    Printf.sprintf "blocked (write fd %d)" fd
  | Blocked (Glibc.Poll _) -> "blocked (epoll_wait)"
  | Blocked Glibc.Wait_child -> "blocked (waitpid)"
  | Exited n -> Printf.sprintf "exited %d" n
  | Killed (s, msg) -> Printf.sprintf "killed %s (%s)" (signal_name s) msg

type t = {
  pid : int;
  parent : t option;
  image : Image.t;
  mem : Vm64.Memory.t;
  cpu : Vm64.Cpu.t;
  io : Glibc.io;
  preload : Preload.mode;
  mutable status : status;
  pending_children : t Queue.t;  (* oldest first; O(1) append at fork *)
  mutable queued : bool;  (* already sitting in the kernel's ready queue *)
  mutable wake_pending : bool;  (* already sitting in the kernel's wake queue *)
  mutable reaped : bool;  (* gone from the kernel's process table *)
}

let crashed t = match t.status with Killed _ -> true | _ -> false

let stdout t = Buffer.contents t.io.Glibc.output
let stderr t = Buffer.contents t.io.Glibc.errout
let cycles t = Vm64.Cpu.cycles t.cpu
