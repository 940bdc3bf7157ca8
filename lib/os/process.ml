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
  | Vm64.Fault.Stack_overflow_fault _ -> Sigsegv

type status =
  | Runnable
  | Blocked_accept
  | Blocked_read of { fd : int; dst : int64; cap : int }
  | Blocked_write of { fd : int; data : bytes; written : int }
  | Blocked_poll of { dst : int64; cap : int }
  | Blocked_wait
  | Exited of int
  | Killed of signal * string

let status_is_dead = function
  | Exited _ | Killed _ -> true
  | Runnable | Blocked_accept | Blocked_read _ | Blocked_write _
  | Blocked_poll _ | Blocked_wait ->
    false

let status_is_blocked = function
  | Blocked_accept | Blocked_read _ | Blocked_write _ | Blocked_poll _
  | Blocked_wait ->
    true
  | Runnable | Exited _ | Killed _ -> false

let status_to_string = function
  | Runnable -> "runnable"
  | Blocked_accept -> "blocked (accept)"
  | Blocked_read { fd; _ } -> Printf.sprintf "blocked (read fd %d)" fd
  | Blocked_write { fd; _ } -> Printf.sprintf "blocked (write fd %d)" fd
  | Blocked_poll _ -> "blocked (epoll_wait)"
  | Blocked_wait -> "blocked (waitpid)"
  | Exited n -> Printf.sprintf "exited %d" n
  | Killed (s, msg) -> Printf.sprintf "killed %s (%s)" (signal_name s) msg

type t = {
  pid : int;
  parent : int option;
  image : Image.t;
  mem : Vm64.Memory.t;
  cpu : Vm64.Cpu.t;
  io : Glibc.io;
  preload : Preload.mode;
  mutable status : status;
  pending_children : int Queue.t;  (* oldest first; O(1) append at fork *)
  mutable queued : bool;  (* already sitting in the kernel's ready queue *)
  mutable wake_pending : bool;  (* already sitting in the kernel's wake queue *)
}

let crashed t = match t.status with Killed _ -> true | _ -> false

let stdout t = Buffer.contents t.io.Glibc.output
let stderr t = Buffer.contents t.io.Glibc.errout
let cycles t = t.cpu.Vm64.Cpu.cycles
