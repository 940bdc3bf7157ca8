(** Hardware-level faults raised by the simulated machine. *)

type t =
  | Segfault of int64  (** access to an unmapped address *)
  | Bad_instruction of int64 * string  (** undecodable bytes at rip *)

exception Trap of t
(** Raised by memory and execution primitives; the OS layer converts it
    into process termination. *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit
val equal : t -> t -> bool
