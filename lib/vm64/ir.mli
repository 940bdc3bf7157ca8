(** Explicit IR of decoded blocks — the data {!Compile} lowers.

    Produced from a {!Tcache.block} by {!lift} and concatenated into
    superblocks by {!fuse}; emitted to closures by {!Compile}. The
    steps are the decoder's own: a single-block translation shares its
    block's array. Every pass preserves the step/retire 1:1 mapping that
    fuel accounting, cycle charging and fault attribution index by —
    see the invariant note in the implementation. *)

(** How control leaves when the last step retires [Running]. *)
type exit_shape =
  | Jump of int64
      (** unconditional static successor: jmp abs, fall-through (block
          cap / decode break), direct non-builtin call (the callee), or
          a direct inlined-builtin call (the return point) *)
  | Branch of { taken : int64; fall : int64 }  (** jcc with absolute target *)
  | Dynamic  (** successor only known from rip at run time (ret, ...) *)
  | Stop  (** never retires [Running] last: hlt, syscall, builtin exit *)

type part = { block : Tcache.block; start : int }

type t = {
  steps : Tcache.step array;  (** never empty; the first is the entry *)
  exit_ : exit_shape;
  parts : part array;  (** constituent blocks, head first, by step index *)
}

val lift :
  is_builtin:(int64 -> string option) ->
  inlinable:(string -> bool) ->
  Tcache.block ->
  t
(** The block's steps with the exit shape made explicit, direct-call
    builtin targets resolved against the environment ([inlinable]
    decides whether a resolved builtin call falls through — its body
    emitted in line — or exits to the OS). *)

val jump_target : t -> int64 option
(** The unconditional static successor, if the exit has one. *)

val fuse : t -> t -> t
(** [fuse a b] concatenates [b] onto [a]. Raises [Invalid_argument]
    unless [jump_target a] is [b]'s entry. *)

val length : t -> int
