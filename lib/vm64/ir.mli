(** Explicit IR of decoded blocks — the data {!Compile} lowers.

    Produced from a {!Tcache.block} by {!lift}, refined by
    {!normalize}, and concatenated into superblocks by {!fuse}; emitted
    to closures by {!Compile}. Every pass preserves the step/retire 1:1
    mapping that fuel accounting, cycle charging and fault attribution
    index by — see the invariant note in the implementation. *)

type uop =
  | Exec of Isa.Insn.t  (** general case, per-insn lowering *)
  | Zero of int  (** [xor r, r] zero idiom (gpr index): no operand reads *)
  | Nop_cost
      (** architectural no-op that still charges its decoded cost:
          masked shift count 0, [mov r, r] self-move *)

type step = {
  addr : int64;  (** the instruction's own address *)
  next : int64;  (** fall-through rip *)
  cost : int;  (** static cycle cost *)
  callret : bool;  (** charged the per-call tax *)
  sets_rip : bool;  (** emitted closure writes rip when returning Running *)
  uop : uop;
}

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
  entry : int64;
  steps : step array;
  exit_ : exit_shape;
  parts : part array;  (** constituent blocks, head first, by step index *)
}

val lift :
  is_builtin:(int64 -> string option) ->
  inlinable:(string -> bool) ->
  Tcache.block ->
  t
(** Decode facts made explicit: per-step costs/nexts/rip-writing, and
    the exit shape with direct-call builtin targets resolved against the
    environment ([inlinable] decides whether a resolved builtin call
    falls through — its body emitted in line — or exits to the OS). *)

val normalize : t -> t
(** Per-step strength reduction (zero idiom, dead shifts, self-moves);
    each rewrite is observationally identical per retired instruction. *)

val jump_target : t -> int64 option
(** The unconditional static successor, if the exit has one. *)

val fuse : t -> t -> t
(** [fuse a b] concatenates [b] onto [a]. Raises [Invalid_argument]
    unless [jump_target a = Some b.entry]. *)

val length : t -> int
