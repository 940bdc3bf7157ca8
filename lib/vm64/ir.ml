(* A small explicit IR of decoded blocks, sitting between [Tcache]'s
   raw decode and [Compile]'s closure emission. Lowering is structured
   as passes — lift (decode classification), normalize (per-step
   rewrites that preserve the 1:1 retire mapping), fuse (superblock
   concatenation) — so every translation-time decision is a data
   transformation that can be inspected and tested on its own, instead
   of being interleaved with closure construction.

   The invariant every pass preserves: step [i] of the IR retires
   exactly one guest instruction with the decoded cost/callret/next of
   that instruction. Fuel accounting, cycle charging and fault
   attribution in the emitted code all index by step, so any rewrite
   that merges or splits steps would silently corrupt them — rewrites
   that cannot keep the mapping (e.g. cmp+jcc macro-fusion) do not
   belong in this IR. *)

module I = Isa.Insn
module O = Isa.Operand

type uop =
  | Exec of I.t  (* general case: emitted through the per-insn lowering *)
  | Zero of int  (* [xor r, r] zero idiom — gpr index, no operand reads *)
  | Nop_cost  (* architectural no-op that still charges its decoded
                 cost: masked shift count 0, [mov r, r] self-move *)

type step = {
  addr : int64;  (* the instruction's own address *)
  next : int64;  (* fall-through rip *)
  cost : int;  (* static cycle cost (from decode) *)
  callret : bool;  (* charged the per-call tax *)
  sets_rip : bool;  (* the emitted closure writes rip when it returns Running *)
  uop : uop;
}

(* How control leaves the (super)block when the last step retires with
   [Running] — [Stop] exits (hlt/syscall/non-inlined builtin) never
   produce [Running], and [Dynamic] exits (ret, indirect call, symbolic
   targets) leave the successor to be read out of rip at run time. *)
type exit_shape =
  | Jump of int64  (* unconditional static successor — also fall-through *)
  | Branch of { taken : int64; fall : int64 }
  | Dynamic
  | Stop

type part = { block : Tcache.block; start : int }

type t = {
  entry : int64;
  steps : step array;
  exit_ : exit_shape;
  parts : part array;  (* constituent blocks, head first, by step index *)
}

let sets_rip_on_running = function
  | I.Jmp _ | I.Jcc _ | I.Call _ | I.Call_ind _ | I.Ret -> true
  | _ -> false

(* ---- lift: one block, decode facts made explicit ------------------- *)

(* [inlinable name] — the environment can emit the builtin's body
   in-line, so a direct call to it falls through instead of exiting to
   the OS dispatch. *)
let lift ~is_builtin ~inlinable (b : Tcache.block) : t =
  let insns = b.Tcache.insns in
  let n = Array.length insns in
  let steps =
    Array.init n (fun i ->
        {
          addr = (if i = 0 then b.Tcache.bb_start else b.Tcache.nexts.(i - 1));
          next = b.Tcache.nexts.(i);
          cost = b.Tcache.costs.(i);
          callret = b.Tcache.callret.(i);
          sets_rip = sets_rip_on_running insns.(i);
          uop = Exec insns.(i);
        })
  in
  let last = insns.(n - 1) in
  let fall = b.Tcache.nexts.(n - 1) in
  let exit_ =
    match last with
    | I.Jmp (I.Abs a) -> Jump a
    | I.Jcc (_, I.Abs a) -> Branch { taken = a; fall }
    | I.Call (I.Abs a) -> (
      match is_builtin a with
      | Some name -> if inlinable name then Jump fall else Stop
      | None -> Jump a)
    | I.Jmp (I.Sym _) | I.Jcc (_, I.Sym _) | I.Call (I.Sym _) | I.Call_ind _ | I.Ret
      ->
      Dynamic
    | I.Syscall | I.Hlt -> Stop
    (* no terminator: the decoder hit the block cap or an undecodable
       byte; execution falls through to the next address *)
    | _ -> Jump fall
  in
  { entry = b.Tcache.bb_start; steps; exit_; parts = [| { block = b; start = 0 } |] }

(* ---- normalize: per-step strength reduction ------------------------- *)

(* Rewrites must be observationally identical per retired instruction:
   same registers, flags, memory, faults — only the work the closure
   does may shrink. *)
let normalize_step s =
  match s.uop with
  | Exec (I.Bin (I.Xor, O.Reg d, O.Reg sr)) when d = sr ->
    (* zero idiom: result and flags are input-independent *)
    { s with uop = Zero (Isa.Reg.index d) }
  | Exec (I.Shift (_, _, k)) when k land 63 = 0 ->
    (* x86 masked shift count 0: destination and flags untouched *)
    { s with uop = Nop_cost }
  | Exec (I.Mov (O.Reg d, O.Reg sr)) when d = sr ->
    (* self-move: no register, flag or memory effect *)
    { s with uop = Nop_cost }
  | _ -> s

let normalize t = { t with steps = Array.map normalize_step t.steps }

(* ---- fuse: superblock concatenation --------------------------------- *)

let jump_target t = match t.exit_ with Jump a -> Some a | _ -> None

(* Precondition (checked): [a] exits with an unconditional static jump
   to [b]'s entry, so the concatenation retires exactly the same
   instruction stream. Control instructions inside the fused run keep
   their [sets_rip] mark: a fuel-boundary stop mid-superblock must not
   overwrite a rip a jmp/call already set. *)
let fuse a b =
  (match jump_target a with
  | Some t when Int64.equal t b.entry -> ()
  | _ -> invalid_arg "Ir.fuse: exit does not reach successor entry");
  let off = Array.length a.steps in
  {
    entry = a.entry;
    steps = Array.append a.steps b.steps;
    exit_ = b.exit_;
    parts =
      Array.append a.parts
        (Array.map (fun p -> { p with start = p.start + off }) b.parts);
  }

let length t = Array.length t.steps
