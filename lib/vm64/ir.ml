(* A small explicit IR of decoded blocks, sitting between [Tcache]'s
   decode and [Compile]'s closure emission. Lowering is structured as
   passes — lift (the exit's classification), fuse (superblock
   concatenation), then [Compile]'s emission — so every
   translation-time decision is a data transformation that can be
   inspected and tested on its own, instead of being interleaved with
   closure construction. The steps are the decoder's records, shared
   with the block when the translation is one block.

   The invariant every pass preserves: step [i] of the IR retires
   exactly one guest instruction with the decoded cost/callret/next of
   that instruction. Fuel accounting, cycle charging and fault
   attribution in the emitted code all index by step, so any rewrite
   that merges or splits steps would silently corrupt them — rewrites
   that cannot keep the mapping (e.g. cmp+jcc macro-fusion) do not
   belong in this IR. *)

module I = Isa.Insn

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
  steps : Tcache.step array;  (* the first is the entry *)
  exit_ : exit_shape;
  parts : part array;  (* constituent blocks, head first, by step index *)
}

(* ---- lift: one block, its exit made explicit ------------------------ *)

(* [inlinable name] — the environment can emit the builtin's body
   in-line, so a direct call to it falls through instead of exiting to
   the OS dispatch. *)
let lift ~is_builtin ~inlinable (b : Tcache.block) : t =
  let steps = b.Tcache.steps in
  let last = steps.(Array.length steps - 1) in
  let fall = last.Tcache.next in
  let exit_ =
    match last.Tcache.insn with
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
  { steps; exit_; parts = [| { block = b; start = 0 } |] }

(* ---- fuse: superblock concatenation --------------------------------- *)

let jump_target t = match t.exit_ with Jump a -> Some a | _ -> None

(* Precondition (checked): [a] exits with an unconditional static jump
   to [b]'s entry, so the concatenation retires exactly the same
   instruction stream. Control instructions inside the fused run keep
   their [sets_rip] mark: a fuel-boundary stop mid-superblock must not
   overwrite a rip a jmp/call already set. *)
let fuse a b =
  (match jump_target a with
  | Some t when Int64.equal t b.steps.(0).Tcache.addr -> ()
  | _ -> invalid_arg "Ir.fuse: exit does not reach successor entry");
  let off = Array.length a.steps in
  {
    steps = Array.append a.steps b.steps;
    exit_ = b.exit_;
    parts =
      Array.append a.parts
        (Array.map (fun p -> { p with start = p.start + off }) b.parts);
  }

let length t = Array.length t.steps
