type t =
  | Segfault of int64
  | Bad_instruction of int64 * string

exception Trap of t

let to_string = function
  | Segfault addr -> Printf.sprintf "segmentation fault at 0x%Lx" addr
  | Bad_instruction (addr, msg) ->
    Printf.sprintf "illegal instruction at 0x%Lx: %s" addr msg

let pp fmt f = Format.pp_print_string fmt (to_string f)

let equal a b =
  match (a, b) with
  | Segfault x, Segfault y -> Int64.equal x y
  | Bad_instruction (x, _), Bad_instruction (y, _) -> Int64.equal x y
  | (Segfault _ | Bad_instruction _), _ -> false
