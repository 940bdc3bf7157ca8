exception Format_error of string

let magic = "PSSPEXE\x00"
let version = 1

let fail fmt = Printf.ksprintf (fun s -> raise (Format_error s)) fmt

(* ---- writing -------------------------------------------------------------- *)

let put_u8 buf v = Buffer.add_char buf (Char.chr (v land 0xFF))

let put_u32 buf v =
  let b = Bytes.create 4 in
  Bytes.set_int32_le b 0 (Int32.of_int v);
  Buffer.add_bytes buf b

let put_u64 buf v =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 v;
  Buffer.add_bytes buf b

let put_string buf s =
  if String.length s > 0xFFFF then fail "string too long";
  put_u8 buf (String.length s land 0xFF);
  put_u8 buf (String.length s lsr 8);
  Buffer.add_string buf s

let put_blob buf b =
  put_u32 buf (Bytes.length b);
  Buffer.add_bytes buf b

let write (image : Image.t) =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf magic;
  put_u32 buf version;
  put_u8 buf (match image.Image.linkage with Image.Dynamic -> 0 | Image.Static -> 1);
  put_string buf image.Image.scheme_tag;
  put_string buf image.Image.name;
  put_u64 buf image.Image.entry;
  put_u64 buf image.Image.text_base;
  put_blob buf image.Image.text;
  put_u64 buf image.Image.data_base;
  put_blob buf image.Image.data;
  put_u64 buf image.Image.extra_base;
  put_blob buf image.Image.extra;
  put_u32 buf (List.length image.Image.symbols);
  List.iter
    (fun (s : Image.symbol) ->
      put_string buf s.Image.sym_name;
      put_u64 buf s.Image.sym_addr;
      put_u32 buf s.Image.sym_size)
    image.Image.symbols;
  Buffer.to_bytes buf

(* ---- reading -------------------------------------------------------------- *)

type cursor = { data : bytes; mutable pos : int }

let need c n = if c.pos + n > Bytes.length c.data then fail "truncated file"

let get_u8 c =
  need c 1;
  let v = Char.code (Bytes.get c.data c.pos) in
  c.pos <- c.pos + 1;
  v

let get_u32 c =
  need c 4;
  let v = Int32.to_int (Bytes.get_int32_le c.data c.pos) in
  c.pos <- c.pos + 4;
  if v < 0 then fail "negative length";
  v

let get_u64 c =
  need c 8;
  let v = Bytes.get_int64_le c.data c.pos in
  c.pos <- c.pos + 8;
  v

let get_string c =
  let lo = get_u8 c in
  let hi = get_u8 c in
  let n = lo lor (hi lsl 8) in
  need c n;
  let s = Bytes.sub_string c.data c.pos n in
  c.pos <- c.pos + n;
  s

let get_blob c =
  let n = get_u32 c in
  need c n;
  let b = Bytes.sub c.data c.pos n in
  c.pos <- c.pos + n;
  b

let read data =
  let c = { data; pos = 0 } in
  need c (String.length magic);
  let m = Bytes.sub_string data 0 (String.length magic) in
  if m <> magic then fail "bad magic (not a pssp executable)";
  c.pos <- String.length magic;
  let v = get_u32 c in
  if v <> version then fail "unsupported version %d" v;
  let linkage =
    match get_u8 c with
    | 0 -> Image.Dynamic
    | 1 -> Image.Static
    | n -> fail "bad linkage byte %d" n
  in
  let scheme_tag = get_string c in
  let name = get_string c in
  let entry = get_u64 c in
  let text_base = get_u64 c in
  let text = get_blob c in
  let data_base = get_u64 c in
  let data_sec = get_blob c in
  let extra_base = get_u64 c in
  let extra = get_blob c in
  let nsyms = get_u32 c in
  if nsyms > 1_000_000 then fail "implausible symbol count %d" nsyms;
  let symbols =
    List.init nsyms (fun _ ->
        let sym_name = get_string c in
        let sym_addr = get_u64 c in
        let sym_size = get_u32 c in
        { Image.sym_name; sym_addr; sym_size })
  in
  let image : Image.t =
    {
      Image.name;
      linkage;
      entry;
      text_base;
      text;
      data_base;
      data = data_sec;
      symbols;
      extra_base;
      extra;
      scheme_tag;
    }
  in
  (* every extent Kernel.spawn maps (text at least one byte, data at
     least one page, extra when present) must lie inside the layout *)
  let check_extent what base len =
    if
      Int64.unsigned_compare base Vm64.Layout.address_limit >= 0
      || Int64.unsigned_compare (Int64.of_int len)
           (Int64.sub Vm64.Layout.address_limit base)
         > 0
    then
      fail "%s section [0x%Lx, +%d) outside the guest layout [0, 0x%Lx)" what base len
        Vm64.Layout.address_limit
  in
  check_extent "text" text_base (max 1 (Bytes.length text));
  check_extent "data" data_base (max 4096 (Bytes.length data_sec));
  if Bytes.length extra > 0 then check_extent "extra" extra_base (Bytes.length extra);
  (* sanity: the entry must fall in a section *)
  if
    Bytes.length image.Image.text > 0
    && (Int64.compare entry text_base < 0
       || Int64.compare entry
            (Int64.add text_base (Int64.of_int (Bytes.length image.Image.text)))
          >= 0)
    && (Bytes.length extra = 0
       || Int64.compare entry extra_base < 0
       || Int64.compare entry
            (Int64.add extra_base (Int64.of_int (Bytes.length extra)))
          >= 0)
  then fail "entry point 0x%Lx outside all sections" entry;
  image

let save image path =
  let oc = open_out_bin path in
  output_bytes oc (write image);
  close_out oc

let load path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let b = Bytes.create n in
  really_input ic b 0 n;
  close_in ic;
  read b
