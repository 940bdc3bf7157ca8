type flags = {
  mutable zf : bool;
  mutable sf : bool;
  mutable cf : bool;
  mutable of_ : bool;
}

type t = {
  gprs : Bytes.t;
  xmms : (int64 * int64) array;
  flags : flags;
  mutable fs_base : int64;
  mutable insn_tax : int;
  mutable call_tax : int;
  mutable pac_key : int64;
  rng : Util.Prng.t;
  tcache : Tcache.t;
}

(* rip and the cycle counter follow the 16 gprs in the register file,
   so writing either is a plain store too *)
let rip_offset = 128
let cycles_offset = 136

let create ?(seed = 0x5EEDL) () =
  {
    gprs = Bytes.make 144 '\000';
    xmms = Array.make 16 (0L, 0L);
    flags = { zf = false; sf = false; cf = false; of_ = false };
    fs_base = 0L;
    insn_tax = 0;
    call_tax = 0;
    pac_key = 0L;
    rng = Util.Prng.create seed;
    tcache = Tcache.create ();
  }

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let get t r = get64u t.gprs (Isa.Reg.index r lsl 3)
let set t r v = set64u t.gprs (Isa.Reg.index r lsl 3) v

let get_xmm t x = t.xmms.(Isa.Reg.Xmm.index x)
let set_xmm t x v = t.xmms.(Isa.Reg.Xmm.index x) <- v

let clone t =
  {
    gprs = Bytes.copy t.gprs;
    xmms = Array.copy t.xmms;
    flags =
      { zf = t.flags.zf; sf = t.flags.sf; cf = t.flags.cf; of_ = t.flags.of_ };
    fs_base = t.fs_base;
    insn_tax = t.insn_tax;
    call_tax = t.call_tax;
    (* fork children inherit the key: frames signed by the parent must
       still authenticate when the child returns through them *)
    pac_key = t.pac_key;
    rng = Util.Prng.split t.rng;
    (* the child's text is byte-identical at fork time and never
       changes, so it keeps the family's table *)
    tcache = Tcache.clone t.tcache;
  }

let snapshot t =
  {
    gprs = Bytes.copy t.gprs;
    xmms = Array.copy t.xmms;
    flags =
      { zf = t.flags.zf; sf = t.flags.sf; cf = t.flags.cf; of_ = t.flags.of_ };
    fs_base = t.fs_base;
    insn_tax = t.insn_tax;
    call_tax = t.call_tax;
    pac_key = t.pac_key;
    (* exact RNG state, unlike [clone]: a resumed snapshot must replay
       the same rdrand stream a cold spawn of the same seed would *)
    rng = Util.Prng.copy t.rng;
    tcache = Tcache.clone t.tcache;
  }

let rip t = get64u t.gprs rip_offset
let set_rip t v = set64u t.gprs rip_offset v
let cycles t = get64u t.gprs cycles_offset
let add_cycles t n = set64u t.gprs cycles_offset (Int64.add (cycles t) (Int64.of_int n))

(* ---- pointer-authentication MAC (the [pac]/[aut] instructions) ----

   A 16-bit tag over the value's low 48 bits and a modifier (the frame
   address), keyed by the per-process [pac_key] — a SplitMix64-style
   finalizer stands in for QARMA: deterministic, cheap, and it mixes
   every input bit into the tag. Signed values carry the tag in their
   high 16 bits, like real PAC in an address space with unused VA
   top bits. *)

let pac_low48_mask = 0x0000_FFFF_FFFF_FFFFL

let pac_mix x =
  let open Int64 in
  let x = mul (logxor x (shift_right_logical x 33)) 0xFF51AFD7ED558CCDL in
  let x = mul (logxor x (shift_right_logical x 33)) 0xC4CEB9FE1A85EC53L in
  logxor x (shift_right_logical x 33)

let pac_tag t ~value ~modifier =
  let low = Int64.logand value pac_low48_mask in
  let h = pac_mix (Int64.logxor (pac_mix (Int64.logxor t.pac_key low)) modifier) in
  Int64.to_int (Int64.logand h 0xFFFFL)

let pac_sign t ~value ~modifier =
  let tag = pac_tag t ~value ~modifier in
  Int64.logor
    (Int64.logand value pac_low48_mask)
    (Int64.shift_left (Int64.of_int tag) 48)

let pac_auth t ~value ~modifier =
  let tag = Int64.to_int (Int64.shift_right_logical value 48) land 0xFFFF in
  tag = pac_tag t ~value ~modifier

let pac_strip value = Int64.logand value pac_low48_mask
