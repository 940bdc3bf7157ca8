(** Serialisation of executable images — a minimal ELF-like container so
    compiled (or rewritten) binaries can be written to disk and loaded
    back, e.g. by the [pssp compile] / [pssp exec] CLI commands.

    Format: magic ["PSSPEXE\x00"], a version word, then length-prefixed
    sections and the symbol table, all little-endian. *)

exception Format_error of string

val magic : string
val version : int

val write : Image.t -> bytes
val read : bytes -> Image.t
(** Raises {!Format_error} on anything malformed: bad magic, unknown
    version, truncation, inconsistent section lengths, or a section
    that [Kernel.spawn] would map at or above
    [Vm64.Layout.address_limit], the end of the guest layout. *)

val save : Image.t -> string -> unit
(** Write to a file path. *)

val load : string -> Image.t
(** Read from a file path. Raises {!Format_error} or [Sys_error]. *)
