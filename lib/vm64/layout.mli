(** Canonical address-space layout for simulated processes.

    All addresses stay below 2^31 so that displacement-encoded absolute
    references always fit the ISA's 32-bit displacement fields. *)

val glibc_base : int64
(** Where the simulated C library's entry points live. *)

val glibc_slot_size : int
(** Each glibc entry point occupies one slot of this many bytes. *)

val text_base : int64
(** Program text. *)

val data_base : int64
(** Program globals / rodata. *)

val heap_base : int64
val heap_size : int

val stack_top : int64
(** Highest stack address + 8; rsp starts here and grows down. *)

val stack_size : int

val stack_guard_len : int
(** Unmapped guard region below the stack. *)

val tls_base : int64
(** FS segment base: [%fs:0] maps here. *)

val tls_size : int

val tls_canary_offset : int64
(** [%fs:0x28] — the classic glibc stack-guard slot holding C. *)

val tls_shadow_offset : int64
(** [%fs:0x2a8] — first qword (C0) of the P-SSP shadow canary. *)

val tls_shadow_offset_hi : int64
(** [%fs:0x2b0] — second qword (C1) of the P-SSP shadow canary. *)

val tls_dcr_head_offset : int64
(** [%fs:0x2b8] — DCR's pointer to the newest in-stack canary. *)

val tls_shadow_sp_offset : int64
(** [%fs:0x2c0] — the compact shadow stack's own stack pointer. Grows
    up from {!shadow_stack_base}, one qword per live return address. *)

val shadow_stack_base : int64
(** Base of the compact shadow-stack region (shadow-compact scheme).
    Mapped at spawn, cloned CoW by fork/snapshot like any region. *)

val shadow_stack_size : int

val shadow_parallel_delta : int64
(** Parallel shadow stacks mirror each return-address slot at
    [slot - shadow_parallel_delta]: a fixed offset below the stack, so
    the mirror region [stack - delta] never collides with other
    mappings and the displacement still fits the ISA's i32 fields. *)

val wasm_spill_size : int
(** Size of the writable region mapped immediately above {!stack_top}
    for wasm-ssp processes: out-of-frame writes land there silently
    instead of trapping, modelling linear-memory stores. *)

val dynaguard_buffer_base : int64
(** DynaGuard's canary-address buffer: word 0 is the live count,
    followed by the recorded canary addresses. *)

val dynaguard_buffer_size : int

val global_canary_buffer_base : int64
(** The §VII-C global buffer: word 0 is the live count, followed by the
    C1 halves matching the C0 halves on the stack. Cloned by fork along
    with the rest of the address space. *)

val global_canary_buffer_size : int

val address_limit : int64
(** End of the guest layout (128 MiB; the wasm spill region above
    {!stack_top} ends here). Every mapping lies below it: {!Memory}'s
    page table covers nothing higher. *)
