(** Deterministic x86-64 subset simulator.

    Executes flattened {!Ferrum_asm.Prog.t} programs over an
    architectural state — 16 GPRs, 16 SIMD registers of 8 64-bit lanes
    (ZMM width), the ZF/SF/CF/OF flags, and byte-addressable
    little-endian memory with the stack at the top.  SIMD writes follow
    the VEX rule on an AVX-512 host: a VEX.128 or VEX.256 write zeroes
    the destination's lanes above its width, up to lane 7.  Outcomes follow the
    fault-injection literature's classification; a per-step observer
    exposes each retired instruction so the injector can flip bits at
    write-back. *)

open Ferrum_asm

type outcome =
  | Exit of int64 list  (** normal exit; the observable output, in order *)
  | Detected  (** control reached [exit_function] or [__ferrum_detect] *)
  | Crash of string  (** memory trap, divide error, wild control transfer *)
  | Timeout  (** fuel exhausted *)

(** Equality up to crash messages. *)
val equal_outcome : outcome -> outcome -> bool

val pp_outcome : Format.formatter -> outcome -> unit

(** Pre-resolved control-flow target of an instruction (see
    {!Ferrum_asm.Prog.flatten}). *)
type link = Prog.link =
  | L_none
  | L_target of int
  | L_call of int
  | L_detect
  | L_print

(** A loaded program: flattened code with resolved branches, per-index
    costs under the chosen model, and per-index injectable
    destinations. *)
type image = {
  code : Instr.ins array;
  links : link array;
  costs : float array;
  dests : Instr.dest list array;
  entry_ip : int;
  halt_ip : int;  (** sentinel return address of the entry function *)
  mem_size : int;
}

exception Trap of string

exception Halt of outcome

(** Validate, flatten ({!Ferrum_asm.Prog.flatten}) and link a program;
    an unresolved jump or call target raises {!Ferrum_asm.Prog.Ill_formed}.
    Default memory size is 1 MiB; the stack starts at its top, global
    data sits near the bottom (see {!Ferrum_backend.Backend.global_base}). *)
val load : ?cost_model:Cost.model -> ?mem_size:int -> Prog.t -> image

(** {1 Dirty-page tracking}

    Memory is divided into [page_size]-byte pages; when tracking is
    attached to a state, every store the machine executes logs the pages
    it touches.  {!Snapshot} uses the log to capture per-checkpoint
    memory deltas and to undo a run's writes incrementally instead of
    re-blitting the whole image. *)

val page_bits : int

(** [1 lsl page_bits] = 4096. *)
val page_size : int

(** Dirty-page log: a byte-per-page bitmap plus the list of dirty page
    numbers in first-touch order ([tr_pages.(0 .. tr_count-1)]). *)
type track = {
  tr_bits : Bytes.t;
  tr_pages : int array;
  mutable tr_count : int;
}

(** Register files are int64 bigarrays: element access compiles to
    unboxed loads and stores (no per-write allocation, no GC write
    barrier), which is what lets {!Predecode}'s specialized thunks run
    allocation-free.  Index with [r.{i}]. *)
type regfile = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t

(** Fresh zero-filled register file of [n] slots. *)
val make_regfile : int -> regfile

val copy_regfile : regfile -> regfile

(** [blit_regfile src dst] copies [src] over [dst] (equal dims). *)
val blit_regfile : regfile -> regfile -> unit

(** Plain-array snapshot, for tests and display code. *)
val dump_regfile : regfile -> int64 array

(** Architectural state.  [simd] is indexed [reg * 8 + lane]. *)
type state = {
  gpr : regfile;
  simd : regfile;
  mutable zf : bool;
  mutable sf : bool;
  mutable cf : bool;
  mutable off : bool;
  mem : Bytes.t;
  mutable ip : int;
  mutable cycles : float;
  mutable steps : int;
  mutable out_rev : int64 list;
  mutable track : track option;
}

(** Zeroed registers and memory, stack pointer initialised, the halt
    sentinel pushed.  Tracking is off ([track = None]). *)
val fresh_state : image -> state

(** Attach a dirty-page log to [state] (idempotent).  The pre-existing
    memory contents are considered clean. *)
val track_writes : state -> unit

(** Mark every tracked page clean.  No-op without tracking. *)
val clear_dirty : state -> unit

(** Record page [p] as dirty in a log (dedupes via the bitmap). *)
val mark_page : track -> int -> unit

(** Copy registers, flags, ip, cycles, steps and output — everything
    except memory — from [from] into the destination state. *)
val reset_regs : from:state -> state -> unit

(** Reset a pooled state to [pristine] (a never-executed
    {!fresh_state} of the same image) by blitting registers and the
    whole memory image; clears the dirty log.  Replaces per-run
    [fresh_state] allocation in sample loops. *)
val reset_state : pristine:state -> state -> unit

(** The output collected so far, oldest first. *)
val output : state -> int64 list

(** {1 Fault-injection mutators}

    Flip one bit of an architectural destination; used by
    {!Ferrum_faultsim} right after the targeted write-back. *)

val flip_gpr : state -> Reg.gpr -> Reg.size -> bit:int -> unit
val flip_simd_lane : state -> Reg.simd -> lane:int -> bit:int -> unit
val flip_flag : state -> Cond.flag -> unit

(** {1 Execution} *)

(** Resolve a memory operand's address against the current register
    file (used by the propagation tracer to locate store targets). *)
val effective_address : state -> Instr.mem -> int64

(** Raise {!Trap} with a formatted message. *)
val trap : ('a, Format.formatter, unit, 'b) format4 -> 'a

(** [check_addr st addr bytes] validates an access of [bytes] bytes at
    [addr] and returns it as an int offset, trapping with the machine's
    message on an out-of-range access. *)
val check_addr : state -> int64 -> int -> int

(** Mark the page(s) of an [n]-byte write at offset [a] dirty when a
    log is attached (inlined stores call this after their own bounds
    check). *)
val mark_dirty : state -> int -> int -> unit

(** [lower img ip] is the semantics of the instruction at static index
    [ip]: a closure over its decode-time-resolved operands, link and the
    halt sentinel.  It does not do the step accounting — the caller adds
    the cost to the cycle count, bumps [steps] and sets [ip] to [ip + 1]
    first, as {!step} does.  Raises {!Halt} when the program ends and
    {!Trap} on a machine fault.  This is the only definition of each
    opcode; {!Predecode} uses it for every index it has no specialized
    arm for. *)
val lower : image -> int -> state -> unit

(** Decode-time lowering of a condition code to a flag predicate. *)
val lower_cond : Cond.t -> state -> bool

(** Execute exactly one instruction (lowering it with {!lower}) and
    return the static index of the instruction that retired.  Raises {!Halt} when the program ends and
    {!Trap} on a machine fault; callers driving a lockstep re-execution
    (e.g. {!Ferrum_telemetry.Propagation}) must handle both.  Does not
    check that [state.ip] is within the code array — {!run} does that
    before each step. *)
val step : image -> state -> int

val default_fuel : int

(** Run to halt, trap or fuel exhaustion over the image's {!lower}ed
    bodies (lowered once per call).  [on_step] receives the state
    and the static index of the instruction that just retired (its
    destinations are in [image.dests]); mutations it performs are
    visible to the next step.  Every retired instruction is observed,
    including the one that halts the machine. *)
val run : ?fuel:int -> ?on_step:(state -> int -> unit) -> image -> state -> outcome

(** Run from a fresh state; returns the outcome and the final state. *)
val run_fresh :
  ?fuel:int -> ?on_step:(state -> int -> unit) -> image -> outcome * state

(** Fault-free execution summary used by campaigns and benches. *)
type golden = { outcome : outcome; dyn_instructions : int; cycles : float }

val golden : ?fuel:int -> image -> golden
