(** Instruction AST for the x86-64 subset used throughout the project.

    Operand order follows AT&T syntax: source first, destination last.
    The subset covers what the backend emits for the mini-IR (moves,
    two-operand ALU, shifts, compares, setcc, control flow, push/pop,
    sign extension, division) plus the AVX/AVX-512 data-movement and
    comparison instructions FERRUM's batched checking uses (paper
    Figs. 4-7).  Every SIMD instruction is VEX- or EVEX-encoded; there is
    no legacy-SSE form, so emitted code never pays the SSE/AVX transition
    penalty.  A VEX.128 or VEX.256 write zeroes its destination's lanes
    above its width, up to lane 7 (MAXVL = 512). *)

(** A memory operand [disp(base, index, scale)]. *)
type mem = {
  base : Reg.gpr option;
  index : Reg.gpr option;
  scale : int;  (** 1, 2, 4 or 8 *)
  disp : int;
}

type operand = Imm of int64 | Reg of Reg.gpr | Mem of mem

type alu = Add | Sub | Imul | And | Or | Xor

type shift_kind = Shl | Sar | Shr

(** Shift amount: immediate, or the CL register. *)
type shift_amount = Amt_imm of int | Amt_cl

(** Source operand of [pinsrq]: a 64-bit register or memory location. *)
type pinsr_src = Psrc_reg of Reg.gpr | Psrc_mem of mem

type t =
  | Mov of Reg.size * operand * operand
  | Movslq of operand * Reg.gpr  (** sign-extend r/m32 into r64 *)
  | Movzbq of operand * Reg.gpr  (** zero-extend r/m8 into r64 *)
  | Lea of mem * Reg.gpr
  | Alu of alu * Reg.size * operand * operand  (** dst := dst op src *)
  | Shift of shift_kind * Reg.size * shift_amount * operand
  | Neg of Reg.size * operand
  | Not of Reg.size * operand
  | Cmp of Reg.size * operand * operand  (** flags := dst - src *)
  | Test of Reg.size * operand * operand  (** flags := dst AND src *)
  | Set of Cond.t * operand  (** byte destination *)
  | Jmp of string
  | Jcc of Cond.t * string
  | Call of string
  | Ret
  | Push of operand
  | Pop of Reg.gpr
  | Cqto  (** sign-extend RAX into RDX:RAX *)
  | Idiv of Reg.size * operand
      (** RDX:RAX / src -> quotient in RAX, remainder in RDX *)
  | MovQ_to_xmm of operand * Reg.simd
      (** [vmovq r/m64, %xmmN]; zeroes lanes 1..7 *)
  | MovQ_from_xmm of Reg.simd * Reg.gpr  (** [vmovq %xmmN, r64] *)
  | Pinsrq of int * pinsr_src * Reg.simd
      (** [vpinsrq $i, r/m64, %xmmN, %xmmN]: insert 64-bit lane 0 or 1,
          keep the other low lane, zero lanes 2..7 *)
  | Pextrq of int * Reg.simd * Reg.gpr  (** [vpextrq $i, %xmmN, r64] *)
  | Vinserti128 of int * Reg.simd * Reg.simd * Reg.simd
      (** [vinserti128 $i, %xmmS, %ymmA, %ymmD]; zeroes lanes 4..7 of D *)
  | Vpxor of Reg.simd * Reg.simd * Reg.simd
      (** [vpxor %ymmS1, %ymmS2, %ymmD]; zeroes lanes 4..7 of D *)
  | Vptest of Reg.simd * Reg.simd  (** ZF := (s2 AND s1) = 0 over 256 bits *)
  | Vinserti64x4 of int * Reg.simd * Reg.simd * Reg.simd
      (** [vinserti64x4 $i, %ymmS, %zmmA, %zmmD] (AVX-512, paper §III-B5) *)
  | Vpxorq512 of Reg.simd * Reg.simd * Reg.simd
      (** [vpxorq %zmmS1, %zmmS2, %zmmD] *)
  | Vptestmq512 of Reg.simd * Reg.simd
      (** [vptestmq %zmmS1, %zmmS2, %k1; kortestw %k1, %k1] as one
          instruction: ZF := (s2 AND s1) = 0 over 512 bits, CF = SF =
          OF := 0 ([%k1] is clobbered) *)

(** Where an instruction came from.  The fault-injection campaign
    samples only [Original] instructions by default; [Dup]/[Check]/
    [Instrumentation] mark protection code, which the cycle model also
    prices differently (superscalar overlap). *)
type provenance = Original | Dup | Check | Instrumentation

(** An instruction tagged with its provenance. *)
type ins = { op : t; prov : provenance }

val original : t -> ins
val dup : t -> ins
val check : t -> ins
val instrumentation : t -> ins

(** Build a memory operand; scale defaults to 1. *)
val mem : ?base:Reg.gpr -> ?index:Reg.gpr -> ?scale:int -> int -> mem

(** An architectural destination, as seen by the fault model: a fault
    flips one bit of one written destination at write-back. *)
type dest =
  | Dgpr of Reg.gpr * Reg.size  (** the written view of a GPR *)
  | Dsimd of Reg.simd * int list  (** written 64-bit lanes (0..7) *)
  | Dflags of Cond.flag list  (** the flags the instruction defines *)

(** All injectable destinations an instruction writes.  Memory and the
    return-address stack are ECC-protected per the paper's fault model
    and yield no destinations; so do pure control transfers. *)
val defs : t -> dest list

(** GPRs appearing in a memory operand (base and index). *)
val gprs_of_mem : mem -> Reg.gpr list

(** GPRs appearing in a [pinsrq] source. *)
val gprs_of_pinsr_src : pinsr_src -> Reg.gpr list

(** Every GPR the instruction mentions, explicitly or implicitly
    (FERRUM's spare-register discovery, paper §III-B1). *)
val gprs_mentioned : t -> Reg.gpr list

(** Every SIMD register the instruction mentions. *)
val simds_mentioned : t -> Reg.simd list

(** True when the instruction defines RFLAGS bits. *)
val writes_flags : t -> bool

(** True when the instruction's behaviour depends on RFLAGS. *)
val reads_flags : t -> bool

(** Labels this instruction can transfer control to. *)
val targets : t -> string list

(** Coarse instruction classes for the cycle model and statistics. *)
type klass =
  | K_alu
  | K_load
  | K_store
  | K_branch
  | K_call
  | K_simd
  | K_div
  | K_setcc

val klass_name : klass -> string
val is_mem_operand : operand -> bool
val klass : t -> klass

(** Bare mnemonic (no operands or size suffix); condition codes are
    kept, so [jne] and [je] profile separately. *)
val mnemonic : t -> string

(** True when control cannot fall through past this instruction. *)
val is_barrier : t -> bool
