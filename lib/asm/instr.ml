(* Instruction AST for the x86-64 subset used throughout the project.
   Operand order follows AT&T syntax: the source comes first, the
   destination last. *)

type mem = {
  base : Reg.gpr option;
  index : Reg.gpr option;
  scale : int; (* 1, 2, 4 or 8 *)
  disp : int;
}

type operand = Imm of int64 | Reg of Reg.gpr | Mem of mem

type alu = Add | Sub | Imul | And | Or | Xor

type shift_kind = Shl | Sar | Shr

type shift_amount = Amt_imm of int | Amt_cl

(* Source operand of [pinsrq]: a 64-bit register or memory location. *)
type pinsr_src = Psrc_reg of Reg.gpr | Psrc_mem of mem

type t =
  | Mov of Reg.size * operand * operand
  | Movslq of operand * Reg.gpr (* sign-extend r/m32 into r64 *)
  | Movzbq of operand * Reg.gpr (* zero-extend r/m8 into r64 *)
  | Lea of mem * Reg.gpr
  | Alu of alu * Reg.size * operand * operand (* dst := dst op src *)
  | Shift of shift_kind * Reg.size * shift_amount * operand
  | Neg of Reg.size * operand
  | Not of Reg.size * operand
  | Cmp of Reg.size * operand * operand (* flags := dst - src *)
  | Test of Reg.size * operand * operand (* flags := dst AND src *)
  | Set of Cond.t * operand (* byte destination *)
  | Jmp of string
  | Jcc of Cond.t * string
  | Call of string
  | Ret
  | Push of operand
  | Pop of Reg.gpr
  | Cqto (* sign-extend RAX into RDX:RAX *)
  | Idiv of Reg.size * operand (* RDX:RAX / src -> RAX quot, RDX rem *)
  (* SIMD subset used by FERRUM's batched checking (paper Fig. 6), all
     VEX-encoded: a VEX.128/VEX.256 write zeroes the destination above
     its width, up to lane 7. *)
  | MovQ_to_xmm of operand * Reg.simd (* vmovq r/m64, %xmmN (zero-extends) *)
  | MovQ_from_xmm of Reg.simd * Reg.gpr (* vmovq %xmmN, r64 *)
  | Pinsrq of int * pinsr_src * Reg.simd
    (* vpinsrq $i, r/m64, %xmmN, %xmmN; lane 0 or 1 *)
  | Pextrq of int * Reg.simd * Reg.gpr
  | Vinserti128 of int * Reg.simd * Reg.simd * Reg.simd
    (* vinserti128 $i, %xmmS, %ymmA, %ymmD *)
  | Vpxor of Reg.simd * Reg.simd * Reg.simd (* %ymmS1, %ymmS2, %ymmD *)
  | Vptest of Reg.simd * Reg.simd (* ZF := (s2 AND s1) = 0 *)
  (* AVX-512 subset for the ZMM variant of batched checking (paper
     §III-B5 names ZMM registers as the natural extension).  [Vptestmq]
     models the vptestmq+kortestw pair as one flag-setting test. *)
  | Vinserti64x4 of int * Reg.simd * Reg.simd * Reg.simd
    (* vinserti64x4 $i, %ymmS, %zmmA, %zmmD *)
  | Vpxorq512 of Reg.simd * Reg.simd * Reg.simd (* %zmmS1, %zmmS2, %zmmD *)
  | Vptestmq512 of Reg.simd * Reg.simd (* ZF := (s2 AND s1) = 0 over 512b *)

(* Where an instruction came from; the fault-injection campaign samples
   only [Original] instructions by default (DESIGN.md, E8 studies the
   all-sites variant). *)
type provenance = Original | Dup | Check | Instrumentation

type ins = { op : t; prov : provenance }

let original op = { op; prov = Original }
let dup op = { op; prov = Dup }
let check op = { op; prov = Check }
let instrumentation op = { op; prov = Instrumentation }

let mem ?base ?index ?(scale = 1) disp = { base; index; scale; disp }

(* ------------------------------------------------------------------ *)
(* Destinations written by an instruction, as seen by the fault model: *)
(* a fault flips one bit of one written destination at write-back.     *)
(* ------------------------------------------------------------------ *)

type dest =
  | Dgpr of Reg.gpr * Reg.size (* the written view of a GPR *)
  | Dsimd of Reg.simd * int list (* written 64-bit lanes (0..7) *)
  | Dflags of Cond.flag list

let flags_arith = [ Cond.ZF; Cond.SF; Cond.CF; Cond.OF ]
let flags_logic = [ Cond.ZF; Cond.SF ] (* CF/OF forced to 0; flipping them
                                          is modelled via ZF/SF only *)

let dest_of_operand size = function
  | Reg r -> [ Dgpr (r, size) ]
  | Mem _ -> [] (* memory is ECC-protected in the fault model *)
  | Imm _ -> []

(* All architectural destinations an instruction writes.  [Ret], [Jmp],
   [Call] and stores write no injectable destination: memory and the
   return-address stack are covered by ECC per the paper's fault model.
   RSP updates from push/pop/call/ret are excluded for the same reason
   the paper excludes them (they virtually always crash, see DESIGN.md). *)
let defs = function
  | Mov (s, _, dst) -> dest_of_operand s dst
  | Movslq (_, r) | Movzbq (_, r) -> [ Dgpr (r, Reg.Q) ]
  | Lea (_, r) -> [ Dgpr (r, Reg.Q) ]
  | Alu (op, s, _, dst) ->
    let f = match op with And | Or | Xor -> flags_logic | _ -> flags_arith in
    dest_of_operand s dst @ [ Dflags f ]
  | Shift (_, s, _, dst) -> dest_of_operand s dst @ [ Dflags flags_logic ]
  | Neg (s, dst) -> dest_of_operand s dst @ [ Dflags flags_arith ]
  | Not (s, dst) -> dest_of_operand s dst
  | Cmp _ -> [ Dflags flags_arith ]
  | Test _ -> [ Dflags flags_logic ]
  | Set (_, dst) -> dest_of_operand Reg.B dst
  | Jmp _ | Jcc _ | Call _ | Ret | Push _ -> []
  | Pop r -> [ Dgpr (r, Reg.Q) ]
  | Cqto -> [ Dgpr (Reg.RDX, Reg.Q) ]
  | Idiv _ -> [ Dgpr (Reg.RAX, Reg.Q); Dgpr (Reg.RDX, Reg.Q) ]
  | MovQ_to_xmm (_, x) -> [ Dsimd (x, [ 0; 1 ]) ]
  | MovQ_from_xmm (_, r) -> [ Dgpr (r, Reg.Q) ]
  | Pinsrq (lane, _, x) -> [ Dsimd (x, [ lane ]) ]
  | Pextrq (_, _, r) -> [ Dgpr (r, Reg.Q) ]
  | Vinserti128 (_, _, _, d) -> [ Dsimd (d, [ 0; 1; 2; 3 ]) ]
  | Vpxor (_, _, d) -> [ Dsimd (d, [ 0; 1; 2; 3 ]) ]
  | Vptest _ -> [ Dflags [ Cond.ZF; Cond.CF ] ]
  | Vinserti64x4 (_, _, _, d) -> [ Dsimd (d, [ 0; 1; 2; 3; 4; 5; 6; 7 ]) ]
  | Vpxorq512 (_, _, d) -> [ Dsimd (d, [ 0; 1; 2; 3; 4; 5; 6; 7 ]) ]
  | Vptestmq512 _ -> [ Dflags [ Cond.ZF; Cond.CF ] ]

(* ------------------------------------------------------------------ *)
(* Register usage, for FERRUM's spare-register discovery.              *)
(* ------------------------------------------------------------------ *)

let gprs_of_mem m =
  (match m.base with Some r -> [ r ] | None -> [])
  @ (match m.index with Some r -> [ r ] | None -> [])

let gprs_of_operand = function
  | Imm _ -> []
  | Reg r -> [ r ]
  | Mem m -> gprs_of_mem m

let gprs_of_pinsr_src = function
  | Psrc_reg r -> [ r ]
  | Psrc_mem m -> gprs_of_mem m

(* Every GPR an instruction mentions, explicitly or implicitly. *)
let gprs_mentioned = function
  | Mov (_, a, b) | Alu (_, _, a, b) | Cmp (_, a, b) | Test (_, a, b) ->
    gprs_of_operand a @ gprs_of_operand b
  | Movslq (a, r) | Movzbq (a, r) -> gprs_of_operand a @ [ r ]
  | Lea (m, r) -> gprs_of_mem m @ [ r ]
  | Shift (_, _, amt, dst) ->
    (match amt with Amt_cl -> [ Reg.RCX ] | Amt_imm _ -> [])
    @ gprs_of_operand dst
  | Neg (_, o) | Not (_, o) | Set (_, o) -> gprs_of_operand o
  | Jmp _ | Jcc _ | Ret -> []
  | Call _ -> [] (* calling convention handled at function granularity *)
  | Push o -> Reg.RSP :: gprs_of_operand o
  | Pop r -> [ Reg.RSP; r ]
  | Cqto -> [ Reg.RAX; Reg.RDX ]
  | Idiv (_, o) -> [ Reg.RAX; Reg.RDX ] @ gprs_of_operand o
  | MovQ_to_xmm (o, _) -> gprs_of_operand o
  | MovQ_from_xmm (_, r) -> [ r ]
  | Pinsrq (_, s, _) -> gprs_of_pinsr_src s
  | Pextrq (_, _, r) -> [ r ]
  | Vinserti128 _ | Vpxor _ | Vptest _
  | Vinserti64x4 _ | Vpxorq512 _ | Vptestmq512 _ -> []

(* Every SIMD register an instruction mentions. *)
let simds_mentioned = function
  | MovQ_to_xmm (_, x) | MovQ_from_xmm (x, _) | Pinsrq (_, _, x)
  | Pextrq (_, x, _) -> [ x ]
  | Vinserti128 (_, s, a, d) | Vinserti64x4 (_, s, a, d) -> [ s; a; d ]
  | Vpxor (a, b, d) | Vpxorq512 (a, b, d) -> [ a; b; d ]
  | Vptest (a, b) | Vptestmq512 (a, b) -> [ a; b ]
  | Mov _ | Movslq _ | Movzbq _ | Lea _ | Alu _ | Shift _ | Neg _ | Not _
  | Cmp _ | Test _ | Set _ | Jmp _ | Jcc _ | Call _ | Ret | Push _ | Pop _
  | Cqto | Idiv _ -> []

(* True when the instruction writes RFLAGS bits. *)
let writes_flags i =
  List.exists (function Dflags _ -> true | _ -> false) (defs i)

(* True when the instruction reads RFLAGS (conditional behaviour). *)
let reads_flags = function
  | Jcc _ | Set _ -> true
  | _ -> false

(* Jump targets referenced by the instruction, used by the flattener. *)
let targets = function
  | Jmp l | Jcc (_, l) -> [ l ]
  | _ -> []

(* Coarse classes used by the cycle-cost model and static statistics. *)
type klass =
  | K_alu (* register/immediate arithmetic and moves *)
  | K_load (* memory read *)
  | K_store (* memory write *)
  | K_branch (* jmp/jcc *)
  | K_call (* call/ret/push/pop *)
  | K_simd (* SIMD data movement / logic *)
  | K_div (* idiv/cqto *)
  | K_setcc

let klass_name = function
  | K_alu -> "alu"
  | K_load -> "load"
  | K_store -> "store"
  | K_branch -> "branch"
  | K_call -> "call"
  | K_simd -> "simd"
  | K_div -> "div"
  | K_setcc -> "setcc"

let is_mem_operand = function Mem _ -> true | _ -> false

let klass = function
  | Mov (_, src, dst) ->
    if is_mem_operand dst then K_store
    else if is_mem_operand src then K_load
    else K_alu
  | Movslq (src, _) | Movzbq (src, _) ->
    if is_mem_operand src then K_load else K_alu
  | Lea _ -> K_alu
  | Alu (_, _, src, dst) ->
    if is_mem_operand dst then K_store
    else if is_mem_operand src then K_load
    else K_alu
  | Shift _ | Neg _ | Not _ -> K_alu
  | Cmp (_, src, dst) | Test (_, src, dst) ->
    if is_mem_operand src || is_mem_operand dst then K_load else K_alu
  | Set _ -> K_setcc
  | Jmp _ | Jcc _ -> K_branch
  | Call _ | Ret | Push _ | Pop _ -> K_call
  | Cqto | Idiv _ -> K_div
  | MovQ_to_xmm (o, _) -> if is_mem_operand o then K_load else K_simd
  | MovQ_from_xmm _ | Pextrq _ -> K_simd
  | Pinsrq (_, Psrc_mem _, _) -> K_load
  | Pinsrq (_, Psrc_reg _, _) -> K_simd
  | Vinserti128 _ | Vpxor _ | Vptest _
  | Vinserti64x4 _ | Vpxorq512 _ | Vptestmq512 _ -> K_simd

(* Bare mnemonic (no operands, no size suffix), the aggregation key of
   per-opcode profiles.  Condition codes are kept — [jne] and [je] have
   different prediction/protection behaviour worth seeing separately. *)
let mnemonic = function
  | Mov _ -> "mov"
  | Movslq _ -> "movslq"
  | Movzbq _ -> "movzbq"
  | Lea _ -> "lea"
  | Alu (Add, _, _, _) -> "add"
  | Alu (Sub, _, _, _) -> "sub"
  | Alu (Imul, _, _, _) -> "imul"
  | Alu (And, _, _, _) -> "and"
  | Alu (Or, _, _, _) -> "or"
  | Alu (Xor, _, _, _) -> "xor"
  | Shift (Shl, _, _, _) -> "shl"
  | Shift (Sar, _, _, _) -> "sar"
  | Shift (Shr, _, _, _) -> "shr"
  | Neg _ -> "neg"
  | Not _ -> "not"
  | Cmp _ -> "cmp"
  | Test _ -> "test"
  | Set (c, _) -> "set" ^ Cond.name c
  | Jmp _ -> "jmp"
  | Jcc (c, _) -> "j" ^ Cond.name c
  | Call _ -> "call"
  | Ret -> "ret"
  | Push _ -> "push"
  | Pop _ -> "pop"
  | Cqto -> "cqto"
  | Idiv _ -> "idiv"
  | MovQ_to_xmm _ | MovQ_from_xmm _ -> "vmovq"
  | Pinsrq _ -> "vpinsrq"
  | Pextrq _ -> "vpextrq"
  | Vinserti128 _ -> "vinserti128"
  | Vpxor _ -> "vpxor"
  | Vptest _ -> "vptest"
  | Vinserti64x4 _ -> "vinserti64x4"
  | Vpxorq512 _ -> "vpxorq"
  | Vptestmq512 _ -> "vptestmq"

(* True when control cannot fall through past this instruction. *)
let is_barrier = function Jmp _ | Ret -> true | _ -> false
