(* Pre-decoded threaded dispatch.

   This module lowers an {!Machine.image} once into a flat array of
   closures — one thunk per static index, each doing the exact
   accounting preamble ([cycles]/[steps]/[ip]) followed by the
   instruction's body — and drives them from three loops:

   - {!exec}: the unobserved fast path (golden walks, checkpoint suffix
     replays, untraced campaign samples).  No observer branch, no operand
     matching, and the hottest static pairs run as fused
     superinstructions.
   - {!exec_observed}: the observed path.  Identical semantics to
     [Machine.run ~on_step] — per-step fault injection, flight recorder,
     propagation lockstep and {!Snapshot} dirty-page tracking all see the
     exact retirement stream, so fusion is bypassed here.
   - {!step1}: a single pre-decoded step, for loops that need to stop at
     exact step or site boundaries (checkpoint capture walks, prefix
     replays to the injection site).

   Bodies come from one of two places.  The generic body of every
   opcode is {!Machine.lower}, the machine's own and only definition of
   its semantics.  On top of it sit specialized arms ({!fast_thunk})
   and one flat superinstruction body ({!fuse_pair}), kept only for the
   shapes the protected catalogue actually selects: each inlines the
   accounting, operand dataflow and flag predicates of its shape so a
   retired instruction is one allocation-free closure call.  A shape no
   catalogue program selects has no arm; it runs the generic body.

   Two representation choices keep the specialized thunks
   allocation-free:

   - Register files are int64 bigarrays ({!Machine.regfile}), so register
     reads and writes compile to unboxed loads/stores with no GC write
     barrier.  Inside a single thunk body the whole dataflow — operand
     loads, ALU, flag predicates, the store — stays in machine registers;
     int64 comparisons ([=], [<], [Int64.equal], [Int64.compare]) are
     specialized by the compiler and never box.
   - Cycles accumulate into an unboxed one-field float record owned by
     the decoded program ([t.cyc]) rather than the boxed
     [state.cycles] field; every entry point seeds it from [state.cycles]
     and writes it back on exit (and around every observer call), so the
     architectural field holds the bit-identical float sum whenever
     anyone can look.

   Superinstruction fusion is a pure dispatch optimization: a fused thunk
   at index [i] executes instructions [i] and [i+1] with per-instruction
   accounting and a fuel check between the two, so steps, cycles, traps
   and timeouts land bit-identically to single-step execution.  Because
   dispatch stays per-index, control entering the middle of a pair (a
   corrupted return, a jump) simply runs the standalone thunk at [i+1].
   A decode-time pattern table picks the pairs; fusion is bypassed when
   the second element is a join point (jump target, callee entry, the
   instruction after a call, the program entry) or a caller-supplied
   [avoid] site (the injector passes its eligible-site mask so a prefix
   stop never lands mid-pair).  The engine identity suites check every
   entry point against the reference stepper in [test/]. *)

open Ferrum_asm

(* Unboxed register-file access: these compile to direct loads/stores on
   the bigarray data pointer.  Indices are decode-time constants in
   [0, 15] (GPR) or [0, 127] (SIMD lanes), so the unchecked variants are
   safe. *)
external bget : Machine.regfile -> int -> int64 = "%caml_ba_unsafe_ref_1"

external bset : Machine.regfile -> int -> int64 -> unit
  = "%caml_ba_unsafe_set_1"

(* Unchecked byte loads/stores, used only after an inline replica of
   [Machine.check_addr] has validated the access (the checked/unchecked
   variants agree on every address the check admits).  Native-endian:
   the specialized memory arms are built only on little-endian hosts
   (x86 order); big-endian hosts fall back to the generic bodies of
   [Machine.lower]. *)
external b_get64u : bytes -> int -> int64 = "%caml_bytes_get64u"

external b_set64u : bytes -> int -> int64 -> unit = "%caml_bytes_set64u"

let little_endian = not Sys.big_endian

(* Unboxed cycle accumulator: a record whose fields are all [float] is
   stored flat, so [cyc.fv <- cyc.fv +. cost] neither allocates nor
   takes the write barrier (unlike the boxed [state.cycles] field of the
   mixed-field [Machine.state]). *)
type facc = { mutable fv : float }

type t = {
  img : Machine.image;
  thunks : (Machine.state -> unit) array; (* standalone, one per index *)
  fused : (Machine.state -> unit) array; (* pair thunk at fused starts *)
  fused_name : string array; (* pattern name at fused starts, else "" *)
  n_fused : int; (* number of fused pair starts *)
  pattern_counts : (string * int) list; (* per-pattern static pair count *)
  fuel : int ref; (* fuel bound of the current {!exec} run *)
  cyc : facc; (* cycle accumulator the thunks write *)
}

(* Raised by a fused thunk when fuel runs out between its two halves. *)
exception Fuel

(* ------------------------------------------------------------------ *)
(* Process-wide dispatch counters (per worker after a fork).           *)
(* ------------------------------------------------------------------ *)

type counters = {
  mutable c_decodes : int;
  mutable c_fast_steps : int; (* steps retired by {!exec} *)
  mutable c_fused_steps : int; (* subset retired as fused pairs *)
}

let ctr = { c_decodes = 0; c_fast_steps = 0; c_fused_steps = 0 }

let reset_counters () =
  ctr.c_decodes <- 0;
  ctr.c_fast_steps <- 0;
  ctr.c_fused_steps <- 0

let decodes () = ctr.c_decodes

let fast_steps () = ctr.c_fast_steps

let fused_steps () = ctr.c_fused_steps

(* ------------------------------------------------------------------ *)
(* Thunk construction.                                                 *)
(* ------------------------------------------------------------------ *)

(* Decode-time encoding of an effective address as plain scalars, for
   the specialized arms: base/index register slots ([-1] = absent), the
   scale and displacement as int64.  The arms expand the same
   base + index*scale + disp sum inline, so the address never crosses a
   closure boundary (crossing would box it). *)
let addr_parts (m : Instr.mem) =
  ( (match m.Instr.base with Some b -> Reg.gpr_index b | None -> -1),
    (match m.Instr.index with Some x -> Reg.gpr_index x | None -> -1),
    Int64.of_int m.Instr.scale,
    Int64.of_int m.Instr.disp )

(* The accounting every thunk starts with, as in [Machine.step]: the
   instruction's cost, the step count, the fall-through [ip]. *)
let[@inline] account cyc (st : Machine.state) cost next =
  cyc.fv <- cyc.fv +. cost;
  st.Machine.steps <- st.Machine.steps + 1;
  st.Machine.ip <- next

(* Offset of the 8-byte access at an {!addr_parts} address, bounds
   checked and trapping exactly like [Machine.check_addr].  Inlined into
   each memory arm, so the address never leaves machine registers. *)
let[@inline] checked8 (st : Machine.state) g bi xi sc disp =
  let addr =
    Int64.add
      (Int64.add
         (if bi >= 0 then bget g bi else 0L)
         (if xi >= 0 then Int64.mul (bget g xi) sc else 0L))
      disp
  in
  let ml = Bytes.length st.Machine.mem in
  let a = Int64.to_int addr in
  if addr < 0L || addr >= Int64.of_int ml || a + 8 > ml || a < 0 then
    Machine.trap "memory access at 0x%Lx" addr;
  a

(* The [Reg.Q] flag rules of [Machine.lower] for subtract/compare and
   for logic ops (and shifts, multiply): masking with [-1L] dropped,
   the sign bit a plain sign compare, and [Int64.unsigned_compare a b
   < 0] rewritten as the sign-flipped signed compare below (the stdlib
   function is not specialized by the compiler; the rewrite is). *)
let[@inline] sub_flags (st : Machine.state) a b res =
  st.Machine.zf <- Int64.equal res 0L;
  st.Machine.sf <- res < 0L;
  st.Machine.cf <- Int64.logxor a Int64.min_int < Int64.logxor b Int64.min_int;
  st.Machine.off <- a < 0L <> (b < 0L) && res < 0L <> (a < 0L)

let[@inline] logic_flags (st : Machine.state) res =
  st.Machine.zf <- Int64.equal res 0L;
  st.Machine.sf <- res < 0L;
  st.Machine.cf <- false;
  st.Machine.off <- false

(* VEX upper-lane zeroing of the register whose lane 0 is at [x8],
   unrolled: a VEX.256 write clears lanes 4..7, a VEX.128 write lanes
   2..7 (and [vmovq] lane 1 too). *)
let[@inline] zero_4_7 s x8 =
  bset s (x8 + 4) 0L;
  bset s (x8 + 5) 0L;
  bset s (x8 + 6) 0L;
  bset s (x8 + 7) 0L

let[@inline] zero_2_7 s x8 =
  bset s (x8 + 2) 0L;
  bset s (x8 + 3) 0L;
  zero_4_7 s x8

let[@inline] zero_1_7 s x8 =
  bset s (x8 + 1) 0L;
  zero_2_7 s x8

(* The 256-bit duplicate/check pair, shared by their arms and the
   flattened pair body (inlined into each).  [vpxor4] reads then
   writes lane by lane, in lane order, like [Machine.lower] (visible
   when the destination aliases a source), then zeroes lanes 4..7;
   [vptest4] sets ZF/CF from the and/and-not accumulations over the
   four lanes. *)
let[@inline] vpxor4 s a8 b8 d8 =
  bset s d8 (Int64.logxor (bget s a8) (bget s b8));
  bset s (d8 + 1) (Int64.logxor (bget s (a8 + 1)) (bget s (b8 + 1)));
  bset s (d8 + 2) (Int64.logxor (bget s (a8 + 2)) (bget s (b8 + 2)));
  bset s (d8 + 3) (Int64.logxor (bget s (a8 + 3)) (bget s (b8 + 3)));
  zero_4_7 s d8

let[@inline] vptest4 (st : Machine.state) a8 b8 =
  let s = st.Machine.simd in
  let a0 = bget s a8
  and a1 = bget s (a8 + 1)
  and a2 = bget s (a8 + 2)
  and a3 = bget s (a8 + 3) in
  let b0 = bget s b8
  and b1 = bget s (b8 + 1)
  and b2 = bget s (b8 + 2)
  and b3 = bget s (b8 + 3) in
  let and_acc =
    Int64.logor
      (Int64.logor (Int64.logand b0 a0) (Int64.logand b1 a1))
      (Int64.logor (Int64.logand b2 a2) (Int64.logand b3 a3))
  in
  let andn_acc =
    Int64.logor
      (Int64.logor
         (Int64.logand b0 (Int64.lognot a0))
         (Int64.logand b1 (Int64.lognot a1)))
      (Int64.logor
         (Int64.logand b2 (Int64.lognot a2))
         (Int64.logand b3 (Int64.lognot a3)))
  in
  st.Machine.zf <- Int64.equal and_acc 0L;
  st.Machine.cf <- Int64.equal andn_acc 0L;
  st.Machine.sf <- false;
  st.Machine.off <- false

(* Fully-specialized thunks for the shapes the protected catalogue
   selects: 64-bit moves and ALU (including memory operands, with the
   effective address and the bounds check expanded inline), the SIMD
   duplicate/check ops the protection transforms emit, resolved jumps,
   [lea], [set], immediate shifts.  Each arm inlines the accounting,
   its operand dataflow and its flag predicates (the [@inline] helpers
   above), so a retired instruction is one closure call with no
   allocation.  Everything else runs [Machine.lower]'s generic body.
   [None] means "no fast shape". *)
let fast_thunk cyc ~cost ~next (img : Machine.image) ip (op : Instr.t) :
    (Machine.state -> unit) option =
  match op with
  | Instr.Mov (Reg.Q, src, Instr.Reg d) -> (
    let di = Reg.gpr_index d in
    match src with
    | Instr.Imm v ->
      Some
        (fun st ->
          account cyc st cost next;
          bset st.Machine.gpr di v)
    | Instr.Reg r ->
      let ri = Reg.gpr_index r in
      Some
        (fun st ->
          account cyc st cost next;
          let g = st.Machine.gpr in
          bset g di (bget g ri))
    | Instr.Mem m ->
      if not little_endian then None
      else
        let bi, xi, sc, disp = addr_parts m in
        Some
          (fun st ->
            account cyc st cost next;
            let g = st.Machine.gpr in
            let a = checked8 st g bi xi sc disp in
            bset g di (b_get64u st.Machine.mem a)))
  | Instr.Mov (Reg.Q, Instr.Reg r, Instr.Mem m) ->
    if not little_endian then None
    else
      let bi, xi, sc, disp = addr_parts m in
      let ri = Reg.gpr_index r in
      Some
        (fun st ->
          account cyc st cost next;
          let g = st.Machine.gpr in
          let a = checked8 st g bi xi sc disp in
          Machine.mark_dirty st a 8;
          b_set64u st.Machine.mem a (bget g ri))
  | Instr.Lea (m, d) ->
    let di = Reg.gpr_index d in
    let bi, xi, sc, disp = addr_parts m in
    Some
      (fun st ->
        account cyc st cost next;
        let g = st.Machine.gpr in
        bset g di
          (Int64.add
             (Int64.add
                (if bi >= 0 then bget g bi else 0L)
                (if xi >= 0 then Int64.mul (bget g xi) sc else 0L))
             disp))
  | Instr.Alu (aop, Reg.Q, src, Instr.Reg d) -> (
    let di = Reg.gpr_index d in
    (* [si >= 0] selects the register source, else the immediate [iv];
       the branch is decode-constant per thunk, so it predicts
       perfectly and keeps one body per ALU op. *)
    match
      match src with
      | Instr.Imm i -> Some (-1, i)
      | Instr.Reg r -> Some (Reg.gpr_index r, 0L)
      | Instr.Mem _ -> None
    with
    | None -> None
    | Some (si, iv) -> (
      match aop with
      | Instr.Add ->
        Some
          (fun st ->
            account cyc st cost next;
            let g = st.Machine.gpr in
            let a = bget g di in
            let b = if si >= 0 then bget g si else iv in
            let res = Int64.add a b in
            st.Machine.zf <- Int64.equal res 0L;
            st.Machine.sf <- res < 0L;
            st.Machine.cf <-
              Int64.logxor res Int64.min_int < Int64.logxor a Int64.min_int
              || Int64.logxor res Int64.min_int < Int64.logxor b Int64.min_int;
            st.Machine.off <- a < 0L = (b < 0L) && res < 0L <> (a < 0L);
            bset g di res)
      | Instr.Sub ->
        Some
          (fun st ->
            account cyc st cost next;
            let g = st.Machine.gpr in
            let a = bget g di in
            let b = if si >= 0 then bget g si else iv in
            let res = Int64.sub a b in
            sub_flags st a b res;
            bset g di res)
      | Instr.Imul ->
        Some
          (fun st ->
            account cyc st cost next;
            let g = st.Machine.gpr in
            let a = bget g di in
            let b = if si >= 0 then bget g si else iv in
            let res = Int64.mul a b in
            logic_flags st res;
            bset g di res)
      | Instr.Xor ->
        Some
          (fun st ->
            account cyc st cost next;
            let g = st.Machine.gpr in
            let res =
              Int64.logxor (bget g di) (if si >= 0 then bget g si else iv)
            in
            logic_flags st res;
            bset g di res)
      | Instr.And | Instr.Or -> None))
  | Instr.Cmp (Reg.Q, src, Instr.Reg d) -> (
    let di = Reg.gpr_index d in
    match src with
    | Instr.Imm _ -> None
    | Instr.Reg r ->
      let ri = Reg.gpr_index r in
      Some
        (fun st ->
          account cyc st cost next;
          let g = st.Machine.gpr in
          let a = bget g di in
          let b = bget g ri in
          let res = Int64.sub a b in
          sub_flags st a b res)
    | Instr.Mem m ->
      if not little_endian then None
      else
        let bi, xi, sc, disp = addr_parts m in
        Some
          (fun st ->
            account cyc st cost next;
            let g = st.Machine.gpr in
            let a = bget g di in
            let ai = checked8 st g bi xi sc disp in
            let b = b_get64u st.Machine.mem ai in
            let res = Int64.sub a b in
            sub_flags st a b res))
  | Instr.Set (c, Instr.Reg d) ->
    let di = Reg.gpr_index d in
    let ev = Machine.lower_cond c in
    Some
      (fun st ->
        account cyc st cost next;
        let g = st.Machine.gpr in
        bset g di
          (Int64.logor
             (Int64.logand (bget g di) (Int64.lognot 0xFFL))
             (if ev st then 1L else 0L)))
  | Instr.Shift (k, Reg.Q, Instr.Amt_imm n, Instr.Reg d) -> (
    let di = Reg.gpr_index d in
    let n = n land 63 in
    match k with
    | Instr.Shl ->
      Some
        (fun st ->
          account cyc st cost next;
          let g = st.Machine.gpr in
          let res = Int64.shift_left (bget g di) n in
          logic_flags st res;
          bset g di res)
    | Instr.Sar ->
      Some
        (fun st ->
          account cyc st cost next;
          let g = st.Machine.gpr in
          let res = Int64.shift_right (bget g di) n in
          logic_flags st res;
          bset g di res)
    | Instr.Shr ->
      Some
        (fun st ->
          account cyc st cost next;
          let g = st.Machine.gpr in
          let res = Int64.shift_right_logical (bget g di) n in
          logic_flags st res;
          bset g di res))
  | Instr.Jmp _ -> (
    match img.Machine.links.(ip) with
    | Machine.L_target t ->
      Some
        (fun st ->
          account cyc st cost t)
    | _ -> None)
  | Instr.Jcc (c, _) -> (
    match img.Machine.links.(ip) with
    | Machine.L_target t ->
      let ev = Machine.lower_cond c in
      Some
        (fun st ->
          cyc.fv <- cyc.fv +. cost;
          st.Machine.steps <- st.Machine.steps + 1;
          st.Machine.ip <- (if ev st then t else next))
    | _ -> None)
  | Instr.MovQ_to_xmm (src, x) -> (
    let x8 = x * 8 in
    match src with
    | Instr.Imm v ->
      Some
        (fun st ->
          account cyc st cost next;
          let s = st.Machine.simd in
          bset s x8 v;
          zero_1_7 s x8)
    | Instr.Reg r ->
      let ri = Reg.gpr_index r in
      Some
        (fun st ->
          account cyc st cost next;
          let s = st.Machine.simd in
          bset s x8 (bget st.Machine.gpr ri);
          zero_1_7 s x8)
    | Instr.Mem m ->
      if not little_endian then None
      else
        let bi, xi, sc, disp = addr_parts m in
        Some
          (fun st ->
            account cyc st cost next;
            let g = st.Machine.gpr in
            let a = checked8 st g bi xi sc disp in
            let s = st.Machine.simd in
            bset s x8 (b_get64u st.Machine.mem a);
            zero_1_7 s x8))
  | Instr.Pinsrq (lane, src, x) -> (
    let x8 = x * 8 in
    let li = x8 + lane in
    match src with
    | Instr.Psrc_reg r ->
      let ri = Reg.gpr_index r in
      Some
        (fun st ->
          account cyc st cost next;
          let s = st.Machine.simd in
          bset s li (bget st.Machine.gpr ri);
          zero_2_7 s x8)
    | Instr.Psrc_mem m ->
      if not little_endian then None
      else
        let bi, xi, sc, disp = addr_parts m in
        Some
          (fun st ->
            account cyc st cost next;
            let g = st.Machine.gpr in
            let a = checked8 st g bi xi sc disp in
            let s = st.Machine.simd in
            bset s li (b_get64u st.Machine.mem a);
            zero_2_7 s x8))
  | Instr.Vinserti128 (half, sx, ax, dx) ->
    (* The half selector is a decode-time constant, so the four source
       lanes are fixed slots; reads complete before any write, exactly
       like [Machine.lower] (src/dst may alias). *)
    let s8 = sx * 8 and a8 = ax * 8 and d8 = dx * 8 in
    let l0 = if half = 0 then s8 else a8 in
    let l1 = l0 + 1 in
    let h0 = if half = 1 then s8 else a8 + 2 in
    let h1 = h0 + 1 in
    Some
      (fun st ->
        account cyc st cost next;
        let s = st.Machine.simd in
        let lo0 = bget s l0 in
        let lo1 = bget s l1 in
        let hi0 = bget s h0 in
        let hi1 = bget s h1 in
        bset s d8 lo0;
        bset s (d8 + 1) lo1;
        bset s (d8 + 2) hi0;
        bset s (d8 + 3) hi1;
        zero_4_7 s d8)
  | Instr.Vpxor (ax, bx, dx) ->
    let a8 = ax * 8 and b8 = bx * 8 and d8 = dx * 8 in
    Some
      (fun st ->
        account cyc st cost next;
        vpxor4 st.Machine.simd a8 b8 d8)
  | Instr.Vptest (ax, bx) ->
    let a8 = ax * 8 and b8 = bx * 8 in
    Some
      (fun st ->
        account cyc st cost next;
        vptest4 st a8 b8)
  | _ -> None

let mk_thunk cyc (img : Machine.image) ip : Machine.state -> unit =
  let cost = img.Machine.costs.(ip) in
  let next = ip + 1 in
  let op = img.Machine.code.(ip).Instr.op in
  match fast_thunk cyc ~cost ~next img ip op with
  | Some t -> t
  | None ->
    let body = Machine.lower img ip in
    fun st ->
      account cyc st cost next;
      body st

(* ------------------------------------------------------------------ *)
(* Flattened superinstruction bodies.                                  *)
(* ------------------------------------------------------------------ *)

(* Build the flattened pair thunk for [ip] and [ip+1], or [None] when
   no specialized combination applies (the generic two-call wrapper is
   used instead).  Each half replays the exact single step: cycle cost,
   step count, [ip] update, then the body — so a trap or fuel timeout
   between the halves leaves the same architectural state [Machine.step]
   would.  The one flat body is the duplicate-check sequence; the
   catalogue's other hot pairs ([cmp]/[vptest] + [jcc]) branch to the
   detector, so the wrapper's single-thunk halves serve them as well. *)
let fuse_pair cyc (fuel : int ref) (fused : (Machine.state -> unit) array)
    len (img : Machine.image) ip : (Machine.state -> unit) option =
  let c1 = img.Machine.costs.(ip) and c2 = img.Machine.costs.(ip + 1) in
  let n1 = ip + 1 and n2 = ip + 2 in
  let op1 = img.Machine.code.(ip).Instr.op
  and op2 = img.Machine.code.(ip + 1).Instr.op in
  match (op1, op2) with
  | Instr.Vpxor (ax, bx, dx), Instr.Vptest (tx, ty) ->
      (* the duplicate-check sequence the transforms emit: xor the
         replica into a scratch register, then test it *)
      let a8 = ax * 8
      and b8 = bx * 8
      and d8 = dx * 8
      and t8 = tx * 8
      and u8 = ty * 8 in
      Some
        (fun st ->
          account cyc st c1 n1;
          vpxor4 st.Machine.simd a8 b8 d8;
          if st.Machine.steps >= !fuel then raise Fuel;
          account cyc st c2 n2;
          vptest4 st t8 u8;
          ctr.c_fused_steps <- ctr.c_fused_steps + 2;
          if st.Machine.steps < !fuel && n2 < len then
            (Array.unsafe_get fused n2) st)
    | _ -> None

(* ------------------------------------------------------------------ *)
(* Superinstruction pattern table.                                     *)
(* ------------------------------------------------------------------ *)

(* A pair head must fall through unconditionally so the second half
   always executes when the first does. *)
let fall_through (op : Instr.t) =
  match op with
  | Instr.Jmp _ | Instr.Jcc _ | Instr.Call _ | Instr.Ret -> false
  | _ -> true

let is_flag_producer (op : Instr.t) =
  match op with
  | Instr.Cmp _ | Instr.Test _ | Instr.Vptest _ | Instr.Vptestmq512 _ -> true
  | _ -> false

let is_alu_like (op : Instr.t) =
  match op with
  | Instr.Alu _ | Instr.Cmp _ | Instr.Test _ | Instr.Shift _ | Instr.Neg _
  | Instr.Not _ ->
    true
  | _ -> false

(* SIMD shadow-stream producers: the duplicate half of the protection
   transforms' dup/check traffic. *)
let is_dup_op (op : Instr.t) =
  match op with
  | Instr.MovQ_to_xmm _ | Instr.Pinsrq _ -> true
  | _ -> false

type pattern = {
  p_name : string;
  p_match : Instr.ins -> Instr.ins -> bool;
}

(* Ordered: the first matching pattern names the pair.  The table
   follows the dynamic profile of the protected catalogue, which is
   dominated by duplicate/check traffic: "dup+dup" and "mov+dup" cover
   the back-to-back SIMD duplication the transforms emit after every
   protected value, "dup+check"/"check+check" the batched checking
   sequences, "cmp+jcc" the detector branch, "load+alu" a memory load
   feeding the next ALU op, and "lea+mov" address formation feeding a
   move. *)
let patterns =
  [ {
      p_name = "cmp+jcc";
      p_match =
        (fun a b ->
          is_flag_producer a.Instr.op
          && match b.Instr.op with Instr.Jcc _ -> true | _ -> false);
    };
    {
      p_name = "dup+check";
      p_match =
        (fun a b ->
          a.Instr.prov = Instr.Dup && b.Instr.prov = Instr.Check
          && fall_through b.Instr.op);
    };
    {
      p_name = "dup+dup";
      p_match = (fun a b -> is_dup_op a.Instr.op && is_dup_op b.Instr.op);
    };
    {
      p_name = "mov+dup";
      p_match =
        (fun a b ->
          (match a.Instr.op with Instr.Mov _ -> true | _ -> false)
          && is_dup_op b.Instr.op);
    };
    {
      p_name = "check+check";
      p_match =
        (fun a b ->
          a.Instr.prov = Instr.Check && b.Instr.prov = Instr.Check
          && fall_through a.Instr.op && fall_through b.Instr.op);
    };
    {
      p_name = "load+alu";
      p_match =
        (fun a b ->
          (match a.Instr.op with
          | Instr.Mov (_, Instr.Mem _, Instr.Reg _) -> true
          | _ -> false)
          && is_alu_like b.Instr.op);
    };
    {
      p_name = "alu+alu";
      p_match =
        (fun a b ->
          let reg_only (op : Instr.t) =
            match op with
            | Instr.Alu (_, _, (Instr.Reg _ | Instr.Imm _), Instr.Reg _)
            | Instr.Cmp (_, (Instr.Reg _ | Instr.Imm _), Instr.Reg _) ->
              true
            | _ -> false
          in
          reg_only a.Instr.op && reg_only b.Instr.op);
    };
    {
      p_name = "lea+mov";
      p_match =
        (fun a b ->
          (match a.Instr.op with Instr.Lea _ -> true | _ -> false)
          && match b.Instr.op with Instr.Mov _ -> true | _ -> false);
    };
    (* Catch-all: any remaining fall-through head pairs with its
       successor.  The named patterns above take display priority; this
       one keeps the dispatch win on the long tail of pair shapes. *)
    { p_name = "pair"; p_match = (fun _ _ -> true) };
  ]

(* ------------------------------------------------------------------ *)
(* Decoding.                                                           *)
(* ------------------------------------------------------------------ *)

let decode ?avoid (img : Machine.image) : t =
  let len = Array.length img.Machine.code in
  let cyc = { fv = 0.0 } in
  let thunks = Array.init len (mk_thunk cyc img) in
  (* Join points: indices where control can enter other than by falling
     through from the previous instruction.  Fusion is bypassed when the
     second half of a pair is one. *)
  let join = Array.make (max 1 len) false in
  if img.Machine.entry_ip < len then join.(img.Machine.entry_ip) <- true;
  Array.iteri
    (fun ip link ->
      (match link with
      | Machine.L_target t | Machine.L_call t -> if t < len then join.(t) <- true
      | _ -> ());
      match img.Machine.code.(ip).Instr.op with
      | Instr.Call _ -> if ip + 1 < len then join.(ip + 1) <- true
      | _ -> ())
    img.Machine.links;
  let fused = Array.make (max 1 len) (fun (_ : Machine.state) -> ()) in
  Array.blit thunks 0 fused 0 len;
  let fused_name = Array.make len "" in
  let n_fused = ref 0 in
  let counts = List.map (fun p -> (p.p_name, ref 0)) patterns in
  let fuel = ref max_int in
  for ip = 0 to len - 2 do
    let a = img.Machine.code.(ip) and b = img.Machine.code.(ip + 1) in
    if
      fall_through a.Instr.op
      && (not join.(ip + 1))
      && (match avoid with Some av -> not av.(ip + 1) | None -> true)
    then
      match List.find_opt (fun p -> p.p_match a b) patterns with
      | None -> ()
      | Some p ->
        fused_name.(ip) <- p.p_name;
        incr n_fused;
        incr (List.assoc p.p_name counts);
        (match fuse_pair cyc fuel fused len img ip with
        | Some flat -> fused.(ip) <- flat
        | None ->
          let t1 = thunks.(ip) and t2 = thunks.(ip + 1) in
          fused.(ip) <-
            (fun st ->
              t1 st;
              if st.Machine.steps >= !fuel then raise Fuel;
              t2 st;
              ctr.c_fused_steps <- ctr.c_fused_steps + 2;
              let ip' = st.Machine.ip in
              if st.Machine.steps < !fuel && ip' >= 0 && ip' < len then
                (Array.unsafe_get fused ip') st))
  done;
  ctr.c_decodes <- ctr.c_decodes + 1;
  {
    img;
    thunks;
    fused;
    fused_name;
    n_fused = !n_fused;
    pattern_counts = List.map (fun (n, r) -> (n, !r)) counts;
    fuel;
    cyc;
  }

(* Per-process decode cache keyed by physical identity of the image.
   Bounded so long-lived processes (the serve daemon) cannot retain an
   unbounded set of old programs; forked shard workers inherit the
   parent's cache for free. *)
let cache : (Machine.image * t) list ref = ref []

let cache_cap = 32

let get (img : Machine.image) : t =
  match List.find_opt (fun (k, _) -> k == img) !cache with
  | Some (_, p) -> p
  | None ->
    let p = decode img in
    let kept =
      if List.length !cache >= cache_cap then
        List.filteri (fun i _ -> i < cache_cap - 1) !cache
      else !cache
    in
    cache := (img, p) :: kept;
    p

(* ------------------------------------------------------------------ *)
(* Static accessors.                                                   *)
(* ------------------------------------------------------------------ *)

let length p = Array.length p.thunks

let fused_pairs p = p.n_fused

let pattern_counts p = p.pattern_counts

(* Pattern name when [ip] starts a fused pair, else [""]. *)
let fused_name p ip = p.fused_name.(ip)

let is_fused_start p ip = p.fused_name.(ip) <> ""

(* ------------------------------------------------------------------ *)
(* Execution loops.                                                    *)
(* ------------------------------------------------------------------ *)

(* The unobserved fast path: threaded dispatch over the fused thunk
   array.  Bit-identical to [Machine.run] without an observer.  The
   cycle accumulator is seeded from the architectural field on entry
   and written back on every exit path, so [st.cycles] is exact (the
   same float additions in the same order) whenever the caller can
   observe it. *)
let exec ?(fuel = Machine.default_fuel) (p : t) (st : Machine.state) =
  let s0 = st.Machine.steps in
  let len = Array.length p.thunks in
  let fused = p.fused in
  let cyc = p.cyc in
  p.fuel := fuel;
  cyc.fv <- st.Machine.cycles;
  let outcome =
    try
      while st.Machine.steps < fuel do
        let ip = st.Machine.ip in
        if ip >= len || ip < 0 then Machine.trap "control reached 0x%x" ip;
        (Array.unsafe_get fused ip) st
      done;
      Machine.Timeout
    with
    | Machine.Halt o -> o
    | Machine.Trap msg -> Machine.Crash msg
    | Fuel -> Machine.Timeout
    | e ->
      st.Machine.cycles <- cyc.fv;
      raise e
  in
  st.Machine.cycles <- cyc.fv;
  ctr.c_fast_steps <- ctr.c_fast_steps + (st.Machine.steps - s0);
  outcome

(* One pre-decoded step; returns the retired static index like
   [Machine.step].  Never fused, so callers that stop at exact step or
   site boundaries (snapshot capture, prefix replay) stay exact.  The
   caller checks [st.ip] bounds, as with [Machine.step].  The cycle
   accumulator is bracketed around the thunk (reseeded before, written
   back after, including on [Halt]/[Trap]), which also makes nested
   use safe: a lockstep observer may run [step1] on the same decoded
   program from inside [exec_observed]. *)
let step1 (p : t) (st : Machine.state) =
  let ip = st.Machine.ip in
  let cyc = p.cyc in
  cyc.fv <- st.Machine.cycles;
  (match (Array.unsafe_get p.thunks ip) st with
  | () -> st.Machine.cycles <- cyc.fv
  | exception e ->
    st.Machine.cycles <- cyc.fv;
    raise e);
  ip

(* The observed path: same per-step observer contract as
   [Machine.run ~on_step] — the observer sees every retired instruction
   including the halting one, and its mutations are visible to the next
   step.  Fusion is bypassed so injection sites and lockstep replicas
   see the exact retirement stream.  The cycle accumulator is bracketed
   around every thunk so the observer reads an exact [st.cycles] and the
   bracket tolerates reentrant [step1] calls on the same program. *)
let exec_observed ?(fuel = Machine.default_fuel) ~on_step (p : t)
    (st : Machine.state) =
  let len = Array.length p.thunks in
  let thunks = p.thunks in
  let cyc = p.cyc in
  try
    while st.Machine.steps < fuel do
      let ip0 = st.Machine.ip in
      if ip0 >= len || ip0 < 0 then Machine.trap "control reached 0x%x" ip0;
      cyc.fv <- st.Machine.cycles;
      (match (Array.unsafe_get thunks ip0) st with
      | () ->
        st.Machine.cycles <- cyc.fv;
        on_step st ip0
      | exception Machine.Halt o ->
        st.Machine.cycles <- cyc.fv;
        on_step st ip0;
        raise (Machine.Halt o)
      | exception e ->
        st.Machine.cycles <- cyc.fv;
        raise e)
    done;
    Machine.Timeout
  with
  | Machine.Halt o -> o
  | Machine.Trap msg -> Machine.Crash msg
