(* Parametric cycle-cost model.

   The paper (§IV-B2) measures wall-clock runtime on an Intel Xeon; our
   substrate is a simulator, so runtime is replaced by a per-instruction
   cycle model.  Two well-known microarchitectural effects matter for the
   relative overheads the paper reports and are modelled explicitly:

   - instructions added by duplication carry no data dependence on the
     original stream, so a superscalar core executes most of them in
     otherwise-idle issue slots (the classic EDDI observation, Oh et
     al. 2002).  We charge provenance [Dup] and [Instrumentation]
     instructions [dup_overlap] (a fraction in [0;1]) of their base cost;
   - checker branches ([Check]-provenance conditional jumps) are
     never taken in fault-free runs and predict perfectly, but still
     consume fetch/issue bandwidth; they are charged [check_branch].

   All parameters are plain record fields so ablation benches can sweep
   them; the defaults are documented in EXPERIMENTS.md. *)

type model = {
  alu : float;
  load : float;
  store : float;
  branch : float; (* program's own control flow *)
  check_branch : float; (* never-taken checker jcc *)
  setcc : float;
  call : float;
  div : float;
  simd_mov : float; (* vmovq gpr<->xmm, vpinsrq/vpextrq reg form *)
  simd_load : float; (* SIMD ops reading memory *)
  simd_op : float; (* vinserti128 / vpxor *)
  vptest : float;
  dup_overlap : float; (* cost multiplier for Dup/Instrumentation *)
  simd_overlap : float; (* multiplier for SIMD-class protection ops *)
}

let default =
  {
    alu = 1.0;
    load = 3.0;
    store = 3.0;
    branch = 2.0;
    check_branch = 1.0;
    setcc = 1.0;
    call = 4.0;
    div = 24.0;
    simd_mov = 1.0;
    simd_load = 3.0;
    simd_op = 1.0;
    vptest = 1.5;
    dup_overlap = 0.45;
    simd_overlap = 0.08;
  }

(* A model with no overlap effects: every instruction costs its full
   base price regardless of provenance.  Used by the ablation bench to
   show how much of FERRUM's advantage comes from ILP assumptions. *)
let no_overlap =
  { default with dup_overlap = 1.0; simd_overlap = 1.0;
    check_branch = default.branch }

open Ferrum_asm

(* SIMD-class instructions execute on the vector ports, which the
   integer-only programs we protect leave idle (the under-utilisation
   FERRUM exploits, paper SIII); their protection-mode discount is
   therefore deeper than the scalar one. *)
let is_simd_class (i : Instr.t) =
  match i with
  | Instr.MovQ_to_xmm _ | Instr.MovQ_from_xmm _ | Instr.Pinsrq _
  | Instr.Pextrq _ | Instr.Vinserti128 _ | Instr.Vpxor _ | Instr.Vptest _
  | Instr.Vinserti64x4 _ | Instr.Vpxorq512 _ | Instr.Vptestmq512 _ -> true
  | _ -> false

let base_cost m (i : Instr.t) =
  match i with
  | Instr.Vptest _ | Instr.Vptestmq512 _ -> m.vptest
  | Instr.Vinserti128 _ | Instr.Vpxor _ | Instr.Vinserti64x4 _
  | Instr.Vpxorq512 _ -> m.simd_op
  | Instr.MovQ_to_xmm (o, _) ->
    if Instr.is_mem_operand o then m.simd_load else m.simd_mov
  | Instr.Pinsrq (_, Instr.Psrc_mem _, _) -> m.simd_load
  | Instr.Pinsrq (_, Instr.Psrc_reg _, _) | Instr.Pextrq _
  | Instr.MovQ_from_xmm _ -> m.simd_mov
  | _ -> (
    match Instr.klass i with
    | Instr.K_alu -> m.alu
    | Instr.K_load -> m.load
    | Instr.K_store -> m.store
    | Instr.K_branch -> m.branch
    | Instr.K_call -> m.call
    | Instr.K_div -> m.div
    | Instr.K_setcc -> m.setcc
    | Instr.K_simd -> m.simd_mov)

(* Cost of one instruction given its provenance.  All protection code
   (duplicates, checks, instrumentation) receives the overlap discount —
   it is data-independent of the original stream — except checker
   branches, which are charged the flat never-taken price. *)
let cost m (ins : Instr.ins) =
  let overlap op =
    if is_simd_class op then m.simd_overlap else m.dup_overlap
  in
  match ins.prov with
  | Instr.Check -> (
    match ins.op with
    | Instr.Jcc _ -> m.check_branch
    | op -> base_cost m op *. overlap op)
  | Instr.Dup | Instr.Instrumentation ->
    base_cost m ins.op *. overlap ins.op
  | Instr.Original -> base_cost m ins.op
