(* Deterministic x86-64 subset simulator.

   The simulator executes flattened {!Ferrum_asm.Prog.t} programs over an
   architectural state (16 GPRs, 16 SIMD registers of 8 x 64-bit lanes —
   ZMM width — ZF/SF/CF/OF, byte-addressable little-endian memory).  It reports one
   of four outcomes, matching the fault-injection literature's
   classification: normal exit with observable output, detection (control
   reached [exit_function] or [__ferrum_detect]), crash (memory trap,
   divide error, wild control transfer, stack overflow) or timeout.
   SIMD instructions follow their VEX/EVEX encodings on an AVX-512 host
   (MAXVL = 512): a VEX.128 or VEX.256 write zeroes the destination's
   lanes above its width, up to lane 7.

   Each opcode's semantics is defined once, by {!lower}: a decode-time
   lowering of one static instruction into a closure over resolved
   operands.  {!step} and {!run} execute lowered bodies; {!Predecode}
   reuses the same lowering for every instruction it has no specialized
   arm for.

   A per-step observer hook exposes the static index of the instruction
   that just retired; the fault injector uses it to flip one bit of one
   architectural destination right after write-back. *)

open Ferrum_asm

type outcome =
  | Exit of int64 list (* program output, oldest first *)
  | Detected
  | Crash of string
  | Timeout

let equal_outcome a b =
  match (a, b) with
  | Exit x, Exit y -> List.compare_lengths x y = 0 && List.for_all2 Int64.equal x y
  | Detected, Detected | Timeout, Timeout -> true
  | Crash _, Crash _ -> true
  | _ -> false

let pp_outcome ppf = function
  | Exit out -> Fmt.pf ppf "exit [%a]" Fmt.(list ~sep:(any "; ") int64) out
  | Detected -> Fmt.string ppf "detected"
  | Crash msg -> Fmt.pf ppf "crash (%s)" msg
  | Timeout -> Fmt.string ppf "timeout"

(* Pre-resolved control-flow target of an instruction. *)
type link = Prog.link =
  | L_none
  | L_target of int (* jmp/jcc destination *)
  | L_call of int (* callee entry index *)
  | L_detect (* transfer to the detector *)
  | L_print (* builtin print_i64 *)

type image = {
  code : Instr.ins array;
  links : link array;
  costs : float array;
  dests : Instr.dest list array; (* injectable destinations per index *)
  entry_ip : int;
  halt_ip : int; (* sentinel return address of the entry function *)
  mem_size : int;
}

exception Trap of string

exception Halt of outcome

let trap fmt = Fmt.kstr (fun s -> raise (Trap s)) fmt

(* ------------------------------------------------------------------ *)
(* Loading: flatten blocks, resolve labels and calls.                  *)
(* ------------------------------------------------------------------ *)

let load ?(cost_model = Cost.default) ?(mem_size = 1 lsl 20) (p : Prog.t) =
  Prog.validate p;
  let fl = Prog.flatten p in
  let code = fl.Prog.code and links = fl.Prog.links in
  Array.iteri
    (fun ip link ->
      match (link, code.(ip).Instr.op) with
      | L_none, (Instr.Jmp l | Instr.Jcc (_, l)) ->
        Prog.ill_formed "unresolved label %s" l
      | L_none, Instr.Call f -> Prog.ill_formed "unresolved call %s" f
      | _ -> ())
    links;
  let costs = Array.map (Cost.cost cost_model) code in
  let dests = Array.map (fun (i : Instr.ins) -> Instr.defs i.op) code in
  let entry_ip =
    match Hashtbl.find_opt fl.Prog.func_index p.entry with
    | Some i -> i
    | None -> Prog.ill_formed "no entry %s" p.entry
  in
  { code; links; costs; dests; entry_ip; halt_ip = Array.length code + 1;
    mem_size }

(* ------------------------------------------------------------------ *)
(* Architectural state.                                                *)
(* ------------------------------------------------------------------ *)

(* Dirty-page log: which memory pages have been written since the last
   {!clear_dirty}.  The bitmap makes the per-write test O(1); the page
   list makes clearing and iteration proportional to the pages actually
   touched, never to the address space.  Attached on demand
   ({!track_writes}) so the plain interpreter pays one [None] branch per
   store; {!Snapshot} and the pooled injection loops are the users. *)
type track = {
  tr_bits : Bytes.t; (* one byte per page: '\001' = dirty *)
  tr_pages : int array; (* dirty page numbers, insertion order *)
  mutable tr_count : int;
}

let page_bits = 12

let page_size = 1 lsl page_bits

type regfile = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t

let make_regfile n : regfile =
  let a = Bigarray.Array1.create Bigarray.Int64 Bigarray.C_layout n in
  Bigarray.Array1.fill a 0L;
  a

let copy_regfile (r : regfile) : regfile =
  let c = Bigarray.Array1.create Bigarray.Int64 Bigarray.C_layout
      (Bigarray.Array1.dim r) in
  Bigarray.Array1.blit r c;
  c

let blit_regfile (src : regfile) (dst : regfile) = Bigarray.Array1.blit src dst

let dump_regfile (r : regfile) =
  Array.init (Bigarray.Array1.dim r) (Bigarray.Array1.get r)

type state = {
  gpr : regfile; (* 16 *)
  simd : regfile; (* 16 registers x 8 lanes (ZMM width) *)
  mutable zf : bool;
  mutable sf : bool;
  mutable cf : bool;
  mutable off : bool; (* OF *)
  mem : Bytes.t;
  mutable ip : int;
  mutable cycles : float;
  mutable steps : int;
  mutable out_rev : int64 list;
  mutable track : track option;
}

let mark_page tr p =
  if Bytes.unsafe_get tr.tr_bits p = '\000' then begin
    Bytes.unsafe_set tr.tr_bits p '\001';
    tr.tr_pages.(tr.tr_count) <- p;
    tr.tr_count <- tr.tr_count + 1
  end

let num_pages st = (Bytes.length st.mem + page_size - 1) lsr page_bits

let track_writes st =
  match st.track with
  | Some _ -> ()
  | None ->
    let n = num_pages st in
    st.track <-
      Some { tr_bits = Bytes.make n '\000'; tr_pages = Array.make n 0;
             tr_count = 0 }

let clear_dirty st =
  match st.track with
  | None -> ()
  | Some tr ->
    for i = 0 to tr.tr_count - 1 do
      Bytes.unsafe_set tr.tr_bits tr.tr_pages.(i) '\000'
    done;
    tr.tr_count <- 0

let fresh_state (img : image) =
  let st =
    {
      gpr = make_regfile 16;
      simd = make_regfile 128; (* 16 registers x 8 lanes (ZMM width) *)
      zf = false;
      sf = false;
      cf = false;
      off = false;
      mem = Bytes.make img.mem_size '\000';
      ip = img.entry_ip;
      cycles = 0.0;
      steps = 0;
      out_rev = [];
      track = None;
    }
  in
  (* Stack grows down from the top of memory; push the sentinel return
     address so that [ret] from the entry function halts cleanly. *)
  let sp = img.mem_size - 16 in
  Bytes.set_int64_le st.mem sp (Int64.of_int img.halt_ip);
  st.gpr.{Reg.gpr_index Reg.RSP} <- Int64.of_int sp;
  st

(* Blit register files, flags, scalars — everything but memory — from
   [src] into [st].  The cheap half of resetting a pooled state. *)
let reset_regs ~from:(src : state) st =
  Bigarray.Array1.blit src.gpr st.gpr;
  Bigarray.Array1.blit src.simd st.simd;
  st.zf <- src.zf;
  st.sf <- src.sf;
  st.cf <- src.cf;
  st.off <- src.off;
  st.ip <- src.ip;
  st.cycles <- src.cycles;
  st.steps <- src.steps;
  st.out_rev <- src.out_rev

(* Reset a pooled state to [pristine] (a never-executed {!fresh_state})
   by blitting, instead of allocating a new 1 MiB state per run.  The
   whole memory image is copied; {!Snapshot} restores incrementally via
   the dirty-page log instead when one is attached. *)
let reset_state ~pristine st =
  reset_regs ~from:pristine st;
  Bytes.blit pristine.mem 0 st.mem 0 (Bytes.length st.mem);
  clear_dirty st

let output st = List.rev st.out_rev

(* ------------------------------------------------------------------ *)
(* Register / memory access helpers.                                   *)
(* ------------------------------------------------------------------ *)

(* Unboxed register-file access for the lowered bodies: these compile
   to direct loads/stores on the bigarray data pointer.  Indices are
   decode-time constants in [0, 15], so the unchecked variants are
   safe. *)
external bget : regfile -> int -> int64 = "%caml_ba_unsafe_ref_1"

external bset : regfile -> int -> int64 -> unit = "%caml_ba_unsafe_set_1"

let mask_of_size = function
  | Reg.B -> 0xFFL
  | Reg.W -> 0xFFFFL
  | Reg.D -> 0xFFFFFFFFL
  | Reg.Q -> -1L

let sign_extend v = function
  | Reg.B -> Int64.shift_right (Int64.shift_left v 56) 56
  | Reg.W -> Int64.shift_right (Int64.shift_left v 48) 48
  | Reg.D -> Int64.shift_right (Int64.shift_left v 32) 32
  | Reg.Q -> v

let effective_address st (m : Instr.mem) =
  let base =
    match m.base with Some r -> st.gpr.{Reg.gpr_index r} | None -> 0L
  in
  let index =
    match m.index with
    | Some r -> Int64.mul st.gpr.{Reg.gpr_index r} (Int64.of_int m.scale)
    | None -> 0L
  in
  Int64.add (Int64.add base index) (Int64.of_int m.disp)

let check_addr st addr bytes =
  let a = Int64.to_int addr in
  if
    Int64.compare addr 0L < 0
    || Int64.compare addr (Int64.of_int (Bytes.length st.mem)) >= 0
    || a + bytes > Bytes.length st.mem || a < 0
  then trap "memory access at 0x%Lx" addr
  else a

let read_mem st addr s =
  match s with
  | Reg.B -> Int64.of_int (Char.code (Bytes.get st.mem (check_addr st addr 1)))
  | Reg.W -> Int64.of_int (Bytes.get_uint16_le st.mem (check_addr st addr 2))
  | Reg.D ->
    Int64.logand
      (Int64.of_int32 (Bytes.get_int32_le st.mem (check_addr st addr 4)))
      0xFFFFFFFFL
  | Reg.Q -> Bytes.get_int64_le st.mem (check_addr st addr 8)

(* A write of [n] bytes at [a] dirties at most two pages. *)
let mark_dirty st a n =
  match st.track with
  | None -> ()
  | Some tr ->
    let p0 = a lsr page_bits in
    mark_page tr p0;
    let p1 = (a + n - 1) lsr page_bits in
    if p1 <> p0 then mark_page tr p1

let write_mem st addr s v =
  match s with
  | Reg.B ->
    let a = check_addr st addr 1 in
    mark_dirty st a 1;
    Bytes.set st.mem a (Char.chr (Int64.to_int (Int64.logand v 0xFFL)))
  | Reg.W ->
    let a = check_addr st addr 2 in
    mark_dirty st a 2;
    Bytes.set_uint16_le st.mem a (Int64.to_int (Int64.logand v 0xFFFFL))
  | Reg.D ->
    let a = check_addr st addr 4 in
    mark_dirty st a 4;
    Bytes.set_int32_le st.mem a (Int64.to_int32 v)
  | Reg.Q ->
    let a = check_addr st addr 8 in
    mark_dirty st a 8;
    Bytes.set_int64_le st.mem a v

let simd_lane st x lane = st.simd.{(x * 8) + lane}

let set_simd_lane st x lane v = st.simd.{(x * 8) + lane} <- v

(* ------------------------------------------------------------------ *)
(* Flags.                                                              *)
(* ------------------------------------------------------------------ *)

let set_flags_logic st s res =
  let res = Int64.logand res (mask_of_size s) in
  st.zf <- Int64.equal res 0L;
  st.sf <- Int64.compare (sign_extend res s) 0L < 0;
  st.cf <- false;
  st.off <- false

let sign_bit v s = Int64.compare (sign_extend v s) 0L < 0

let set_flags_add st s a b res =
  let m = mask_of_size s in
  let a = Int64.logand a m and b = Int64.logand b m in
  let res = Int64.logand res m in
  st.zf <- Int64.equal res 0L;
  st.sf <- sign_bit res s;
  (* carry: unsigned result wrapped *)
  st.cf <- Int64.unsigned_compare res a < 0 || (Int64.unsigned_compare res b < 0);
  st.off <- sign_bit a s = sign_bit b s && sign_bit res s <> sign_bit a s

let set_flags_sub st s a b res =
  let m = mask_of_size s in
  let a = Int64.logand a m and b = Int64.logand b m in
  let res = Int64.logand res m in
  st.zf <- Int64.equal res 0L;
  st.sf <- sign_bit res s;
  st.cf <- Int64.unsigned_compare a b < 0;
  st.off <- sign_bit a s <> sign_bit b s && sign_bit res s <> sign_bit a s

(* ------------------------------------------------------------------ *)
(* Stack helpers.                                                      *)
(* ------------------------------------------------------------------ *)

let rsp_i = Reg.gpr_index Reg.RSP

let push st v =
  let sp = Int64.sub st.gpr.{rsp_i} 8L in
  st.gpr.{rsp_i} <- sp;
  write_mem st sp Reg.Q v

let pop st =
  let sp = st.gpr.{rsp_i} in
  let v = read_mem st sp Reg.Q in
  st.gpr.{rsp_i} <- Int64.add sp 8L;
  v

(* ------------------------------------------------------------------ *)
(* Lowering: the one definition of each opcode's semantics.            *)
(* ------------------------------------------------------------------ *)

(* Effective address with base/index/disp resolved at decode time. *)
let mk_ea (m : Instr.mem) : state -> int64 =
  let disp = Int64.of_int m.Instr.disp in
  match (m.Instr.base, m.Instr.index) with
  | None, None -> fun _ -> disp
  | Some b, None ->
    let bi = Reg.gpr_index b in
    if m.Instr.disp = 0 then fun st -> bget st.gpr bi
    else fun st -> Int64.add (bget st.gpr bi) disp
  | None, Some x ->
    let xi = Reg.gpr_index x in
    let sc = Int64.of_int m.Instr.scale in
    fun st -> Int64.add (Int64.mul (bget st.gpr xi) sc) disp
  | Some b, Some x ->
    let bi = Reg.gpr_index b and xi = Reg.gpr_index x in
    let sc = Int64.of_int m.Instr.scale in
    fun st ->
      Int64.add
        (Int64.add (bget st.gpr bi) (Int64.mul (bget st.gpr xi) sc))
        disp

(* Operand reads are masked to the access size. *)
let mk_read s (o : Instr.operand) : state -> int64 =
  match o with
  | Instr.Imm i ->
    let v = Int64.logand i (mask_of_size s) in
    fun _ -> v
  | Instr.Reg r -> (
    let i = Reg.gpr_index r in
    match s with
    | Reg.Q -> fun st -> bget st.gpr i
    | _ ->
      let m = mask_of_size s in
      fun st -> Int64.logand (bget st.gpr i) m)
  | Instr.Mem m ->
    let ea = mk_ea m in
    fun st -> read_mem st (ea st) s

(* x86 semantics: 32-bit writes zero the upper half, 8/16-bit writes
   merge into the old value. *)
let mk_write_gpr s r : state -> int64 -> unit =
  let i = Reg.gpr_index r in
  match s with
  | Reg.Q -> fun st v -> bset st.gpr i v
  | Reg.D -> fun st v -> bset st.gpr i (Int64.logand v 0xFFFFFFFFL)
  | Reg.W ->
    fun st v ->
      bset st.gpr i
        (Int64.logor
           (Int64.logand (bget st.gpr i) (Int64.lognot 0xFFFFL))
           (Int64.logand v 0xFFFFL))
  | Reg.B ->
    fun st v ->
      bset st.gpr i
        (Int64.logor
           (Int64.logand (bget st.gpr i) (Int64.lognot 0xFFL))
           (Int64.logand v 0xFFL))

let mk_write s (o : Instr.operand) : state -> int64 -> unit =
  match o with
  | Instr.Imm _ -> fun _ _ -> trap "write to immediate"
  | Instr.Reg r -> mk_write_gpr s r
  | Instr.Mem m ->
    let ea = mk_ea m in
    fun st v -> write_mem st (ea st) s v

let lower_cond (c : Cond.t) : state -> bool =
  match c with
  | Cond.E -> fun st -> st.zf
  | Cond.NE -> fun st -> not st.zf
  | Cond.L -> fun st -> st.sf <> st.off
  | Cond.LE -> fun st -> st.zf || st.sf <> st.off
  | Cond.G -> fun st -> (not st.zf) && st.sf = st.off
  | Cond.GE -> fun st -> st.sf = st.off
  | Cond.B -> fun st -> st.cf
  | Cond.BE -> fun st -> st.cf || st.zf
  | Cond.A -> fun st -> (not st.cf) && not st.zf
  | Cond.AE -> fun st -> not st.cf
  | Cond.S -> fun st -> st.sf
  | Cond.NS -> fun st -> not st.sf

(* Lane-wise xor of the low [n] lanes, read-then-write in lane order
   (visible when the destination aliases a source). *)
let xor_lanes n a b d st =
  for lane = 0 to n - 1 do
    set_simd_lane st d lane
      (Int64.logxor (simd_lane st a lane) (simd_lane st b lane))
  done

(* A VEX.128 or VEX.256 write zeroes its destination from lane [from]
   up to MAXVL (512 bits, lane 7). *)
let zero_upper x ~from st =
  for lane = from to 7 do
    set_simd_lane st x lane 0L
  done

(* vptest over the low [n] lanes: ZF = (b AND a) = 0, CF = (b AND NOT
   a) = 0, SF = OF = 0. *)
let test_lanes n a b st =
  let and_zero = ref true and andn_zero = ref true in
  for lane = 0 to n - 1 do
    let va = simd_lane st a lane and vb = simd_lane st b lane in
    if not (Int64.equal (Int64.logand vb va) 0L) then and_zero := false;
    if not (Int64.equal (Int64.logand vb (Int64.lognot va)) 0L) then
      andn_zero := false
  done;
  st.zf <- !and_zero;
  st.cf <- !andn_zero;
  st.sf <- false;
  st.off <- false

(* The body of the instruction at [ip]: operands, links and the halt
   sentinel resolved now, so executing it matches on nothing.  Reads
   happen before writes, flags before the destination write-back, and
   every trap message is part of the contract (campaign records carry
   it).  The caller does the step accounting first. *)
let lower (img : image) ip : state -> unit =
  match img.code.(ip).Instr.op with
  | Instr.Mov (s, src, dst) ->
    let rd = mk_read s src and wr = mk_write s dst in
    fun st ->
      let v = rd st in
      wr st v
  | Instr.Movslq (src, r) ->
    let rd = mk_read Reg.D src and wr = mk_write_gpr Reg.Q r in
    fun st -> wr st (sign_extend (rd st) Reg.D)
  | Instr.Movzbq (src, r) ->
    let rd = mk_read Reg.B src and wr = mk_write_gpr Reg.Q r in
    fun st -> wr st (rd st)
  | Instr.Lea (m, r) ->
    let ea = mk_ea m and wr = mk_write_gpr Reg.Q r in
    fun st -> wr st (ea st)
  | Instr.Alu (aop, s, src, dst) -> (
    let rda = mk_read s dst and rdb = mk_read s src in
    let wr = mk_write s dst in
    match aop with
    | Instr.Add ->
      fun st ->
        let a = rda st in
        let b = rdb st in
        let res = Int64.add a b in
        set_flags_add st s a b res;
        wr st res
    | Instr.Sub ->
      fun st ->
        let a = rda st in
        let b = rdb st in
        let res = Int64.sub a b in
        set_flags_sub st s a b res;
        wr st res
    | Instr.Imul ->
      fun st ->
        let a = rda st in
        let b = rdb st in
        let res = Int64.mul (sign_extend a s) (sign_extend b s) in
        set_flags_logic st s res;
        wr st res
    | Instr.And ->
      fun st ->
        let a = rda st in
        let b = rdb st in
        let res = Int64.logand a b in
        set_flags_logic st s res;
        wr st res
    | Instr.Or ->
      fun st ->
        let a = rda st in
        let b = rdb st in
        let res = Int64.logor a b in
        set_flags_logic st s res;
        wr st res
    | Instr.Xor ->
      fun st ->
        let a = rda st in
        let b = rdb st in
        let res = Int64.logxor a b in
        set_flags_logic st s res;
        wr st res)
  | Instr.Shift (k, s, amt, dst) ->
    let rda = mk_read s dst and wr = mk_write s dst in
    let amt_mask = if s = Reg.Q then 63 else 31 in
    let rdn =
      match amt with
      | Instr.Amt_imm n ->
        let n = n land amt_mask in
        fun _ -> n
      | Instr.Amt_cl ->
        let rcx = Reg.gpr_index Reg.RCX in
        fun st -> Int64.to_int (Int64.logand (bget st.gpr rcx) 0xFFL) land amt_mask
    in
    let shift =
      match k with
      | Instr.Shl -> fun a n -> Int64.shift_left a n
      | Instr.Sar -> fun a n -> Int64.shift_right (sign_extend a s) n
      | Instr.Shr ->
        let m = mask_of_size s in
        fun a n -> Int64.shift_right_logical (Int64.logand a m) n
    in
    fun st ->
      let a = rda st in
      let n = rdn st in
      let res = shift a n in
      set_flags_logic st s res;
      wr st res
  | Instr.Neg (s, dst) ->
    let rd = mk_read s dst and wr = mk_write s dst in
    fun st ->
      let a = rd st in
      let res = Int64.neg a in
      set_flags_sub st s 0L a res;
      wr st res
  | Instr.Not (s, dst) ->
    let rd = mk_read s dst and wr = mk_write s dst in
    fun st -> wr st (Int64.lognot (rd st))
  | Instr.Cmp (s, src, dst) ->
    let rda = mk_read s dst and rdb = mk_read s src in
    fun st ->
      let a = rda st in
      let b = rdb st in
      set_flags_sub st s a b (Int64.sub a b)
  | Instr.Test (s, src, dst) ->
    let rda = mk_read s dst and rdb = mk_read s src in
    fun st ->
      let a = rda st in
      let b = rdb st in
      set_flags_logic st s (Int64.logand a b)
  | Instr.Set (c, dst) ->
    let ev = lower_cond c and wr = mk_write Reg.B dst in
    fun st -> wr st (if ev st then 1L else 0L)
  | Instr.Jmp _ -> (
    match img.links.(ip) with
    | L_target t -> fun st -> st.ip <- t
    | L_detect -> fun _ -> raise (Halt Detected)
    | _ -> fun _ -> trap "bad jmp link")
  | Instr.Jcc (c, _) -> (
    let ev = lower_cond c in
    match img.links.(ip) with
    | L_target t -> fun st -> if ev st then st.ip <- t
    | L_detect -> fun st -> if ev st then raise (Halt Detected)
    | _ -> fun st -> if ev st then trap "bad jcc link")
  | Instr.Call _ -> (
    match img.links.(ip) with
    | L_call entry ->
      fun st ->
        push st (Int64.of_int st.ip);
        st.ip <- entry
    | L_print ->
      let rdi = Reg.gpr_index Reg.RDI in
      fun st -> st.out_rev <- bget st.gpr rdi :: st.out_rev
    | L_detect -> fun _ -> raise (Halt Detected)
    | _ -> fun _ -> trap "bad call link")
  | Instr.Ret ->
    let halt_ip = img.halt_ip in
    let len = Array.length img.code in
    fun st ->
      let ra = Int64.to_int (pop st) in
      if ra = halt_ip then raise (Halt (Exit (output st)))
      else if ra < 0 || ra >= len then trap "wild return to %d" ra
      else st.ip <- ra
  | Instr.Push src ->
    let rd = mk_read Reg.Q src in
    fun st -> push st (rd st)
  | Instr.Pop r ->
    let wr = mk_write_gpr Reg.Q r in
    fun st -> wr st (pop st)
  | Instr.Cqto ->
    let rax = Reg.gpr_index Reg.RAX and rdx = Reg.gpr_index Reg.RDX in
    fun st -> bset st.gpr rdx (Int64.shift_right (bget st.gpr rax) 63)
  | Instr.Idiv (s, src) ->
    if s <> Reg.Q then fun _ -> trap "idiv: only 64-bit division is supported"
    else
      let rd = mk_read Reg.Q src in
      let rax = Reg.gpr_index Reg.RAX and rdx_i = Reg.gpr_index Reg.RDX in
      fun st ->
        let d = rd st in
        if Int64.equal d 0L then trap "divide by zero";
        let a = bget st.gpr rax in
        let rdx = bget st.gpr rdx_i in
        (* The backend always sign-extends with cqto first; anything else
           denotes a corrupted RDX and raises the divide-error trap, as
           the quotient would not fit in 64 bits. *)
        if not (Int64.equal rdx (Int64.shift_right a 63)) then
          trap "divide overflow"
        else begin
          bset st.gpr rax (Int64.div a d);
          bset st.gpr rdx_i (Int64.rem a d)
        end
  | Instr.MovQ_to_xmm (src, x) ->
    let rd = mk_read Reg.Q src in
    fun st ->
      set_simd_lane st x 0 (rd st);
      zero_upper x ~from:1 st
  | Instr.MovQ_from_xmm (x, r) ->
    let wr = mk_write_gpr Reg.Q r in
    fun st -> wr st (simd_lane st x 0)
  | Instr.Pinsrq (lane, src, x) ->
    let rd =
      match src with
      | Instr.Psrc_reg r -> mk_read Reg.Q (Instr.Reg r)
      | Instr.Psrc_mem m ->
        let ea = mk_ea m in
        fun st -> read_mem st (ea st) Reg.Q
    in
    fun st ->
      set_simd_lane st x lane (rd st);
      zero_upper x ~from:2 st
  | Instr.Pextrq (lane, x, r) ->
    let wr = mk_write_gpr Reg.Q r in
    fun st -> wr st (simd_lane st x lane)
  | Instr.Vinserti128 (half, s, a, d) ->
    fun st ->
      let lo0, lo1 =
        if half = 0 then (simd_lane st s 0, simd_lane st s 1)
        else (simd_lane st a 0, simd_lane st a 1)
      in
      let hi0, hi1 =
        if half = 1 then (simd_lane st s 0, simd_lane st s 1)
        else (simd_lane st a 2, simd_lane st a 3)
      in
      set_simd_lane st d 0 lo0;
      set_simd_lane st d 1 lo1;
      set_simd_lane st d 2 hi0;
      set_simd_lane st d 3 hi1;
      zero_upper d ~from:4 st
  | Instr.Vpxor (a, b, d) ->
    fun st ->
      xor_lanes 4 a b d st;
      zero_upper d ~from:4 st
  | Instr.Vptest (a, b) -> test_lanes 4 a b
  | Instr.Vinserti64x4 (half, src, a, d) ->
    fun st ->
      (* read everything first: src/a may alias d *)
      let src_lanes = Array.init 4 (simd_lane st src) in
      let a_lanes = Array.init 8 (simd_lane st a) in
      for lane = 0 to 7 do
        let v =
          if half = 0 && lane < 4 then src_lanes.(lane)
          else if half = 1 && lane >= 4 then src_lanes.(lane - 4)
          else a_lanes.(lane)
        in
        set_simd_lane st d lane v
      done
  | Instr.Vpxorq512 (a, b, d) -> xor_lanes 8 a b d
  | Instr.Vptestmq512 (a, b) ->
    (* kortestw sets CF only when all 16 mask bits are set; vptestmq
       writes 8 *)
    fun st ->
      test_lanes 8 a b st;
      st.cf <- false

(* ------------------------------------------------------------------ *)
(* One execution step.                                                 *)
(* ------------------------------------------------------------------ *)

(* Retire the instruction at [ip] through its lowered [body]: the step
   accounting, then the body. *)
let retire (img : image) st ip body =
  st.cycles <- st.cycles +. img.costs.(ip);
  st.steps <- st.steps + 1;
  st.ip <- ip + 1;
  body st

(* A single step lowers the one instruction it executes; the run loops
   below lower the whole image once per run.  Neither keeps the bodies
   past the call: images outlive their runs in long-lived processes
   (the serve daemon resolves one per submission), and retained bodies
   would grow their heaps. *)
let step (img : image) (st : state) =
  let ip = st.ip in
  retire img st ip (lower img ip);
  ip

(* ------------------------------------------------------------------ *)
(* Fault-injection mutators: flip one bit of a written destination.    *)
(* ------------------------------------------------------------------ *)

let flip_gpr st r s ~bit =
  let bit = bit mod Reg.size_bits s in
  let i = Reg.gpr_index r in
  st.gpr.{i} <- Int64.logxor st.gpr.{i} (Int64.shift_left 1L bit)

let flip_simd_lane st x ~lane ~bit =
  let bit = bit land 63 in
  let i = (x * 8) + lane in
  st.simd.{i} <- Int64.logxor st.simd.{i} (Int64.shift_left 1L bit)

let flip_flag st = function
  | Cond.ZF -> st.zf <- not st.zf
  | Cond.SF -> st.sf <- not st.sf
  | Cond.CF -> st.cf <- not st.cf
  | Cond.OF -> st.off <- not st.off

(* ------------------------------------------------------------------ *)
(* Runner.                                                             *)
(* ------------------------------------------------------------------ *)

let default_fuel = 50_000_000

(* The two run loops are split so the no-observer case pays neither the
   option branch nor the observer indirection per retired instruction;
   {!run} dispatches on [on_step] exactly once. *)
let run_unobserved ~fuel (img : image) (st : state) =
  let len = Array.length img.code in
  let bodies = Array.init len (lower img) in
  try
    while st.steps < fuel do
      let ip = st.ip in
      if ip >= len || ip < 0 then trap "control reached 0x%x" ip;
      retire img st ip bodies.(ip)
    done;
    Timeout
  with
  | Halt o -> o
  | Trap msg -> Crash msg

let run_observed ~fuel ~f (img : image) (st : state) =
  let len = Array.length img.code in
  let bodies = Array.init len (lower img) in
  try
    while st.steps < fuel do
      let ip = st.ip in
      if ip >= len || ip < 0 then trap "control reached 0x%x" ip;
      match retire img st ip bodies.(ip) with
      | () -> f st ip
      | exception Halt o ->
        f st ip;
        raise (Halt o)
    done;
    Timeout
  with
  | Halt o -> o
  | Trap msg -> Crash msg

(* Run to completion.  [on_step] receives the state and the static index
   of the instruction that just retired (its destinations are in
   [img.dests]); mutations it performs are visible to the next step.
   The halting instruction is observed too (it retired: its steps and
   cycles are accounted); halting instructions define no injectable
   destinations, so fault-injection sampling is unaffected. *)
let run ?(fuel = default_fuel) ?on_step (img : image) (st : state) =
  match on_step with
  | None -> run_unobserved ~fuel img st
  | Some f -> run_observed ~fuel ~f img st

(* Convenience wrapper: load-free execution of an image from scratch. *)
let run_fresh ?fuel ?on_step img =
  let st = fresh_state img in
  let outcome = run ?fuel ?on_step img st in
  (outcome, st)

(* Golden (fault-free) execution summary used by campaigns and benches. *)
type golden = {
  outcome : outcome;
  dyn_instructions : int;
  cycles : float;
}

let golden ?fuel img =
  let outcome, st = run_fresh ?fuel img in
  { outcome; dyn_instructions = st.steps; cycles = st.cycles }
