(* Reference stepper: the machine's semantics written as one plain
   interpretive match over operands, independent of the decode-time
   lowering ([Machine.lower]) that [Machine.step], [Machine.run] and
   [Predecode] execute.  The engine identity suites use it as their
   oracle: final state, retirement stream, outcome and trap message
   must agree with it.  Only the bounds check, the trap constructor,
   the dirty-page hook and effective-address resolution are shared
   with the machine. *)

open Ferrum_asm
module Machine = Ferrum_machine.Machine

let trap = Machine.trap

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

let read_gpr (st : Machine.state) r s =
  Int64.logand st.gpr.{Reg.gpr_index r} (mask_of_size s)

(* 32-bit writes zero the upper half, 8/16-bit writes merge. *)
let write_gpr (st : Machine.state) r s v =
  let i = Reg.gpr_index r in
  let keep m = Int64.logor (Int64.logand st.gpr.{i} (Int64.lognot m)) (Int64.logand v m) in
  match s with
  | Reg.Q -> st.gpr.{i} <- v
  | Reg.D -> st.gpr.{i} <- Int64.logand v 0xFFFFFFFFL
  | Reg.W -> st.gpr.{i} <- keep 0xFFFFL
  | Reg.B -> st.gpr.{i} <- keep 0xFFL

let read_mem (st : Machine.state) addr s =
  match s with
  | Reg.B ->
    Int64.of_int (Char.code (Bytes.get st.mem (Machine.check_addr st addr 1)))
  | Reg.W -> Int64.of_int (Bytes.get_uint16_le st.mem (Machine.check_addr st addr 2))
  | Reg.D ->
    Int64.logand
      (Int64.of_int32 (Bytes.get_int32_le st.mem (Machine.check_addr st addr 4)))
      0xFFFFFFFFL
  | Reg.Q -> Bytes.get_int64_le st.mem (Machine.check_addr st addr 8)

let write_mem (st : Machine.state) addr s v =
  let n = Reg.size_bytes s in
  let a = Machine.check_addr st addr n in
  Machine.mark_dirty st a n;
  match s with
  | Reg.B -> Bytes.set st.mem a (Char.chr (Int64.to_int (Int64.logand v 0xFFL)))
  | Reg.W -> Bytes.set_uint16_le st.mem a (Int64.to_int (Int64.logand v 0xFFFFL))
  | Reg.D -> Bytes.set_int32_le st.mem a (Int64.to_int32 v)
  | Reg.Q -> Bytes.set_int64_le st.mem a v

let read_operand st s = function
  | Instr.Imm i -> Int64.logand i (mask_of_size s)
  | Instr.Reg r -> read_gpr st r s
  | Instr.Mem m -> read_mem st (Machine.effective_address st m) s

let write_operand st s v = function
  | Instr.Imm _ -> trap "write to immediate"
  | Instr.Reg r -> write_gpr st r s v
  | Instr.Mem m -> write_mem st (Machine.effective_address st m) s v

let sign_bit v s = Int64.compare (sign_extend v s) 0L < 0

(* ZF/SF from the result masked to the operand size; CF/OF given. *)
let set_flags (st : Machine.state) s res ~cf ~off =
  let res = Int64.logand res (mask_of_size s) in
  st.zf <- Int64.equal res 0L;
  st.sf <- sign_bit res s;
  st.cf <- cf;
  st.off <- off

let set_flags_logic st s res = set_flags st s res ~cf:false ~off:false

let set_flags_add st s a b res =
  let m = mask_of_size s in
  let a = Int64.logand a m and b = Int64.logand b m in
  let r = Int64.logand res m in
  set_flags st s res
    ~cf:(Int64.unsigned_compare r a < 0 || Int64.unsigned_compare r b < 0)
    ~off:(sign_bit a s = sign_bit b s && sign_bit r s <> sign_bit a s)

let set_flags_sub st s a b res =
  let m = mask_of_size s in
  let a = Int64.logand a m and b = Int64.logand b m in
  set_flags st s res
    ~cf:(Int64.unsigned_compare a b < 0)
    ~off:(sign_bit a s <> sign_bit b s && sign_bit (Int64.logand res m) s <> sign_bit a s)

let eval_cond (st : Machine.state) c =
  Cond.eval c ~zf:st.zf ~sf:st.sf ~cf:st.cf ~of_:st.off

let rsp_i = Reg.gpr_index Reg.RSP

let push (st : Machine.state) v =
  let sp = Int64.sub st.gpr.{rsp_i} 8L in
  st.gpr.{rsp_i} <- sp;
  write_mem st sp Reg.Q v

let pop (st : Machine.state) =
  let sp = st.gpr.{rsp_i} in
  let v = read_mem st sp Reg.Q in
  st.gpr.{rsp_i} <- Int64.add sp 8L;
  v

let lane (st : Machine.state) x l = st.simd.{(x * 8) + l}

let set_lane (st : Machine.state) x l v = st.simd.{(x * 8) + l} <- v

let exec_alu st op s src dst =
  let a = read_operand st s dst and b = read_operand st s src in
  let res =
    match op with
    | Instr.Add -> Int64.add a b
    | Instr.Sub -> Int64.sub a b
    | Instr.Imul -> Int64.mul (sign_extend a s) (sign_extend b s)
    | Instr.And -> Int64.logand a b
    | Instr.Or -> Int64.logor a b
    | Instr.Xor -> Int64.logxor a b
  in
  (match op with
  | Instr.Add -> set_flags_add st s a b res
  | Instr.Sub -> set_flags_sub st s a b res
  | Instr.Imul | Instr.And | Instr.Or | Instr.Xor -> set_flags_logic st s res);
  write_operand st s res dst

let exec_shift st k s amt dst =
  let a = read_operand st s dst in
  let n =
    match amt with
    | Instr.Amt_imm n -> n
    | Instr.Amt_cl -> Int64.to_int (read_gpr st Reg.RCX Reg.B)
  in
  let n = n land (if s = Reg.Q then 63 else 31) in
  let res =
    match k with
    | Instr.Shl -> Int64.shift_left a n
    | Instr.Sar -> Int64.shift_right (sign_extend a s) n
    | Instr.Shr -> Int64.shift_right_logical (Int64.logand a (mask_of_size s)) n
  in
  set_flags_logic st s res;
  write_operand st s res dst

let exec_xor st n a b d =
  for l = 0 to n - 1 do
    set_lane st d l (Int64.logxor (lane st a l) (lane st b l))
  done

(* A VEX.128 (width 2) or VEX.256 (width 4) write leaves the register's
   lanes from [width] to lane 7 (MAXVL 512) zero. *)
let clear_above st x width =
  for l = width to 7 do
    set_lane st x l 0L
  done

(* vptest over the low [n] lanes. *)
let exec_test st n a b =
  let and_zero = ref true and andn_zero = ref true in
  for l = 0 to n - 1 do
    let va = lane st a l and vb = lane st b l in
    if not (Int64.equal (Int64.logand vb va) 0L) then and_zero := false;
    if not (Int64.equal (Int64.logand vb (Int64.lognot va)) 0L) then
      andn_zero := false
  done;
  st.Machine.zf <- !and_zero;
  st.Machine.cf <- !andn_zero;
  st.Machine.sf <- false;
  st.Machine.off <- false

(* Execute exactly one instruction; same contract as [Machine.step]. *)
let step (img : Machine.image) (st : Machine.state) =
  let ip = st.ip in
  let ins = img.code.(ip) in
  st.cycles <- st.cycles +. img.costs.(ip);
  st.steps <- st.steps + 1;
  st.ip <- ip + 1;
  (match ins.op with
  | Instr.Mov (s, src, dst) -> write_operand st s (read_operand st s src) dst
  | Instr.Movslq (src, r) ->
    write_gpr st r Reg.Q (sign_extend (read_operand st Reg.D src) Reg.D)
  | Instr.Movzbq (src, r) -> write_gpr st r Reg.Q (read_operand st Reg.B src)
  | Instr.Lea (m, r) -> write_gpr st r Reg.Q (Machine.effective_address st m)
  | Instr.Alu (op, s, src, dst) -> exec_alu st op s src dst
  | Instr.Shift (k, s, amt, dst) -> exec_shift st k s amt dst
  | Instr.Neg (s, dst) ->
    let a = read_operand st s dst in
    let res = Int64.neg a in
    set_flags_sub st s 0L a res;
    write_operand st s res dst
  | Instr.Not (s, dst) ->
    write_operand st s (Int64.lognot (read_operand st s dst)) dst
  | Instr.Cmp (s, src, dst) ->
    let a = read_operand st s dst and b = read_operand st s src in
    set_flags_sub st s a b (Int64.sub a b)
  | Instr.Test (s, src, dst) ->
    let a = read_operand st s dst and b = read_operand st s src in
    set_flags_logic st s (Int64.logand a b)
  | Instr.Set (c, dst) ->
    write_operand st Reg.B (if eval_cond st c then 1L else 0L) dst
  | Instr.Jmp _ -> (
    match img.links.(ip) with
    | L_target t -> st.ip <- t
    | L_detect -> raise (Machine.Halt Detected)
    | _ -> trap "bad jmp link")
  | Instr.Jcc (c, _) ->
    if eval_cond st c then (
      match img.links.(ip) with
      | L_target t -> st.ip <- t
      | L_detect -> raise (Machine.Halt Detected)
      | _ -> trap "bad jcc link")
  | Instr.Call _ -> (
    match img.links.(ip) with
    | L_call entry ->
      push st (Int64.of_int st.ip);
      st.ip <- entry
    | L_print -> st.out_rev <- st.gpr.{Reg.gpr_index Reg.RDI} :: st.out_rev
    | L_detect -> raise (Machine.Halt Detected)
    | _ -> trap "bad call link")
  | Instr.Ret ->
    let ra = Int64.to_int (pop st) in
    if ra = img.halt_ip then raise (Machine.Halt (Exit (Machine.output st)))
    else if ra < 0 || ra >= Array.length img.code then
      trap "wild return to %d" ra
    else st.ip <- ra
  | Instr.Push src -> push st (read_operand st Reg.Q src)
  | Instr.Pop r -> write_gpr st r Reg.Q (pop st)
  | Instr.Cqto ->
    let a = st.gpr.{Reg.gpr_index Reg.RAX} in
    st.gpr.{Reg.gpr_index Reg.RDX} <- Int64.shift_right a 63
  | Instr.Idiv (s, src) ->
    if s <> Reg.Q then trap "idiv: only 64-bit division is supported";
    let d = read_operand st s src in
    if Int64.equal d 0L then trap "divide by zero";
    let rax = st.gpr.{Reg.gpr_index Reg.RAX} in
    let rdx = st.gpr.{Reg.gpr_index Reg.RDX} in
    if not (Int64.equal rdx (Int64.shift_right rax 63)) then
      trap "divide overflow"
    else begin
      st.gpr.{Reg.gpr_index Reg.RAX} <- Int64.div rax d;
      st.gpr.{Reg.gpr_index Reg.RDX} <- Int64.rem rax d
    end
  | Instr.MovQ_to_xmm (src, x) ->
    set_lane st x 0 (read_operand st Reg.Q src);
    clear_above st x 1
  | Instr.MovQ_from_xmm (x, r) -> write_gpr st r Reg.Q (lane st x 0)
  | Instr.Pinsrq (l, src, x) ->
    let v =
      match src with
      | Instr.Psrc_reg r -> read_gpr st r Reg.Q
      | Instr.Psrc_mem m -> read_mem st (Machine.effective_address st m) Reg.Q
    in
    set_lane st x l v;
    clear_above st x 2
  | Instr.Pextrq (l, x, r) -> write_gpr st r Reg.Q (lane st x l)
  | Instr.Vinserti128 (half, s, a, d) ->
    let lo0, lo1 =
      if half = 0 then (lane st s 0, lane st s 1) else (lane st a 0, lane st a 1)
    in
    let hi0, hi1 =
      if half = 1 then (lane st s 0, lane st s 1) else (lane st a 2, lane st a 3)
    in
    set_lane st d 0 lo0;
    set_lane st d 1 lo1;
    set_lane st d 2 hi0;
    set_lane st d 3 hi1;
    clear_above st d 4
  | Instr.Vpxor (a, b, d) ->
    exec_xor st 4 a b d;
    clear_above st d 4
  | Instr.Vptest (a, b) -> exec_test st 4 a b
  | Instr.Vinserti64x4 (half, src, a, d) ->
    (* read everything first: src/a may alias d *)
    let src_lanes = Array.init 4 (lane st src) in
    let a_lanes = Array.init 8 (lane st a) in
    for l = 0 to 7 do
      let v =
        if half = 0 && l < 4 then src_lanes.(l)
        else if half = 1 && l >= 4 then src_lanes.(l - 4)
        else a_lanes.(l)
      in
      set_lane st d l v
    done
  | Instr.Vpxorq512 (a, b, d) -> exec_xor st 8 a b d
  | Instr.Vptestmq512 (a, b) ->
    (* vptestmq into %k1, then kortestw %k1, %k1 *)
    let k = ref 0 in
    for l = 0 to 7 do
      if not (Int64.equal (Int64.logand (lane st b l) (lane st a l)) 0L) then
        k := !k lor (1 lsl l)
    done;
    st.zf <- !k = 0;
    st.cf <- !k = 0xFFFF;
    st.sf <- false;
    st.off <- false);
  ip

(* Run loop with [Machine.run]'s contract: fuel checked before the
   bounds check, every retired instruction observed (the halting one
   too), a trap surfaces as [Crash msg]. *)
let run ?(fuel = Machine.default_fuel) ?(on_step = fun _ _ -> ())
    (img : Machine.image) (st : Machine.state) =
  let len = Array.length img.code in
  try
    while st.steps < fuel do
      if st.ip >= len || st.ip < 0 then trap "control reached 0x%x" st.ip;
      let ip0 = st.ip in
      match step img st with
      | idx -> on_step st idx
      | exception Machine.Halt o ->
        on_step st ip0;
        raise (Machine.Halt o)
    done;
    Machine.Timeout
  with
  | Machine.Halt o -> o
  | Machine.Trap msg -> Machine.Crash msg

let run_fresh ?fuel ?on_step img =
  let st = Machine.fresh_state img in
  let o = run ?fuel ?on_step img st in
  (o, st)
