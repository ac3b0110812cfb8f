(* Tests for the pre-decoded threaded dispatcher and the machine's own
   lowered stepper, both checked against the reference stepper
   ([Ref_step]): round-trip identity (final state, retirement stream,
   single-stepping, outcome and trap message) over fixtures, the
   protected catalogue and the example C programs; superinstruction
   fusion boundary cases (join targets, avoid masks, fuel running out
   mid-pair, resuming at a pair's second half); and the dispatch
   counters. *)

open Ferrum_asm
module Machine = Ferrum_machine.Machine
module Predecode = Ferrum_machine.Predecode
module Pipeline = Ferrum_eddi.Pipeline
module Ferrum_pass = Ferrum_eddi.Ferrum_pass
module Clite = Ferrum_clite.Clite
module Technique = Ferrum_eddi.Technique
module Catalog = Ferrum_workloads.Catalog

let original = Instr.original

(* A loop fixture: flag-setting ALU traffic, a conditional back edge
   (so cmp+jcc fuses on a loop-carried pair), memory stores and a
   print.  Small enough to single-step exhaustively. *)
let loop_program () =
  Prog.program
    [ Prog.func "main"
        [ Prog.block "main"
            [ original (Instr.Mov (Reg.Q, Instr.Imm 0L, Instr.Reg Reg.RAX));
              original (Instr.Mov (Reg.Q, Instr.Imm 0L, Instr.Reg Reg.RCX)) ];
          Prog.block "loop"
            [ original
                (Instr.Alu
                   (Instr.Add, Reg.Q, Instr.Reg Reg.RCX, Instr.Reg Reg.RAX));
              original
                (Instr.Mov
                   ( Reg.Q, Instr.Reg Reg.RAX,
                     Instr.Mem (Instr.mem ~index:Reg.RCX ~scale:8 3600) ));
              original
                (Instr.Alu (Instr.Add, Reg.Q, Instr.Imm 1L, Instr.Reg Reg.RCX));
              original (Instr.Cmp (Reg.Q, Instr.Imm 50L, Instr.Reg Reg.RCX));
              original (Instr.Jcc (Cond.NE, "loop")) ];
          Prog.block "done"
            [ original
                (Instr.Mov (Reg.Q, Instr.Reg Reg.RAX, Instr.Reg Reg.RDI));
              original (Instr.Call "print_i64");
              original Instr.Ret ] ] ]

(* Every shape that has no specialized arm or flat pair body because
   no catalogue program selects it, so it runs [Machine.lower]'s generic
   body under [Predecode] too: a Q store of an immediate, [cmp]/[test]
   against an immediate, [test] of registers, [and]/[or], [movslq] from
   a register and from memory, [movq]/[pextrq] out of an XMM register,
   512-bit xor and test, and [vptest] and [cmpq] feeding a [jcc] to a
   local label.  [trap], when given, runs first in the exit block: an
   out-of-range memory operand that ends the run in a crash. *)
let generic_program ?trap () =
  let o = original in
  let q = Reg.Q and r x = Instr.Reg x and imm v = Instr.Imm v in
  let m ?base d = Instr.Mem (Instr.mem ?base d) in
  Prog.program
    [ Prog.func "main"
        [ Prog.block "main"
            [ o (Instr.Mov (q, imm 0x123456789abcdefL, r Reg.RAX));
              o (Instr.Mov (q, imm 0L, r Reg.R8)) ];
          Prog.block "loop"
            [ o (Instr.Mov (q, imm (-5L), m 256));
              o (Instr.Movslq (m 256, Reg.RBX));
              o (Instr.Movslq (r Reg.RAX, Reg.RCX));
              o (Instr.Alu (Instr.And, q, imm 0xFF0FL, r Reg.RCX));
              o (Instr.Alu (Instr.Or, q, r Reg.R8, r Reg.RCX));
              o (Instr.Test (q, r Reg.RCX, r Reg.RCX));
              o (Instr.Test (q, imm 1L, r Reg.R8));
              o (Instr.MovQ_to_xmm (r Reg.RCX, 1));
              o (Instr.Pinsrq (1, Instr.Psrc_reg Reg.RBX, 1));
              o (Instr.Vpxorq512 (1, 2, 2));
              o (Instr.Vptestmq512 (2, 1));
              o (Instr.Vinserti64x4 (1, 1, 0, 3));
              o (Instr.Vptestmq512 (3, 3));
              o (Instr.Set (Cond.E, r Reg.R9));
              o (Instr.MovQ_from_xmm (2, Reg.RDX));
              o (Instr.Pextrq (1, 1, Reg.RSI));
              o (Instr.Alu (Instr.Add, q, r Reg.RDX, r Reg.RSI));
              o (Instr.Alu (Instr.Add, q, imm 1L, r Reg.R8));
              o (Instr.Vptest (1, 2));
              o (Instr.Jcc (Cond.E, "skip")) ];
          Prog.block "odd" [ o (Instr.Alu (Instr.Add, q, r Reg.RSI, r Reg.RDX)) ];
          Prog.block "skip"
            [ o (Instr.Cmp (q, imm 4L, r Reg.R8));
              o (Instr.Jcc (Cond.NE, "loop")) ];
          Prog.block "done"
            (Option.to_list (Option.map o trap)
            @ [ o (Instr.Mov (q, r Reg.RDX, r Reg.RDI));
                o (Instr.Call "print_i64");
                o (Instr.Mov (q, r Reg.RSI, r Reg.RDI));
                o (Instr.Call "print_i64");
                o Instr.Ret ]) ] ]

(* VEX upper-lane zeroing in every specialized SIMD arm and in the flat
   [vpxor]+[vptest] body: in each trip round the loop, every VEX write
   lands on a register whose eight lanes were all just set (by a 512-bit
   EVEX write) and that nothing else writes, so the final state shows
   which lanes it zeroed. *)
let vex_program () =
  let o = original in
  let q = Reg.Q and r x = Instr.Reg x and m = Instr.Mem (Instr.mem 256) in
  let all_lanes d = o (Instr.Vpxorq512 (15, 0, d)) in
  Prog.program
    [ Prog.func "main"
        [ Prog.block "main"
            [ o (Instr.Mov (q, Instr.Imm 0x1111L, r Reg.RAX));
              o (Instr.Mov (q, Instr.Imm 0x2222L, m));
              o (Instr.MovQ_to_xmm (r Reg.RAX, 1));
              o (Instr.Pinsrq (1, Instr.Psrc_reg Reg.RAX, 1));
              o (Instr.Vinserti128 (1, 1, 1, 1));
              o (Instr.Vinserti64x4 (1, 1, 1, 0));
              o (Instr.Mov (q, Instr.Imm 0L, r Reg.RCX)) ];
          Prog.block "loop"
            (List.concat_map
               (fun (d, vex) -> [ all_lanes d; o vex ])
               [ (2, Instr.MovQ_to_xmm (r Reg.RAX, 2));
                 (3, Instr.MovQ_to_xmm (Instr.Imm 5L, 3));
                 (4, Instr.MovQ_to_xmm (m, 4));
                 (5, Instr.Pinsrq (1, Instr.Psrc_reg Reg.RAX, 5));
                 (6, Instr.Pinsrq (0, Instr.Psrc_mem (Instr.mem 256), 6));
                 (7, Instr.Vinserti128 (1, 1, 0, 7));
                 (8, Instr.Vpxor (1, 0, 8)) ]
            @ [ all_lanes 9;
                o (Instr.Vpxor (1, 0, 9));
                o (Instr.Vptest (9, 9));
                o (Instr.Alu (Instr.Add, q, Instr.Imm 1L, r Reg.RCX));
                o (Instr.Cmp (q, Instr.Imm 4L, r Reg.RCX));
                o (Instr.Jcc (Cond.NE, "loop")) ]);
          Prog.block "done" [ o Instr.Ret ] ] ]

(* Fixtures every round-trip suite runs; the two trap variants fault on
   an operand at 0x123456789abcdef, far outside the 1 MiB memory. *)
let fixtures () =
  let far d = Instr.Mem (Instr.mem ~base:Reg.RAX d) in
  [ ("loop fixture", loop_program ());
    ("VEX zeroing", vex_program ());
    ("generic bodies", generic_program ());
    ( "generic bodies, store trap",
      generic_program ~trap:(Instr.Mov (Reg.Q, Instr.Imm 7L, far 0)) () );
    ( "generic bodies, movslq trap",
      generic_program ~trap:(Instr.Movslq (far 8, Reg.RBX)) () ) ]

(* ---- helpers ---- *)

let check_state_eq name (want : Machine.state) (got : Machine.state) =
  Alcotest.(check (array int64)) (name ^ ": gpr")
    (Machine.dump_regfile want.Machine.gpr)
    (Machine.dump_regfile got.Machine.gpr);
  Alcotest.(check (array int64)) (name ^ ": simd")
    (Machine.dump_regfile want.Machine.simd)
    (Machine.dump_regfile got.Machine.simd);
  Alcotest.(check bool) (name ^ ": zf") want.Machine.zf got.Machine.zf;
  Alcotest.(check bool) (name ^ ": sf") want.Machine.sf got.Machine.sf;
  Alcotest.(check bool) (name ^ ": cf") want.Machine.cf got.Machine.cf;
  Alcotest.(check bool) (name ^ ": off") want.Machine.off got.Machine.off;
  Alcotest.(check int) (name ^ ": ip") want.Machine.ip got.Machine.ip;
  Alcotest.(check int) (name ^ ": steps") want.Machine.steps got.Machine.steps;
  Alcotest.(check (float 0.)) (name ^ ": cycles") want.Machine.cycles
    got.Machine.cycles;
  Alcotest.(check (list int64)) (name ^ ": output") want.Machine.out_rev
    got.Machine.out_rev;
  Alcotest.(check bool) (name ^ ": memory") true
    (Bytes.equal want.Machine.mem got.Machine.mem)

(* Outcomes compared with their crash message: trap text is part of
   the contract (campaign records carry it). *)
let check_outcome name want got =
  Alcotest.(check string) (name ^ ": outcome")
    (Fmt.str "%a" Machine.pp_outcome want)
    (Fmt.str "%a" Machine.pp_outcome got)

(* [Machine.run] and [Predecode.exec] against the reference stepper. *)
let check_run_eq name ?fuel img =
  let o0, st0 = Ref_step.run_fresh ?fuel img in
  let o1, st1 = Machine.run_fresh ?fuel img in
  check_outcome (name ^ " machine") o0 o1;
  check_state_eq (name ^ " machine") st0 st1;
  let st2 = Machine.fresh_state img in
  let o2 = Predecode.exec ?fuel (Predecode.get img) st2 in
  check_outcome (name ^ " predecode") o0 o2;
  check_state_eq (name ^ " predecode") st0 st2

let each_fixture f =
  List.iter (fun (name, p) -> f name (Machine.load p)) (fixtures ())

(* ---- decode round-trip: full-run identity ---- *)

let test_fixture_roundtrip () =
  each_fixture (fun name img -> check_run_eq name img);
  (* the fixtures reach the outcomes they are meant to cover *)
  List.iter2
    (fun (name, p) want ->
      let o = fst (Ref_step.run_fresh (Machine.load p)) in
      Alcotest.(check string) (name ^ ": reference outcome") want
        (match o with Machine.Exit _ -> "exit" | o -> Fmt.str "%a" Machine.pp_outcome o))
    (fixtures ())
    [ "exit"; "exit"; "exit"; "crash (memory access at 0x123456789abcdef)";
      "crash (memory access at 0x123456789abcdf7)" ]

let example_path p = if Sys.file_exists p then p else Filename.concat ".." p

(* The catalogue under every technique and under FERRUM's ZMM
   configuration, and the example C programs under every technique. *)
let test_catalogue_roundtrip () =
  let check name t ?ferrum_config m =
    let res = Pipeline.protect ?ferrum_config t m in
    check_run_eq
      (Printf.sprintf "%s/%s" name (Technique.short_name t))
      (Machine.load res.Pipeline.program)
  in
  List.iter
    (fun (e : Catalog.entry) ->
      List.iter (fun t -> check e.Catalog.name t (e.Catalog.build ())) Technique.all;
      check (e.Catalog.name ^ " zmm") Technique.Ferrum
        ~ferrum_config:Ferrum_pass.zmm_config (e.Catalog.build ()))
    Catalog.all;
  List.iter
    (fun path ->
      let m = Clite.compile_file (example_path path) in
      List.iter (fun t -> check path t m) Technique.all)
    [ "examples/programs/matmul.c"; "examples/programs/sort.c" ]

(* ---- observed path: same retirement stream as the reference ---- *)

let test_observed_stream_identity () =
  each_fixture (fun name img ->
      let observe run =
        let seen = ref [] in
        let on_step (st : Machine.state) idx =
          seen := (idx, st.Machine.steps, st.Machine.cycles) :: !seen
        in
        let st = Machine.fresh_state img in
        let o = run ~on_step st in
        (o, st, List.rev !seen)
      in
      let o0, st0, seen0 = observe (fun ~on_step st -> Ref_step.run ~on_step img st) in
      List.iter
        (fun (engine, run) ->
          let name = name ^ " " ^ engine in
          let o, st, seen = observe run in
          check_outcome name o0 o;
          Alcotest.(check (list (triple int int (float 0.))))
            (name ^ ": retirement stream") seen0 seen;
          check_state_eq name st0 st)
        [ ("machine", fun ~on_step st -> Machine.run ~on_step img st);
          ( "predecode",
            fun ~on_step st ->
              Predecode.exec_observed ~on_step (Predecode.get img) st ) ])

(* ---- single steps in lockstep with the reference ---- *)

let test_step1_lockstep () =
  each_fixture (fun name img ->
      let d = Predecode.get img in
      let step f st =
        try `Idx (f st) with
        | Machine.Halt o -> `End (Fmt.str "%a" Machine.pp_outcome o)
        | Machine.Trap m -> `End m
      in
      let st0 = Machine.fresh_state img in
      let st1 = Machine.fresh_state img and st2 = Machine.fresh_state img in
      let rec go () =
        let r = step (Ref_step.step img) st0 in
        if step (Machine.step img) st1 <> r || step (Predecode.step1 d) st2 <> r
        then Alcotest.failf "%s: steppers diverged at step %d" name st0.steps;
        Alcotest.(check (float 0.)) (name ^ ": lockstep cycles")
          st0.Machine.cycles st2.Machine.cycles;
        match r with `Idx _ -> go () | `End _ -> ()
      in
      go ();
      check_state_eq (name ^ " Machine.step") st0 st1;
      check_state_eq (name ^ " step1") st0 st2)

(* ---- fusion boundary cases ---- *)

(* A branch target is a join point, so the boundary just before it must
   not fuse: jumping to the target would otherwise land in the middle
   of a pair. *)
let test_join_target_unfused () =
  each_fixture (fun name img ->
      let d = Predecode.get img in
      Alcotest.(check bool) (name ^ ": some pairs fused") true
        (Predecode.fused_pairs d > 0);
      let checked = ref 0 in
      Array.iter
        (fun link ->
          match link with
          | Machine.L_target t | Machine.L_call t ->
            if t > 0 && t < Predecode.length d then begin
              incr checked;
              Alcotest.(check string)
                (Printf.sprintf "%s: boundary into join %d unfused" name t)
                ""
                (Predecode.fused_name d (t - 1))
            end
          | _ -> ())
        img.Machine.links;
      Alcotest.(check bool) (name ^ ": has join targets") true (!checked > 0);
      (* Each fixture's loop compare pairs with its conditional branch. *)
      let cmp_jcc =
        List.exists
          (fun (n, c) -> n = "cmp+jcc" && c > 0)
          (Predecode.pattern_counts d)
      in
      Alcotest.(check bool) (name ^ ": cmp+jcc fused in loop") true cmp_jcc)

(* [decode ~avoid] masks fusion at the flagged indices; an all-true
   mask is the fully unfused dispatcher and must still be identical. *)
let test_avoid_mask_unfuses () =
  each_fixture (fun name img ->
      let avoid = Array.make (Array.length img.Machine.code) true in
      let d = Predecode.decode ~avoid img in
      Alcotest.(check int) (name ^ ": no pairs under full avoid mask") 0
        (Predecode.fused_pairs d);
      let o1, st1 = Ref_step.run_fresh img in
      let st2 = Machine.fresh_state img in
      let o2 = Predecode.exec d st2 in
      check_outcome name o1 o2;
      check_state_eq (name ^ " avoid mask") st1 st2)

(* Fuel that lands mid-pair must time out at exactly the reference
   step count: the fused thunk checks fuel between its halves. *)
let test_fuel_mid_pair () =
  each_fixture (fun name img ->
      for fuel = 40 to 60 do
        let name = Printf.sprintf "%s fuel=%d" name fuel in
        check_run_eq name ~fuel img;
        Alcotest.(check bool) (name ^ ": timed out") true
          (fst (Ref_step.run_fresh ~fuel img) = Machine.Timeout)
      done)

(* Resuming [exec] from a state parked mid-stream — including at the
   second half of a fused pair, which is how the injection engines
   resume after a prefix replay — must match the reference from that
   point. *)
let test_resume_mid_pair () =
  each_fixture (fun name img ->
      let d = Predecode.get img in
      for k = 1 to 9 do
        let name = Printf.sprintf "%s resume k=%d" name k in
        let st1 = Machine.fresh_state img in
        for _ = 1 to k do
          ignore (Ref_step.step img st1)
        done;
        let o1 = Ref_step.run img st1 in
        let st2 = Machine.fresh_state img in
        for _ = 1 to k do
          ignore (Predecode.step1 d st2)
        done;
        let o2 = Predecode.exec d st2 in
        check_outcome name o1 o2;
        check_state_eq name st1 st2
      done)

(* ---- counters and decode cache ---- *)

let test_counters_and_cache () =
  let img = Machine.load (loop_program ()) in
  Predecode.reset_counters ();
  let d = Predecode.get img in
  Alcotest.(check int) "decode counted" 1 (Predecode.decodes ());
  Alcotest.(check bool) "cache hit is physical" true (Predecode.get img == d);
  Alcotest.(check int) "cache hit decodes nothing" 1 (Predecode.decodes ());
  Predecode.reset_counters ();
  let st = Machine.fresh_state img in
  ignore (Predecode.exec d st);
  Alcotest.(check int) "fast_steps = dynamic steps" st.Machine.steps
    (Predecode.fast_steps ());
  let fused = Predecode.fused_steps () in
  Alcotest.(check bool) "fused_steps even" true (fused mod 2 = 0);
  Alcotest.(check bool) "fused within fast" true
    (fused > 0 && fused <= Predecode.fast_steps ())

let () =
  Alcotest.run "predecode"
    [
      ( "roundtrip",
        [ Alcotest.test_case "loop fixture" `Quick test_fixture_roundtrip;
          Alcotest.test_case "observed stream" `Quick
            test_observed_stream_identity;
          Alcotest.test_case "step1 lockstep" `Quick test_step1_lockstep;
          Alcotest.test_case "catalogue x techniques" `Slow
            test_catalogue_roundtrip ] );
      ( "fusion",
        [ Alcotest.test_case "join targets unfused" `Quick
            test_join_target_unfused;
          Alcotest.test_case "avoid mask" `Quick test_avoid_mask_unfuses;
          Alcotest.test_case "fuel mid-pair" `Quick test_fuel_mid_pair;
          Alcotest.test_case "resume mid-pair" `Quick test_resume_mid_pair ] );
      ( "counters",
        [ Alcotest.test_case "counters and cache" `Quick
            test_counters_and_cache ] );
    ]
