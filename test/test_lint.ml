(* The static protection verifier, attacked from both sides:

   - negative corpus: hand-mutated protected shapes (checker deleted,
     check moved after its store, spare clobbered while live, SIMD
     batch never flushed, pair verification removed) must each produce
     exactly the expected finding kind;
   - positive: the whole catalogue under all three techniques lints
     with zero error-severity findings;
   - the JSONL export validates against its own schema and is
     byte-reproducible;
   - cross-validation: every unchecked-site / output-before-check /
     unprotected-program SDC escape of a fixed-seed vulnmap campaign
     lies inside the statically predicted uncovered set;
   - printer/parser round-trip over the catalogue in every protected
     form. *)

open Ferrum_asm
module Shadow = Ferrum_analysis.Shadow
module Lint = Ferrum_analysis.Lint
module Pipeline = Ferrum_eddi.Pipeline
module Technique = Ferrum_eddi.Technique
module Catalog = Ferrum_workloads.Catalog
module Metrics = Ferrum_telemetry.Metrics
module Json = Ferrum_telemetry.Json
module I = Instr

let kind_t =
  Alcotest.testable
    (fun ppf k -> Fmt.string ppf (Shadow.kind_name k))
    ( = )

let kinds fs = List.map (fun (f : Shadow.finding) -> f.Shadow.f_kind) fs

let severe fs =
  List.filter
    (fun (f : Shadow.finding) -> f.Shadow.f_severity = Shadow.Error)
    fs

(* ---- the hand-built corpus ---- *)

let o op = I.original op
let movi r v = o (I.Mov (Reg.Q, I.Imm (Int64.of_int v), I.Reg r))
let store r d = o (I.Mov (Reg.Q, I.Reg r, I.Mem (I.mem ~base:Reg.RBP d)))
let ret = o I.Ret

(* Fig. 4 re-execution protection of `movq $5, %rax` with spare rcx,
   followed by a store (the sync point) and a return. *)
let protected_mov ~checker ~dup ~late_check extra =
  let dup_i = [ I.dup (I.Mov (Reg.Q, I.Imm 5L, I.Reg Reg.RCX)) ] in
  let chk =
    [
      I.check (I.Cmp (Reg.Q, I.Reg Reg.RCX, I.Reg Reg.RAX));
      I.check (I.Jcc (Cond.NE, Prog.exit_function_label));
    ]
  in
  Prog.func "main"
    [
      Prog.block "entry"
        ((if dup then dup_i else [])
        @ [ movi Reg.RAX 5 ]
        @ (if checker then chk else [])
        @ [ store Reg.RAX (-8) ]
        @ (if late_check then chk else [])
        @ extra @ [ ret ]);
    ]

let hybrid = Lint.profile_hybrid
let ferrum = Lint.profile_ferrum

let test_clean_shape () =
  let f = protected_mov ~checker:true ~dup:true ~late_check:false [] in
  Alcotest.(check (list kind_t)) "no findings" [] (kinds (Shadow.scan_func hybrid f))

let test_checker_deleted () =
  let f = protected_mov ~checker:false ~dup:true ~late_check:false [] in
  Alcotest.(check (list kind_t)) "unchecked sync"
    [ Shadow.Unchecked_sync ]
    (kinds (severe (Shadow.scan_func hybrid f)))

let test_check_after_store () =
  (* the duplicate is checked, but only after the store retired: one
     finding, and exactly one — the late checker must discharge
     silently rather than count as dead code *)
  let f = protected_mov ~checker:false ~dup:true ~late_check:true [] in
  Alcotest.(check (list kind_t)) "check moved after its store"
    [ Shadow.Unchecked_sync ]
    (kinds (Shadow.scan_func hybrid f))

let test_dup_deleted () =
  let f = protected_mov ~checker:true ~dup:false ~late_check:false [] in
  let fs = Shadow.scan_func hybrid f in
  Alcotest.(check (list kind_t)) "orphan checker"
    [ Shadow.Checker_dead_code ]
    (kinds (severe fs));
  Alcotest.(check bool) "unprotected original warned" true
    (List.mem Shadow.Missing_duplicate (kinds fs))

let test_both_deleted () =
  let f = protected_mov ~checker:false ~dup:false ~late_check:false [] in
  Alcotest.(check (list kind_t)) "bare original is only a warning"
    [ Shadow.Missing_duplicate ]
    (kinds (Shadow.scan_func hybrid f));
  Alcotest.(check (list kind_t)) "no errors" []
    (kinds (severe (Shadow.scan_func hybrid f)))

let test_spare_not_dead () =
  (* rcx is requisitioned as the spare while a downstream store still
     reads its original value *)
  let f =
    protected_mov ~checker:true ~dup:true ~late_check:false
      [ store Reg.RCX (-16) ]
  in
  Alcotest.(check (list kind_t)) "clobbered live spare"
    [ Shadow.Spare_not_dead ]
    (kinds (severe (Shadow.scan_func hybrid f)))

(* Figs. 6-7: a SIMD-batched duplicate comparison. *)
let simd_block ~flushed =
  let deposit =
    [
      I.dup (I.MovQ_to_xmm (I.Reg Reg.RBX, 14));
      o (I.Mov (Reg.Q, I.Reg Reg.RBX, I.Reg Reg.RAX));
      I.instrumentation (I.MovQ_to_xmm (I.Reg Reg.RAX, 12));
    ]
  in
  let flush =
    [
      I.check (I.Vpxor (12, 14, 14));
      I.check (I.Vptest (14, 14));
      I.check (I.Jcc (Cond.NE, Prog.exit_function_label));
    ]
  in
  Prog.func "main"
    [
      Prog.block "entry"
        (deposit @ (if flushed then flush else []) @ [ ret ]);
    ]

let test_simd_flushed () =
  Alcotest.(check (list kind_t)) "flushed batch is clean" []
    (kinds (Shadow.scan_func ferrum (simd_block ~flushed:true)))

let test_simd_unflushed () =
  Alcotest.(check (list kind_t)) "batch never flushed"
    [ Shadow.Simd_batch_unflushed ]
    (kinds (severe (Shadow.scan_func ferrum (simd_block ~flushed:false))))

(* Fig. 5: protected compare-and-branch; the target block must open
   with the deferred pair verification. *)
let cmp_jcc_func ~entry_check =
  let target_checks =
    [
      I.check (I.Cmp (Reg.B, I.Reg Reg.RDX, I.Reg Reg.RCX));
      I.check (I.Jcc (Cond.NE, Prog.exit_function_label));
    ]
  in
  Prog.func "main"
    [
      Prog.block "entry"
        [
          o (I.Cmp (Reg.Q, I.Reg Reg.RBX, I.Reg Reg.RAX));
          I.instrumentation (I.Set (Cond.L, I.Reg Reg.RCX));
          I.dup (I.Cmp (Reg.Q, I.Reg Reg.RBX, I.Reg Reg.RAX));
          I.dup (I.Set (Cond.L, I.Reg Reg.RDX));
          o (I.Jcc (Cond.L, "taken"));
          I.check (I.Cmp (Reg.B, I.Reg Reg.RDX, I.Reg Reg.RCX));
          I.check (I.Jcc (Cond.NE, Prog.exit_function_label));
        ];
      Prog.block "fall" [ ret ];
      Prog.block "taken"
        ((if entry_check then target_checks else []) @ [ ret ]);
    ]

let test_pair_checked_branch () =
  Alcotest.(check (list kind_t)) "paired branch is clean" []
    (kinds (Shadow.scan_func ferrum (cmp_jcc_func ~entry_check:true)))

let test_pair_check_removed () =
  Alcotest.(check (list kind_t)) "missing entry verification"
    [ Shadow.Rflags_unpaired ]
    (kinds (severe (Shadow.scan_func ferrum (cmp_jcc_func ~entry_check:false))))

(* ---- the catalogue lints clean under every technique ---- *)

let test_catalogue_clean () =
  List.iter
    (fun (e : Catalog.entry) ->
      let m = e.Catalog.build () in
      List.iter
        (fun t ->
          let r = Pipeline.protect t m in
          let report = Pipeline.lint ~assert_clean:true r in
          Alcotest.(check int)
            (Fmt.str "%s/%s error findings" e.Catalog.name
               (Technique.short_name t))
            0 (Lint.errors report))
        Technique.all)
    Catalog.all

(* FERRUM protects aggressively enough that the uncovered set is empty
   on the whole catalogue — the static face of the paper's ~0% SDC. *)
let test_ferrum_uncovered_empty () =
  List.iter
    (fun (e : Catalog.entry) ->
      let r = Pipeline.protect Technique.Ferrum (e.Catalog.build ()) in
      let sites, eligible = Lint.uncovered r.Pipeline.program in
      Alcotest.(check int)
        (Fmt.str "%s uncovered" e.Catalog.name)
        0 (List.length sites);
      Alcotest.(check bool) "eligible sites exist" true (eligible > 0))
    Catalog.all

(* ---- JSONL schema + reproducibility ---- *)

let lint_lines (p : Prog.t) report =
  let buf = Buffer.create 4096 in
  let sink = Metrics.buffer_sink buf in
  Metrics.emit sink (Metrics.header ~kind:Lint.metrics_kind []);
  List.iter (Metrics.emit sink) (Lint.rows p report);
  Metrics.close sink;
  Buffer.contents buf

let test_jsonl_schema () =
  let e = List.hd Catalog.all in
  let r = Pipeline.protect Technique.Ferrum (e.Catalog.build ()) in
  let report = Pipeline.lint r in
  let text = lint_lines r.Pipeline.program report in
  match
    Metrics.validate_lines ~kind:Lint.metrics_kind
      ~record_fields:Lint.record_fields
      (Metrics.lines_of_string text)
  with
  | Ok n ->
    Alcotest.(check int) "one row per finding + uncovered site"
      (List.length report.Lint.r_findings
      + List.length report.Lint.r_uncovered)
      n
  | Error msg -> Alcotest.fail msg

let test_jsonl_reproducible () =
  let e = List.hd Catalog.all in
  let once () =
    let r = Pipeline.protect Technique.Ferrum (e.Catalog.build ()) in
    lint_lines r.Pipeline.program (Pipeline.lint r)
  in
  Alcotest.(check string) "byte-identical" (once ()) (once ())

(* ---- cross-validation against the dynamic campaign ---- *)

let crossval_case name technique ~samples () =
  let e = List.hd Catalog.all in
  let m = e.Catalog.build () in
  let r =
    match technique with
    | None -> Pipeline.raw m
    | Some t -> Pipeline.protect t m
  in
  let o =
    Ferrum_report.Crossval.run ~seed:2024L ~samples r.Pipeline.program
  in
  if not (Ferrum_report.Crossval.passed o) then
    Alcotest.failf "%s: %a" name Ferrum_report.Crossval.pp o;
  o

let test_crossval_raw () =
  (* the unprotected program escapes freely: the check must not be
     vacuous *)
  let o = crossval_case "raw" None ~samples:150 () in
  Alcotest.(check bool) "campaign produced checkable escapes" true
    (o.Ferrum_report.Crossval.c_checkable > 0);
  Alcotest.(check int) "all confirmed"
    o.Ferrum_report.Crossval.c_checkable
    o.Ferrum_report.Crossval.c_confirmed

let test_crossval_ir_eddi () =
  ignore (crossval_case "ir-eddi" (Some Technique.Ir_level_eddi) ~samples:150 ())

let test_crossval_ferrum () =
  ignore (crossval_case "ferrum" (Some Technique.Ferrum) ~samples:100 ())

(* ---- printer/parser round-trip over protected programs ---- *)

let test_roundtrip_catalogue () =
  List.iter
    (fun (e : Catalog.entry) ->
      let m = e.Catalog.build () in
      let programs =
        (Pipeline.raw m).Pipeline.program
        :: List.map
             (fun t -> (Pipeline.protect t m).Pipeline.program)
             Technique.all
      in
      List.iter
        (fun p ->
          let text = Printer.program_to_string p in
          let p' = Parser.program text in
          Alcotest.(check bool)
            (Fmt.str "%s round-trips" e.Catalog.name)
            true (p = p'))
        programs)
    Catalog.all

(* Lint's static indices are the machine's: for every block's first
   instruction and every uncovered site, the index the linter reports
   is the one a layout-order count ({!Prog.fold_insns}, the injector's
   convention) reaches, and [Machine.load] put that very instruction
   there. *)
let test_static_indices_agree () =
  List.iter
    (fun (e : Catalog.entry) ->
      List.iter
        (fun t ->
          let p = (Pipeline.protect t (e.build ())).Pipeline.program in
          let code = (Ferrum_machine.Machine.load p).code in
          let sites = fst (Lint.uncovered p) in
          let step (n, k, label) _ (b : Prog.block) ins =
            let k = if String.equal label b.label then k + 1 else 0 in
            let at idx =
              Alcotest.(check bool) (e.name ^ ": " ^ b.label) true
                (idx = n && code.(n) == ins)
            in
            if k = 0 then at (Lint.static_index_of p ~label:b.label ~k);
            List.iter
              (fun (s : Lint.site) ->
                if s.u_label = b.label && s.u_index = k then at s.u_static_index)
              sites;
            (n + 1, k, b.label)
          in
          ignore (Prog.fold_insns step (0, 0, "") p))
        Technique.all)
    Catalog.all

let () =
  Alcotest.run "lint"
    [
      ( "mutations",
        [
          Alcotest.test_case "clean shape" `Quick test_clean_shape;
          Alcotest.test_case "checker deleted" `Quick test_checker_deleted;
          Alcotest.test_case "check after store" `Quick test_check_after_store;
          Alcotest.test_case "dup deleted" `Quick test_dup_deleted;
          Alcotest.test_case "both deleted" `Quick test_both_deleted;
          Alcotest.test_case "spare not dead" `Quick test_spare_not_dead;
          Alcotest.test_case "simd flushed" `Quick test_simd_flushed;
          Alcotest.test_case "simd unflushed" `Quick test_simd_unflushed;
          Alcotest.test_case "paired branch" `Quick test_pair_checked_branch;
          Alcotest.test_case "pair check removed" `Quick
            test_pair_check_removed;
        ] );
      ( "catalogue",
        [
          Alcotest.test_case "zero errors everywhere" `Slow
            test_catalogue_clean;
          Alcotest.test_case "ferrum uncovered set empty" `Slow
            test_ferrum_uncovered_empty;
          Alcotest.test_case "round-trip all techniques" `Slow
            test_roundtrip_catalogue;
          Alcotest.test_case "static indices = machine's" `Slow
            test_static_indices_agree;
        ] );
      ( "jsonl",
        [
          Alcotest.test_case "schema valid" `Quick test_jsonl_schema;
          Alcotest.test_case "byte reproducible" `Quick
            test_jsonl_reproducible;
        ] );
      ( "crossval",
        [
          Alcotest.test_case "raw (non-vacuous)" `Slow test_crossval_raw;
          Alcotest.test_case "ir-eddi" `Slow test_crossval_ir_eddi;
          Alcotest.test_case "ferrum" `Slow test_crossval_ferrum;
        ] );
    ]
