(* Tests for the checkpointed fault-injection engine: the machine's
   dirty-page write tracking, golden-run snapshot capture and
   incremental restore exactness, and — the load-bearing guarantee —
   bit-identity of the pooled and checkpointed engines against the
   scratch path for classifications, records, vulnerability maps and
   sharded campaign streams. *)

open Ferrum_asm
module Machine = Ferrum_machine.Machine
module Snapshot = Ferrum_machine.Snapshot
module F = Ferrum_faultsim.Faultsim
module Json = Ferrum_telemetry.Json
module Propagation = Ferrum_telemetry.Propagation
module Runner = Ferrum_campaign.Runner
module Pipeline = Ferrum_eddi.Pipeline
module Technique = Ferrum_eddi.Technique
module Catalog = Ferrum_workloads.Catalog

let original = Instr.original

(* A loop fixture with enough dynamic instructions (~1400) to span
   many checkpoints, and stores that walk across the page 0 / page 1
   boundary so restores must undo real memory dirt. *)
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
              original (Instr.Cmp (Reg.Q, Instr.Imm 200L, Instr.Reg Reg.RCX));
              original (Instr.Jcc (Cond.NE, "loop")) ];
          Prog.block "done"
            [ original
                (Instr.Mov
                   (Reg.Q, Instr.Mem (Instr.mem 4400), Instr.Reg Reg.RDI));
              original (Instr.Call "print_i64");
              original Instr.Ret ] ] ]

(* A single Q store straddling the page 0 / page 1 boundary. *)
let straddle_program () =
  Prog.program
    [ Prog.func "main"
        [ Prog.block "main"
            [ original
                (Instr.Mov (Reg.Q, Instr.Imm 0x0123456789abcdefL,
                            Instr.Reg Reg.RAX));
              original
                (Instr.Mov (Reg.Q, Instr.Reg Reg.RAX,
                            Instr.Mem (Instr.mem 4094)));
              original (Instr.Mov (Reg.Q, Instr.Imm 0L, Instr.Reg Reg.RDI));
              original (Instr.Call "print_i64");
              original Instr.Ret ] ] ]

(* Crash-at-flip-site: the very first eligible write-back loads a base
   register; flipping one of its high bits sends the immediately
   following load out of the address space, so the crash surfaces on
   the first post-restore instruction. *)
let crash_program () =
  Prog.program
    [ Prog.func "main"
        [ Prog.block "main"
            [ original (Instr.Mov (Reg.Q, Instr.Imm 4096L, Instr.Reg Reg.RBX));
              original
                (Instr.Mov
                   ( Reg.Q, Instr.Mem (Instr.mem ~base:Reg.RBX 0),
                     Instr.Reg Reg.RAX ));
              original (Instr.Mov (Reg.Q, Instr.Reg Reg.RAX, Instr.Reg Reg.RDI));
              original (Instr.Call "print_i64");
              original Instr.Ret ] ] ]

(* Timeout-near-fuel: a counted loop whose bound lives in a register
   for its whole run; corrupting the bound or the counter overruns the
   loop until the injector's fuel gives out.  Fuel accounting must
   count from program start even when the run resumes mid-way from a
   checkpoint. *)
let timeout_program () =
  Prog.program
    [ Prog.func "main"
        [ Prog.block "main"
            [ original (Instr.Mov (Reg.Q, Instr.Imm 60L, Instr.Reg Reg.RBX));
              original (Instr.Mov (Reg.Q, Instr.Imm 0L, Instr.Reg Reg.RAX)) ];
          Prog.block "loop"
            [ original
                (Instr.Alu (Instr.Add, Reg.Q, Instr.Imm 1L, Instr.Reg Reg.RAX));
              original (Instr.Cmp (Reg.Q, Instr.Reg Reg.RBX, Instr.Reg Reg.RAX));
              original (Instr.Jcc (Cond.NE, "loop")) ];
          Prog.block "done"
            [ original (Instr.Mov (Reg.Q, Instr.Reg Reg.RAX, Instr.Reg Reg.RDI));
              original (Instr.Call "print_i64");
              original Instr.Ret ] ] ]

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

(* Serialized per-injection records for [samples] campaign samples. *)
let campaign_lines ~engine ~seed ~samples img =
  let t = F.prepare ~engine img in
  List.init samples (fun sample ->
      let _, _, r = F.campaign_sample t ~seed ~sample in
      Json.to_string (F.record_to_json r))

(* Assert every fast engine reproduces the scratch record stream byte
   for byte. *)
let check_identity name engines ~seed ~samples img =
  let reference = campaign_lines ~engine:F.Scratch ~seed ~samples img in
  List.iter
    (fun e ->
      Alcotest.(check (list string))
        (Printf.sprintf "%s seed=%Ld %s" name seed (F.engine_name e))
        reference
        (campaign_lines ~engine:e ~seed ~samples img))
    engines

(* Everything a traced campaign produces, flattened to strings: the
   record stream, the vulnmap rows, and the raw latency/escape lists
   (hex floats, so equality is bit-exactness). *)
let vulnmap_strings ~engine ~seed ~samples img =
  let recs = ref [] in
  let v =
    F.vulnmap_campaign ~engine ~seed ~samples
      ~on_record:(fun r -> recs := Json.to_string (F.record_to_json r) :: !recs)
      img
  in
  let rows = List.map Json.to_string (F.vulnmap_rows v) in
  let lats =
    List.map (fun (s, c) -> Printf.sprintf "%d:%h" s c) v.F.v_latencies
  in
  let escs =
    List.map
      (fun (i, e) -> Printf.sprintf "%d:%s" i (Propagation.escape_name e))
      v.F.v_escapes
  in
  List.rev !recs @ rows @ lats @ escs

let fast_fixture_engines =
  [ F.Pooled; F.Checkpointed 1; F.Checkpointed 2; F.Checkpointed 3;
    F.Checkpointed 64 ]

(* ---- dirty-page tracking ---- *)

let test_track_attach_and_pages () =
  let img = Machine.load (loop_program ()) in
  let st = Machine.fresh_state img in
  Alcotest.(check bool) "fresh state untracked" true (st.Machine.track = None);
  Machine.track_writes st;
  let tr =
    match st.Machine.track with
    | Some tr -> tr
    | None -> Alcotest.fail "track_writes attached no tracker"
  in
  Machine.track_writes st;
  (match st.Machine.track with
  | Some tr' -> Alcotest.(check bool) "attach is idempotent" true (tr == tr')
  | None -> Alcotest.fail "tracker lost");
  (try
     while true do
       ignore (Machine.step img st)
     done
   with Machine.Halt _ -> ());
  let pages =
    Array.to_list (Array.sub tr.Machine.tr_pages 0 tr.Machine.tr_count)
  in
  let uniq = List.sort_uniq compare pages in
  Alcotest.(check int) "bitmap dedupes the first-touch log"
    (List.length uniq) (List.length pages);
  Alcotest.(check bool) "data page 0 dirty" true (List.mem 0 uniq);
  Alcotest.(check bool) "data page 1 dirty (stores crossed 4096)" true
    (List.mem 1 uniq);
  Machine.clear_dirty st;
  Alcotest.(check int) "clear_dirty empties the log" 0 tr.Machine.tr_count;
  ignore (Machine.step img (Machine.fresh_state img))

let test_track_straddling_store () =
  let img = Machine.load (straddle_program ()) in
  let st = Machine.fresh_state img in
  Machine.track_writes st;
  let tr = match st.Machine.track with Some tr -> tr | None -> assert false in
  (try
     while true do
       ignore (Machine.step img st)
     done
   with Machine.Halt _ -> ());
  let pages =
    Array.to_list (Array.sub tr.Machine.tr_pages 0 tr.Machine.tr_count)
  in
  Alcotest.(check bool) "page 0 dirty" true (List.mem 0 pages);
  Alcotest.(check bool) "Q store at 4094 also dirties page 1" true
    (List.mem 1 pages)

(* ---- snapshot capture and restore ---- *)

(* Reference: a fresh state stepped by the reference stepper to
   exactly [steps] retired instructions. *)
let stepped_reference img steps =
  let st = Machine.fresh_state img in
  (try
     while st.Machine.steps < steps do
       ignore (Ref_step.step img st)
     done
   with Machine.Halt _ | Machine.Trap _ -> ());
  st

let test_restore_exactness () =
  let img = Machine.load (loop_program ()) in
  let cache = Snapshot.build ~interval:7 ~counted:(fun _ -> true) img in
  Alcotest.(check bool) "many checkpoints captured" true
    (Snapshot.ckpt_count cache > 100);
  let sl = Snapshot.make_slot cache in
  (* Visit checkpoints forwards and backwards, dirtying the slot
     between restores so each restore has real work to undo. *)
  List.iter
    (fun dyn ->
      let seen = Snapshot.restore sl ~dyn_index:dyn in
      let st = Snapshot.state sl in
      Alcotest.(check bool)
        (Printf.sprintf "restore %d resumes at or before the site" dyn)
        true
        (seen <= dyn);
      check_state_eq
        (Printf.sprintf "restore dyn=%d" dyn)
        (stepped_reference img st.Machine.steps)
        st;
      try
        for _ = 1 to 50 do
          ignore (Machine.step img st)
        done
      with Machine.Halt _ | Machine.Trap _ -> ())
    [ 0; 3; 900; 14; 500; 499; 1300; 2; 0; 700 ];
  Snapshot.reset sl;
  check_state_eq "reset restores the pristine start"
    (Machine.fresh_state img) (Snapshot.state sl)

let test_pooled_cache_resets () =
  (* interval:None — no checkpoints, but restore-to-pristine must still
     be exact after the slot has run to completion. *)
  let img = Machine.load (loop_program ()) in
  let cache = Snapshot.build ~counted:(fun _ -> true) img in
  Alcotest.(check int) "no checkpoints" 0 (Snapshot.ckpt_count cache);
  let sl = Snapshot.make_slot cache in
  for _ = 1 to 3 do
    let seen = Snapshot.restore sl ~dyn_index:12345 in
    Alcotest.(check int) "pristine restore sees zero write-backs" 0 seen;
    let st = Snapshot.state sl in
    check_state_eq "pristine slot" (Machine.fresh_state img) st;
    try
      while true do
        ignore (Machine.step img st)
      done
    with Machine.Halt _ -> ()
  done

let test_sync_clones_run_state () =
  let img = Machine.load (loop_program ()) in
  let cache = Snapshot.build ~interval:13 ~counted:(fun _ -> true) img in
  let src = Snapshot.make_slot cache in
  let dst = Snapshot.make_slot cache in
  ignore (Snapshot.restore src ~dyn_index:400);
  let sst = Snapshot.state src in
  (try
     for _ = 1 to 37 do
       ignore (Machine.step img sst)
     done
   with Machine.Halt _ | Machine.Trap _ -> ());
  ignore (Snapshot.restore dst ~dyn_index:400);
  Snapshot.sync ~src dst;
  check_state_eq "sync copies the advanced state" sst (Snapshot.state dst);
  (* The copy must also be usable: both continue identically. *)
  let dstt = Snapshot.state dst in
  (try
     for _ = 1 to 100 do
       ignore (Machine.step img sst);
       ignore (Machine.step img dstt)
     done
   with Machine.Halt _ | Machine.Trap _ -> ());
  check_state_eq "synced slot tracks the source" sst dstt

(* ---- engine bit-identity on fixtures ---- *)

let test_fixture_identity () =
  let img = Machine.load (loop_program ()) in
  List.iter
    (fun seed ->
      check_identity "loop fixture" fast_fixture_engines ~seed ~samples:60 img)
    [ 1L; 42L ]

let test_fixture_vulnmap_identity () =
  let img = Machine.load (loop_program ()) in
  let reference = vulnmap_strings ~engine:F.Scratch ~seed:17L ~samples:40 img in
  List.iter
    (fun e ->
      Alcotest.(check (list string))
        ("loop fixture vulnmap " ^ F.engine_name e)
        reference
        (vulnmap_strings ~engine:e ~seed:17L ~samples:40 img))
    fast_fixture_engines

let test_crash_at_flip_site () =
  let img = Machine.load (crash_program ()) in
  let res = F.campaign ~engine:F.Scratch ~seed:3L ~samples:40 img in
  Alcotest.(check bool) "high-bit flips of the base register crash" true
    (res.F.counts.F.crash > 0);
  List.iter
    (fun seed ->
      check_identity "crash fixture" fast_fixture_engines ~seed ~samples:40 img)
    [ 3L; 77L ]

let test_timeout_near_fuel () =
  let img = Machine.load (timeout_program ()) in
  let res = F.campaign ~engine:F.Scratch ~seed:9L ~samples:40 img in
  Alcotest.(check bool) "corrupted loop bounds exhaust the fuel" true
    (res.F.counts.F.timeout > 0);
  List.iter
    (fun seed ->
      check_identity "timeout fixture" fast_fixture_engines ~seed ~samples:40
        img)
    [ 9L; 23L ]

(* ---- engine bit-identity across the catalogue ---- *)

(* K = 1 is exercised on the small fixtures above only: one checkpoint
   per dynamic instruction over a catalogue workload's hundreds of
   thousands of steps would pin hundreds of megabytes of page deltas. *)
let catalogue_engines = [ F.Pooled; F.Checkpointed 64; F.Checkpointed 4096 ]

let test_catalogue_identity () =
  let techniques =
    [ Technique.Ir_level_eddi; Technique.Hybrid_assembly_eddi;
      Technique.Ferrum ]
  in
  List.iter
    (fun entry ->
      List.iter
        (fun tech ->
          let res = Pipeline.protect tech (entry.Catalog.build ()) in
          let img = Machine.load res.Pipeline.program in
          check_identity
            (entry.Catalog.name ^ "/" ^ Technique.short_name tech)
            catalogue_engines ~seed:7L ~samples:8 img)
        techniques)
    Catalog.all

let test_catalogue_vulnmap_identity () =
  List.iter
    (fun name ->
      let entry =
        match Catalog.find name with
        | Some e -> e
        | None -> Alcotest.failf "no catalogue entry %s" name
      in
      let res = Pipeline.protect Technique.Ferrum (entry.Catalog.build ()) in
      let img = Machine.load res.Pipeline.program in
      let reference =
        vulnmap_strings ~engine:F.Scratch ~seed:11L ~samples:6 img
      in
      List.iter
        (fun e ->
          Alcotest.(check (list string))
            (Printf.sprintf "%s vulnmap %s" name (F.engine_name e))
            reference
            (vulnmap_strings ~engine:e ~seed:11L ~samples:6 img))
        [ F.Pooled; F.Checkpointed 64 ])
    [ "kmeans"; "lud" ]

(* ---- sharded campaigns on the checkpointed engine ---- *)

let test_sharded_checkpointed_identity () =
  let entry =
    match Catalog.find "kmeans" with Some e -> e | None -> assert false
  in
  let res = Pipeline.protect Technique.Ferrum (entry.Catalog.build ()) in
  let img = Machine.load res.Pipeline.program in
  let samples = 30 and seed = 5L in
  let seq_records = campaign_lines ~engine:F.Scratch ~seed ~samples img in
  let t = F.prepare ~engine:(F.Checkpointed 64) img in
  let inj = Runner.run ~mode:Runner.Inject ~shards:3 ~seed ~samples t in
  Alcotest.(check (list string)) "sharded inject records" seq_records
    inj.Runner.record_lines;
  let traced = Runner.run ~mode:Runner.Traced ~shards:3 ~seed ~samples t in
  Alcotest.(check (list string)) "sharded traced records" seq_records
    traced.Runner.record_lines;
  let v =
    match traced.Runner.vulnmap with
    | Some v -> v
    | None -> Alcotest.fail "traced run produced no vulnmap"
  in
  let seq_v = F.vulnmap_campaign ~engine:F.Scratch ~seed ~samples img in
  Alcotest.(check (list string)) "sharded vulnmap rows"
    (List.map Json.to_string (F.vulnmap_rows seq_v))
    (List.map Json.to_string (F.vulnmap_rows v))

(* ---- engine names ---- *)

let test_engine_names_roundtrip () =
  List.iter
    (fun e ->
      match F.engine_of_name (F.engine_name e) with
      | Some e' ->
          Alcotest.(check string) "round trip" (F.engine_name e)
            (F.engine_name e')
      | None -> Alcotest.failf "engine name %s did not parse" (F.engine_name e))
    [ F.Scratch; F.Pooled; F.Checkpointed 1; F.Checkpointed 4096 ];
  Alcotest.(check bool) "unknown name rejected" true
    (F.engine_of_name "ckpt-0" = None && F.engine_of_name "warp" = None)

let () =
  Alcotest.run "snapshot"
    [
      ( "tracking",
        [ Alcotest.test_case "attach and dirty pages" `Quick
            test_track_attach_and_pages;
          Alcotest.test_case "straddling store" `Quick
            test_track_straddling_store ] );
      ( "restore",
        [ Alcotest.test_case "bit-exact restore" `Quick test_restore_exactness;
          Alcotest.test_case "pooled pristine resets" `Quick
            test_pooled_cache_resets;
          Alcotest.test_case "sync" `Quick test_sync_clones_run_state ] );
      ( "identity",
        [ Alcotest.test_case "loop fixture" `Quick test_fixture_identity;
          Alcotest.test_case "loop fixture vulnmap" `Quick
            test_fixture_vulnmap_identity;
          Alcotest.test_case "crash at flip site" `Quick
            test_crash_at_flip_site;
          Alcotest.test_case "timeout near fuel" `Quick test_timeout_near_fuel
        ] );
      ( "catalogue",
        [ Alcotest.test_case "records across engines" `Slow
            test_catalogue_identity;
          Alcotest.test_case "vulnmaps across engines" `Slow
            test_catalogue_vulnmap_identity ] );
      ( "sharded",
        [ Alcotest.test_case "checkpointed runner byte-identity" `Slow
            test_sharded_checkpointed_identity ] );
      ( "engines",
        [ Alcotest.test_case "name round-trip" `Quick
            test_engine_names_roundtrip ] );
    ]
