(* The four workloads.  Each sets up several times (see
   [Common.repeat_setup]), then runs a timed phase for the run's budget
   (in four slices, spans off and on in turn, when traced), then checks
   its outputs. *)

open Common
module Spec = Ferrum_serve.Spec

type phase = {
  metrics : (string * float) list;  (** end-to-end figures of the phase *)
  ops : float list list;  (** times of the phase's operations, by kind *)
  counts : (string * float) list;  (** exact counts of the first operation *)
}

type result = {
  e2e : (string * float) list;
  layers : (string * float) list;
  kernel : string;  (** the catalogue entry the layer probes use *)
  native : timing option;  (** the catalogue's, when the workload timed it *)
}

let hit_metrics hits =
  ("hit_p50_s", Stats.median hits)
  :: (match Stats.percentile 90.0 hits with Some v -> [ ("hit_p90_s", v) ] | None -> [])

(* Untraced: one phase over the whole budget, at least 100 hits so p90
   has ten beyond it.  Traced: four slices of a quarter of the budget
   each, spans off, on, on, off, so that a host drifting over the run
   weighs on both sides alike.  Every slice starts afresh with the same
   operations: their exact counts must agree, and the tracing overhead
   is the geomean over kinds of operation (jobs, hits) of the median
   time with spans over the median time without.  Self times cover the
   set-ups and the traced slices. *)
let run_phases ctx ~traced phase =
  if not traced then (phase ~tag:"run" ~duration:ctx.seconds ~min_hits:100, [])
  else begin
    let slices =
      List.mapi
        (fun i on ->
          ctx.spans.Spans.enabled <- on;
          (on, phase ~tag:(Printf.sprintf "slice%d" i) ~duration:(ctx.seconds /. 4.0) ~min_hits:10))
        [ false; true; true; false ]
    in
    ctx.spans.Spans.enabled <- false;
    let first = snd (List.hd slices) in
    List.iter
      (fun (_, p) -> check ctx (p.counts = first.counts) "exact counts differ between traced and untraced slices")
      slices;
    let median_ops on =
      List.filter_map (fun (o, p) -> if o = on then Some p.ops else None) slices
      |> List.fold_left (List.map2 ( @ )) (List.map (fun _ -> []) first.ops)
      |> List.map (function [] -> None | l -> Some (Stats.median l))
    in
    let ratios =
      List.combine (median_ops true) (median_ops false)
      |> List.filter_map (function Some t, Some u -> Some (t, u) | _ -> None)
    in
    let self = Spans.self_times ctx.spans.Spans.spans in
    ( first,
      first.counts
      @ [
          ("tracing.overhead_pct", (Stats.geomean_ratio ratios -. 1.0) *. 100.0);
          ("tracing.spans", float_of_int (List.length ctx.spans.Spans.spans));
        ]
      @ List.map (fun layer -> ("self_s." ^ layer, Option.value ~default:0.0 (List.assoc_opt layer self)))
          [ "bench"; "pipeline"; "machine"; "faultsim"; "runner"; "http"; "native" ] )
  end

let kernels_of = function Ok l -> l | Error _ -> []

(* Workloads that time one kernel run three processes of each of its
   configurations: one process can sit in a slow mode for its whole
   life, and over the catalogue the geomean already evens that out. *)
let instances = 3

(* ---- inject-long, adaptive-short ---- *)

type kind = Flat of int | Adaptive of int

let rounds = 8

let budget = function Flat s -> s | Adaptive b -> b

(* The calls `ferrum campaign` makes, with its defaults (workers =
   shards, part files under the run directory, no progress observer). *)
let run_campaign target kind ~seed ~part_dir =
  match kind with
  | Flat samples -> Runner.run ~part_dir ~mode:Runner.Inject ~shards:2 ~seed ~samples target
  | Adaptive budget ->
    Runner.run_adaptive ~part_dir ~policy:{ F.rounds; target_ci = 0.0 } ~mode:Runner.Inject
      ~shards:2 ~seed ~budget target

type camp = { c_seed : int64; part_dir : string; digest : Digest.t; c_spots : (int * string) list }

(* A miss is a fresh campaign.  A hit is the same call on a finished
   campaign, answered from its part files (what `ferrum campaign
   --resume` pays once set up).  Each miss is followed by this many hits
   on finished campaigns, so hits sample the whole run rather than one
   stretch of it; at least 100 hits fit in a 20 s run. *)
let hits_per_miss = 16

(* Misses and their hits until 80% of the budget, with a one-batch
   round of native timing of the kernel after every fourth hit, so the
   kernel's fastest batches are drawn from the whole run; the rest times
   the kernel's emitted code. *)
let campaign_phase ctx ~kind ~target ~kernels ~all_camps ~tag ~duration ~min_hits =
  let start = Proc.now () in
  let tm = timer ctx kernels in
  let walls = ref [] and samples = ref 0 and counts = ref None and camps = ref [] in
  let timed f = span ctx "bench" (fun () -> Proc.time (fun () -> span ctx "runner" f)) in
  let miss i =
    let seed = derive ctx "campaign" i in
    let part_dir = Filename.concat ctx.work (Printf.sprintf "%s-%d" tag i) in
    match timed (fun () -> run_campaign target kind ~seed ~part_dir) with
    | r, dt ->
      let ok = r.Runner.counts.F.samples = budget kind in
      check ctx ok (Printf.sprintf "campaign %Ld ran %d samples" seed r.Runner.counts.F.samples);
      if ok then begin
        walls := dt :: !walls;
        samples := !samples + budget kind;
        let lines = r.Runner.record_lines in
        camps :=
          { c_seed = seed; part_dir; digest = lines_digest lines; c_spots = spots ~seed lines }
          :: !camps;
        if !counts = None then
          counts := Some (outcome_counts r.Runner.counts @ engine_counts r.Runner.trace_spans)
      end
    | exception Failure msg -> check ctx false msg
  in
  let rng = Random.State.make [| ctx.seed; 1 |] in
  let hits = ref [] in
  let hit () =
    match !camps with
    | [] -> ()
    | l -> (
      let c = List.nth l (Random.State.int rng (List.length l)) in
      match timed (fun () -> run_campaign target kind ~seed:c.c_seed ~part_dir:c.part_dir) with
      | r, dt ->
        check ctx (lines_digest r.Runner.record_lines = c.digest)
          (Printf.sprintf "resumed campaign %Ld differs from its first run" c.c_seed);
        hits := dt :: !hits
      | exception Failure msg -> check ctx false msg)
  in
  let i = ref 0 in
  while !i = 0 || Proc.now () < start +. (0.8 *. duration) do
    miss !i;
    for j = 1 to hits_per_miss do
      hit ();
      if j mod 4 = 0 then time_round ~batches:1 ctx tm
    done;
    incr i
  done;
  while !camps <> [] && List.length !hits < min_hits do hit () done;
  all_camps := !camps @ !all_camps;
  time_until ctx tm ~until:(start +. duration);
  let nt = timing tm in
  detail tag [ ("job_s", floats !walls); ("hit_s", floats !hits) ];
  native_detail tag nt;
  let wall = List.fold_left ( +. ) 0.0 !walls in
  let sps = float_of_int !samples /. wall in
  {
    metrics =
      [ ("samples_per_s", sps); ("job_p50_s", Stats.median !walls) ]
      @ (if !hits = [] then [] else hit_metrics !hits)
      @ nt.overhead;
    ops = [ !walls; !hits ];
    counts = Option.value ~default:[] !counts;
  }

let campaign_workload ctx ~traced ~bench ~kind =
  let target, setup_s =
    repeat_setup ~isolated:true ~times:15 ~cleanup:ignore (fun () ->
        let m = span ctx "pipeline" (fun () -> (entry bench).Catalog.build ()) in
        let prog = span ctx "pipeline" (fun () -> (Pipeline.protect Technique.Ferrum m).Pipeline.program) in
        let img = span ctx "machine" (fun () -> Machine.load prog) in
        span ctx "faultsim" (fun () -> F.prepare img))
  in
  (* Built after the timed set-up, which is the program's work alone. *)
  let kernels = kernels_of (native_build ~instances ctx ~dir:(Filename.concat ctx.work "native") [ bench ]) in
  let all_camps = ref [] in
  let last, layers =
    run_phases ctx ~traced (campaign_phase ctx ~kind ~target ~kernels ~all_camps)
  in
  native_stop ctx kernels;
  let peak = Proc.peak_rss_mb () in
  (* Output checks, after every timed campaign: an in-process sample
     warms the target, which would hide the per-worker set-up cost. *)
  let expected = interp_outputs () in
  check ctx (target.F.golden_output = expected bench) (bench ^ " golden output differs from Ir.Interp");
  check_native_outputs ctx kernels ~expected;
  let uniform_below =
    match kind with Flat s -> s | Adaptive b -> snd (F.plan_rounds ~rounds ~budget:b).(0)
  in
  List.iter
    (fun c ->
      spot_check ctx target ~seed:c.c_seed ~spots:c.c_spots ~uniform_below
        ~what:(Printf.sprintf "campaign %Ld" c.c_seed))
    !all_camps;
  {
    e2e = ("setup_s", setup_s) :: ("peak_rss_mb", peak) :: last.metrics;
    layers;
    kernel = bench;
    native = None;
  }

(* ---- serve-mixed ---- *)

let serve_bench = "Needle"

let serve_samples = 200

(* One miss, then this many hits on earlier misses, repeated.  A miss
   costs about ten hits, so at 1:8 a 20 s run reaches the 100 hits the
   p90 needs. *)
let serve_hits_per_miss = 8

let spec_of seed =
  {
    Spec.benchmark = serve_bench;
    technique = "ferrum";
    samples = serve_samples;
    seed;
    shards = 2;
    fault_bits = 1;
    scope = "original";
    traced = true;
    engine = F.engine_name F.default_engine;
  }

type stored = { s_seed : int64; digest : string; art : Digest.t; s_spots : (int * string) list }

let body = function Ok { Http.status = 200; r_body; _ } -> Some r_body | _ -> None

let artifacts ctx d digest =
  let get name = body (request ctx d ~meth:"GET" ~path:(Printf.sprintf "/runs/%s/%s" digest name) ()) in
  (get "records", get "vulnmap")

let record_lines records =
  match String.split_on_char '\n' records with
  | _header :: rest -> List.filter (fun l -> l <> "") rest
  | [] -> []

let class_counts lines =
  List.fold_left
    (fun c line ->
      match Option.bind (Json.of_string_opt line) (Json.member "class") with
      | Some (Json.Str s) -> (
        match F.classification_of_name s with Some k -> F.add_count c k | None -> c)
      | _ -> c)
    F.zero_counts lines

(* Submit a new spec and poll its state until done. *)
let miss ctx d spec =
  let t0 = Proc.now () in
  match Result.bind (request ctx d ~meth:"POST" ~path:"/jobs" ~body:(Spec.to_string spec) ()) (fun r ->
            if r.Http.status = 202 then job_of_doc r.Http.r_body
            else Error (Printf.sprintf "POST /jobs answered %d" r.Http.status))
  with
  | Error e -> Error e
  | Ok job ->
    let path = Printf.sprintf "/jobs/%d" job.Queue.id in
    let rec poll running =
      match Result.bind (request ctx d ~meth:"GET" ~path ()) (fun r -> job_of_doc r.Http.r_body) with
      | Error e -> Error e
      | Ok j -> (
        let now = Proc.now () in
        let running = if running = None && j.Queue.state <> Queue.Pending then Some now else running in
        match j.Queue.state with
        | Queue.Done -> Ok (j.Queue.digest, now -. t0, Option.value ~default:now running -. t0)
        | Queue.Failed -> Error ("job failed: " ^ j.Queue.error)
        | Queue.Pending | Queue.Running ->
          Unix.sleepf 0.01;
          poll running)
    in
    poll None

let serve_phase ctx ~daemon ~tm ~all_stored ~tag ~duration ~min_hits =
  let d = daemon tag in
  let start = Proc.now () in
  let rng = Random.State.make [| ctx.seed; 2 |] in
  let stored = ref [||] and jobs = ref [] and hits = ref [] in
  let samples = ref 0 and counts = ref None and k = ref 0 and nmiss = ref 0 in
  while Proc.now () < start +. duration || List.length !hits < min_hits do
    (if !k mod (serve_hits_per_miss + 1) = 0 || !stored = [||] then begin
       let seed = derive ctx "serve" !nmiss in
       incr nmiss;
       match span ctx "bench" (fun () -> miss ctx d (spec_of seed)) with
       | Error e -> check ctx false ("miss: " ^ e)
       | Ok (digest, dt, _wait) -> (
         match artifacts ctx d digest with
         | Some records, Some vulnmap ->
           check ctx true "miss";
           jobs := dt :: !jobs;
           samples := !samples + serve_samples;
           let art = Digest.string (records ^ vulnmap) in
           let s_spots = spots ~seed (record_lines records) in
           stored := Array.append !stored [| { s_seed = seed; digest; art; s_spots } |];
           if !counts = None then begin
             let trace =
               Option.value ~default:"" (body (request ctx d ~meth:"GET" ~path:(Printf.sprintf "/runs/%s/trace" digest) ()))
             in
             counts :=
               Some
                 (outcome_counts (class_counts (record_lines records))
                 @ engine_counts (String.split_on_char '\n' trace))
           end
         | _ -> check ctx false ("miss artifacts " ^ digest))
     end
     else
       let s = !stored.(Random.State.int rng (Array.length !stored)) in
       let t0 = Proc.now () in
       match
         span ctx "bench" (fun () ->
             request ctx d ~meth:"POST" ~path:"/jobs" ~body:(Spec.to_string (spec_of s.s_seed)) ())
       with
       | Ok { Http.status = 200; r_body; _ } ->
         let dt = Proc.now () -. t0 in
         let same =
           match job_of_doc r_body with
           | Ok j -> j.Queue.state = Queue.Done && j.Queue.cached && j.Queue.digest = s.digest
           | Error _ -> false
         in
         let art =
           match artifacts ctx d s.digest with
           | Some records, Some vulnmap -> Some (Digest.string (records ^ vulnmap))
           | _ -> None
         in
         check ctx
           (same && art = Some s.art)
           ("hit artifacts differ from the miss that stored them: " ^ s.digest);
         hits := dt :: !hits
       | Ok r -> check ctx false (Printf.sprintf "hit answered %d" r.Http.status)
       | Error e -> check ctx false ("hit: " ^ e));
    (* a one-batch native round every third operation spreads the
       kernel's timing over the whole run *)
    if !k mod 3 = 2 then time_round ~batches:1 ctx tm;
    incr k
  done;
  all_stored := Array.to_list !stored @ !all_stored;
  detail tag [ ("job_s", floats !jobs); ("hit_s", floats !hits) ];
  let wall = List.fold_left ( +. ) 0.0 !jobs in
  {
    metrics =
      [ ("samples_per_s", float_of_int !samples /. wall); ("job_p50_s", Stats.median !jobs) ]
      @ hit_metrics !hits;
    ops = [ !jobs; !hits ];
    counts = Option.value ~default:[] !counts;
  }

let serve_workload ctx ~traced =
  let d0, setup_s =
    repeat_setup ~times:45 ~cleanup:stop_daemon (fun () ->
        match start_daemon (Filename.concat ctx.work "daemon-setup") with
        | Ok d -> d
        | Error e -> failwith e)
  in
  (* Built after the timed set-up, which is the program's work alone.
     Daemons started later hold copies of the kernels' pipes, so every
     daemon is stopped before the kernels are. *)
  let kernels = kernels_of (native_build ~instances ctx ~dir:(Filename.concat ctx.work "native") [ serve_bench ]) in
  (* The set-up daemon serves the first phase; each later slice of a
     traced run gets a fresh one, so its first miss is a miss again. *)
  let current = ref None in
  let daemon tag =
    let d =
      match !current with
      | None -> d0
      | Some prev -> (
        stop_daemon prev;
        match start_daemon (Filename.concat ctx.work ("daemon-" ^ tag)) with
        | Ok d -> d
        | Error e -> failwith e)
    in
    current := Some d;
    d
  in
  let all_stored = ref [] in
  let tm = timer ctx kernels in
  let last, layers = run_phases ctx ~traced (serve_phase ctx ~daemon ~tm ~all_stored) in
  time_until ctx tm ~until:(Proc.now () +. (0.2 *. ctx.seconds));
  let nt = timing tm in
  native_detail "run" nt;
  (* The daemon and the runners it forked count in the peak only once
     it has been reaped. *)
  Option.iter stop_daemon !current;
  native_stop ctx kernels;
  let peak = Proc.peak_rss_mb () in
  let expected = interp_outputs () in
  check_native_outputs ctx kernels ~expected;
  (match !all_stored with
  | [] -> ()
  | first :: _ -> (
    match Spec.resolve (spec_of first.s_seed) with
    | Error e -> check ctx false ("resolve: " ^ e)
    | Ok r ->
      let target = r.Spec.target in
      check ctx (target.F.golden_output = expected serve_bench) (serve_bench ^ " golden output differs from Ir.Interp");
      List.iter
        (fun s ->
          spot_check ctx target ~seed:s.s_seed ~spots:s.s_spots ~uniform_below:max_int
            ~what:("job " ^ s.digest))
        !all_stored));
  {
    e2e = (("setup_s", setup_s) :: ("peak_rss_mb", peak) :: last.metrics) @ nt.overhead;
    layers;
    kernel = serve_bench;
    native = None;
  }

(* ---- native-overhead ---- *)

(* Kernels are timed in rounds over the whole budget.  Between rounds:
   two jobs, each the program emitting the next configuration's
   assembly from its IR again (build, protect, print; the toolchain is
   not timed), which must equal the assembly linked at set-up, and one
   pass of hits, a fresh process of each linked configuration answering
   its output check.  Jobs are topped up to whole passes over the
   configurations, so every run's median is over the same mix. *)
let native_phase ctx ~kernels ~tag ~duration ~min_hits =
  let start = Proc.now () in
  let arr = Array.of_list kernels in
  let jobs = ref [] and hits = ref [] in
  let job () =
    let n = arr.(List.length !jobs mod Array.length arr) in
    let asm, dt =
      Proc.time (fun () ->
          span ctx "bench" (fun () ->
              span ctx "pipeline" (fun () ->
                  Native.emit (List.assoc n.tech Native.techniques) ((entry n.bench).Catalog.build ()))))
    in
    check ctx (asm = Fsutil.read_file (n.exe ^ ".s")) ("native emit " ^ n.exe);
    jobs := dt :: !jobs
  in
  let pass () =
    Array.iter
      (fun n ->
        let t0 = Proc.now () in
        match span ctx "bench" (fun () -> span ctx "native" (fun () -> Native.start n.exe)) with
        | Ok k ->
          let dt = Proc.now () -. t0 in
          check ctx (k.Native.output = n.k.Native.output && Native.stop k = Ok ()) ("native rerun " ^ n.exe);
          hits := dt :: !hits
        | Error e -> check ctx false e)
      arr
  in
  let between () =
    job ();
    job ();
    pass ()
  in
  let nt = native_time ctx kernels ~between ~until:(start +. duration) in
  while arr <> [||] && List.length !hits < min_hits do pass () done;
  while List.length !jobs mod Array.length arr <> 0 do job () done;
  (* Calls per second of one pass over the catalogue, from each
     kernel's time per call. *)
  let pass_ns = List.fold_left (fun acc (_, ns) -> acc +. ns) 0.0 nt.medians in
  let rate = float_of_int (List.length nt.medians) *. 1e9 /. pass_ns in
  detail tag [ ("job_s", floats !jobs); ("hit_s", floats !hits) ];
  native_detail tag nt;
  ( {
      metrics =
        [ ("samples_per_s", rate); ("job_p50_s", Stats.median !jobs) ] @ hit_metrics !hits @ nt.overhead;
      ops = [ !jobs; !hits ];
      counts = [];
    },
    nt )

let native_workload ctx ~traced =
  let dir = Filename.concat ctx.work "native" in
  let built, setup_s =
    repeat_setup ~times:3 ~cleanup:(fun b -> native_stop ctx (kernels_of b)) (fun () ->
        native_build ctx ~dir Catalog.names)
  in
  match built with
  | Error why -> failwith ("native-overhead cannot run here: " ^ why)
  | Ok kernels ->
    let timing = ref None in
    let last, layers =
      run_phases ctx ~traced (fun ~tag ~duration ~min_hits ->
          let p, nt = native_phase ctx ~kernels ~tag ~duration ~min_hits in
          timing := Some nt;
          p)
    in
    native_stop ctx kernels;
    let peak = Proc.peak_rss_mb () in
    check_native_outputs ctx kernels ~expected:(interp_outputs ());
    {
      e2e = ("setup_s", setup_s) :: ("peak_rss_mb", peak) :: last.metrics;
      layers;
      kernel = "kmeans";
      native = !timing;
    }
