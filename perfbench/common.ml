(* State shared by the workloads and the layer probes: the run's seed
   and budget, its failure tally, its spans, and the helpers that drive
   the program the way `ferrum campaign` and `ferrum serve` do. *)

module F = Ferrum_faultsim.Faultsim
module Machine = Ferrum_machine.Machine
module Runner = Ferrum_campaign.Runner
module Fsutil = Ferrum_campaign.Fsutil
module Json = Ferrum_telemetry.Json
module Catalog = Ferrum_workloads.Catalog
module Pipeline = Ferrum_eddi.Pipeline
module Technique = Ferrum_eddi.Technique
module Http = Ferrum_serve.Http
module Daemon = Ferrum_serve.Daemon
module Queue = Ferrum_campaign.Queue
module Stats = Perfbench.Stats
module Spans = Perfbench.Spans

type ctx = {
  seed : int;
  seconds : float;
  work : string;  (** scratch directory inside the checkout *)
  spans : Spans.t;
  mutable attempted : int;
  mutable failed : int;
}

(* One operation: counted as attempted, and as failed unless [ok]. *)
let check ctx ok what =
  ctx.attempted <- ctx.attempted + 1;
  if not ok then begin
    ctx.failed <- ctx.failed + 1;
    Printf.eprintf "perfbench: FAILED %s\n%!" what
  end

let span ctx layer f = Spans.with_span ctx.spans layer f

(* A report line ahead of the result line. *)
let detail name fields =
  print_endline (Json.to_string (Json.Obj (("detail", Json.Str name) :: fields)))

let floats l = Json.Arr (List.rev_map (fun v -> Json.Float v) l)

(* A per-operation seed: a pure function of the workload seed. *)
let derive ctx tag i = Int64.of_int (Hashtbl.hash (ctx.seed, tag, i))

let entry name =
  match Catalog.find name with
  | Some e -> e
  | None -> failwith ("unknown catalogue entry " ^ name)

(* Set-up is repeated [times] times and its median reported, so that
   one slow set-up does not read as a regression.  With [isolated],
   each repeat runs in a forked child after an untimed warm-up and a
   full collection, so all of them find the same grown, empty heap and
   none leaves garbage behind to raise the benchmark's own peak RSS;
   the set-up the workload uses then runs once more, untimed. *)
let repeat_setup ?(isolated = false) ~times ~cleanup f =
  let report v acc =
    detail "setup" [ ("setup_s", floats acc) ];
    (v, Stats.median acc)
  in
  let warm () =
    ignore (f ());
    Gc.full_major ()
  in
  if isolated then
    let acc = List.init times (fun _ -> Proc.time_in_child ~before:warm (fun () -> ignore (f ()))) in
    report (f ()) acc
  else
    let rec go i prev acc =
      Option.iter cleanup prev;
      let v, dt = Proc.time f in
      let acc = dt :: acc in
      if i < times then go (i + 1) (Some v) acc else report v acc
    in
    go 1 None []

(* ---- native kernels ---- *)

type kernel = { bench : string; tech : string; exe : string; k : Native.kernel }

(* Emit, assemble and link one configuration of IR module [m] and start
   its kernel. *)
let build_one ctx ~dir ~harness ~bench m (tech, technique) =
  let name = bench ^ "." ^ tech in
  let built =
    let asm = span ctx "pipeline" (fun () -> Native.emit technique m) in
    span ctx "native" (fun () ->
        Result.bind (Native.link ~dir ~harness ~name asm) (fun exe ->
            Result.map (fun k -> (exe, k)) (Native.start exe)))
  in
  check ctx (Result.is_ok built) ("native build " ^ name);
  match built with
  | Ok (exe, k) -> Some { bench; tech; exe; k }
  | Error e ->
    Printf.eprintf "perfbench: %s: %s\n%!" name e;
    None

(* Compile the harness, then build every configuration of [benches] and
   start [instances] processes of each; [Error] (and an explicit skip
   message) off x86-64 Linux or without a C toolchain. *)
let native_build ?(instances = 1) ctx ~dir benches =
  match Native.available () with
  | Error why ->
    Printf.eprintf "perfbench: native timing skipped: %s\n%!" why;
    Error why
  | Ok () -> (
    Fsutil.rm_rf dir;
    Fsutil.mkdir_p dir;
    match Native.harness_object ~dir with
    | Error e ->
      check ctx false ("harness: " ^ e);
      Error e
    | Ok harness ->
      Ok
        (List.concat_map
           (fun bench ->
             let m = (entry bench).Catalog.build () in
             List.filter_map (build_one ctx ~dir ~harness ~bench m) Native.techniques)
           benches
        |> List.concat_map (fun n ->
               n
               :: List.filter_map
                    (fun _ ->
                      let k = Native.start n.exe in
                      check ctx (Result.is_ok k) ("native start " ^ n.exe);
                      Option.map (fun k -> { n with k }) (Result.to_option k))
                    (List.init (instances - 1) Fun.id))))

let native_stop ctx kernels =
  List.iter
    (fun n ->
      let r = Native.stop n.k in
      check ctx (Result.is_ok r)
        (Printf.sprintf "native %s.%s: %s" n.bench n.tech
           (match r with Ok () -> "" | Error e -> e)))
    kernels

(* Batches are sized to about 2 ms: raw kernels run for microseconds,
   so single calls cannot be timed steadily. *)
let batch_us = 2000.0

type timing = {
  medians : ((string * string) * float) list;
      (** ns per call of each kernel (fastest 2% of its batches) *)
  overhead : (string * float) list;  (** native_overhead_<tech> *)
}

(* Geomean over benches of [value (bench, tech) /. value (bench, raw)],
   named native_overhead_<tech>. *)
let overheads value benches =
  List.filter_map
    (fun (tech, _) ->
      let pairs =
        List.filter_map
          (fun bench ->
            match (value (bench, tech), value (bench, "raw")) with
            | Some v, Some raw -> Some (v, raw)
            | _ -> None)
          benches
      in
      if tech = "raw" || pairs = [] then None
      else Some ("native_overhead_" ^ tech, Stats.geomean_ratio pairs))
    Native.techniques

(* Kernels under timing, each with every batch time so far; [dead]
   holds the pids of kernels that failed. *)
type timer = {
  live : (kernel * float list ref) list;
  dead : (int, unit) Hashtbl.t;
  mutable rounds : int;
}

let timer ctx kernels =
  let live =
    List.filter_map
      (fun n ->
        match Native.calibrate n.k batch_us with
        | Ok _ -> Some (n, ref [])
        | Error e ->
          check ctx false (Printf.sprintf "native %s.%s: %s" n.bench n.tech e);
          None)
      kernels
  in
  { live; dead = Hashtbl.create 4; rounds = 0 }

(* One round: [batches] batches of every kernel, in a fixed order. *)
let time_round ?(batches = 3) ctx t =
  List.iter
    (fun (n, acc) ->
      if not (Hashtbl.mem t.dead n.k.Native.pid) then
        match span ctx "native" (fun () -> Native.time n.k batches) with
        | Ok ns -> acc := ns @ !acc
        | Error e ->
          Hashtbl.replace t.dead n.k.Native.pid ();
          check ctx false (Printf.sprintf "native %s.%s: %s" n.bench n.tech e))
    t.live;
  t.rounds <- t.rounds + 1

(* Rounds until [until], and at least three in all, calling [between]
   after each. *)
let time_until ?(between = ignore) ctx t ~until =
  while t.live <> [] && (t.rounds < 3 || Proc.now () < until) do
    time_round ctx t;
    between ()
  done

(* A process's time is the fastest 2% of its batches.  The shared host
   switches between a fast and a slow mode (raw Needle: 9 vs 16 us per
   call) for seconds at a time, and the slow mode does not slow every
   kernel alike; interference only ever adds time, so a low quantile
   over rounds spread across the run finds the fast mode in every run
   where a median lands in whichever mode dominated.  A configuration's
   time is the median over its processes. *)
let timing t =
  let per_process =
    List.filter_map
      (fun (n, acc) ->
        if Hashtbl.mem t.dead n.k.Native.pid || !acc = [] then None
        else Some ((n.bench, n.tech), Stats.quantile 0.02 !acc))
      t.live
  in
  let medians =
    List.sort_uniq compare (List.map fst per_process)
    |> List.map (fun key ->
           (key, Stats.median (List.filter_map (fun (k, v) -> if k = key then Some v else None) per_process)))
  in
  let benches = List.sort_uniq compare (List.map (fun (n, _) -> n.bench) t.live) in
  { medians; overhead = overheads (fun k -> List.assoc_opt k medians) benches }

let native_time ?between ctx kernels ~until =
  let t = timer ctx kernels in
  time_until ?between ctx t ~until;
  timing t

let native_detail tag t =
  detail (tag ^ ".native")
    (List.map (fun ((bench, tech), ns) -> (bench ^ "." ^ tech ^ "_ns", Json.Float ns)) t.medians
    @ List.map (fun (n, v) -> (n, Json.Float v)) t.overhead)

(* Every native output must equal the IR interpreter's. *)
let check_native_outputs ctx kernels ~expected =
  List.iter
    (fun n ->
      check ctx
        (n.k.Native.output = expected n.bench)
        (Printf.sprintf "native %s.%s output differs from Ir.Interp" n.bench n.tech))
    kernels

(* Ir.Interp reference outputs, computed once per bench. *)
let interp_outputs () =
  let memo = Hashtbl.create 8 in
  fun bench ->
    match Hashtbl.find_opt memo bench with
    | Some o -> o
    | None ->
      let o = (Ferrum_ir.Interp.run ((entry bench).Catalog.build ())).Ferrum_ir.Interp.output in
      Hashtbl.replace memo bench o;
      o

(* ---- campaigns ---- *)

let engine_keys =
  [ "walks"; "walk_steps"; "restores"; "prefix_steps"; "suffix_steps"; "decodes"; "fused_steps" ]

(* Sum of the engine-span counters in ferrum.trace.v1 span rows. *)
let engine_counts rows =
  let sums = Hashtbl.create 8 in
  List.iter
    (fun line ->
      match Json.of_string_opt line with
      | Some j when Json.member "name" j = Some (Json.Str "engine") -> (
        match Json.member "counters" j with
        | Some (Json.Obj kv) ->
          List.iter
            (fun (k, v) ->
              match v with
              | Json.Int n ->
                Hashtbl.replace sums k (n + Option.value ~default:0 (Hashtbl.find_opt sums k))
              | _ -> ())
            kv
        | _ -> ())
      | _ -> ())
    rows;
  List.map
    (fun k -> ("faultsim." ^ k, float_of_int (Option.value ~default:0 (Hashtbl.find_opt sums k))))
    engine_keys

let outcome_counts (c : F.counts) =
  [
    ("outcome.benign", float_of_int c.F.benign);
    ("outcome.sdc", float_of_int c.F.sdc);
    ("outcome.detected", float_of_int c.F.detected);
    ("outcome.crash", float_of_int c.F.crash);
    ("outcome.timeout", float_of_int c.F.timeout);
  ]

let static_index line =
  match Option.bind (Json.of_string_opt line) (Json.member "static_index") with
  | Some (Json.Int i) -> i
  | _ -> -1

(* The record lines at [k] seeded global sample indices of a sharded
   campaign, kept so the campaign itself need not be. *)
let spots ~seed lines =
  let arr = Array.of_list lines in
  List.map (fun i -> (i, arr.(i)))
    (Perfbench.Spotcheck.draw ~seed:(Hashtbl.hash seed) ~n:(Array.length arr) ~k:3)

let lines_digest lines = Digest.string (String.concat "\n" lines)

(* Re-derive spot-checked samples in process and compare record lines.
   [uniform_below] is the end of the uniformly drawn prefix (round 0 of
   an adaptive campaign); later samples were aimed at the site their
   record names. *)
let spot_check ctx target ~seed ~spots ~uniform_below ~what =
  List.iter
    (fun (i, line) ->
      let site = if i < uniform_below then -1 else static_index line in
      let _, _, r = F.campaign_sample ~site target ~seed ~sample:i in
      check ctx
        (Json.to_string (F.record_to_json r) = line)
        (Printf.sprintf "%s sample %d differs from in-process campaign_sample" what i))
    spots

(* ---- the serve daemon ---- *)

type daemon = { pid : int; port : int; root : string }

(* Daemons started and not yet stopped. *)
let daemons : int list ref = ref []

let host = "127.0.0.1"

let started = ref 0

(* Fork a daemon in a session of its own (so stopping it also stops the
   runner it may have forked) and wait until it answers /healthz.  Each
   daemon gets a new directory [root.N], so a start never has to clear
   a previous daemon's files. *)
let start_daemon root =
  incr started;
  let root = Printf.sprintf "%s.%d" root !started in
  Fsutil.mkdir_p root;
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
    ignore (Unix.setsid ());
    let log = Unix.openfile (Filename.concat root "daemon.log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
    Unix.dup2 log Unix.stdout;
    Unix.dup2 log Unix.stderr;
    (try Daemon.serve { Daemon.root; host; port = 0 } with _ -> ());
    Unix._exit 1
  | pid ->
    let port_file = Daemon.port_file root in
    let deadline = Proc.now () +. 60.0 in
    let rec wait_port () =
      match int_of_string_opt (String.trim (Fsutil.read_file port_file)) with
      | Some p -> Some p
      | None | (exception Sys_error _) ->
        if Proc.now () > deadline then None
        else begin
          Unix.sleepf 0.0001;
          wait_port ()
        end
    in
    let rec healthy port =
      match Http.request ~host ~port ~meth:"GET" ~path:"/healthz" () with
      | Ok { Http.status = 200; _ } -> true
      | _ ->
        Proc.now () < deadline
        && begin
             Unix.sleepf 0.0001;
             healthy port
           end
    in
    (match wait_port () with
    | Some port when healthy port ->
      daemons := pid :: !daemons;
      Ok { pid; port; root }
    | _ ->
      (try Unix.kill (-pid) Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Proc.waitpid_retry pid);
      Error "daemon did not come up")

let stop_pid pid =
  daemons := List.filter (( <> ) pid) !daemons;
  (try Unix.kill (-pid) Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (Proc.waitpid_retry pid)

let stop_daemon d = stop_pid d.pid

(* Stop whatever an aborted run left running, daemons first: they hold
   copies of the kernels' pipes. *)
let stop_all () =
  List.iter stop_pid !daemons;
  List.iter (fun k -> ignore (Native.stop k)) !Native.running

let request ctx d ~meth ~path ?body () =
  span ctx "http" (fun () -> Http.request ~host ~port:d.port ~meth ~path ?body ())

(* The job record of a one-job ferrum.jobs.v1 document. *)
let job_of_doc body =
  match String.split_on_char '\n' (String.trim body) with
  | [ _header; record ] -> (
    match Json.of_string_opt record with
    | Some j -> Queue.job_of_json j
    | None -> Error "bad job record")
  | _ -> Error "bad job document"
