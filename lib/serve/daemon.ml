(* `ferrum serve` — the campaign daemon.

   One long-running process multiplexing three concerns over a single
   [Unix.select] loop, in the same fork-per-task style as the campaign
   runner:

     - an HTTP/JSON API on a loopback socket: POST /jobs submits a
       campaign spec, GET /jobs/:id polls typed state, GET /runs/...
       serves artifacts out of the content-addressed run store;
     - a supervised runner child: at most one job executes at a time
       (campaigns already fork a worker pool internally); the child
       streams renumbered live events into the job directory, writes
       the finished run into a spool and publishes it into the store,
       then reports through an outcome file reaped by the parent;
     - SSE tailer children: GET /jobs/:id/events forks a child that
       tails the job's live event log (complete lines only) and frames
       records as `id:`-numbered server-sent events, so a client
       reconnect with Last-Event-ID resumes without gaps and the
       reassembled stream replay-validates under [Events.replay].

   Every JSON body the daemon emits is one of the repo's
   schema-versioned JSONL forms ([ferrum.jobs.v1], [ferrum.run.v1],
   [ferrum.events.v1], ...), so `ferrum metrics` can validate anything
   the server returns.

   Layout under the daemon root:

     queue/jobs.jsonl       ferrum.jobs.v1 queue (source of truth)
     queue/job-<id>/        live events.jsonl, parts/, spool/
     store/<digest>/        published runs (content-addressed)
     store/index.jsonl      ferrum.run.v1 cross-run index
     port, pid              actual bound port / daemon pid *)

module F = Ferrum_faultsim.Faultsim
module Json = Ferrum_telemetry.Json
module Metrics = Ferrum_telemetry.Metrics
module Events = Ferrum_telemetry.Events
module Sse = Ferrum_telemetry.Sse
module Trace = Ferrum_telemetry.Trace
module Runner = Ferrum_campaign.Runner
module Manifest = Ferrum_campaign.Manifest
module Store = Ferrum_campaign.Store
module Queue = Ferrum_campaign.Queue
module Fsutil = Ferrum_campaign.Fsutil
module Html = Ferrum_report.Html
module History = Ferrum_report.History

type config = { root : string; host : string; port : int }

let queue_dir root = Filename.concat root "queue"
let store_root root = Filename.concat root "store"
let port_file root = Filename.concat root "port"
let pid_file root = Filename.concat root "pid"
let live_events_file = "events.jsonl"
let outcome_file = "outcome.json"

(* Mirrors [Queue.job_dir] for children that must not load the queue
   (loading demotes Running jobs — a read-side effect only the daemon
   parent may trigger). *)
let job_dir_of qdir id = Filename.concat qdir (Fmt.str "job-%d" id)

(* Read-only job lookup straight off jobs.jsonl, for tailer children
   polling state from outside the daemon process. *)
let peek_job qdir id : Queue.job option =
  let path = Filename.concat qdir Queue.file in
  if not (Sys.file_exists path) then None
  else
    match Metrics.read_lines path with
    | _header :: records ->
      List.find_map
        (fun line ->
          match Option.map Queue.job_of_json (Json.of_string_opt line) with
          | Some (Ok j) when j.Queue.id = id -> Some j
          | _ -> None)
        records
    | [] -> None

(* ------------------------------------------------------------------ *)
(* Runner child: execute one job end to end.                           *)
(* ------------------------------------------------------------------ *)

(* The job's tracer: continue the client's traceparent context when
   the submission carried one (the whole CLI-to-worker story then
   stitches into the client's trace), else root a fresh trace derived
   from the spec — deterministic per submitted workload. *)
let job_tracer (job : Queue.job) (spec : Spec.t) =
  match Trace.of_traceparent job.Queue.trace with
  | Some (trace, parent) ->
    Trace.scoped
      (Trace.ctx_make ~trace ~parent ~seg:(Fmt.str "j%d" job.Queue.id))
      ~proc:"daemon"
  | None ->
    Trace.create
      ~trace:
        (Trace.derive_id ~seed:spec.Spec.seed
           (Fmt.str "job:%s" (Digest.to_hex (Digest.string job.Queue.spec))))
      ~proc:"daemon" ()

(* Run the job's campaign and publish the result.  Runs in a forked
   child; everything it tells the parent goes through the outcome
   file.  The live event log is renumbered in arrival order as it is
   appended — one flushed line per event — so a concurrent tailer
   always sees a prefix of a replay-consistent stream.

   The stored trace covers the daemon's side too: a "job" span wraps
   "queue-wait" (wall interval backdated to submission time),
   "resolve" (workload build with its "compile" / "protect.<tech>"
   stage spans, then the golden run) and the campaign, whose
   runner continues the job span's context — so /runs/:digest/trace
   serves one stitched trace from client submission to worker engine
   phases. *)
let run_job cfg ~jobdir (job : Queue.job) : (string, string) result =
  let ( let* ) = Result.bind in
  let* spec = Spec.of_string job.Queue.spec in
  let tracer = job_tracer job spec in
  let* manifest, result =
    Trace.span tracer "job" (fun () ->
        if job.Queue.submitted > 0.0 then
          Trace.span ~w_start:job.Queue.submitted tracer "queue-wait"
            (fun () -> ());
        let* r =
          Trace.span tracer "resolve" (fun () ->
              Spec.resolve ~recorder:tracer spec)
        in
        let manifest = r.Spec.manifest in
        Fsutil.mkdir_p jobdir;
        (* Part files left by an earlier attempt are only replayed when
           they were written under a compatible manifest (same
           workload, seed, shard map ...) — the same gate the CLI
           campaign applies. *)
        (match Manifest.load ~dir:jobdir with
        | Ok recorded when Manifest.compatible recorded manifest -> ()
        | Ok _ | Error _ -> Fsutil.rm_rf (Store.parts_dir jobdir));
        Manifest.save ~dir:jobdir manifest;
        let all_sites = spec.Spec.scope = "all-sites" in
        let oc = open_out (Filename.concat jobdir live_events_file) in
        output_string oc
          (Json.to_string
             (Store.events_header ~benchmark:spec.Spec.benchmark
                ~technique:spec.Spec.technique ~samples:spec.Spec.samples
                ~seed:spec.Spec.seed ~all_sites
                ~fault_bits:spec.Spec.fault_bits ~shards:spec.Spec.shards));
        output_char oc '\n';
        flush oc;
        let seq = ref 0 in
        let on_event (e : Events.t) =
          output_string oc
            (Json.to_string (Events.to_json { e with seq = !seq }));
          output_char oc '\n';
          flush oc;
          incr seq
        in
        let mode = if spec.Spec.traced then Runner.Traced else Runner.Inject in
        let* result =
          match
            Runner.run ~fault_bits:spec.Spec.fault_bits
              ~part_dir:(Store.parts_dir jobdir) ~on_event ~mode
              ~trace_ctx:(Trace.ctx_for tracer ~seg:"c")
              ~shards:spec.Spec.shards ~seed:spec.Spec.seed
              ~samples:spec.Spec.samples r.Spec.target
          with
          | result -> Ok result
          | exception Failure msg -> Error msg
        in
        close_out oc;
        Ok (manifest, result))
  in
  (* Assemble the complete store entry in a spool directory, then
     publish it whole — the store only ever receives coherent runs.
     The daemon's own (now closed) spans prepend the campaign's. *)
  let spool = Filename.concat jobdir "spool" in
  Fsutil.rm_rf spool;
  Store.write_run
    ~extra_trace:(Trace.span_lines tracer, Trace.wall_lines tracer)
    ~dir:spool ~manifest ~result ();
  Fsutil.write_file
    (Filename.concat spool Store.run_file)
    (Store.jsonl (Store.run_header [])
       [ Json.to_string (Store.run_record ~manifest ~result) ]);
  (match Html.render_dir spool with
  | Ok html ->
    Fsutil.write_file (Filename.concat spool Store.dashboard_file) html
  | Error _ -> ());
  Store.publish ~root:(store_root cfg.root) ~src:spool

let write_outcome ~jobdir outcome =
  let j =
    match outcome with
    | Ok digest ->
      Json.Obj [ ("ok", Json.Int 1); ("digest", Json.Str digest) ]
    | Error e -> Json.Obj [ ("ok", Json.Int 0); ("error", Json.Str e) ]
  in
  Fsutil.write_file (Filename.concat jobdir outcome_file) (Json.to_string j)

let read_outcome ~jobdir : (string, string) result =
  let path = Filename.concat jobdir outcome_file in
  if not (Sys.file_exists path) then Error "runner died without an outcome"
  else
    match Json.of_string_opt (Fsutil.read_file path) with
    | Some j -> (
      match (Json.member "ok" j, Json.member "digest" j, Json.member "error" j)
      with
      | Some (Json.Int 1), Some (Json.Str d), _ -> Ok d
      | _, _, Some (Json.Str e) -> Error e
      | _ -> Error "malformed outcome file")
    | None -> Error "malformed outcome file"

(* ------------------------------------------------------------------ *)
(* SSE tailer child.                                                   *)
(* ------------------------------------------------------------------ *)

(* Complete lines of [path]: split on '\n' and drop the final element —
   the empty artifact after a terminated last line, or an unterminated
   fragment an appender is still writing.  Either way a torn record
   never leaks into the stream. *)
let complete_lines path =
  if not (Sys.file_exists path) then []
  else
    match List.rev (String.split_on_char '\n' (Fsutil.read_file path)) with
    | _last :: rev_rest -> List.rev rev_rest
    | [] -> []

(* Stream a job's events as SSE frames.  Record [i] of the log (header
   excluded) is sent with [id: i]; a reconnect with [Last-Event-ID: n]
   starts at record [n + 1].  The source is the job's live log while it
   exists, else the published store entry (cached jobs never have a
   live log).  Ends with a comment frame naming the final job state. *)
let stream_events cfg job_id ~last fd =
  Http.respond_stream fd ~content_type:"text/event-stream";
  Http.write_all fd (Sse.retry_frame 500);
  let qdir = queue_dir cfg.root in
  let live = Filename.concat (job_dir_of qdir job_id) live_events_file in
  let next = ref (last + 1) in
  let rec loop () =
    let job = peek_job qdir job_id in
    let source =
      if Sys.file_exists live then Some live
      else
        match job with
        | Some j when j.Queue.digest <> "" -> (
          match Store.lookup ~root:(store_root cfg.root) j.Queue.digest with
          | Store.Hit dir -> Some (Filename.concat dir Store.events_file)
          | Store.Corrupt _ | Store.Miss -> None)
        | _ -> None
    in
    (match source with
    | None -> ()
    | Some path ->
      let records =
        match complete_lines path with _header :: r -> r | [] -> []
      in
      List.iteri
        (fun i record ->
          if i >= !next then begin
            Http.write_all fd (Sse.encode ~id:i record);
            next := i + 1
          end)
        records);
    match job with
    | Some { Queue.state = Queue.Done | Queue.Failed; _ } ->
      let state =
        match job with
        | Some j -> Queue.state_name j.Queue.state
        | None -> "gone"
      in
      Http.write_all fd (Sse.comment (Fmt.str "job %d %s" job_id state))
    | None -> Http.write_all fd (Sse.comment (Fmt.str "job %d gone" job_id))
    | Some _ ->
      Unix.sleepf 0.1;
      loop ()
  in
  try loop ()
  with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
    (* client went away; nothing to clean up *)
    ()

(* ------------------------------------------------------------------ *)
(* Daemon.                                                             *)
(* ------------------------------------------------------------------ *)

(* Latency histogram with fixed log-spaced bounds; cheap enough to
   update on every request, rendered only by /metricz?format=text. *)
let hist_bounds = [| 0.001; 0.01; 0.1; 1.0; 10.0 |]

type hist = {
  buckets : int array;  (** per-bound counts + overflow, non-cumulative *)
  mutable h_count : int;
  mutable h_sum : float;
}

let hist_make () =
  { buckets = Array.make (Array.length hist_bounds + 1) 0;
    h_count = 0;
    h_sum = 0.0 }

let hist_observe h v =
  let i = ref 0 in
  while !i < Array.length hist_bounds && v > hist_bounds.(!i) do incr i done;
  h.buckets.(!i) <- h.buckets.(!i) + 1;
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum +. v

type daemon = {
  cfg : config;
  q : Queue.t;
  listen_fd : Unix.file_descr;
  mutable runner : (int * int * float) option;
      (** (job id, child pid, start wall time) *)
  mutable sse_children : int list;
  (* /metricz counters *)
  mutable http_requests : int;
  mutable jobs_submitted : int;
  mutable cache_hits : int;
  mutable sse_streams : int;
  http_seconds : hist;  (** request handling latency *)
  job_seconds : hist;  (** runner-child lifetime per finished job *)
}

let log fmt = Fmt.epr ("[serve] " ^^ fmt ^^ "@.")

(* A one-job jobs.v1 document — the body of POST /jobs and
   GET /jobs/:id responses, validating under `ferrum metrics`. *)
let job_doc (job : Queue.job) =
  Store.jsonl (Queue.header [ ("jobs", Json.Int 1) ])
    [ Json.to_string (Queue.job_to_json job) ]

let ndjson = "application/x-ndjson"

let serve_file fd ?(content_type = ndjson) path =
  if Sys.file_exists path then Http.respond fd ~content_type (Fsutil.read_file path)
  else Http.respond_error fd 404 (Fmt.str "no %s" (Filename.basename path))

(* POST /jobs: parse and resolve the spec (this builds the workload and
   runs the golden run — the submission cost), digest its manifest and
   check the store: a hit is answered [done] immediately without
   running anything; a miss is queued. *)
let submit_job d (req : Http.request) fd =
  match Result.bind (Spec.of_string req.Http.body) Spec.resolve with
  | Error e -> Http.respond_error fd 400 e
  | Ok r ->
    let digest = Manifest.digest r.Spec.manifest in
    let spec = Spec.to_string r.Spec.spec in
    (* The client's span context, carried on the job record so the
       runner child can stitch its spans under the caller's trace. *)
    let trace =
      match Http.header_value "traceparent" req.Http.headers with
      | Some tp when Trace.of_traceparent tp <> None -> tp
      | Some _ | None -> ""
    in
    let submitted = Unix.gettimeofday () in
    d.jobs_submitted <- d.jobs_submitted + 1;
    (match Store.lookup ~root:(store_root d.cfg.root) digest with
    | Store.Hit _ ->
      d.cache_hits <- d.cache_hits + 1;
      let job =
        Queue.submit d.q ~trace ~submitted ~spec ~digest ~cached:true
          ~state:Queue.Done
      in
      log "job %d cached (%s)" job.Queue.id digest;
      Http.respond fd ~status:200 ~content_type:ndjson (job_doc job)
    | Store.Corrupt _ | Store.Miss ->
      let job =
        Queue.submit d.q ~trace ~submitted ~spec ~digest ~cached:false
          ~state:Queue.Pending
      in
      log "job %d queued (%s)" job.Queue.id digest;
      Http.respond fd ~status:202 ~content_type:ndjson (job_doc job))

(* GET /metricz: the queue as a jobs.v1 document with daemon counters
   in the header and per-job event-log sizes on the records — extra
   fields ride along without breaking schema validation. *)
let metricz d fd =
  let qdir = queue_dir d.cfg.root in
  let record (j : Queue.job) =
    let live = Filename.concat (job_dir_of qdir j.Queue.id) live_events_file in
    let events_logged =
      match complete_lines live with [] -> 0 | lines -> List.length lines - 1
    in
    let base =
      match Queue.job_to_json j with Json.Obj l -> l | other -> [ ("job", other) ]
    in
    Json.to_string (Json.Obj (base @ [ ("events_logged", Json.Int events_logged) ]))
  in
  let jobs = Queue.jobs d.q in
  let header =
    Queue.header
      [
        ("jobs", Json.Int (List.length jobs));
        ("http_requests", Json.Int d.http_requests);
        ("jobs_submitted", Json.Int d.jobs_submitted);
        ("cache_hits", Json.Int d.cache_hits);
        ("sse_streams", Json.Int d.sse_streams);
      ]
  in
  Http.respond fd ~content_type:ndjson
    (Store.jsonl header (List.map record jobs))

(* GET /metricz?format=text: the same counters plus latency histograms
   in the text exposition format scrapers ingest.  The query-less form
   above stays the schema-validated jobs.v1 document. *)
let metricz_text d fd =
  let b = Buffer.create 1024 in
  let metric kind name help v =
    Buffer.add_string b
      (Fmt.str "# HELP %s %s\n# TYPE %s %s\n%s %d\n" name help name kind name
         v)
  in
  metric "counter" "ferrum_http_requests_total" "HTTP connections accepted"
    d.http_requests;
  metric "counter" "ferrum_jobs_submitted_total" "campaign jobs submitted"
    d.jobs_submitted;
  metric "counter" "ferrum_cache_hits_total"
    "submissions served from the run store" d.cache_hits;
  metric "counter" "ferrum_sse_streams_total" "SSE event streams opened"
    d.sse_streams;
  List.iter
    (fun st ->
      let n =
        List.length
          (List.filter (fun j -> j.Queue.state = st) (Queue.jobs d.q))
      in
      Buffer.add_string b
        (Fmt.str "ferrum_jobs{state=\"%s\"} %d\n" (Queue.state_name st) n))
    [ Queue.Pending; Queue.Running; Queue.Done; Queue.Failed ];
  let histogram name help (h : hist) =
    Buffer.add_string b
      (Fmt.str "# HELP %s %s\n# TYPE %s histogram\n" name help name);
    let cum = ref 0 in
    Array.iteri
      (fun i n ->
        cum := !cum + n;
        let le =
          if i < Array.length hist_bounds then Fmt.str "%g" hist_bounds.(i)
          else "+Inf"
        in
        Buffer.add_string b
          (Fmt.str "%s_bucket{le=\"%s\"} %d\n" name le !cum))
      h.buckets;
    Buffer.add_string b
      (Fmt.str "%s_sum %g\n%s_count %d\n" name h.h_sum name h.h_count)
  in
  histogram "ferrum_http_request_seconds" "request handling latency"
    d.http_seconds;
  histogram "ferrum_job_seconds" "runner-child lifetime per finished job"
    d.job_seconds;
  Http.respond fd ~content_type:"text/plain; version=0.0.4"
    (Buffer.contents b)

let run_artifact d digest artifact fd =
  match Store.lookup ~root:(store_root d.cfg.root) digest with
  | Store.Miss -> Http.respond_error fd 404 (Fmt.str "no run %s" digest)
  | Store.Corrupt e -> Http.respond_error fd 500 (Fmt.str "corrupt entry: %s" e)
  | Store.Hit dir -> (
    let file ?content_type name =
      serve_file fd ?content_type (Filename.concat dir name)
    in
    match artifact with
    | "records" -> file Store.injection_file
    | "vulnmap" -> file Store.vulnmap_file
    | "events" -> file Store.events_file
    | "stats" -> file Store.stats_file
    | "trace" -> file Store.trace_file
    | "trace-wall" -> file Store.trace_wall_file
    | "run" -> file Store.run_file
    | "manifest" -> file ~content_type:"application/json" Manifest.file
    | "dashboard" -> file ~content_type:"text/html" Store.dashboard_file
    | other -> Http.respond_error fd 404 (Fmt.str "no artifact %S" other))

let history_page d fd =
  match History.render ~root:(store_root d.cfg.root) with
  | Ok html -> Http.respond fd ~content_type:"text/html" html
  | Error e -> Http.respond_error fd 500 e

(* Route one parsed request.  SSE is the only handler that outlives the
   request: it forks, and the child exits when the stream ends. *)
let route d (req : Http.request) fd =
  let path, query =
    match String.index_opt req.Http.path '?' with
    | Some q ->
      ( String.sub req.Http.path 0 q,
        String.sub req.Http.path (q + 1)
          (String.length req.Http.path - q - 1) )
    | None -> (req.Http.path, "")
  in
  let query_has kv = List.mem kv (String.split_on_char '&' query) in
  let parts =
    List.filter (fun s -> s <> "") (String.split_on_char '/' path)
  in
  match (req.Http.meth, parts) with
  | "GET", [] | "GET", [ "history" ] -> history_page d fd
  | "GET", [ "healthz" ] ->
    Http.respond fd ~content_type:"text/plain" "ok\n"
  | "POST", [ "jobs" ] -> submit_job d req fd
  | "GET", [ "jobs" ] ->
    serve_file fd (Filename.concat (queue_dir d.cfg.root) Queue.file)
  | "GET", [ "jobs"; id ] -> (
    match Option.bind (int_of_string_opt id) (Queue.find d.q) with
    | Some job -> Http.respond fd ~content_type:ndjson (job_doc job)
    | None -> Http.respond_error fd 404 (Fmt.str "no job %s" id))
  | "GET", [ "jobs"; id; "events" ] -> (
    match Option.bind (int_of_string_opt id) (Queue.find d.q) with
    | None -> Http.respond_error fd 404 (Fmt.str "no job %s" id)
    | Some job ->
      let last =
        match Http.header_value "last-event-id" req.Http.headers with
        | Some v -> Option.value ~default:(-1) (int_of_string_opt v)
        | None -> -1
      in
      d.sse_streams <- d.sse_streams + 1;
      flush stdout;
      flush stderr;
      (match Unix.fork () with
      | 0 ->
        (try Unix.close d.listen_fd with Unix.Unix_error _ -> ());
        (try stream_events d.cfg job.Queue.id ~last fd with _ -> ());
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Stdlib.exit 0
      | pid -> d.sse_children <- pid :: d.sse_children))
  | "GET", [ "runs" ] ->
    let index = Store.index_file (store_root d.cfg.root) in
    if not (Sys.file_exists index) then
      ignore (Store.rebuild_index ~root:(store_root d.cfg.root));
    serve_file fd index
  | "GET", [ "runs"; digest; artifact ] -> run_artifact d digest artifact fd
  | "GET", [ "metricz" ] ->
    if query_has "format=text" then metricz_text d fd else metricz d fd
  | meth, _ ->
    if meth = "GET" || meth = "POST" then
      Http.respond_error fd 404 (Fmt.str "no route %s %s" meth path)
    else Http.respond_error fd 405 (Fmt.str "method %s not allowed" meth)

let handle_connection d fd =
  d.http_requests <- d.http_requests + 1;
  let t0 = Unix.gettimeofday () in
  (* a wedged client must not hold the daemon: bound the header read *)
  (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0
   with Unix.Unix_error _ -> ());
  (match Http.read_request fd with
  | Ok req -> (
    try route d req fd
    with
    | Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ()
    | e ->
      log "handler error: %s" (Printexc.to_string e);
      (try Http.respond_error fd 500 "internal error"
       with Unix.Unix_error _ -> ()))
  | Error e -> (
    try Http.respond_error fd 400 e with Unix.Unix_error _ -> ()));
  hist_observe d.http_seconds (Unix.gettimeofday () -. t0);
  try Unix.close fd with Unix.Unix_error _ -> ()

(* Start the pending job's runner child. *)
let start_runner d (job : Queue.job) =
  Queue.update d.q { job with Queue.state = Queue.Running };
  let jobdir = job_dir_of (queue_dir d.cfg.root) job.Queue.id in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
    (try Unix.close d.listen_fd with Unix.Unix_error _ -> ());
    let outcome =
      try run_job d.cfg ~jobdir job
      with e -> Error (Printexc.to_string e)
    in
    Fsutil.mkdir_p jobdir;
    write_outcome ~jobdir outcome;
    Stdlib.exit (match outcome with Ok _ -> 0 | Error _ -> 1)
  | pid ->
    log "job %d running (pid %d)" job.Queue.id pid;
    d.runner <- Some (job.Queue.id, pid, Unix.gettimeofday ())

(* Reap a finished runner child and record its outcome. *)
let finish_runner d job_id =
  let jobdir = job_dir_of (queue_dir d.cfg.root) job_id in
  match Queue.find d.q job_id with
  | None -> ()
  | Some job -> (
    match read_outcome ~jobdir with
    | Ok digest ->
      log "job %d done (%s)" job_id digest;
      Queue.update d.q
        { job with Queue.state = Queue.Done; digest; error = "" }
    | Error e ->
      log "job %d failed: %s" job_id e;
      Queue.update d.q { job with Queue.state = Queue.Failed; error = e })

let reaped pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true

(* The daemon loop: reap children, schedule the next pending job,
   accept one connection per select round. *)
let rec loop d =
  d.sse_children <- List.filter (fun pid -> not (reaped pid)) d.sse_children;
  (match d.runner with
  | Some (job_id, pid, t0) when reaped pid ->
    d.runner <- None;
    hist_observe d.job_seconds (Unix.gettimeofday () -. t0);
    finish_runner d job_id
  | _ -> ());
  (match (d.runner, Queue.next_pending d.q) with
  | None, Some job -> start_runner d job
  | _ -> ());
  (match Unix.select [ d.listen_fd ] [] [] 0.25 with
  | [ _ ], _, _ -> (
    (* accept can fail transiently (EINTR, ECONNABORTED, EMFILE under
       fd pressure from SSE forks) and a hostile client can error the
       handler; neither may take the daemon down with it. *)
    match Unix.accept d.listen_fd with
    | exception Unix.Unix_error (e, _, _) ->
      log "accept: %s" (Unix.error_message e)
    | fd, _ -> (
      try handle_connection d fd
      with e ->
        log "connection error: %s" (Printexc.to_string e);
        (try Unix.close fd with Unix.Unix_error _ -> ())))
  | _ -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
  loop d

(* Bind, record the actual port (supports --port 0 auto-assignment),
   and serve forever. *)
let serve (cfg : config) : unit =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Fsutil.mkdir_p cfg.root;
  let q = Queue.load ~dir:(queue_dir cfg.root) in
  Fsutil.mkdir_p (store_root cfg.root);
  let addr =
    try Unix.inet_addr_of_string cfg.host
    with Failure _ -> Unix.inet_addr_loopback
  in
  let listen_fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
  Unix.bind listen_fd (Unix.ADDR_INET (addr, cfg.port));
  Unix.listen listen_fd 16;
  let port =
    match Unix.getsockname listen_fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> cfg.port
  in
  Fsutil.write_file (port_file cfg.root) (Fmt.str "%d\n" port);
  Fsutil.write_file (pid_file cfg.root) (Fmt.str "%d\n" (Unix.getpid ()));
  log "listening on %s:%d, root %s" cfg.host port cfg.root;
  loop
    {
      cfg;
      q;
      listen_fd;
      runner = None;
      sse_children = [];
      http_requests = 0;
      jobs_submitted = 0;
      cache_hits = 0;
      sse_streams = 0;
      http_seconds = hist_make ();
      job_seconds = hist_make ();
    }
