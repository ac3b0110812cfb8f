(* The repository benchmark.

     bench.exe --workload W --seed N --seconds S --trace 0|1

   Runs one workload for S seconds from the checkout root and prints, as
   its last line, {"correct", "attempted", "failed", "metrics"}: the
   end-to-end metrics with --trace 0, the per-layer metrics with
   --trace 1.  Earlier lines carry the host fingerprint and the
   per-kernel native rows. *)

open Common

let workloads = [ "inject-long"; "adaptive-short"; "serve-mixed"; "native-overhead" ]

let unit_of name =
  let ends s = String.ends_with ~suffix:s name in
  if name = "peak_rss_mb" then "MB"
  else if name = "samples_per_s" then "1/s"
  else if String.starts_with ~prefix:"native_overhead_" name || String.starts_with ~prefix:"cost." name
  then "ratio"
  else if name = "machine.golden_cycles" then "cycles"
  else if String.starts_with ~prefix:"native." name || ends "_ns" || ends "ns_per_step" then "ns"
  else if ends "_pct" then "%"
  else if name = "store.bytes" then "bytes"
  else if ends "_s" || String.starts_with ~prefix:"self_s." name then "s"
  else "count"

let usage () =
  Printf.eprintf
    "usage: bench.exe --workload {%s} --seed N --seconds S --trace 0|1\n"
    (String.concat "|" workloads);
  exit 2

let parse argv =
  let rec go acc = function
    | k :: v :: rest when String.starts_with ~prefix:"--" k -> go ((k, v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let kv = go [] (List.tl (Array.to_list argv)) in
  let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some v -> v | None -> usage () in
  let w = get "--workload" in
  if not (List.mem w workloads) then usage ();
  let trace = int "--trace" in
  if trace <> 0 && trace <> 1 then usage ();
  let seconds = int "--seconds" in
  if seconds < 1 then usage ();
  (w, int "--seed", float_of_int seconds, trace = 1)

let () =
  let workload, seed, seconds, traced = parse Sys.argv in
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* Forked children (daemon runners exit through [exit]) inherit this
     handler; only the benchmark process itself stops what it started. *)
  let owner = Unix.getpid () in
  at_exit (fun () -> if Unix.getpid () = owner then stop_all ());
  let work = ".perfbench_work" in
  Fsutil.rm_rf work;
  Fsutil.mkdir_p work;
  let ctx = { seed; seconds; work; spans = Spans.create (); attempted = 0; failed = 0 } in
  ctx.spans.Spans.enabled <- traced;
  print_endline
    (Json.to_string
       (Json.Obj
          (("host", Json.Str "fingerprint")
          :: List.map (fun (k, v) -> (k, Json.Str v)) (Host.fields ()))));
  let r =
    match workload with
    | "inject-long" ->
      Workloads.campaign_workload ctx ~traced ~bench:"Particlefilter" ~kind:(Workloads.Flat 2000)
    | "adaptive-short" ->
      Workloads.campaign_workload ctx ~traced ~bench:"kmeans" ~kind:(Workloads.Adaptive 800)
    | "serve-mixed" -> Workloads.serve_workload ctx ~traced
    | _ -> Workloads.native_workload ctx ~traced
  in
  let metrics =
    if not traced then r.Workloads.e2e
    else begin
      let kernel, wave_counts = Probes.kernel ctx r.Workloads.kernel in
      let counts = if List.mem_assoc "faultsim.walks" r.Workloads.layers then [] else wave_counts in
      r.Workloads.layers @ counts @ kernel
      @ Probes.daemon ctx r.Workloads.kernel
      @ Probes.catalogue ctx ~native:r.Workloads.native
    end
  in
  Fsutil.rm_rf work;
  let metric (name, v) = (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.Str (unit_of name)) ]) in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (ctx.failed = 0));
            ("attempted", Json.Int ctx.attempted);
            ("failed", Json.Int ctx.failed);
            ("metrics", Json.Obj (List.map metric metrics));
          ]))
