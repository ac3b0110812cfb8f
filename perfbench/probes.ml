(* Per-layer unit costs, measured in a traced run by calling each layer
   directly on the workload's kernel (FERRUM-protected), plus the cycle
   model against native timing over the whole catalogue. *)

open Common
module Snapshot = Ferrum_machine.Snapshot
module Shard = Ferrum_campaign.Shard
module Store = Ferrum_campaign.Store
module Manifest = Ferrum_campaign.Manifest
module Spec = Ferrum_serve.Spec
module Tstats = Ferrum_telemetry.Stats

(* Median wall time of [f] over three calls. *)
let med f = Stats.median (List.init 3 (fun _ -> snd (Proc.time f)))

(* Mean seconds per call of [f i] over at least [min] calls and about
   [budget] seconds. *)
let per_call ~min budget f =
  let t0 = Proc.now () in
  let n = ref 0 in
  while !n < min || Proc.now () -. t0 < budget do
    f !n;
    incr n
  done;
  (Proc.now () -. t0) /. float_of_int !n

let rec tree_bytes path =
  if Sys.is_directory path then
    Array.fold_left (fun acc f -> acc + tree_bytes (Filename.concat path f)) 0 (Sys.readdir path)
  else (Unix.stat path).Unix.st_size

let probe_spec bench seed =
  { (Workloads.spec_of seed) with Spec.benchmark = bench; samples = 20 }

let kernel ctx bench =
  let seed = derive ctx "probe" 0 in
  let m = (entry bench).Catalog.build () in
  let compile_s = med (fun () -> Pipeline.compile_raw m) in
  let protect_s = med (fun () -> Pipeline.protect Technique.Ferrum m) in
  let prog = (Pipeline.protect Technique.Ferrum m).Pipeline.program in
  let load_s = med (fun () -> Machine.load prog) in
  let img = Machine.load prog in
  let g, golden_s = Proc.time (fun () -> Machine.golden img) in
  let prepare_s = med (fun () -> F.prepare img) in
  let predecode_s =
    Stats.median (List.init 3 (fun _ ->
        let t = F.prepare img in
        snd (Proc.time (fun () -> F.predecoded t))))
  in
  let t = F.prepare img in
  let counted i = t.F.eligible.(i) in
  let interval =
    match F.default_engine with F.Checkpointed k -> Some k | F.Scratch | F.Pooled -> None
  in
  let snap_s = med (fun () -> Snapshot.build ?interval ~counted img) in
  let cache = Snapshot.build ?interval ~counted img in
  let slot = Snapshot.make_slot cache in
  let rng = Random.State.make [| ctx.seed; 4 |] in
  let restore_s =
    per_call ~min:200 0.2 (fun _ ->
        ignore (Snapshot.restore slot ~dyn_index:(Random.State.int rng t.F.eligible_steps)))
  in
  (* Untraced samples, after one warm-up sample builds the checkpoints
     and the decoded program. *)
  ignore (F.campaign_sample t ~seed ~sample:0);
  let ph = F.phases t in
  let steps () = ph.F.ph_prefix_steps + ph.F.ph_suffix_steps in
  let steps0 = steps () and t0 = Proc.now () in
  let tallies = Hashtbl.create 64 and n = ref 1 in
  while !n < 20 || Proc.now () -. t0 < 0.5 do
    let cls, fault, _ = F.campaign_sample t ~seed ~sample:!n in
    let site = fault.F.static_index in
    let tl = Option.value ~default:Tstats.zero (Hashtbl.find_opt tallies site) in
    Hashtbl.replace tallies site (Tstats.add tl (cls = F.Sdc));
    incr n
  done;
  let sample_wall = Proc.now () -. t0 in
  let sample_ns = sample_wall *. 1e9 /. float_of_int (!n - 1) in
  let ns_per_step = sample_wall *. 1e9 /. float_of_int (steps () - steps0) in
  let traced_s =
    per_call ~min:5 0.5 (fun i -> ignore (F.vulnmap_sample t ~seed ~sample:i))
  in
  (* one adaptive-short round's worth of samples *)
  let tally site = Option.value ~default:Tstats.zero (Hashtbl.find_opt tallies site) in
  let allocate_s = med (fun () -> F.allocate t ~tally ~n:(800 / Workloads.rounds)) in
  let outs = ref [] in
  Shard.run_range ~traced:true ~seed t { Shard.lo = 0; hi = 20 } ~on_sample:(fun o -> outs := o :: !outs);
  let outs = Array.of_list !outs in
  let encoded = Array.map (fun o -> Json.to_string (Shard.sample_out_to_json o)) outs in
  let k = Array.length outs in
  let encode_s =
    per_call ~min:1000 0.1 (fun i -> ignore (Json.to_string (Shard.sample_out_to_json outs.(i mod k))))
  in
  Array.iteri
    (fun i s ->
      check ctx
        (match Shard.sample_out_of_json (Json.of_string s) with
        | Ok o -> Json.to_string (Shard.sample_out_to_json o) = encoded.(i)
        | Error _ -> false)
        "shard record round trip")
    encoded;
  let decode_s =
    per_call ~min:1000 0.1 (fun i -> ignore (Shard.sample_out_of_json (Json.of_string encoded.(i mod k))))
  in
  (* One wave on a fresh target: fork, golden walk, pipe, merge. *)
  let wave () =
    let t = F.prepare img in
    Proc.time (fun () -> Runner.run ~mode:Runner.Inject ~shards:2 ~seed ~samples:2 t)
  in
  let waves = List.init 3 (fun _ -> wave ()) in
  let wave_s = Stats.median (List.map snd waves) in
  let result = fst (List.hd waves) in
  let manifest =
    Manifest.make ~benchmark:bench ~technique:"ferrum" ~samples:2 ~seed ~shards:2 ~fault_bits:1
      ~all_sites:false ~traced:false ~program:prog t
  in
  let root = Filename.concat ctx.work "probe-store" in
  let spool = Filename.concat ctx.work "probe-spool" in
  let store_times =
    List.init 3 (fun _ ->
        Fsutil.rm_rf root;
        Fsutil.rm_rf spool;
        let (), write_s = Proc.time (fun () -> Store.write_run ~dir:spool ~manifest ~result ()) in
        Fsutil.write_file (Filename.concat spool Store.run_file)
          (Store.jsonl (Store.run_header []) [ Json.to_string (Store.run_record ~manifest ~result) ]);
        let published, publish_s = Proc.time (fun () -> Store.publish ~root ~src:spool) in
        check ctx (Result.is_ok published) "store publish";
        (write_s, publish_s))
  in
  let digest = Manifest.digest manifest in
  check ctx (match Store.lookup ~root digest with Store.Hit _ -> true | _ -> false) "store lookup";
  let lookup_s = per_call ~min:20 0.05 (fun _ -> ignore (Store.lookup ~root digest)) in
  let resolve_s = med (fun () -> Spec.resolve (probe_spec bench seed)) in
  let counts = outcome_counts result.Runner.counts @ engine_counts result.Runner.trace_spans in
  ( [
      ("pipeline.compile_s", compile_s);
      ("pipeline.protect_s", protect_s);
      ("pipeline.static_insns", float_of_int (Ferrum_asm.Prog.num_instructions prog));
      ("machine.load_s", load_s);
      ("machine.golden_ns_per_step", golden_s *. 1e9 /. float_of_int g.Machine.dyn_instructions);
      ("machine.golden_cycles", g.Machine.cycles);
      ("machine.golden_steps", float_of_int g.Machine.dyn_instructions);
      ("predecode.decode_s", predecode_s);
      ("snapshot.build_s", snap_s);
      ("snapshot.restore_ns", restore_s *. 1e9);
      ("snapshot.ckpts", float_of_int (Snapshot.ckpt_count cache));
      ("faultsim.prepare_s", prepare_s);
      ("faultsim.sample_ns", sample_ns);
      ("faultsim.ns_per_step", ns_per_step);
      ("faultsim.traced_sample_ns", traced_s *. 1e9);
      ("faultsim.allocate_s", allocate_s);
      ("shard.encode_ns", encode_s *. 1e9);
      ("shard.decode_ns", decode_s *. 1e9);
      ("runner.wave_fixed_s", wave_s);
      ("store.write_run_s", Stats.median (List.map fst store_times));
      ("store.publish_s", Stats.median (List.map snd store_times));
      ("store.lookup_s", lookup_s);
      ("store.bytes", float_of_int (tree_bytes (Store.entry_dir ~root digest)));
      ("spec.resolve_s", resolve_s);
    ],
    counts )

(* A daemon of its own: one small traced job, then status polls. *)
let daemon ctx bench =
  match start_daemon (Filename.concat ctx.work "probe-daemon") with
  | Error e ->
    check ctx false e;
    []
  | Ok d ->
    let layers =
      match Workloads.miss ctx d (probe_spec bench (derive ctx "probe" 1)) with
      | Error e ->
        check ctx false ("probe job: " ^ e);
        []
      | Ok (_, _, wait) ->
        let get () = Http.request ~host ~port:d.port ~meth:"GET" ~path:"/jobs/1" () in
        check ctx (match get () with Ok { Http.status = 200; _ } -> true | _ -> false) "GET /jobs/1";
        let rt = per_call ~min:20 0.05 (fun _ -> ignore (get ())) in
        [ ("daemon.queue_wait_s", wait); ("http.roundtrip_s", rt) ]
    in
    stop_daemon d;
    layers

(* Simulated cycles of every configuration against its native time:
   the cycle model's accuracy.  [native_ns] is reused when the workload
   already timed the catalogue. *)
let catalogue ctx ~native =
  let expected = interp_outputs () in
  let cycles =
    List.concat_map
      (fun bench ->
        let m = (entry bench).Catalog.build () in
        List.map
          (fun (tech, technique) ->
            let g = Machine.golden (Machine.load (Native.program technique m)) in
            check ctx
              (g.Machine.outcome = Machine.Exit (expected bench))
              (Printf.sprintf "%s.%s simulated output differs from Ir.Interp" bench tech);
            ((bench, tech), g.Machine.cycles))
          Native.techniques)
      Catalog.names
  in
  let native =
    match native with
    | Some t -> Some t
    | None -> (
      match native_build ctx ~dir:(Filename.concat ctx.work "probe-native") Catalog.names with
      | Error _ -> None
      | Ok kernels ->
        let t = native_time ctx kernels ~until:(Proc.now () +. 3.0) in
        native_stop ctx kernels;
        check_native_outputs ctx kernels ~expected;
        Some t)
  in
  let sim = overheads (fun k -> List.assoc_opt k cycles) Catalog.names in
  let nat = match native with Some t -> t.overhead | None -> [] in
  let suffix name = String.sub name 16 (String.length name - 16) in
  List.map (fun (n, v) -> ("cost.sim_overhead_" ^ suffix n, v)) sim
  @ List.filter_map
      (fun (n, v) ->
        Option.map (fun nv -> ("cost.model_error_" ^ suffix n, v /. nv)) (List.assoc_opt n nat))
      sim
  @
  match native with
  | Some t -> List.map (fun ((bench, tech), ns) -> (Printf.sprintf "native.%s_ns.%s" tech bench, ns)) t.medians
  | None -> []
