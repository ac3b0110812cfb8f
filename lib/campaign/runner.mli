(** Sharded campaign execution on a [Unix.fork] worker pool.

    Workers stream typed events and per-sample outputs over pipes; the
    parent multiplexes them with [Unix.select], detects worker death
    (EOF before the protocol's done marker), retries dead shards, and
    merges shard outputs in global sample order — byte-identical to the
    sequential campaign for any shard count. *)

module F = Ferrum_faultsim.Faultsim
module Events = Ferrum_telemetry.Events
module Trace = Ferrum_telemetry.Trace

type mode =
  | Inject  (** plain campaign: outcome counts + record stream *)
  | Traced  (** lockstep-traced campaign: vulnerability map as well *)

(** View a campaign's outcome counts as an event tally. *)
val tally_of_counts : F.counts -> Events.tally

type result = {
  counts : F.counts;
  record_lines : string list;
      (** serialized per-injection records, global sample order —
          concatenating them under the usual header reproduces the
          sequential [--metrics] file byte-for-byte *)
  vulnmap : F.vulnmap option;  (** [Traced] mode only *)
  clock : int;  (** logical clock: summed injected-run steps *)
  events : Events.t list;
      (** canonical merged event log: campaign_started, then per shard
          (index order) its retry markers and successful attempt's
          events, then campaign_finished; [seq] contiguous from 0 *)
  retried : int;  (** worker deaths recovered by retry *)
  stats_lines : string list;
      (** [ferrum.stats.v1] convergence document built from the merged
          sample stream in global order: trace rows (CI half-width vs.
          samples spent), per-site rows, round rows (adaptive runs
          only) and the final campaign row *)
  trace_spans : string list;
      (** [ferrum.trace.v1] span rows of the stitched campaign trace:
          the runner's own spans (campaign / wave / round / allocate /
          merge / stats) followed by each worker's spans in shard-id
          order — logical clocks only, byte-identical per seed for any
          shard count *)
  trace_walls : string list;
      (** wall-clock / CPU / peak-RSS sidecar rows for the same spans;
          non-deterministic, never byte-compared *)
}

(** The trace id a campaign roots when given neither [trace_ctx] nor
    [trace_id]: {!Trace.derive_id} of the seed, sample count and shard
    count.  [ferrum campaign] roots its own trace under this id. *)
val default_trace_id : seed:int64 -> samples:int -> shards:int -> string

(** Run a campaign split into [shards] ranges on at most [workers]
    (default [min shards 4]) concurrent forked workers.

    [heartbeats] (default 8) progress events per shard; [retries]
    (default 2) extra attempts per shard before the campaign fails;
    [on_event] observes events live in arrival order — including
    heartbeats from attempts that later die, each closed off by a
    [Shard_retry] marker, so aggregating consumers should key on
    (shard, attempt) or treat a shard's latest event as authoritative
    (the [result]'s canonical log is ordered, renumbered and contains
    only successful attempts); [part_dir] persists each
    finished shard's stream (write-then-rename) and, when present
    beforehand, resumes from any complete part files found there;
    [sabotage] (tests) makes a worker die after [k] samples when it
    returns [Some k] for a (shard, attempt); [garble] (tests) makes a
    worker emit a malformed protocol line after [k] samples instead.

    Malformed worker output is treated like worker death: the worker
    is killed and the shard retried.  Raises [Failure] if a shard
    exhausts its retries — outstanding workers are killed and reaped
    before the exception propagates.

    Every campaign is traced: [trace_ctx] continues a caller's span
    context (e.g. the serve daemon's job span) so the campaign spans
    stitch under it; otherwise a fresh trace is rooted whose id is
    [trace_id] when given and {!default_trace_id} when not.  Worker
    span contexts are keyed on the global shard id alone, so retries do
    not perturb span ids and the span rows in [trace_spans] are
    byte-identical per seed. *)
val run :
  ?fault_bits:int ->
  ?heartbeats:int ->
  ?retries:int ->
  ?workers:int ->
  ?on_event:(Events.t -> unit) ->
  ?part_dir:string ->
  ?sabotage:(shard:int -> attempt:int -> int option) ->
  ?garble:(shard:int -> attempt:int -> int option) ->
  ?trace_ctx:Trace.ctx ->
  ?trace_id:string ->
  mode:mode ->
  shards:int ->
  seed:int64 ->
  samples:int ->
  F.target ->
  result

(** Run an adaptive campaign: the sample [budget] is split into
    [policy.rounds] near-equal rounds; round 0 samples fault sites
    uniformly, and each later round directs its samples at the sites
    with the widest Wilson SDC confidence intervals so far
    ({!F.allocate} over the merged statistics of all prior rounds).
    When [policy.target_ci > 0], the campaign stops early once every
    reached site's half-width is at or below the target — the
    [Campaign_finished] total then reports the samples actually spent.

    Each round runs as one worker-pool wave of [shards] shards under
    global shard ids [round * shards + s], so part files, retry
    markers and event aggregation behave exactly as in {!run}; rounds
    are barriers over contiguous global sample ranges and allocations
    are pure functions of merged prior output, so the result is
    byte-identical for any shard count and resumable via [part_dir]
    like a flat campaign.  Progress events carry budget-denominated
    [spent]/[budget] and a live Wilson half-width, so ETA displays do
    not overshoot when rounds stop early.

    Tracing works as in {!run}, with one "round" span per round (each
    holding its "allocate" phase and its workers' spans). *)
val run_adaptive :
  ?fault_bits:int ->
  ?heartbeats:int ->
  ?retries:int ->
  ?workers:int ->
  ?on_event:(Events.t -> unit) ->
  ?part_dir:string ->
  ?policy:F.policy ->
  ?trace_ctx:Trace.ctx ->
  ?trace_id:string ->
  mode:mode ->
  shards:int ->
  seed:int64 ->
  budget:int ->
  F.target ->
  result
