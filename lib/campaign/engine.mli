(** The multicore campaign engine, a client of the persistent {!Pool}.

    [run] turns any (job index → result) function into a campaign: the
    job range is split into one contiguous work range per worker slot,
    the process-wide domain pool's participants claim batches from their
    own range with a single fetch-and-add and {e steal} from the others'
    once theirs is dry, and every job gets a private deterministic
    random stream derived from the campaign seed and its own index
    ([Rlfd_kernel.Rng.of_path ~seed [index]]).  Because a job's stream,
    inputs and identity depend only on its index — never on which worker
    runs it or when — the aggregated report is identical at any worker
    count, which {!report_lines} makes checkable byte-for-byte.

    Aggregation is deterministic too: outcomes are sorted by job index,
    and per-batch metric registries are folded with
    {!Rlfd_obs.Metrics.merge} in batch-start order — batches are
    contiguous index ranges executed in ascending index order, so the
    fold is equivalent to a job-index-order merge no matter how the
    adaptive batching cut them.

    With [~checkpoint] the engine appends one {!Checkpoint} entry per
    finished job (flushed, so a kill loses at most one in-flight line);
    with [~resume] it first loads that file and re-runs only the missing
    jobs.  A resumed campaign therefore completes with no duplicate job
    ids, and its {!report_lines} equal an uninterrupted run's. *)

type 'r codec = {
  encode : 'r -> Rlfd_obs.Json.t;
  decode : Rlfd_obs.Json.t -> ('r, string) result;
}
(** How results cross the checkpoint file.  [decode] failures on resume are
    harmless: the job is simply re-run (and counted in [skipped]). *)

(** One finished job. *)
type 'r outcome = {
  job : int;  (** the job's index in [0 .. total - 1] *)
  label : string;  (** the label the campaign gave this index *)
  elapsed_s : float;  (** wall time of this job alone *)
  resumed : bool;  (** [true] if taken from the checkpoint, not re-run *)
  value : 'r;  (** what the job function returned *)
}

(** The aggregated campaign result. *)
type 'r report = {
  campaign : string;
  seed : int;
  total : int;
  outcomes : 'r outcome list;  (** sorted by job index; length = [total] *)
  resumed : int;  (** jobs recovered from the checkpoint *)
  duplicates : int;  (** checkpoint entries for an already-seen job id *)
  skipped : int;  (** malformed / torn / undecodable / out-of-range lines *)
  metrics : Rlfd_obs.Metrics.t;  (** per-batch registries, index order *)
  workers : int;  (** worker slots the campaign was asked for *)
  shard_size : int;  (** fixed jobs per batch, or [0] in adaptive mode *)
  steals : int;  (** batches claimed from another slot's range *)
  pool_domains : int;  (** pool participants that entered this run *)
  wall_s : float;  (** end-to-end wall time *)
}

val run :
  ?workers:int ->
  ?shard_size:int ->
  ?shard_target_ms:float ->
  ?checkpoint:string ->
  ?resume:bool ->
  ?codec:'r codec ->
  ?progress:(done_:int -> total:int -> unit) ->
  ?sink:Rlfd_obs.Trace.sink ->
  ?timeline:Rlfd_obs.Timeline.t ->
  name:string ->
  seed:int ->
  total:int ->
  label:(int -> string) ->
  (rng:Rlfd_kernel.Rng.t -> metrics:Rlfd_obs.Metrics.t -> int -> 'r) ->
  'r report
(** [run ~name ~seed ~total ~label f] executes jobs [0 .. total - 1].

    [f ~rng ~metrics index] gets a stream private to [index] and the
    registry of the batch it happens to run in; anything recorded there
    surfaces merged in the report's [metrics].

    - [workers] (default 1): worker slots — one contiguous work range
      each.  [1] runs inline on the calling domain, no pool traffic.
      The {!Pool} caps actual domains at the machine's recommended
      count; requesting more slots than that is fine (their ranges are
      drained by stealing) and yields the same report.
    - [shard_size]: forces fixed batching — exactly this many jobs per
      claim, like the pre-pool engine.  When absent (the default) the
      engine {e adapts}: a one-job calibration batch seeds a per-worker
      EWMA of job cost, and every later claim is sized so one batch
      costs about [shard_target_ms] of wall time.  Any setting yields
      the same report lines.
    - [shard_target_ms] (default [5.]): the adaptive batcher's per-batch
      wall-time target.  Ignored under [~shard_size].
    - [checkpoint]: keep a completion log here (requires [codec]): the
      header is written once, then one flushed entry per finished job.
    - [resume] (default false): load [checkpoint] first and only run what
      is missing (requires both [checkpoint] and [codec]).  The file is
      then rewritten compacted — recovered entries first, torn lines and
      duplicates dropped — before new entries are appended, so a resumed
      file never carries a corrupt tail forward.  A missing file is a
      fresh start, but a file whose header disagrees with
      [name]/[seed]/[total] raises [Failure] — it belongs to a different
      campaign.
    - [progress]: called (serialised) after each batch and once at start.
    - [sink]: receives one {!Rlfd_obs.Trace.Progress} event at each of
      those moments — jobs done/total, throughput over the jobs this run
      executed (recovered ones excluded), an [eta_s] extrapolation and the
      p50/p95 of per-job wall times.  The live-telemetry face of the
      campaign; free when left at the default null sink.
    - [timeline]: a {!Rlfd_obs.Timeline} collector for the runtime
      observatory.  Each participant registers a [worker-<slot>]
      recorder and records, per batch, a [job-run] span with one [job]
      child span per job (tagged by job index), a [queue-wait] span
      (batch ready → checkpoint/telemetry lock held), and a [publish]
      span whose [checkpoint-append] child covers the batch's entry
      writes and their single fsync; batch spans are tagged by the
      batch's starting quantum, so under [~shard_size] they carry
      exactly the old per-shard tags.
      Pool lifecycle shows up as [unpark]/[park] events per participant,
      a [steal] span per cross-range claim (tagged by the victim slot),
      [pool-start] driver events per freshly spawned domain, and a
      [pool-wait] driver span for the end-of-run quiescence wait; those
      records are scheduling-dependent, so
      {!Rlfd_obs.Timeline.normalized_json} always excludes them.  The
      driver also records the [metrics-merge] span.  Free when left at
      the default {!Rlfd_obs.Timeline.null}.

    If [f] raises, remaining batches are abandoned and the first
    exception is re-raised after the pool participants quiesce.  Raises
    [Invalid_argument] on [total < 0], [workers < 1],
    [shard_target_ms <= 0], or checkpoint/resume without the options
    they require. *)

val report_lines : 'r codec -> 'r report -> string list
(** One compact JSON object per job, sorted by index:
    [{"job": i, "label": "...", "result": ...}].  Deliberately excludes
    timing and worker information, so two runs of the same campaign at
    different worker counts — or one interrupted and resumed — produce
    byte-identical lines. *)

val report_to_json : 'r report -> Rlfd_obs.Json.t
(** The run summary: campaign identity, job counts, resume statistics,
    worker configuration, steal count, pool participation, wall time and
    merged metrics ({!Rlfd_obs.Metrics.to_json} sketch summaries).
    Timing fields included — this is the human-facing side, not the
    determinism-checked one. *)

val run_spec :
  ?workers:int ->
  ?shard_size:int ->
  ?shard_target_ms:float ->
  ?checkpoint:string ->
  ?resume:bool ->
  ?codec:'r codec ->
  ?progress:(done_:int -> total:int -> unit) ->
  ?sink:Rlfd_obs.Trace.sink ->
  ?timeline:Rlfd_obs.Timeline.t ->
  seed:int ->
  Spec.t ->
  (rng:Rlfd_kernel.Rng.t -> metrics:Rlfd_obs.Metrics.t -> Spec.job -> 'r) ->
  'r report
(** {!run} over a {!Spec}: [total = Spec.size spec], labels from
    {!Spec.label}, and [f] receives the decoded {!Spec.job}.  [seed] is the
    campaign seed (stream derivation), distinct from the per-job [seed]
    coordinate the spec enumerates. *)
