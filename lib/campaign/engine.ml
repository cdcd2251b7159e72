open Rlfd_obs

type 'r codec = {
  encode : 'r -> Json.t;
  decode : Json.t -> ('r, string) result;
}

type 'r outcome = {
  job : int;
  label : string;
  elapsed_s : float;
  resumed : bool;
  value : 'r;
}

type 'r report = {
  campaign : string;
  seed : int;
  total : int;
  outcomes : 'r outcome list;
  resumed : int;
  duplicates : int;
  skipped : int;
  metrics : Metrics.t;
  workers : int;
  shard_size : int;
  steals : int;
  pool_domains : int;
  wall_s : float;
}

(* Resume: load the checkpoint, keep the first entry per in-range job id,
   and count everything else.  Decode failures just mean the job re-runs. *)
let load_resume codec ~name ~seed ~total path =
  if not (Sys.file_exists path) then ([], 0, 0)
  else
    match Checkpoint.load path with
    | Error msg -> failwith (Printf.sprintf "campaign resume: %s" msg)
    | Ok (header, entries, torn) ->
      if
        header.Checkpoint.name <> name || header.seed <> seed
        || header.total <> total
      then
        failwith
          (Printf.sprintf
             "campaign resume: %s holds campaign %S (seed %d, %d jobs), not \
              %S (seed %d, %d jobs)"
             path header.name header.seed header.total name seed total);
      let seen = Hashtbl.create 64 in
      let duplicates = ref 0 and skipped = ref torn in
      let recovered =
        List.filter_map
          (fun (e : Checkpoint.entry) ->
            if e.job < 0 || e.job >= total then begin
              incr skipped;
              None
            end
            else if Hashtbl.mem seen e.job then begin
              incr duplicates;
              None
            end
            else
              match codec.decode e.value with
              | Error _ ->
                incr skipped;
                None
              | Ok value ->
                Hashtbl.add seen e.job ();
                Some
                  {
                    job = e.job;
                    label = e.label;
                    elapsed_s = e.elapsed_s;
                    resumed = true;
                    value;
                  })
          entries
      in
      (recovered, !duplicates, !skipped)

(* Work distribution: the pending array is measured in quanta — one shard
   in fixed mode ([~shard_size]), one job in adaptive mode — and split
   into one contiguous range per requested worker slot.  A range is an
   immutable upper bound plus an atomic claim cursor: claiming is a
   single fetch-and-add from the front (monotone, so there is no ABA and
   nothing ever runs twice), and a participant whose own range is dry
   claims from someone else's — that is the whole work-stealing
   protocol.  Slots beyond the physical pool still get a range; stealing
   is also how those orphan ranges drain, which is why the report is
   independent of how many domains actually showed up. *)
let run ?(workers = 1) ?shard_size ?(shard_target_ms = 5.) ?checkpoint
    ?(resume = false) ?codec ?progress ?(sink = Trace.null)
    ?(timeline = Timeline.null) ~name ~seed ~total ~label f =
  if total < 0 then invalid_arg "Engine.run: total < 0";
  if workers < 1 then invalid_arg "Engine.run: workers < 1";
  if shard_target_ms <= 0. then invalid_arg "Engine.run: shard_target_ms <= 0";
  if (checkpoint <> None || resume) && codec = None then
    invalid_arg "Engine.run: ~checkpoint and ~resume require ~codec";
  if resume && checkpoint = None then
    invalid_arg "Engine.run: ~resume requires ~checkpoint";
  let t0 = Profile.now () in
  let recovered, duplicates, skipped =
    match (resume, checkpoint, codec) with
    | true, Some path, Some codec -> load_resume codec ~name ~seed ~total path
    | _ -> ([], 0, 0)
  in
  let done_jobs = Hashtbl.create 64 in
  List.iter (fun o -> Hashtbl.replace done_jobs o.job ()) recovered;
  let pending =
    Array.of_list
      (List.filter
         (fun i -> not (Hashtbl.mem done_jobs i))
         (List.init total Fun.id))
  in
  let n_pending = Array.length pending in
  let fixed = shard_size <> None in
  let quantum =
    match shard_size with
    | Some k ->
      if k < 1 then invalid_arg "Engine.run: shard_size < 1";
      k
    | None -> 1
  in
  let n_quanta = (n_pending + quantum - 1) / quantum in
  let n_ranges = Stdlib.max 1 (Stdlib.min workers n_quanta) in
  let range_hi = Array.make n_ranges 0 in
  let cursor = Array.init n_ranges (fun _ -> Atomic.make 0) in
  for r = 0 to n_ranges - 1 do
    Atomic.set cursor.(r) (r * n_quanta / n_ranges);
    range_hi.(r) <- (r + 1) * n_quanta / n_ranges
  done;
  (* slot-local result publication: each participant appends finished
     batches to its own list, no shared structure on the result path.
     The pool's quiescence handshake makes the lists safe to read. *)
  let results = Array.make n_ranges [] in
  let steal_counts = Array.make n_ranges 0 in
  (* The checkpoint is rewritten, not appended to: a killed run can leave a
     torn final line with no newline, and appending after it would corrupt
     the first new entry.  Rewriting also compacts away duplicates and
     garbage, so the file always holds the header plus one well-formed line
     per completed job. *)
  let oc =
    Option.map
      (fun path ->
        let oc =
          open_out_gen [ Open_wronly; Open_creat; Open_trunc ] 0o644 path
        in
        Checkpoint.write_header oc { Checkpoint.name; seed; total };
        (match codec with
        | Some codec ->
          Checkpoint.write_entries oc
            (List.map
               (fun o ->
                 {
                   Checkpoint.job = o.job;
                   label = o.label;
                   elapsed_s = o.elapsed_s;
                   value = codec.encode o.value;
                 })
               recovered)
        | None -> ());
        oc)
      checkpoint
  in
  (* the one remaining lock: checkpoint appends and progress telemetry are
     serialised here — results never are *)
  let mutex = Mutex.create () in
  let stop = Atomic.make false in
  let completed = ref (List.length recovered) in
  let failure = ref None in
  let job_times = ref [] in
  let notify () =
    (match progress with
    | None -> ()
    | Some p -> p ~done_:!completed ~total);
    if not (Trace.is_null sink) then begin
      let elapsed = Profile.now () -. t0 in
      let done_ = !completed in
      (* rate over the jobs this run actually executed, not the recovered
         ones — that is what the ETA extrapolates from *)
      let fresh = done_ - List.length recovered in
      let rate =
        if elapsed > 0. && fresh > 0 then float_of_int fresh /. elapsed else 0.
      in
      let detail =
        (if rate > 0. then
           [ ("eta_s", float_of_int (total - done_) /. rate) ]
         else [])
        @
        match !job_times with
        | [] -> []
        | ts ->
          [ ("job_p50_s", Rlfd_kernel.Stats.percentile ts 0.5);
            ("job_p95_s", Rlfd_kernel.Stats.percentile ts 0.95) ]
      in
      Trace.(
        emit sink
          (Progress
             { time = int_of_float (elapsed *. 1000.); label = name; done_;
               total = Some total; rate; detail }))
    end
  in
  let run_job idx =
    let rng = Rlfd_kernel.Rng.of_path ~seed [ idx ] in
    fun metrics ->
      let start = Profile.now () in
      let value = f ~rng ~metrics idx in
      let elapsed_s = Profile.now () -. start in
      Metrics.incr metrics "campaign_jobs";
      Metrics.observe metrics "campaign_job_seconds" elapsed_s;
      { job = idx; label = label idx; elapsed_s; resumed = false; value }
  in
  let body ~slot:me =
    (* the recorder is created by the participant domain itself and stays
       domain-private: recording below takes no lock *)
    let rec_ =
      if Timeline.is_null timeline then Timeline.null_recorder
      else Timeline.recorder timeline (Printf.sprintf "worker-%d" me)
    in
    Timeline.event rec_ ~tag:me "unpark";
    (* adaptive batching: an EWMA of per-job wall time, calibrated by a
       first one-job batch, sizes every later claim to [shard_target_ms] *)
    let est = ref 0. in
    let batch_quanta () =
      if fixed || !est <= 0. then 1
      else
        let want = int_of_float (shard_target_ms /. 1000. /. !est) in
        Stdlib.max 1 (Stdlib.min 4096 want)
    in
    (* claim from range [r]: fetch-and-add from the front, capped at half
       the remainder so tail work stays stealable *)
    let claim r =
      let hi = range_hi.(r) in
      let lo = Atomic.get cursor.(r) in
      if lo >= hi then None
      else begin
        let take =
          Stdlib.min (batch_quanta ()) (Stdlib.max 1 ((hi - lo + 1) / 2))
        in
        let q0 = Atomic.fetch_and_add cursor.(r) take in
        if q0 >= hi then None else Some (q0, Stdlib.min hi (q0 + take))
      end
    in
    let find_work () =
      let t_scan =
        if Timeline.is_null_recorder rec_ then 0. else Profile.now ()
      in
      let rec scan k =
        if k >= n_ranges then None
        else
          let r = (me + k) mod n_ranges in
          match claim r with
          | Some span_q ->
            if r <> me then begin
              steal_counts.(me) <- steal_counts.(me) + 1;
              if not (Timeline.is_null_recorder rec_) then
                Timeline.record_span rec_ ~tag:r "steal"
                  ~dur_s:(Profile.now () -. t_scan)
            end;
            Some span_q
          | None -> scan (k + 1)
      in
      scan 0
    in
    let continue_ = ref true in
    while !continue_ do
      if Atomic.get stop then continue_ := false
      else
        match find_work () with
        | None -> continue_ := false
        | Some (q0, q1) -> (
          let lo_j = q0 * quantum in
          let hi_j = Stdlib.min n_pending (q1 * quantum) in
          match
            Timeline.span rec_ ~tag:q0 "job-run" (fun () ->
                let metrics = Metrics.create () in
                let t_batch = Profile.now () in
                let outcomes = ref [] in
                for k = lo_j to hi_j - 1 do
                  outcomes :=
                    Timeline.span rec_ ~tag:pending.(k) "job" (fun () ->
                        run_job pending.(k) metrics)
                    :: !outcomes
                done;
                let n = hi_j - lo_j in
                if (not fixed) && n > 0 then begin
                  let per = (Profile.now () -. t_batch) /. float_of_int n in
                  est := if !est <= 0. then per else (0.7 *. !est) +. (0.3 *. per)
                end;
                (List.rev !outcomes, metrics))
          with
          | outcomes, metrics ->
            (* queue-wait: from batch results ready to bookkeeping lock
               held — with lock-free result publication this is only the
               checkpoint/telemetry serialisation, and the T14b table
               shows it staying ≈ 0 *)
            let t_ready =
              if Timeline.is_null_recorder rec_ then 0. else Profile.now ()
            in
            Mutex.lock mutex;
            if not (Timeline.is_null_recorder rec_) then
              Timeline.record_span rec_ ~tag:q0 "queue-wait"
                ~dur_s:(Profile.now () -. t_ready);
            Fun.protect
              ~finally:(fun () -> Mutex.unlock mutex)
              (fun () ->
                Timeline.span rec_ ~tag:q0 "publish" (fun () ->
                    results.(me) <- (q0, outcomes, metrics) :: results.(me);
                    completed := !completed + List.length outcomes;
                    List.iter
                      (fun o -> job_times := o.elapsed_s :: !job_times)
                      outcomes;
                    (match (oc, codec) with
                    | Some oc, Some codec ->
                      Timeline.span rec_ ~tag:q0 "checkpoint-append"
                        (fun () ->
                          Checkpoint.write_entries oc
                            (List.map
                               (fun o ->
                                 {
                                   Checkpoint.job = o.job;
                                   label = o.label;
                                   elapsed_s = o.elapsed_s;
                                   value = codec.encode o.value;
                                 })
                               outcomes))
                    | _ -> ());
                    notify ()))
          | exception exn ->
            let bt = Printexc.get_raw_backtrace () in
            Mutex.protect mutex (fun () ->
                if !failure = None then failure := Some (exn, bt));
            Atomic.set stop true;
            continue_ := false)
    done;
    Timeline.event rec_ ~tag:me "park"
  in
  let driver =
    if Timeline.is_null timeline then Timeline.null_recorder
    else Timeline.recorder timeline "driver"
  in
  Mutex.protect mutex notify;
  let stats =
    Pool.run
      ~workers:(if n_quanta = 0 then 1 else n_ranges)
      ~on_spawn:(fun slot -> Timeline.event driver ~tag:slot "pool-start")
      body
  in
  if not (Timeline.is_null_recorder driver) then
    Timeline.record_span driver "pool-wait" ~dur_s:stats.Pool.wait_s;
  Option.iter close_out oc;
  (match !failure with
  | Some (exn, bt) -> Printexc.raise_with_backtrace exn bt
  | None -> ());
  let total_steals = Array.fold_left ( + ) 0 steal_counts in
  let metrics = Metrics.create () in
  let fresh = ref [] in
  (* merge in batch-start order: batches are contiguous index ranges run
     in ascending index order, so this equals a job-index-order merge —
     gauges land on their highest-index writer whatever the batching *)
  Timeline.span driver "metrics-merge" (fun () ->
      let batches =
        Array.fold_left (fun acc l -> List.rev_append l acc) [] results
        |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
      in
      List.iter
        (fun (_, outcomes, batch_metrics) ->
          Metrics.merge ~into:metrics batch_metrics;
          fresh := List.rev_append outcomes !fresh)
        batches);
  Metrics.incr ~by:total_steals metrics "campaign_steals";
  Metrics.set_gauge metrics "pool_domains"
    (float_of_int stats.Pool.participants);
  Metrics.set_gauge metrics "shard_target_ms"
    (if fixed then 0. else shard_target_ms);
  let outcomes =
    List.sort
      (fun a b -> compare a.job b.job)
      (List.rev_append recovered !fresh)
  in
  {
    campaign = name;
    seed;
    total;
    outcomes;
    resumed = List.length recovered;
    duplicates;
    skipped;
    metrics;
    workers;
    shard_size = (match shard_size with Some k -> k | None -> 0);
    steals = total_steals;
    pool_domains = stats.Pool.participants;
    wall_s = Profile.now () -. t0;
  }

let report_lines codec report =
  List.map
    (fun o ->
      Json.to_string
        (Json.Obj
           [ ("job", Json.Int o.job);
             ("label", Json.String o.label);
             ("result", codec.encode o.value) ]))
    report.outcomes

let report_to_json report =
  Json.Obj
    [ ("campaign", Json.String report.campaign);
      ("schema_version", Json.Int Checkpoint.schema_version);
      ("seed", Json.Int report.seed);
      ("jobs", Json.Int report.total);
      ("resumed", Json.Int report.resumed);
      ("duplicates", Json.Int report.duplicates);
      ("skipped", Json.Int report.skipped);
      ("workers", Json.Int report.workers);
      ("shard_size", Json.Int report.shard_size);
      ("steals", Json.Int report.steals);
      ("pool_domains", Json.Int report.pool_domains);
      ("wall_s", Json.Float report.wall_s);
      ("metrics", Metrics.to_json report.metrics) ]

let run_spec ?workers ?shard_size ?shard_target_ms ?checkpoint ?resume ?codec
    ?progress ?sink ?timeline ~seed spec f =
  run ?workers ?shard_size ?shard_target_ms ?checkpoint ?resume ?codec
    ?progress ?sink ?timeline ~name:(Spec.name spec) ~seed
    ~total:(Spec.size spec)
    ~label:(fun i -> Spec.label (Spec.job spec i))
    (fun ~rng ~metrics i -> f ~rng ~metrics (Spec.job spec i))
