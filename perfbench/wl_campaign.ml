(* campaign: a checkpointed Engine.run_spec campaign with adaptive
   batching — the [fdsim campaign] default grid (every pattern family x
   {P, P-delayed, S} x {fair, random}) over [replicas] seeds.  Each job is
   one short consensus Runner.run that stops once every correct process
   has decided, so the engine's claim / publish / fsync path carries much
   of the cost.  The workload seed is the campaign seed and the first
   replicate seed.

   One worker slot: at two, a pass took from 1.6 s to 6.8 s on a shared
   2-vCPU VM, depending on whether the host gave the second domain a core
   of its own, so the figure measured the host's scheduler rather than the
   engine. *)

open Rlfd_kernel
open Rlfd_fd
open Rlfd_sim
open Rlfd_algo
open Workload
module Engine = Rlfd_campaign.Engine
module Spec = Rlfd_campaign.Spec
module Checkpoint = Rlfd_campaign.Checkpoint
module Timeline = Rlfd_obs.Timeline
module Json = Rlfd_obs.Json

let replicas = 200

let workers = 1

let n = 5

let horizon = 6000

let proposals p = 100 + Pid.to_int p

type result = {
  pass : bool;
  steps : int;
  sent : int;
  decisions : int;
  violations : int;
}

let codec =
  { Engine.encode =
      (fun r ->
        Json.Obj
          [ ("pass", Json.Bool r.pass); ("steps", Json.Int r.steps);
            ("sent", Json.Int r.sent); ("decisions", Json.Int r.decisions);
            ("violations", Json.Int r.violations) ]);
    decode =
      (fun j ->
        let int k = Option.bind (Json.member k j) Json.to_int_opt in
        match
          ( Option.bind (Json.member "pass" j) Json.to_bool_opt, int "steps",
            int "sent", int "decisions", int "violations" )
        with
        | Some pass, Some steps, Some sent, Some decisions, Some violations ->
          Ok { pass; steps; sent; decisions; violations }
        | _ -> Error "not a campaign result") }

let detector = function
  | "P" -> Perfect.canonical
  | "P-delayed" -> Perfect.delayed ~lag:10
  | "S" -> Strong.realistic
  | fd -> invalid_arg fd

let spin_us us =
  let until = Spans.now () +. (float_of_int us *. 1e-6) in
  while Spans.now () < until do
    ()
  done

(* ---- traced-only layer taps ---- *)

let runner_t = Spans.tally ()

let step_t = Spans.tally ()

let fd_t = Spans.tally ()

let steps = Atomic.make 0

let inflight_max = Atomic.make 0

let rec raise_max a v =
  let cur = Atomic.get a in
  if v > cur && not (Atomic.compare_and_set a cur v) then raise_max a v

let timed_detector d =
  Detector.make ~name:(Detector.name d)
    ~claims_realistic:(Detector.claims_realistic d) (fun f p t ->
      Spans.clock fd_t (fun () -> Detector.query d f p t))

let timed_model m =
  Model.make ~name:m.Model.name ~initial:m.Model.initial
    ~step:(fun ~n ~self s e d ->
      Spans.clock step_t (fun () -> m.Model.step ~n ~self s e d))

(* In-flight messages (sends minus receptions) from the step events. *)
let inflight_tap () =
  let inflight = ref 0 and peak = ref 0 in
  let sink =
    Rlfd_obs.Trace.callback (function
      | Rlfd_obs.Trace.Step { sent_to; received_from; _ } ->
        inflight :=
          !inflight + List.length sent_to
          - (if received_from = None then 0 else 1);
        if !inflight > !peak then peak := !inflight
      | _ -> ())
  in
  (sink, fun () -> !peak)

(* A job's crash pattern, as [fdsim campaign] draws it: from (family,
   replicate seed), so every detector and scheduler of a grid point sees
   the same pattern. *)
let pattern_of (j : Spec.job) =
  let family =
    List.find
      (fun f -> f.Pattern.Family.name = Spec.value j "family")
      Pattern.Family.all
  in
  Pattern.Family.generate family ~n
    ~horizon:(Time.of_int (Stdlib.min 300 (horizon / 4)))
    (Rng.derive ~seed:j.Spec.seed ~salts:[ 0x7A ])

(* One job, as [fdsim campaign] runs it, on its pre-drawn pattern; the run
   is checked against uniform consensus and Lemma 4.1 totality. *)
let job ~traced ~pattern (j : Spec.job) =
  let axis = Spec.value j in
  let seed = j.Spec.seed in
  let scheduler =
    if axis "sched" = "fair" then Scheduler.fair ()
    else Scheduler.random ~seed ~lambda_bias:0.3
  in
  let detector = detector (axis "fd") in
  let automaton = Ct_strong.automaton ~proposals in
  let run ~detector ~automaton ~sink () =
    Runner.run ~sink ~pattern ~detector ~scheduler ~horizon:(Time.of_int horizon)
      ~until:(Runner.stop_when_all_correct_output pattern)
      automaton
  in
  let r =
    if not traced then run ~detector ~automaton ~sink:Rlfd_obs.Trace.null ()
    else begin
      let sink, peak = inflight_tap () in
      let r =
        Spans.span "runner" (fun () ->
            Spans.clock runner_t
              (run ~detector:(timed_detector detector)
                 ~automaton:(timed_model automaton) ~sink))
      in
      ignore (Atomic.fetch_and_add steps r.Runner.steps);
      raise_max inflight_max (peak ());
      r
    end
  in
  if !injected_slowdown_us > 0 then spin_us !injected_slowdown_us;
  let consensus_ok =
    Properties.check_consensus ~uniform:true ~proposals ~equal:Int.equal r
    |> List.for_all (fun (_, res) -> Classes.holds res)
  in
  let violations = List.length (Totality.check r) in
  { pass = consensus_ok && violations = 0; steps = r.Runner.steps;
    sent = r.Runner.sent; decisions = List.length r.Runner.outputs; violations }

type inputs = {
  spec : Spec.t;
  patterns : Pattern.t array;  (** by job index *)
  seed : int;
  checkpoint : string;
  (* digest of each pass's report lines, checked against a 1-slot run *)
  mutable digests : string list;
}

let setups = ref 0

(* Set-up makes a fresh directory for the checkpoint, builds the spec and
   draws every job's pattern. *)
let setup ~seed ~tmp =
  incr setups;
  let dir = Filename.concat tmp (Printf.sprintf "campaign-%d" !setups) in
  Sys.mkdir dir 0o755;
  let spec =
    Spec.make ~name:"perfbench-campaign"
      ~axes:
        [ ("family", List.map (fun f -> f.Pattern.Family.name) Pattern.Family.all);
          ("fd", [ "P"; "P-delayed"; "S" ]); ("sched", [ "fair"; "random" ]) ]
      ~seeds:(List.init replicas (fun i -> seed + i))
      ()
  in
  let patterns = Array.of_list (List.map pattern_of (Spec.jobs spec)) in
  { spec; patterns; seed; checkpoint = Filename.concat dir "checkpoint.jsonl";
    digests = [] }

let digest report = Digest.string (String.concat "\n" (Engine.report_lines codec report))

let run ?timeline ~traced i =
  if Sys.file_exists i.checkpoint then Sys.remove i.checkpoint;
  Engine.run_spec ~workers ~checkpoint:i.checkpoint ~codec ?timeline ~seed:i.seed
    i.spec (fun ~rng:_ ~metrics:_ j ->
      job ~traced ~pattern:i.patterns.(j.Spec.index) j)

(* Every job passes and the checkpoint reloads with each job id exactly
   once; the report digest is kept for [verify]. *)
let check_pass i report () =
  let total = Spec.size i.spec in
  i.digests <- digest report :: i.digests;
  let failed =
    List.filter_map
      (fun o ->
        if o.Engine.value.pass then None
        else Some (Printf.sprintf "job %s failed" o.Engine.label))
      report.Engine.outcomes
  in
  let reload =
    match Checkpoint.load i.checkpoint with
    | Error e -> [ "checkpoint reload: " ^ e ]
    | Ok (header, entries, skipped) ->
      let seen = Array.make total 0 in
      List.iter
        (fun e ->
          if e.Checkpoint.job >= 0 && e.Checkpoint.job < total then
            seen.(e.Checkpoint.job) <- seen.(e.Checkpoint.job) + 1)
        entries;
      expect "checkpoint header total" ~got:header.Checkpoint.total ~want:total
      @ expect "checkpoint entries" ~got:(List.length entries) ~want:total
      @ expect "checkpoint skipped lines" ~got:skipped ~want:0
      @ expect "checkpoint ids seen exactly once"
          ~got:(Array.fold_left (fun acc c -> if c = 1 then acc + 1 else acc) 0 seen)
          ~want:total
  in
  { attempted = total + 4;
    failures = failed @ reload }

let pass i =
  let report = run ~traced:false i in
  check_pass i report

(* The report lines of every pass must equal a 1-slot, checkpoint-free run
   of the same spec, byte for byte. *)
let verify i =
  let reference =
    digest
      (Engine.run_spec ~workers:1 ~codec ~seed:i.seed i.spec
         (fun ~rng:_ ~metrics:_ j ->
           job ~traced:false ~pattern:i.patterns.(j.Spec.index) j))
  in
  let diverged = List.filter (fun d -> d <> reference) i.digests in
  { attempted = List.length i.digests;
    failures =
      (if diverged = [] then []
       else
         [ Printf.sprintf "%d pass(es) differ from the 1-slot report"
             (List.length diverged) ]) }

(* ---- traced pass ---- *)

let percentile sorted q =
  let a = Array.of_list sorted in
  let k = Array.length a in
  a.(Stdlib.min (k - 1) (int_of_float (q *. float_of_int k)))

let traced i =
  List.iter (fun t -> ignore (Spans.drain t)) [ runner_t; step_t; fd_t ];
  Atomic.set steps 0;
  Atomic.set inflight_max 0;
  let timeline = Timeline.create ~capacity:(1 lsl 16) ~label:"campaign" () in
  let report = Spans.span "campaign" (fun () -> run ~timeline ~traced:true i) in
  fun () ->
    let _, runner_s = Spans.drain runner_t in
    let _, step_s = Spans.drain step_t in
    let _, fd_s = Spans.drain fd_t in
    let sum name = timeline_spans timeline name in
    let batches, work_s, dropped = sum "job-run" in
    let _, queue_wait_s, _ = sum "queue-wait" in
    let _, publish_s, _ = sum "publish" in
    let _, append_s, _ = sum "checkpoint-append" in
    let idle_s =
      List.fold_left
        (fun acc (label, u) ->
          if String.starts_with ~prefix:"worker-" label then acc +. u.Timeline.u_idle
          else acc)
        0.
        (Timeline.utilization (Timeline.merge timeline))
    in
    let job_ms =
      List.sort compare
        (List.map (fun o -> o.Engine.elapsed_s *. 1e3) report.Engine.outcomes)
    in
    let f = float_of_int in
    let m k v = ("campaign." ^ k, v) in
    ( [ m "jobs_per_s" (f report.Engine.total /. report.Engine.wall_s);
        m "runner_s" runner_s; m "runner_steps" (f (Atomic.get steps));
        m "runner_inflight_max" (f (Atomic.get inflight_max));
        m "step_s" step_s; m "fd_query_s" fd_s;
        m "runner_self_s" (runner_s -. step_s -. fd_s);
        m "job_p50_ms" (percentile job_ms 0.5);
        m "job_p99_ms" (percentile job_ms 0.99);
        m "work_s" work_s; m "queue_wait_s" queue_wait_s;
        m "publish_s" publish_s; m "checkpoint_append_s" append_s;
        m "idle_s" idle_s; m "batches" (f batches) ],
      let c = check_pass i report () in
      { attempted = c.attempted + 1;
        failures =
          c.failures @ expect "timeline records dropped" ~got:dropped ~want:0 } )

let workload =
  { name = "campaign"; setup; pass; traced; verify;
    rates = (fun i -> [ ("campaign_jobs_per_s", float_of_int (Spec.size i.spec)) ]) }
