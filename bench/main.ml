(* The benchmark and experiment harness.

   The paper (DSN 2002) is a theory paper with no numbered tables or figures;
   EXPERIMENTS.md defines the tables this reproduction reports instead, one
   per claim (EXP-1 .. EXP-14).  This binary regenerates every one of them:

     dune exec bench/main.exe            -- tables + micro-benchmarks
     dune exec bench/main.exe -- tables  -- only the experiment tables
     dune exec bench/main.exe -- bench   -- only the Bechamel timings

   Rows are deterministic (seeded); timings are machine-dependent. *)

open Rlfd_kernel
open Rlfd_fd
open Rlfd_sim
open Rlfd_algo
open Rlfd_reduction
open Rlfd_net
open Rlfd_membership
module Theorems = Rlfd_core.Theorems
module Obs = Rlfd_obs

(* One profiler and one metrics registry span the whole harness run; both
   are dumped to BENCH_obs.json at the end so perf trajectories are
   machine-readable across commits. *)
let profiler = Obs.Profile.create ()

let registry = Obs.Metrics.create ()

let seed = 2002

let proposals p = 100 + Pid.to_int p

let pid = Pid.of_int

let time = Time.of_int

(* ---------------------------------------------------------------- *)
(* Table 1 (EXP-1..11): the paper's claims, pass/fail                 *)
(* ---------------------------------------------------------------- *)

let table_claims () =
  let cfg = { Theorems.default_config with trials = 12 } in
  let t =
    Table.create ~title:"T1 (EXP-*): the paper's claims, executed"
      ~columns:[ "id"; "claim"; "observed"; "pass" ]
  in
  List.iter
    (fun o ->
      Table.add_row t
        [ o.Theorems.id; o.Theorems.claim; o.Theorems.observed;
          Table.cell_bool o.Theorems.pass ])
    (Theorems.all cfg);
  Table.print t

(* ---------------------------------------------------------------- *)
(* Table 2 (EXP-5/6): the detector hierarchy under realism            *)
(* ---------------------------------------------------------------- *)

let table_hierarchy () =
  let rows =
    Hierarchy.survey ~n:5 ~horizon:(time 150) ~seed ~samples:25 (Hierarchy.zoo ~seed)
  in
  let t =
    Table.create ~title:"T2 (EXP-5/6): hierarchy survey - the collapse under realism"
      ~columns:[ "detector"; "claims"; "verdict"; "classes" ]
  in
  List.iter
    (fun row ->
      Table.add_row t
        [ row.Hierarchy.detector;
          (if row.Hierarchy.claims_realistic then "realistic" else "guesses-future");
          (if Realism.is_realistic row.Hierarchy.realism then "realistic"
           else "NOT realistic");
          String.concat "," (List.map Classes.class_name row.Hierarchy.classes) ])
    rows;
  Table.print t;
  Format.printf "collapse (realistic & S => P): %b@.@." (Hierarchy.collapse_holds rows)

(* ---------------------------------------------------------------- *)
(* Table 3: solvability matrix in the unbounded-failure environment   *)
(* ---------------------------------------------------------------- *)

let run_with ~n ~detector ~pattern automaton =
  Runner.run ~pattern ~detector ~scheduler:(Scheduler.fair ()) ~horizon:(time 8000)
    ~until:(Runner.stop_when_all_correct_output pattern)
    ~metrics:registry automaton
  |> fun r -> ignore n; r

let table_solvability () =
  let n = 5 in
  (* An adversarial portfolio spanning the unbounded environment: a detector
     "solves" a problem only if every workload passes.  The portfolio
     includes both directions of heavy crashes (low-index survivors starve
     P<) and the uniformity witness (a lonely early decision racing delayed
     messages). *)
  let plain p = (p, Scheduler.fair ()) in
  let witness () =
    ( Pattern.make ~n [ (pid 1, time 1) ],
      Scheduler.constrained ~base:(Scheduler.fair ())
        [ Scheduler.delay_from (pid 1) ~until:(time 2500) ] )
  in
  let slow_sender () =
    (* p1 is correct but its messages take 1200 ticks: accurate detectors
       wait for it, eventually-accurate ones give up too early *)
    ( Pattern.failure_free ~n,
      Scheduler.constrained ~base:(Scheduler.fair ())
        [ Scheduler.delay_from (pid 1) ~until:(time 1200) ] )
  in
  let portfolio () =
    [ plain (Pattern.failure_free ~n);
      plain (Pattern.make ~n [ (pid 2, time 10) ]);
      plain (Pattern.make ~n (List.init (n - 1) (fun i -> (pid (i + 1), time (10 + (10 * i))))));
      plain (Pattern.make ~n (List.init (n - 1) (fun i -> (pid (i + 2), time (10 + (10 * i))))));
      witness ();
      slow_sender () ]
  in
  let solves check = List.for_all (fun (pattern, scheduler) ->
      check ~pattern ~scheduler) (portfolio ())
  in
  let run automaton detector ~pattern ~scheduler =
    Runner.run ~pattern ~detector ~scheduler ~horizon:(time 3000)
      ~until:(Runner.stop_when_all_correct_output pattern)
      automaton
  in
  let consensus_with detector =
    solves (fun ~pattern ~scheduler ->
        let r = run (Ct_strong.automaton ~proposals) detector ~pattern ~scheduler in
        Properties.check_consensus ~uniform:true ~proposals ~equal:Int.equal r
        |> List.for_all (fun (_, res) -> Classes.holds res))
  in
  let rank_with detector =
    solves (fun ~pattern ~scheduler ->
        let r = run (Rank_consensus.automaton ~proposals) detector ~pattern ~scheduler in
        Properties.check_consensus ~uniform:false ~proposals ~equal:Int.equal r
        |> List.for_all (fun (_, res) -> Classes.holds res))
  in
  let trb_with detector =
    solves (fun ~pattern ~scheduler ->
        let r = run (Trb.automaton ~sender:(pid 1) ~value:9) detector ~pattern ~scheduler in
        Properties.trb_check ~sender:(pid 1) ~value:9 ~equal:Int.equal r
        |> List.for_all (fun (_, res) -> Classes.holds res))
  in
  let t =
    Table.create
      ~title:"T3: solvability over an adversarial portfolio (unbounded failures)"
      ~columns:[ "detector"; "uniform consensus"; "non-uniform consensus"; "TRB" ]
  in
  let row name detector =
    Table.add_row t
      [ name;
        Table.cell_bool (consensus_with detector);
        Table.cell_bool (rank_with detector);
        Table.cell_bool (trb_with detector) ]
  in
  row "P (realistic)" Perfect.canonical;
  row "S (realistic = P)" Strong.realistic;
  row "P< (realistic)" Partial_perfect.canonical;
  row "<>S (realistic)" (Ev_strong.paranoid ~stabilization:(time 400));
  row "M (not realistic)" Marabout.canonical;
  Table.print t;
  Format.printf
    "Reading: P (and collapsed realistic S) solves everything; P< keeps only the\n\
     non-uniform problem; <>S fails without a correct majority; the non-realistic\n\
     M solves all three - the hierarchy collapse is a statement about *realistic*\n\
     detectors only.@.@."

(* ---------------------------------------------------------------- *)
(* Table 4 (EXP-3): consensus cost vs number of crashes               *)
(* ---------------------------------------------------------------- *)

let table_consensus_cost () =
  let n = 5 in
  let t =
    Table.create ~title:"T4 (EXP-3): ct-strong consensus cost vs crashes (n=5, P)"
      ~columns:[ "f"; "steps"; "messages"; "decision time (ticks)"; "ok" ]
  in
  List.iter
    (fun f ->
      let pattern =
        Pattern.make ~n (List.init f (fun i -> (pid (i + 1), time (5 + (7 * i)))))
      in
      let r =
        run_with ~n ~detector:Perfect.canonical ~pattern (Ct_strong.automaton ~proposals)
      in
      let ok =
        Properties.check_consensus ~uniform:true ~proposals ~equal:Int.equal r
        |> List.for_all (fun (_, res) -> Classes.holds res)
      in
      let last_decision =
        List.fold_left (fun acc (ti, _, _) -> Stdlib.max acc (Time.to_int ti)) 0
          r.Runner.outputs
      in
      Table.add_row t
        [ Table.cell_int f; Table.cell_int r.Runner.steps; Table.cell_int r.Runner.sent;
          Table.cell_int last_decision; Table.cell_bool ok ])
    (List.init n Fun.id);
  Table.print t

(* ---------------------------------------------------------------- *)
(* Table 4b (ablation): decision latency vs detector information lag  *)
(* ---------------------------------------------------------------- *)

let table_lag_ablation () =
  let n = 5 in
  let pattern = Pattern.make ~n [ (pid 2, time 10); (pid 4, time 20) ] in
  let t =
    Table.create
      ~title:"T4b (ablation): ct-strong latency vs detector lag (crashes at 10, 20)"
      ~columns:[ "detector lag"; "decision time (ticks)"; "messages"; "ok" ]
  in
  List.iter
    (fun lag ->
      let detector = if lag = 0 then Perfect.canonical else Perfect.delayed ~lag in
      let r = run_with ~n ~detector ~pattern (Ct_strong.automaton ~proposals) in
      let ok =
        Properties.check_consensus ~uniform:true ~proposals ~equal:Int.equal r
        |> List.for_all (fun (_, res) -> Classes.holds res)
      in
      let last_decision =
        List.fold_left (fun acc (ti, _, _) -> Stdlib.max acc (Time.to_int ti)) 0
          r.Runner.outputs
      in
      Table.add_row t
        [ Table.cell_int lag; Table.cell_int last_decision; Table.cell_int r.Runner.sent;
          Table.cell_bool ok ])
    [ 0; 5; 10; 20; 40; 80 ];
  Table.print t;
  Format.printf
    "Reading: staleness of failure information translates directly into waiting\n\
     time - the quantitative face of 'a detector abstracts synchrony'.@.@."

(* ---------------------------------------------------------------- *)
(* Table 5 (EXP-9): the majority crossover of <>S                     *)
(* ---------------------------------------------------------------- *)

let table_majority_crossover () =
  let n = 5 in
  let ev_strong = Ev_strong.canonical ~seed ~noise:0.1 in
  let t =
    Table.create
      ~title:
        "T5 (EXP-9): majority-based algorithms - termination vs crashes (n=5)"
      ~columns:
        [ "f"; "majority correct"; "<>S terminates"; "<>S safe";
          "paxos(Omega) terminates"; "paxos safe" ]
  in
  List.iter
    (fun f ->
      let pattern =
        Pattern.make ~n (List.init f (fun i -> (pid (i + 1), time (10 + (5 * i)))))
      in
      let judge r =
        ( Classes.holds (Properties.termination r),
          Classes.holds (Properties.uniform_agreement ~equal:Int.equal r)
          && Classes.holds (Properties.validity ~proposals ~equal:Int.equal r) )
      in
      let run detector automaton =
        judge
          (Runner.run ~pattern ~detector ~scheduler:(Scheduler.fair ())
             ~horizon:(time 3000)
             ~until:(Runner.stop_when_all_correct_output pattern)
             automaton)
      in
      let es_term, es_safe = run ev_strong (Ct_ev_strong.automaton ~proposals) in
      let px_term, px_safe = run Omega.canonical (Paxos.automaton ~proposals) in
      Table.add_row t
        [ Table.cell_int f;
          Table.cell_bool (n - f > n / 2);
          Table.cell_bool es_term; Table.cell_bool es_safe;
          Table.cell_bool px_term; Table.cell_bool px_safe ])
    (List.init n Fun.id);
  Table.print t;
  Format.printf
    "Reading: both majority-quorum families cross over exactly at f = ceil(n/2) -\n\
     the bound the paper's environment removes, which is why they stop sufficing.@.@."

(* ---------------------------------------------------------------- *)
(* Table 3b: the same story as a seeded grid (pass rates)             *)
(* ---------------------------------------------------------------- *)

let table_grid () =
  let judge r =
    Properties.check_consensus ~uniform:true ~proposals ~equal:Int.equal r
  in
  let cells =
    Rlfd_core.Grid.run ~n:5 ~seeds:(List.init 8 Fun.id)
      ~detectors:
        [ ("P", Perfect.canonical);
          ("P(lag=10)", Perfect.delayed ~lag:10);
          ("S(realistic)", Strong.realistic);
          ("P<", Partial_perfect.canonical);
          ("<>S(paranoid)", Ev_strong.paranoid ~stabilization:(time 400)) ]
      ~environments:Rlfd_fd.Environment.[ majority_correct; unbounded ]
      ~judge
      (Ct_strong.automaton ~proposals)
  in
  Table.print
    (Rlfd_core.Grid.to_table
       ~title:"T3b: uniform consensus pass rates, detector x environment (8 seeds)"
       cells);
  Format.printf
    "Reading: Perfect-grade detectors pass everywhere; P< starves when survivors\n\
     cannot observe their superiors; paranoid <>S shows why eventual accuracy is\n\
     not enough once the majority bound is gone.@.@."

(* ---------------------------------------------------------------- *)
(* Table 6 (EXP-2): reduction throughput and overhead                 *)
(* ---------------------------------------------------------------- *)

let table_reduction_overhead () =
  let t =
    Table.create
      ~title:"T6 (EXP-2): T(D->P) emulation - cost per emulated-P instance"
      ~columns:[ "n"; "instances"; "steps/instance"; "msgs/instance"; "emulation ok" ]
  in
  List.iter
    (fun n ->
      let pattern = Pattern.make ~n [ (pid 2, time 60) ] in
      let r =
        Runner.run ~pattern ~detector:Perfect.canonical ~scheduler:(Scheduler.fair ())
          ~horizon:(time 4000)
          (Consensus_to_p.automaton ~impl:Consensus_to_p.ct_strong_impl)
      in
      let instances =
        Pid.Map.fold
          (fun _ st acc -> Stdlib.max acc (Consensus_to_p.instances_decided st))
          r.Runner.final_states 0
      in
      let ok =
        Emulation.check_emulation_run r
        |> List.for_all (fun (_, res) -> Classes.holds res)
      in
      Table.add_row t
        [ Table.cell_int n; Table.cell_int instances;
          Table.cell_float (float_of_int r.Runner.steps /. float_of_int (Stdlib.max 1 instances));
          Table.cell_float (float_of_int r.Runner.sent /. float_of_int (Stdlib.max 1 instances));
          Table.cell_bool ok ])
    [ 3; 4; 5; 6; 7 ];
  Table.print t

(* ---------------------------------------------------------------- *)
(* Table 7 (EXP-12): heartbeat QoS across synchrony models            *)
(* ---------------------------------------------------------------- *)

let table_qos () =
  let n = 5 in
  let pattern = Pattern.make ~n [ (pid 3, time 700) ] in
  let t =
    Table.create
      ~title:"T7 (EXP-12): heartbeat detector QoS vs synchrony model (crash at t=700)"
      ~columns:
        [ "link"; "detector"; "mean detection"; "false episodes"; "mean mistake";
          "perfect-grade" ]
  in
  let run model style =
    let r =
      Netsim.run ~n ~pattern ~model ~seed ~horizon:4000 ~metrics:registry
        (Heartbeat.node ~metrics:registry style)
    in
    let report = Qos.analyze r in
    Qos.observe registry report;
    Table.add_row t
      [ Link.name model;
        Format.asprintf "%a" Heartbeat.pp_style style;
        Table.cell_float (Stats.mean report.Qos.detection_latencies);
        Table.cell_int report.Qos.false_episodes;
        Table.cell_float (Stats.mean report.Qos.mistake_durations);
        Table.cell_bool (Qos.perfect_grade report) ]
  in
  let sync = Link.Synchronous { delta = 10 } in
  let psync = Link.Partially_synchronous { gst = 1000; delta = 10; wild_max = 120 } in
  let async = Link.Asynchronous { mean = 15.; spike_every = 20; spike = 300 } in
  let fixed = Heartbeat.Fixed { period = 20; timeout = 31 } in
  let adaptive = Heartbeat.Adaptive { period = 20; initial_timeout = 31; backoff = 25 } in
  run sync fixed;
  run sync adaptive;
  run psync fixed;
  run psync adaptive;
  run async fixed;
  run async adaptive;
  Table.print t;
  Format.printf
    "Reading: P is implementable only where delays are bounded from time 0;\n\
     partial synchrony gives <>P (finitely many mistakes); async never settles.@.@."

let table_qos_timeout_sweep () =
  let n = 5 in
  let pattern = Pattern.make ~n [ (pid 3, time 700) ] in
  let model = Link.Partially_synchronous { gst = 1000; delta = 10; wild_max = 120 } in
  let t =
    Table.create
      ~title:"T7b (EXP-12): detection latency vs timeout (fixed detector, psync link)"
      ~columns:[ "timeout"; "mean detection"; "false episodes" ]
  in
  List.iter
    (fun timeout ->
      let r =
        Netsim.run ~n ~pattern ~model ~seed ~horizon:4000
          (Heartbeat.node (Heartbeat.Fixed { period = 20; timeout }))
      in
      let report = Qos.analyze r in
      Table.add_row t
        [ Table.cell_int timeout;
          Table.cell_float (Stats.mean report.Qos.detection_latencies);
          Table.cell_int report.Qos.false_episodes ])
    [ 25; 40; 60; 90; 130; 200 ];
  Table.print t;
  Format.printf
    "Reading: the classic QoS trade-off - longer timeouts buy accuracy with latency.@.@."

(* ---------------------------------------------------------------- *)
(* Table 7c (EXP-12): the streaming QoS observatory at large n        *)
(* ---------------------------------------------------------------- *)

(* Qos.analyze needs the retained output list, which caps the n it can
   reach; the streaming estimator taps the live event stream instead and
   keeps O(n^2) pair state plus fixed-memory sketches.  Each row here is
   one bounded-memory run (retain_outputs:false) with crash churn; the
   sketch summaries, bandwidth and wall time land in BENCH_qos.json. *)
let table_qos_streaming () =
  let t =
    Table.create
      ~title:
        "T7c (EXP-12): streaming QoS observatory - bounded memory, crash churn"
      ~columns:
        [ "n"; "loss"; "crashes"; "det p50"; "det p95"; "det p99"; "undet";
          "false"; "P_A"; "msgs"; "msgs/tick"; "wall (s)" ]
  in
  let scope ~n ~loss ~churn ~horizon ~period ~timeout =
    let crashes =
      List.init churn (fun i ->
          (pid (2 + i), time (horizon * (i + 1) / (2 * (churn + 1)))))
    in
    let pattern = Pattern.make ~n crashes in
    let model =
      let sync = Link.Synchronous { delta = 10 } in
      if loss = 0. then sync else Link.lossy ~drop:loss sync
    in
    let est =
      Qos_stream.create ~label:(Printf.sprintf "n=%d" n) ~n ~pattern ()
    in
    let tap = Qos_stream.sink est in
    let t0 = Obs.Profile.now () in
    let r =
      Netsim.run ~retain_outputs:false ~sink:tap ~n ~pattern ~model ~seed
        ~horizon
        (Heartbeat.node ~sink:tap (Heartbeat.Fixed { period; timeout }))
    in
    let wall = Obs.Profile.now () -. t0 in
    let s = Qos_stream.finish est ~end_time:r.Netsim.end_time in
    let p sk q =
      if Obs.Sketch.is_empty sk then "-"
      else Format.asprintf "%.1f" (Obs.Sketch.percentile sk q)
    in
    let bandwidth =
      float_of_int s.Qos_stream.messages_sent
      /. float_of_int (Stdlib.max 1 s.Qos_stream.end_time)
    in
    Table.add_row t
      [ Table.cell_int n; Table.cell_pct loss; Table.cell_int churn;
        p s.Qos_stream.detection 0.5; p s.Qos_stream.detection 0.95;
        p s.Qos_stream.detection 0.99;
        Table.cell_int s.Qos_stream.undetected;
        Table.cell_int s.Qos_stream.false_episodes;
        Table.cell_float ~decimals:3 s.Qos_stream.query_accuracy;
        Table.cell_int s.Qos_stream.messages_sent;
        Table.cell_float bandwidth;
        Table.cell_float ~decimals:2 wall ];
    Obs.Json.Obj
      [ ("n", Obs.Json.Int n); ("loss", Obs.Json.Float loss);
        ("churn", Obs.Json.Int churn); ("horizon", Obs.Json.Int horizon);
        ("period", Obs.Json.Int period); ("timeout", Obs.Json.Int timeout);
        ("detection_latency", Obs.Sketch.to_json s.Qos_stream.detection);
        ("mistake_duration", Obs.Sketch.to_json s.Qos_stream.mistake);
        ("mistake_recurrence", Obs.Sketch.to_json s.Qos_stream.recurrence);
        ("detected", Obs.Json.Int s.Qos_stream.detected);
        ("undetected", Obs.Json.Int s.Qos_stream.undetected);
        ("false_episodes", Obs.Json.Int s.Qos_stream.false_episodes);
        ("query_accuracy", Obs.Json.Float s.Qos_stream.query_accuracy);
        ("messages_sent", Obs.Json.Int s.Qos_stream.messages_sent);
        ("messages_delivered", Obs.Json.Int s.Qos_stream.messages_delivered);
        ("messages_dropped", Obs.Json.Int s.Qos_stream.messages_dropped);
        ("messages_per_tick", Obs.Json.Float bandwidth);
        ("complete", Obs.Json.Bool s.Qos_stream.complete);
        ("accurate", Obs.Json.Bool s.Qos_stream.accurate);
        ("wall_s", Obs.Json.Float wall) ]
  in
  let entries =
    List.map
      (fun (n, loss, horizon, period, timeout) ->
        scope ~n ~loss ~churn:5 ~horizon ~period ~timeout)
      [ (100, 0., 1000, 25, 40); (100, 0.1, 1000, 25, 40);
        (300, 0., 600, 50, 80); (1000, 0., 400, 100, 150) ]
  in
  Table.print t;
  Format.printf
    "Reading: the estimator never retains a sample list, so the n=1,000 row\n\
     runs in the same per-pair memory as the n=100 one - the workload axis\n\
     Qos.analyze's retained outputs could not reach.@.@.";
  entries

(* ---------------------------------------------------------------- *)
(* Table 7d (EXP-12): monitoring-topology scaling                     *)
(* ---------------------------------------------------------------- *)

(* The detector-zoo scaling claim: under all-to-all monitoring each node's
   bandwidth grows O(n), under the hierarchical (hypercube) testing graph
   it grows O(log n) - at the price of multi-hop dissemination latency.
   Every row is one streaming ping-ack run (fixed timeouts, synchronous
   links, crash churn); per-node bandwidth = msgs / end_time / n.
   Horizons shrink as n grows, like T7c; bandwidth is per tick, so rows
   stay comparable. *)
let table_qos_scaling () =
  let t =
    Table.create
      ~title:
        "T7d (EXP-12): topology scaling - per-node bandwidth, all-to-all vs \
         hierarchical"
      ~columns:
        [ "topology"; "n"; "degree"; "det p50"; "det p95"; "det max"; "undet";
          "false"; "msgs"; "msgs/node/tick"; "wall (s)" ]
  in
  let period = 50 and churn = 5 in
  let model = Link.Synchronous { delta = 10 } in
  let timeout = (* Pingack.perfect_timeout: 2*delta + period + 1 *) 71 in
  let scope ~topology ~n ~horizon =
    let crashes =
      List.init churn (fun i ->
          (pid (2 + i), time (horizon * (i + 1) / (2 * (churn + 1)))))
    in
    let pattern = Pattern.make ~n crashes in
    let spec =
      { Detector_impl.impl = `Pingack; topology; period; timeout;
        backoff = None; retries = 1 }
    in
    let est =
      Qos_stream.create
        ~label:(Printf.sprintf "%s n=%d" (Topology.name topology) n)
        ~n ~pattern ()
    in
    let tap = Qos_stream.sink est in
    let t0 = Obs.Profile.now () in
    let (Detector_impl.Sim r) =
      Detector_impl.simulate ~retain_outputs:false ~sink:tap ~n ~pattern
        ~model ~seed ~horizon spec
    in
    let wall = Obs.Profile.now () -. t0 in
    let s = Qos_stream.finish est ~end_time:r.Netsim.end_time in
    let p sk q =
      if Obs.Sketch.is_empty sk then "-"
      else Format.asprintf "%.1f" (Obs.Sketch.percentile sk q)
    in
    let per_node =
      float_of_int s.Qos_stream.messages_sent
      /. float_of_int (Stdlib.max 1 s.Qos_stream.end_time)
      /. float_of_int n
    in
    Table.add_row t
      [ Topology.name topology; Table.cell_int n;
        Table.cell_int (Topology.degree topology ~n);
        p s.Qos_stream.detection 0.5; p s.Qos_stream.detection 0.95;
        p s.Qos_stream.detection 1.0;
        Table.cell_int s.Qos_stream.undetected;
        Table.cell_int s.Qos_stream.false_episodes;
        Table.cell_int s.Qos_stream.messages_sent;
        Table.cell_float ~decimals:3 per_node;
        Table.cell_float ~decimals:2 wall ];
    Obs.Json.Obj
      [ ("topology", Obs.Json.String (Topology.name topology));
        ("n", Obs.Json.Int n);
        ("degree", Obs.Json.Int (Topology.degree topology ~n));
        ("churn", Obs.Json.Int churn); ("horizon", Obs.Json.Int horizon);
        ("period", Obs.Json.Int period); ("timeout", Obs.Json.Int timeout);
        ("detection_latency", Obs.Sketch.to_json s.Qos_stream.detection);
        ("detected", Obs.Json.Int s.Qos_stream.detected);
        ("undetected", Obs.Json.Int s.Qos_stream.undetected);
        ("false_episodes", Obs.Json.Int s.Qos_stream.false_episodes);
        ("query_accuracy", Obs.Json.Float s.Qos_stream.query_accuracy);
        ("messages_sent", Obs.Json.Int s.Qos_stream.messages_sent);
        ("per_node_bandwidth", Obs.Json.Float per_node);
        ("complete", Obs.Json.Bool s.Qos_stream.complete);
        ("accurate", Obs.Json.Bool s.Qos_stream.accurate);
        ("wall_s", Obs.Json.Float wall) ]
  in
  let entries =
    List.map
      (fun (topology, n, horizon) -> scope ~topology ~n ~horizon)
      [ (Topology.All_to_all, 100, 1000); (Topology.All_to_all, 300, 600);
        (Topology.All_to_all, 1000, 400); (Topology.Hierarchical, 100, 1000);
        (Topology.Hierarchical, 300, 600); (Topology.Hierarchical, 1000, 400);
        (Topology.Hierarchical, 3000, 400);
        (Topology.Hierarchical, 10000, 400) ]
  in
  Table.print t;
  Format.printf
    "Reading: all-to-all per-node bandwidth grows linearly with n; the\n\
     hierarchical testing graph holds it near its ceil(log2 n) degree, which\n\
     is how the n=10,000 row costs each node less than the all-to-all n=100\n\
     one - paying a dissemination-hop latency tax that stays within 2x.@.@.";
  entries

let write_qos_json ~t7c ~t7d =
  let json =
    Obs.Json.Obj
      [ ("schema_version", Obs.Json.Int Obs.Trace.schema_version);
        ("rows", Obs.Json.List t7c); ("t7d", Obs.Json.List t7d) ]
  in
  let oc = open_out "BENCH_qos.json" in
  output_string oc (Obs.Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Format.printf "wrote BENCH_qos.json@.@."

(* T7c + T7d share BENCH_qos.json, so they run as one unit (the [qos]
   mode CI regenerates the file from). *)
let table_qos_observatory () =
  let t7c = Obs.Profile.time profiler "T7c.qos-streaming" table_qos_streaming in
  let t7d = Obs.Profile.time profiler "T7d.qos-scaling" table_qos_scaling in
  write_qos_json ~t7c ~t7d

(* ---------------------------------------------------------------- *)
(* Table 8 (EXP-11): membership view convergence                      *)
(* ---------------------------------------------------------------- *)

let table_membership () =
  let n = 5 in
  let t =
    Table.create
      ~title:"T8 (EXP-11): group membership - exclusion accuracy and convergence"
      ~columns:
        [ "link"; "crashes"; "views installed"; "forced halts"; "P-emulation";
          "final views agree" ]
  in
  let run model crashes =
    let pattern = Pattern.make ~n (List.map (fun (p, ti) -> (pid p, time ti)) crashes) in
    let r = Netsim.run ~n ~pattern ~model ~seed:11 ~horizon:4000 (Gms.node Gms.default_config) in
    let installs =
      List.length
        (List.filter
           (fun (_, _, ev) -> match ev with Gms.View_installed _ -> true | _ -> false)
           r.Netsim.outputs)
    in
    let ok = Gms.check_emulates_p r |> List.for_all (fun (_, res) -> Classes.holds res) in
    Table.add_row t
      [ Link.name model;
        Table.cell_int (List.length crashes);
        Table.cell_int installs;
        Table.cell_int (List.length r.Netsim.halted);
        Table.cell_bool ok;
        Table.cell_bool (Classes.holds (Gms.final_views_agree r)) ]
  in
  let sync = Link.Synchronous { delta = 8 } in
  let psync = Link.Partially_synchronous { gst = 900; delta = 8; wild_max = 100 } in
  run sync [];
  run sync [ (2, 500) ];
  run sync [ (2, 500); (5, 1200) ];
  run sync [ (1, 300); (2, 300); (3, 300) ];
  run psync [ (2, 500) ];
  Table.print t

(* ---------------------------------------------------------------- *)
(* Table 8b (EXP-11): view-synchronous multicast                      *)
(* ---------------------------------------------------------------- *)

let table_vsync () =
  let n = 5 in
  let payloads p = List.init 4 (fun k -> (Pid.to_int p * 100) + k) in
  let t =
    Table.create
      ~title:"T8b (EXP-11): view-synchronous multicast - flushes close views consistently"
      ~columns:[ "link"; "crashes"; "final view"; "vs-agreement"; "one-view/item"; "no-dup" ]
  in
  let run model crashes =
    let pattern = Pattern.make ~n (List.map (fun (p, ti) -> (pid p, time ti)) crashes) in
    let r =
      Netsim.run ~n ~pattern ~model ~seed:11 ~horizon:6000
        (Vsync.node Vsync.default_config ~to_send:payloads)
    in
    let checks = Vsync.check r in
    let verdict name = Table.cell_bool (Classes.holds (List.assoc name checks)) in
    let final_view =
      Pid.Map.fold (fun _ st acc -> Stdlib.max acc (fst (Vsync.current_view st)))
        r.Netsim.final_states 0
    in
    Table.add_row t
      [ Link.name model; Table.cell_int (List.length crashes);
        Table.cell_int final_view; verdict "view agreement";
        verdict "delivery in one view"; verdict "no duplicates" ]
  in
  let sync = Link.Synchronous { delta = 8 } in
  run sync [];
  run sync [ (2, 700) ];
  run sync [ (1, 600) ];
  run sync [ (2, 600); (4, 2500) ];
  run (Link.Partially_synchronous { gst = 900; delta = 8; wild_max = 100 }) [ (2, 700) ];
  Table.print t

(* ---------------------------------------------------------------- *)
(* Table 9 (EXP-13): non-blocking atomic commitment                   *)
(* ---------------------------------------------------------------- *)

let table_nbac () =
  let n = 5 in
  let t =
    Table.create ~title:"T9 (EXP-13): non-blocking atomic commitment with P (n=5)"
      ~columns:[ "votes"; "crashes"; "outcome"; "spec" ]
  in
  let run label votes crashes =
    let pattern = Pattern.make ~n (List.map (fun (p, ti) -> (pid p, time ti)) crashes) in
    let r =
      Runner.run ~pattern ~detector:Perfect.canonical ~scheduler:(Scheduler.fair ())
        ~horizon:(time 6000)
        ~until:(Runner.stop_when_all_correct_output pattern)
        (Nbac.automaton ~votes)
    in
    let outcome =
      match r.Runner.outputs with
      | (_, _, o) :: _ -> Format.asprintf "%a" Nbac.pp_outcome o
      | [] -> "-"
    in
    let ok = Nbac.check ~votes r |> List.for_all (fun (_, res) -> Classes.holds res) in
    Table.add_row t
      [ label; Table.cell_int (List.length crashes); outcome; Table.cell_bool ok ]
  in
  let all_yes _ = Nbac.Yes in
  let one_no p = if Pid.to_int p = 3 then Nbac.No else Nbac.Yes in
  run "unanimous yes" all_yes [];
  run "one no" one_no [];
  run "unanimous yes" all_yes [ (2, 0) ];
  run "unanimous yes" all_yes [ (1, 2) ];
  run "unanimous yes" all_yes [ (1, 5); (2, 10); (3, 15); (4, 20) ];
  Table.print t;
  Format.printf
    "Reading: commit requires a full unanimous ballot box; any crash is a valid\n\
     excuse to abort, and strong accuracy keeps excuses honest.@.@."

(* ---------------------------------------------------------------- *)
(* Table 10 (EXP-14): small-scope exhaustive model checking           *)
(* ---------------------------------------------------------------- *)

let table_explore () =
  let n = 3 in
  let proposals p = 10 + Pid.to_int p in
  let agreement = Explore.agreement_check ~equal:Int.equal in
  let safety =
    Explore.both agreement (Explore.validity_check ~n ~proposals ~equal:Int.equal)
  in
  let d_equal = Pid.Set.equal in
  (* Each scope runs twice — naive and canon+por — so the table and
     BENCH_explore.json record the reduction factor next to the absolute
     numbers.  Both runs see the same scope; EXP-14's cross-checks assert
     the decision sets agree, here we measure the work saved. *)
  let scopes =
    [ ( "ct-strong + P (safety)", 9,
        fun ~canon ~por ->
          Explore.run ~max_steps:9 ~max_nodes:2_000_000 ~canon ~por ~d_equal
            ~pattern:(Pattern.make ~n [ (pid 1, time 2) ])
            ~detector:Perfect.canonical ~check:safety
            (Ct_strong.automaton ~proposals) );
      ( "rank + P< (correct-restricted)", 10,
        fun ~canon ~por ->
          let faulty = pid 1 in
          Explore.run ~max_steps:10 ~max_nodes:2_000_000 ~canon ~por ~d_equal
            ~pattern:(Pattern.make ~n [ (faulty, time 1) ])
            ~detector:Partial_perfect.canonical
            ~check:(fun outputs ->
              agreement
                (List.filter (fun (p, _) -> not (Pid.equal p faulty)) outputs))
            (Rank_consensus.automaton ~proposals) );
      ( "rank + P< (uniform: witness expected)", 10,
        fun ~canon ~por ->
          Explore.run ~max_steps:10 ~max_nodes:2_000_000 ~canon ~por ~d_equal
            ~pattern:(Pattern.make ~n [ (pid 1, time 1) ])
            ~detector:Partial_perfect.canonical ~check:agreement
            (Rank_consensus.automaton ~proposals) );
      ( "marabout-algo + P (witness expected)", 8,
        fun ~canon ~por ->
          Explore.run ~max_steps:8 ~max_nodes:2_000_000 ~canon ~por ~d_equal
            ~pattern:(Pattern.make ~n [ (pid 1, time 1) ])
            ~detector:Perfect.canonical ~check:agreement
            (Marabout_consensus.automaton ~proposals) )
    ]
  in
  let t =
    Table.create
      ~title:
        "T10 (EXP-14): exhaustive schedule exploration, naive vs canon+por \
         (n=3)"
      ~columns:
        [ "algorithm+detector"; "steps"; "naive nodes"; "reduced"; "factor";
          "deduped"; "por-pruned"; "viol" ]
  in
  (* The reduced runs finish in milliseconds, where a single wall-clock
     sample is mostly scheduler noise: repeat and keep the best.  The naive
     runs take long enough that one sample is representative. *)
  let timed_run ?(repeats = 1) f =
    let t0 = Obs.Profile.now () in
    let r = ref (f ()) in
    let best = ref (Obs.Profile.now () -. t0) in
    for _ = 2 to repeats do
      let t0 = Obs.Profile.now () in
      r := f ();
      let dt = Obs.Profile.now () -. t0 in
      if dt < !best then best := dt
    done;
    (!r, !best)
  in
  let entries =
    List.map
      (fun (label, steps, scope) ->
        let naive, naive_s = timed_run (fun () -> scope ~canon:false ~por:false) in
        let reduced, reduced_s =
          timed_run ~repeats:7 (fun () -> scope ~canon:true ~por:true)
        in
        let factor =
          float_of_int naive.Explore.nodes_explored
          /. float_of_int (Stdlib.max 1 reduced.Explore.nodes_explored)
        in
        Table.add_row t
          [ label; Table.cell_int steps;
            Table.cell_int naive.Explore.nodes_explored;
            Table.cell_int reduced.Explore.nodes_explored;
            Format.asprintf "%.1fx" factor;
            Table.cell_int reduced.Explore.deduped;
            Table.cell_int reduced.Explore.por_pruned;
            Table.cell_int (List.length reduced.Explore.violations) ];
        Obs.Json.Obj
          [ ("scope", Obs.Json.String label);
            ("max_steps", Obs.Json.Int steps);
            ("naive_nodes", Obs.Json.Int naive.Explore.nodes_explored);
            ("naive_seconds", Obs.Json.Float naive_s);
            ("naive_states_per_sec",
             Obs.Json.Float
               (float_of_int naive.Explore.nodes_explored
               /. Stdlib.max 1e-9 naive_s));
            ("reduced_nodes", Obs.Json.Int reduced.Explore.nodes_explored);
            ("reduced_seconds_best", Obs.Json.Float reduced_s);
            ("reduced_states_per_sec",
             Obs.Json.Float
               (float_of_int reduced.Explore.nodes_explored
               /. Stdlib.max 1e-9 reduced_s));
            ("distinct_states", Obs.Json.Int reduced.Explore.distinct_states);
            ("deduped", Obs.Json.Int reduced.Explore.deduped);
            ("por_pruned", Obs.Json.Int reduced.Explore.por_pruned);
            ("reduction_factor", Obs.Json.Float factor);
            ("complete",
             Obs.Json.Bool (naive.Explore.complete && reduced.Explore.complete));
            ("violations",
             Obs.Json.Int (List.length reduced.Explore.violations)) ])
      scopes
  in
  Table.print t;
  Format.printf
    "Reading: within the explored scope, the total algorithm is safe on every\n\
     interleaving; the non-total algorithms have concrete counterexample\n\
     schedules.  canon+por explore the same decision states in a fraction of\n\
     the nodes.@.@.";
  let json =
    Obs.Json.Obj
      [ ("schema_version", Obs.Json.Int Obs.Trace.schema_version);
        ("scopes", Obs.Json.List entries) ]
  in
  (* Per-layer attribution on the headline scope (n=3, ct-strong+P, crash
     1@2, depth 9): one row per reduction subset, factors against both the
     naive tree and the seed-era canon+por baseline (no view clamp — the
     encoding the explorer shipped with before the layered kernel).  A
     final frontier row records the depth-13 n=4 scope that only the full
     stack completes. *)
  let layer_entries =
    let pattern = Pattern.make ~n [ (pid 1, time 2) ] in
    let sym nn =
      {
        Explore.renamer = Ct_strong.renamer;
        value_map = (fun pi -> Symmetry.value_map_of_proposals ~n:nn ~proposals pi);
        d_rename = Symmetry.rename_set;
      }
    in
    let headline ?view ?attribution ~canon ~por ~por_lambda ~symmetry () =
      Explore.run ?attribution ~max_steps:9 ~max_nodes:2_000_000 ~canon ?view
        ~por ~por_lambda
        ?symmetry:(if symmetry then Some (sym n) else None)
        ~d_equal ~pattern ~detector:Perfect.canonical ~check:safety
        (Ct_strong.automaton ~proposals)
    in
    let layers =
      [ ( "naive",
          headline ~view:false ~canon:false ~por:false ~por_lambda:false
            ~symmetry:false );
        ( "canon-no-view",
          headline ~view:false ~canon:true ~por:false ~por_lambda:false
            ~symmetry:false );
        ( "canon",
          headline ~view:true ~canon:true ~por:false ~por_lambda:false
            ~symmetry:false );
        ( "canon+por-no-view (seed baseline)",
          headline ~view:false ~canon:true ~por:true ~por_lambda:false
            ~symmetry:false );
        ( "canon+por",
          headline ~view:true ~canon:true ~por:true ~por_lambda:false
            ~symmetry:false );
        ( "canon+por+lambda",
          headline ~view:true ~canon:true ~por:true ~por_lambda:true
            ~symmetry:false );
        ( "canon+symmetry",
          headline ~view:true ~canon:true ~por:false ~por_lambda:false
            ~symmetry:true );
        ( "full stack",
          headline ~view:true ~canon:true ~por:true ~por_lambda:true
            ~symmetry:true ) ]
    in
    let t2 =
      Table.create
        ~title:
          "T10b (EXP-14): per-layer reduction attribution, headline scope \
           (n=3, ct-strong+P, crash 1@2, depth 9)"
        ~columns:
          [ "layers"; "nodes"; "distinct"; "vs naive"; "vs seed canon+por";
            "deduped"; "por"; "lambda"; "orbit" ]
    in
    let results =
      List.map
        (fun (label, f) ->
          let repeats = if label = "naive" then 1 else 7 in
          (label, timed_run ~repeats (fun () -> f ?attribution:None ())))
        layers
    in
    (* Attribution pass: a second run per layer with the per-phase timers
       on (the timers themselves cost a clock read per explored edge, so
       the throughput numbers above come from the untimed runs). *)
    let attributions =
      List.map
        (fun (label, f) ->
          let attribution = ref [] in
          ignore (f ?attribution:(Some attribution) ());
          (label, !attribution))
        layers
    in
    let attr_of label =
      match List.assoc_opt label attributions with Some a -> a | None -> []
    in
    let attr_field a name =
      match List.assoc_opt name a with Some s -> s | None -> 0.
    in
    let nodes label =
      match List.assoc_opt label results with
      | Some ((r : _ Explore.report), _) -> r.Explore.nodes_explored
      | None -> 1
    in
    let naive_nodes = nodes "naive" in
    let baseline_nodes = nodes "canon+por-no-view (seed baseline)" in
    let entries =
      List.map
        (fun (label, ((r : _ Explore.report), secs)) ->
          let vs_naive =
            float_of_int naive_nodes
            /. float_of_int (Stdlib.max 1 r.Explore.nodes_explored)
          in
          let vs_baseline =
            float_of_int baseline_nodes
            /. float_of_int (Stdlib.max 1 r.Explore.nodes_explored)
          in
          Table.add_row t2
            [ label; Table.cell_int r.Explore.nodes_explored;
              Table.cell_int r.Explore.distinct_states;
              Format.asprintf "%.1fx" vs_naive;
              Format.asprintf "%.1fx" vs_baseline;
              Table.cell_int r.Explore.deduped;
              Table.cell_int r.Explore.por_pruned;
              Table.cell_int r.Explore.lambda_pruned;
              Table.cell_int r.Explore.orbit_collapsed ];
          Obs.Json.Obj
            [ ("layers", Obs.Json.String label);
              ("nodes", Obs.Json.Int r.Explore.nodes_explored);
              ("distinct_states", Obs.Json.Int r.Explore.distinct_states);
              ("deduped", Obs.Json.Int r.Explore.deduped);
              ("por_pruned", Obs.Json.Int r.Explore.por_pruned);
              ("lambda_pruned", Obs.Json.Int r.Explore.lambda_pruned);
              ("orbit_collapsed", Obs.Json.Int r.Explore.orbit_collapsed);
              ("factor_vs_naive", Obs.Json.Float vs_naive);
              ("factor_vs_seed_baseline", Obs.Json.Float vs_baseline);
              ("seconds", Obs.Json.Float secs);
              ("attribution",
               Obs.Json.Obj
                 (List.map
                    (fun (k, v) -> (k, Obs.Json.Float v))
                    (attr_of label)));
              ("complete", Obs.Json.Bool r.Explore.complete) ])
        results
    in
    Table.print t2;
    Format.printf
      "Reading: each reduction layer is attributed separately; the full\n\
       stack (canon + view clamp + sleep-set POR over deliveries and\n\
       lambda steps + symmetry quotient) explores the same decision states\n\
       at a small multiple of the distinct-state count.@.@.";
    let t2b =
      Table.create
        ~title:
          "T10c (EXP-14): where the per-edge time goes (seconds, timed run)"
        ~columns:[ "layers"; "expand"; "hash"; "encode"; "confirm" ]
    in
    List.iter
      (fun (label, a) ->
        Table.add_row t2b
          [ label;
            Table.cell_float ~decimals:4 (attr_field a "expand_s");
            Table.cell_float ~decimals:4 (attr_field a "hash_s");
            Table.cell_float ~decimals:4 (attr_field a "encode_s");
            Table.cell_float ~decimals:4 (attr_field a "confirm_s") ])
      attributions;
    Table.print t2b;
    Format.printf
      "Reading the attribution: expand = automaton stepping and the step\n\
       memo; hash = interning and incremental lane updates; encode = orbit\n\
       choice, id-vector packing and sleep-set descriptors; confirm =\n\
       visited-store probe and exact key comparison.  Under the seed\n\
       encoding the expand+encode columns were one fused Marshal-dominated\n\
       cost; the incremental kernel leaves no single dominant phase.@.@.";
    (* The frontier scope: n=4, failure-free, depth 13.  The seed-era
       encoding exhausts multi-million-node budgets (measured: 4M nodes,
       truncated); the full stack completes it. *)
    let sym4 = sym 4 in
    let safety4 =
      Explore.both agreement
        (Explore.validity_check ~n:4 ~proposals ~equal:Int.equal)
    in
    let frontier_run ?attribution () =
      Explore.run ?attribution ~max_steps:13 ~max_nodes:4_000_000 ~canon:true
        ~por:true ~por_lambda:true ~symmetry:sym4 ~d_equal
        ~pattern:(Pattern.make ~n:4 [])
        ~detector:Perfect.canonical ~check:safety4
        (Ct_strong.automaton ~proposals)
    in
    let frontier, frontier_s = timed_run ~repeats:3 (fun () -> frontier_run ()) in
    let frontier_attr = ref [] in
    ignore (frontier_run ~attribution:frontier_attr ());
    Format.printf
      "Frontier scope (n=4, failure-free, depth 13): %d nodes, %d distinct, \
       complete=%b, %.1fs — the seed explorer exhausts a 4,000,000-node \
       budget on this scope.@.@."
      frontier.Explore.nodes_explored frontier.Explore.distinct_states
      frontier.Explore.complete frontier_s;
    entries
    @ [ Obs.Json.Obj
          [ ("layers", Obs.Json.String "full stack (frontier: n=4 depth 13)");
            ("nodes", Obs.Json.Int frontier.Explore.nodes_explored);
            ("distinct_states", Obs.Json.Int frontier.Explore.distinct_states);
            ("deduped", Obs.Json.Int frontier.Explore.deduped);
            ("por_pruned", Obs.Json.Int frontier.Explore.por_pruned);
            ("lambda_pruned", Obs.Json.Int frontier.Explore.lambda_pruned);
            ("orbit_collapsed", Obs.Json.Int frontier.Explore.orbit_collapsed);
            ("seconds", Obs.Json.Float frontier_s);
            ("attribution",
             Obs.Json.Obj
               (List.map (fun (k, v) -> (k, Obs.Json.Float v)) !frontier_attr));
            ("complete", Obs.Json.Bool frontier.Explore.complete) ] ]
  in
  let json =
    match json with
    | Obs.Json.Obj fields ->
      Obs.Json.Obj (fields @ [ ("layers", Obs.Json.List layer_entries) ])
    | other -> other
  in
  let oc = open_out "BENCH_explore.json" in
  output_string oc (Obs.Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Format.printf "wrote BENCH_explore.json@.@."

(* ---------------------------------------------------------------- *)
(* Table 10b: flight recorder - record overhead + shrink convergence  *)
(* ---------------------------------------------------------------- *)

let table_replay () =
  let n = 3 in
  let proposals p = 10 + Pid.to_int p in
  let agreement = Explore.agreement_check ~equal:Int.equal in
  let d_equal = Pid.Set.equal in
  let pp_seen = Format.asprintf "%a" Pid.Set.pp in
  (* Three witness-bearing cross-check scopes.  Each runs the explorer with
     the recorder off and on (same traversal either way — the capture test
     in test_replay asserts that), then delta-debugs the first witness. *)
  let safety =
    Explore.both agreement (Explore.validity_check ~n ~proposals ~equal:Int.equal)
  in
  let scopes =
    [ ( "ct-strong + P (safety, k=9)",
        (fun ~capture ->
          Explore.run ~max_steps:9 ~max_nodes:2_000_000 ~canon:true ~por:true
            ~capture ~d_equal
            ~pattern:(Pattern.make ~n [ (pid 1, time 2) ])
            ~detector:Perfect.canonical ~check:safety
            (Ct_strong.automaton ~proposals)),
        fun schedule ->
          Replay.shrink ~pp_seen ~pattern:(Pattern.make ~n [ (pid 1, time 2) ])
            ~detector:Perfect.canonical ~check:safety ~schedule
            (Ct_strong.automaton ~proposals) );
      ( "rank + P< (uniform, k=10)",
        (fun ~capture ->
          Explore.run ~max_steps:10 ~max_nodes:2_000_000 ~canon:true ~por:true
            ~capture ~d_equal ~max_violations:50
            ~pattern:(Pattern.make ~n [ (pid 1, time 1) ])
            ~detector:Partial_perfect.canonical ~check:agreement
            (Rank_consensus.automaton ~proposals)),
        fun schedule ->
          Replay.shrink ~pp_seen ~pattern:(Pattern.make ~n [ (pid 1, time 1) ])
            ~detector:Partial_perfect.canonical ~check:agreement ~schedule
            (Rank_consensus.automaton ~proposals) );
      ( "rank + P< (uniform, k=12)",
        (fun ~capture ->
          Explore.run ~max_steps:12 ~max_nodes:2_000_000 ~canon:true ~por:true
            ~capture ~d_equal ~max_violations:50
            ~pattern:(Pattern.make ~n [ (pid 1, time 1) ])
            ~detector:Partial_perfect.canonical ~check:agreement
            (Rank_consensus.automaton ~proposals)),
        fun schedule ->
          Replay.shrink ~pp_seen ~pattern:(Pattern.make ~n [ (pid 1, time 1) ])
            ~detector:Partial_perfect.canonical ~check:agreement ~schedule
            (Rank_consensus.automaton ~proposals) );
      ( "marabout-algo + P (uniform, k=8)",
        (fun ~capture ->
          Explore.run ~max_steps:8 ~max_nodes:2_000_000 ~canon:true ~por:true
            ~capture ~d_equal ~max_violations:50
            ~pattern:(Pattern.make ~n [ (pid 1, time 1) ])
            ~detector:Perfect.canonical ~check:agreement
            (Marabout_consensus.automaton ~proposals)),
        fun schedule ->
          Replay.shrink ~pp_seen ~pattern:(Pattern.make ~n [ (pid 1, time 1) ])
            ~detector:Perfect.canonical ~check:agreement ~schedule
            (Marabout_consensus.automaton ~proposals) )
    ]
  in
  let t =
    Table.create
      ~title:
        "T10b: flight recorder - capture overhead and shrink convergence (n=3)"
      ~columns:
        [ "scope"; "nodes"; "off s"; "on s"; "overhead"; "witness"; "shrunk";
          "rounds"; "cands" ]
  in
  let timed_run f =
    let t0 = Obs.Profile.now () in
    let r = f () in
    (r, Obs.Profile.now () -. t0)
  in
  (* Median of repeated runs: these scopes explore in milliseconds, and a
     single sample is all allocator noise. *)
  let sampled f =
    let samples = List.init 5 (fun _ -> snd (timed_run f)) in
    List.nth (List.sort compare samples) 2
  in
  let entries =
    List.map
      (fun (label, explore, shrink) ->
        let report = explore ~capture:true in
        let off_s = sampled (fun () -> ignore (explore ~capture:false)) in
        let on_s = sampled (fun () -> ignore (explore ~capture:true)) in
        let overhead = (on_s -. off_s) /. Stdlib.max 1e-9 off_s in
        (* Shrink the deepest recorded witness — the first one DFS reports
           is already near-minimal, which would make convergence trivial. *)
        let witness =
          List.fold_left
            (fun acc v ->
              match acc with
              | Some best
                when List.length best.Explore.schedule
                     >= List.length v.Explore.schedule -> acc
              | _ -> Some v)
            None report.Explore.violations
        in
        let shrunk =
          Option.map
            (fun v -> (v, timed_run (fun () -> shrink v.Explore.schedule)))
            witness
        in
        let opt_int f = match shrunk with None -> "-" | Some x -> Table.cell_int (f x) in
        Table.add_row t
          [ label; Table.cell_int report.Explore.nodes_explored;
            Format.asprintf "%.4f" off_s; Format.asprintf "%.4f" on_s;
            Format.asprintf "%+.1f%%" (100. *. overhead);
            opt_int (fun (v, _) -> List.length v.Explore.schedule);
            opt_int (fun (_, (s, _)) -> List.length s.Replay.schedule);
            opt_int (fun (_, (s, _)) -> s.Replay.rounds);
            opt_int (fun (_, (s, _)) -> s.Replay.candidates) ];
        Obs.Json.Obj
          ([ ("scope", Obs.Json.String label);
             ("nodes", Obs.Json.Int report.Explore.nodes_explored);
             ("capture_off_s", Obs.Json.Float off_s);
             ("capture_on_s", Obs.Json.Float on_s);
             ("capture_overhead", Obs.Json.Float overhead) ]
          @
          match shrunk with
          | None -> []
          | Some (v, (s, shrink_s)) ->
            [ ("witness_steps", Obs.Json.Int (List.length v.Explore.schedule));
              ("shrunk_steps", Obs.Json.Int (List.length s.Replay.schedule));
              ("shrink_rounds", Obs.Json.Int s.Replay.rounds);
              ("shrink_candidates", Obs.Json.Int s.Replay.candidates);
              ("shrink_s", Obs.Json.Float shrink_s) ]))
      scopes
  in
  Table.print t;
  Format.printf
    "Reading: capture adds only the per-delivery canonical encodings the\n\
     visited set would compute anyway, so recording a witness is within\n\
     noise of exploring without it; ddmin converges to a 1-minimal schedule\n\
     in a handful of rounds.@.@.";
  let json =
    Obs.Json.Obj
      [ ("schema_version", Obs.Json.Int Obs.Trace.schema_version);
        ("scopes", Obs.Json.List entries) ]
  in
  let oc = open_out "BENCH_replay.json" in
  output_string oc (Obs.Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Format.printf "wrote BENCH_replay.json@.@."

(* ---------------------------------------------------------------- *)
(* Table 11: reliable channels over lossy links                       *)
(* ---------------------------------------------------------------- *)

let table_channel () =
  let n = 4 in
  let ring_node : (unit, int, int) Netsim.node =
    let next ~n self = pid ((Pid.to_int self mod n) + 1) in
    {
      Netsim.node_name = "ring";
      init =
        (fun ~n ~self ->
          if Pid.to_int self = 1 then ((), [ Netsim.Send (next ~n (pid 1), 1) ])
          else ((), []));
      on_message =
        (fun ~n ~self ~now:_ () ~src:_ hops ->
          if hops >= 3 * n then ((), [], [ hops ])
          else ((), [ Netsim.Send (next ~n self, hops + 1) ], [ hops ]));
      on_timer = (fun ~n:_ ~self:_ ~now:_ () ~tag:_ -> ((), [], []));
    }
  in
  let t =
    Table.create
      ~title:"T11: a 12-hop token over lossy links, bare vs reliable channel"
      ~columns:[ "drop rate"; "bare: hops done"; "reliable: hops done"; "reliable: msgs" ]
  in
  List.iter
    (fun drop ->
      let model =
        if drop = 0.0 then Link.Synchronous { delta = 5 }
        else Link.lossy ~drop (Link.Synchronous { delta = 5 })
      in
      let bare =
        Netsim.run ~n ~pattern:(Pattern.failure_free ~n) ~model ~seed:3
          ~horizon:20_000 ring_node
      in
      let wrapped =
        Netsim.run ~n ~pattern:(Pattern.failure_free ~n) ~model ~seed:3
          ~horizon:20_000
          (Channel.reliable ~retransmit_every:15 ring_node)
      in
      Table.add_row t
        [ Table.cell_pct drop;
          Table.cell_int (List.length bare.Netsim.outputs);
          Table.cell_int (List.length wrapped.Netsim.outputs);
          Table.cell_int wrapped.Netsim.messages_delivered ])
    [ 0.0; 0.2; 0.4; 0.6 ];
  Table.print t;
  Format.printf
    "Reading: the model's 'reliable channels' assumption is constructive -\n\
     stubborn retransmission + acks + dedup buys it back from fair-lossy links.@.@."

(* ---------------------------------------------------------------- *)
(* Table 12: the broadcast family, side by side                       *)
(* ---------------------------------------------------------------- *)

let table_ordered_broadcast () =
  let n = 4 in
  let to_broadcast p = List.init 3 (fun k -> (Pid.to_int p * 10) + k) in
  let pattern = Pattern.make ~n [ (pid 2, time 40) ] in
  let t =
    Table.create
      ~title:"T12: the broadcast family under one crash (n=4, 12 items)"
      ~columns:[ "primitive"; "guarantee checked"; "holds"; "ticks"; "messages" ]
  in
  let exec automaton = run_with ~n ~detector:Perfect.canonical ~pattern automaton in
  (* run each primitive to quiescence-ish horizons *)
  let run_plain automaton =
    Runner.run ~pattern ~detector:Perfect.canonical ~scheduler:(Scheduler.fair ())
      ~horizon:(time 4000) automaton
  in
  ignore exec;
  let r_rb = run_plain (Rbcast.automaton ~to_broadcast) in
  Table.add_row t
    [ "reliable"; "agreement (correct)";
      Table.cell_bool (Classes.holds (Properties.broadcast_agreement r_rb));
      Table.cell_int r_rb.Runner.steps; Table.cell_int r_rb.Runner.sent ];
  let r_urb = run_plain (Urbcast.automaton ~to_broadcast) in
  Table.add_row t
    [ "uniform reliable"; "agreement (uniform)";
      Table.cell_bool (Classes.holds (Properties.broadcast_agreement r_urb));
      Table.cell_int r_urb.Runner.steps; Table.cell_int r_urb.Runner.sent ];
  let r_fifo = run_plain (Fifo_bcast.automaton ~to_broadcast) in
  Table.add_row t
    [ "FIFO"; "per-origin order";
      Table.cell_bool (Classes.holds (Fifo_bcast.fifo_order r_fifo));
      Table.cell_int r_fifo.Runner.steps; Table.cell_int r_fifo.Runner.sent ];
  let r_causal = run_plain (Causal_bcast.automaton ~to_broadcast) in
  Table.add_row t
    [ "causal"; "causal order";
      Table.cell_bool (Classes.holds (Causal_bcast.causal_order r_causal));
      Table.cell_int r_causal.Runner.steps; Table.cell_int r_causal.Runner.sent ];
  let r_ab = run_plain (Abcast.automaton ~to_broadcast) in
  Table.add_row t
    [ "atomic (on consensus)"; "uniform total order";
      Table.cell_bool (Classes.holds (Properties.total_order r_ab));
      Table.cell_int r_ab.Runner.steps; Table.cell_int r_ab.Runner.sent ];
  Table.print t;
  Format.printf
    "Reading: order costs messages - total order (the consensus-powered one,\n\
     Section 1.1) is the expensive end of the Hadzilacos-Toueg family.@.@."

(* ---------------------------------------------------------------- *)
(* Table 13 (EXP-10): atomic broadcast scaling                        *)
(* ---------------------------------------------------------------- *)

let table_abcast_scaling () =
  let t =
    Table.create
      ~title:"T13 (EXP-10): atomic broadcast cost vs system size (2 items/process)"
      ~columns:[ "n"; "items"; "ticks to full delivery"; "messages"; "msgs/item" ]
  in
  List.iter
    (fun n ->
      let to_broadcast p = [ Pid.to_int p; Pid.to_int p + 100 ] in
      let pattern = Pattern.failure_free ~n in
      let expected = n * 2 in
      let r =
        Runner.run ~pattern ~detector:Perfect.canonical ~scheduler:(Scheduler.fair ())
          ~horizon:(time 30_000) ~record_events:false
          ~until:(fun outputs -> List.length outputs >= expected * n)
          (Abcast.automaton ~to_broadcast)
      in
      Table.add_row t
        [ Table.cell_int n; Table.cell_int expected;
          Table.cell_int (Time.to_int r.Runner.end_time);
          Table.cell_int r.Runner.sent;
          Table.cell_float (float_of_int r.Runner.sent /. float_of_int expected) ])
    [ 3; 4; 5; 6; 7 ];
  Table.print t;
  Format.printf
    "Reading: total order rides on repeated consensus, so the per-item cost grows\n\
     with the quadratic message complexity of each instance.@.@."

(* ---------------------------------------------------------------- *)
(* Table 14: campaign engine - serial vs parallel sweep               *)
(* ---------------------------------------------------------------- *)

(* The same campaign-backed grid sweep (EXP-1a: 5 detectors x trials) at
   one worker and at the machine's recommended domain count.  Outcomes are
   deterministic, so the two rows must agree on everything but wall time;
   the speedup is recorded in BENCH_campaign.json together with the core
   count.  Since the engine became a client of the persistent domain pool,
   a single-core machine runs the parallel row inline (the pool spawns
   cores - 1 helpers), so even there the parallel row must stay near 1x —
   the regression floor keys on the core count. *)
let table_campaign () =
  let cores = Domain.recommended_domain_count () in
  let cfg = { Theorems.default_config with trials = 12 } in
  let jobs = 5 * cfg.Theorems.trials in
  (* Best-of-k: for a deterministic workload the minimum wall time is the
     least-noise estimator, and the repeats double as a pool warm-up. *)
  let best_of k f =
    let rec go k ((o, best) as acc) =
      if k <= 0 then acc
      else
        let _, s = f () in
        go (k - 1) (o, Stdlib.min best s)
    in
    go (k - 1) (f ())
  in
  let time_run workers () =
    let t0 = Obs.Profile.now () in
    let o = Theorems.lemma_4_1_totality { cfg with Theorems.workers } in
    (o, Obs.Profile.now () -. t0)
  in
  let o_serial, serial_s = best_of 3 (time_run 1) in
  let parallel_workers = Stdlib.max 2 cores in
  let o_parallel, parallel_s = best_of 3 (time_run parallel_workers) in
  let identical =
    o_serial.Theorems.observed = o_parallel.Theorems.observed
    && o_serial.Theorems.pass = o_parallel.Theorems.pass
  in
  let speedup = serial_s /. parallel_s in
  let t =
    Table.create
      ~title:
        (Format.asprintf
           "T14: campaign engine - EXP-1a sweep, serial vs parallel (%d jobs, \
            %d cores)"
           jobs cores)
      ~columns:[ "workers"; "wall (s)"; "jobs/s"; "pass"; "observed" ]
  in
  let row workers wall o =
    Table.add_row t
      [ Table.cell_int workers;
        Table.cell_float ~decimals:3 wall;
        Table.cell_float (float_of_int jobs /. Stdlib.max 1e-9 wall);
        Table.cell_bool o.Theorems.pass; o.Theorems.observed ]
  in
  row 1 serial_s o_serial;
  row parallel_workers parallel_s o_parallel;
  Table.print t;
  let floor = if cores >= 2 then 1.0 else 0.9 in
  let regression = speedup < floor in
  Format.printf
    "serial/parallel outcomes identical: %b  speedup: %.2fx (floor for %d \
     core(s): %.2fx)@."
    identical speedup cores floor;
  if regression then
    Format.printf
      "WARNING: parallel campaign fell below the %.2fx floor (%.2fx on %d \
       cores) — with the persistent pool, surplus worker slots on a \
       single core run inline and should cost nothing, and on a \
       multi-core machine the sweep must not be slower than serial; \
       treat this run's parallel timings as a regression signal, not a \
       capability claim.@."
      floor speedup cores;
  Format.printf "@.";
  let side workers wall =
    Obs.Json.Obj
      [ ("workers", Obs.Json.Int workers);
        ("wall_s", Obs.Json.Float wall);
        ("jobs_per_sec",
         Obs.Json.Float (float_of_int jobs /. Stdlib.max 1e-9 wall)) ]
  in
  (* T14b: rerun the parallel sweep under the observatory and decompose
     where the worker-seconds actually went.  The budget is
     [participants x wall] — participants counted from the timeline, since
     the pool caps domains at the machine's recommended count no matter
     how many slots were requested; everything not recorded as spawn,
     work, steal-scan, queue-wait or publish is idle (range drained by
     others, or quiescence). *)
  let tl = Obs.Timeline.create ~label:"t14b" () in
  let t0 = Obs.Profile.now () in
  let (_ : Theorems.outcome) =
    Theorems.lemma_4_1_totality
      { cfg with Theorems.workers = parallel_workers; timeline = tl }
  in
  let instr_wall = Obs.Profile.now () -. t0 in
  let artifact = Obs.Timeline.merge tl in
  let has_prefix p s =
    String.length s >= String.length p && String.sub s 0 (String.length p) = p
  in
  let sum_spans prefix name =
    List.fold_left
      (fun acc (d : Obs.Timeline.domain_rec) ->
        if has_prefix prefix d.dom_label then
          List.fold_left
            (fun acc (s : Obs.Timeline.span_rec) ->
              if s.sp_name = name then acc +. s.sp_dur else acc)
            acc d.dom_spans
        else acc)
      0. artifact.Obs.Timeline.a_domains
  in
  let event_times name =
    List.concat_map
      (fun (d : Obs.Timeline.domain_rec) ->
        List.filter_map
          (fun (e : Obs.Timeline.event_rec) ->
            if e.ev_name = name then Some (e.ev_tag, e.ev_t) else None)
          d.dom_events)
      artifact.Obs.Timeline.a_domains
  in
  let spawn_s =
    (* per freshly spawned pool domain: its first unpark on the worker
       minus the driver's pool-start announcement, matched by slot tag.
       Zero when the pool is already warm — spawn cost is paid once per
       process, not once per run. *)
    let reqs = event_times "pool-start" in
    List.fold_left
      (fun acc (tag, requested) ->
        match List.assoc_opt tag (event_times "unpark") with
        | Some started -> acc +. Stdlib.max 0. (started -. requested)
        | None -> acc)
      0. reqs
  in
  let work_s = sum_spans "worker-" "job-run" in
  let steal_s = sum_spans "worker-" "steal" in
  let queue_wait_s = sum_spans "worker-" "queue-wait" in
  let publish_s = sum_spans "worker-" "publish" in
  let fsync_s = sum_spans "worker-" "checkpoint-append" in
  let pool_wait_s = sum_spans "driver" "pool-wait" in
  let active_workers =
    List.length
      (List.filter
         (fun (d : Obs.Timeline.domain_rec) -> has_prefix "worker-" d.dom_label)
         artifact.Obs.Timeline.a_domains)
  in
  let gc_est_s =
    List.fold_left
      (fun acc (label, u) ->
        if has_prefix "worker-" label then acc +. u.Obs.Timeline.u_gc_est
        else acc)
      0.
      (Obs.Timeline.utilization artifact)
  in
  let budget_s = float_of_int (Stdlib.max 1 active_workers) *. instr_wall in
  let idle_s =
    Stdlib.max 0.
      (budget_s -. spawn_s -. work_s -. steal_s -. queue_wait_s -. publish_s)
  in
  let frac v = v /. Stdlib.max 1e-9 budget_s in
  let tb =
    Table.create
      ~title:
        (Format.asprintf
           "T14b: where the %.3f worker-seconds went (%d slots, %d pool \
            domain(s), %.3fs wall)"
           budget_s parallel_workers active_workers instr_wall)
      ~columns:[ "component"; "seconds"; "fraction" ]
  in
  let comp name v =
    Table.add_row tb
      [ name; Table.cell_float ~decimals:4 v;
        Table.cell_float ~decimals:3 (frac v) ]
  in
  comp "spawn (pool-start->unpark)" spawn_s;
  comp "work (job-run)" work_s;
  comp "steal (cross-range scans)" steal_s;
  comp "queue-wait (publish lock)" queue_wait_s;
  comp "publish (merge+checkpoint)" publish_s;
  comp "  of which checkpoint fsync" fsync_s;
  comp "gc (estimated, inside work)" gc_est_s;
  comp "idle (range drained/quiescence)" idle_s;
  Table.print tb;
  Format.printf
    "Reading: everything outside the 'work' row - spawn, steal,\n\
     queue-wait, publish and idle - is overhead the parallel run pays\n\
     and the serial run does not.  With the persistent pool, spawn is\n\
     zero once the pool is warm and the driver's pool-wait (%.4fs here)\n\
     covers end-of-run quiescence only.@.@."
    pool_wait_s;
  let t14b =
    Obs.Json.Obj
      [ ("workers", Obs.Json.Int parallel_workers);
        ("pool_domains", Obs.Json.Int active_workers);
        ("wall_s", Obs.Json.Float instr_wall);
        ("budget_s", Obs.Json.Float budget_s);
        ("spawn_s", Obs.Json.Float spawn_s);
        ("work_s", Obs.Json.Float work_s);
        ("steal_s", Obs.Json.Float steal_s);
        ("queue_wait_s", Obs.Json.Float queue_wait_s);
        ("publish_s", Obs.Json.Float publish_s);
        ("checkpoint_fsync_s", Obs.Json.Float fsync_s);
        ("pool_wait_s", Obs.Json.Float pool_wait_s);
        ("gc_est_s", Obs.Json.Float gc_est_s);
        ("idle_s", Obs.Json.Float idle_s);
        ("spawn_frac", Obs.Json.Float (frac spawn_s));
        ("work_frac", Obs.Json.Float (frac work_s));
        ("queue_wait_frac", Obs.Json.Float (frac queue_wait_s));
        ("idle_frac", Obs.Json.Float (frac idle_s)) ]
  in
  (* T14c: saturation — synthetic spin campaigns at three job sizes, each
     swept across worker slots {1, 2, 4, 8}.  Small jobs show where
     adaptive batching stops overhead from dominating; large jobs show
     the attainable speedup; slots beyond the pool's domain cap cost
     nothing (their ranges are stolen).  [speedup_at_2] on the largest
     size is the gated headline. *)
  let spin iters =
    let acc = ref 0 in
    for i = 1 to iters do
      acc := (!acc * 1664525) + i
    done;
    !acc
  in
  let worker_counts = [ 1; 2; 4; 8 ] in
  let sizes =
    [ ("small", 5_000, 192); ("medium", 100_000, 96); ("large", 1_000_000, 48) ]
  in
  let tc =
    Table.create
      ~title:
        (Format.asprintf
           "T14c: pool saturation - spin campaigns across worker slots (%d \
            cores)"
           cores)
      ~columns:
        [ "size"; "jobs"; "workers"; "wall (s)"; "jobs/s"; "speedup"; "steals" ]
  in
  let speedup_at = Hashtbl.create 16 in
  let t14c_sizes =
    List.map
      (fun (size_name, iters, total) ->
        let serial_wall = ref 0. in
        let rows = ref [] in
        List.iter
          (fun workers ->
              let run () =
                let t0 = Obs.Profile.now () in
                let r =
                  Rlfd_campaign.Engine.run ~workers ~name:"t14c" ~seed ~total
                    ~label:string_of_int
                    (fun ~rng:_ ~metrics:_ job -> spin iters land 0xffff + job)
                in
                (r, Obs.Profile.now () -. t0)
              in
              let r, wall = best_of 2 run in
              if workers = 1 then serial_wall := wall;
              let sp = !serial_wall /. Stdlib.max 1e-9 wall in
              Hashtbl.replace speedup_at (size_name, workers) sp;
              Table.add_row tc
                [ size_name; Table.cell_int total; Table.cell_int workers;
                  Table.cell_float ~decimals:4 wall;
                  Table.cell_float (float_of_int total /. Stdlib.max 1e-9 wall);
                  Table.cell_float ~decimals:2 sp;
                  Table.cell_int r.Rlfd_campaign.Engine.steals ];
              rows :=
                Obs.Json.Obj
                  [ ("workers", Obs.Json.Int workers);
                    ("wall_s", Obs.Json.Float wall);
                    ("jobs_per_sec",
                     Obs.Json.Float
                       (float_of_int total /. Stdlib.max 1e-9 wall));
                    ("speedup", Obs.Json.Float sp);
                    ("steals", Obs.Json.Int r.Rlfd_campaign.Engine.steals);
                    ("pool_domains",
                     Obs.Json.Int r.Rlfd_campaign.Engine.pool_domains) ]
                :: !rows)
          worker_counts;
        Obs.Json.Obj
          [ ("size", Obs.Json.String size_name);
            ("spin_iters", Obs.Json.Int iters);
            ("jobs", Obs.Json.Int total);
            ("rows", Obs.Json.List (List.rev !rows)) ])
      sizes
  in
  Table.print tc;
  let headline w = Hashtbl.find speedup_at ("large", w) in
  Format.printf
    "Saturation headline (large jobs): %.2fx at 2 slots, %.2fx at 4, %.2fx \
     at 8.@.@."
    (headline 2) (headline 4) (headline 8);
  let t14c =
    Obs.Json.Obj
      [ ("sizes", Obs.Json.List t14c_sizes);
        ("speedup_at_2", Obs.Json.Float (headline 2));
        ("speedup_at_4", Obs.Json.Float (headline 4));
        ("speedup_at_8", Obs.Json.Float (headline 8)) ]
  in
  let json =
    Obs.Json.Obj
      [ ("schema_version", Obs.Json.Int Obs.Trace.schema_version);
        ("cores", Obs.Json.Int cores);
        ("jobs", Obs.Json.Int jobs);
        ("serial", side 1 serial_s);
        ("parallel", side parallel_workers parallel_s);
        ("speedup", Obs.Json.Float speedup);
        ("speedup_floor", Obs.Json.Float floor);
        ("regression", Obs.Json.Bool regression);
        ("identical", Obs.Json.Bool identical);
        ("t14b", t14b);
        ("t14c", t14c) ]
  in
  let oc = open_out "BENCH_campaign.json" in
  output_string oc (Obs.Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Format.printf "wrote BENCH_campaign.json@.@."

(* ---------------------------------------------------------------- *)
(* Bechamel micro-benchmarks                                          *)
(* ---------------------------------------------------------------- *)

let bench_tests () =
  let open Bechamel in
  let n = 5 in
  let consensus_pattern = Pattern.make ~n [ (pid 2, time 10) ] in
  let stage f = Staged.stage f in
  [
    Test.make ~name:"exp1.consensus-ct-strong-with-P"
      (stage (fun () ->
           run_with ~n ~detector:Perfect.canonical ~pattern:consensus_pattern
             (Ct_strong.automaton ~proposals)));
    Test.make ~name:"exp2.reduction-T(D->P)-1k-ticks"
      (stage (fun () ->
           Runner.run ~pattern:consensus_pattern ~detector:Perfect.canonical
             ~scheduler:(Scheduler.fair ()) ~horizon:(time 1000) ~record_events:false
             (Consensus_to_p.automaton ~impl:Consensus_to_p.ct_strong_impl)));
    Test.make ~name:"exp4.trb-with-P"
      (stage (fun () ->
           run_with ~n ~detector:Perfect.canonical ~pattern:consensus_pattern
             (Trb.automaton ~sender:(pid 1) ~value:9)));
    Test.make ~name:"exp5.realism-check-60-pairs"
      (stage (fun () ->
           let rng = Rng.derive ~seed ~salts:[ 0xBE ] in
           let pairs = Realism.prefix_sharing_pairs ~n ~horizon:(time 60) ~count:60 rng in
           Realism.check_suspicions Perfect.canonical ~pairs));
    Test.make ~name:"exp8.rank-consensus-with-P<"
      (stage (fun () ->
           run_with ~n ~detector:Partial_perfect.canonical ~pattern:consensus_pattern
             (Rank_consensus.automaton ~proposals)));
    Test.make ~name:"exp10.abcast-10-items"
      (stage (fun () ->
           Runner.run ~pattern:consensus_pattern ~detector:Perfect.canonical
             ~scheduler:(Scheduler.fair ()) ~horizon:(time 4000) ~record_events:false
             (Abcast.automaton ~to_broadcast:(fun p -> [ Pid.to_int p; Pid.to_int p * 2 ]))));
    Test.make ~name:"exp11.gms-sync-4k-ticks"
      (stage (fun () ->
           Netsim.run ~n ~pattern:consensus_pattern
             ~model:(Link.Synchronous { delta = 8 })
             ~seed:11 ~horizon:4000 (Gms.node Gms.default_config)));
    Test.make ~name:"exp12.heartbeat-qos-4k-ticks"
      (stage (fun () ->
           Netsim.run ~n ~pattern:consensus_pattern
             ~model:(Link.Synchronous { delta = 10 })
             ~seed ~horizon:4000
             (Heartbeat.node (Heartbeat.Fixed { period = 20; timeout = 31 }))));
    Test.make ~name:"exp13.nbac-with-P"
      (stage (fun () ->
           run_with ~n ~detector:Perfect.canonical ~pattern:consensus_pattern
             (Nbac.automaton ~votes:(fun _ -> Nbac.Yes))));
    Test.make ~name:"exp14.explore-depth7-n3"
      (stage (fun () ->
           let n = 3 in
           let proposals p = 10 + Pid.to_int p in
           Explore.run ~max_steps:7 ~max_nodes:2_000_000
             ~pattern:(Pattern.make ~n [ (pid 1, time 2) ])
             ~detector:Perfect.canonical
             ~check:(Explore.agreement_check ~equal:Int.equal)
             (Ct_strong.automaton ~proposals)));
    Test.make ~name:"kernel.rng-1k-draws"
      (stage (fun () ->
           let g = Rng.make seed in
           for _ = 1 to 1000 do ignore (Rng.int g 1_000_000) done));
    Test.make ~name:"kernel.pqueue-1k-ops"
      (stage (fun () ->
           let q = Pqueue.create () in
           for i = 1 to 1000 do Pqueue.add q ~prio:(i * 7919 mod 1000) i done;
           while not (Pqueue.is_empty q) do ignore (Pqueue.pop q) done));
    Test.make ~name:"kernel.pqueue-des-ops"
      (stage (fun () ->
           (* Netsim's traffic shape: a standing population of pending
              events over a few distinct timestamps, each popped and
              re-added 1..10 ticks later *)
           let q = Pqueue.create () in
           for i = 1 to 1000 do Pqueue.add q ~prio:(1 + (i mod 10)) i done;
           for _ = 1 to 1000 do
             match Pqueue.pop q with
             | Some (t, v) -> Pqueue.add q ~prio:(t + 1 + (((v * 7919) + t) mod 10)) v
             | None -> ()
           done));
  ]

let run_benchmarks () =
  let open Bechamel in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Bechamel.Time.second 0.5) ~kde:None ()
  in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let t =
    Table.create ~title:"Bechamel micro-benchmarks (one per experiment)"
      ~columns:[ "benchmark"; "time/run"; "r^2" ]
  in
  List.iter
    (fun test ->
      List.iter
        (fun elt ->
          let raw = Benchmark.run cfg instances elt in
          let est = Analyze.one ols Toolkit.Instance.monotonic_clock raw in
          let nanos =
            match Analyze.OLS.estimates est with Some [ e ] -> e | _ -> nan
          in
          let r2 = Option.value ~default:nan (Analyze.OLS.r_square est) in
          let pretty =
            if nanos > 1e9 then Format.asprintf "%.2f s" (nanos /. 1e9)
            else if nanos > 1e6 then Format.asprintf "%.2f ms" (nanos /. 1e6)
            else if nanos > 1e3 then Format.asprintf "%.2f us" (nanos /. 1e3)
            else Format.asprintf "%.0f ns" nanos
          in
          Table.add_row t
            [ Test.Elt.name elt; pretty; Table.cell_float ~decimals:4 r2 ])
        (Test.elements test))
    (bench_tests ());
  Table.print t

(* ---------------------------------------------------------------- *)

(* Every table runs under a named profiling span; the spans (plus the
   registry populated by run_with / table_qos) become BENCH_obs.json. *)
let tables () =
  let timed name f = Obs.Profile.time profiler name f in
  timed "T1.claims" table_claims;
  timed "T2.hierarchy" table_hierarchy;
  timed "T3.solvability" table_solvability;
  timed "T3b.grid" table_grid;
  timed "T4.consensus-cost" table_consensus_cost;
  timed "T4b.lag-ablation" table_lag_ablation;
  timed "T5.majority-crossover" table_majority_crossover;
  timed "T6.reduction-overhead" table_reduction_overhead;
  timed "T7.qos" table_qos;
  timed "T7b.qos-timeout-sweep" table_qos_timeout_sweep;
  table_qos_observatory ();
  (* times its own T7c/T7d spans *)
  timed "T8.membership" table_membership;
  timed "T8b.vsync" table_vsync;
  timed "T9.nbac" table_nbac;
  timed "T10.explore" table_explore;
  timed "T10b.replay" table_replay;
  timed "T11.channel" table_channel;
  timed "T12.ordered-broadcast" table_ordered_broadcast;
  timed "T13.abcast-scaling" table_abcast_scaling;
  timed "T14.campaign" table_campaign

let write_obs_json () =
  let json =
    Obs.Json.Obj
      [ ("schema_version", Obs.Json.Int Obs.Trace.schema_version);
        ("profile", Obs.Profile.to_json profiler);
        ("metrics", Obs.Metrics.to_json registry) ]
  in
  let oc = open_out "BENCH_obs.json" in
  output_string oc (Obs.Json.to_string json);
  output_char oc '\n';
  close_out oc;
  Format.printf "@.wall-clock profile:@.%a@.wrote BENCH_obs.json@." Obs.Profile.pp
    profiler

let () =
  let mode = if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" in
  Format.printf
    "A Realistic Look At Failure Detectors (DSN 2002) - experiment harness@.@.";
  (match mode with
  | "tables" -> tables ()
  | "bench" -> Obs.Profile.time profiler "bechamel" run_benchmarks
  | "qos" -> table_qos_observatory ()
  | "explore" -> Obs.Profile.time profiler "T10.explore" table_explore
  | "campaign" -> Obs.Profile.time profiler "T14.campaign" table_campaign
  | "all" ->
    tables ();
    Obs.Profile.time profiler "bechamel" run_benchmarks
  | other ->
    Format.printf
      "unknown mode %S (expected: tables | bench | qos | explore | campaign | \
       all)@."
      other;
    exit 1);
  write_obs_json ()
