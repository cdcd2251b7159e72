(* EXP-12: the timed network, heartbeat detector implementations, QoS. *)

open Rlfd_kernel
open Rlfd_fd
open Rlfd_net
open Helpers

let n = 4

(* ---------- link models ---------- *)

let link_tests =
  [
    qtest "synchronous delays are within (0, delta]" QCheck.small_int (fun seed ->
        let model = Link.Synchronous { delta = 10 } in
        let rng = Rng.make seed in
        List.for_all
          (fun _ ->
            let d = Link.delay model rng ~now:0 in
            d >= 1 && d <= 10 + 1)
          (List.init 100 Fun.id));
    qtest "partially synchronous delays are bounded after gst" QCheck.small_int
      (fun seed ->
        let model = Link.Partially_synchronous { gst = 100; delta = 5; wild_max = 50 } in
        let rng = Rng.make seed in
        List.for_all
          (fun _ -> Link.delay model rng ~now:200 <= 6)
          (List.init 100 Fun.id));
    test "asynchronous delays can spike" (fun () ->
        let model = Link.Asynchronous { mean = 5.; spike_every = 3; spike = 500 } in
        let rng = Rng.make 3 in
        let delays = List.init 200 (fun _ -> Link.delay model rng ~now:0) in
        Alcotest.(check bool) "spikes seen" true (List.exists (fun d -> d > 400) delays));
    test "bound_after_gst" (fun () ->
        Alcotest.(check (option int)) "sync" (Some 7)
          (Link.bound_after_gst (Link.Synchronous { delta = 7 }));
        Alcotest.(check (option int)) "async" None
          (Link.bound_after_gst
             (Link.Asynchronous { mean = 1.; spike_every = 0; spike = 0 })));
  ]

(* ---------- netsim engine ---------- *)

(* ping-pong: p1 sends a token; each receiver forwards to the next pid;
   outputs the hop number. *)
let ring_node : (unit, int, int) Netsim.node =
  let next ~n self = Pid.of_int ((Pid.to_int self mod n) + 1) in
  {
    Netsim.node_name = "ring";
    init =
      (fun ~n ~self ->
        if Pid.to_int self = 1 then ((), [ Netsim.Send (next ~n (Pid.of_int 1), 1) ])
        else ((), []));
    on_message =
      (fun ~n ~self ~now:_ () ~src:_ hops ->
        if hops >= 3 * n then ((), [], [ hops ])
        else ((), [ Netsim.Send (next ~n self, hops + 1) ], [ hops ]));
    on_timer = (fun ~n:_ ~self:_ ~now:_ () ~tag:_ -> ((), [], []));
  }

let netsim_tests =
  [
    test "token circulates deterministically" (fun () ->
        let run () =
          Netsim.run ~n ~pattern:(Pattern.failure_free ~n)
            ~model:(Link.Synchronous { delta = 5 })
            ~seed:4 ~horizon:10_000 ring_node
        in
        let a = run () and b = run () in
        Alcotest.(check int) "same outputs" (List.length a.Netsim.outputs)
          (List.length b.Netsim.outputs);
        Alcotest.(check bool) "token moved" true (List.length a.Netsim.outputs >= (3 * n)));
    test "crash stops the token" (fun () ->
        let pattern = pattern ~n [ (2, 1) ] in
        let r =
          Netsim.run ~n ~pattern ~model:(Link.Synchronous { delta = 5 }) ~seed:4
            ~horizon:10_000 ring_node
        in
        (* p2 crashes before the token reaches it: the hop count stalls *)
        Alcotest.(check bool) "few outputs" true (List.length r.Netsim.outputs <= 1));
    test "timers fire and reschedule" (fun () ->
        let counter_node : (int, unit, int) Netsim.node =
          {
            Netsim.node_name = "counter";
            init = (fun ~n:_ ~self:_ -> (0, [ Netsim.Set_timer { delay = 10; tag = 0 } ]));
            on_message = (fun ~n:_ ~self:_ ~now:_ st ~src:_ () -> (st, [], []));
            on_timer =
              (fun ~n:_ ~self:_ ~now:_ st ~tag:_ ->
                (st + 1, [ Netsim.Set_timer { delay = 10; tag = 0 } ], [ st + 1 ]));
          }
        in
        let r =
          Netsim.run ~n:1 ~pattern:(Pattern.failure_free ~n:1)
            ~model:(Link.Synchronous { delta = 1 })
            ~seed:1 ~horizon:105 counter_node
        in
        Alcotest.(check int) "ten ticks" 10 (List.length r.Netsim.outputs));
    test "halt silences a node" (fun () ->
        let suicidal : (unit, unit, int) Netsim.node =
          {
            Netsim.node_name = "suicidal";
            init = (fun ~n:_ ~self:_ -> ((), [ Netsim.Set_timer { delay = 5; tag = 0 } ]));
            on_message = (fun ~n:_ ~self:_ ~now:_ () ~src:_ () -> ((), [], []));
            on_timer =
              (fun ~n:_ ~self ~now:_ () ~tag:_ ->
                if Pid.to_int self = 1 then
                  ((), [ Netsim.Halt; Netsim.Set_timer { delay = 5; tag = 0 } ], [ 0 ])
                else ((), [ Netsim.Set_timer { delay = 5; tag = 0 } ], [ 0 ]));
          }
        in
        let r =
          Netsim.run ~n:2 ~pattern:(Pattern.failure_free ~n:2)
            ~model:(Link.Synchronous { delta = 1 })
            ~seed:1 ~horizon:100 suicidal
        in
        let p1_outputs = List.length (Netsim.outputs_of r (Pid.of_int 1)) in
        let p2_outputs = List.length (Netsim.outputs_of r (Pid.of_int 2)) in
        Alcotest.(check int) "p1 output once then halted" 1 p1_outputs;
        Alcotest.(check bool) "p2 kept going" true (p2_outputs > 10);
        Alcotest.(check int) "halt recorded" 1 (List.length r.Netsim.halted));
    test "a heartbeat all-to-all run with crashes is pinned" (fun () ->
        (* n=50 under synchronous links: ~46k events over a handful of
           timestamps at a time, so the order of equal-time events (the
           event list's tie-break) reaches every count and every output.
           Values recorded with the binary-heap event list; the bucketed
           one must reproduce them exactly. *)
        let n = 50 in
        let r =
          Netsim.run ~n
            ~pattern:(pattern ~n [ (7, 90); (23, 150); (41, 210) ])
            ~model:(Link.Synchronous { delta = 10 })
            ~seed:2002 ~horizon:400
            (Heartbeat.node (Heartbeat.Fixed { period = 20; timeout = 31 }))
        in
        let rendered =
          String.concat ";"
            (List.map
               (fun (t, p, s) ->
                 Format.asprintf "%d:%a:%a" t Pid.pp p Pid.Set.pp s)
               r.Netsim.outputs)
        in
        Alcotest.(check int) "events" 46480 r.Netsim.events_processed;
        Alcotest.(check int) "delivered" 47236 r.Netsim.messages_delivered;
        Alcotest.(check int) "end time" 400 r.Netsim.end_time;
        Alcotest.(check int) "outputs" 144 (List.length r.Netsim.outputs);
        Alcotest.(check string) "outputs digest" "ebbfadf9ee13ebd047db959d3ac8d211"
          (Digest.to_hex (Digest.string rendered)));
    test "until stops the simulation" (fun () ->
        let r =
          Netsim.run
            ~until:(fun outputs -> List.length outputs >= 2)
            ~n ~pattern:(Pattern.failure_free ~n)
            ~model:(Link.Synchronous { delta = 5 })
            ~seed:4 ~horizon:10_000 ring_node
        in
        Alcotest.(check bool) "stopped early" true (List.length r.Netsim.outputs <= 3));
  ]

(* ---------- heartbeat QoS ---------- *)

let crashpat = pattern ~n [ (3, 700) ]

let run_hb model style =
  Netsim.run ~n ~pattern:crashpat ~model ~seed:42 ~horizon:3000 (Heartbeat.node style)

let heartbeat_tests =
  [
    test "synchronous + safe timeout = Perfect grade" (fun () ->
        let model = Link.Synchronous { delta = 10 } in
        let timeout = Option.get (Heartbeat.perfect_timeout model ~period:20) in
        let report = Qos.analyze (run_hb model (Heartbeat.Fixed { period = 20; timeout })) in
        Alcotest.(check bool) "complete" true report.Qos.complete;
        Alcotest.(check bool) "accurate" true report.Qos.accurate;
        Alcotest.(check bool) "perfect grade" true (Qos.perfect_grade report));
    test "detection latency is bounded by timeout + period" (fun () ->
        let model = Link.Synchronous { delta = 10 } in
        let timeout = Option.get (Heartbeat.perfect_timeout model ~period:20) in
        let report = Qos.analyze (run_hb model (Heartbeat.Fixed { period = 20; timeout })) in
        List.iter
          (fun latency ->
            Alcotest.(check bool)
              (Format.asprintf "latency %.0f bounded" latency)
              true
              (latency <= float_of_int (timeout + 20 + 1)))
          report.Qos.detection_latencies);
    test "partial synchrony breaks the fixed timeout (false suspicions)" (fun () ->
        let model = Link.Partially_synchronous { gst = 1000; delta = 10; wild_max = 120 } in
        let report = Qos.analyze (run_hb model (Heartbeat.Fixed { period = 20; timeout = 31 })) in
        Alcotest.(check bool) "not accurate" false report.Qos.accurate;
        Alcotest.(check bool) "still complete" true report.Qos.complete);
    test "adaptive timeouts reduce mistakes" (fun () ->
        let model = Link.Partially_synchronous { gst = 1000; delta = 10; wild_max = 120 } in
        let fixed = Qos.analyze (run_hb model (Heartbeat.Fixed { period = 20; timeout = 31 })) in
        let adaptive =
          Qos.analyze
            (run_hb model (Heartbeat.Adaptive { period = 20; initial_timeout = 31; backoff = 30 }))
        in
        Alcotest.(check bool)
          (Format.asprintf "adaptive %d < fixed %d" adaptive.Qos.false_episodes
             fixed.Qos.false_episodes)
          true
          (adaptive.Qos.false_episodes < fixed.Qos.false_episodes));
    test "adaptive detector is eventually accurate (no mistakes after GST settles)" (fun () ->
        let gst = 800 in
        let model = Link.Partially_synchronous { gst; delta = 10; wild_max = 120 } in
        let r =
          Netsim.run ~n ~pattern:(Pattern.failure_free ~n) ~model ~seed:17 ~horizon:6000
            (Heartbeat.node (Heartbeat.Adaptive { period = 20; initial_timeout = 31; backoff = 40 }))
        in
        (* after some settling period past gst, no correct process should be
           suspected any more *)
        let settle = gst + 2000 in
        List.iter
          (fun observer ->
            List.iter
              (fun subject ->
                if not (Pid.equal observer subject) then begin
                  let intervals = Qos.suspicion_intervals r ~observer ~subject in
                  List.iter
                    (fun (start, _) ->
                      Alcotest.(check bool)
                        (Format.asprintf "suspicion at %d before settle" start)
                        true (start < settle))
                    intervals
                end)
              (Pid.all ~n))
          (Pid.all ~n));
    test "no timeout is Perfect on asynchronous links" (fun () ->
        let model = Link.Asynchronous { mean = 15.; spike_every = 15; spike = 400 } in
        Alcotest.(check (option int)) "no perfect timeout" None
          (Heartbeat.perfect_timeout model ~period:20);
        let report = Qos.analyze (run_hb model (Heartbeat.Fixed { period = 20; timeout = 60 })) in
        Alcotest.(check bool) "mistakes happen" false report.Qos.accurate);
    test "suspicion intervals reconstruct the timeline" (fun () ->
        let model = Link.Synchronous { delta = 10 } in
        let timeout = Option.get (Heartbeat.perfect_timeout model ~period:20) in
        let r = run_hb model (Heartbeat.Fixed { period = 20; timeout }) in
        let observer = Pid.of_int 1 and subject = Pid.of_int 3 in
        match Qos.suspicion_intervals r ~observer ~subject with
        | [ (start, None) ] ->
          Alcotest.(check bool) "starts after the crash" true (start >= 700)
        | other ->
          Alcotest.failf "expected one open interval, got %d" (List.length other));
  ]

(* ---------- monitoring topologies ---------- *)

let all_topos = [ Topology.All_to_all; Topology.ring ~k:2; Topology.Hierarchical ]

let topology_tests =
  [
    test "watches and watchers are inverse relations" (fun () ->
        List.iter
          (fun topo ->
            List.iter
              (fun n ->
                List.iter
                  (fun p ->
                    List.iter
                      (fun q ->
                        let forward = List.mem q (Topology.watches topo ~n p) in
                        let backward = List.mem p (Topology.watchers topo ~n q) in
                        Alcotest.(check bool)
                          (Format.asprintf "%s n=%d %a->%a" (Topology.name topo)
                             n Pid.pp p Pid.pp q)
                          forward backward)
                      (Pid.all ~n))
                  (Pid.all ~n))
              [ 1; 2; 3; 5; 8; 11; 16 ])
          all_topos);
    test "hierarchical graph is symmetric" (fun () ->
        List.iter
          (fun n ->
            List.iter
              (fun p ->
                Alcotest.(check (list int))
                  (Format.asprintf "n=%d %a" n Pid.pp p)
                  (List.map Pid.to_int (Topology.watches Topology.Hierarchical ~n p))
                  (List.map Pid.to_int (Topology.watchers Topology.Hierarchical ~n p)))
              (Pid.all ~n))
          [ 2; 3; 7; 8; 13; 16 ]);
    test "every topology's monitoring graph is connected" (fun () ->
        List.iter
          (fun topo ->
            List.iter
              (fun n ->
                (* BFS along undirected monitoring edges from p1 *)
                let reached = Hashtbl.create 16 in
                let rec bfs = function
                  | [] -> ()
                  | p :: rest ->
                    if Hashtbl.mem reached p then bfs rest
                    else begin
                      Hashtbl.add reached p ();
                      bfs (Topology.neighbours topo ~n p @ rest)
                    end
                in
                bfs [ Pid.of_int 1 ];
                Alcotest.(check int)
                  (Format.asprintf "%s n=%d" (Topology.name topo) n)
                  n (Hashtbl.length reached))
              [ 1; 2; 3; 6; 9; 16; 33 ])
          all_topos);
    test "degrees: n-1, min k (n-1), ceil(log2 n)" (fun () ->
        Alcotest.(check int) "all n=10" 9 (Topology.degree Topology.All_to_all ~n:10);
        Alcotest.(check int) "ring2 n=10" 2 (Topology.degree (Topology.ring ~k:2) ~n:10);
        Alcotest.(check int) "ring5 n=4" 3 (Topology.degree (Topology.ring ~k:5) ~n:4);
        Alcotest.(check int) "hier n=2" 1 (Topology.degree Topology.Hierarchical ~n:2);
        Alcotest.(check int) "hier n=9" 4 (Topology.degree Topology.Hierarchical ~n:9);
        Alcotest.(check int) "hier n=1024" 10
          (Topology.degree Topology.Hierarchical ~n:1024);
        List.iter
          (fun n ->
            let max_watched =
              List.fold_left
                (fun acc p ->
                  Stdlib.max acc
                    (List.length (Topology.watches Topology.Hierarchical ~n p)))
                0 (Pid.all ~n)
            in
            Alcotest.(check int)
              (Format.asprintf "hier degree matches watches n=%d" n)
              max_watched
              (Topology.degree Topology.Hierarchical ~n))
          [ 2; 5; 8; 16; 31 ]);
    test "name/of_string round-trip" (fun () ->
        List.iter
          (fun topo ->
            match Topology.of_string (Topology.name topo) with
            | Ok t ->
              Alcotest.(check bool) (Topology.name topo) true (Topology.equal t topo)
            | Error e -> Alcotest.failf "of_string failed: %s" e)
          all_topos;
        Alcotest.(check bool) "garbage rejected" true
          (Result.is_error (Topology.of_string "torus")));
  ]

(* ---------- partitions ---------- *)

let partition_tests =
  let sync = Link.Synchronous { delta = 10 } in
  let island = Pid.Set.singleton (Pid.of_int 1) in
  let cut = Partition.make ~starts:500 ~heals:900 ~island in
  [
    test "separated: only cross-cut pairs while active" (fun () ->
        let p = Pid.of_int in
        let sep a b ~at = Partition.separated [ cut ] (p a) (p b) ~at in
        Alcotest.(check bool) "cross-cut during" true (sep 1 2 ~at:500);
        Alcotest.(check bool) "symmetric" true (sep 2 1 ~at:700);
        Alcotest.(check bool) "intra-majority" false (sep 2 3 ~at:700);
        Alcotest.(check bool) "before starts" false (sep 1 2 ~at:499);
        Alcotest.(check bool) "heals is exclusive" false (sep 1 2 ~at:900);
        Alcotest.(check bool) "empty schedule" false
          (Partition.separated [] (p 1) (p 2) ~at:700));
    test "cross-cut messages drop; intra-side delivery is untouched" (fun () ->
        let mem = Rlfd_obs.Trace.memory () in
        let registry = Rlfd_obs.Metrics.create () in
        let style = Heartbeat.Fixed { period = 20; timeout = 31 } in
        let _ =
          Netsim.run ~partitions:[ cut ] ~sink:mem ~metrics:registry ~n
            ~pattern:(Pattern.failure_free ~n) ~model:sync ~seed:11 ~horizon:2000
            (Heartbeat.node style)
        in
        let drops, delivers =
          List.fold_left
            (fun (d, dv) -> function
              | Rlfd_obs.Trace.Drop { time; src; dst } -> ((time, src, dst) :: d, dv)
              | Rlfd_obs.Trace.Deliver { time; src; dst } ->
                (d, (time, src, dst) :: dv)
              | _ -> (d, dv))
            ([], []) (Rlfd_obs.Trace.contents mem)
        in
        Alcotest.(check bool) "some drops" true (drops <> []);
        (* the link model is loss-free, so every drop is the partition's *)
        List.iter
          (fun (t, src, dst) ->
            Alcotest.(check bool)
              (Format.asprintf "drop %d->%d@%d crosses the active cut" src dst t)
              true
              (Partition.separated [ cut ] (Pid.of_int src) (Pid.of_int dst)
                 ~at:t))
          drops;
        Alcotest.(check bool) "majority side still talks during the cut" true
          (List.exists
             (fun (t, src, dst) -> t >= 540 && t < 900 && src >= 2 && dst >= 2)
             delivers);
        Alcotest.(check int) "counter matches the event stream"
          (List.length drops)
          (Rlfd_obs.Metrics.counter_value registry "messages_dropped_partition"));
    test "partition suspicions heal: no permanent false suspicion" (fun () ->
        let style = Heartbeat.Fixed { period = 20; timeout = 31 } in
        let r =
          Netsim.run ~partitions:[ cut ] ~n ~pattern:(Pattern.failure_free ~n)
            ~model:sync ~seed:11 ~horizon:2000 (Heartbeat.node style)
        in
        let report = Qos.analyze ~partitions:[ cut ] r in
        Alcotest.(check bool) "mistakes happened" true (report.Qos.false_episodes > 0);
        Alcotest.(check int) "every mistake is partition-induced"
          report.Qos.false_episodes report.Qos.partition_episodes;
        (* each side falsely suspects the other only while cut off: every
           suspicion interval closes soon after the heal *)
        List.iter
          (fun observer ->
            List.iter
              (fun subject ->
                if not (Pid.equal observer subject) then
                  List.iter
                    (fun (start, stop) ->
                      match stop with
                      | Some stop ->
                        Alcotest.(check bool)
                          (Format.asprintf "%a>%a [%d,%d) closes post-heal"
                             Pid.pp observer Pid.pp subject start stop)
                          true
                          (stop <= 900 + 31 + 20 + 10 + 1)
                      | None ->
                        Alcotest.failf "%a suspects %a forever (start %d)"
                          Pid.pp observer Pid.pp subject start)
                    (Qos.suspicion_intervals r ~observer ~subject))
              (Pid.all ~n))
          (Pid.all ~n));
    test "without ~partitions the same mistakes are not excused" (fun () ->
        let style = Heartbeat.Fixed { period = 20; timeout = 31 } in
        let r =
          Netsim.run ~partitions:[ cut ] ~n ~pattern:(Pattern.failure_free ~n)
            ~model:sync ~seed:11 ~horizon:2000 (Heartbeat.node style)
        in
        let blamed = Qos.analyze r in
        Alcotest.(check int) "no partition classification" 0
          blamed.Qos.partition_episodes;
        Alcotest.(check bool) "episodes still counted" true
          (blamed.Qos.false_episodes > 0));
    test "healed run detects a real crash afterwards" (fun () ->
        let style = Heartbeat.Fixed { period = 20; timeout = 31 } in
        let r =
          Netsim.run ~partitions:[ cut ] ~n
            ~pattern:(pattern ~n [ (3, 1400) ])
            ~model:sync ~seed:11 ~horizon:3000 (Heartbeat.node style)
        in
        let report = Qos.analyze ~partitions:[ cut ] r in
        Alcotest.(check bool) "complete despite the earlier cut" true
          report.Qos.complete);
  ]

(* ---------- ping-ack and the detector zoo ---------- *)

let run_spec ?(partitions = []) ~pattern ~model ~seed ~horizon spec =
  let (Detector_impl.Sim r) =
    Detector_impl.simulate ~partitions ~n ~pattern ~model ~seed ~horizon spec
  in
  Qos.analyze ~partitions r

let pingack_spec ?(topology = Topology.All_to_all) ?backoff ~timeout () =
  { Detector_impl.impl = `Pingack; topology; period = 20; timeout;
    backoff; retries = 1 }

let pingack_tests =
  [
    test "synchronous + perfect round-trip timeout = Perfect grade" (fun () ->
        let model = Link.Synchronous { delta = 10 } in
        let timeout = Option.get (Pingack.perfect_timeout model ~period:20) in
        Alcotest.(check int) "2*delta + period + 1" 41 timeout;
        let report =
          run_spec ~pattern:crashpat ~model ~seed:42 ~horizon:3000
            (pingack_spec ~timeout ())
        in
        Alcotest.(check bool) "perfect grade" true (Qos.perfect_grade report));
    test "one-way heartbeat timeout is too tight for a round trip" (fun () ->
        let model = Link.Synchronous { delta = 10 } in
        let hb = Option.get (Heartbeat.perfect_timeout model ~period:20) in
        let report =
          run_spec ~pattern:(Pattern.failure_free ~n) ~model ~seed:42
            ~horizon:3000
            (pingack_spec ~timeout:hb ())
        in
        Alcotest.(check bool) "false suspicions" false report.Qos.accurate);
    test "retries mask isolated pong losses" (fun () ->
        let model = Link.lossy ~drop:0.1 (Link.Synchronous { delta = 10 }) in
        let qos retries =
          let spec = { (pingack_spec ~timeout:41 ()) with Detector_impl.retries } in
          run_spec ~pattern:(Pattern.failure_free ~n) ~model ~seed:42
            ~horizon:3000 spec
        in
        let without = qos 0 and with_retry = qos 2 in
        Alcotest.(check bool)
          (Format.asprintf "retries %d < %d" with_retry.Qos.false_episodes
             without.Qos.false_episodes)
          true
          (with_retry.Qos.false_episodes < without.Qos.false_episodes));
    test "adaptive ping-ack cuts mistakes on partially synchronous links"
      (fun () ->
        let model =
          Link.Partially_synchronous { gst = 1000; delta = 10; wild_max = 120 }
        in
        let qos backoff =
          run_spec ~pattern:crashpat ~model ~seed:42 ~horizon:3000
            (pingack_spec ?backoff ~timeout:41 ())
        in
        let fixed = qos None and adaptive = qos (Some 30) in
        Alcotest.(check bool) "both complete" true
          (fixed.Qos.complete && adaptive.Qos.complete);
        Alcotest.(check bool)
          (Format.asprintf "adaptive %d < fixed %d" adaptive.Qos.false_episodes
             fixed.Qos.false_episodes)
          true
          (adaptive.Qos.false_episodes < fixed.Qos.false_episodes));
    test "every zoo member is complete on synchronous links" (fun () ->
        let model = Link.Synchronous { delta = 10 } in
        List.iter
          (fun impl ->
            List.iter
              (fun topology ->
                let timeout =
                  match impl with `Heartbeat -> 31 | `Pingack -> 41
                in
                let spec =
                  { Detector_impl.impl; topology; period = 20; timeout;
                    backoff = None; retries = 1 }
                in
                let report =
                  run_spec ~pattern:crashpat ~model ~seed:42 ~horizon:3000 spec
                in
                Alcotest.(check bool)
                  (Detector_impl.describe spec ^ " complete")
                  true report.Qos.complete;
                Alcotest.(check bool)
                  (Detector_impl.describe spec ^ " accurate")
                  true report.Qos.accurate)
              all_topos)
          [ `Heartbeat; `Pingack ]);
    test "sparse topologies detect within a dissemination diameter" (fun () ->
        let model = Link.Synchronous { delta = 10 } in
        let n = 16 in
        let report =
          let (Detector_impl.Sim r) =
            Detector_impl.simulate ~n
              ~pattern:(Helpers.pattern ~n [ (3, 700) ])
              ~model ~seed:42 ~horizon:3000
              (pingack_spec ~topology:Topology.Hierarchical ~timeout:41 ())
          in
          Qos.analyze r
        in
        Alcotest.(check bool) "complete" true report.Qos.complete;
        Alcotest.(check bool) "accurate" true report.Qos.accurate;
        (* direct detection needs period + timeout; every further observer
           at most degree more hops of delta each *)
        let diameter = Topology.degree Topology.Hierarchical ~n in
        let bound = float_of_int (20 + 41 + 1 + (diameter * 11)) in
        List.iter
          (fun l ->
            Alcotest.(check bool)
              (Format.asprintf "latency %.0f <= %.0f" l bound)
              true (l <= bound))
          report.Qos.detection_latencies);
  ]

(* ---------- perfect_timeout across link models (regression) ---------- *)

let perfect_timeout_tests =
  let psync = Link.Partially_synchronous { gst = 1000; delta = 10; wild_max = 120 } in
  let async = Link.Asynchronous { mean = 15.; spike_every = 15; spike = 400 } in
  let sync = Link.Synchronous { delta = 10 } in
  [
    test "heartbeat: Some only when delays are bounded from the start" (fun () ->
        Alcotest.(check (option int)) "sync" (Some 31)
          (Heartbeat.perfect_timeout sync ~period:20);
        Alcotest.(check (option int)) "psync has unbounded pre-gst delays" None
          (Heartbeat.perfect_timeout psync ~period:20);
        Alcotest.(check (option int)) "async" None
          (Heartbeat.perfect_timeout async ~period:20);
        Alcotest.(check (option int)) "lossy sync can drop every beat" None
          (Heartbeat.perfect_timeout (Link.lossy ~drop:0.01 sync) ~period:20));
    test "pingack agrees on when a perfect timeout exists" (fun () ->
        Alcotest.(check (option int)) "sync round trip" (Some 41)
          (Pingack.perfect_timeout sync ~period:20);
        Alcotest.(check (option int)) "psync" None
          (Pingack.perfect_timeout psync ~period:20);
        Alcotest.(check (option int)) "lossy" None
          (Pingack.perfect_timeout (Link.lossy ~drop:0.5 sync) ~period:20));
  ]

let () =
  Alcotest.run "net"
    [
      suite "links" link_tests;
      suite "netsim" netsim_tests;
      suite "heartbeat-qos" heartbeat_tests;
      suite "topology" topology_tests;
      suite "partition" partition_tests;
      suite "pingack" pingack_tests;
      suite "perfect-timeout" perfect_timeout_tests;
    ]
