(* qos: streaming QoS runs — a Detector_impl simulation feeding a
   Qos_stream sink with outputs not retained, on synchronous links
   (delta=10) with period 50, timeout 71 and 5 crashes; no Runner, no
   explorer.

   - dense: heartbeat, all-to-all, n=300, horizon 600 — Netsim-bound;
   - sparse: ping-ack over the hierarchical testing graph, n=3000,
     horizon 400 — detector-handler-bound.

   The workload seed picks which processes crash and seeds the link
   delays; crash times are fixed fractions of the horizon. *)

open Rlfd_kernel
open Rlfd_fd
open Rlfd_net
open Workload
module Trace = Rlfd_obs.Trace

let churn = 5

type counts = { events : int; messages : int; delivered : int; detected : int }

type scope = {
  label : string;
  n : int;
  horizon : int;
  spec : Detector_impl.spec;
  pattern : Pattern.t;
  seed : int;
  (* the counts of this seed's first pass; every later pass must match *)
  mutable reference : counts option;
}

let model = Link.Synchronous { delta = 10 }

(* [churn] distinct processes, drawn from the seed. *)
let victims ~seed ~n =
  let rng = Rng.derive ~seed ~salts:[ n ] in
  let rec draw acc =
    if List.length acc = churn then List.rev acc
    else
      let p = Pid.of_int (1 + Rng.int rng n) in
      draw (if List.mem p acc then acc else p :: acc)
  in
  draw []

let scope ~seed ~label ~impl ~topology ~n ~horizon =
  let crashes =
    List.mapi
      (fun i p -> (p, Time.of_int (horizon * (i + 1) / (2 * (churn + 1)))))
      (victims ~seed ~n)
  in
  let spec =
    { Detector_impl.impl; topology; period = 50; timeout = 71; backoff = None;
      retries = 1 }
  in
  { label; n; horizon; spec; pattern = Pattern.make ~n crashes; seed;
    reference = None }

let setup ~seed ~tmp:_ =
  [ scope ~seed ~label:"dense" ~impl:`Heartbeat ~topology:Topology.all_to_all
      ~n:300 ~horizon:600;
    scope ~seed ~label:"sparse" ~impl:`Pingack
      ~topology:Topology.hierarchical ~n:3000 ~horizon:400 ]

let counts (r : _ Netsim.result) (q : Qos_stream.summary) =
  { events = r.Netsim.events_processed; messages = q.Qos_stream.messages_sent;
    delivered = r.Netsim.messages_delivered; detected = q.Qos_stream.detected }

(* Every correct process must detect every crash (the timeout is perfect
   on these links), none may be falsely suspected, the estimator's message
   count must match the simulator's, and the counts must repeat exactly
   for the seed. *)
let check_scope s (q : Qos_stream.summary) c =
  let crashed = churn in
  let first = match s.reference with None -> c | Some r -> r in
  if s.reference = None then s.reference <- Some c;
  let l = s.label in
  { attempted = 7;
    failures =
      expect (l ^ " detected") ~got:c.detected ~want:((s.n - crashed) * crashed)
      @ expect (l ^ " undetected") ~got:q.Qos_stream.undetected ~want:0
      @ expect (l ^ " false episodes") ~got:q.Qos_stream.false_episodes ~want:0
      @ expect (l ^ " delivered (estimator vs netsim)")
          ~got:q.Qos_stream.messages_delivered ~want:c.delivered
      @ expect (l ^ " events (repeat)") ~got:c.events ~want:first.events
      @ expect (l ^ " messages (repeat)") ~got:c.messages ~want:first.messages
      @ expect (l ^ " detected (repeat)") ~got:c.detected ~want:first.detected }

let estimator s pattern = Qos_stream.create ~label:s.label ~n:s.n ~pattern ()

let run_scope s =
  let pattern = s.pattern in
  let est = estimator s pattern in
  let (Detector_impl.Sim r) =
    Detector_impl.simulate ~retain_outputs:false ~sink:(Qos_stream.sink est)
      ~n:s.n ~pattern ~model ~seed:s.seed ~horizon:s.horizon s.spec
  in
  let q = Qos_stream.finish est ~end_time:r.Netsim.end_time in
  (q, counts r q)

let checks results () =
  List.fold_left (fun acc (s, q, c) -> acc ++ check_scope s q c) (ok 0) results

let pass scopes =
  checks
    (List.map
       (fun s ->
         let q, c = run_scope s in
         (s, q, c))
       scopes)

(* The same run with the node handlers and the estimator tap timed.  The
   detector emits suspicion events from inside its handlers, so sink time
   spent there is a child of the handler, not of the simulator. *)
let traced_scope s =
  let pattern = s.pattern in
  let est = estimator s pattern in
  let est_sink = Qos_stream.sink est in
  let in_handler = ref false in
  let sink_events = ref 0 and sink_s = ref 0. and sink_in_handler = ref 0. in
  let handler_calls = ref 0 and handler_s = ref 0. in
  let tap =
    Trace.callback (fun ev ->
        let t0 = Spans.now () in
        Trace.emit est_sink ev;
        let dt = Spans.now () -. t0 in
        incr sink_events;
        sink_s := !sink_s +. dt;
        if !in_handler then sink_in_handler := !sink_in_handler +. dt)
  in
  let handler f =
    in_handler := true;
    let t0 = Spans.now () in
    let r = f () in
    handler_s := !handler_s +. (Spans.now () -. t0);
    incr handler_calls;
    in_handler := false;
    r
  in
  let (module D) = Detector_impl.instantiate ~sink:tap ~n:s.n s.spec in
  let node =
    { D.node with
      Netsim.init = (fun ~n ~self -> handler (fun () -> D.node.init ~n ~self));
      on_message =
        (fun ~n ~self ~now st ~src m ->
          handler (fun () -> D.node.on_message ~n ~self ~now st ~src m));
      on_timer =
        (fun ~n ~self ~now st ~tag ->
          handler (fun () -> D.node.on_timer ~n ~self ~now st ~tag)) }
  in
  let r, netsim_s, q, finish_s =
    Spans.span ("qos." ^ s.label) (fun () ->
        let r, netsim_s =
          Spans.timed "netsim" (fun () ->
              Netsim.run ~retain_outputs:false ~sink:tap ~n:s.n
                ~pattern ~model ~seed:s.seed ~horizon:s.horizon node)
        in
        let q, finish_s =
          Spans.timed "qos_stream.finish" (fun () ->
              Qos_stream.finish est ~end_time:r.Netsim.end_time)
        in
        (r, netsim_s, q, finish_s))
  in
  let c = counts r q in
  let m k v = (Printf.sprintf "qos.%s.%s" s.label k, v) in
  let i = float_of_int in
  let sink_outside = !sink_s -. !sink_in_handler in
  ( [ m "events" (i c.events); m "messages" (i c.messages);
      m "events_per_s" (i c.events /. netsim_s);
      m "netsim_self_s" (netsim_s -. !handler_s -. sink_outside);
      m "handler_s" !handler_s; m "handler_calls" (i !handler_calls);
      m "sink_s" !sink_s; m "sink_events" (i !sink_events);
      m "finish_s" finish_s;
      m "detected" (i c.detected);
      m "false_episodes" (i q.Qos_stream.false_episodes) ],
    (s, q, c) )

let traced scopes =
  let per_scope = List.map traced_scope scopes in
  fun () -> (List.concat_map fst per_scope, checks (List.map snd per_scope) ())

let workload =
  { name = "qos"; setup; pass; traced;
    verify = (fun _ -> ok 0);
    rates =
      (fun scopes ->
        let node_ticks = List.fold_left (fun acc s -> acc + (s.n * s.horizon)) 0 scopes in
        [ ("qos_node_ticks_per_s", float_of_int node_ticks) ]) }
