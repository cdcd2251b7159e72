(* The FLP-model executor: buffer, schedulers, runner validity, causal
   tracking, determinism. *)

open Rlfd_kernel
open Rlfd_fd
open Rlfd_sim
open Helpers

let n = 4

(* A trivial gossip automaton: p1 broadcasts "hello" once; everyone relays
   the first copy they receive and outputs the hop count. *)
type gossip_state = { sent : bool; relayed : bool }

let gossip =
  Model.make ~name:"gossip"
    ~initial:(fun ~n:_ _ -> { sent = false; relayed = false })
    ~step:(fun ~n ~self st envelope _fd ->
      match envelope with
      | Some { Model.payload = hops; _ } ->
        if st.relayed then Model.no_effects st
        else
          {
            Model.state = { st with relayed = true };
            sends = Model.send_all ~n ~but:self (hops + 1);
            outputs = [ hops ];
          }
      | None ->
        if Pid.equal self (pid 1) && not st.sent then
          {
            Model.state = { st with sent = true };
            sends = Model.send_all ~n ~but:self 1;
            outputs = [];
          }
        else Model.no_effects st)

let run_gossip ?(pattern = Pattern.failure_free ~n) ?(scheduler = Scheduler.fair ())
    ?(horizon = 500) () =
  Runner.run ~pattern ~detector:Perfect.canonical ~scheduler ~horizon:(time horizon)
    gossip

(* ---------- buffer ---------- *)

(* The single newest-first list [Buffer] used to be, every operation a
   linear scan: the reference model the destination-indexed buffer must
   match id for id and in every order it exposes. *)
module Ref_buffer = struct
  type 'a t = { mutable next_id : int; mutable items : (int * 'a) list }

  let create () = { next_id = 0; items = [] }

  let add t x =
    let id = t.next_id in
    t.next_id <- id + 1;
    t.items <- (id, x) :: t.items;
    id

  let find t id = List.assoc_opt id t.items

  let remove t id =
    match find t id with
    | None -> None
    | Some x ->
      t.items <- List.filter (fun (i, _) -> i <> id) t.items;
      Some x

  let pending_for t ~dst ~keep =
    List.fold_left
      (fun acc (id, x) -> if Pid.equal (keep x) dst then (id, x) :: acc else acc)
      [] t.items

  let size t = List.length t.items

  let iter t f = List.iter (fun (id, x) -> f id x) (List.rev t.items)
end

(* Remove/Find carry a raw pick resolved against the ids issued so far, so
   that they hit live, consumed, negative and never-issued ids alike. *)
type buffer_op =
  | Add of int
  | Remove of int
  | Find of int
  | Pending of int
  | Size
  | Iter

let pp_buffer_op = function
  | Add d -> Printf.sprintf "add->p%d" d
  | Remove r -> Printf.sprintf "remove#%d" r
  | Find r -> Printf.sprintf "find#%d" r
  | Pending d -> Printf.sprintf "pending p%d" d
  | Size -> "size"
  | Iter -> "iter"

(* destinations p1..p4 receive messages; p5 never does *)
let arb_buffer_ops =
  let open QCheck.Gen in
  let op =
    frequency
      [
        (6, map (fun d -> Add d) (int_range 1 4));
        (3, map (fun r -> Remove r) nat);
        (1, map (fun r -> Find r) nat);
        (3, map (fun d -> Pending d) (int_range 1 5));
        (1, return Size);
        (1, return Iter);
      ]
  in
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map pp_buffer_op ops))
    ~shrink:QCheck.Shrink.list
    (list_size (int_bound 120) op)

let buffer_matches_reference ops =
  let b = Buffer.create ~dst:fst () and r = Ref_buffer.create () in
  let keep = fst in
  let pick raw = (raw mod (r.Ref_buffer.next_id + 2)) - 1 in
  let listing iter t =
    let acc = ref [] in
    iter t (fun id x -> acc := (id, x) :: !acc);
    List.rev !acc
  in
  List.iteri
    (fun step op ->
      let ok =
        match op with
        | Add d ->
          let x = (pid d, step) in
          Buffer.add b x = Ref_buffer.add r x
        | Remove raw ->
          let id = pick raw in
          Buffer.remove b id = Ref_buffer.remove r id
        | Find raw ->
          let id = pick raw in
          Buffer.find b id = Ref_buffer.find r id
        | Pending d ->
          Buffer.pending_for b (pid d) = Ref_buffer.pending_for r ~dst:(pid d) ~keep
        | Size -> Buffer.size b = Ref_buffer.size r
        | Iter -> listing Buffer.iter b = listing Ref_buffer.iter r
      in
      if not ok then
        QCheck.Test.fail_reportf "diverged at op %d (%s)" step (pp_buffer_op op))
    ops;
  Buffer.size b = Ref_buffer.size r
  && listing Buffer.iter b = listing Ref_buffer.iter r
  && List.for_all
       (fun d ->
         Buffer.pending_for b (pid d) = Ref_buffer.pending_for r ~dst:(pid d) ~keep)
       [ 1; 2; 3; 4; 5 ]

let buffer_tests =
  [
    test "add/remove roundtrip" (fun () ->
        let b = Buffer.create ~dst:(fun _ -> pid 1) () in
        let id = Buffer.add b "x" in
        Alcotest.(check (option string)) "found" (Some "x") (Buffer.remove b id);
        Alcotest.(check (option string)) "gone" None (Buffer.remove b id));
    test "pending_for filters by destination, oldest first" (fun () ->
        let b = Buffer.create ~dst:(fun e -> e.Model.dst) () in
        let env dst payload = { Model.src = pid 1; dst = pid dst; payload } in
        ignore (Buffer.add b (env 2 "a"));
        ignore (Buffer.add b (env 3 "b"));
        ignore (Buffer.add b (env 2 "c"));
        let pending = Buffer.pending_for b (pid 2) in
        Alcotest.(check (list string)) "ordered" [ "a"; "c" ]
          (List.map (fun (_, e) -> e.Model.payload) pending));
    test "size" (fun () ->
        let b = Buffer.create ~dst:(fun _ -> pid 1) () in
        ignore (Buffer.add b 1);
        ignore (Buffer.add b 2);
        Alcotest.(check int) "2" 2 (Buffer.size b));
    test "iter in id order" (fun () ->
        let b = Buffer.create ~dst:(fun _ -> pid 1) () in
        ignore (Buffer.add b "first");
        ignore (Buffer.add b "second");
        let acc = ref [] in
        Buffer.iter b (fun _ v -> acc := v :: !acc);
        Alcotest.(check (list string)) "order" [ "second"; "first" ] !acc);
    qtest ~count:300 "matches the list reference model" arb_buffer_ops
      buffer_matches_reference;
  ]

(* ---------- schedulers ---------- *)

let scheduler_tests =
  [
    test "fair scheduler steps every correct process" (fun () ->
        let r = run_gossip () in
        List.iter
          (fun p ->
            let steps =
              List.length (List.filter (fun e -> Pid.equal e.Runner.pid p) r.Runner.events)
            in
            Alcotest.(check bool)
              (Format.asprintf "%a stepped" Pid.pp p)
              true (steps > 10))
          (Pid.all ~n));
    test "fair scheduler delivers everything" (fun () ->
        let r = run_gossip () in
        Alcotest.(check int) "all delivered" r.Runner.sent r.Runner.delivered);
    test "gossip reaches everyone" (fun () ->
        let r = run_gossip () in
        (* everyone, p1 included, outputs on its first receipt (p1 hears the
           relays of its own broadcast) *)
        Alcotest.(check int) "four outputs" 4 (List.length r.Runner.outputs));
    test "random scheduler also completes the gossip" (fun () ->
        let r = run_gossip ~scheduler:(Scheduler.random ~seed:77 ~lambda_bias:0.2) () in
        Alcotest.(check int) "four outputs" 4 (List.length r.Runner.outputs));
    test "random scheduler rejects silly bias" (fun () ->
        Alcotest.check_raises "bias"
          (Invalid_argument "Scheduler.random: lambda_bias out of [0,1)") (fun () ->
            ignore (Scheduler.random ~seed:1 ~lambda_bias:1.0)));
    test "crashed processes never step" (fun () ->
        let pattern = pattern ~n [ (2, 30) ] in
        let r = run_gossip ~pattern () in
        List.iter
          (fun e ->
            if Pid.equal e.Runner.pid (pid 2) then
              Alcotest.(check bool) "before crash" true Time.(e.Runner.time < time 30))
          r.Runner.events);
  ]

let constraint_tests =
  [
    test "delay_from holds messages back" (fun () ->
        let scheduler =
          Scheduler.constrained ~base:(Scheduler.fair ())
            [ Scheduler.delay_from (pid 1) ~until:(time 100) ]
        in
        let r = run_gossip ~scheduler () in
        (* nobody can receive p1's broadcast before t=100 *)
        List.iter
          (fun e ->
            if e.Runner.received = Some (pid 1) then
              Alcotest.(check bool) "after 100" true Time.(e.Runner.time >= time 100))
          r.Runner.events;
        Alcotest.(check int) "still completes" 4 (List.length r.Runner.outputs));
    test "delay_to isolates a receiver" (fun () ->
        let scheduler =
          Scheduler.constrained ~base:(Scheduler.fair ())
            [ Scheduler.delay_to (pid 3) ~until:(time 200) ]
        in
        let r = run_gossip ~scheduler () in
        let p3_first_recv =
          List.find_opt (fun e -> Pid.equal e.Runner.pid (pid 3) && e.Runner.received <> None)
            r.Runner.events
        in
        match p3_first_recv with
        | Some e -> Alcotest.(check bool) "after 200" true Time.(e.Runner.time >= time 200)
        | None -> Alcotest.fail "p3 never received");
    test "freeze stops a process from stepping" (fun () ->
        let scheduler =
          Scheduler.constrained ~base:(Scheduler.fair ())
            [ Scheduler.freeze (pid 2) ~until:(time 50) ]
        in
        let r = run_gossip ~scheduler () in
        List.iter
          (fun e ->
            if Pid.equal e.Runner.pid (pid 2) then
              Alcotest.(check bool) "after 50" true Time.(e.Runner.time >= time 50))
          r.Runner.events);
    test "freeze_all_except produces idle ticks when needed" (fun () ->
        let scheduler =
          Scheduler.constrained ~base:(Scheduler.fair ())
            [ Scheduler.freeze_all_except [] ~until:(time 20) ]
        in
        let r = run_gossip ~scheduler ~horizon:60 () in
        Alcotest.(check bool) "idle ticks happened" true (r.Runner.idle_ticks >= 20));
    test "isolate cuts both directions" (fun () ->
        let scheduler =
          Scheduler.constrained ~base:(Scheduler.fair ())
            [ Scheduler.isolate (pid 4) ~until:(time 150) ]
        in
        let r = run_gossip ~scheduler () in
        List.iter
          (fun e ->
            if
              Time.(e.Runner.time < time 150)
              && (Pid.equal e.Runner.pid (pid 4) || List.mem (pid 4) e.Runner.sent_to)
            then
              Alcotest.(check bool) "no deliveries involving p4 early" true
                (e.Runner.received = None || not (Pid.equal e.Runner.pid (pid 4))))
          r.Runner.events);
  ]

(* ---------- runner semantics ---------- *)

let runner_tests =
  [
    test "runs are deterministic" (fun () ->
        let a = run_gossip ~scheduler:(Scheduler.random ~seed:5 ~lambda_bias:0.3) () in
        let b = run_gossip ~scheduler:(Scheduler.random ~seed:5 ~lambda_bias:0.3) () in
        Alcotest.(check int) "same steps" a.Runner.steps b.Runner.steps;
        Alcotest.(check int) "same outputs" (List.length a.Runner.outputs)
          (List.length b.Runner.outputs));
    test "until stops the run early" (fun () ->
        let r =
          Runner.run ~pattern:(Pattern.failure_free ~n) ~detector:Perfect.canonical
            ~scheduler:(Scheduler.fair ()) ~horizon:(time 500)
            ~until:(fun outputs -> List.length outputs >= 1)
            gossip
        in
        Alcotest.(check bool) "stopped early" true r.Runner.stopped_early;
        Alcotest.(check bool) "before horizon" true Time.(r.Runner.end_time < time 500));
    test "record_events:false skips the trace" (fun () ->
        let r =
          Runner.run ~record_events:false ~pattern:(Pattern.failure_free ~n)
            ~detector:Perfect.canonical ~scheduler:(Scheduler.fair ())
            ~horizon:(time 200) gossip
        in
        Alcotest.(check int) "no events" 0 (List.length r.Runner.events);
        Alcotest.(check int) "outputs kept" 4 (List.length r.Runner.outputs));
    test "outputs_of and first_output" (fun () ->
        let r = run_gossip () in
        match Runner.first_output r (pid 2) with
        | Some (_, hops) -> Alcotest.(check int) "direct hop" 1 hops
        | None -> Alcotest.fail "p2 should have output");
    test "final states cover all processes" (fun () ->
        let r = run_gossip ~pattern:(pattern ~n [ (3, 10) ]) () in
        Alcotest.(check int) "n states" n (Pid.Map.cardinal r.Runner.final_states));
    test "a lone survivor's backlog to crashed peers" (fun () ->
        (* T(D->P) keeps the survivor running consensus to the horizon; all
           but a few hundred of its messages go to crashed processes and
           stay in the buffer forever.  Counts pinned from the list buffer. *)
        let n = 5 in
        let pattern =
          Pattern.Family.generate Pattern.Family.all_but_one ~n ~horizon:(time 300)
            (Rng.make 1)
        in
        Alcotest.(check string) "pattern" "pattern(n=5; p1@299 p2@88 p4@192 p5@83)"
          (Format.asprintf "%a" Pattern.pp pattern);
        let r =
          Runner.run ~pattern ~detector:Perfect.canonical ~scheduler:(Scheduler.fair ())
            ~horizon:(time 6000)
            (Rlfd_reduction.Consensus_to_p.automaton
               ~impl:Rlfd_reduction.Consensus_to_p.ct_strong_impl)
        in
        Alcotest.(check int) "steps" 6000 r.Runner.steps;
        Alcotest.(check int) "sent" 114664 r.Runner.sent;
        Alcotest.(check int) "delivered" 286 r.Runner.delivered;
        Alcotest.(check int) "outputs" 5730 (List.length r.Runner.outputs);
        check_all_hold "emulates P" (Rlfd_reduction.Emulation.check_emulation_run r));
  ]

(* ---------- causal tracking ---------- *)

let causal_tests =
  [
    test "heard_from starts as self" (fun () ->
        let r = run_gossip () in
        let first = List.hd r.Runner.events in
        Alcotest.(check bool) "self in hf" true
          (Pid.Set.mem first.Runner.pid first.Runner.heard_from));
    test "receivers absorb the sender's causal past" (fun () ->
        let r = run_gossip () in
        List.iter
          (fun e ->
            match e.Runner.received with
            | Some src ->
              Alcotest.(check bool)
                (Format.asprintf "%a heard from %a" Pid.pp e.Runner.pid Pid.pp src)
                true
                (Pid.Set.mem src e.Runner.heard_from)
            | None -> ())
          r.Runner.events);
    test "gossip outputs causally include p1" (fun () ->
        let r = run_gossip () in
        List.iter
          (fun (e : _ Runner.event) ->
            if e.Runner.outputs <> [] then
              Alcotest.(check bool) "p1 in causal chain" true
                (Pid.Set.mem (pid 1) e.Runner.heard_from))
          r.Runner.events);
    test "vector clocks grow along the run" (fun () ->
        let r = run_gossip () in
        let by_pid = Hashtbl.create 8 in
        List.iter
          (fun e ->
            let prev = Option.value ~default:Vclock.empty (Hashtbl.find_opt by_pid e.Runner.pid) in
            Alcotest.(check bool) "monotone" true (Vclock.leq prev e.Runner.vclock);
            Hashtbl.replace by_pid e.Runner.pid e.Runner.vclock)
          r.Runner.events);
    test "own step count matches own vclock component" (fun () ->
        let r = run_gossip () in
        let last_of p =
          List.fold_left
            (fun acc e -> if Pid.equal e.Runner.pid p then Some e else acc)
            None r.Runner.events
        in
        List.iter
          (fun p ->
            match last_of p with
            | None -> ()
            | Some e ->
              let steps =
                List.length
                  (List.filter (fun ev -> Pid.equal ev.Runner.pid p) r.Runner.events)
              in
              Alcotest.(check int)
                (Format.asprintf "%a" Pid.pp p)
                steps
                (Vclock.get e.Runner.vclock p))
          (Pid.all ~n));
  ]

let () =
  Alcotest.run "sim"
    [
      suite "buffer" buffer_tests;
      suite "schedulers" scheduler_tests;
      suite "constraints" constraint_tests;
      suite "runner" runner_tests;
      suite "causal-tracking" causal_tests;
    ]
