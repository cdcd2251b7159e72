open Rlfd_kernel
open Rlfd_fd

type 'm tagged = { payload : 'm; hf : Pid.Set.t; vc : Vclock.t }

type 'o event = {
  time : Time.t;
  pid : Pid.t;
  received : Pid.t option;
  received_id : Buffer.id option;
  sent_to : Pid.t list;
  sent_ids : Buffer.id list;
  outputs : 'o list;
  heard_from : Pid.Set.t;
  vclock : Vclock.t;
}

type ('s, 'o) result = {
  n : int;
  pattern : Pattern.t;
  algorithm : string;
  events : 'o event list;
  outputs : (Time.t * Pid.t * 'o) list;
  final_states : 's Pid.Map.t;
  steps : int;
  idle_ticks : int;
  sent : int;
  delivered : int;
  end_time : Time.t;
  stopped_early : bool;
}

let run ?(until = fun _ -> false) ?(record_events = true)
    ?(sink = Rlfd_obs.Trace.null) ?metrics ?(trace_idle = false)
    ?(pp_output = fun _ -> "_") ?pp_seen ~pattern ~detector ~scheduler ~horizon
    (algo : _ Model.t) =
  let n = Pattern.n pattern in
  let tracing = not (Rlfd_obs.Trace.is_null sink) in
  let mincr ?by name =
    match metrics with
    | None -> ()
    | Some m -> Rlfd_obs.Metrics.incr ?by m name
  in
  let idx p = Pid.to_int p - 1 in
  let states = Array.of_list (List.map (fun p -> algo.initial ~n p) (Pid.all ~n)) in
  let hfs = Array.of_list (List.map Pid.Set.singleton (Pid.all ~n)) in
  let vcs = Array.make n Vclock.empty in
  let buffer = Buffer.create ~dst:(fun e -> e.Model.dst) () in
  let events = ref [] in
  let outputs = ref [] in
  let steps = ref 0 and idle = ref 0 and sent = ref 0 and delivered = ref 0 in
  let stopped = ref false in
  let pending = Buffer.pending_for buffer in
  let t = ref Time.zero in
  while Time.(!t < horizon) && not !stopped do
    let now = !t in
    let alive =
      List.filter (fun p -> Pattern.is_alive pattern p now) (Pid.all ~n)
    in
    let view =
      {
        Scheduler.n;
        time = now;
        alive;
        pending;
        steps_of = (fun p -> Vclock.get vcs.(idx p) p);
      }
    in
    (match Scheduler.choose scheduler view with
    | Scheduler.Idle ->
      incr idle;
      mincr "idle_ticks";
      if tracing && trace_idle then
        Rlfd_obs.Trace.(emit sink (Idle { time = Time.to_int now }))
    | Scheduler.Step { pid; receive } ->
      if Pattern.is_crashed pattern pid now then
        invalid_arg "Runner.run: scheduler stepped a crashed process";
      let i = idx pid in
      let envelope =
        match receive with
        | None -> None
        | Some id -> (
          match Buffer.remove buffer id with
          | None -> invalid_arg "Runner.run: scheduler delivered a consumed message"
          | Some e ->
            if not (Pid.equal e.Model.dst pid) then
              invalid_arg "Runner.run: scheduler misdelivered a message";
            incr delivered;
            mincr "messages_delivered";
            Some e)
      in
      (match envelope with
      | None -> ()
      | Some e ->
        hfs.(i) <- Pid.Set.union hfs.(i) e.Model.payload.hf;
        vcs.(i) <- Vclock.merge vcs.(i) e.Model.payload.vc);
      vcs.(i) <- Vclock.tick vcs.(i) pid;
      let seen = Detector.query detector pattern pid now in
      let plain =
        Option.map
          (fun (e : _ Model.envelope) ->
            { e with Model.payload = e.Model.payload.payload })
          envelope
      in
      let effects = algo.step ~n ~self:pid states.(i) plain seen in
      states.(i) <- effects.Model.state;
      let sent_ids =
        List.map
          (fun (dst, payload) ->
            incr sent;
            let tagged = { payload; hf = hfs.(i); vc = vcs.(i) } in
            Buffer.add buffer { Model.src = pid; dst; payload = tagged })
          effects.Model.sends
      in
      List.iter (fun o -> outputs := (now, pid, o) :: !outputs) effects.Model.outputs;
      incr steps;
      mincr "steps";
      mincr ~by:(List.length effects.Model.sends) "messages_sent";
      mincr ~by:(List.length effects.Model.outputs) "outputs";
      if tracing then
        Rlfd_obs.Trace.(
          emit sink
            (Step
               {
                 time = Time.to_int now;
                 pid = Pid.to_int pid;
                 received_from =
                   Option.map
                     (fun (e : _ Model.envelope) -> Pid.to_int e.Model.src)
                     envelope;
                 sent_to = List.map (fun (dst, _) -> Pid.to_int dst) effects.Model.sends;
                 outputs = List.map pp_output effects.Model.outputs;
                 seen = Option.map (fun f -> f seen) pp_seen;
               }));
      if record_events then begin
        let ev =
          {
            time = now;
            pid;
            received = Option.map (fun (e : _ Model.envelope) -> e.Model.src) envelope;
            received_id = (match envelope with None -> None | Some _ -> receive);
            sent_to = List.map fst effects.Model.sends;
            sent_ids;
            outputs = effects.Model.outputs;
            heard_from = hfs.(i);
            vclock = vcs.(i);
          }
        in
        events := ev :: !events
      end;
      if effects.Model.outputs <> [] && until !outputs then stopped := true);
    t := Time.succ !t
  done;
  let final_states =
    List.fold_left
      (fun acc p -> Pid.Map.add p states.(idx p) acc)
      Pid.Map.empty (Pid.all ~n)
  in
  {
    n;
    pattern;
    algorithm = algo.name;
    events = List.rev !events;
    outputs = List.rev !outputs;
    final_states;
    steps = !steps;
    idle_ticks = !idle;
    sent = !sent;
    delivered = !delivered;
    end_time = !t;
    stopped_early = !stopped;
  }

let outputs_of r pid =
  List.filter_map
    (fun (t, p, o) -> if Pid.equal p pid then Some (t, o) else None)
    r.outputs

let first_output r pid =
  match outputs_of r pid with [] -> None | x :: _ -> Some x

let all_correct_output r =
  Pid.Set.for_all
    (fun p -> first_output r p <> None)
    (Pattern.correct r.pattern)

let stop_when_all_correct_output pattern outputs =
  let correct = Pattern.correct pattern in
  Pid.Set.for_all
    (fun p -> List.exists (fun (_, q, _) -> Pid.equal p q) outputs)
    correct
