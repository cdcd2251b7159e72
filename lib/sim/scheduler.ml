open Rlfd_kernel

type 'm view = {
  n : int;
  time : Time.t;
  alive : Pid.t list;
  pending : Pid.t -> (Buffer.id * 'm Model.envelope) list;
  steps_of : Pid.t -> int;
}

type action = Step of { pid : Pid.t; receive : Buffer.id option } | Idle

type 'm t = { name : string; choose : 'm view -> action }

let make ~name choose = { name; choose }

let name t = t.name

let choose t view = t.choose view

let fair () =
  let cursor = ref 0 in
  let choose view =
    match view.alive with
    | [] -> Idle
    | alive ->
      let k = List.length alive in
      let pid = List.nth alive (!cursor mod k) in
      incr cursor;
      let receive =
        match view.pending pid with [] -> None | (id, _) :: _ -> Some id
      in
      Step { pid; receive }
  in
  { name = "fair"; choose }

let random ~seed ~lambda_bias =
  if lambda_bias < 0. || lambda_bias >= 1. then
    invalid_arg "Scheduler.random: lambda_bias out of [0,1)";
  let rng = Rng.make seed in
  let choose view =
    match view.alive with
    | [] -> Idle
    | alive ->
      let pid = Rng.pick rng alive in
      let receive =
        match view.pending pid with
        | [] -> None
        | pending ->
          if Rng.float rng 1.0 < lambda_bias then None
          else Some (fst (Rng.pick rng pending))
      in
      Step { pid; receive }
  in
  { name = Format.asprintf "random(seed=%d)" seed; choose }

let scripted trail =
  let remaining = ref trail in
  let choose view =
    match !remaining with
    | [] -> Idle
    | (pid, from) :: rest ->
      remaining := rest;
      if not (List.exists (Pid.equal pid) view.alive) then Idle
      else begin
        let receive =
          match from with
          | None -> None
          | Some src ->
            view.pending pid
            |> List.find_opt (fun (_, e) -> Pid.equal e.Model.src src)
            |> Option.map fst
        in
        Step { pid; receive }
      end
  in
  { name = "scripted"; choose }

let replay entries =
  let remaining = ref entries in
  let choose view =
    match !remaining with
    | [] -> Idle
    | (t, pid, receive) :: rest ->
      if t <> Time.to_int view.time then Idle
      else begin
        remaining := rest;
        if not (List.exists (Pid.equal pid) view.alive) then Idle
        else begin
          let receive =
            match receive with
            | None -> None
            | Some id ->
              if List.exists (fun (id', _) -> id' = id) (view.pending pid) then
                Some id
              else None
          in
          Step { pid; receive }
        end
      end
  in
  { name = "replay"; choose }

type 'm constraint_ = {
  blocks_step : 'm view -> Pid.t -> bool;
  blocks_delivery : 'm view -> 'm Model.envelope -> bool;
}

let no_step_block = fun _ _ -> false

let no_delivery_block = fun _ _ -> false

let delay_from p ~until =
  {
    blocks_step = no_step_block;
    blocks_delivery =
      (fun view e -> Pid.equal e.Model.src p && Time.(view.time < until));
  }

let delay_to p ~until =
  {
    blocks_step = no_step_block;
    blocks_delivery =
      (fun view e -> Pid.equal e.Model.dst p && Time.(view.time < until));
  }

let isolate p ~until =
  {
    blocks_step = no_step_block;
    blocks_delivery =
      (fun view e ->
        (Pid.equal e.Model.src p || Pid.equal e.Model.dst p)
        && Time.(view.time < until));
  }

let freeze p ~until =
  {
    blocks_step = (fun view q -> Pid.equal p q && Time.(view.time < until));
    blocks_delivery = no_delivery_block;
  }

let freeze_all_except keep ~until =
  {
    blocks_step =
      (fun view q ->
        (not (List.exists (Pid.equal q) keep)) && Time.(view.time < until));
    blocks_delivery = no_delivery_block;
  }

let constrained ~base constraints =
  let blocks_step view p = List.exists (fun c -> c.blocks_step view p) constraints in
  let blocks_delivery view e =
    List.exists (fun c -> c.blocks_delivery view e) constraints
  in
  let choose view =
    let view' =
      {
        view with
        alive = List.filter (fun p -> not (blocks_step view p)) view.alive;
        pending =
          (fun p ->
            List.filter (fun (_, e) -> not (blocks_delivery view e)) (view.pending p));
      }
    in
    match base.choose view' with
    | Idle -> Idle
    | Step _ as a -> a
  in
  { name = base.name ^ "+constraints"; choose }

let with_name name t = { t with name }
