open Rlfd_kernel
open Rlfd_fd

type 'o outputs = (Pid.t * 'o) list

type 'o violation = {
  at_step : int;
  trail : (Pid.t * Pid.t option) list;
  schedule : (Pid.t * (Pid.t * string) option) list;
      (* trail plus the canonical payload bytes of each received message —
         what Replay needs to re-resolve the same messages; payloads are
         [""] unless the run captured encodings *)
  outputs : 'o outputs;
  reason : string;
}

type 'o report = {
  nodes_explored : int;
  distinct_states : int;
  deduped : int;
  por_pruned : int;
  lambda_pruned : int;
  orbit_collapsed : int;
  spilled_states : int;
  frontier_tasks : int;
  complete : bool;
  deepest : int;
  violations : 'o violation list;
  decision_states : string list;
}

let pp_report ppf r =
  Format.fprintf ppf "explored %d nodes (%s), depth %d, %d violation(s)"
    r.nodes_explored
    (if r.complete then "complete" else "budget exhausted")
    r.deepest (List.length r.violations);
  if r.deduped > 0 || r.por_pruned > 0 || r.lambda_pruned > 0 then
    Format.fprintf ppf " [%d distinct, %d deduped, %d por-pruned, %d lambda-pruned]"
      r.distinct_states r.deduped r.por_pruned r.lambda_pruned;
  if r.orbit_collapsed > 0 then
    Format.fprintf ppf " [%d orbit-collapsed]" r.orbit_collapsed;
  if r.spilled_states > 0 then
    Format.fprintf ppf " [%d spilled]" r.spilled_states;
  if r.frontier_tasks > 0 then
    Format.fprintf ppf " [%d frontier task(s)]" r.frontier_tasks

(* An in-flight message.  [ment] is its interned identity — present
   whenever encodings are on (canon or capture) — through which the hot
   path reaches the fingerprint, the id and the canonical bytes without
   re-serializing the payload. *)
type 'm msg = {
  mid : int;
  msrc : Pid.t;
  mdst : Pid.t;
  payload : 'm;
  ment : (Pid.t * Pid.t * 'm) Intern.entry option;
}

(* A configuration: flat per-process state array (pid 1 at index 0) copied
   on write — branches share nothing mutable — plus, under [canon], the
   interned identity of each process state and the incremental fingerprint
   lanes.  [ls.(k)] / [lm.(k)] are the state / live-message hash sums of
   the configuration as renamed by the k-th symmetry-group element
   (commutative 63-bit sums, so one step updates them by subtracting the
   terms it consumed and adding the terms it produced). *)
type ('s, 'm) config = {
  step_no : int;
  states : 's array; (* [||] under canon: entries carry the values *)
  s_ents : 's Intern.entry array; (* [||] unless canon *)
  buffer : 'm msg list; (* newest first *)
  next_id : int;
  ls : int array; (* [||] unless canon *)
  lm : int array; (* [||] unless canon *)
}

(* A memoized automaton step.  The automata are deterministic and detector
   views are precomputed per (process, tick), so once states, messages and
   views carry interned identities, (process, state id, received-message
   id, view id) determines a step's effects exactly.  Real scopes revisit
   the same step constantly (that is why canonical dedup works at all); a
   hit skips the model call and every re-interning of its results. *)
type ('s, 'm, 'o) memo_step = {
  r_ent : 's Intern.entry; (* the successor state (its entry carries the value) *)
  r_sends : (Pid.t * 'm * (Pid.t * Pid.t * 'm) Intern.entry) list;
  r_outputs : 'o list;
}

(* The memo store: open addressing over three-int keys (state id,
   received-message id, process x view id), allocation-free on the hit
   path — a generic [Hashtbl] would build a key tuple and traverse it per
   lookup, and this table is consulted once per explored edge.  Slot
   occupancy rides on the first key component (state ids are >= 0, stored
   +1).  No deletion. *)
module Memo = struct
  type 'v t = {
    mutable k1 : int array; (* state id + 1; 0 = empty slot *)
    mutable k2 : int array; (* message id (-1 = lambda step) *)
    mutable k3 : int array; (* process x view id *)
    mutable v : 'v option array;
    mutable used : int;
    mutable mask : int;
  }

  let create () =
    let cap = 1024 in
    {
      k1 = Array.make cap 0;
      k2 = Array.make cap 0;
      k3 = Array.make cap 0;
      v = Array.make cap None;
      used = 0;
      mask = cap - 1;
    }

  let slot t a b c = Hashing.combine_int a (Hashing.combine_int b c) land t.mask

  let find t a b c =
    let a1 = a + 1 in
    let rec go i =
      if t.k1.(i) = 0 then None
      else if t.k1.(i) = a1 && t.k2.(i) = b && t.k3.(i) = c then t.v.(i)
      else go ((i + 1) land t.mask)
    in
    go (slot t a b c)

  let rec grow t =
    let k1 = t.k1 and k2 = t.k2 and k3 = t.k3 and v = t.v in
    let cap = (t.mask + 1) * 2 in
    t.k1 <- Array.make cap 0;
    t.k2 <- Array.make cap 0;
    t.k3 <- Array.make cap 0;
    t.v <- Array.make cap None;
    t.mask <- cap - 1;
    t.used <- 0;
    Array.iteri (fun i a1 -> if a1 <> 0 then add t (a1 - 1) k2.(i) k3.(i) v.(i)) k1

  and add t a b c value =
    if t.used * 8 >= (t.mask + 1) * 7 then grow t;
    let rec go i =
      if t.k1.(i) = 0 then begin
        t.k1.(i) <- a + 1;
        t.k2.(i) <- b;
        t.k3.(i) <- c;
        t.v.(i) <- value;
        t.used <- t.used + 1
      end
      else go ((i + 1) land t.mask)
    in
    go (slot t a b c)
end

(* Per-domain intern tables: one set per sequential walk.  Entries and
   ids are table-local; frontier tasks build their own and re-intern their
   root (fingerprints transfer — they are pure functions of the values —
   but ids do not).  [c_step] is keyed by table-local ids, so it is
   per-domain for the same reason. *)
type ('s, 'm, 'o) cache = {
  c_state : 's Intern.t;
  c_msg : (Pid.t * Pid.t * 'm) Intern.t;
  c_out : (Pid.t * 'o) Intern.t;
  c_step : ('s, 'm, 'o) memo_step Memo.t;
  mutable sc_mids : int array; (* key-packing scratch, grown on demand *)
  mutable sc_oids : int array;
}

(* A schedule choice: which process steps, and which pending message (by
   buffer id, with its sender) it receives — [None] is the null message. *)
type choice = Pid.t * (int * Pid.t) option

let same_choice ((p : Pid.t), ra) ((q : Pid.t), rb) =
  Pid.equal p q
  &&
  match (ra, rb) with
  | None, None -> true
  | Some (i, _), Some (j, _) -> i = j
  | _ -> false

(* Sorted-int-set helpers for the stored sleep sets. *)
let sorted_descs l = List.sort_uniq Int.compare l

let rec desc_subset a b =
  (* a ⊆ b, both sorted ascending *)
  match (a, b) with
  | [], _ -> true
  | _, [] -> false
  | x :: a', y :: b' ->
    let c = Int.compare x y in
    if c = 0 then desc_subset a' b' else if c > 0 then desc_subset a b' else false

let rec desc_inter a b =
  match (a, b) with
  | [], _ | _, [] -> []
  | x :: a', y :: b' ->
    let c = Int.compare x y in
    if c = 0 then x :: desc_inter a' b'
    else if c < 0 then desc_inter a' b
    else desc_inter a b'

(* In-place insertion sort of a prefix: the id vectors being sorted are
   tiny (one slot per in-flight message or emitted output) and live in
   reusable scratch arrays, so only the first [len] slots are meaningful. *)
let isort (a : int array) len =
  for i = 1 to len - 1 do
    let x = a.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && a.(!j) > x do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- x
  done

(* Fixed-width little-endian int in a key buffer (ids and counts are far
   below 2^31). *)
let put4 b off v =
  Bytes.unsafe_set b off (Char.unsafe_chr (v land 0xff));
  Bytes.unsafe_set b (off + 1) (Char.unsafe_chr ((v lsr 8) land 0xff));
  Bytes.unsafe_set b (off + 2) (Char.unsafe_chr ((v lsr 16) land 0xff));
  Bytes.unsafe_set b (off + 3) (Char.unsafe_chr ((v lsr 24) land 0xff))

(* ---------- the Reduction axis ---------- *)

type ('s, 'm, 'd, 'o) symmetry_spec = {
  renamer : ('s, 'm, 'o) Symmetry.renamer;
  value_map : Symmetry.perm -> 'o -> 'o;
  d_rename : (Pid.t -> Pid.t) -> 'd -> 'd;
}

type symmetry_mode = [ `Full | `Decisions_only ]

(* The reduction pipeline, resolved once per exploration: which encoding
   layers are active and the precomputed data they need (the quiescence
   point of the scope's detector views, the symmetry group). *)
type ('s, 'm, 'd, 'o) reduction = {
  canon : bool;
  view : bool; (* detector-view canonicalizer: dead-message gc + clock clamp *)
  por : bool; (* sleep sets over commuting delivery pairs *)
  por_lambda : bool; (* ... extended to pairs involving lambda steps *)
  quiesce_at : int; (* first tick from which views and aliveness are constant *)
  group : Symmetry.perm list; (* identity first; [identity] = symmetry off *)
  spec : ('s, 'm, 'd, 'o) symmetry_spec option; (* present iff decisions quotient *)
  orbit_merge : bool; (* false under `Decisions_only *)
}

(* The first tick q <= horizon such that aliveness and every process's
   detector view are constant on [q, horizon] — beyond it, the global clock
   is unobservable and can be clamped out of the canonical encoding. *)
let quiescence ~pattern ~detector ~d_equal ~horizon =
  let n = Pattern.n pattern in
  let stable_from = ref horizon in
  let continue_ = ref true in
  let t = ref (horizon - 1) in
  while !continue_ && !t >= 0 do
    let now = Time.of_int !t and next = Time.of_int (!t + 1) in
    let same =
      Pid.Set.equal (Pattern.alive_at pattern now) (Pattern.alive_at pattern next)
      && List.for_all
           (fun p ->
             d_equal
               (Detector.query detector pattern p now)
               (Detector.query detector pattern p next))
           (Pid.all ~n)
    in
    if same then begin
      stable_from := !t;
      decr t
    end
    else continue_ := false
  done;
  !stable_from

let resolve_reduction ?(canon = false) ?view ?(por = false) ?(por_lambda = false)
    ?symmetry ?(symmetry_mode = `Full) ~pattern ~detector ~d_equal ~max_steps ()
    =
  let horizon = max_steps + 1 in
  let view = match view with Some v -> canon && v | None -> canon in
  let quiesce_at =
    if view then quiescence ~pattern ~detector ~d_equal ~horizon else horizon
  in
  let group, spec, orbit_merge =
    match symmetry with
    | None -> ([ Symmetry.identity ~n:(Pattern.n pattern) ], None, false)
    | Some spec ->
      let g =
        Symmetry.crash_respecting pattern
        |> Symmetry.filter_equivariant ~pattern ~detector ~horizon
             ~d_rename:spec.d_rename ~d_equal
      in
      (g, Some spec, symmetry_mode = `Full)
  in
  { canon; view; por; por_lambda; quiesce_at; group; spec; orbit_merge }

(* ---------- strategy / store configuration ---------- *)

type store_config = { spill : string option; spill_cache : int option }

let make_store ?(suffix = "") cfg =
  match cfg.spill with
  | None -> Store.in_ram ~initial:4096 ()
  | Some dir ->
    (* frontier tasks race to create the parent; EEXIST is the common case *)
    (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    Store.spilling ?cache_bytes:cfg.spill_cache
      ~dir:(Filename.concat dir ("tier" ^ suffix))
      ()

(* ---------- the exploration engine ---------- *)

(* Mutable per-traversal accumulators: one per sequential walk (the DFS
   strategy has exactly one; the frontier strategy has one for its BFS
   prefix and one per frontier task).  The [t_*] fields are the per-phase
   time attribution, populated only when the caller asked for it. *)
type 'o acc = {
  mutable nodes : int;
  mutable deepest : int;
  mutable truncated : bool;
  mutable deduped : int;
  mutable por_pruned : int;
  mutable lambda_pruned : int;
  mutable orbit_collapsed : int;
  mutable violations : 'o violation list; (* newest first *)
  mutable decision_list : string list;
  mutable t_expand : float;
  mutable t_hash : float;
  mutable t_encode : float;
  mutable t_confirm : float;
}

let fresh_acc () =
  {
    nodes = 0;
    deepest = 0;
    truncated = false;
    deduped = 0;
    por_pruned = 0;
    lambda_pruned = 0;
    orbit_collapsed = 0;
    violations = [];
    decision_list = [];
    t_expand = 0.;
    t_hash = 0.;
    t_encode = 0.;
    t_confirm = 0.;
  }

let run ?(max_steps = 12) ?(max_nodes = 200_000) ?(max_violations = 5)
    ?(canon = false) ?view ?(por = false) ?(por_lambda = false) ?symmetry
    ?(symmetry_mode = `Full) ?spill ?spill_cache ?workers ?(frontier = 32)
    ?(capture = false) ?(progress_every = 250_000) ?(d_equal = fun a b -> a = b)
    ?(sink = Rlfd_obs.Trace.null) ?metrics ?attribution ?(paranoid = false)
    ?(timeline = Rlfd_obs.Timeline.null) ~pattern ~detector ~check
    (algo : _ Model.t) =
  let n = Pattern.n pattern in
  let red =
    resolve_reduction ~canon ?view ~por ~por_lambda ?symmetry ~symmetry_mode
      ~pattern ~detector ~d_equal ~max_steps ()
  in
  let store_cfg = { spill; spill_cache } in
  (* Message encodings are needed both for canonical dedup and for the
     flight-recorder schedule; process-state encodings only for dedup. *)
  let enc_on = red.canon || capture in
  let started_at = Rlfd_obs.Profile.now () in
  (* the phase clock runs for attribution *or* a live timeline — both
     consume the same per-phase accumulators *)
  let clk =
    if Option.is_none attribution && Rlfd_obs.Timeline.is_null timeline then
      fun () -> 0.
    else Rlfd_obs.Profile.now
  in
  (* graft one walk's phase accumulators onto a timeline recorder as four
     aggregate spans, matching the attribution keys *)
  let record_phases rec_ (acc : _ acc) =
    Rlfd_obs.Timeline.record_span rec_ "expand" ~dur_s:acc.t_expand;
    Rlfd_obs.Timeline.record_span rec_ "hash" ~dur_s:acc.t_hash;
    Rlfd_obs.Timeline.record_span rec_ "encode" ~dur_s:acc.t_encode;
    Rlfd_obs.Timeline.record_span rec_ "confirm" ~dur_s:acc.t_confirm
  in
  (* --- scope precomputation: views, aliveness, stability, deaths ---
     Detector views and crash events are pure functions of (process, tick);
     querying them once per scope instead of once per explored edge removes
     a per-node cost that grows with detector complexity. *)
  let horizon = max_steps + 1 in
  let views =
    Array.init (horizon + 1) (fun t ->
        Array.init n (fun i ->
            Detector.query detector pattern (Pid.of_int (i + 1)) (Time.of_int t)))
  in
  (* Small dense ids for the distinct view values — the step memo's third
     key component (structurally equal views share an id; distinct views
     never do, so a memo hit always replays the same inputs). *)
  let view_ids, view_id_count =
    let tbl = Hashtbl.create 16 in
    let ids =
      Array.map
        (Array.map (fun v ->
             match Hashtbl.find_opt tbl v with
             | Some id -> id
             | None ->
               let id = Hashtbl.length tbl in
               Hashtbl.add tbl v id;
               id))
        views
    in
    (ids, Hashtbl.length tbl)
  in
  let alive =
    Array.init (horizon + 1) (fun t ->
        Array.init n (fun i ->
            Pattern.is_alive pattern (Pid.of_int (i + 1)) (Time.of_int t)))
  in
  let alive_pids =
    Array.init (horizon + 1) (fun t ->
        List.filter (fun p -> alive.(t).(Pid.to_int p - 1)) (Pid.all ~n))
  in
  (* stable.(t).(p-1): p survives tick t+1 with an unchanged detector view —
     the per-process half of the independence (commutation) condition. *)
  let stable =
    Array.init max_steps (fun t ->
        Array.init n (fun i ->
            alive.(t + 1).(i) && d_equal views.(t).(i) views.(t + 1).(i)))
  in
  (* dies_at.(t).(p-1): p was alive at t-1 and is crashed at t — the ticks
     at which the dead-message gc erases messages from the lanes. *)
  let dies_at =
    Array.init (horizon + 1) (fun t ->
        Array.init n (fun i -> t > 0 && alive.(t - 1).(i) && not alive.(t).(i)))
  in
  let any_death = Array.map (fun row -> Array.exists Fun.id row) dies_at in
  (* --- the symmetry group, as flat image / inverse-image tables --- *)
  let g_arr = Array.of_list red.group in
  let g_order = Array.length g_arr in
  let grp =
    Array.map
      (fun pi ->
        Array.init n (fun i -> Pid.to_int (Symmetry.apply pi (Pid.of_int (i + 1)))))
      g_arr
  in
  let inv =
    Array.map
      (fun row ->
        let a = Array.make n 0 in
        Array.iteri (fun i img -> a.(img - 1) <- i + 1) row;
        a)
      grp
  in
  (* Lane counts: state/message lanes exist per group element only when
     orbits are actually merged; output lanes whenever a spec is present
     (the decision quotient needs renamed outputs even under
     [`Decisions_only]). *)
  let sm_lanes = if red.orbit_merge then g_order else 1 in
  let out_lanes = match red.spec with None -> 1 | Some _ -> g_order in
  let renamings =
    match red.spec with
    | None -> None
    | Some spec ->
      Some
        (Array.init g_order (fun k ->
             let pi = g_arr.(k) in
             (Symmetry.apply pi, spec.value_map pi)))
  in
  let make_cache () =
    match (red.spec, renamings) with
    | Some spec, Some rens ->
      {
        c_state =
          Intern.create ~nlanes:sm_lanes
            ~rename:(fun k s ->
              let pid, value = rens.(k) in
              spec.renamer.Symmetry.rename_state ~pid ~value s)
            ~encode:Canon.encode_value ();
        c_msg =
          Intern.create ~nlanes:sm_lanes
            ~rename:(fun k (src, dst, m) ->
              let pid, value = rens.(k) in
              (pid src, pid dst, spec.renamer.Symmetry.rename_msg ~pid ~value m))
            ~encode:Canon.encode_value ();
        c_out =
          Intern.create ~nlanes:out_lanes
            ~rename:(fun k (p, o) ->
              let pid, value = rens.(k) in
              (pid p, value o))
            ~encode:Canon.encode_value ();
        c_step = Memo.create ();
        sc_mids = Array.make 32 0;
        sc_oids = Array.make 32 0;
      }
    | _ ->
      {
        c_state = Intern.create ~encode:Canon.encode_value ();
        c_msg = Intern.create ~encode:Canon.encode_value ();
        c_out = Intern.create ~encode:Canon.encode_value ();
        c_step = Memo.create ();
        sc_mids = Array.make 32 0;
        sc_oids = Array.make 32 0;
      }
  in
  (* A message is part of the canonical state iff its destination can still
     receive it: under the view canonicalizer, messages to crashed
     processes are erased (crashes are permanent, only alive processes
     schedule, so they are unreceivable path bookkeeping). *)
  let counted t m = (not red.view) || alive.(t).(Pid.to_int m.mdst - 1) in
  let clamp_step step_no = Stdlib.min step_no red.quiesce_at in
  (* --- from-scratch lane computation: root init, frontier re-intern, and
     the [paranoid] oracle the incremental updates are checked against --- *)
  let scratch_s_lanes s_ents =
    Array.init sm_lanes (fun k ->
        let sum = ref 0 in
        for i = 0 to n - 1 do
          sum :=
            !sum + Hashing.combine_int grp.(k).(i) (Intern.h (Intern.ren s_ents.(i) k))
        done;
        !sum)
  in
  let scratch_m_lanes step_no buffer =
    Array.init sm_lanes (fun k ->
        List.fold_left
          (fun sum m ->
            if counted step_no m then sum + Intern.h (Intern.ren (Option.get m.ment) k)
            else sum)
          0 buffer)
  in
  let scratch_o_lanes out_ents =
    Array.init sm_lanes (fun k ->
        List.fold_left (fun sum e -> sum + Intern.h (Intern.ren e k)) 0 out_ents)
  in
  let initial cache =
    let states = Array.init n (fun i -> algo.Model.initial ~n (Pid.of_int (i + 1))) in
    let s_ents =
      if red.canon then Array.map (Intern.intern cache.c_state) states else [||]
    in
    {
      step_no = 0;
      states = (if red.canon then [||] else states);
      s_ents;
      buffer = [];
      next_id = 0;
      ls = (if red.canon then scratch_s_lanes s_ents else [||]);
      lm = (if red.canon then Array.make sm_lanes 0 else [||]);
    }
  in
  (* All choices available in [config]: each alive process may take a lambda
     step or receive any one pending message addressed to it. *)
  let choices config =
    List.concat_map
      (fun p ->
        let rec collect = function
          | [] -> [ (p, None) ]
          | m :: rest ->
            if Pid.equal m.mdst p then (p, Some (m.mid, m.msrc)) :: collect rest
            else collect rest
        in
        collect config.buffer)
      alive_pids.(config.step_no)
  in
  (* One step: extract the received message, run the automaton, then update
     the interned identities and fingerprint lanes on the delta — the
     stepped process's state term swaps, the consumed message's term
     leaves, newly dead destinations' terms leave, each send's term
     enters.  Nothing older than the step is re-encoded or re-hashed. *)
  let apply cache (acc : _ acc) config ((p, receive) : choice) =
    let ta = clk () in
    let i = Pid.to_int p - 1 in
    let t = config.step_no in
    let received, buffer0 =
      match receive with
      | None -> (None, config.buffer)
      | Some (id, _src) ->
        let rec extract seen = function
          | [] -> (None, List.rev seen)
          | m :: rest when m.mid = id -> (Some m, List.rev_append seen rest)
          | other :: rest -> extract (other :: seen) rest
        in
        extract [] config.buffer
    in
    (* the envelope is only materialized when the automaton actually runs —
       on a step-memo hit nothing needs it *)
    let envelope () =
      match received with
      | None -> None
      | Some m -> Some { Model.src = m.msrc; dst = m.mdst; payload = m.payload }
    in
    let t' = t + 1 in
    if not red.canon then begin
      let effects =
        algo.Model.step ~n ~self:p config.states.(i) (envelope ()) views.(t).(i)
      in
      let states' = Array.copy config.states in
      states'.(i) <- effects.Model.state;
      let buffer, next_id =
        List.fold_left
          (fun (buffer, next_id) (dst, payload) ->
            let ment =
              if enc_on then Some (Intern.intern cache.c_msg (p, dst, payload))
              else None
            in
            ({ mid = next_id; msrc = p; mdst = dst; payload; ment } :: buffer, next_id + 1))
          (buffer0, config.next_id) effects.Model.sends
      in
      acc.t_expand <- acc.t_expand +. (clk () -. ta);
      ( {
          step_no = t';
          states = states';
          s_ents = config.s_ents;
          buffer;
          next_id;
          ls = config.ls;
          lm = config.lm;
        },
        effects.Model.outputs,
        received )
    end
    else begin
      let e_old = config.s_ents.(i) in
      let r =
        let mid =
          match received with Some m -> Intern.id (Option.get m.ment) | None -> -1
        in
        let iv = (i * view_id_count) + view_ids.(t).(i) in
        let sid = Intern.id e_old in
        match Memo.find cache.c_step sid mid iv with
        | Some r -> r
        | None ->
          let effects =
            algo.Model.step ~n ~self:p (Intern.value e_old) (envelope ())
              views.(t).(i)
          in
          let r =
            {
              r_ent = Intern.intern cache.c_state effects.Model.state;
              r_sends =
                List.map
                  (fun (dst, payload) ->
                    (dst, payload, Intern.intern cache.c_msg (p, dst, payload)))
                  effects.Model.sends;
              r_outputs = effects.Model.outputs;
            }
          in
          Memo.add cache.c_step sid mid iv (Some r);
          r
      in
      let tb = clk () in
      let e_new = r.r_ent in
      let s_ents' = Array.copy config.s_ents in
      s_ents'.(i) <- e_new;
      let ls' = Array.copy config.ls in
      for k = 0 to sm_lanes - 1 do
        let img = grp.(k).(i) in
        ls'.(k) <-
          ls'.(k)
          - Hashing.combine_int img (Intern.h (Intern.ren e_old k))
          + Hashing.combine_int img (Intern.h (Intern.ren e_new k))
      done;
      let lm' = Array.copy config.lm in
      (match received with
      | None -> ()
      | Some m ->
        (* the receiver is its destination and is alive now, so the
           message was counted: unconditionally subtract *)
        let ment = Option.get m.ment in
        for k = 0 to sm_lanes - 1 do
          lm'.(k) <- lm'.(k) - Intern.h (Intern.ren ment k)
        done);
      if red.view && any_death.(t') then
        List.iter
          (fun m ->
            if dies_at.(t').(Pid.to_int m.mdst - 1) then begin
              let ment = Option.get m.ment in
              for k = 0 to sm_lanes - 1 do
                lm'.(k) <- lm'.(k) - Intern.h (Intern.ren ment k)
              done
            end)
          buffer0;
      let buffer, next_id =
        List.fold_left
          (fun (buffer, next_id) (dst, payload, ment) ->
            if (not red.view) || alive.(t').(Pid.to_int dst - 1) then
              for k = 0 to sm_lanes - 1 do
                lm'.(k) <- lm'.(k) + Intern.h (Intern.ren ment k)
              done;
            ( { mid = next_id; msrc = p; mdst = dst; payload; ment = Some ment }
              :: buffer,
              next_id + 1 ))
          (buffer0, config.next_id) r.r_sends
      in
      let tc = clk () in
      acc.t_expand <- acc.t_expand +. (tb -. ta);
      acc.t_hash <- acc.t_hash +. (tc -. tb);
      ( {
          step_no = t';
          states = config.states;
          s_ents = s_ents';
          buffer;
          next_id;
          ls = ls';
          lm = lm';
        },
        r.r_outputs,
        received )
    end
  in
  (* --- canonical identity: fingerprint, orbit choice, packed key ---
     The 63-bit fingerprint of lane k is the hash of the configuration as
     renamed by group element k, assembled from the incrementally
     maintained sums.  The orbit representative is the lane with the
     smallest fingerprint — a pure function of the component values, so
     every walk (and every frontier task) picks the same one.  The stored
     key packs the interned ids of the representative's components:
     within one table's lifetime ids are in bijection with distinct
     values, so key equality is exact state equality — the byte-exact
     confirmation the visited store performs on every fingerprint hit. *)
  let fp_of config lo k =
    Hashing.combine_int
      (Hashing.combine_int
         (Hashing.combine_int (Hashing.mix_int (clamp_step config.step_no)) config.ls.(k))
         config.lm.(k))
      lo.(k)
  in
  let grow a = Array.append a (Array.make (Array.length a) 0) in
  let pack cache config out_ents k =
    let t = config.step_no in
    let nm = ref 0 in
    List.iter
      (fun m ->
        if counted t m then begin
          if !nm >= Array.length cache.sc_mids then
            cache.sc_mids <- grow cache.sc_mids;
          cache.sc_mids.(!nm) <- Intern.id (Intern.ren (Option.get m.ment) k);
          incr nm
        end)
      config.buffer;
    let mids = cache.sc_mids in
    isort mids !nm;
    let no = ref 0 in
    List.iter
      (fun e ->
        if !no >= Array.length cache.sc_oids then cache.sc_oids <- grow cache.sc_oids;
        cache.sc_oids.(!no) <- Intern.id (Intern.ren e k);
        incr no)
      out_ents;
    let oids = cache.sc_oids in
    isort oids !no;
    let b = Bytes.create (4 * (3 + n + !nm + !no)) in
    put4 b 0 (clamp_step t);
    for q = 0 to n - 1 do
      put4 b (4 * (1 + q)) (Intern.id (Intern.ren config.s_ents.(inv.(k).(q) - 1) k))
    done;
    let off = 4 * (1 + n) in
    put4 b off !nm;
    for idx = 0 to !nm - 1 do
      put4 b (off + 4 * (1 + idx)) mids.(idx)
    done;
    let off = off + 4 * (1 + !nm) in
    put4 b off !no;
    for idx = 0 to !no - 1 do
      put4 b (off + 4 * (1 + idx)) oids.(idx)
    done;
    Bytes.unsafe_to_string b
  in
  (* Index (in [red.group]) of the representative's permutation, the store
     fingerprint, and the packed id-vector key. *)
  let encode cache config lo out_ents =
    let k =
      if (not red.orbit_merge) || g_order = 1 then 0
      else begin
        let best = ref (fp_of config lo 0) and bi = ref 0 in
        for k = 1 to g_order - 1 do
          let f = fp_of config lo k in
          if f < !best then begin
            best := f;
            bi := k
          end
        done;
        !bi
      end
    in
    (k, Int64.of_int (fp_of config lo k), pack cache config out_ents k)
  in
  (* Decision states: the multiset of outputs emitted so far.  Under
     symmetry the recorded multiset is its orbit representative, so the
     quotiented sets stay comparable byte-for-byte across runs.  The
     renamed encodings come off the interned outputs' lanes — memoized,
     never recomputed. *)
  let quotient_decision out_ents =
    match red.spec with
    | None -> Canon.multiset (List.map Intern.enc out_ents)
    | Some _ ->
      let best = ref (Canon.multiset (List.map Intern.enc out_ents)) in
      for k = 1 to g_order - 1 do
        let enc =
          Canon.multiset (List.map (fun e -> Intern.enc (Intern.ren e k)) out_ents)
        in
        if String.compare enc !best < 0 then best := enc
      done;
      !best
  in
  (* Two choices are independent at a configuration iff they belong to
     distinct processes that both survive the next tick and whose detector
     modules return the same value at this tick and the next: then either
     execution order yields canonically equal states (the receivers are
     distinct, so neither consumes nor preempts the other's message, and
     neither step's inputs change).  The base [por] layer admits only
     delivery pairs; [por_lambda] extends the relation to pairs involving
     internal lambda steps.  The per-process condition is the precomputed
     [stable] table. *)
  let indep_at t ((p, ra) : choice) ((q, rb) : choice) =
    (not (Pid.equal p q))
    && (match (ra, rb) with
       | Some _, Some _ -> red.por
       | None, _ | _, None -> red.por_lambda)
    && stable.(t).(Pid.to_int p - 1)
    && stable.(t).(Pid.to_int q - 1)
  in
  let sleeping = red.por || red.por_lambda in
  let lambda_tag = 0x6C616D62 in
  (* A path-independent descriptor for a slept choice: the process plus the
     fingerprint of the received message (a tag for lambda), so sleep sets
     reached along different paths compare meaningfully.  The explored
     child's message was already extracted by [apply], so the descriptor
     comes straight off it — no buffer search. *)
  let descriptor p received =
    match received with
    | None -> Hashing.combine_int (Pid.to_int p) lambda_tag
    | Some { ment = Some e; _ } -> Hashing.combine_int (Pid.to_int p) (Intern.h e)
    | Some { ment = None; _ } -> Hashing.combine_int (Pid.to_int p) 0
  in
  (* The same descriptor pushed through the orbit-representative renaming:
     sleep sets stored with a canonical state must be named in the {e
     representative's} pid space, so that two branches whose states merge
     only up to a permutation still compare their sleep sets meaningfully.
     For the identity orbit the concrete descriptor is already in rep
     space. *)
  let rep_descriptor ~orbit config ((p, receive) : choice) concrete =
    if orbit = 0 then concrete
    else
      match receive with
      | None -> Hashing.combine_int grp.(orbit).(Pid.to_int p - 1) lambda_tag
      | Some (id, _) -> (
        match List.find_opt (fun m -> m.mid = id) config.buffer with
        | Some { ment = Some e; _ } ->
          Hashing.combine_int
            grp.(orbit).(Pid.to_int p - 1)
            (Intern.h (Intern.ren e orbit))
        | _ -> concrete)
  in
  (* Frontier tasks run in their own domain: fingerprints and canonical
     bytes transfer (pure functions of the values), intern ids do not —
     rebuild the root's interned identities and lanes in the task's own
     tables. *)
  let reintern cache config outputs =
    let s_ents =
      if red.canon then
        (* the prefix walk's entries belong to another domain's table; only
           their values cross — re-intern them here *)
        Array.map
          (fun e -> Intern.intern cache.c_state (Intern.value e))
          config.s_ents
      else [||]
    in
    let buffer =
      List.map
        (fun m ->
          {
            m with
            ment =
              (if enc_on then Some (Intern.intern cache.c_msg (m.msrc, m.mdst, m.payload))
               else None);
          })
        config.buffer
    in
    let out_ents = List.rev_map (fun (p, o) -> Intern.intern cache.c_out (p, o)) outputs in
    let config =
      {
        config with
        s_ents;
        buffer;
        ls = (if red.canon then scratch_s_lanes s_ents else [||]);
        lm = (if red.canon then scratch_m_lanes config.step_no buffer else [||]);
      }
    in
    let lo = if red.canon then scratch_o_lanes out_ents else [||] in
    (config, lo, out_ents)
  in
  (* --- one sequential traversal (shared by both strategies) ---

     Every call counts its expansion (the root included).  The budget is
     checked per {e child}: [acc.truncated] is set only when an unexplored,
     non-duplicate child exists with the budget already spent, so a tree of
     exactly the budget's expanded nodes still reports complete and a
     duplicate child never spends budget.

     [sleep] carries the sleep set (choices whose exploration here would
     only permute provably commuting steps of an already-explored sibling
     branch); the visited store keeps, per canonical state, the step count
     and the descriptor hashes of the sleep set it was expanded under, the
     latter renamed into the orbit representative's pid space so branches
     that merge only up to a permutation still compare sleep sets.  A
     revisit is pruned only when the stored expansion dominates it — no
     larger step count (the clock clamp can merge states across depths, and
     only the shallower expansion covers the deeper budget) and a sleep set
     contained in the current one; otherwise it is re-expanded under the
     intersection, the standard sound combination of sleep sets with state
     caching, lifted along the orbit isomorphism (sound because decision
     multisets are orbit-quotiented). *)
  let traverse ~cache ~(acc : 'o acc) ~visited ~node_budget ~root_config ~root_lo
      ~root_out_ents ~root_outputs ~root_steps ~decisions =
    let record_decision out_ents =
      let enc = quotient_decision out_ents in
      let key = Hashing.of_string enc in
      match Hashing.Table.find decisions ~key enc with
      | Some () -> ()
      | None ->
        Hashing.Table.set decisions ~key enc ();
        acc.decision_list <- enc :: acc.decision_list
    in
    let add_violation v =
      if List.length acc.violations < max_violations then begin
        acc.violations <- v :: acc.violations;
        if not (Rlfd_obs.Trace.is_null sink) then
          Rlfd_obs.Trace.(
            emit sink (Violation { time = v.at_step; reason = v.reason }))
      end
    in
    let progress () =
      if
        progress_every > 0
        && (not (Rlfd_obs.Trace.is_null sink))
        && acc.nodes mod progress_every = 0
      then begin
        let elapsed = Rlfd_obs.Profile.now () -. started_at in
        let rate =
          if elapsed > 0. then float_of_int acc.nodes /. elapsed else 0.
        in
        let detail =
          [ ("depth", float_of_int acc.deepest);
            ("violations", float_of_int (List.length acc.violations)) ]
          @ (if red.canon then
               [ ("distinct", float_of_int (Store.length visited));
                 ("deduped", float_of_int acc.deduped);
                 ("spilled", float_of_int (Store.spilled visited));
                 ("table_bytes", float_of_int (Store.ram_bytes visited)) ]
             else [])
          @
          if sleeping then
            [ ("por_pruned", float_of_int (acc.por_pruned + acc.lambda_pruned)) ]
          else []
        in
        Rlfd_obs.Trace.(
          emit sink
            (Progress
               { time = int_of_float (elapsed *. 1000.); label = "explore";
                 done_ = acc.nodes; total = Some node_budget; rate; detail }))
      end
    in
    (* [steps] is kept newest-first and reversed when a violation is
       recorded — appending per child would copy the whole path each
       time. *)
    let rec dfs config lo out_ents outputs steps sleep =
      acc.nodes <- acc.nodes + 1;
      progress ();
      if config.step_no > acc.deepest then acc.deepest <- config.step_no;
      if config.step_no < max_steps then begin
        let cs = choices config in
        let t = config.step_no in
        let done_ = ref [] in
        List.iter
          (fun (a : choice) ->
            if
              (not acc.truncated)
              && List.length acc.violations < max_violations
            then begin
              if
                sleeping && List.exists (fun (b, _) -> same_choice a b) sleep
              then begin
                match a with
                | _, None -> acc.lambda_pruned <- acc.lambda_pruned + 1
                | _, Some _ -> acc.por_pruned <- acc.por_pruned + 1
              end
              else begin
                let expand () =
                  let config', outs, received = apply cache acc config a in
                  let p, _ = a in
                  if sleeping then
                    done_ := (a, descriptor p received) :: !done_;
                  let outputs' =
                    if outs = [] then outputs
                    else outputs @ List.map (fun o -> (p, o)) outs
                  in
                  let out_ents', lo' =
                    if outs = [] then (out_ents, lo)
                    else begin
                      let lo' = if red.canon then Array.copy lo else lo in
                      let ents =
                        List.fold_left
                          (fun ents o ->
                            let e = Intern.intern cache.c_out (p, o) in
                            if red.canon then
                              for k = 0 to sm_lanes - 1 do
                                lo'.(k) <- lo'.(k) + Intern.h (Intern.ren e k)
                              done;
                            e :: ents)
                          out_ents outs
                      in
                      (ents, lo')
                    end
                  in
                  let steps' =
                    ( p,
                      match received with
                      | None -> None
                      | Some m ->
                        Some
                          ( m.msrc,
                            match m.ment with Some e -> Intern.enc e | None -> ""
                          ) )
                    :: steps
                  in
                  if paranoid && red.canon then begin
                    if
                      scratch_s_lanes config'.s_ents <> config'.ls
                      || scratch_m_lanes config'.step_no config'.buffer
                         <> config'.lm
                      || scratch_o_lanes out_ents' <> lo'
                    then
                      failwith
                        "Explore: incremental fingerprint diverged from \
                         from-scratch recomputation"
                  end;
                  let sleep' =
                    if sleeping then
                      List.filter (fun (b, _) -> indep_at t a b) (!done_ @ sleep)
                    else []
                  in
                  let visit sleep' =
                    if outs <> [] then record_decision out_ents';
                    (* only an output-emitting step can report a violation *)
                    (match if outs = [] then None else check outputs' with
                    | Some reason ->
                      let chron = List.rev steps' in
                      add_violation
                        {
                          at_step = config'.step_no;
                          trail =
                            List.map (fun (p, r) -> (p, Option.map fst r)) chron;
                          schedule = chron;
                          outputs = outputs';
                          reason;
                        }
                    | None -> ());
                    dfs config' lo' out_ents' outputs' steps' sleep'
                  in
                  if not red.canon then visit sleep'
                  else begin
                    let t2 = clk () in
                    let orbit, key, bytes = encode cache config' lo' out_ents' in
                    if orbit > 0 then
                      acc.orbit_collapsed <- acc.orbit_collapsed + 1;
                    (* the CONCRETE depth, not the clamped one: the clock
                       clamp merges encodings across depths, and only an
                       expansion at least as shallow (>= remaining budget)
                       covers a revisit *)
                    let step' = config'.step_no in
                    let rdescs =
                      List.map
                        (fun ((b, d) as e) ->
                          (e, rep_descriptor ~orbit config' b d))
                        sleep'
                    in
                    let descs = sorted_descs (List.map snd rdescs) in
                    let t3 = clk () in
                    acc.t_encode <- acc.t_encode +. (t3 -. t2);
                    (match Store.find visited ~key bytes with
                    | Some (s_step, s_descs)
                      when s_step <= step' && desc_subset s_descs descs ->
                      acc.t_confirm <- acc.t_confirm +. (clk () -. t3);
                      acc.deduped <- acc.deduped + 1
                    | prior ->
                      let stored, sleep' =
                        match prior with
                        | None -> ((step', descs), sleep')
                        | Some (s_step, s_descs) ->
                          let inter = desc_inter s_descs descs in
                          ( (Stdlib.min s_step step', inter),
                            List.filter_map
                              (fun (e, rd) ->
                                if List.exists (Int.equal rd) inter then Some e
                                else None)
                              rdescs )
                      in
                      Store.set visited ~key bytes stored;
                      acc.t_confirm <- acc.t_confirm +. (clk () -. t3);
                      if acc.nodes >= node_budget then acc.truncated <- true
                      else visit sleep')
                  end
                in
                if red.canon then expand ()
                else if acc.nodes >= node_budget then acc.truncated <- true
                else expand ()
              end
            end)
          cs
      end
    in
    dfs root_config root_lo root_out_ents root_outputs root_steps []
  in
  (* ---------- strategies ---------- *)
  let dfs_strategy () =
    let acc = fresh_acc () in
    let cache = make_cache () in
    let visited = make_store store_cfg in
    let decisions : unit Hashing.Table.t =
      Hashing.Table.create ~initial:64 ()
    in
    (* the empty decision multiset is reachable at the root *)
    acc.decision_list <- [ Canon.multiset [] ];
    Hashing.Table.set decisions
      ~key:(Hashing.of_string (Canon.multiset []))
      (Canon.multiset []) ();
    traverse ~cache ~acc ~visited ~node_budget:max_nodes
      ~root_config:(initial cache)
      ~root_lo:(if red.canon then Array.make sm_lanes 0 else [||])
      ~root_out_ents:[] ~root_outputs:[] ~root_steps:[] ~decisions;
    if not (Rlfd_obs.Timeline.is_null timeline) then
      record_phases (Rlfd_obs.Timeline.recorder timeline "dfs") acc;
    let distinct = if red.canon then Store.length visited else acc.nodes in
    let spilled = Store.spilled visited in
    Store.close visited;
    ( acc,
      distinct,
      spilled,
      0,
      List.sort String.compare acc.decision_list,
      List.rev acc.violations )
  in
  let frontier_strategy workers =
    (* Deterministic frontier split: a breadth-first prefix expands nodes in
       FIFO order (no sleep sets — they are a depth-first notion) until at
       least [frontier] unexpanded roots exist, then each root's subtree
       becomes one job of a {!Rlfd_campaign.Engine} campaign whose outcomes
       merge in job order.  Nothing here reads [workers] except the engine's
       pool size, so the report is a pure function of the scope — byte-
       identical at any worker count. *)
    let acc = fresh_acc () in
    let cache = make_cache () in
    let visited = make_store ~suffix:"-prefix" store_cfg in
    let decisions : unit Hashing.Table.t =
      Hashing.Table.create ~initial:64 ()
    in
    acc.decision_list <- [ Canon.multiset [] ];
    Hashing.Table.set decisions
      ~key:(Hashing.of_string (Canon.multiset []))
      (Canon.multiset []) ();
    let record_decision out_ents =
      let enc = quotient_decision out_ents in
      let key = Hashing.of_string enc in
      match Hashing.Table.find decisions ~key enc with
      | Some () -> ()
      | None ->
        Hashing.Table.set decisions ~key enc ();
        acc.decision_list <- enc :: acc.decision_list
    in
    let ex_rec =
      if Rlfd_obs.Timeline.is_null timeline then Rlfd_obs.Timeline.null_recorder
      else Rlfd_obs.Timeline.recorder timeline "explore"
    in
    let target = Stdlib.max 1 frontier in
    let queue = Queue.create () in
    Queue.push
      (initial cache, (if red.canon then Array.make sm_lanes 0 else [||]), [], [], [])
      queue;
    Rlfd_obs.Timeline.enter ex_rec "bfs-prefix";
    while
      Queue.length queue > 0
      && Queue.length queue < target
      && (not acc.truncated)
      && List.length acc.violations < max_violations
    do
      let config, lo, out_ents, outputs, steps = Queue.pop queue in
      acc.nodes <- acc.nodes + 1;
      if config.step_no > acc.deepest then acc.deepest <- config.step_no;
      if config.step_no < max_steps then
        List.iter
          (fun (a : choice) ->
            if
              (not acc.truncated)
              && List.length acc.violations < max_violations
            then begin
              let config', outs, received = apply cache acc config a in
              let p, _ = a in
              let outputs' =
                if outs = [] then outputs
                else outputs @ List.map (fun o -> (p, o)) outs
              in
              let out_ents', lo' =
                if outs = [] then (out_ents, lo)
                else begin
                  let lo' = if red.canon then Array.copy lo else lo in
                  let ents =
                    List.fold_left
                      (fun ents o ->
                        let e = Intern.intern cache.c_out (p, o) in
                        if red.canon then
                          for k = 0 to sm_lanes - 1 do
                            lo'.(k) <- lo'.(k) + Intern.h (Intern.ren e k)
                          done;
                        e :: ents)
                      out_ents outs
                  in
                  (ents, lo')
                end
              in
              let steps' =
                ( p,
                  match received with
                  | None -> None
                  | Some m ->
                    Some
                      ( m.msrc,
                        match m.ment with Some e -> Intern.enc e | None -> "" )
                )
                :: steps
              in
              let admit () =
                if outs <> [] then record_decision out_ents';
                (match if outs = [] then None else check outputs' with
                | Some reason ->
                  if List.length acc.violations < max_violations then
                    let chron = List.rev steps' in
                    acc.violations <-
                      {
                        at_step = config'.step_no;
                        trail =
                          List.map (fun (p, r) -> (p, Option.map fst r)) chron;
                        schedule = chron;
                        outputs = outputs';
                        reason;
                      }
                      :: acc.violations
                | None -> ());
                Queue.push (config', lo', out_ents', outputs', steps') queue
              in
              if not red.canon then begin
                if acc.nodes + Queue.length queue >= max_nodes then
                  acc.truncated <- true
                else admit ()
              end
              else begin
                let orbit, key, bytes = encode cache config' lo' out_ents' in
                if orbit > 0 then acc.orbit_collapsed <- acc.orbit_collapsed + 1;
                let step' = config'.step_no in
                match Store.find visited ~key bytes with
                | Some (s_step, _) when s_step <= step' ->
                  acc.deduped <- acc.deduped + 1
                | _ ->
                  Store.set visited ~key bytes (step', []);
                  if acc.nodes + Queue.length queue >= max_nodes then
                    acc.truncated <- true
                  else admit ()
              end
            end)
          (choices config)
    done;
    Rlfd_obs.Timeline.leave ex_rec;
    (* the prefix's share of the phase accumulators, so timeline phase
       sums equal the attribution totals exactly *)
    record_phases ex_rec acc;
    let roots =
      (* the violations cap already fired in the prefix: the report would
         drop every further violation anyway, matching the serial walk *)
      if List.length acc.violations >= max_violations then []
      else List.of_seq (Queue.to_seq queue)
    in
    let prefix_violations = List.rev acc.violations in
    let n_roots = List.length roots in
    (match metrics with
    | None -> ()
    | Some m ->
      List.iter
        (fun (c, _, _, _, _) ->
          Rlfd_obs.Metrics.observe m "explore_frontier_depth"
            (float_of_int c.step_no))
        roots);
    let budget = Stdlib.max 1 (max_nodes - acc.nodes) in
    let root_arr = Array.of_list roots in
    let outcomes =
      if n_roots = 0 then []
      else begin
        let report =
          Rlfd_campaign.Engine.run ~workers ~shard_size:1 ~timeline
            ~name:"explore-frontier" ~seed:0 ~total:n_roots
            ~label:(fun i -> Printf.sprintf "root-%d" i)
            (fun ~rng:_ ~metrics:_ i ->
              let config0, _, _, outputs, steps = root_arr.(i) in
              let task_cache = make_cache () in
              let config, lo, out_ents = reintern task_cache config0 outputs in
              let task = fresh_acc () in
              let task_store =
                make_store ~suffix:(Printf.sprintf "-%d" i) store_cfg
              in
              let task_decisions : unit Hashing.Table.t =
                Hashing.Table.create ~initial:64 ()
              in
              traverse ~cache:task_cache ~acc:task ~visited:task_store
                ~node_budget:budget ~root_config:config ~root_lo:lo
                ~root_out_ents:out_ents ~root_outputs:outputs ~root_steps:steps
                ~decisions:task_decisions;
              let distinct =
                if red.canon then Store.length task_store else task.nodes
              in
              let spilled = Store.spilled task_store in
              Store.close task_store;
              if not (Rlfd_obs.Timeline.is_null timeline) then
                record_phases
                  (Rlfd_obs.Timeline.recorder timeline
                     (Printf.sprintf "task-%d" i))
                  task;
              (task, distinct, spilled))
        in
        List.map
          (fun o -> o.Rlfd_campaign.Engine.value)
          report.Rlfd_campaign.Engine.outcomes
      end
    in
    (* deterministic merge, job order *)
    let distinct = ref (if red.canon then Store.length visited else acc.nodes) in
    let spilled = ref (Store.spilled visited) in
    Store.close visited;
    let decisions_seen : unit Hashing.Table.t =
      Hashing.Table.create ~initial:64 ()
    in
    let all_decisions = ref [] in
    let add_decision enc =
      let key = Hashing.of_string enc in
      match Hashing.Table.find decisions_seen ~key enc with
      | Some () -> ()
      | None ->
        Hashing.Table.set decisions_seen ~key enc ();
        all_decisions := enc :: !all_decisions
    in
    List.iter add_decision acc.decision_list;
    let violations = ref prefix_violations in
    List.iter
      (fun (task, task_distinct, task_spilled) ->
        acc.nodes <- acc.nodes + task.nodes;
        acc.deepest <- Stdlib.max acc.deepest task.deepest;
        acc.truncated <- acc.truncated || task.truncated;
        acc.deduped <- acc.deduped + task.deduped;
        acc.por_pruned <- acc.por_pruned + task.por_pruned;
        acc.lambda_pruned <- acc.lambda_pruned + task.lambda_pruned;
        acc.orbit_collapsed <- acc.orbit_collapsed + task.orbit_collapsed;
        acc.t_expand <- acc.t_expand +. task.t_expand;
        acc.t_hash <- acc.t_hash +. task.t_hash;
        acc.t_encode <- acc.t_encode +. task.t_encode;
        acc.t_confirm <- acc.t_confirm +. task.t_confirm;
        distinct := !distinct + task_distinct;
        spilled := !spilled + task_spilled;
        List.iter add_decision task.decision_list;
        violations := !violations @ List.rev task.violations)
      outcomes;
    let violations =
      List.filteri (fun i _ -> i < max_violations) !violations
    in
    ( acc,
      !distinct,
      !spilled,
      n_roots,
      List.sort String.compare !all_decisions,
      violations )
  in
  let acc, distinct, spilled, tasks, decision_states, violations =
    match workers with
    | None -> dfs_strategy ()
    | Some k ->
      if k < 1 then invalid_arg "Explore.run: workers < 1";
      frontier_strategy k
  in
  (match attribution with
  | None -> ()
  | Some r ->
    r :=
      [ ("expand_s", acc.t_expand);
        ("hash_s", acc.t_hash);
        ("encode_s", acc.t_encode);
        ("confirm_s", acc.t_confirm) ]);
  (match metrics with
  | None -> ()
  | Some m ->
    let elapsed = Rlfd_obs.Profile.now () -. started_at in
    Rlfd_obs.Metrics.incr ~by:acc.nodes m "explore_nodes";
    Rlfd_obs.Metrics.incr ~by:(List.length violations) m "explore_violations";
    if red.canon then begin
      Rlfd_obs.Metrics.incr ~by:distinct m "explore_distinct_states";
      Rlfd_obs.Metrics.incr ~by:acc.deduped m "explore_deduped"
    end;
    if sleeping then begin
      Rlfd_obs.Metrics.incr ~by:acc.por_pruned m "explore_por_pruned";
      Rlfd_obs.Metrics.incr ~by:acc.lambda_pruned m "explore_lambda_pruned"
    end;
    if red.orbit_merge then
      Rlfd_obs.Metrics.incr ~by:acc.orbit_collapsed m "explore_orbit_collapsed";
    if spilled > 0 || spill <> None then
      Rlfd_obs.Metrics.incr ~by:spilled m "explore_spilled_states";
    if tasks > 0 then Rlfd_obs.Metrics.incr ~by:tasks m "explore_steals";
    if elapsed > 0. then
      Rlfd_obs.Metrics.set_gauge m "explore_nodes_per_sec"
        (float_of_int acc.nodes /. elapsed));
  {
    nodes_explored = acc.nodes;
    distinct_states = distinct;
    deduped = acc.deduped;
    por_pruned = acc.por_pruned;
    lambda_pruned = acc.lambda_pruned;
    orbit_collapsed = acc.orbit_collapsed;
    spilled_states = spilled;
    frontier_tasks = tasks;
    complete = not acc.truncated;
    deepest = acc.deepest;
    violations;
    decision_states;
  }

(* ---------- self-description (the --explain surface) ---------- *)

let describe ?(max_steps = 12) ?(canon = false) ?view ?(por = false)
    ?(por_lambda = false) ?symmetry ?spill ?workers ?(frontier = 32)
    ?(d_equal = fun a b -> a = b) ~pattern ~detector () =
  let red =
    resolve_reduction ~canon ?view ~por ~por_lambda ?symmetry ~pattern
      ~detector ~d_equal ~max_steps ()
  in
  let reduction_lines =
    [ (if red.canon then
         "reduction: canon (incremental-fingerprint dedup: per-step delta \
          hashing, interned components, id-vector keys confirmed exactly)"
       else "reduction: canon off (naive enumeration)") ]
    @ (if red.view then
         [ Printf.sprintf
             "reduction: detector-view canonicalizer (dead-message gc, clock \
              clamp at t=%d%s)"
             red.quiesce_at
             (if red.quiesce_at > max_steps then " — never quiesces in scope"
              else "") ]
       else [])
    @ [ (if red.por then "reduction: por (sleep sets over delivery pairs)"
         else "reduction: por off");
        (if red.por_lambda then
           "reduction: por-lambda (sleep sets extended to lambda steps)"
         else "reduction: por-lambda off") ]
    @
    match symmetry with
    | None -> [ "reduction: symmetry off" ]
    | Some _ ->
      [ Printf.sprintf
          "reduction: symmetry (group order %d after crash-pattern and \
           detector equivariance; orbit representative = min fingerprint \
           lane, renamings hashconsed)"
          (List.length red.group) ]
  in
  let strategy_line =
    match workers with
    | None -> "strategy: dfs (single domain)"
    | Some k ->
      Printf.sprintf
        "strategy: frontier (workers=%d, %d roots/worker, deterministic merge)"
        k frontier
  in
  let store_line =
    match spill with
    | None ->
      "store: in-ram (fingerprint probe + exact key confirm, Hashing.Table \
       behind Store)"
    | Some dir -> Printf.sprintf "store: spill-to-disk under %s" dir
  in
  reduction_lines @ [ strategy_line; store_line ]

(* ---------- the cross-check oracle ---------- *)

type 'o comparison = {
  reduced : 'o report;
  unreduced : 'o report;
  identical : bool;
  node_factor : float;
}

let cross_check ?max_steps ?max_nodes ?max_violations ?(canon = true)
    ?(por = true) ?(por_lambda = true) ?view ?symmetry ?workers ?d_equal ?sink
    ?metrics ~pattern ~detector ~check algo =
  let reduced =
    run ?max_steps ?max_nodes ?max_violations ~canon ?view ~por ~por_lambda
      ?symmetry ?workers ?d_equal ?sink ?metrics ~pattern ~detector ~check algo
  in
  (* The naive side explores the full tree, but — when the reduced side
     quotients by symmetry — records its decision multisets through the
     same quotient, so the two sets are compared in the same coordinates. *)
  let unreduced =
    run ?max_steps ?max_nodes ?max_violations ~canon:false ~por:false
      ~por_lambda:false ?symmetry ~symmetry_mode:`Decisions_only ?d_equal ?sink
      ?metrics ~pattern ~detector ~check algo
  in
  {
    reduced;
    unreduced;
    identical =
      unreduced.complete && reduced.complete
      && List.equal String.equal unreduced.decision_states reduced.decision_states
      && List.length unreduced.violations = List.length reduced.violations;
    node_factor =
      float_of_int unreduced.nodes_explored
      /. float_of_int (Stdlib.max 1 reduced.nodes_explored);
  }

let agreement_check ~equal outputs =
  match outputs with
  | [] -> None
  | (p0, v0) :: rest -> (
    match List.find_opt (fun (_, v) -> not (equal v0 v)) rest with
    | None -> None
    | Some (p, _) ->
      Some
        (Format.asprintf "agreement: %a and %a decided differently" Pid.pp p0 Pid.pp p))

let validity_check ~n ~proposals ~equal outputs =
  let proposed = List.map proposals (Pid.all ~n) in
  match
    List.find_opt (fun (_, v) -> not (List.exists (equal v) proposed)) outputs
  with
  | None -> None
  | Some (p, _) ->
    Some (Format.asprintf "validity: %a decided a value nobody proposed" Pid.pp p)

let both a b outputs = match a outputs with Some r -> Some r | None -> b outputs
