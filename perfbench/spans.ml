(* The benchmark's own tracing.  Spans are recorded around the calls the
   benchmark makes into each layer — never inside the libraries — and kept
   in memory until [write] dumps them once, at the end of the run.

   Two kinds of record:
   - a span for each coarse call (a theorem, an explorer scope, a QoS
     scope, one Runner.run), recorded on a per-domain [Rlfd_obs.Timeline]
     recorder with the pass id as its tag;
   - a tally (call count, total seconds) for calls too frequent to log one
     by one: automaton steps, detector queries.  A tally is the aggregate
     of child spans that were never materialised; it is per-domain,
     registered under one mutex on first use and summed after the domains
     quiesce. *)

module Timeline = Rlfd_obs.Timeline

let now = Rlfd_obs.Profile.now

(* The collector of the traced passes; [Timeline.null] (every span a
   no-op) while tracing is off. *)
let current = Atomic.make Timeline.null

let pass_id = Atomic.make 0

let set_pass p = Atomic.set pass_id p

let main_label = "main"

(* Each domain's recorder on the current collector, registered on the
   domain's first span under that collector. *)
let recorder_key =
  Domain.DLS.new_key (fun () -> ref (Timeline.null, Timeline.null_recorder))

let recorder () =
  let t = Atomic.get current in
  let cell = Domain.DLS.get recorder_key in
  if fst !cell == t then snd !cell
  else begin
    let label =
      if Domain.is_main_domain () then main_label
      else Printf.sprintf "domain-%d" (Domain.self () :> int)
    in
    let r = Timeline.recorder t label in
    cell := (t, r);
    r
  end

let start () =
  Atomic.set current
    (Timeline.create ~capacity:(1 lsl 16) ~label:"perfbench" ())

(* Stop tracing; returns the collector of the traced passes. *)
let stop () = Atomic.exchange current Timeline.null

(* [timed name f] runs [f] inside a span named [name] (when tracing is
   on) and also returns its duration. *)
let timed name f =
  let t0 = now () in
  let r = Timeline.span (recorder ()) ~tag:(Atomic.get pass_id) name f in
  (r, now () -. t0)

let span name f = Timeline.span (recorder ()) ~tag:(Atomic.get pass_id) name f

(* One line per span: id, parent, pass, domain, name, start, end (seconds
   since tracing started).  The timeline keeps depth rather than parent
   ids, so parents are derived here: a span's parent is the latest span
   one level up on the same domain (spans come sorted by start, then
   depth).  A helper domain's outermost spans hang from the main domain's
   outermost span that contains them — the pass they ran in. *)
let write path t =
  let a = Timeline.merge t in
  let main, helpers =
    List.partition
      (fun d -> d.Timeline.dom_label = main_label)
      a.Timeline.a_domains
  in
  let next = ref 0 in
  let roots = ref [] in
  let oc = open_out path in
  let domain_spans ~root_parent d =
    let open_at = Array.make 65 0 in
    List.iter
      (fun s ->
        incr next;
        let id = !next and depth = s.Timeline.sp_depth in
        let t1 = s.Timeline.sp_t0 +. s.Timeline.sp_dur in
        let parent = if depth = 0 then root_parent s else open_at.(depth - 1) in
        open_at.(depth) <- id;
        if d.Timeline.dom_label = main_label && depth = 0 then
          roots := (id, s.Timeline.sp_t0, t1) :: !roots;
        Printf.fprintf oc
          "{\"id\":%d,\"parent\":%d,\"pass\":%d,\"domain\":%S,\"name\":%S,\
           \"start\":%.9f,\"end\":%.9f}\n"
          id parent s.Timeline.sp_tag d.Timeline.dom_label s.Timeline.sp_name
          s.Timeline.sp_t0 t1)
      d.Timeline.dom_spans
  in
  List.iter (domain_spans ~root_parent:(fun _ -> 0)) main;
  let enclosing s =
    let t1 = s.Timeline.sp_t0 +. s.Timeline.sp_dur in
    match
      List.find_opt
        (fun (_, r0, r1) -> r0 <= s.Timeline.sp_t0 && t1 <= r1)
        !roots
    with
    | Some (id, _, _) -> id
    | None -> 0
  in
  List.iter (domain_spans ~root_parent:enclosing) helpers;
  close_out oc;
  a.Timeline.a_dropped

(* ---- tallies ---- *)

let mutex = Mutex.create ()

type cell = { mutable calls : int; mutable secs : float }

type tally = { key : cell Domain.DLS.key; cells : cell list ref }

let tally () =
  let cells = ref [] in
  let key =
    Domain.DLS.new_key (fun () ->
        let c = { calls = 0; secs = 0. } in
        Mutex.protect mutex (fun () -> cells := c :: !cells);
        c)
  in
  { key; cells }

let add t dt =
  let c = Domain.DLS.get t.key in
  c.calls <- c.calls + 1;
  c.secs <- c.secs +. dt

let clock t f =
  let t0 = now () in
  let r = f () in
  add t (now () -. t0);
  r

(* Read (and zero) every domain's cell.  Call only while no domain is
   adding — between passes. *)
let drain t =
  Mutex.protect mutex (fun () ->
      List.fold_left
        (fun (n, s) c ->
          let r = (n + c.calls, s +. c.secs) in
          c.calls <- 0;
          c.secs <- 0.;
          r)
        (0, 0.) !(t.cells))
