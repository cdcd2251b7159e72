(* What every workload provides to the benchmark program.

   A workload's input is built by [setup] from the seed; a workload that
   writes files makes its own fresh directory under [tmp], a private
   directory the program owns and removes.  The input is then timed over
   whole passes.  [pass] does the timed work and returns the output
   check as a closure, so verifying outputs never lands inside the timed
   region.  [traced] is the same pass with the benchmark's spans and
   tallies around each layer call; its closure also returns the per-layer
   metrics, so reading timelines stays out of the timed region too.
   [verify] runs once after all passes, for checks too costly to repeat
   (a reference run, a checkpoint reload). *)

(* Microseconds of busy-waiting added to every campaign job: the
   injected regression the self-test uses to prove the gate fires on the
   slowed workload only.  Zero in every real run. *)
let injected_slowdown_us = ref 0

type check = { attempted : int; failures : string list }

let ok n = { attempted = n; failures = [] }

let expect what ~got ~want =
  if got = want then []
  else [ Printf.sprintf "%s: got %d, want %d" what got want ]

let ( ++ ) a b =
  { attempted = a.attempted + b.attempted; failures = a.failures @ b.failures }

type 'i t = {
  name : string;
  setup : seed:int -> tmp:string -> 'i;
  pass : 'i -> unit -> check;
  traced : 'i -> unit -> (string * float) list * check;
  verify : 'i -> check;
  rates : 'i -> (string * float) list;
      (** work units of one pass, by the name of their per-second rate *)
}

type packed = W : 'i t -> packed

(* Count, total duration and dropped records of the spans named [name]
   across every recorder of an engine timeline. *)
let timeline_spans timeline name =
  let a = Rlfd_obs.Timeline.merge timeline in
  List.fold_left
    (fun (n, total, dropped) d ->
      List.fold_left
        (fun (n, total, dropped) s ->
          if s.Rlfd_obs.Timeline.sp_name = name then
            (n + 1, total +. s.Rlfd_obs.Timeline.sp_dur, dropped)
          else (n, total, dropped))
        (n, total, dropped + d.Rlfd_obs.Timeline.dom_dropped)
        d.Rlfd_obs.Timeline.dom_spans)
    (0, 0., 0) a.Rlfd_obs.Timeline.a_domains
