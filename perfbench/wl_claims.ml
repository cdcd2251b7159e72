(* claims: every claim of the paper, executed — exactly [fdsim check]
   ([Theorems.all], n=5, trials=12, one worker, default seed 2002).  The
   product's headline verdict, dominated by long Runner runs (EXP-2a,
   EXP-4b) and the explorer grid (EXP-14).

   The workload seed is recorded but unused: the cost of [fdsim check]
   depends on its theorem seed far more than on the code (EXP-2a alone
   took 10.4 s at seed 2002, 20.0 s at seed 5 and 26.9 s at seed 1 on a
   2-vCPU VM), so a seed-driven pass would measure the seed.  The pass is
   the verdict a user gets from [fdsim check] with no arguments. *)

open Rlfd_core
open Workload

(* The metric id of each check, in [Theorems.all] order. *)
let checks =
  Theorems.
    [ ("exp-1a", lemma_4_1_totality); ("exp-1b", lemma_4_1_needs_realism);
      ("exp-2a", lemma_4_2_reduction); ("exp-2b", reduction_needs_totality);
      ("exp-3", prop_4_3_sufficiency); ("exp-4a", prop_5_1_trb);
      ("exp-4b", prop_5_1_reduction); ("exp-5", collapse_s_and_p);
      ("exp-7", marabout_solves_consensus);
      ("exp-7b", marabout_algorithm_unsound_realistically);
      ("exp-8", uniform_harder_than_consensus);
      ("exp-9", ev_strong_needs_majority); ("exp-10", abcast_equivalence);
      ("exp-11", membership_emulates_p); ("exp-13", nbac_with_p);
      ("exp-14", exhaustive_small_scope) ]

let check_outcomes outcomes () =
  let failures =
    List.filter_map
      (fun o ->
        if o.Theorems.pass then None
        else Some (Printf.sprintf "%s failed: %s" o.Theorems.id o.Theorems.observed))
      outcomes
  in
  { attempted = List.length checks;
    failures =
      expect "claims checked" ~got:(List.length outcomes)
        ~want:(List.length checks)
      @ failures }

(* The run's input: the theorem config, and the outcomes of its first
   untraced pass, which every later pass must reproduce exactly. *)
type input = {
  cfg : Theorems.config;
  reference : Theorems.outcome list option ref;
}

let setup ~seed:_ ~tmp:_ =
  { cfg = { Theorems.default_config with n = 5; trials = 12; workers = 1 };
    reference = ref None }

(* Every claim's outcome, observed text included, equals the reference
   run's; the first call makes [outcomes] the reference. *)
let same_as_reference i outcomes =
  match !(i.reference) with
  | None ->
    i.reference := Some outcomes;
    []
  | Some r when r = outcomes -> []
  | Some r when List.length r <> List.length outcomes ->
    [ "a different number of outcomes from Theorems.all's" ]
  | Some r ->
    let differ =
      List.filter_map
        (fun (a, b) -> if a = b then None else Some a.Theorems.id)
        (List.combine r outcomes)
    in
    [ Printf.sprintf "outcomes differ from Theorems.all's: %s"
        (String.concat ", " differ) ]

let pass i =
  let outcomes = Theorems.all i.cfg in
  fun () ->
    let c = check_outcomes outcomes () in
    { attempted = c.attempted + 1;
      failures = c.failures @ same_as_reference i outcomes }

(* The traced pass makes the 16 calls of [Theorems.all] one by one, each
   in its own span.  Its outcomes must equal those of the run's untraced
   [Theorems.all] passes field for field, so the 16 spans time exactly
   the work of [fdsim check].  The campaign-backed sweeps report through
   the config timeline, so the engine jobs they run are counted without
   touching the theorems. *)
let traced i =
  let timeline =
    Rlfd_obs.Timeline.create ~capacity:(1 lsl 16) ~label:"claims" ()
  in
  let cfg = { i.cfg with Theorems.timeline } in
  let timed =
    Spans.span "theorems" (fun () ->
        List.map
          (fun (id, f) ->
            let o, s = Spans.timed ("theorems." ^ id) (fun () -> f cfg) in
            (id, s, o))
          checks)
  in
  fun () ->
    let outcomes = List.map (fun (_, _, o) -> o) timed in
    let jobs, job_s, dropped = timeline_spans timeline "job" in
    let metrics =
      List.map (fun (id, s, _) -> (Printf.sprintf "theorems.%s_s" id, s)) timed
      @ [ ("theorems.engine_jobs", float_of_int jobs);
          ("theorems.engine_job_s", job_s) ]
    in
    let check =
      let c = check_outcomes outcomes () in
      { attempted = c.attempted + 2;
        failures =
          c.failures
          @ expect "timeline records dropped" ~got:dropped ~want:0
          @
          if !(i.reference) = None then [ "no untraced pass to compare with" ]
          else same_as_reference i outcomes }
    in
    (metrics, check)

let workload =
  { name = "claims"; setup; pass; traced;
    verify = (fun _ -> ok 0); rates = (fun _ -> []) }
