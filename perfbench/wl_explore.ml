(* explore: three exhaustive ct-strong + P scopes, each stressing a
   different explorer phase; no Runner, no network.  The trees are
   exhaustive, so the workload seed is recorded but changes nothing.

   - naive: n=3, crash p1@2, depth 10, no reduction — expand only;
   - store: n=5, crash p1@2, depth 9, canon+por+lambda — encode and
     confirm against a visited store far larger than the caches;
   - orbit: n=5, failure-free, depth 11, full stack with symmetry — hash
     and encode of orbit representatives over 5! renamings. *)

open Rlfd_kernel
open Rlfd_fd
open Rlfd_sim
open Rlfd_algo
open Workload

let proposals p = 10 + Pid.to_int p

type scope = {
  label : string;
  run :
    ?attribution:(string * float) list ref -> unit -> int Explore.report;
  (* expected nodes, distinct states, violations *)
  want : int * int * int;
}

let scope ~label ~n ~crashes ~depth ~reduce ~symmetric ~want =
  let pattern =
    Pattern.make ~n
      (List.map (fun (p, t) -> (Pid.of_int p, Time.of_int t)) crashes)
  in
  let check =
    Explore.both
      (Explore.agreement_check ~equal:Int.equal)
      (Explore.validity_check ~n ~proposals ~equal:Int.equal)
  in
  let symmetry =
    if symmetric then
      Some
        { Explore.renamer = Ct_strong.renamer;
          value_map =
            (fun pi -> Symmetry.value_map_of_proposals ~n ~proposals pi);
          d_rename = Symmetry.rename_set }
    else None
  in
  let automaton = Ct_strong.automaton ~proposals in
  let run ?attribution () =
    Explore.run ?attribution ~max_steps:depth ~max_nodes:10_000_000
      ~canon:reduce ~por:reduce ~por_lambda:reduce ?symmetry
      ~d_equal:Pid.Set.equal ~pattern ~detector:Perfect.canonical ~check
      automaton
  in
  { label; run; want }

let setup ~seed:_ ~tmp:_ =
  [ scope ~label:"naive" ~n:3 ~crashes:[ (1, 2) ] ~depth:10 ~reduce:false
      ~symmetric:false ~want:(3_167_405, 3_167_405, 0);
    scope ~label:"store" ~n:5 ~crashes:[ (1, 2) ] ~depth:9 ~reduce:true
      ~symmetric:false ~want:(253_101, 172_495, 0);
    scope ~label:"orbit" ~n:5 ~crashes:[] ~depth:11 ~reduce:true
      ~symmetric:true ~want:(30_280, 7_619, 0) ]

let check_report s (r : int Explore.report) =
  let nodes, distinct, violations = s.want in
  { attempted = 4;
    failures =
      expect (s.label ^ " nodes") ~got:r.Explore.nodes_explored ~want:nodes
      @ expect (s.label ^ " distinct") ~got:r.Explore.distinct_states
          ~want:distinct
      @ expect (s.label ^ " violations")
          ~got:(List.length r.Explore.violations) ~want:violations
      @ if r.Explore.complete then [] else [ s.label ^ " incomplete" ] }

let checks results () =
  List.fold_left (fun acc (s, r) -> acc ++ check_report s r) (ok 0) results

let pass scopes =
  checks (List.map (fun s -> (s, s.run ())) scopes)

let traced scopes =
  let results =
    List.map
      (fun s ->
        let attribution = ref [] in
        let r, secs =
          Spans.timed ("explore." ^ s.label) (s.run ~attribution)
        in
        (s, r, secs, !attribution))
      scopes
  in
  fun () ->
    let metrics =
      List.concat_map
        (fun (s, r, secs, attribution) ->
          let m k v = (Printf.sprintf "explore.%s.%s" s.label k, v) in
          let i = float_of_int in
          let phase k = Option.value ~default:0. (List.assoc_opt k attribution) in
          [ m "nodes" (i r.Explore.nodes_explored);
            m "distinct" (i r.Explore.distinct_states);
            m "distinct_ratio"
              (i r.Explore.distinct_states /. i r.Explore.nodes_explored);
            m "nodes_per_s" (i r.Explore.nodes_explored /. secs);
            m "deduped" (i r.Explore.deduped);
            m "por_pruned" (i r.Explore.por_pruned) ]
          @ List.map
              (fun k -> m k (phase k))
              [ "expand_s"; "hash_s"; "encode_s"; "confirm_s" ])
        results
    in
    (metrics, checks (List.map (fun (s, r, _, _) -> (s, r)) results) ())

let workload =
  { name = "explore"; setup; pass; traced;
    verify = (fun _ -> ok 0); rates = (fun _ -> []) }
