(* The benchmark program: one process, one workload, one seed.

     perfbench.exe --workload W --seed S --seconds T --trace 0|1

   Set-up — the workload's input generation — is timed once and again in
   a burst before every pass (median reported); whole passes over the
   workload's fixed input are timed while another pass still fits in [T]
   seconds (at least two passes; median reported), every pass's outputs
   are checked, and the last line of standard output is one JSON object
   with the counts of checks attempted and failed, the metrics and the
   host calibration.  With [--trace 1] half the time goes to untraced passes
   and half to traced ones, whose spans are written to one file at the
   end; the metrics are then the per-layer ones plus the tracing
   overhead. *)

open Workload

let workloads =
  [ W Wl_claims.workload; W Wl_explore.workload; W Wl_qos.workload;
    W Wl_campaign.workload ]

let setup_burst = 5

let setup_batch_s = 0.025

let median = Probe.median

let usage () =
  prerr_endline
    "usage: perfbench.exe --workload claims|explore|qos|campaign --seed N \
     --seconds T --trace 0|1 [--spans FILE] [--inject-slowdown-us U]";
  exit 2

let parse () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec go acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      go ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let kv = go [] args in
  let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some v -> v | None -> usage () in
  let workload = get "workload" in
  let seed = int "seed" and seconds = int "seconds" and trace = int "trace" in
  let spans = List.assoc_opt "spans" kv in
  let slowdown =
    Option.value ~default:0
      (Option.bind (List.assoc_opt "inject-slowdown-us" kv) int_of_string_opt)
  in
  if seconds < 1 || (trace <> 0 && trace <> 1) then usage ();
  (workload, seed, seconds, trace = 1, spans, slowdown)

let log fmt = Printf.ksprintf prerr_endline fmt

(* The process's peak resident memory so far (VmHWM), in MiB. *)
let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec find () =
        match In_channel.input_line ic with
        | None -> failwith "no VmHWM in /proc/self/status"
        | Some l when String.starts_with ~prefix:"VmHWM:" l ->
          Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        | Some _ -> find ()
      in
      find ())

(* Time [pass] repeatedly, at least [min_passes] times and then for as
   long as the next pass, if it lasts as long as the last one, still ends
   within [budget] seconds of the start; [before] runs ahead of each.
   Each call does the timed work and returns a closure giving its result
   and check, run after the clock stops.  Returns the per-pass wall
   times, the per-pass results, the merged check, and the peak resident
   memory after the first pass: the heap does not shrink between passes,
   so the peak at the end of the run would grow with the number of passes
   that fit in [budget]. *)
let timed_passes ~min_passes ~budget ~label ~before pass =
  let start = Spans.now () in
  let peak = ref 0. in
  let rec loop k walls results check =
    let fits =
      match walls with
      | last :: _ -> Spans.now () -. start +. last <= budget
      | [] -> true
    in
    if k >= min_passes && not fits then
      (List.rev walls, List.rev results, check, !peak)
    else begin
      before ();
      Gc.compact ();
      Spans.set_pass k;
      let t0 = Spans.now () in
      let deferred = pass () in
      let wall = Spans.now () -. t0 in
      if k = 0 then peak := peak_rss_mb ();
      let result, c = deferred () in
      log "  %s pass %d: %.4f s, %d checks, %d failed" label (k + 1) wall
        c.attempted (List.length c.failures);
      loop (k + 1) (wall :: walls) (result :: results) (check ++ c)
    end
  in
  loop 0 [] [] (ok 0)

let rec remove_tree path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let run (W w) ~seed ~seconds ~trace ~spans ~root =
  let calibration = Probe.run () in
  (* The first set-up's input serves every pass.  Before each pass a
     burst of [setup_burst] batches of set-ups is timed and thrown away
     (the pass's own compaction reclaims them), so the median samples the
     host over the whole run, not one instant of it.  A batch repeats
     set-up until it lasts [setup_batch_s], so a set-up of a few
     nanoseconds still reads well above the clock's resolution.  The
     first 10-20 ms of set-ups after a pass run up to five times slower
     (qos); at 25 ms a batch holds all of that, so it slows one batch of
     a burst, not two or three, and the median stays with the others. *)
  let times = ref [] in
  let batch k =
    let t0 = Spans.now () in
    for _ = 1 to k do
      ignore (Sys.opaque_identity (w.setup ~seed ~tmp:root))
    done;
    (Spans.now () -. t0) /. float_of_int k
  in
  let rec size k =
    if batch k *. float_of_int k >= setup_batch_s then k else size (2 * k)
  in
  let t0 = Spans.now () in
  let inputs = w.setup ~seed ~tmp:root in
  times := [ Spans.now () -. t0 ];
  let k = size 1 in
  let burst () =
    for _ = 1 to setup_burst do
      times := batch k :: !times
    done
  in
  let untraced ~min_passes budget =
    timed_passes ~min_passes ~budget ~label:"untraced" ~before:burst (fun () ->
        let check = w.pass inputs in
        fun () -> ((), check ()))
  in
  let rates walls =
    List.map (fun (k, units) -> (k, units /. median walls)) (w.rates inputs)
  in
  let metrics, rates, check =
    if not trace then begin
      let walls, _, check, peak =
        untraced ~min_passes:2 (float_of_int seconds)
      in
      let times = List.rev !times in
      log "  set-up: %s s"
        (String.concat ", " (List.map (Printf.sprintf "%.4g") times));
      ( [ ("wall_s", median walls); ("setup_s", median times);
          ("peak_rss_mb", peak) ],
        rates walls,
        check )
    end
    else begin
      let half = float_of_int seconds /. 2. in
      let walls, _, check, _ = untraced ~min_passes:1 half in
      let untraced_wall = median walls in
      Spans.start ();
      let traced_walls, layers, tcheck, _ =
        timed_passes ~min_passes:1 ~budget:half ~label:"traced" ~before:burst
          (fun () -> w.traced inputs)
      in
      let timeline = Spans.stop () in
      (match spans with
       | Some path ->
         let dropped = Spans.write path timeline in
         if dropped > 0 then
           log "  spans: the oldest %d spans were overwritten in memory" dropped
       | None -> ());
      (* the per-layer figures of the median traced pass *)
      let traced_wall = median traced_walls in
      let _, layer =
        List.combine traced_walls layers
        |> List.sort (fun (a, _) (b, _) -> compare a b)
        |> fun l -> List.nth l (List.length l / 2)
      in
      ( layer
        @ [ ("trace.untraced_wall_s", untraced_wall);
            ("trace.traced_wall_s", traced_wall);
            ("trace.overhead_s", traced_wall -. untraced_wall) ],
        rates walls,
        check ++ tcheck )
    end
  in
  let check = check ++ w.verify inputs in
  List.iter (fun f -> log "  check failed: %s" f) check.failures;
  let open Rlfd_obs.Json in
  let num l = Obj (List.map (fun (k, v) -> (k, Float v)) l) in
  print_endline
    (to_string
       (Obj
          [ ("correct", Bool (check.failures = []));
            ("attempted", Int check.attempted);
            ("failed", Int (List.length check.failures));
            ("metrics", num metrics); ("rates", num rates);
            ("calibration", num calibration) ]))

let () =
  let name, seed, seconds, trace, spans, slowdown = parse () in
  injected_slowdown_us := slowdown;
  match List.find_opt (fun (W w) -> w.name = name) workloads with
  | None -> usage ()
  | Some w ->
    (* the run's temporary directories, inside the working tree *)
    if not (Sys.file_exists ".perfbench") then Sys.mkdir ".perfbench" 0o755;
    let root = Printf.sprintf ".perfbench/tmp-%d" (Unix.getpid ()) in
    Sys.mkdir root 0o755;
    Fun.protect
      ~finally:(fun () -> remove_tree root)
      (fun () -> run w ~seed ~seconds ~trace ~spans ~root)
