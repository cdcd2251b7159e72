(* Host calibration: how much compute the host really delivers, recorded
   beside every result so campaign numbers read against measured capacity
   rather than Domain.recommended_domain_count.  Metadata only — never a
   gated metric.

   - spin rate: iterations per second of a tight integer loop on one
     domain;
   - 2-domain efficiency: the same loop run on two domains at once, as
     single-domain time / two-domain wall time (1.0 = two full cores,
     0.5 = no parallelism at all). *)

let spin iters =
  let x = ref 0 in
  for i = 1 to iters do
    x := ((!x * 31) + i) land 0xFFFFFF
  done;
  ignore (Sys.opaque_identity !x)

let time f =
  let t0 = Spans.now () in
  f ();
  Spans.now () -. t0

let median l =
  let a = Array.of_list (List.sort compare l) in
  let k = Array.length a in
  if k mod 2 = 1 then a.(k / 2) else (a.((k / 2) - 1) +. a.(k / 2)) /. 2.

let run () =
  (* size the loop to ~40 ms on this host *)
  let probe = 1 lsl 20 in
  let t = time (fun () -> spin probe) in
  let iters = Stdlib.max probe (int_of_float (float_of_int probe *. 0.04 /. t)) in
  let one () = time (fun () -> spin iters) in
  let two () =
    time (fun () ->
        let d = Domain.spawn (fun () -> spin iters) in
        spin iters;
        Domain.join d)
  in
  let singles = List.init 3 (fun _ -> one ()) in
  let pairs = List.init 3 (fun _ -> two ()) in
  let t1 = median singles in
  [ ("spin_rate_per_s", float_of_int iters /. t1);
    ("parallel_efficiency_2", t1 /. median pairs);
    ("recommended_domains", float_of_int (Domain.recommended_domain_count ())) ]
