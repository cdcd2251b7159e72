open Rlfd_kernel
open Helpers

(* ---------- Pid ---------- *)

let pid_tests =
  [
    test "of_int/to_int roundtrip" (fun () ->
        Alcotest.(check int) "p7" 7 (Pid.to_int (pid 7)));
    test "of_int rejects zero" (fun () ->
        Alcotest.check_raises "0 invalid"
          (Invalid_argument "Pid.of_int: process indices are 1-based") (fun () ->
            ignore (pid 0)));
    test "all ~n lists 1..n" (fun () ->
        Alcotest.(check (list int)) "1..4" [ 1; 2; 3; 4 ]
          (List.map Pid.to_int (Pid.all ~n:4)));
    test "all rejects n=0" (fun () ->
        Alcotest.check_raises "n=0" (Invalid_argument "Pid.all: n must be positive")
          (fun () -> ignore (Pid.all ~n:0)));
    test "lower_than" (fun () ->
        Alcotest.(check (list int)) "below p3" [ 1; 2 ]
          (List.map Pid.to_int (Pid.lower_than (pid 3))));
    test "lower_than p1 is empty" (fun () ->
        Alcotest.(check (list int)) "below p1" [] (List.map Pid.to_int (Pid.lower_than (pid 1))));
    test "ordering is index order" (fun () ->
        Alcotest.(check bool) "p2 < p10" true (Pid.compare (pid 2) (pid 10) < 0));
    test "universe" (fun () ->
        Alcotest.(check int) "5 processes" 5 (Pid.Set.cardinal (Pid.universe ~n:5)));
    test "set pretty-printing" (fun () ->
        Alcotest.(check string) "render" "{p1,p3}"
          (Format.asprintf "%a" Pid.Set.pp (Pid.Set.of_ints [ 3; 1 ])));
  ]

(* ---------- Time ---------- *)

let time_tests =
  [
    test "zero and succ" (fun () ->
        Alcotest.(check int) "succ zero" 1 (Time.to_int (Time.succ Time.zero)));
    test "of_int rejects negatives" (fun () ->
        Alcotest.check_raises "negative"
          (Invalid_argument "Time.of_int: time is a natural number") (fun () ->
            ignore (time (-1))));
    test "add" (fun () -> Alcotest.(check int) "3+4" 7 (Time.to_int (Time.add (time 3) 4)));
    test "comparisons" (fun () ->
        Alcotest.(check bool) "3 < 4" true Time.(time 3 < time 4);
        Alcotest.(check bool) "4 <= 4" true Time.(time 4 <= time 4);
        Alcotest.(check bool) "5 > 4" true Time.(time 5 > time 4));
    test "range inclusive" (fun () ->
        Alcotest.(check (list int)) "2..5" [ 2; 3; 4; 5 ]
          (List.map Time.to_int (Time.range (time 2) (time 5))));
    test "range empty when reversed" (fun () ->
        Alcotest.(check int) "empty" 0 (List.length (Time.range (time 5) (time 2))));
  ]

(* ---------- Rng ---------- *)

let rng_tests =
  [
    test "deterministic from seed" (fun () ->
        let a = Rng.make 42 and b = Rng.make 42 in
        let xs = List.init 20 (fun _ -> Rng.int a 1000) in
        let ys = List.init 20 (fun _ -> Rng.int b 1000) in
        Alcotest.(check (list int)) "same stream" xs ys);
    test "different seeds differ" (fun () ->
        let a = Rng.make 1 and b = Rng.make 2 in
        let xs = List.init 20 (fun _ -> Rng.int a 1_000_000) in
        let ys = List.init 20 (fun _ -> Rng.int b 1_000_000) in
        Alcotest.(check bool) "streams differ" false (xs = ys));
    test "split is independent of parent draws" (fun () ->
        let parent = Rng.make 7 in
        let child1 = Rng.split parent 1 in
        ignore (Rng.int parent 10);
        (* splitting depends only on state at split time; re-split from a
           fresh generator with same history must agree *)
        let parent2 = Rng.make 7 in
        let child2 = Rng.split parent2 1 in
        Alcotest.(check int) "same child stream" (Rng.int child1 1_000_000)
          (Rng.int child2 1_000_000));
    test "derive is pure" (fun () ->
        let a = Rng.derive ~seed:9 ~salts:[ 1; 2; 3 ] in
        let b = Rng.derive ~seed:9 ~salts:[ 1; 2; 3 ] in
        Alcotest.(check int) "equal" (Rng.int a 1_000_000) (Rng.int b 1_000_000));
    test "int rejects non-positive bound" (fun () ->
        Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive")
          (fun () -> ignore (Rng.int (Rng.make 1) 0)));
    test "pick rejects empty" (fun () ->
        Alcotest.check_raises "empty" (Invalid_argument "Rng.pick: empty list") (fun () ->
            ignore (Rng.pick (Rng.make 1) ([] : int list))));
    qtest "int stays in bounds"
      QCheck.(pair small_int (int_range 1 1000))
      (fun (seed, bound) ->
        let g = Rng.make seed in
        let v = Rng.int g bound in
        v >= 0 && v < bound);
    qtest "int_in stays in interval"
      QCheck.(triple small_int (int_range 0 100) (int_range 0 100))
      (fun (seed, a, b) ->
        let lo = min a b and hi = max a b in
        let v = Rng.int_in (Rng.make seed) lo hi in
        v >= lo && v <= hi);
    qtest "float stays in bounds" QCheck.small_int (fun seed ->
        let v = Rng.float (Rng.make seed) 1.0 in
        v >= 0.0 && v < 1.0);
    qtest "shuffle is a permutation" QCheck.(pair small_int (list small_int))
      (fun (seed, xs) ->
        let shuffled = Rng.shuffle (Rng.make seed) xs in
        List.sort compare shuffled = List.sort compare xs);
    qtest "subset is a sublist" QCheck.(pair small_int (list small_int))
      (fun (seed, xs) ->
        let sub = Rng.subset (Rng.make seed) ~p:0.5 xs in
        List.for_all (fun x -> List.mem x xs) sub);
    test "of_path is pure and distinct per path" (fun () ->
        let a = Rng.of_path ~seed:9 [ 4; 2 ] in
        let b = Rng.of_path ~seed:9 [ 4; 2 ] in
        Alcotest.(check int) "equal streams" (Rng.int a 1_000_000) (Rng.int b 1_000_000);
        let c = Rng.of_path ~seed:9 [ 4; 3 ] in
        let d = Rng.of_path ~seed:9 [ 4; 2 ] in
        Alcotest.(check bool) "sibling paths differ" false
          (List.init 8 (fun _ -> Rng.int c 1_000_000)
          = List.init 8 (fun _ -> Rng.int d 1_000_000)));
    test "of_path sibling streams don't correlate" (fun () ->
        (* Pearson correlation of consecutive sibling job streams: the
           campaign engine derives job i's stream as of_path [i], so
           neighbouring jobs must look independent. *)
        let draws g = List.init 1_000 (fun _ -> Rng.float g 1.0) in
        let correlation xs ys =
          let mx = Stats.mean xs and my = Stats.mean ys in
          let cov =
            List.fold_left2 (fun acc x y -> acc +. ((x -. mx) *. (y -. my))) 0. xs ys
            /. float_of_int (List.length xs)
          in
          cov /. (Stats.stddev xs *. Stats.stddev ys)
        in
        List.iter
          (fun i ->
            let r =
              correlation
                (draws (Rng.of_path ~seed:2002 [ i ]))
                (draws (Rng.of_path ~seed:2002 [ i + 1 ]))
            in
            Alcotest.(check bool)
              (Format.asprintf "|corr(job %d, job %d)| = %.3f < 0.1" i (i + 1)
                 (Float.abs r))
              true
              (Float.abs r < 0.1))
          [ 0; 1; 2; 3; 4 ]);
    test "of_path first draws are uniform across siblings" (fun () ->
        let buckets = Array.make 10 0 in
        for i = 0 to 1_999 do
          let v = Rng.int (Rng.of_path ~seed:7 [ i ]) 10 in
          buckets.(v) <- buckets.(v) + 1
        done;
        Array.iter
          (fun c ->
            Alcotest.(check bool)
              (Format.asprintf "bucket count %d in [140,260]" c)
              true (c > 140 && c < 260))
          buckets);
    test "int is roughly uniform" (fun () ->
        let g = Rng.make 123 in
        let buckets = Array.make 10 0 in
        for _ = 1 to 10_000 do
          let v = Rng.int g 10 in
          buckets.(v) <- buckets.(v) + 1
        done;
        Array.iter
          (fun c ->
            Alcotest.(check bool)
              (Format.asprintf "bucket count %d in [800,1200]" c)
              true
              (c > 800 && c < 1200))
          buckets);
    test "exponential has the requested mean" (fun () ->
        let g = Rng.make 5 in
        let samples = List.init 20_000 (fun _ -> Rng.exponential g ~mean:10.0) in
        let mean = Stats.mean samples in
        Alcotest.(check bool)
          (Format.asprintf "mean %.2f near 10" mean)
          true
          (mean > 9.0 && mean < 11.0));
  ]

(* ---------- Pqueue ---------- *)

(* The binary heap of boxed (priority, sequence number, value) entries
   [Pqueue] used to be: the reference model the bucketed queue must match
   in every pop, peek, length and snapshot. *)
module Ref_pqueue = struct
  type 'a entry = { prio : int; seq : int; value : 'a }

  type 'a t = {
    mutable heap : 'a entry array;
    mutable size : int;
    mutable next_seq : int;
  }

  let create () = { heap = [||]; size = 0; next_seq = 0 }

  let length q = q.size

  let less a b = a.prio < b.prio || (a.prio = b.prio && a.seq < b.seq)

  let swap q i j =
    let tmp = q.heap.(i) in
    q.heap.(i) <- q.heap.(j);
    q.heap.(j) <- tmp

  let rec sift_up q i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      if less q.heap.(i) q.heap.(parent) then begin
        swap q i parent;
        sift_up q parent
      end
    end

  let rec sift_down q i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let smallest = ref i in
    if l < q.size && less q.heap.(l) q.heap.(!smallest) then smallest := l;
    if r < q.size && less q.heap.(r) q.heap.(!smallest) then smallest := r;
    if !smallest <> i then begin
      swap q i !smallest;
      sift_down q !smallest
    end

  let add q ~prio value =
    let entry = { prio; seq = q.next_seq; value } in
    q.next_seq <- q.next_seq + 1;
    let capacity = Array.length q.heap in
    if q.size = capacity then begin
      let fresh = Array.make (Stdlib.max 8 (2 * capacity)) entry in
      Array.blit q.heap 0 fresh 0 q.size;
      q.heap <- fresh
    end;
    q.heap.(q.size) <- entry;
    q.size <- q.size + 1;
    sift_up q (q.size - 1)

  let pop q =
    if q.size = 0 then None
    else begin
      let top = q.heap.(0) in
      q.size <- q.size - 1;
      if q.size > 0 then begin
        q.heap.(0) <- q.heap.(q.size);
        sift_down q 0
      end;
      Some (top.prio, top.value)
    end

  let peek q = if q.size = 0 then None else Some (q.heap.(0).prio, q.heap.(0).value)

  let clear q = q.size <- 0

  let to_list q =
    let copy = { heap = Array.sub q.heap 0 q.size; size = q.size; next_seq = q.next_seq } in
    let rec drain acc =
      match pop copy with None -> List.rev acc | Some x -> drain (x :: acc)
    in
    drain []
end

(* [Below k] adds at k under the reference's current minimum (at -k when
   empty), so priorities below everything pending are hit on purpose. *)
type pqueue_op =
  | Add of int
  | Below of int
  | Pop
  | Peek
  | Length
  | Clear
  | To_list

let pp_pqueue_op = function
  | Add p -> Printf.sprintf "add@%d" p
  | Below k -> Printf.sprintf "add@min-%d" k
  | Pop -> "pop"
  | Peek -> "peek"
  | Length -> "length"
  | Clear -> "clear"
  | To_list -> "to_list"

let arb_pqueue_ops prio =
  let open QCheck.Gen in
  let op =
    frequency
      [
        (16, map (fun p -> Add p) prio);
        (4, map (fun k -> Below k) (int_range 0 3));
        (12, return Pop);
        (4, return Peek);
        (2, return Length);
        (2, return To_list);
        (1, return Clear);
      ]
  in
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map pp_pqueue_op ops))
    ~shrink:QCheck.Shrink.list
    (list_size (int_bound 200) op)

(* heavy ties: a window of six priorities *)
let narrow_prios = QCheck.Gen.int_range 0 5

(* wide, mostly distinct, half of them negative *)
let wide_prios = QCheck.Gen.int_range (-1_000_000) 1_000_000

let pqueue_matches_reference ops =
  let q = Pqueue.create () and r = Ref_pqueue.create () in
  List.iteri
    (fun step op ->
      let ok =
        match op with
        | Add prio ->
          Pqueue.add q ~prio step;
          Ref_pqueue.add r ~prio step;
          true
        | Below k ->
          let prio = (match Ref_pqueue.peek r with Some (p, _) -> p | None -> 0) - k in
          Pqueue.add q ~prio step;
          Ref_pqueue.add r ~prio step;
          true
        | Pop -> Pqueue.pop q = Ref_pqueue.pop r
        | Peek -> Pqueue.peek q = Ref_pqueue.peek r
        | Length -> Pqueue.length q = Ref_pqueue.length r
        | Clear ->
          Pqueue.clear q;
          Ref_pqueue.clear r;
          true
        | To_list -> Pqueue.to_list q = Ref_pqueue.to_list r
      in
      if not (ok && Pqueue.length q = Ref_pqueue.length r) then
        QCheck.Test.fail_reportf "diverged at op %d (%s)" step (pp_pqueue_op op))
    ops;
  let rec drains_equal () =
    match (Pqueue.pop q, Ref_pqueue.pop r) with
    | None, None -> Pqueue.is_empty q
    | a, b -> a = b && drains_equal ()
  in
  drains_equal ()

let pqueue_tests =
  [
    test "pop empty" (fun () ->
        let q : int Pqueue.t = Pqueue.create () in
        Alcotest.(check bool) "none" true (Pqueue.pop q = None));
    test "min-first" (fun () ->
        let q = Pqueue.create () in
        List.iter (fun p -> Pqueue.add q ~prio:p p) [ 5; 1; 4; 2; 3 ];
        let order = List.init 5 (fun _ -> match Pqueue.pop q with Some (p, _) -> p | None -> -1) in
        Alcotest.(check (list int)) "sorted" [ 1; 2; 3; 4; 5 ] order);
    test "ties break by insertion order" (fun () ->
        let q = Pqueue.create () in
        List.iter (fun v -> Pqueue.add q ~prio:7 v) [ "a"; "b"; "c" ];
        let order =
          List.init 3 (fun _ -> match Pqueue.pop q with Some (_, v) -> v | None -> "?")
        in
        Alcotest.(check (list string)) "fifo" [ "a"; "b"; "c" ] order);
    test "peek does not remove" (fun () ->
        let q = Pqueue.create () in
        Pqueue.add q ~prio:3 "x";
        ignore (Pqueue.peek q);
        Alcotest.(check int) "still one" 1 (Pqueue.length q));
    test "to_list snapshot preserves queue" (fun () ->
        let q = Pqueue.create () in
        List.iter (fun p -> Pqueue.add q ~prio:p p) [ 3; 1; 2 ];
        let snapshot = List.map fst (Pqueue.to_list q) in
        Alcotest.(check (list int)) "snapshot sorted" [ 1; 2; 3 ] snapshot;
        Alcotest.(check int) "queue intact" 3 (Pqueue.length q));
    qtest "pops in sorted order" QCheck.(list (int_range 0 1000)) (fun prios ->
        let q = Pqueue.create () in
        List.iter (fun p -> Pqueue.add q ~prio:p p) prios;
        let rec drain acc =
          match Pqueue.pop q with None -> List.rev acc | Some (p, _) -> drain (p :: acc)
        in
        drain [] = List.sort compare prios);
    test "clear" (fun () ->
        let q = Pqueue.create () in
        Pqueue.add q ~prio:1 1;
        Pqueue.clear q;
        Alcotest.(check bool) "empty" true (Pqueue.is_empty q));
    qtest ~count:300 "matches the heap reference, heavy ties"
      (arb_pqueue_ops narrow_prios) pqueue_matches_reference;
    qtest ~count:300 "matches the heap reference, wide and negative priorities"
      (arb_pqueue_ops wide_prios) pqueue_matches_reference;
  ]

(* ---------- Vclock ---------- *)

let vclock_tests =
  [
    test "empty has zero everywhere" (fun () ->
        Alcotest.(check int) "zero" 0 (Vclock.get Vclock.empty (pid 3)));
    test "tick increments" (fun () ->
        let vc = Vclock.tick (Vclock.tick Vclock.empty (pid 2)) (pid 2) in
        Alcotest.(check int) "two" 2 (Vclock.get vc (pid 2)));
    test "merge takes max" (fun () ->
        let a = Vclock.tick (Vclock.tick Vclock.empty (pid 1)) (pid 1) in
        let b = Vclock.tick Vclock.empty (pid 2) in
        let m = Vclock.merge a b in
        Alcotest.(check int) "p1" 2 (Vclock.get m (pid 1));
        Alcotest.(check int) "p2" 1 (Vclock.get m (pid 2)));
    test "leq reflexive" (fun () ->
        let a = Vclock.tick Vclock.empty (pid 1) in
        Alcotest.(check bool) "a <= a" true (Vclock.leq a a));
    test "concurrent clocks" (fun () ->
        let a = Vclock.tick Vclock.empty (pid 1) in
        let b = Vclock.tick Vclock.empty (pid 2) in
        Alcotest.(check bool) "concurrent" true (Vclock.concurrent a b));
    test "merge dominates both" (fun () ->
        let a = Vclock.tick Vclock.empty (pid 1) in
        let b = Vclock.tick Vclock.empty (pid 2) in
        let m = Vclock.merge a b in
        Alcotest.(check bool) "a <= m" true (Vclock.leq a m);
        Alcotest.(check bool) "b <= m" true (Vclock.leq b m));
    qtest "merge is commutative" QCheck.(pair (list (int_range 1 6)) (list (int_range 1 6)))
      (fun (xs, ys) ->
        let clock = List.fold_left (fun vc i -> Vclock.tick vc (pid i)) Vclock.empty in
        let a = clock xs and b = clock ys in
        Vclock.equal (Vclock.merge a b) (Vclock.merge b a));
    qtest "merge is associative" QCheck.(triple (list (int_range 1 6)) (list (int_range 1 6)) (list (int_range 1 6)))
      (fun (xs, ys, zs) ->
        let clock = List.fold_left (fun vc i -> Vclock.tick vc (pid i)) Vclock.empty in
        let a = clock xs and b = clock ys and c = clock zs in
        Vclock.equal (Vclock.merge a (Vclock.merge b c)) (Vclock.merge (Vclock.merge a b) c));
    qtest "merge is idempotent" QCheck.(list (int_range 1 6)) (fun xs ->
        let a = List.fold_left (fun vc i -> Vclock.tick vc (pid i)) Vclock.empty xs in
        Vclock.equal (Vclock.merge a a) a);
    qtest "leq is antisymmetric up to equality" QCheck.(pair (list (int_range 1 6)) (list (int_range 1 6)))
      (fun (xs, ys) ->
        let clock = List.fold_left (fun vc i -> Vclock.tick vc (pid i)) Vclock.empty in
        let a = clock xs and b = clock ys in
        (not (Vclock.leq a b && Vclock.leq b a)) || Vclock.equal a b);
    test "support lists contributors" (fun () ->
        let vc = Vclock.merge (Vclock.singleton (pid 1)) (Vclock.singleton (pid 4)) in
        Alcotest.(check string) "support" "{p1,p4}"
          (Format.asprintf "%a" Pid.Set.pp (Vclock.support vc)));
  ]

(* ---------- Stats ---------- *)

let stats_tests =
  [
    test "mean of empty is 0" (fun () -> Alcotest.(check (float 1e-9)) "0" 0. (Stats.mean []));
    test "mean" (fun () ->
        Alcotest.(check (float 1e-9)) "2.5" 2.5 (Stats.mean [ 1.; 2.; 3.; 4. ]));
    test "stddev of constant is 0" (fun () ->
        Alcotest.(check (float 1e-9)) "0" 0. (Stats.stddev [ 5.; 5.; 5. ]));
    test "median" (fun () ->
        Alcotest.(check (float 1e-9)) "3" 3. (Stats.median [ 5.; 1.; 3.; 2.; 4. ]));
    test "percentile bounds" (fun () ->
        let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
        Alcotest.(check (float 1e-9)) "p99" 99. (Stats.percentile xs 0.99);
        Alcotest.(check (float 1e-9)) "p100" 100. (Stats.percentile xs 1.0));
    test "percentile rejects empty" (fun () ->
        Alcotest.check_raises "empty" (Invalid_argument "Stats.percentile: empty data")
          (fun () -> ignore (Stats.percentile [] 0.5)));
    test "min/max" (fun () ->
        Alcotest.(check (float 1e-9)) "min" 1. (Stats.minimum [ 3.; 1.; 2. ]);
        Alcotest.(check (float 1e-9)) "max" 3. (Stats.maximum [ 3.; 1.; 2. ]));
    test "histogram covers all samples" (fun () ->
        let xs = List.init 50 (fun i -> float_of_int i) in
        let hist = Stats.histogram ~buckets:5 xs in
        let total = List.fold_left (fun acc (_, _, c) -> acc + c) 0 hist in
        Alcotest.(check int) "total" 50 total);
    test "histogram of empty" (fun () ->
        Alcotest.(check int) "empty" 0 (List.length (Stats.histogram ~buckets:4 [])));
    test "histogram rejects non-positive buckets" (fun () ->
        Alcotest.check_raises "zero buckets"
          (Invalid_argument "Stats.histogram: buckets must be positive") (fun () ->
            ignore (Stats.histogram ~buckets:0 [ 1.; 2. ]));
        Alcotest.check_raises "negative buckets"
          (Invalid_argument "Stats.histogram: buckets must be positive") (fun () ->
            ignore (Stats.histogram ~buckets:(-3) [])));
    test "histogram of a single element" (fun () ->
        let hist = Stats.histogram ~buckets:3 [ 7. ] in
        Alcotest.(check int) "three buckets" 3 (List.length hist);
        let total = List.fold_left (fun acc (_, _, c) -> acc + c) 0 hist in
        Alcotest.(check int) "sample counted once" 1 total);
    test "count/sum on empty and singleton" (fun () ->
        Alcotest.(check int) "count []" 0 (Stats.count []);
        Alcotest.(check (float 1e-9)) "sum []" 0. (Stats.sum []);
        Alcotest.(check int) "count [x]" 1 (Stats.count [ 3. ]);
        Alcotest.(check (float 1e-9)) "sum [x]" 3. (Stats.sum [ 3. ]));
    test "sum" (fun () ->
        Alcotest.(check (float 1e-9)) "10" 10. (Stats.sum [ 1.; 2.; 3.; 4. ]));
    test "variance edges" (fun () ->
        Alcotest.(check (float 1e-9)) "variance []" 0. (Stats.variance []);
        Alcotest.(check (float 1e-9)) "variance [x]" 0. (Stats.variance [ 42. ]));
    test "variance is squared stddev" (fun () ->
        let xs = [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ] in
        Alcotest.(check (float 1e-9)) "consistent" (Stats.stddev xs ** 2.)
          (Stats.variance xs));
    qtest "variance is non-negative" QCheck.(list (float_bound_exclusive 100.))
      (fun xs -> Stats.variance xs >= 0.);
  ]

(* ---------- Table ---------- *)

let table_tests =
  [
    test "renders header and rows" (fun () ->
        let t = Table.create ~title:"demo" ~columns:[ "a"; "bb" ] in
        Table.add_row t [ "1"; "2" ];
        let s = Format.asprintf "%a" Table.pp t in
        Alcotest.(check bool) "has title" true
          (String.length s > 0 && String.sub s 0 2 = "==");
        Alcotest.(check bool) "mentions column" true
          (contains_substring ~needle:"bb" s));
    test "rejects ragged rows" (fun () ->
        let t = Table.create ~title:"x" ~columns:[ "a"; "b" ] in
        Alcotest.check_raises "ragged" (Invalid_argument "Table.add_row: row width mismatch")
          (fun () -> Table.add_row t [ "only-one" ]));
    test "cell helpers" (fun () ->
        Alcotest.(check string) "int" "42" (Table.cell_int 42);
        Alcotest.(check string) "float" "3.14" (Table.cell_float 3.14159);
        Alcotest.(check string) "bool" "yes" (Table.cell_bool true);
        Alcotest.(check string) "pct" "25.0%" (Table.cell_pct 0.25));
  ]

(* ---------- Hashing ---------- *)

let hashing_tests =
  [
    test "mix64 is deterministic and spreads nearby inputs" (fun () ->
        Alcotest.(check bool) "same input, same output" true
          (Int64.equal (Hashing.mix64 42L) (Hashing.mix64 42L));
        let outs = List.init 1000 (fun i -> Hashing.of_int i) in
        Alcotest.(check int) "1000 consecutive ints, 1000 distinct hashes" 1000
          (List.length (List.sort_uniq Int64.compare outs)));
    test "of_string distinguishes strings and is deterministic" (fun () ->
        Alcotest.(check bool) "stable" true
          (Int64.equal (Hashing.of_string "abc") (Hashing.of_string "abc"));
        Alcotest.(check bool) "abc <> acb" false
          (Int64.equal (Hashing.of_string "abc") (Hashing.of_string "acb"));
        Alcotest.(check bool) "empty <> nul" false
          (Int64.equal (Hashing.of_string "") (Hashing.of_string "\000")));
    test "combine is order-sensitive" (fun () ->
        let a = Hashing.of_int 1 and b = Hashing.of_int 2 in
        Alcotest.(check bool) "ab <> ba" false
          (Int64.equal
             (Hashing.combine (Hashing.combine 0L a) b)
             (Hashing.combine (Hashing.combine 0L b) a));
        Alcotest.(check bool) "fold_ints agrees" true
          (Int64.equal
             (Hashing.fold_ints 0L [ 1; 2 ])
             (Hashing.combine (Hashing.combine 0L a) b)));
    test "table stores and retrieves thousands of keys across growth" (fun () ->
        let t = Hashing.Table.create ~initial:8 () in
        for i = 0 to 4999 do
          let s = string_of_int i in
          Hashing.Table.set t ~key:(Hashing.of_string s) s i
        done;
        Alcotest.(check int) "5000 distinct keys" 5000 (Hashing.Table.length t);
        Alcotest.(check bool) "grew past initial" true
          (Hashing.Table.capacity t > 8);
        for i = 0 to 4999 do
          let s = string_of_int i in
          match Hashing.Table.find t ~key:(Hashing.of_string s) s with
          | Some v when v = i -> ()
          | _ -> Alcotest.fail (Printf.sprintf "lost key %d" i)
        done);
    test "a fingerprint collision never conflates different keys" (fun () ->
        (* Force the collision by storing two different byte strings under
           the same 64-bit key: the table must fall back to full-string
           comparison, exactly what protects the explorer's visited set. *)
        let t = Hashing.Table.create ~initial:8 () in
        let key = 0xDEADBEEFL in
        Hashing.Table.set t ~key "first" 1;
        Alcotest.(check (option int)) "other bytes, same key: absent" None
          (Hashing.Table.find t ~key "second");
        Hashing.Table.set t ~key "second" 2;
        Alcotest.(check (option int)) "first still there" (Some 1)
          (Hashing.Table.find t ~key "first");
        Alcotest.(check (option int)) "second stored separately" (Some 2)
          (Hashing.Table.find t ~key "second");
        Alcotest.(check int) "two entries" 2 (Hashing.Table.length t));
    test "keys differing only in the truncated top bit never conflate" (fun () ->
        (* Internally the table keeps fingerprints as native 63-bit ints,
           so these two 64-bit keys probe the same slot chain; the
           full-byte confirmation must still keep the entries apart. *)
        let t = Hashing.Table.create ~initial:8 () in
        let low = 0x123456789ABCDEFL in
        let high = Int64.logor low Int64.min_int in
        Hashing.Table.set t ~key:low "low-bytes" 1;
        Hashing.Table.set t ~key:high "high-bytes" 2;
        Alcotest.(check (option int)) "low key, low bytes" (Some 1)
          (Hashing.Table.find t ~key:low "low-bytes");
        Alcotest.(check (option int)) "high key, high bytes" (Some 2)
          (Hashing.Table.find t ~key:high "high-bytes");
        Alcotest.(check (option int)) "high key, low bytes also found" (Some 1)
          (Hashing.Table.find t ~key:high "low-bytes");
        Alcotest.(check int) "two entries" 2 (Hashing.Table.length t));
    test "set overwrites in place" (fun () ->
        let t = Hashing.Table.create () in
        let key = Hashing.of_string "k" in
        Hashing.Table.set t ~key "k" 1;
        Hashing.Table.set t ~key "k" 2;
        Alcotest.(check (option int)) "latest value" (Some 2)
          (Hashing.Table.find t ~key "k");
        Alcotest.(check int) "one entry" 1 (Hashing.Table.length t));
  ]

(* ---------- Intern: hashconsing for the fingerprint kernel ---------- *)

let intern_tests =
  [
    test "ids are dense and in bijection with structural equality" (fun () ->
        let t = Intern.create ~encode:(fun (a, b) -> Printf.sprintf "%d,%d" a b) () in
        let e1 = Intern.intern t (1, 2) in
        let e2 = Intern.intern t (3, 4) in
        let e3 = Intern.intern t (1, 2) in
        Alcotest.(check int) "first id" 0 (Intern.id e1);
        Alcotest.(check int) "second id" 1 (Intern.id e2);
        Alcotest.(check int) "structurally equal value, same id" (Intern.id e1)
          (Intern.id e3);
        Alcotest.(check bool) "same entry physically" true (e1 == e3);
        Alcotest.(check int) "two distinct values" 2 (Intern.length t));
    test "entries carry the value, encoding and fingerprint" (fun () ->
        let encode = string_of_int in
        let t = Intern.create ~encode () in
        let e = Intern.intern t 42 in
        Alcotest.(check int) "value recoverable" 42 (Intern.value e);
        Alcotest.(check string) "enc is the canonical bytes" (encode 42)
          (Intern.enc e);
        Alcotest.(check bool) "h is the fingerprint of enc" true
          (Intern.h e = Hashing.of_string_int (encode 42)));
    test "renaming lanes intern the whole orbit once" (fun () ->
        (* A 2-element group: identity and negation. *)
        let t =
          Intern.create ~nlanes:2
            ~rename:(fun k v -> if k = 0 then v else -v)
            ~encode:string_of_int ()
        in
        let e = Intern.intern t 5 in
        Alcotest.(check bool) "lane 0 is the entry itself" true
          (Intern.ren e 0 == e);
        Alcotest.(check int) "lane 1 holds the renamed value" (-5)
          (Intern.value (Intern.ren e 1));
        Alcotest.(check bool) "renaming twice leads back" true
          (Intern.ren (Intern.ren e 1) 1 == e);
        Alcotest.(check int) "orbit interned eagerly" 2 (Intern.length t);
        (* A fixed point of the group renames to itself. *)
        let z = Intern.intern t 0 in
        Alcotest.(check bool) "fixed point, same entry" true (Intern.ren z 1 == z));
    test "fingerprints agree across independent tables" (fun () ->
        let t1 = Intern.create ~encode:string_of_int () in
        let t2 = Intern.create ~encode:string_of_int () in
        ignore (Intern.intern t1 99);
        Alcotest.(check bool) "h is a pure function of the value" true
          (Intern.h (Intern.intern t1 7) = Intern.h (Intern.intern t2 7)));
    test "create rejects nlanes < 1" (fun () ->
        Alcotest.check_raises "nlanes = 0"
          (Invalid_argument "Intern.create: nlanes < 1") (fun () ->
            ignore (Intern.create ~nlanes:0 ~encode:string_of_int ())));
  ]

(* ---------- Store: the explorer's visited-set tiers ---------- *)

let spill_dir () =
  let f = Filename.temp_file "rlfd-store-test" "" in
  Sys.remove f;
  f

let store_tests =
  [
    test "in_ram: set, find, overwrite, length" (fun () ->
        let t = Store.in_ram () in
        let key s = Hashing.of_string s in
        Store.set t ~key:(key "a") "a" 1;
        Store.set t ~key:(key "b") "b" 2;
        Alcotest.(check (option int)) "a" (Some 1) (Store.find t ~key:(key "a") "a");
        Alcotest.(check (option int)) "missing" None (Store.find t ~key:(key "c") "c");
        Store.set t ~key:(key "a") "a" 3;
        Alcotest.(check (option int)) "overwritten" (Some 3)
          (Store.find t ~key:(key "a") "a");
        Alcotest.(check int) "two entries" 2 (Store.length t);
        Alcotest.(check int) "RAM tier never spills" 0 (Store.spilled t);
        Alcotest.(check bool) "not spilling" false (Store.is_spilling t);
        Store.close t);
    test "spilling: every key retrievable after the cache is evicted" (fun () ->
        let dir = spill_dir () in
        (* 64-byte keys, 512-byte cache: only the last handful stay hot. *)
        let t = Store.spilling ~cache_bytes:512 ~dir () in
        let mk i = Printf.sprintf "%064d" i in
        for i = 0 to 199 do
          let s = mk i in
          Store.set t ~key:(Hashing.of_string s) s i
        done;
        Alcotest.(check int) "200 entries" 200 (Store.length t);
        Alcotest.(check bool) "is spilling" true (Store.is_spilling t);
        Alcotest.(check bool) "most keys evicted to disk" true
          (Store.spilled t > 150);
        for i = 0 to 199 do
          let s = mk i in
          match Store.find t ~key:(Hashing.of_string s) s with
          | Some v when v = i -> ()
          | _ -> Alcotest.fail (Printf.sprintf "lost spilled key %d" i)
        done;
        Alcotest.(check (option int)) "absent key stays absent" None
          (Store.find t ~key:(Hashing.of_string "nope") "nope");
        Store.close t);
    test "spilling: a fingerprint hit with different bytes is not a match" (fun () ->
        let dir = spill_dir () in
        let t = Store.spilling ~cache_bytes:16 ~dir () in
        let key = 0xDEADBEEFL in
        Store.set t ~key "first-bytes-here" 1;
        (* push "first-bytes-here" out of the 16-byte cache *)
        Store.set t ~key:(Hashing.of_string "filler") "filler-filler-filler" 2;
        Alcotest.(check (option int))
          "same fingerprint, other bytes: disk confirmation rejects" None
          (Store.find t ~key "other-bytes-here");
        Alcotest.(check (option int)) "original still found via disk" (Some 1)
          (Store.find t ~key "first-bytes-here");
        Store.close t);
    test "spilling: overwriting a value never rewrites the bytes" (fun () ->
        let dir = spill_dir () in
        let t = Store.spilling ~cache_bytes:4096 ~dir () in
        let s = String.make 100 'x' in
        let key = Hashing.of_string s in
        Store.set t ~key s 1;
        let bytes_once = Store.ram_bytes t in
        Store.set t ~key s 2;
        Store.set t ~key s 3;
        Alcotest.(check (option int)) "latest value" (Some 3) (Store.find t ~key s);
        Alcotest.(check int) "still one entry" 1 (Store.length t);
        Alcotest.(check int) "no byte growth on value updates" bytes_once
          (Store.ram_bytes t);
        Store.close t);
    test "spilling and in_ram agree on a mixed workload" (fun () ->
        let dir = spill_dir () in
        let ram = Store.in_ram () in
        let disk = Store.spilling ~cache_bytes:256 ~dir () in
        let mk i = Printf.sprintf "key-%d-%s" i (String.make (i mod 37) 'p') in
        for i = 0 to 299 do
          let s = mk i in
          let key = Hashing.of_string s in
          Store.set ram ~key s (i * 2);
          Store.set disk ~key s (i * 2)
        done;
        for i = 0 to 349 do
          let s = mk i in
          let key = Hashing.of_string s in
          Alcotest.(check (option int))
            (Printf.sprintf "key %d agrees" i)
            (Store.find ram ~key s) (Store.find disk ~key s)
        done;
        Alcotest.(check int) "same length" (Store.length ram) (Store.length disk);
        Store.close ram;
        Store.close disk);
  ]

let () =
  Alcotest.run "kernel"
    [
      suite "pid" pid_tests;
      suite "time" time_tests;
      suite "rng" rng_tests;
      suite "pqueue" pqueue_tests;
      suite "vclock" vclock_tests;
      suite "stats" stats_tests;
      suite "table" table_tests;
      suite "hashing" hashing_tests;
      suite "intern" intern_tests;
      suite "store" store_tests;
    ]
