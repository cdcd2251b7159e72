(* A bucketed queue.  Each distinct pending priority owns a bucket: a FIFO
   of its values, so insertion order settles ties without the heap ever
   comparing them.  The distinct priorities sit in a binary min-heap kept
   as two parallel arrays (the int keys, compared unboxed, and the bucket
   each one owns); [index] maps a priority to its live bucket so [add]
   finds it.  A bucket leaves the heap and the index together, the moment
   its last value is popped. *)

type 'a bucket = {
  mutable items : 'a array;
  mutable first : int;  (* slot of the oldest pending value *)
  mutable len : int;  (* pending values: items.(first .. first + len - 1) *)
}

module Index = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  let hash = Hashing.mix_int
end)

type 'a t = {
  mutable keys : int array;
  mutable buckets : 'a bucket array;
  mutable nkeys : int;
  index : 'a bucket Index.t;
  mutable size : int;
}

let create () =
  { keys = [||]; buckets = [||]; nkeys = 0; index = Index.create 16; size = 0 }

let is_empty q = q.size = 0

let length q = q.size

(* Append to a bucket's tail: compact in place while at least half the
   array is already popped, double it otherwise. *)
let push b v =
  let cap = Array.length b.items in
  if b.first + b.len = cap then begin
    let fresh = if 2 * b.len <= cap then b.items else Array.make (2 * cap) v in
    Array.blit b.items b.first fresh 0 b.len;
    b.items <- fresh;
    b.first <- 0
  end;
  b.items.(b.first + b.len) <- v;
  b.len <- b.len + 1

(* Heap moves carry a hole: the key and bucket being placed are written
   once, at the slot where they come to rest. *)
let place q i key b =
  q.keys.(i) <- key;
  q.buckets.(i) <- b

let rec sift_up q i key b =
  let parent = (i - 1) / 2 in
  if i > 0 && key < q.keys.(parent) then begin
    place q i q.keys.(parent) q.buckets.(parent);
    sift_up q parent key b
  end
  else place q i key b

let rec sift_down q i key b =
  let l = (2 * i) + 1 in
  let c = if l + 1 < q.nkeys && q.keys.(l + 1) < q.keys.(l) then l + 1 else l in
  if c < q.nkeys && q.keys.(c) < key then begin
    place q i q.keys.(c) q.buckets.(c);
    sift_down q c key b
  end
  else place q i key b

let new_bucket q ~prio b =
  let cap = Array.length q.keys in
  if q.nkeys = cap then begin
    let cap' = Stdlib.max 8 (2 * cap) in
    let keys = Array.make cap' 0 and buckets = Array.make cap' b in
    Array.blit q.keys 0 keys 0 q.nkeys;
    Array.blit q.buckets 0 buckets 0 q.nkeys;
    q.keys <- keys;
    q.buckets <- buckets
  end;
  q.nkeys <- q.nkeys + 1;
  sift_up q (q.nkeys - 1) prio b;
  Index.add q.index prio b

let add q ~prio value =
  (match Index.find_opt q.index prio with
  | Some b -> push b value
  | None -> new_bucket q ~prio { items = [| value |]; first = 0; len = 1 });
  q.size <- q.size + 1

let drop_min q =
  Index.remove q.index q.keys.(0);
  q.nkeys <- q.nkeys - 1;
  let last = q.nkeys in
  if last > 0 then sift_down q 0 q.keys.(last) q.buckets.(last)

let pop q =
  if q.size = 0 then None
  else begin
    let prio = q.keys.(0) and b = q.buckets.(0) in
    let v = b.items.(b.first) in
    b.first <- b.first + 1;
    b.len <- b.len - 1;
    if b.len = 0 then drop_min q;
    q.size <- q.size - 1;
    Some (prio, v)
  end

let peek q =
  if q.size = 0 then None
  else
    let b = q.buckets.(0) in
    Some (q.keys.(0), b.items.(b.first))

let clear q =
  q.keys <- [||];
  q.buckets <- [||];
  q.nkeys <- 0;
  Index.reset q.index;
  q.size <- 0

let to_list q =
  let live = List.init q.nkeys (fun i -> (q.keys.(i), q.buckets.(i))) in
  List.concat_map
    (fun (prio, b) -> List.init b.len (fun j -> (prio, b.items.(b.first + j))))
    (List.sort (fun (a, _) (b, _) -> Int.compare a b) live)
