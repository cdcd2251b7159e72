open Rlfd_kernel

type id = int

(* Messages are queued by destination, so a step pays only for what waits
   for the stepping process.  A message to a crashed process stays in the
   buffer forever (Section 2.3) but, as no crashed process steps, costs
   nothing after [add].  Identifiers are dense, so the id -> destination
   map is a flat array. *)
type 'a t = {
  dst : 'a -> Pid.t;
  mutable next_id : id;
  mutable size : int;
  (* [owner.(id)] is [Pid.to_int] of message [id]'s destination, or
     [consumed] (no pid is 0) once it is removed. *)
  mutable owner : int array;
  (* [queues.(Pid.to_int p)] holds the messages to [p], newest first. *)
  mutable queues : (id * 'a) list array;
}

let consumed = 0

let create ~dst () =
  { dst; next_id = 0; size = 0; owner = Array.make 16 consumed; queues = [||] }

let grow a len fill =
  let b = Array.make (max len (2 * Array.length a)) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let add t x =
  let id = t.next_id in
  let d = Pid.to_int (t.dst x) in
  if id >= Array.length t.owner then t.owner <- grow t.owner (id + 1) consumed;
  if d >= Array.length t.queues then t.queues <- grow t.queues (d + 1) [];
  t.owner.(id) <- d;
  t.queues.(d) <- (id, x) :: t.queues.(d);
  t.next_id <- id + 1;
  t.size <- t.size + 1;
  id

let owner t id =
  if id < 0 || id >= t.next_id then consumed else t.owner.(id)

let find t id =
  let d = owner t id in
  if d = consumed then None else List.assoc_opt id t.queues.(d)

let remove t id =
  let d = owner t id in
  if d = consumed then None
  else begin
    let x = List.assoc id t.queues.(d) in
    t.queues.(d) <- List.filter (fun (i, _) -> i <> id) t.queues.(d);
    t.owner.(id) <- consumed;
    t.size <- t.size - 1;
    Some x
  end

let pending_for t dst =
  let d = Pid.to_int dst in
  if d >= Array.length t.queues then [] else List.rev t.queues.(d)

let size t = t.size

let iter t f =
  Array.fold_left (fun acc q -> List.rev_append q acc) [] t.queues
  |> List.sort (fun (i, _) (j, _) -> Int.compare i j)
  |> List.iter (fun (id, x) -> f id x)
