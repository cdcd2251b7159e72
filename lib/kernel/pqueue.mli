(** Imperative priority queue, used as the event list of the timed
    network simulator.

    Elements are ordered by an integer priority (smallest first); ties are
    broken by insertion order, which keeps the discrete-event simulation
    deterministic.  Any priority may be added at any time, including one
    below everything pending.

    The queue is bucketed by priority: each distinct pending priority owns
    a FIFO of its values, the distinct priorities sit in a binary min-heap,
    and a hash table finds the bucket of a priority already pending.  A
    discrete-event simulation keeps many events over few distinct
    timestamps ([now + delay] for small delays), so most operations touch
    one bucket and never the heap.  Below, [d] is the number of distinct
    pending priorities and [m] the number of queued elements; costs are
    expected (hashing), amortized over bucket growth. *)

type 'a t

val create : unit -> 'a t
(** An empty queue. *)

val is_empty : 'a t -> bool
(** O(1). *)

val length : 'a t -> int
(** Number of queued elements.  O(1). *)

val add : 'a t -> prio:int -> 'a -> unit
(** [add t ~prio x] enqueues [x]; equal priorities dequeue in insertion
    order.  O(1) when [prio] is already pending, O(log d) when it opens a
    new bucket. *)

val pop : 'a t -> (int * 'a) option
(** Removes and returns the minimum-priority element.  O(1), or O(log d)
    when it drains the last element of its priority. *)

val peek : 'a t -> (int * 'a) option
(** The minimum-priority element without removing it.  O(1). *)

val clear : 'a t -> unit
(** Empties the queue in place.  O(1). *)

val to_list : 'a t -> (int * 'a) list
(** Snapshot in priority order; does not modify the queue.  O(m + d log
    d). *)
