(** The message buffer (paper, Section 2.3).

    A multiset of messages in transit.  Each message gets a unique,
    monotonically increasing identifier when added; identifiers give the
    deterministic "oldest first" order that the fair scheduler uses to make
    every message to a correct process eventually received.

    Messages are indexed by destination, given once to {!create}.  A
    message to a crashed process stays in the buffer forever, as in the
    paper, but costs nothing after {!add}: only {!pending_for} and
    {!remove} on its destination would touch it, and a crashed process
    never steps.  Below, [k] is the number of messages pending to the
    destination concerned and [m] the number in transit. *)

open Rlfd_kernel

type 'a t
(** A mutable buffer of in-transit messages of type ['a]. *)

type id = int
(** Message identifiers: unique within a buffer, assigned in increasing
    order of {!add}. *)

val create : dst:('a -> Pid.t) -> unit -> 'a t
(** An empty buffer whose messages are addressed by the [dst] projection;
    identifiers start at 0.  The buffer keeps one word per identifier it
    has issued. *)

val add : 'a t -> 'a -> id
(** Put a message in transit and return its fresh identifier.  O(1)
    amortized. *)

val remove : 'a t -> id -> 'a option
(** Removes and returns the message; [None] if the id is absent (already
    consumed, or never issued).  O(k) for the message's destination. *)

val find : 'a t -> id -> 'a option
(** Like {!remove} but leaves the message in the buffer.  O(k). *)

val pending_for : 'a t -> Pid.t -> (id * 'a) list
(** [pending_for t dst] is the messages currently destined to [dst],
    oldest first.  O(k). *)

val size : 'a t -> int
(** Number of messages currently in transit.  O(1). *)

val iter : 'a t -> (id -> 'a -> unit) -> unit
(** In increasing id order.  O(m log m). *)
