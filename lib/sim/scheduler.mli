(** Schedulers: who steps next and which message it receives.

    A run of the model (paper, Section 2.4) is valid when (1) only processes
    that have not crashed take steps, (2) every correct process takes an
    infinite number of steps, and (3) every message sent to a correct
    process is eventually received.  The {!fair} scheduler guarantees the
    finite-horizon analogues of (2) and (3) by construction; {!random}
    guarantees them with probability 1; the adversarial combinators let
    tests and the Lemma 4.1 constructions delay chosen processes and
    messages while preserving validity in the limit. *)

open Rlfd_kernel

(** What a scheduler sees when making a choice. *)
type 'm view = {
  n : int;  (** number of processes *)
  time : Time.t;  (** the tick being scheduled *)
  alive : Pid.t list; (** processes allowed to step now, ascending *)
  pending : Pid.t -> (Buffer.id * 'm Model.envelope) list; (** oldest first *)
  steps_of : Pid.t -> int;  (** steps the process has taken so far *)
}

type action =
  | Step of { pid : Pid.t; receive : Buffer.id option }
      (** [receive = None] is the null message lambda. *)
  | Idle  (** nobody steps this tick (possible under adversarial blocking) *)

type 'm t
(** A scheduling policy over messages of type ['m]. *)

val make : name:string -> ('m view -> action) -> 'm t
(** A policy from its decision function.  {!Runner.run} raises
    [Invalid_argument] on an action that steps a crashed process, delivers
    an id not in the buffer (consumed or never issued), or delivers a
    message addressed to another process. *)

val name : 'm t -> string
(** Display name, used in run headers and reports. *)

val choose : 'm t -> 'm view -> action
(** One scheduling decision; called once per tick by {!Runner}. *)

val fair : unit -> 'm t
(** Round-robin over alive processes; each step receives the oldest pending
    message, lambda if none.  Deterministic. *)

val random : seed:int -> lambda_bias:float -> 'm t
(** Uniform alive process; with probability [lambda_bias] a lambda step,
    otherwise a uniformly chosen pending message.  Raises
    [Invalid_argument] unless [0 <= lambda_bias < 1]. *)

val scripted : (Pid.t * Pid.t option) list -> 'm t
(** Replays an explicit schedule — one [(process, sender of the received
    message)] pair per step, [None] meaning lambda — such as the witness
    trail of {!Explore}.  A prescribed reception whose message is absent
    degrades to a lambda step; after the script ends every tick is
    {!Idle}. *)

val replay : (int * Pid.t * Buffer.id option) list -> 'm t
(** Replays a flight-recorder schedule exactly: one [(tick, process,
    received buffer id)] entry per recorded step, consumed when the clock
    reaches its tick.  Buffer ids are deterministic (allocation order), so
    an entry names precisely the message the original run delivered —
    unlike {!scripted}, which resolves by sender and can diverge when one
    sender has several messages in flight.  Ticks with no entry, an entry
    whose process is dead, and a prescribed message already consumed all
    degrade safely (idle / lambda); a faithful artifact never hits those
    cases. *)

(** {1 Adversarial constraints}

    Constraints wrap a base scheduler.  A blocked process is not scheduled;
    a blocked message is not receivable.  If every alive process is blocked
    the tick is {!Idle} (time passes, nobody acts) — exactly the "no process
    takes any step until time t" device of the paper's proofs. *)

(** One adversarial restriction; combined with {!constrained}. *)
type 'm constraint_ = {
  blocks_step : 'm view -> Pid.t -> bool;
      (** forbid this process from stepping now *)
  blocks_delivery : 'm view -> 'm Model.envelope -> bool;
      (** forbid receiving this message now *)
}

val delay_from : Pid.t -> until:Time.t -> 'm constraint_
(** Messages sent by the given process are undeliverable before [until]. *)

val delay_to : Pid.t -> until:Time.t -> 'm constraint_
(** Messages destined to the given process are undeliverable before
    [until]. *)

val isolate : Pid.t -> until:Time.t -> 'm constraint_
(** Both of the above: the process is partitioned from the others (its own
    steps still happen, seeing only lambda). *)

val freeze : Pid.t -> until:Time.t -> 'm constraint_
(** The process takes no step before [until]. *)

val freeze_all_except : Pid.t list -> until:Time.t -> 'm constraint_
(** Every process outside the list is frozen before [until]. *)

val constrained : base:'m t -> 'm constraint_ list -> 'm t
(** [base]'s choices filtered through every constraint in the list; the
    tick is {!Idle} when nothing permissible remains. *)

val with_name : string -> 'm t -> 'm t
(** Rename a scheduler (e.g. to label an adversarial construction). *)
