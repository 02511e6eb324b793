(** Plan execution vocabulary shared by the two drivers of the compiled
    program: {!Plan_compile.run} (sequential) and {!Exec_async.Engine}
    (concurrent, on a runtime).

    Both charge each source query its actual cost (a function of the
    real transfer sizes). Local set operations and local selections on
    loaded relations are free, per the cost model (Section 2.4). *)

open Fusion_data
open Fusion_source

type step = {
  op : Op.t;
  cost : float;  (** actual cost of the step (0 for local operations) *)
  result_size : int;  (** cardinality of the bound item set / relation *)
}

type result = {
  answer : Item_set.t;
  steps : step list;  (** in execution order *)
  total_cost : float;  (** sum of the step costs, failed attempts included *)
  failures : int;  (** timed-out requests encountered (before retries) *)
  partial : bool;
      (** true when a step was abandoned after exhausting its retries in
          [`Partial] mode — the answer may miss items whose evidence
          lived at the unreachable source *)
}

exception Runtime_error of string
(** A plan that cannot execute: undefined variable, kind mismatch, or
    out-of-range index. {!Exec_async.run} raises it with
    {!Plan.validate}'s message when compilation fails. *)

(** Session-level reuse of selection answers across plan executions.

    Mediators serve streams of fusion queries that share hot conditions
    (Section 5 points out the cost of repeatedly evaluating common
    subexpressions). The cache memoizes selection-query answers keyed by
    (source, condition); a later selection on the same key is answered
    locally for free, and a later {e semijoin} on the key is derived as
    [cached ∩ X], also for free. Semijoin answers are additionally
    memoized by (source, condition, probe set), so an exact replay of a
    plan never re-contacts the sources. *)
module Query_cache : sig
  type t

  val create : unit -> t
  val clear : t -> unit

  type stats = {
    hits : int;  (** operations answered from the cache *)
    misses : int;  (** selection queries that had to run (and filled it) *)
    saved_cost : float;
        (** what the hits would have cost at the sources, computed from
            each source's profile and the actual answer sizes *)
  }

  val stats : t -> stats

  (** {2 Executor-internal operations}

      The lookup/fill protocol shared by both drivers, keyed by the
      source name and rendered condition text that {!Plan_compile}
      precomputes. Not meant for application code — going through these
      by hand desynchronizes the hit/miss statistics from any driver's
      accounting. *)

  val find_keyed : t -> sname:string -> ctext:string -> Item_set.t option
  val store_keyed : t -> sname:string -> ctext:string -> Item_set.t -> unit
  val find_sjq_keyed : t -> sname:string -> ctext:string -> Item_set.t -> Item_set.t option

  val store_sjq_keyed :
    t -> sname:string -> ctext:string -> Item_set.t -> Item_set.t -> unit

  val record_hit : t -> Source.t -> items_sent:int -> items_received:int -> unit
  val record_hit_emulated : t -> Source.t -> bindings:int -> items_received:int -> unit
end

type policy = {
  retries : int;  (** extra attempts after the first timed-out one *)
  on_exhausted : [ `Fail | `Partial ];
      (** what to do when the retries run out: re-raise, or bind an
          empty result and mark the answer partial *)
}
(** The fault policy for sources that raise {!Source.Timeout}. Shared
    by both drivers so the two cannot drift apart. *)

val default_policy : policy
(** No retries, [`Fail]. *)
