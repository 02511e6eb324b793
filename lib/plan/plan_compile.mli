(** Compiled plans: the one program form of a plan.

    [compile] specializes one optimized plan DAG
    ([Sq]/[Sjq]/[∪]/[∩]/[−]/[Load]/[Local_select]) against its sources
    and conditions: variables become integer slots, cache keys and
    condition texts are rendered once, every source query gets its
    dataflow task id and dependencies, and every local selection becomes
    a {!Fusion_cond.Cond_vec} columnar scan whose compiled form persists
    across runs.

    Two drivers execute the program. {!run} (and {!answer}) is the
    straight-line sequential driver: elapsed time equals total cost.
    {!Exec_async.Engine} steps the same instructions against a shared
    runtime, one source query at a time. Re-running a compiled plan in
    steady state allocates (almost) only the answer sets — no
    environment hashing, no per-tuple materialization, no per-run
    condition work.

    A compiled plan holds mutable scratch (the sequential driver's slot
    frame and the scan buffers): run each value from one driver at a
    time. *)

open Fusion_data
open Fusion_cond
open Fusion_source

type t

val compile : sources:Source.t array -> conds:Cond.t array -> Plan.t -> (t, string) result
(** Validates the plan (so slot resolution cannot fail at run time) and
    specializes it. The error is {!Plan.validate}'s message. *)

val plan : t -> Plan.t
val sources : t -> Source.t array

val run : ?cache:Exec.Query_cache.t -> ?policy:Exec.policy -> t -> Exec.result
(** Executes the program step by step. With [cache], selection answers
    are reused (see {!Exec.Query_cache}); cached steps appear in
    [steps] with cost 0.

    Failure policy ([Exec.default_policy] if omitted): each source query
    is retried up to [policy.retries] times; when retries are exhausted,
    [`Fail] re-raises while [`Partial] binds an empty result and marks
    the answer {!Exec.result.partial}. Every attempt's cost — including
    timed-out ones — is charged to the step. *)

val answer : ?cache:Exec.Query_cache.t -> ?policy:Exec.policy -> t -> Item_set.t
(** Like {!run}, returning only the answer and skipping step-list
    construction — the minimal-allocation serving loop. *)

(** {2 The program, for stepping drivers}

    What {!Exec_async.Engine} reads to execute the program one
    instruction at a time. *)

type scan
(** A local selection's persistent columnar scan. *)

type code =
  | Select of {
      server : int;  (** source index into {!sources} *)
      cond : Cond.t;
      sname : string;  (** cache key: the source name *)
      ctext : string;  (** cache key: the rendered condition *)
      task : int;
          (** dataflow task id: position among the plan's source
              queries, aligned with {!Parallel_exec.dataflow}; a
              selection reads no slot, so it depends on no task *)
    }
  | Semijoin of {
      server : int;
      cond : Cond.t;
      input : int;  (** slot of the probe set *)
      sname : string;
      ctext : string;
      task : int;
      deps : int list;
          (** task ids of the source queries feeding [input], ascending *)
    }
  | Load of { server : int; task : int }
  | Local_select of { input : int; scan : scan }
  | Union of int array
  | Inter of int array
  | Diff of int * int

type instr = {
  op : Op.t;  (** the plan operation, for steps and traces *)
  dst : int;  (** slot it binds *)
  reads : int array;  (** slots it reads *)
  code : code;
}

val program : t -> instr array
(** The instructions, in plan order. *)

val output : t -> int
(** The answer's slot. *)

val task_count : t -> int
(** Number of source queries (dataflow tasks). *)

type value = Items of Item_set.t | Loaded of Relation.t

val frame : t -> value array
(** The program's slot frame, reset so every slot holds the empty item
    set. Drivers execute in it, which is what makes a program
    non-reentrant. *)

val items : value array -> int -> Item_set.t
(** The item set a slot holds (kinds were checked at compile time). *)

val local : value array -> code -> Item_set.t
(** Evaluates a local instruction ([Local_select], [Union], [Inter],
    [Diff]) against a frame; local selections use the program's
    persistent scan. @raise Invalid_argument on a source query. *)

val empty_load : Source.t -> Relation.t
(** The empty relation a [`Partial] [Load] binds once its retries are
    exhausted. *)
