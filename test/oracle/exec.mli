(** The plan interpreter, kept as the reference semantics of
    {!Fusion_plan.Plan_compile}.

    Runs a plan against live sources one operation at a time over a
    name-keyed environment, charging each source query its actual cost.
    Same observable behaviour as {!Fusion_plan.Plan_compile.run} —
    answers, step list, costs, retry/partial policy, cache protocol and
    trace spans — which the equivalence suites check; the difference is
    that an invalid plan fails at the offending step (with
    {!Fusion_plan.Exec.Runtime_error}) instead of at compile time. *)

open Fusion_cond
open Fusion_source
open Fusion_plan

val run :
  ?cache:Exec.Query_cache.t ->
  ?policy:Exec.policy ->
  sources:Source.t array ->
  conds:Cond.t array ->
  Plan.t ->
  Exec.result
(** Executes the plan. [cache] and [policy] as in
    {!Fusion_plan.Plan_compile.run}.
    @raise Fusion_plan.Exec.Runtime_error on an undefined variable, a
    kind mismatch or an out-of-range index. *)
