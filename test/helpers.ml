(* Shared test utilities: Alcotest testables and random-instance
   generation for property tests. *)

open Fusion_data
open Fusion_cond
open Fusion_source

let value : Value.t Alcotest.testable = Alcotest.testable Value.pp Value.equal
let item_set : Item_set.t Alcotest.testable = Alcotest.testable Item_set.pp Item_set.equal
let cond : Cond.t Alcotest.testable = Alcotest.testable Cond.pp Cond.equal

let check_ok = function
  | Ok v -> v
  | Error msg -> Alcotest.failf "unexpected error: %s" msg

let check_err label = function
  | Ok _ -> Alcotest.failf "%s: expected an error" label
  | Error msg -> msg

let items_of_strings names = Item_set.of_list (List.map (fun s -> Value.String s) names)

(* A small deterministic schema for hand-written relation tests. *)
let abc_schema =
  Schema.create_exn ~merge:"M"
    [ ("M", Value.Tstring); ("A", Value.Tint); ("B", Value.Tstring) ]

let abc_row m a b = [ Value.String m; Value.Int a; Value.String b ]

let abc_relation ?(name = "R") rows =
  check_ok (Relation.of_rows ~name abc_schema rows)

(* QCheck generator for workload specs: small random worlds that stay
   fast to optimize and execute. *)
let spec_gen : Fusion_workload.Workload.spec QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* n_sources = int_range 1 6 in
  let* m = int_range 1 3 in
  let* universe = int_range 30 300 in
  let* lo = int_range 5 60 in
  let* extra = int_range 0 60 in
  let* sels = array_repeat m (float_range 0.05 0.6) in
  let* correlation = float_range 0.0 1.0 in
  let* item_skew = oneofl [ 0.0; 0.0; 1.0 ] in
  let* entity_correlation = oneofl [ 0.0; 0.0; 0.8 ] in
  let* selectivity_jitter = oneofl [ 0.0; 0.0; 0.4 ] in
  let* no_semijoin = oneofl [ 0.0; 0.3; 0.7 ] in
  let* minimal = oneofl [ 0.0; 0.2 ] in
  let* slow = oneofl [ 0.0; 0.3 ] in
  let* tiny = oneofl [ 0.0; 0.3 ] in
  let* seed = int_range 0 1_000_000 in
  return
    {
      Fusion_workload.Workload.default_spec with
      n_sources;
      universe;
      tuples_per_source = (lo, lo + extra);
      selectivities = sels;
      correlation;
      entity_correlation;
      selectivity_jitter;
      item_skew;
      heterogeneity = { Fusion_workload.Workload.no_semijoin; minimal; slow; tiny };
      seed;
    }

let spec_print spec =
  let h = spec.Fusion_workload.Workload.heterogeneity in
  Printf.sprintf
    "{n=%d; universe=%d; tuples=(%d,%d); sels=[%s]; corr=%.2f; skew=%.1f; het=(nsj %.1f, min %.1f, slow %.1f, tiny %.1f); seed=%d}"
    spec.Fusion_workload.Workload.n_sources spec.Fusion_workload.Workload.universe
    (fst spec.Fusion_workload.Workload.tuples_per_source)
    (snd spec.Fusion_workload.Workload.tuples_per_source)
    (String.concat ";"
       (List.map (Printf.sprintf "%.2f")
          (Array.to_list spec.Fusion_workload.Workload.selectivities)))
    spec.Fusion_workload.Workload.correlation spec.Fusion_workload.Workload.item_skew
    h.Fusion_workload.Workload.no_semijoin h.Fusion_workload.Workload.minimal
    h.Fusion_workload.Workload.slow h.Fusion_workload.Workload.tiny
    spec.Fusion_workload.Workload.seed

let qtest ?(count = 50) name gen print prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ~name ~print gen prop)

(* Execute a plan against an instance's sources, returning the answer. *)
let execute_plan (instance : Fusion_workload.Workload.instance) plan =
  Array.iter Source.reset_meter instance.Fusion_workload.Workload.sources;
  Fusion_oracle.Exec.run
    ~sources:instance.Fusion_workload.Workload.sources
    ~conds:(Fusion_query.Query.conditions instance.Fusion_workload.Workload.query)
    plan
