(* X13 — extension: the price of autonomy — flaky sources.

   Internet sources time out. Each request fails independently with
   probability p; the executor retries until the query succeeds. We
   measure the actual total cost (failed attempts pay their overhead)
   and the observed timeout count, as p grows. Answers stay exact — the
   qcheck suite asserts that; here we price the robustness. The last
   column shows partial-mode behaviour with a single permanently dead
   source: how much of the answer survives. *)

open Fusion_core
open Fusion_plan
module Workload = Fusion_workload.Workload
module Source = Fusion_source.Source
module Prng = Fusion_stats.Prng

let base_spec seed =
  {
    Workload.default_spec with
    Workload.n_sources = 6;
    universe = 4000;
    tuples_per_source = (400, 700);
    selectivities = [| 0.02; 0.3; 0.4 |];
    seed;
  }

let with_faults probability fault_seed (instance : Workload.instance) =
  Array.iteri
    (fun j s ->
      Source.set_fault s
        (if probability > 0.0 then
           Some { Source.probability; prng = Prng.create (fault_seed + (31 * j)) }
         else None))
    instance.Workload.sources;
  instance

let run_with instance =
  let env = Runner.env_of instance in
  let plan = (Optimizer.optimize Optimizer.Sja env).Optimized.plan in
  Array.iter Source.reset_meter instance.Workload.sources;
  Runner.run_plan
    ~policy:{ Exec.retries = 1000; on_exhausted = `Fail }
    ~sources:instance.Workload.sources
    ~conds:(Fusion_query.Query.conditions instance.Workload.query)
    plan

let run () =
  let rows =
    List.map
      (fun probability ->
        let costs, failures =
          List.fold_left
            (fun (costs, fails) seed ->
              let instance =
                with_faults probability (seed * 13) (Workload.generate (base_spec seed))
              in
              let result = run_with instance in
              (costs +. result.Exec.total_cost, fails + result.Exec.failures))
            (0.0, 0) Runner.seeds
        in
        let k = float_of_int (List.length Runner.seeds) in
        [
          Printf.sprintf "%.0f%%" (100.0 *. probability);
          Tables.f1 (costs /. k);
          Tables.f1 (float_of_int failures /. k);
        ])
      [ 0.0; 0.1; 0.2; 0.4 ]
  in
  Tables.print
    ~title:"X13: cost of retrying flaky sources (SJA, exact answers, mean of 3 seeds)"
    ~header:[ "timeout prob"; "total cost"; "timeouts/query" ]
    rows;
  (* Partial mode with one dead source: recall of the partial answer. *)
  let partial_rows =
    List.map
      (fun seed ->
        let instance = Workload.generate (base_spec seed) in
        let truth =
          Reference.answer_query ~sources:instance.Workload.sources instance.Workload.query
        in
        Source.set_fault
          instance.Workload.sources.(0)
          (Some { Source.probability = 1.0; prng = Prng.create seed });
        let env = Runner.env_of instance in
        let plan = (Optimizer.optimize Optimizer.Sja env).Optimized.plan in
        Array.iter Source.reset_meter instance.Workload.sources;
        let result =
          Runner.run_plan
            ~policy:{ Exec.retries = 0; on_exhausted = `Partial }
            ~sources:instance.Workload.sources
            ~conds:(Fusion_query.Query.conditions instance.Workload.query)
            plan
        in
        Source.set_fault instance.Workload.sources.(0) None;
        let recall =
          if Fusion_data.Item_set.cardinal truth = 0 then 1.0
          else
            float_of_int (Fusion_data.Item_set.cardinal result.Exec.answer)
            /. float_of_int (Fusion_data.Item_set.cardinal truth)
        in
        [
          Tables.i seed;
          Tables.i (Fusion_data.Item_set.cardinal truth);
          Tables.i (Fusion_data.Item_set.cardinal result.Exec.answer);
          Tables.f2 recall;
        ])
      Runner.seeds
  in
  Tables.print
    ~title:"X13b: partial answers with one dead source (of 6)"
    ~header:[ "seed"; "true answers"; "partial answers"; "recall" ]
    partial_rows
