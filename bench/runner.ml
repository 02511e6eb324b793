(* Shared machinery for the experiments: build instances, optimize,
   execute, and collect actual costs. *)

open Fusion_core
module Workload = Fusion_workload.Workload

let env_of ?stats (instance : Workload.instance) =
  Opt_env.create ?stats ~universe:instance.Workload.spec.Workload.universe
    instance.Workload.sources instance.Workload.query

(* When FUSION_TRACE_DIR is set, every [execute] also records a span
   trace and appends it (numbered) under that directory, so experiment
   output can be correlated with per-request traces after the fact. *)
let trace_dir = Sys.getenv_opt "FUSION_TRACE_DIR"
let trace_seq = ref 0

(* Sequential execution: compile the plan, run the program's
   straight-line driver. *)
let run_plan ?cache ?policy ~sources ~conds plan =
  match Fusion_plan.Plan_compile.compile ~sources ~conds plan with
  | Ok program -> Fusion_plan.Plan_compile.run ?cache ?policy program
  | Error msg -> invalid_arg ("invalid plan: " ^ msg)

let execute (instance : Workload.instance) plan =
  let go () =
    Array.iter Fusion_source.Source.reset_meter instance.Workload.sources;
    run_plan ~sources:instance.Workload.sources
      ~conds:(Fusion_query.Query.conditions instance.Workload.query)
      plan
  in
  match trace_dir with
  | None -> go ()
  | Some dir ->
    let collector = Fusion_obs.Trace.create () in
    let result = Fusion_obs.Trace.with_collector collector go in
    incr trace_seq;
    let path = Filename.concat dir (Printf.sprintf "exec-%04d.jsonl" !trace_seq) in
    (try Fusion_obs.Jsonl.write_file path (Fusion_obs.Trace.spans collector)
     with Sys_error msg -> Printf.eprintf "trace: %s\n%!" msg);
    result

(* Trace one execution explicitly, regardless of FUSION_TRACE_DIR. *)
let execute_traced (instance : Workload.instance) plan =
  let collector = Fusion_obs.Trace.create () in
  let result =
    Fusion_obs.Trace.with_collector collector (fun () ->
        Array.iter Fusion_source.Source.reset_meter instance.Workload.sources;
        run_plan ~sources:instance.Workload.sources
          ~conds:(Fusion_query.Query.conditions instance.Workload.query)
          plan)
  in
  (result, Fusion_obs.Trace.spans collector)

let actual_cost instance plan = (execute instance plan).Fusion_plan.Exec.total_cost

let run_algo ?stats instance algo =
  let env = env_of ?stats instance in
  let optimized = Optimizer.optimize algo env in
  (optimized, actual_cost instance optimized.Optimized.plan)

let run_algo_traced ?stats instance algo =
  let env = env_of ?stats instance in
  let optimized = Optimizer.optimize algo env in
  let result, spans = execute_traced instance optimized.Optimized.plan in
  (optimized, result, spans)

(* Mean actual cost over several seeds of the same spec. *)
let mean_over_seeds ?stats spec seeds algo =
  let total =
    List.fold_left
      (fun acc seed ->
        let instance = Workload.generate { spec with Workload.seed } in
        acc +. snd (run_algo ?stats instance algo))
      0.0 seeds
  in
  total /. float_of_int (List.length seeds)

let seeds = [ 101; 202; 303 ]

(* Wall-clock timing (median of [runs]) for the optimizer-complexity
   experiment; Bechamel handles the fine-grained version. *)
let time_median ?(runs = 5) f =
  let samples =
    List.init runs (fun _ ->
        let t0 = Unix.gettimeofday () in
        ignore (f ());
        Unix.gettimeofday () -. t0)
  in
  let sorted = List.sort compare samples in
  List.nth sorted (runs / 2)
