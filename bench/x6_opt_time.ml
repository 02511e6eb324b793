(* X6 — Section 3's complexity claims, measured.

   (a) Optimization time vs n at fixed m = 3: SJ/SJA should scale
       linearly in the number of sources (the property the paper calls
       "very important when we deal with a large number of sources").
   (b) Optimization time vs m at fixed n = 8: SJ/SJA are O(m!·m·n) —
       factorial in the (small) number of conditions — while the greedy
       variants stay essentially flat.

   Bechamel microbenchmarks for the headline points follow the tables
   (run with FUSION_BENCH_BECHAMEL=1; they take a minute). *)

open Fusion_core
module Workload = Fusion_workload.Workload

let spec ~n ~m =
  {
    Workload.default_spec with
    Workload.n_sources = n;
    universe = 2000;
    tuples_per_source = (50, 80);
    selectivities = Array.init m (fun i -> 0.05 +. (0.1 *. float_of_int i));
    seed = 7;
  }

(* Pre-warm the statistics memo so we time the search, not the scans. *)
let warmed_env instance =
  let env = Runner.env_of instance in
  Array.iter
    (fun c ->
      Array.iter
        (fun s -> ignore (env.Opt_env.model.Fusion_cost.Model.sq_cost s c))
        env.Opt_env.sources)
    env.Opt_env.conds;
  env

let time_algo env algo = Runner.time_median (fun () -> Optimizer.optimize algo env)

let run () =
  let rows_n =
    List.map
      (fun n ->
        let env = warmed_env (Workload.generate (spec ~n ~m:3)) in
        let sja = time_algo env Optimizer.Sja in
        [
          Tables.i n;
          Printf.sprintf "%.3f" (1000.0 *. time_algo env Optimizer.Sj);
          Printf.sprintf "%.3f" (1000.0 *. sja);
          Printf.sprintf "%.4f" (1_000_000.0 *. sja /. float_of_int n);
        ])
      [ 4; 16; 64; 256 ]
  in
  Tables.print ~title:"X6a: optimization time vs n (m=3; ms, median of 5)"
    ~header:[ "n"; "sj (ms)"; "sja (ms)"; "sja µs/source" ]
    rows_n;
  let rows_m =
    List.map
      (fun m ->
        let env = warmed_env (Workload.generate (spec ~n:8 ~m)) in
        [
          Tables.i m;
          Printf.sprintf "%.3f" (1000.0 *. time_algo env Optimizer.Sj);
          Printf.sprintf "%.3f" (1000.0 *. time_algo env Optimizer.Sja);
          Printf.sprintf "%.3f" (1000.0 *. time_algo env Optimizer.Greedy_sja);
        ])
      [ 2; 3; 4; 5; 6; 7 ]
  in
  Tables.print ~title:"X6b: optimization time vs m (n=8; ms, median of 5)"
    ~header:[ "m"; "sj (ms)"; "sja (ms)"; "greedy-sja (ms)" ]
    rows_m;
  (* Branch and bound: same optimum, pruned ordering tree. *)
  let rows_bb =
    List.map
      (fun m ->
        let env = warmed_env (Workload.generate (spec ~n:8 ~m)) in
        let sja_ms = 1000.0 *. time_algo env Optimizer.Sja in
        let bb_ms = 1000.0 *. Runner.time_median (fun () -> Branch_bound.sja_bb env) in
        let visited, orderings = Branch_bound.visited_orderings env in
        [
          Tables.i m;
          Printf.sprintf "%.3f" sja_ms;
          Printf.sprintf "%.3f" bb_ms;
          Printf.sprintf "%d/%d" visited orderings;
          Tables.ratio sja_ms bb_ms;
        ])
      [ 4; 5; 6; 7 ]
  in
  Tables.print
    ~title:"X6d: exhaustive SJA vs branch-and-bound (same optimum; n=8)"
    ~header:[ "m"; "sja (ms)"; "b&b (ms)"; "nodes/m!"; "speedup" ]
    rows_bb;
  (* Large m: exhaustive search is out; how close do the heuristics get?
     Reference optimum from branch-and-bound up to m = 8. *)
  let heterogeneous_spec ~m =
    {
      (spec ~n:8 ~m) with
      Workload.heterogeneity =
        { Workload.homogeneous with Workload.no_semijoin = 0.4; slow = 0.4 };
      selectivity_jitter = 0.5;
    }
  in
  let rows_heuristics =
    List.map
      (fun m ->
        let env = warmed_env (Workload.generate (heterogeneous_spec ~m)) in
        let greedy = (Optimizer.optimize Optimizer.Greedy_sja env).Fusion_core.Optimized.est_cost in
        let hill = (Iterative.sja_hill_climb env).Fusion_core.Optimized.est_cost in
        let exact, exact_label =
          if m <= 8 then ((Branch_bound.sja_bb env).Fusion_core.Optimized.est_cost, "b&b")
          else (hill, "(hill)")
        in
        let hill_ms = 1000.0 *. Runner.time_median (fun () -> Iterative.sja_hill_climb env) in
        [
          Tables.i m;
          Tables.f1 greedy;
          Tables.f1 hill;
          Printf.sprintf "%s %s" (Tables.f1 exact) exact_label;
          Tables.ratio greedy exact;
          Tables.ratio hill exact;
          Printf.sprintf "%.2f" hill_ms;
        ])
      [ 6; 8; 10; 12 ]
  in
  Tables.print
    ~title:"X6e: heuristics at large m (n=8; est. cost; exact = b&b up to m=8)"
    ~header:[ "m"; "greedy"; "hill-climb"; "exact"; "greedy/exact"; "hill/exact"; "hill ms" ]
    rows_heuristics

(* Bechamel microbenchmarks: the same measurements with statistically
   sound sampling. Kept behind an env var because they dominate the
   harness's runtime. *)
let bechamel_tests () =
  let open Bechamel in
  let test_point ~name ~n ~m algo =
    let env = warmed_env (Workload.generate (spec ~n ~m)) in
    Test.make ~name (Staged.stage (fun () -> ignore (Optimizer.optimize algo env)))
  in
  let exec_test =
    (* End-to-end plan execution (optimize once, execute repeatedly). *)
    let instance = Workload.generate (spec ~n:8 ~m:3) in
    let env = warmed_env instance in
    let plan = (Optimizer.optimize Optimizer.Sja env).Fusion_core.Optimized.plan in
    Bechamel.Test.make ~name:"exec sja n=8 m=3"
      (Bechamel.Staged.stage (fun () ->
           Array.iter Fusion_source.Source.reset_meter env.Opt_env.sources;
           ignore
             (Runner.run_plan ~sources:env.Opt_env.sources
                ~conds:env.Opt_env.conds plan)))
  in
  let semijoin_test =
    let relation =
      let schema =
        Fusion_data.Schema.create_exn ~merge:"M"
          [ ("M", Fusion_data.Value.Tstring); ("A", Fusion_data.Value.Tint) ]
      in
      let r = Fusion_data.Relation.create ~name:"R" schema in
      for i = 0 to 9_999 do
        Fusion_data.Relation.insert r
          [| Fusion_data.Value.String (Printf.sprintf "k%05d" (i mod 4000));
             Fusion_data.Value.Int (i mod 100) |]
      done;
      r
    in
    let probe =
      Fusion_data.Item_set.of_list
        (List.init 500 (fun i -> Fusion_data.Value.String (Printf.sprintf "k%05d" (i * 7))))
    in
    let pred t = Fusion_data.Value.compare t.(1) (Fusion_data.Value.Int 50) < 0 in
    Bechamel.Test.make ~name:"semijoin 500 probes vs 10k tuples"
      (Bechamel.Staged.stage (fun () ->
           ignore (Fusion_data.Relation.semijoin_items relation pred probe)))
  in
  [
    test_point ~name:"sja n=16 m=3" ~n:16 ~m:3 Optimizer.Sja;
    test_point ~name:"sja n=64 m=3" ~n:64 ~m:3 Optimizer.Sja;
    test_point ~name:"sja n=256 m=3" ~n:256 ~m:3 Optimizer.Sja;
    test_point ~name:"sja n=8 m=5" ~n:8 ~m:5 Optimizer.Sja;
    test_point ~name:"sj n=8 m=5" ~n:8 ~m:5 Optimizer.Sj;
    test_point ~name:"greedy-sja n=8 m=5" ~n:8 ~m:5 Optimizer.Greedy_sja;
    test_point ~name:"filter n=64 m=3" ~n:64 ~m:3 Optimizer.Filter;
    exec_test;
    semijoin_test;
  ]

let run_bechamel () =
  let open Bechamel in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.5) ~kde:(Some 1000) () in
  let tests = bechamel_tests () in
  Printf.printf "\n== X6c: Bechamel optimizer microbenchmarks ==\n%!";
  List.iter
    (fun test ->
      let results =
        Benchmark.all cfg instances (Test.make_grouped ~name:"opt" [ test ])
      in
      let analyzed =
        Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |])
          Toolkit.Instance.monotonic_clock results
      in
      Hashtbl.iter
        (fun name ols ->
          match Bechamel.Analyze.OLS.estimates ols with
          | Some [ est ] -> Printf.printf "%-24s %12.1f ns/run\n%!" name est
          | _ -> Printf.printf "%-24s (no estimate)\n%!" name)
        analyzed)
    tests
