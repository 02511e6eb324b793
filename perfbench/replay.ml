(* The traced run: replays a workload's exact statement and mutation
   stream in-process, against the same saved catalog, through the
   public calls each layer exposes. Bench-side spans wrap every call
   ([Phase "bench"], named after the layer), and the collector also
   catches the program's own Optimize/Postopt/Step/Request spans, which
   split the optimizer and execution times further. *)

module Mediator = Fusion_mediator.Mediator
module Trace = Fusion_obs.Trace
module Sql = Fusion_query.Sql
module Plan_compile = Fusion_plan.Plan_compile
module Source = Fusion_source.Source
module Cond = Fusion_cond.Cond
module Cond_vec = Fusion_cond.Cond_vec
module Relation = Fusion_data.Relation
module Item_set = Fusion_data.Item_set
module Meter = Fusion_net.Meter

let bench = Trace.Phase "bench"

type env = {
  med : Mediator.t;
  srv : Mediator.Server.t option;  (** standing queries, for mutations *)
  conds : (string, Cond.t) Hashtbl.t;  (** every condition seen, by its text *)
  mutable minor_words : float;  (** allocated inside [Plan_compile.run] *)
  mutable kernel_calls : int;  (** [Item_set] kernels inside [Plan_compile.run] *)
  mutable drift : float list;  (** actual / estimated cost, per statement *)
}

let get what = function Ok v -> v | Error e -> failwith (what ^ ": " ^ e)

let setup ~catalog ~subs =
  let med = get "catalog" (Mediator.of_catalog catalog) in
  let srv =
    match subs with
    | [] -> None
    | texts ->
      let srv = Mediator.Server.create ~versioned_cache:true med in
      List.iter (fun text -> ignore (get "subscribe" (Mediator.Server.subscribe_sql srv text) : int)) texts;
      Some srv
  in
  { med; srv; conds = Hashtbl.create 256; minor_words = 0.; kernel_calls = 0; drift = [] }

let read env (s : Gen.stmt) =
  Trace.span bench "stmt" (fun _ ->
      let q =
        Trace.span bench "query.parse" (fun _ ->
            Sql.parse_fusion ~schema:(Mediator.schema env.med) ~union:"U" s.Gen.text)
        |> get "parse"
      in
      let prep =
        Trace.span bench "core.optimize" (fun _ -> Mediator.plan_for env.med q) |> get "optimize"
      in
      let conds = prep.Mediator.prep_env.Fusion_core.Opt_env.conds in
      Array.iter (fun c -> Hashtbl.replace env.conds (Cond.to_string c) c) conds;
      let cp =
        Trace.span bench "plan.compile" (fun _ ->
            Plan_compile.compile ~sources:(Mediator.sources env.med) ~conds
              prep.Mediator.prep_optimized.Fusion_core.Optimized.plan)
        |> get "compile"
      in
      let w0 = Gc.minor_words () and k0 = Item_set.Debug.kernel_calls () in
      let r = Trace.span bench "plan.exec" (fun _ -> Plan_compile.run cp) in
      env.minor_words <- env.minor_words +. (Gc.minor_words () -. w0);
      env.kernel_calls <- env.kernel_calls + (Item_set.Debug.kernel_calls () - k0);
      let est = prep.Mediator.prep_optimized.Fusion_core.Optimized.est_cost in
      if est > 0. then env.drift <- (r.Fusion_plan.Exec.total_cost /. est) :: env.drift;
      r)

let mutate env ~source payload =
  match env.srv with
  | None -> failwith "mutation without standing queries"
  | Some srv ->
    Trace.span bench "delta.mutate" (fun _ -> Mediator.Server.mutate_line srv ~source payload)
    |> get "mutate"
    |> ignore

let run_item env = function
  | Gen.Read s -> ignore (read env s : Fusion_plan.Exec.result)
  | Gen.Write (_, source, payload) -> mutate env ~source payload

let items_moved env =
  Array.fold_left
    (fun acc s ->
      let t = Source.totals s in
      acc + t.Meter.items_sent + t.Meter.items_received)
    0 (Mediator.sources env.med)

type result = {
  wall : float;  (** seconds to replay the main stream *)
  spans : Trace.span list;  (** the main stream's spans; [[]] untraced *)
  minor_words : float;
  kernel_calls : int;
  cost_drift : float;  (** mean of actual / estimated cost *)
  items : int;  (** items sent to plus received from the sources *)
  env : env;
}

let replay ~catalog ~subs ~warm ~main ~traced =
  let env = setup ~catalog ~subs in
  List.iter (run_item env) warm;
  env.minor_words <- 0.;
  env.kernel_calls <- 0;
  env.drift <- [];
  let items0 = items_moved env in
  let collector = Trace.create ~clock:Unix.gettimeofday () in
  let go () = List.iter (run_item env) main in
  let t0 = Unix.gettimeofday () in
  if traced then Trace.with_collector collector go else go ();
  let wall = Unix.gettimeofday () -. t0 in
  {
    wall;
    spans = (if traced then Trace.spans collector else []);
    minor_words = env.minor_words;
    kernel_calls = env.kernel_calls;
    cost_drift = Pct.mean (Array.of_list env.drift);
    items = items_moved env - items0;
    env;
  }

(* Re-issues every recorded source request's condition as a fresh
   columnar scan (sq: [select_items]; sjq: [semijoin_items] probing
   every item of the relation) and divides by the rows scanned. *)
let scan_ns_per_row env spans =
  let by_name = Hashtbl.create 16 in
  Array.iter (fun s -> Hashtbl.replace by_name (Source.name s) (Source.relation s)) (Mediator.sources env.med);
  let work =
    List.filter_map
      (fun (s : Trace.span) ->
        match (s.Trace.kind, Trace.find_attr s "source", Trace.find_attr s "cond") with
        | Trace.Request, Some (Trace.Str src), Some (Trace.Str c) -> (
          match (Hashtbl.find_opt by_name src, Hashtbl.find_opt env.conds c) with
          | Some rel, Some cond ->
            let probe = if s.Trace.name = "sjq" then Some (Relation.items rel) else None in
            Some (rel, cond, probe)
          | _ -> None)
        | _ -> None)
      spans
  in
  let rows = List.fold_left (fun acc (rel, _, _) -> acc + Relation.cardinality rel) 0 work in
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun (rel, cond, probe) ->
      let v = Cond_vec.compile rel cond in
      match probe with
      | None -> ignore (Cond_vec.select_items v : Item_set.t)
      | Some xs -> ignore (Cond_vec.semijoin_items v xs : Item_set.t))
    work;
  let dt = Unix.gettimeofday () -. t0 in
  if rows = 0 then Float.nan else dt *. 1e9 /. float_of_int rows

(* One statement under the concurrent executor, traced: the dispatched
   source queries carry the schedule attributes [fqcli trace critpath]
   needs, which the sequential replay's spans do not. *)
let critpath_spans env (s : Gen.stmt) =
  let collector = Trace.create ~clock:Unix.gettimeofday () in
  let config =
    { Mediator.Config.default with Mediator.Config.concurrency = `Par; trace = Some collector }
  in
  Result.map (fun (r : Mediator.report) -> r.Mediator.trace) (Mediator.run_sql ~config env.med s.Gen.text)

(* --- span arithmetic ----------------------------------------------------- *)

let dur (s : Trace.span) = s.Trace.finish_wall -. s.Trace.start_wall

let sum_where p spans = List.fold_left (fun acc s -> if p s then acc +. dur s else acc) 0. spans

let count_where p spans = List.fold_left (fun acc s -> if p s then acc + 1 else acc) 0 spans

let is_bench name (s : Trace.span) = s.Trace.kind = bench && s.Trace.name = name

(* Self time per (kind, name): a span's duration minus the part its
   direct children cover. *)
let self_times spans =
  let child_time = Hashtbl.create 1024 in
  List.iter
    (fun (s : Trace.span) ->
      match s.Trace.parent with
      | Some p ->
        Hashtbl.replace child_time p
          (dur s +. Option.value ~default:0. (Hashtbl.find_opt child_time p))
      | None -> ())
    spans;
  let acc = Hashtbl.create 32 in
  List.iter
    (fun (s : Trace.span) ->
      let key = Trace.kind_to_string s.Trace.kind ^ ":" ^ s.Trace.name in
      let self = dur s -. Option.value ~default:0. (Hashtbl.find_opt child_time s.Trace.id) in
      Hashtbl.replace acc key (self +. Option.value ~default:0. (Hashtbl.find_opt acc key)))
    spans;
  Hashtbl.fold (fun k v l -> (k, v) :: l) acc []
  |> List.sort (fun (_, a) (_, b) -> Float.compare b a)
