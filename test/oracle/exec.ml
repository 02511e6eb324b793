(* The step-by-step plan interpreter: the reference semantics the
   compiled program ([Fusion_plan.Plan_compile]) and its two drivers are
   tested against. It walks the plan's operations over a name -> binding
   table, resolving every variable, source and condition as it goes,
   and renders each cache key per lookup. Test-only; nothing in the
   production libraries runs it. *)

open Fusion_data
open Fusion_cond
open Fusion_source
open Fusion_plan
module Trace = Fusion_obs.Trace
module Metrics = Fusion_obs.Metrics
module Query_cache = Exec.Query_cache

type binding = Items of Item_set.t | Loaded of Relation.t

let runtime_error msg = raise (Exec.Runtime_error msg)

let run ?cache ?(policy = Exec.default_policy) ~sources ~conds plan =
  let { Exec.retries; on_exhausted } = policy in
  let env : (string, binding) Hashtbl.t = Hashtbl.create 16 in
  let failures = ref 0 in
  let partial = ref false in
  let metered_cost () =
    Array.fold_left
      (fun acc s -> acc +. (Source.totals s).Fusion_net.Meter.cost)
      0.0 sources
  in
  let items var =
    match Hashtbl.find_opt env var with
    | Some (Items s) -> s
    | Some (Loaded _) -> runtime_error ((var ^ " is a loaded relation, not an item set"))
    | None -> runtime_error (("undefined variable " ^ var))
  in
  let loaded var =
    match Hashtbl.find_opt env var with
    | Some (Loaded r) -> r
    | Some (Items _) -> runtime_error ((var ^ " is an item set, not a loaded relation"))
    | None -> runtime_error (("undefined variable " ^ var))
  in
  let source j =
    if j < 0 || j >= Array.length sources then
      runtime_error ((Printf.sprintf "source index %d out of range" j));
    sources.(j)
  in
  let cond i =
    if i < 0 || i >= Array.length conds then
      runtime_error ((Printf.sprintf "condition index %d out of range" i));
    conds.(i)
  in
  (* Mark a cacheable step's outcome on its span and in the metrics. *)
  let cache_outcome ctx hit =
    if cache <> None then begin
      Trace.attr ctx "cache" (Trace.Str (if hit then "hit" else "miss"));
      Metrics.record (fun r ->
          Metrics.incr r
            (if hit then "fusion_cache_hits_total" else "fusion_cache_misses_total"))
    end
  in
  let exec_op ctx (op : Op.t) =
    match op with
    | Select { dst; cond = c; source = j } -> (
      let s = source j and condition = cond c in
      let cached = Option.bind cache (fun t -> Query_cache.find_keyed t ~sname:(Source.name s) ~ctext:(Cond.to_string condition)) in
      match cached with
      | Some answer ->
        Option.iter
          (fun t ->
            Query_cache.record_hit t s ~items_sent:0
              ~items_received:(Item_set.cardinal answer))
          cache;
        cache_outcome ctx true;
        Hashtbl.replace env dst (Items answer);
        (0.0, Item_set.cardinal answer)
      | None ->
        let answer, cost = Source.select_query s condition in
        Option.iter (fun t -> Query_cache.store_keyed t ~sname:(Source.name s) ~ctext:(Cond.to_string condition) answer) cache;
        cache_outcome ctx false;
        Hashtbl.replace env dst (Items answer);
        (cost, Item_set.cardinal answer))
    | Semijoin { dst; cond = c; source = j; input } -> (
      let s = source j and condition = cond c in
      let probe = items input in
      let cached =
        match Option.bind cache (fun t -> Query_cache.find_keyed t ~sname:(Source.name s) ~ctext:(Cond.to_string condition)) with
        | Some full -> Some (Item_set.inter full probe)
        | None -> Option.bind cache (fun t -> Query_cache.find_sjq_keyed t ~sname:(Source.name s) ~ctext:(Cond.to_string condition) probe)
      in
      match cached with
      | Some answer ->
        (* Either derived from a cached selection (sjq = sq ∩ X) or an
           exact replay of a previous semijoin. *)
        Option.iter
          (fun t ->
            let received = Item_set.cardinal answer in
            if (Source.capability s).Capability.native_semijoin then
              Query_cache.record_hit t s ~items_sent:(Item_set.cardinal probe)
                ~items_received:received
            else
              Query_cache.record_hit_emulated t s ~bindings:(Item_set.cardinal probe)
                ~items_received:received)
          cache;
        cache_outcome ctx true;
        Hashtbl.replace env dst (Items answer);
        (0.0, Item_set.cardinal answer)
      | None ->
        let answer, cost = Source.semijoin_query s condition probe in
        Option.iter (fun t -> Query_cache.store_sjq_keyed t ~sname:(Source.name s) ~ctext:(Cond.to_string condition) probe answer) cache;
        cache_outcome ctx false;
        Hashtbl.replace env dst (Items answer);
        (cost, Item_set.cardinal answer))
    | Load { dst; source = j } ->
      let relation, cost = Source.load_query (source j) in
      Hashtbl.replace env dst (Loaded relation);
      (cost, Relation.cardinality relation)
    | Local_select { dst; cond = c; input } ->
      let relation = loaded input in
      (* Interpreted row path, with attribute offsets resolved once per
         condition; [Plan_compile] is the columnar fast path. *)
      let pred = Cond.compile (Relation.schema relation) (cond c) in
      let answer = Relation.select_items relation pred in
      Hashtbl.replace env dst (Items answer);
      (0.0, Item_set.cardinal answer)
    | Union { dst; args } ->
      let answer = Item_set.union_list (List.map items args) in
      Hashtbl.replace env dst (Items answer);
      (0.0, Item_set.cardinal answer)
    | Inter { dst; args } ->
      let answer = Item_set.inter_list (List.map items args) in
      Hashtbl.replace env dst (Items answer);
      (0.0, Item_set.cardinal answer)
    | Diff { dst; left; right } ->
      let answer = Item_set.diff (items left) (items right) in
      Hashtbl.replace env dst (Items answer);
      (0.0, Item_set.cardinal answer)
  in
  (* Source queries retry on timeouts; their step cost is the meter
     delta, which includes the failed attempts' overhead. *)
  let exec_with_retries ctx (op : Op.t) =
    if not (Op.is_source_query op) then exec_op ctx op
    else begin
      let before = metered_cost () in
      let rec attempt budget =
        match exec_op ctx op with
        | _, result_size -> Some result_size
        | exception Source.Timeout _ ->
          incr failures;
          if budget > 0 then attempt (budget - 1)
          else if on_exhausted = `Fail then raise (Source.Timeout (Op.dst op))
          else begin
            partial := true;
            (* Bind a harmless empty value so the plan can continue. *)
            (match op with
            | Select { dst; _ } | Semijoin { dst; _ } ->
              Hashtbl.replace env dst (Items Item_set.empty)
            | Load { dst; source = j } ->
              Hashtbl.replace env dst
                (Loaded
                   (Relation.create
                      ~name:(Source.name sources.(j))
                      (Source.schema sources.(j))))
            | _ -> assert false);
            None
          end
      in
      let result_size = attempt retries in
      (metered_cost () -. before, Option.value ~default:0 result_size)
    end
  in
  let steps =
    List.map
      (fun op ->
        let cost, result_size =
          Trace.span Trace.Step (Op.name op) (fun ctx ->
              let failures_before = !failures in
              let cost, result_size = exec_with_retries ctx op in
              if Trace.active ctx then begin
                Trace.attrs ctx
                  [
                    ("dst", Trace.Str (Op.dst op));
                    ("cost", Trace.Float cost);
                    ("result_size", Trace.Int result_size);
                  ];
                if !failures > failures_before then
                  Trace.attr ctx "timeouts" (Trace.Int (!failures - failures_before))
              end;
              (cost, result_size))
        in
        { Exec.op; cost; result_size })
      (Plan.ops plan)
  in
  {
    Exec.answer = items (Plan.output plan);
    steps;
    total_cost = List.fold_left (fun acc s -> acc +. s.Exec.cost) 0.0 steps;
    failures = !failures;
    partial = !partial;
  }
