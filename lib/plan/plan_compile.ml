open Fusion_data
open Fusion_cond
open Fusion_source
module Trace = Fusion_obs.Trace
module Metrics = Fusion_obs.Metrics
module Query_cache = Exec.Query_cache
module Int_set = Set.Make (Int)

type value = Items of Item_set.t | Loaded of Relation.t

(* The compiled local-selection scan. Steady state hits the [Some]
   branch with the same physical relation every run (Load returns the
   source's own relation object), so the condition compiles once for
   the lifetime of the compiled plan; only a `Partial-failure Load,
   which binds a fresh empty relation, recompiles. *)
type scan = { cond : Cond.t; mutable vec : Cond_vec.t option }

let scan state rel =
  let v =
    match state.vec with
    | Some v when Cond_vec.relation v == rel -> v
    | _ ->
      let v = Cond_vec.compile rel state.cond in
      state.vec <- Some v;
      v
  in
  Cond_vec.select_items v

type code =
  | Select of {
      server : int;
      cond : Cond.t;
      sname : string;
      ctext : string;
      task : int;
    }
  | Semijoin of {
      server : int;
      cond : Cond.t;
      input : int;
      sname : string;
      ctext : string;
      task : int;
      deps : int list;
    }
  | Load of { server : int; task : int }
  | Local_select of { input : int; scan : scan }
  | Union of int array
  | Inter of int array
  | Diff of int * int

type instr = { op : Op.t; dst : int; reads : int array; code : code }

type t = {
  plan : Plan.t;
  sources : Source.t array;
  program : instr array; (* plan order *)
  out : int;
  tasks : int;
  frame : value array; (* [run]'s scratch: makes a value non-reentrant *)
}

let plan t = t.plan
let sources t = t.sources
let program t = t.program
let output t = t.out
let task_count t = t.tasks

(* Every slot starts bound to the empty item set; validation guarantees
   each read follows the write that gives the slot its real value. *)
let reset frame = Array.fill frame 0 (Array.length frame) (Items Item_set.empty)

let frame t =
  reset t.frame;
  t.frame

let compile ~sources ~conds p =
  match Plan.validate ~m:(Array.length conds) ~n:(Array.length sources) p with
  | Error e -> Error e
  | Ok () ->
    let slot_ids = Hashtbl.create 16 in
    let nslots = ref 0 in
    (* One slot per variable name: rebinding reuses the slot, so reads
       always see the latest binding, exactly like a name -> binding
       table. *)
    let slot var =
      match Hashtbl.find_opt slot_ids var with
      | Some i -> i
      | None ->
        let i = !nslots in
        incr nslots;
        Hashtbl.add slot_ids var i;
        i
    in
    (* Condition texts are cache keys; render each condition once. *)
    let ctexts = Array.make (Array.length conds) None in
    let ctext c =
      match ctexts.(c) with
      | Some text -> text
      | None ->
        let text = Cond.to_string conds.(c) in
        ctexts.(c) <- Some text;
        text
    in
    (* The source-query dataflow: each slot carries the ids of the
       source queries whose completion makes its value available; local
       operations merge their inputs' sets. *)
    let slot_deps = Hashtbl.create 16 in
    let deps_of reads =
      Array.fold_left
        (fun acc i ->
          Int_set.union acc (Option.value ~default:Int_set.empty (Hashtbl.find_opt slot_deps i)))
        Int_set.empty reads
    in
    let ntasks = ref 0 in
    let task () =
      let id = !ntasks in
      incr ntasks;
      id
    in
    let instr (op : Op.t) =
      let reads = Array.of_list (List.map slot (Op.uses op)) in
      let code =
        match op with
        | Select { cond = c; source = j; _ } ->
          let s = sources.(j) in
          Select
            { server = j; cond = conds.(c); sname = Source.name s; ctext = ctext c;
              task = task () }
        | Semijoin { cond = c; source = j; _ } ->
          let s = sources.(j) in
          Semijoin
            { server = j; cond = conds.(c); input = reads.(0); sname = Source.name s;
              ctext = ctext c; task = task (); deps = Int_set.elements (deps_of reads) }
        | Load { source = j; _ } -> Load { server = j; task = task () }
        | Local_select { cond = c; _ } ->
          Local_select { input = reads.(0); scan = { cond = conds.(c); vec = None } }
        | Union _ -> Union reads
        | Inter _ -> Inter reads
        | Diff _ -> Diff (reads.(0), reads.(1))
      in
      let dst = slot (Op.dst op) in
      Hashtbl.replace slot_deps dst
        (match code with
        | Select { task; _ } | Semijoin { task; _ } | Load { task; _ } ->
          Int_set.singleton task
        | _ -> deps_of reads);
      { op; dst; reads; code }
    in
    let program = Array.of_list (List.map instr (Plan.ops p)) in
    let out = slot (Plan.output p) in
    Ok
      {
        plan = p;
        sources;
        program;
        out;
        tasks = !ntasks;
        frame = Array.make !nslots (Items Item_set.empty);
      }

(* Kinds were checked by [Plan.validate] when the program was compiled. *)
let items frame i =
  match frame.(i) with Items s -> s | Loaded _ -> assert false

let loaded frame i =
  match frame.(i) with Loaded r -> r | Items _ -> assert false

let local frame = function
  | Local_select { input; scan = state } -> scan state (loaded frame input)
  | Union args -> Item_set.union_list (Array.to_list (Array.map (items frame) args))
  | Inter args -> Item_set.inter_list (Array.to_list (Array.map (items frame) args))
  | Diff (left, right) -> Item_set.diff (items frame left) (items frame right)
  | Select _ | Semijoin _ | Load _ -> invalid_arg "Plan_compile.local: a source query"

let empty_load s = Relation.create ~name:(Source.name s) (Source.schema s)

let exec ?cache ?(policy = Exec.default_policy) ~record_steps t =
  let { Exec.retries; on_exhausted } = policy in
  let frame = frame t in
  let failures = ref 0 in
  let partial = ref false in
  let metered_cost () =
    Array.fold_left
      (fun acc s -> acc +. (Source.totals s).Fusion_net.Meter.cost)
      0.0 t.sources
  in
  let cache_outcome ctx hit =
    if cache <> None then begin
      Trace.attr ctx "cache" (Trace.Str (if hit then "hit" else "miss"));
      Metrics.record (fun r ->
          Metrics.incr r
            (if hit then "fusion_cache_hits_total" else "fusion_cache_misses_total"))
    end
  in
  let exec_code ctx { dst; code; _ } =
    match code with
    | Select { server; cond; sname; ctext; _ } -> (
      let s = t.sources.(server) in
      let cached = Option.bind cache (fun c -> Query_cache.find_keyed c ~sname ~ctext) in
      match cached with
      | Some answer ->
        Option.iter
          (fun c ->
            Query_cache.record_hit c s ~items_sent:0
              ~items_received:(Item_set.cardinal answer))
          cache;
        cache_outcome ctx true;
        frame.(dst) <- Items answer;
        (0.0, Item_set.cardinal answer)
      | None ->
        let answer, cost = Source.select_query s cond in
        Option.iter (fun c -> Query_cache.store_keyed c ~sname ~ctext answer) cache;
        cache_outcome ctx false;
        frame.(dst) <- Items answer;
        (cost, Item_set.cardinal answer))
    | Semijoin { server; cond; input; sname; ctext; _ } -> (
      let s = t.sources.(server) in
      let probe = items frame input in
      let cached =
        match Option.bind cache (fun c -> Query_cache.find_keyed c ~sname ~ctext) with
        | Some full -> Some (Item_set.inter full probe)
        | None ->
          Option.bind cache (fun c -> Query_cache.find_sjq_keyed c ~sname ~ctext probe)
      in
      match cached with
      | Some answer ->
        Option.iter
          (fun c ->
            let received = Item_set.cardinal answer in
            if (Source.capability s).Capability.native_semijoin then
              Query_cache.record_hit c s ~items_sent:(Item_set.cardinal probe)
                ~items_received:received
            else
              Query_cache.record_hit_emulated c s ~bindings:(Item_set.cardinal probe)
                ~items_received:received)
          cache;
        cache_outcome ctx true;
        frame.(dst) <- Items answer;
        (0.0, Item_set.cardinal answer)
      | None ->
        let answer, cost = Source.semijoin_query s cond probe in
        Option.iter (fun c -> Query_cache.store_sjq_keyed c ~sname ~ctext probe answer) cache;
        cache_outcome ctx false;
        frame.(dst) <- Items answer;
        (cost, Item_set.cardinal answer))
    | Load { server; _ } ->
      let relation, cost = Source.load_query t.sources.(server) in
      frame.(dst) <- Loaded relation;
      (cost, Relation.cardinality relation)
    | Local_select _ | Union _ | Inter _ | Diff _ ->
      let answer = local frame code in
      frame.(dst) <- Items answer;
      (0.0, Item_set.cardinal answer)
  in
  (* Source queries retry on timeouts, the step cost is the meter delta
     (failed attempts' overhead included), and `Partial binds a harmless
     empty value. *)
  let exec_with_retries ctx instr =
    let op = instr.op in
    if not (Op.is_source_query op) then exec_code ctx instr
    else begin
      let before = metered_cost () in
      let rec attempt budget =
        match exec_code ctx instr with
        | _, result_size -> Some result_size
        | exception Source.Timeout _ ->
          incr failures;
          if budget > 0 then attempt (budget - 1)
          else if on_exhausted = `Fail then raise (Source.Timeout (Op.dst op))
          else begin
            partial := true;
            (match instr.code with
            | Load { server; _ } ->
              frame.(instr.dst) <- Loaded (empty_load t.sources.(server))
            | _ -> frame.(instr.dst) <- Items Item_set.empty);
            None
          end
      in
      let result_size = attempt retries in
      (metered_cost () -. before, Option.value ~default:0 result_size)
    end
  in
  let steps = ref [] in
  let total = ref 0.0 in
  (* A loop, not [Array.iter]: a closure would capture [total] and box
     every partial sum. *)
  for k = 0 to Array.length t.program - 1 do
    let instr = t.program.(k) in
    let op = instr.op in
    let cost, result_size =
      Trace.span Trace.Step (Op.name op) (fun ctx ->
          let failures_before = !failures in
          let cost, result_size = exec_with_retries ctx instr in
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
    total := !total +. cost;
    if record_steps then steps := { Exec.op; cost; result_size } :: !steps
  done;
  {
    Exec.answer = items frame t.out;
    steps = List.rev !steps;
    total_cost = !total;
    failures = !failures;
    partial = !partial;
  }

let run ?cache ?policy t = exec ?cache ?policy ~record_steps:true t

let answer ?cache ?policy t = (exec ?cache ?policy ~record_steps:false t).Exec.answer
