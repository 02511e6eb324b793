(* Live concurrent plan execution: the second driver of the compiled
   program ([Plan_compile]).

   Where [Plan_compile.run] runs the program's steps one after another
   (total elapsed time = total cost), this driver runs it on a
   [Fusion_rt.Runtime]: every source query is dispatched the moment its
   inputs are available, queries at different sources overlap, and
   queries at one source queue FIFO behind each other — so a slow
   mirror stalls only its own dependency chain. On the simulator
   backend the clock is the discrete-event schedule of [Fusion_net.Sim];
   on the domains backend requests really run concurrently and the
   clock is the wall.

   On the simulator, source queries are dispatched in plan order, which
   makes each source's request sequence identical to the sequential
   driver's. Answers, per-step costs and fault-injection draws
   therefore agree exactly with [Plan_compile.run] under the same
   policy; only the clock bookkeeping differs. That invariant is what
   the async property tests pin down.

   The execution itself lives in [Engine]: an incremental cursor over
   the program's instructions that evaluates local operations for free
   and surfaces one source query at a time for an external scheduler to
   dispatch onto a (possibly shared) runtime. It reads everything else
   from the program — integer slots, cache keys, dataflow task ids and
   the persistent local-selection scans — and keeps only a slot frame
   and a per-slot availability instant of its own. [run] is the trivial
   driver — one private simulated network, dispatch every request the
   moment it surfaces — [run_on] executes on a caller-supplied runtime
   (concurrent dataflow driver when the clock is real), and a serving
   layer (lib/serve) is the interesting one: many engines, one network,
   a scheduling policy arbitrating between them. *)

open Fusion_data
open Fusion_source
module Trace = Fusion_obs.Trace
module Metrics = Fusion_obs.Metrics
module Sim = Fusion_net.Sim
module Meter = Fusion_net.Meter
module Runtime = Fusion_rt.Runtime
module Fiber = Fusion_rt.Fiber
module Query_cache = Exec.Query_cache

(* Where a source-query step sat in the concurrent schedule: its
   dataflow node id (see [Parallel_exec.dataflow]), serving source and
   dependencies. [dispatched] is false when the step was answered
   without occupying the source (cache hit, or joining an in-flight
   request). Local operations have no schedule slot. *)
type sched = { task : int; server : int; deps : int list; dispatched : bool }

type step = {
  op : Op.t;
  cost : float;
  result_size : int;
  start : float;
  finish : float;
  coalesced : bool;
  sched : sched option;
}

type result = {
  answer : Item_set.t;
  steps : step list;
  total_cost : float;
  makespan : float;
  busy : float array;
  timeline : Sim.timeline;
  failures : int;
  partial : bool;
}

let to_exec_steps steps =
  List.map (fun s -> { Exec.op = s.op; cost = s.cost; result_size = s.result_size }) steps

module Engine = struct
  type request = { rq_op : Op.t; rq_server : int; rq_ready : float; rq_task : int }

  type t = {
    program : Plan_compile.t;
    sources : Source.t array;
    instrs : Plan_compile.instr array;
    frame : Plan_compile.value array;
    (* Instant at which each slot's value is available (simulated or
       wall clock, whichever the runtime keeps). *)
    avail : float array;
    cache : Query_cache.t option;
    policy : Exec.policy;
    deadline : float;
    answers : Answer_cache.t;
    rt : Runtime.t;
    offset : int;
    base : float;
    mutable pc : int; (* next instruction to execute *)
    mutable steps : step list; (* newest first *)
    mutable failures : int;
    mutable partial : bool;
  }

  let create ?cache ?(policy = Exec.default_policy) ?(deadline = infinity) ?answers
      ?(offset = 0) ?(base = 0.0) ~rt program =
    let frame = Plan_compile.frame program in
    {
      program;
      sources = Plan_compile.sources program;
      instrs = Plan_compile.program program;
      frame;
      avail = Array.make (Array.length frame) base;
      cache;
      policy;
      deadline;
      answers = (match answers with Some a -> a | None -> Answer_cache.create ());
      rt;
      offset;
      base;
      pc = 0;
      steps = [];
      failures = 0;
      partial = false;
    }

  let ready_of t (instr : Plan_compile.instr) =
    Array.fold_left (fun acc i -> Float.max acc t.avail.(i)) t.base instr.reads

  let bind t dst value at =
    t.frame.(dst) <- value;
    t.avail.(dst) <- at

  let cache_outcome t ctx hit =
    if t.cache <> None then begin
      Trace.attr ctx "cache" (Trace.Str (if hit then "hit" else "miss"));
      Metrics.record (fun r ->
          Metrics.incr r
            (if hit then "fusion_cache_hits_total" else "fusion_cache_misses_total"))
    end

  (* The source query's schedule slot: its compile-time dataflow task,
     shifted by [offset] so timelines of many engines sharing one
     network never collide. *)
  let sched t ~server ~task ~deps ~dispatched =
    { task = t.offset + task; server; deps = List.map (fun d -> t.offset + d) deps; dispatched }

  (* One logical source query issued through the runtime. The thunk —
     running on a pool worker under a real-clock backend — touches only
     the source: attempts run back to back until success, an exhausted
     retry budget, or an exhausted per-query deadline, and the meter
     delta is captured on the lane (where same-source requests
     serialize) for wall-clock calibration. Engine state — the failure
     counter, caches, bindings — is applied on the driving fibre after
     the call returns, so the thunk is safe to run on another domain. *)
  let source_call t ~s ~(sched : sched) ~ready f =
    let retries = t.policy.Exec.retries and deadline = t.deadline in
    let fail_fast = t.policy.Exec.on_exhausted = `Fail in
    let thunk () =
      let before = Source.totals s in
      let consumed () = (Source.totals s).Meter.cost -. before.Meter.cost in
      let rec go budget fails =
        match f () with
        | v -> (Some v, fails)
        | exception Source.Timeout _ ->
          if budget > 0 && consumed () < deadline then go (budget - 1) (fails + 1)
          else (None, fails + 1)
      in
      let outcome, fails = go retries 0 in
      let after = Source.totals s in
      let delta =
        {
          Meter.requests = after.Meter.requests - before.Meter.requests;
          items_sent = after.Meter.items_sent - before.Meter.items_sent;
          items_received = after.Meter.items_received - before.Meter.items_received;
          tuples_received = after.Meter.tuples_received - before.Meter.tuples_received;
          cost = after.Meter.cost -. before.Meter.cost;
        }
      in
      (* Under [`Fail] the sequential driver raises before its failed
         attempt ever reaches the network: don't book it. *)
      let book = outcome <> None || not fail_fast in
      ((outcome, fails, delta), delta.Meter.cost, book)
    in
    let (outcome, fails, delta), ev =
      Runtime.call t.rt ~id:sched.task ~server:sched.server ~ready ~deps:sched.deps thunk
    in
    t.failures <- t.failures + fails;
    Runtime.observe t.rt ~server:sched.server ~totals:delta
      ~wall:(ev.Sim.finish -. ev.Sim.start);
    (outcome, delta.Meter.cost, ev)

  let give_up t op =
    if t.policy.Exec.on_exhausted = `Fail then raise (Source.Timeout (Op.dst op));
    t.partial <- true

  let exec_instr t ctx (instr : Plan_compile.instr) =
    let op = instr.op and dst = instr.dst in
    let ready = ready_of t instr in
    match instr.code with
    | Plan_compile.Select { server = j; cond; sname; ctext; task } -> (
      let s = t.sources.(j) in
      let hit answer ~finish ~coalesced =
        Option.iter
          (fun c ->
            Query_cache.record_hit c s ~items_sent:0
              ~items_received:(Item_set.cardinal answer))
          t.cache;
        cache_outcome t ctx true;
        bind t dst (Plan_compile.Items answer) finish;
        { op; cost = 0.0; result_size = Item_set.cardinal answer; start = ready; finish;
          coalesced; sched = Some (sched t ~server:j ~task ~deps:[] ~dispatched:false) }
      in
      match
        Answer_cache.find t.answers ~source:sname ~cond:ctext
          ~version:(Relation.version (Source.relation s))
          ~ready ()
      with
      | Answer_cache.Inflight (finish, answer) ->
        (* The same selection is in flight: share its request. *)
        hit answer ~finish ~coalesced:true
      | Answer_cache.Cached (_staleness, answer) ->
        (* A recent enough answer from another query: reuse it. *)
        hit answer ~finish:ready ~coalesced:false
      | Answer_cache.Miss -> (
        match Option.bind t.cache (fun c -> Query_cache.find_keyed c ~sname ~ctext) with
        | Some answer -> hit answer ~finish:ready ~coalesced:false
        | None -> (
          let sc = sched t ~server:j ~task ~deps:[] ~dispatched:true in
          let outcome, duration, ev =
            source_call t ~s ~sched:sc ~ready (fun () -> fst (Source.select_query s cond))
          in
          let sched = Some sc in
          match outcome with
          | Some answer ->
            Option.iter (fun c -> Query_cache.store_keyed c ~sname ~ctext answer) t.cache;
            cache_outcome t ctx false;
            Answer_cache.note t.answers ~source:sname ~cond:ctext
              ~finish:ev.Sim.finish
              ~version:(Relation.version (Source.relation s))
              answer;
            bind t dst (Plan_compile.Items answer) ev.Sim.finish;
            { op; cost = duration; result_size = Item_set.cardinal answer;
              start = ev.Sim.start; finish = ev.Sim.finish; coalesced = false; sched }
          | None ->
            give_up t op;
            bind t dst (Plan_compile.Items Item_set.empty) ev.Sim.finish;
            { op; cost = duration; result_size = 0; start = ev.Sim.start;
              finish = ev.Sim.finish; coalesced = false; sched })))
    | Plan_compile.Semijoin { server = j; cond; input; sname; ctext; task; deps } -> (
      let s = t.sources.(j) in
      let probe = Plan_compile.items t.frame input in
      let derived =
        match
          Answer_cache.find t.answers ~source:sname ~cond:ctext
            ~version:(Relation.version (Source.relation s))
            ~ready ()
        with
        | Answer_cache.Inflight (finish, full) ->
          (* The selection answer being fetched is a superset: join the
             in-flight request and intersect locally on arrival. *)
          Some (finish, Item_set.inter full probe, true)
        | Answer_cache.Cached (_staleness, full) ->
          Some (ready, Item_set.inter full probe, false)
        | Answer_cache.Miss -> (
          match Option.bind t.cache (fun c -> Query_cache.find_keyed c ~sname ~ctext) with
          | Some full -> Some (ready, Item_set.inter full probe, false)
          | None -> (
            match
              Option.bind t.cache (fun c ->
                  Query_cache.find_sjq_keyed c ~sname ~ctext probe)
            with
            | Some answer -> Some (ready, answer, false)
            | None -> None))
      in
      match derived with
      | Some (finish, answer, coalesced) ->
        Option.iter
          (fun c ->
            let received = Item_set.cardinal answer in
            if (Source.capability s).Capability.native_semijoin then
              Query_cache.record_hit c s ~items_sent:(Item_set.cardinal probe)
                ~items_received:received
            else
              Query_cache.record_hit_emulated c s ~bindings:(Item_set.cardinal probe)
                ~items_received:received)
          t.cache;
        cache_outcome t ctx true;
        bind t dst (Plan_compile.Items answer) finish;
        { op; cost = 0.0; result_size = Item_set.cardinal answer; start = ready; finish;
          coalesced; sched = Some (sched t ~server:j ~task ~deps ~dispatched:false) }
      | None -> (
        let sc = sched t ~server:j ~task ~deps ~dispatched:true in
        let outcome, duration, ev =
          source_call t ~s ~sched:sc ~ready (fun () ->
              fst (Source.semijoin_query s cond probe))
        in
        let sched = Some sc in
        match outcome with
        | Some answer ->
          Option.iter
            (fun c -> Query_cache.store_sjq_keyed c ~sname ~ctext probe answer)
            t.cache;
          cache_outcome t ctx false;
          bind t dst (Plan_compile.Items answer) ev.Sim.finish;
          { op; cost = duration; result_size = Item_set.cardinal answer;
            start = ev.Sim.start; finish = ev.Sim.finish; coalesced = false; sched }
        | None ->
          give_up t op;
          bind t dst (Plan_compile.Items Item_set.empty) ev.Sim.finish;
          { op; cost = duration; result_size = 0; start = ev.Sim.start;
            finish = ev.Sim.finish; coalesced = false; sched }))
    | Plan_compile.Load { server = j; task } -> (
      let s = t.sources.(j) in
      let sc = sched t ~server:j ~task ~deps:[] ~dispatched:true in
      let outcome, duration, ev =
        source_call t ~s ~sched:sc ~ready (fun () -> fst (Source.load_query s))
      in
      let sched = Some sc in
      match outcome with
      | Some relation ->
        bind t dst (Plan_compile.Loaded relation) ev.Sim.finish;
        { op; cost = duration; result_size = Relation.cardinality relation;
          start = ev.Sim.start; finish = ev.Sim.finish; coalesced = false; sched }
      | None ->
        give_up t op;
        bind t dst (Plan_compile.Loaded (Plan_compile.empty_load s)) ev.Sim.finish;
        { op; cost = duration; result_size = 0; start = ev.Sim.start;
          finish = ev.Sim.finish; coalesced = false; sched })
    | (Plan_compile.Local_select _ | Union _ | Inter _ | Diff _) as code ->
      let answer = Plan_compile.local t.frame code in
      bind t dst (Plan_compile.Items answer) ready;
      { op; cost = 0.0; result_size = Item_set.cardinal answer; start = ready;
        finish = ready; coalesced = false; sched = None }

  let run_instr t (instr : Plan_compile.instr) =
    let op = instr.op in
    let step =
      Trace.span Trace.Step (Op.name op) (fun ctx ->
          let failures_before = t.failures in
          let step = exec_instr t ctx instr in
          if Trace.active ctx then begin
            Trace.attrs ctx
              [
                ("dst", Trace.Str (Op.dst op));
                ("cost", Trace.Float step.cost);
                ("result_size", Trace.Int step.result_size);
                ("t_start", Trace.Float step.start);
                ("t_finish", Trace.Float step.finish);
              ];
            (match step.sched with
            | Some s ->
              Trace.attrs ctx
                [
                  ("task", Trace.Int s.task);
                  ("server", Trace.Int s.server);
                  ("deps",
                   Trace.Str (String.concat "," (List.map string_of_int s.deps)));
                  ("dispatched", Trace.Bool s.dispatched);
                ]
            | None -> ());
            (match op with
            | Select { cond = c; _ } | Semijoin { cond = c; _ }
            | Local_select { cond = c; _ } ->
              Trace.attr ctx "cond" (Trace.Int c)
            | _ -> ());
            if step.coalesced then Trace.attr ctx "coalesced" (Trace.Bool true);
            if t.failures > failures_before then
              Trace.attr ctx "timeouts" (Trace.Int (t.failures - failures_before))
          end;
          step)
    in
    t.steps <- step :: t.steps;
    step

  let finished t = t.pc = Array.length t.instrs

  (* Evaluate free local operations at the head of the cursor, then
     surface the next source query (or nothing, when the plan is done).
     Local operations never need a scheduling decision: they cost
     nothing and happen the instant their inputs are available. *)
  let rec pending t =
    if finished t then None
    else
      let instr = t.instrs.(t.pc) in
      match instr.code with
      | Plan_compile.Select { server; task; _ }
      | Plan_compile.Semijoin { server; task; _ }
      | Plan_compile.Load { server; task; _ } ->
        Some
          {
            rq_op = instr.op;
            rq_server = server;
            rq_ready = ready_of t instr;
            rq_task = t.offset + task;
          }
      | Plan_compile.Local_select _ | Union _ | Inter _ | Diff _ ->
        t.pc <- t.pc + 1;
        ignore (run_instr t instr);
        pending t

  let dispatch t =
    if (not (finished t)) && Op.is_source_query t.instrs.(t.pc).op then begin
      let instr = t.instrs.(t.pc) in
      t.pc <- t.pc + 1;
      run_instr t instr
    end
    else invalid_arg "Exec_async.Engine.dispatch: no pending source query"

  let task_count t = Plan_compile.task_count t.program
  let steps t = List.rev t.steps
  let failures t = t.failures
  let partial t = t.partial

  let total_cost t = List.fold_left (fun acc s -> acc +. s.cost) 0.0 t.steps
  let finish_time t = List.fold_left (fun acc s -> Float.max acc s.finish) t.base t.steps

  let answer t =
    if not (finished t) then invalid_arg "Exec_async.Engine.answer: plan not finished";
    Plan_compile.items t.frame (Plan_compile.output t.program)
end

(* The sequential driver: dispatch every request the moment it
   surfaces. On the simulator this is the oracle execution order. *)
let drive_sequential e =
  let rec drive () =
    match Engine.pending e with
    | Some _ ->
      ignore (Engine.dispatch e);
      drive ()
    | None -> ()
  in
  drive ()

(* The concurrent dataflow driver for real-clock runtimes: walk the
   program in order, fork one fibre per source query, and synchronize
   through per-slot promises — an instruction waits only for the
   in-flight producers of its own inputs, so independent queries really
   overlap while the runtime's per-server lanes keep each source FIFO.
   The cursor advances on the driving fibre, in plan order, before the
   query fibre first suspends. *)
let drive_concurrent (e : Engine.t) rt =
  Runtime.run rt @@ fun () ->
  let inflight = Array.make (Array.length e.Engine.frame) None in
  Fiber.Switch.run (fun sw ->
      while not (Engine.finished e) do
        let instr = e.Engine.instrs.(e.Engine.pc) in
        Array.iter
          (fun i -> Option.iter Fiber.Promise.await inflight.(i))
          instr.Plan_compile.reads;
        e.Engine.pc <- e.Engine.pc + 1;
        if Op.is_source_query instr.Plan_compile.op then begin
          let p = Fiber.Promise.create () in
          inflight.(instr.Plan_compile.dst) <- Some p;
          Fiber.Switch.fork sw (fun () ->
              Fun.protect
                ~finally:(fun () -> Fiber.Promise.resolve p ())
                (fun () -> ignore (Engine.run_instr e instr)))
        end
        else ignore (Engine.run_instr e instr)
      done)

let collect e rt =
  let steps = Engine.steps e in
  {
    answer = Engine.answer e;
    steps;
    total_cost = List.fold_left (fun acc s -> acc +. s.cost) 0.0 steps;
    makespan = List.fold_left (fun acc s -> Float.max acc s.finish) 0.0 steps;
    busy = Runtime.busy rt;
    timeline = Runtime.timeline rt;
    failures = Engine.failures e;
    partial = Engine.partial e;
  }

let run_on ?cache ?policy ?deadline ~rt ~sources ~conds plan =
  let program =
    match Plan_compile.compile ~sources ~conds plan with
    | Ok program -> program
    | Error msg -> raise (Exec.Runtime_error msg)
  in
  let e = Engine.create ?cache ?policy ?deadline ~rt program in
  if Runtime.is_real rt then drive_concurrent e rt else drive_sequential e;
  collect e rt

let run ?cache ?policy ?deadline ~sources ~conds plan =
  run_on ?cache ?policy ?deadline
    ~rt:(Runtime.sim ~servers:(Array.length sources))
    ~sources ~conds plan
