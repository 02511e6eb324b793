(* perfbench: TCP-served fusion queries, end to end and layer by layer.

   perfbench --workload hot_mix|cold_scan|sub_churn --seed N --seconds S --trace 0|1

   Generates the workload's federation and streams from the seed, starts
   [fqcli serve] on the saved catalog, drives it open-loop over
   loopback, checks every answer against the oracle, and prints every
   metric by name, unit and sample count; the last line is one JSON
   object. With --trace 1 the end-to-end figures give way to per-layer
   ones from an in-process replay of the same stream. See README.md. *)

module Workload = Fusion_workload.Workload
module Trace = Fusion_obs.Trace
module Json = Fusion_obs.Json
module Jsonl = Fusion_obs.Jsonl
module Analyze = Fusion_obs.Analyze
module S = Churn.S

let now = Unix.gettimeofday

let die code fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perfbench: " ^ s);
      Child.kill_all ();
      exit code)
    fmt

(* Wall-clock budget of one run: every phase is time-boxed below it,
   and the watchdog kills the server and exits past it. *)
let hard_limit = 170.

(* The traced replay covers at most this many statements of the
   nominal window (a prefix, mutations included): per-layer figures are
   means, and the replay must fit the run's time budget. *)
let replay_limit = 600

type args = { workload : Gen.kind; seed : int; seconds : float; trace : bool; capacity : bool }

let parse_args () =
  let wl = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let capacity = ref false in
  let rec go = function
    | "--workload" :: v :: rest -> wl := Gen.kind_of_name v; go rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; go rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; go rest
    | "--trace" :: v :: rest ->
      trace := (match v with "0" -> Some false | "1" -> Some true | _ -> None);
      go rest
    | "--capacity" :: rest -> capacity := true; go rest
    | [] -> ()
    | a :: _ -> die 2 "unknown argument %S" a
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!wl, !seed, !seconds, !trace) with
  | Some workload, Some seed, Some seconds, Some trace
    when seconds > 0. && not (trace && !capacity) ->
    { workload; seed; seconds; trace; capacity = !capacity }
  | _ ->
    die 2
      "usage: perfbench --workload hot_mix|cold_scan|sub_churn --seed N --seconds S --trace 0|1 \
       [--capacity]"

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

(* --- metrics -------------------------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string; note : string }

let metric name unit_ ?(note = "") value = { name; value; unit_; note }

let print_metrics title ms =
  Printf.printf "%s\n" title;
  List.iter
    (fun m -> Printf.printf "  %-30s %12.4f %-6s %s\n" m.name m.value m.unit_ m.note)
    ms

let result_line ~correct ~attempted ~failed ms =
  Json.to_string
    (Json.Obj
       [ ("correct", Json.Bool correct); ("attempted", Json.Int attempted);
         ("failed", Json.Int failed);
         ( "metrics",
           Json.Obj
             (List.map
                (fun m ->
                  (m.name, Json.Obj [ ("value", Json.Float m.value); ("unit", Json.Str m.unit_) ]))
                ms) ) ])

let ms x = x *. 1000.

let latency (op : Drive.op) = op.Drive.recv -. op.Drive.at

(* --- the run -------------------------------------------------------------- *)

let () =
  let args = parse_args () in
  let started = now () in
  Sys.set_signal Sys.sigalrm
    (Sys.Signal_handle
       (fun _ ->
         prerr_endline "perfbench: hard timeout, killing the server";
         Child.kill_all ();
         exit 3));
  ignore (Unix.alarm (int_of_float hard_limit + 5) : int);
  at_exit Child.kill_all;
  let hard_deadline = started +. hard_limit in
  let fqcli = Filename.concat "_build" (Filename.concat "default" "bin/fqcli.exe") in
  if not (Sys.file_exists fqcli) then die 2 "%s is missing: run perfbench/run.sh" fqcli;
  let fqcli = Filename.concat (Sys.getcwd ()) fqcli in
  let wl = Gen.name_of args.workload in
  let out =
    Filename.concat "_perfbench"
      (Printf.sprintf "%s-s%d-t%d" wl args.seed (if args.trace then 1 else 0))
  in
  mkdir_p out;
  let cfg = Gen.config args.workload ~seed:args.seed in
  let fed = Filename.concat out "fed" in
  Workload.save ~dir:fed (Workload.generate cfg.Gen.spec);
  let catalog = Filename.concat fed "catalog.ini" in
  let g = Gen.create cfg in
  (* --- set-up: spawn to first accepted connection, eleven times -------- *)
  let spawn_connect tag =
    let rec attempt n =
      let c = Child.spawn ~exe:fqcli ~catalog ~dir:out ~tag in
      match Child.connect c ~timeout:30. with
      | Ok (fd, dt) -> (c, fd, dt)
      | Error e ->
        (* A port taken between choosing and binding it: choose again. *)
        if n < 3 && not (Child.alive c) then attempt (n + 1)
        else die 2 "%s; server stderr:\n%s" e (Child.stderr_tail c)
    in
    attempt 0
  in
  let setups =
    List.init 10 (fun i ->
        let c, fd, dt = spawn_connect (Printf.sprintf "setup%d" i) in
        Unix.close fd;
        Child.stop c;
        dt)
  in
  let child, fd0, dt = spawn_connect "server" in
  let setup_samples = Array.of_list (dt :: setups) in
  let fds =
    match cfg.Gen.kind with
    | Gen.Sub_churn -> (
      match Child.connect child ~timeout:5. with
      | Ok (fd1, _) -> [ fd0; fd1 ]
      | Error e -> die 2 "second connection: %s" e)
    | _ -> [ fd0 ]
  in
  let d = Drive.create ~hard_deadline fds in
  let mut_ops = Hashtbl.create 256 in
  let op_of_item ~phase ~at = function
    | Gen.Read s -> Drive.make ~phase ~at ~conn:0 (Drive.Read s) s.Gen.text
    | Gen.Write (k, source, payload) ->
      let op = Drive.make ~phase ~at ~conn:0 (Drive.Write k) ("mut " ^ source ^ " " ^ payload) in
      Hashtbl.replace mut_ops k op;
      op
  in
  let all_ops = ref [] in
  let keep ops = all_ops := List.rev_append (Array.to_list ops) !all_ops in
  (* --- warm-up: standing queries registered, every hot text seen ------ *)
  let warm_until = now () +. 30. in
  let subs =
    match cfg.Gen.kind with
    | Gen.Sub_churn ->
      Drive.closed_loop d ~phase:0 ~until:warm_until
        (List.mapi (fun k (s : Gen.stmt) -> (Drive.Subscribe k, 1, "sub " ^ s.Gen.text))
           (Array.to_list g.Gen.hot))
    | _ -> []
  in
  let warm_stmts = Gen.warmup g in
  let warm =
    Drive.closed_loop d ~phase:0 ~until:warm_until
      (List.map (fun (s : Gen.stmt) -> (Drive.Read s, 0, s.Gen.text)) warm_stmts)
  in
  keep (Array.of_list (subs @ warm));
  let scrape () =
    match Child.snapshot child with
    | Ok s -> s
    | Error e -> die 2 "admin scrape failed: %s; server stderr:\n%s" e (Child.stderr_tail child)
  in
  (* --- the nominal-rate window ----------------------------------------- *)
  (* With --capacity the window is a closed loop over the same mix, so
     the stream only needs to be long enough. *)
  let main_items =
    Gen.stream g ~read_rate:cfg.Gen.read_rate ~mut_rate:cfg.Gen.mut_rate
      ~seconds:(if args.capacity then 10. *. args.seconds else args.seconds)
  in
  let snap0 = if args.trace then Some (scrape ()) else None in
  let t_main = now () +. 0.02 in
  let main_ops =
    if args.capacity then begin
      (* Each operation is sent when the previous one is answered, until
         the window ends: the throughput that sizes the nominal rates. *)
      let until = t_main +. args.seconds in
      let rec go acc = function
        | (_, it) :: rest when now () < until && not (Drive.server_gone d) ->
          let op = op_of_item ~phase:1 ~at:(now ()) it in
          Drive.run d [| op |] ~drain_until:(until +. 10.);
          go (op :: acc) rest
        | _ -> Array.of_list (List.rev acc)
      in
      go [] main_items
    end
    else begin
      let ops =
        Array.of_list
          (List.map (fun (off, it) -> op_of_item ~phase:1 ~at:(t_main +. off) it) main_items)
      in
      Drive.run d ops ~drain_until:(t_main +. args.seconds +. 10.);
      ops
    end
  in
  keep main_ops;
  let snap1 = if args.trace then Some (scrape ()) else None in
  let rss_mb = Child.peak_rss_mb child in
  let died = Drive.server_gone d || not (Child.alive child) in
  Child.stop child;
  Drive.close d;
  if died then
    Printf.eprintf "perfbench: the server died during the run; its stderr:\n%s\n"
      (Child.stderr_tail child);
  let ops = List.rev !all_ops in
  (* --- correctness: the oracle, outside the timed window ---------------- *)
  let oracle =
    match Oracle.create catalog with Ok o -> o | Error e -> die 2 "oracle: %s" e
  in
  let oracle_answer text =
    match Oracle.answer oracle text with Ok a -> a | Error e -> die 2 "oracle on %S: %s" text e
  in
  let wrong = ref [] in
  let wrongf fmt = Printf.ksprintf (fun s -> wrong := s :: !wrong) fmt in
  let mutations = Gen.ops g in
  let mut_op k = Hashtbl.find_opt mut_ops k in
  let row f = Hashtbl.find g.Gen.rows f in
  let reads =
    Churn.reads mutations
      ~sent_at:
        (Array.init (Array.length mutations) (fun k ->
             match mut_op k with
             | Some m when not (Float.is_nan m.Drive.sent) -> m.Drive.sent
             | _ -> Float.infinity))
  in
  let mut_index = reads.Churn.r_idx in
  List.iter
    (fun (op : Drive.op) ->
      match (op.Drive.what, op.Drive.reply) with
      | Drive.Read s, Some (Reply.Ok_reply r) ->
        let got = S.of_list r.items in
        let want = oracle_answer s.Gen.text in
        let base = S.filter (fun x -> not (Churn.is_fresh x)) got in
        if S.cardinal got <> r.rows || List.length r.items <> r.rows then
          wrongf "statement id=%d: rows=%d but %d items" r.id r.rows (List.length r.items)
        else if not (S.equal base want) then
          wrongf "statement id=%d (%s): %d items, oracle %d (extra {%s} missing {%s})" r.id
            s.Gen.text (S.cardinal base) (S.cardinal want)
            (Churn.describe (S.diff base want)) (Churn.describe (S.diff want base))
        else begin
          let fresh = List.filter_map Churn.fresh_of_item (S.elements (S.diff got base)) in
          match
            Churn.check_read reads ~matches:(fun f -> Gen.matches s (row f)) ~sent:op.Drive.sent
              ~recv:op.Drive.recv fresh
          with
          | Ok () -> ()
          | Error e -> wrongf "statement id=%d (%s): %s" r.id s.Gen.text e
        end
      | Drive.Write k, Some (Reply.Mut m) ->
        let expect_ins = match mutations.(k) with Churn.Insert _ -> 1 | Churn.Delete _ -> 0 in
        if m.inserted <> expect_ins || m.deleted <> 1 - expect_ins || m.missed <> 0 then
          wrongf "mutation %d acknowledged as inserted=%d deleted=%d missed=%d" k m.inserted
            m.deleted m.missed
      | _ -> ())
    ops;
  (* Pushes: fold each subscription's diffs onto its initial answer. *)
  let push_lat = ref [] in
  (match cfg.Gen.kind with
  | Gen.Sub_churn ->
    let by_sub = Hashtbl.create 64 in
    List.iter
      (fun (op : Drive.op) ->
        match (op.Drive.what, op.Drive.reply) with
        | Drive.Subscribe k, Some (Reply.Sub { id; items; _ }) ->
          let s = g.Gen.hot.(k) in
          let base = oracle_answer s.Gen.text in
          if not (S.equal (S.of_list items) base) then
            wrongf "subscription %d: initial answer differs from the oracle" id;
          Hashtbl.replace by_sub id
            (Churn.make_sub ~base ~matches:(fun f -> Gen.matches s (row f)) ~initial:items)
        | _ -> ())
      subs;
    List.iter
      (fun (p : Drive.push) ->
        match Hashtbl.find_opt by_sub p.Drive.p_sub with
        | None -> wrongf "push for unknown subscription %d" p.Drive.p_sub
        | Some sub -> (
          match
            Churn.apply_push mutations mut_index sub ~rows:p.Drive.p_rows ~added:p.Drive.p_added
              ~removed:p.Drive.p_removed
          with
          | Error e -> wrongf "subscription %d push seq=%d: %s" p.Drive.p_sub p.Drive.p_seq e
          | Ok k -> (
            match mut_op k with
            | Some m -> push_lat := (p.Drive.p_recv -. m.Drive.at) :: !push_lat
            | None -> wrongf "push names mutation %d, which was never sent" k)))
      (List.rev d.Drive.pushes);
    if not died then begin
      (* Mutations are applied and acknowledged in order. *)
      let acked = ref 0 in
      while
        !acked < Array.length mutations
        && match mut_op !acked with Some m -> Drive.answered m | None -> false
      do
        incr acked
      done;
      let acked = !acked in
      Hashtbl.iter
        (fun id sub ->
          match Churn.final_check mutations sub ~acked with
          | Ok () -> ()
          | Error e -> wrongf "subscription %d: %s" id e)
        by_sub
    end
  | _ -> ());
  List.iter (fun l -> wrongf "protocol: %s" l) d.Drive.protocol;
  let correct = !wrong = [] in
  List.iter (fun w -> prerr_endline ("WRONG " ^ w)) (List.rev !wrong);
  (* --- counts --------------------------------------------------------------- *)
  let attempted = List.length ops in
  let failed_op (op : Drive.op) =
    match op.Drive.reply with
    | Some (Reply.Shed _ | Reply.Error_reply _) | None -> true
    | Some _ -> false
  in
  let failed = List.length (List.filter failed_op ops) in
  let main_list = Array.to_list main_ops in
  let main_failed = List.length (List.filter failed_op main_list) in
  let lags =
    List.filter_map
      (fun (op : Drive.op) ->
        if op.Drive.phase >= 1 && not (Float.is_nan op.Drive.sent) then Some (op.Drive.sent -. op.Drive.at)
        else None)
      ops
    |> Array.of_list
  in
  let lag50 = Pct.median lags and lag_tail = Pct.tail lags in
  let ok_main =
    List.filter_map
      (fun (op : Drive.op) ->
        match (op.Drive.what, op.Drive.reply) with
        | Drive.Read _, Some (Reply.Ok_reply r) -> Some (op, r)
        | _ -> None)
      main_list
  in
  let stmt_lat = Array.of_list (List.map (fun (op, _) -> latency op) ok_main) in
  let mut_lat =
    List.filter_map
      (fun (op : Drive.op) ->
        match (op.Drive.what, op.Drive.reply) with
        | Drive.Write _, Some (Reply.Mut _) -> Some (latency op)
        | _ -> None)
      main_list
    |> Array.of_list
  in
  let push_main = Array.of_list !push_lat in
  let p50 = Pct.median stmt_lat and tail = Pct.windowed_tail stmt_lat in
  let cost_per_stmt = Pct.mean (Array.of_list (List.map (fun (_, r) -> r.Reply.cost) ok_main)) in
  let header =
    Printf.sprintf "perfbench %s seed=%d seconds=%g trace=%d: %d operations, %d failed%s" wl
      args.seed args.seconds (if args.trace then 1 else 0) attempted failed
      (if correct then "" else Printf.sprintf ", %d WRONG" (List.length !wrong))
  in
  Printf.printf "%s\n" header;
  Printf.printf "  set-up samples: %s s\n"
    (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.4f") setup_samples)));
  if args.capacity then begin
    let first = Array.fold_left (fun a (op : Drive.op) -> Float.min a op.Drive.sent) Float.infinity main_ops
    and last =
      Array.fold_left
        (fun a (op : Drive.op) -> if Drive.answered op then Float.max a op.Drive.recv else a)
        Float.neg_infinity main_ops
    in
    Printf.printf "  closed-loop capacity: %.1f stmt/s and %.1f mut/s over %.2f s\n"
      (float_of_int (Array.length stmt_lat) /. (last -. first))
      (float_of_int (Array.length mut_lat) /. (last -. first))
      (last -. first)
  end;
  Printf.printf "  generator lag: p50 %.3f ms, %s %.3f ms (n=%d)\n" (ms lag50.Pct.value) lag_tail.Pct.label
    (ms lag_tail.Pct.value) lag_tail.Pct.n;
  (* A generator that fell behind its schedule did not offer the load it
     claims: the run is invalid, not slow. *)
  if lag50.Pct.value > 0.001 || lag_tail.Pct.value > 0.02 then
    die 4 "invalid run: the generator fell behind its schedule (lag p50 %.3f ms, %s %.3f ms)"
      (ms lag50.Pct.value) lag_tail.Pct.label (ms lag_tail.Pct.value);
  let n_note n label = Printf.sprintf "(%s, n=%d)" label n in
  let setup = Pct.median setup_samples in
  let e2e =
    [ metric "stmt_p50_ms" "ms" (ms p50.Pct.value) ~note:(n_note p50.Pct.n "p50");
      metric "stmt_tail_ms" "ms" (ms tail.Pct.value) ~note:(n_note tail.Pct.n tail.Pct.label);
      metric "source_cost_per_stmt" "cost" cost_per_stmt ~note:(n_note (Array.length stmt_lat) "mean");
      metric "setup_s" "s" setup.Pct.value ~note:(n_note setup.Pct.n "median");
      metric "server_rss_mb" "MB" rss_mb ~note:"(VmHWM)" ]
  in
  let extra =
    (let p99 = Pct.tail stmt_lat and worst = Pct.max_window_tail stmt_lat in
     [ metric "stmt_p99_ms" "ms" (ms p99.Pct.value) ~note:(n_note p99.Pct.n p99.Pct.label);
       metric "stmt_tail_max_ms" "ms" (ms worst.Pct.value) ~note:(n_note worst.Pct.n worst.Pct.label) ])
    @ [ metric "failed_ratio" "ratio"
        (float_of_int main_failed /. float_of_int (max 1 (List.length main_list)))
        ~note:(n_note (List.length main_list) "main window") ]
    @
    if cfg.Gen.kind = Gen.Sub_churn then
      let m50 = Pct.median mut_lat and m99 = Pct.tail mut_lat in
      let q50 = Pct.median push_main and q99 = Pct.tail push_main in
      [ metric "mut_p50_ms" "ms" (ms m50.Pct.value) ~note:(n_note m50.Pct.n "p50");
        metric "mut_p99_ms" "ms" (ms m99.Pct.value) ~note:(n_note m99.Pct.n m99.Pct.label);
        metric "push_p50_ms" "ms" (ms q50.Pct.value) ~note:(n_note q50.Pct.n "p50");
        metric "push_p99_ms" "ms" (ms q99.Pct.value) ~note:(n_note q99.Pct.n q99.Pct.label) ]
    else []
  in
  let finish ~correct metrics =
    match List.find_opt (fun m -> not (Float.is_finite m.value)) metrics with
    | Some m -> die 5 "metric %s could not be measured in this run" m.name
    | None ->
      print_endline (result_line ~correct ~attempted ~failed metrics);
      exit (if correct then 0 else 1)
  in
  if not args.trace then begin
    print_metrics "end to end (tracing off):" (e2e @ extra);
    finish ~correct e2e
  end;
  print_metrics "end to end, nominal window (tracing off):" (List.filteri (fun i _ -> i < 2) e2e @ extra);
  (* --- the traced run: replay the same stream in-process ---------------- *)
  let sub_texts =
    match cfg.Gen.kind with
    | Gen.Sub_churn -> List.map (fun (s : Gen.stmt) -> s.Gen.text) (Array.to_list g.Gen.hot)
    | _ -> []
  in
  let warm_items = List.map (fun s -> Gen.Read s) warm_stmts in
  let main_stream =
    let reads = ref 0 in
    List.filter
      (fun (_, it) ->
        (match it with Gen.Read _ -> incr reads | Gen.Write _ -> ());
        !reads <= replay_limit)
      main_items
    |> List.map snd
  in
  let replay traced =
    Replay.replay ~catalog ~subs:sub_texts ~warm:warm_items ~main:main_stream ~traced
  in
  let plain = replay false in
  let traced = replay true in
  let spans = traced.Replay.spans in
  let n_stmt = List.length (List.filter (function Gen.Read _ -> true | _ -> false) main_stream) in
  let n_mut = List.length main_stream - n_stmt in
  let per_stmt x = x /. float_of_int (max 1 n_stmt) in
  let bench_sum name = Replay.sum_where (Replay.is_bench name) spans in
  let parse = per_stmt (bench_sum "query.parse")
  and optimize = per_stmt (bench_sum "core.optimize")
  and compile = per_stmt (bench_sum "plan.compile")
  and exec = per_stmt (bench_sum "plan.exec") in
  let is_kind k (s : Trace.span) = s.Trace.kind = k in
  let postopt = Replay.sum_where (is_kind Trace.Postopt) spans in
  let req_time = Replay.sum_where (is_kind Trace.Request) spans in
  let n_req = Replay.count_where (is_kind Trace.Request) spans in
  let client = Pct.mean stmt_lat in
  let response = Pct.mean (Array.of_list (List.map (fun (_, r) -> r.Reply.response) ok_main)) in
  let s0 = Option.get snap0 and s1 = Option.get snap1 in
  let dsub = float_of_int (max 1 (s1.Child.submitted - s0.Child.submitted)) in
  let dbatches = float_of_int (s1.Child.batches - s0.Child.batches) in
  let ratio a b = if b = 0. then 0. else a /. b in
  let overhead = traced.Replay.wall /. plain.Replay.wall in
  let serve = response -. (parse +. optimize +. compile +. exec) in
  let per_layer =
    [ metric "tcp_front.ms_per_stmt" "ms" (ms (client -. response)) ~note:"client latency - response=";
      metric "serve.ms_per_stmt" "ms" (ms serve) ~note:"response= - replayed query+core+plan";
      metric "serve.cache_hit_ratio" "ratio"
        (ratio (float_of_int (s1.Child.hits - s0.Child.hits)) (float_of_int (s1.Child.lookups - s0.Child.lookups)));
      metric "serve.shed_ratio" "ratio" (float_of_int (s1.Child.shed - s0.Child.shed) /. dsub);
      metric "query.parse_us_per_stmt" "us" (parse *. 1e6);
      metric "core.optimize_ms_per_stmt" "ms" (ms optimize);
      metric "core.postopt_share" "ratio" (ratio postopt (bench_sum "core.optimize"));
      metric "core.cost_drift" "ratio" plain.Replay.cost_drift ~note:"actual / estimated cost";
      metric "plan.compile_us_per_stmt" "us" (compile *. 1e6);
      metric "plan.exec_ms_per_stmt" "ms" (ms exec);
      metric "plan.local_ms_per_stmt" "ms" (ms (per_stmt (bench_sum "plan.exec" -. req_time)));
      metric "plan.minor_words_per_stmt" "words" (per_stmt plain.Replay.minor_words) ~note:"untraced replay";
      metric "source.requests_per_stmt" "count" ((s1.Child.requests -. s0.Child.requests) /. dsub);
      metric "source.items_per_stmt" "count" (per_stmt (float_of_int plain.Replay.items)) ~note:"untraced replay";
      metric "source.us_per_request" "us" (ratio req_time (float_of_int n_req) *. 1e6)
        ~note:(Printf.sprintf "(n=%d)" n_req);
      metric "cond.scan_ns_per_row" "ns" (Replay.scan_ns_per_row traced.Replay.env spans);
      metric "data.kernel_calls_per_stmt" "count" (per_stmt (float_of_int plain.Replay.kernel_calls))
        ~note:"untraced replay";
      metric "rt.pool_jobs_per_stmt" "count" (float_of_int (s1.Child.pool_executed - s0.Child.pool_executed) /. dsub);
      metric "rt.sched_busy_ratio" "ratio"
        (1. -. ((s1.Child.poll_wait -. s0.Child.poll_wait) /. (s1.Child.wall -. s0.Child.wall)));
      metric "rt.gc_minor_words_per_stmt" "words" ((s1.Child.gc_minor_words -. s0.Child.gc_minor_words) /. dsub);
      metric "trace.overhead_ratio" "ratio" overhead ~note:"traced / untraced replay wall" ]
  in
  let mutate_total = bench_sum "delta.mutate" in
  let delta_layer =
    if n_mut = 0 then []
    else
      [ metric "delta.mutate_us_per_batch" "us" (mutate_total /. float_of_int n_mut *. 1e6);
        metric "delta.pushes_per_batch" "count"
          (ratio (float_of_int (s1.Child.pushes - s0.Child.pushes)) dbatches);
        metric "delta.propagate_us_mean" "us"
          (ratio (s1.Child.propagate_sum -. s0.Child.propagate_sum)
             (s1.Child.propagate_count -. s0.Child.propagate_count));
        metric "serve.invalidated_per_mut" "count"
          (ratio (float_of_int (s1.Child.invalidated - s0.Child.invalidated)) dbatches) ]
  in
  print_metrics "per layer (traced replay + server counters):" (per_layer @ delta_layer);
  (* --- the budget: where a statement's client latency goes ------------- *)
  (* [serve] is what the server's own response time leaves after the
     replayed layers: admission, queueing, dispatch to the pool lanes,
     minus whatever the shared answer cache saved. The rows add up to
     the mean client latency by construction; the replayed rows carry
     the tracing overhead, so that much of them may belong to serve. *)
  let parts =
    [ ("tcp_front", client -. response); ("query.parse", parse); ("core.optimize", optimize);
      ("plan.compile", compile); ("plan.exec", exec); ("serve", serve) ]
  in
  let row total (name, v) =
    Printf.printf "  %-28s %9.4f ms %6.1f%%\n" name (ms v) (100. *. v /. total)
  in
  Printf.printf "budget %s: mean client latency %.4f ms over %d statements\n" wl (ms client)
    (Array.length stmt_lat);
  List.iter (row client) parts;
  Printf.printf "    core.optimize: Postopt spans %.4f ms; plan.exec: source requests %.4f ms, local %.4f ms\n"
    (ms (per_stmt postopt)) (ms (per_stmt req_time)) (ms (exec -. per_stmt req_time));
  row client ("total", client);
  let replayed = parse +. optimize +. compile +. exec in
  Printf.printf "  tracing overhead %.1f%%: up to %.4f ms of the replayed rows may belong to serve\n"
    (100. *. (overhead -. 1.)) (ms (replayed *. (1. -. (1. /. overhead))));
  let largest = List.fold_left (fun (bn, bv) (n, v) -> if v > bv then (n, v) else (bn, bv)) ("", Float.neg_infinity) parts in
  let verdict ok predicted =
    Printf.printf "  dominant layer: predicted %s; largest measured %s (%.1f%%) -> %s\n" predicted
      (fst largest) (100. *. snd largest /. client) (if ok then "confirmed" else "NOT confirmed")
  in
  (match cfg.Gen.kind with
  | Gen.Hot_mix -> verdict (fst largest = "core.optimize") "core.optimize"
  | Gen.Cold_scan ->
    let top2 = List.filteri (fun i _ -> i < 2) (List.sort (fun (_, a) (_, b) -> Float.compare b a) parts) in
    verdict
      (List.sort compare (List.map fst top2) = [ "core.optimize"; "plan.exec" ]
      && client -. response < 0.05 *. client)
      "core.optimize + plan.exec, tcp_front under 5%"
  | Gen.Sub_churn ->
    let mut_mean = Pct.mean mut_lat in
    let mutate = mutate_total /. float_of_int (max 1 n_mut) in
    Printf.printf "budget %s mutations: mean acknowledgement latency %.4f ms over %d batches\n" wl
      (ms mut_mean) (Array.length mut_lat);
    row mut_mean ("delta.mutate (replayed)", mutate);
    row mut_mean ("tcp_front + queueing (rest)", mut_mean -. mutate);
    Printf.printf "  dominant layer: predicted delta.mutate -> %s\n"
      (if mutate > mut_mean -. mutate then "confirmed" else "NOT confirmed"));
  Printf.printf "self time per statement (traced replay):\n";
  List.iter
    (fun (k, v) -> if per_stmt v > 1e-6 then Printf.printf "  %-28s %9.4f ms\n" k (ms (per_stmt v)))
    (Replay.self_times spans);
  (* --- trace files ------------------------------------------------------------ *)
  let trace_file = Filename.concat out "replay.jsonl" in
  Jsonl.write_file trace_file spans;
  Printf.printf "spans: %d written to %s\n" (List.length spans) trace_file;
  let first = List.find_map (function Gen.Read s -> Some s | _ -> None) main_stream in
  Option.iter
    (fun s ->
      let warn msg = prerr_endline ("perfbench: warning: " ^ msg) in
      match Replay.critpath_spans traced.Replay.env s with
      | Ok cp -> (
        let f = Filename.concat out "critpath.jsonl" in
        Jsonl.write_file f cp;
        match Analyze.tasks_of_spans cp with
        | Ok (_ :: _) -> Printf.printf "one concurrent statement's spans written to %s\n" f
        | _ -> warn "the concurrent statement's trace has no dispatched source queries")
      | Error e -> warn ("concurrent statement failed: " ^ e))
    first;
  finish ~correct per_layer
