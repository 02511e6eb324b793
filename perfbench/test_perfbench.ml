(* Unit tests of the benchmark's own logic: the reply-line parser, the
   percentile rule, and the matching of pushes to mutations. *)

let check_ok = function Ok v -> v | Error e -> Alcotest.failf "unexpected error: %s" e

(* --- reply lines ----------------------------------------------------------- *)

let test_ok_line () =
  match
    check_ok
      (Reply.parse
         "ok id=17 rows=2 cost=3488.0 response=0.012517 partial=false items='I000043','I000069'")
  with
  | Reply.Ok_reply r ->
    Alcotest.(check int) "id" 17 r.Reply.id;
    Alcotest.(check int) "rows" 2 r.Reply.rows;
    Alcotest.(check (float 1e-9)) "cost" 3488.0 r.Reply.cost;
    Alcotest.(check (float 1e-9)) "response" 0.012517 r.Reply.response;
    Alcotest.(check bool) "partial" false r.Reply.partial;
    Alcotest.(check (list string)) "items" [ "'I000043'"; "'I000069'" ] r.Reply.items
  | _ -> Alcotest.fail "not an ok reply"

let test_empty_answer () =
  match check_ok (Reply.parse "ok id=0 rows=0 cost=594.0 response=0.000308 partial=false items=") with
  | Reply.Ok_reply r -> Alcotest.(check (list string)) "no items" [] r.Reply.items
  | _ -> Alcotest.fail "not an ok reply"

let test_shed_and_errors () =
  (match check_ok (Reply.parse "shed id=4 reason=queue-full") with
  | Reply.Shed { id; reason } ->
    Alcotest.(check int) "id" 4 id;
    Alcotest.(check string) "reason" "queue-full" reason
  | _ -> Alcotest.fail "not a shed");
  (match check_ok (Reply.parse "error id=9 execution failed: boom") with
  | Reply.Error_reply { id; message } ->
    Alcotest.(check (option int)) "admitted" (Some 9) id;
    Alcotest.(check string) "message" "execution failed: boom" message
  | _ -> Alcotest.fail "not an error");
  match check_ok (Reply.parse "error unknown source R99") with
  | Reply.Error_reply { id; message } ->
    Alcotest.(check (option int)) "rejected before admission" None id;
    Alcotest.(check string) "message" "unknown source R99" message
  | _ -> Alcotest.fail "not an error"

let test_mut_sub_push () =
  (match check_ok (Reply.parse "mut source=R3 inserted=1 deleted=0 missed=0 version=7") with
  | Reply.Mut { source; inserted; deleted; missed; version } ->
    Alcotest.(check string) "source" "R3" source;
    Alcotest.(check (list int)) "counts" [ 1; 0; 0; 7 ] [ inserted; deleted; missed; version ]
  | _ -> Alcotest.fail "not a mut");
  (match check_ok (Reply.parse "sub id=3 rows=1 items='I000001'") with
  | Reply.Sub { id; rows; items } ->
    Alcotest.(check (list int)) "id, rows" [ 3; 1 ] [ id; rows ];
    Alcotest.(check (list string)) "items" [ "'I000001'" ] items
  | _ -> Alcotest.fail "not a sub");
  match check_ok (Reply.parse "push id=3 seq=2 rows=2 added='Z000005' removed=") with
  | Reply.Push { sub; seq; rows; added; removed } ->
    Alcotest.(check (list int)) "sub, seq, rows" [ 3; 2; 2 ] [ sub; seq; rows ];
    Alcotest.(check (list string)) "added" [ "'Z000005'" ] added;
    Alcotest.(check (list string)) "removed" [] removed
  | _ -> Alcotest.fail "not a push"

let test_malformed () =
  let bad line =
    match Reply.parse line with
    | Ok _ -> Alcotest.failf "accepted %S" line
    | Error _ -> ()
  in
  bad "ok id=1 rows=0";
  bad "ok id=x rows=0 cost=1 response=0 partial=false items=";
  bad "shed reason=queue-full";
  bad "hello world"

(* --- percentiles --------------------------------------------------------------- *)

let samples n = Array.init n (fun i -> float_of_int (n - i))

let test_tail_rule () =
  let case n label value =
    let t = Pct.tail (samples n) in
    Alcotest.(check string) (Printf.sprintf "label at n=%d" n) label t.Pct.label;
    Alcotest.(check (float 0.)) (Printf.sprintf "value at n=%d" n) value t.Pct.value;
    Alcotest.(check int) "count" n t.Pct.n
  in
  (* The highest percentile with at least ten samples beyond it. *)
  case 1000 "p99" 990.;
  case 999 "p98" 980.;
  case 500 "p98" 490.;
  case 200 "p95" 190.;
  case 100 "p90" 90.;
  case 40 "p75" 30.;
  case 20 "p50" 10.;
  case 5 "p50" 3.

let test_median () =
  Alcotest.(check (float 0.)) "median" 50. (Pct.median (samples 100)).Pct.value;
  Alcotest.(check (float 0.)) "unsorted input" 3. (Pct.median [| 5.; 1.; 3.; 4.; 2. |]).Pct.value

let test_windowed_tail () =
  (* Five windows of 1000: a burst in one window moves only that
     window's p99, and the median of the five ignores it. *)
  let xs = Array.concat (List.init 5 (fun _ -> samples 1000)) in
  Array.fill xs 0 60 1e6;
  let t = Pct.windowed_tail xs in
  Alcotest.(check (float 0.)) "median of window tails" 990. t.Pct.value;
  Alcotest.(check string) "label" "p99, median of 5 windows" t.Pct.label;
  Alcotest.(check int) "count" 5000 t.Pct.n;
  Alcotest.(check (float 0.)) "plain tail sees the burst" 1e6 (Pct.tail xs).Pct.value;
  Alcotest.(check (float 0.)) "worst window sees the burst" 1e6 (Pct.max_window_tail xs).Pct.value

(* --- pushes and mutations --------------------------------------------------- *)

(* Rows 0 and 2 satisfy the subscription, row 1 does not. *)
let ops = [| Churn.Insert 0; Churn.Insert 1; Churn.Delete 0; Churn.Insert 2 |]
let idx = Churn.index ops
let base = Churn.S.of_list [ "'I000001'"; "'I000002'" ]
let sub () = Churn.make_sub ~base ~matches:(fun f -> f <> 1) ~initial:(Churn.S.elements base)

let test_cause () =
  let cause added removed = Churn.cause idx ~added ~removed in
  Alcotest.(check (result int string)) "insert" (Ok 1) (cause [ Churn.item 1 ] []);
  Alcotest.(check (result int string)) "delete" (Ok 2) (cause [] [ Churn.item 0 ]);
  Alcotest.(check bool) "base item" true (Result.is_error (cause [ "'I000001'" ] []));
  Alcotest.(check bool) "two rows" true
    (Result.is_error (cause [ Churn.item 0; Churn.item 2 ] []));
  Alcotest.(check bool) "never inserted" true (Result.is_error (cause [ Churn.item 9 ] []));
  Alcotest.(check bool) "inserted, not deleted" true (Result.is_error (cause [] [ Churn.item 2 ]))

let test_fold () =
  let s = sub () in
  let push ~rows ~added ~removed = Churn.apply_push ops idx s ~rows ~added ~removed in
  Alcotest.(check (result int string)) "insert 0" (Ok 0) (push ~rows:3 ~added:[ Churn.item 0 ] ~removed:[]);
  Alcotest.(check (result int string)) "delete 0" (Ok 2) (push ~rows:2 ~added:[] ~removed:[ Churn.item 0 ]);
  Alcotest.(check (result int string)) "insert 2" (Ok 3) (push ~rows:3 ~added:[ Churn.item 2 ] ~removed:[]);
  Alcotest.(check (result unit string)) "final" (Ok ()) (Churn.final_check ops s ~acked:4)

let test_fold_rejects () =
  let s = sub () in
  let push ~rows ~added ~removed = Churn.apply_push ops idx s ~rows ~added ~removed in
  (* Row 1 does not satisfy the subscription: a push adding it is wrong. *)
  Alcotest.(check bool) "non-matching row" true
    (Result.is_error (push ~rows:3 ~added:[ Churn.item 1 ] ~removed:[]));
  let s = sub () in
  let push ~rows ~added ~removed = Churn.apply_push ops idx s ~rows ~added ~removed in
  Alcotest.(check bool) "rows disagree" true
    (Result.is_error (push ~rows:5 ~added:[ Churn.item 0 ] ~removed:[]));
  let s = sub () in
  let push ~rows ~added ~removed = Churn.apply_push ops idx s ~rows ~added ~removed in
  ignore (push ~rows:3 ~added:[ Churn.item 2 ] ~removed:[]);
  (* Mutation 0's push arriving after mutation 3's is out of order; and
     the missing push for mutation 0 leaves a wrong answer. *)
  Alcotest.(check bool) "out of order" true
    (Result.is_error (push ~rows:4 ~added:[ Churn.item 0 ] ~removed:[]));
  let s = sub () in
  Alcotest.(check bool) "missed push" true (Result.is_error (Churn.final_check ops s ~acked:1))

(* Mutations 0-3 sent at t = 1, 2, 3, 4 on the reads' connection. *)
let reads = Churn.reads ops ~sent_at:[| 1.; 2.; 3.; 4. |]

let test_read_check () =
  let read ~sent ~recv fresh =
    Result.is_ok (Churn.check_read reads ~matches:(fun f -> f <> 1) ~sent ~recv fresh)
  in
  Alcotest.(check bool) "live row returned" true (read ~sent:1.5 ~recv:1.6 [ 0 ]);
  (* A stale cached answer that leaves out a row inserted before the
     read was sent. *)
  Alcotest.(check bool) "stale reply misses a live row" false (read ~sent:1.5 ~recv:1.6 []);
  Alcotest.(check bool) "stale reply keeps a deleted row" false (read ~sent:3.5 ~recv:3.6 [ 0 ]);
  (* Row 0's delete went out while the read ran: either answer holds. *)
  Alcotest.(check bool) "delete during the read, row kept" true (read ~sent:2.5 ~recv:3.5 [ 0 ]);
  Alcotest.(check bool) "delete during the read, row gone" true (read ~sent:2.5 ~recv:3.5 []);
  (* Row 2's insert went out while the read ran: either answer holds. *)
  Alcotest.(check bool) "insert during the read, row seen" true (read ~sent:3.5 ~recv:4.5 [ 2 ]);
  Alcotest.(check bool) "insert during the read, row unseen" true (read ~sent:3.5 ~recv:4.5 []);
  Alcotest.(check bool) "row inserted after the reply" false (read ~sent:3.5 ~recv:3.6 [ 2 ]);
  Alcotest.(check bool) "non-matching row" false (read ~sent:2.5 ~recv:2.6 [ 1 ]);
  Alcotest.(check bool) "row never inserted" false (read ~sent:5. ~recv:5.1 [ 2; 7 ])

let () =
  Alcotest.run "perfbench"
    [ ( "reply",
        [ Alcotest.test_case "ok line" `Quick test_ok_line;
          Alcotest.test_case "empty answer" `Quick test_empty_answer;
          Alcotest.test_case "shed and errors" `Quick test_shed_and_errors;
          Alcotest.test_case "mut, sub and push" `Quick test_mut_sub_push;
          Alcotest.test_case "malformed lines" `Quick test_malformed ] );
      ( "percentile",
        [ Alcotest.test_case "tail rule" `Quick test_tail_rule;
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "windowed tail" `Quick test_windowed_tail ] );
      ( "push",
        [ Alcotest.test_case "cause" `Quick test_cause;
          Alcotest.test_case "fold" `Quick test_fold;
          Alcotest.test_case "fold rejects" `Quick test_fold_rejects;
          Alcotest.test_case "read check" `Quick test_read_check ] ) ]
