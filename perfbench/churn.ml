(* The sub_churn mutation stream and the check of the pushes it causes.

   Every mutation either inserts one fresh, uniquely named row ("Z"
   followed by its number) or deletes one such row inserted earlier.
   Base items never change, so a subscription's answer is its answer
   over the unmutated federation plus the live fresh rows that satisfy
   all its conditions, and every push names exactly one fresh row:
   that row identifies the mutation that caused it. *)

type op = Insert of int | Delete of int  (** the fresh row's number *)

module S = Set.Make (String)

let name f = Printf.sprintf "Z%06d" f

(* As the server renders it ([Value.to_string] quotes strings). *)
let item f = "'" ^ name f ^ "'"

let fresh_of_item s =
  let n = String.length s in
  if n > 3 && s.[0] = '\'' && s.[1] = 'Z' && s.[n - 1] = '\'' then
    int_of_string_opt (String.sub s 2 (n - 3))
  else None

let is_fresh s = Option.is_some (fresh_of_item s)

type index = { inserted_by : (int, int) Hashtbl.t; deleted_by : (int, int) Hashtbl.t }

let index ops =
  let idx = { inserted_by = Hashtbl.create 64; deleted_by = Hashtbl.create 64 } in
  Array.iteri
    (fun k -> function
      | Insert f -> Hashtbl.replace idx.inserted_by f k
      | Delete f -> Hashtbl.replace idx.deleted_by f k)
    ops;
  idx

(* The mutation a push reports: an added fresh row was inserted by it,
   a removed one deleted by it. *)
let cause idx ~added ~removed =
  let fresh l = List.filter_map fresh_of_item l in
  if List.exists (fun s -> not (is_fresh s)) (added @ removed) then
    Error "push changes a base item"
  else
    match (fresh added, fresh removed) with
    | [ f ], [] -> (
      match Hashtbl.find_opt idx.inserted_by f with
      | Some k -> Ok k
      | None -> Error (Printf.sprintf "push adds %s, which no mutation inserted" (name f)))
    | [], [ f ] -> (
      match Hashtbl.find_opt idx.deleted_by f with
      | Some k -> Ok k
      | None -> Error (Printf.sprintf "push removes %s, which no mutation deleted" (name f)))
    | _ -> Error "push does not name exactly one fresh row"

(* Fresh rows live after mutations [0..k]. *)
let live ops k =
  let live = Hashtbl.create 16 in
  for i = 0 to min k (Array.length ops - 1) do
    match ops.(i) with
    | Insert f -> Hashtbl.replace live f ()
    | Delete f -> Hashtbl.remove live f
  done;
  Hashtbl.fold (fun f () acc -> f :: acc) live []

type sub = {
  base : S.t;  (** the oracle answer over the unmutated federation *)
  matches : int -> bool;  (** does fresh row [f] satisfy every condition *)
  mutable answer : S.t;  (** the initial answer folded with the pushes so far *)
  mutable last : int;  (** the mutation the latest push reported; -1 before any *)
}

let make_sub ~base ~matches ~initial =
  { base; matches; answer = S.of_list initial; last = -1 }

let expected ops sub k =
  List.fold_left
    (fun acc f -> if sub.matches f then S.add (item f) acc else acc)
    sub.base (live ops k)

let describe s =
  let l = S.elements s in
  let shown = List.filteri (fun i _ -> i < 6) l in
  String.concat "," shown ^ if List.length l > 6 then ",..." else ""

(* Folds one push onto the subscription and checks the result against
   the answer after the mutation prefix that caused it. Returns that
   mutation's index. *)
let apply_push ops idx sub ~rows ~added ~removed =
  match cause idx ~added ~removed with
  | Error _ as e -> e
  | Ok k when k <= sub.last ->
    Error (Printf.sprintf "push for mutation %d arrived after one for mutation %d" k sub.last)
  | Ok k ->
    let answer = S.diff (S.union sub.answer (S.of_list added)) (S.of_list removed) in
    let want = expected ops sub k in
    sub.answer <- answer;
    sub.last <- k;
    if S.cardinal answer <> rows then
      Error (Printf.sprintf "push says rows=%d, folded answer has %d" rows (S.cardinal answer))
    else if not (S.equal answer want) then
      Error
        (Printf.sprintf "after mutation %d the folded answer differs: extra {%s} missing {%s}"
           k (describe (S.diff answer want)) (describe (S.diff want answer)))
    else Ok k

(* After the run: the folded answer must equal the answer after every
   acknowledged mutation [0..acked-1]. *)
let final_check ops sub ~acked =
  let want = expected ops sub (acked - 1) in
  if S.equal sub.answer want then Ok ()
  else
    Error
      (Printf.sprintf "final folded answer differs: extra {%s} missing {%s}"
         (describe (S.diff sub.answer want)) (describe (S.diff want sub.answer)))

(* --- reads beside the mutations ---------------------------------------- *)

(* Reads and mutations share connection 0, and the server applies a
   mutation before it reads the next line, so a row inserted by a
   mutation sent before a read is in every relation the read scans
   until its delete is applied. A read sent at [sent] and answered at
   [recv] therefore
   - must return each matching row inserted before [sent] whose delete
     had not been sent by [recv];
   - may return a matching row inserted before [recv] whose delete had
     not been sent by [sent].
   An answer cache that is not invalidated or patched on an insert
   fails the first rule, one that keeps a deleted row the second. *)
type reads = {
  r_idx : index;
  sent_at : float array;  (** by mutation; infinity if never sent *)
  live_after : int list array;  (** index [k]: live rows after mutations [0..k-1] *)
}

(* [sent_at] must be non-decreasing, as it is for operations sent in
   order on one connection. *)
let reads ops ~sent_at =
  let live_after = Array.make (Array.length ops + 1) [] in
  Array.iteri
    (fun k op ->
      live_after.(k + 1) <-
        (match op with
        | Insert f -> f :: live_after.(k)
        | Delete f -> List.filter (fun g -> g <> f) live_after.(k)))
    ops;
  { r_idx = index ops; sent_at; live_after }

(* The number of mutations sent before [t]. *)
let sent_before r t =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if r.sent_at.(mid) < t then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length r.sent_at)

let check_read r ~matches ~sent ~recv fresh =
  let by tbl f t =
    match Hashtbl.find_opt tbl f with Some k -> r.sent_at.(k) < t | None -> false
  in
  let required =
    List.filter (fun f -> matches f && not (by r.r_idx.deleted_by f recv))
      r.live_after.(sent_before r sent)
  in
  let missing = List.filter (fun f -> not (List.mem f fresh)) required in
  let extra =
    List.filter
      (fun f -> not (by r.r_idx.inserted_by f recv && matches f && not (by r.r_idx.deleted_by f sent)))
      fresh
  in
  let names l = describe (S.of_list (List.map item l)) in
  match (extra, missing) with
  | [], [] -> Ok ()
  | _ -> Error (Printf.sprintf "fresh rows not live {%s}, missing {%s}" (names extra) (names missing))
