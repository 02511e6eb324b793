(* Latency percentiles by the nearest-rank rule, on client-side samples.

   The tail is reported as the highest percentile (at most p99) that
   has at least ten samples beyond it, together with the sample count:
   a p99 over 300 samples rests on three values and says little. *)

type t = { label : string; value : float; n : int }

let ladder = [ 99.; 98.; 95.; 90.; 75.; 50. ]

let sorted samples =
  let a = Array.copy samples in
  Array.sort Float.compare a;
  a

let rank_of n p = int_of_float (Float.ceil (p *. float_of_int n /. 100.))

(* Nearest rank: the smallest sample with at least [p]% of the samples
   at or below it. [a] must be sorted and non-empty. *)
let rank a p =
  let n = Array.length a in
  a.(max 0 (min (n - 1) (rank_of n p - 1)))

(* Samples strictly above the nearest-rank position. *)
let beyond n p = n - rank_of n p

let label_of p =
  if Float.is_integer p then Printf.sprintf "p%.0f" p else Printf.sprintf "p%g" p

let at samples p =
  let n = Array.length samples in
  if n = 0 then { label = label_of p; value = Float.nan; n }
  else { label = label_of p; value = rank (sorted samples) p; n }

let median samples = at samples 50.

let tail samples =
  let n = Array.length samples in
  let p =
    match List.find_opt (fun p -> beyond n p >= 10) ladder with
    | Some p -> p
    | None -> 50.
  in
  at samples p

(* The tail of each of five consecutive windows of an ordered sample,
   by the rule above. Samples short of five windows of twenty give one
   window. *)
let window_tails samples =
  let n = Array.length samples in
  let k = if n >= 100 then 5 else 1 in
  let w = n / k in
  Array.init k (fun i -> tail (Array.sub samples (i * w) w))

(* The median of the window tails, so one burst (a collection pause, a
   timer) moves one window and not the figure; [max_window_tail] is the
   figure that such a burst does move. *)
let windowed_tail samples =
  let tails = window_tails samples in
  let k = Array.length tails in
  let m = median (Array.map (fun t -> t.value) tails) in
  let label =
    if k = 1 then tails.(0).label
    else Printf.sprintf "%s, median of %d windows" tails.(0).label k
  in
  { label; value = m.value; n = Array.length samples }

let max_window_tail samples =
  let tails = window_tails samples in
  let k = Array.length tails in
  let worst = Array.fold_left (fun a t -> Float.max a t.value) Float.neg_infinity tails in
  let label =
    if k = 1 then tails.(0).label else Printf.sprintf "%s, max of %d windows" tails.(0).label k
  in
  { label; value = worst; n = Array.length samples }

let mean samples =
  let n = Array.length samples in
  if n = 0 then Float.nan else Array.fold_left ( +. ) 0. samples /. float_of_int n
