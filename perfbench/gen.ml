(* Seeded inputs: the federation each workload serves, its statement
   texts, and the open-loop streams the client sends. Everything is a
   function of (workload, seed); the server only ever sees the saved
   catalog and TCP lines. *)

module Prng = Fusion_stats.Prng
module Dist = Fusion_stats.Dist
module Workload = Fusion_workload.Workload

type kind = Hot_mix | Cold_scan | Sub_churn

let kind_of_name = function
  | "hot_mix" -> Some Hot_mix
  | "cold_scan" -> Some Cold_scan
  | "sub_churn" -> Some Sub_churn
  | _ -> None

let name_of = function
  | Hot_mix -> "hot_mix"
  | Cold_scan -> "cold_scan"
  | Sub_churn -> "sub_churn"

(* Every federation has four conditions' worth of attributes A1..A4 over
   [0, 1000); statements pick 1-4 of them. *)
let n_attrs = 4
let domain = 1000

type config = {
  kind : kind;
  spec : Workload.spec;
  read_rate : float;  (** nominal statements per second, about half of capacity *)
  mut_rate : float;  (** nominal mutation batches per second (sub_churn only) *)
}

(* Every source of a federation holds the same number of rows (450 for
   8 sources, 1500 for 16: the middle of 300-600 and 1000-2000), so the
   federation's size, and with it each statement's cost, does not vary
   from seed to seed; the rows themselves do. *)
let config kind ~seed =
  let base =
    {
      Workload.default_spec with
      Workload.selectivities = Array.make n_attrs 0.25;
      tuples_per_source = (450, 450);
      seed;
    }
  in
  match kind with
  | Hot_mix -> { kind; spec = base; read_rate = 240.; mut_rate = 0. }
  | Sub_churn -> { kind; spec = base; read_rate = 160.; mut_rate = 32. }
  | Cold_scan ->
    {
      kind;
      spec =
        {
          base with
          Workload.n_sources = 16;
          universe = 20_000;
          tuples_per_source = (1500, 1500);
        };
      read_rate = 27.;
      mut_rate = 0.;
    }

(* --- statements --------------------------------------------------------- *)

(* A condition on attribute A_attr, 1..n_attrs. *)
type cond =
  | Below of int * int  (** A < t *)
  | Between of int * int * int  (** lo <= A <= hi *)

type stmt = { text : string; conds : cond array }

let holds row = function
  | Below (a, t) -> row.(a - 1) < t
  | Between (a, lo, hi) -> lo <= row.(a - 1) && row.(a - 1) <= hi

let sql conds =
  let m = Array.length conds in
  let vars = List.init m (fun i -> Printf.sprintf "U u%d" (i + 1)) in
  let joins = List.init (m - 1) (fun i -> Printf.sprintf "u%d.M = u%d.M" (i + 1) (i + 2)) in
  let pred i = function
    | Below (a, t) -> Printf.sprintf "u%d.A%d < %d" (i + 1) a t
    | Between (a, lo, hi) -> Printf.sprintf "u%d.A%d BETWEEN %d AND %d" (i + 1) a lo hi
  in
  let preds = List.mapi pred (Array.to_list conds) in
  Printf.sprintf "SELECT u1.M FROM %s WHERE %s" (String.concat ", " vars)
    (String.concat " AND " (joins @ preds))

let shuffled_attrs rng =
  let attrs = Array.init n_attrs succ in
  Prng.shuffle rng attrs;
  attrs

let stmt_of conds = { text = sql conds; conds }

(* A cold_scan statement: [m] range conditions with random bounds
   (width 150-450 of the domain), drawn until its text is new to
   [seen]. Ranges make the conditions themselves distinct, not only the
   statements: with [A < t] thresholds, conditions would repeat across
   statements and the answer cache, keyed by (source, condition), would
   warm up during the run. *)
let rec fresh_stmt rng seen ~m =
  let attrs = shuffled_attrs rng in
  let range i =
    let width = 150 + Prng.int rng 300 in
    let lo = Prng.int rng (domain - width) in
    Between (attrs.(i), lo, lo + width - 1)
  in
  let s = stmt_of (Array.init m range) in
  if Hashtbl.mem seen s.text then fresh_stmt rng seen ~m
  else begin
    Hashtbl.add seen s.text ();
    s
  end

(* The 32 hot texts of hot_mix and sub_churn. Text k has 1 + k mod 4
   conditions with thresholds in [100, 600) fixed by k (a golden-ratio
   sequence); the seed picks the attributes. Every seed's hottest
   ranks then cover every query size with the same selectivities, so
   seeds stay comparable. *)
let hot_texts rng =
  Array.init 32 (fun k ->
      let attrs = shuffled_attrs rng in
      stmt_of
        (Array.init (1 + (k mod 4)) (fun j ->
             let frac = Float.rem (float_of_int ((4 * k) + j) *. 0.6180339887) 1. in
             Below (attrs.(j), 100 + int_of_float (500. *. frac)))))

(* --- fresh rows for sub_churn ------------------------------------------- *)

type row = { fresh : int; source : string; attrs : int array }

let row_cells r =
  Churn.name r.fresh ^ String.concat "" (Array.to_list (Array.map (Printf.sprintf ",%d") r.attrs))

let matches (s : stmt) r = Array.for_all (holds r.attrs) s.conds

(* --- streams ------------------------------------------------------------ *)

(* One operation of a stream, at its intended offset from the phase
   start. *)
type item =
  | Read of stmt
  | Write of int * string * string  (** mutation index, source, payload *)

type gen = {
  cfg : config;
  rng : Prng.t;
  hot : stmt array;
  popularity : Dist.t;  (** Zipf over the hot texts' ranks, default skew 1.0 *)
  seen : (string, unit) Hashtbl.t;  (** cold_scan texts drawn so far *)
  rows : (int, row) Hashtbl.t;  (** fresh rows by number *)
  mutable ops : Churn.op list;  (** mutations so far, newest first *)
  mutable n_ops : int;
  live : row Queue.t;
  mutable next_fresh : int;
  mutable reads : int;  (** statements drawn so far *)
}

let create cfg =
  let rng = Prng.create (cfg.spec.Workload.seed * 7919 + 17) in
  let hot = hot_texts rng in
  {
    cfg;
    rng;
    hot;
    popularity = Dist.zipf (Array.length hot);
    seen = Hashtbl.create 1024;
    rows = Hashtbl.create 64;
    ops = [];
    n_ops = 0;
    live = Queue.create ();
    next_fresh = 0;
    reads = 0;
  }

(* cold_scan statements have 2, 3, 4, 2, ... conditions in turn, so
   every window of the stream has the same mix of sizes. *)
let next_read g =
  g.reads <- g.reads + 1;
  match g.cfg.kind with
  | Hot_mix | Sub_churn -> g.hot.(Dist.sample g.popularity g.rng)
  | Cold_scan -> fresh_stmt g.rng g.seen ~m:(2 + (g.reads mod 3))

(* A mutation batch: insert a fresh row while fewer than three are
   live, otherwise delete the oldest, so relation sizes stay within
   three rows of the generated ones. *)
let next_write g =
  let k = g.n_ops in
  let n = g.cfg.spec.Workload.n_sources in
  let op, r, sign =
    if Queue.length g.live < 3 then begin
      let f = g.next_fresh in
      g.next_fresh <- f + 1;
      let r =
        {
          fresh = f;
          source = Printf.sprintf "R%d" (1 + Prng.int g.rng n);
          attrs = Array.init n_attrs (fun _ -> Prng.int g.rng domain);
        }
      in
      Hashtbl.replace g.rows f r;
      Queue.push r g.live;
      (Churn.Insert f, r, "+")
    end
    else
      let r = Queue.pop g.live in
      (Churn.Delete r.fresh, r, "-")
  in
  g.ops <- op :: g.ops;
  g.n_ops <- k + 1;
  Write (k, r.source, sign ^ row_cells r)

let ops g = Array.of_list (List.rev g.ops)

(* An open-loop Poisson stream of [seconds] at [read_rate] statements
   (plus [mut_rate] mutations) per second; offsets in seconds. *)
let stream g ~read_rate ~mut_rate ~seconds =
  let rec arrivals rate t acc =
    if rate <= 0. then acc
    else
      let t = t +. Prng.exponential g.rng rate in
      if t >= seconds then acc else arrivals rate t (t :: acc)
  in
  let reads = List.rev_map (fun t -> (t, true)) (arrivals read_rate 0. []) in
  let writes = List.rev_map (fun t -> (t, false)) (arrivals mut_rate 0. []) in
  List.sort (fun (a, _) (b, _) -> Float.compare a b) (reads @ writes)
  |> List.map (fun (t, is_read) -> (t, if is_read then Read (next_read g) else next_write g))

(* Distinct statements sent before the timed window: every hot text
   once, or a few cold ones. *)
let warmup g =
  match g.cfg.kind with
  | Hot_mix | Sub_churn -> Array.to_list g.hot
  | Cold_scan -> List.init 20 (fun _ -> next_read g)
