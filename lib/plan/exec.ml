open Fusion_data
open Fusion_source

type step = { op : Op.t; cost : float; result_size : int }

type result = {
  answer : Item_set.t;
  steps : step list;
  total_cost : float;
  failures : int;
  partial : bool;
}

exception Runtime_error of string

module Query_cache = struct
  type stats = { hits : int; misses : int; saved_cost : float }

  type t = {
    keys : Intern.t; (* interns source names and condition texts *)
    answers : (int * int, Item_set.t) Hashtbl.t; (* (source id, cond id) *)
    semijoins : (int * int * int, (Item_set.t * Item_set.t) list) Hashtbl.t;
        (* (source id, cond id, probe digest) -> [(probe, answer)] *)
    mutable hits : int;
    mutable misses : int;
    mutable saved_cost : float;
  }

  let create () =
    {
      keys = Intern.create ~name:"query-cache-keys" ();
      answers = Hashtbl.create 32;
      semijoins = Hashtbl.create 32;
      hits = 0;
      misses = 0;
      saved_cost = 0.0;
    }

  let clear t =
    Hashtbl.reset t.answers;
    Hashtbl.reset t.semijoins;
    t.hits <- 0;
    t.misses <- 0;
    t.saved_cost <- 0.0

  let stats t = { hits = t.hits; misses = t.misses; saved_cost = t.saved_cost }

  (* Cache keys are interned: repeated lookups for the same (source,
     cond) hash two short strings once and small ints afterwards. The
     caller supplies the rendered condition text, which compiled plans
     ({!Plan_compile}) precompute instead of re-rendering per lookup. *)
  let key_of t ~sname ~ctext =
    ( Intern.intern t.keys (Value.String sname),
      Intern.intern t.keys (Value.String ctext) )

  let find_keyed t ~sname ~ctext = Hashtbl.find_opt t.answers (key_of t ~sname ~ctext)

  let store_keyed t ~sname ~ctext answer =
    t.misses <- t.misses + 1;
    Hashtbl.replace t.answers (key_of t ~sname ~ctext) answer

  (* Order-independent digest of a probe set over its interned ids;
     equality is confirmed on the stored probe, so collisions only cost
     a comparison. *)
  let digest probe = Item_set.hash probe

  let sjq_key_of t ~sname ~ctext probe =
    let sid, cid = key_of t ~sname ~ctext in
    (sid, cid, digest probe)

  let find_sjq_keyed t ~sname ~ctext probe =
    match Hashtbl.find_opt t.semijoins (sjq_key_of t ~sname ~ctext probe) with
    | None -> None
    | Some entries ->
      List.find_map
        (fun (p, answer) -> if Item_set.equal p probe then Some answer else None)
        entries

  let store_sjq_keyed t ~sname ~ctext probe answer =
    t.misses <- t.misses + 1;
    let key = sjq_key_of t ~sname ~ctext probe in
    let existing = Option.value ~default:[] (Hashtbl.find_opt t.semijoins key) in
    Hashtbl.replace t.semijoins key ((probe, answer) :: existing)

  (* What the operation would have cost at the source, from its profile
     and the actual sizes involved. Mirrors the wrapper's charging. *)
  let record_hit t source ~items_sent ~items_received =
    let p = Source.profile source in
    t.hits <- t.hits + 1;
    t.saved_cost <-
      t.saved_cost
      +. p.Fusion_net.Profile.request_overhead
      +. (p.Fusion_net.Profile.send_per_item *. float_of_int items_sent)
      +. (p.Fusion_net.Profile.recv_per_item *. float_of_int items_received)

  let record_hit_emulated t source ~bindings ~items_received =
    let p = Fusion_source.Source.profile source in
    t.hits <- t.hits + 1;
    t.saved_cost <-
      t.saved_cost
      +. (float_of_int bindings
          *. (p.Fusion_net.Profile.request_overhead +. p.Fusion_net.Profile.send_per_item))
      +. (p.Fusion_net.Profile.recv_per_item *. float_of_int items_received)
end

type policy = { retries : int; on_exhausted : [ `Fail | `Partial ] }

let default_policy = { retries = 0; on_exhausted = `Fail }
