(* The answer oracle: [Mediator.run_sql] on the sequential interpreter
   over the same saved catalog, run after the server has stopped. It
   plans with FILTER, not the server's SJA+: the answer does not depend
   on the plan, so the oracle shares no optimizer code with the run it
   checks, and FILTER plans in microseconds. Fresh sub_churn rows
   never change the base items of an answer, so the unmutated
   federation's answer is the oracle for every statement's base part. *)

module Mediator = Fusion_mediator.Mediator
module Item_set = Fusion_data.Item_set
module Value = Fusion_data.Value

type t = { med : Mediator.t; memo : (string, Churn.S.t) Hashtbl.t }

let create catalog =
  Result.map (fun med -> { med; memo = Hashtbl.create 256 }) (Mediator.of_catalog catalog)

let render set = Churn.S.of_list (List.map Value.to_string (Item_set.to_list set))

let config = { Mediator.Config.default with Mediator.Config.algo = Fusion_core.Optimizer.Filter }

let answer t text =
  match Hashtbl.find_opt t.memo text with
  | Some a -> Ok a
  | None -> (
    match Mediator.run_sql ~config t.med text with
    | Error e -> Error e
    | Ok r ->
      let a = render r.Mediator.answer in
      Hashtbl.replace t.memo text a;
      Ok a)
