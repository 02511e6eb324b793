(* Reply lines of the TCP front end (lib/mediator/tcp_front.mli):

     ok id=<n> rows=<k> cost=<c> response=<secs> partial=<b> items=<v,...>
     shed id=<n> reason=<r>
     error [id=<n>] <message>
     sub id=<n> rows=<k> items=<v,...>
     mut source=<s> inserted=<i> deleted=<d> missed=<m> version=<v>
     push id=<n> seq=<k> rows=<r> added=<v,...> removed=<v,...>

   Item lists are kept as the server rendered them ([Value.to_string],
   so strings stay quoted); the benchmark compares them as strings. *)

type ok = {
  id : int;
  rows : int;
  cost : float;  (** source cost charged, the paper's objective *)
  response : float;  (** server-side seconds from submission to completion *)
  partial : bool;
  items : string list;
}

type t =
  | Ok_reply of ok
  | Shed of { id : int; reason : string }
  | Error_reply of { id : int option; message : string }
  | Sub of { id : int; rows : int; items : string list }
  | Mut of { source : string; inserted : int; deleted : int; missed : int; version : int }
  | Push of { sub : int; seq : int; rows : int; added : string list; removed : string list }

let items_of = function "" -> [] | s -> String.split_on_char ',' s

(* [k=v] fields after the first word. Values never contain spaces in
   the lines above (items are comma-joined without spaces). *)
let fields rest =
  List.filter_map
    (fun w ->
      match String.index_opt w '=' with
      | None -> None
      | Some i -> Some (String.sub w 0 i, String.sub w (i + 1) (String.length w - i - 1)))
    (String.split_on_char ' ' rest)

exception Bad of string

let parse line =
  let word, rest =
    match String.index_opt line ' ' with
    | None -> (line, "")
    | Some i -> (String.sub line 0 i, String.sub line (i + 1) (String.length line - i - 1))
  in
  let fs = lazy (fields rest) in
  let field k =
    match List.assoc_opt k (Lazy.force fs) with
    | Some v -> v
    | None -> raise (Bad (Printf.sprintf "missing %s= in %S" k line))
  in
  let num conv k =
    match conv (field k) with
    | Some v -> v
    | None -> raise (Bad (Printf.sprintf "bad %s= in %S" k line))
  in
  let int k = num int_of_string_opt k and float k = num float_of_string_opt k in
  try
    match word with
    | "ok" ->
      Ok
        (Ok_reply
           {
             id = int "id";
             rows = int "rows";
             cost = float "cost";
             response = float "response";
             partial = num bool_of_string_opt "partial";
             items = items_of (field "items");
           })
    | "shed" -> Ok (Shed { id = int "id"; reason = field "reason" })
    | "error" ->
      (* The id is present only when the statement was admitted. *)
      let id, message =
        match String.index_opt rest ' ' with
        | Some i when String.starts_with ~prefix:"id=" rest -> (
          match int_of_string_opt (String.sub rest 3 (i - 3)) with
          | Some id -> (Some id, String.sub rest (i + 1) (String.length rest - i - 1))
          | None -> (None, rest))
        | None when String.starts_with ~prefix:"id=" rest -> (
          match int_of_string_opt (String.sub rest 3 (String.length rest - 3)) with
          | Some id -> (Some id, "")
          | None -> (None, rest))
        | _ -> (None, rest)
      in
      Ok (Error_reply { id; message })
    | "sub" -> Ok (Sub { id = int "id"; rows = int "rows"; items = items_of (field "items") })
    | "mut" ->
      Ok
        (Mut
           {
             source = field "source";
             inserted = int "inserted";
             deleted = int "deleted";
             missed = int "missed";
             version = int "version";
           })
    | "push" ->
      Ok
        (Push
           {
             sub = int "id";
             seq = int "seq";
             rows = int "rows";
             added = items_of (field "added");
             removed = items_of (field "removed");
           })
    | _ -> Error (Printf.sprintf "unknown reply %S" line)
  with Bad msg -> Error msg
