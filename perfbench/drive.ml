(* The load generator: one single-threaded process driving the server
   over at most two loopback connections, open loop. Each operation has
   an intended send time; latency is measured from it, so a stalled
   server is charged for the wait it imposes on later operations, and
   the actual send time is kept to report how late the generator ran.

   Connection 0 carries statements and mutations, connection 1 the
   standing queries. All SQL statements travel on connection 0 of a
   fresh server, so the server's submission ids are the order in which
   they were sent: that is how an out-of-order [ok id=<n>] is matched
   to its statement. *)

type what =
  | Read of Gen.stmt
  | Write of int  (** mutation index *)
  | Subscribe of int  (** hot text index *)

type op = {
  what : what;
  line : string;
  conn : int;
  at : float;  (** intended send time *)
  phase : int;
  mutable sent : float;
  mutable recv : float;
  mutable reply : Reply.t option;
}

type push = {
  p_recv : float;
  p_sub : int;
  p_seq : int;
  p_rows : int;
  p_added : string list;
  p_removed : string list;
}

type conn = {
  fd : Unix.file_descr;
  inbuf : Buffer.t;
  out : Buffer.t;
  mutable eof : bool;
  sync : op Queue.t;  (** operations answered synchronously, in order *)
}

type t = {
  conns : conn array;
  by_id : (int, op) Hashtbl.t;
  mutable next_id : int;
  mutable outstanding : int;
  mutable pushes : push list;  (** newest first *)
  mutable protocol : string list;  (** lines that fit no outstanding operation *)
  hard_deadline : float;
}

let now = Unix.gettimeofday

let conn fd =
  Unix.set_nonblock fd;
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  { fd; inbuf = Buffer.create 4096; out = Buffer.create 4096; eof = false; sync = Queue.create () }

let create ~hard_deadline fds =
  {
    conns = Array.of_list (List.map conn fds);
    by_id = Hashtbl.create 4096;
    next_id = 0;
    outstanding = 0;
    pushes = [];
    protocol = [];
    hard_deadline;
  }

let make ~phase ~at ~conn what line =
  { what; line; conn; at; phase; sent = Float.nan; recv = Float.nan; reply = None }

let answered op = not (Float.is_nan op.recv)

let finish t op reply recv =
  if not (answered op) then begin
    op.reply <- Some reply;
    op.recv <- recv;
    t.outstanding <- t.outstanding - 1
  end

let send t op =
  let c = t.conns.(op.conn) in
  op.sent <- now ();
  t.outstanding <- t.outstanding + 1;
  (match op.what with
  | Read _ ->
    Hashtbl.replace t.by_id t.next_id op;
    t.next_id <- t.next_id + 1
  | Write _ | Subscribe _ -> Queue.push op c.sync);
  Buffer.add_string c.out op.line;
  Buffer.add_char c.out '\n'

let flush_out c =
  let len = Buffer.length c.out in
  if len > 0 && not c.eof then
    match Unix.write_substring c.fd (Buffer.contents c.out) 0 len with
    | w ->
      let rest = Buffer.sub c.out w (len - w) in
      Buffer.clear c.out;
      Buffer.add_string c.out rest
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error _ -> c.eof <- true

let handle_line t c line recv =
  match Reply.parse line with
  | Error msg -> t.protocol <- msg :: t.protocol
  | Ok r -> (
    match r with
    | Reply.Ok_reply { id; _ } | Reply.Shed { id; _ } | Reply.Error_reply { id = Some id; _ } -> (
      match Hashtbl.find_opt t.by_id id with
      | Some op ->
        Hashtbl.remove t.by_id id;
        finish t op r recv
      | None -> t.protocol <- ("reply for unknown id: " ^ line) :: t.protocol)
    | Reply.Push { sub; seq; rows; added; removed } ->
      t.pushes <-
        { p_recv = recv; p_sub = sub; p_seq = seq; p_rows = rows; p_added = added;
          p_removed = removed }
        :: t.pushes
    | Reply.Error_reply { id = None; _ } | Reply.Sub _ | Reply.Mut _ -> (
      match Queue.take_opt c.sync with
      | Some op -> finish t op r recv
      | None -> t.protocol <- ("unexpected reply: " ^ line) :: t.protocol))

let chunk = Bytes.create 65536

let read_conn t c =
  match Unix.read c.fd chunk 0 (Bytes.length chunk) with
  | 0 -> c.eof <- true
  | n ->
    let recv = now () in
    Buffer.add_subbytes c.inbuf chunk 0 n;
    let s = Buffer.contents c.inbuf in
    let start = ref 0 in
    String.iteri
      (fun i ch ->
        if ch = '\n' then begin
          handle_line t c (String.sub s !start (i - !start)) recv;
          start := i + 1
        end)
      s;
    Buffer.clear c.inbuf;
    Buffer.add_string c.inbuf (String.sub s !start (String.length s - !start))
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error _ -> c.eof <- true

let server_gone t = Array.exists (fun c -> c.eof) t.conns

(* Sends [ops] (sorted by [at]) on schedule, then waits for replies
   until every operation is answered or [drain_until]. *)
let run t ops ~drain_until =
  let n = Array.length ops in
  let i = ref 0 in
  let continue = ref true in
  while !continue do
    let tnow = now () in
    while !i < n && ops.(!i).at <= tnow do
      send t ops.(!i);
      incr i
    done;
    Array.iter flush_out t.conns;
    let all_sent = !i >= n in
    if
      (all_sent && (t.outstanding = 0 || tnow >= drain_until))
      || server_gone t || tnow >= t.hard_deadline
    then continue := false
    else begin
      let wake = if all_sent then drain_until else ops.(!i).at in
      let timeout = Float.max 0. (Float.min (wake -. tnow) 0.05) in
      let readable = Array.to_list (Array.map (fun c -> c.fd) t.conns) in
      let writable =
        Array.to_list t.conns
        |> List.filter (fun c -> Buffer.length c.out > 0)
        |> List.map (fun c -> c.fd)
      in
      match Unix.select readable writable [] timeout with
      | r, _, _ ->
        Array.iter (fun c -> if List.mem c.fd r then read_conn t c) t.conns
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    end
  done

(* Operations are sent one at a time, each after the previous reply:
   the warm-up, outside the timed window. *)
let closed_loop t ~phase ~until items =
  List.map
    (fun (what, conn, line) ->
      let op = make ~phase ~at:(now ()) ~conn what line in
      if not (server_gone t) then run t [| op |] ~drain_until:until;
      op)
    items

let close t = Array.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) t.conns
