(* The server under test as a child process: [fqcli serve] over the
   saved catalog, one configuration for every workload. *)

module Admin = Fusion_mediator.Admin_front
module Json = Fusion_obs.Json

type t = {
  pid : int;
  addr : Unix.sockaddr;
  admin : Unix.sockaddr;
  err_file : string;
  spawned : float;  (** wall clock just before the process was created *)
  mutable reaped : bool;
}

(* Every child still running, so the watchdog can kill them. *)
let live : t list ref = ref []

let loopback port = Unix.ADDR_INET (Unix.inet_addr_loopback, port)

let free_port () =
  let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close s)
    (fun () ->
      Unix.bind s (loopback 0);
      match Unix.getsockname s with Unix.ADDR_INET (_, p) -> p | _ -> assert false)

let addr_text = function
  | Unix.ADDR_INET (a, p) -> Printf.sprintf "%s:%d" (Unix.string_of_inet_addr a) p
  | Unix.ADDR_UNIX p -> p

let spawn ~exe ~catalog ~dir ~tag =
  let addr = loopback (free_port ()) and admin = loopback (free_port ()) in
  let out_file = Filename.concat dir (tag ^ ".out")
  and err_file = Filename.concat dir (tag ^ ".err") in
  let opening f = Unix.openfile f [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let out = opening out_file and err = opening err_file in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let args =
    [| exe; "serve"; "--listen"; addr_text addr; "--admin"; addr_text admin;
       "--versioned-cache"; "--runtime"; "domains:1"; "--queries"; "1000000000";
       "-c"; catalog |]
  in
  let spawned = ref 0. in
  let pid =
    Fun.protect
      ~finally:(fun () -> List.iter Unix.close [ out; err; null ])
      (fun () ->
        spawned := Unix.gettimeofday ();
        Unix.create_process exe args null out err)
  in
  let t = { pid; addr; admin; err_file; spawned = !spawned; reaped = false } in
  live := t :: !live;
  t

let alive t =
  (not t.reaped)
  &&
  match Unix.waitpid [ Unix.WNOHANG ] t.pid with
  | 0, _ -> true
  | _ ->
    t.reaped <- true;
    live := List.filter (fun c -> c != t) !live;
    false
  | exception Unix.Unix_error (Unix.ECHILD, _, _) ->
    t.reaped <- true;
    false

(* Time from spawning the server until it accepts a connection, polling
   every half millisecond; the connection is returned for use. *)
let connect t ~timeout =
  let spawned = t.spawned in
  let rec go () =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    match Unix.connect fd t.addr with
    | () -> Ok (fd, Unix.gettimeofday () -. spawned)
    | exception Unix.Unix_error _ ->
      Unix.close fd;
      if not (alive t) then Error "server exited before accepting a connection"
      else if Unix.gettimeofday () -. spawned > timeout then
        Error "server did not accept a connection in time"
      else begin
        Unix.sleepf 0.0005;
        go ()
      end
  in
  go ()

(* Peak resident set (VmHWM) in MB. *)
let peak_rss_mb t =
  let path = Printf.sprintf "/proc/%d/status" t.pid in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> Float.nan
  | text ->
    List.find_map
      (fun l ->
        if String.starts_with ~prefix:"VmHWM:" l then
          Scanf.sscanf_opt (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
              float_of_int kb /. 1024.)
        else None)
      (String.split_on_char '\n' text)
    |> Option.value ~default:Float.nan

let stop t =
  if alive t then begin
    (try Unix.kill t.pid Sys.sigterm with Unix.Unix_error _ -> ());
    let deadline = Unix.gettimeofday () +. 2. in
    while alive t && Unix.gettimeofday () < deadline do
      Unix.sleepf 0.01
    done;
    if alive t then begin
      (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] t.pid) with Unix.Unix_error _ -> ());
      t.reaped <- true;
      live := List.filter (fun c -> c != t) !live
    end
  end

let kill_all () =
  List.iter
    (fun t ->
      (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] t.pid) with Unix.Unix_error _ -> ())
    !live;
  live := []

let stderr_tail t =
  match In_channel.with_open_text t.err_file In_channel.input_all with
  | exception Sys_error _ -> ""
  | s ->
    let n = String.length s in
    if n <= 2000 then s else String.sub s (n - 2000) 2000

(* --- admin scrapes ------------------------------------------------------- *)

let get t path =
  match Admin.http_get ~retries:20 ~connect:t.admin path with
  | Ok (200, body) -> Ok body
  | Ok (code, _) -> Error (Printf.sprintf "GET %s: HTTP %d" path code)
  | Error e -> Error (Printf.sprintf "GET %s: %s" path e)

(* The counters the per-layer metrics difference over a phase. *)
type snapshot = {
  wall : float;
  submitted : int;
  shed : int;
  pool_executed : int;
  poll_wait : float;
  lookups : int;
  hits : int;  (** cached + in-flight *)
  invalidated : int;  (** invalidated + patched *)
  batches : int;
  pushes : int;
  requests : float;  (** sum of fusion_requests_total over sources and ops *)
  gc_minor_words : float;
  propagate_sum : float;
  propagate_count : float;
}

(* Sums every sample of one metric family in Prometheus text format. *)
let prom_sum text name =
  List.fold_left
    (fun acc line ->
      let n = String.length name in
      if
        String.length line > n
        && String.sub line 0 n = name
        && (line.[n] = ' ' || line.[n] = '{')
      then
        match String.rindex_opt line ' ' with
        | Some i -> (
          match float_of_string_opt (String.sub line (i + 1) (String.length line - i - 1)) with
          | Some v -> acc +. v
          | None -> acc)
        | None -> acc
      else acc)
    0. (String.split_on_char '\n' text)

let snapshot t =
  let ( let* ) = Result.bind in
  let* status = get t "/statusz" in
  let* metrics = get t "/metrics" in
  let* j = Json.of_string status in
  let path keys =
    List.fold_left (fun acc k -> Option.bind acc (Json.member k)) (Some j) keys
  in
  let int keys = Option.value ~default:0 (Option.bind (path keys) Json.to_int) in
  let float keys = Option.value ~default:0. (Option.bind (path keys) Json.to_float) in
  Ok
    {
      wall = Unix.gettimeofday ();
      submitted = int [ "stats"; "submitted" ];
      shed =
        int [ "shed_by_reason"; "queue_full" ] + int [ "shed_by_reason"; "deadline_unmeetable" ];
      pool_executed = int [ "pool"; "executed" ];
      poll_wait = float [ "scheduler"; "poll_wait_seconds" ];
      lookups = int [ "cache"; "lookups" ];
      hits = int [ "cache"; "cached_hits" ] + int [ "cache"; "inflight_hits" ];
      invalidated = int [ "cache"; "invalidated" ] + int [ "cache"; "patched" ];
      batches = int [ "delta"; "batches" ];
      pushes = int [ "delta"; "pushes" ];
      requests = prom_sum metrics "fusion_requests_total";
      gc_minor_words = prom_sum metrics "fusion_rt_gc_minor_words";
      propagate_sum = prom_sum metrics "fusion_delta_propagate_us_sum";
      propagate_count = prom_sum metrics "fusion_delta_propagate_us_count";
    }
