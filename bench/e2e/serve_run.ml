(* The ses serve client: one process, one connection per tenant (at most
   two), driven by a select loop on loopback.

   A closed loop (serve_bulk) sends BATCH frames as fast as the socket
   accepts them, unless the server has said SLOW and not yet RESUME, or a
   window of frames is still unacknowledged. Without the window the
   kernel's autotuned socket buffers would absorb megabytes of rows, and
   a row's latency would measure those buffers rather than the server.
   An open loop (serve_mixed) sends on a fixed schedule regardless of the
   server: each row is due at [start + i / rate]. The driver wakes on a
   fixed tick and the rows due by then go out as one BATCH, so the frame
   count does not depend on timer jitter. Every write is recorded, so the
   traced run can replay the identical byte stream in-process. *)

open Workload
module Protocol = Ses_server.Protocol

type phase = Setup | Streaming | Draining

type conn = {
  tenant : tenant;
  fd : Unix.file_descr;
  lines : Proc.splitter;
  mutable phase : phase;
  mutable pending : string;  (* queued, not yet written *)
  mutable queued : int;  (* bytes ever queued *)
  mutable written : int;  (* bytes ever written *)
  frames : (int * int * int) Queue.t;
      (* (end offset, first row, end row) of frames not fully written *)
  sent_at : float array;  (* per row: when its frame's last byte was written *)
  mutable next_row : int;
  mutable frames_sent : int;
  mutable batch_acks : int;
  mutable paused : bool;
  mutable eof : bool;
  mutable received : int;  (* bytes read *)
  mutable acks : int;
  mutable expected_acks : int;
  mutable errors : string list;
  mutable slow_signals : int;
  mutable matches : (string * string * float) list;  (* query, subst, received *)
  mutable results : (string * string) list;  (* query, subst *)
  mutable unregistered : (string * int) list;  (* query, matches= count *)
  mutable stats : (string * string) list;
  mutable last_line : float;
}

type write = { conn : int; at : float; data : string }

type session = {
  setup_s : float;
  spawned : float;
  origin : float;  (* end of setup: the open-loop schedule's time zero *)
  stream_start : float;  (* first stream byte *)
  stream_end : float;  (* last line received *)
  rows : int;
  usage : Proc.usage;
  peak_rss_mb : float;  (* the server's VmHWM just before SIGTERM *)
  reaped : float;
  conns : conn list;
  writes : write list;
      (* oldest first, times relative to [spawned]; empty unless recorded *)
  late_ms : float list;
  out_bytes : int;
}

let queue c text =
  c.pending <- c.pending ^ text;
  c.queued <- c.queued + String.length text

(* A command that the server answers with exactly one OK, ERR or STATS. *)
let command c text =
  queue c text;
  c.expected_acks <- c.expected_acks + 1

let register c (q : query) = command c (Printf.sprintf "REGISTER %s %s\n" q.qname q.text)

let unregister c (q : query) = command c (Printf.sprintf "UNREGISTER %s\n" q.qname)

(* Churn commands due before row [b]: retirements first, then the queries
   that start seeing rows at [b]. *)
let churn_commands c b =
  let n = Array.length c.tenant.rows in
  List.iter (fun q -> if q.until_row = b && b < n then unregister c q) c.tenant.queries;
  List.iter (fun q -> if q.from_row = b && b > 0 then register c q) c.tenant.queries

let next_boundary c =
  List.fold_left
    (fun acc q ->
      let acc =
        if q.from_row > c.next_row && q.from_row < acc then q.from_row else acc
      in
      if q.until_row > c.next_row && q.until_row < acc then q.until_row else acc)
    (Array.length c.tenant.rows) c.tenant.queries

(* Queues rows [next_row, upto) as BATCH frames of at most [frame] rows,
   split at churn boundaries. *)
let rec produce c ~upto ~frame =
  if c.next_row < upto then begin
    let stop = min upto (min (next_boundary c) (c.next_row + frame)) in
    let k = stop - c.next_row in
    let b = Buffer.create (k * 16) in
    Buffer.add_string b (Printf.sprintf "BATCH %d\n" k);
    for i = c.next_row to stop - 1 do
      Buffer.add_string b c.tenant.rows.(i);
      Buffer.add_char b '\n'
    done;
    command c (Buffer.contents b);
    c.frames_sent <- c.frames_sent + 1;
    Queue.push (c.queued, c.next_row, stop) c.frames;
    c.next_row <- stop;
    churn_commands c stop;
    produce c ~upto ~frame
  end

let finish c =
  let n = Array.length c.tenant.rows in
  List.iter (fun q -> if q.until_row = n then unregister c q) c.tenant.queries;
  command c "METRICS\n";
  queue c "QUIT\n";
  c.phase <- Draining

let handle_line c (l : Proc.line) =
  c.last_line <- l.at;
  match Protocol.parse_reply l.text with
  | Ok (Protocol.Ok_done text) -> (
      c.acks <- c.acks + 1;
      match Option.map (String.split_on_char ' ') text with
      | Some [ "batch"; _ ] -> c.batch_acks <- c.batch_acks + 1
      | Some [ "unregistered"; q; m ] when String.starts_with ~prefix:"matches=" m
        ->
          c.unregistered <-
            (q, int_of_string (String.sub m 8 (String.length m - 8)))
            :: c.unregistered
      | _ -> ())
  | Ok (Protocol.Err msg) ->
      c.acks <- c.acks + 1;
      c.errors <- msg :: c.errors
  | Ok Protocol.Slow ->
      c.paused <- true;
      c.slow_signals <- c.slow_signals + 1
  | Ok Protocol.Resume -> c.paused <- false
  | Ok (Protocol.Match { query; subst; _ }) ->
      c.matches <- (query, subst, l.at) :: c.matches
  | Ok (Protocol.Result { query; subst; _ }) ->
      c.results <- (query, subst) :: c.results
  | Ok (Protocol.Stats kv) ->
      c.acks <- c.acks + 1;
      c.stats <- kv
  | Ok (Protocol.Bye | Protocol.Pong) -> ()
  | Error msg -> c.errors <- ("unparsable reply: " ^ msg) :: c.errors

let connect port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.set_nonblock fd;
  fd

(* Spawns [ses serve] with default flags and waits for its listening
   line; returns the pid, its stdout and the port. *)
let start_server ses =
  let pid, out = Proc.spawn ses [ "serve" ] in
  let sp = Proc.splitter () in
  let rec wait () =
    match Proc.read_chunk out with
    | None -> failwith "ses serve exited before listening"
    | Some chunk -> (
        Proc.push sp chunk ~at:(Proc.now ());
        let listening =
          List.find_map
            (fun (l : Proc.line) ->
              match String.rindex_opt l.text ':' with
              | Some i when String.starts_with ~prefix:"ses serve: listening" l.text
                ->
                  int_of_string_opt
                    (String.trim
                       (String.sub l.text (i + 1) (String.length l.text - i - 1)))
              | _ -> None)
            (Proc.take_lines sp)
        in
        match listening with Some port -> port | None -> wait ())
  in
  (pid, out, wait ())

(* Reads the server's peak RSS while it is idle and alive, then SIGTERM
   (the graceful stop), drain the lifecycle output, reap. *)
let stop_server pid out =
  let peak = Option.value (Proc.peak_rss_mb pid) ~default:Float.nan in
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (Proc.read_all out);
  Unix.close out;
  let usage = Proc.reap pid in
  (usage, peak, Proc.now ())

let read_conn c =
  match Proc.read_chunk c.fd with
  | None -> c.eof <- true
  | Some chunk ->
      c.received <- c.received + String.length chunk;
      Proc.push c.lines chunk ~at:(Proc.now ());
      List.iter (handle_line c) (Proc.take_lines c.lines)
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    ->
      ()
  | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> c.eof <- true

(* [~record] keeps every write for the traced replay; end-to-end runs
   leave it off, so the driver's heap does not grow while it measures. *)
let run ~ses ~(input : serve_input) ~setup_only ~record =
  let spawned = Proc.now () in
  let pid, out, port = start_server ses in
  let writes = ref [] and late = ref [] in
  let conns =
    List.map
      (fun tenant ->
        let c =
          {
            tenant;
            fd = connect port;
            lines = Proc.splitter ();
            phase = Setup;
            pending = "";
            queued = 0;
            written = 0;
            frames = Queue.create ();
            sent_at = Array.make (Array.length tenant.rows) Float.nan;
            next_row = 0;
            frames_sent = 0;
            batch_acks = 0;
            paused = false;
            eof = false;
            received = 0;
            acks = 0;
            expected_acks = 0;
            errors = [];
            slow_signals = 0;
            matches = [];
            results = [];
            unregistered = [];
            stats = [];
            last_line = spawned;
          }
        in
        command c (Printf.sprintf "AUTH %s\n" tenant.tname);
        command c "SUBSCRIBE\n";
        List.iter (fun q -> if q.from_row = 0 then register c q) tenant.queries;
        c)
      input.tenants
  in
  let conns_a = Array.of_list conns in
  let setup_done = ref None and stream_start = ref None in
  let write_conn i c ~ready =
    match Unix.write_substring c.fd c.pending 0 (String.length c.pending) with
    | n ->
        let at = Proc.now () in
        if Option.is_none !stream_start && Option.is_some !setup_done then
          stream_start := Some at;
        if record then
          writes := { conn = i; at = at -. spawned; data = String.sub c.pending 0 n }
                    :: !writes;
        c.pending <- String.sub c.pending n (String.length c.pending - n);
        c.written <- c.written + n;
        (match input.loop with
        | Closed _ -> late := ((at -. ready) *. 1000.) :: !late
        | Open _ -> ());
        while
          (not (Queue.is_empty c.frames))
          &&
          let e, _, _ = Queue.peek c.frames in
          e <= c.written
        do
          let _, first, stop = Queue.pop c.frames in
          for r = first to stop - 1 do
            c.sent_at.(r) <- at
          done
        done
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      ->
        ()
    | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
        (* The server is gone; its missing replies fail the checks. *)
        c.pending <- ""
  in
  let all_eof () = Array.for_all (fun c -> c.eof) conns_a in
  let next_wake = ref 0. in
  let start_streaming now =
    setup_done := Some now;
    next_wake := now;
    Array.iter
      (fun c ->
        if setup_only then begin
          queue c "QUIT\n";
          c.phase <- Draining
        end
        else c.phase <- Streaming)
      conns_a
  in
  (* Open-loop schedule origin: the end of setup. *)
  let due row =
    match input.loop with
    | Open { rate; _ } -> Option.get !setup_done +. (float_of_int row /. rate)
    | Closed _ -> invalid_arg "due: closed loop"
  in
  let advance now =
    (match !setup_done with
    | None ->
        if Array.for_all (fun c -> c.acks >= c.expected_acks) conns_a then
          start_streaming now
    | Some _ -> ());
    Array.iter
      (fun c ->
        let n = Array.length c.tenant.rows in
        match c.phase with
        | Setup | Draining -> ()
        | Streaming -> (
            if c.next_row >= n then finish c
            else
              match input.loop with
              | Closed { frame; window } ->
                  if (not c.paused) && c.frames_sent - c.batch_acks < window then
                    produce c ~upto:(min n (c.next_row + frame)) ~frame
              | Open { rate; _ } ->
                  if now >= !next_wake then
                    let t0 = Option.get !setup_done in
                    let upto =
                      min n (int_of_float ((now -. t0) *. rate) + 1)
                    in
                    produce c ~upto ~frame:Protocol.max_batch))
      conns_a;
    match input.loop with
    | Open { tick; _ } when Option.is_some !setup_done && now >= !next_wake ->
        while !next_wake <= now do
          next_wake := !next_wake +. tick
        done
    | Open _ | Closed _ -> ()
  in
  (* A server that neither reads nor replies for this long has hung; the
     run fails instead of outliving its time limit. *)
  let stall_limit = 60. in
  let progress () =
    Array.fold_left (fun acc c -> acc + c.written + c.received) 0 conns_a
  in
  let last_progress = ref (Proc.now (), 0) in
  let rec loop () =
    if not (all_eof ()) then begin
      let now = Proc.now () in
      let at, seen = !last_progress in
      if progress () <> seen then last_progress := (now, progress ())
      else if now -. at > stall_limit then
        failwith (Printf.sprintf "ses serve made no progress for %.0f s" stall_limit);
      advance now;
      let reads =
        Array.fold_left (fun acc c -> if c.eof then acc else c.fd :: acc) [] conns_a
      in
      let writes_wanted =
        Array.fold_left
          (fun acc c -> if String.equal c.pending "" then acc else c.fd :: acc)
          [] conns_a
      in
      let streaming =
        Array.exists
          (fun c ->
            match c.phase with
            | Streaming -> c.next_row < Array.length c.tenant.rows
            | Setup | Draining -> false)
          conns_a
      in
      let timeout =
        match input.loop with
        | Open _ when streaming -> Float.max 0. (!next_wake -. Proc.now ())
        | Open _ | Closed _ -> 1.
      in
      let rs, ws, _ =
        try Unix.select reads writes_wanted [] timeout
        with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      let ready = Proc.now () in
      Array.iteri
        (fun i c -> if List.mem c.fd ws then write_conn i c ~ready)
        conns_a;
      Array.iter (fun c -> if List.mem c.fd rs then read_conn c) conns_a;
      loop ()
    end
  in
  Fun.protect
    ~finally:(fun () -> Array.iter (fun c -> Unix.close c.fd) conns_a)
    loop;
  let usage, peak_rss_mb, reaped = stop_server pid out in
  let setup_at = Option.value !setup_done ~default:reaped in
  let stream_end =
    Array.fold_left (fun acc c -> Float.max acc c.last_line) 0. conns_a
  in
  (match input.loop with
  | Open _ ->
      Array.iter
        (fun c ->
          Array.iteri
            (fun r at ->
              if Float.is_finite at then late := ((at -. due r) *. 1000.) :: !late)
            c.sent_at)
        conns_a
  | Closed _ -> ());
  {
    setup_s = setup_at -. spawned;
    spawned;
    origin = setup_at;
    stream_start = Option.value !stream_start ~default:setup_at;
    stream_end;
    rows =
      Array.fold_left (fun acc c -> acc + c.next_row) 0 conns_a;
    usage;
    peak_rss_mb;
    reaped;
    conns;
    writes = List.rev !writes;
    late_ms = !late;
    out_bytes = Array.fold_left (fun acc c -> acc + c.received) 0 conns_a;
  }
