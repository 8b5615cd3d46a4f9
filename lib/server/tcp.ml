(* The socket adapter: a select(2) loop over non-blocking fds that
   shuttles bytes between the kernel and {!Runtime}. Also answers
   minimal HTTP/1.0 GETs on the same port (a connection whose first
   bytes are "GET " is served /metrics and closed), so the Prometheus
   scrape needs no second listener. All protocol logic lives in
   {!Runtime}/{!Session}; nothing here is load-bearing for correctness
   and the integration tests bypass this file entirely. *)

type peer_state =
  | Undecided of Buffer.t  (* first bytes not seen yet: protocol? HTTP? *)
  | Proto of int  (* runtime connection id *)
  | Http of Buffer.t  (* request bytes until the blank line *)

type peer = {
  fd : Unix.file_descr;
  mutable state : peer_state;
  mutable outbuf : string;  (* unwritten tail (partial writes) *)
  mutable eof : bool;  (* peer half-closed; flush then close *)
}

type config = {
  host : string;
  port : int;  (* 0 = ephemeral *)
  port_file : string option;  (* write the bound port here *)
  log : string -> unit;  (* lifecycle lines; the CLI wires stdout *)
}

let default_config =
  { host = "127.0.0.1"; port = 0; port_file = None; log = ignore }

let http_response ~status ~body =
  Printf.sprintf
    "HTTP/1.0 %s\r\nContent-Type: text/plain; version=0.0.4\r\n\
     Content-Length: %d\r\nConnection: close\r\n\r\n%s"
    status (String.length body) body

let stop_requested = ref false

let handle_signals () =
  let request _ = stop_requested := true in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle request);
  Sys.set_signal Sys.sigint (Sys.Signal_handle request);
  (match Sys.signal Sys.sigpipe Sys.Signal_ignore with _ -> ())

let serve ?(config = default_config) rt_config =
  stop_requested := false;
  handle_signals ();
  let rt = Runtime.create rt_config in
  let listener = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listener Unix.SO_REUSEADDR true;
  let addr = Unix.inet_addr_of_string config.host in
  Unix.bind listener (Unix.ADDR_INET (addr, config.port));
  Unix.listen listener 64;
  Unix.set_nonblock listener;
  let port =
    match Unix.getsockname listener with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> config.port
  in
  (match config.port_file with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      output_string oc (string_of_int port);
      output_char oc '\n';
      close_out oc);
  config.log (Printf.sprintf "ses serve: listening on %s:%d\n" config.host port);
  let peers : (Unix.file_descr, peer) Hashtbl.t = Hashtbl.create 16 in
  let buf = Bytes.create 65536 in
  let close_peer peer =
    (match peer.state with
    | Proto id -> Runtime.close_conn rt id
    | Undecided _ | Http _ -> ());
    Hashtbl.remove peers peer.fd;
    try Unix.close peer.fd with Unix.Unix_error _ -> ()
  in
  let now () = Unix.gettimeofday () in
  (* Everything the runtime has buffered for [id], appended to the
     peer's unwritten tail. *)
  let pull_output peer =
    match peer.state with
    | Proto id ->
        let s = Runtime.take_output rt id in
        if s <> "" then peer.outbuf <- peer.outbuf ^ s
    | Undecided _ | Http _ -> ()
  in
  let decide peer (pending : Buffer.t) =
    let s = Buffer.contents pending in
    if String.length s >= 4 then
      if String.sub s 0 4 = "GET " then begin
        let b = Buffer.create 256 in
        Buffer.add_string b s;
        peer.state <- Http b;
        true
      end
      else begin
        let id = Runtime.add_conn ~now:(now ()) rt in
        peer.state <- Proto id;
        Runtime.input ~now:(now ()) rt id s;
        true
      end
    else if peer.eof then begin
      (* Too short to ever decide: treat as protocol and let it die. *)
      let id = Runtime.add_conn ~now:(now ()) rt in
      peer.state <- Proto id;
      if s <> "" then Runtime.input ~now:(now ()) rt id s;
      true
    end
    else false
  in
  let http_step peer (b : Buffer.t) =
    let s = Buffer.contents b in
    (* Serve as soon as the request line is complete. *)
    match String.index_opt s '\n' with
    | None -> ()
    | Some i ->
        let line = String.trim (String.sub s 0 i) in
        let body, status =
          match String.split_on_char ' ' line with
          | "GET" :: path :: _ when path = "/metrics" ->
              (Runtime.metrics_page rt, "200 OK")
          | _ -> ("not found\n", "404 Not Found")
        in
        peer.outbuf <- peer.outbuf ^ http_response ~status ~body;
        peer.eof <- true
  in
  let read_peer peer =
    match Unix.read peer.fd buf 0 (Bytes.length buf) with
    | 0 -> peer.eof <- true
    | n -> (
        let data = Bytes.sub_string buf 0 n in
        match peer.state with
        | Proto id -> Runtime.input ~now:(now ()) rt id data
        | Http b ->
            Buffer.add_string b data;
            http_step peer b
        | Undecided pending ->
            Buffer.add_string pending data;
            if decide peer pending then begin
              match peer.state with
              | Http b -> http_step peer b
              | _ -> ()
            end)
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
    | exception Unix.Unix_error _ -> peer.eof <- true
  in
  let write_peer peer =
    pull_output peer;
    if peer.outbuf <> "" then begin
      match
        Unix.write_substring peer.fd peer.outbuf 0 (String.length peer.outbuf)
      with
      | n ->
          peer.outbuf <-
            String.sub peer.outbuf n (String.length peer.outbuf - n)
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
      | exception Unix.Unix_error _ ->
          peer.outbuf <- "";
          peer.eof <- true
    end
  in
  let finished = ref false in
  while not !finished do
    if !stop_requested then begin
      Runtime.shutdown rt;
      Hashtbl.iter (fun _ p -> pull_output p; write_peer p) peers;
      Hashtbl.iter
        (fun _ p -> try Unix.close p.fd with Unix.Unix_error _ -> ())
        peers;
      Hashtbl.reset peers;
      finished := true
    end
    else begin
      Hashtbl.iter (fun _ p -> pull_output p) peers;
      let reads =
        listener
        :: Hashtbl.fold
             (fun fd p acc ->
               let wants =
                 (not p.eof)
                 &&
                 match p.state with
                 | Proto id -> Runtime.want_read rt id
                 | Undecided _ | Http _ -> true
               in
               if wants then fd :: acc else acc)
             peers []
      in
      let writes =
        Hashtbl.fold
          (fun fd p acc -> if p.outbuf <> "" then fd :: acc else acc)
          peers []
      in
      (* Work-conserving: while a tenant queue holds rows the next
         [tick] has work, so poll instead of sleeping. A [Block]-paused
         connection is out of [reads], and nothing else would wake the
         loop before the timeout. *)
      let timeout = if Runtime.has_queued rt then 0. else 0.05 in
      (match Unix.select reads writes [] timeout with
      | rs, ws, _ ->
          List.iter
            (fun fd ->
              if fd = listener then begin
                match Unix.accept listener with
                | client, _ ->
                    Unix.set_nonblock client;
                    (* Every reply is a short line; with Nagle's algorithm
                       one written behind an unacknowledged one waits for
                       the peer's delayed ACK (~40 ms on Linux). Some
                       kernels refuse the option once the peer has
                       reset; the read path then sees the reset. *)
                    (try Unix.setsockopt client Unix.TCP_NODELAY true
                     with Unix.Unix_error _ -> ());
                    Hashtbl.replace peers client
                      {
                        fd = client;
                        state = Undecided (Buffer.create 64);
                        outbuf = "";
                        eof = false;
                      }
                | exception
                    Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) ->
                    ()
              end
              else
                match Hashtbl.find_opt peers fd with
                | Some p -> read_peer p
                | None -> ())
            rs;
          List.iter
            (fun fd ->
              match Hashtbl.find_opt peers fd with
              | Some p -> write_peer p
              | None -> ())
            ws
      | exception Unix.Unix_error (EINTR, _, _) -> ());
      Runtime.tick ~now:(now ()) rt;
      (* Reap: flush what the runtime queued, then close connections
         that are done (runtime closing + drained, or peer EOF). *)
      let doomed =
        Hashtbl.fold
          (fun _ p acc ->
            pull_output p;
            let closing =
              match p.state with
              | Proto id -> Runtime.is_closing rt id
              | Undecided _ -> false
              | Http _ -> p.eof
            in
            if (closing || p.eof) && p.outbuf = "" then p :: acc else acc)
          peers []
      in
      List.iter close_peer doomed
    end
  done;
  (try Unix.close listener with Unix.Unix_error _ -> ());
  config.log "ses serve: shut down\n"
