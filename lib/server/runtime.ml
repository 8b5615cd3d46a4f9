(* The server core, free of sockets: sessions multiplexed over abstract
   per-connection byte buffers, tenant state (query sets, ingest
   queues), backpressure, idle timeouts and telemetry. The TCP layer is
   a thin adapter: it pushes received bytes through [input], drains
   [take_output] to the wire, and calls [tick] on its loop; the
   integration tests drive exactly the same entry points through
   in-memory pipes, deterministically. *)

open Ses_event
open Ses_pattern
open Ses_core

type overflow = Drop_oldest | Block

type config = {
  schema : Schema.t;
  options : Engine.options;
  queue_capacity : int;
  overflow : overflow;
  idle_timeout : float;  (* seconds; 0 disables *)
  drain_quota : int;  (* events fed per tenant per tick *)
  telemetry : Telemetry.t option;
}

let default_config ~schema =
  {
    schema;
    options = Engine.default_options;
    queue_capacity = 1024;
    overflow = Block;
    idle_timeout = 0.;
    drain_quota = 256;
    telemetry = None;
  }

type tenant = {
  t_name : string;
  t_multi : Multi.t;
  t_queue : Event.t Bounded_queue.t;
  mutable t_queries : (string * Pattern.t) list;
  t_decoder : Ses_store.Csv_stream.line_decoder;  (* one for every row *)
  mutable t_seq : int;
  mutable t_last_ts : Time.t;  (* [min_int] before the first row *)
  mutable t_events : int;  (* accepted rows *)
  mutable t_dropped : int;  (* overflow drops *)
  mutable t_matches : int;  (* raw emissions streamed *)
  t_counter : Telemetry.Counter.t option;
}

type conn = {
  c_id : int;
  c_session : Session.t;
  c_out : Buffer.t;
  mutable c_slow : bool;
  mutable c_closing : bool;
  mutable c_last_activity : float;
}

type t = {
  cfg : config;
  conns : (int, conn) Hashtbl.t;
  tenants : (string, tenant) Hashtbl.t;
  mutable next_id : int;
  gauge_conns : Telemetry.Gauge.t option;
  hist_depth : Telemetry.Histogram.t option;
  span_ingest : Telemetry.Span.t option;
  span_emit : Telemetry.Span.t option;
}

let create cfg =
  let cfg =
    {
      cfg with
      queue_capacity = max 1 cfg.queue_capacity;
      drain_quota = max 1 cfg.drain_quota;
    }
  in
  let probe f name = Option.map (fun tl -> f tl name) cfg.telemetry in
  {
    cfg;
    conns = Hashtbl.create 16;
    tenants = Hashtbl.create 16;
    next_id = 0;
    gauge_conns = probe Telemetry.gauge "server.connections";
    hist_depth = probe Telemetry.histogram "server.queue_depth";
    span_ingest = probe Telemetry.span "server.ingest";
    span_emit = probe Telemetry.span "server.emit";
  }

let connections t = Hashtbl.length t.conns
let conn_ids t = List.sort Int.compare (Hashtbl.fold (fun id _ acc -> id :: acc) t.conns [])

let observe_conns t =
  Option.iter
    (fun g -> Telemetry.Gauge.observe g (connections t))
    t.gauge_conns

let send conn reply =
  Buffer.add_string conn.c_out (Protocol.render_reply reply);
  Buffer.add_char conn.c_out '\n'

(* A [Block]-mode connection under SLOW is not read: the server, not the
   peer, keeps it silent, so its idle clock is stopped. *)
let paused t conn =
  match t.cfg.overflow with Block -> conn.c_slow | Drop_oldest -> false

let tenant_conns t name =
  Hashtbl.fold
    (fun _ c acc ->
      let same_tenant =
        match Session.tenant c.c_session with
        | Some t -> String.equal t name
        | None -> false
      in
      if same_tenant && not c.c_closing then
        c :: acc
      else acc)
    t.conns []

let subscribers t name =
  List.filter (fun c -> Session.subscribed c.c_session) (tenant_conns t name)

let find_tenant t name =
  match Hashtbl.find_opt t.tenants name with
  | Some ten -> ten
  | None ->
      let ten =
        {
          t_name = name;
          t_multi = Multi.create_mixed ~options:t.cfg.options [];
          t_queue = Bounded_queue.create ~capacity:t.cfg.queue_capacity;
          t_queries = [];
          t_decoder = Ses_store.Csv_stream.line_decoder t.cfg.schema;
          t_seq = 0;
          t_last_ts = min_int;
          t_events = 0;
          t_dropped = 0;
          t_matches = 0;
          t_counter =
            Option.map
              (fun tl -> Telemetry.counter tl ("server.events." ^ name))
              t.cfg.telemetry;
        }
      in
      Hashtbl.add t.tenants name ten;
      ten

let render_subst pattern subst =
  Format.asprintf "%a" (Substitution.pp pattern) subst

(* Stream completions to the tenant's subscribers as MATCH lines. *)
let broadcast t ten completions =
  let subs = subscribers t ten.t_name in
  let tok = Option.map Telemetry.Span.start t.span_emit in
  List.iter
    (fun (qname, substs) ->
      ten.t_matches <- ten.t_matches + List.length substs;
      match List.assoc_opt qname ten.t_queries with
      | None -> ()
      | Some pattern ->
          List.iter
            (fun s ->
              let line =
                Protocol.Match
                  {
                    tenant = ten.t_name;
                    query = qname;
                    subst = render_subst pattern s;
                  }
              in
              List.iter (fun c -> send c line) subs)
            substs)
    completions;
  (match (t.span_emit, tok) with
  | Some sp, Some tk -> Telemetry.Span.stop sp tk
  | _ -> ())

(* Feed queued events into the tenant's query set; resume slowed
   connections when the queue falls under the low-water mark, restarting
   the idle clock of those the server had stopped reading. *)
let drain_tenant ~now t ten ~quota =
  let events = Bounded_queue.drain ten.t_queue ~max:quota in
  (if events <> [] then
     let tok = Option.map Telemetry.Span.start t.span_ingest in
     broadcast t ten (Multi.feed_batch ten.t_multi (Array.of_list events));
     match (t.span_ingest, tok) with
     | Some sp, Some tk -> Telemetry.Span.stop sp tk
     | _ -> ());
  if Bounded_queue.below_low_water ten.t_queue then
    List.iter
      (fun c ->
        if c.c_slow then begin
          if paused t c then c.c_last_activity <- now;
          c.c_slow <- false;
          send c Protocol.Resume
        end)
      (tenant_conns t ten.t_name)

let drain_all ~now t ten = drain_tenant ~now t ten ~quota:max_int

(* Overflow: drop-oldest keeps reading and sheds the oldest queued
   events; block stops reading the tenant's connections (the TCP layer
   honours [want_read]) until the drain resumes them. SLOW is sent once
   per connection either way. *)
let after_enqueue t ten =
  if Bounded_queue.over ten.t_queue then begin
    (match t.cfg.overflow with
    | Drop_oldest -> ten.t_dropped <- ten.t_dropped + Bounded_queue.drop_oldest ten.t_queue
    | Block -> ());
    List.iter
      (fun c ->
        if not c.c_slow then begin
          c.c_slow <- true;
          send c Protocol.Slow
        end)
      (tenant_conns t ten.t_name)
  end

let register_query ~now t conn ten name query_text =
  if List.mem_assoc name ten.t_queries then
    send conn (Protocol.Err (Printf.sprintf "register %s: duplicate query name" name))
  else
    match Ses_lang.Lang.parse_pattern t.cfg.schema query_text with
    | Error msg ->
        send conn (Protocol.Err (Printf.sprintf "register %s: %s" name msg))
    | Ok pattern -> (
        let automaton = Automaton.of_pattern pattern in
        (* [`Plain] until the server benchmark measures [`Auto] against
           it. Either streams a completion from the [feed_batch] that
           closes its window: the shared plan feeds a routed query only
           the rows its strong filter keeps, and advances its clock to
           the last row of every drained batch. *)
        (* Barrier: queued events were sent before this REGISTER, so the
           new query must not observe them through a later drain. *)
        drain_all ~now t ten;
        match Multi.register ten.t_multi (name, automaton, `Plain) with
        | () ->
            ten.t_queries <- ten.t_queries @ [ (name, pattern) ];
            send conn (Protocol.Ok_done (Some ("registered " ^ name)))
        | exception Invalid_argument msg ->
            send conn (Protocol.Err ("register " ^ name ^ ": " ^ msg)))

let unregister_query ~now t conn ten name =
  match List.assoc_opt name ten.t_queries with
  | None -> send conn (Protocol.Err ("unregister " ^ name ^ ": unknown query"))
  | Some pattern -> (
      drain_all ~now t ten;
      match Multi.unregister ten.t_multi name with
      | exception Invalid_argument _ ->
          send conn (Protocol.Err ("unregister " ^ name ^ ": unknown query"))
      | (outcome : Engine.outcome) ->
          ten.t_queries <- List.remove_assoc name ten.t_queries;
          let subs = subscribers t ten.t_name in
          List.iter
            (fun s ->
              let line =
                Protocol.Result
                  {
                    tenant = ten.t_name;
                    query = name;
                    subst = render_subst pattern s;
                  }
              in
              List.iter (fun c -> send c line) subs)
            outcome.Engine.matches;
          send conn
            (Protocol.Ok_done
               (Some
                  (Printf.sprintf "unregistered %s matches=%d" name
                     (List.length outcome.Engine.matches)))))

let ingest t conn ten rows announced =
  let accepted = ref 0 and last_err = ref "" in
  List.iter
    (fun row ->
      match Ses_store.Csv_stream.decode_line ten.t_decoder ~seq:ten.t_seq row with
      | Error msg -> last_err := msg
      | Ok e ->
          if Time.( <. ) (Event.ts e) ten.t_last_ts then
            last_err := "row out of order (timestamps must not decrease)"
          else begin
            ten.t_seq <- ten.t_seq + 1;
            ten.t_last_ts <- Event.ts e;
            ten.t_events <- ten.t_events + 1;
            incr accepted;
            Bounded_queue.push ten.t_queue e
          end)
    rows;
  Option.iter (fun c -> Telemetry.Counter.add c !accepted) ten.t_counter;
  (match announced with
  | None ->
      (* single EVENT: silent on success, ERR on rejection *)
      if !last_err <> "" then send conn (Protocol.Err ("event: " ^ !last_err))
  | Some n ->
      if !accepted = n then
        send conn (Protocol.Ok_done (Some (Printf.sprintf "batch %d" n)))
      else
        send conn
          (Protocol.Err
             (Printf.sprintf "batch: %d of %d rows rejected%s" (n - !accepted)
                n
                (if !last_err = "" then "" else " (last: " ^ !last_err ^ ")"))));
  after_enqueue t ten

let stats t ten =
  Protocol.Stats
    [
      ("tenant", ten.t_name);
      ("queries", string_of_int (List.length ten.t_queries));
      ("events", string_of_int ten.t_events);
      ("queued", string_of_int (Bounded_queue.length ten.t_queue));
      ("dropped", string_of_int ten.t_dropped);
      ("matches", string_of_int ten.t_matches);
      ("connections", string_of_int (connections t));
    ]

let exec_op ~now t conn (op : Session.op) =
  match op with
  | Auth name ->
      ignore (find_tenant t name);
      send conn (Protocol.Ok_done (Some ("tenant " ^ name)))
  | Subscribe -> send conn (Protocol.Ok_done (Some "subscribed"))
  | Register (name, query) -> (
      match Session.tenant conn.c_session with
      | None -> ()
      | Some tn -> register_query ~now t conn (find_tenant t tn) name query)
  | Unregister name -> (
      match Session.tenant conn.c_session with
      | None -> ()
      | Some tn -> unregister_query ~now t conn (find_tenant t tn) name)
  | Ingest { rows; announced } -> (
      match Session.tenant conn.c_session with
      | None -> ()
      | Some tn -> ingest t conn (find_tenant t tn) rows announced)
  | Query_metrics -> (
      match Session.tenant conn.c_session with
      | None -> ()
      | Some tn ->
          let ten = find_tenant t tn in
          (* Barrier: counts reflect everything sent before METRICS. *)
          drain_all ~now t ten;
          send conn (stats t ten))

let add_conn ?(now = 0.) t =
  let id = t.next_id in
  t.next_id <- id + 1;
  let conn =
    {
      c_id = id;
      c_session = Session.create ();
      c_out = Buffer.create 256;
      c_slow = false;
      c_closing = false;
      c_last_activity = now;
    }
  in
  Hashtbl.add t.conns id conn;
  observe_conns t;
  id

let with_conn t id f =
  match Hashtbl.find_opt t.conns id with None -> () | Some c -> f c

let input ?(now = 0.) t id data =
  with_conn t id (fun conn ->
      conn.c_last_activity <- now;
      List.iter
        (fun (e : Session.effect_) ->
          match e with
          | Session.Reply r -> send conn r
          | Session.Op op -> exec_op ~now t conn op
          | Session.Close ->
              (* QUIT is an ingest barrier: matches for everything the
                 connection's tenant sent beforehand are flushed to the
                 subscribers before the socket closes. *)
              (match Session.tenant conn.c_session with
              | Some tn -> drain_all ~now t (find_tenant t tn)
              | None -> ());
              conn.c_closing <- true)
        (Session.feed conn.c_session data))

let close_conn t id =
  with_conn t id (fun _ ->
      Hashtbl.remove t.conns id;
      observe_conns t)

let take_output t id =
  match Hashtbl.find_opt t.conns id with
  | None -> ""
  | Some conn ->
      let s = Buffer.contents conn.c_out in
      Buffer.clear conn.c_out;
      s

let pending_output t id =
  match Hashtbl.find_opt t.conns id with
  | None -> 0
  | Some conn -> Buffer.length conn.c_out

let want_read t id =
  match Hashtbl.find_opt t.conns id with
  | None -> false
  | Some conn ->
      (not conn.c_closing) && not (paused t conn)

let is_closing t id =
  match Hashtbl.find_opt t.conns id with
  | None -> true
  | Some conn -> conn.c_closing

let tick ?(now = 0.) t =
  Hashtbl.iter
    (fun _ ten ->
      Option.iter
        (fun h -> Telemetry.Histogram.observe h (Bounded_queue.length ten.t_queue))
        t.hist_depth;
      drain_tenant ~now t ten ~quota:t.cfg.drain_quota)
    t.tenants;
  if t.cfg.idle_timeout > 0. then
    Hashtbl.iter
      (fun _ conn ->
        if
          (not conn.c_closing)
          && (not (paused t conn))
          && now -. conn.c_last_activity > t.cfg.idle_timeout
        then begin
          send conn (Protocol.Err "idle timeout");
          send conn Protocol.Bye;
          conn.c_closing <- true
        end)
      t.conns

let has_queued t =
  Hashtbl.fold
    (fun _ ten acc -> acc || Bounded_queue.length ten.t_queue > 0)
    t.tenants false

let metrics_page t =
  match t.cfg.telemetry with
  | None -> "# telemetry disabled\n"
  | Some tl -> Telemetry.to_prometheus (Telemetry.snapshot tl)

let shutdown t =
  (* Flush every tenant (queued events, then the engines' close-time
     emissions) to its subscribers, then say goodbye. *)
  Hashtbl.iter
    (fun _ ten ->
      (* Every connection closes below: no idle clock to restart. *)
      drain_all ~now:0. t ten;
      broadcast t ten (Multi.close ten.t_multi))
    t.tenants;
  Hashtbl.iter
    (fun _ conn ->
      if not conn.c_closing then begin
        send conn Protocol.Bye;
        conn.c_closing <- true
      end)
    t.conns
