open Ses_event

(* The routing layer behind {!Multi}: one predicate index answering
   "which queries can this event affect", in front of one executor per
   registration. Routing never changes a query's emissions or metrics:

   - an event the index does not route to a query fails every clause of
     that query's strong filter, so it can neither fire a transition nor
     trigger a negation kill there — it can only close τ-windows, and a
     routed executor that is not gated still sees every event while it
     holds instances;
   - a gated executor skips non-routed events entirely, exactly the
     events its own filter would have dropped; they are accounted back
     when its metrics are read. *)

type atom = Schema.Field.t * Predicate.op * Value.t

type reg = { r_name : string; r_automaton : Automaton.t; r_strategy : Executor.strategy }

(* [None] = unroutable: fed every event. [Some (clauses, gated)]: the
   query only reacts to events satisfying some clause; [gated] when its
   own filter would drop exactly the non-routed events, so they need not
   be fed at all. *)
let routing options (r : reg) : (atom list list * bool) option =
  match r.r_strategy with
  | `Plain -> (
      let p = Automaton.pattern r.r_automaton in
      match options.Engine.filter with
      | Event_filter.Paper -> None
      | Event_filter.No_filter | Event_filter.Strong -> (
          match
            Event_filter.strong_clauses ~extra:options.Engine.filter_extras p
          with
          | None -> None
          | Some clauses ->
              Some (clauses, options.Engine.filter = Event_filter.Strong)))
  | `Auto -> (
      let plan = Planner.plan r.r_automaton in
      match Planner.routing_clauses plan r.r_automaton with
      | None -> None
      | Some clauses -> Some (clauses, true))
  | _ -> None

(* Registration indices grouped by constant-free skeleton; only groups
   of ≥ 2, in first-registration order. *)
let templates regs =
  let by_skel : (string, int list) Hashtbl.t = Hashtbl.create 16 in
  let order = ref [] in
  Array.iteri
    (fun i r ->
      let skel, _ = Query_sig.skeleton r.r_automaton in
      (match Hashtbl.find_opt by_skel skel with
      | None -> order := skel :: !order
      | Some _ -> ());
      Hashtbl.replace by_skel skel
        (i :: Option.value ~default:[] (Hashtbl.find_opt by_skel skel)))
    regs;
  List.filter_map
    (fun k ->
      match List.rev (Hashtbl.find by_skel k) with
      | _ :: _ :: _ as g -> Some g
      | _ -> None)
    (List.rev !order)

type feed_mode =
  | Always  (** whole feed: unroutable, or a strategy that needs it *)
  | Routed of { gated : bool }
      (** only routed events (plus, when not gated, any event arriving
          while the executor holds instances — expiry timing) *)

(* One registration: its executor and routing state. *)
type member = {
  m_reg : reg;
  m_exec : Executor.packed;
  m_mode : feed_mode;
  mutable m_retired : bool;  (* removed by {!retire}: executor closed *)
  mutable m_fed : int;
  mutable m_live : bool;  (* population > 0 after the last flush *)
  mutable m_pending_routed : bool;
  mutable m_buf : Event.t array;  (* this chunk's events for [m_exec] *)
  mutable m_buf_n : int;
}

type t = {
  sp_members : member array;  (* registration order *)
  sp_index : Predicate_index.t;
  sp_slot_member : int array;  (* index slot -> member *)
  sp_templates : int list list;
  mutable sp_total_events : int;
  mutable sp_last_ts : Time.t option;
  mutable sp_closed : bool;
  sp_c_eval : Telemetry.Counter.t option;
  sp_c_saved : Telemetry.Counter.t option;
  mutable sp_synced_eval : int;
  mutable sp_synced_saved : int;
}

let create ~options regs_list =
  let regs = Array.of_list regs_list in
  let built =
    Array.map
      (fun r ->
        let mode, clauses, exec_options =
          match routing options r with
          | None -> (Always, None, options)
          | Some (cl, gated) ->
              (* A gated [`Plain] member receives only events its strong
                 filter keeps, so the executor's own filter pass is
                 redundant work: strip it. The metrics difference is
                 compensated at snapshot. *)
              let opts =
                if gated && r.r_strategy = `Plain then
                  { options with Engine.filter = Event_filter.No_filter }
                else options
              in
              (Routed { gated }, Some cl, opts)
        in
        ( {
            m_reg = r;
            m_exec = Executor.create ~options:exec_options r.r_strategy r.r_automaton;
            m_mode = mode;
            m_retired = false;
            m_fed = 0;
            m_live = false;
            m_pending_routed = false;
            m_buf = [||];
            m_buf_n = 0;
          },
          clauses ))
      regs
  in
  (* One index slot per routed member. *)
  let slots =
    List.filter_map
      (fun i ->
        match built.(i) with
        | { m_mode = Routed _; _ }, clauses -> Some (clauses, i)
        | { m_mode = Always; _ }, _ -> None)
      (List.init (Array.length built) Fun.id)
  in
  let c_eval, c_saved =
    match options.Engine.telemetry with
    | None -> (None, None)
    | Some tl ->
        ( Some (Telemetry.counter tl "multi.shared.predicates_evaluated"),
          Some (Telemetry.counter tl "multi.shared.predicates_saved") )
  in
  {
    sp_members = Array.map fst built;
    sp_index = Predicate_index.create (Array.of_list (List.map fst slots));
    sp_slot_member = Array.of_list (List.map snd slots);
    sp_templates = templates regs;
    sp_total_events = 0;
    sp_last_ts = None;
    sp_closed = false;
    sp_c_eval = c_eval;
    sp_c_saved = c_saved;
    sp_synced_eval = 0;
    sp_synced_saved = 0;
  }

let sync_counters t =
  match t.sp_c_eval with
  | None -> ()
  | Some c ->
      let e = Predicate_index.evaluated t.sp_index in
      Telemetry.Counter.add c (e - t.sp_synced_eval);
      t.sp_synced_eval <- e;
      let s = Predicate_index.saved t.sp_index in
      (match t.sp_c_saved with
      | Some cs -> Telemetry.Counter.add cs (s - t.sp_synced_saved)
      | None -> ());
      t.sp_synced_saved <- s

let out_of_order = "Multi.feed: events out of chronological order"

let check_ts t ts =
  (match t.sp_last_ts with
  | Some last when Time.( <. ) ts last -> invalid_arg out_of_order
  | Some _ | None -> ());
  t.sp_last_ts <- Some ts

(* Routing decision for one event: flags the routed members; each flag
   is consumed and reset as the member takes (or skips) the event. *)
let dispatch t e =
  List.iter
    (fun slot -> t.sp_members.(t.sp_slot_member.(slot)).m_pending_routed <- true)
    (Predicate_index.relevant t.sp_index e)

let takes m =
  (not m.m_retired)
  &&
  match m.m_mode with
  | Always -> true
  | Routed { gated } -> m.m_pending_routed || ((not gated) && m.m_live)

let feed t e =
  if t.sp_closed then invalid_arg "Multi.feed: query set is closed";
  check_ts t (Event.ts e);
  t.sp_total_events <- t.sp_total_events + 1;
  dispatch t e;
  let out = ref [] in
  Array.iter
    (fun m ->
      if takes m then begin
        m.m_fed <- m.m_fed + 1;
        (match Executor.feed m.m_exec e with
        | [] -> ()
        | completed -> out := (m.m_reg.r_name, completed) :: !out);
        m.m_live <- Executor.population m.m_exec > 0
      end;
      m.m_pending_routed <- false)
    t.sp_members;
  sync_counters t;
  List.rev !out

(* Hand a member the events it took from the chunk, in one
   [feed_batch]. *)
let flush_member m =
  if m.m_buf_n = 0 then []
  else begin
    let chunk = Array.sub m.m_buf 0 m.m_buf_n in
    m.m_buf_n <- 0;
    m.m_fed <- m.m_fed + Array.length chunk;
    let completed = Executor.feed_batch m.m_exec chunk in
    m.m_live <- Executor.population m.m_exec > 0;
    completed
  end

let feed_batch t events =
  if t.sp_closed then invalid_arg "Multi.feed_batch: query set is closed";
  let n = Array.length events in
  if n = 0 then []
  else begin
    Array.iter (fun e -> check_ts t (Event.ts e)) events;
    t.sp_total_events <- t.sp_total_events + n;
    Array.iter
      (fun m ->
        if Array.length m.m_buf < n then m.m_buf <- Array.make n events.(0);
        m.m_buf_n <- 0)
      t.sp_members;
    Array.iter
      (fun e ->
        dispatch t e;
        Array.iter
          (fun m ->
            if takes m then begin
              m.m_buf.(m.m_buf_n) <- e;
              m.m_buf_n <- m.m_buf_n + 1;
              (* a routed event may create instances: from here the
                 member must see the rest of the chunk when not gated *)
              if m.m_pending_routed then m.m_live <- true
            end;
            m.m_pending_routed <- false)
          t.sp_members)
      events;
    let out = ref [] in
    Array.iter
      (fun m ->
        match flush_member m with
        | [] -> ()
        | completed -> out := (m.m_reg.r_name, completed) :: !out)
      t.sp_members;
    sync_counters t;
    List.rev !out
  end

let close t =
  if t.sp_closed then []
  else begin
    t.sp_closed <- true;
    let out = ref [] in
    Array.iter
      (fun m ->
        if not m.m_retired then
          match Executor.close m.m_exec with
          | [] -> ()
          | flushed -> out := (m.m_reg.r_name, flushed) :: !out)
      t.sp_members;
    sync_counters t;
    List.rev !out
  end

let events_fed t = t.sp_total_events

(* ------------------------------------------------------------------ *)
(* Read-side: per-registration results.                               *)
(* ------------------------------------------------------------------ *)

(* Metrics as if the member had been fed the whole stream: skipped
   events are accounted as a gated executor's filter would have dropped
   them, or as the fresh instances an ungated one would have created. *)
let metrics t m =
  let n = t.sp_total_events in
  let snap = Executor.metrics m.m_exec in
  match m.m_mode with
  | Always -> snap
  | Routed { gated } ->
      if gated then
        {
          snap with
          Metrics.events_seen = n;
          events_filtered = snap.Metrics.events_filtered + (n - m.m_fed);
        }
      else
        {
          snap with
          Metrics.events_seen = n;
          instances_created = snap.Metrics.instances_created + (n - m.m_fed);
        }

type query_result = {
  q_name : string;
  q_automaton : Automaton.t;
  q_raw : Substitution.t list;
  q_metrics : Metrics.snapshot;
}

let result_of t m =
  {
    q_name = m.m_reg.r_name;
    q_automaton = m.m_reg.r_automaton;
    q_raw = Executor.emitted m.m_exec;
    q_metrics = metrics t m;
  }

let live t = List.filter (fun m -> not m.m_retired) (Array.to_list t.sp_members)

let results t = List.map (result_of t) (live t)

let population t =
  List.fold_left (fun acc m -> acc + Executor.population m.m_exec) 0 (live t)

let retire t name =
  if t.sp_closed then invalid_arg "Shared_plan.retire: plan is closed";
  match List.find_opt (fun m -> String.equal m.m_reg.r_name name) (live t) with
  | None -> invalid_arg ("Shared_plan.retire: unknown query " ^ name)
  | Some m ->
      (* The executor's run ends here, close-time flush included. *)
      ignore (Executor.close m.m_exec);
      m.m_retired <- true;
      m.m_live <- false;
      result_of t m

(* ------------------------------------------------------------------ *)
(* Introspection for benchmarks and the CLI.                          *)
(* ------------------------------------------------------------------ *)

type stats = {
  st_routed : string list;
  st_merged_queries : int;
  st_aliased_queries : int;
  st_template_groups : string list list;
  st_index_atoms : int;
  st_index_evaluated : int;
  st_index_saved : int;
  st_index_hit_rate : float;
}

let stats t =
  let name i = t.sp_members.(i).m_reg.r_name in
  {
    st_routed =
      List.filter_map
        (fun m ->
          match m.m_mode with
          | Routed _ -> Some m.m_reg.r_name
          | Always -> None)
        (live t);
    st_merged_queries = 0;
    st_aliased_queries = 0;
    st_template_groups = List.map (List.map name) t.sp_templates;
    st_index_atoms = Predicate_index.n_atoms t.sp_index;
    st_index_evaluated = Predicate_index.evaluated t.sp_index;
    st_index_saved = Predicate_index.saved t.sp_index;
    st_index_hit_rate = Predicate_index.hit_rate t.sp_index;
  }
