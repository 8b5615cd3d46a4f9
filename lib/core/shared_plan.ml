open Ses_event

(* The routing layer behind {!Multi}: one predicate index answering
   "which queries can this event affect", in front of one executor per
   registration. Routing never changes a query's emissions or metrics:

   - an event the index does not route to a query fails every clause of
     that query's strong filter, so it can neither fire a transition nor
     trigger a negation kill there — it can only close τ-windows;
   - so a routed member is fed only its routed events, and after each
     feed every routed member that holds instances is advanced to the
     last timestamp fed ([Executor.advance]): its windows close on the
     same event as under the full feed, routed or not. The events it
     skipped are accounted back when its metrics are read.

   Registration and retirement edit the member array in place; the index
   over the live members is rebuilt lazily, at the next feed or stats
   read, so a burst of registrations pays for one rebuild. *)

type atom = Schema.Field.t * Predicate.op * Value.t

type reg = { r_name : string; r_automaton : Automaton.t; r_strategy : Executor.strategy }

(* The clauses a query reacts to: [None] when it is unroutable. *)
let routing options (r : reg) : atom list list option =
  match r.r_strategy with
  | `Plain -> (
      match options.Engine.filter with
      | Event_filter.Paper -> None
      | Event_filter.No_filter | Event_filter.Strong ->
          Event_filter.strong_clauses ~extra:options.Engine.filter_extras
            (Automaton.pattern r.r_automaton))
  | `Auto -> Planner.routing_clauses (Planner.plan r.r_automaton) r.r_automaton
  | `Naive | `Brute_force -> None

type feed_mode =
  | Always  (** every event: unroutable, or a strategy that needs it *)
  | Routed of atom list list
      (** only the events satisfying some clause, and the clock *)

(* One registration: its executor and routing state. *)
type member = {
  m_reg : reg;
  m_exec : Executor.packed;
  m_mode : feed_mode;
  m_base : int;  (* events the plan was fed before this registration *)
  mutable m_fed : int;
  mutable m_pending_routed : bool;
  mutable m_buf : Event.t array;  (* this chunk's events for [m_exec] *)
  mutable m_buf_n : int;
}

type t = {
  sp_options : Engine.options;
  mutable sp_members : member array;  (* registration order *)
  mutable sp_index : Predicate_index.t;
  mutable sp_slot_member : int array;  (* index slot -> member *)
  mutable sp_index_stale : bool;  (* members changed since the last build *)
  mutable sp_total_events : int;
  mutable sp_last_ts : Time.t option;
  mutable sp_closed : bool;
  sp_c_eval : Telemetry.Counter.t option;
  sp_c_saved : Telemetry.Counter.t option;
  sp_c_fed : Telemetry.Counter.t option;
  mutable sp_synced_eval : int;
  mutable sp_synced_saved : int;
}

let register t r =
  if t.sp_closed then invalid_arg "Multi.register: query set is closed";
  let options = t.sp_options in
  let mode, exec_options =
    match routing options r with
    | None -> (Always, options)
    | Some clauses ->
        (* A routed [`Plain] member receives only events its strong
           filter keeps, so the executor's own filter pass is redundant
           work: strip it. The metrics difference is compensated at
           snapshot. *)
        let opts =
          if r.r_strategy = `Plain then
            { options with Engine.filter = Event_filter.No_filter }
          else options
        in
        (Routed clauses, opts)
  in
  let m =
    {
      m_reg = r;
      m_exec = Executor.create ~options:exec_options r.r_strategy r.r_automaton;
      m_mode = mode;
      m_base = t.sp_total_events;
      m_fed = 0;
      m_pending_routed = false;
      m_buf = [||];
      m_buf_n = 0;
    }
  in
  t.sp_members <- Array.append t.sp_members [| m |];
  t.sp_index_stale <- true

(* One index slot per routed member, over the live members. *)
let refresh_index t =
  if t.sp_index_stale then begin
    let slots =
      List.filter_map
        (fun (i, m) ->
          match m.m_mode with
          | Routed clauses -> Some (Some clauses, i)
          | Always -> None)
        (List.mapi (fun i m -> (i, m)) (Array.to_list t.sp_members))
    in
    t.sp_index <-
      Predicate_index.create ~continue_from:t.sp_index
        (Array.of_list (List.map fst slots));
    t.sp_slot_member <- Array.of_list (List.map snd slots);
    t.sp_index_stale <- false
  end

let create ~options regs =
  let counter name =
    Option.map (fun tl -> Telemetry.counter tl name) options.Engine.telemetry
  in
  let t =
    {
      sp_options = options;
      sp_members = [||];
      sp_index = Predicate_index.create [||];
      sp_slot_member = [||];
      sp_index_stale = false;
      sp_total_events = 0;
      sp_last_ts = None;
      sp_closed = false;
      sp_c_eval = counter "multi.shared.predicates_evaluated";
      sp_c_saved = counter "multi.shared.predicates_saved";
      sp_c_fed = counter "multi.shared.events_fed";
      sp_synced_eval = 0;
      sp_synced_saved = 0;
    }
  in
  List.iter (register t) regs;
  t

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

let count_fed t n =
  match t.sp_c_fed with Some c -> Telemetry.Counter.add c n | None -> ()

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
  match m.m_mode with Always -> true | Routed _ -> m.m_pending_routed

(* The clock of a routed member that holds instances, after a feed that
   ended at [ts]: its windows close on the last event fed, whether it
   was routed there or not. An [Always] member has seen that event. *)
let advance m ts =
  match m.m_mode with
  | Routed _ when Executor.population m.m_exec > 0 ->
      Executor.advance m.m_exec ts
  | Routed _ | Always -> []

let feed t e =
  if t.sp_closed then invalid_arg "Multi.feed: query set is closed";
  check_ts t (Event.ts e);
  refresh_index t;
  t.sp_total_events <- t.sp_total_events + 1;
  dispatch t e;
  let out = ref [] and fed = ref 0 in
  Array.iter
    (fun m ->
      let completed =
        if takes m then begin
          m.m_fed <- m.m_fed + 1;
          incr fed;
          Executor.feed m.m_exec e
        end
        else advance m (Event.ts e)
      in
      (match completed with
      | [] -> ()
      | completed -> out := (m.m_reg.r_name, completed) :: !out);
      m.m_pending_routed <- false)
    t.sp_members;
  count_fed t !fed;
  sync_counters t;
  List.rev !out

(* Hand a member the events it took from the chunk, in one
   [feed_batch], then advance it to the chunk's last timestamp [ts]
   unless it was fed an event there. *)
let flush_member m ts =
  let k = m.m_buf_n in
  if k = 0 then advance m ts
  else begin
    let chunk = Array.sub m.m_buf 0 k in
    m.m_buf_n <- 0;
    m.m_fed <- m.m_fed + k;
    let completed = Executor.feed_batch m.m_exec chunk in
    if Event.ts chunk.(k - 1) = ts then completed
    else completed @ advance m ts
  end

let feed_batch t events =
  if t.sp_closed then invalid_arg "Multi.feed_batch: query set is closed";
  let n = Array.length events in
  if n = 0 then []
  else begin
    Array.iter (fun e -> check_ts t (Event.ts e)) events;
    refresh_index t;
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
              m.m_buf_n <- m.m_buf_n + 1
            end;
            m.m_pending_routed <- false)
          t.sp_members)
      events;
    count_fed t
      (Array.fold_left (fun acc m -> acc + m.m_buf_n) 0 t.sp_members);
    let last = Event.ts events.(n - 1) in
    let out = ref [] in
    Array.iter
      (fun m ->
        match flush_member m last with
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
        match Executor.close m.m_exec with
        | [] -> ()
        | flushed -> out := (m.m_reg.r_name, flushed) :: !out)
      t.sp_members;
    sync_counters t;
    List.rev !out
  end

(* ------------------------------------------------------------------ *)
(* Read-side: per-registration results.                               *)
(* ------------------------------------------------------------------ *)

(* Metrics as if the member had been fed every event since it
   registered. The skipped events are the ones the member's configured
   filter drops — [`Auto] plans the strong filter — or, under
   [No_filter], the ones whose fresh start instances it would have
   created. *)
let metrics t m =
  let n = t.sp_total_events - m.m_base in
  let skipped = n - m.m_fed in
  let snap = Executor.metrics m.m_exec in
  match m.m_mode with
  | Always -> snap
  | Routed _ ->
      if
        m.m_reg.r_strategy = `Auto
        || t.sp_options.Engine.filter <> Event_filter.No_filter
      then
        {
          snap with
          Metrics.events_seen = n;
          events_filtered = snap.Metrics.events_filtered + skipped;
        }
      else
        {
          snap with
          Metrics.events_seen = n;
          instances_created = snap.Metrics.instances_created + skipped;
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

let results t = List.map (result_of t) (Array.to_list t.sp_members)

let population t =
  Array.fold_left (fun acc m -> acc + Executor.population m.m_exec) 0 t.sp_members

let retire t name =
  if t.sp_closed then invalid_arg "Multi.unregister: query set is closed";
  let is_named m = String.equal m.m_reg.r_name name in
  match Array.find_opt is_named t.sp_members with
  | None -> invalid_arg ("Shared_plan.retire: unknown query " ^ name)
  | Some m ->
      (* The executor's run ends here, close-time flush included. *)
      ignore (Executor.close m.m_exec);
      t.sp_members <-
        Array.of_list
          (List.filter (fun x -> not (is_named x)) (Array.to_list t.sp_members));
      t.sp_index_stale <- true;
      result_of t m

(* ------------------------------------------------------------------ *)
(* Introspection for benchmarks and the CLI.                          *)
(* ------------------------------------------------------------------ *)

type stats = {
  st_routed : string list;
  st_merged_queries : int;
  st_aliased_queries : int;
  st_index_atoms : int;
  st_index_evaluated : int;
  st_index_saved : int;
  st_index_hit_rate : float;
}

let stats t =
  refresh_index t;
  {
    st_routed =
      List.filter_map
        (fun m ->
          match m.m_mode with
          | Routed _ -> Some m.m_reg.r_name
          | Always -> None)
        (Array.to_list t.sp_members);
    st_merged_queries = 0;
    st_aliased_queries = 0;
    st_index_atoms = Predicate_index.n_atoms t.sp_index;
    st_index_evaluated = Predicate_index.evaluated t.sp_index;
    st_index_saved = Predicate_index.saved t.sp_index;
    st_index_hit_rate = Predicate_index.hit_rate t.sp_index;
  }
