open Ses_event
open Ses_pattern

type store_kind =
  | Flat
  | Indexed

type options = {
  filter : Event_filter.mode;
  filter_extras :
    (int * (Schema.Field.t * Predicate.op * Value.t) list) list;
  policy : Substitution.policy;
  finalize : bool;
  precheck_constants : bool;
  store : store_kind;
  domains : int;
  batch_size : int;
  telemetry : Telemetry.sink;
}

(* The default chunk size follows the tuned value [bench --batch-only]
   records in BENCH_batch.json ("tuned_batch"): throughput on the
   million-event duplicated workload plateaus from a few dozen events
   per chunk, and smaller chunks keep the working set cache-resident.
   The bench emits a warning field when this default drifts from the
   measured optimum. *)
let default_batch_size = 64

let default_options =
  {
    filter = Event_filter.No_filter;
    filter_extras = [];
    policy = Substitution.Operational;
    finalize = true;
    precheck_constants = true;
    store = Indexed;
    domains = 1;
    batch_size = default_batch_size;
    telemetry = None;
  }

(* An automaton instance (Definition 4): current state plus match buffer.
   Bindings are kept newest-first; [first_ts] is the timestamp of the
   earliest bound event (the first one, since events arrive in order).
   [counts] caches the number of bindings per variable so quantifier
   checks are O(1); it is copied on extension, never mutated in place.
   [id] is a per-stream creation stamp: it makes the instance-store
   bucket order (first_ts, id) total and deterministic. *)
type instance = {
  id : int;
  state : Varset.t;
  bindings : Substitution.binding list;
  counts : int array;
  first_ts : Time.t;
}

(* A transition with its condition set split into the constant atoms
   (v.A phi C, instance-independent) and the rest. With
   [precheck_constants] the constant atoms are evaluated once per input
   event instead of once per instance. [tgt_bucket] interns the target
   state's store bucket so staging a successor costs no lookup. *)
type prepared_transition = {
  transition : Automaton.transition;
  const_conds : Condition.t list;
  var_conds : Condition.t list;
  tgt_bucket : instance Instance_store.handle;
}

(* A negation guard: the variable whose occurrence kills, with its
   conditions split like a transition's so the constant part can veto a
   whole bucket once per event. *)
type guard = {
  neg_var : int;
  guard_conds : Condition.t list;
  guard_consts : Condition.t list;
}

type observation =
  | Created of Event.t
  | Took of {
      event : Event.t;
      transition : Automaton.transition;
      buffer : Substitution.t;
    }
  | Ignored of {
      event : Event.t;
      state : Varset.t;
      buffer : Substitution.t;
    }
  | Expired of {
      event : Event.t;
      accepting : bool;
      buffer : Substitution.t;
    }
  | Killed of {
      event : Event.t;
      state : Varset.t;
      buffer : Substitution.t;
    }
  | Emitted of Substitution.t

(* Everything the engine needs about one automaton state, resolved once
   per stream: outgoing transitions (split for the constant pre-check),
   the negation guards armed exactly there, whether it accepts, and the
   interned instance-store bucket — so the per-event loop runs over a
   flat array with zero hashtable probes. [active]/[active_stamp] cache
   the transitions surviving the constant pre-check for the event with
   stamp [active_stamp]; bumping the stream stamp invalidates every
   slot's cache at once. *)
type slot = {
  slot_state : Varset.t;
  accepting : bool;
  prepared : prepared_transition list;
  guards : guard list;
  bucket : instance Instance_store.handle;
  mutable active : prepared_transition list;
  mutable active_stamp : int;
}

(* The two population representations behind the [store] option: the
   reference flat list (the paper's Ω, scanned in full per event) and the
   state-indexed store. *)
type flat_pool = { mutable omega : instance list }

type population =
  | Omega of flat_pool
  | Store of instance Instance_store.t

(* Telemetry handles, resolved once per stream so an enabled probe is a
   field read, and a disabled stream pays one branch on [probes]. *)
type probes = {
  filter_span : Telemetry.Span.t;
  transition_span : Telemetry.Span.t;
  expiry_span : Telemetry.Span.t;
  bucket_scan : Telemetry.Histogram.t;
  population_gauge : Telemetry.Gauge.t;
}

type stream = {
  automaton : Automaton.t;
  options : options;
  filter : Event_filter.t;
  max_counts : int option array;  (** per-variable quantifier maxima *)
  strict_minima : (int * int) list;
      (** (variable, min) for variables whose quantifier requires more than
          one binding; checked at acceptance *)
  slots : slot array;  (** one per automaton state, ascending state order *)
  slot_of : (Varset.t, slot) Hashtbl.t;
      (** state → slot, for paths that meet instances in arbitrary states
          (the flat reference pool) *)
  start_slot : slot;
  fresh : instance;
      (** the start-state instance opened for every event; it is immutable
          and never stored, so one allocation serves the whole stream *)
  pop : population;
  probes : probes option;
  mutable stamp : int;
      (** kept-event counter; slots check their [active_stamp] against it
          instead of the old per-event [Hashtbl.reset] of an active table *)
  mutable next_id : int;
  mutable emissions : Substitution.t list;  (** newest first *)
  mutable last_ts : Time.t option;
  mutable observer : (observation -> unit) option;
  mutable filter_buf : Event.t array;
      (** scratch for the batched filter pass, grown to the largest chunk
          seen and reused — a fresh per-chunk array above ~256 words would
          land on the major heap and turn steady-state batching into major
          GC churn. Pins at most one chunk's worth of events. *)
  m : Metrics.t;
}

type outcome = {
  matches : Substitution.t list;
  raw : Substitution.t list;
  metrics : Metrics.snapshot;
}

let create ?(options = default_options) automaton =
  let p = Automaton.pattern automaton in
  let store =
    Instance_store.create
      ~ts_of:(fun inst -> inst.first_ts)
      ~seq_of:(fun inst -> inst.id)
      ()
  in
  let negation_guards =
    let prefix b =
      Varset.of_list
        (List.concat_map (Pattern.set_vars p) (List.init (b + 1) Fun.id))
    in
    let boundaries =
      List.sort_uniq Int.compare (List.map fst (Pattern.negations p))
    in
    List.map
      (fun b ->
        ( prefix b,
          List.filter_map
            (fun (b', nv) ->
              if b' = b then
                let conds = Pattern.conditions_on p nv in
                Some
                  {
                    neg_var = nv;
                    guard_conds = conds;
                    guard_consts = List.filter Condition.is_constant conds;
                  }
              else None)
            (Pattern.negations p) ))
      boundaries
  in
  let accept = Automaton.accept automaton in
  let slots =
    Array.of_list
      (List.map
         (fun q ->
           {
             slot_state = q;
             accepting = Varset.equal q accept;
             prepared =
               List.map
                 (fun (tr : Automaton.transition) ->
                   let const_conds, var_conds =
                     List.partition Condition.is_constant tr.conds
                   in
                   {
                     transition = tr;
                     const_conds;
                     var_conds;
                     tgt_bucket = Instance_store.handle store tr.tgt;
                   })
                 (Automaton.outgoing automaton q);
             guards =
               List.concat_map
                 (fun (prefix, gs) -> if Varset.equal q prefix then gs else [])
                 negation_guards;
             bucket = Instance_store.handle store q;
             active = [];
             active_stamp = 0;
           })
         (Automaton.states automaton))
  in
  let slot_of = Hashtbl.create (Array.length slots) in
  Array.iter (fun s -> Hashtbl.replace slot_of s.slot_state s) slots;
  let start_slot = Hashtbl.find slot_of (Automaton.start automaton) in
  {
    automaton;
    options;
    filter = Event_filter.make ~extra:options.filter_extras p options.filter;
    max_counts =
      Array.init (Pattern.n_vars p) (fun v -> Pattern.max_count p v);
    strict_minima =
      List.filter_map
        (fun v ->
          let m = Pattern.min_count p v in
          if m > 1 then Some (v, m) else None)
        (List.init (Pattern.n_vars p) Fun.id);
    slots;
    slot_of;
    start_slot;
    fresh =
      {
        id = 0;
        state = Automaton.start automaton;
        bindings = [];
        counts = Array.make (Pattern.n_vars p) 0;
        first_ts = 0;
      };
    pop =
      (match options.store with
      | Flat -> Omega { omega = [] }
      | Indexed -> Store store);
    probes =
      Option.map
        (fun tl ->
          {
            filter_span = Telemetry.span tl "filter";
            transition_span = Telemetry.span tl "transition";
            expiry_span = Telemetry.span tl "expiry";
            bucket_scan = Telemetry.histogram tl "store.bucket_scan";
            population_gauge = Telemetry.gauge tl "population";
          })
        options.telemetry;
    stamp = 0;
    next_id = 1;
    emissions = [];
    last_ts = None;
    observer = None;
    filter_buf = [||];
    m = Metrics.create ();
  }

let set_observer st observer = st.observer <- observer

let observe st obs =
  match st.observer with None -> () | Some f -> f obs

let substitution_of inst = List.rev inst.bindings

let is_fresh inst = inst.bindings = []

let expired tau inst e =
  (not (is_fresh inst)) && Time.span (Event.ts e) inst.first_ts > tau

let const_holds c e =
  (* Constant conditions mention exactly one variable; binding it to [e]
     needs no buffer lookup. *)
  Condition.holds_binding c ~var:c.Condition.var ~event:e (fun _ -> [])

let bucket_of slot = slot.bucket

(* Transitions of [slot] worth trying on event [e]. Without the constant
   pre-check this is every outgoing transition; with it, transitions
   whose constant atoms [e] fails are pruned once per event — the stamp
   check makes the cache hit a pair of integer reads, shared by all
   instances in the state. *)
let candidate_transitions st slot e =
  if not st.options.precheck_constants then slot.prepared
  else if slot.active_stamp = st.stamp then slot.active
  else begin
    let trs =
      List.filter
        (fun pt -> List.for_all (fun c -> const_holds c e) pt.const_conds)
        slot.prepared
    in
    slot.active <- trs;
    slot.active_stamp <- st.stamp;
    trs
  end

(* Whether some negation guard armed at [slot] could kill on event [e]:
   at least one guard whose constant atoms [e] satisfies. Shared per
   bucket per event by the indexed store's skip decision. *)
let guards_may_fire slot e =
  slot.guards <> []
  && List.exists
       (fun g -> List.for_all (fun c -> const_holds c e) g.guard_consts)
       slot.guards

(* ConsumeEvent (Algorithm 2): successors of [inst] — sitting in [slot] —
   on event [e] are handed to [on_succ] (with the transition that fired
   them) in transition order. Returns [true] exactly when the instance
   survives unchanged, which lets the indexed feed keep untouched
   survivors in bucket order without re-sorting — fired or killed
   instances are consumed (replace-on-fire), a fresh instance is never
   kept. *)
let consume st slot inst e ~on_succ =
  let lookup v =
    List.rev
      (List.filter_map
         (fun (v', ev) -> if v' = v then Some ev else None)
         inst.bindings)
  in
  let precheck = st.options.precheck_constants in
  let fired = ref false in
  List.iter
    (fun pt ->
      let tr = pt.transition in
      (* Quantifier maximum: a loop must not bind beyond max. The
         per-instance binding counts make this an array read. *)
      let below_max =
        match st.max_counts.(tr.var) with
        | None -> true
        | Some m ->
            (not (Varset.mem tr.var tr.src)) || inst.counts.(tr.var) < m
      in
      let remaining = if precheck then pt.var_conds else tr.conds in
      let ok =
        below_max
        && List.for_all
             (fun c -> Condition.holds_binding c ~var:tr.var ~event:e lookup)
             remaining
      in
      if ok then begin
        fired := true;
        Metrics.on_transition st.m;
        Metrics.on_instance_created st.m;
        let counts = Array.copy inst.counts in
        counts.(tr.var) <- counts.(tr.var) + 1;
        let id = st.next_id in
        st.next_id <- id + 1;
        let successor =
          {
            id;
            state = tr.tgt;
            bindings = (tr.var, e) :: inst.bindings;
            counts;
            first_ts = (if is_fresh inst then Event.ts e else inst.first_ts);
          }
        in
        observe st
          (Took { event = e; transition = tr; buffer = substitution_of successor });
        on_succ pt successor
      end)
    (candidate_transitions st slot e);
  if !fired then false
  else if is_fresh inst then false
  else begin
    let killed =
      slot.guards <> []
      && List.exists
           (fun g ->
             List.for_all
               (fun c ->
                 Condition.holds_binding c ~var:g.neg_var ~event:e lookup)
               g.guard_conds)
           slot.guards
    in
    if killed then begin
      Metrics.on_killed st.m;
      observe st
        (Killed { event = e; state = inst.state; buffer = substitution_of inst });
      false
    end
    else begin
      observe st
        (Ignored
           { event = e; state = inst.state; buffer = substitution_of inst });
      true
    end
  end

let minima_satisfied st inst =
  List.for_all (fun (v, m) -> inst.counts.(v) >= m) st.strict_minima

let emit st inst =
  let subst = substitution_of inst in
  st.emissions <- subst :: st.emissions;
  Metrics.on_match st.m;
  observe st (Emitted subst);
  subst

let population st =
  match st.pop with
  | Omega o -> List.length o.omega
  | Store s -> Instance_store.size s

(* Algorithm 1's loop body over the flat list: the reference path, kept
   verbatim for differential testing and for benchmarking the store
   against it. *)
let feed_flat st o e =
  let tau = Automaton.tau st.automaton in
  let accept = Automaton.accept st.automaton in
  let completed = ref [] in
  let survivors = ref [] in
  (* The flat loop interleaves expiry and consumption per instance, so
     one transition span covers the whole sweep (the probe map in
     docs/architecture.md notes the asymmetry with the indexed path). *)
  let tok =
    match st.probes with
    | None -> 0
    | Some p -> Telemetry.Span.start p.transition_span
  in
  List.iter
    (fun inst ->
      if expired tau inst e then begin
        Metrics.on_expired st.m;
        let accepting =
          Varset.equal inst.state accept && minima_satisfied st inst
        in
        observe st
          (Expired { event = e; accepting; buffer = substitution_of inst });
        if accepting then completed := emit st inst :: !completed
      end
      else begin
        let slot = Hashtbl.find st.slot_of inst.state in
        let kept =
          consume st slot inst e ~on_succ:(fun _ succ ->
              survivors := succ :: !survivors)
        in
        if kept then survivors := inst :: !survivors
      end)
    (st.fresh :: o.omega);
  o.omega <- List.rev !survivors;
  let n = List.length o.omega in
  Metrics.sample_population st.m n;
  (match st.probes with
  | None -> ()
  | Some p ->
      Telemetry.Span.stop p.transition_span tok;
      Telemetry.Gauge.observe p.population_gauge n);
  List.rev !completed

(* The same loop over the state-indexed store. Buckets are visited in
   ascending state order; a bucket is only walked when the event could
   affect it — some transition survived the constant pre-check, some
   negation guard could fire, or an observer wants the per-instance
   [Ignored] narration. Expired instances are popped off the sorted
   prefix without touching the rest. *)
let feed_indexed st store e =
  let tau = Automaton.tau st.automaton in
  let completed = ref [] in
  (* Successors stage straight into their target state's interned bucket
     — the per-transition handle resolved at [create]. *)
  let stage_succ pt succ = Instance_store.stage_h pt.tgt_bucket succ in
  ignore (consume st st.start_slot st.fresh e ~on_succ:stage_succ);
  Array.iter
    (fun slot ->
      let bucket = bucket_of slot in
      if Instance_store.handle_size bucket > 0 then begin
        let tok =
          match st.probes with
          | None -> 0
          | Some p -> Telemetry.Span.start p.expiry_span
        in
        let dead =
          Instance_store.pop_expired_h bucket ~expired:(fun inst ->
              expired tau inst e)
        in
        (match st.probes with
        | None -> ()
        | Some p -> Telemetry.Span.stop p.expiry_span tok);
        List.iter
          (fun inst ->
            Metrics.on_expired st.m;
            let accepting = slot.accepting && minima_satisfied st inst in
            observe st
              (Expired { event = e; accepting; buffer = substitution_of inst });
            if accepting then completed := emit st inst :: !completed)
          dead;
        let scan =
          candidate_transitions st slot e <> []
          || guards_may_fire slot e
          || st.observer <> None
        in
        if scan && Instance_store.handle_size bucket > 0 then begin
          let tok =
            match st.probes with
            | None -> 0
            | Some p ->
                Telemetry.Histogram.observe p.bucket_scan
                  (Instance_store.handle_size bucket);
                Telemetry.Span.start p.transition_span
          in
          let insts = Instance_store.take_all_h bucket in
          let stayed =
            List.filter
              (fun inst -> consume st slot inst e ~on_succ:stage_succ)
              insts
          in
          Instance_store.put_back_h bucket stayed;
          match st.probes with
          | None -> ()
          | Some p -> Telemetry.Span.stop p.transition_span tok
        end
      end)
    st.slots;
  Instance_store.commit store;
  let n = Instance_store.size store in
  Metrics.sample_population st.m n;
  (match st.probes with
  | None -> ()
  | Some p -> Telemetry.Gauge.observe p.population_gauge n);
  List.rev !completed

(* One kept (filter-surviving) event entering the pool: bump the stamp
   (invalidating every slot's active-transition cache), account the fresh
   start-state instance, and run the store-specific loop. *)
let ingest_kept st e =
  st.stamp <- st.stamp + 1;
  Metrics.on_instance_created st.m;
  observe st (Created e);
  match st.pop with
  | Omega o -> feed_flat st o e
  | Store s -> feed_indexed st s e

let out_of_order = "Engine.feed: events out of chronological order"

let feed st e =
  (match st.last_ts with
  | Some t when Time.( <. ) (Event.ts e) t -> invalid_arg out_of_order
  | Some _ | None -> ());
  st.last_ts <- Some (Event.ts e);
  Metrics.on_event st.m;
  let kept =
    match st.probes with
    | None -> Event_filter.keep st.filter e
    | Some p ->
        let tok = Telemetry.Span.start p.filter_span in
        let kept = Event_filter.keep st.filter e in
        Telemetry.Span.stop p.filter_span tok;
        kept
  in
  if not kept then begin
    Metrics.on_filtered st.m;
    []
  end
  else ingest_kept st e

(* The batched loop over the indexed store. Semantics are those of
   feeding the events one by one, with two amortizations that are
   invisible to the (multiset of) emissions and finalized matches:

   - τ-expiry prefixes are popped once per batch, at its end, against
     the last kept event, instead of once per nonempty bucket per event.
     An instance whose window closes mid-batch is caught by the fused
     expiry check the moment its bucket is scanned — so it can never
     consume an event — and otherwise by the closing sweep. Either way
     it is emitted within the batch whose event closed its window, as
     the one-by-one feed does: each chunk returns the same multiset of
     emissions and counts the same expiries. Only the *position* of an
     expiry emission within the chunk's raw list can differ.

   - telemetry records per batch: one expiry span for the sweep, one
     transition span covering the whole kept loop (every event's bucket
     scans), and one population gauge observation at batch end.

   The per-event [feed] above remains the reference ordering; [feed_batch]
   falls back to it while an observer is installed so narration order
   stays exact. *)
let feed_indexed_batch st store kept n_kept =
  let tau = Automaton.tau st.automaton in
  let completed = ref [] in
  let emit_expired e slot inst =
    Metrics.on_expired st.m;
    let accepting = slot.accepting && minima_satisfied st inst in
    observe st
      (Expired { event = e; accepting; buffer = substitution_of inst });
    if accepting then completed := emit st inst :: !completed
  in
  let stage_succ pt succ = Instance_store.stage_h pt.tgt_bucket succ in
  (* One transition span covers the whole kept loop — per-batch probe
     granularity, like the filter pass above and the expiry sweep
     below. *)
  let tok =
    match st.probes with
    | None -> 0
    | Some p -> Telemetry.Span.start p.transition_span
  in
  for i = 0 to n_kept - 1 do
    let e = kept.(i) in
    st.stamp <- st.stamp + 1;
    Metrics.on_instance_created st.m;
    ignore (consume st st.start_slot st.fresh e ~on_succ:stage_succ);
    Array.iter
      (fun slot ->
        let bucket = bucket_of slot in
        if
          Instance_store.handle_size bucket > 0
          && (candidate_transitions st slot e <> [] || guards_may_fire slot e)
        then begin
          (match st.probes with
          | None -> ()
          | Some p ->
              Telemetry.Histogram.observe p.bucket_scan
                (Instance_store.handle_size bucket));
          let insts = Instance_store.take_all_h bucket in
          let stayed =
            List.filter
              (fun inst ->
                if expired tau inst e then begin
                  (* Fused expiry: the window closed mid-batch; emit (if
                     accepting) and drop before it can consume. *)
                  emit_expired e slot inst;
                  false
                end
                else consume st slot inst e ~on_succ:stage_succ)
              insts
          in
          Instance_store.put_back_h bucket stayed
        end)
      st.slots;
    Instance_store.commit store;
    Metrics.sample_population st.m (Instance_store.size store)
  done;
  (match st.probes with
  | None -> ()
  | Some p -> Telemetry.Span.stop p.transition_span tok);
  (* Batch-end expiry sweep: one prefix pop per nonempty bucket, against
     the last kept event — what the one-by-one feed has expired by then. *)
  let last = kept.(n_kept - 1) in
  let tok =
    match st.probes with
    | None -> 0
    | Some p -> Telemetry.Span.start p.expiry_span
  in
  Array.iter
    (fun slot ->
      let bucket = bucket_of slot in
      if Instance_store.handle_size bucket > 0 then
        List.iter (emit_expired last slot)
          (Instance_store.pop_expired_h bucket ~expired:(fun inst ->
               expired tau inst last)))
    st.slots;
  (match st.probes with
  | None -> ()
  | Some p ->
      Telemetry.Span.stop p.expiry_span tok;
      Telemetry.Gauge.observe p.population_gauge (Instance_store.size store));
  List.rev !completed

let feed_batch st events =
  let n = Array.length events in
  if n = 0 then []
  else begin
    (match st.last_ts with
    | Some t when Time.( <. ) (Event.ts events.(0)) t ->
        invalid_arg out_of_order
    | Some _ | None -> ());
    for i = 1 to n - 1 do
      if Time.( <. ) (Event.ts events.(i)) (Event.ts events.(i - 1)) then
        invalid_arg out_of_order
    done;
    st.last_ts <- Some (Event.ts events.(n - 1));
    Metrics.on_events st.m n;
    (* Batch filter pass: one span covers the chunk, and a trivial filter
       costs nothing at all. *)
    let kept, n_kept =
      match st.options.filter with
      | Event_filter.No_filter -> (events, n)
      | Event_filter.Paper | Event_filter.Strong ->
          if Array.length st.filter_buf < n then
            st.filter_buf <- Array.make n events.(0);
          let buf = st.filter_buf in
          let k = ref 0 in
          let run () =
            Array.iter
              (fun e ->
                if Event_filter.keep st.filter e then begin
                  buf.(!k) <- e;
                  incr k
                end)
              events
          in
          (match st.probes with
          | None -> run ()
          | Some p ->
              let tok = Telemetry.Span.start p.filter_span in
              run ();
              Telemetry.Span.stop p.filter_span tok);
          (buf, !k)
    in
    Metrics.on_filtered_many st.m (n - n_kept);
    if n_kept = 0 then []
    else
      match st.pop with
      | Store s when st.observer = None ->
          feed_indexed_batch st s kept n_kept
      | Store _ | Omega _ ->
          (* Reference orderings (flat pool, or an installed observer):
             process the chunk event by event. *)
          let acc = ref [] in
          for i = 0 to n_kept - 1 do
            acc := List.rev_append (ingest_kept st kept.(i)) !acc
          done;
          List.rev !acc
  end

let close st =
  let accept = Automaton.accept st.automaton in
  let flush insts =
    List.filter_map
      (fun inst ->
        if Varset.equal inst.state accept && minima_satisfied st inst then
          Some (emit st inst)
        else None)
      insts
  in
  match st.pop with
  | Omega o ->
      let flushed = flush (List.rev o.omega) in
      o.omega <- [];
      flushed
  | Store s ->
      (* Only the accepting bucket can flush; everything else just dies. *)
      let flushed = flush (Instance_store.take_all s accept) in
      Instance_store.clear s;
      flushed

let population_by_state st =
  let counts =
    match st.pop with
    | Omega o ->
        let table = Hashtbl.create 16 in
        List.iter
          (fun inst ->
            let n =
              Option.value ~default:0 (Hashtbl.find_opt table inst.state)
            in
            Hashtbl.replace table inst.state (n + 1))
          o.omega;
        Hashtbl.fold (fun q n acc -> (q, n) :: acc) table []
    | Store s ->
        Instance_store.fold_buckets
          (fun q insts acc -> (q, List.length insts) :: acc)
          s []
  in
  (* Descending by count; equal counts ordered by state so the listing is
     deterministic. *)
  List.sort
    (fun (qa, a) (qb, b) ->
      let c = Int.compare b a in
      if c <> 0 then c else Varset.compare qa qb)
    counts

let metrics st = Metrics.snapshot st.m

let emitted st = List.rev st.emissions

let run ?(options = default_options) automaton events =
  let st = create ~options automaton in
  Seq.iter (fun e -> ignore (feed st e)) events;
  ignore (close st);
  let raw = emitted st in
  let finalize () =
    if options.finalize then
      Substitution.finalize ~policy:options.policy
        (Automaton.pattern automaton) raw
    else raw
  in
  let matches =
    match options.telemetry with
    | None -> finalize ()
    | Some tl -> Telemetry.Span.record (Telemetry.span tl "finalize") finalize
  in
  { matches; raw; metrics = Metrics.snapshot st.m }

let run_relation ?options automaton relation =
  run ?options automaton (Relation.to_seq relation)
