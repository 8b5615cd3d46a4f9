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
  prune_dead : bool;
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
    prune_dead = true;
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

(* A dead-instance check for a variable v: a condition
   [dead_var].A = v.[bound_field], where [partners] are all of
   ([dead_var], A)'s equality partners, v's own field among them. It is
   armed on the transitions binding v whose source has not bound
   [dead_var]. *)
type dead_check = {
  dead_var : int;
  bound_field : Schema.Field.t;
  partners : (int * Schema.Field.t) list;
}

(* A transition with its condition set split into the constant atoms
   (v.A phi C, instance-independent) and the rest. With
   [precheck_constants] the constant atoms are evaluated once per input
   event instead of once per instance. [tgt_bucket] interns the target
   state's store bucket so staging a successor costs no lookup.
   [dead_checks] is empty unless [prune_dead]. [pin] is the attribute
   A' of a condition u.A = v.A' with (u, A) in the source state's key
   class (see [component]): the transition can fire only on an event
   whose A' equals the instance's key. -1 when there is none. [passed]
   is the stream stamp of the last event that satisfied the constant
   atoms (see [n_candidates]). *)
type prepared_transition = {
  transition : Automaton.transition;
  const_conds : Condition.t list;
  var_conds : Condition.t list;
  tgt_bucket : instance Instance_store.handle;
  dead_checks : dead_check list;
  pin : int;
  mutable passed : int;
}

(* A negation guard: the variable whose occurrence kills, with its
   conditions split like a transition's so the constant part can veto a
   whole bucket once per event, and pinned like a transition through
   the negated variable. *)
type guard = {
  neg_var : int;
  guard_conds : Condition.t list;
  guard_consts : Condition.t list;
  guard_pin : int;
}

type observation =
  | Created of Event.t
  | Took of {
      event : Event.t;
      transition : Automaton.transition;
      buffer : Substitution.t;
    }
  | Pruned of {
      event : Event.t;
      transition : Automaton.transition;
      buffer : Substitution.t;
      dead_var : int;
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
   flat array with zero hashtable probes. [n_active]/[active_stamp]
   cache how many transitions survive the constant pre-check for the
   event with stamp [active_stamp] (each survivor's [passed] holds that
   stamp); bumping the stream stamp invalidates every slot's cache at
   once. *)
type slot = {
  slot_state : Varset.t;
  accepting : bool;
  prepared : prepared_transition list;
  n_prepared : int;
  guards : guard list;
  bucket : instance Instance_store.handle;
  mutable n_active : int;
  mutable active_stamp : int;
}

(* The two population representations behind the [store] option: the
   reference flat list (the paper's Ω, scanned in full per event) and the
   state-indexed store. [survivors] collects the next Ω during one
   event, newest first. *)
type flat_pool = {
  mutable omega : instance list;
  mutable survivors : instance list;
}

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
  tau : Time.duration;
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
  mutable completed : Substitution.t list;
      (** emissions of the feed, advance or close in progress, newest
          first; handed out and reset when it returns *)
  mutable last_ts : Time.t;  (** [min_int] before the first timestamp *)
  mutable cur_slot : slot;
  mutable cur_event : Event.t;
      (** the slot and event a bucket walk is consuming: the walk's step
          is a top-level function of the stream, so a walk allocates no
          closure *)
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

(* Key classes. In a live instance at state q, every Θ equality between
   two distinct variables of q has held for every pair of their
   bindings, so the (variable, attribute) pairs such equalities connect
   within q carry one value — its key. Only attributes of one type count,
   as in [Pattern.equality_partners] (equality chains through a shared
   value only within a type), and never the timestamp. A group variable
   alone in its class may hold bindings that disagree; such an instance
   can fire no transition pinned to the class, so keying it under any
   one binding is sound. *)

let is_attr = function
  | Schema.Field.Attr _ -> true
  | Schema.Field.Timestamp -> false

let same_node (v, f) (v', f') = v = v' && Schema.Field.equal f f'

(* The pin condition [c] offers to an event bound to [v] at state [q]:
   for u.A = v.A' with u <> v bound in [q] and A, A' attributes of one
   type, ((u, A), A'). *)
let pin_of schema q v (c : Condition.t) =
  let side =
    match c.rhs with
    | Condition.Var (v', f') when c.op = Predicate.Eq ->
        if c.var = v && v' <> v then Some ((v', f'), c.field)
        else if v' = v && c.var <> v then Some ((c.var, c.field), f')
        else None
    | Condition.Var _ | Condition.Const _ -> None
  in
  match side with
  | Some (((u, a) as node), (Schema.Field.Attr a' as f'))
    when is_attr a && Varset.mem u q
         && Value.ty_equal
              (Schema.Field.type_of schema a)
              (Schema.Field.type_of schema f') ->
      Some (node, a')
  | Some _ | None -> None

(* The pairs Θ's equalities connect to [x] within state [q]. *)
let component partners q x =
  let rec grow seen = function
    | [] -> seen
    | y :: todo when List.exists (same_node y) seen -> grow seen todo
    | y :: todo ->
        let next =
          match List.find_opt (fun (n, _) -> same_node n y) partners with
          | Some (_, ps) ->
              List.filter (fun (w, f) -> Varset.mem w q && is_attr f) ps
          | None -> []
        in
        grow (y :: seen) (next @ todo)
  in
  grow [] [ x ]

(* The attribute of the first of [conds]' pins into [members], or -1. *)
let pin_in schema q members v conds =
  match
    List.find_map
      (fun c ->
        match pin_of schema q v c with
        | Some (n, a') when List.exists (same_node n) members -> Some a'
        | Some _ | None -> None)
      conds
  with
  | Some a' -> a'
  | None -> -1

let key_of u a inst =
  match a with
  | Schema.Field.Attr i -> Event.attr (List.assoc u inst.bindings) i
  | Schema.Field.Timestamp -> invalid_arg "Engine: timestamp key"

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
                    guard_pin = -1;
                  }
              else None)
            (Pattern.negations p) ))
      boundaries
  in
  let accept = Automaton.accept automaton in
  let partners = Pattern.equality_partners p in
  (* Per variable v, one check per condition u.A = v.A' whose u the
     automaton must still bind: every quantifier has min >= 1, so an
     accepting instance holds every variable of the accept state. A
     transition binding v arms those whose u its target state lacks (so
     the source has not bound it, and u <> v). The records are shared
     across transitions, which keeps [create] cheap for the server's
     per-REGISTER engines. *)
  let checks_by_var = Array.make (Pattern.n_vars p) [] in
  if options.prune_dead then
    List.iter
      (fun ((u, _), ps) ->
        if Varset.mem u accept then
          List.iter
            (fun (v, f) ->
              checks_by_var.(v) <-
                { dead_var = u; bound_field = f; partners = ps }
                :: checks_by_var.(v))
            ps)
      partners;
  let dead_checks (tr : Automaton.transition) =
    List.filter
      (fun dc -> not (Varset.mem dc.dead_var tr.tgt))
      checks_by_var.(tr.var)
  in
  (* A transition's target is a superset of its source, so building the
     slots in descending state order keys every bucket (through its own
     slot's [handle ?key]) before a transition interns it as a target. *)
  let slot q =
    let trs = Automaton.outgoing automaton q in
    let guards =
      List.concat_map
        (fun (prefix, gs) -> if Varset.equal q prefix then gs else [])
        negation_guards
    in
    let pin_of_conds v conds =
      List.find_map (pin_of (Pattern.schema p) q v) conds
    in
    (* The class of the first pin is the state's key class. *)
    let first =
      if partners = [] then None
      else
        match
          List.find_map
            (fun (tr : Automaton.transition) -> pin_of_conds tr.var tr.conds)
            trs
        with
        | Some _ as pin -> pin
        | None ->
            List.find_map (fun g -> pin_of_conds g.neg_var g.guard_conds) guards
    in
    let pin, key, guards =
      match first with
      | None -> ((fun _ _ -> -1), None, guards)
      | Some (((u, a) as x), _) ->
          let pin = pin_in (Pattern.schema p) q (component partners q x) in
          ( pin,
            Some (key_of u a),
            List.map
              (fun g -> { g with guard_pin = pin g.neg_var g.guard_conds })
              guards )
    in
    let bucket = Instance_store.handle ?key store q in
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
              dead_checks = dead_checks tr;
              pin = pin tr.var tr.conds;
              passed = 0;
            })
          trs;
      n_prepared = List.length trs;
      guards;
      bucket;
      n_active = 0;
      active_stamp = 0;
    }
  in
  let slots =
    Array.of_list (List.rev_map slot (List.rev (Automaton.states automaton)))
  in
  let slot_of = Hashtbl.create (Array.length slots) in
  Array.iter (fun s -> Hashtbl.replace slot_of s.slot_state s) slots;
  let start_slot = Hashtbl.find slot_of (Automaton.start automaton) in
  {
    automaton;
    tau = Automaton.tau automaton;
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
      | Flat -> Omega { omega = []; survivors = [] }
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
    completed = [];
    last_ts = min_int;
    cur_slot = start_slot;
    cur_event = Event.make ~seq:0 ~ts:0 [||];
    observer = None;
    filter_buf = [||];
    m = Metrics.create ();
  }

let set_observer st observer = st.observer <- observer

let substitution_of inst = List.rev inst.bindings

(* Per-instance observations copy the bindings: build them only when an
   observer is installed. *)
let observe_expired st e ~accepting inst =
  match st.observer with
  | None -> ()
  | Some f ->
      f (Expired { event = e; accepting; buffer = substitution_of inst })

let is_fresh inst = inst.bindings = []

(* Whether [inst]'s window has closed by time [ts]. *)
let expired tau inst ts =
  (not (is_fresh inst)) && Instance_store.expired ~now:ts ~tau inst.first_ts

(* The per-event path below allocates only what it keeps — a successor,
   its counts and its binding — so its checks are plain recursions over
   lists, with no closure, and a bucket walk's step is the top-level
   [step] reading the stream's [cur_slot] and [cur_event]. *)

let const_holds c e =
  (* Constant conditions mention exactly one variable; binding it to [e]
     needs no buffer. *)
  Condition.holds_on c ~var:c.Condition.var ~event:e []

let rec consts_hold e = function
  | [] -> true
  | c :: rest -> const_holds c e && consts_hold e rest

let rec mark_passed stamp e n = function
  | [] -> n
  | pt :: rest ->
      if consts_hold e pt.const_conds then begin
        pt.passed <- stamp;
        mark_passed stamp e (n + 1) rest
      end
      else mark_passed stamp e n rest

(* How many transitions of [slot] are worth trying on event [e]. Without
   the constant pre-check this is every outgoing transition; with it,
   transitions whose constant atoms [e] fails are pruned once per event —
   the survivors carry the event's stamp in [passed], and the stamp check
   makes the cache hit a pair of integer reads, shared by all instances
   in the state. *)
let n_candidates st slot e =
  if not st.options.precheck_constants then slot.n_prepared
  else begin
    if slot.active_stamp <> st.stamp then begin
      slot.n_active <- mark_passed st.stamp e 0 slot.prepared;
      slot.active_stamp <- st.stamp
    end;
    slot.n_active
  end

(* Whether [pt] survived the current event's pre-check; valid once
   [n_candidates] has run on its slot for that event. *)
let is_candidate st pt =
  (not st.options.precheck_constants) || pt.passed = st.stamp

(* Whether negation guard [g] could kill on event [e]: [e] satisfies its
   constant atoms. *)
let guard_may_fire g e = consts_hold e g.guard_consts

(* Whether some negation guard of a slot could kill on event [e]. Shared
   per bucket per event by the indexed store's skip decision. *)
let rec guards_may_fire e = function
  | [] -> false
  | g :: rest -> guard_may_fire g e || guards_may_fire e rest

(* The sub-bucket of [slot] that event [e] can affect. An instance keyed
   under k can neither fire a transition pinned to an attribute on which
   [e] holds a value other than k, nor be killed by such a guard. So when
   every candidate transition and every guard that may fire is pinned,
   all to one value of [e], only that key's instances need a visit:
   [probe_attr] is the attribute of [e] holding that value, and -1 (walk
   the whole state) otherwise — in an unkeyed state every pin is -1. *)
let rec first_candidate_pin st = function
  | [] -> -1
  | pt :: rest ->
      if is_candidate st pt then pt.pin else first_candidate_pin st rest

let rec first_guard_pin e = function
  | [] -> -1
  | g :: rest ->
      if guard_may_fire g e then g.guard_pin else first_guard_pin e rest

let pinned e k a = a >= 0 && Value.equal k (Event.attr e a)

let rec transitions_pinned st e k = function
  | [] -> true
  | pt :: rest ->
      ((not (is_candidate st pt)) || pinned e k pt.pin)
      && transitions_pinned st e k rest

let rec guards_pinned e k = function
  | [] -> true
  | g :: rest ->
      ((not (guard_may_fire g e)) || pinned e k g.guard_pin)
      && guards_pinned e k rest

let probe_attr st slot e ~n_candidates =
  let a =
    if n_candidates > 0 then first_candidate_pin st slot.prepared
    else first_guard_pin e slot.guards
  in
  if a < 0 then -1
  else
    let k = Event.attr e a in
    if transitions_pinned st e k slot.prepared && guards_pinned e k slot.guards
    then a
    else -1

(* Dead-instance pruning: a successor binding [e] is dead when, for some
   check, [e]'s value on [bound_field] differs from a partner value the
   source instance already holds. The check's variable must equal both
   (conjunctive decomposition), equality within one type is transitive,
   and it has no binding yet, so it can never bind and the successor
   can never accept. *)
let rec partner_differs x w ev = function
  | [] -> false
  | (w', f) :: ps ->
      (w' = w && not (Predicate.eval Predicate.Eq x (Event.get ev f)))
      || partner_differs x w ev ps

let rec bindings_differ x partners = function
  | [] -> false
  | (w, ev) :: rest ->
      partner_differs x w ev partners || bindings_differ x partners rest

let rec doomed e bindings = function
  | [] -> false
  | dc :: rest ->
      bindings_differ (Event.get e dc.bound_field) dc.partners bindings
      || doomed e bindings rest

(* A successor joins the pool after the event: staged into its target
   state's interned bucket, or onto the flat pool's next Ω. *)
let stage st pt succ =
  match st.pop with
  | Store _ -> Instance_store.stage pt.tgt_bucket succ
  | Omega o -> o.survivors <- succ :: o.survivors

(* [pt] fires on [inst] and event [e]: stage the successor, or drop it
   when it is dead (see [doomed]). *)
let fire st inst e pt =
  let tr = pt.transition in
  if doomed e inst.bindings pt.dead_checks then begin
    Metrics.on_pruned st.m;
    (* No successor, so no buffer to build unless someone watches. *)
    match st.observer with
    | None -> ()
    | Some f ->
        let dc =
          List.find (fun dc -> doomed e inst.bindings [ dc ]) pt.dead_checks
        in
        f
          (Pruned
             {
               event = e;
               transition = tr;
               buffer = List.rev ((tr.var, e) :: inst.bindings);
               dead_var = dc.dead_var;
             })
  end
  else begin
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
    (match st.observer with
    | None -> ()
    | Some f ->
        let buffer = substitution_of successor in
        f (Took { event = e; transition = tr; buffer }));
    stage st pt successor
  end

(* Quantifier maximum: a loop must not bind beyond max. The per-instance
   binding counts make this an array read. *)
let below_max st inst (tr : Automaton.transition) =
  match st.max_counts.(tr.var) with
  | None -> true
  | Some m -> (not (Varset.mem tr.var tr.src)) || inst.counts.(tr.var) < m

let rec conds_hold var e bindings = function
  | [] -> true
  | c :: rest ->
      Condition.holds_on c ~var ~event:e bindings
      && conds_hold var e bindings rest

(* Fires, in transition order, every candidate transition whose
   remaining conditions hold for [inst] and [e]; whether any fired. *)
let rec fire_all st inst e fired = function
  | [] -> fired
  | pt :: rest ->
      let tr = pt.transition in
      let fires =
        is_candidate st pt && below_max st inst tr
        && conds_hold tr.var e inst.bindings
             (if st.options.precheck_constants then pt.var_conds
              else tr.conds)
      in
      if fires then fire st inst e pt;
      fire_all st inst e (fired || fires) rest

let rec killed e bindings = function
  | [] -> false
  | g :: rest ->
      conds_hold g.neg_var e bindings g.guard_conds || killed e bindings rest

(* ConsumeEvent (Algorithm 2): successors of [inst] — sitting in [slot] —
   on event [e] are staged (see [fire]) in transition order. Returns
   [true] exactly when the instance survives unchanged, which lets the
   indexed feed keep untouched survivors in bucket order without
   re-sorting — fired or killed instances are consumed (replace-on-fire),
   a fresh instance is never kept. *)
let consume st slot inst e =
  ignore (n_candidates st slot e);
  if fire_all st inst e false slot.prepared then false
  else if is_fresh inst then false
  else if killed e inst.bindings slot.guards then begin
    Metrics.on_killed st.m;
    (match st.observer with
    | None -> ()
    | Some f ->
        let buffer = substitution_of inst in
        f (Killed { event = e; state = inst.state; buffer }));
    false
  end
  else begin
    (match st.observer with
    | None -> ()
    | Some f ->
        let buffer = substitution_of inst in
        f (Ignored { event = e; state = inst.state; buffer }));
    true
  end

let minima_satisfied st inst =
  List.for_all (fun (v, m) -> inst.counts.(v) >= m) st.strict_minima

let emit st inst =
  let subst = substitution_of inst in
  st.emissions <- subst :: st.emissions;
  st.completed <- subst :: st.completed;
  Metrics.on_match st.m;
  match st.observer with None -> () | Some f -> f (Emitted subst)

(* The emissions of the call in progress, oldest first. *)
let take_completed st =
  match st.completed with
  | [] -> []
  | completed ->
      st.completed <- [];
      List.rev completed

(* An instance whose window has closed leaves the pool, and is emitted
   when it is accepting. [event], the event that closed it, is narrated
   with the [Expired]; a clock advance has none. *)
let expire st event ~accepting inst =
  Metrics.on_expired st.m;
  let accepting = accepting && minima_satisfied st inst in
  (match event with
  | Some e -> observe_expired st e ~accepting inst
  | None -> ());
  if accepting then emit st inst

let rec expire_all st event ~accepting = function
  | [] -> ()
  | inst :: rest ->
      expire st event ~accepting inst;
      expire_all st event ~accepting rest

let population st =
  match st.pop with
  | Omega o -> List.length o.omega
  | Store s -> Instance_store.size s

(* Algorithm 1's loop body over the flat list: the reference path, kept
   verbatim for differential testing and for benchmarking the store
   against it. *)
let feed_flat st o e =
  let accept = Automaton.accept st.automaton in
  (* The flat loop interleaves expiry and consumption per instance, so
     one transition span covers the whole sweep (the probe map in
     docs/architecture.md notes the asymmetry with the indexed path). *)
  let tok =
    match st.probes with
    | None -> 0
    | Some p -> Telemetry.Span.start p.transition_span
  in
  o.survivors <- [];
  List.iter
    (fun inst ->
      if expired st.tau inst (Event.ts e) then
        expire st (Some e) ~accepting:(Varset.equal inst.state accept) inst
      else if consume st (Hashtbl.find st.slot_of inst.state) inst e then
        o.survivors <- inst :: o.survivors)
    (st.fresh :: o.omega);
  o.omega <- List.rev o.survivors;
  o.survivors <- [];
  let n = List.length o.omega in
  Metrics.sample_population st.m n;
  match st.probes with
  | None -> ()
  | Some p ->
      Telemetry.Span.stop p.transition_span tok;
      Telemetry.Gauge.observe p.population_gauge n

(* A bucket walk's step: [consume] on the stream's current slot and
   event. *)
let step st inst = consume st st.cur_slot inst st.cur_event

(* The batched walk's step, with the fused expiry check first (see
   [feed_indexed_batch]). The batched path runs without an observer, so
   no [Expired] is narrated. *)
let step_fused st inst =
  if expired st.tau inst (Event.ts st.cur_event) then begin
    expire st None ~accepting:st.cur_slot.accepting inst;
    false
  end
  else step st inst

(* Walks [slot]'s bucket with [f]: the sub-bucket of [e]'s attribute [a]
   when [a >= 0], else the whole state. *)
let walk_slot st slot e a f =
  st.cur_slot <- slot;
  if a < 0 then Instance_store.walk slot.bucket f st
  else Instance_store.walk_key slot.bucket (Event.attr e a) f st

(* The same loop over the state-indexed store. Buckets are visited in
   ascending state order; a bucket is only walked when the event could
   affect it — some transition survived the constant pre-check, some
   negation guard could fire, or an observer wants the per-instance
   [Ignored] narration — and in a keyed state only the sub-bucket
   [probe_attr] selects, unless an observer is installed. Expired
   instances are popped off the sorted prefix without touching the
   rest. *)
let feed_indexed st store e =
  ignore (consume st st.start_slot st.fresh e);
  st.cur_event <- e;
  for i = 0 to Array.length st.slots - 1 do
    let slot = st.slots.(i) in
    let bucket = slot.bucket in
    if Instance_store.handle_size bucket > 0 then begin
      let tok =
        match st.probes with
        | None -> 0
        | Some p -> Telemetry.Span.start p.expiry_span
      in
      let dead =
        Instance_store.pop_expired bucket ~now:(Event.ts e) ~tau:st.tau
      in
      (match st.probes with
      | None -> ()
      | Some p -> Telemetry.Span.stop p.expiry_span tok);
      (match dead with
      | [] -> ()
      | dead -> expire_all st (Some e) ~accepting:slot.accepting dead);
      let n = n_candidates st slot e in
      let observed =
        match st.observer with None -> false | Some _ -> true
      in
      if
        (n > 0 || guards_may_fire e slot.guards || observed)
        && Instance_store.handle_size bucket > 0
      then begin
        (* An observer narrates every [Ignored]: walk the whole state. *)
        let a = if observed then -1 else probe_attr st slot e ~n_candidates:n in
        let tok =
          match st.probes with
          | None -> 0
          | Some p -> Telemetry.Span.start p.transition_span
        in
        let walked = walk_slot st slot e a step in
        match st.probes with
        | None -> ()
        | Some p ->
            Telemetry.Histogram.observe p.bucket_scan walked;
            Telemetry.Span.stop p.transition_span tok
      end
    end
  done;
  Instance_store.commit store;
  let n = Instance_store.size store in
  Metrics.sample_population st.m n;
  match st.probes with
  | None -> ()
  | Some p -> Telemetry.Gauge.observe p.population_gauge n

(* One kept (filter-surviving) event entering the pool: bump the stamp
   (invalidating every slot's active-transition cache), account the fresh
   start-state instance, and run the store-specific loop. *)
let ingest_kept st e =
  st.stamp <- st.stamp + 1;
  Metrics.on_instance_created st.m;
  (match st.observer with None -> () | Some f -> f (Created e));
  match st.pop with
  | Omega o -> feed_flat st o e
  | Store s -> feed_indexed st s e

(* The engine's clock: every instance whose window has closed by [ts]
   leaves the pool, and the accepting ones are emitted. The indexed
   store pops each bucket's expired prefix, a keyed state across its
   sub-buckets through their heap; a bucket whose head has not expired
   costs one comparison and allocates nothing. The flat pool filters its
   list. [event] is the event [ts] was read off, narrated with each
   [Expired]; an [advance] has none and narrates no [Expired]. Timed
   under the [expiry] span whenever the pool is non-empty; an empty pool
   costs nothing. *)
let sweep st event ts =
  let empty =
    match st.pop with
    | Omega o -> o.omega = []
    | Store s -> Instance_store.size s = 0
  in
  if not empty then begin
    let tok =
      match st.probes with
      | None -> 0
      | Some p -> Telemetry.Span.start p.expiry_span
    in
    (match st.pop with
    | Omega o ->
        let accept = Automaton.accept st.automaton in
        o.omega <-
          List.filter
            (fun inst ->
              if expired st.tau inst ts then begin
                expire st event ~accepting:(Varset.equal inst.state accept)
                  inst;
                false
              end
              else true)
            o.omega
    | Store _ ->
        for i = 0 to Array.length st.slots - 1 do
          let slot = st.slots.(i) in
          if Instance_store.handle_size slot.bucket > 0 then
            match Instance_store.pop_expired slot.bucket ~now:ts ~tau:st.tau with
            | [] -> ()
            | dead -> expire_all st event ~accepting:slot.accepting dead
        done);
    match st.probes with
    | None -> ()
    | Some p -> Telemetry.Span.stop p.expiry_span tok
  end

let out_of_order = "Engine.feed: events out of chronological order"

(* Reads [ts] into the clock; raises on a timestamp before the last. *)
let tick st ts =
  if Time.( <. ) ts st.last_ts then invalid_arg out_of_order;
  st.last_ts <- ts

(* One event past the clock check: a kept event enters the pool, a
   dropped one only sweeps the pool to its timestamp — what the event
   does there unfiltered, since it can neither fire a transition nor
   kill an instance. *)
let ingest st e =
  let kept =
    match st.probes with
    | None -> Event_filter.keep st.filter e
    | Some p ->
        let tok = Telemetry.Span.start p.filter_span in
        let kept = Event_filter.keep st.filter e in
        Telemetry.Span.stop p.filter_span tok;
        kept
  in
  if kept then ingest_kept st e
  else begin
    Metrics.on_filtered st.m;
    sweep st (Some e) (Event.ts e)
  end

let feed st e =
  tick st (Event.ts e);
  Metrics.on_event st.m;
  ingest st e;
  take_completed st

let advance st ts =
  tick st ts;
  sweep st None ts;
  take_completed st

(* The batched loop over the indexed store. Semantics are those of
   feeding the events one by one, with two amortizations that are
   invisible to the (multiset of) emissions and finalized matches:

   - τ-expiry prefixes are popped once per batch, at its end, by a
     sweep to the chunk's last timestamp (its last event, kept or not),
     instead of once per nonempty bucket per event. An instance whose
     window closes mid-batch is caught by the fused expiry check the
     moment its bucket is scanned — so it can never consume an event —
     and otherwise by the closing sweep. Either way it is emitted within
     the batch whose event closed its window, as the one-by-one feed
     does: each chunk returns the same multiset of emissions and counts
     the same expiries. Only the *position* of an expiry emission within
     the chunk's raw list can differ.

   - telemetry records per batch: one expiry span for the sweep, one
     transition span covering the whole kept loop (every event's bucket
     scans), and one population gauge observation at batch end.

   The per-event [feed] above remains the reference ordering; [feed_batch]
   falls back to it while an observer is installed so narration order
   stays exact. *)
let feed_indexed_batch st store kept n_kept ~last =
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
    ignore (consume st st.start_slot st.fresh e);
    st.cur_event <- e;
    for j = 0 to Array.length st.slots - 1 do
      let slot = st.slots.(j) in
      let bucket = slot.bucket in
      if Instance_store.handle_size bucket > 0 then begin
        let n = n_candidates st slot e in
        if n > 0 || guards_may_fire e slot.guards then begin
          let a = probe_attr st slot e ~n_candidates:n in
          (* A probe leaves the other keys' instances unwalked: pop the
             state's expired ones first, as the fused check would on a
             whole walk, so emissions and population stay those of the
             unkeyed walk. *)
          (if a >= 0 then
             match
               Instance_store.pop_expired bucket ~now:(Event.ts e) ~tau:st.tau
             with
             | [] -> ()
             | dead -> expire_all st None ~accepting:slot.accepting dead);
          let walked = walk_slot st slot e a step_fused in
          match st.probes with
          | None -> ()
          | Some p -> Telemetry.Histogram.observe p.bucket_scan walked
        end
      end
    done;
    Instance_store.commit store;
    Metrics.sample_population st.m (Instance_store.size store)
  done;
  (match st.probes with
  | None -> ()
  | Some p -> Telemetry.Span.stop p.transition_span tok);
  (* Batch-end expiry sweep: what the one-by-one feed has expired by the
     chunk's last event, kept or not. *)
  sweep st None last;
  match st.probes with
  | None -> ()
  | Some p ->
      Telemetry.Gauge.observe p.population_gauge (Instance_store.size store)

(* The batch filter pass into the reused scratch buffer: the number of
   events kept. One span covers the chunk. *)
let filter_into st events =
  let n = Array.length events in
  if Array.length st.filter_buf < n then st.filter_buf <- Array.make n events.(0);
  let buf = st.filter_buf in
  let tok =
    match st.probes with
    | None -> 0
    | Some p -> Telemetry.Span.start p.filter_span
  in
  let k = ref 0 in
  for i = 0 to n - 1 do
    let e = events.(i) in
    if Event_filter.keep st.filter e then begin
      buf.(!k) <- e;
      incr k
    end
  done;
  (match st.probes with
  | None -> ()
  | Some p -> Telemetry.Span.stop p.filter_span tok);
  !k

let feed_batch st events =
  let n = Array.length events in
  if n = 0 then []
  else begin
    if Time.( <. ) (Event.ts events.(0)) st.last_ts then
      invalid_arg out_of_order;
    for i = 1 to n - 1 do
      if Time.( <. ) (Event.ts events.(i)) (Event.ts events.(i - 1)) then
        invalid_arg out_of_order
    done;
    let last = Event.ts events.(n - 1) in
    st.last_ts <- last;
    Metrics.on_events st.m n;
    (match (st.pop, st.observer) with
    | Store s, None ->
        (* A trivial filter costs nothing at all. *)
        let n_kept =
          match st.options.filter with
          | Event_filter.No_filter -> n
          | Event_filter.Paper | Event_filter.Strong -> filter_into st events
        in
        let kept =
          match st.options.filter with
          | Event_filter.No_filter -> events
          | Event_filter.Paper | Event_filter.Strong -> st.filter_buf
        in
        Metrics.on_filtered_many st.m (n - n_kept);
        if n_kept = 0 then sweep st None last
        else feed_indexed_batch st s kept n_kept ~last
    | (Store _ | Omega _), _ ->
        (* Reference orderings (flat pool, or an installed observer):
           the per-event feed, event by event. *)
        Array.iter (ingest st) events);
    take_completed st
  end

let close st =
  let accept = Automaton.accept st.automaton in
  let flush inst =
    if Varset.equal inst.state accept && minima_satisfied st inst then
      emit st inst
  in
  (match st.pop with
  | Omega o ->
      List.iter flush (List.rev o.omega);
      o.omega <- []
  | Store s ->
      (* Only the accepting bucket can flush; everything else just dies. *)
      List.iter flush
        (Instance_store.take_all (Hashtbl.find st.slot_of accept).bucket);
      Instance_store.clear s);
  take_completed st

let sub_buckets st =
  match st.pop with
  | Omega _ -> 0
  | Store s -> Instance_store.sub_buckets s

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
