open Ses_event
open Ses_pattern

(* A transition is key-pinned when its condition set forces the bound
   event's key field to equal the key of an event already in the buffer:
   an equality on (key, key) between the transition's variable and a
   variable of the source state. Reflexive conditions do not pin (they
   compare the new event with itself), and neither does anything
   involving an unbound variable — condition attachment already excludes
   those. *)
let pinned key (tr : Automaton.transition) =
  List.exists
    (fun (c : Condition.t) ->
      c.op = Predicate.Eq
      && Schema.Field.equal c.field key
      && (match c.rhs with
         | Condition.Var (_, f') -> Schema.Field.equal f' key
         | Condition.Const _ -> false)
      &&
      match Condition.other_var c tr.var with
      | Some v' -> Varset.mem v' tr.src
      | None -> false)
    tr.conds

let candidate_fields p =
  List.sort_uniq Schema.Field.compare
    (List.filter_map
       (fun (c : Condition.t) ->
         match c.rhs with
         | Condition.Var (_, f')
           when c.op = Predicate.Eq && Schema.Field.equal c.field f'
                && c.field <> Schema.Field.Timestamp ->
             Some c.field
         | Condition.Var _ | Condition.Const _ -> None)
       (Pattern.conditions p))

(* A negation guard is key-pinned when it equates the forbidden event's
   key with an earlier positive variable's key: only same-key events can
   then kill, so per-key pools stay equivalent. *)
let negation_pinned p key =
  List.for_all
    (fun (_, nv) ->
      List.exists
        (fun (c : Condition.t) ->
          c.op = Predicate.Eq
          && Schema.Field.equal c.field key
          && (match c.rhs with
             | Condition.Var (_, f') -> Schema.Field.equal f' key
             | Condition.Const _ -> false)
          && Condition.other_var c nv <> None)
        (Pattern.conditions_on p nv))
    (Pattern.negations p)

let partition_key automaton =
  let p = Automaton.pattern automaton in
  let non_start =
    List.filter
      (fun (tr : Automaton.transition) ->
        not (Varset.is_empty tr.src))
      (Automaton.transitions automaton)
  in
  List.find_opt
    (fun field ->
      List.for_all (pinned field) non_start && negation_pinned p field)
    (candidate_fields p)

(* Incremental interface: the instance pool splits lazily — a key's pool
   is opened the first time one of its events arrives. *)

type keyed = {
  field : Schema.Field.t;
  pools : (Value.t, Engine.stream) Hashtbl.t;
  mutable order : Engine.stream list;  (* creation order, newest first *)
  mutable total : int;
  mutable max_total : int;
}

type pools = Single of Engine.stream | Keyed of keyed

type stream = {
  automaton : Automaton.t;
  options : Engine.options;
  pools : pools;
}

let pool_of ~options ~automaton (k : keyed) kv =
  match Hashtbl.find_opt k.pools kv with
  | Some pool -> pool
  | None ->
      let pool = Engine.create ~options automaton in
      Hashtbl.add k.pools kv pool;
      k.order <- pool :: k.order;
      pool

(* [Engine.population] is an O(1) counter read on the default indexed
   store, so maintaining the cross-pool total per feed is cheap even
   with many pools. *)
let account (k : keyed) delta =
  k.total <- k.total + delta;
  if k.total > k.max_total then k.max_total <- k.total

let feed_keyed ~options ~automaton (k : keyed) e =
  let pool = pool_of ~options ~automaton k (Event.get e k.field) in
  let before = Engine.population pool in
  let completed = Engine.feed pool e in
  account k (Engine.population pool - before);
  completed

(* Route a chunk to its per-key pools as sub-batches: events are grouped
   by key value and each pool consumes its sub-array through
   {!Engine.feed_batch}, so the per-batch amortizations compose with
   partitioning. Pools are independent and each still sees exactly its
   key's events in arrival order; only the accounting granularity
   changes — [total]/[max_total] move once per (pool, chunk) instead of
   once per event, so the recorded peak is a lower bound on the
   per-event one. *)
let feed_keyed_batch ~options ~automaton (k : keyed) (es : Event.t array) =
  if Array.length es = 0 then []
  else begin
    let groups : (Value.t, Event.t list ref) Hashtbl.t = Hashtbl.create 16 in
    let order = ref [] in
    (* key first-appearance order, newest first *)
    Array.iter
      (fun e ->
        let kv = Event.get e k.field in
        match Hashtbl.find_opt groups kv with
        | Some sub -> sub := e :: !sub
        | None ->
            Hashtbl.add groups kv (ref [ e ]);
            order := kv :: !order)
      es;
    List.concat_map
      (fun kv ->
        let sub = Array.of_list (List.rev !(Hashtbl.find groups kv)) in
        let pool = pool_of ~options ~automaton k kv in
        let before = Engine.population pool in
        let completed = Engine.feed_batch pool sub in
        account k (Engine.population pool - before);
        completed)
      (List.rev !order)
  end

let create ?(options = Engine.default_options) ?key automaton =
  let key =
    match key with Some k -> k | None -> partition_key automaton
  in
  let pools =
    match key with
    | None -> Single (Engine.create ~options automaton)
    | Some field ->
        Keyed
          {
            field;
            pools = Hashtbl.create 32;
            order = [];
            total = 0;
            max_total = 0;
          }
  in
  { automaton; options; pools }

let key st =
  match st.pools with Single _ -> None | Keyed k -> Some k.field

let n_pools st =
  match st.pools with
  | Single _ -> 1
  | Keyed k -> Hashtbl.length k.pools

let feed st e =
  match st.pools with
  | Single s -> Engine.feed s e
  | Keyed k -> feed_keyed ~options:st.options ~automaton:st.automaton k e

let feed_batch st es =
  match st.pools with
  | Single s -> Engine.feed_batch s es
  | Keyed k ->
      feed_keyed_batch ~options:st.options ~automaton:st.automaton k es

(* The engine streams, oldest pool first. *)
let streams st =
  match st.pools with Single s -> [ s ] | Keyed k -> List.rev k.order

let close st =
  let flushed = List.concat_map Engine.close (streams st) in
  (match st.pools with Single _ -> () | Keyed k -> k.total <- 0);
  flushed

let emitted st = List.concat_map Engine.emitted (streams st)

let population st =
  match st.pools with
  | Single s -> Engine.population s
  | Keyed k -> k.total

let metrics st =
  match st.pools with
  | Single s -> Engine.metrics s
  | Keyed k ->
      {
        (Metrics.merge (List.map Engine.metrics (streams st))) with
        Metrics.max_simultaneous_instances = k.max_total;
      }

let run ?(options = Engine.default_options) automaton events =
  let p = Automaton.pattern automaton in
  let st = create ~options automaton in
  Seq.iter (fun e -> ignore (feed st e)) events;
  ignore (close st);
  let raw = emitted st in
  let matches =
    if options.Engine.finalize then
      Substitution.finalize ~policy:options.Engine.policy p raw
    else raw
  in
  { Engine.matches; raw; metrics = metrics st }

let run_relation ?options automaton relation =
  run ?options automaton (Relation.to_seq relation)
