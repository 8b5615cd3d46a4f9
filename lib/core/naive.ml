open Ses_event
open Ses_pattern

exception Too_large of int

let subsets_within ~min_count ~max_count events =
  (* All sublists whose size lies within the quantifier bounds, preserving
     chronological order. *)
  let rec go = function
    | [] -> [ [] ]
    | e :: rest ->
        let tails = go rest in
        List.map (fun t -> e :: t) tails @ tails
  in
  List.filter
    (fun l ->
      let n = List.length l in
      n >= min_count
      && match max_count with Some m -> n <= m | None -> true)
    (go events)

let candidates p all_events v =
  let consts = Pattern.constant_conditions_on p v in
  List.filter
    (fun e ->
      List.for_all
        (fun (field, op, c) -> Predicate.eval op (Event.get e field) c)
        consts)
    (Array.to_list all_events)

let all_satisfying_1_3_events ?(limit = 1_000_000) p all_events =
  let per_var =
    List.init (Pattern.n_vars p) (fun v ->
        let events = candidates p all_events v in
        if Pattern.is_group p v then begin
          (* A group variable ranges over subsets of its candidates, and
             [subsets_within] materializes all 2^n of them — bail before
             that, not after, or a large input hangs instead of raising. *)
          let n = List.length events in
          if n >= Sys.int_size - 2 || 1 lsl n > limit then
            raise (Too_large limit);
          List.map
            (fun es -> (v, es))
            (subsets_within ~min_count:(Pattern.min_count p v)
               ~max_count:(Pattern.max_count p v) events)
        end
        else List.map (fun e -> (v, [ e ])) events)
  in
  (* Upfront size estimate to fail fast instead of looping forever. *)
  let estimate =
    List.fold_left
      (fun acc choices ->
        if acc > limit then acc else acc * max 1 (List.length choices))
      1 per_var
  in
  if estimate > limit then raise (Too_large limit);
  let checked = ref 0 in
  let results = ref [] in
  let rec assign acc = function
    | [] ->
        incr checked;
        if !checked > limit then raise (Too_large limit);
        let subst =
          List.concat_map (fun (v, es) -> List.map (fun e -> (v, e)) es)
            (List.rev acc)
        in
        if
          Substitution.satisfies_1_3 p subst
          && Substitution.satisfies_negations p all_events subst
        then results := subst :: !results
    | choices :: rest ->
        List.iter (fun choice -> assign (choice :: acc) rest) choices
  in
  assign [] per_var;
  List.sort
    (fun a b ->
      Substitution.compare_canonical (Substitution.canonical a)
        (Substitution.canonical b))
    !results

let all_satisfying_1_3 ?limit p relation =
  all_satisfying_1_3_events ?limit p (Relation.events relation)

let matches ?limit ?policy p relation =
  Substitution.finalize ?policy p (all_satisfying_1_3 ?limit p relation)

(* Incremental wrapper: the enumeration needs the whole input, so the
   stream buffers the events (keeping their original sequence numbers —
   a store-side filter may have dropped rows, leaving gaps) and
   enumerates at [close]. *)

type stream = {
  pattern : Pattern.t;
  limit : int;
  mutable events : Event.t list;  (** newest first *)
  mutable last_ts : Time.t option;
  mutable raw : Substitution.t list;
  mutable closed : bool;
  m : Metrics.t;
}

let default_limit = 1_000_000

let create ?(options = Engine.default_options) automaton =
  ignore options;
  {
    pattern = Automaton.pattern automaton;
    limit = default_limit;
    events = [];
    last_ts = None;
    raw = [];
    closed = false;
    m = Metrics.create ();
  }

let tick st ts =
  (match st.last_ts with
  | Some t when Time.( <. ) ts t ->
      invalid_arg "Naive.feed: events out of chronological order"
  | Some _ | None -> ());
  st.last_ts <- Some ts

let feed st e =
  tick st (Event.ts e);
  Metrics.on_event st.m;
  st.events <- e :: st.events;
  []

(* The oracle only buffers, so a batch is just [feed] in a loop — the
   chronology check per event included. *)
let feed_batch st es =
  Array.iter (fun e -> ignore (feed st e)) es;
  []

(* The oracle decides nothing before [close]: time only joins the
   chronology check. *)
let advance st ts =
  tick st ts;
  []

let close st =
  if st.closed then []
  else begin
    st.closed <- true;
    let all_events = Array.of_list (List.rev st.events) in
    let raw = all_satisfying_1_3_events ~limit:st.limit st.pattern all_events in
    List.iter (fun _ -> Metrics.on_match st.m) raw;
    st.raw <- raw;
    raw
  end

let emitted st = st.raw

let population _ = 0

let metrics st = Metrics.snapshot st.m
