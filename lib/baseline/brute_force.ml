open Ses_event
open Ses_pattern
open Ses_core

let orderings p =
  let per_set =
    List.init (Pattern.n_sets p) (fun i ->
        Permutation.permutations (Pattern.set_vars p i))
  in
  List.map List.concat (Permutation.cartesian per_set)

let spec_of_condition p (c : Condition.t) =
  let schema = Pattern.schema p in
  let bare v = (Pattern.variable p v).Variable.name in
  let field_name f = Schema.Field.name schema f in
  let right =
    match c.rhs with
    | Condition.Const v -> Pattern.Spec.Const v
    | Condition.Var (v', f') -> Pattern.Spec.Field (bare v', field_name f')
  in
  {
    Pattern.Spec.left = (bare c.var, field_name c.field);
    op = c.op;
    right;
    span = Condition.span c;
  }

let sequence_pattern p ordering =
  let sets = List.map (fun v -> [ Pattern.variable p v ]) ordering in
  let where = List.map (spec_of_condition p) (Pattern.conditions p) in
  (* A negation after original set i guards the chain position after the
     last variable of that set: cumulative set sizes are ordering-
     independent because orderings permute within sets only. *)
  let negations =
    List.map
      (fun (b, nv) ->
        let position =
          List.fold_left
            (fun acc i -> acc + List.length (Pattern.set_vars p i))
            0
            (List.init (b + 1) Fun.id)
        in
        (position - 1, Pattern.variable p nv))
      (Pattern.negations p)
  in
  Pattern.make_full_exn ~schema:(Pattern.schema p) ~sets ~negations ~where
    ~within:(Pattern.tau p)

let n_automata p =
  Permutation.n_sequences
    (List.init (Pattern.n_sets p) (Pattern.set_vars p))

type outcome = {
  matches : Substitution.t list;
  raw : Substitution.t list;
  metrics : Metrics.snapshot;
  n_automata : int;
}

(* Translate a substitution of a derived chain pattern back to the variable
   ids of the original pattern (ids differ because the derived pattern
   declares variables in ordering order). *)
let retarget ~original ~derived subst =
  List.map
    (fun (v, e) ->
      let name = (Pattern.variable derived v).Variable.name in
      match Pattern.var_id original name with
      | Some v' -> (v', e)
      | None -> assert false)
    subst

(* Incremental interface: all chain automata advance in lockstep on each
   [feed]; completions are retargeted to the original pattern's variable
   ids and deduplicated across automata as they appear (distinct
   orderings find the same substitution). *)

type stream = {
  pattern : Pattern.t;
  streams : (Pattern.t * Engine.stream) list;
  seen : ((int * int) list, unit) Hashtbl.t;
  mutable emissions : Substitution.t list;  (** deduplicated, newest first *)
  mutable max_total : int;
}

let create_pattern ?(options = Engine.default_options) p =
  let derived = List.map (sequence_pattern p) (orderings p) in
  {
    pattern = p;
    streams =
      List.map
        (fun dp -> (dp, Engine.create ~options (Automaton.of_pattern dp)))
        derived;
    seen = Hashtbl.create 256;
    emissions = [];
    max_total = 0;
  }

let create ?options automaton = create_pattern ?options (Automaton.pattern automaton)

let fresh st substs =
  List.filter
    (fun s ->
      let key = Substitution.canonical s in
      if Hashtbl.mem st.seen key then false
      else begin
        Hashtbl.add st.seen key ();
        st.emissions <- s :: st.emissions;
        true
      end)
    substs

(* One step of every chain: its completions retargeted to the original
   pattern's variable ids and deduplicated across chains. *)
let across st step =
  fresh st
    (List.concat_map
       (fun (dp, engine) ->
         List.map (retarget ~original:st.pattern ~derived:dp) (step engine))
       st.streams)

let population st =
  List.fold_left (fun acc (_, s) -> acc + Engine.population s) 0 st.streams

let feed st e =
  let completed = across st (fun engine -> Engine.feed engine e) in
  st.max_total <- max st.max_total (population st);
  completed

(* Each chain consumes the whole chunk through the engine's batched
   path; the cross-chain population peak is then sampled once per batch
   (a lower bound on the per-event peak, like the other batched
   executors). *)
let feed_batch st es =
  let completed = across st (fun engine -> Engine.feed_batch engine es) in
  st.max_total <- max st.max_total (population st);
  completed

(* Time only shrinks the chains' populations: no peak to sample. *)
let advance st ts = across st (fun engine -> Engine.advance engine ts)

let close st = across st Engine.close

let emitted st = List.rev st.emissions

let metrics st =
  let summed =
    Metrics.merge_replicas
      (List.map (fun (_, s) -> Engine.metrics s) st.streams)
  in
  { summed with Metrics.max_simultaneous_instances = st.max_total }

let n_streams st = List.length st.streams

let run ?(options = Engine.default_options) p events =
  let st = create_pattern ~options p in
  Seq.iter (fun e -> ignore (feed st e)) events;
  ignore (close st);
  let raw = emitted st in
  let matches =
    if options.Engine.finalize then
      Substitution.finalize ~policy:options.Engine.policy p raw
    else raw
  in
  { matches; raw; metrics = metrics st; n_automata = n_streams st }

let run_relation ?options p relation =
  run ?options p (Relation.to_seq relation)

(* The executor registration: injected into [ses_core]'s registry because
   the dependency points the other way. *)

module Exec = struct
  type nonrec t = stream

  let name = "brute-force"

  let create = create

  let feed = feed

  let feed_batch = feed_batch

  let advance = advance

  let close = close

  let emitted = emitted

  let population = population

  let metrics = metrics
end

let register () = Executor.register_brute_force (module Exec)
