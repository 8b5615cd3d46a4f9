open Ses_event
open Ses_pattern

type transition_stats = {
  transition : Automaton.transition;
  fired : int;
}

type pruned_stats = {
  via : Automaton.transition;
  dead_var : int;
  dropped : int;
}

type report = {
  pattern : Pattern.t;
  events : int;
  matches : int;
  raw : int;
  candidates_per_variable : (int * int) list;
  entered : (Varset.t * int) list;
  stuck : (Varset.t * int) list;
  transitions : transition_stats list;
  killed : int;
  pruned : pruned_stats list;
  emission_lag : (float * int) option;
}

let candidate_count p relation v =
  let consts = Pattern.constant_conditions_on p v in
  Relation.fold
    (fun acc e ->
      if
        List.for_all
          (fun (field, op, c) -> Predicate.eval op (Event.get e field) c)
          consts
      then acc + 1
      else acc)
    0 relation

let state_of_buffer buffer =
  Varset.of_list (List.map fst (Substitution.canonical buffer))

let explain ?options automaton relation =
  let p = Automaton.pattern automaton in
  let st = Engine.create ?options automaton in
  let entered = Hashtbl.create 32 in
  let stuck = Hashtbl.create 32 in
  let fired = Hashtbl.create 64 in
  let pruned = Hashtbl.create 16 in
  let bump table key =
    Hashtbl.replace table key
      (1 + Option.value ~default:0 (Hashtbl.find_opt table key))
  in
  let accept = Automaton.accept automaton in
  let lags = ref [] in
  Engine.set_observer st
    (Some
       (fun obs ->
         match obs with
         | Engine.Took { transition; _ } ->
             bump entered transition.Automaton.tgt;
             bump fired
               ( transition.Automaton.src,
                 transition.Automaton.var,
                 transition.Automaton.tgt )
         | Engine.Pruned { transition = tr; dead_var; _ } ->
             bump pruned (tr.src, tr.var, tr.tgt, dead_var)
         | Engine.Expired { accepting = false; buffer; _ } ->
             bump stuck (state_of_buffer buffer)
         | Engine.Expired { accepting = true; event; buffer } ->
             let last =
               List.fold_left
                 (fun acc (_, e) -> max acc (Event.ts e))
                 min_int buffer
             in
             lags := (Event.ts event - last) :: !lags
         | Engine.Created _ | Engine.Ignored _ | Engine.Killed _
         | Engine.Emitted _ ->
             ()));
  Relation.iter (fun e -> ignore (Engine.feed st e)) relation;
  (* Instances still alive at end of input count as stuck unless they sit
     in the accepting state. *)
  List.iter
    (fun (q, n) ->
      if not (Varset.equal q accept) then
        Hashtbl.replace stuck q
          (n + Option.value ~default:0 (Hashtbl.find_opt stuck q)))
    (Engine.population_by_state st);
  ignore (Engine.close st);
  let raw = Engine.emitted st in
  let opts = Option.value ~default:Engine.default_options options in
  let matches =
    if opts.Engine.finalize then
      Substitution.finalize ~policy:opts.Engine.policy p raw
    else raw
  in
  let metrics = Engine.metrics st in
  let table_to_list table =
    List.sort
      (fun (_, a) (_, b) -> Int.compare b a)
      (Hashtbl.fold (fun k v acc -> (k, v) :: acc) table [])
  in
  {
    pattern = p;
    events = metrics.Metrics.events_seen;
    matches = List.length matches;
    raw = List.length raw;
    candidates_per_variable =
      List.map
        (fun v -> (v, candidate_count p relation v))
        (List.init (Pattern.n_vars p) Fun.id);
    entered = table_to_list entered;
    stuck = table_to_list stuck;
    transitions =
      List.map
        (fun (tr : Automaton.transition) ->
          {
            transition = tr;
            fired =
              Option.value ~default:0
                (Hashtbl.find_opt fired (tr.src, tr.var, tr.tgt));
          })
        (Automaton.transitions automaton);
    killed = metrics.Metrics.instances_killed;
    pruned =
      List.stable_sort
        (fun a b -> Int.compare b.dropped a.dropped)
        (List.concat_map
           (fun (tr : Automaton.transition) ->
             List.filter_map
               (fun u ->
                 Option.map
                   (fun n -> { via = tr; dead_var = u; dropped = n })
                   (Hashtbl.find_opt pruned (tr.src, tr.var, tr.tgt, u)))
               (List.init (Pattern.n_vars p) Fun.id))
           (Automaton.transitions automaton));
    emission_lag =
      (match !lags with
      | [] -> None
      | ls ->
          let n = List.length ls in
          let total = List.fold_left ( + ) 0 ls in
          Some (float_of_int total /. float_of_int n, List.fold_left max 0 ls));
  }

let pp ppf r =
  let p = r.pattern in
  let name_of = Pattern.var_name p in
  let pp_state = Varset.pp ~name_of in
  Format.fprintf ppf "@[<v>%d events, %d raw candidates, %d matches@,"
    r.events r.raw r.matches;
  if r.killed > 0 then
    Format.fprintf ppf "%d instances killed by negation guards@," r.killed;
  (match List.fold_left (fun acc ps -> acc + ps.dropped) 0 r.pruned with
  | 0 -> ()
  | n -> Format.fprintf ppf "%d successors pruned: they could never match@," n);
  (match r.emission_lag with
  | Some (mean, worst) ->
      Format.fprintf ppf
        "emission lag (MAXIMAL semantics wait for window expiry): mean %.1f, max %d@,"
        mean worst
  | None -> ());
  Format.fprintf ppf "events per variable (constant conditions only):@,";
  List.iter
    (fun (v, n) -> Format.fprintf ppf "  %s: %d@," (name_of v) n)
    r.candidates_per_variable;
  (match List.filter (fun (_, n) -> n = 0) r.candidates_per_variable with
  | [] -> ()
  | dead ->
      Format.fprintf ppf "  -> no event can ever bind %s@,"
        (String.concat ", " (List.map (fun (v, _) -> name_of v) dead)));
  Format.fprintf ppf "states entered:@,";
  List.iter
    (fun (q, n) -> Format.fprintf ppf "  %a: %d@," pp_state q n)
    r.entered;
  (match r.stuck with
  | [] -> ()
  | stuck ->
      Format.fprintf ppf "instances stuck (expired or input ended):@,";
      List.iter
        (fun (q, n) ->
          Format.fprintf ppf "  at %a: %d@," pp_state q n;
          let dropped_on (tr : Automaton.transition) ps =
            Varset.equal ps.via.Automaton.src tr.src
            && ps.via.Automaton.var = tr.var
            && Varset.equal ps.via.Automaton.tgt tr.tgt
          in
          List.iter
            (fun ts ->
              if
                ts.fired = 0
                && Varset.equal ts.transition.Automaton.src q
                && not (List.exists (dropped_on ts.transition) r.pruned)
              then
                Format.fprintf ppf "    transition %s never fired@,"
                  (name_of ts.transition.Automaton.var))
            r.transitions;
          List.iter
            (fun ps ->
              if Varset.equal ps.via.Automaton.src q then
                Format.fprintf ppf
                  "    %d successors into %a were dropped: %s's equality \
                   partners already disagree@,"
                  ps.dropped pp_state ps.via.Automaton.tgt
                  (name_of ps.dead_var))
            r.pruned)
        stuck);
  Format.fprintf ppf "@]"
