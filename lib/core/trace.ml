open Ses_event
open Ses_pattern

let run ?options automaton relation =
  let st = Engine.create ?options automaton in
  let steps = ref [] in
  Engine.set_observer st (Some (fun obs -> steps := obs :: !steps));
  Relation.iter (fun e -> ignore (Engine.feed st e)) relation;
  ignore (Engine.close st);
  let raw = Engine.emitted st in
  let opts = Option.value ~default:Engine.default_options options in
  let matches =
    if opts.Engine.finalize then
      Substitution.finalize ~policy:opts.Engine.policy
        (Automaton.pattern automaton) raw
    else raw
  in
  ( List.rev !steps,
    { Engine.matches; raw; metrics = Engine.metrics st } )

let pp_observation p ppf (obs : Engine.observation) =
  let name_of = Pattern.var_name p in
  let pp_state = Varset.pp ~name_of in
  let pp_subst = Substitution.pp p in
  match obs with
  | Engine.Created e -> Format.fprintf ppf "read %s: new instance" (Event.name e)
  | Engine.Took { event; transition; buffer } ->
      Format.fprintf ppf "read %s: take (%a --%s--> %a), buffer %a"
        (Event.name event) pp_state transition.Automaton.src
        (name_of transition.Automaton.var)
        pp_state transition.Automaton.tgt pp_subst buffer
  | Engine.Pruned { event; transition; buffer; _ } ->
      Format.fprintf ppf
        "read %s: prune (%a --%s--> %a), buffer %a can never match"
        (Event.name event) pp_state transition.Automaton.src
        (name_of transition.Automaton.var)
        pp_state transition.Automaton.tgt pp_subst buffer
  | Engine.Ignored { event; state; buffer } ->
      Format.fprintf ppf "read %s: ignore at %a, buffer %a" (Event.name event)
        pp_state state pp_subst buffer
  | Engine.Expired { event; accepting; buffer } ->
      Format.fprintf ppf "read %s: expire%s, buffer %a" (Event.name event)
        (if accepting then " (accepting)" else "")
        pp_subst buffer
  | Engine.Killed { event; state; buffer } ->
      Format.fprintf ppf "read %s: kill at %a (negation), buffer %a"
        (Event.name event) pp_state state pp_subst buffer
  | Engine.Emitted subst -> Format.fprintf ppf "emit %a" pp_subst subst

let pp p ppf steps =
  Format.fprintf ppf "@[<v>";
  List.iter (fun obs -> Format.fprintf ppf "%a@," (pp_observation p) obs) steps;
  Format.fprintf ppf "@]"

let for_buffer target steps =
  let within buffer = Substitution.subset buffer target in
  List.filter
    (fun (obs : Engine.observation) ->
      match obs with
      | Engine.Created _ -> false
      | Engine.Took { buffer; _ } -> buffer <> [] && within buffer
      | Engine.Pruned { buffer; _ } -> buffer <> [] && within buffer
      | Engine.Ignored { buffer; _ } -> buffer <> [] && within buffer
      | Engine.Expired { buffer; _ } -> buffer <> [] && within buffer
      | Engine.Killed { buffer; _ } -> buffer <> [] && within buffer
      | Engine.Emitted subst -> Substitution.equal subst target)
    steps
