open Ses_pattern

type analysis = {
  automaton : Automaton.t;
  filter_extras :
    (int * (Ses_event.Schema.Field.t * Ses_event.Predicate.op * Ses_event.Value.t) list)
    list;
  domains :
    (int * (Ses_event.Schema.Field.t * Ses_event.Predicate.Domain.t) list) list;
      (** Per variable id, the analyzer's narrowing of each field any
          binding of the variable is guaranteed to satisfy. Non-top
          entries only. *)
  pruned_transitions : int;
  pruned_states : int;
  never_matches : bool;
}

(* The static analyzer lives in [Ses_analysis], which depends on this
   library; it injects itself here (like the brute-force baseline's
   executor registration) so planning picks up pruning and inferred
   filter constraints whenever the analyzer is linked and registered. *)
let analyzer : (Automaton.t -> analysis) option ref = ref None

let set_analyzer f = analyzer := Some f

let clear_analyzer () = analyzer := None

let analyze automaton = Option.map (fun f -> f automaton) !analyzer

type t = {
  filter : Event_filter.mode;
  precheck_constants : bool;
  cases : Exclusivity.case list;
  analysis : analysis option;
}

let plan automaton =
  let p = Automaton.pattern automaton in
  let analysis = analyze automaton in
  let extra =
    match analysis with Some a -> a.filter_extras | None -> []
  in
  let strong = Event_filter.make ~extra p Event_filter.Strong in
  {
    filter =
      (if Event_filter.effective strong then Event_filter.Strong
       else Event_filter.No_filter);
    precheck_constants = true;
    cases = Exclusivity.classify p;
    analysis;
  }

(* ------------------------------------------------------------------ *)
(* Access paths: full scan vs index-probe-then-union.                  *)
(* ------------------------------------------------------------------ *)

type probe = {
  probe_var : int;
  probe_var_name : string;
  probe_field : int;
  probe_attr_name : string;
  probe_keys : Ses_event.Value.t list option;
  probe_domain : Ses_event.Predicate.Domain.t;
  probe_residual :
    (Ses_event.Schema.Field.t * Ses_event.Predicate.op * Ses_event.Value.t) list;
  probe_required : bool;
  probe_estimate : int;
}

type access =
  | Scan of string
  | Index_probe of { probes : probe list; estimate : int; rows : int }

type access_mode = [ `Auto | `Scan | `Index ]

(* The analyzer's narrowing of a variable's field, when registered. *)
let analysis_domain plan v field =
  match plan.analysis with
  | None -> None
  | Some a ->
      Option.bind (List.assoc_opt v a.domains) (fun fields ->
          Option.map snd
            (List.find_opt
               (fun (f, _) -> Ses_event.Schema.Field.equal f field)
               fields))

(* Estimated rows whose attribute falls in [dom], from the histogram:
   exact counts for listed values, plus everything outside the histogram
   when it is incomplete (any of those rows might fall in [dom]). *)
let estimate_domain stats name dom =
  let module D = Ses_event.Predicate.Domain in
  match Ses_event.Stats.find stats name with
  | None -> Ses_event.Stats.rows stats
  | Some a ->
      let in_hist =
        List.fold_left
          (fun acc (v, c) -> if D.mem dom v then acc + c else acc)
          0 a.Ses_event.Stats.histogram
      in
      if a.Ses_event.Stats.complete then in_hist
      else
        in_hist
        + (Ses_event.Stats.rows stats - a.Ses_event.Stats.histogram_rows)

(* Per variable: the best single-attribute index probe covering its
   constant clause, or the reason none exists. The full clause rides
   along as [probe_residual] and is re-checked on every posting, so the
   probe attribute only has to be a sound over-approximation. *)
let probe_of_var ~stats plan schema ~required v ~var_name clause =
  let module D = Ses_event.Predicate.Domain in
  let module F = Ses_event.Schema.Field in
  let attr_atoms =
    List.filter_map
      (fun (f, op, c) ->
        match f with F.Attr i -> Some (i, (op, c)) | F.Timestamp -> None)
      clause
  in
  if attr_atoms = [] then
    Error
      (Printf.sprintf "variable %d is constrained only on the timestamp" v)
  else begin
    let fields = List.sort_uniq Int.compare (List.map fst attr_atoms) in
    let candidates =
      List.map
        (fun i ->
          let ty = Ses_event.Schema.type_of schema i in
          let atoms =
            List.filter_map
              (fun (j, a) -> if j = i then Some a else None)
              attr_atoms
          in
          let dom = D.of_atoms ty atoms in
          let dom =
            match analysis_domain plan v (F.Attr i) with
            | Some d -> D.inter dom d
            | None -> dom
          in
          let name = Ses_event.Schema.name_of schema i in
          let keys, estimate =
            if D.is_empty dom then (Some [], 0)
            else
              match D.constant dom with
              | Some c ->
                  ( Some [ c ],
                    Option.value
                      ~default:(Ses_event.Stats.rows stats)
                      (Ses_event.Stats.estimate_eq stats name c) )
              | None -> (None, estimate_domain stats name dom)
          in
          {
            probe_var = v;
            probe_var_name = var_name;
            probe_field = i;
            probe_attr_name = name;
            probe_keys = keys;
            probe_domain = dom;
            probe_residual = clause;
            probe_required = required;
            probe_estimate = estimate;
          })
        fields
    in
    Ok
      (List.fold_left
         (fun best p ->
           if p.probe_estimate < best.probe_estimate then p else best)
         (List.hd candidates) (List.tl candidates))
  end

let choose_access ?(mode = `Auto) ~stats plan automaton =
  let p = Automaton.pattern automaton in
  let schema = Pattern.schema p in
  let extras =
    match plan.analysis with Some a -> a.filter_extras | None -> []
  in
  let n_pos = Pattern.n_vars p in
  let n_all = n_pos + List.length (Pattern.negations p) in
  let rows = Ses_event.Stats.rows stats in
  (* Candidate soundness needs every variable — negated ones included —
     to carry a constant clause: the candidate union is then exactly the
     events the Strong filter keeps (see Event_filter). *)
  let rec collect acc v =
    if v >= n_all then Ok (List.rev acc)
    else
      let clause =
        Pattern.constant_conditions_on p v
        @ Option.value ~default:[] (List.assoc_opt v extras)
      in
      if clause = [] then
        Error
          (Printf.sprintf "variable %s has no constant condition"
             (Pattern.var_name p v))
      else
        match
          probe_of_var ~stats plan schema ~required:(v < n_pos) v
            ~var_name:(Pattern.var_name p v) clause
        with
        | Error _ as e -> e
        | Ok probe -> collect (probe :: acc) (v + 1)
  in
  match mode with
  | `Scan -> Scan "forced by caller"
  | (`Auto | `Index) as mode -> (
      match collect [] 0 with
      | Error reason -> Scan reason
      | Ok probes ->
          let estimate =
            List.fold_left (fun acc p -> acc + p.probe_estimate) 0 probes
          in
          if mode = `Index then Index_probe { probes; estimate; rows }
          else if
            (* Auto: probing pays off when the candidate union is clearly
               sparser than the relation — the index path re-sorts and
               τ-clips candidates, so demand at least a 2× margin. *)
            rows > 0 && 2 * estimate <= rows
          then Index_probe { probes; estimate; rows }
          else
            Scan
              (Printf.sprintf
                 "estimated %d candidate rows of %d: not selective enough"
                 estimate rows))

(* The per-variable constant clauses the plan's Strong filter tests —
   the pattern's own constant conditions conjoined with the analyzer's
   inferred extras. [Some] exactly when the plan chose [Strong], so a
   shared multi-query plan routing only clause-passing events to this
   query drops precisely the events the planned stream's own filter
   would have dropped. *)
let routing_clauses plan automaton =
  let extra =
    match plan.analysis with Some a -> a.filter_extras | None -> []
  in
  Event_filter.strong_clauses ~extra (Automaton.pattern automaton)

let options_with plan options =
  {
    options with
    Engine.filter = plan.filter;
    filter_extras =
      (match plan.analysis with Some a -> a.filter_extras | None -> []);
    precheck_constants = plan.precheck_constants;
  }

(* The plan's pruned automaton replaces the caller's only when it stems
   from the same pattern — a plan reused across automata falls back to
   the automaton it is given. *)
let effective_automaton plan automaton =
  match plan.analysis with
  | Some a when Automaton.pattern a.automaton == Automaton.pattern automaton ->
      a.automaton
  | Some _ | None -> automaton

(* Incremental execution under a plan: an engine stream over the
   effective automaton with the plan's levers layered onto the
   options. *)
let create_with ?(options = Engine.default_options) plan automaton =
  Engine.create ~options:(options_with plan options)
    (effective_automaton plan automaton)

let create ?options automaton = create_with ?options (plan automaton) automaton

let execute ?(options = Engine.default_options) plan automaton events =
  Engine.run ~options:(options_with plan options)
    (effective_automaton plan automaton)
    events

let run ?options automaton events =
  execute ?options (plan automaton) automaton events

let run_relation ?options automaton relation =
  run ?options automaton (Ses_event.Relation.to_seq relation)

let describe_access access =
  let buf = Buffer.create 128 in
  (match access with
  | Scan reason ->
      Buffer.add_string buf (Printf.sprintf "access path: full scan (%s)\n" reason)
  | Index_probe { probes; estimate; rows } ->
      Buffer.add_string buf
        (Printf.sprintf "access path: index probes (estimated %d of %d rows)\n"
           estimate rows);
      List.iter
        (fun pr ->
          let keys =
            match pr.probe_keys with
            | Some [ c ] -> Ses_event.Value.to_string c
            | Some cs ->
                Printf.sprintf "%d keys" (List.length cs)
            | None ->
                Format.asprintf "keys in %a" Ses_event.Predicate.Domain.pp
                  pr.probe_domain
          in
          Buffer.add_string buf
            (Printf.sprintf "  %s: index(%s) = %s, estimated %d row%s%s\n"
               pr.probe_var_name pr.probe_attr_name keys pr.probe_estimate
               (if pr.probe_estimate = 1 then "" else "s")
               (if pr.probe_required then "" else " (guard only)")))
        probes);
  Buffer.contents buf

let describe ?access ?pushed plan =
  let buf = Buffer.create 128 in
  Buffer.add_string buf
    (Format.asprintf "event filter: %a\n" Event_filter.pp_mode plan.filter);
  (match access with
  | Some a -> Buffer.add_string buf (describe_access a)
  | None -> ());
  (match pushed with
  | Some p -> Buffer.add_string buf (Printf.sprintf "pushed filter: %s\n" p)
  | None -> ());
  Buffer.add_string buf
    (Printf.sprintf "constant pre-check: %b\n" plan.precheck_constants);
  (* Analysis lines appear only when the analyzer changed something, so
     the description of an already-clean plan is unaffected by whether
     an analyzer is registered. *)
  (match plan.analysis with
  | None -> ()
  | Some a ->
      if a.never_matches then
        Buffer.add_string buf "analysis: pattern can never match\n";
      if a.pruned_transitions > 0 then
        Buffer.add_string buf
          (Printf.sprintf "analysis: pruned %d dead transition%s, %d state%s\n"
             a.pruned_transitions
             (if a.pruned_transitions = 1 then "" else "s")
             a.pruned_states
             (if a.pruned_states = 1 then "" else "s"));
      let n_extras = List.length a.filter_extras in
      if n_extras > 0 then
        Buffer.add_string buf
          (Printf.sprintf
             "analysis: inferred filter constraints for %d variable%s\n"
             n_extras
             (if n_extras = 1 then "" else "s")));
  List.iteri
    (fun i case ->
      Buffer.add_string buf
        (Format.asprintf "V%d: %a\n" (i + 1) Exclusivity.pp_case case))
    plan.cases;
  Buffer.contents buf
