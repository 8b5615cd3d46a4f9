type t = {
  mutable names : string list;  (* registration order *)
  options : Engine.options;
  plan : Shared_plan.t;
}

let validate names =
  if List.exists (fun n -> n = "") names then
    invalid_arg "Multi.create: empty query name";
  if List.length (List.sort_uniq String.compare names) <> List.length names
  then invalid_arg "Multi.create: duplicate query name"

let plan_reg (name, automaton, strategy) =
  { Shared_plan.r_name = name; r_automaton = automaton; r_strategy = strategy }

let create_mixed ?(options = Engine.default_options) queries =
  let names = List.map (fun (name, _, _) -> name) queries in
  validate names;
  {
    names;
    options;
    plan = Shared_plan.create ~options (List.map plan_reg queries);
  }

let create ?options ?(strategy = `Plain) queries =
  create_mixed ?options
    (List.map (fun (name, automaton) -> (name, automaton, strategy)) queries)

let names t = t.names

let feed t event = Shared_plan.feed t.plan event

let feed_batch t events = Shared_plan.feed_batch t.plan events

let close t = Shared_plan.close t.plan

let population t = Shared_plan.population t.plan

let outcome t (r : Shared_plan.query_result) =
  let matches =
    if t.options.Engine.finalize then
      Substitution.finalize ~policy:t.options.Engine.policy
        (Automaton.pattern r.q_automaton) r.q_raw
    else r.q_raw
  in
  { Engine.matches; raw = r.q_raw; metrics = r.q_metrics }

let outcomes t =
  List.map
    (fun (r : Shared_plan.query_result) -> (r.q_name, outcome t r))
    (Shared_plan.results t.plan)

let shared_stats t = [ Shared_plan.stats t.plan ]

let register t ((name, _, _) as query) =
  if name = "" then invalid_arg "Multi.register: empty query name";
  if List.exists (String.equal name) t.names then
    invalid_arg ("Multi.register: duplicate query name " ^ name);
  Shared_plan.register t.plan (plan_reg query);
  t.names <- t.names @ [ name ]

let unregister t name =
  if not (List.exists (String.equal name) t.names) then
    invalid_arg ("Multi.unregister: unknown query " ^ name);
  let r = Shared_plan.retire t.plan name in
  t.names <- List.filter (fun n -> not (String.equal n name)) t.names;
  outcome t r

let run ?options ?strategy queries events =
  let t = create ?options ?strategy queries in
  (* Chunk the stream through [feed_batch] so the per-batch
     amortizations (routing, engine prechecks, telemetry) activate here
     too. *)
  Executor.iter_chunks ~batch_size:t.options.Engine.batch_size
    (fun chunk -> ignore (feed_batch t chunk))
    events;
  ignore (close t);
  outcomes t
