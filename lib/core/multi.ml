open Ses_event

(* Domain-parallel mode: registrations are dealt round-robin into
   shards and each worker domain builds its own shared plan over its
   shard — built {e on} the worker through {!Domain_pool.create},
   so the plan's interior mutability stays domain-local. The feed is
   broadcast in batches through a {!Domain_pool.batcher}, amortising the
   queue handshake; per-query results are read after quiesce/shutdown,
   which establish the happens-before edges. *)
type parallel = {
  pool : Event.t array Domain_pool.t;
  plans : Shared_plan.t array;  (* shard order; read after quiesce *)
  batcher : Event.t Domain_pool.batcher;
  mutable flushed : bool;
}

type backend = Sequential of Shared_plan.t | Parallel of parallel

type t = {
  mutable names : string list;  (* registration order *)
  options : Engine.options;
  backend : backend;
}

let validate names =
  if List.exists (fun n -> n = "") names then
    invalid_arg "Multi.create: empty query name";
  if List.length (List.sort_uniq String.compare names) <> List.length names
  then invalid_arg "Multi.create: duplicate query name"

(* Round-robin by registration order: shard [k] gets the registrations
   at positions k, k + n, k + 2n, ... *)
let deal n xs = Array.init n (fun k -> List.filteri (fun i _ -> i mod n = k) xs)

let plan_reg (name, automaton, strategy) =
  { Shared_plan.r_name = name; r_automaton = automaton; r_strategy = strategy }

let make_parallel options domains regs =
  let shards = deal domains regs in
  (* Each worker's plan records through its own telemetry fork. The
     forks are created here, on the calling thread, but written only by
     their worker. *)
  let shard_options =
    Array.map
      (fun _ ->
        {
          options with
          Engine.telemetry = Option.map Telemetry.fork options.Engine.telemetry;
        })
      shards
  in
  let slots = Array.make domains None in
  let pool =
    Domain_pool.create ?telemetry:options.Engine.telemetry ~domains
      ~init:(fun i ->
        let plan = Shared_plan.create ~options:shard_options.(i) shards.(i) in
        slots.(i) <- Some plan;
        plan)
      (* Per-event feeding: the chunking only amortizes the queue
         handshake. Matches and raw emissions equal the sequential
         mode's; the population peak may not (see multi.mli). *)
      (fun plan events ->
        Array.iter (fun e -> ignore (Shared_plan.feed plan e)) events)
  in
  (* The ready handshake in [Domain_pool.create] makes the inits' writes
     visible here. *)
  let plans = Array.map Option.get slots in
  let batch_hist =
    Option.map
      (fun tl -> Telemetry.histogram tl "pool.batch_events")
      options.Engine.telemetry
  in
  let batcher =
    Domain_pool.batcher ?hist:batch_hist
      ~limit:(max 1 options.Engine.batch_size) pool
  in
  Parallel { pool; plans; batcher; flushed = false }

let create_mixed ?(options = Engine.default_options) queries =
  let names = List.map (fun (name, _, _) -> name) queries in
  validate names;
  let regs = List.map plan_reg queries in
  let domains = min options.Engine.domains (List.length queries) in
  let backend =
    if domains <= 1 then Sequential (Shared_plan.create ~options regs)
    else make_parallel options domains regs
  in
  { names; options; backend }

let create ?options ?(strategy = `Plain) queries =
  create_mixed ?options
    (List.map (fun (name, automaton) -> (name, automaton, strategy)) queries)

let names t = t.names

let n_domains t =
  match t.backend with
  | Sequential _ -> 1
  | Parallel p -> Domain_pool.size p.pool

(* Per-name results in global registration order (each shard preserves
   its own registration order, but shards interleave). *)
let reorder t pairs =
  let idx = Hashtbl.create 16 in
  List.iteri (fun i n -> Hashtbl.replace idx n i) t.names;
  List.sort
    (fun (a, _) (b, _) ->
      Int.compare (Hashtbl.find idx a) (Hashtbl.find idx b))
    pairs

let feed t event =
  match t.backend with
  | Sequential plan -> Shared_plan.feed plan event
  | Parallel p ->
      if p.flushed then invalid_arg "Multi.feed: query set is closed";
      (* Broadcast: every worker receives every event and drives its own
         queries. Per-event completions surface at [close]/[outcomes]. *)
      Domain_pool.broadcast p.batcher event;
      []

let feed_batch t events =
  match t.backend with
  | Sequential plan -> Shared_plan.feed_batch plan events
  | Parallel p ->
      if p.flushed then invalid_arg "Multi.feed_batch: query set is closed";
      Array.iter (fun event -> Domain_pool.broadcast p.batcher event) events;
      []

let close t =
  match t.backend with
  | Sequential plan -> Shared_plan.close plan
  | Parallel p ->
      (* Join the workers first (shutdown flushes the broadcast batcher
         before closing the queues): afterwards the plans are owned by
         the calling thread again. *)
      Domain_pool.shutdown p.pool;
      if p.flushed then []
      else begin
        p.flushed <- true;
        reorder t (List.concat_map Shared_plan.close (Array.to_list p.plans))
      end

(* The plans, readable from the calling thread. *)
let plans t =
  match t.backend with
  | Sequential plan -> [ plan ]
  | Parallel p ->
      Domain_pool.quiesce p.pool;
      Array.to_list p.plans

let population t =
  List.fold_left (fun acc sp -> acc + Shared_plan.population sp) 0 (plans t)

let outcome t (r : Shared_plan.query_result) =
  let matches =
    if t.options.Engine.finalize then
      Substitution.finalize ~policy:t.options.Engine.policy
        (Automaton.pattern r.q_automaton) r.q_raw
    else r.q_raw
  in
  { Engine.matches; raw = r.q_raw; metrics = r.q_metrics }

let outcomes t =
  reorder t
    (List.concat_map
       (fun sp ->
         List.map
           (fun (r : Shared_plan.query_result) -> (r.q_name, outcome t r))
           (Shared_plan.results sp))
       (plans t))

(* Every query observes the whole feed (routed metrics are compensated
   to the unrouted view), so the cross-query summary uses the replica
   accounting: input counters agree (max), work counters and the
   simultaneous-instance peaks sum. *)
let merged_metrics t =
  Metrics.merge_replicas
    (List.concat_map
       (fun sp ->
         List.map
           (fun (r : Shared_plan.query_result) -> r.q_metrics)
           (Shared_plan.results sp))
       (plans t))

let shared_stats t = List.map Shared_plan.stats (plans t)

(* ------------------------------------------------------------------ *)
(* Runtime registration (sequential mode only).                       *)
(* ------------------------------------------------------------------ *)

let sequential_plan t op =
  match t.backend with
  | Sequential plan -> plan
  | Parallel _ ->
      invalid_arg
        ("Multi." ^ op ^ ": domain-parallel query sets are fixed at creation")

let register t ((name, _, _) as query) =
  let plan = sequential_plan t "register" in
  if name = "" then invalid_arg "Multi.register: empty query name";
  if List.exists (String.equal name) t.names then
    invalid_arg ("Multi.register: duplicate query name " ^ name);
  Shared_plan.register plan (plan_reg query);
  t.names <- t.names @ [ name ]

let unregister t name =
  let plan = sequential_plan t "unregister" in
  if not (List.exists (String.equal name) t.names) then
    invalid_arg ("Multi.unregister: unknown query " ^ name);
  let r = Shared_plan.retire plan name in
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
