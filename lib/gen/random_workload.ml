open Ses_event
open Ses_pattern

let schema =
  Schema.make_exn
    [ ("ID", Value.Tint); ("L", Value.Tstr); ("V", Value.Tint) ]

type relation_spec = {
  n_events : int;
  n_labels : int;
  n_ids : int;
  min_gap : int;
  max_gap : int;
  max_value : int;
}

let default_relation =
  { n_events = 40; n_labels = 3; n_ids = 2; min_gap = 0; max_gap = 4;
    max_value = 5 }

let label_of_index i = String.make 1 (Char.chr (Char.code 'a' + i))

let relation rng spec =
  let rows = ref [] in
  let ts = ref 0 in
  for _ = 1 to spec.n_events do
    ts := !ts + spec.min_gap + Prng.int rng (spec.max_gap - spec.min_gap + 1);
    let payload =
      [|
        Value.Int (1 + Prng.int rng spec.n_ids);
        Value.Str (label_of_index (Prng.int rng spec.n_labels));
        Value.Int (Prng.int rng (spec.max_value + 1));
      |]
    in
    rows := (payload, !ts) :: !rows
  done;
  Relation.of_rows_exn schema (List.rev !rows)

(* D1–D5-style scaling (the paper's Sec. 5 datasets duplicate a base
   relation to grow it): every generated base event is emitted [copies]
   times at its own timestamp, each copy shifted into a disjoint
   entity-id range, so the relation grows [copies]-fold while each id's
   sub-stream keeps the base spec's shape — dense simultaneous arrivals
   over many independent keys, the regime the batched path and the
   engine's key sub-buckets target. Millions of events in well under a second. *)
let duplicated_relation rng ~copies spec =
  if copies < 1 then invalid_arg "Random_workload.duplicated_relation: copies < 1";
  let rows = ref [] in
  let ts = ref 0 in
  for _ = 1 to spec.n_events do
    ts := !ts + spec.min_gap + Prng.int rng (spec.max_gap - spec.min_gap + 1);
    let id = 1 + Prng.int rng spec.n_ids in
    let label = Value.Str (label_of_index (Prng.int rng spec.n_labels)) in
    let v = Value.Int (Prng.int rng (spec.max_value + 1)) in
    for c = 0 to copies - 1 do
      rows := ([| Value.Int (id + (c * spec.n_ids)); label; v |], !ts) :: !rows
    done
  done;
  Relation.of_rows_exn schema (List.rev !rows)

type join_shape =
  | Complete
  | Star
  | Chain

type pattern_spec = {
  max_sets : int;
  max_vars_per_set : int;
  allow_groups : bool;
  p_label_cond : float;
  p_id_join : float;
  join_shapes : join_shape list;
  p_value_cond : float;
  n_labels : int;
  max_value : int;
  tau_min : int;
  tau_max : int;
}

let default_pattern =
  {
    max_sets = 2;
    max_vars_per_set = 2;
    allow_groups = true;
    p_label_cond = 0.9;
    p_id_join = 0.5;
    join_shapes = [ Complete ];
    p_value_cond = 0.2;
    n_labels = 3;
    max_value = 5;
    tau_min = 5;
    tau_max = 20;
  }

let pattern rng spec =
  let n_sets = 1 + Prng.int rng spec.max_sets in
  let counter = ref 0 in
  (* At most one group variable: two or more unconstrained group variables
     in one set make the instance pool grow exponentially (Theorem 3 with
     k > 1), which is hostile to a property-test budget. *)
  let has_group = ref false in
  let fresh_var () =
    let name = Printf.sprintf "v%d" !counter in
    incr counter;
    if spec.allow_groups && (not !has_group) && Prng.chance rng 0.3 then begin
      has_group := true;
      Variable.group name
    end
    else Variable.singleton name
  in
  let sets =
    List.init n_sets (fun _ ->
        List.init (1 + Prng.int rng spec.max_vars_per_set) (fun _ ->
            fresh_var ()))
  in
  let all_vars = List.concat sets in
  let names = List.map (fun (v : Variable.t) -> v.name) all_vars in
  let label_conds =
    List.filter_map
      (fun name ->
        if Prng.chance rng spec.p_label_cond then
          Some
            (Pattern.Spec.const name "L" Predicate.Eq
               (Value.Str (label_of_index (Prng.int rng spec.n_labels))))
        else None)
      names
  in
  let value_conds =
    List.filter_map
      (fun name ->
        if Prng.chance rng spec.p_value_cond then
          let op = Prng.pick rng Predicate.[ Le; Ge; Neq ] in
          Some
            (Pattern.Spec.const name "V" op
               (Value.Int (Prng.int rng (spec.max_value + 1))))
        else None)
      names
  in
  let id_joins =
    (* A complete ID-equality graph is redundant transitively, but
       condition attachment is syntactic and the completeness is what
       pins every transition to the key, so that each state's instances
       are probed per key. A star (Q1's shape) or a chain leaves bound
       join partners unjoined to each other. The shape is drawn only when there is a choice, so a
       single-shape spec consumes the same randomness as before. *)
    if Prng.chance rng spec.p_id_join then
      let join a b = Pattern.Spec.fields a "ID" Predicate.Eq b "ID" in
      let shape =
        match spec.join_shapes with
        | [ shape ] -> shape
        | shapes -> Prng.pick rng shapes
      in
      match shape with
      | Complete ->
          List.concat_map
            (fun name ->
              List.filter_map
                (fun name' ->
                  if name < name' then Some (join name name') else None)
                names)
            names
      | Star ->
          let centre = Prng.pick rng names in
          List.filter_map
            (fun name -> if name = centre then None else Some (join centre name))
            names
      | Chain ->
          let rec links = function
            | a :: (b :: _ as rest) -> join a b :: links rest
            | [ _ ] | [] -> []
          in
          links names
    else []
  in
  let tau = spec.tau_min + Prng.int rng (spec.tau_max - spec.tau_min + 1) in
  Pattern.make_exn ~schema ~sets
    ~where:(label_conds @ value_conds @ id_joins)
    ~within:tau
