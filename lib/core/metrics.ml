type t = {
  mutable events_seen : int;
  mutable events_filtered : int;
  mutable instances_created : int;
  mutable max_simultaneous_instances : int;
  mutable transitions_fired : int;
  mutable instances_expired : int;
  mutable instances_killed : int;
  mutable instances_pruned : int;
  mutable matches_emitted : int;
}

type snapshot = {
  events_seen : int;
  events_filtered : int;
  instances_created : int;
  max_simultaneous_instances : int;
  transitions_fired : int;
  instances_expired : int;
  instances_killed : int;
  instances_pruned : int;
  matches_emitted : int;
}

let create () : t =
  {
    events_seen = 0;
    events_filtered = 0;
    instances_created = 0;
    max_simultaneous_instances = 0;
    transitions_fired = 0;
    instances_expired = 0;
    instances_killed = 0;
    instances_pruned = 0;
    matches_emitted = 0;
  }

let on_event (m : t) = m.events_seen <- m.events_seen + 1

let on_events (m : t) n = m.events_seen <- m.events_seen + n

let on_filtered (m : t) = m.events_filtered <- m.events_filtered + 1

let on_filtered_many (m : t) n = m.events_filtered <- m.events_filtered + n

let on_instance_created (m : t) = m.instances_created <- m.instances_created + 1

let on_transition (m : t) = m.transitions_fired <- m.transitions_fired + 1

let on_expired (m : t) = m.instances_expired <- m.instances_expired + 1

let on_killed (m : t) = m.instances_killed <- m.instances_killed + 1

let on_pruned (m : t) = m.instances_pruned <- m.instances_pruned + 1

let on_instances_created_many (m : t) n =
  m.instances_created <- m.instances_created + n

let on_transitions_many (m : t) n =
  m.transitions_fired <- m.transitions_fired + n

let on_expired_many (m : t) n = m.instances_expired <- m.instances_expired + n

let on_killed_many (m : t) n = m.instances_killed <- m.instances_killed + n

let on_match (m : t) = m.matches_emitted <- m.matches_emitted + 1

let sample_population (m : t) n =
  if n > m.max_simultaneous_instances then m.max_simultaneous_instances <- n

let snapshot (m : t) : snapshot =
  {
    events_seen = m.events_seen;
    events_filtered = m.events_filtered;
    instances_created = m.instances_created;
    max_simultaneous_instances = m.max_simultaneous_instances;
    transitions_fired = m.transitions_fired;
    instances_expired = m.instances_expired;
    instances_killed = m.instances_killed;
    instances_pruned = m.instances_pruned;
    matches_emitted = m.matches_emitted;
  }

(* Replica accounting (the paper's Sec. 5.2 bookkeeping for the
   brute-force baseline): every replica consumes the whole input, so the
   input-side counters take the max (they are equal across replicas)
   while the work-side counters sum — including the instance peaks,
   since the replicated automata run simultaneously. *)
let merge_replicas snapshots =
  List.fold_left
    (fun acc s ->
      {
        events_seen = max acc.events_seen s.events_seen;
        events_filtered = max acc.events_filtered s.events_filtered;
        instances_created = acc.instances_created + s.instances_created;
        max_simultaneous_instances =
          acc.max_simultaneous_instances + s.max_simultaneous_instances;
        transitions_fired = acc.transitions_fired + s.transitions_fired;
        instances_expired = acc.instances_expired + s.instances_expired;
        instances_killed = acc.instances_killed + s.instances_killed;
        instances_pruned = acc.instances_pruned + s.instances_pruned;
        matches_emitted = acc.matches_emitted + s.matches_emitted;
      })
    {
      events_seen = 0;
      events_filtered = 0;
      instances_created = 0;
      max_simultaneous_instances = 0;
      transitions_fired = 0;
      instances_expired = 0;
      instances_killed = 0;
      instances_pruned = 0;
      matches_emitted = 0;
    }
    snapshots

let zero =
  {
    events_seen = 0;
    events_filtered = 0;
    instances_created = 0;
    max_simultaneous_instances = 0;
    transitions_fired = 0;
    instances_expired = 0;
    instances_killed = 0;
    instances_pruned = 0;
    matches_emitted = 0;
  }

let to_json s =
  Printf.sprintf
    "{\"events_seen\":%d,\"events_filtered\":%d,\"instances_created\":%d,\"max_simultaneous_instances\":%d,\"transitions_fired\":%d,\"instances_expired\":%d,\"instances_killed\":%d,\"instances_pruned\":%d,\"matches_emitted\":%d}"
    s.events_seen s.events_filtered s.instances_created
    s.max_simultaneous_instances s.transitions_fired s.instances_expired
    s.instances_killed s.instances_pruned s.matches_emitted

let pp ppf s =
  Format.fprintf ppf
    "@[<v>events seen:        %d@,events filtered:    %d@,instances created:  %d@,max simultaneous:   %d@,transitions fired:  %d@,instances expired:  %d@,instances killed:   %d@,instances pruned:   %d@,matches emitted:    %d@]"
    s.events_seen s.events_filtered s.instances_created
    s.max_simultaneous_instances s.transitions_fired s.instances_expired
    s.instances_killed s.instances_pruned s.matches_emitted
