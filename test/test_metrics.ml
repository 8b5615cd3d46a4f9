(* Merge semantics of the runtime counters: replicated executors agree
   on the input counters (max) and sum the work side including the
   peaks. *)

open Ses_core

let snapshot = Alcotest.testable Metrics.pp ( = )

let a =
  {
    Metrics.events_seen = 10;
    events_filtered = 3;
    instances_created = 7;
    max_simultaneous_instances = 5;
    transitions_fired = 20;
    instances_expired = 2;
    instances_killed = 1;
    instances_pruned = 6;
    matches_emitted = 4;
  }

let b =
  {
    Metrics.events_seen = 6;
    events_filtered = 1;
    instances_created = 2;
    max_simultaneous_instances = 9;
    transitions_fired = 8;
    instances_expired = 0;
    instances_killed = 3;
    instances_pruned = 5;
    matches_emitted = 2;
  }

let test_merge_replicas () =
  let m = Metrics.merge_replicas [ a; b ] in
  (* Replicas each consume the whole input, so the input counters agree
     and take the max rather than double-counting. *)
  Alcotest.(check int) "events_seen is a max" 10 m.Metrics.events_seen;
  Alcotest.(check int) "events_filtered is a max" 3 m.Metrics.events_filtered;
  (* The work side really is disjoint across replicas and sums — and
     the automata run simultaneously, so the peaks sum too. *)
  Alcotest.(check int) "instances_created sums" 9 m.Metrics.instances_created;
  Alcotest.(check int) "transitions_fired sums" 28 m.Metrics.transitions_fired;
  Alcotest.(check int) "instances_expired sums" 2 m.Metrics.instances_expired;
  Alcotest.(check int) "instances_killed sums" 4 m.Metrics.instances_killed;
  Alcotest.(check int) "instances_pruned sums" 11 m.Metrics.instances_pruned;
  Alcotest.(check int) "matches_emitted sums" 6 m.Metrics.matches_emitted;
  Alcotest.(check int) "max_simultaneous_instances sums" 14
    m.Metrics.max_simultaneous_instances

let test_merge_replicas_identity () =
  Alcotest.check snapshot "merge_replicas [] = zero" Metrics.zero
    (Metrics.merge_replicas []);
  Alcotest.check snapshot "merge_replicas of one snapshot is itself" a
    (Metrics.merge_replicas [ a ])

let suite =
  [
    Alcotest.test_case "merge_replicas: max inputs, summed work" `Quick
      test_merge_replicas;
    Alcotest.test_case "merge_replicas: identities" `Quick
      test_merge_replicas_identity;
  ]
