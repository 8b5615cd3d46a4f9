(* Direct unit tests of the state-indexed instance store: bucket order,
   the expired-prefix pop, the two-phase stage/commit discipline, and the
   O(1) size counter. Instances here are just (first_ts, seq) pairs. *)

open Ses_core

let make () = Instance_store.create ~ts_of:fst ~seq_of:snd ()

let q0 = Varset.empty

let q1 = Varset.singleton 0

let q2 = Varset.of_list [ 0; 1 ]

let h = Instance_store.handle

let fill st items =
  List.iter (fun ((_, _) as i, q) -> Instance_store.stage (h st q) i) items;
  Instance_store.commit st

let test_size_tracking () =
  let st = make () in
  Alcotest.(check int) "empty" 0 (Instance_store.size st);
  Instance_store.stage (h st q1) (0, 1);
  Alcotest.(check int) "staged is invisible" 0 (Instance_store.size st);
  Instance_store.commit st;
  Alcotest.(check int) "committed" 1 (Instance_store.size st);
  fill st [ ((1, 2), q1); ((0, 3), q2) ];
  Alcotest.(check int) "three total" 3 (Instance_store.size st);
  Alcotest.(check int) "bucket q1" 2 (Instance_store.handle_size (h st q1));
  Alcotest.(check int) "bucket q2" 1 (Instance_store.handle_size (h st q2));
  Alcotest.(check int) "bucket q0 empty" 0
    (Instance_store.handle_size (h st q0));
  Instance_store.clear st;
  Alcotest.(check int) "cleared" 0 (Instance_store.size st)

let test_bucket_order () =
  let st = make () in
  (* Staged out of order; ties on ts broken by seq. *)
  fill st [ ((5, 3), q1); ((1, 2), q1); ((5, 1), q1); ((0, 4), q1) ];
  Alcotest.(check (list (pair int int)))
    "sorted by (ts, seq)"
    [ (0, 4); (1, 2); (5, 1); (5, 3) ]
    (Instance_store.take_all (h st q1));
  Alcotest.(check int) "take_all drains" 0 (Instance_store.size st)

let test_commit_merges_into_existing () =
  let st = make () in
  fill st [ ((1, 1), q1); ((5, 2), q1) ];
  fill st [ ((0, 3), q1); ((3, 4), q1); ((9, 5), q1) ];
  Alcotest.(check (list (pair int int)))
    "interleaved merge"
    [ (0, 3); (1, 1); (3, 4); (5, 2); (9, 5) ]
    (Instance_store.take_all (h st q1))

let test_pop_expired_prefix () =
  let st = make () in
  fill st [ ((0, 1), q1); ((2, 2), q1); ((4, 3), q1); ((6, 4), q1) ];
  (* At time 6 with a window of 2, the windows opened before 4 have
     closed. *)
  let dead = Instance_store.pop_expired (h st q1) ~now:6 ~tau:2 in
  Alcotest.(check (list (pair int int))) "expired prefix" [ (0, 1); (2, 2) ] dead;
  Alcotest.(check int) "survivors stay" 2 (Instance_store.size st);
  let none = Instance_store.pop_expired (h st q1) ~now:6 ~tau:2 in
  Alcotest.(check (list (pair int int))) "nothing expired" [] none;
  let rest = Instance_store.pop_expired (h st q1) ~now:100 ~tau:0 in
  Alcotest.(check (list (pair int int)))
    "rest expires in order" [ (4, 3); (6, 4) ] rest;
  Alcotest.(check int) "empty again" 0 (Instance_store.size st)

let test_take_all_put_back () =
  let st = make () in
  fill st [ ((0, 1), q1); ((2, 2), q1); ((4, 3), q1) ];
  let items = Instance_store.take_all (h st q1) in
  let survivors = List.filter (fun (_, s) -> s <> 2) items in
  Instance_store.put_back (h st q1) survivors;
  Alcotest.(check int) "two back" 2 (Instance_store.size st);
  Alcotest.(check (list (pair int int)))
    "order preserved" [ (0, 1); (4, 3) ]
    (Instance_store.take_all (h st q1))

let test_fold_buckets_order () =
  let st = make () in
  fill st [ ((0, 1), q2); ((0, 2), q0); ((0, 3), q1); ((1, 4), q1) ];
  let states =
    List.rev
      (Instance_store.fold_buckets (fun q _ acc -> q :: acc) st [])
  in
  (* Ascending state order, deterministic regardless of hash layout. *)
  Alcotest.(check bool) "ascending states" true
    (states = List.sort Varset.compare states);
  Alcotest.(check int) "three non-empty buckets" 3 (List.length states);
  Alcotest.(check (list (pair int int)))
    "to_list concatenates bucket order"
    (Instance_store.fold_buckets (fun _ items acc -> acc @ items) st [])
    (Instance_store.to_list st)

let suite =
  [
    Alcotest.test_case "size tracking" `Quick test_size_tracking;
    Alcotest.test_case "bucket order" `Quick test_bucket_order;
    Alcotest.test_case "commit merges" `Quick test_commit_merges_into_existing;
    Alcotest.test_case "pop expired prefix" `Quick test_pop_expired_prefix;
    Alcotest.test_case "take_all / put_back" `Quick test_take_all_put_back;
    Alcotest.test_case "fold order" `Quick test_fold_buckets_order;
  ]
