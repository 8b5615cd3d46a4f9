(* Domain_pool unit tests: per-worker FIFO ordering, quiesce as a
   read barrier, idempotent shutdown, and failure propagation without
   producer deadlock. Each worker's state is its index, built by [init]
   on its own domain; workers only touch their own array slot, so the
   quiesce/shutdown happens-before edges make the caller's reads
   race-free. *)

open Ses_core

let test_fifo_per_worker () =
  let domains = 3 in
  let sink = Array.make domains [] in
  let pool =
    Domain_pool.create ~domains ~init:Fun.id (fun i x ->
        sink.(i) <- x :: sink.(i))
  in
  Alcotest.(check int) "size" domains (Domain_pool.size pool);
  for x = 0 to 299 do
    Domain_pool.send pool (x mod domains) x
  done;
  Domain_pool.shutdown pool;
  Array.iteri
    (fun i acc ->
      let expected = List.init 100 (fun k -> (k * domains) + i) in
      Alcotest.(check (list int))
        (Printf.sprintf "worker %d processes in send order" i)
        expected (List.rev acc))
    sink

let test_quiesce_and_idempotent_shutdown () =
  let counts = Array.make 2 0 in
  let pool =
    Domain_pool.create ~domains:2 ~init:Fun.id (fun i (_ : int) ->
        counts.(i) <- counts.(i) + 1)
  in
  for x = 1 to 50 do
    Domain_pool.send pool (x mod 2) x
  done;
  Domain_pool.quiesce pool;
  Alcotest.(check int) "all processed at quiesce" 50 (counts.(0) + counts.(1));
  (* The pool keeps accepting work after a quiesce. *)
  for x = 1 to 30 do
    Domain_pool.send pool (x mod 2) x
  done;
  Domain_pool.quiesce pool;
  Alcotest.(check int) "second batch processed" 80 (counts.(0) + counts.(1));
  Domain_pool.shutdown pool;
  Domain_pool.shutdown pool;
  (* no-op, not an error *)
  Domain_pool.quiesce pool;
  Alcotest.(check int) "shutdown drained everything" 80
    (counts.(0) + counts.(1));
  Alcotest.check_raises "send after shutdown"
    (Invalid_argument "Domain_pool.send: pool is shut down") (fun () ->
      Domain_pool.send pool 0 0)

(* A queue bound far smaller than the message count: send must block on
   the full queue rather than drop or fail, so every message still gets
   processed. *)
let test_bounded_queue_backpressure () =
  let counts = Array.make 1 0 in
  let pool =
    Domain_pool.create ~capacity:2 ~domains:1 ~init:Fun.id (fun _ (_ : int) ->
        counts.(0) <- counts.(0) + 1)
  in
  for x = 1 to 500 do
    Domain_pool.send pool 0 x
  done;
  Domain_pool.shutdown pool;
  Alcotest.(check int) "all messages delivered" 500 counts.(0)

exception Boom

(* A worker exception must reach the producer at a later [send] or at a
   synchronisation point — and the worker must keep draining its queue
   meanwhile, so the producer can never deadlock on a full queue. The
   send volume here is far beyond the queue capacity on purpose. *)
let test_failure_propagates () =
  let pool =
    Domain_pool.create ~capacity:16 ~domains:1 ~init:Fun.id (fun _ x ->
        if x = 5 then raise Boom)
  in
  let surfaced = ref false in
  (try
     for x = 0 to 10_000 do
       Domain_pool.send pool 0 x
     done
   with Boom -> surfaced := true);
  if not !surfaced then (
    try Domain_pool.quiesce pool with Boom -> surfaced := true);
  Alcotest.(check bool) "worker exception re-raised to producer" true
    !surfaced;
  (* Shutdown re-raises too, but still joins the domains first. *)
  (try Domain_pool.shutdown pool with Boom -> ());
  Alcotest.check_raises "pool unusable after shutdown"
    (Invalid_argument "Domain_pool.send: pool is shut down") (fun () ->
      Domain_pool.send pool 0 0)

let test_validation () =
  Alcotest.check_raises "domains < 1"
    (Invalid_argument "Domain_pool.create: domains < 1") (fun () ->
      ignore
        (Domain_pool.create ~domains:0 ~init:Fun.id (fun _ (_ : int) -> ())));
  Alcotest.check_raises "capacity < 1"
    (Invalid_argument "Domain_pool.create: capacity < 1") (fun () ->
      ignore
        (Domain_pool.create ~capacity:0 ~domains:1 ~init:Fun.id
           (fun _ (_ : int) -> ())));
  Alcotest.(check bool) "recommended is positive" true
    (Domain_pool.recommended () >= 1)

let suite =
  [
    Alcotest.test_case "per-worker FIFO order" `Quick test_fifo_per_worker;
    Alcotest.test_case "quiesce and idempotent shutdown" `Quick
      test_quiesce_and_idempotent_shutdown;
    Alcotest.test_case "bounded queue backpressure" `Quick
      test_bounded_queue_backpressure;
    Alcotest.test_case "failure propagation" `Quick test_failure_propagates;
    Alcotest.test_case "argument validation" `Quick test_validation;
  ]
