(* A fixed pool of worker domains, each fed through its own bounded
   FIFO queue.

   The pool is the substrate of domain-parallel {!Multi}: the caller's
   thread is the single producer, each worker domain is the single
   consumer of its own queue, so every message sent to worker [i] is
   processed sequentially and in send order. Workers own their state
   (built by [init] on their own domain); the mutex/condition handshakes
   of [quiesce] and the [Domain.join] of [shutdown] publish that state to
   the caller, so reading it after either call is race-free under the
   OCaml 5 memory model. (The handshake alone is what synchronizes:
   [quiesce] observes [pending = 0] under each worker's mutex — a lock
   the worker last released *after* its final write to worker state —
   and [shutdown] joins the domain, whose termination happens-after
   everything the worker did. Both therefore order all worker writes
   before the caller's subsequent reads.)

   Producer-side batching lives here too: a [batcher] buffers broadcast
   items and ships them as one array to every worker when the buffer
   fills. Both [quiesce] and [shutdown] first flush every batcher
   registered on the pool, so a partial batch can never be stranded in
   the producer's buffer at a synchronization point — the flush happens
   while the pool still accepts sends, before queues are drained or
   closed. *)

type 'a worker = {
  queue : 'a Queue.t;
  mutex : Mutex.t;
  not_empty : Condition.t;
  not_full : Condition.t;
  idle : Condition.t;  (* signalled when [pending] drops to 0 *)
  mutable pending : int;  (* queued + currently being processed *)
  mutable closed : bool;
  mutable ready : bool;  (* worker-side init completed (or failed) *)
  mutable failure : exn option;  (* first exception raised by [f] *)
  mutable handle : unit Domain.t option;
}

type 'a t = {
  workers : 'a worker array;
  capacity : int;
  depth : Telemetry.Gauge.t option;  (* queue depth sampled on send *)
  mutable stopped : bool;
  mutable flushers : (unit -> unit) list;
      (* registered batcher flushes, run by [quiesce]/[shutdown] while
         the pool still accepts sends *)
}

let default_capacity = 1024

let make_worker () =
  {
    queue = Queue.create ();
    mutex = Mutex.create ();
    not_empty = Condition.create ();
    not_full = Condition.create ();
    idle = Condition.create ();
    pending = 0;
    closed = false;
    ready = false;
    failure = None;
    handle = None;
  }

(* The worker loop: pop, process outside the lock, account. After a
   failure the worker keeps draining its queue without processing — the
   producer must never deadlock on a full queue — and the stored
   exception is re-raised on the caller's side by [send], [quiesce] or
   [shutdown]. *)
let worker_loop w f =
  let rec loop () =
    Mutex.lock w.mutex;
    while Queue.is_empty w.queue && not w.closed do
      Condition.wait w.not_empty w.mutex
    done;
    if Queue.is_empty w.queue then Mutex.unlock w.mutex (* closed: exit *)
    else begin
      let x = Queue.pop w.queue in
      Condition.signal w.not_full;
      let broken = w.failure <> None in
      Mutex.unlock w.mutex;
      let failed = if broken then None else (try f x; None with e -> Some e) in
      Mutex.lock w.mutex;
      (match failed with
      | Some e when w.failure = None -> w.failure <- Some e
      | Some _ | None -> ());
      w.pending <- w.pending - 1;
      if w.pending = 0 then Condition.broadcast w.idle;
      Mutex.unlock w.mutex;
      loop ()
    end
  in
  loop ()

(* [init i] runs *on* worker [i]'s domain before it processes anything,
   and [create] waits for every worker's ready flag (set under its
   mutex) before returning — so the init's writes happen-before anything
   the caller does with the pool, and a caller-side read of state the
   init published (e.g. a slot the worker filled) is race-free
   immediately. An init that raises marks the worker failed and ready;
   the exception then re-raises on the caller's side like a processing
   failure, and the worker keeps draining its queue so the producer
   never deadlocks. *)
let create ?(capacity = default_capacity) ?telemetry ~domains ~init f =
  if domains < 1 then invalid_arg "Domain_pool.create: domains < 1";
  if capacity < 1 then invalid_arg "Domain_pool.create: capacity < 1";
  let workers = Array.init domains (fun _ -> make_worker ()) in
  Array.iteri
    (fun i w ->
      (* Each worker writes its span through its own forked recorder
         (spans are single-writer); the handle is resolved before
         [Domain.spawn], whose happens-before covers the publication. *)
      let sp =
        Option.map
          (fun tl ->
            Telemetry.span (Telemetry.fork tl) (Printf.sprintf "worker.%d" i))
          telemetry
      in
      w.handle <-
        Some
          (Domain.spawn (fun () ->
               let run =
                 match (try Ok (init i) with e -> Error e) with
                 | Error e ->
                     Mutex.lock w.mutex;
                     w.failure <- Some e;
                     Mutex.unlock w.mutex;
                     fun _ -> ()
                 | Ok state -> (
                     let body x = f state x in
                     match sp with
                     | None -> body
                     | Some sp ->
                         fun x -> Telemetry.Span.record sp (fun () -> body x))
               in
               Mutex.lock w.mutex;
               w.ready <- true;
               Condition.broadcast w.idle;
               Mutex.unlock w.mutex;
               worker_loop w run)))
    workers;
  Array.iter
    (fun w ->
      Mutex.lock w.mutex;
      while not w.ready do
        Condition.wait w.idle w.mutex
      done;
      Mutex.unlock w.mutex)
    workers;
  let depth =
    Option.map (fun tl -> Telemetry.gauge tl "pool.queue_depth") telemetry
  in
  { workers; capacity; depth; stopped = false; flushers = [] }

let size pool = Array.length pool.workers

let check_failure w =
  match w.failure with
  | Some e ->
      Mutex.unlock w.mutex;
      raise e
  | None -> ()

let send pool i x =
  if pool.stopped then invalid_arg "Domain_pool.send: pool is shut down";
  let w = pool.workers.(i) in
  Mutex.lock w.mutex;
  check_failure w;
  while Queue.length w.queue >= pool.capacity do
    Condition.wait w.not_full w.mutex
  done;
  check_failure w;
  Queue.push x w.queue;
  w.pending <- w.pending + 1;
  (match pool.depth with
  | None -> ()
  | Some g -> Telemetry.Gauge.observe g (Queue.length w.queue));
  Condition.signal w.not_empty;
  Mutex.unlock w.mutex

let run_flushers pool = List.iter (fun flush -> flush ()) pool.flushers

(* Flush partial producer batches, then wait until every queue is
   drained and every worker is between messages. On return the workers'
   state is stable (the producer is the only enqueuer) and its reads are
   synchronized through the mutexes. *)
let quiesce pool =
  if not pool.stopped then begin
    run_flushers pool;
    Array.iter
      (fun w ->
        Mutex.lock w.mutex;
        while w.pending > 0 && w.failure = None do
          Condition.wait w.idle w.mutex
        done;
        check_failure w;
        Mutex.unlock w.mutex)
      pool.workers
  end

let shutdown pool =
  if not pool.stopped then begin
    (* Flush before closing: a worker drains its whole queue before
       exiting, so everything shipped here is still processed. *)
    run_flushers pool;
    pool.stopped <- true;
    Array.iter
      (fun w ->
        Mutex.lock w.mutex;
        w.closed <- true;
        Condition.broadcast w.not_empty;
        Mutex.unlock w.mutex)
      pool.workers;
    Array.iter
      (fun w ->
        match w.handle with
        | Some d ->
            Domain.join d;
            w.handle <- None
        | None -> ())
      pool.workers;
    match
      Array.fold_left
        (fun acc w -> match acc with Some _ -> acc | None -> w.failure)
        None pool.workers
    with
    | Some e -> raise e
    | None -> ()
  end

let recommended () = max 1 (Domain.recommended_domain_count ())

(* Producer-side batching over an array-message pool: a mutex/condition
   handshake per item would cost more than the work it ships, so items
   are buffered (newest first) and sent as one array when the buffer
   reaches [limit]. The buffer belongs to the producer thread; workers
   only ever see flushed arrays. Registration in [flushers] is what
   makes the quiesce/shutdown guarantee above hold. *)
type 'a batcher = {
  bpool : 'a array t;
  limit : int;
  hist : Telemetry.Histogram.t option;  (* batch sizes on flush *)
  mutable buf : 'a list;  (* newest first *)
  mutable len : int;
}

let flush b =
  if b.len > 0 then begin
    (match b.hist with
    | None -> ()
    | Some h -> Telemetry.Histogram.observe h b.len);
    (* One shared array for every worker: the workers only read it. *)
    let arr = Array.of_list (List.rev b.buf) in
    b.buf <- [];
    b.len <- 0;
    for i = 0 to Array.length b.bpool.workers - 1 do
      send b.bpool i arr
    done
  end

let batcher ?hist ?(limit = 64) pool =
  if limit < 1 then invalid_arg "Domain_pool.batcher: limit < 1";
  let b = { bpool = pool; limit; hist; buf = []; len = 0 } in
  pool.flushers <- (fun () -> flush b) :: pool.flushers;
  b

let broadcast b x =
  b.buf <- x :: b.buf;
  b.len <- b.len + 1;
  if b.len >= b.limit then flush b
