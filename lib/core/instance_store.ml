open Ses_event

(* A run is a list of instances sorted ascending by (ts_of, seq_of); [n]
   caches its length. Pending inserts accumulate newest-first on the run
   itself, and [dirty] lists the runs (with their buckets) that have a
   non-empty pending list, so [commit] visits exactly those — staging
   through an interned handle costs no hashtable probe in an unkeyed
   state. [total] counts committed instances only.

   An unkeyed state holds one run. A keyed state holds one run per key
   value, allocated on first insert and dropped once it is empty with
   nothing pending, plus a min-heap of its non-empty runs ordered by
   their first instance, so the heap's top holds the state's oldest
   instance. Each run caches its first instance's (ts_of, seq_of) and
   its heap position, so a run whose head changes is re-sifted in place
   and the expiry pop costs O(log runs) per expired instance. *)

(* Sub-bucket tables. Keys of one bucket share a type (the engine never
   keys a mixed-type join), and within a type this hash agrees with
   [Value.equal]: [Float.hash] maps -0.0 and 0.0, and every NaN, to one
   value. Hashing an int in OCaml rather than through the generic
   [Hashtbl] keeps the dense-join probe loop about 13% faster. *)
module Keys = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal

  let hash = function
    | Value.Int i -> i land max_int
    | Value.Float f -> Float.hash f
    | Value.Str s -> String.hash s
end)

type 'a run = {
  mutable items : 'a list;
  mutable n : int;
  mutable pending : 'a list;  (* staged inserts, newest first *)
  mutable pos : int;  (* index in the heap of run heads, -1 when absent *)
  mutable h_ts : Time.t;  (* the head's (ts_of, seq_of) while in the heap *)
  mutable h_seq : int;
}

type 'a bucket = {
  one : 'a run;  (* an unkeyed state's instances *)
  keyed : 'a keyed option;
  mutable size : int;
}

and 'a keyed = {
  key_of : 'a -> Value.t;
  mutable runs : 'a run Keys.t option;
  mutable heads : 'a run array;
  mutable n_heads : int;
}

type 'a t = {
  ts_of : 'a -> Time.t;
  seq_of : 'a -> int;
  buckets : (Varset.t, 'a bucket) Hashtbl.t;
  mutable dirty : ('a bucket * 'a run) list;  (* runs with pending inserts *)
  mutable total : int;
}

let create ~ts_of ~seq_of () =
  {
    ts_of;
    seq_of;
    buckets = Hashtbl.create 32;
    dirty = [];
    total = 0;
  }

let size st = st.total

let fresh_run () =
  { items = []; n = 0; pending = []; pos = -1; h_ts = 0; h_seq = 0 }

let fresh_bucket key =
  {
    one = fresh_run ();
    keyed =
      Option.map
        (fun key_of -> { key_of; runs = None; heads = [||]; n_heads = 0 })
        key;
    size = 0;
  }

(* A handle interns the bucket record itself: resolving one per automaton
   state at stream creation removes every per-event hashtable probe from
   the engine's hot loop. Handles stay valid for the lifetime of the
   store — [clear] empties buckets in place instead of dropping them. *)
type 'a handle = { owner_store : 'a t; hb : 'a bucket }

let handle ?key st q =
  match Hashtbl.find_opt st.buckets q with
  | Some b -> { owner_store = st; hb = b }
  | None ->
      let b = fresh_bucket key in
      Hashtbl.replace st.buckets q b;
      { owner_store = st; hb = b }

let handle_size h = h.hb.size

(* Bucket order: ascending (ts_of, seq_of), compared without building
   tuples — this comparison runs once per instance per merge. *)
let before st a b =
  let ta = st.ts_of a and tb = st.ts_of b in
  let c = Time.compare ta tb in
  if c <> 0 then c < 0 else st.seq_of a <= st.seq_of b

(* Allocates only the prefix up to the last element of [ys] it places:
   the rest of [xs] is shared. *)
let[@tail_mod_cons] rec merge st xs ys =
  match (xs, ys) with
  | [], l | l, [] -> l
  | x :: xs', y :: ys' ->
      if before st x y then x :: merge st xs' ys else y :: merge st xs ys'

(* Pairwise rounds: O(n log k) for k runs of n instances in all. *)
let rec merge_all st = function
  | [] -> []
  | [ l ] -> l
  | ls ->
      let rec pairs = function
        | a :: b :: rest -> merge st a b :: pairs rest
        | ls -> ls
      in
      merge_all st (pairs ls)

(* Walks apply [keep ctx] once per instance, in list order; [keep]
   takes its context as an argument, so a caller passing a top-level
   function allocates no closure. [first_dropped] applies it until it
   fails and returns that index, or -1 (allocating nothing) when it
   holds throughout. *)
let rec first_dropped keep ctx i = function
  | [] -> -1
  | x :: rest -> if keep ctx x then first_dropped keep ctx (i + 1) rest else i

(* [List.filter (keep ctx) l] that returns [l] itself when [keep] holds
   throughout and otherwise shares the longest kept tail. *)
let rec filter_shared keep ctx l =
  match first_dropped keep ctx 0 l with
  | -1 -> l
  | i -> kept_then keep ctx i l

(* [l]'s first [i] elements, already kept, then the filtered rest past
   the dropped element at [i]. *)
and kept_then keep ctx i = function
  | [] -> []
  | x :: rest ->
      if i = 0 then filter_shared keep ctx rest
      else x :: kept_then keep ctx (i - 1) rest

(* ---- the heap of run heads ---- *)

let head_before a b =
  a.h_ts < b.h_ts || (a.h_ts = b.h_ts && a.h_seq < b.h_seq)

let place k i r =
  k.heads.(i) <- r;
  r.pos <- i

let rec sift_up k i r =
  let p = (i - 1) / 2 in
  if i > 0 && head_before r k.heads.(p) then begin
    place k i k.heads.(p);
    sift_up k p r
  end
  else place k i r

let rec sift_down k i r =
  let l = (2 * i) + 1 in
  if l >= k.n_heads then place k i r
  else
    let c =
      if l + 1 < k.n_heads && head_before k.heads.(l + 1) k.heads.(l) then
        l + 1
      else l
    in
    if head_before k.heads.(c) r then begin
      place k i k.heads.(c);
      sift_down k c r
    end
    else place k i r

(* After [r]'s items changed from [old]: re-key its heap entry, insert
   or remove it, and drop a run left with nothing. *)
let settle st k r old =
  match r.items with
  | x :: _ ->
      r.h_ts <- st.ts_of x;
      r.h_seq <- st.seq_of x;
      if r.pos < 0 then begin
        if k.n_heads = Array.length k.heads then begin
          let grown = Array.make (max 8 (2 * k.n_heads)) r in
          Array.blit k.heads 0 grown 0 k.n_heads;
          k.heads <- grown
        end;
        k.n_heads <- k.n_heads + 1;
        sift_up k (k.n_heads - 1) r
      end
      else begin
        sift_up k r.pos r;
        sift_down k r.pos r
      end
  | [] -> (
      if r.pos >= 0 then begin
        let i = r.pos and last = k.heads.(k.n_heads - 1) in
        r.pos <- -1;
        k.n_heads <- k.n_heads - 1;
        if i < k.n_heads then begin
          sift_up k i last;
          sift_down k last.pos last
        end
      end;
      match (old, k.runs) with
      | x :: _, Some runs when r.pending = [] ->
          Keys.remove runs (k.key_of x)
      | _ -> ())

let runs_of k =
  match k.runs with
  | Some runs -> runs
  | None ->
      let runs = Keys.create 8 in
      k.runs <- Some runs;
      runs

let run_for k x =
  let runs = runs_of k in
  let key = k.key_of x in
  match Keys.find runs key with
  | r -> r
  | exception Not_found ->
      let r = fresh_run () in
      Keys.add runs key r;
      r

(* ---- reading and writing whole buckets ---- *)

let remove_run st b r =
  let items = r.items in
  st.total <- st.total - r.n;
  b.size <- b.size - r.n;
  r.items <- [];
  r.n <- 0;
  items

let set_run st b r items =
  let k = List.length items in
  r.items <- items;
  r.n <- k;
  b.size <- b.size + k;
  st.total <- st.total + k

(* Removes and returns a bucket's instances in bucket order. A keyed
   state's runs stay in its table (a run may hold pending inserts). *)
let take st b =
  match b.keyed with
  | None -> remove_run st b b.one
  | Some k -> (
      match k.runs with
      | None -> []
      | Some runs ->
          k.n_heads <- 0;
          merge_all st
            (Keys.fold
               (fun _ r acc ->
                 r.pos <- -1;
                 remove_run st b r :: acc)
               runs []))

(* Refills an emptied bucket with [items], in bucket order: a keyed
   state regroups them by key and rebuilds its heap. *)
let refill st b items =
  match b.keyed with
  | None -> set_run st b b.one items
  | Some k ->
      List.iter
        (fun x ->
          let r = run_for k x in
          r.items <- x :: r.items;
          r.n <- r.n + 1)
        (List.rev items);
      let k_n = List.length items in
      b.size <- b.size + k_n;
      st.total <- st.total + k_n;
      Keys.filter_map_inplace
        (fun _ r ->
          match r.items with
          | _ :: _ ->
              settle st k r [];
              Some r
          | [] -> if r.pending = [] then None else Some r)
        (runs_of k)

let expired ~now ~tau ts = Time.span now ts > tau

(* The instances of a bucket whose window has closed by [now] form a
   prefix of its order, and a sub-bucket's head is cached, so the check
   reads no instance until one has expired. *)

let rec pop_keyed st b k ~now ~tau acc =
  if k.n_heads = 0 then acc
  else
    let r = k.heads.(0) in
    if not (expired ~now ~tau r.h_ts) then acc
    else
      match r.items with
      | x :: rest ->
          let old = r.items in
          r.items <- rest;
          r.n <- r.n - 1;
          b.size <- b.size - 1;
          st.total <- st.total - 1;
          settle st k r old;
          pop_keyed st b k ~now ~tau (x :: acc)
      | [] -> acc

let rec expired_prefix st ~now ~tau acc = function
  | x :: rest when expired ~now ~tau (st.ts_of x) ->
      expired_prefix st ~now ~tau (x :: acc) rest
  | rest -> (acc, rest)

let pop_expired h ~now ~tau =
  let st = h.owner_store and b = h.hb in
  match b.keyed with
  | Some k -> (
      match pop_keyed st b k ~now ~tau [] with
      | [] -> []
      | dead_rev -> List.rev dead_rev)
  | None -> (
      match b.one.items with
      | x :: _ when expired ~now ~tau (st.ts_of x) ->
          let r = b.one in
          let dead_rev, alive = expired_prefix st ~now ~tau [] r.items in
          let k = List.length dead_rev in
          r.items <- alive;
          r.n <- r.n - k;
          b.size <- b.size - k;
          st.total <- st.total - k;
          List.rev dead_rev
      | _ -> [])

let take_all h = take h.owner_store h.hb

let put_back h items =
  if h.hb.size <> 0 then
    invalid_arg "Instance_store.put_back: bucket not empty";
  refill h.owner_store h.hb items

(* Keeps [r]'s instances on which [keep ctx] holds; returns how many it
   visited. *)
let walk_run st b r keep ctx =
  let old = r.items and n = r.n in
  (match first_dropped keep ctx 0 old with
  | -1 -> ()
  | i -> (
      let items = kept_then keep ctx i old in
      let dropped = n - List.length items in
      r.items <- items;
      r.n <- n - dropped;
      b.size <- b.size - dropped;
      st.total <- st.total - dropped;
      match b.keyed with Some k -> settle st k r old | None -> ()));
  n

let walk h keep ctx =
  let st = h.owner_store and b = h.hb in
  match b.keyed with
  | None -> walk_run st b b.one keep ctx
  | Some _ ->
      let n = b.size in
      let items = take st b in
      refill st b (filter_shared keep ctx items);
      n

let walk_key h key keep ctx =
  let st = h.owner_store and b = h.hb in
  match b.keyed with
  | Some { runs = Some runs; _ } -> (
      match Keys.find runs key with
      | r -> walk_run st b r keep ctx
      | exception Not_found -> 0)
  | Some { runs = None; _ } -> 0
  | None -> walk h keep ctx

let stage h a =
  let st = h.owner_store and b = h.hb in
  let r = match b.keyed with None -> b.one | Some k -> run_for k a in
  (match r.pending with [] -> st.dirty <- (b, r) :: st.dirty | _ :: _ -> ());
  r.pending <- a :: r.pending

(* A run that received one successor skips [List.sort], which builds
   its own closures (about 26 words) even for a one-element list. One is
   the common case: every commit on Q1 over the 120-patient chemo file,
   and 99.6% of those in a 4 s [serve_mixed] session. *)
let rec commit_runs st = function
  | [] -> ()
  | (b, r) :: rest ->
      let incoming =
        match r.pending with
        | [ _ ] as one -> one
        | pending ->
            List.sort (fun x y -> if before st x y then -1 else 1) pending
      in
      let old = r.items and added = List.length incoming in
      r.pending <- [];
      r.items <- merge st old incoming;
      r.n <- r.n + added;
      b.size <- b.size + added;
      st.total <- st.total + added;
      (match b.keyed with Some k -> settle st k r old | None -> ());
      commit_runs st rest

let commit st =
  match st.dirty with
  | [] -> ()
  | dirty ->
      st.dirty <- [];
      commit_runs st dirty

let fold_buckets f st init =
  let states =
    Hashtbl.fold
      (fun q b acc -> if b.size > 0 then q :: acc else acc)
      st.buckets []
  in
  List.fold_left
    (fun acc q ->
      let b = Hashtbl.find st.buckets q in
      let items =
        match b.keyed with
        | None -> b.one.items
        | Some k ->
            merge_all st
              (Option.fold ~none:[]
                 ~some:(fun runs ->
                   Keys.fold (fun _ r acc -> r.items :: acc) runs [])
                 k.runs)
      in
      f q items acc)
    init
    (List.sort Varset.compare states)

let to_list st =
  List.rev (fold_buckets (fun _ items acc -> List.rev_append items acc) st [])

let sub_buckets st =
  Hashtbl.fold
    (fun _ b acc ->
      match b.keyed with
      | Some { runs = Some runs; _ } -> acc + Keys.length runs
      | Some { runs = None; _ } | None -> acc)
    st.buckets 0

let clear st =
  (* Empty in place: interned bucket handles must survive a clear. *)
  Hashtbl.iter
    (fun _ b ->
      b.one.items <- [];
      b.one.n <- 0;
      b.one.pending <- [];
      b.size <- 0;
      Option.iter
        (fun k ->
          k.runs <- None;
          k.n_heads <- 0)
        b.keyed)
    st.buckets;
  st.dirty <- [];
  st.total <- 0
