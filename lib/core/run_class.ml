open Ses_event

type node =
  | Root
  | Extend of Substitution.binding * node
  | Union of node * node

type cohort = {
  first_ts : Time.t;
  last_ts : Time.t;
  count : int;
  node : node;
}

(* [size] caches the members of [cohorts]; [staged] collects the
   cohorts of the event in progress, newest first, and a class with a
   non-empty [staged] sits on its pool's [dirty] list. *)
type t = {
  pool : pool;
  mutable cohorts : cohort list;
  mutable size : int;
  mutable staged : cohort list;
}

and pool = {
  mutable total : int;
  mutable dirty : t list;
}

let create_pool () = { total = 0; dirty = [] }

let create pool = { pool; cohorts = []; size = 0; staged = [] }

let total pool = pool.total

let size t = t.size

let stage t c =
  (match t.staged with [] -> t.pool.dirty <- t :: t.pool.dirty | _ :: _ -> ());
  t.staged <- c :: t.staged

let same a b = Time.equal a.first_ts b.first_ts && Time.equal a.last_ts b.last_ts

let union a b = { a with count = a.count + b.count; node = Union (a.node, b.node) }

let by_first a b = Time.compare a.first_ts b.first_ts

(* Neighbours of a sorted list that agree on (first_ts, last_ts) become
   one cohort. *)
let rec coalesce = function
  | a :: b :: rest when same a b -> coalesce (union a b :: rest)
  | a :: rest -> a :: coalesce rest
  | [] -> []

(* Merges two lists ascending by [first_ts], the committed cohorts
   first on a tie; a staged cohort that agrees with a committed one on
   (first_ts, last_ts) joins it. *)
let[@tail_mod_cons] rec merge xs ys =
  match (xs, ys) with
  | [], l | l, [] -> l
  | x :: xs', y :: ys' ->
      if Time.( <. ) x.first_ts y.first_ts then x :: merge xs' ys
      else if Time.( <. ) y.first_ts x.first_ts then y :: merge xs ys'
      else if same x y then merge (union x y :: xs') ys'
      else x :: merge xs' ys

let rec count_all n = function [] -> n | c :: rest -> count_all (n + c.count) rest

let rec commit_classes = function
  | [] -> ()
  | t :: rest ->
      let incoming = coalesce (List.stable_sort by_first (List.rev t.staged)) in
      let added = count_all 0 incoming in
      t.staged <- [];
      t.cohorts <- merge t.cohorts incoming;
      t.size <- t.size + added;
      t.pool.total <- t.pool.total + added;
      commit_classes rest

let commit pool =
  match pool.dirty with
  | [] -> ()
  | dirty ->
      pool.dirty <- [];
      commit_classes dirty

(* [keep ctx] runs once per cohort, in list order, before the rest of the
   list is filtered. *)
let[@tail_mod_cons] rec filter keep ctx = function
  | [] -> []
  | c :: rest ->
      if keep ctx c then c :: filter keep ctx rest else filter keep ctx rest

let set_cohorts t cohorts =
  let size = count_all 0 cohorts in
  t.pool.total <- t.pool.total - t.size + size;
  t.size <- size;
  t.cohorts <- cohorts

let walk t keep ctx =
  let old = t.cohorts in
  set_cohorts t (filter keep ctx old);
  List.length old

let rec expired_prefix ~now ~tau acc = function
  | c :: rest when Instance_store.expired ~now ~tau c.first_ts ->
      expired_prefix ~now ~tau (c :: acc) rest
  | rest -> (List.rev acc, rest)

let pop_expired t ~now ~tau =
  match t.cohorts with
  | c :: _ when Instance_store.expired ~now ~tau c.first_ts ->
      let dead, alive = expired_prefix ~now ~tau [] t.cohorts in
      set_cohorts t alive;
      dead
  | _ -> []

let take_all t =
  let all = t.cohorts in
  set_cohorts t [];
  all

let iter_members f node =
  let rec go acc = function
    | Root -> f acc
    | Extend (b, parent) -> go (b :: acc) parent
    | Union (a, b) ->
        go acc a;
        go acc b
  in
  go [] node
