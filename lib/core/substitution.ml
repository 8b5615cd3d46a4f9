open Ses_event
open Ses_pattern

type binding = int * Event.t

type t = binding list

(* Pairs of ints ordered lexicographically — the comparator for both
   canonical (variable, seq) entries and (timestamp, seq) keys. *)
let compare_int_pair (a, b) (a', b') =
  let c = Int.compare a a' in
  if c <> 0 then c else Int.compare b b'

let compare_canonical = List.compare compare_int_pair

let canonical subst =
  List.sort_uniq compare_int_pair
    (List.map (fun (v, e) -> (v, Event.seq e)) subst)

let equal a b = canonical a = canonical b

(* Set inclusion over two canonical forms (sorted, duplicate-free):
   a single merge pass instead of a List.mem per element. *)
let rec subset_canon a b =
  match (a, b) with
  | [], _ -> true
  | _ :: _, [] -> false
  | x :: a', y :: b' ->
      let c = compare_int_pair x y in
      if c = 0 then subset_canon a' b'
      else if c > 0 then subset_canon a b'
      else false

let subset a b = subset_canon (canonical a) (canonical b)

let proper_subset a b =
  let ca = canonical a and cb = canonical b in
  List.length ca < List.length cb && subset_canon ca cb

let bindings_of subst v =
  List.filter_map (fun (v', e) -> if v' = v then Some e else None) subst

let events subst = List.map snd subst

let min_binding subst =
  let earlier (_, e) (_, e') = Event.compare_chrono e e' < 0 in
  match subst with
  | [] -> None
  | b :: rest ->
      Some (List.fold_left (fun best b' -> if earlier b' best then b' else best) b rest)

let min_ts subst = Option.map (fun (_, e) -> Event.ts e) (min_binding subst)

let span subst =
  match subst with
  | [] -> 0
  | (_, e0) :: _ ->
      let lo, hi =
        List.fold_left
          (fun (lo, hi) (_, e) ->
            (Time.min lo (Event.ts e), Time.max hi (Event.ts e)))
          (Event.ts e0, Event.ts e0) subst
      in
      Time.span lo hi

let well_formed p subst =
  let seqs = List.map (fun (_, e) -> Event.seq e) subst in
  List.length (List.sort_uniq Int.compare seqs) = List.length seqs
  && List.for_all
       (fun v ->
         let n = List.length (bindings_of subst v) in
         n >= Pattern.min_count p v
         &&
         match Pattern.max_count p v with
         | Some m -> n <= m
         | None -> true)
       (List.init (Pattern.n_vars p) Fun.id)

let satisfies_theta p subst =
  let bindings = bindings_of subst in
  List.for_all (fun c -> Condition.holds c bindings) (Pattern.conditions p)

let satisfies_order p subst =
  List.for_all
    (fun (v, e) ->
      List.for_all
        (fun (v', e') ->
          if Pattern.set_of_var p v < Pattern.set_of_var p v' then
            Time.( <. ) (Event.ts e) (Event.ts e')
          else true)
        subst)
    subst

let satisfies_window p subst = span subst <= Pattern.tau p

let satisfies_negations p events subst =
  let start_ts = Option.value ~default:0 (min_ts subst) in
  let n = Array.length events in
  (* The array is chronologically ordered, so sequence numbers ascend
     with the index: binary search for the first position past a given
     sequence number. *)
  let first_seq_above target =
    let rec go lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if Event.seq events.(mid) <= target then go (mid + 1) hi
        else go lo mid
    in
    go 0 n
  in
  List.for_all
    (fun (boundary, nv) ->
      let before, after =
        List.partition
          (fun (v, _) -> Pattern.set_of_var p v <= boundary)
          subst
      in
      let last_before =
        List.fold_left (fun acc (_, e) -> max acc (Event.seq e)) min_int before
      in
      (* A trailing guard (after the last set) stays armed until the match
         window closes; the engine's expiry check runs before the guard,
         so an event outside τ can no longer kill. *)
      let first_after =
        List.fold_left (fun acc (_, e) -> min acc (Event.seq e)) max_int after
      in
      let conds = Pattern.conditions_on p nv in
      (* Only events strictly inside the (last_before, first_after)
         sequence window can violate the guard; scan just that slice of
         the array instead of the whole relation. *)
      let lo = if last_before = min_int then 0 else first_seq_above last_before in
      let rec ok i =
        i >= n
        ||
        let e = events.(i) in
        let seq = Event.seq e in
        seq >= first_after
        || ((seq <= last_before
            || Time.span (Event.ts e) start_ts > Pattern.tau p
            || not
                 (List.for_all
                    (fun c ->
                      Condition.holds_on c ~var:nv ~event:e subst)
                    conds))
           && ok (i + 1))
      in
      ok lo)
    (Pattern.negations p)

let satisfies_1_3 p subst =
  well_formed p subst && satisfies_theta p subst && satisfies_order p subst
  && satisfies_window p subst

(* Condition 4's index: for each variable, the chronologically sorted,
   duplicate-free timestamps (with sequence numbers) of the events the
   candidate set binds to it. Built once per candidate set, then each γ
   pair-check is a binary search over the variable's array instead of a
   rescan of every candidate. *)
let bindings_by_var candidates =
  let table = Hashtbl.create 16 in
  Array.iter
    (List.iter (fun (v, e) ->
         let l = Option.value ~default:[] (Hashtbl.find_opt table v) in
         Hashtbl.replace table v ((Event.ts e, Event.seq e) :: l)))
    candidates;
  let sorted = Hashtbl.create 16 in
  Hashtbl.iter
    (fun v l ->
      Hashtbl.replace sorted v
        (Array.of_list (List.sort_uniq compare_int_pair l)))
    table;
  sorted

(* A pair v/e, v'/e' of γ is violated when some candidate binds v' to an
   event strictly between e and e' that γ itself does not use. [by_var]
   indexes the candidate bindings; [in_subst] answers (v, seq) ∈ γ. *)
let skip_till_pairs_ok ~by_var ~in_subst subst =
  let pair_ok (_, e) (v', e') =
    match Hashtbl.find_opt by_var v' with
    | None -> true
    | Some arr ->
        let t_lo = Event.ts e and t_hi = Event.ts e' in
        (* First entry with timestamp > t_lo. *)
        let n = Array.length arr in
        let rec lower lo hi =
          if lo >= hi then lo
          else
            let mid = (lo + hi) / 2 in
            if fst arr.(mid) <= t_lo then lower (mid + 1) hi else lower lo mid
        in
        let rec scan i =
          i >= n
          ||
          let ts, seq = arr.(i) in
          (not (Time.( <. ) ts t_hi)) || (in_subst v' seq && scan (i + 1))
        in
        scan (lower 0 n)
  in
  List.for_all (fun b -> List.for_all (fun b' -> pair_ok b b') subst) subst

type policy =
  | Operational
  | Literal

(* Finalization reads one flat layout. Every binding of every raw
   candidate becomes a key [var * base + seq] in one int array, where
   [base] is one more than the largest sequence number among the
   candidates (sequence numbers start at 0). Candidate [i] owns the
   slice of [len.(i)] keys from [off.(i)], sorted and duplicate-free, so
   key order is exactly [compare_canonical]'s (var, seq) order and every
   set operation below is a merge or a binary search over ints. The
   helpers are top-level recursions over explicit indices: without
   flambda a local recursive function allocates its closure on every
   call. *)
type layout = {
  substs : t array;
  base : int;
  space : int;  (** every key is below it *)
  keys : int array;
  off : int array;
  len : int array;
  min_key : int array;  (** the minT binding's key; -1 for [[]] *)
  min_t : Time.t array;  (** its timestamp; unused for [[]] *)
}

(* The int arrays of one finalization are reused by the next on the same
   domain, one slot per array. An array of more than 256 words is
   allocated straight in the major heap, so fresh arrays per call would
   each leave their size in garbage: a server that finalizes many small
   queries in quick succession (132 of at most 311 candidates each on
   the serve_mixed benchmark workload) raised its peak RSS by a tenth
   that way. A slot keeps at most [retained] words, so a
   rare large call does not pin its memory. A reused array may be longer
   than asked, so the code below reads explicit lengths, never
   [Array.length]. *)
let retained = 1 lsl 14

let s_off = 0
and s_min_var = 1
and s_min_seq = 2
and s_min_t = 3
and s_keys = 4
and s_len = 5
and s_min_key = 6
and s_table = 7
and s_cands = 8
and s_order = 9
and s_ids = 10
and s_dense = 11
and s_dense_ids = 12
and s_start = 13
and s_post = 14
and s_next = 15
and s_group = 16

(* [s_group] is the last slot. *)
let scratch = Domain.DLS.new_key (fun () -> Array.make (s_group + 1) [||])

(* An array of at least [n] ints whose first [n] are [fill]. *)
let grab s n fill =
  let slots = Domain.DLS.get scratch in
  let a = slots.(s) in
  if Array.length a >= n then begin
    Array.fill a 0 n fill;
    a
  end
  else if n > retained then Array.make n fill
  else begin
    let a = Array.make (Int.min retained (Int.max n (2 * Array.length a))) fill in
    slots.(s) <- a;
    a
  end

(* Notes candidate [i]'s first chronologically earliest binding as its
   minT binding ([min_seq.(i)] is -1 before the first), as
   [min_binding] does; returns the largest sequence number seen. *)
let rec scan_bindings min_var min_seq min_t i top = function
  | [] -> top
  | (v, e) :: rest ->
      let ts = Event.ts e and seq = Event.seq e in
      let best = min_seq.(i) in
      if best < 0 || ts < min_t.(i) || (ts = min_t.(i) && seq < best) then begin
        min_var.(i) <- v;
        min_seq.(i) <- seq;
        min_t.(i) <- ts
      end;
      scan_bindings min_var min_seq min_t i (Int.max top seq) rest

(* Writes the bindings' keys from [keys.(j)] on; returns the largest key
   written, or [top] if larger. *)
let rec write_keys (keys : int array) base j top = function
  | [] -> top
  | (v, e) :: rest ->
      let k = (v * base) + Event.seq e in
      keys.(j) <- k;
      write_keys keys base (j + 1) (Int.max top k) rest

(* Sorts [keys.(lo) .. keys.(lo + n - 1)] in place and drops repeats;
   returns how many keys remain. Slices are short, so insertion sort. *)
let sort_slice (keys : int array) lo n =
  for i = lo + 1 to lo + n - 1 do
    let k = keys.(i) in
    let j = ref (i - 1) in
    while !j >= lo && keys.(!j) > k do
      keys.(!j + 1) <- keys.(!j);
      decr j
    done;
    keys.(!j + 1) <- k
  done;
  if n = 0 then 0
  else begin
    let w = ref lo in
    for i = lo + 1 to lo + n - 1 do
      if keys.(i) <> keys.(!w) then begin
        incr w;
        keys.(!w) <- keys.(i)
      end
    done;
    !w - lo + 1
  end

(* A first pass over the raw lists sizes the slices and finds [base] and
   the minT bindings; a second writes the keys into an array of exactly
   the bindings' count. *)
let layout substs =
  let substs = Array.of_list substs in
  let n = Array.length substs in
  let off = grab s_off (n + 1) 0 and min_var = grab s_min_var n 0 in
  let min_seq = grab s_min_seq n (-1) and min_t = grab s_min_t n 0 in
  let top = ref 0 in
  for i = 0 to n - 1 do
    off.(i + 1) <- off.(i) + List.length substs.(i);
    top := scan_bindings min_var min_seq min_t i !top substs.(i)
  done;
  let base = !top + 1 in
  let keys = grab s_keys off.(n) 0 and top_key = ref (-1) in
  let len = grab s_len n 0 and min_key = grab s_min_key n (-1) in
  for i = 0 to n - 1 do
    top_key := write_keys keys base off.(i) !top_key substs.(i);
    len.(i) <- sort_slice keys off.(i) (off.(i + 1) - off.(i));
    if min_seq.(i) >= 0 then min_key.(i) <- (min_var.(i) * base) + min_seq.(i)
  done;
  { substs; base; space = !top_key + 1; keys; off; len; min_key; min_t }

(* Spreads an int's bits for the open-addressed tables below, whose
   slot is the hash's low bits. *)
let mix k =
  let h = k * 0x9E3779B97F4A7C1 in
  (h lxor (h lsr 29)) land max_int

let rec hash_keys (keys : int array) h j stop =
  if j = stop then h else hash_keys keys ((h * 31) + keys.(j)) (j + 1) stop

let slice_hash l i =
  mix (hash_keys l.keys l.len.(i) l.off.(i) (l.off.(i) + l.len.(i)))

let rec equal_from (keys : int array) a b k n =
  k = n || (keys.(a + k) = keys.(b + k) && equal_from keys a b (k + 1) n)

let slices_equal l i j =
  l.len.(i) = l.len.(j) && equal_from l.keys l.off.(i) l.off.(j) 0 l.len.(i)

(* Whether the sorted keys [a, a_end) are a subset of [b, b_end). *)
let rec subset_from (keys : int array) a a_end b b_end =
  a = a_end
  || b_end - b >= a_end - a
     &&
     let x = keys.(a) and y = keys.(b) in
     if x = y then subset_from keys (a + 1) a_end (b + 1) b_end
     else x > y && subset_from keys a a_end (b + 1) b_end

let slice_subset l i j =
  subset_from l.keys l.off.(i)
    (l.off.(i) + l.len.(i))
    l.off.(j)
    (l.off.(j) + l.len.(j))

let rec mem_from (keys : int array) k lo hi =
  lo < hi
  &&
  let mid = (lo + hi) / 2 in
  let c = Int.compare keys.(mid) k in
  c = 0 || if c < 0 then mem_from keys k (mid + 1) hi else mem_from keys k lo mid

let slice_mem l i k = mem_from l.keys k l.off.(i) (l.off.(i) + l.len.(i))

(* Lexicographic, a proper prefix first: [compare_canonical] on the
   canonical forms. *)
let rec compare_from (keys : int array) a na b nb k =
  if k = na || k = nb then Int.compare na nb
  else
    let c = Int.compare keys.(a + k) keys.(b + k) in
    if c <> 0 then c else compare_from keys a na b nb (k + 1)

let compare_slices l i j =
  compare_from l.keys l.off.(i) l.len.(i) l.off.(j) l.len.(j) 0

let pow2_above n =
  let rec go c = if c >= n then c else go (2 * c) in
  go 64

(* The first candidate of each canonical form, in input order, into
   [cands]: slices hashed into an open-addressed table of candidate
   indices (-1 when free); returns how many. [distinct_slot] finds the
   free slot for [i]'s slice, or -1 when an equal slice holds one
   already. *)
let rec distinct_slot l table mask i h =
  match table.(h) with
  | -1 -> h
  | j -> if slices_equal l i j then -1 else distinct_slot l table mask i ((h + 1) land mask)

let distinct l cands =
  let n = Array.length l.substs in
  let cap = pow2_above (2 * n) in
  let table = grab s_table cap (-1) and mask = cap - 1 in
  let k = ref 0 in
  for i = 0 to n - 1 do
    match distinct_slot l table mask i (slice_hash l i land mask) with
    | -1 -> ()
    | h ->
        table.(h) <- i;
        cands.(!k) <- i;
        incr k
  done;
  !k

(* Dense ids 0, 1, … for at most [bound] distinct keys in [0, space), in
   order of first sight. A key space no larger than [budget] maps
   through one array, the id per key (-1 when unseen); a larger one
   through an open-addressed table of keys (-1 when free), [ids] holding
   each slot's id, at most half full. *)
type dense = {
  direct : bool;
  slots : int array;
  ids : int array;
  mask : int;
  mutable n : int;
}

let dense_create ~space ~budget ~bound =
  if space <= budget then
    { direct = true; slots = grab s_dense space (-1); ids = [||]; mask = 0; n = 0 }
  else
    let cap = pow2_above (2 * bound) in
    {
      direct = false;
      slots = grab s_dense cap (-1);
      ids = grab s_dense_ids cap 0;
      mask = cap - 1;
      n = 0;
    }

(* The slot holding [k], or the free slot where it goes. *)
let rec dense_probe (slots : int array) mask k h =
  let k' = slots.(h) in
  if k' = -1 || k' = k then h else dense_probe slots mask k ((h + 1) land mask)

let fresh_id d =
  d.n <- d.n + 1;
  d.n - 1

let dense_id d k =
  if d.direct then begin
    let id = d.slots.(k) in
    if id >= 0 then id
    else begin
      let id = fresh_id d in
      d.slots.(k) <- id;
      id
    end
  end
  else
    let h = dense_probe d.slots d.mask k (mix k land d.mask) in
    if d.slots.(h) = k then d.ids.(h)
    else begin
      d.slots.(h) <- k;
      d.ids.(h) <- fresh_id d;
      d.ids.(h)
    end

(* Postings in one array: group [g]'s members are
   [post.(start.(g)) .. post.(start.(g + 1) - 1)], ascending. Member [r]
   (of [n_members]) is [member r], whose groups are
   [group.(member_off m)] onwards, [member_len m] of them; the pass
   counts, then takes prefix sums for the starts, then fills. *)
let postings ~n_groups ~group ~member_off ~member_len ~n_members ~member =
  let start = grab s_start (n_groups + 1) 0 in
  for r = 0 to n_members - 1 do
    let m = member r in
    for j = member_off m to member_off m + member_len m - 1 do
      start.(group.(j) + 1) <- start.(group.(j) + 1) + 1
    done
  done;
  for g = 1 to n_groups do
    start.(g) <- start.(g) + start.(g - 1)
  done;
  let post = grab s_post start.(n_groups) 0 in
  let next = grab s_next n_groups 0 in
  Array.blit start 0 next 0 n_groups;
  for r = 0 to n_members - 1 do
    let m = member r in
    for j = member_off m to member_off m + member_len m - 1 do
      let g = group.(j) in
      post.(next.(g)) <- r;
      next.(g) <- next.(g) + 1
    done
  done;
  (start, post)

(* Numbers the [d] candidates [cands] by ascending slice length, ties in
   input order: a counting sort. *)
let by_size l cands d =
  let largest = ref 0 in
  for i = 0 to d - 1 do
    largest := Int.max !largest l.len.(cands.(i))
  done;
  let next = Array.make (!largest + 2) 0 in
  for i = 0 to d - 1 do
    let s = l.len.(cands.(i)) + 1 in
    next.(s) <- next.(s) + 1
  done;
  for s = 1 to !largest + 1 do
    next.(s) <- next.(s) + next.(s - 1)
  done;
  let order = grab s_order d 0 in
  for i = 0 to d - 1 do
    let c = cands.(i) in
    order.(next.(l.len.(c))) <- c;
    next.(l.len.(c)) <- next.(l.len.(c)) + 1
  done;
  order

(* Whether some candidate in the posting [post.(lo) .. post.(k)] — rank
   numbers, ascending by size — is larger than [c] and holds it. *)
let rec superset l order post lo c k =
  k >= lo
  &&
  let d = order.(post.(k)) in
  l.len.(d) > l.len.(c) && (slice_subset l c d || superset l order post lo c (k - 1))

(* Operational: γ is dropped when another candidate strictly contains it.
   Every strict superset of γ holds each of γ's keys, so the posting of
   γ's rarest key — a minimum over |γ| posting lengths — is a complete
   suspect set. Candidates are numbered by ascending size, so the strict
   supersets sit in the posting's tail: the scan walks it backwards and
   stops at the first candidate no larger than γ, and each suspect costs
   one merge of two slices. *)
let operational_survivors l cands d =
  let order = by_size l cands d in
  let largest = l.len.(order.(d - 1)) in
  let total = l.off.(Array.length l.substs) in
  (* Every key of a numbered candidate as a dense id, at the key's own
     position in [l.keys]. *)
  let ids = grab s_ids total 0 in
  let dense = dense_create ~space:l.space ~budget:total ~bound:total in
  for r = 0 to d - 1 do
    let c = order.(r) in
    for j = l.off.(c) to l.off.(c) + l.len.(c) - 1 do
      ids.(j) <- dense_id dense l.keys.(j)
    done
  done;
  let start, post =
    postings ~n_groups:dense.n ~group:ids
      ~member_off:(fun c -> l.off.(c))
      ~member_len:(fun c -> l.len.(c))
      ~n_members:d
      ~member:(fun r -> order.(r))
  in
  let kept = ref [] in
  for r = 0 to d - 1 do
    let c = order.(r) in
    let n = l.len.(c) in
    (* The empty substitution is a strict subset of any non-empty one. *)
    if n = 0 then (if largest = 0 then kept := c :: !kept)
    else begin
      let rarest = ref ids.(l.off.(c)) in
      for j = l.off.(c) + 1 to l.off.(c) + n - 1 do
        let g = ids.(j) in
        if start.(g + 1) - start.(g) < start.(!rarest + 1) - start.(!rarest)
        then rarest := g
      done;
      let g = !rarest in
      if not (superset l order post start.(g) c (start.(g + 1) - 1)) then
        kept := c :: !kept
    end
  done;
  !kept

(* Whether no candidate of the group [post.(k) .. post.(stop - 1)] —
   indices into [cands] — is larger than [c] and holds it. *)
let rec maximal l cands post c k stop =
  k = stop
  ||
  let d = cands.(post.(k)) in
  (l.len.(d) <= l.len.(c) || not (slice_subset l c d))
  && maximal l cands post c (k + 1) stop

(* Literal: condition 5 compares only candidates sharing a minT binding,
   grouped by its key; condition 4's membership test is a binary search
   in γ's slice. *)
let literal_survivors l cands d =
  let total = l.off.(Array.length l.substs) in
  let dense = dense_create ~space:(l.space + 1) ~budget:total ~bound:d in
  (* [min_key] is -1 for the empty substitution. *)
  let group = grab s_group d 0 in
  for i = 0 to d - 1 do
    group.(i) <- dense_id dense (l.min_key.(cands.(i)) + 1)
  done;
  let start, post =
    postings ~n_groups:dense.n ~group ~member_off:Fun.id
      ~member_len:(fun _ -> 1)
      ~n_members:d ~member:Fun.id
  in
  let by_var = bindings_by_var (Array.init d (fun i -> l.substs.(cands.(i)))) in
  let kept = ref [] in
  for i = 0 to d - 1 do
    let c = cands.(i) and g = group.(i) in
    if
      maximal l cands post c start.(g) start.(g + 1)
      && skip_till_pairs_ok ~by_var
           ~in_subst:(fun v seq -> slice_mem l c ((v * l.base) + seq))
           l.substs.(c)
    then kept := c :: !kept
  done;
  !kept

(* Output order: minT, the empty substitution first, then canonical
   form. *)
let compare_output l a b =
  let c =
    match (l.min_key.(a), l.min_key.(b)) with
    | -1, -1 -> 0
    | -1, _ -> -1
    | _, -1 -> 1
    | _ -> Time.compare l.min_t.(a) l.min_t.(b)
  in
  if c <> 0 then c else compare_slices l a b

let finalize ?(policy = Operational) p substs =
  ignore p;
  match substs with
  | [] -> []
  | _ ->
      let l = layout substs in
      let cands = grab s_cands (Array.length l.substs) 0 in
      let d = distinct l cands in
      let kept =
        match policy with
        | Operational -> operational_survivors l cands d
        | Literal -> literal_survivors l cands d
      in
      List.map (fun c -> l.substs.(c)) (List.sort (compare_output l) kept)

let pp p ppf subst =
  let items =
    List.map (fun (v, e) -> Pattern.var_name p v ^ "/" ^ Event.name e) subst
  in
  Format.fprintf ppf "{%s}" (String.concat ", " items)
