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

(* Finalization annotates each raw candidate once: its canonical form
   packed into a sorted, duplicate-free int array of keys
   [var * base + seq], where [base] is one more than the largest sequence
   number among the candidates (sequence numbers start at 0). Key order is
   exactly [compare_canonical]'s (var, seq) order, so every set operation
   below is a merge or a binary search over ints. *)
type packed = {
  subst : t;
  keys : int array;
  min_t : Time.t option;
  min_key : int;  (** packed minT binding; -1 for the empty substitution *)
}

let pack ~base subst =
  let keys =
    Array.of_list
      (List.sort_uniq Int.compare
         (List.map (fun (v, e) -> (v * base) + Event.seq e) subst))
  in
  match min_binding subst with
  | None -> { subst; keys; min_t = None; min_key = -1 }
  | Some (v, e) ->
      {
        subst;
        keys;
        min_t = Some (Event.ts e);
        min_key = (v * base) + Event.seq e;
      }

(* Lexicographic, a proper prefix first: [compare_canonical] on the
   unpacked forms. *)
let compare_keys a b =
  let na = Array.length a and nb = Array.length b in
  let rec go i =
    if i = na || i = nb then Int.compare na nb
    else
      let c = Int.compare a.(i) b.(i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

let subset_keys a b =
  let na = Array.length a and nb = Array.length b in
  let rec go i j =
    i = na
    || (nb - j >= na - i
       &&
       let x = a.(i) and y = b.(j) in
       if x = y then go (i + 1) (j + 1) else x > y && go i (j + 1))
  in
  go 0 0

let mem_keys a k =
  let rec go lo hi =
    lo < hi
    &&
    let mid = (lo + hi) / 2 in
    let c = Int.compare a.(mid) k in
    c = 0 || if c < 0 then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length a)

(* Deduplication hashes every key of the packed form. *)
module Packed_tbl = Hashtbl.Make (struct
  type t = int array

  let equal a b = compare_keys a b = 0

  let hash a = Array.fold_left (fun h k -> (h * 31) + k) 0 a
end)

module Int_tbl = Hashtbl.Make (Int)

(* One counted posting array per distinct key: the ids of the candidates
   holding it, ascending. *)
type posting = { mutable len : int; mutable ids : int array }

let survivors keep cands =
  let out = ref [] in
  Array.iteri (fun i a -> if keep i then out := a :: !out) cands;
  !out

(* Operational: γ is dropped when another candidate strictly contains it.
   Every strict superset of γ holds each of γ's keys, so the posting of
   γ's rarest key — a minimum over |γ| stored lengths — is a complete
   suspect set. Candidates are numbered by ascending size, so the strict
   supersets sit in the posting's tail: the scan walks it backwards and
   stops at the first candidate no larger than γ, and each suspect costs
   one merge. *)
let operational_survivors cands =
  let size a = Array.length a.keys in
  Array.sort (fun a b -> Int.compare (size a) (size b)) cands;
  let index = Int_tbl.create (Array.length cands) in
  let postings =
    Array.map
      (fun a ->
        Array.map
          (fun k ->
            match Int_tbl.find_opt index k with
            | Some p ->
                p.len <- p.len + 1;
                p
            | None ->
                let p = { len = 1; ids = [||] } in
                Int_tbl.add index k p;
                p)
          a.keys)
      cands
  in
  Int_tbl.iter
    (fun _ p ->
      p.ids <- Array.make p.len 0;
      p.len <- 0)
    index;
  Array.iteri
    (fun i ps ->
      Array.iter
        (fun p ->
          p.ids.(p.len) <- i;
          p.len <- p.len + 1)
        ps)
    postings;
  let largest = size cands.(Array.length cands - 1) in
  survivors
    (fun i ->
      let a = cands.(i) in
      let n = size a in
      (* The empty substitution is a strict subset of any non-empty one. *)
      if n = 0 then largest = 0
      else
        let ps = postings.(i) in
        let rarest =
          Array.fold_left (fun r p -> if p.len < r.len then p else r) ps.(0) ps
        in
        let rec superset k =
          k >= 0
          &&
          let b = cands.(rarest.ids.(k)) in
          size b > n && (subset_keys a.keys b.keys || superset (k - 1))
        in
        not (superset (rarest.len - 1)))
    cands

(* Literal: condition 5 compares only candidates sharing a minT binding,
   grouped by its packed key; condition 4's membership test is a binary
   search in γ's packed form. *)
let literal_survivors ~base cands =
  let groups = Int_tbl.create (Array.length cands) in
  Array.iteri
    (fun i a ->
      let l = Option.value ~default:[] (Int_tbl.find_opt groups a.min_key) in
      Int_tbl.replace groups a.min_key (i :: l))
    cands;
  let by_var = bindings_by_var (Array.map (fun a -> a.subst) cands) in
  survivors
    (fun i ->
      let a = cands.(i) in
      let n = Array.length a.keys in
      List.for_all
        (fun j ->
          let b = cands.(j).keys in
          Array.length b <= n || not (subset_keys a.keys b))
        (Int_tbl.find groups a.min_key)
      && skip_till_pairs_ok ~by_var
           ~in_subst:(fun v seq -> mem_keys a.keys ((v * base) + seq))
           a.subst)
    cands

let finalize ?(policy = Operational) p substs =
  ignore p;
  match substs with
  | [] -> []
  | _ ->
      let base =
        1
        + List.fold_left
            (List.fold_left (fun m (_, e) -> Int.max m (Event.seq e)))
            0 substs
      in
      let seen = Packed_tbl.create (List.length substs) in
      let cands =
        Array.of_list
          (List.filter_map
             (fun s ->
               let a = pack ~base s in
               if Packed_tbl.mem seen a.keys then None
               else begin
                 Packed_tbl.add seen a.keys ();
                 Some a
               end)
             substs)
      in
      let kept =
        match policy with
        | Operational -> operational_survivors cands
        | Literal -> literal_survivors ~base cands
      in
      List.map
        (fun a -> a.subst)
        (List.sort
           (fun a b ->
             let c = Option.compare Time.compare a.min_t b.min_t in
             if c <> 0 then c else compare_keys a.keys b.keys)
           kept)

let pp p ppf subst =
  let items =
    List.map (fun (v, e) -> Pattern.var_name p v ^ "/" ^ Event.name e) subst
  in
  Format.fprintf ppf "{%s}" (String.concat ", " items)
