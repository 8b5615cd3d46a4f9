(* Order statistics over raw samples. Percentiles are exact nearest-rank
   values of the samples themselves (no histogram buckets, so no
   estimation error); quartiles follow Python's
   [statistics.quantiles(values, n=4)] (the "exclusive" method), the rule
   the benchmark's spread checks are stated in. *)

let sorted values =
  let a = Array.of_list values in
  Array.sort Float.compare a;
  a

(* Nearest rank: the smallest sample with at least [p]% of the samples
   at or below it. *)
let percentile_sorted a p =
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
  a.(max 0 (min (n - 1) (rank - 1)))

(* The percentiles a tail is reported at, highest first. *)
let tail_candidates = [ 99.99; 99.9; 99.; 95.; 90.; 75.; 50. ]

(* The highest candidate percentile that still has at least ten samples
   above its rank, with its value; [None] with fewer than eleven
   samples. *)
let tail values =
  let a = sorted values in
  let n = Array.length a in
  List.find_map
    (fun p ->
      let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
      if n > 0 && n - rank >= 10 then Some (p, percentile_sorted a p) else None)
    tail_candidates

(* [statistics.quantiles(values, n=4)]: (q1, q2, q3). A single sample is
   its own quartiles (Python raises there). *)
let quartiles values =
  let a = sorted values in
  let ld = Array.length a in
  if ld = 0 then invalid_arg "Stats.quartiles: no samples";
  if ld = 1 then (a.(0), a.(0), a.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 2, q 3)

(* The middle quartile: the mean of the two middle samples for an even
   count, like [statistics.median]. *)
let median values =
  let _, m, _ = quartiles values in
  m

(* Inter-quartile distance as a share of the median. *)
let spread values =
  let q1, q2, q3 = quartiles values in
  if Float.equal q2 0. then 0. else (q3 -. q1) /. Float.abs q2
