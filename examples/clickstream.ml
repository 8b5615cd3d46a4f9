(* Click-stream funnel analysis, one of the paper's motivating domains.

   Which shoppers completed the research funnel? They visited the product
   page, the reviews and the pricing page — in any order, because browser
   tabs — and then checked out, all within a 20-minute session window.
   A strict-sequence engine would need 3! = 6 patterns for the research
   phase; the SES pattern needs one PERMUTE.

   The example uses the planner front door: it selects the strong event
   filter (every variable is label-constrained). Because the pattern
   joins every variable pair on USER, the engine keeps each state's
   instances in per-user sub-buckets, and a page view walks only its own
   user's.

   Run with: dune exec examples/clickstream.exe *)

open Ses_event
open Ses_core
open Ses_gen

let query =
  "PATTERN (prod, rev, price) -> buy\n\
   WHERE prod.PAGE = 'product' AND rev.PAGE = 'reviews'\n\
  \  AND price.PAGE = 'pricing' AND buy.PAGE = 'checkout'\n\
  \  AND prod.USER = rev.USER AND prod.USER = price.USER\n\
  \  AND prod.USER = buy.USER AND rev.USER = price.USER\n\
  \  AND rev.USER = buy.USER AND price.USER = buy.USER\n\
   WITHIN 1200"

let () =
  let feed = Clickstream.generate Clickstream.default in
  Format.printf "Generated %d clicks over %d seconds@."
    (Relation.cardinality feed) (Relation.duration feed);

  let p = Ses_lang.Lang.parse_pattern_exn Clickstream.schema query in
  let automaton = Automaton.of_pattern p in
  let plan = Planner.plan automaton in
  Format.printf "Plan:@.%s" (Planner.describe plan);

  let outcome = Planner.execute plan automaton (Relation.to_seq feed) in
  Format.printf "Completed funnels: %d (of %d shoppers, ~2/3 convert)@."
    (List.length outcome.Engine.matches)
    Clickstream.default.Clickstream.shoppers;
  List.iteri
    (fun i s ->
      if i < 5 then Format.printf "  %a@." (Substitution.pp p) s)
    outcome.Engine.matches;

  (* Cross-check with the plain engine: the plan is result-transparent. *)
  let direct = Engine.run_relation automaton feed in
  Format.printf "Planner agrees with the direct run: %b@."
    (List.length direct.Engine.matches = List.length outcome.Engine.matches)
