open Ses_event

type atom = Schema.Field.t * Predicate.op * Value.t

(* One strong-filter clause: a conjunction of constant atoms over one
   variable of one query. The query is relevant to an event iff some
   clause is fully satisfied. [c_atoms] holds deduplicated atom ids with
   the clause's anchor first. *)
type clause = { c_query : int; c_atoms : int array }

(* Equality dispatch for one field: anchor atoms of the form [A = C],
   keyed by the constant so a whole field's worth of anchors resolves in
   one probe of the table matching the event value's type. *)
type field_entry = {
  f_field : Schema.Field.t;
  f_int : (int, int) Hashtbl.t;
  f_str : (string, int) Hashtbl.t;
  f_float : (float, int) Hashtbl.t;
}

type t = {
  atoms : atom array;
  a_stamp : int array;  (* event stamp of the atom's last evaluation *)
  a_truth : bool array;
  subscribers : clause array array;  (* by anchor atom id *)
  fields : field_entry array;  (* fields carrying equality anchors *)
  scan_anchors : int array;  (* non-equality anchors, evaluated per event *)
  always : bool array;  (* by query: unroutable, relevant to every event *)
  q_stamp : int array;  (* by query: the last event stamp that woke it *)
  naive_cost : int;
      (* atoms the registered strong filters conjoin in total: what
         evaluating every clause of every query against one event costs
         without sharing (and without short-circuiting) *)
  mutable stamp : int;
  mutable evaluated : int;
  mutable saved : int;
}

let atom_key (field, op, v) =
  let b = Buffer.create 24 in
  (match field with
  | Schema.Field.Attr i ->
      Buffer.add_char b 'a';
      Buffer.add_string b (string_of_int i)
  | Schema.Field.Timestamp -> Buffer.add_char b 'T');
  Buffer.add_string b (Predicate.to_string op);
  (match v with
  | Value.Int i ->
      Buffer.add_char b 'i';
      Buffer.add_string b (string_of_int i)
  | Value.Float f ->
      Buffer.add_char b 'f';
      Buffer.add_string b (string_of_float f)
  | Value.Str s ->
      Buffer.add_char b 's';
      Buffer.add_string b s);
  Buffer.contents b

let create ?continue_from specs =
  let n_queries = Array.length specs in
  let ids = Hashtbl.create 64 in
  let atoms_rev = ref [] in
  let n_atoms = ref 0 in
  let intern atom =
    let key = atom_key atom in
    match Hashtbl.find_opt ids key with
    | Some i -> i
    | None ->
        let i = !n_atoms in
        Hashtbl.replace ids key i;
        atoms_rev := atom :: !atoms_rev;
        incr n_atoms;
        i
  in
  let always = Array.make n_queries false in
  let clauses = ref [] in
  let naive_cost = ref 0 in
  Array.iteri
    (fun qid spec ->
      match spec with
      | None -> always.(qid) <- true
      | Some cs ->
          if List.exists (fun c -> c = []) cs then
            (* A vacuous clause accepts every event. *)
            always.(qid) <- true
          else
            List.iter
              (fun c ->
                naive_cost := !naive_cost + List.length c;
                let atom_ids =
                  List.sort_uniq Int.compare (List.map intern c)
                in
                clauses :=
                  { c_query = qid; c_atoms = Array.of_list atom_ids }
                  :: !clauses)
              cs)
    specs;
  let atoms = Array.of_list (List.rev !atoms_rev) in
  let n = Array.length atoms in
  (* Distinct equality constants per field, for anchor selectivity: the
     more values a field splits its anchors over, the fewer clauses one
     event can wake through it. *)
  let eq_values = Hashtbl.create 8 in
  Array.iter
    (fun (field, op, v) ->
      if op = Predicate.Eq then begin
        let key = atom_key (field, Predicate.Eq, Value.Int 0) in
        let seen =
          match Hashtbl.find_opt eq_values key with
          | Some set -> set
          | None ->
              let set = Hashtbl.create 16 in
              Hashtbl.replace eq_values key set;
              set
        in
        Hashtbl.replace seen (atom_key (field, Predicate.Eq, v)) ()
      end)
    atoms;
  let selectivity i =
    let field, op, _ = atoms.(i) in
    if op <> Predicate.Eq then 0
    else
      match
        Hashtbl.find_opt eq_values (atom_key (field, Predicate.Eq, Value.Int 0))
      with
      | Some set -> Hashtbl.length set
      | None -> 0
  in
  (* Anchor: the clause's most selective equality atom, else its first
     atom (by id, for determinism), which then joins the per-event scan
     list. The anchor moves to slot 0 so verification skips it. *)
  let subs = Array.make n [] in
  let scan = Hashtbl.create 8 in
  List.iter
    (fun c ->
      let best = ref c.c_atoms.(0) in
      Array.iter
        (fun i -> if selectivity i > selectivity !best then best := i)
        c.c_atoms;
      let anchor = !best in
      let rest =
        Array.of_list
          (List.filter (fun i -> i <> anchor) (Array.to_list c.c_atoms))
      in
      let c_atoms = Array.append [| anchor |] rest in
      subs.(anchor) <- { c with c_atoms } :: subs.(anchor);
      if selectivity anchor = 0 then Hashtbl.replace scan anchor ())
    !clauses;
  let subscribers = Array.map (fun l -> Array.of_list (List.rev l)) subs in
  (* Dispatch tables over the equality anchors, one entry per field. *)
  let field_tbl = Hashtbl.create 8 in
  let field_order = ref [] in
  for i = 0 to n - 1 do
    let field, op, v = atoms.(i) in
    if op = Predicate.Eq && Array.length subscribers.(i) > 0 then begin
      let key = atom_key (field, Predicate.Eq, Value.Int 0) in
      let fe =
        match Hashtbl.find_opt field_tbl key with
        | Some fe -> fe
        | None ->
            let fe =
              {
                f_field = field;
                f_int = Hashtbl.create 16;
                f_str = Hashtbl.create 16;
                f_float = Hashtbl.create 16;
              }
            in
            Hashtbl.replace field_tbl key fe;
            field_order := fe :: !field_order;
            fe
      in
      match v with
      | Value.Int c -> Hashtbl.replace fe.f_int c i
      | Value.Str s -> Hashtbl.replace fe.f_str s i
      | Value.Float f -> Hashtbl.replace fe.f_float f i
    end
  done;
  {
    atoms;
    a_stamp = Array.make (max 1 n) 0;
    a_truth = Array.make (max 1 n) false;
    subscribers;
    fields = Array.of_list (List.rev !field_order);
    scan_anchors =
      Array.of_list
        (List.sort Int.compare (Hashtbl.fold (fun i () acc -> i :: acc) scan []));
    always;
    q_stamp = Array.make (max 1 n_queries) 0;
    naive_cost = !naive_cost;
    stamp = 0;
    evaluated = Option.fold ~none:0 ~some:(fun t -> t.evaluated) continue_from;
    saved = Option.fold ~none:0 ~some:(fun t -> t.saved) continue_from;
  }

let atom_true t e i =
  if t.a_stamp.(i) = t.stamp then t.a_truth.(i)
  else begin
    t.a_stamp.(i) <- t.stamp;
    t.evaluated <- t.evaluated + 1;
    let v = Event_filter.satisfies_atom e t.atoms.(i) in
    t.a_truth.(i) <- v;
    v
  end

(* Whether atoms [j..] of a clause hold on [e]. *)
let rec rest_holds t e atoms j =
  j >= Array.length atoms
  || (atom_true t e atoms.(j) && rest_holds t e atoms (j + 1))

(* Anchor [i] holds on [e]: lazily verify each subscribing clause's
   remaining atoms, waking each query at most once per event. *)
let fire t e i =
  let subs = t.subscribers.(i) in
  for s = 0 to Array.length subs - 1 do
    let c = subs.(s) in
    if t.q_stamp.(c.c_query) <> t.stamp && rest_holds t e c.c_atoms 1 then
      t.q_stamp.(c.c_query) <- t.stamp
  done

(* The equality anchor of [fe]'s field that [v] satisfies, or -1. *)
let anchor_of fe v =
  match
    match v with
    | Value.Int i -> Hashtbl.find fe.f_int i
    | Value.Str s -> Hashtbl.find fe.f_str s
    | Value.Float f -> Hashtbl.find fe.f_float f
  with
  | a -> a
  | exception Not_found -> -1

let route t e =
  t.stamp <- t.stamp + 1;
  let before = t.evaluated in
  for f = 0 to Array.length t.fields - 1 do
    let fe = t.fields.(f) in
    t.evaluated <- t.evaluated + 1;
    let a = anchor_of fe (Event.get e fe.f_field) in
    if a >= 0 then begin
      t.a_stamp.(a) <- t.stamp;
      t.a_truth.(a) <- true;
      fire t e a
    end
  done;
  for k = 0 to Array.length t.scan_anchors - 1 do
    let a = t.scan_anchors.(k) in
    if atom_true t e a then fire t e a
  done;
  let spent = t.evaluated - before in
  if t.naive_cost > spent then t.saved <- t.saved + (t.naive_cost - spent)

let routes t q = t.always.(q) || t.q_stamp.(q) = t.stamp

let n_atoms t = Array.length t.atoms

let evaluated t = t.evaluated

let saved t = t.saved

let hit_rate t =
  let total = t.evaluated + t.saved in
  if total = 0 then 0.0 else float_of_int t.saved /. float_of_int total
