(* The bridge between the static analyzer and the product kernel: every
   core entry point plans its query here instead of calling
   [Product.create] directly.

   With analysis enabled (the default), the query is pruned, its NFA
   trimmed, and seed costs estimated; a statically-empty query yields
   [Empty] and the caller answers without constructing any product state
   at all.  With analysis disabled, [prepare] reproduces the
   pre-analyzer path bit for bit: the untrimmed Thompson automaton of
   the original expression, no hints.

   On top of that, with [minimize] on (the default), the trimmed
   automaton is canonicalized by the decision procedures (Decide):
   when the minimal canonical automaton is strictly smaller it is
   evaluated instead of the trimmed one (identity-preserving when the
   automaton is already minimal), and its canonical key makes
   syntactically different but equivalent queries share one entry in
   the semantic plan cache (Semcache).  Canonicalization runs under a
   pure state cap — no wall clock — so planning stays deterministic;
   when it gives up, the trimmed automaton is used as before.

   The optional [budget] is attached to the product here, so every
   kernel downstream of the planner shares one cooperative resource
   budget without further parameter threading.  Cached plans are only
   looked up or stored for unlimited budgets: a product warmed under a
   tripped budget must never be served to an unbudgeted caller. *)

module Analyze = Gqkg_analysis.Analyze
module Decide = Gqkg_analysis.Decide
module Schema = Gqkg_analysis.Schema
module Budget = Gqkg_util.Budget
module Nfa = Gqkg_automata.Nfa
module Regex = Gqkg_automata.Regex

type prep = Empty | Ready of Product.t

(* Evaluate the minimized canonical automaton instead of the trimmed
   one?  Bench A/Bs this; [false] restores the pre-decision-procedure
   planner exactly. *)
let minimize = ref true

(* State cap for planning-time canonicalization: deterministic (no
   wall-clock component) and small — a query automaton that blows past
   this is evaluated untouched. *)
let canon_max_states = ref 256

type plan = {
  prep : prep;
  report : Analyze.report option;
  canon : Decide.canonical option;
  minimized : bool;  (** the canonical automaton is the one being evaluated *)
  plan_cache_hit : bool;
  swapped : bool;
}

(* Schema derivation is per snapshot, not per query: the vocabulary
   summary is a pure function of the (immutable) columns, so it is one
   entry of the snapshot's memo. *)
let schemas : (unit, Schema.t) Gqkg_graph.Memo.kind = Gqkg_graph.Memo.kind ~cap:1

let schema_for (inst : Gqkg_graph.Snapshot.t) =
  Gqkg_graph.Memo.find_or_add inst.memo schemas () (fun () -> Schema.of_snapshot inst)

let canonical_for inst nfa =
  if not !minimize then None
  else Decide.canonicalize_nfa ~schema:(schema_for inst) ~max_states:!canon_max_states nfa

let cacheable = function None -> true | Some b -> Budget.is_unlimited b

let plan_query ?budget ~for_pairs inst regex =
  match Analyze.plan_if_enabled inst regex with
  | None ->
      {
        prep = Ready (Product.create ?budget inst regex);
        report = None;
        canon = None;
        minimized = false;
        plan_cache_hit = false;
        swapped = false;
      }
  | Some r -> (
      match r.Analyze.nfa with
      | None ->
          {
            prep = Empty;
            report = Some r;
            canon = None;
            minimized = false;
            plan_cache_hit = false;
            swapped = false;
          }
      | Some nfa ->
          let swap = for_pairs && r.Analyze.bwd_cost *. 2.0 < r.Analyze.fwd_cost in
          let canon = canonical_for inst nfa in
          let minimized, base_nfa =
            match canon with
            | Some c when c.Decide.states < Nfa.num_states nfa -> (true, c.Decide.nfa)
            | _ -> (false, nfa)
          in
          let eval_nfa = if swap then Nfa.reverse base_nfa else base_nfa in
          let fwd, bwd =
            if swap then (r.Analyze.bwd_cost, r.Analyze.fwd_cost)
            else (r.Analyze.fwd_cost, r.Analyze.bwd_cost)
          in
          let eval_regex = if swap then Regex.reverse r.Analyze.regex else r.Analyze.regex in
          let hints = { Product.fwd_seed_cost = fwd; bwd_seed_cost = bwd } in
          let build () = Product.create ?budget ~nfa:eval_nfa ~hints inst eval_regex in
          let mk prep hit =
            {
              prep;
              report = Some r;
              canon;
              minimized;
              plan_cache_hit = hit;
              swapped = swap;
            }
          in
          let key =
            match canon with
            | Some c when cacheable budget ->
                Some (if swap then c.Decide.key ^ "|rev" else c.Decide.key)
            | _ -> None
          in
          (match key with
          | None -> mk (Ready (build ())) false
          | Some key -> (
              match Semcache.find_product inst ~key with
              | Some p -> mk (Ready p) true
              | None ->
                  let p = build () in
                  Semcache.store_product inst ~key p;
                  mk (Ready p) false)))

let prepare ?budget inst regex = (plan_query ?budget ~for_pairs:false inst regex).prep

let prepare_with_report ?budget inst regex =
  let p = plan_query ?budget ~for_pairs:false inst regex in
  (p.prep, p.report)

let prepare_pairs ?budget inst regex =
  let p = plan_query ?budget ~for_pairs:true inst regex in
  (p.prep, p.swapped)

let prepare_explained ?budget inst regex = plan_query ?budget ~for_pairs:false inst regex

(* The canonical key of a query on this snapshot, for semantic result
   caching: [None] when analysis or minimization is off, the query is
   statically empty (already O(1) — nothing to cache), or
   canonicalization gave up. *)
let semantic_key inst regex =
  if not !minimize then None
  else
    match Analyze.plan_if_enabled inst regex with
    | None -> None
    | Some r -> (
        match r.Analyze.nfa with
        | None -> None
        | Some nfa -> Option.map (fun c -> c.Decide.key) (canonical_for inst nfa))
