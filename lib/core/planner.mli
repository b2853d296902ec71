(** Bridge between the static analyzer and the product kernel: plans a
    query (prune, trim, estimate seed costs) before building the
    product. With {!Gqkg_analysis.Analyze.enabled} off, reproduces the
    pre-analyzer path exactly.

    The optional [budget] is attached to the built product, so every
    kernel downstream shares one cooperative resource budget. *)

open Gqkg_graph
open Gqkg_automata

type prep =
  | Empty  (** statically empty: answer without building any product state *)
  | Ready of Product.t

val prepare : ?budget:Gqkg_util.Budget.t -> Snapshot.t -> Regex.t -> prep

(** Also expose the analyzer report ([None] when analysis is off). *)
val prepare_with_report :
  ?budget:Gqkg_util.Budget.t ->
  Snapshot.t ->
  Regex.t ->
  prep * Gqkg_analysis.Analyze.report option

(** Planning for all-pairs evaluation, where direction is free: when
    backward seeding is estimated decisively cheaper, builds the product
    over the reversed automaton; the boolean says whether the caller
    must swap each result pair. *)
val prepare_pairs : ?budget:Gqkg_util.Budget.t -> Snapshot.t -> Regex.t -> prep * bool

(** Evaluate the minimized canonical automaton when it is strictly
    smaller than the trimmed one (identity-preserving otherwise), and
    key the semantic plan cache by canonical-automaton key. Default
    [true]; [false] restores the pre-decision-procedure planner. *)
val minimize : bool ref

(** Deterministic state cap for planning-time canonicalization
    (default 256); past it the query is evaluated untouched. *)
val canon_max_states : int ref

(** Everything [explain] wants to show about a plan. *)
type plan = {
  prep : prep;
  report : Gqkg_analysis.Analyze.report option;  (** [None]: analysis off *)
  canon : Gqkg_analysis.Decide.canonical option;
      (** canonical form, when minimization is on and within its cap *)
  minimized : bool;  (** canonical automaton substituted for evaluation *)
  plan_cache_hit : bool;  (** product served from the semantic plan cache *)
  swapped : bool;
}

val prepare_explained : ?budget:Gqkg_util.Budget.t -> Snapshot.t -> Regex.t -> plan

(** Canonical cache key of the query on this snapshot ([None] when
    analysis/minimization is off, the query is statically empty, or
    canonicalization gave up) — the Governor's result-cache key
    ingredient. *)
val semantic_key : Snapshot.t -> Regex.t -> string option

(** The snapshot's vocabulary schema, one entry of its memo: one
    {!Gqkg_analysis.Schema.of_snapshot} derivation per snapshot, shared
    by every plan on it and dropped when its epoch retires. *)
val schema_for : Snapshot.t -> Gqkg_analysis.Schema.t
