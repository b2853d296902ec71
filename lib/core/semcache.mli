(** The Governor's semantic cache: plans (warmed products) and full
    result sets keyed by canonical-automaton key, held in the memo of
    the snapshot they were computed on ({!Gqkg_graph.Snapshot.t.memo}).

    The key contract (DESIGN.md §5g): two queries share a canonical key
    exactly when their minimal DFAs over the shared signature alphabet
    are isomorphic, which implies equal languages over that alphabet and
    therefore — because every realizable node/edge outcome vector is
    among the enumerated letters — equal answer sets on any snapshot.
    Entries sit on their snapshot, so they can never leak across graph
    versions, and they are dropped the moment {!Gqkg_graph.Epochs}
    retires the snapshot's epoch. Only [Complete] results may be stored
    (callers enforce this); a partial answer under a tripped budget is
    never served back.

    Each snapshot holds at most 32 plans and 128 result sets, dropping
    the oldest first. *)

open Gqkg_graph

(** Process-wide counters since the last {!reset}. *)
type stats = {
  plan_hits : int;
  plan_misses : int;
  result_hits : int;
  result_misses : int;
  invalidated : int;  (** entries dropped when their snapshot's epoch retired *)
}

(** Master switch; [false] makes every lookup miss silently (no
    counter movement) and every store a no-op. Default [true]. *)
val enabled : bool ref

val stats : unit -> stats

(** Zero the counters (tests, bench A/B runs). Entries stay on their
    snapshots. *)
val reset : unit -> unit

(** Plan cache: warmed product automata, reusable across evaluations on
    the same snapshot. A product keeps interning states while kernels
    walk it, so each thread has its own: a thread never gets a product
    stored by another. *)
val find_product : Snapshot.t -> key:string -> Product.t option

val store_product : Snapshot.t -> key:string -> Product.t -> unit

(** Result cache: full sorted pair sets of [eval_pairs] (the caller
    folds any [max_length] into the key). *)
val find_pairs : Snapshot.t -> key:string -> (int * int) list option

val store_pairs : Snapshot.t -> key:string -> (int * int) list -> unit
