(** One snapshot's derived values: the epoch-scoped memo every
    {!Snapshot.t} carries in its [memo] field.

    A snapshot is immutable, so anything computed from it alone — the
    join index, the vocabulary schema, warmed query plans, full result
    sets — stays valid for exactly as long as the snapshot does. The
    memo keeps such values next to the snapshot instead of in
    process-wide tables keyed by epoch: entries live and die with their
    snapshot, and {!Epochs} {!retire}s the memo the moment it retires
    the epoch (superseded and unpinned).

    Each kind of value is one typed table ({!kind}) with its own
    drop-oldest bound. Every operation holds the memo's mutex for a
    short list scan only; values are built outside it, so two threads
    racing on one key may both build, and the first to store wins. *)

(** A kind of derived value: keys of type ['k] (compared structurally),
    values of type ['v], at most [cap] entries per snapshot (the oldest
    is dropped first). A kind also counts, across all memos, its
    lookups and the entries {!retire} dropped. *)
type ('k, 'v) kind

val kind : cap:int -> ('k, 'v) kind

type t

(** An empty memo, for a freshly constructed snapshot. *)
val create : unit -> t

(** Look a key up, counting a hit or a miss on the kind. *)
val find : t -> ('k, 'v) kind -> 'k -> 'v option

(** Store a value unless the key is present; returns the stored value
    (the earlier one on a race). A retired memo stores nothing and
    returns the given value. *)
val add : t -> ('k, 'v) kind -> 'k -> 'v -> 'v

(** [find], else build, [add] and return. *)
val find_or_add : t -> ('k, 'v) kind -> 'k -> (unit -> 'v) -> 'v

(** Entries held, over all kinds. *)
val size : t -> int

(** Drop every entry, counting them on their kinds, and refuse further
    stores: the snapshot's epoch has retired. *)
val retire : t -> unit

type counts = { hits : int; misses : int; dropped : int }

(** A kind's counters since the last {!reset_counts}. *)
val counts : ('k, 'v) kind -> counts

val reset_counts : ('k, 'v) kind -> unit
