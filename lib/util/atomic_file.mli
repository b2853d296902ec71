(** Crash-safe file replacement: readers of [path] see either the old
    contents or the new ones, never a torn mix. *)

(** [write path f] runs [f] on a channel to a temp file beside [path]
    (same directory, so the rename cannot cross file systems), fsyncs
    it, renames it over [path] and fsyncs the directory. If [f] or any
    step before the rename raises, the temp file is removed, [path] is
    untouched and the exception propagates. One writer per [path] at a
    time. *)
val write : string -> (out_channel -> 'a) -> 'a
