(* The per-layer metrics of a traced run, from the recorded spans and
   the deltas of the program's public counters.  A layer the workload
   does not reach reads 0. *)

open Gqkg_core
module H = Harness

type inputs = {
  spans : (string, float * int) Hashtbl.t;
  cache0 : Semcache.stats;
  cache1 : Semcache.stats;
  states : int;
  moves : int;
  batches : int;
  bottom_up : int;
  reuse : float list;
  columns : int;
  live_max : int;
  load_ms : float;
  gc_major : int;
  gc_minor_mb : float;
  server_overhead : float;
  server_eval : float;
  queue_peak : float;
  shed : float;
  trips : float;
  join_answers : int;
  overhead_frac : float;
}

let metrics li =
  let m = H.metric in
  let t = li.spans in
  let hits = li.cache1.Semcache.result_hits - li.cache0.Semcache.result_hits in
  let misses = li.cache1.Semcache.result_misses - li.cache0.Semcache.result_misses in
  let lookups = hits + misses in
  let us x = x *. 1000.0 in
  Printf.printf "semcache.hit_ratio %.4f of %d lookups; overlay.reuse_ratio over %d columns\n"
    (if lookups = 0 then 0.0 else float_of_int hits /. float_of_int lookups)
    lookups li.columns;
  [
    m "server.overhead_p50_ms" "ms" li.server_overhead;
    m "server.eval_p50_ms" "ms" li.server_eval;
    m "admission.queue_peak" "count" li.queue_peak;
    m "server.shed" "count" li.shed;
    m "server.budget_trips" "count" li.trips;
    m "jsonx.encode_us" "us" (us (Spans.mean_ms t "jsonx.encode"));
    m "jsonx.parse_us" "us" (us (Spans.mean_ms t "jsonx.parse"));
    m "regex_parser.parse_us" "us" (us (Spans.mean_ms t "regex_parser.parse"));
    m "planner.semantic_key_us" "us" (us (Spans.mean_ms t "planner.semantic_key"));
    m "planner.prepare_ms" "ms" (Spans.mean_ms_of t [ "planner.prepare"; "planner.prepare_count" ]);
    m "semcache.hit_ratio" "ratio" (if lookups = 0 then 0.0 else float_of_int hits /. float_of_int lookups);
    m "semcache.lookups" "count" (float_of_int lookups);
    m "semcache.invalidated" "count"
      (float_of_int (li.cache1.Semcache.invalidated - li.cache0.Semcache.invalidated));
    m "rpq.eval_ms" "ms" (Spans.self_ms t ~outer:"rpq.eval" ~inner:[ "planner.semantic_key"; "planner.prepare" ]);
    m "product.states_interned" "count" (float_of_int li.states);
    m "product.moves" "count" (float_of_int li.moves);
    m "frontier.batches" "count" (float_of_int li.batches);
    m "frontier.bottom_up_levels" "count" (float_of_int li.bottom_up);
    m "count.eval_ms" "ms" (Spans.self_ms t ~outer:"count.eval" ~inner:[ "planner.prepare_count" ]);
    m "join.eval_ms" "ms" (Spans.mean_ms t "join.eval");
    m "join.answers" "count" (float_of_int li.join_answers);
    m "overlay.apply_us" "us" (us (Spans.mean_ms t "overlay.apply"));
    m "epochs.commit_ms" "ms" (Spans.mean_ms t "epochs.commit");
    m "overlay.reuse_ratio" "ratio" (match li.reuse with [] -> 0.0 | r -> H.mean (Array.of_list r));
    m "epochs.live_max" "count" (float_of_int li.live_max);
    m "snapshot_io.load_ms" "ms" li.load_ms;
    m "gc.major_collections" "count" (float_of_int li.gc_major);
    m "gc.minor_mb" "MB" li.gc_minor_mb;
    m "trace.overhead_frac" "ratio" li.overhead_frac;
  ]

