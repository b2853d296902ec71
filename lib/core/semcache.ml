(* The semantic caches are two kinds of entry in each snapshot's memo
   (Gqkg_graph.Memo), keyed by canonical key: they live on the snapshot
   they were computed from and retire with its epoch. *)

open Gqkg_graph

type stats = {
  plan_hits : int;
  plan_misses : int;
  result_hits : int;
  result_misses : int;
  invalidated : int;
}

let enabled = ref true
let plans : (string, Product.t) Memo.kind = Memo.kind ~cap:32
let results : (string, (int * int) list) Memo.kind = Memo.kind ~cap:128

let stats () =
  let p = Memo.counts plans and r = Memo.counts results in
  {
    plan_hits = p.Memo.hits;
    plan_misses = p.Memo.misses;
    result_hits = r.Memo.hits;
    result_misses = r.Memo.misses;
    invalidated = p.Memo.dropped + r.Memo.dropped;
  }

let reset () =
  Memo.reset_counts plans;
  Memo.reset_counts results

let find kind (s : Snapshot.t) key = if !enabled then Memo.find s.memo kind key else None
let store kind (s : Snapshot.t) key v = if !enabled then ignore (Memo.add s.memo kind key v)
(* A product keeps interning states as kernels walk it, so it is one
   thread's working set: plan keys carry the caller's thread id, and two
   threads never walk one product at once. *)
let own key = key ^ "|t" ^ string_of_int (Thread.id (Thread.self ()))
let find_product s ~key = find plans s (own key)
let store_product s ~key p = store plans s (own key) p
let find_pairs s ~key = find results s key
let store_pairs s ~key v = store results s key v
