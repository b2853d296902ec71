(* analytic: in-process, single thread, no wire.  Each round commits a
   seeded insert-only batch through Governor.commit — a new epoch, so
   every result of the round is cold — then evaluates the fixed set of
   heavy queries in Inputs.analytic_queries. *)

open Gqkg_graph
open Gqkg_core
module Budget = Gqkg_util.Budget
module Regex_parser = Gqkg_automata.Regex_parser
module Crpq = Gqkg_logic.Crpq
module Crpq_parser = Gqkg_logic.Crpq_parser
module Sparql = Gqkg_kg.Sparql
module H = Harness

type ctx = {
  p : Inputs.params;
  seed : int;
  seconds : float;
  graph : string;
  pg : Property_graph.t;
  tally : H.tally;
}

let make ~p ~seed ~seconds ~work ~tally =
  let pg = Inputs.contact_graph ~scale:p.Inputs.analytic_scale in
  let graph = Filename.concat work "analytic.gqs" in
  ignore (Snapshot_io.save ~path:graph (Snapshot.of_property pg));
  { p; seed; seconds; graph; pg; tally }

type state = { mgr : Epochs.t; store : Gqkg_kg.Triple_store.t }

(* The program's set-up: load the snapshot, build the epoch manager,
   convert the property graph to RDF for the SPARQL query. *)
let setup ctx =
  Semcache.reset ();
  (* Start every set-up from the same heap state: without this, garbage
     left by the previous set-up is collected during the next one. *)
  Gc.full_major ();
  let t0 = H.now_ns () in
  let snap, load_ms = H.time_ms (fun () -> Snapshot_io.load ctx.graph) in
  let mgr = Epochs.create (Overlay.base_of_snapshot snap) in
  let store = Gqkg_kg.Pg_rdf.of_property_graph ctx.pg in
  ({ mgr; store }, H.ms_since t0, load_ms)

let setups ctx n =
  let times = Array.make n 0.0 and loads = Array.make n 0.0 in
  let last = ref None in
  for i = 0 to n - 1 do
    let st, ms, load_ms = setup ctx in
    times.(i) <- ms;
    loads.(i) <- load_ms;
    last := Some st
  done;
  (Option.get !last, H.median times /. 1000.0, H.median loads)

type answer = Pairs of (int * int) list | Count of float | Rows of int list list | Terms of string list list

type counters = { mutable moves : int; mutable answers : int; mutable reuse : float list; mutable columns : int }

let complete ctx what (o : _ Budget.outcome) =
  (match o.Budget.completeness with
  | Budget.Complete -> ()
  | Budget.Partial _ -> H.fail ctx.tally "%s: partial answer" what);
  o.Budget.value

(* One query; with [traced], the planner's product is built beside the
   governed call (which then runs it through the product cache), so
   planning and kernel time separate and the product's moves count. *)
let eval_query ctx ~traced ~counters snap store q =
  let beside ~parent name prepare =
    if traced then
      match Spans.span ~parent name prepare with Planner.Ready p -> Some p | Planner.Empty -> None
    else None
  in
  let moves p = Option.iter (fun p -> counters.moves <- counters.moves + Product.moves_total p) p in
  match q with
  | Inputs.Pairs s ->
      let r = Spans.span "regex_parser.parse" (fun () -> Regex_parser.parse s) in
      if traced then
        ignore (Spans.span ~parent:"rpq.eval" "planner.semantic_key" (fun () -> Planner.semantic_key snap r));
      let p = beside ~parent:"rpq.eval" "planner.prepare" (fun () -> fst (Planner.prepare_pairs snap r)) in
      let o =
        Spans.span "rpq.eval" (fun () -> Governor.eval_pairs ~budget:Budget.unlimited snap r)
      in
      moves p;
      Pairs (complete ctx s o)
  | Inputs.Count (s, length) ->
      let r = Spans.span "regex_parser.parse" (fun () -> Regex_parser.parse s) in
      let p = beside ~parent:"count.eval" "planner.prepare_count" (fun () -> Planner.prepare snap r) in
      let o = Spans.span "count.eval" (fun () -> Governor.count ~budget:Budget.unlimited snap r ~length) in
      moves p;
      Count (complete ctx s o)
  | Inputs.Crpq s ->
      let rows = Spans.span "join.eval" (fun () -> Crpq.answers snap (Crpq_parser.parse s)) in
      counters.answers <- counters.answers + List.length rows;
      Rows (List.sort compare rows)
  | Inputs.Sparql s ->
      let rows = Spans.span "join.eval" (fun () -> Sparql.run store s) in
      counters.answers <- counters.answers + List.length rows;
      Terms (List.sort compare (List.map (List.map Gqkg_kg.Term.to_string) rows))

let batch ctx r = Inputs.batch ~seed:ctx.seed ~scale:ctx.p.Inputs.analytic_scale ~tag:"aw" r ~people:ctx.p.Inputs.analytic_batch

let commit ~counters mgr lines =
  let overlay =
    Spans.span "overlay.apply" (fun () ->
        let ov = Overlay.create (Epochs.base mgr) in
        List.iteri
          (fun i l ->
            match Journal.op_of_line ~line:(i + 1) l with
            | Some op -> Overlay.apply ~line:(i + 1) ov op
            | None -> ())
          lines;
        ov)
  in
  let _, reuse = Spans.span "epochs.commit" (fun () -> Governor.commit mgr overlay) in
  counters.reuse <- Overlay.reuse_ratio reuse :: counters.reuse;
  counters.columns <- List.length reuse.Overlay.reused + List.length reuse.Overlay.rebuilt

type round = { snap : Snapshot.t; answers : answer array }

type rounds = {
  n : int;
  read_ms : H.Samples.t array;  (** per window of [rounds_per_window] rounds *)
  write_ms : H.Samples.t;
  rates : H.Samples.t;  (** ops per second of each round *)
  first : round option;
  last : round option;
  wall_ms : float;
  live_max : int;
}

(* Latency windows of whole rounds, each with at least 100 reads so its
   90th percentile has ten samples beyond it. *)
let rounds_per_window = (100 + Array.length Inputs.analytic_queries - 1) / Array.length Inputs.analytic_queries

(* Rounds until [stop n elapsed_ms] says so. *)
let run_rounds ctx st ~traced ~counters ~stop =
  let windows = ref [] and writes = H.Samples.create () and rates = H.Samples.create () in
  let first = ref None and last = ref None and live_max = ref 0 in
  let t0 = H.now_ns () in
  let rec go r =
    if stop (r - 1) (H.ms_since t0) then r - 1
    else begin
      Spans.current_req := r;
      let (), wms = H.time_ms (fun () -> commit ~counters st.mgr (batch ctx r)) in
      ctx.tally.attempted <- ctx.tally.attempted + 1;
      H.Samples.add writes wms;
      live_max := max !live_max (List.length (Epochs.live_epochs st.mgr));
      let snap = Epochs.snapshot st.mgr in
      let round_ms = ref wms in
      if (r - 1) mod rounds_per_window = 0 then windows := H.Samples.create () :: !windows;
      let reads = List.hd !windows in
      let answers =
        Array.map
          (fun q ->
            let a, ms = H.time_ms (fun () -> eval_query ctx ~traced ~counters snap st.store q) in
            ctx.tally.attempted <- ctx.tally.attempted + 1;
            H.Samples.add reads ms;
            round_ms := !round_ms +. ms;
            a)
          Inputs.analytic_queries
      in
      H.Samples.add rates (float_of_int (1 + Array.length answers) /. (!round_ms /. 1000.0));
      let rd = Some { snap; answers } in
      if r = 1 then first := rd;
      last := rd;
      go (r + 1)
    end
  in
  let n = go 1 in
  (* a short last window joins the one before it *)
  let windows =
    match !windows with
    | last :: prev :: rest when n mod rounds_per_window <> 0 ->
        Array.iter (H.Samples.add prev) (H.Samples.to_array last);
        prev :: rest
    | ws -> ws
  in
  {
    n;
    read_ms = Array.of_list (List.rev windows);
    write_ms = writes;
    rates;
    first = !first;
    last = !last;
    wall_ms = H.ms_since t0;
    live_max = !live_max;
  }

(* ---- oracle ----

   For the first and the last round, against a snapshot rebuilt from
   scratch (journal replay of the generated graph plus the round's
   batches, frozen whole):
   - RPQ answers equal the kernel's on the scratch snapshot with the
     analyzer and minimization off, and, at the length bound
     Inputs.naive_bound, the kernel on the round's own snapshot agrees
     with Naive.pairs;
   - counts equal Naive.count;
   - CRPQ answers equal Crpq.answers_backtrack;
   - SPARQL rows equal Bgp.select_backtrack. *)
(* Run [f] with each flag set to its value, restoring them after. *)
let with_flags flags f =
  let saved = List.map (fun (r, _) -> (r, !r)) flags in
  List.iter (fun (r, v) -> r := v) flags;
  Fun.protect ~finally:(fun () -> List.iter (fun (r, v) -> r := v) saved) f

let check_round ctx st r rd =
  let scratch = Inputs.scratch_snapshot ctx.pg (List.init r (fun i -> batch ctx (i + 1))) in
  if scratch.Snapshot.num_nodes <> rd.snap.Snapshot.num_nodes || scratch.Snapshot.num_edges <> rd.snap.Snapshot.num_edges
  then H.fail ctx.tally "round %d: incremental snapshot differs in size from scratch" r;
  with_flags [ (Semcache.enabled, false) ] (fun () ->
      Array.iteri
        (fun i q ->
          let bad what = H.fail ctx.tally "round %d, query %d: %s" r i what in
          match (q, rd.answers.(i)) with
          | Inputs.Pairs s, Pairs got ->
              let regex = Regex_parser.parse s in
              let bound = Inputs.naive_bound in
              if Rpq.eval_pairs ~max_length:bound rd.snap regex <> Naive.pairs rd.snap regex ~max_length:bound
              then bad "kernel and Naive.pairs disagree at the length bound";
              let plain =
                with_flags
                  [ (Gqkg_analysis.Analyze.enabled, false); (Planner.minimize, false) ]
                  (fun () -> Rpq.eval_pairs scratch regex)
              in
              if got <> plain then bad "answer differs from the scratch evaluation"
          | Inputs.Count (s, length), Count got ->
              if int_of_float got <> Naive.count scratch (Regex_parser.parse s) ~length then
                bad "count differs from Naive.count"
          | Inputs.Crpq s, Rows got ->
              if got <> List.sort compare (Crpq.answers_backtrack scratch (Crpq_parser.parse s)) then
                bad "answers differ from Crpq.answers_backtrack"
          | Inputs.Sparql s, Terms got ->
              let q, _ = Sparql.parse s in
              let want = Gqkg_kg.Bgp.select_backtrack st.store q in
              if got <> List.sort compare (List.map (List.map Gqkg_kg.Term.to_string) want) then
                bad "rows differ from Bgp.select_backtrack"
          | _ -> bad "answer of the wrong kind")
        Inputs.analytic_queries)

let oracle ctx st rs =
  Option.iter (check_round ctx st 1) rs.first;
  if rs.n > 1 then Option.iter (check_round ctx st rs.n) rs.last

let no_counters () = { moves = 0; answers = 0; reuse = []; columns = 0 }

let run ctx ~trace ~work =
  if not trace then begin
    let st, setup_s, _ = setups ctx ctx.p.Inputs.setups in
    Gc.full_major ();
    let rs =
      run_rounds ctx st ~traced:false ~counters:(no_counters ())
        ~stop:(fun n ms -> n >= 3 && ms >= ctx.seconds *. 1000.0)
    in
    let rss = H.peak_rss_mb 0 in
    oracle ctx st rs;
    let writes = H.Samples.to_array rs.write_ms in
    Printf.printf
      "%d rounds; read_p50_ms and read_p90_ms over %d reads (median of %d windows); write_p50_ms over %d writes\n"
      rs.n (H.total_samples rs.read_ms) (Array.length rs.read_ms) (Array.length writes);
    [
      H.metric "setup_s" "s" setup_s;
      H.metric "ops_per_s" "1/s" (H.median (H.Samples.to_array rs.rates));
      H.metric "read_p50_ms" "ms" (H.windowed_quantile rs.read_ms 0.5);
      H.metric "read_p90_ms" "ms" (H.windowed_quantile rs.read_ms 0.9);
      H.metric "write_p50_ms" "ms" (H.quantile writes 0.5);
      H.metric "peak_rss_mb" "MB" rss;
    ]
  end
  else begin
    let rounds = ctx.p.Inputs.replay_rounds in
    let _, _, load_ms = setups ctx (min 3 ctx.p.Inputs.setups) in
    let fresh () =
      let st, _, _ = setup ctx in
      Spans.reset ();
      st
    in
    let untraced () =
      (run_rounds ctx (fresh ()) ~traced:false ~counters:(no_counters ()) ~stop:(fun n _ -> n >= rounds))
        .wall_ms
    in
    let traced () =
      let st = fresh () in
      let counters = no_counters () in
      let c0 = Semcache.stats () in
      let s0 = Product.states_interned_total () in
      let b0 = Frontier.batches_total () and u0 = Frontier.bottom_up_levels_total () in
      let g0 = Gc.quick_stat () in
      Spans.recording := true;
      let rs = run_rounds ctx st ~traced:true ~counters ~stop:(fun n _ -> n >= rounds) in
      Spans.recording := false;
      let g1 = Gc.quick_stat () in
      ( st,
        rs,
        {
          Layers.spans = Spans.totals ();
          cache0 = c0;
          cache1 = Semcache.stats ();
          states = Product.states_interned_total () - s0;
          moves = counters.moves;
          batches = Frontier.batches_total () - b0;
          bottom_up = Frontier.bottom_up_levels_total () - u0;
          reuse = counters.reuse;
          columns = counters.columns;
          live_max = rs.live_max;
          load_ms;
          gc_major = g1.Gc.major_collections - g0.Gc.major_collections;
          gc_minor_mb = (g1.Gc.minor_words -. g0.Gc.minor_words) *. 8.0 /. 1e6;
          server_overhead = 0.0;
          server_eval = 0.0;
          queue_peak = 0.0;
          shed = 0.0;
          trips = 0.0;
          join_answers = counters.answers;
          overhead_frac = 0.0;
        } )
    in
    (* untraced, traced, untraced, traced, as in the serve replays *)
    let u1 = untraced () in
    let _, t1, _ = traced () in
    let u2 = untraced () in
    let st, rs, layers = traced () in
    let untraced_ms = u1 +. u2 and traced_ms = t1.wall_ms +. rs.wall_ms in
    Spans.write_jsonl (Filename.concat work "spans-analytic.jsonl");
    Printf.printf "replay: %d rounds twice each, untraced %.1f ms, traced %.1f ms\n" rounds untraced_ms traced_ms;
    oracle ctx st rs;
    Layers.metrics { layers with Layers.overhead_frac = (traced_ms /. untraced_ms) -. 1.0 }
  end
