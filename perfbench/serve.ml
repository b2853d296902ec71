(* serve-hot and serve-churn: a real `gqkg serve` over loopback, driven
   by this single-threaded process through two connections, closed
   loop (the protocol allows one request in flight per connection).

   serve-hot   both connections read; a warm-up pass has filled the
               semantic cache, so every timed read is a hit.  A short
               mutate probe after the read phase gives write_p50_ms.
   serve-churn one connection writes insert-only batches on a fixed
               pacing, the other reads; each commit retires the cache,
               so almost every read misses. *)

open Gqkg_graph
open Gqkg_core
module Jsonx = Gqkg_server.Jsonx
module Budget = Gqkg_util.Budget
module Regex_parser = Gqkg_automata.Regex_parser
module H = Harness

type ctx = {
  p : Inputs.params;
  seed : int;
  seconds : float;
  gqkg : string;
  graph : string;  (** the .gqs file the daemon serves *)
  err_log : string;
  pg : Property_graph.t;  (** the generated graph behind [graph] *)
  expected : (int * string) array;  (** per pool query: total and first page *)
  tally : H.tally;
}

let strip_ws s = String.concat "" (String.split_on_char ' ' s)

let render_page (snap : Snapshot.t) pairs =
  Jsonx.Arr
    (List.map
       (fun (a, b) -> Jsonx.Arr [ Jsonx.Str (snap.Snapshot.node_name a); Jsonx.Str (snap.Snapshot.node_name b) ])
       pairs)

let rec take n = function [] -> [] | _ when n <= 0 -> [] | x :: r -> x :: take (n - 1) r

(* Expected answer of every pool query on the generated graph, from a
   from-scratch snapshot and an untimed in-process evaluation. *)
let expected_answers pg =
  let snap = Snapshot.of_property pg in
  Array.map
    (fun q ->
      let pairs = Rpq.eval_pairs snap (Regex_parser.parse q) in
      (List.length pairs, strip_ws (Jsonx.to_string (render_page snap (take Inputs.page_limit pairs)))))
    Inputs.serve_pool

let make ~p ~seed ~seconds ~gqkg ~work ~tally =
  let pg = Inputs.contact_graph ~scale:p.Inputs.serve_scale in
  let graph = Filename.concat work "serve.gqs" in
  ignore (Snapshot_io.save ~path:graph (Snapshot.of_property pg));
  {
    p;
    seed;
    seconds;
    gqkg;
    graph;
    err_log = Filename.concat work "daemon.err";
    pg;
    expected = expected_answers pg;
    tally;
  }

(* A read answered at the base epoch: ok, complete, and equal to the
   expected total and first page. *)
let check_base_read ctx ~q ~epoch0 line =
  let total, page = ctx.expected.(q) in
  Wire.is_true line "ok" && Wire.is_true line "complete"
  && Wire.int line "epoch" = Some epoch0
  && Wire.int line "total" = Some total
  && Wire.array line "pairs" = Some page

type live = { d : Daemon.t; conns : Wire.conn array; epoch0 : int; setup_ms : float }

(* Start a daemon and run the warm-up pass: the program's own set-up
   as a client sees it, from spawn to a filled semantic cache. *)
let start ctx =
  let t0 = H.now_ns () in
  let d = Daemon.spawn ~gqkg:ctx.gqkg ~graph:ctx.graph ~err_log:ctx.err_log in
  let conns = [| Wire.connect d.Daemon.port; Wire.connect d.Daemon.port |] in
  let epoch0 = ref (-1) in
  let warm =
    Array.mapi
      (fun i q ->
        let line = Wire.call conns.(0) (Inputs.query_line ~id:i q) in
        if !epoch0 < 0 then epoch0 := Option.value (Wire.int line "epoch") ~default:(-1);
        (i, line))
      Inputs.serve_pool
  in
  let setup_ms = H.ms_since t0 in
  Array.iter
    (fun (q, line) ->
      ctx.tally.attempted <- ctx.tally.attempted + 1;
      if not (check_base_read ctx ~q ~epoch0:!epoch0 line) then
        H.fail ctx.tally "warm-up read %S: %s" Inputs.serve_pool.(q) line)
    warm;
  { d; conns; epoch0 = !epoch0; setup_ms }

let stop ctx l =
  Array.iter Wire.close l.conns;
  let s = Daemon.stop l.d in
  ctx.tally.attempted <- ctx.tally.attempted + 1;
  if not (Daemon.clean s) then
    H.fail ctx.tally "daemon did not stop clean (exit ok %b, final %s)" s.Daemon.exit_ok
      (match s.Daemon.final with Some j -> Jsonx.to_string j | None -> "none");
  s

(* [n] set-ups; all but the last daemon are stopped.  Returns the live
   daemon and the median set-up time in seconds. *)
let setups ctx n =
  let times = H.Samples.create () in
  let rec go i =
    let l = start ctx in
    H.Samples.add times l.setup_ms;
    if i >= n then l
    else begin
      ignore (stop ctx l);
      go (i + 1)
    end
  in
  let l = go 1 in
  (l, H.median (H.Samples.to_array times) /. 1000.0)

(* ---- the closed-loop load loop ---- *)

type kind = Read of int | Write of int | Poll
type next = Send of string * kind | Later

(* Runs until [t_end], then lets in-flight requests finish.  [next i]
   is asked for slot [i]'s next request whenever it is idle before
   [t_end] ([Later]: ask again after the next response);
   [on_response i kind line t] gets every response.  [spin] busy-polls
   for responses (see Wire.ready). *)
let drive ?spin conns ~t_end ~next ~on_response =
  let kinds = Array.make (Array.length conns) Poll in
  let rec loop () =
    Array.iteri
      (fun i c ->
        if (not c.Wire.busy) && H.now_ns () < t_end then
          match next i with
          | Send (line, k) ->
              kinds.(i) <- k;
              Wire.send c line
          | Later -> ())
      conns;
    let busy = List.filter (fun c -> c.Wire.busy) (Array.to_list conns) in
    if busy <> [] then begin
      List.iter
        (fun c ->
          match Wire.pump c with
          | Some line ->
              let i = ref 0 in
              Array.iteri (fun j x -> if x == c then i := j) conns;
              on_response !i kinds.(!i) line (H.now_ns ())
          | None -> ())
        (Wire.ready ?spin busy ~timeout:1.0);
      loop ()
    end
  in
  loop ()

(* Latency windows: enough reads in each for its 90th percentile (>= 100
   reads per window on serve-churn). *)
let latency_windows ~seconds = max 5 (int_of_float seconds / 3)

(* Ops completed ok per second: the median over equal windows of the
   timed phase holding about 200 ops each (tens of milliseconds on
   serve-hot, about a second on serve-churn), so host stalls that hit
   a minority of windows do not set the figure.  [done_ms]: completion
   times of the ok ops, in ms from the start of the phase. *)
let ops_per_s done_ms ~seconds =
  let n = max 5 (H.Samples.length done_ms / 200) in
  let width = seconds /. float_of_int n in
  let counts = Array.make n 0 in
  Array.iter
    (fun t ->
      let w = min (n - 1) (int_of_float (t /. 1000.0 /. width)) in
      counts.(w) <- counts.(w) + 1)
    (H.Samples.to_array done_ms);
  H.median (Array.map (fun c -> float_of_int c /. width) counts)

type phase = {
  reads : H.Samples.t array;  (** round-trip ms of timed reads, per latency window *)
  writes : H.Samples.t;
  done_ms : H.Samples.t;  (** completion times of ok ops, ms into the phase *)
  overhead : H.Samples.t;  (** read round trip minus the daemon's elapsed_ms *)
  eval : H.Samples.t;  (** the daemon's elapsed_ms *)
  mutable live_max : int;  (** most live epochs seen by a metrics poll *)
  mutable order : kind list;  (** requests in send order, newest first *)
}

let new_phase ~seconds =
  {
    reads = Array.init (latency_windows ~seconds) (fun _ -> H.Samples.create ());
    writes = H.Samples.create ();
    done_ms = H.Samples.create ();
    overhead = H.Samples.create ();
    eval = H.Samples.create ();
    live_max = 0;
    order = [];
  }

let poll_every = 50

let record ph ~t0 ~t_end ~seconds ~sent ~t ~ok ~is_read line =
  if t < t_end then begin
    let ms = H.ms_between sent t in
    let into = H.ms_between t0 t in
    let w = min (Array.length ph.reads - 1) (int_of_float (into /. 1000.0 /. seconds *. float_of_int (Array.length ph.reads))) in
    if is_read then H.Samples.add ph.reads.(w) ms else H.Samples.add ph.writes ms;
    if ok then H.Samples.add ph.done_ms into;
    if is_read then
      match Wire.num line "elapsed_ms" with
      | Some e ->
          H.Samples.add ph.eval e;
          H.Samples.add ph.overhead (ms -. e)
      | None -> ()
  end

let note_poll ph line =
  match Wire.int line "live_epochs" with Some n -> ph.live_max <- max ph.live_max n | None -> ()

let poll_line = {|{"op":"metrics"}|}

(* serve-hot: both connections read from the seeded draw stream; the
   client busy-polls, since round trips are sub-millisecond. *)
let hot_phase ctx l ~trace =
  let ph = new_phase ~seconds:ctx.seconds in
  let st = Inputs.draws ~seed:ctx.seed `Shuffled in
  let t0 = H.now_ns () in
  let t_end = Int64.add t0 (Int64.of_float (ctx.seconds *. 1e9)) in
  let sent = ref 0 in
  let next i =
    incr sent;
    if trace && i = 0 && !sent mod poll_every = 0 then Send (poll_line, Poll)
    else begin
      let q = Inputs.draw st in
      ph.order <- Read q :: ph.order;
      Send (Inputs.query_line ~id:!sent Inputs.serve_pool.(q), Read q)
    end
  in
  let on_response i kind line t =
    match kind with
    | Poll -> note_poll ph line
    | Write _ -> ()
    | Read q ->
        ctx.tally.attempted <- ctx.tally.attempted + 1;
        let ok = check_base_read ctx ~q ~epoch0:l.epoch0 line in
        if not ok then H.fail ctx.tally "hot read %S: %s" Inputs.serve_pool.(q) line;
        record ph ~t0 ~t_end ~seconds:ctx.seconds ~sent:l.conns.(i).Wire.sent_ns ~t ~ok ~is_read:true line
  in
  drive ~spin:true l.conns ~t_end ~next ~on_response;
  ph

(* serve-hot's write probe, after the read phase: sequential mutates on
   the hot daemon for a tenth of the run length. *)
let write_probe ctx l ph =
  let last = ref l.epoch0 in
  let t_end = Int64.add (H.now_ns ()) (Int64.of_float (Float.max 0.5 (ctx.seconds /. 10.0) *. 1e9)) in
  let k = ref 0 in
  while H.now_ns () < t_end do
    incr k;
    let lines = Inputs.batch ~seed:ctx.seed ~scale:ctx.p.Inputs.serve_scale ~tag:"hw" !k ~people:1 in
    let c = l.conns.(0) in
    let line = Wire.call c (Inputs.mutate_line ~id:!k lines) in
    H.Samples.add ph.writes (H.ms_since c.Wire.sent_ns);
    ctx.tally.attempted <- ctx.tally.attempted + 1;
    let epoch = Option.value (Wire.int line "epoch") ~default:(-1) in
    if not (Wire.is_true line "ok" && Wire.int line "applied" = Some (List.length lines) && epoch > !last)
    then H.fail ctx.tally "hot write %d: %s" !k line;
    last := epoch
  done

type churn_read = { q : int; epoch : int; total : int }

(* serve-churn: connection 0 writes, connection 1 reads, in a fixed mix
   of one write to every [Inputs.reads_per_write] reads.  The two take
   turns: overlapping them made the daemon's threads convoy on the OCaml
   runtime lock whenever the host preempted a vCPU, which multiplied
   host noise several times over.  A mix fixed by count rather than by
   time keeps every epoch to at most [reads_per_write] reads however
   fast the host is, so with the read order of [Inputs.draws `Cyclic]
   no two reads of one epoch share a cache entry; the first op is a
   write, which retires the warm-up's entries. *)
let churn_phase ctx l ~trace =
  let ph = new_phase ~seconds:ctx.seconds in
  let st = Inputs.draws ~seed:ctx.seed `Cyclic in
  let t0 = H.now_ns () in
  let t_end = Int64.add t0 (Int64.of_float (ctx.seconds *. 1e9)) in
  let batches = ref 0 and sent = ref 0 and reads_since_write = ref Inputs.reads_per_write in
  let epoch_batches = Hashtbl.create 1024 in
  Hashtbl.replace epoch_batches l.epoch0 0;
  let reads = ref [] in
  let batch k = Inputs.batch ~seed:ctx.seed ~scale:ctx.p.Inputs.serve_scale ~tag:"cw" k ~people:1 in
  let writer = l.conns.(0) and reader = l.conns.(1) in
  (* Traced runs poll the daemon's metrics from the writer connection
     once per epoch, while the reader works. *)
  let polled = ref false in
  let next i =
    incr sent;
    let write_due = !reads_since_write >= Inputs.reads_per_write in
    if i = 0 then begin
      if write_due && not reader.Wire.busy then begin
        polled := false;
        reads_since_write := 0;
        incr batches;
        ph.order <- Write !batches :: ph.order;
        Send (Inputs.mutate_line ~id:!sent (batch !batches), Write !batches)
      end
      else if trace && not !polled then begin
        polled := true;
        Send (poll_line, Poll)
      end
      else Later
    end
    else if writer.Wire.busy || write_due then Later
    else begin
      let q = Inputs.draw st in
      ph.order <- Read q :: ph.order;
      Send (Inputs.query_line ~id:!sent Inputs.serve_pool.(q), Read q)
    end
  in
  let on_response i kind line t =
    let sent_ns = l.conns.(i).Wire.sent_ns in
    match kind with
    | Poll -> note_poll ph line
    | Write k ->
        ctx.tally.attempted <- ctx.tally.attempted + 1;
        let ok = Wire.is_true line "ok" && Wire.int line "applied" = Some 3 in
        (match Wire.int line "epoch" with
        | Some e when ok -> Hashtbl.replace epoch_batches e k
        | _ -> H.fail ctx.tally "churn write %d: %s" k line);
        record ph ~t0 ~t_end ~seconds:ctx.seconds ~sent:sent_ns ~t ~ok ~is_read:false line
    | Read q ->
        incr reads_since_write;
        ctx.tally.attempted <- ctx.tally.attempted + 1;
        let ok = Wire.is_true line "ok" && Wire.is_true line "complete" in
        (match (Wire.int line "epoch", Wire.int line "total") with
        | Some epoch, Some total when ok -> reads := { q; epoch; total } :: !reads
        | _ -> H.fail ctx.tally "churn read %S: %s" Inputs.serve_pool.(q) line);
        record ph ~t0 ~t_end ~seconds:ctx.seconds ~sent:sent_ns ~t ~ok ~is_read:true line
  in
  drive l.conns ~t_end ~next ~on_response;
  (ph, epoch_batches, !reads)

(* Each read at a checked epoch must equal a from-scratch evaluation at
   that epoch: the generated graph plus the batches committed before
   it, replayed through the journal and frozen whole.  The checked
   epochs are spread evenly over the run, first and last included. *)
let churn_oracle ctx epoch_batches reads =
  let epochs = List.sort_uniq compare (List.map (fun r -> r.epoch) reads) in
  let n = List.length epochs in
  let m = min n ctx.p.Inputs.oracle_epochs in
  let picked =
    if m = 0 then []
    else List.sort_uniq compare (List.init m (fun i -> List.nth epochs (if m = 1 then 0 else i * (n - 1) / (m - 1))))
  in
  let batch k = Inputs.batch ~seed:ctx.seed ~scale:ctx.p.Inputs.serve_scale ~tag:"cw" k ~people:1 in
  let checked = ref 0 in
  Semcache.enabled := false;
  List.iter
    (fun e ->
      let at = List.filter (fun r -> r.epoch = e) reads in
      match Hashtbl.find_opt epoch_batches e with
      | None ->
          List.iter (fun _ -> H.fail ctx.tally "read names unknown epoch %d" e) at
      | Some k ->
          let snap = Inputs.scratch_snapshot ctx.pg (List.init k (fun i -> batch (i + 1))) in
          let totals = Hashtbl.create 8 in
          List.iter
            (fun r ->
              incr checked;
              let want =
                match Hashtbl.find_opt totals r.q with
                | Some t -> t
                | None ->
                    let t = List.length (Rpq.eval_pairs snap (Regex_parser.parse Inputs.serve_pool.(r.q))) in
                    Hashtbl.replace totals r.q t;
                    t
              in
              if r.total <> want then
                H.fail ctx.tally "churn read %S at epoch %d (batch %d): total %d, scratch %d"
                  Inputs.serve_pool.(r.q) e k r.total want)
            at)
    picked;
  Semcache.enabled := true;
  (!checked, List.length picked)

(* ---- traced in-process replay ----

   The same public calls the daemon's handlers make, in the live run's
   send order: Jsonx.parse of the request line, Regex_parser.parse,
   Epochs.with_pinned, Governor.eval_pairs ~use_cache:true, Jsonx page
   encoding; Journal.op_of_line + Overlay.apply, Governor.commit for
   writes.  Inner calls are timed on their own beside the outer one
   (Planner.semantic_key and Planner.prepare_pairs beside
   Governor.eval_pairs).  The replay evaluates unbudgeted, so the
   planner's product timed beside the call is the one the kernel then
   runs (through the planner's product cache) and its moves can be
   counted; the daemon gives every request a 10 s deadline instead. *)

type replay_totals = {
  mutable moves : int;
  mutable reuse : float list;
  mutable columns : int;
  mutable mismatches : int;
}

let str_field j name = Option.bind (Jsonx.member name j) Jsonx.str

let replay_read ~traced ~shadow ~totals mgr ~id q =
  let line = Inputs.query_line ~id Inputs.serve_pool.(q) in
  let req =
    match Spans.span "jsonx.parse" (fun () -> Jsonx.parse line) with
    | Ok j -> j
    | Error e -> failwith e
  in
  let qtext = Option.get (str_field req "q") in
  let limit = Option.value (Option.bind (Jsonx.member "limit" req) Jsonx.int_opt) ~default:max_int in
  let regex = Spans.span "regex_parser.parse" (fun () -> Regex_parser.parse qtext) in
  Epochs.with_pinned mgr (fun snap ->
      let eval () = Governor.eval_pairs ~use_cache:true ~budget:Budget.unlimited snap regex in
      let o =
        if not traced then eval ()
        else begin
          let key =
            Spans.span ~parent:"rpq.eval" "planner.semantic_key" (fun () -> Planner.semantic_key snap regex)
          in
          let hit = match key with Some k -> Hashtbl.mem shadow (snap.Snapshot.epoch, k) | None -> false in
          let product =
            if hit then None
            else
              match
                Spans.span ~parent:"rpq.eval" "planner.prepare" (fun () -> Planner.prepare_pairs snap regex)
              with
              | Planner.Ready p, _ -> Some p
              | Planner.Empty, _ -> None
          in
          let o = Spans.span "rpq.eval" eval in
          Option.iter (fun k -> Hashtbl.replace shadow (snap.Snapshot.epoch, k) ()) key;
          Option.iter (fun p -> totals.moves <- totals.moves + Product.moves_total p) product;
          o
        end
      in
      let resp =
        Spans.span "jsonx.encode" (fun () ->
            let total = List.length o.Budget.value in
            Jsonx.to_string
              (Jsonx.Obj
                 [
                   ("ok", Jsonx.Bool true);
                   ("op", Jsonx.Str "query");
                   ("id", Jsonx.Num (float_of_int id));
                   ("epoch", Jsonx.Num (float_of_int snap.Snapshot.epoch));
                   ("total", Jsonx.Num (float_of_int total));
                   ("truncated", Jsonx.Bool (total > limit));
                   ("pairs", render_page snap (take limit o.Budget.value));
                   ("complete", Jsonx.Bool true);
                 ]))
      in
      ignore (Sys.opaque_identity resp);
      List.length o.Budget.value)

let replay_write ~totals mgr ~id lines =
  let line = Inputs.mutate_line ~id lines in
  let req =
    match Spans.span "jsonx.parse" (fun () -> Jsonx.parse line) with
    | Ok j -> j
    | Error e -> failwith e
  in
  let ops = List.filter_map Jsonx.str (Option.value (Option.bind (Jsonx.member "ops" req) Jsonx.arr) ~default:[]) in
  let overlay =
    Spans.span "overlay.apply" (fun () ->
        let ov = Overlay.create (Epochs.base mgr) in
        List.iteri
          (fun i l ->
            match Journal.op_of_line ~line:(i + 1) l with
            | Some op -> Overlay.apply ~line:(i + 1) ov op
            | None -> ())
          ops;
        ov)
  in
  let base, reuse = Spans.span "epochs.commit" (fun () -> Governor.commit mgr overlay) in
  totals.reuse <- Overlay.reuse_ratio reuse :: totals.reuse;
  totals.columns <- List.length reuse.Overlay.reused + List.length reuse.Overlay.rebuilt;
  let snap = Overlay.snapshot base in
  let resp =
    Spans.span "jsonx.encode" (fun () ->
        Jsonx.to_string
          (Jsonx.Obj
             [
               ("ok", Jsonx.Bool true);
               ("op", Jsonx.Str "mutate");
               ("id", Jsonx.Num (float_of_int id));
               ("applied", Jsonx.Num (float_of_int (List.length ops)));
               ("epoch", Jsonx.Num (float_of_int snap.Snapshot.epoch));
             ]))
  in
  ignore (Sys.opaque_identity resp)

type replay = {
  wall_ms : float;
  load_ms : float;
  totals : replay_totals;
  cache : Semcache.stats * Semcache.stats;  (** before and after the timed part *)
  states : int;
  batches : int;
  bottom_up : int;
  gc_major : int;
  gc_minor_mb : float;
}

(* One replay from a fresh state: load, warm-up, then [events] timed. *)
let replay ctx ~traced ~hot events =
  Semcache.reset ();
  Spans.reset ();
  Spans.recording := false;
  let snap, load_ms = H.time_ms (fun () -> Snapshot_io.load ctx.graph) in
  let mgr = Epochs.create (Overlay.base_of_snapshot snap) in
  let shadow = Hashtbl.create 64 in
  let totals = { moves = 0; reuse = []; columns = 0; mismatches = 0 } in
  Array.iteri (fun i _ -> ignore (replay_read ~traced ~shadow ~totals mgr ~id:i i)) Inputs.serve_pool;
  totals.moves <- 0;
  let c0 = Semcache.stats () in
  let s0 = Product.states_interned_total () in
  let b0 = Frontier.batches_total () and u0 = Frontier.bottom_up_levels_total () in
  let g0 = Gc.quick_stat () in
  Spans.recording := traced;
  let t0 = H.now_ns () in
  List.iteri
    (fun i ev ->
      Spans.current_req := i;
      match ev with
      | Read q ->
          let total = replay_read ~traced ~shadow ~totals mgr ~id:i q in
          if hot && total <> fst ctx.expected.(q) then totals.mismatches <- totals.mismatches + 1
      | Write k ->
          replay_write ~totals mgr ~id:i
            (Inputs.batch ~seed:ctx.seed ~scale:ctx.p.Inputs.serve_scale ~tag:"cw" k ~people:1)
      | Poll -> ())
    events;
  let wall_ms = H.ms_since t0 in
  Spans.recording := false;
  let g1 = Gc.quick_stat () in
  {
    wall_ms;
    load_ms;
    totals;
    cache = (c0, Semcache.stats ());
    states = Product.states_interned_total () - s0;
    batches = Frontier.batches_total () - b0;
    bottom_up = Frontier.bottom_up_levels_total () - u0;
    gc_major = g1.Gc.major_collections - g0.Gc.major_collections;
    gc_minor_mb = (g1.Gc.minor_words -. g0.Gc.minor_words) *. 8.0 /. 1e6;
  }

(* ---- the workload runs ---- *)

let daemon_metrics l =
  match Jsonx.parse (Wire.call l.conns.(0) poll_line) with Ok j -> Some j | Error _ -> None

let run ctx ~hot ~trace ~work =
  let workload = if hot then "serve-hot" else "serve-churn" in
  let l, setup_s = setups ctx (if trace then 1 else ctx.p.Inputs.setups) in
  let ph, churn =
    if hot then (hot_phase ctx l ~trace, None)
    else
      let ph, epoch_batches, reads = churn_phase ctx l ~trace in
      (ph, Some (epoch_batches, reads))
  in
  if hot then write_probe ctx l ph;
  let final = if trace then daemon_metrics l else None in
  let rss = H.peak_rss_mb l.d.Daemon.pid in
  ignore (stop ctx l);
  Option.iter
    (fun (epoch_batches, reads) ->
      let checked, epochs = churn_oracle ctx epoch_batches reads in
      Printf.printf "oracle: %d reads at %d epochs rebuilt from scratch\n" checked epochs)
    churn;
  let writes = H.Samples.to_array ph.writes in
  if not trace then begin
    Printf.printf "read_p50_ms and read_p90_ms over %d reads (median of %d windows); write_p50_ms over %d writes\n"
      (H.total_samples ph.reads) (Array.length ph.reads) (Array.length writes);
    [
      H.metric "setup_s" "s" setup_s;
      H.metric "ops_per_s" "1/s" (ops_per_s ph.done_ms ~seconds:ctx.seconds);
      H.metric "read_p50_ms" "ms" (H.windowed_quantile ph.reads 0.5);
      H.metric "read_p90_ms" "ms" (H.windowed_quantile ph.reads 0.9);
      H.metric "write_p50_ms" "ms" (H.quantile writes 0.5);
      H.metric "peak_rss_mb" "MB" rss;
    ]
  end
  else begin
    let n = if hot then ctx.p.Inputs.replay_reads else ctx.p.Inputs.replay_events in
    let events = take n (List.rev ph.order) in
    (* untraced, traced, untraced, traced: the overhead compares sums,
       so warm-up and drift during the replays fall on both sides *)
    let u1 = replay ctx ~traced:false ~hot events in
    let t1 = replay ctx ~traced:true ~hot events in
    let u2 = replay ctx ~traced:false ~hot events in
    let traced = replay ctx ~traced:true ~hot events in
    Spans.write_jsonl (Filename.concat work ("spans-" ^ workload ^ ".jsonl"));
    List.iter
      (fun r ->
        ctx.tally.attempted <- ctx.tally.attempted + List.length events;
        for _ = 1 to r.totals.mismatches do
          H.fail ctx.tally "replay: a read disagrees with the expected total"
        done)
      [ u1; t1; u2; traced ];
    let num name = match final with Some j -> Option.value (Daemon.num_field j name) ~default:0.0 | None -> 0.0 in
    let untraced_ms = u1.wall_ms +. u2.wall_ms and traced_ms = t1.wall_ms +. traced.wall_ms in
    Printf.printf "replay: %d events twice each, untraced %.1f ms, traced %.1f ms\n" (List.length events)
      untraced_ms traced_ms;
    Layers.metrics
      {
        Layers.spans = Spans.totals ();
        cache0 = fst traced.cache;
        cache1 = snd traced.cache;
        states = traced.states;
        moves = traced.totals.moves;
        batches = traced.batches;
        bottom_up = traced.bottom_up;
        reuse = traced.totals.reuse;
        columns = traced.totals.columns;
        live_max = ph.live_max;
        load_ms = traced.load_ms;
        gc_major = traced.gc_major;
        gc_minor_mb = traced.gc_minor_mb;
        server_overhead = H.quantile (H.Samples.to_array ph.overhead) 0.5;
        server_eval = H.quantile (H.Samples.to_array ph.eval) 0.5;
        queue_peak = num "queue_peak";
        shed = num "shed";
        trips = num "budget_trips";
        join_answers = 0;
        overhead_frac = (traced_ms /. untraced_ms) -. 1.0;
      }
  end
