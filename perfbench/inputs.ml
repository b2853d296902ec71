(* The benchmark's inputs: graphs, the query pools, the request order
   and the insert-only mutation batches.  The program under test only
   ever sees what these functions produce. *)

open Gqkg_graph

type size = Full | Tiny

type params = {
  serve_scale : int;  (** contact-network scale of both serve workloads *)
  analytic_scale : int;
  setups : int;  (** set-ups per run; setup_s is their median *)
  analytic_batch : int;  (** analytic: new people per round *)
  replay_reads : int;  (** traced replay length, serve-hot *)
  replay_events : int;  (** traced replay length, serve-churn *)
  replay_rounds : int;  (** traced replay length, analytic *)
  oracle_epochs : int;  (** serve-churn: epochs rebuilt from scratch *)
}

let params = function
  | Full ->
      {
        serve_scale = 30;
        analytic_scale = 50;
        setups = 7;
        analytic_batch = 4;
        replay_reads = 10_000;
        replay_events = 300;
        replay_rounds = 10;
        oracle_epochs = 40;
      }
  | Tiny ->
      {
        serve_scale = 5;
        analytic_scale = 6;
        setups = 2;
        analytic_batch = 2;
        replay_reads = 500;
        replay_events = 40;
        replay_rounds = 2;
        oracle_epochs = 4;
      }

(* The graph is generated from a fixed seed at each workload's scale:
   the dataset is part of a workload's definition, as a scale factor is,
   and --seed varies the request order and the mutation batches.  With
   a graph drawn per seed, serve-hot's read p50 moved by ~15% from seed
   to seed while repeated runs of one seed agreed within ~3%. *)
let graph_seed = 2021

let contact_graph ~scale =
  Gqkg_workload.Contact_network.scaled (Gqkg_util.Splitmix.create graph_seed) ~scale

(* Address and bus counts of [Contact_network.scaled]. *)
let addresses scale = 20 * scale
let buses scale = 5 * scale

(* ---- serve pool ----

   Fifteen RPQs with answers of roughly 3k to 60k pairs at scale 30.
   An odd count of equally weighted queries puts the median and the
   90th percentile of the mix in the middle of one query's latencies
   rather than on the edge between two.
   Two pairs are equal-language variants ([contact*] / [(contact)*] and
   [rides/rides^-] / [(rides/rides^-)]): the semantic cache serves each
   pair from one entry.  [(rides/rides^-)*] (2.25M pairs) is left out:
   one hit costs ~17 ms and its cached list makes the GC what is
   measured. *)
let serve_pool =
  [|
    "contact*";
    "(contact)*";
    "lives/lives^-";
    "(lives/lives^-)*";
    "rides/rides^-";
    "(rides/rides^-)";
    "?infected/rides/?bus/rides^-/?person";
    "owns/rides^-";
    "rides^-/lives";
    "contact*/lives";
    "lives/lives^-/contact";
    "(contact/contact)*";
    "(lives + contact)*";
    "rides/rides^-/lives";
    "lives/lives^-/rides";
  |]

let page_limit = 64

let query_line ~id q = Printf.sprintf {|{"op":"query","id":%d,"q":"%s","limit":%d}|} id q page_limit

(* Seeded draw streams over the pool, shared by the live run and the
   replay so both see the same sequence.  Both deal the pool in blocks
   of fifteen, so every query has the same share of the load whatever
   the seed and the mix's latency quantiles do not move with the luck of
   the draw.

   [`Shuffled] deals a fresh seeded permutation per block (serve-hot):
   which requests overlap on the two connections changes all through
   the run instead of repeating one seed-chosen pattern.

   [`Cyclic] repeats one seeded permutation in which the two members of
   each equal-language pair sit seven reads apart (serve-churn): a query
   recurs only every fifteen reads, so two reads of one epoch almost
   never share a cache entry. *)
let variant_pairs = [ (0, 1); (4, 5) ]

(* serve-churn's mix: one write to this many reads.  At most seven reads
   share an epoch, and equal-language pairs sit seven reads apart. *)
let reads_per_write = 7

type draws = { st : Random.State.t; order : int array; fresh : bool; mutable next : int }

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

let variants_apart order =
  let n = Array.length order in
  let pos = Array.make n 0 in
  Array.iteri (fun i q -> pos.(q) <- i) order;
  List.for_all
    (fun (x, y) ->
      let d = abs (pos.(x) - pos.(y)) in
      min d (n - d) = n / 2)
    variant_pairs

let draws ~seed kind =
  let st = Random.State.make [| seed; 0x5e7e |] in
  let order = Array.init (Array.length serve_pool) Fun.id in
  (match kind with
  | `Shuffled -> ()
  | `Cyclic ->
      shuffle st order;
      while not (variants_apart order) do
        shuffle st order
      done);
  { st; order; fresh = kind = `Shuffled; next = 0 }

let draw d =
  if d.next = 0 && d.fresh then shuffle d.st d.order;
  let q = d.order.(d.next) in
  d.next <- (d.next + 1) mod Array.length d.order;
  q

(* ---- mutation batches ----

   Batch [k] adds one person (infected with probability 0.15), a
   [lives] edge to an existing address and a [rides] edge to an
   existing bus — insert-only, so every commit is a structural delta
   the planner and kernels must see. *)
let batch ~seed ~scale ~tag k ~people =
  let st = Random.State.make [| seed; 0xba7c; k |] in
  List.concat
    (List.init people (fun i ->
         let p = Printf.sprintf "%s%d_%d" tag k i in
         let label = if Random.State.float st 1.0 < 0.15 then "infected" else "person" in
         let a = Random.State.int st (addresses scale) and b = Random.State.int st (buses scale) in
         [
           Printf.sprintf "node %s %s" p label;
           Printf.sprintf "edge %se1 %s a%d lives" p p a;
           Printf.sprintf "edge %se2 %s b%d rides" p p b;
         ]))

let mutate_line ~id lines =
  Printf.sprintf {|{"op":"mutate","id":%d,"ops":[%s]}|} id
    (String.concat "," (List.map (Printf.sprintf "%S") lines))

let ops_of_lines lines =
  List.filter_map (fun l -> Journal.op_of_line ~line:1 l) lines

(* From-scratch reference snapshot: the generated graph plus the given
   batches, replayed through the journal and frozen whole — no overlay,
   no incremental commit. *)
let scratch_snapshot pg batches =
  let ops = Journal.ops_of_graph pg @ List.concat_map ops_of_lines batches in
  Snapshot.of_property (Journal.replay_ops ops)

(* ---- analytic queries ---- *)

type analytic_query =
  | Pairs of string  (** Governor.eval_pairs *)
  | Count of string * int  (** Governor.count at a length *)
  | Crpq of string  (** Crpq_parser + Crpq.answers (the Join layer) *)
  | Sparql of string  (** SPARQL BGP over the Pg_rdf triple store *)

let analytic_queries =
  [|
    Pairs "(lives + contact)*";
    Pairs "contact*/lives";
    Pairs "(contact/contact)*";
    Pairs "(lives/lives^-)*";
    Pairs "?infected/contact*";
    Pairs "(contact^-)*/lives";
    Pairs "lives/lives^-/(contact)*";
    Count ("rides/rides^-/contact", 3);
    Count ("(contact + contact^-)*", 4);
    Count ("(lives + contact + rides)*", 4);
    Crpq "SELECT x, z WHERE (x:infected)-[contact*]->(z), (z)-[rides]->(b), (x)-[rides]->(b)";
    Crpq "SELECT x, z WHERE (x:person)-[rides]->(y:bus), (z:company)-[owns]->(y)";
    Crpq "SELECT x, y WHERE (x)-[contact]->(y), (x)-[lives]->(a), (y)-[lives]->(a)";
    Sparql
      "SELECT ?x ?y WHERE { ?x <urn:gqkg:rel/contact> ?y . ?x <urn:gqkg:rel/lives> ?a . ?y \
       <urn:gqkg:rel/lives> ?b . ?x a <urn:gqkg:label/person> }";
    Sparql
      "SELECT ?x ?b WHERE { ?x <urn:gqkg:rel/rides> ?b . ?c <urn:gqkg:rel/owns> ?b . ?x a \
       <urn:gqkg:label/infected> }";
  |]

(* Length bound for the Naive cross-check of the Kleene-star RPQs. *)
let naive_bound = 4
