(* Append-only journal for property graphs: the storage-engine substrate
   of the "databases" side of the paper (Section 2.1: store data in a
   permanent form; graphs grow and shrink by adding/deleting nodes and
   edges).

   The op vocabulary and line format live in {!Mutation}; this module
   owns replay (ops -> property graph), the durable store, and the
   file-context error discipline: every error raised while reading a
   journal from disk carries the path, so callers can surface
   "file:line: message" diagnostics without re-deriving context.

   Replaying a journal rebuilds the graph; writing is append-only, so a
   crash can lose at most a partial trailing line, which
   [~tolerate_partial:true] skips.  [checkpoint] rewrites the journal as
   the minimal history of the current state. *)

type op = Mutation.t =
  | Add_node of { id : Const.t; label : Const.t }
  | Merge_node of { id : Const.t; label : Const.t }
  | Add_edge of { id : Const.t; src : Const.t; dst : Const.t; label : Const.t }
  | Merge_edge of { id : Const.t; src : Const.t; dst : Const.t; label : Const.t }
  | Set_node_prop of { id : Const.t; prop : Const.t; value : Const.t }
  | Set_edge_prop of { id : Const.t; prop : Const.t; value : Const.t }
  | Del_node_prop of { id : Const.t; prop : Const.t }
  | Del_edge_prop of { id : Const.t; prop : Const.t }
  | Del_node of { id : Const.t }
  | Del_edge of { id : Const.t }

exception Replay_error of { file : string option; line : int; message : string }

let fail ?file line fmt =
  Printf.ksprintf (fun message -> raise (Replay_error { file; line; message })) fmt

let op_to_line = Mutation.to_line

let op_of_line ?file ~line text =
  match Mutation.of_line ~line text with
  | op -> op
  | exception Mutation.Op_error { line; message } -> raise (Replay_error { file; line; message })

(* ---------------- Replay: ops -> property graph ---------------------- *)

(* Mutable draft with insertion-ordered identifiers; deletions leave the
   order of survivors intact.  This is the from-scratch reference
   semantics the incremental overlay/commit path is property-tested
   against (test_epoch). *)
type draft = {
  node_labels : (Const.t, Const.t) Hashtbl.t;
  node_props : (Const.t, (Const.t * Const.t) list) Hashtbl.t;
  edges : (Const.t, Const.t * Const.t * Const.t) Hashtbl.t; (* id -> (src, dst, label) *)
  edge_props : (Const.t, (Const.t * Const.t) list) Hashtbl.t;
  mutable node_order : Const.t list; (* reversed *)
  mutable edge_order : Const.t list; (* reversed *)
}

let draft_create () =
  {
    node_labels = Hashtbl.create 64;
    node_props = Hashtbl.create 64;
    edges = Hashtbl.create 64;
    edge_props = Hashtbl.create 64;
    node_order = [];
    edge_order = [];
  }

let set_prop tbl id prop value =
  let existing = Option.value (Hashtbl.find_opt tbl id) ~default:[] in
  Hashtbl.replace tbl id ((prop, value) :: List.filter (fun (p, _) -> not (Const.equal p prop)) existing)

let remove_prop tbl id prop =
  match Hashtbl.find_opt tbl id with
  | None -> ()
  | Some existing -> Hashtbl.replace tbl id (List.filter (fun (p, _) -> not (Const.equal p prop)) existing)

let add_node ?file ~line draft id label =
  if Hashtbl.mem draft.node_labels id then fail ?file line "node %s already exists" (Const.to_string id);
  Hashtbl.replace draft.node_labels id label;
  draft.node_order <- id :: draft.node_order

let add_edge ?file ~line draft id src dst label =
  if Hashtbl.mem draft.edges id then fail ?file line "edge %s already exists" (Const.to_string id);
  if not (Hashtbl.mem draft.node_labels src) then
    fail ?file line "edge %s references missing node %s" (Const.to_string id) (Const.to_string src);
  if not (Hashtbl.mem draft.node_labels dst) then
    fail ?file line "edge %s references missing node %s" (Const.to_string id) (Const.to_string dst);
  Hashtbl.replace draft.edges id (src, dst, label);
  draft.edge_order <- id :: draft.edge_order

let apply ?file ~line draft op =
  match op with
  | Add_node { id; label } -> add_node ?file ~line draft id label
  | Merge_node { id; label } ->
      if not (Hashtbl.mem draft.node_labels id) then add_node ?file ~line draft id label
  | Add_edge { id; src; dst; label } -> add_edge ?file ~line draft id src dst label
  | Merge_edge { id; src; dst; label } ->
      if not (Hashtbl.mem draft.edges id) then add_edge ?file ~line draft id src dst label
  | Set_node_prop { id; prop; value } ->
      if not (Hashtbl.mem draft.node_labels id) then fail ?file line "no node %s" (Const.to_string id);
      set_prop draft.node_props id prop value
  | Set_edge_prop { id; prop; value } ->
      if not (Hashtbl.mem draft.edges id) then fail ?file line "no edge %s" (Const.to_string id);
      set_prop draft.edge_props id prop value
  | Del_node_prop { id; prop } ->
      if not (Hashtbl.mem draft.node_labels id) then fail ?file line "no node %s" (Const.to_string id);
      remove_prop draft.node_props id prop
  | Del_edge_prop { id; prop } ->
      if not (Hashtbl.mem draft.edges id) then fail ?file line "no edge %s" (Const.to_string id);
      remove_prop draft.edge_props id prop
  | Del_node { id } ->
      if not (Hashtbl.mem draft.node_labels id) then fail ?file line "no node %s" (Const.to_string id);
      Hashtbl.remove draft.node_labels id;
      Hashtbl.remove draft.node_props id;
      draft.node_order <- List.filter (fun n -> not (Const.equal n id)) draft.node_order;
      (* Incident edges go with the node. *)
      let doomed =
        Hashtbl.fold
          (fun eid (s, d, _) acc -> if Const.equal s id || Const.equal d id then eid :: acc else acc)
          draft.edges []
      in
      List.iter
        (fun eid ->
          Hashtbl.remove draft.edges eid;
          Hashtbl.remove draft.edge_props eid)
        doomed;
      if doomed <> [] then
        draft.edge_order <-
          List.filter (fun e -> not (List.exists (Const.equal e) doomed)) draft.edge_order
  | Del_edge { id } ->
      if not (Hashtbl.mem draft.edges id) then fail ?file line "no edge %s" (Const.to_string id);
      Hashtbl.remove draft.edges id;
      Hashtbl.remove draft.edge_props id;
      draft.edge_order <- List.filter (fun e -> not (Const.equal e id)) draft.edge_order

let freeze_draft draft =
  let b = Property_graph.Builder.create () in
  List.iter
    (fun id ->
      let n = Property_graph.Builder.add_node b id ~label:(Hashtbl.find draft.node_labels id) in
      List.iter
        (fun (prop, value) -> Property_graph.Builder.set_node_property b n ~prop ~value)
        (List.rev (Option.value (Hashtbl.find_opt draft.node_props id) ~default:[])))
    (List.rev draft.node_order);
  List.iter
    (fun id ->
      let src, dst, label = Hashtbl.find draft.edges id in
      let src = Option.get (Property_graph.Builder.find_node b src) in
      let dst = Option.get (Property_graph.Builder.find_node b dst) in
      let e = Property_graph.Builder.add_edge b id ~src ~dst ~label in
      List.iter
        (fun (prop, value) -> Property_graph.Builder.set_edge_property b e ~prop ~value)
        (List.rev (Option.value (Hashtbl.find_opt draft.edge_props id) ~default:[])))
    (List.rev draft.edge_order);
  Property_graph.Builder.freeze b

let replay_ops ?file ops =
  let draft = draft_create () in
  List.iteri (fun i op -> apply ?file ~line:(i + 1) draft op) ops;
  freeze_draft draft

let ops_of_string ?file ?(tolerate_partial = false) text =
  let lines = String.split_on_char '\n' text in
  let total = List.length lines in
  let ops = ref [] in
  List.iteri
    (fun i line ->
      let is_last = i = total - 1 in
      match op_of_line ?file ~line:(i + 1) line with
      | Some op -> ops := op :: !ops
      | None -> ()
      | exception Replay_error _ when tolerate_partial && is_last ->
          () (* a torn final write: ignore *))
    lines;
  List.rev !ops

let ops_to_string ops = String.concat "" (List.map (fun op -> op_to_line op ^ "\n") ops)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load_ops ?(tolerate_partial = false) path =
  ops_of_string ~file:path ~tolerate_partial (read_file path)

let load ?tolerate_partial path =
  let ops = load_ops ?tolerate_partial path in
  replay_ops ~file:path ops

(* The minimal history recreating a graph: its current state as adds. *)
let ops_of_graph g =
  let ops = ref [] in
  for n = Property_graph.num_nodes g - 1 downto 0 do
    let id = Property_graph.node_id g n in
    Array.iter
      (fun (prop, value) -> ops := Set_node_prop { id; prop; value } :: !ops)
      (Property_graph.node_properties g n)
  done;
  for e = Property_graph.num_edges g - 1 downto 0 do
    let id = Property_graph.edge_id g e in
    Array.iter
      (fun (prop, value) -> ops := Set_edge_prop { id; prop; value } :: !ops)
      (Property_graph.edge_properties g e)
  done;
  for e = Property_graph.num_edges g - 1 downto 0 do
    let s, d = Property_graph.endpoints g e in
    ops :=
      Add_edge
        {
          id = Property_graph.edge_id g e;
          src = Property_graph.node_id g s;
          dst = Property_graph.node_id g d;
          label = Property_graph.edge_label g e;
        }
      :: !ops
  done;
  for n = Property_graph.num_nodes g - 1 downto 0 do
    ops := Add_node { id = Property_graph.node_id g n; label = Property_graph.node_label g n } :: !ops
  done;
  !ops

(* ---------------- The durable store ----------------------------------- *)

(* An open journal-backed store: appends go straight to disk; the
   materialized graph is rebuilt lazily after mutations. *)
type store = {
  path : string;
  mutable channel : out_channel;
  mutable ops : op list; (* reversed *)
  mutable cache : Property_graph.t option;
}

let open_store ?(tolerate_partial = false) path =
  let ops = if Sys.file_exists path then load_ops ~tolerate_partial path else [] in
  (* Validate by replaying before accepting the store. *)
  ignore (replay_ops ~file:path ops);
  let channel = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  { path; channel; ops = List.rev ops; cache = None }

let append store op =
  (* Validate against the current state before making it durable. *)
  let draft = draft_create () in
  List.iteri (fun i op -> apply ~file:store.path ~line:(i + 1) draft op) (List.rev store.ops);
  apply ~file:store.path ~line:(List.length store.ops + 1) draft op;
  output_string store.channel (op_to_line op ^ "\n");
  flush store.channel;
  store.ops <- op :: store.ops;
  store.cache <- None

let graph store =
  match store.cache with
  | Some g -> g
  | None ->
      let g = replay_ops ~file:store.path (List.rev store.ops) in
      store.cache <- Some g;
      g

let num_ops store = List.length store.ops

(* Rewrite the journal as the minimal history of the current state. *)
let checkpoint store =
  let ops = ops_of_graph (graph store) in
  Gqkg_util.Atomic_file.write store.path (fun oc -> output_string oc (ops_to_string ops));
  close_out store.channel;
  store.channel <- open_out_gen [ Open_append ] 0o644 store.path;
  store.ops <- List.rev ops

let close_store store = close_out store.channel
