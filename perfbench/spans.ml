(* In-memory span recorder for the traced replay.

   A span is one timed call into a layer's public entry point: its
   name, start and end on the harness clock, the request it belongs to,
   and the span that caused it.  Spans stay in memory while the replay
   runs and are written out when the benchmark ends.  With recording
   off, [span] is a plain call. *)

type span = { name : string; req : int; parent : string; t0 : int64; t1 : int64 }

let recording = ref false
let spans : span list ref = ref []
let current_req = ref 0

let reset () =
  spans := [];
  current_req := 0

let span ?(parent = "") name f =
  if not !recording then f ()
  else begin
    let t0 = Harness.now_ns () in
    let r = f () in
    spans := { name; req = !current_req; parent; t0; t1 = Harness.now_ns () } :: !spans;
    r
  end

let duration_ms s = Harness.ms_between s.t0 s.t1

(* Total time and call count per span name. *)
let totals () =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let ms, n = Option.value (Hashtbl.find_opt tbl s.name) ~default:(0.0, 0) in
      Hashtbl.replace tbl s.name (ms +. duration_ms s, n + 1))
    !spans;
  tbl

let total_ms tbl name = fst (Option.value (Hashtbl.find_opt tbl name) ~default:(0.0, 0))
let calls tbl name = snd (Option.value (Hashtbl.find_opt tbl name) ~default:(0.0, 0))

(* Mean time per call, 0 when the layer was never called. *)
let mean_ms tbl name =
  match Hashtbl.find_opt tbl name with Some (ms, n) when n > 0 -> ms /. float_of_int n | _ -> 0.0

(* Self time of an outer span: its total minus the totals of the inner
   calls that were timed on their own beside it. *)
let self_ms tbl ~outer ~inner =
  let n = calls tbl outer in
  if n = 0 then 0.0
  else
    Float.max 0.0 (total_ms tbl outer -. List.fold_left (fun acc i -> acc +. total_ms tbl i) 0.0 inner)
    /. float_of_int n

let write_jsonl path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc "{\"name\":%S,\"req\":%d,\"parent\":%S,\"start_ns\":%Ld,\"end_ns\":%Ld}\n" s.name
        s.req s.parent s.t0 s.t1)
    (List.rev !spans);
  close_out oc

(* Mean time per call over several span names. *)
let mean_ms_of tbl names =
  let ms, n = List.fold_left (fun (ms, n) name -> (ms +. total_ms tbl name, n + calls tbl name)) (0.0, 0) names in
  if n = 0 then 0.0 else ms /. float_of_int n
