(* Measurement primitives shared by every workload: the harness clock,
   order statistics, the host calibration probe, peak-RSS reads and the
   result line. *)

external now_ns : unit -> int64 = "gqbench_now_ns"

let ms_between t0 t1 = Int64.to_float (Int64.sub t1 t0) /. 1e6
let ms_since t0 = ms_between t0 (now_ns ())

let time_ms f =
  let t0 = now_ns () in
  let r = f () in
  (r, ms_since t0)

(* Linear-interpolation quantile (the "linear" method of numpy and of
   Python's statistics module with method='inclusive'). *)
let quantile xs q =
  let n = Array.length xs in
  if n = 0 then nan
  else begin
    let a = Array.copy xs in
    Array.sort compare a;
    let pos = q *. float_of_int (n - 1) in
    let lo = truncate pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    a.(lo) +. (frac *. (a.(hi) -. a.(lo)))
  end

let median xs = quantile xs 0.5
let mean xs = if xs = [||] then 0.0 else Array.fold_left ( +. ) 0.0 xs /. float_of_int (Array.length xs)

(* Growable float sample. *)
module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 256 0.0; n = 0 }

  let add s x =
    if s.n = Array.length s.a then begin
      let b = Array.make (2 * s.n) 0.0 in
      Array.blit s.a 0 b 0 s.n;
      s.a <- b
    end;
    s.a.(s.n) <- x;
    s.n <- s.n + 1

  let to_array s = Array.sub s.a 0 s.n
  let length s = s.n
end

(* A fixed CPU probe: integer mixing over a small array, no allocation,
   no syscalls.  Its time moves only with the host (frequency, steal,
   neighbours), so a run whose probe reads slow was made during a host
   burst. *)
let calib_ms () =
  let once () =
    let t0 = now_ns () in
    let a = Array.make 4096 0 in
    let x = ref 0x2545F491 in
    for i = 1 to 2_000_000 do
      x := (!x lxor (!x lsl 13)) + i;
      x := !x lxor (!x lsr 7);
      let j = !x land 4095 in
      a.(j) <- a.(j) + !x
    done;
    ignore (Sys.opaque_identity a);
    ms_since t0
  in
  median (Array.init 5 (fun _ -> once ()))

(* Peak resident set (VmHWM) of a process, in MB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" (if pid = 0 then "self" else string_of_int pid) in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> nan
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
                  float_of_int kb /. 1024.0)
            else scan ()
      in
      let v = scan () in
      close_in ic;
      v

(* A latency quantile resistant to host bursts: the quantile of each
   window of the timed phase, then the median over windows. *)
let windowed_quantile windows q =
  median
    (Array.of_list
       (List.filter_map
          (fun w -> if Samples.length w = 0 then None else Some (quantile (Samples.to_array w) q))
          (Array.to_list windows)))

let total_samples windows = Array.fold_left (fun n w -> n + Samples.length w) 0 windows

(* ---- the result line ---- *)

type metric = { name : string; unit_ : string; value : float }

let metric name unit_ value = { name; unit_; value }

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let print_result ~correct ~attempted ~failed metrics =
  List.iter
    (fun m -> Printf.printf "  %-28s %14.6f %s\n" m.name m.value m.unit_)
    metrics;
  let body =
    String.concat ", "
      (List.map
         (fun m ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (json_number m.value) m.unit_)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    attempted failed body

(* ---- failure bookkeeping ---- *)

type tally = { mutable attempted : int; mutable failed : int; mutable notes : string list }

let tally () = { attempted = 0; failed = 0; notes = [] }

let fail t fmt =
  Printf.ksprintf
    (fun msg ->
      t.failed <- t.failed + 1;
      if List.length t.notes < 20 then t.notes <- msg :: t.notes)
    fmt

let ok_frac t =
  if t.attempted = 0 then 0.0
  else float_of_int (t.attempted - t.failed) /. float_of_int t.attempted
