(* gqbench: the benchmark harness behind perfbench/run.py.

     gqbench.exe --workload serve-hot|serve-churn|analytic --seed N
                 --seconds S --trace 0|1 --gqkg PATH --work DIR
                 [--size full|tiny]

   Prints human-readable lines, then one JSON result line: the
   end-to-end metrics with --trace 0, the per-layer metrics of a traced
   replay with --trace 1.  Exit code 0 only when every answer checked
   out and every daemon stopped clean. *)

module H = Harness

exception Interrupted of int

let usage () =
  prerr_endline
    "usage: gqbench.exe --workload serve-hot|serve-churn|analytic --seed N --seconds S --trace 0|1 \
     --gqkg PATH --work DIR [--size full|tiny]";
  exit 2

let () =
  let args = Hashtbl.create 8 in
  let rec parse = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        Hashtbl.replace args (String.sub k 2 (String.length k - 2)) v;
        parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let get k = match Hashtbl.find_opt args k with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some v -> v | None -> usage () in
  let workload = get "workload" and seed = int "seed" and seconds = float_of_int (int "seconds") in
  let trace = match get "trace" with "0" -> false | "1" -> true | _ -> usage () in
  let gqkg = get "gqkg" and work = get "work" in
  let size =
    match Hashtbl.find_opt args "size" with
    | None | Some "full" -> Inputs.Full
    | Some "tiny" -> Inputs.Tiny
    | Some _ -> usage ()
  in
  if not (List.mem workload [ "serve-hot"; "serve-churn"; "analytic" ]) then usage ();
  let p = Inputs.params size in
  Daemon.pid_file := Filename.concat work "daemon.pids";
  (match Daemon.strays () with
  | [] -> ()
  | pids ->
      Printf.eprintf "gqbench: refusing to start: gqkg serve still running from an earlier run (pid %s)\n"
        (String.concat ", " (List.map string_of_int pids));
      exit 3);
  (* A dead daemon must surface as EPIPE on the socket, not kill us. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun s -> raise (Interrupted s))))
    [ Sys.sigterm; Sys.sigint; Sys.sighup ];
  at_exit Daemon.reap_all;
  let tally = H.tally () in
  let calib_before = H.calib_ms () in
  let metrics =
    Fun.protect ~finally:Daemon.reap_all (fun () ->
        match workload with
        | "analytic" -> Analytic.run (Analytic.make ~p ~seed ~seconds ~work ~tally) ~trace ~work
        | w ->
            Serve.run (Serve.make ~p ~seed ~seconds ~gqkg ~work ~tally) ~hot:(w = "serve-hot") ~trace ~work)
  in
  let calib_after = H.calib_ms () in
  let drift = calib_after /. calib_before in
  Printf.printf "host.calib_ms before %.3f after %.3f%s\n" calib_before calib_after
    (if drift > 1.15 || drift < 1.0 /. 1.15 then "  (host burst: probe moved more than 15%)" else "");
  List.iter (Printf.printf "check failed: %s\n") (List.rev tally.H.notes);
  let metrics =
    if trace then metrics @ [ H.metric "host.calib_ms" "ms" ((calib_before +. calib_after) /. 2.0) ]
    else metrics @ [ H.metric "ok_frac" "ratio" (H.ok_frac tally) ]
  in
  H.print_result ~correct:(tally.H.failed = 0) ~attempted:tally.H.attempted ~failed:tally.H.failed metrics;
  exit (if tally.H.failed = 0 then 0 else 1)
