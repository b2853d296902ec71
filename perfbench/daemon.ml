(* Lifecycle of the spawned `gqkg serve` processes.

   Every daemon is started with PR_SET_PDEATHSIG, recorded in a pid file
   under the work directory, and registered here; [reap_all] (run on
   every exit path, exceptions and signals included) kills and waits for
   whatever is still registered.  A clean stop is SIGTERM, exit code 0
   and a final metrics line with no pinned epoch and one live epoch. *)

external die_with_parent : int -> unit = "gqbench_die_with_parent"

type t = {
  pid : int;
  mutable port : int;
  out : Unix.file_descr;  (** the daemon's stdout *)
  pending : Buffer.t;  (** stdout bytes read past the listening line *)
  mutable reaped : bool;
}

let live : t list ref = ref []
let pid_file = ref "daemon.pids"

let read_pids () =
  match open_in !pid_file with
  | exception Sys_error _ -> []
  | ic ->
      let rec go acc =
        match input_line ic with
        | exception End_of_file -> List.rev acc
        | l -> go (match int_of_string_opt (String.trim l) with Some p -> p :: acc | None -> acc)
      in
      let pids = go [] in
      close_in ic;
      pids

let write_pids pids =
  let oc = open_out !pid_file in
  List.iter (fun p -> Printf.fprintf oc "%d\n" p) pids;
  close_out oc

(* Is [pid] a running `gqkg serve`? *)
let is_daemon pid =
  match open_in_bin (Printf.sprintf "/proc/%d/cmdline" pid) with
  | exception Sys_error _ -> false
  | ic ->
      let cmd = try input_line ic with End_of_file -> "" in
      close_in ic;
      let args = String.split_on_char '\000' cmd in
      List.mem "serve" args && List.exists (fun a -> Filename.basename a = "gqkg.exe") args

(* A daemon recorded by an earlier run that is still alive would share
   the host with this run's measurements. *)
let strays () = List.filter is_daemon (read_pids ())

let read_line_within fd buf ~timeout_s =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let chunk = Bytes.create 4096 in
  let rec go () =
    let s = Buffer.contents buf in
    match String.index_opt s '\n' with
    | Some i ->
        Buffer.clear buf;
        Buffer.add_string buf (String.sub s (i + 1) (String.length s - i - 1));
        Some (String.sub s 0 i)
    | None -> (
        let left = deadline -. Unix.gettimeofday () in
        if left <= 0.0 then None
        else
          match Unix.select [ fd ] [] [] left with
          | [], _, _ -> None
          | _ -> (
              match Unix.read fd chunk 0 4096 with
              | 0 -> None
              | n ->
                  Buffer.add_subbytes buf chunk 0 n;
                  go ()))
  in
  go ()

let spawn ~gqkg ~graph ~err_log =
  let r, w = Unix.pipe ~cloexec:true () in
  let err = Unix.openfile err_log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND; Unix.O_CLOEXEC ] 0o644 in
  let parent = Unix.getpid () in
  match Unix.fork () with
  | 0 -> (
      try
        die_with_parent parent;
        Unix.dup2 ~cloexec:false w Unix.stdout;
        Unix.dup2 ~cloexec:false err Unix.stderr;
        Unix.execv gqkg [| gqkg; "serve"; graph; "--port"; "0" |]
      with _ -> Unix._exit 127)
  | pid ->
      Unix.close w;
      Unix.close err;
      write_pids (read_pids () @ [ pid ]);
      let d = { pid; port = 0; out = r; pending = Buffer.create 256; reaped = false } in
      live := d :: !live;
      let port =
        match read_line_within r d.pending ~timeout_s:60.0 with
        | Some line -> (
            (* "gqkg serve: listening on 127.0.0.1:PORT (...)" *)
            try Scanf.sscanf line "gqkg serve: listening on 127.0.0.1:%d" Fun.id
            with _ -> failwith ("unexpected daemon banner: " ^ line))
        | None -> failwith "daemon did not announce its port"
      in
      d.port <- port;
      d

let forget d =
  d.reaped <- true;
  live := List.filter (fun x -> x.pid <> d.pid) !live;
  (try Unix.close d.out with Unix.Unix_error _ -> ());
  write_pids (List.filter (fun p -> p <> d.pid) (read_pids ()))

let wait_exit pid =
  let rec go () =
    match Unix.waitpid [] pid with
    | _, st -> st
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let kill d =
  if not d.reaped then begin
    (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
    (try ignore (wait_exit d.pid) with Unix.Unix_error _ -> ());
    forget d
  end

let reap_all () = List.iter kill !live

type stop = { exit_ok : bool; final : Gqkg_server.Jsonx.t option }

(* Graceful stop: SIGTERM, collect stdout to EOF, wait.  Falls back to
   SIGKILL if the drain takes longer than [timeout_s]. *)
let stop ?(timeout_s = 60.0) d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let lines = ref [] in
  let rec collect () =
    match read_line_within d.out d.pending ~timeout_s with
    | Some l ->
        lines := l :: !lines;
        collect ()
    | None -> ()
  in
  collect ();
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec poll () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.005;
        poll ()
    | 0, _ ->
        (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (wait_exit d.pid);
        Unix.WSIGNALED Sys.sigkill
    | _, st -> st
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> poll ()
    | exception Unix.Unix_error _ -> Unix.WEXITED 255
  in
  let status = poll () in
  forget d;
  let final =
    match !lines with
    | last :: _ -> Result.to_option (Gqkg_server.Jsonx.parse last)
    | [] -> None
  in
  { exit_ok = status = Unix.WEXITED 0; final }

let num_field json name =
  Option.bind (Gqkg_server.Jsonx.member name json) Gqkg_server.Jsonx.num

(* The drain invariants every serve run must end with. *)
let clean s =
  s.exit_ok
  &&
  match s.final with
  | Some m -> num_field m "pinned" = Some 0.0 && num_field m "live_epochs" = Some 1.0
  | None -> false
