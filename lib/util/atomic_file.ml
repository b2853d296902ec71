(* Makes the rename itself durable; a file system that cannot fsync a
   directory is left as it is. *)
let sync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | fd ->
      (try Unix.fsync fd with Unix.Unix_error _ -> ());
      Unix.close fd
  | exception Unix.Unix_error _ -> ()

let write path f =
  let tmp = Printf.sprintf "%s.%d.tmp" path (Unix.getpid ()) in
  let ch = open_out_gen [ Open_wronly; Open_creat; Open_trunc; Open_binary ] 0o666 tmp in
  match
    let v = f ch in
    flush ch;
    Unix.fsync (Unix.descr_of_out_channel ch);
    close_out ch;
    Unix.rename tmp path;
    v
  with
  | v ->
      sync_dir (Filename.dirname path);
      v
  | exception e ->
      close_out_noerr ch;
      (try Sys.remove tmp with Sys_error _ -> ());
      raise e
