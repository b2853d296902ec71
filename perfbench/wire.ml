(* Client side of the newline-JSON protocol: blocking sockets, one
   request in flight per connection, multiplexed by one thread with
   select.  Responses are read with a field scanner rather than a JSON
   parser, so the client's own cost stays small and does not move with
   the program's codec. *)

type conn = {
  fd : Unix.file_descr;
  acc : Buffer.t;  (** bytes of the response line read so far *)
  chunk : Bytes.t;
  mutable sent_ns : int64;  (** when the in-flight request was sent *)
  mutable busy : bool;
}

let connect port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  { fd; acc = Buffer.create 4096; chunk = Bytes.create 65536; sent_ns = 0L; busy = false }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let send c line =
  let s = Bytes.unsafe_of_string (line ^ "\n") in
  let n = Bytes.length s in
  let rec go off = if off < n then go (off + Unix.write c.fd s off (n - off)) in
  c.sent_ns <- Harness.now_ns ();
  c.busy <- true;
  go 0

(* Read what is available; [Some line] once a full line has arrived.
   Raises [End_of_file] if the daemon closed the connection. *)
let pump c =
  let n = Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) in
  if n = 0 then raise End_of_file;
  match Bytes.index_from_opt c.chunk 0 '\n' with
  | Some i when i < n ->
      Buffer.add_subbytes c.acc c.chunk 0 i;
      let line = Buffer.contents c.acc in
      Buffer.clear c.acc;
      (* one request in flight: nothing may follow the newline *)
      if i + 1 < n then Buffer.add_subbytes c.acc c.chunk (i + 1) (n - i - 1);
      c.busy <- false;
      Some line
  | _ ->
      Buffer.add_subbytes c.acc c.chunk 0 n;
      None

let rec recv c = match pump c with Some l -> l | None -> recv c

let call c line =
  send c line;
  recv c

(* Wait up to [timeout] seconds until some of [conns] is readable.
   With [spin], poll without sleeping: the client's CPU never idles, so
   a sub-millisecond round trip does not also pay for waking the client
   up — on a shared VM that wake-up is the noisiest part of the trip. *)
let ready ?(spin = false) conns ~timeout =
  let fds = List.map (fun c -> c.fd) conns in
  let sel t =
    match Unix.select fds [] [] t with
    | r, _, _ -> List.filter (fun c -> List.memq c.fd r) conns
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
  in
  if spin && fds <> [] then begin
    let deadline = Int64.add (Harness.now_ns ()) (Int64.of_float (timeout *. 1e9)) in
    let rec go () =
      match sel 0.0 with [] when Harness.now_ns () < deadline -> go () | r -> r
    in
    go ()
  end
  else sel timeout

(* ---- response fields ---- *)

let find_sub s pat =
  let n = String.length s and m = String.length pat in
  let rec go i =
    if i + m > n then -1
    else if String.unsafe_get s i = String.unsafe_get pat 0 && String.sub s i m = pat then i + m
    else go (i + 1)
  in
  go 0

(* The raw token after ["name":], up to the next ',' '}' or ']'. *)
let raw s name =
  let i = find_sub s ("\"" ^ name ^ "\":") in
  if i < 0 then None
  else begin
    let j = ref i in
    while !j < String.length s && not (String.contains ",}]" s.[!j]) do
      incr j
    done;
    Some (String.trim (String.sub s i (!j - i)))
  end

let num s name = Option.bind (raw s name) float_of_string_opt
let int s name = Option.map int_of_float (num s name)
let is_true s name = raw s name = Some "true"

(* The JSON array value of ["name"], bracket-matched (strings skipped),
   with whitespace removed. *)
let array s name =
  let i = find_sub s ("\"" ^ name ^ "\":") in
  if i < 0 || i >= String.length s || s.[i] <> '[' then None
  else begin
    let b = Buffer.create 256 in
    let depth = ref 0 and j = ref i and in_str = ref false and fin = ref false in
    while (not !fin) && !j < String.length s do
      let ch = s.[!j] in
      if !in_str then begin
        Buffer.add_char b ch;
        if ch = '\\' && !j + 1 < String.length s then begin
          incr j;
          Buffer.add_char b s.[!j]
        end
        else if ch = '"' then in_str := false
      end
      else begin
        (match ch with
        | '"' -> in_str := true
        | '[' -> incr depth
        | ']' ->
            decr depth;
            if !depth = 0 then fin := true
        | _ -> ());
        if not (ch = ' ' || ch = '\n' || ch = '\t' || ch = '\r') then Buffer.add_char b ch
      end;
      incr j
    done;
    if !fin then Some (Buffer.contents b) else None
  end
