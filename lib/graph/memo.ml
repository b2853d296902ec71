(* Typed tables behind one mutex.  A memo holds few kinds (join index,
   schema, plans, results) and bounded entry lists, so linear scans beat
   the bookkeeping of a hash table or a real LRU here.  Tables are found
   by the kind's type identifier, which also recovers their type. *)

type ('k, 'v) kind = {
  id : ('k * 'v) Type.Id.t;
  cap : int;
  hits : int Atomic.t;
  misses : int Atomic.t;
  dropped : int Atomic.t;
}

let kind ~cap =
  {
    id = Type.Id.make ();
    cap;
    hits = Atomic.make 0;
    misses = Atomic.make 0;
    dropped = Atomic.make 0;
  }

type table = Table : ('k, 'v) kind * ('k * 'v) list ref -> table
type t = { lock : Mutex.t; mutable tables : table list; mutable retired : bool }

let create () = { lock = Mutex.create (); tables = []; retired = false }

let rec entries : type k v. (k, v) kind -> table list -> (k * v) list ref option =
 fun k -> function
  | [] -> None
  | Table (k', e) :: rest -> (
      match Type.Id.provably_equal k.id k'.id with
      | Some Type.Equal -> Some e
      | None -> entries k rest)

let find t k key =
  let v =
    Mutex.protect t.lock (fun () ->
        match entries k t.tables with Some e -> List.assoc_opt key !e | None -> None)
  in
  Atomic.incr (if Option.is_some v then k.hits else k.misses);
  v

let rec take n = function [] -> [] | _ when n <= 0 -> [] | x :: rest -> x :: take (n - 1) rest

let add t k key v =
  Mutex.protect t.lock (fun () ->
      if t.retired then v
      else
        let e =
          match entries k t.tables with
          | Some e -> e
          | None ->
              let e = ref [] in
              t.tables <- Table (k, e) :: t.tables;
              e
        in
        match List.assoc_opt key !e with
        | Some v' -> v'
        | None ->
            e := (key, v) :: take (k.cap - 1) !e;
            v)

let find_or_add t k key build = match find t k key with Some v -> v | None -> add t k key (build ())

let size t =
  Mutex.protect t.lock (fun () ->
      List.fold_left (fun n (Table (_, e)) -> n + List.length !e) 0 t.tables)

let retire t =
  Mutex.protect t.lock (fun () ->
      List.iter (fun (Table (k, e)) -> ignore (Atomic.fetch_and_add k.dropped (List.length !e))) t.tables;
      t.tables <- [];
      t.retired <- true)

type counts = { hits : int; misses : int; dropped : int }

let counts (k : (_, _) kind) =
  { hits = Atomic.get k.hits; misses = Atomic.get k.misses; dropped = Atomic.get k.dropped }

let reset_counts (k : (_, _) kind) =
  Atomic.set k.hits 0;
  Atomic.set k.misses 0;
  Atomic.set k.dropped 0
