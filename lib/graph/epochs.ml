(* Epoch manager: current-pointer + pin-count MVCC.

   The mutable state is tiny — the current base and a list of live
   entries (epoch stamp, snapshot, pin count) — and every touch of it
   holds [lock] for O(live epochs) work, so readers and the writer
   never contend for more than a pointer swing.  Query execution itself
   runs on the pinned snapshot with no lock at all: snapshots are
   immutable, and a commit installs a brand-new one rather than
   mutating the old. *)

type entry = { snap : Snapshot.t; mutable pins : int }

type t = {
  lock : Mutex.t;
  mutable current : Overlay.base;
  mutable live : entry list; (* newest first; head is the current epoch *)
  mutable n_commits : int;
  mutable n_retired : int;
}

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let create base =
  {
    lock = Mutex.create ();
    current = base;
    live = [ { snap = Overlay.snapshot base; pins = 0 } ];
    n_commits = 0;
    n_retired = 0;
  }

let base t = locked t (fun () -> t.current)
let snapshot t = locked t (fun () -> Overlay.snapshot t.current)

let pin t =
  locked t (fun () ->
      match t.live with
      | cur :: _ ->
          cur.pins <- cur.pins + 1;
          cur.snap
      | [] -> assert false)

(* Retire live entries that are neither current nor pinned: they leave
   the live list and their snapshots' memos are emptied, so derived
   values go at the commit or unpin that retires the epoch. *)
let sweep t =
  match t.live with
  | cur :: olds ->
      let survivors, retired = List.partition (fun e -> e.pins > 0) olds in
      List.iter (fun e -> Memo.retire e.snap.Snapshot.memo) retired;
      t.n_retired <- t.n_retired + List.length retired;
      t.live <- cur :: survivors
  | [] -> assert false

let unpin t (snap : Snapshot.t) =
  locked t (fun () ->
      List.iter
        (fun e ->
          if e.snap == snap && e.pins > 0 then e.pins <- e.pins - 1)
        t.live;
      sweep t)

let with_pinned t f =
  let snap = pin t in
  Fun.protect ~finally:(fun () -> unpin t snap) (fun () -> f snap)

let commit t overlay =
  if Overlay.base overlay != base t then
    invalid_arg "Epochs.commit: overlay was not built on the current epoch";
  if Overlay.size overlay = 0 then (base t, snd (Overlay.commit overlay))
  else begin
    (* The re-freeze runs outside the lock: readers keep pinning the old
       epoch meanwhile; single-writer means nobody else can commit. *)
    let base', reuse = Overlay.commit overlay in
    locked t (fun () ->
        t.current <- base';
        t.live <- { snap = Overlay.snapshot base'; pins = 0 } :: t.live;
        t.n_commits <- t.n_commits + 1;
        sweep t);
    (base', reuse)
  end

let live_epochs t =
  locked t (fun () -> List.map (fun e -> e.snap.Snapshot.epoch) t.live)

let commits t = locked t (fun () -> t.n_commits)
let retired t = locked t (fun () -> t.n_retired)

let pins t =
  locked t (fun () -> List.fold_left (fun acc e -> acc + e.pins) 0 t.live)
