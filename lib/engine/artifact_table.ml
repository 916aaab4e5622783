(* The per-process artifact tables: entries by key, most recently used
   first.  A miss builds outside the lock: two domains missing on one
   key at once both build, and the later insert wins. *)

type stats = { elaborations : int; hits : int; evictions : int }

type 'a t = {
  lock : Mutex.t;
  mutable entries : (string * 'a) list;
  mutable stats : stats;
}

let capacity = 8
let zero = { elaborations = 0; hits = 0; evictions = 0 }
let create () = { lock = Mutex.create (); entries = []; stats = zero }
let locked t f = Mutex.protect t.lock f
let stats t = locked t (fun () -> t.stats)
let reset_stats t = locked t (fun () -> t.stats <- zero)

let find_or_add t key build =
  let found =
    locked t (fun () ->
        match List.assoc_opt key t.entries with
        | Some a ->
          t.stats <- { t.stats with hits = t.stats.hits + 1 };
          t.entries <- (key, a) :: List.remove_assoc key t.entries;
          Some a
        | None -> None)
  in
  match found with
  | Some a -> a
  | None ->
    let a = build () in
    locked t (fun () ->
        let rest = List.remove_assoc key t.entries in
        let kept = List.filteri (fun i _ -> i < capacity - 1) rest in
        t.stats <-
          {
            t.stats with
            elaborations = t.stats.elaborations + 1;
            evictions = t.stats.evictions + List.length rest - List.length kept;
          };
        t.entries <- (key, a) :: kept);
    a
