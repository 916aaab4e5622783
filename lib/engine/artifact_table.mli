(** A per-process table of immutable artifacts — the gate engine's
    netlists and the lowered programs — so that every session of a
    design, on any domain, is served the same one.  At most
    {!capacity} entries, least recently used evicted first;
    mutex-guarded, and a miss builds outside the lock, so two domains
    missing on one key at once both build and the later insert wins. *)

type 'a t

(** Entries a table holds at most. *)
val capacity : int

val create : unit -> 'a t

(** [find_or_add t key build] is [key]'s artifact, built by [build]
    and inserted on a miss.  An exception from [build] propagates and
    inserts nothing. *)
val find_or_add : 'a t -> string -> (unit -> 'a) -> 'a

(** Counters of one table, since its creation or {!reset_stats}. *)
type stats = {
  elaborations : int;  (** misses: artifacts built *)
  hits : int;  (** lookups served from the table *)
  evictions : int;  (** entries dropped to stay within {!capacity} *)
}

val stats : 'a t -> stats
val reset_stats : 'a t -> unit
