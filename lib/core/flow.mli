(** The design flows of the programming environment (figs 7 and 8).

    A design is captured once as a {!Cycle_system.t}; this module is the
    front door to everything that can be done with it:

    - {b simulate} it interpreted (three-phase cycle scheduler) or
      compiled (flattened closure program),
    - {b elaborate} it for event-driven RT simulation,
    - {b generate} VHDL, a standalone OCaml simulator, a self-checking
      test bench,
    - {b synthesize} it to a gate-level netlist and print that netlist
      as structural Verilog; the netlist is checked against the
      reference simulation by [Synthesize.verify]. *)

(** {1 Static checks} *)

type check_report = {
  system_issues : Cycle_system.check_issue list;
  sfg_issues : (string * Sfg.check_issue list) list;  (** per SFG *)
  fsm_issues : (string * Fsm.check_issue list) list;  (** per component *)
}

(** Run the semantic checks of the environment: interconnect audit,
    SFG dangling-input/dead-code detection, FSM determinism and
    reachability sampling. *)
val check : Cycle_system.t -> check_report

val pp_check_report : Format.formatter -> check_report -> unit

(** True when no issue of any kind was found. *)
val check_clean : check_report -> bool

(** {1 Simulation}

    To measure a run, wrap it in {!Ocapi_obs.run_with_telemetry}: the
    engines instrument themselves while telemetry is enabled, and pay
    one flag check per cycle while it is not. *)

(** [simulate ?engine sys ~cycles] simulates on the named engine
    (resolved from the {!Ocapi_engine} registry; default ["interp"])
    and returns the probe histories by probe name: the run's frozen
    [Cycle_system.Trace], converted to lists once, on return.  Resets
    the system first and leaves it reset.  [seed] only keys the result
    {!Cache} (plain simulation is deterministic).

    When the {!Cache} is enabled, the run's trace is served from it on
    a key hit — bit-identical to a cold run — and stored into it
    otherwise; identical runs in flight on other domains are coalesced
    to one execution.

    [progress] is called with the cycle index before every simulated
    cycle; it may raise to abandon the run cooperatively (the batch
    service's timeout/cancellation hook).  It is not called on a cache
    hit — there is nothing to abandon.

    [corr] is a correlation id: the run emits
    [run_started]/[run_finished] into {!Ocapi_obs.Events} (no-ops while
    the event log is disabled) and tags its trace span with the same
    id, so a batch job's event-log lines and its Perfetto span join.
    Without [corr] the events are still emitted, uncorrelated.

    @raise Ocapi_error.Error with code [Unsupported] on an unknown
    engine name or negative [cycles]. *)
val simulate :
  ?engine:string ->
  ?seed:int ->
  ?progress:(int -> unit) ->
  ?corr:string ->
  Cycle_system.t ->
  cycles:int ->
  (string * (int * Fixed.t) list) list

(** [simulate_trace] is {!simulate} short of its list conversion: the
    run's frozen trace, from the {!Cache} or the engine. *)
val simulate_trace :
  ?engine:string ->
  ?seed:int ->
  ?progress:(int -> unit) ->
  ?corr:string ->
  Cycle_system.t ->
  cycles:int ->
  Cycle_system.Trace.t

(** [simulate_result_json ~engine ~cycles histories] is the canonical
    machine-readable rendering of a {!simulate} result: probe name to
    [[cycle, value]] token lists.  [ocapi simulate --json] and the
    job runner's simulate artifacts print exactly this. *)
val simulate_result_json :
  engine:string ->
  cycles:int ->
  (string * (int * Fixed.t) list) list ->
  Ocapi_obs.Json.t

(** {1 Keyed result cache}

    Memoizes {!simulate} results, as frozen [Cycle_system.Trace]s, by
    [(Cycle_system.elaboration_key, stimulus fingerprint, engine, seed,
    cycles)].  The elaboration key covers the structural digest and each
    kernel's declared model (a RAM's word count runs differently under
    one digest), not primary-input stimuli, so the key additionally
    fingerprints every stimulus column
    ({!Cycle_system.column_present}) over the simulated cycle range —
    stimuli must be pure functions of the cycle index for caching to
    be sound.

    Disabled by default.  With [enable ~dir] each stored entry is also
    marshalled to [dir] (e.g. [_generated/cache/]) and warm processes
    read it back; entries carry their full key, so a filename collision
    degrades to a miss, never a wrong result.  Trace entries are named
    [v1-trace-<md5 of the key>.cache]; the [v1-hist-] list entries of
    older builds are never read.  Delete the directory for
    clean benchmark numbers.  Hits and misses count into the
    [flow.cache.hit] / [flow.cache.miss] telemetry counters when
    telemetry is enabled.

    {!Cache.key_of} is also the fingerprint the job runner
    dedups jobs by at admission, and {!Cache.Store} lets other layers
    (the SEU campaign report cache of [Ocapi_fault]) memoize their own
    result types under the same lifecycle. *)
module Cache : sig
  type stats = {
    hits : int;  (** lookups served (memory or disk) *)
    misses : int;
    entries : int;  (** in-memory {!simulate} entries right now *)
    disk_hits : int;  (** subset of [hits] read from disk *)
    disk_writes : int;
  }

  (** [enable ?dir ()] turns the cache on; [dir] adds the on-disk
      store (created if missing, never swept: delete the directory to
      reclaim it).  Disk entries are published atomically
      ({!Ocapi_obs.File.publish}) and any write or read failure —
      including a corrupted or truncated entry — degrades to a miss,
      never an exception. *)
  val enable : ?dir:string -> unit -> unit

  val disable : unit -> unit
  val enabled : unit -> bool

  (** Drop the in-memory entries of the trace table and of every
      {!Store} (the disk store, if any, persists). *)
  val clear : unit -> unit

  val stats : unit -> stats
  val reset_stats : unit -> unit

  (** [key_of ~engine ~seed sys ~cycles] is the cache key of a run:
      elaboration key, stimulus fingerprint over [cycles], the
      engine string, seed and cycle count.  Exposed so other
      layers key their own memoization and dedup on the same identity —
      the job runner fingerprints whole jobs with it by folding the
      job parameters into [engine]. *)
  val key_of :
    engine:string -> seed:int -> Cycle_system.t -> cycles:int -> string

  (** A typed store sharing the cache's lifecycle
      (enable/disable/clear/stats) and disk directory; {!simulate}'s
      traces live in one under namespace ["trace"].  Apply once per
      value type with a unique [namespace] — disk entries are keyed by
      it, and a namespace shared between two types would unmarshal at
      the wrong type.  Values must be marshallable (no closures).

      [coalesced ~key ~compute] returns the cached value of [key], or
      computes it exactly once across all concurrent callers: the first
      caller runs [compute] while identical callers block, then are
      served from the cache.  With the cache disabled every lookup
      misses and each caller computes in turn. *)
  module Store (V : sig
    type t

    val namespace : string
  end) : sig
    val find : string -> V.t option
    val add : string -> V.t -> unit
    val coalesced : key:string -> compute:(unit -> V.t) -> V.t
  end
end

(** {1 Engine cross-checks} *)

(** One engine-pair disagreement, pinned to its first point of
    divergence. *)
type mismatch = {
  mm_pair : string;  (** e.g. ["interpreted-vs-compiled"] *)
  mm_probe : string;  (** first disagreeing probe *)
  mm_cycle : int option;  (** first disagreeing cycle, when comparable *)
  mm_detail : string;  (** the two values, or the structural difference *)
}

(** [first_mismatch a b] compares two traces probe by probe and returns
    the first divergence as [(probe, cycle, detail)] — [None] when they
    are identical.  {!engine_disagreements} and the differential fuzzer
    compare the engines' traces with it. *)
val first_mismatch :
  Cycle_system.Trace.t ->
  Cycle_system.Trace.t ->
  (string * int option * string) option

(** [first_history_mismatch a b] is {!first_mismatch} on two
    probe-history sets (the result shape of {!simulate}), each recorded
    into a [Cycle_system.Trace] with every token in its own format.
    Exposed for testing and for diffing externally produced
    histories. *)
val first_history_mismatch :
  (string * (int * Fixed.t) list) list ->
  (string * (int * Fixed.t) list) list ->
  (string * int option * string) option

(** [engine_disagreements sys ~cycles] runs every engine of the
    {!Ocapi_engine} registry and reports each pair (first registered
    engine vs each other) that disagrees, with its first mismatch
    (empty = all equivalent): ["interpreted-vs-compiled"],
    ["interpreted-vs-rtl"] and so on.  The engines run one after the
    other on [sys], in registry order, and their traces are compared
    with [Cycle_system.Trace.mismatch].

    [progress] is forwarded to each engine's {!simulate} (so it is
    called per simulated cycle); it may raise to abandon the sweep
    cooperatively. *)
val engine_disagreements :
  ?progress:(int -> unit) ->
  Cycle_system.t ->
  cycles:int ->
  mismatch list

val pp_mismatch : Format.formatter -> mismatch -> unit

(** [mismatch_json m] — one {!mismatch} as JSON. *)
val mismatch_json : mismatch -> Ocapi_obs.Json.t

(** [mismatches_json ~cycles ms] is the canonical machine-readable
    rendering of an {!engine_disagreements} sweep: the engine roster,
    an [agree] verdict, and the mismatch list.  The CLI's
    engine-sweep [--json] output and the job runner's engine-sweep
    artifacts print exactly this. *)
val mismatches_json : cycles:int -> mismatch list -> Ocapi_obs.Json.t

(** [engines_agree sys ~cycles] — {!engine_disagreements} rendered as
    one diagnostic line per disagreeing pair, naming the first
    disagreeing probe and cycle (empty = all equivalent). *)
val engines_agree :
  Cycle_system.t ->
  cycles:int ->
  string list

(** {1 Code generation}

    Every file is published into [dir] ({!Ocapi_obs.File.publish}),
    which is created if missing.  A file that cannot be written raises
    [Ocapi_error.Error] with code [Internal], naming its path. *)

(** Write the generated VHDL files into [dir]; returns the paths. *)
val emit_vhdl : Cycle_system.t -> dir:string -> string list

(** Write a self-checking VHDL test bench recorded over [cycles].
    @raise Ocapi_error.Error with code [Unsupported] on negative
    [cycles]. *)
val emit_testbench : Cycle_system.t -> dir:string -> cycles:int -> string

(** Write the standalone compiled OCaml simulator source.
    @raise Ocapi_error.Error with code [Unsupported] on negative
    [cycles]. *)
val emit_ocaml_simulator : Cycle_system.t -> dir:string -> cycles:int -> string

(** {1 Synthesis} *)

(** Synthesize (each untimed kernel as the macro cell its model
    declares) and write the structural Verilog netlist; returns the
    netlist, the synthesis report and the file path. *)
val synthesize_to_verilog :
  Cycle_system.t -> dir:string -> Netlist.t * Synthesize.report * string
