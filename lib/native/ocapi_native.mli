(** The native compiled engine: the generated simulator, dynlinked.

    This is the fourth first-class {!Ocapi_engine.ENGINE} (registered
    as ["native"], alias ["jit"]).  Where the interpreted compiled
    engine walks a statement array, this engine feeds the design
    through [Emit.emit_plugin], compiles the emitted module
    out-of-process with [ocamlfind ocamlopt -shared], loads the
    resulting [.cmxs] with [Dynlink.loadfile_private], and drives the
    raw state arrays of one plugin instance per session through the
    common session surface —
    stimuli, probe histories, register bit pokes, FSM state forcing,
    untimed kernels and telemetry all behave exactly as on the other
    engines.

    {2 Lifecycle}

    Session creation takes one of two rungs:

    + {b Native}: the emitter's width-bound analysis proves every net
      and register mantissa fits an unboxed 63-bit OCaml [int]; the
      plugin simulates over [int array] words.
    + {b Compiled fallback}: the analysis rejects packing (values
      provably or possibly wider than 62 magnitude bits), no toolchain
      on [PATH], bytecode host, missing ABI [.cmi], compile or load
      failure, or [OCAPI_NATIVE_DISABLE] set — the session silently
      degrades to the compiled engine's instance of the same lowered
      program, reporting [ses_engine = "native"], so sweep artifacts
      stay byte-identical whether or not a toolchain is present.  Each
      such session counts in {!stats}'s [fallbacks].

    Compiled artifacts are [.cmxs] files in one disk cache, keyed by
    [md5(Cycle_system.elaboration_key | Emit.emitter_version |
    Sys.ocaml_version | ABI cmi digest)], so warm processes skip the
    compiler entirely.  A process dynlinks each artifact path (cache
    directory plus key) once, keeps the factory the plugin registers for
    the rest of the process (dynlinked code is never unmapped), and
    calls it once per session: every session is a private instance
    with its own value store, stamps, FSM states, RAM images and kernel
    hooks, and a later session of the design writes no file and maps
    nothing.  The session's tables (stimuli,
    probes, registers, components, kernels, static size) come from the
    lowered program the compiled engine shares ([Ocapi_engine.lowered]).
    A cached file that fails to load, registers no factory, or whose
    instances disagree in shape with that program (store length, FSM,
    RAM and kernel counts) is counted, deleted and recompiled.  A
    compile writes under a name of its own (pid and counter), loads
    from there and renames the file into place, so no cached artifact
    is ever rewritten in place.

    Environment variables: [OCAPI_NATIVE_DISABLE] (any value but
    [""]/[0] forces the fallback rung), [OCAPI_NATIVE_CACHE_DIR]
    (relocates the artifact cache), [OCAPI_NATIVE_CMI_DIR] (points at
    the directory holding [ocapi_native_abi.cmi] for installed use). *)

(** {1 Registration} *)

(** Register the ["native"] engine (alias ["jit"]) with
    {!Ocapi_engine.register}.  Idempotent; called by the flow layer at
    startup so every [Ocapi_engine.find]/[get] client sees it. *)
val register_engine : unit -> unit

(** {1 Availability} *)

(** [availability ()] is [Ok ()] when a session would take a native
    rung, or [Error d] with a {!Ocapi_error.Native_unavailable}
    diagnostic explaining which prerequisite is missing (toolchain,
    native Dynlink, ABI interface, or an explicit disable).  Sessions
    never fail for these reasons — they degrade — so this is the
    introspection point for tests and doctors.  The toolchain is probed
    once per process; [OCAPI_NATIVE_DISABLE] is read on every call. *)
val availability : unit -> (unit, Ocapi_error.t) result

(** {1 Statistics} *)

(** Monotonic counters since start (or {!reset_stats}).  Always on —
    independent of [Ocapi_obs] telemetry — because tests use them to
    prove which rung ran: a warm cache shows [compiles = 0] with
    [cache_hits > 0]; a toolchain-less host shows [fallbacks > 0]. *)
type stats = {
  compiles : int;  (** out-of-process [ocamlopt] invocations *)
  cache_hits : int;  (** plugin loads served from a cached [.cmxs] *)
  corrupt_misses : int;
      (** cached artifacts that failed to load, register a factory, or
          fit the lowered program — counted, deleted, then recompiled *)
  fallbacks : int;  (** sessions that degraded to the compiled fallback *)
  loads : int;  (** successful [Dynlink] loads (fresh or cached) *)
  reuses : int;  (** sessions served by a factory already loaded *)
}

val stats : unit -> stats
val reset_stats : unit -> unit

(** {1 The artifact cache} *)

(** Delete all plugin artifacts in the disk cache directory and forget
    the factories loaded from it, so the next session compiles (used by
    benchmarks to measure cold-compile cost deterministically). *)
val clear_disk_cache : unit -> unit

(** The artifact cache directory currently in effect
    ([OCAPI_NATIVE_CACHE_DIR] or a fixed location under the system
    temp dir). *)
val cache_dir : unit -> string
