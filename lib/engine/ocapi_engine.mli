(** The uniform cycle-engine interface and registry.

    The paper's environment runs the {e same} captured design through
    interchangeable evaluation back-ends — three-phase interpreted
    scheduling, compiled-code simulation, the regenerated native
    simulator, event-driven RT simulation (sections 4–5, Table 1).
    This module is that interchangeability made first-class: one module
    type {!ENGINE}, one {!session} calling convention (stepwise
    execution, probe histories, checkpoints, and the register /
    FSM-state poke surface the SEU campaigns need), and a registry of
    first-class modules wrapping the five implementations: the
    interpreted, compiled and RTL engines defined here, the native
    engine ([Ocapi_native]) and the gate engine over the synthesized
    netlist ([Ocapi_ir], on [Netlist.Sim]).

    Everything above this layer — [Flow], [Ocapi_fault], the CLI, the
    benchmarks — selects engines by {e name} through the registry
    instead of branching per engine.

    Overview, in reading order:

    - {!section:sessions} — the {!session} record every engine's
      [make] returns: the whole per-engine surface in one place.
    - {!section:interface} — the {!ENGINE} module type an
      implementation provides.
    - {!section:registry} — name/alias lookup ({!find}, {!get}) and
      registration ({!register}).
    - {!section:execution} — {!run}, the one stepping discipline
      shared by simulation, sweeps and fault campaigns. *)

(** Probe histories, as [(probe name, (cycle, token) list)] pairs —
    the shape of [Cycle_system.output_history] across all engines,
    derived from a session's trace by [Cycle_system.Trace.to_histories].
    Only [ses_histories] returns them; everything else in the library
    passes the trace. *)
type histories = (string * (int * Fixed.t) list) list

(** {1:sessions Sessions}

    A session is one engine instance elaborated over one system:
    the interpreted engine walks the system itself, the compiled
    engine holds a flattened closure program, the RTL engine an
    event-driven elaboration (which {e shares the register objects}
    of the source system).  Sessions mark their system
    ([Cycle_system.attach_engine]) for the lifetime of the session;
    {!run} and the campaign layers use that mark to detect designs
    handed to two consumers at once (code [Shared_state]).

    Every session records its probe tokens in place, into one
    [Cycle_system.Trace.t] it owns ([ses_trace]), with one column per
    probe of the system in [Cycle_system.probes] order:
    - interp: the system's own trace ([Cycle_system.trace]), in each
      token's format;
    - compiled: copied from the value store, in the probe net's format;
    - native: from the plugin's [int] value array;
    - rtl: the sampled net signal's value;
    - gate: the output bus, read when its valid wire is high.
    A static engine's column holds one format, its net's; an
    unconnected probe's column stays empty.  {!run} returns a frozen
    copy of it; [ses_histories] is the list view of the same tokens,
    for callers outside the library.

    A {!checkpoint} copies exactly the state [ses_reset]
    re-initializes, less histories, traces and statistics counters —
    [reset] defines a fresh run's state, so it also defines what a
    checkpoint holds:
    - interp: register values, FSM states, net tokens, kernel state and
      the cycle;
    - compiled: the value store, inlined RAM images and their staged
      writes, stamps, FSM states, host-kernel state and the cycle;
    - native: the plugin's arrays (values, stamps, FSM states, RAM
      images, staged writes, the cycle) and host-kernel state;
    - rtl: signal values and driven flags, the registers it shares with
      the system, sequential-process clock latches, kernel state and
      the cycle;
    - gate: [Netlist.Sim]'s nets, RAM contents and dirty set, and the
      cycle.

    Untimed kernels are copied through their [k_snapshot] hooks.  A
    session over a kernel without one cannot copy its state, and
    [ses_checkpoint] returns [None]; campaigns then replay each run
    from reset.  Checkpoint storage is allocated by [ses_checkpoint]
    itself; making and stepping a session pay nothing for it. *)

(** A copy of a session's state at cycle [ck_cycle]. *)
type checkpoint = {
  ck_cycle : int;
  ck_restore : unit -> unit;
      (** return the session to the copy's state and cycle, from any
          state (one an engine exception left mid-step included); the
          trace is cleared, so [ses_trace] and [ses_histories] then
          hold the tokens from [ck_cycle] on *)
  ck_matches : unit -> bool;
      (** does the session's current state equal the copy?  From equal
          states a session steps identically, so a run that matches the
          fault-free run's checkpoint repeats that run from there *)
}

type session = {
  ses_engine : string;  (** registry name of the engine *)
  ses_step : unit -> unit;  (** simulate one clock cycle *)
  ses_cycle : unit -> int;  (** cycles simulated since reset *)
  ses_reset : unit -> unit;
      (** cycle counter to zero, registers/FSMs to initial, trace
          cleared — restores the underlying system where the engine
          aliases it *)
  ses_histories : unit -> histories;
      (** [Cycle_system.Trace.to_histories (ses_trace ())]: the API
          edge for callers that want values *)
  ses_trace : unit -> Cycle_system.Trace.t;
      (** the session's trace, live: later steps append to it, and
          [ses_reset] and [ck_restore] clear it; keep a
          [Cycle_system.Trace.copy] to freeze it *)
  ses_register_count : int;
      (** registers indexed in [Cycle_system.all_regs] order — the
          shared indexing of the SEU campaigns, identical across
          engines *)
  ses_register_info : int -> string * Fixed.format;
  ses_poke_register_bit : int -> bit:int -> unit;
      (** XOR one bit into a register between two steps (a transient
          SEU) *)
  ses_component_count : int;  (** timed components, in system order *)
  ses_component_info : int -> string * int;  (** name, state count *)
  ses_component_state : int -> int;
  ses_force_component_state : int -> int -> unit;
      (** force an FSM's encoded state; driving an unencoded index
          raises [Ocapi_error.Error] with code [Invalid_state] — the
          detected-outcome path of SEU campaigns *)
  ses_resident_words : unit -> int;
      (** [Cycle_system.resident_words] of the engine's root state,
          less its trace (Table 1's memory column) *)
  ses_static_size : int option;
      (** compiled statement count, for engines with a static program
          image *)
  ses_checkpoint : unit -> checkpoint option;
      (** copy the current state (see {!checkpoint}); [None] when an
          untimed kernel has no [k_snapshot] hook *)
  ses_close : unit -> unit;
      (** detach the engine mark from the system; idempotent *)
}

(** {1:interface The engine interface} *)

module type ENGINE = sig
  (** registry key, e.g. ["compiled"] *)
  val name : string

  (** human label used in disagreement-pair names, e.g.
      ["interpreted"] *)
  val display : string

  (** extra names {!find} accepts *)
  val aliases : string list

  val make : Cycle_system.t -> session
  (** Elaborate a session.  Resets the system first where elaboration
      requires a pristine state (compiled, RTL). *)
end

type t = (module ENGINE)

val name_of : t -> string
val display_of : t -> string

(** [closer sys engine] is a [ses_close] that detaches [engine]'s mark
    from [sys] once, however many times it is called. *)
val closer : Cycle_system.t -> string -> unit -> unit

(** [lowered ~key sys] is [Compiled_sim.lower sys], kept in a
    per-process {!Artifact_table} by [key], which must be
    [Cycle_system.elaboration_key sys]: the compiled and native engines'
    sessions of one design share one lowering.  A design the lowering
    rejects raises each time. *)
val lowered : key:string -> Cycle_system.t -> Compiled_sim.program

(** Counters of the {!lowered} table. *)
val program_stats : unit -> Artifact_table.stats

(** [compiled_session ~engine sys] is the ["compiled"] engine's session
    over [sys] — an instance of its {!lowered} program, after a system
    reset — reporting [ses_engine = engine]; the native engine serves it
    as its toolchain-less fallback. *)
val compiled_session : engine:string -> Cycle_system.t -> session

(** {1:registry Registry}

    The built-in engines register themselves in paper order —
    ["interp"], ["compiled"], ["rtl"] — when this module is linked;
    the native engine (["native"], alias ["jit"]) registers fourth and
    the gate engine (["gate"], alias ["netlist"]) fifth, from the flow
    layer's linkage of [Ocapi_native] and [Ocapi_ir].  {!all} preserves
    registration order (the first engine is the baseline of
    engine-agreement sweeps). *)

val register : t -> unit

(** [find name] resolves [name] against engine names and aliases
    (["interpreted"] finds ["interp"]). *)
val find : string -> t option

(** [get name] is [find], raising [Ocapi_error.Error] with code
    [Unsupported] (listing the known names) on an unknown engine. *)
val get : string -> t

val all : unit -> t list
val names : unit -> string list

(** {1:execution Uniform execution} *)

(** [run ?inject ?progress ses ~cycles] is the one stepping discipline
    shared by plain simulation, campaign golden runs and faulty runs
    from reset: reset, step [cycles] times — calling [inject]'s thunk
    just before the step of its cycle — take a frozen
    [Cycle_system.Trace.copy] of the session's trace, reset again so
    the session (and any aliased system state) is left pristine, and
    return the copy.  On an engine exception the session is reset
    before the exception propagates, keeping the session reusable for
    the next run (the campaign discipline).

    [progress] is called with the cycle index before every step; it may
    raise (e.g. an [Ocapi_error] with code [Timeout]) to abandon the
    run cooperatively — the deadline hook of batch jobs. *)
val run :
  ?inject:int * (unit -> unit) ->
  ?progress:(int -> unit) ->
  session ->
  cycles:int ->
  Cycle_system.Trace.t
