(** Fault injection and fault simulation.

    Two campaign styles over one design:

    - {b Stuck-at fault simulation} (gate level): enumerate the classic
      pin fault universe of the synthesized netlist
      ({!Netlist.fault_universe}), collapse equivalent faults, and
      simulate the survivors against recorded test-bench stimuli, 63
      at a time (parallel-pattern single-fault propagation over the
      lanes of {!Netlist.Sim}), comparing every output word of every
      cycle against the fault-free run.  The result is a {e fault-coverage} figure for the
      test bench — the quality metric of the generated-test-bench flow
      of fig 8.

    - {b SEU campaigns} (register level): deterministic, seeded
      campaigns of transient bit flips in the architectural state —
      datapath registers and encoded FSM state — of the interpreted,
      compiled or RTL cycle engine.  Each run flips one bit at one
      cycle and is classified against the fault-free probe histories:
      {e masked} (identical histories), {e silent data corruption}
      (histories diverge), or {e detected} (the engine stopped with a
      structured {!Ocapi_error.t} diagnostic — deadlock, overflow,
      oscillation, invalid FSM state).

    Engine failures never abort a campaign: an {!Ocapi_error.Error}
    raised in a run is recorded as that run's diagnostic.  Any other
    exception is a bug, not a detection, and propagates.  All randomness
    comes from an explicit seed; the same seed reproduces the same
    classification table. *)

(** {1 Stuck-at fault simulation} *)

type stuck_outcome =
  | Sa_detected of { at_cycle : int; at_output : string }
      (** first cycle/output word differing from the fault-free run *)
  | Sa_undetected  (** the stimuli never expose the fault *)
  | Sa_diagnosed of Ocapi_error.t
      (** the faulty circuit stopped simulating (e.g. oscillation);
          recorded, not counted as coverage *)

type stuck_record = {
  sr_label : string;  (** {!Netlist.fault_label} *)
  sr_fault : Netlist.fault;
  sr_outcome : stuck_outcome;
}

type stuck_report = {
  st_design : string;
  st_universe : int;  (** full pin fault universe *)
  st_collapsed : int;  (** after equivalence collapsing *)
  st_simulated : int;  (** after optional [max_faults] sampling *)
  st_detected : int;
  st_undetected : int;
  st_diagnosed : int;
  st_vectors : int;  (** stimulus cycles replayed per fault *)
  st_coverage : float;  (** detected / simulated *)
  st_records : stuck_record list;
}

(** [stuck_at_netlist nl ~vectors] runs a stuck-at campaign on [nl].
    [vectors.(c)] lists the [(input bus, mantissa)] stimuli of cycle
    [c].  [max_faults] caps the campaign to a deterministic
    [seed]-driven sample of the collapsed fault list.  A fault that
    makes the netlist oscillate is recorded as a [Did_not_settle]
    diagnostic ({!Netlist.Sim.instantiate}'s watchdog).

    The faults run in batches of up to {!Netlist.Sim.lanes} (63), one
    fault per lane (parallel-pattern single-fault propagation).  A
    batch replays the vectors once, until every lane is detected, and
    each lane's first differing (cycle, output) is recorded as a lone
    run of its fault would record it.  A netlist with combinational
    cycles runs one fault per batch, so an oscillating fault is
    diagnosed on its own.

    [domains] (default [1] = the serial path) simulates the batches on
    an {!Ocapi_parallel} pool, one gate-level simulator per worker over
    the shared read-only netlist; the report is bit-identical to the
    serial run for any [domains].

    [progress] is called with the index of each fault of a batch before
    the batch runs (on the worker domain running it); it may raise —
    e.g. an [Ocapi_error] with code [Timeout] — to abandon the campaign
    cooperatively, the deadline/cancellation hook of batch jobs.
    Cancellation thus takes effect between batches of at most 63
    faults.

    @raise Ocapi_error.Error with code [Unsupported] on a negative
    [max_faults]. *)
val stuck_at_netlist :
  ?max_faults:int ->
  ?seed:int ->
  ?domains:int ->
  ?progress:(int -> unit) ->
  Netlist.t ->
  vectors:(string * int64) list array ->
  stuck_report

(** [stuck_at_system sys ~cycles] reads [cycles] of the system's own
    stimuli from its columns (as the test-bench generator does),
    synthesizes the system to gates (untimed kernels through
    [macro_of_kernel], default {!Synthesize.macro_of_model}), and runs
    {!stuck_at_netlist} with them as vectors.  [domains] and [progress] are forwarded to
    {!stuck_at_netlist}.  [cycles = 0] is a valid, empty window.
    @raise Ocapi_error.Error with code [Unsupported] on negative
    [cycles] or [max_faults], before any work. *)
val stuck_at_system :
  ?max_faults:int ->
  ?seed:int ->
  ?macro_of_kernel:(Dataflow.Kernel.t -> Synthesize.macro_spec option) ->
  ?domains:int ->
  ?progress:(int -> unit) ->
  Cycle_system.t ->
  cycles:int ->
  stuck_report

(** A stuck-at campaign run twice from the same recorded stimuli: once
    on the raw synthesized netlist and once on the [Netopt]-optimized
    one, with the {!Ocapi_ir} provenance chain that derived the
    optimized netlist from the behavioral root.  Optimization shrinks
    the fault universe (dead and duplicated logic carries undetectable
    faults), so the post-optimization coverage is the honest figure of
    merit for a test bench. *)
type stuck_compare = {
  sc_design : string;
  sc_pre : stuck_report;  (** campaign on the raw synthesized netlist *)
  sc_post : stuck_report;  (** campaign on the [Netopt]-optimized netlist *)
  sc_provenance : Ocapi_ir.pass_record list;
      (** the pass chain that produced the optimized netlist *)
}

(** [stuck_at_optimized sys ~cycles] records the system's stimuli once,
    lowers the system through the {!Ocapi_ir} passes
    ([lower-to-gate] then [optimize-gates]) and runs
    {!stuck_at_netlist} on both gate-level designs with the shared
    vectors.  All options are forwarded to both campaigns; [progress]
    (fault index, batch by batch) fires for each campaign in turn.
    @raise Ocapi_error.Error with code [Unsupported] on negative
    [cycles] or [max_faults], before any work. *)
val stuck_at_optimized :
  ?max_faults:int ->
  ?seed:int ->
  ?domains:int ->
  ?progress:(int -> unit) ->
  Cycle_system.t ->
  cycles:int ->
  stuck_compare

(** {1 SEU (transient bit-flip) campaigns}

    Campaigns run on any engine of the {!Ocapi_engine} registry,
    selected by name (["interp"], ["compiled"], ["native"], ["rtl"],
    ["gate"], or an alias);
    injection goes through the uniform session poke surface, so adding
    an engine to the registry makes it campaign-capable with no change
    here. *)

(** What a run flips: one bit of one register (indexed in
    [Cycle_system.all_regs] order), or one bit of one timed component's
    state register.  The engines hold FSM state as a 16-bit word (the
    RTL elaboration's state-signal format), so all 16 bits are targets;
    flips landing outside the encoded state indices are caught by the
    engine's state decode and classified [Detected] with code
    [Invalid_state].  Single-state FSMs carry no state register. *)
type seu_target =
  | Reg_bit of { t_reg : int; t_bit : int }
  | State_bit of { t_comp : int; t_bit : int }

type seu_outcome =
  | Masked  (** probe histories identical to the fault-free run *)
  | Sdc of { probe : string; cycle : int option; detail : string }
      (** silent data corruption: a token value differs at the same
          cycle *)
  | Detected of Ocapi_error.t
      (** the engine stopped with a structured diagnostic (deadlock,
          overflow, oscillation, invalid FSM state), or the output
          stream diverged structurally — tokens shifted, missing or
          stopped, which a system-level watchdog monitor catches
          (code [Watchdog]) *)

type seu_run = {
  run_index : int;
  run_target : seu_target;
  run_label : string;  (** e.g. ["acc\[3\]"], ["hcor.state\[1\]"] *)
  run_cycle : int;  (** injection cycle *)
  run_outcome : seu_outcome;
}

type seu_report = {
  seu_design : string;
  seu_engine : string;
  seu_runs : int;
  seu_cycles : int;
  seu_seed : int;
  seu_masked : int;
  seu_sdc : int;
  seu_detected : int;
  seu_records : seu_run list;
}

(** [seu_campaign sys ~cycles] runs [runs] (default 1000) independent
    simulations of [cycles] cycles on the registry engine named
    [engine] (default ["compiled"]; the report records the canonical
    registry name even when an alias was passed).  Run [i] flips one
    seeded-random state bit at one seeded-random cycle; outcomes are
    classified against the fault-free run of the same engine.
    Deterministic: same [seed] (default 1), same report.

    Runs resume from the fault-free run instead of replaying it.  Each
    session's fault-free run takes a checkpoint
    ([Ocapi_engine.ses_checkpoint]) every ⌈[cycles]/64⌉ cycles.  Run
    [i] restores the last checkpoint at or before its injection cycle,
    steps to it, flips its bit and steps on, and stops at the first
    later checkpoint cycle whose state it matches: from equal states it
    would repeat the fault-free tokens, and raise nothing, so it takes
    them instead.  Outcomes, diagnostics included, are those of a run
    from reset ({!seu_campaign_from_reset}).  A session that cannot
    copy its state ([ses_checkpoint] returns [None]) replays every run
    from reset.

    [domains] (default [1] = the serial path) distributes the runs over
    an {!Ocapi_parallel} pool.  The whole injection schedule is drawn
    up front from [seed] in the historic serial draw order and runs are
    merged by index, so the report is bit-identical to the serial run
    for any [domains].  Worker 0 reuses [sys]; each further worker
    needs its own isolated copy of the design, built by [replicate]
    (engine sessions cache compiled state inside — or aliasing — the
    system, so systems cannot be shared across domains).

    @raise Ocapi_error.Error with code [Unsupported] on an unknown
    engine name, and with code [Shared_state] if [replicate] hands a
    worker the campaign system itself, the same system twice, or a
    system with live engine sessions.
    [progress] is called with the run index before each run (on the
    worker domain simulating it); it may raise — e.g. an [Ocapi_error]
    with code [Timeout] — to abandon the campaign cooperatively, the
    deadline/cancellation hook of batch jobs.

    When the {!Flow.Cache} is enabled, the whole report is memoized
    under a key derived with {!Flow.Cache.key_of} from the design
    digest, stimuli, engine, [runs], [seed] and [cycles]:
    a repeated campaign is served from memory or disk bit-identically,
    identical campaigns in flight on other domains coalesce to one
    execution, and [progress] is not called on a hit.  [domains] is
    not part of the key — parallel and serial campaigns produce the
    same report.

    @raise Ocapi_error.Error with code [Unsupported] if [runs] is
    negative or [cycles] is not positive.
    @raise Invalid_argument if [domains > 1] without [replicate], or if
    [replicate] builds a system whose fault-target universe differs
    from [sys]'s. *)
val seu_campaign :
  ?engine:string ->
  ?runs:int ->
  ?seed:int ->
  ?domains:int ->
  ?replicate:(unit -> Cycle_system.t) ->
  ?progress:(int -> unit) ->
  Cycle_system.t ->
  cycles:int ->
  seu_report

(** {!seu_campaign}'s schedule and report on [engine], with every run
    stepped from reset and its whole probe trace compared against the
    fault-free run's: the reference the checkpointed runs must
    reproduce.  Serial and never cached; for the differential fuzzer and the tests only.
    @raise Ocapi_error.Error as {!seu_campaign}. *)
val seu_campaign_from_reset :
  engine:string ->
  runs:int ->
  seed:int ->
  Cycle_system.t ->
  cycles:int ->
  seu_report

(** {1 Reports} *)

val pp_stuck_report : Format.formatter -> stuck_report -> unit
val pp_stuck_compare : Format.formatter -> stuck_compare -> unit
val pp_seu_report : Format.formatter -> seu_report -> unit

(** JSON renderings (for the CLI and job artifacts). *)
val stuck_report_json : stuck_report -> Ocapi_obs.Json.t

val stuck_compare_json : stuck_compare -> Ocapi_obs.Json.t
val seu_report_json : seu_report -> Ocapi_obs.Json.t

(** One diagnostic as JSON: code, severity, engine, construct, cycle,
    nets and message — the shape every report embeds. *)
val error_json : Ocapi_error.t -> Ocapi_obs.Json.t
