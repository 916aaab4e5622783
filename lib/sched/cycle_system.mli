(** Systems of components and the three-phase cycle scheduler.

    A system is a set of concurrent components exchanging data signals
    over a system interconnect (paper section 2, fig 5).  Components are
    either {e timed} — an FSM whose transition actions are SFGs, one
    iteration per clock cycle — or {e untimed} — a data-flow kernel with
    a firing rule, which the cycle scheduler interleaves with the timed
    blocks (fig 6; the DECT RAM cells are untimed while the datapaths
    are clock-cycle true).

    One clock cycle is simulated in three phases (section 4):

    + {b transition selection} — each FSM picks a transition from its
      current state by evaluating guards over registered values; the
      attached SFGs are marked for execution;
    + {b token production} — for every marked SFG, the outputs that
      depend only on registered signals and constants are evaluated and
      their tokens put on the interconnect (this breaks the apparent
      deadlocks a pure data-flow scheduler would need initial tokens
      for);
    + {b evaluation} — iteratively, marked SFGs emit outputs as soon as
      the inputs those outputs depend on have arrived, and untimed
      kernels fire when their rule is satisfied; when an iteration makes
      no progress while marked SFGs remain unfired, the system is
      declared deadlocked — this is how combinational loops are found;
    + {b register update} — staged next-values are committed and the
      FSMs advance.

    The traditional two-phase register-transfer discipline (no token
    production, whole-SFG firing only) is also provided, as
    {!cycle_two_phase}, for the scheduler ablation of bench C4.

    {b Run tables.}  Both disciplines step over a table that the first
    cycle after a structural change resolves, for every component at
    once: per timed component, its FSM's transitions, and per
    transition one slot per action SFG, holding the SFG's plan, its
    output nets, the registers it assigns, and per input port the plan
    nodes a token on that port seeds (the reads of every input of that
    name that an action of the transition declares); per net, its timed
    sinks with their port and the probes it feeds; per untimed kernel,
    its input nets; per primary input, the net it drives.  Adding a
    component or a net ({!connect}) drops the table; an FSM that has
    gained a transition since resolves its component's entry again when
    that transition is selected.  A cycle then only selects, seeds,
    evaluates and commits: it builds no hash table and no environment,
    and looks up no port by name.

    A selected transition's slots each start a fresh memo
    ({!Signal.Plan.start}), which takes the tokens as they arrive and
    lives for the whole cycle: a node phase 1 computed is not computed
    again in phase 2.  This rests on registers changing only in phase 3, where
    the staged assignments commit and the kernels apply their state
    ([Dataflow.Kernel.k_commit]).  {!Sfg_kernel.kernel_of_sfg} is the
    exception: its firing commits its own SFG's registers, so a timed
    SFG must not read a register that such a kernel in the same system
    assigns (none in the gallery, the examples or the tests does).  A
    memo allocated per selection stays in the minor heap; one array per
    slot refilled each cycle would sit in the major heap, where every
    value stored into it passes the write barrier.  {!reset} drops
    every slot's memo, so no value of the last run stays reachable. *)

type t
type component
type net

(** {1 Building} *)

val create : string -> t
val name : t -> string

(** [add_timed t name fsm] adds a clock-cycle-true component.  Its input
    ports are the names of the SFG inputs of the FSM's actions; its
    output ports are their output names. *)
val add_timed : t -> string -> Fsm.t -> component

(** [add_untimed t kernel] adds a high-level component.  All port rates
    must be 1 (one token per clock cycle at most).
    @raise Ocapi_error.Error with code [Internal] otherwise. *)
val add_untimed : t -> Dataflow.Kernel.t -> component

(** [add_input t name fmt stim] adds a primary input driven by [stim]:
    at each cycle [c], [stim c] is placed on the output net (port
    ["out"]) unless it is [None].

    [stim] is evaluated at most once per cycle per system, in cycle
    order, into the input's {!column}: every engine, the result-cache
    key and the code generators read the column, and a cycle stepped
    again (a restored checkpoint, a reset, another engine) reads it
    again without calling [stim].  So [stim] must be a pure function of
    the cycle index.  The column is kept across {!reset}s for the
    system's lifetime, at 9 bytes per cycle up to the highest cycle
    read.

    A token must carry [fmt]: one in another format raises
    [Ocapi_error.Error] (code [Unsupported], construct [name], the
    cycle).  An exception raised by [stim] propagates unchanged; the
    cycles before it stay evaluated, and the next read of its cycle
    calls [stim] again.

    Columns carry no lock: a system, its columns included, is driven
    by one domain at a time.  Parallel campaigns give every extra
    domain its own replica system, and the job runner hands each job's
    system to one worker. *)
val add_input :
  t -> string -> Fixed.format -> (int -> Fixed.t option) -> component

(** [add_output t name] adds a primary output probe with input port
    ["in"]; its received tokens are recorded (see {!output_history}). *)
val add_output : t -> string -> component

(** [connect t (src, port) sinks] creates a net driven by an output
    port, fanning out to input ports.  The net is filed under its driver
    port and under each sink port, where {!output_net} and
    {!input_net} find it.  Like adding a component, it drops the run
    table, so the next cycle resolves it again.
    @raise Ocapi_error.Error with code [Internal] if the driver port
    does not exist or already drives a net (a port fans out through
    one net's sinks), or a sink port does not exist or is already
    driven by another net. *)
val connect : t -> component * string -> (component * string) list -> net

val component_name : component -> string
val find_component : t -> string -> component option

(** {1 Checks} *)

type check_issue =
  | Unconnected_input of string * string  (** component, port *)
  | Unconnected_output of string * string
  | Unknown_port of string * string
  | Format_conflict of string * string
      (** net, the diagnostic {!net_format} raises for it *)
  | Shared_register of string * string * string
      (** register, the component assigning it, another component
          reading it (see {!shared_registers}) *)
  | Unassigned_shared_register of string * string * string
      (** register no component assigns, and two components reading
          it (see {!shared_registers}) *)

val pp_issue : Format.formatter -> check_issue -> unit

(** Static interconnect audit: every SFG input port of every timed
    component (and every kernel input) should be the sink of some net —
    the system-level "dangling input" check — and every output port
    should drive one; every net whose driver declares or produces a
    format must satisfy {!net_format}'s two rules; no register is
    shared between timed components ({!shared_registers}).  A net from a
    kernel port without a declared format is legal: the interpreter
    moves its tokens as they come. *)
val check : t -> check_issue list

(** The registers two timed components use, in {!all_regs} order: a
    {!Shared_register} when one component assigns it and another one's
    SFGs or guards read or assign it (the first component assigning it,
    the first other component using it), an
    {!Unassigned_shared_register} when two components read it and none
    assigns it (the first two readers).  The interpreter and the
    compiled and native engines simulate such a register once; the RT
    and gate engines give each component a copy of its own, which the
    other component's assignments, and a poke of the other copy, never
    reach. *)
val shared_registers : t -> check_issue list

(** [refuse_shared_registers ~engine t] raises when {!shared_registers}
    finds one: how the RT and gate engines refuse such a system.
    @raise Ocapi_error.Error with code [Unsupported], the register as
    construct and both components as nets. *)
val refuse_shared_registers : engine:string -> t -> unit

(** {1 Simulation} *)

(** Run one clock cycle with the three-phase scheduler.
    @raise Ocapi_error.Error with code [Deadlock] on a combinational
    loop or a missing token, with the components/SFGs still waiting on
    tokens as its nets. *)
val cycle : t -> unit

(** Run one clock cycle with the classic two-phase scheduler (ablation):
    no token-production phase, SFGs fire only when {e all} their inputs
    are present.  Deadlocks on fig 6-style circular component
    dependencies that the three-phase scheduler resolves. *)
val cycle_two_phase : t -> unit

(** [run ?two_phase t n] simulates [n] cycles. *)
val run : ?two_phase:bool -> t -> int -> unit

(** Reset: cycle counter to zero, FSMs to initial states, registers to
    init values, recorded histories cleared, and every run-table slot's
    memo dropped.  Stimulus columns and the run table are kept (see
    {!add_input}). *)
val reset : t -> unit

val current_cycle : t -> int

(** {1 Checkpoints}

    A snapshot copies the state {!reset} re-initializes, less histories
    and statistics: the cycle counter, every register's current and
    staged value, every FSM's state, the tokens on the nets and the
    untimed kernels' state (through their [k_snapshot] hooks). *)

type snapshot

(** [None] when an untimed kernel carries no [k_snapshot] hook. *)
val snapshot : t -> snapshot option

(** Back to the snapshot's state and cycle, from any state (a cycle an
    exception abandoned included); the probe and net traces are
    cleared, so they record from the snapshot's cycle on. *)
val restore : t -> snapshot -> unit

(** Does the current state equal the snapshot's? *)
val matches : t -> snapshot -> bool

(** Clear the probe and net traces, leaving the state as it is. *)
val clear_histories : t -> unit

(** {1 Observation} *)

(** [output_history t probe] — tokens received by an [add_output] probe:
    [(cycle, value)] pairs, oldest first. *)
val output_history : t -> component -> (int * Fixed.t) list

(** {1 Introspection for code generators and statistics} *)

val timed_components : t -> (string * Fsm.t) list
val untimed_components : t -> (string * Dataflow.Kernel.t) list

(** Primary inputs: name, format and the stimulus as read from its
    column, a [Fixed.t option] per cycle rebuilt from the stored
    mantissa. *)
val primary_inputs :
  t -> (string * Fixed.format * (int -> Fixed.t option)) list

(** {1 Stimulus columns}

    Readers that step cycles take presence and mantissa straight from
    a primary input's column: no token is built and no closure called
    beyond the one evaluation per cycle. *)

type column

(** [input_column t name] is the column of primary input [name].
    @raise Ocapi_error.Error with code [Internal] when [t] has no such primary
    input. *)
val input_column : t -> string -> column

(** [column_present col c] evaluates the stimulus through cycle [c]
    if it has not been yet, and tells whether cycle [c] carries a
    token. *)
val column_present : column -> int -> bool

(** [column_mantissa col c] is the mantissa of cycle [c]'s token, once
    {!column_present} returned [true] for it. *)
val column_mantissa : column -> int -> int64

(** The mantissa storage, for allocation-free readers: cycle [c]'s
    mantissa is the native-endian int64 at byte offset [8 * c].  A
    later cycle's evaluation may replace the storage, so fetch it after
    {!column_present}. *)
val column_mantissas : column -> Bytes.t

(** [stimuli t ~cycles] — every token of every primary input over
    cycles [0, cycles), as [(cycle, input-name, value)], by cycle and
    then in input order (for test benches and gate-level replays). *)
val stimuli : t -> cycles:int -> (int * string * Fixed.t) list

(** Primary output probe names. *)
val probes : t -> string list

(** {1 Probe traces}

    What a probe received, as columns: every engine appends its probe
    tokens to a trace in place while it steps, and readers take cycles,
    mantissas and formats by index.  The result cache stores traces,
    and the engine cross-checks and the SEU classifiers compare them
    with {!Trace.mismatch}.  Lists of
    [(cycle, value)] pairs are derived from a trace
    ({!Trace.to_histories}) only at the API edge. *)

module Trace : sig
  (** Per probe, in order of arrival:
      - a growable [int] column of cycles;
      - an unboxed int64 mantissa column, the int64 at byte offset
        [8 * k] of a [Bytes.t] ({!column_mantissas}' layout);
      - each token's format, as one byte indexing the probe's list of
        formats seen; the bytes are allocated when a second format
        arrives, and until then every token is in the first.

      A probe given a declared format starts its list with it; the
      static engines record every token in it.  The interpreter records
      tokens in any format: a port produced in two formats, or a kernel
      port without a declared format, puts two formats on one probe.

      A trace carries no lock: like the system it belongs to, it is
      driven by one domain at a time. *)
  type t

  (** One probe per [(name, declared format)] pair, in order. *)
  val create : (string * Fixed.format option) list -> t

  val probe_count : t -> int
  val probe_name : t -> int -> string

  (** [length t p] — tokens recorded on probe [p]. *)
  val length : t -> int -> int

  (** [cycle t p k] — the cycle of probe [p]'s token [k].
      @raise Ocapi_error.Error with code [Internal] unless
      [0 <= k < length t p]. *)
  val cycle : t -> int -> int -> int

  (** [token t p k] — probe [p]'s token [k], rebuilt as a value; raises
      as {!cycle}. *)
  val token : t -> int -> int -> Fixed.t

  (** [mantissa t p k] — the mantissa of probe [p]'s token [k]; raises
      as {!cycle}. *)
  val mantissa : t -> int -> int -> int64

  (** [index_from t p ~cycle] — the first token of probe [p] at or after
      [cycle] ([length t p] when there is none). *)
  val index_from : t -> int -> cycle:int -> int

  (** Where two token sequences first differ, as an offset [k] into
      both. *)
  type difference =
    | Cycle of int  (** the [k]th tokens arrived at different cycles *)
    | Value of int  (** the [k]th tokens arrived at one cycle with
                        different values *)
    | Length of int  (** one sequence ends after [k] tokens, the other
                         goes on *)

  (** [mismatch (a, p, i) (b, q, j)] compares probe [p]'s tokens of [a]
      from token [i] to its last with probe [q]'s of [b] from token [j]
      to its last, in order, and returns their first difference; [None]
      when they are equal.  Values compare by mantissa and format.
      @raise Ocapi_error.Error with code [Internal] when [i] or [j]
      lies outside [0, length]. *)
  val mismatch : t * int * int -> t * int * int -> difference option

  (** {2 Recording}

      The static engines record in each probe's declared format.  No
      recorder allocates once the probe's storage has grown, which
      [clear] keeps. *)

  (** [record t p ~cycle m] appends mantissa [m], a native [int], at
      [cycle] to probe [p] in its declared format. *)
  val record : t -> int -> cycle:int -> int -> unit

  (** Probes read from a value store: per probe, its column, the slot
      of the net it reads, and that net's stamp — the index of the cell
      holding the cycle the net last carried a token.  The compiled and
      native engines record one per step, with the mantissas read where
      their store keeps them. *)
  type feed

  (** [feed t probes] — [probes] as [(column, slot, stamp)]. *)
  val feed : t -> (int * int * int) array -> feed

  (** [record_words fd ~cycle ~stamps words] appends, at [cycle], the
      native [int] [words.(slot)] of every probe whose stamp cell
      [stamps.(stamp)] holds [cycle]. *)
  val record_words : feed -> cycle:int -> stamps:int array -> int array -> unit

  (** [record_words] from the int64 at byte offset [slot] of a
      [Bytes.t] (the compiled value store). *)
  val record_store : feed -> cycle:int -> stamps:int array -> Bytes.t -> unit

  (** Append a token in its own format, adding the format to the
      probe's list on first sight.
      @raise Ocapi_error.Error with code [Internal] on a 257th format. *)
  val record_token : t -> int -> cycle:int -> Fixed.t -> unit

  (** Drop every token, keeping the storage and the formats seen. *)
  val clear : t -> unit

  (** A frozen copy, sized to its tokens: later recording into [t]
      leaves it unchanged. *)
  val copy : t -> t

  (** [history t p] — probe [p]'s tokens as [(cycle, value)] pairs. *)
  val history : t -> int -> (int * Fixed.t) list

  (** Every probe with its {!history}, in probe order. *)
  val to_histories : t -> (string * (int * Fixed.t) list) list
end

(** The interpreter's trace: one probe per {!add_output}, in creation
    order, recorded by {!cycle} and {!cycle_two_phase} and cleared by
    {!reset}, {!restore} and {!clear_histories}.  {!output_history}
    reads it. *)
val trace : t -> Trace.t

(** [trace_all t] starts recording every net's tokens, as the
    interpreter moves them, and returns the recording (for waveform
    dumping): a live trace with one column per net connected so far, in
    {!nets} order, each token in its own format.  Cleared with the
    probe trace; a second call returns the same trace. *)
val trace_all : t -> Trace.t

(** [resident_words t ~trace root] is the heap words, headers
    included, reachable from [root] (a session's state) but neither
    from [t]'s stimulus columns nor from [trace] (the session's probe
    trace): both grow with the cycles run, and the columns and the
    system's own trace outlive the session. *)
val resident_words : t -> trace:Trace.t -> 'a -> int

(** {1 Wiring}

    The interconnect is known here only: back ends (compiled
    simulation, RTL elaboration, synthesis, HDL and test-bench
    generation, waveforms) ask for the net on a port and for its format
    while they elaborate, and never rebuild a port table of their
    own. *)

(** Nets in creation order. *)
val nets : t -> net list

(** ["<driver>.<port>"]. *)
val net_name : net -> string

(** The net's position in {!nets}. *)
val net_index : net -> int

(** The driving (component name, output port). *)
val net_driver : net -> string * string

(** [output_net t comp port] — the net output port [port] of component
    [comp] drives, if any. *)
val output_net : t -> string -> string -> net option

(** [input_net t comp port] — the net driving input port [port] of
    component [comp], if any. *)
val input_net : t -> string -> string -> net option

(** The value format a net carries, derived from its driver on first
    use and kept in the net: a primary input or an untimed kernel
    declares it, and a timed output carries the producing expression's
    format.  Two rules hold:
    - every SFG producing a timed port produces it in one format;
    - every timed sink declares its input in the net's format.
    @raise Ocapi_error.Error with code [Internal] when a rule is broken
    (["net N driven with inconsistent formats F and G"], ["net N
    carries F but input C.P is declared G"]) or the driving kernel port
    declares no format. *)
val net_format : net -> Fixed.format

(** [probe_format t probe] — the format of the net a probe records,
    [None] when the probe is unconnected. *)
val probe_format : t -> string -> Fixed.format option

(** All registers of all timed components. *)
val all_regs : t -> Signal.Reg.t list

(** {1 Canonical structural digest}

    [digest t] is a hex MD5 of a canonical rendering of the captured
    structure: components (sorted by name) with their FSMs, SFG
    expression DAGs, registers (name/format/init), ROM contents,
    kernel firing rules and declared port formats, primary input
    formats, and the interconnect (nets sorted by name).

    The rendering never uses the global instance counters of signals,
    registers or inputs — shared expression nodes are numbered in
    traversal order — so the same design built twice, in the same or
    another process, under any instance-counter offsets, hashes equal;
    any wordlength or topology edit hashes different.

    Not covered (documented limits): primary-input {e stimuli} and
    untimed kernels' behaviour closures are opaque — result caches
    must fingerprint stimuli separately, from their columns (see
    [Flow.Cache]).  Nor are the kernels' declared models: see
    {!elaboration_key}. *)
val digest : t -> string

(** [elaboration_key t] is a hex MD5 over {!digest} plus what an
    elaboration bakes in and the digest leaves out:
    - every untimed kernel's declared [Dataflow.Kernel.k_model] (kernel
      name, words, data format, port names), which back ends inline in
      place of the kernel's closures;
    - the construction order of components, nets and each net's sinks,
      which fixes the order of registers, probes and netlist nets.

    Two systems with equal keys elaborate to the same native plugin
    and the same gate netlist; those artifacts are cached by it. *)
val elaboration_key : t -> string

(** {1 Engine attachment}

    Engine sessions ([Ocapi_engine]) mark the systems they elaborate:
    compiled programs and RTL elaborations cache state derived from
    (or aliasing — the RTL engine shares the register objects) the
    system, so a system with a live session must not be handed to
    another engine or worker domain.  [attached_engines] lists the
    engine names of currently open sessions, most recent first. *)

val attach_engine : t -> string -> unit
val detach_engine : t -> string -> unit
val attached_engines : t -> string list

(** Graphviz dot rendering of the component/interconnect structure —
    the textual twin of the paper's architecture diagrams (figs 1, 5,
    6).  Timed components are boxes, untimed components (RAM cells)
    ellipses, primary inputs/outputs plain text; edges are nets labeled
    with the driver port. *)
val to_dot : t -> string

type stats = {
  cycles : int;
  tokens_transferred : int;
  eval_iterations : int;  (** total evaluation-phase sweeps *)
  untimed_firings : int;
}

val stats : t -> stats
