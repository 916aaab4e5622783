(** Event-driven register-transfer simulation (the "VHDL (RT)" baseline).

    Table 1 of the paper compares the C++ engines against RT-VHDL
    simulation by a commercial event-driven simulator.  This module is
    that comparator, built rather than bought: a design is elaborated
    into VHDL-style {e processes} over {e signals} and simulated with an
    event-driven kernel — sensitivity lists, transactions, events and
    delta cycles.

    Elaboration follows the classic two-process VHDL coding style the
    paper's code generator targets (fig 8):
    - per timed component, one {e combinational process} sensitive to
      its input nets, its state and its registers' shadow signals; it
      selects the FSM transition and drives output nets, next-state and
      next-register signals;
    - per timed component, the {e sequential process}: at the rising
      edge it latches next-state/next-register into the state and the
      shadows.  The clock is no signal: the edge is one loop over the
      components, and nothing runs at the falling edge;
    - untimed kernels become combinational processes (they must be
      idempotent within a cycle, as a RAM model is);
    - the test bench drives the primary inputs.

    One simulated clock cycle = drive inputs, settle, sample the
    probes, commit the kernels, rising edge.  "Settle" is the
    delta-cycle loop; an unbounded delta chain (a combinational loop)
    raises [Ocapi_error.Error] with code [Delta_overflow], naming (a
    sample of) the signals still scheduling transactions, the budget and
    the clock cycle.

    The settle happens once per cycle.  The rising edge queues its
    transactions, and the next cycle's settle applies them together
    with that cycle's inputs, after the kernels execute again (a
    committed write changes what a RAM reads).  The result is the same
    as settling the edge first, because the elaboration has no
    combinational cycle: {!of_system} checks that once, over the
    signals, from each input of a comb process to each output net
    whose expression reads it, from a RAM's address to its read word,
    and from every input to every output of any other kernel.  An
    elaboration with such a cycle (a loop, or one some FSM state could
    close) settles each edge within its step instead, the latch taking
    the first delta of that settle's budget, so a loop the edge closes
    overflows at the edge's cycle.  Whatever reads or writes the state
    between two cycles ({!component_state}, {!snapshot}, {!matches},
    the pokes) settles a queued edge first.  The registers the engine
    shares with the system take a queued edge's values only when it
    settles.

    The elaboration resolves the kernel once: signals and processes are
    numbered, each signal holds its reader processes, and each comb
    process holds, per transition, its actions' plans, the signals they
    read and drive, and the plan nodes each input signal seeds.  A
    delta applies one transaction queue, wakes each reader of a changed
    signal once (a per-process stamp of the delta it was last woken
    in), and runs the woken processes, which drive the next delta's
    queue.  Without a combinational cycle, a process queues only the
    transactions that change their signal.  A comb process selects its
    transition again only after an event on its state or on one of its
    register shadows. *)

type t

(** Elaborate a system for event-driven simulation.  The RTL engine
    shares the register objects of the source system: run only one
    engine at a time and call {!reset} before a run.  One settle takes
    at most 1000 delta cycles.
    @raise Ocapi_error.Error with code [Unsupported] when a register one
    timed component assigns is read by another
    ([Cycle_system.shared_registers]): each component's processes would
    read a shadow of their own, which the other's assignments never
    reach. *)
val of_system : Cycle_system.t -> t

(** Simulate one clock cycle (input drive + the rising edge).  With
    [Ocapi_obs] telemetry on, each cycle adds its activity to the
    counters [rtl.events_fired] (signal value changes),
    [rtl.events_scheduled] (transactions queued: without a
    combinational cycle only changes, so it equals
    [rtl.events_fired]) and [rtl.activations] (process executions, a
    component's latch at the rising edge included), observes its delta
    cycles in the histogram [rtl.deltas_per_cycle] and raises the gauge
    [rtl.queue_high_water] to the longest queue it applied.  A queued
    edge counts in the cycle that settles it. *)
val cycle : t -> unit

val current_cycle : t -> int

(** The probe tokens {!cycle} samples: one column per probe of the
    system, in [Cycle_system.probes] order, declared in the format of
    the net it reads (an unconnected probe's column stays empty).
    Live: later cycles append to it, and {!reset}, {!restore} and
    {!clear_histories} clear it. *)
val trace : t -> Cycle_system.Trace.t

val reset : t -> unit

(** {1 Checkpoints}

    A snapshot copies the state {!reset} re-initializes, less the probe
    trace and the activity counters, with the last edge settled: the
    cycle, every signal's value and driven flag (FSM state signals and
    register shadows included), the registers shared with the system
    and the untimed kernels' state (through their [k_snapshot]
    hooks). *)

type snapshot

(** [None] when an untimed kernel carries no [k_snapshot] hook. *)
val snapshot : t -> snapshot option

(** Back to the snapshot's state and cycle, from any state (a cycle an
    exception abandoned included); the probe trace is cleared, so it
    records from the snapshot's cycle on. *)
val restore : t -> snapshot -> unit

(** Does the current state equal the snapshot's? *)
val matches : t -> snapshot -> bool

(** Clear the probe trace, leaving the state as it is. *)
val clear_histories : t -> unit

(** {1 Fault-injection access}

    Registers are indexed in [Cycle_system.all_regs] order — the shared
    indexing of the SEU campaigns, identical across engines. *)

val register_count : t -> int

(** [register_info t i] is the register's name and declared format. *)
val register_info : t -> int -> string * Fixed.format

(** [flip_register_bit t i ~bit] XORs one bit into register [i]'s shadow
    signal and lets the event kernel propagate the change (a transient
    SEU between two {!cycle}s).
    @raise Invalid_argument if [bit] is outside the declared width. *)
val flip_register_bit : t -> int -> bit:int -> unit

(** Timed components (FSMs), in system order. *)
val component_count : t -> int

(** [component_info t i] is the component's name and state count. *)
val component_info : t -> int -> string * int

val component_state : t -> int -> int

(** [set_component_state t i s] forces FSM [i]'s state signal to [s] and
    propagates.
    @raise Ocapi_error.Error with code [Invalid_state] if [s] is not an
    encoded state — the detected-outcome path of SEU campaigns on state
    registers. *)
val set_component_state : t -> int -> int -> unit
