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
    - per timed component, one {e sequential process} sensitive to the
      clock; on the rising edge it latches next-state/next-register;
    - untimed kernels become combinational processes (they must be
      idempotent within a cycle, as a RAM model is);
    - a test-bench process drives the clock and the primary inputs.

    One simulated clock cycle = drive inputs, settle; rising edge,
    settle; falling edge, settle.  "Settle" is the delta-cycle loop; an
    unbounded delta chain (a combinational loop) raises
    [Ocapi_error.Error] with code [Delta_overflow], naming (a sample of)
    the signals still scheduling transactions, the budget and the clock
    cycle.

    The elaboration resolves the kernel once: signals and processes are
    numbered, each signal holds its reader processes, and each comb
    process holds, per transition, its actions' plans, the signals they
    read and drive, and the plan nodes each input signal seeds.  A
    delta applies one transaction queue, wakes each reader of a changed
    signal once (a per-process stamp of the delta it was last woken
    in), and runs the woken processes, which drive the next delta's
    queue.  A comb process selects its transition again only after an
    event on its state or on one of its register shadows. *)

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

(** Simulate one clock cycle (input drive + both clock edges).  With
    [Ocapi_obs] telemetry on, each cycle adds its activity to the
    counters [rtl.events_fired] (signal value changes),
    [rtl.events_scheduled] (signal assignments, changed or not) and
    [rtl.activations] (process executions), and observes its delta
    cycles in the histogram [rtl.deltas_per_cycle]. *)
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
    trace and the activity counters: the cycle, every signal's value and
    driven flag (FSM state signals and register shadows included), the
    clock each sequential process last saw, the registers shared with
    the system and the untimed kernels' state (through their
    [k_snapshot] hooks). *)

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
