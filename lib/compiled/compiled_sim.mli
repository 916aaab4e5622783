(** Compiled-code simulation.

    The interpreted simulator of [Cycle_system] walks object structures
    (hash tables, token lists) every cycle.  For extensive verification
    the paper regenerates "an application-specific and optimized compiled
    code simulator" from the same data structure (section 5, fig 7).
    This module is that code generator: it {e flattens} a system into

    - one value store: a [Bytes] image holding every slot as an unboxed
      [int64] — one slot per net, register (current and next) and
      expression node.  Register reads and shifts (which only move the
      binary point) alias their source slot instead of copying it, and
      constants are written once into the power-on image that
      {!reset} copies back;
    - straight-line statement arrays per FSM transition, split into a
      {b block A} (outputs depending only on registers/constants — the
      static image of the token-production phase) and a {b block B}
      (input-dependent outputs),
    - per transition, the statements computing its guard, compiled like
      any other expression,
    - a static component-level schedule of the B blocks derived from the
      net dependency graph (the static image of the evaluation phase),
    - a commit list per transition (the register-update phase).

    All formats, alignment shifts, masks and saturation bounds are
    resolved at compile time.  A simulation step sweeps the statement
    arrays in plain loops; a statement reads and writes the store
    through unboxed primitives and calls no further closure, so the
    sweep allocates nothing.  Untimed kernels that carry a
    [Dataflow.Kernel.Ram_model] fire inline against a per-session
    [int64] RAM image, which {!reset} zeroes; other kernels are called
    through their closures, boxing their tokens as [Fixed.t].  What a
    step still allocates is the stimulus tokens, one [Fixed.t] per
    recorded probe token, those kernel tokens and a few closures of the
    step itself.

    Systems whose worst-case (union over transitions) combinational
    net graph is cyclic at component granularity cannot be statically
    scheduled and are rejected with {!Unsupported} — simulate those with
    the interpreted three-phase scheduler.

    {!emit_ocaml} additionally prints the flattened program as a
    standalone OCaml source file (the paper's "C++ description is
    regenerated"), embedding recorded stimuli so the emitted simulator
    can be compiled and diffed against the in-process engines. *)

exception Unsupported of string

type t

(** [compile system] flattens [system].  Requirements beyond the
    interpreted engine: untimed kernels must declare port formats; every
    primary input's stimulus should produce a token each cycle (a [None]
    holds the previous value); combinational component cycles are
    rejected. *)
val compile : Cycle_system.t -> t

(** One clock cycle. *)
val step : t -> unit

(** [run t n] simulates [n] cycles. *)
val run : t -> int -> unit

val current_cycle : t -> int

(** Probe histories, as in {!Cycle_system.output_history} but keyed by
    probe name. *)
val output_history : t -> string -> (int * Fixed.t) list

(** Reset the cycle counter, every slot (registers, nets and nodes) to
    its power-on value, FSM states, inlined RAM images, the other
    kernels (through their [k_reset]) and histories, so a reset program
    runs exactly as a freshly compiled one. *)
val reset : t -> unit

(** {1 Net tracing (waveform dumping)} *)

(** Enable per-net value recording: after every subsequent {!step}, each
    net that carried a token that cycle is appended to its history.
    Costs one sweep of the net array per cycle; leave off for timed
    runs. *)
val trace_all : t -> unit

(** Recorded net histories as (net name, carried format, history);
    nets whose format could not be derived are omitted. *)
val traced_histories : t -> (string * Fixed.format * (int * Fixed.t) list) list

(** {1 Fault-injection access}

    Registers are indexed in [Cycle_system.all_regs] order — the shared
    indexing of the SEU campaigns, identical across engines. *)

val register_count : t -> int

(** [register_info t i] is the register's name and declared format. *)
val register_info : t -> int -> string * Fixed.format

(** [flip_register_bit t i ~bit] XORs one bit into register [i]'s
    current-value slot and re-wraps it into the declared format (a
    transient SEU between two {!step}s).
    @raise Invalid_argument if [bit] is outside the declared width. *)
val flip_register_bit : t -> int -> bit:int -> unit

(** Timed components (FSMs), in system order. *)
val component_count : t -> int

(** [component_info t i] is the component's name and state count. *)
val component_info : t -> int -> string * int

val component_state : t -> int -> int

(** [set_component_state t i s] forces FSM [i] into state [s].
    @raise Ocapi_error.Error with code [Invalid_state] if [s] is not an
    encoded state — the detected-outcome path of SEU campaigns on state
    registers. *)
val set_component_state : t -> int -> int -> unit

(** Number of value slots in the flattened program (a size metric). *)
val slot_count : t -> int

(** Number of compiled statements across all blocks, guards excluded (a
    size metric, Table 1's static size).  Nodes that need no statement
    at run time — constants, register reads, shifts — still count one
    each. *)
val statement_count : t -> int

(** [emit_ocaml system ~cycles] returns standalone OCaml source for a
    simulator of [system]: stimuli for [cycles] cycles are evaluated now
    and embedded as literals; the emitted program prints one line per
    probe token, ["<cycle> <probe> <mantissa>"], so its output can be
    compared against {!output_history}.  Untimed kernels cannot be
    embedded in emitted source (their behaviour is an opaque closure);
    systems containing any are rejected with {!Unsupported}. *)
val emit_ocaml : Cycle_system.t -> cycles:int -> string
