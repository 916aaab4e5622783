(** Compiled-code simulation.

    The interpreted simulator of [Cycle_system] walks object structures
    (hash tables, token lists) every cycle.  For extensive verification
    the paper regenerates "an application-specific and optimized compiled
    code simulator" from the same data structure (section 5, fig 7).
    This module holds that regeneration's one lowering step and its
    first back end.

    {!lower} flattens a system into a plain-data {!program}:

    - one slot layout: one slot per net, register (current and next)
      and expression node.  Register reads and shifts (which only move
      the binary point) alias their source slot instead of copying it,
      and constants are written once into the power-on image;
    - per FSM transition, the statements computing its guard and its
      straight-line statements, split into a {b block A} (outputs
      depending only on registers/constants — the static image of the
      token-production phase) and a {b block B} (input-dependent
      outputs), plus a commit list (the register-update phase);
    - a static B-phase schedule derived from the net dependency graph
      (the static image of the evaluation phase), whose units are the
      components' B blocks, the untimed kernels carrying a
      [Dataflow.Kernel.Ram_model] (inlined RAMs) and the other kernels
      (host kernels, called through their closures);
    - the stimulus, probe, register and component tables.

    Two back ends consume the program.  {!instantiate}, here, builds one
    closure per statement over a [Bytes] value store holding every slot
    as an unboxed [int64]: a statement calls no further closure, so the
    statement sweep allocates nothing; inlined RAMs fire against a
    per-session [int64] RAM image, which {!reset} zeroes.  Stimuli are
    read from the system's stimulus columns by cycle index, and probe
    tokens are copied from the store into the program's
    {!Cycle_system.Trace}, so a step allocates nothing unless a host
    kernel fires (its tokens) or telemetry is on.  The
    other back end, [Emit], renders the same program as OCaml source:
    the native engine's plugin and the standalone simulator.

    Systems whose worst-case (union over transitions) combinational
    net graph is cyclic at component granularity cannot be statically
    scheduled and are rejected with an [Ocapi_error.Error] of code
    [Unsupported] — simulate those with the interpreted three-phase
    scheduler. *)

(** {1 The lowered program}

    Slots index the value store; net [i] of [Cycle_system.nets] owns
    slot [i] and stamp [i] (its token-presence cell), and registers'
    current/next slot pairs follow in [Cycle_system.all_regs] order. *)

(** One straight-line statement. *)
type stmt =
  | Compute of { node : Signal.t; dst : int; args : int array }
      (** slot [dst] <- [node]'s operator over the operand slots [args],
          in operator order; an input read's one operand is the slot of
          the net it reads.  Constants, register reads and shifts never
          appear: their slots are aliased or pre-set. *)
  | Output of { dst : int; src : int; stamp : int }
      (** net slot [dst] <- slot [src], and the net's stamp <- cycle *)
  | Assign of { dst : int; src : int }
      (** a register's next slot [dst] <- slot [src] *)

type transition = {
  tr_guard : stmt array;  (** run before the guard is tested *)
  tr_guard_slot : int;  (** holds the guard's value (nonzero: taken) *)
  tr_block_a : stmt array;
  tr_block_b : stmt array;
  tr_commit : (int * int) array;  (** (current, next) register slots *)
  tr_goto : int;  (** target state index *)
}

type component = {
  co_name : string;
  co_initial : int;
  co_by_state : int array array;
      (** per state index, its transitions in priority order; the
          array's length is the state count *)
  co_transitions : transition array;
}

(** An inlined RAM: the kernel's [Ram_model] over the slots of its
    input nets. *)
type ram = {
  ram_name : string;  (** the kernel's component name *)
  ram_words : int;
  ram_data_fmt : Fixed.format;
  ram_addr : int;
  ram_addr_fmt : Fixed.format;
  ram_wdata : int;
  ram_wdata_fmt : Fixed.format;
  ram_we : int;
  ram_rdata : (int * int) option;  (** slot, stamp; [None] if unconnected *)
}

(** A host kernel: component name, [(input port, slot, format)] and
    [(output port, slot, stamp)] bindings. *)
type kernel = {
  hk_name : string;
  hk_inputs : (string * int * Fixed.format) list;
  hk_outputs : (string * int * int) list;
}

(** A B-phase unit, indexing [pg_comps], [pg_rams] or [pg_kernels]. *)
type b_unit = Component of int | Inline_ram of int | Host_kernel of int

type register = {
  reg_name : string;
  reg_fmt : Fixed.format;  (** declared format *)
  reg_cur : int;  (** current-value slot *)
  reg_init : int64;  (** power-on mantissa *)
}

type program = {
  pg_slots : int;  (** value-store length *)
  pg_consts : (int * int64) list;  (** constant slots and their values *)
  pg_regs : register array;  (** in [Cycle_system.all_regs] order *)
  pg_nets : (string * Fixed.format) array;
      (** net name and carried format ([Cycle_system.net_format]) *)
  pg_comps : component array;  (** timed components, in system order *)
  pg_rams : ram array;
  pg_kernels : kernel array;
      (** in [Cycle_system.untimed_components] order, filtered *)
  pg_schedule : b_unit array;
  pg_stims : (string * int * int) array;
      (** connected primary input name, slot, stamp *)
  pg_probes : (string * int * int * Fixed.format) array;
      (** probe name, slot, stamp, carried format *)
  pg_statements : int;
      (** Table 1's static size: every node of every transition,
          elided ones included, plus one per output and register
          assignment; guards excluded *)
}

(** [lower system] flattens [system].  Requirements beyond the
    interpreted engine: untimed kernels must declare port formats;
    guards read no inputs; combinational component cycles are
    rejected. *)
val lower : Cycle_system.t -> program

(** [flip_bit ~name fmt ~bit m] is mantissa [m] of register [name] with
    bit [bit] XORed in and the result wrapped into [fmt] — the SEU poke
    of both compiled back ends.
    @raise Invalid_argument if [bit] is outside [fmt]'s width. *)
val flip_bit : name:string -> Fixed.format -> bit:int -> int64 -> int64

(** [probe_trace system probes ~slot] is where both back ends record
    [probes] (a program's [pg_probes]): a trace with one column per
    probe of [system], in [Cycle_system.probes] order, declared in the
    carried format of the connected ones (an unconnected probe's column
    stays empty), and the feed of [probes] into it, each probe's slot
    mapped by [slot] to the back end's store index. *)
val probe_trace :
  Cycle_system.t ->
  (string * int * int * Fixed.format) array ->
  slot:(int -> int) ->
  Cycle_system.Trace.t * Cycle_system.Trace.feed

(** [check_indices program] checks every index [program] names against
    the array it indexes: each slot against [pg_slots], each stamp
    against the stamp table ([pg_nets]'s length, at least 1), and each
    B-phase unit against [pg_comps], [pg_rams] or [pg_kernels].  Both
    back ends run it before they access a value store unchecked.
    @raise Ocapi_error.Error with code [Internal] on the first index
    outside. *)
val check_indices : program -> unit

(** {1 The closure back end} *)

type t

(** [instantiate program system] builds [program], which it only reads,
    into closures over a fresh value store reading [system]'s stimulus
    columns and kernels: one lowering serves every system with its
    [Cycle_system.elaboration_key].  Every primary input's stimulus
    should produce a token each cycle (a [None] holds the previous
    value).  It runs {!check_indices} first. *)
val instantiate : program -> Cycle_system.t -> t

(** One clock cycle. *)
val step : t -> unit

val current_cycle : t -> int

(** The probe tokens {!step} records: one column per probe of the
    system, in [Cycle_system.probes] order, each in the format of the
    net it reads (an unconnected probe's column stays empty).  Live:
    later steps append to it, and {!reset}, {!restore} and
    {!clear_histories} clear it. *)
val trace : t -> Cycle_system.Trace.t

(** Reset the cycle counter, every slot (registers, nets and nodes) to
    its power-on value, FSM states, inlined RAM images, the other
    kernels (through their [k_reset]) and histories, so a reset program
    runs exactly as a freshly compiled one. *)
val reset : t -> unit

(** {1 Checkpoints}

    A snapshot copies the state {!reset} re-initializes, less histories
    and traces: the cycle, the value store, the inlined RAM images and
    their staged writes, the stamps, the FSM states and the host
    kernels' state (through their [k_snapshot] hooks).  The store is
    one [Bytes] blit: 8 bytes per slot. *)

type snapshot

(** [None] when a host kernel carries no [k_snapshot] hook. *)
val snapshot : t -> snapshot option

(** Back to the snapshot's state and cycle, from any state (a step an
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

(** [flip_register_bit t i ~bit] applies {!flip_bit} to register [i]'s
    current-value slot (a transient SEU between two {!step}s).
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

(** [pg_statements] of the program (a size metric, Table 1's static
    size). *)
val statement_count : t -> int
