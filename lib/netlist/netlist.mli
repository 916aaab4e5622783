(** Gate-level netlists and their levelized, bit-parallel simulation.

    The synthesis strategy of the paper (section 6, fig 8) produces a
    gate-level netlist per component, which is then linked into a system
    netlist and verified with generated test benches.  This module is
    the netlist substrate: gate primitives, two macro cells (ROM and
    RAM, as the DECT chip's "7 RAM cells" are macros, not gates), a
    builder API working in single-bit nets grouped into named buses, and
    a cycle-based gate simulator ({!Sim}) — the "VHDL/Verilog (netlist)"
    comparator rows of Table 1 — whose 63 lanes per net also carry the
    parallel stuck-at fault simulation.

    Wires carry booleans; buses are [int array]s of net indices, LSB
    first.  Multi-bit numbers on buses are two's-complement mantissas,
    matching [Fixed] bit semantics. *)

type t
type net = int

type gate_kind =
  | Buf
  | Not
  | And
  | Or
  | Xor
  | Nand
  | Nor
  | Mux2  (** inputs [sel; a; b]: [a] when [sel] else [b] *)
  | Const0
  | Const1

(** {1 Building} *)

val create : string -> t
val name : t -> string

(** A fresh, undriven net. *)
val new_net : t -> net

(** [gate t kind inputs] adds a gate and returns its output net. *)
val gate : t -> gate_kind -> net list -> net

(** [buf_into t ~dst src] drives the pre-allocated (and so far undriven)
    net [dst] with a buffer from [src].  This is the forward-reference
    mechanism used by operator-sharing synthesis, where a unit's operand
    nets exist before their selection logic does.
    @raise Ocapi_error.Error with code [Internal] if [dst] already has
    a driver. *)
val buf_into : t -> dst:net -> net -> unit

(** [dff_into t ?init ~q d] adds a D flip-flop whose output is the
    pre-allocated net [q]. *)
val dff_into : t -> ?init:bool -> q:net -> net -> unit

(** [gate_into t kind inputs ~dst] adds a gate driving the pre-allocated
    net [dst] (used by the netlist optimizer's rebuild, where feedback
    through flip-flops and gated selection networks makes a topological
    emission order impossible). *)
val gate_into : t -> gate_kind -> net list -> dst:net -> unit

(** [dff t ?init d] adds a D flip-flop; returns its output net [q].
    [init] is the reset value (default false). *)
val dff : t -> ?init:bool -> net -> net

(** [dff_en t ?init ~enable d] — a DFF that holds its value when
    [enable] is low (built as dff + recirculating mux). *)
val dff_en : t -> ?init:bool -> enable:net -> net -> net

(** [rom t ~name ~contents addr] adds a ROM macro cell: [addr] is an
    unsigned bus (LSB first), the result bus has [width] bits per word.
    Reads wrap modulo the table size. *)
val rom : t -> name:string -> width:int -> contents:int64 array -> net array -> net array

(** [ram t ~name ~words ~width ~addr ~wdata ~we] adds a RAM macro cell
    with combinational read (old value) and write on the clock edge.
    Returns the read-data bus. *)
val ram :
  t ->
  name:string ->
  words:int ->
  width:int ->
  addr:net array ->
  wdata:net array ->
  we:net ->
  net array

(** Declare a primary input bus of [width] bits, named. *)
val input_bus : t -> string -> int -> net array

(** Declare nets as a named primary output bus. *)
val output_bus : t -> string -> net array -> unit

val find_input : t -> string -> net array
val find_output : t -> string -> net array

(** {1 Bus helpers} *)

val const_bus : t -> width:int -> int64 -> net array

(** Sign- or zero-extend / truncate a bus (two's complement). *)
val extend_bus : t -> signed:bool -> net array -> int -> net array

(** {1 Statistics} *)

type gate_counts = {
  combinational : int;  (** primitive gates *)
  flip_flops : int;
  rom_bits : int;
  ram_bits : int;
  (* Two-input-NAND equivalents including sequential and macro cells;
     the figure comparable to the paper's "Kgate" sizes. *)
  gate_equivalents : int;
}

val counts : t -> gate_counts
val net_count : t -> int

(** [combinational_depth t] is [(depth, cyclic)]: the longest acyclic
    chain of combinational elements (gates and macro-cell read paths)
    between registers / primary ports, and the number of elements that
    sit on (or behind) combinational cycles and were excluded
    (operator-sharing selection networks can create such {e false}
    cycles; they are gated off at run time but defeat a static
    longest-path count).  It is the levelization {!Sim.topology} runs.
    @raise Ocapi_error.Error with code [Internal] if an element names a
    net the netlist never created. *)
val combinational_depth : t -> int * int

(** {1 Introspection} (used by the Verilog printer) *)

val fold_gates :
  t -> init:'a -> f:('a -> gate_kind -> net array -> net -> 'a) -> 'a

val fold_dffs : t -> init:'a -> f:('a -> bool -> d:net -> q:net -> 'a) -> 'a

(** ROMs as (name, word width, contents, address bus, output bus). *)
val roms_list : t -> (string * int * int64 array * net array * net array) list

(** RAMs as (name, words, width, addr, wdata, we, rdata). *)
val rams_list :
  t -> (string * int * int * net array * net array * net * net array) list

val inputs_list : t -> (string * net array) list
val outputs_list : t -> (string * net array) list

(** [net_label t n] — the net's position in a named input/output bus
    (["samples[3]"]) when it has one, else ["n<index>"]. *)
val net_label : t -> net -> string

(** Canonical structural hash (hex MD5) over nets, gates, flip-flops,
    macro cells and named buses, in creation order.  The netlist's name
    is excluded: two identically-built circuits digest equally whatever
    they are called.  This is the gate level's entry in the cross-level
    digest scheme ([Cycle_system.digest] / here), and
    what gate-level [Flow.Cache] keys and pass provenance records are
    made of. *)
val digest : t -> string

(** {1 Stuck-at fault model}

    The classic gate-level fault universe: every gate pin can be stuck
    at 0 or 1.  A {!Stem} fault pins a whole net (the driver's output
    pin and all its fanout); a {!Branch} fault affects a single input
    pin of a single gate, leaving the other branches of the same net
    healthy.  [br_gate] indexes gates in {!fold_gates} order. *)

type fault_site = Stem of net | Branch of { br_gate : int; br_pin : int }
type fault = { f_site : fault_site; f_stuck : bool }

(** Every pin fault of the netlist: both polarities on each primary
    input net, DFF output and gate output (stem faults) and on each
    gate input pin (branch faults).  Constant gates contribute only
    the polarity that differs from their value. *)
val fault_universe : t -> fault list

(** Drop faults equivalent to a remaining one: buffer/inverter pin
    faults, controlling-value pin faults of AND/NAND/OR/NOR (equivalent
    to an output-stem fault of the same gate), and branch faults on
    single-load stems.  Coverage computed on the collapsed list equals
    coverage on the full universe. *)
val collapse_faults : t -> fault list -> fault list

(** ["<net>/sa0"], ["g<i>.in<p>/sa1"], ... *)
val fault_label : t -> fault -> string

(** {1 Simulation} *)

module Sim : sig
  type netlist := t

  (** A simulator over one netlist, in two parts.  The {e topology}
      ({!topology}) is what levelization derives from the netlist: the
      gates and the ROM/RAM read ports numbered in level order into
      flat arrays, a compressed net-to-reader fanout, the flip-flop and
      RAM wiring and the ROM images.  It is immutable, so any number of
      instances, on any domain, share one.  An {e instance} ({!t},
      made by {!instantiate}) owns the lane state, which is everything
      a simulation writes: net words, stem-fault masks, the element
      kinds that {!inject} recodes, RAM contents, the dirty set and the
      counters.  {!settle} evaluates only the dirty elements, those
      whose inputs changed, lowest-numbered first: an element reads
      only lower-numbered ones unless levelization cut a cycle, so in
      an acyclic netlist each runs at most once per settle; nothing is
      allocated per evaluation.

      One settle per cycle: {!clock} leaves the readers of the
      flip-flops and RAMs it wrote dirty, and the settle after the next
      cycle's inputs evaluates them together with the inputs' readers.
      Every read ({!read}, {!get_output}, {!output_diff},
      {!net_value}, and {!snapshot} and {!matches}) settles first while
      anything is dirty, so a read after {!clock} sees the settled
      edge.  A netlist whose levelization had to cut a combinational
      cycle ([snd (combinational_depth nl) > 0]) is the exception: the
      state its settle reaches may depend on when the settle runs, so
      {!clock} settles at once, as it always did, and reads never settle
      early.

      Every net holds a 63-lane word.  The plain interface keeps the
      lanes equal and reads lane 0; {!inject} makes lanes differ, one
      faulty circuit per lane, for parallel-pattern fault simulation.
      Buses move as native [int]s: a bus of at most 62 bits, which
      holds every [Fixed] mantissa, reads exactly. *)
  type t

  (** The shared, immutable part of a simulator. *)
  type topology

  (** [topology nl] levelizes [nl].
      @raise Ocapi_error.Error with code [Internal] if an element names
      a net the netlist never created. *)
  val topology : netlist -> topology

  (** [instantiate tp] — a fresh instance at power-up over [tp]'s
      arrays, every element dirty.  One {!settle} call evaluates at
      most [1000 * max 64 n_elements] elements.  An acyclic netlist
      never needs more than one evaluation per element; on a
      combinational cycle, a mark below the element being evaluated
      rewinds the sweep to it, and the budget turns an oscillation into
      an [Ocapi_error.Error] with code [Did_not_settle]. *)
  val instantiate : topology -> t

  (** [create nl] = [instantiate (topology nl)].
      @raise Ocapi_error.Error with code [Internal] if an element names
      a net the netlist never created. *)
  val create : netlist -> t

  (** [set_input sim name mantissa] drives an input bus with the low
      bits of a two's-complement mantissa, on every lane.
      @raise Ocapi_error.Error with code [Internal] on an unknown bus. *)
  val set_input : t -> string -> int64 -> unit

  (** Evaluate the dirty elements until stable — those an edge left and
      those the inputs driven since marked.  Bounded.
      @raise Ocapi_error.Error with code [Did_not_settle] on
      oscillation, naming (a sample of) the nets still toggling, the
      budget and the clock cycle. *)
  val settle : t -> unit

  (** Read an output bus (lane 0) as a two's-complement mantissa
      ([signed] controls sign extension of the top bit).
      @raise Ocapi_error.Error with code [Internal] on an unknown bus. *)
  val get_output : t -> signed:bool -> string -> int64

  (** {2 Resolved ports}

      {!set_input} and {!get_output} look their bus up by name; a
      per-cycle loop resolves its buses once instead, and moves their
      values as [int]s.  A port is resolved on a topology and works on
      every instance of it. *)

  type input_port
  type output_port

  (** @raise Ocapi_error.Error with code [Internal] on an unknown bus. *)
  val input_port : topology -> string -> input_port

  (** @raise Ocapi_error.Error with code [Internal] on an unknown bus. *)
  val output_port : topology -> string -> output_port

  (** [drive sim p m] = [set_input] on a resolved port. *)
  val drive : t -> input_port -> int -> unit

  (** [read sim ~signed p] = [get_output] on a resolved port. *)
  val read : t -> signed:bool -> output_port -> int

  (** Clock edge: latch all DFFs and apply RAM writes (from the pre-edge
      values), marking the readers of what changed.  The next settle,
      or the next read, evaluates them; on a netlist with a cut cycle,
      [clock] runs that {!settle} itself, and can raise what it
      raises. *)
  val clock : t -> unit

  (** Back to power-up: nets low, RAMs cleared, DFFs at their initial
      values, every element dirty.  Active faults stay in force. *)
  val reset : t -> unit

  (** {2 Checkpoints}

      A snapshot copies what {!reset} re-initializes, less the event
      counter: every net word, the RAM contents, the set of elements
      left to evaluate and the clock count that diagnostics report.
      Active faults are not part of it.  Like a read, {!snapshot} and
      {!matches} settle first, so on an acyclic netlist a snapshot's
      dirty set is empty; on one with a cut cycle it is whatever was
      left to evaluate (every element at power-up).  {!settle} and
      {!clock} do not depend on it. *)

  type snapshot

  val snapshot : t -> snapshot

  (** Back to the snapshot's state, from any state (a settle that
      raised [Did_not_settle] included). *)
  val restore : t -> snapshot -> unit

  (** Does the current state equal the snapshot's? *)
  val matches : t -> snapshot -> bool

  (** {2 Fault injection}

      Parallel-pattern single-fault propagation: lane [l] simulates the
      netlist with the faults injected on lane [l] (usually one).  A
      stem fault forces its net in that lane and masks every later
      write to it; a branch fault makes one gate pin read a constant in
      that lane.  Lanes share the evaluation schedule but never each
      other's values: gates work bitwise, and a ROM/RAM read (or RAM
      write) goes lane by lane when the lanes' addresses differ.  Each
      lane has its own RAM contents. *)

  (** Lanes per net: 63. *)
  val lanes : int

  (** [inject sim ~lane f] activates [f] on [lane], after {!reset} (a
      stem's forced value applies at once and survives later resets).
      @raise Invalid_argument if [lane] is outside [\[0, lanes)], or if
      more than [lanes] gates would carry branch faults at once.
      @raise Ocapi_error.Error with code [Internal] if the fault names
      no net or gate pin. *)
  val inject : t -> lane:int -> fault -> unit

  (** Deactivate every fault.  Values a fault forced linger until they
      are next written: {!reset} afterwards to restore the healthy
      circuit. *)
  val clear_fault : t -> unit

  (** [output_diff sim p m] — the lanes (bit [l] for lane [l]) in which
      output bus [p] differs from the mantissa [m]: the per-cycle
      comparison of a fault batch against the fault-free run. *)
  val output_diff : t -> output_port -> int -> int

  (** {2 Net access}

      The poke surface of the gate cycle engine: a write to a DFF
      q-net between two clocks models a transient bit flip (the
      register re-samples from [d] at the next edge), a read of the
      controller's state bits decodes FSM state.  Writes respect an
      active stem fault and reach the net's readers at the next
      {!settle}. *)

  (** Lane 0 of a net. *)
  val net_value : t -> net -> bool

  (** Set a net on every lane.
      @raise Ocapi_error.Error with code [Internal] unless the net is a
      DFF q-net or a primary-input bit: the next settle would overwrite
      a poke on a gate-driven net. *)
  val poke_net : t -> net -> bool -> unit
end
