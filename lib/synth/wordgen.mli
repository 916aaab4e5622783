(** Word-level module generators.

    Datapath synthesis maps each signal-flow-graph operation to a
    bit-parallel hardware module (ripple-carry adders, array
    multipliers, comparators, saturation logic...).  Every generator is
    {e bit-exact} against the corresponding [Fixed] operation: a bus of
    width [fmt.width] carries the two's-complement mantissa, LSB first,
    and the generated gates compute exactly what [Fixed.add] (etc.)
    computes on the mantissas — the property the generated-test-bench
    verification flow of section 6 relies on. *)

type bus = Netlist.net array

(** OR / AND trees over nets. *)
val or_tree : Netlist.t -> Netlist.net list -> Netlist.net

val and_tree : Netlist.t -> Netlist.net list -> Netlist.net

(** [select nl choices ~width] — AND-OR one-hot selection:
    [choices = [(sel_net, bus); ...]]; when no select is high the result
    is zero.  Buses must have [width] bits. *)
val select : Netlist.t -> (Netlist.net * bus) list -> width:int -> bus

(** {1 Operator generators}

    Each takes operand formats and buses (of matching widths) and
    returns the full-precision result bus, of width
    [(Fixed.<op>_format fa fb).width]. *)

val add : Netlist.t -> fa:Fixed.format -> fb:Fixed.format -> bus -> bus -> bus
val sub : Netlist.t -> fa:Fixed.format -> fb:Fixed.format -> bus -> bus -> bus
val mul : Netlist.t -> fa:Fixed.format -> fb:Fixed.format -> bus -> bus -> bus
val neg : Netlist.t -> fa:Fixed.format -> bus -> bus
val abs_ : Netlist.t -> fa:Fixed.format -> bus -> bus

val logic_op :
  Netlist.t ->
  Netlist.gate_kind ->
  fa:Fixed.format ->
  fb:Fixed.format ->
  bus ->
  bus ->
  bus

val not_ : Netlist.t -> bus -> bus

(** Comparisons: 1-bit result as a single net. *)
val eq : Netlist.t -> fa:Fixed.format -> fb:Fixed.format -> bus -> bus -> Netlist.net

val lt : Netlist.t -> fa:Fixed.format -> fb:Fixed.format -> bus -> bus -> Netlist.net
val le : Netlist.t -> fa:Fixed.format -> fb:Fixed.format -> bus -> bus -> Netlist.net

(** [mux2 nl ~fa ~fb ~fr sel a b]: per-bit mux after exact resize of
    both branches to [fr] (the [Signal.Mux] semantics). *)
val mux2 :
  Netlist.t ->
  fa:Fixed.format ->
  fb:Fixed.format ->
  fr:Fixed.format ->
  Netlist.net ->
  bus ->
  bus ->
  bus

(** [resize nl ~round ~overflow ~src ~dst bus] builds
    [Fixed.resize_plan]: rounding away fraction bits in the plan's
    intermediate width, then wrap or saturate. *)
val resize :
  Netlist.t ->
  round:Fixed.rounding ->
  overflow:Fixed.overflow ->
  src:Fixed.format ->
  dst:Fixed.format ->
  bus ->
  bus

(** [rom_address nl ~idx_fmt bus] converts an (unsigned) index value bus
    to an integer address bus, per [Fixed.to_int] semantics. *)
val rom_address : Netlist.t -> idx_fmt:Fixed.format -> bus -> bus
