(** RAM cells, modeled "at high level" (paper section 4).

    "In the DECT transceiver, such a loop of detailed (timed) and high
    level (untimed) components occurs for instance in the RAM cells that
    are attached to the datapaths.  In that case, the RAM cells are
    described at high level while the datapaths are described at clock
    cycle true level."

    A RAM cell is an untimed kernel with ports [addr], [wdata], [we] and
    [rdata]; per cycle it returns the {e pre-write} word at [addr] and,
    when [we] is set, commits [wdata] — the exact behaviour of the
    [Netlist.ram] macro cell.  The kernel declares that macro as its
    [Dataflow.Kernel.Ram_model], which synthesis reads, so the macro is
    a drop-in replacement. *)

(** [kernel ~name ~words ~data_fmt ~addr_fmt] — the untimed process.
    Port formats are declared, so all static back ends work. *)
val kernel :
  name:string ->
  words:int ->
  data_fmt:Fixed.format ->
  addr_fmt:Fixed.format ->
  Dataflow.Kernel.t

(** {!Synthesize.macro_of_model}, the RAM macro a {!kernel} declares,
    under the name the [bench/perf] harness reads. *)
val macro_of_kernel : Dataflow.Kernel.t -> Synthesize.macro_spec option
