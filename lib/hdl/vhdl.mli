(** Synthesizable VHDL generation.

    "The writing of HDL is avoided through code generation from C++"
    (section 7): the clock-cycle-true description is translated into
    equivalent VHDL automatically (fig 7, right branch).  Per fig 8 each
    timed component becomes one entity whose architecture holds

    - a combinational process (the datapath + transition selection):
      three-address variable assignments mirroring the SFG DAGs, guarded
      by a [case] over the state and [if] chains over the conditions,
    - a sequential process (register update on the rising clock edge).

    Untimed RAM kernels map to a generic RAM entity; the system entity
    instantiates every component and wires the nets.

    The generated text is used two ways: as the deliverable HDL hand-off
    and as the code-size comparator of Table 1 ("the C++ modeling gains
    a factor of 5 in code size over RT-VHDL modeling"). *)

(** [of_system sys] returns [(file_name, contents)] pairs: one per
    timed component, one RAM entity if needed, and a structural
    top level named after the system. *)
val of_system : Cycle_system.t -> (string * string) list

(** Total line count of the generated VHDL (the Table 1 metric). *)
val line_count : (string * string) list -> int

(** [of_netlist nl] — a structural VHDL view of a gate-level netlist
    (Table 1's "VHDL (netlist)" row for HCOR): one entity, every net a
    [std_logic] signal, gates as concurrent assignments, flip-flops as a
    clocked process, ROM/RAM macros as behavioural blocks. *)
val of_netlist : Netlist.t -> string
