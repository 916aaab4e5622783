(** The Table 1 measurement harness.

    For a design, measures the three columns of the paper's Table 1 —
    source code size (lines), simulation speed (cycles/second) and
    process size (bytes of live heap attributable to the engine) — for
    each simulation engine:

    - [Interpreted_objects] — the three-phase cycle scheduler walking
      the object structure ("C++ (interpreted obj)"),
    - [Compiled_code] — the flattened closure program ("C++ (compiled)"),
    - [Native_code] — the regenerated simulator compiled to machine
      code and dynlinked (the paper's "simulator is regenerated" path),
    - [Rt_event_driven] — the delta-cycle RTL kernel ("VHDL (RT)"),
    - [Gate_netlist] — the synthesized netlist under the levelized
      gate simulator ("VHDL/Verilog (netlist)"). *)

type engine =
  | Interpreted_objects
  | Compiled_code
  | Native_code
  | Rt_event_driven
  | Gate_netlist

val engine_label : engine -> string
val all_engines : engine list

type measurement = {
  m_engine : engine;
  m_cycles : int;
  m_seconds : float;
  m_cycles_per_second : float;
  m_process_bytes : int;
      (** the session's heap, read from reset after the run, less the
          stimulus columns and its probe trace *)
  m_source_lines : int;  (** description size for this representation *)
}

(** [measure ?ocaml_source_lines ?macro_of_kernel build engine ~cycles]
    builds the design with [build] and the engine over it, runs
    [cycles] cycles (after a short warm-up) and reports.  Every call
    measures a fresh build, so a row does not depend on the rows
    measured before it.  [ocaml_source_lines] is the size of the OCaml
    capture, used for the two C++-column rows; the RT row reports
    generated-VHDL lines and the netlist row generated-Verilog lines. *)
val measure :
  ?ocaml_source_lines:int ->
  ?macro_of_kernel:(Dataflow.Kernel.t -> Synthesize.macro_spec option) ->
  (unit -> Cycle_system.t) ->
  engine ->
  cycles:int ->
  measurement


(** Render measurements in the paper's Table 1 layout. *)
val pp_table :
  Format.formatter ->
  design:string ->
  gates:int ->
  measurement list ->
  unit
