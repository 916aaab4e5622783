(** The divide-and-conquer synthesis strategy of section 6 (fig 8).

    Each timed component is split into a {e controller} and a
    {e datapath}, synthesized by dedicated procedures, and the resulting
    netlists are linked over the system nets:

    - {b Datapath synthesis} (the Cathedral-3 role): every FSM
      transition is one {e instruction}; instructions are mutually
      exclusive, so word-level operators (adders, subtractors,
      multipliers, ROM ports) are {e shared} across them — an operator
      pool per signature is sized by the worst-case per-instruction use,
      and operand buses are routed to the shared units through
      one-hot-gated selection networks.  Registers become enabled flip-
      flops with next-value selection across the assigning instructions.
    - {b Controller synthesis} (the Synopsys-DC role): the Mealy FSM
      becomes a binary-encoded state register plus two-level
      next-state/select logic minimized with {!Sop}.  Guard conditions
      are synthesized from the register outputs by the datapath and fed
      to the controller, mirroring the paper's "conditions are stored in
      registers".
    - {b Linkage}: components, RAM macro cells (for untimed kernels),
      primary inputs and probes are wired into one system netlist. *)

type state_encoding = Binary | One_hot

type options = {
  share_operators : bool;
      (** word-level operator sharing across instructions (default on;
          off is the ablation measured by bench C5) *)
  state_encoding : state_encoding;
      (** controller state register encoding (default [Binary];
          [One_hot] trades register bits for decode logic) *)
  emit_probe_valids : bool;
      (** also emit, per probe [p], a 1-bit output bus ["__valid__p"]
          that is high exactly when the behavioral engine would record
          a token on [p], plus a 1-bit input bus ["__stimvalid__i"] per
          primary input [i] whose probes depend on stimulus arrival.
          The gate cycle engine needs these to reconstruct sparse probe
          histories; default off, which leaves the netlist byte-for-byte
          what it was before this option existed *)
}

val default_options : options

(** How to map an untimed kernel onto a hardware macro. *)
type macro_spec =
  | Ram_macro of {
      words : int;
      width : int;
      addr_port : string;
      wdata_port : string;
      we_port : string;
      rdata_port : string;
    }

type component_report = {
  cr_name : string;
  cr_instructions : int;  (** FSM transitions (datapath instructions) *)
  cr_states : int;
  cr_shared_units : (string * int) list;  (** signature label, pool size *)
  cr_ops_before_sharing : int;
      (** total shareable operator instances over all instructions *)
  cr_gate_equivalents : int;  (** gates added to the netlist by this component *)
  cr_seconds : float;  (** synthesis wall-clock time *)
}

type report = {
  system_name : string;
  components : component_report list;
  total : Netlist.gate_counts;
  total_seconds : float;
}

(** {1 Structural map}

    Where the architectural state of the design landed in the netlist —
    the poke surface of the gate cycle engine and of netlist-level fault
    injection. *)

type reg_map = {
  rm_name : string;
  rm_fmt : Fixed.format;  (** declared register format *)
  rm_nets : Netlist.net array;  (** flip-flop q-nets, LSB first *)
}

type fsm_map = {
  fm_name : string;
  fm_states : int;  (** encoded state count *)
  fm_encoding : state_encoding;
  fm_state_nets : Netlist.net array;  (** state register q-nets *)
}

type state_map = {
  sm_regs : reg_map array;  (** [Cycle_system.all_regs] order *)
  sm_fsms : fsm_map array;  (** timed-component (system) order *)
}

(** [synthesize ?options ?macro_of_kernel sys] produces the linked
    system netlist and a synthesis report.  Untimed kernels require a
    [macro_of_kernel] mapping.
    @raise Ocapi_error.Error with code [Internal] on an unknown kernel. *)
val synthesize :
  ?options:options ->
  ?macro_of_kernel:(Dataflow.Kernel.t -> macro_spec option) ->
  Cycle_system.t ->
  Netlist.t * report

(** [synthesize_mapped] is {!synthesize} plus the {!state_map} relating
    the system's registers and FSMs to netlist flip-flops. *)
val synthesize_mapped :
  ?options:options ->
  ?macro_of_kernel:(Dataflow.Kernel.t -> macro_spec option) ->
  Cycle_system.t ->
  Netlist.t * report * state_map

val pp_report : Format.formatter -> report -> unit

(** {1 Netlist-level verification (the generated-test-bench flow)} *)

(** [replay sys nl ~cycles] runs the reference (interpreted) simulation
    for [cycles], replays its stimuli on [nl] and samples every probe's
    output bus at the cycles the reference recorded a token.  It returns
    the reference's trace, frozen, and the samples' trace: one column
    per probe in [Cycle_system.probes] order, token [k] of each sampled
    column read in the probe's format at the cycle of the reference's
    token [k].  A probe [nl] has no output for gets no samples.  The
    system is reset before and after. *)
val replay :
  Cycle_system.t ->
  Netlist.t ->
  cycles:int ->
  Cycle_system.Trace.t * Cycle_system.Trace.t

type verify_result = {
  vectors_checked : int;
  mismatches : (int * string * int64 * int64) list;
      (** cycle, probe, expected mantissa, netlist mantissa *)
}

(** [verify ?options ?optimize ?macro_of_kernel sys ~cycles] {!replay}s
    the reference simulation on the synthesized netlist and compares
    every probe token — the "verification of the synthesis result" of
    fig 8.
    With [optimize] (default false) the netlist is first run through
    {!Netopt.run}, so the post-optimization netlist is what is
    verified.  The system is reset before and after. *)
val verify :
  ?options:options ->
  ?optimize:bool ->
  ?macro_of_kernel:(Dataflow.Kernel.t -> macro_spec option) ->
  Cycle_system.t ->
  cycles:int ->
  verify_result
