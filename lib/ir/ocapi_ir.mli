(** The multi-level design IR and its lowering passes.

    The paper's environment spans the behavioral SFG/FSM system of
    sections 2–4 and the synthesized gate netlists of section 6 (the
    clocked RTL processes of section 5 are a simulation engine, the
    registry's ["rtl"], not a level here).  In the spirit of LLHD's
    multi-level IR this module makes the levels explicit: one typed
    container ({!t}) holding a design at exactly one {!payload} level,
    lowered by named, composable {!pass}es, with each application
    recorded in a {e provenance chain} of (pass name, input digest,
    output digest) triples.

    Both levels have a canonical structural digest
    ([Cycle_system.digest] / [Netlist.digest]), so a lowered design
    carries a verifiable derivation: replaying the chain's passes over
    the root digest must reproduce each link.

    The gate level also becomes a first-class cycle engine here:
    {!register_gate_engine} puts [Netlist.Sim] behind the uniform
    [Ocapi_engine] session surface as engine ["gate"] (alias
    ["netlist"]), so [Flow.simulate], fault campaigns, engine
    disagreement sweeps and batch manifests reach gate simulation with
    no special-casing. *)

(** A design at one explicit representation level.  The constructors
    wrap the existing representations unchanged — the IR is a
    container and pass discipline, not a fourth representation. *)
type payload =
  | Behavioral of Cycle_system.t  (** SFG/FSM system, cycle-scheduled *)
  | Gate of Netlist.t  (** synthesized gate netlist *)

(** One provenance link: which pass ran, over what, producing what. *)
type pass_record = {
  pr_pass : string;
  pr_input_digest : string;
  pr_output_digest : string;
}

type t = {
  ir_design : payload;
  ir_digest : string;  (** canonical digest of [ir_design] *)
  ir_provenance : pass_record list;  (** oldest first *)
}

(** A named lowering/optimization step: [pass_body] maps a design to
    the payload of the next level (or an optimized same-level one);
    {!apply} wraps it with digest bookkeeping.  A pass applied to a
    level it does not accept raises [Ocapi_error.Error] with code
    [Unsupported]. *)
type pass = { pass_name : string; pass_body : t -> payload }

(** {1 Constructing and inspecting} *)

(** Wrap a behavioral system as an IR design (empty provenance). *)
val behavioral : Cycle_system.t -> t

(** ["behavioral"] or ["gate"]. *)
val level_name : t -> string

(** Canonical digest of a payload ([Cycle_system.digest] /
    [Netlist.digest]). *)
val digest_of : payload -> string

val to_netlist : t -> Netlist.t option

(** {1 The pass manager} *)

(** [apply pass design] runs one pass and appends its provenance
    record (pass name, input digest, output digest). *)
val apply : pass -> t -> t

(** {1 The built-in passes} *)

(** Behavioral -> Gate (["lower-to-gate"], [Synthesize.synthesize]):
    each untimed kernel becomes the macro cell its declared
    [Dataflow.Kernel.k_model] names. *)
val lower_to_gate : pass

(** Gate -> Gate (["optimize-gates"], [Netopt.run]): constant
    propagation, structural hashing, dead-logic elimination to
    fixpoint. *)
val optimize_gates : pass

(** {1 The gate cycle engine}

    Engine ["gate"] (alias ["netlist"]) steps [Netlist.Sim] under the
    uniform session surface.  Elaboration synthesizes the system, with
    probe-valid wires so sparse probe histories are reconstructed
    exactly, levelizes the netlist into a [Netlist.Sim.topology] and
    resolves the probe and stimulus buses.  The result depends only on
    the design's structure, so it is kept in an {!Artifact_table} keyed
    by [Cycle_system.elaboration_key].  A session then only instantiates its
    own lane state over the shared topology and binds its system's
    stimulus columns; sessions of one design on any domain share one
    synthesis.  Register pokes flip flip-flop q-nets through the
    synthesis {!Synthesize.state_map}; FSM state pokes re-encode the
    controller's state register (an unencoded index raises
    [Invalid_state], the detected-outcome path of SEU campaigns).
    Registered by the flow layer's linkage; idempotent. *)
val register_gate_engine : unit -> unit

(** Designs the gate engine's elaboration table holds at most. *)
val gate_capacity : int

(** Counters of the elaboration table, since start or
    {!reset_gate_stats}.  Always on, independent of [Ocapi_obs]
    telemetry: tests use them to prove that sessions share one
    synthesis. *)
type gate_stats = Artifact_table.stats = {
  elaborations : int;
  hits : int;
  evictions : int;
}

val gate_stats : unit -> gate_stats
val reset_gate_stats : unit -> unit
