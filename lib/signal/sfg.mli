(** Signal flow graphs.

    A set of signal expressions is assembled in a signal flow graph
    together with its desired inputs and outputs (paper section 3.1).
    An SFG "has well defined simulation semantics and represents one
    clock cycle of data processing": when it fires, every output
    expression is evaluated from the input tokens and the current
    register values, and the next values of the registers it assigns are
    staged for the register-update phase.

    Declaring inputs and outputs enables the semantic checks the paper
    advertises — dangling inputs and dead code — see {!check}. *)

type t

(** {1 Construction} *)

module Builder : sig
  type sfg := t
  type t

  (** [input b name fmt] declares an input port and returns the signal
      that reads its token. *)
  val input : t -> string -> Fixed.format -> Signal.t

  (** [input_port b port] declares a pre-existing port (used when several
      SFGs of one component must share the port identity). *)
  val input_port : t -> Signal.Input.t -> Signal.t

  (** [output b name e] declares output [name] driven by [e].
      @raise Ocapi_error.Error with code [Internal] on duplicate output
      names. *)
  val output : t -> string -> Signal.t -> unit

  (** [assign b reg e] stages [reg <- e] for when this SFG fires.  The
      expression format must equal the register format exactly.
      @raise Ocapi_error.Error with code [Internal] otherwise, or if
      [reg] is already assigned here. *)
  val assign : t -> Signal.Reg.t -> Signal.t -> unit

  (** [assign_resized b reg e] inserts a default resize (truncate / wrap)
      to the register format first. *)
  val assign_resized : t -> Signal.Reg.t -> Signal.t -> unit

  val finish : t -> sfg
end

(** [build name f] runs [f] on a fresh builder and returns the checked
    SFG. @raise Ocapi_error.Error with code [Internal] if {!check} fails with an
    error. *)
val build : string -> (Builder.t -> unit) -> t

(** An SFG with no inputs, outputs or assignments (a "nop"). *)
val nop : string -> t

(** {1 Accessors} *)

val name : t -> string
val inputs : t -> Signal.Input.t list
val outputs : t -> (string * Signal.t) list
val assigns : t -> (Signal.Reg.t * Signal.t) list

(** Registers assigned by this SFG. *)
val regs_written : t -> Signal.Reg.t list

(** Registers read by any expression of this SFG. *)
val regs_read : t -> Signal.Reg.t list

(** Total expression nodes (outputs and register assignments, shared
    nodes counted once). *)
val node_count : t -> int

(** {1 Semantic checks} *)

type check_issue =
  | Dangling_input of string  (** declared input used by no expression *)
  | Dead_output of string  (** output driven by a constant-only cone *)
  | Multiple_drivers of string  (** register assigned twice *)

val pp_issue : Format.formatter -> check_issue -> unit

(** Issues found in the SFG.  [Dangling_input] and [Dead_output] are
    warnings; [build] only raises for structural errors (duplicate
    names, format mismatches), which the builder detects eagerly.
    [flag_constant_outputs] (default false) also reports outputs whose
    cone contains no input or register read — usually intentional (nop
    instruction words, tied-off write enables), occasionally a bug. *)
val check : ?flag_constant_outputs:bool -> t -> check_issue list

(** {1 Firing}

    An SFG fires through one {!Signal.Plan} over its outputs, then its
    register assignments, in declaration order.  The plan is built on
    first use and kept by the SFG ({!Builder.finish} builds nothing).
    {!fire} evaluates on a fresh memo, so a node shared by several
    outputs or assignments is computed once per firing, in the order
    evaluating the expressions one after another would compute it.  The
    cycle scheduler fires an SFG in parts instead, on one memo per
    cycle that takes tokens as they arrive (see [Cycle_system]). *)

(** The plan of {!fire}: its roots are the outputs, then the register
    assignments, in declaration order.  Built on the first call and
    kept by the SFG. *)
val plan : t -> Signal.Plan.t

(** The result of firing: output token values by name. *)
type firing = (string * Fixed.t) list

(** [fire t env] evaluates all outputs and stages all register
    assignments.  [env] must bind every input.
    @raise Ocapi_error.Error with code [Internal] on a missing token. *)
val fire : t -> Signal.Env.t -> firing

val pp : Format.formatter -> t -> unit
