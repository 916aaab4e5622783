(** Mealy-type finite state machines with SFG actions.

    The control behaviour of a component is captured as a Mealy FSM whose
    transition actions are signal flow graphs (paper section 3.2, fig 4):

    {v
      fsm f;  initial s0;  state s1;
      s0 << always    << sfg1 << s1;
      s1 << cnd(eof)  << sfg2 << s1;
      s1 << !cnd(eof) << sfg3 << s0;
    v}

    becomes

    {[
      let f = Fsm.create "f" in
      let s0 = Fsm.initial f "s0" and s1 = Fsm.state f "s1" in
      Fsm.(s0 |-- always |+ sfg1 |-> s1);
      Fsm.(s1 |-- cnd eof |+ sfg2 |-> s1);
      Fsm.(s1 |-- cnd Signal.(~:eof) |+ sfg3 |-> s0)
    ]}

    Guard expressions are evaluated at the start of a clock cycle, before
    any token exists, so they may only read registers and constants ("the
    conditions are stored in registers inside the signal flow graphs"). *)

type t
type state

(** {1 Guards} *)

type guard

(** The guard that is always enabled. *)
val always : guard

(** [cnd e] guards on the 1-bit, register-and-constant-only expression
    [e].
    @raise Ocapi_error.Error with code [Internal] if [e] is wider than
    one bit or combinationally depends on an SFG input. *)
val cnd : Signal.t -> guard

(** Boolean combinators over guards. *)
val gnot : guard -> guard

val gand : guard -> guard -> guard
val gor : guard -> guard -> guard

(** The guard as a signal expression ([always] is constant 1). *)
val guard_expr : guard -> Signal.t

(** Is this the [always] guard?  (Controller synthesis treats [always]
    transitions as unconditional, ending the priority chain.) *)
val is_always : guard -> bool

(** {1 Construction} *)

val create : string -> t

(** [initial t name] declares the (unique) initial state.
    @raise Ocapi_error.Error with code [Internal] if an initial state
    was already declared. *)
val initial : t -> string -> state

(** [state t name] declares a further state.
    @raise Ocapi_error.Error with code [Internal] on duplicate names. *)
val state : t -> string -> state

(** [add_transition t ~from ~guard ~actions ~goto] appends a transition.
    Within a state, transitions are prioritized in declaration order. *)
val add_transition :
  t -> from:state -> guard:guard -> actions:Sfg.t list -> goto:state -> unit

(** {2 The fig 4 operator spelling} *)

type partial_transition

val ( |-- ) : state -> guard -> partial_transition
val ( |+ ) : partial_transition -> Sfg.t -> partial_transition

(** Registers the transition on the FSM of its source state. *)
val ( |-> ) : partial_transition -> state -> unit

(** {1 Accessors} *)

val name : t -> string
val states : t -> state list
val initial_state : t -> state
val state_name : state -> string
val state_index : state -> int
val state_equal : state -> state -> bool

type transition = {
  t_from : state;
  t_guard : guard;
  t_actions : Sfg.t list;
  t_goto : state;
}

val transitions : t -> transition list
val transitions_from : t -> state -> transition list

(** All SFGs referenced by any transition (deduplicated, in order). *)
val all_sfgs : t -> Sfg.t list

(** All registers written or read by any action SFG, plus guard reads.
    The list is built on the first call and kept until a state or
    transition is added. *)
val all_regs : t -> Signal.Reg.t list

(** {1 Execution} *)

val current : t -> state

(** [select t] evaluates the guards of the current state's transitions in
    priority order and returns the first enabled one, or [None] if no
    transition is enabled this cycle (the machine then implicitly holds
    its state with no actions).

    The machine keeps, per state, an array of its transitions in
    priority order, each with its guard's {!Signal.Plan}.  The arrays
    and plans are built on the first selection or {!check}, never by
    {!add_transition}, and are dropped when a state or transition is
    added.  [select] evaluates the guards on a {!selector} of its own. *)
val select : t -> transition option

(** {2 Selectors}

    The run state of whoever selects transitions over and over — the
    interpreter's run table and the RT elaboration keep one per machine;
    the machine itself keeps none.  A selector holds one
    {!Signal.Plan.memo} per guarded transition, made on its first
    selection (and again after a state or transition was added) and
    cleared after each try, so it holds no value between tries. *)

type selector

val selector : t -> selector

(** [select_from sel i] is the transition [select] would choose in the
    state whose {!state_index} is [i], given as its position in
    {!transitions}; [-1] if no guard is enabled or no state has index
    [i].  The guards read the registers' current values. *)
val select_from : selector -> int -> int

(** [advance t tr] moves to [tr.t_goto] (called in the register-update
    phase). *)
val advance : t -> transition -> unit

(** Return to the initial state. Does not touch registers. *)
val reset : t -> unit

(** [force_state t i] jumps to the state whose {!state_index} is [i],
    bypassing transitions — the fault-injection access used by SEU
    campaigns on the interpreted engine (a bit flip in the encoded state
    register selects an arbitrary index).
    @raise Ocapi_error.Error with code [Internal] if no state has index [i]. *)
val force_state : t -> int -> unit

(** {1 Checks} *)

type check_issue =
  | Unreachable_state of string
  | Nondeterministic of string  (** >1 guard enabled for a sampled valuation *)
  | Incomplete of string  (** no guard enabled for a sampled valuation *)
  | No_initial

val pp_issue : Format.formatter -> check_issue -> unit

(** [check ?flag_overlaps t] performs structural checks and a
    randomized completeness check: for 100 random valuations of the
    registers read by the guards, verify some transition is enabled
    per state (the implicit hold is legal but usually unintended).  With [flag_overlaps] (default false), also
    report states where several guards are enabled simultaneously —
    harmless under the priority-ordered {!select} semantics, but worth
    knowing for machines written in the paper's explicit-complement
    style.  The guard registers get their values back when the check
    ends, also when a guard raises on a sampled value. *)
val check : ?flag_overlaps:bool -> t -> check_issue list

val pp : Format.formatter -> t -> unit

(** Graphviz dot rendering of the machine (states, guarded transitions
    with their action SFG names) — the textual twin of fig 4's diagram. *)
val to_dot : t -> string
