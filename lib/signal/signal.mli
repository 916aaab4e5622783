(** Signals and signal expressions.

    Signals are the information carriers of a timed description (paper
    section 3.1).  Where the paper overloads C++ operators so that "the
    parser of the C++ compiler is reused to construct the signal flow
    graph data structure" (fig 3), this module overloads OCaml operators
    over an expression DAG: evaluating [a +: b *: c] builds nodes, it does
    not compute numbers.  The same data structure is later interpreted
    (simulation), flattened (compiled simulation), and printed (HDL code
    generation) — the dual use of fig 7.

    Three kinds of leaf signal exist:
    - constants,
    - SFG {e inputs} — tokens arriving over the system interconnect, and
    - {e registered} signals, which have a current and a next value and
      are updated by their clock (their read breaks combinational
      dependency chains; this is what the scheduler's dependency analysis
      relies on). *)

type format = Fixed.format

(** {1 Registered signals} *)

module Reg : sig
  type t

  (** [create ?init clock name fmt] makes a registered signal. [init]
      defaults to zero and must have format [fmt]. *)
  val create : ?init:Fixed.t -> Clock.t -> string -> format -> t

  val name : t -> string
  val fmt : t -> format
  val clock : t -> Clock.t
  val init : t -> Fixed.t
  val id : t -> int

  (** Current value (the value visible through {!Signal.reg_q} reads). *)
  val value : t -> Fixed.t

  (** The staged next value, if any (see {!set_next}). *)
  val next : t -> Fixed.t option

  (** Force the current value (used by simulators and reset). *)
  val set_value : t -> Fixed.t -> unit

  (** Stage the next value; committed by {!commit}. *)
  val set_next : t -> Fixed.t -> unit

  (** Copy next value (if staged) to current value; clears the staging. *)
  val commit : t -> unit

  (** Reset the current value to [init] and clear any staged next. *)
  val reset : t -> unit

  val pp : Format.formatter -> t -> unit
end

(** {1 SFG input ports} *)

module Input : sig
  type t

  val create : string -> format -> t
  val name : t -> string
  val fmt : t -> format
  val id : t -> int
  val pp : Format.formatter -> t -> unit
end

(** {1 Lookup tables (ROMs)} *)

module Rom : sig
  type t

  (** [create name fmt contents] — all [contents] must have format [fmt].
      Reads are taken modulo the table length. *)
  val create : string -> format -> Fixed.t array -> t

  val name : t -> string
  val fmt : t -> format
  val size : t -> int
  val get : t -> int -> Fixed.t
end

(** {1 Expressions} *)

type t
(** An expression node.  Structurally a DAG; shared subexpressions are
    evaluated once per firing. *)

type op =
  | Const of Fixed.t
  | Input_read of Input.t
  | Reg_read of Reg.t
  | Add of t * t
  | Sub of t * t
  | Mul of t * t
  | Neg of t
  | Abs of t
  | And of t * t
  | Or of t * t
  | Xor of t * t
  | Not of t
  | Eq of t * t
  | Lt of t * t
  | Le of t * t
  | Mux of t * t * t  (** select (1 bit), value-if-1, value-if-0 *)
  | Resize of Fixed.rounding * Fixed.overflow * t
  | Rom_read of Rom.t * t
  | Shift_left of t * int
  | Shift_right of t * int

val id : t -> int
val fmt : t -> format
val op : t -> op

(** {1 Constructors} *)

val const : Fixed.t -> t

(** [constf fmt x] / [consti fmt n] quantize a float / embed an int. *)
val constf : format -> float -> t

val consti : format -> int -> t

(** 1-bit constants. *)
val vdd : t

val gnd : t

val input : Input.t -> t
val reg_q : Reg.t -> t
val rom : Rom.t -> t -> t

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val neg : t -> t
val abs_ : t -> t
val and_ : t -> t -> t
val or_ : t -> t -> t
val xor_ : t -> t -> t
val not_ : t -> t
val eq : t -> t -> t
val ne : t -> t -> t
val lt : t -> t -> t
val le : t -> t -> t
val gt : t -> t -> t
val ge : t -> t -> t

(** [mux2 sel a b] is [a] when [sel] is 1 else [b]. [sel] must be 1 bit
    wide. @raise Ocapi_error.Error with code [Internal] otherwise. *)
val mux2 : t -> t -> t -> t

(** [resize ?round ?overflow fmt e] — defaults [Truncate]/[Wrap], the
    hardware bit-dropping behaviour. *)
val resize : ?round:Fixed.rounding -> ?overflow:Fixed.overflow -> format -> t -> t

val shift_left : t -> int -> t
val shift_right : t -> int -> t

(** {1 Operators} — the fig 3 embedding. *)

val ( +: ) : t -> t -> t
val ( -: ) : t -> t -> t
val ( *: ) : t -> t -> t
val ( &: ) : t -> t -> t
val ( |: ) : t -> t -> t
val ( ^: ) : t -> t -> t
val ( ~: ) : t -> t
val ( ==: ) : t -> t -> t
val ( <>: ) : t -> t -> t
val ( <: ) : t -> t -> t
val ( <=: ) : t -> t -> t
val ( >: ) : t -> t -> t
val ( >=: ) : t -> t -> t

(** {1 Analysis} *)

(** [depth_first_seen e ~f acc] folds [f] over every node reachable from
    [e] exactly once, children before parents (postorder). *)
val fold_dag : t -> init:'a -> f:('a -> t -> 'a) -> 'a

(** Inputs the value of [e] combinationally depends on (register reads
    terminate the traversal). *)
val input_deps : t -> Input.t list

(** Registers read anywhere under [e]. *)
val regs_read : t -> Reg.t list

(** Registers read anywhere under [roots], from one walk that visits a
    node several roots share once: {!regs_read} of each root in turn,
    less the reads an earlier root's walk already passed.  Once
    duplicates are dropped, the first occurrences come in the same
    order. *)
val regs_read_all : t list -> Reg.t list

(** Number of nodes in the DAG rooted at [e]. *)
val node_count : t -> int

val pp : Format.formatter -> t -> unit

(** {1 Evaluation} *)

module Env : sig
  type nonrec t

  val create : unit -> t
  val bind : t -> Input.t -> Fixed.t -> unit
  val find : t -> Input.t -> Fixed.t option
  val is_bound : t -> Input.t -> bool
end

(** [eval env e] computes the value of [e]: inputs are read from [env],
    register reads from the registers' current values.  It builds a
    one-root {!Plan} and evaluates it; code that evaluates the same
    expression every cycle keeps the plan instead.
    @raise Ocapi_error.Error with code [Internal] on an unbound input. *)
val eval : Env.t -> t -> Fixed.t

(** {1 Evaluation plans}

    A plan is the DAG under a list of roots, numbered densely once: each
    node holds its children's numbers, and each root lists the nodes
    under it that read an input.  Nothing of it changes from cycle to
    cycle, so the simulators build a plan once and then only evaluate:
    an {!Sfg} keeps one over its outputs then its register assignments,
    which the interpreter and the RTL back end both evaluate, and an
    {!Fsm} one per guard.  Their owners build them on first use (never
    when a design is constructed; an RTL elaboration uses every SFG's
    plan at once, the interpreter every SFG's on its first cycle) and
    keep them in an [Atomic.t]: two domains racing to build one build
    the same immutable value.

    A plan reads an input one way only: from a value seeded into the
    node that reads it, before or during a firing ({!memo} seeds from
    an environment, {!seed} one input's nodes as its token arrives).
    So a firing's memo can take tokens as they arrive, and the
    interpreter keeps one memo for a whole cycle, evaluating the roots
    whose inputs have arrived ({!ready}) as it goes.

    Evaluation order: {!eval} on a {!memo} computes a root's cone in the
    order of the recursive expression walk it replaces.  Each operator
    requests its operands through the same application as that walk, so
    in the order OCaml evaluates the application's arguments, and a mux
    requests its select, then its two branches.  Nodes that earlier
    roots of the same memo computed are reused.  Evaluating roots [r1],
    [r2], ... of one memo therefore gives the values, or raises the first
    error, that evaluating the expressions one after another with one
    shared table of computed nodes gives. *)
module Plan : sig
  type signal := t
  type t

  (** [create roots] numbers the DAG under [roots]; root [k] is the
      [k]th of the list. *)
  val create : signal list -> t

  (** Number of distinct nodes. *)
  val size : t -> int

  (** [read_nodes t p] — the nodes of [t] that read an input satisfying
      [p], in node order: what {!seed} writes when that input's token
      arrives. *)
  val read_nodes : t -> (Input.t -> bool) -> int array

  (** [root_deps t k] — the nodes under root [k] that read an input. *)
  val root_deps : t -> int -> int array

  (** [cached cell roots x] is the plan in [cell]; on first use it is
      built over [roots x] and stored there. *)
  val cached : t option Atomic.t -> ('a -> signal list) -> 'a -> t

  (** One firing's evaluation state: the plan, and the input values
      seeded and node values computed so far. *)
  type memo

  (** [start t] starts a firing: nothing is seeded or computed yet.
      Register reads see the registers' values when a node is first
      computed. *)
  val start : t -> memo

  (** [memo t env] is {!start}, with the read node of every input [env]
      binds seeded with its value. *)
  val memo : t -> Env.t -> memo

  (** [seed m nodes v] seeds read nodes [nodes] (from {!read_nodes})
      with [v], a token that has arrived. *)
  val seed : memo -> int array -> Fixed.t -> unit

  (** [clear m] forgets every seeded input and computed node: [m]
      holds no value and starts another firing, as {!start} would. *)
  val clear : memo -> unit

  (** [ready m k]: is every input read under root [k] seeded, so that
      {!eval} of [k] reads no missing token? *)
  val ready : memo -> int -> bool

  (** [eval m k] is the value of root [k], computing what of its cone
      this firing has not computed yet.
      @raise Ocapi_error.Error with code [Internal] on an input read not
      seeded, and whatever the operators raise ([Overflow] for a resize
      that shifts a nonzero mantissa by more than 62 bits). *)
  val eval : memo -> int -> Fixed.t
end
