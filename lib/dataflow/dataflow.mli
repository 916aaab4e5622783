(** Untimed data-flow processes and their scheduler.

    At the system level, processes execute with data-flow simulation
    semantics (paper section 2): a process is an iterative behaviour
    that reads its inputs at the start of an iteration and produces its
    outputs at the end; execution can start as soon as the required
    input values are available ("firing rule", after Lee &
    Messerschmitt's SDF).  A system containing only untimed blocks is
    simulated by the data-flow scheduler of this module; mixed systems
    use {e the cycle scheduler} (library [ocapi_sched]), which embeds
    the same process kernels. *)

(** {1 Process kernels} *)

module Kernel : sig
  (** The executable part of an untimed process: a firing rule (tokens
      required per input port, produced per output port) plus a
      behaviour function.  Behaviours may carry state in their closure. *)

  (** A declarative description of a kernel's complete behaviour, for
      kernels whose semantics fit a closed form.  A kernel carrying a
      model {e guarantees} that its closures ([k_ready], [k_behavior],
      [k_commit], [k_reset]) implement exactly the model's semantics
      with the default always-true firing rule.  Back ends may then
      bypass the closures entirely and inline the model, keeping
      results bit-identical while avoiding the per-firing boxing of the
      closure interface: the native engine's emitter and the compiled
      engine fire it against their own RAM store, and the gate lowering
      maps it to a RAM macro. *)
  type model =
    | Ram_model of {
        words : int;
        data_fmt : Fixed.format;
        addr_port : string;
        wdata_port : string;
        we_port : string;
        rdata_port : string;
      }
        (** A single-port synchronous RAM ([Ram_cell.kernel]'s
            contract): per firing, [rdata_port] produces the
            {e pre-write} word at [addr_port] (index taken modulo
            [words], wrapped positive); when [we_port] is true the
            [wdata_port] token — resized to [data_fmt] with truncation
            and wrap-around — is staged and applied by the commit
            phase.  Reset zeroes the store. *)

  (** A copy of a kernel's internal state, taken by its
      [k_snapshot] hook: [sn_restore] puts the copy back, [sn_matches]
      tells whether the current state equals it. *)
  type snapshot = { sn_restore : unit -> unit; sn_matches : unit -> bool }

  type t = {
    k_name : string;
    k_inputs : (string * int) list;  (** port name, tokens consumed *)
    k_outputs : (string * int) list;  (** port name, tokens produced *)
    k_ready : unit -> bool;
        (** extra firing condition beyond token availability; lets
            finite sources stop firing *)
    k_formats : (string * Fixed.format) list;
        (** optional port formats; required by static back ends (the
            compiled simulator and HDL generation), ignored by the
            dynamic schedulers *)
    k_reset : unit -> unit;
        (** restore internal state (e.g. RAM contents) to power-on;
            called by the simulation engines' reset *)
    k_commit : unit -> unit;
        (** commit staged state changes at the end of the clock cycle.
            Behaviours with internal state (e.g. RAM writes) must stage
            changes in [k_behavior] and apply them here: the event-driven
            RT engine may execute [k_behavior] several times per cycle
            while signals settle, and only the final execution's staging
            may take effect. *)
    k_behavior : (string * Fixed.t list) list -> (string * Fixed.t list) list;
        (** consumed tokens by port -> produced tokens by port *)
    k_model : model option;
        (** declarative equivalent of the closures, when one exists *)
    k_snapshot : (unit -> snapshot) option;
        (** copies everything [k_reset] re-initializes.  A kernel with
            internal state and no hook cannot be copied: an engine
            session over it has no checkpoints. *)
  }

  val create :
    string ->
    ?ready:(unit -> bool) ->
    ?formats:(string * Fixed.format) list ->
    ?commit:(unit -> unit) ->
    ?reset:(unit -> unit) ->
    ?model:model ->
    ?snapshot:(unit -> snapshot) ->
    inputs:(string * int) list ->
    outputs:(string * int) list ->
    ((string * Fixed.t list) list -> (string * Fixed.t list) list) ->
    t

  (** [snapshot_all ks] is one hook copying every kernel of [ks], or
      [None] when one of them carries no hook. *)
  val snapshot_all : t list -> (unit -> snapshot) option

  (** Declared format of a port.
      @raise Ocapi_error.Error with code [Internal] when absent. *)
  val port_format : t -> string -> Fixed.format

  (** [map1 name f] : one token in on ["in"], one out on ["out"],
      stateless. *)
  val map1 : string -> (Fixed.t -> Fixed.t) -> t

  (** [source name values] produces the [values] one per firing on
      ["out"], then stops firing (rule never satisfied again). *)
  val source : string -> Fixed.t list -> t

  (** [sink name] consumes one token per firing on ["in"] and records it;
      [drained] returns everything consumed so far, oldest first. *)
  val sink : string -> t * (unit -> Fixed.t list)

  (** Validates that declared behaviour production matches the declared
      rates on one trial firing result. *)
  val validate_production : t -> (string * Fixed.t list) list -> unit
end

(** {1 Graphs} *)

type t
(** A data-flow graph: processes connected by FIFO channels. *)

type process
type channel

val create : string -> t
val add_process : t -> Kernel.t -> process

(** [connect t (p1, "out") (p2, "in")] adds a FIFO from an output port
    of [p1] to an input port of [p2].
    @raise Ocapi_error.Error with code [Internal] if either port does
    not exist on its kernel, or the input port is already driven. *)
val connect :
  t -> process * string -> process * string -> channel

(** [initial_tokens t ch values] pre-loads a channel (data-flow delay /
    the "initial tokens" of section 4). *)
val initial_tokens : t -> channel -> Fixed.t list -> unit

val name : t -> string
val processes : t -> process list
val process_name : process -> string

(** Tokens currently queued on a channel. *)
val channel_depth : t -> channel -> int

(** {1 Scheduling} *)

type run_stats = {
  firings : (string * int) list;  (** per process, in graph order *)
  steps : int;  (** total firings *)
  deadlocked : bool;
      (** true when unconsumed tokens remain but no firing rule is
          satisfiable — the "apparent deadlock" situation of section 4 *)
}

(** [run ?max_firings t] repeatedly scans the processes and fires any
    whose rule is satisfied, until nothing can fire or the budget is
    exhausted. *)
val run : ?max_firings:int -> t -> run_stats

(** [fireable t p] — is the firing rule of [p] currently satisfied? *)
val fireable : t -> process -> bool

(** Fire a single process.
    @raise Ocapi_error.Error with code [Internal] if not fireable. *)
val fire : t -> process -> unit

(** {1 SDF analysis} *)

(** The repetition vector of a consistent synchronous-data-flow graph:
    the smallest positive integer firing counts that leave every channel
    depth unchanged (balance equations).  [None] when the graph is
    inconsistent (no solution) or has no processes. *)
val repetition_vector : t -> (string * int) list option

(** A single-iteration admissible schedule (process names in firing
    order, each appearing its repetition count times), or [None] if the
    graph is inconsistent or deadlocks within one iteration. *)
val single_iteration_schedule : t -> string list option
