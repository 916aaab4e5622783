(** Structured engine diagnostics.

    Every simulation engine of the environment can fail: the three-phase
    scheduler deadlocks, the gate-level simulator oscillates, the RT
    kernel exhausts its delta budget, fixed-point resizes overflow.  For
    interactive use a bare exception string is enough; for a 10k-run
    fault-injection campaign it is not — a single non-settling netlist
    must degrade to a {e classified per-run record}, not abort the whole
    campaign.

    This module is the shared currency of such failures: a diagnostic
    record carrying a machine-readable code, a severity, the engine and
    source construct it arose in, the clock cycle, and the culprit nets,
    plus one exception ({!Error}) wrapping it.  It sits upstream of
    every library, and {!Error} is the one exception they declare:
    [fixed], [signal], [fsm], [dataflow], [sched], [compiled], [rtl],
    [netlist], [synth] and the layers above raise it where a failure
    happens, labelled with their own engine name and with the cycle and
    construct they know.  Campaign drivers record it as a per-run
    diagnostic.  Any other exception ([Invalid_argument] on a misused
    API, a stray [Failure]) is a bug and propagates. *)

(** How bad: [Warning] is advisory, [Error] aborted one run or request,
    [Fatal] means the engine state is unusable afterwards. *)
type severity = Warning | Error | Fatal

(** Machine-readable failure classes, spanning all engines. *)
type code =
  | Deadlock  (** scheduler: no component can make progress *)
  | Did_not_settle  (** gate-level: the settle budget ran out (oscillation) *)
  | Delta_overflow  (** RT kernel: delta-cycle budget exhausted *)
  | Overflow  (** fixed-point overflow (resize/create) *)
  | Invalid_state  (** FSM driven into an unencoded state *)
  | Watchdog  (** a configured cycle/settle budget was exceeded *)
  | Timeout
      (** a request exceeded its wall-clock deadline (runner jobs with
          a [timeout]; the computation was abandoned cooperatively) *)
  | Cancelled  (** a running job was stopped by an aborting job runner *)
  | Worker_crashed
      (** a worker {e process} died mid-job — killed by a signal
          (segfault, OOM kill, chaos injection) or reaped past its
          heartbeat/deadline backstop by the campaign service, which
          retries the job under its bounded retry budget *)
  | Retries_exhausted
      (** a poisoned job: it killed every worker that attempted it,
          exhausting the retry budget, and is resolved [Failed]
          instead of being requeued forever *)
  | Overloaded
      (** a submission was rejected by bounded-queue backpressure:
          the service's pending queue is at capacity, and rejecting
          beats growing without limit *)
  | Unsupported  (** construct outside an engine's subset *)
  | Native_unavailable
      (** the native (dynlinked) engine cannot run here: no
          [ocamlfind]/[ocamlopt] toolchain on [PATH], no native
          [Dynlink] support, or the plugin ABI interface could not be
          located.  Sessions degrade to the interpreted compiled
          program; [Ocapi_native.availability] reports this code *)
  | Shared_state
      (** a design object still owned by a live engine session (or by
          another worker domain) was handed to a second consumer — e.g.
          a [~replicate] factory returning the campaign system itself *)
  | Mismatch
      (** a differential check found two runs of one design
          disagreeing: two engines, or the design and its optimized
          netlist, on a probe token; two fault campaigns on their
          classifications *)
  | Internal  (** violated internal invariant *)

type t = {
  e_code : code;
  e_severity : severity;
  e_engine : string;  (** "sched" | "compiled" | "rtl" | "gates" | ... *)
  e_construct : string option;  (** component / FSM / register / bus *)
  e_cycle : int option;  (** clock cycle of the failure, when known *)
  e_nets : string list;  (** culprit nets or signals *)
  e_message : string;
}

exception Error of t

(** [make code ~engine msg] builds a diagnostic; optional context
    defaults to absent/empty and severity to {!Error}. *)
val make :
  ?severity:severity ->
  ?construct:string ->
  ?cycle:int ->
  ?nets:string list ->
  code ->
  engine:string ->
  string ->
  t

(** [fail code ~engine fmt ...] formats a message and raises {!Error}. *)
val fail :
  ?severity:severity ->
  ?construct:string ->
  ?cycle:int ->
  ?nets:string list ->
  code ->
  engine:string ->
  ('a, Format.formatter, unit, 'b) format4 ->
  'a

(** [check_state ~engine ~construct ~cycle ~states s] is [s] when it is
    one of the encoded states [0 .. states - 1] of FSM [construct], and
    otherwise raises {!Error} with code [Invalid_state]: the one
    diagnostic of every engine's FSM-state poke and decode. *)
val check_state :
  engine:string -> construct:string -> cycle:int -> states:int -> int -> int

(** [check_count ~engine what n] returns when [n >= 0], and otherwise
    raises {!Error} with code [Unsupported], naming [what]: the check
    of every count argument (cycles, fault caps, design counts) at the
    library entry points. *)
val check_count : engine:string -> string -> int -> unit

val code_label : code -> string
val severity_label : severity -> string

(** One-line rendering:
    [engine/construct: code (cycle N): message [nets: a, b, ...]]. *)
val pp : Format.formatter -> t -> unit

val to_string : t -> string
