(** Differential fuzzing of the engine stack.

    The reproduction's correctness story rests on one claim: every
    engine — interpreted, compiled, native, event-driven RT and the
    synthesized gate netlist — computes the same probe histories for
    the same captured design.  Until now that claim was checked against
    two friendly designs (HCOR, DECT) and the small random-DAG
    properties of the test suite.  This module turns those properties
    into a standing subsystem:

    - {!Spec} is a {e serializable genome}: a seeded generator draws a
      design recipe (fixed-point formats, registered expression DAGs,
      a multi-state FSM controller, optional RAM cell and ROM tables,
      probes, stimuli seeds, a cycle budget) and {!Spec.build} turns a
      recipe into a fresh [Cycle_system.t].  Generation is a pure
      function of the seed, so a corpus entry carrying the genome
      replays bit-exactly — {!Spec.build} twice gives the same
      [Cycle_system.digest].
    - {!check_spec} runs one genome through every requested engine of
      the {!Ocapi_engine} registry, diffs probe histories against the
      first engine, cross-checks the [Netopt]-optimized netlist
      through {!Synthesize.verify}, and (on deep checks)
      cross-checks seeded SEU classifications between two engines and
      the determinism of a sampled stuck-at campaign.  Every
      divergence is reported as a structured {!Ocapi_error.t}.
    - {!shrink} greedily minimizes a failing genome — halving the
      cycle budget, dropping the RAM / ROMs / FSM states / probes /
      registers / inputs, hoisting expression children — re-running
      the check after each cut, until no smaller failing genome is
      found.  Deterministic: same genome and check, same reproducer.
    - {!Corpus} reads and writes replayable JSONL reproducer entries
      (genome + generator seed + design digest + the original
      finding), the regression corpus the nightly CI campaign carries
      across runs.

    All randomness is seed-derived ([Random.State]); campaign reports
    are canonical JSON with no wall-clock content, so a [--domains N]
    run is byte-identical to the serial run. *)

(** {1 Design genomes} *)

module Spec : sig
  (** A serializable fixed-point format. *)
  type fmt = { f_signed : bool; f_width : int; f_frac : int }

  (** A serializable expression tree over the genome's leaves.  The
      operator set mirrors the random-DAG properties of the test
      suite (the feature surface every engine supports), plus ROM
      reads. *)
  type expr =
    | E_const of int  (** mantissa, quantized into the context format *)
    | E_input of int  (** primary input index *)
    | E_reg of int  (** data register index *)
    | E_ram_q of int  (** RAM read-data leaf; payload is the data width *)
    | E_bin of string * expr * expr
        (** ["add" | "sub" | "and" | "or" | "xor" | "eq"] *)
    | E_un of string * expr  (** ["neg" | "not" | "abs"] *)
    | E_mux of expr * expr * expr * expr  (** [mux2 (lt a b) c d] *)
    | E_resize of fmt * string * string * expr
        (** target format, rounding name, overflow name *)
    | E_rom of int * expr  (** ROM table index, address expression *)

  (** One FSM state: what the state's SFG drives.  [ss_outs] has one
      expression per output probe, [ss_assigns] one per data register,
      [ss_flag] the 1-bit guard flag driving the state transition. *)
  type state_spec = { ss_outs : expr list; ss_assigns : expr list; ss_flag : expr }

  (** The optional RAM cell.  Control expressions ([addr]/[wdata]/[we])
      read registers and constants only, so the timed component can
      produce the RAM's tokens in the register-driven phase — the
      DECT-style timed/untimed loop without deadlock. *)
  type ram_spec = {
    rs_words : int;
    rs_data : fmt;
    rs_addr : expr;
    rs_wdata : expr;
    rs_we : expr;
  }

  type t = {
    sp_seed : int;  (** the generator seed this genome was drawn from *)
    sp_inputs : fmt list;  (** primary input formats *)
    sp_regs : fmt list;  (** data register formats *)
    sp_outs : fmt list;  (** output probe formats *)
    sp_roms : (fmt * int list) list;  (** ROM tables (format, mantissas) *)
    sp_states : state_spec list;  (** FSM states, visited cyclically *)
    sp_ram : ram_spec option;
    sp_cycles : int;  (** simulation budget of the differential check *)
    sp_stim_seed : int;  (** seed of the per-cycle input stimuli *)
  }

  (** [generate ~seed ()] draws a genome.  Pure in [seed] (and the
      optional [size] knob, 1–4, default 2): the same arguments always
      return the same genome. *)
  val generate : ?size:int -> seed:int -> unit -> t

  (** Materialize the genome as a fresh system (new registers, inputs,
      ROMs, RAM store).  Deterministic: two builds of one genome have
      equal [Cycle_system.digest]s and independent state. *)
  val build : t -> Cycle_system.t

  (** [Cycle_system.digest] of a fresh {!build}. *)
  val digest : t -> string

  (** Structural size: expression nodes plus weighted component
      counts plus the cycle budget.  Every shrink step strictly
      decreases it. *)
  val size : t -> int

  val to_json : t -> Ocapi_obs.Json.t
  val of_json : Ocapi_obs.Json.t -> (t, string) result
end

(** {1 Differential checks} *)

(** One divergence: which cross-check tripped (["engines"],
    ["opt-equivalence"], ["seu-cross"], ["stuck-determinism"]) and the
    structured diagnostic pinning the first point of disagreement. *)
type finding = { f_check : string; f_error : Ocapi_error.t }

val finding_json : finding -> Ocapi_obs.Json.t

(** The engine roster a check runs by default: every registered engine,
    in registration order, minus the self-test's injected buggy engine. *)
val default_engines : unit -> string list

(** [check_spec spec] builds the genome and runs the differential
    checks:

    - {b engines}: every engine in [engines] (default: the whole
      registry, in registration order) simulates the design for
      [spec.sp_cycles] cycles; probe histories are diffed against the
      first engine's.  An engine stopping with a structured diagnostic
      is a recorded outcome, not an abort — but then {e every} engine
      must stop with the same error code.
    - {b opt-equivalence} (when the gate engine is in [engines]): the
      behavioral root against the [lower-to-gate] + [optimize-gates]
      netlist through [Synthesize.verify ~optimize:true]; the first
      mismatching token, by cycle, names the probe and the cycle.
    - {b seu-cross} / {b stuck-determinism} (when [deep], default
      [false]): a small seeded SEU campaign, checkpointed, on the
      interpreted and compiled engines must agree run for run with the
      same schedule replayed from reset on the interpreted engine
      ([Ocapi_fault.seu_campaign_from_reset]), and a sampled stuck-at
      campaign re-run under the same seed must reproduce its report
      byte for byte.

    Returns the findings, oldest check first; [[]] means the stack
    agrees on this design. *)
val check_spec : ?engines:string list -> ?deep:bool -> Spec.t -> finding list

(** {1 Shrinking} *)

(** [shrink ~check spec] greedily minimizes a genome that [check]
    reports as failing (non-empty finding list): at each step the
    first strictly smaller candidate that still fails is adopted;
    candidates are tried in a fixed order (cycle halving, RAM / ROM /
    state / probe / register / input removal, expression hoisting and
    zeroing), so the reproducer is deterministic.  Returns [spec]
    unchanged if [check spec] is empty. *)
val shrink : check:(Spec.t -> finding list) -> Spec.t -> Spec.t

(** {1 Reproducer corpus} *)

module Corpus : sig
  (** One replayable reproducer: the genome, where it came from, what
      it tripped.  [ce_digest] is the design digest the genome must
      rebuild to — replay verifies it before re-checking. *)
  type entry = {
    ce_seed : int;  (** generator seed of the original campaign draw *)
    ce_digest : string;
    ce_engines : string list;  (** engines the check ran *)
    ce_check : string;  (** the finding's check kind *)
    ce_detail : string;  (** human summary of the original finding *)
    ce_spec : Spec.t;
  }

  val entry_json : entry -> Ocapi_obs.Json.t
  val entry_of_json : Ocapi_obs.Json.t -> (entry, string) result

  (** [load path] reads a JSONL corpus ([#] comments and blank lines
      skipped).  A final line that is not valid JSON, torn by a run
      killed mid-append, is dropped.  [Error] is a path that cannot be
      read; [Ok (Error _)] names the first malformed line.  A missing
      file is an empty corpus. *)
  val load : string -> ((entry list, string) result, string) result

  (** [append path entries] appends entries as JSONL lines, one
      {!Ocapi_obs.File.append_line} each (creating the file and its
      directories as needed). *)
  val append : string -> entry list -> (unit, string) result
end

(** {1 Campaigns} *)

(** Replay outcome of one corpus entry. *)
type replay = {
  rp_entry : Corpus.entry;
  rp_digest_ok : bool;  (** genome rebuilt to the recorded digest *)
  rp_findings : finding list;  (** [[]] = the historical bug stays fixed *)
}

(** One fresh generated design's outcome. *)
type design_result = {
  dr_index : int;
  dr_seed : int;  (** derived per-design generator seed *)
  dr_digest : string;
  dr_size : int;
  dr_cycles : int;
  dr_findings : finding list;
  dr_shrunk : (Spec.t * string * int) option;
      (** minimized genome, its digest, its size — when shrinking ran *)
}

type report = {
  fz_seed : int;
  fz_count : int;
  fz_engines : string list;
  fz_deep : bool;
  fz_replays : replay list;
  fz_results : design_result list;
  fz_divergent : int;  (** fresh designs with findings *)
  fz_replay_failures : int;  (** replays failing digest or re-check *)
}

(** [fuzz ~seed ~count ()] replays [corpus] (oldest first), then draws
    and checks [count] fresh genomes with per-design seeds derived
    from [seed].  Failing designs are shrunk when [shrink_failures]
    (default [true]).  [domains] (default 1) distributes designs over
    an {!Ocapi_parallel} pool; results are merged by index, so the
    report is bit-identical to the serial run for any value.
    [progress] is called with a task index before each design (corpus
    replays first); it may raise to abandon the campaign — the batch
    deadline hook.
    @raise Ocapi_error.Error with code [Unsupported] on a negative
    [count]. *)
val fuzz :
  ?engines:string list ->
  ?deep:bool ->
  ?shrink_failures:bool ->
  ?size:int ->
  ?domains:int ->
  ?corpus:Corpus.entry list ->
  ?progress:(int -> unit) ->
  seed:int ->
  count:int ->
  unit ->
  report

(** Corpus entries for the report's shrunk reproducers (and unshrunk
    failures when shrinking was off). *)
val report_reproducers : report -> Corpus.entry list

(** Canonical JSON: no wall-clock or host content; byte-identical
    across [--domains] values. *)
val report_json : report -> Ocapi_obs.Json.t

val pp_report : Format.formatter -> report -> unit

(** {1 Self test}

    [register_buggy_engine ()] registers (idempotently) a deliberately
    broken engine under the returned name: it reuses the interpreted
    engine but flips the low mantissa bit of every probe token from
    cycle 3 on.  Running {!fuzz} with [engines = [baseline; buggy]]
    must therefore produce findings and shrunk reproducers — the
    harness proving it actually catches an injected engine bug. *)
val register_buggy_engine : unit -> string
