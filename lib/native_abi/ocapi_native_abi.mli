(** Plugin ABI between the host and a dynlinked generated simulator.

    The native engine compiles the source produced by [Emit.emit_plugin]
    with [ocamlfind ocamlopt -shared] and loads the resulting [.cmxs]
    with [Dynlink.loadfile_private], once per artifact per process.  A
    privately loaded module cannot export values through the normal
    module system, so the handoff runs through this tiny,
    dependency-free library, linked into the host and visible (via its
    [.cmi]) to the out-of-process compile: the plugin's toplevel calls
    {!register} with its factory; the host {!clear}s the slot, loads the
    [.cmxs], {!take}s the factory and keeps it, calling it once per
    session for a fresh, private simulator instance.

    The record exposes an instance's raw state — value/stamp arrays,
    the cycle counter, FSM state words, inlined RAM images with their
    staged writes, and kernel hook slots — everything the instance's
    [p_reset] re-initializes bar the selected-transition cells each
    step writes before reading, so the host can checkpoint it — in the
    slot layout of the program [Compiled_sim.lower] produced, the same
    layout the compiled engine runs: nets first in [Cycle_system.nets]
    order, then current/next word pairs per register in [all_regs]
    order, then the expression nodes.  The host finds its slots in
    that program's tables.  The layout is versioned by
    [Emit.emitter_version], which is folded into the [.cmxs] cache key,
    so a stale plugin can never be paired with a newer host.

    Loads happen under a single global mutex in [Ocapi_native] (engine
    sweeps create sessions from several domains at once), so the
    handoff slot needs no locking of its own. *)

(** Everything the host needs to drive one simulator instance.
    Arrays are the plugin's own working state, mutated in place by
    [p_step] — the host writes stimuli into [p_values]/[p_stamps]
    before each step and reads probes after it. *)
type plugin = {
  p_values : int array;
      (** one unboxed word per net slot and register word: the emitter
          renders only programs whose width-bound analysis proves every
          mantissa fits an OCaml [int] *)
  p_stamps : int array;  (** last cycle each net was driven, [-1] never *)
  p_cycle : int ref;  (** current cycle, incremented by [p_step] *)
  p_states : int array;  (** FSM state per timed component, in order *)
  p_rams : int array array;
      (** the inlined RAMs' images, in [Compiled_sim.pg_rams] order *)
  p_ram_staged : int ref array;
      (** per inlined RAM, the word address of the write staged by the
          current step, [-1] none *)
  p_kernels : (unit -> unit) array;
      (** untimed-kernel fire hooks, one per kernel in
          [untimed_components] order; installed by the host after load
          and called by generated code at its topological position *)
  p_kernel_commits : (unit -> unit) array;
      (** untimed-kernel commit hooks, called after every fire hook *)
  p_step : unit -> unit;  (** run one clock cycle *)
  p_reset : unit -> unit;
      (** reset registers/states/stamps/cycle to power-on *)
}

(** Raised by generated code on a fixed-point overflow check (the
    analogue of the interpreted engine's structured [Overflow]
    diagnostic); the host converts it back to [Ocapi_error.Error]. *)
exception Native_overflow of string

(** Called by the plugin's toplevel to publish its instance factory. *)
val register : (unit -> plugin) -> unit

(** Empty the handoff slot before a load, so a plugin that fails to
    register is detected as corrupt rather than yielding a stale
    factory. *)
val clear : unit -> unit

(** Claim the factory published by the most recent load, emptying the
    slot; [None] if the loaded module never called {!register}. *)
val take : unit -> (unit -> plugin) option
