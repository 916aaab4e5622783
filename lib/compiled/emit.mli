(** OCaml source emission, the second back end of the compiled
    simulator (fig 7: "a C++ description can be regenerated to yield an
    application-specific and optimized compiled code simulator").

    [Compiled_sim.lower] is the one lowering of a design; its closure
    back end runs the program in-process, and this module renders the
    same program — slot layout, guards, blocks, commits, B-phase
    schedule with its inlined RAMs — as OCaml text.  Constants render
    as literals at their uses; register reads and shifts read their
    source slot, as in the closure back end.  When the width-bound
    analysis proves every intermediate mantissa fits an unboxed 63-bit
    [int], the text runs over native [int] words; otherwise over
    [int64] cells, semantically identical on any width.

    One rendered body (value store, [step], [reset]) serves two shapes:

    - {!emit_plugin} — the body plus a registration through
      [Ocapi_native_abi], for the native engine; stimuli, probes, fault
      pokes and host kernels stay on the host side of the ABI.
    - {!emit_standalone} — the body plus a small driver with the
      stimuli embedded as literals, depending only on the standard
      library; it prints one line per probe token so its behaviour can
      be diffed against the in-process engines.

    Both raise [Ocapi_error.Error] with code [Unsupported] on designs
    outside the lowering's scope, and {!emit_standalone} also on host
    kernels (untimed kernels carrying no model). *)

val emitter_version : int
(** Bumped whenever the emitted plugin text, the slot-layout contract
    or the [Ocapi_native_abi] record shape changes incompatibly; the
    native engine folds it into the [.cmxs] cache key so stale
    artifacts are never paired with a newer host. *)

(** What the native host needs to wire a compiled plugin into a
    session, marshalled next to the [.cmxs] artifact: a projection of
    the lowered program's tables.  Slots address the plugin's value
    store, stamps its token-presence array. *)
type plugin_meta = {
  pm_version : int;  (** {!emitter_version} at emission time *)
  pm_statements : int;
      (** [Compiled_sim.pg_statements] — the session's static size *)
  pm_stims : (string * int * int) array;  (** [pg_stims] *)
  pm_probes : (string * int * int * Fixed.format) array;  (** [pg_probes] *)
  pm_regs : Compiled_sim.register array;  (** [pg_regs] *)
  pm_comps : (string * int) array;
      (** timed component name and state count, in system order *)
  pm_kernels : Compiled_sim.kernel array;
      (** [pg_kernels]: the host kernels, indexing the plugin's hook
          arrays *)
}

val emit_plugin : Cycle_system.t -> string * plugin_meta
(** [emit_plugin sys] renders [sys] as the source of a dynlinkable
    plugin module plus its {!plugin_meta}.  The module's only
    dependency is [Ocapi_native_abi]; on load it registers an
    [Ocapi_native_abi.plugin] exposing its state arrays and step/reset
    entry points. *)

val emit_standalone : Cycle_system.t -> cycles:int -> string
(** [emit_standalone sys ~cycles] renders [sys] as a self-contained
    program simulating [cycles] cycles from power-on and printing
    ["<cycle> <probe> <mantissa>"] for every probe token.  Each primary
    input's column is read over the cycle range at emission time and
    embedded as its mantissas beside a presence string; a cycle without
    a token leaves the input's net as it was, as in the in-process
    engines. *)
