(** OCaml source emission, the second back end of the compiled
    simulator (fig 7: "a C++ description can be regenerated to yield an
    application-specific and optimized compiled code simulator").

    [Compiled_sim.lower] is the one lowering of a design; its closure
    back end runs the program in-process, and this module renders the
    same program — slot layout, guards, blocks, commits, B-phase
    schedule with its inlined RAMs — as OCaml text.  Constants render
    as literals at their uses; register reads and shifts read their
    source slot, as in the closure back end.  When the width-bound
    analysis ({!word_mode_ok}) proves every intermediate mantissa fits
    an unboxed 63-bit [int], the text runs over native [int] words;
    otherwise over [int64] cells, semantically identical on any width.
    Plugins take only the first form; the standalone simulator takes
    either.

    One rendered body (value store, [step], [reset]) serves two shapes:

    - {!emit_plugin} — the body as a functor, plus a factory
      registered through [Ocapi_native_abi], for the native engine;
      stimuli, probes, fault pokes and host kernels stay on the host
      side of the ABI.
    - {!emit_standalone} — the body plus a small driver with the
      stimuli embedded as literals, depending only on the standard
      library; it prints one line per probe token so its behaviour can
      be diffed against the in-process engines.

    Both raise [Ocapi_error.Error] with code [Unsupported] on designs
    outside the lowering's scope, and {!emit_standalone} also on host
    kernels (untimed kernels carrying no model). *)

val emitter_version : int
(** Bumped whenever the emitted plugin text, {!plugin_flags}, the
    slot-layout contract or the [Ocapi_native_abi] record shape changes
    incompatibly; the native engine folds it into the [.cmxs] cache key
    so stale artifacts are never paired with a newer host. *)

val plugin_flags : string list
(** The [ocamlopt] flags a plugin's text is written for: only
    [-unsafe].  Every constant index the text renders was checked by
    {!emit_plugin} against the array it indexes, and every
    data-dependent read is an explicit [Array.get] or an address the
    text reduced into range.  [step] is straight-line because the text
    renders it so, not through a compiler flag. *)

val word_mode_ok : Compiled_sim.program -> bool
(** [word_mode_ok p] — does the width-bound analysis prove that every
    mantissa [p] computes, shifted and rounding intermediates included,
    fits an unboxed [int]?  A conservative fixpoint over per-slot
    magnitude bounds. *)

val emit_plugin : Cycle_system.t -> Compiled_sim.program -> string
(** [emit_plugin sys p] renders [p], [Compiled_sim.lower sys], as the
    source of a dynlinkable plugin module over unboxed [int] words,
    whose only dependency is [Ocapi_native_abi]; it raises
    [Ocapi_error.Error] with code [Unsupported] unless
    [word_mode_ok p].  The body is a generative functor, and on load
    the module registers a factory that applies it: each call
    allocates a fresh simulator instance (value store, stamps, FSM
    states, RAM images, kernel hook slots) and returns its
    [Ocapi_native_abi.plugin] record.  Its slot layout is [p]'s, so the
    host takes the session's tables from that program.  Wraps,
    saturation and rounding render inline, and [step] runs every
    component's selection, blocks and commit straight-line.  It first
    runs [Compiled_sim.check_indices p], so a program naming an index
    outside the array it indexes raises [Ocapi_error.Error] with code
    [Internal] before the width analysis reads its slots. *)

val emit_standalone : Cycle_system.t -> cycles:int -> string
(** [emit_standalone sys ~cycles] renders [sys] as a self-contained
    program simulating [cycles] cycles from power-on and printing
    ["<cycle> <probe> <mantissa>"] for every probe token.  Each primary
    input's column is read over the cycle range at emission time and
    embedded as its mantissas beside a presence string; a cycle without
    a token leaves the input's net as it was, as in the in-process
    engines. *)
