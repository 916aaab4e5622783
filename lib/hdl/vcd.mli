(** VCD waveform dumping.

    A practical extension beyond the paper: record the signal activity
    of a simulation and print a Value Change Dump file that any waveform
    viewer (GTKWave, Surfer) opens.  One VCD time unit is one clock
    cycle; each net becomes a wire of its carried format's width,
    holding two's-complement mantissa bits.

    Any of the three in-process engines can produce the waveform:
    - {!Interp}: every interconnect token of the three-phase scheduler;
    - {!Compiled}: every net carrying a token in the compiled program;
    - {!Rtl_engine}: every elaborated RTL signal that changed value —
      including clock, state and register shadow signals, so this dump
      is the most detailed of the three. *)

type engine = Interp | Compiled | Rtl_engine

(** [record ?engine sys ~cycles] resets the system, traces the chosen
    engine's signals (default {!Interp}), runs it for [cycles] and
    returns the VCD text. *)
val record : ?engine:engine -> Cycle_system.t -> cycles:int -> string

(** [write ?engine sys ~cycles ~path] — same, written to a file. *)
val write : ?engine:engine -> Cycle_system.t -> cycles:int -> path:string -> unit
