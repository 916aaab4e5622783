(** VCD waveform dumping.

    A practical extension beyond the paper: record the signal activity
    of a simulation and print a Value Change Dump file that any waveform
    viewer (GTKWave, Surfer) opens.  One VCD time unit is one clock
    cycle; each net becomes a wire of its carried format's width,
    holding two's-complement mantissa bits.

    The waveform is the interpreted engine's: every interconnect token
    of the three-phase scheduler, recorded into a trace with one
    column per net ([Cycle_system.trace_all]).  Rendering walks each
    net's column once, so its cost grows linearly with the cycle
    count. *)

(** [record sys ~cycles] resets the system, traces every net, runs the
    interpreter for [cycles] and returns the VCD text; the system is
    reset again afterwards. *)
val record : Cycle_system.t -> cycles:int -> string
