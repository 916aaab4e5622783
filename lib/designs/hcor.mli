(** HCOR — the DECT header correlator processor.

    Table 1's first design: a ~6 Kgate processor that watches the
    received sample stream for the DECT S-field sync word.  The
    architecture follows the combined control/data processing model of
    section 3: one clock-cycle-true component whose datapath holds

    - a 16-deep soft-sample window (s6.4 registers) and the sliced hard
      bit window,
    - a hard correlator (XNOR + population-count tree against
      {!Dect_stimuli.sync_word}),
    - a soft correlator (add/subtract tree of the sample window signed
      by the sync pattern),
    - a signal-magnitude accumulator (AGC estimate),
    - a payload bit counter,

    and whose Mealy FSM hunts in state [search] until the registered
    hard correlation reaches the threshold, then emits payload bits in
    state [locked] until [payload_len] bits have passed (fig 2 style:
    the condition flags are registered).

    Every output port produces a token each cycle, so all simulation
    engines and the synthesized netlist can be compared cycle by cycle:
    - ["corr"]    hard correlation of the current window (u5.0),
    - ["soft"]    soft correlation (saturated to s12.4),
    - ["agc"]     windowed magnitude estimate (saturated to u12.4),
    - ["bit_out"] the sliced bit (u1.0),
    - ["locked"]  1 while emitting payload (u1.0). *)

(** Receiver sample format: s6.4 (the front-end ADC of fig 1). *)
val sample_format : Fixed.format

type t = {
  system : Cycle_system.t;
  probes : string list;  (** ["corr"; "soft"; "agc"; "bit_out"; "locked"] *)
}

(** [create ?threshold ?payload_len ~stimulus ()] builds the HCOR
    system with the given sample stimulus.  Default [threshold] is 14
    of 16; default [payload_len] is 388 (a DECT B-field + CRC).  Each
    call creates fresh registers, so instances are independent. *)
val create :
  ?threshold:int ->
  ?payload_len:int ->
  stimulus:(int -> Fixed.t option) ->
  unit ->
  t

(** [sample_stimulus samples] turns a quantized burst into a stimulus
    function ([None] once exhausted... the stream is padded with zero
    samples so it is total, which every engine requires). *)
val sample_stimulus : Fixed.t array -> int -> Fixed.t option

(** Line count of this capture's source file, counted when the library
    is built (Table 1's source size column). *)
val source_lines : unit -> int
