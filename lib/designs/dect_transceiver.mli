(** The DECT radio-link transceiver ASIC — the paper's driver design.

    The architecture is fig 5: a central VLIW controller, a program
    counter with the execute/hold machinery of fig 2, 22 datapath
    blocks decoding between 2 and 57 instructions each, and 7 RAM cells
    modeled as untimed components.  The controller's instruction ROM
    holds a 320-word microprogram (16 symbol loops of 20 cycles) that
    implements the receive chain:

    {v
      ADC latch -> DC removal -> gain -> sample RAM write ->
      16-tap FIR equalization on four MAC datapaths (4 taps each,
      coefficient ROMs, one sample-RAM read per cycle) ->
      tap-sum -> slicer -> { sync correlator, CRC-16, descrambler,
      deinterleaver (ping-pong RAMs), framer (byte assembly into the
      wire-link TX/RX buffers), timing recovery, frequency estimate,
      AGC, coefficient-adaptation bookkeeping (the 57-instruction
      datapath), control/status registers, monitor }
    v}

    Every datapath output port carries a token every cycle, so all four
    simulation engines and the synthesized netlist can be compared
    token by token.

    The hold exception (fig 2): asserting the [hold_request] pin makes
    the controller distribute nop instructions, freezing the datapath
    state and storing the program counter; on release the interrupted
    instruction issues from [hold_pc].  A run with holds produces
    exactly the delayed token stream of a run without (tested). *)

val sample_format : Fixed.format

(** Cycles per symbol loop (20) and microprogram length (320). *)
val loop_length : int

val program_length : int

(** The 16 equalizer coefficients (s8.6), as implemented in the four
    MAC coefficient ROMs. *)
val equalizer_coefficients : Fixed.t array

type t = {
  system : Cycle_system.t;
  probes : string list;
  program_length : int;  (** microprogram words (320) *)
  loop_length : int;  (** cycles per symbol loop (20) *)
  instruction_counts : (string * int) list;
      (** per datapath, the decoded instruction count (2..57) *)
  ram_names : string list;  (** the 7 RAM cells *)
}

(** [create ?hold ?ctl ~stimulus ()] builds the transceiver.

    [stimulus] supplies the ADC sample per cycle (use
    {!sample_stimulus}).  [hold cycle] asserts the hold_request pin
    (default: never).  [ctl cycle] drives the control-interface input
    byte (default: constant 0).  Each call creates a fresh design. *)
val create :
  ?hold:(int -> bool) ->
  ?ctl:(int -> int) ->
  stimulus:(int -> Fixed.t option) ->
  unit ->
  t

(** Pad a quantized sample array into a total per-cycle stimulus. *)
val sample_stimulus : Fixed.t array -> int -> Fixed.t option

(** {!Synthesize.macro_of_model}, which maps the 7 RAM cells, under the
    name the [bench/perf] harness reads. *)
val macro_of_kernel : Dataflow.Kernel.t -> Synthesize.macro_spec option

(** {1 Golden model}

    A bit-exact floating... no: {e fixed}-point reference of the
    equalizer chain, mirroring the microprogram's resize points. *)

type golden = {
  g_soft : Fixed.t array;  (** FIR output per symbol (s14.6) *)
  g_bits : bool array;  (** sliced symbol decisions *)
  g_crc : int array;  (** CRC-16 register value after each bit *)
}

(** [golden_reference samples ~symbols] runs the reference chain on the
    per-cycle sample array (one symbol consumed every [loop_length]
    cycles). *)
val golden_reference : Fixed.t array -> symbols:int -> golden

(** Line count of this capture's source file, counted when the library
    is built (Table 1's source size column). *)
val source_lines : unit -> int
