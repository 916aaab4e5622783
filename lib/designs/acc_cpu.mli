(** ACC — a small accumulator-machine CPU core with a self-checking
    ROM program.

    The fourth gallery design: where HCOR/DECT/RS are signal-path
    machines, ACC is a stored-program controller — the "complex
    control" half of the paper's ASIC mix.  One clock-cycle-true
    component holds the whole core:

    - fetch: two ROM banks ([op_rom] u4.0, [arg_rom] u8.0) indexed by
      the program counter — the DECT microcode idiom, no bit slicing
      on the fetch path;
    - execute: a mux-decoded single-cycle datapath over the
      accumulator (u8.0, wrapping), with a sticky [ok] flag written by
      the CHK instruction and an output register written by OUT;
    - memory: an 8-word {!Ram_cell} data RAM closed over the
      timed/untimed loop, its command ports ([addr]/[wdata]/[we])
      register-driven so the three-phase scheduler can produce them in
      the token-production phase.

    The 14-opcode ISA: NOP(0) LDI(1) ADD(2) SUB(3) XOR(4) LD(5) ST(6)
    JMP(7) JNZ(8) OUT(9) HALT(10) CHK(11) ADM(12, add-memory) IN(13,
    read the ["io"] primary input).  HALT freezes the architectural
    state (pc, acc, out, ok) permanently.

    Every output port produces a token each cycle:

    - ["out"] the OUT register (u8.0),
    - ["ok"]  the CHK flag (u1.0),
    - ["pc"]  the program counter (u4.0),
    - ["acc"] the accumulator (u8.0).

    The default program sums 1..5 through the data RAM with a
    count-down JNZ loop, checks the total against 15, publishes it and
    halts — so ["ok"] = 1 and ["out"] = 15 from {!check_cycles} on is
    the design's self-check. *)

(** Accumulator / data word format: u8.0. *)
val word_fmt : Fixed.format

(** Program counter format: u4.0 (16 instruction slots). *)
val pc_fmt : Fixed.format

type t = {
  system : Cycle_system.t;
  probes : string list;  (** ["out"; "ok"; "pc"; "acc"] *)
}

(** Opcode numbers, exposed so tests can assemble programs. *)

val op_nop : int
val op_ldi : int
val op_add : int
val op_sub : int
val op_xor : int
val op_ld : int
val op_st : int
val op_jmp : int
val op_jnz : int
val op_out : int
val op_halt : int
val op_chk : int
val op_adm : int
val op_in : int

(** Program ROM capacity (16) and data RAM size (8 words). *)

val rom_slots : int
val ram_words : int

(** The self-checking sum-1..5 workload described above, as
    [(opcode, argument)] pairs. *)
val default_program : (int * int) array

(** [create ?program ~io_stimulus ()] builds the core.  [program] (at
    most {!rom_slots} instructions, padded with HALT) defaults to
    {!default_program}.  Each call creates fresh registers, ROMs and a
    fresh RAM store, so instances are independent. *)
val create :
  ?program:(int * int) array ->
  io_stimulus:(int -> Fixed.t option) ->
  unit ->
  t

(** Deterministic pseudorandom bytes for the IN instruction (pure in
    [seed] and the cycle index). *)
val io_stimulus : ?seed:int -> unit -> int -> Fixed.t option

(** Cycle budget after which the default program has provably halted
    with ["ok"] = 1 and ["out"] = 15. *)
val check_cycles : int

(** Line count of this capture's source file, counted when the library
    is built (Table 1's source size column). *)
val source_lines : unit -> int
