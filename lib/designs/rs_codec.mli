(** RS — a parameterized Reed–Solomon encoder / syndrome-decoder pair.

    The third gallery design: a GF(16) shortened-RS link in the
    255,239 style, scaled to the 4-bit symbol field so the whole
    codec fits the reproduction's 62-bit mantissa budget.  Defaults
    give RS(15,11), t = 2 — the exact GF(2^4) analog of the classic
    RS(255,239) profile (narrow-sense, systematic, roots
    [alpha^1 .. alpha^2t]).

    Two clock-cycle-true components share one system:

    - {b enc} — the systematic LFSR encoder of section 3's combined
      control/data model: [2t] parity registers, the generator
      polynomial folded into per-coefficient constant-GF-multiply
      ROMs (16-entry lookup tables indexed by the feedback symbol),
      and a two-state Mealy FSM ([data]: shift the message through
      the LFSR; [parity]: flush the parity registers) sequenced by
      registered block-position flags, fig 2 style.
    - {b dec} — the syndrome front end: one Horner accumulator per
      root ([S_j <- alpha^j * S_j + r], the multiply again a constant
      ROM), restarted every block boundary, latching the
      any-syndrome-nonzero flag as the per-codeword error detector.

    The channel between them is a symbol-wise XOR error injector fed
    by the ["err"] primary input, so fault and fuzz campaigns can
    corrupt codewords deterministically.  Every output port produces
    a token each cycle:

    - ["sym"]  the transmitted code symbol (u4.0),
    - ["rx"]   the received (possibly corrupted) symbol (u4.0),
    - ["syn1"] the running first-syndrome accumulator (u4.0),
    - ["serr"] the previous block's error-detected flag (u1.0).

    The self-check property: a block with zero injected error yields
    [serr = 0] (the encoder really emits codewords with roots at
    [alpha^1..alpha^2t]); any nonzero injection in a block yields
    [serr = 1] one cycle after the block boundary. *)

(** Code symbol format: u4.0 — one GF(16) element. *)
val sym_fmt : Fixed.format

type t = {
  system : Cycle_system.t;
  probes : string list;  (** ["sym"; "rx"; "syn1"; "serr"] *)
  n : int;  (** block length [k + 2t] *)
  k : int;  (** message length *)
}

(** GF(16) product under the primitive polynomial [x^4 + x + 1]
    (exposed for the test suite's reference model). *)
val gf_mul : int -> int -> int

(** [gf_pow a e] is [a^e] in GF(16); [gf_pow 2 e] gives the powers of
    the primitive element [alpha = 2]. *)
val gf_pow : int -> int -> int

(** Generator polynomial of a [t]-error-correcting narrow-sense code:
    coefficient array of [prod_{j=1..2t} (x + alpha^j)], index = power
    of [x], monic. *)
val gen_poly : int -> int array

(** [create ?k ?t ~data_stimulus ~err_stimulus ()] builds the codec
    system.  Defaults: [k = 11], [t = 2] (so [n = 15]).  Requires
    [1 <= t <= 3] and [k + 2t <= 15].  Each call creates fresh
    registers and ROMs, so instances are independent. *)
val create :
  ?k:int ->
  ?t:int ->
  data_stimulus:(int -> Fixed.t option) ->
  err_stimulus:(int -> Fixed.t option) ->
  unit ->
  t

(** Deterministic pseudorandom message symbols (pure in [seed] and the
    cycle index). *)
val data_stimulus : ?seed:int -> unit -> int -> Fixed.t option

(** Symbol-error injector: the value 9 on every cycle congruent to
    [offset] modulo [period] (default one corrupted symbol every three
    RS(15,11) blocks), zero elsewhere.  [period = 0] never injects. *)
val err_stimulus : ?period:int -> ?offset:int -> unit -> int -> Fixed.t option

(** Line count of this capture's source file, counted when the library
    is built (Table 1's source size column). *)
val source_lines : unit -> int
