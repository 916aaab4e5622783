(** Fixed-point arithmetic on quantized values.

    The paper (section 3) simulates finite-wordlength effects with a C++
    fixed-point library that models the {e quantization} of a value rather
    than its bit-vector representation.  This module is the OCaml
    counterpart: a value is an [int64] mantissa together with a format
    giving its signedness, total bit width and number of fraction bits.
    The represented real value is [mantissa * 2^-frac].

    Arithmetic comes in two flavours:
    - {e full-precision} operators ([add], [sub], [mul], [neg], ...) whose
      result format is widened so that no information is lost, and
    - [resize], which converts to a narrower format under an explicit
      rounding and overflow mode — the only place quantization happens.

    Widths are limited to {!max_width} bits so that full-precision results
    always fit an [int64] exactly. *)

(** {1 Formats} *)

type signedness = Signed | Unsigned

type format = private {
  signedness : signedness;
  width : int;  (** total number of bits, including sign bit if signed *)
  frac : int;  (** number of fraction bits; may exceed [width] or be < 0 *)
}

(** Maximum supported total width of a format (full-precision products of
    two such values still fit an [int64]). *)
val max_width : int

(** [format signedness ~width ~frac] builds a format.
    @raise Ocapi_error.Error with code [Internal] if [width < 1] or
    [width > max_width]. *)
val format : signedness -> width:int -> frac:int -> format

(** [signed ~width ~frac] = [format Signed ~width ~frac]. *)
val signed : width:int -> frac:int -> format

(** [unsigned ~width ~frac] = [format Unsigned ~width ~frac]. *)
val unsigned : width:int -> frac:int -> format

(** Format of a single bit: unsigned, width 1, no fraction bits. *)
val bit_format : format

val equal_format : format -> format -> bool
val pp_format : Format.formatter -> format -> unit
val format_to_string : format -> string

(** Smallest mantissa representable in a format. *)
val min_mantissa : format -> int64

(** Largest mantissa representable in a format. *)
val max_mantissa : format -> int64

(** {1 Values} *)

type t = private { fmt : format; mantissa : int64 }

(** Rounding mode used when [resize] discards fraction bits. *)
type rounding =
  | Truncate  (** drop bits; rounds toward negative infinity *)
  | Round_nearest  (** round to nearest, ties away from zero (upward) *)
  | Round_even  (** round to nearest, ties to even mantissa *)

(** Overflow mode used when [resize] narrows the integer part. *)
type overflow = Wrap  (** keep low bits, two's-complement wrap *) | Saturate

(** [create fmt mantissa] checks that [mantissa] is representable in [fmt].
    @raise Ocapi_error.Error with code [Overflow] otherwise. *)
val create : format -> int64 -> t

(** [of_float ?round ?overflow fmt x] quantizes the real [x].
    Default [round] is [Round_nearest], default [overflow] is [Saturate].
    It never raises: with [Saturate] the value is clamped; with [Wrap]
    it wraps. *)
val of_float : ?round:rounding -> ?overflow:overflow -> format -> float -> t

val to_float : t -> float
val mantissa : t -> int64
val fmt : t -> format

(** [zero fmt] and [one fmt] (one requires the format to represent 1.0;
    falls back to the largest representable value otherwise). *)
val zero : format -> t

val one : format -> t

(** [of_bool b] is a 1-bit value, 1 for [true]. *)
val of_bool : bool -> t

(** [is_true v] is [true] iff the mantissa is non-zero. *)
val is_true : t -> bool

(** [of_int fmt n] represents the integer [n] exactly.
    @raise Ocapi_error.Error with code [Overflow] if it does not fit. *)
val of_int : format -> int -> t

(** [to_int v] is the integer part of the value, truncated toward zero. *)
val to_int : t -> int

val equal : t -> t -> bool

(** Numeric comparison (formats may differ; values are aligned first). *)
val compare_value : t -> t -> int

val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** {1 Full-precision arithmetic}

    Result formats are widened so no precision is lost.
    @raise Ocapi_error.Error with code [Internal] if the exact result
    would exceed {!max_width}. *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val neg : t -> t

(** Absolute value (widened by one bit like [neg]). *)
val abs : t -> t

(** [shift_left v n] multiplies by [2^n] exactly (adjusts the format). *)
val shift_left : t -> int -> t

(** [shift_right v n] divides by [2^n] exactly (adjusts the format). *)
val shift_right : t -> int -> t

(** {1 Comparisons} — 1-bit results, suitable as condition signals. *)

val eq : t -> t -> t
val ne : t -> t -> t
val lt : t -> t -> t
val le : t -> t -> t
val gt : t -> t -> t
val ge : t -> t -> t

(** {1 Bitwise operations}

    Operate on the two's-complement mantissas after aligning both operands
    to a common format (same rules as [add] minus the carry bit). *)

val logand : t -> t -> t
val logor : t -> t -> t
val logxor : t -> t -> t
val lognot : t -> t

(** {1 Quantization} *)

(** [resize ?round ?overflow fmt v] converts [v] to format [fmt], rounding
    away fraction bits per [round] (default [Truncate], matching hardware
    bit dropping) and handling integer overflow per [overflow] (default
    [Wrap], matching hardware bit slicing); {!resize_plan} spells out
    each step.
    @raise Ocapi_error.Error with code [Overflow] when a nonzero value
    would shift left by more than 62 bits. *)
val resize : ?round:rounding -> ?overflow:overflow -> format -> t -> t

(** {1 Operator rules}

    The static decisions an operator takes from its formats, derived
    once, here: the value operators above apply them, and the compiled
    closures, the emitted text and its word-mode bounds, the VHDL and
    the gates read them as these plans. *)

(** A binary operation's operands both shift left to the larger of the
    two fractions, which drops no bit. *)
type align = private {
  al_shift_a : int;  (** the first operand's left shift *)
  al_shift_b : int;  (** the second operand's left shift *)
  al_width : int;
      (** the smallest signed width holding both aligned operands, an
          unsigned one with a sign bit added: a comparison's width *)
}

val align : format -> format -> align

(** Two's-complement wrap into a format: the low [w_width] bits of a
    mantissa ([w_mask]), less [w_modulus] when its sign bit [w_sign]
    ([0L] when unsigned) is set. *)
type wrap = private {
  w_width : int;
  w_mask : int64;
  w_sign : int64;
  w_modulus : int64;
}

val wrap_of : format -> wrap

(** A resize (and a mux's resize of its chosen branch): shift the
    mantissa, then wrap or saturate it into [rz_dst]. *)
type resize_plan = private {
  rz_shift : int;
      (** When positive, the fraction bits dropped by an arithmetic right
          shift rounded as [rz_round]; else a left shift by [-rz_shift].
          A drop of more than 62 bits is planned as a drop of 63, which
          gives what any larger drop gives: a mantissa is below [2^62] in
          magnitude, so [Truncate] leaves its sign (0 or −1), and the
          rounding modes leave 0 (less than half a unit, and no tie). *)
  rz_round : rounding;
  rz_half : int64;  (** [2^(rz_shift-1)], the rounding half unit *)
  rz_huge : bool;
      (** a left shift of more than 62 bits: exact for zero, and any
          other mantissa raises an [Overflow] *)
  rz_saturate : bool;
  rz_lo : int64;  (** the saturation bounds *)
  rz_hi : int64;
  rz_wrap : wrap;
  rz_width : int;
      (** a signed intermediate's width: the shifted source with two
          bits to spare, and at least [rz_shift + 2], so a rounding half,
          its carry and the even bit fit *)
  rz_dst : format;
}

(** [resize_plan ~round ~overflow src dst] plans a resize from [src]
    to [dst]. *)
val resize_plan :
  round:rounding -> overflow:overflow -> format -> format -> resize_plan

(** [resize_bounds p b] is [p]'s word-mode magnitude-bound transfer:
    from a source mantissa below [2^b] in magnitude, the bounds of the
    widest intermediate (the rounding sum or left shift) and of the
    result (the destination width, or 1 when the result can only be 0,
    −1 or an overflow). *)
val resize_bounds : resize_plan -> int -> int * int

(** {1 Result-format rules} (exposed for the signal layer) *)

val add_format : format -> format -> format
val mul_format : format -> format -> format
val neg_format : format -> format

(** Format that [logand]/[logor]/[logxor] produce for given operands. *)
val logic_format : format -> format -> format

(** {1 Bit-level access} *)

(** [to_bits v] is the two's-complement bit string of the mantissa,
    MSB first, exactly [width] characters of ['0']/['1']. *)
val to_bits : t -> string

(** [of_bits fmt s] parses an MSB-first bit string.
    @raise Ocapi_error.Error with code [Internal] if
    [String.length s <> fmt.width]. *)
val of_bits : format -> string -> t

(** [flip_bit v i] toggles bit [i] (LSB = 0) of the two's-complement
    mantissa and reinterprets the result in [v]'s format — the
    single-event-upset primitive of the fault-injection subsystem.
    @raise Invalid_argument if [i] is outside [0 .. width-1]. *)
val flip_bit : t -> int -> t
