type signedness = Signed | Unsigned

type format = { signedness : signedness; width : int; frac : int }

let max_width = 62

(* Format arithmetic runs on every operation the interpreter and the RTL
   back end evaluate: [Stdlib.max] and [min] would compare through the
   polymorphic comparison. *)
let max (a : int) b = if a >= b then a else b
let min (a : int) b = if a <= b then a else b

let format_error fmt = Ocapi_error.fail Ocapi_error.Internal ~engine:"fixed" fmt

let format signedness ~width ~frac =
  if width < 1 then format_error "format: width %d < 1" width;
  if width > max_width then
    format_error "format: width %d exceeds max_width %d" width max_width;
  { signedness; width; frac }

let signed ~width ~frac = format Signed ~width ~frac
let unsigned ~width ~frac = format Unsigned ~width ~frac
let bit_format = unsigned ~width:1 ~frac:0
let int_format width = signed ~width ~frac:0

let equal_format a b =
  a.signedness = b.signedness && a.width = b.width && a.frac = b.frac

(* The renderings are [Printf]-based, and the printers print them: an
   SEU report formats two values per silent data corruption, and
   [Format] costs twice as much. *)
let format_to_string f =
  Printf.sprintf "<%c%d.%d>"
    (match f.signedness with Signed -> 's' | Unsigned -> 'u')
    f.width f.frac

let pp_format ppf f = Format.pp_print_string ppf (format_to_string f)

let min_mantissa f =
  match f.signedness with
  | Unsigned -> 0L
  | Signed -> Int64.neg (Int64.shift_left 1L (f.width - 1))

let max_mantissa f =
  match f.signedness with
  | Unsigned -> Int64.sub (Int64.shift_left 1L f.width) 1L
  | Signed -> Int64.sub (Int64.shift_left 1L (f.width - 1)) 1L

type t = { fmt : format; mantissa : int64 }

type rounding = Truncate | Round_nearest | Round_even
type overflow = Wrap | Saturate

let overflow_error fmt =
  Ocapi_error.fail Ocapi_error.Overflow ~engine:"fixed" fmt

let in_range f m = m >= min_mantissa f && m <= max_mantissa f

let create fmt mantissa =
  if not (in_range fmt mantissa) then
    overflow_error "create: mantissa %Ld out of range for %s" mantissa
      (format_to_string fmt);
  { fmt; mantissa }

(* Wrap an arbitrary mantissa into the range of [f] (two's complement). *)
let wrap_mantissa f m =
  let mask = Int64.sub (Int64.shift_left 1L f.width) 1L in
  let low = Int64.logand m mask in
  match f.signedness with
  | Unsigned -> low
  | Signed ->
    let sign_bit = Int64.shift_left 1L (f.width - 1) in
    if Int64.logand low sign_bit <> 0L then
      Int64.sub low (Int64.shift_left 1L f.width)
    else low

let clamp_mantissa f m =
  if m < min_mantissa f then min_mantissa f
  else if m > max_mantissa f then max_mantissa f
  else m

let apply_overflow mode f m =
  match mode with
  | Wrap -> wrap_mantissa f m
  | Saturate -> clamp_mantissa f m

(* Round away [k] low bits of [m] (k >= 0), per the rounding mode.
   Truncation is an arithmetic shift, i.e. rounding toward -infinity. *)
let round_shift mode m k =
  if k = 0 then m
  else if k > 62 then (match mode with _ when m >= 0L -> 0L | _ -> -1L)
  else
    let floor = Int64.shift_right m k in
    match mode with
    | Truncate -> floor
    | Round_nearest ->
      let half = Int64.shift_left 1L (k - 1) in
      Int64.shift_right (Int64.add m half) k
    | Round_even ->
      let rem = Int64.sub m (Int64.shift_left floor k) in
      let half = Int64.shift_left 1L (k - 1) in
      if rem > half then Int64.add floor 1L
      else if rem < half then floor
      else if Int64.logand floor 1L = 1L then Int64.add floor 1L
      else floor

let mantissa v = v.mantissa
let fmt v = v.fmt
let to_float v = Int64.to_float v.mantissa *. Float.exp2 (float (-v.fmt.frac))

let of_float ?(round = Round_nearest) ?(overflow = Saturate) fmt x =
  let scaled = x *. Float.exp2 (float fmt.frac) in
  let m =
    match round with
    | Truncate -> Int64.of_float (Float.floor scaled)
    | Round_nearest -> Int64.of_float (Float.round scaled)
    | Round_even ->
      let f = Float.floor scaled in
      let rem = scaled -. f in
      let fl = Int64.of_float f in
      if rem > 0.5 then Int64.add fl 1L
      else if rem < 0.5 then fl
      else if Int64.logand fl 1L = 1L then Int64.add fl 1L
      else fl
  in
  { fmt; mantissa = apply_overflow overflow fmt m }

let zero fmt = { fmt; mantissa = 0L }

let one fmt =
  let m = Int64.shift_left 1L (max fmt.frac 0) in
  { fmt; mantissa = clamp_mantissa fmt (if fmt.frac < 0 then 1L else m) }

let of_bool b = { fmt = bit_format; mantissa = (if b then 1L else 0L) }
let is_true v = v.mantissa <> 0L

let of_int fmt n =
  if fmt.frac < 0 || fmt.frac > 61 then
    format_error "of_int: fraction %d not exactly representable" fmt.frac;
  let m = Int64.shift_left (Int64.of_int n) fmt.frac in
  create fmt m

let to_int v =
  if v.fmt.frac <= 0 then
    Int64.to_int (Int64.shift_left v.mantissa (-v.fmt.frac))
  else
    (* Truncate toward zero. *)
    let q = Int64.div v.mantissa (Int64.shift_left 1L (min v.fmt.frac 62)) in
    Int64.to_int q

let equal a b = equal_format a.fmt b.fmt && Int64.equal a.mantissa b.mantissa

(* Align two values to a common fraction; exact because widths are bounded. *)
let align a b =
  let frac = max a.fmt.frac b.fmt.frac in
  let lift v =
    let k = frac - v.fmt.frac in
    Int64.shift_left v.mantissa k
  in
  (frac, lift a, lift b)

let compare_value a b =
  let _, ma, mb = align a b in
  Int64.compare ma mb

let to_string v = Printf.sprintf "%g%s" (to_float v) (format_to_string v.fmt)
let pp ppf v = Format.pp_print_string ppf (to_string v)

(* Signed width needed to also hold unsigned values of format [f] once it is
   aligned to fraction [frac]. *)
let aligned_signed_width f frac =
  let w = f.width + (frac - f.frac) in
  match f.signedness with Signed -> w | Unsigned -> w + 1

let add_format a b =
  let frac = max a.frac b.frac in
  if a.signedness = Unsigned && b.signedness = Unsigned then
    let w = max (a.width + frac - a.frac) (b.width + frac - b.frac) + 1 in
    format Unsigned ~width:w ~frac
  else
    let w = max (aligned_signed_width a frac) (aligned_signed_width b frac) in
    format Signed ~width:(w + 1) ~frac

let mul_format a b =
  let frac = a.frac + b.frac in
  match a.signedness, b.signedness with
  | Unsigned, Unsigned -> format Unsigned ~width:(a.width + b.width) ~frac
  | Signed, Signed | Signed, Unsigned | Unsigned, Signed ->
    (* Conservative: product of ranges fits in w1+w2 signed bits. *)
    format Signed ~width:(a.width + b.width) ~frac

let neg_format a =
  format Signed ~width:(a.width + 1) ~frac:a.frac

let logic_format a b =
  let frac = max a.frac b.frac in
  if a.signedness = Unsigned && b.signedness = Unsigned then
    let w = max (a.width + frac - a.frac) (b.width + frac - b.frac) in
    format Unsigned ~width:w ~frac
  else
    let w = max (aligned_signed_width a frac) (aligned_signed_width b frac) in
    format Signed ~width:w ~frac

let add a b =
  let fmt = add_format a.fmt b.fmt in
  let _, ma, mb = align a b in
  { fmt; mantissa = Int64.add ma mb }

let sub a b =
  let fmt = add_format a.fmt (neg_format b.fmt) in
  let _, ma, mb = align a b in
  { fmt; mantissa = Int64.sub ma mb }

let mul a b =
  let fmt = mul_format a.fmt b.fmt in
  { fmt; mantissa = Int64.mul a.mantissa b.mantissa }

let neg a =
  let fmt = neg_format a.fmt in
  { fmt; mantissa = Int64.neg a.mantissa }

let abs a =
  let fmt = neg_format a.fmt in
  { fmt; mantissa = Int64.abs a.mantissa }

(* Shifting only reinterprets the scale; the mantissa is untouched. *)
let shift_left v n = { v with fmt = { v.fmt with frac = v.fmt.frac - n } }
let shift_right v n = shift_left v (-n)

let cmp_bit op a b = of_bool (op (compare_value a b) 0)
let eq a b = cmp_bit ( = ) a b
let ne a b = cmp_bit ( <> ) a b
let lt a b = cmp_bit ( < ) a b
let le a b = cmp_bit ( <= ) a b
let gt a b = cmp_bit ( > ) a b
let ge a b = cmp_bit ( >= ) a b

let bitwise op a b =
  let fmt = logic_format a.fmt b.fmt in
  let _, ma, mb = align a b in
  { fmt; mantissa = wrap_mantissa fmt (op ma mb) }

let logand a b = bitwise Int64.logand a b
let logor a b = bitwise Int64.logor a b
let logxor a b = bitwise Int64.logxor a b

let lognot a =
  { fmt = a.fmt; mantissa = wrap_mantissa a.fmt (Int64.lognot a.mantissa) }

let resize ?(round = Truncate) ?(overflow = Wrap) fmt v =
  let k = v.fmt.frac - fmt.frac in
  let m =
    if k > 0 then round_shift round v.mantissa k
    else if -k > 62 then
      (if v.mantissa = 0L then 0L
       else overflow_error "resize: shift %d too large" (-k))
    else Int64.shift_left v.mantissa (-k)
  in
  { fmt; mantissa = apply_overflow overflow fmt m }

let to_bits v =
  let b = Bytes.create v.fmt.width in
  for i = 0 to v.fmt.width - 1 do
    let bit = Int64.logand (Int64.shift_right_logical v.mantissa i) 1L in
    Bytes.set b (v.fmt.width - 1 - i) (if bit = 1L then '1' else '0')
  done;
  Bytes.to_string b

let flip_bit v i =
  if i < 0 || i >= v.fmt.width then
    invalid_arg
      (Printf.sprintf "Fixed.flip_bit: bit %d outside format %s" i
         (format_to_string v.fmt));
  let m = Int64.logxor v.mantissa (Int64.shift_left 1L i) in
  { v with mantissa = wrap_mantissa v.fmt m }

let of_bits fmt s =
  if String.length s <> fmt.width then
    format_error "of_bits: %d chars for width %d" (String.length s) fmt.width;
  let m = ref 0L in
  String.iter
    (fun c ->
      let bit =
        match c with
        | '0' -> 0L
        | '1' -> 1L
        | _ -> format_error "of_bits: invalid character %C" c
      in
      m := Int64.logor (Int64.shift_left !m 1) bit)
    s;
  { fmt; mantissa = wrap_mantissa fmt !m }
