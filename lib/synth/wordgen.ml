type bus = Netlist.net array

let width_of_format (f : Fixed.format) = f.Fixed.width

let is_signed (f : Fixed.format) =
  match f.Fixed.signedness with Fixed.Signed -> true | Fixed.Unsigned -> false

let extend nl ~fmt bus w =
  Netlist.extend_bus nl ~signed:(is_signed fmt) bus w

let zero_net nl = Netlist.gate nl Netlist.Const0 []

let align nl ~fmt bus ~frac =
  let k = frac - fmt.Fixed.frac in
  if k = 0 then bus
  else if k > 0 then
    Array.append (Array.init k (fun _ -> zero_net nl)) bus
  else
    (* Dropping fraction bits exactly (used only by exact alignment,
       where the dropped bits are known zero by construction). *)
    Array.sub bus (-k) (Array.length bus + k)

(* Full adder from gates. *)
let full_add nl a b c =
  let axb = Netlist.gate nl Netlist.Xor [ a; b ] in
  let s = Netlist.gate nl Netlist.Xor [ axb; c ] in
  let ab = Netlist.gate nl Netlist.And [ a; b ] in
  let axbc = Netlist.gate nl Netlist.And [ axb; c ] in
  let carry = Netlist.gate nl Netlist.Or [ ab; axbc ] in
  (s, carry)

let ripple_add nl ?carry_in a b =
  let w = Array.length a in
  assert (Array.length b = w);
  let out = Array.make w 0 in
  let carry = ref (match carry_in with Some c -> c | None -> zero_net nl) in
  for i = 0 to w - 1 do
    let s, c = full_add nl a.(i) b.(i) !carry in
    out.(i) <- s;
    carry := c
  done;
  out

let rec or_tree nl = function
  | [] -> zero_net nl
  | [ n ] -> n
  | n1 :: n2 :: rest -> or_tree nl (Netlist.gate nl Netlist.Or [ n1; n2 ] :: rest)

let rec and_tree nl = function
  | [] -> Netlist.gate nl Netlist.Const1 []
  | [ n ] -> n
  | n1 :: n2 :: rest -> and_tree nl (Netlist.gate nl Netlist.And [ n1; n2 ] :: rest)

let select nl choices ~width =
  match choices with
  | [] -> Array.init width (fun _ -> zero_net nl)
  | _ ->
    Array.init width (fun i ->
        let terms =
          List.map
            (fun (sel, bus) -> Netlist.gate nl Netlist.And [ sel; bus.(i) ])
            choices
        in
        or_tree nl terms)

(* Align both operands to a common fraction and extend to width [w]
   per each operand's own signedness. *)
let align2 nl ~fa ~fb a b w =
  let frac = max fa.Fixed.frac fb.Fixed.frac in
  let a' = align nl ~fmt:fa a ~frac in
  let b' = align nl ~fmt:fb b ~frac in
  (extend nl ~fmt:fa a' w, extend nl ~fmt:fb b' w)

let add nl ~fa ~fb a b =
  let fr = Fixed.add_format fa fb in
  let w = fr.Fixed.width in
  let a', b' = align2 nl ~fa ~fb a b w in
  ripple_add nl a' b'

let sub nl ~fa ~fb a b =
  let fr = Fixed.add_format fa (Fixed.neg_format fb) in
  let w = fr.Fixed.width in
  let a', b' = align2 nl ~fa ~fb a b w in
  let nb = Array.map (fun n -> Netlist.gate nl Netlist.Not [ n ]) b' in
  ripple_add nl ~carry_in:(Netlist.gate nl Netlist.Const1 []) a' nb

(* Array multiplier modulo 2^w: extend both operands to the result width
   and accumulate partial products; two's-complement wrap-around makes
   the truncated product exact because the true product fits in w bits. *)
let mul nl ~fa ~fb a b =
  let fr = Fixed.mul_format fa fb in
  let w = fr.Fixed.width in
  let a' = extend nl ~fmt:fa a w in
  let b' = extend nl ~fmt:fb b w in
  let acc = ref (Array.init w (fun _ -> zero_net nl)) in
  for i = 0 to w - 1 do
    (* Partial product (a' << i) gated by b'.(i). *)
    let pp =
      Array.init w (fun j ->
          if j < i then zero_net nl
          else Netlist.gate nl Netlist.And [ a'.(j - i); b'.(i) ])
    in
    acc := ripple_add nl !acc pp
  done;
  !acc

let neg nl ~fa a =
  let fr = Fixed.neg_format fa in
  let w = fr.Fixed.width in
  let a' = extend nl ~fmt:fa a w in
  let na = Array.map (fun n -> Netlist.gate nl Netlist.Not [ n ]) a' in
  let zero = Array.init w (fun _ -> zero_net nl) in
  ripple_add nl ~carry_in:(Netlist.gate nl Netlist.Const1 []) na zero

let abs_ nl ~fa a =
  let fr = Fixed.neg_format fa in
  let w = fr.Fixed.width in
  let a' = extend nl ~fmt:fa a w in
  let negated = neg nl ~fa a in
  let sign =
    if is_signed fa then a.(Array.length a - 1) else zero_net nl
  in
  Array.init w (fun i -> Netlist.gate nl Netlist.Mux2 [ sign; negated.(i); a'.(i) ])

let logic_op nl kind ~fa ~fb a b =
  let fr = Fixed.logic_format fa fb in
  let w = fr.Fixed.width in
  let a', b' = align2 nl ~fa ~fb a b w in
  Array.init w (fun i -> Netlist.gate nl kind [ a'.(i); b'.(i) ])

let not_ nl a = Array.map (fun n -> Netlist.gate nl Netlist.Not [ n ]) a

(* Common value-faithful width for comparisons. *)
let compare_width ~fa ~fb =
  let frac = max fa.Fixed.frac fb.Fixed.frac in
  let sw (f : Fixed.format) =
    let w = f.Fixed.width + (frac - f.Fixed.frac) in
    if is_signed f then w else w + 1
  in
  max (sw fa) (sw fb)

let cmp_operands nl ~fa ~fb a b =
  let frac = max fa.Fixed.frac fb.Fixed.frac in
  let w = compare_width ~fa ~fb in
  let a' = extend nl ~fmt:fa (align nl ~fmt:fa a ~frac) w in
  let b' = extend nl ~fmt:fb (align nl ~fmt:fb b ~frac) w in
  (a', b', w)

let eq nl ~fa ~fb a b =
  let a', b', w = cmp_operands nl ~fa ~fb a b in
  let bits =
    List.init w (fun i ->
        Netlist.gate nl Netlist.Not
          [ Netlist.gate nl Netlist.Xor [ a'.(i); b'.(i) ] ])
  in
  and_tree nl bits

(* a < b as the sign of (a - b) computed at width w+1 (both operands are
   value-faithful signed at width w, so the difference fits w+1). *)
let lt nl ~fa ~fb a b =
  let a', b', w = cmp_operands nl ~fa ~fb a b in
  let ext bus = Array.append bus [| bus.(w - 1) |] in
  let a2 = ext a' and b2 = ext b' in
  let nb = Array.map (fun n -> Netlist.gate nl Netlist.Not [ n ]) b2 in
  let diff = ripple_add nl ~carry_in:(Netlist.gate nl Netlist.Const1 []) a2 nb in
  diff.(w)

let le nl ~fa ~fb a b =
  Netlist.gate nl Netlist.Not [ lt nl ~fa:fb ~fb:fa b a ]

(* Exact resize (shift + extend) used by mux branch normalization; the
   target format always covers the source range there. *)
let resize_exact nl ~src ~dst bus =
  let aligned = align nl ~fmt:src bus ~frac:dst.Fixed.frac in
  extend nl ~fmt:src aligned dst.Fixed.width

let mux2 nl ~fa ~fb ~fr sel a b =
  let a' = resize_exact nl ~src:fa ~dst:fr a in
  let b' = resize_exact nl ~src:fb ~dst:fr b in
  Array.init fr.Fixed.width (fun i ->
      Netlist.gate nl Netlist.Mux2 [ sel; a'.(i); b'.(i) ])

let resize nl ~round ~overflow ~src ~dst bus =
  let k = src.Fixed.frac - dst.Fixed.frac in
  (* Step 1: the rounded value, value-faithful, with dst.frac fraction
     bits.  Work at width W = src.width + 2 so rounding carries fit.  It
     keeps the source's signedness; its width is the bus's, which may
     exceed [Fixed.max_width], so it is no [Fixed.format]. *)
  let signed = is_signed src in
  let rounded =
    if k <= 0 then align nl ~fmt:src bus ~frac:dst.Fixed.frac
    else begin
      let w0 = max (src.Fixed.width + 2) (k + 2) in
      let ext = extend nl ~fmt:src bus w0 in
      let floor_bits = Array.init w0 (fun i -> ext.(min (i + k) (w0 - 1))) in
      match round with
      | Fixed.Truncate -> floor_bits
      | Fixed.Round_nearest ->
        (* (m + half) asr k: add 2^(k-1) before shifting. *)
        let half = Array.init w0 (fun i -> i = k - 1) in
        let half_bus =
          Array.map
            (fun b ->
              if b then Netlist.gate nl Netlist.Const1 [] else zero_net nl)
            half
        in
        let summed = ripple_add nl ext half_bus in
        Array.init w0 (fun i -> summed.(min (i + k) (w0 - 1)))
      | Fixed.Round_even ->
        let h = if k - 1 < w0 then ext.(k - 1) else zero_net nl in
        let rest_bits =
          List.init (max 0 (k - 1)) (fun i -> ext.(min i (w0 - 1)))
        in
        let rest = or_tree nl rest_bits in
        let up =
          Netlist.gate nl Netlist.And
            [ h; Netlist.gate nl Netlist.Or [ rest; floor_bits.(0) ] ]
        in
        let zero = Array.init w0 (fun _ -> zero_net nl) in
        ripple_add nl ~carry_in:up floor_bits zero
    end
  in
  (* Step 2: overflow handling into dst.width bits. *)
  let wv = Array.length rounded in
  match overflow with
  | Fixed.Wrap ->
    let padded = Netlist.extend_bus nl ~signed rounded (max wv dst.Fixed.width) in
    Array.sub padded 0 dst.Fixed.width
  | Fixed.Saturate ->
    let wext = max (wv + 1) (dst.Fixed.width + 1) in
    let v = Netlist.extend_bus nl ~signed rounded wext in
    let sign = if signed then v.(wext - 1) else zero_net nl in
    let low = Array.sub v 0 dst.Fixed.width in
    (match dst.Fixed.signedness with
    | Fixed.Unsigned ->
      (* Negative -> 0; too large -> all ones. *)
      let high_bits = List.init (wext - dst.Fixed.width) (fun i -> v.(dst.Fixed.width + i)) in
      let too_big = or_tree nl high_bits in
      let ones = Netlist.gate nl Netlist.Const1 [] in
      Array.map
        (fun bit ->
          let saturated =
            Netlist.gate nl Netlist.Mux2 [ too_big; ones; bit ]
          in
          (* sign has priority: clamp to zero *)
          Netlist.gate nl Netlist.Mux2 [ sign; zero_net nl; saturated ])
        low
    | Fixed.Signed ->
      (* In range iff bits [dst.width-1 .. wext-1] form a sign extension. *)
      let msb = dst.Fixed.width - 1 in
      let same =
        List.init (wext - 1 - msb) (fun i ->
            Netlist.gate nl Netlist.Not
              [ Netlist.gate nl Netlist.Xor [ v.(msb + i); sign ] ])
      in
      let in_range = and_tree nl same in
      (* min = 100..0, max = 011..1 *)
      Array.mapi
        (fun i bit ->
          let sat_bit =
            if i = msb then sign
            else Netlist.gate nl Netlist.Not [ sign ]
          in
          Netlist.gate nl Netlist.Mux2 [ in_range; bit; sat_bit ])
        low)

let rom_address nl ~idx_fmt bus =
  let frac = idx_fmt.Fixed.frac in
  if frac <= 0 then
    Array.append (Array.init (-frac) (fun _ -> zero_net nl)) bus
  else if frac >= Array.length bus then [| zero_net nl |]
  else Array.sub bus frac (Array.length bus - frac)
