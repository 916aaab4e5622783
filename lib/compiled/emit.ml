(* OCaml source emission, the compiled simulator's second back end
   (fig 7: "a C++ description can be regenerated to yield an
   application-specific and optimized compiled code simulator").  It
   renders the program [Compiled_sim.lower] produces; see emit.mli for
   the two shapes that share the rendered body. *)

(* Bumped whenever the emitted plugin text, its compiler flags, the
   slot-layout contract or the [Ocapi_native_abi] record shape changes
   incompatibly; folded into the .cmxs cache key so stale artifacts are
   never paired with a newer host. *)
let emitter_version = 8

(* The text indexes its arrays with constants {!emit_plugin} checked
   ([Compiled_sim.check_indices]), and its data-dependent reads say
   [Array.get] or use an address it reduced into range. *)
let plugin_flags = [ "-unsafe" ]

let sanitize name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c
      | _ -> '_')
    (String.lowercase_ascii name)

(* --- expression text ----------------------------------------------------- *)

(* [I64] renders over [int64] cells; [Word] renders over unboxed [int]
   words and is only valid when {!word_mode_ok} proved the bounds. *)
type mode = I64 | Word

let align_shifts (fa : Fixed.format) (fb : Fixed.format) =
  let frac = max fa.Fixed.frac fb.Fixed.frac in
  (frac - fa.Fixed.frac, frac - fb.Fixed.frac)

let lit mode m =
  match mode with
  | I64 -> Printf.sprintf "(%LdL)" m
  | Word -> Printf.sprintf "(%Ld)" m

let zero mode = match mode with I64 -> "0L" | Word -> "0"
let one mode = match mode with I64 -> "1L" | Word -> "1"

let shl_txt mode x k =
  if k = 0 then x
  else
    match mode with
    | I64 -> Printf.sprintf "(shl %s %d)" x k
    | Word -> Printf.sprintf "(%s lsl %d)" x k

let bin_txt mode op64 opw x y =
  match mode with
  | I64 -> Printf.sprintf "(%s %s %s)" op64 x y
  | Word -> Printf.sprintf "(%s %s %s)" x opw y

(* Word mode renders wraps, saturation and rounding inline, with their
   constants computed here.  A signed wrap to [w] bits shifts bit [w-1]
   up to the sign of the 63-bit word and back: [K = 63 - w], exact for
   every width up to [Fixed.max_width]. *)
let wrap_txt mode (f : Fixed.format) x =
  let w = f.Fixed.width in
  match (mode, f.Fixed.signedness) with
  | I64, Fixed.Unsigned -> Printf.sprintf "(wrap_u %d %s)" w x
  | I64, Fixed.Signed -> Printf.sprintf "(wrap_s %d %s)" w x
  | Word, Fixed.Unsigned -> Printf.sprintf "(%s land %d)" x ((1 lsl w) - 1)
  | Word, Fixed.Signed -> Printf.sprintf "((%s lsl %d) asr %d)" x (63 - w) (63 - w)

let sat_txt mode (f : Fixed.format) x =
  let lo = lit mode (Fixed.min_mantissa f)
  and hi = lit mode (Fixed.max_mantissa f) in
  match mode with
  | I64 -> Printf.sprintf "(sat %s %s %s)" lo hi x
  | Word ->
    Printf.sprintf
      "(let s_ = %s in if s_ < %s then %s else if s_ > %s then %s else s_)" x
      lo lo hi hi

let round_txt mode rnd k x =
  if k = 0 then x
  else if k > 62 then
    Printf.sprintf "(if %s >= %s then %s else %s)" x (zero mode) (zero mode)
      (match mode with I64 -> "-1L" | Word -> "(-1)")
  else
    match rnd with
    | Fixed.Truncate -> begin
      match mode with
      | I64 -> Printf.sprintf "(Int64.shift_right %s %d)" x k
      | Word -> Printf.sprintf "(%s asr %d)" x k
    end
    | Fixed.Round_nearest -> begin
      match mode with
      | I64 -> Printf.sprintf "(rnd_near %d %s)" k x
      | Word -> Printf.sprintf "((%s + %d) asr %d)" x (1 lsl (k - 1)) k
    end
    | Fixed.Round_even -> begin
      match mode with
      | I64 -> Printf.sprintf "(rnd_even %d %s)" k x
      | Word ->
        Printf.sprintf
          "(let x_ = %s in let f_ = x_ asr %d in let r_ = x_ - (f_ lsl %d) in \
           if r_ > %d then f_ + 1 else if r_ < %d then f_ \
           else if f_ land 1 = 1 then f_ + 1 else f_)"
          x k k (1 lsl (k - 1)) (1 lsl (k - 1))
    end

let resize_txt mode ~ctx ~round ~overflow (src : Fixed.format)
    (dst : Fixed.format) x =
  let k = src.Fixed.frac - dst.Fixed.frac in
  let ovf v =
    match overflow with
    | Fixed.Wrap -> wrap_txt mode dst v
    | Fixed.Saturate -> sat_txt mode dst v
  in
  if k > 0 then ovf (round_txt mode round k x)
  else if -k > 62 then
    (* Same semantics as Fixed.resize / the closure back end: zero
       passes, a nonzero mantissa raises a structured overflow carrying
       the construct, target format and failing cycle. *)
    Printf.sprintf "(if %s = %s then %s else overflow_error %S)" x (zero mode)
      (zero mode)
      (Printf.sprintf "%s: resize to %s: shift too large for nonzero value"
         ctx
         (Fixed.format_to_string dst))
  else ovf (shl_txt mode x (-k))

(* What rendering a program's statements needs beyond the statements:
   the mode, the constant slots (rendered as literals at their uses, so
   the emitted code never reads or writes them) and the ROM tables
   referenced so far, as (emitted name, contents), newest first. *)
type ctx = {
  mode : mode;
  consts : (int, int64) Hashtbl.t;
  rom_names : (string, string) Hashtbl.t;  (* ROM name -> emitted name *)
  mutable roms : (string * int64 array) list;
}

let slot_txt cx s =
  match Hashtbl.find_opt cx.consts s with
  | Some m -> lit cx.mode m
  | None -> Printf.sprintf "v.(%d)" s

let rom_var cx r =
  let name = Signal.Rom.name r in
  match Hashtbl.find_opt cx.rom_names name with
  | Some v -> v
  | None ->
    let v = Printf.sprintf "rom_%s_%d" (sanitize name) (List.length cx.roms) in
    let contents =
      Array.init (Signal.Rom.size r) (fun i -> Fixed.mantissa (Signal.Rom.get r i))
    in
    cx.roms <- (v, contents) :: cx.roms;
    Hashtbl.replace cx.rom_names name v;
    v

(* Text of [node]'s operator applied to the operand texts [arg i], in
   operator order; [where] names the construct in overflow messages. *)
let compute_txt cx ~where node arg =
  let mode = cx.mode in
  let nf = Signal.fmt node in
  let shifted x y =
    let ka, kb = align_shifts (Signal.fmt x) (Signal.fmt y) in
    (shl_txt mode (arg 0) ka, shl_txt mode (arg 1) kb)
  in
  match Signal.op node with
  | Signal.Const _ | Signal.Reg_read _
  | Signal.Shift_left _ | Signal.Shift_right _ ->
    invalid_arg "Emit: an elided node has no statement"
  | Signal.Input_read _ -> arg 0
  | Signal.Add (x, y) ->
    let a, b = shifted x y in
    bin_txt mode "Int64.add" "+" a b
  | Signal.Sub (x, y) ->
    let a, b = shifted x y in
    bin_txt mode "Int64.sub" "-" a b
  | Signal.Mul _ -> bin_txt mode "Int64.mul" "*" (arg 0) (arg 1)
  | Signal.Neg _ -> begin
    match mode with
    | I64 -> Printf.sprintf "(Int64.neg %s)" (arg 0)
    | Word -> Printf.sprintf "(- %s)" (arg 0)
  end
  | Signal.Abs _ -> begin
    match mode with
    | I64 -> Printf.sprintf "(Int64.abs %s)" (arg 0)
    | Word -> Printf.sprintf "(abs %s)" (arg 0)
  end
  | Signal.And (x, y) ->
    let a, b = shifted x y in
    wrap_txt mode nf (bin_txt mode "Int64.logand" "land" a b)
  | Signal.Or (x, y) ->
    let a, b = shifted x y in
    wrap_txt mode nf (bin_txt mode "Int64.logor" "lor" a b)
  | Signal.Xor (x, y) ->
    let a, b = shifted x y in
    wrap_txt mode nf (bin_txt mode "Int64.logxor" "lxor" a b)
  | Signal.Not _ -> begin
    match mode with
    | I64 -> wrap_txt mode nf (Printf.sprintf "(Int64.lognot %s)" (arg 0))
    | Word -> wrap_txt mode nf (Printf.sprintf "(lnot %s)" (arg 0))
  end
  | Signal.Eq (x, y) ->
    let a, b = shifted x y in
    Printf.sprintf "(if %s = %s then %s else %s)" a b (one mode) (zero mode)
  | Signal.Lt (x, y) ->
    let a, b = shifted x y in
    Printf.sprintf "(if %s < %s then %s else %s)" a b (one mode) (zero mode)
  | Signal.Le (x, y) ->
    let a, b = shifted x y in
    Printf.sprintf "(if %s <= %s then %s else %s)" a b (one mode) (zero mode)
  | Signal.Mux (_, x, y) ->
    let rx =
      resize_txt mode ~ctx:where ~round:Fixed.Truncate ~overflow:Fixed.Wrap
        (Signal.fmt x) nf (arg 1)
    in
    let ry =
      resize_txt mode ~ctx:where ~round:Fixed.Truncate ~overflow:Fixed.Wrap
        (Signal.fmt y) nf (arg 2)
    in
    Printf.sprintf "(if %s <> %s then %s else %s)" (arg 0) (zero mode) rx ry
  | Signal.Resize (round, overflow, x) ->
    resize_txt mode ~ctx:where ~round ~overflow (Signal.fmt x) nf (arg 0)
  | Signal.Rom_read (r, idx) ->
    let var = rom_var cx r in
    let len = Signal.Rom.size r in
    let frac = (Signal.fmt idx).Fixed.frac in
    if frac <= 0 then
      match mode with
      | I64 ->
        Printf.sprintf "%s.(Int64.to_int %s mod %d)" var
          (shl_txt mode (arg 0) (-frac))
          len
      | Word ->
        Printf.sprintf "(Array.get %s (%s mod %d))" var
          (shl_txt mode (arg 0) (-frac))
          len
    else begin
      match mode with
      | I64 ->
        Printf.sprintf "%s.(Int64.to_int (Int64.div %s %LdL) mod %d)" var
          (arg 0)
          (Int64.shift_left 1L (min frac 62))
          len
      | Word ->
        Printf.sprintf "(Array.get %s ((%s / (1 lsl %d)) mod %d))" var (arg 0)
          (min frac 62) len
    end

let stmt_txt cx ~where = function
  | Compiled_sim.Compute { node; dst; args } ->
    Printf.sprintf "v.(%d) <- %s" dst
      (compute_txt cx ~where node (fun i -> slot_txt cx args.(i)))
  | Compiled_sim.Output { dst; src; stamp } ->
    Printf.sprintf "v.(%d) <- %s; stamp.(%d) <- !cycle" dst (slot_txt cx src)
      stamp
  | Compiled_sim.Assign { dst; src } ->
    Printf.sprintf "v.(%d) <- %s" dst (slot_txt cx src)

(* A guard renders as one expression: its statements bind locals
   instead of storing into the value store. *)
let guard_txt cx (tr : Compiled_sim.transition) =
  let locals = Hashtbl.create 8 in
  let operand s =
    if Hashtbl.mem locals s then Printf.sprintf "g%d" s else slot_txt cx s
  in
  let buf = Buffer.create 128 in
  Array.iter
    (function
      | Compiled_sim.Compute { node; dst; args } ->
        Printf.bprintf buf "let g%d = %s in " dst
          (compute_txt cx ~where:"guard" node (fun i -> operand args.(i)));
        Hashtbl.replace locals dst ()
      | Compiled_sim.Output _ | Compiled_sim.Assign _ ->
        invalid_arg "Emit: a guard stores into the value store")
    tr.Compiled_sim.tr_guard;
  Printf.sprintf "(%s%s <> %s)" (Buffer.contents buf)
    (operand tr.Compiled_sim.tr_guard_slot)
    (zero cx.mode)

(* --- width-bound analysis (Word-mode safety) ----------------------------- *)

(* A conservative static fixpoint over magnitude bounds per slot: [b]
   means every value the slot can carry satisfies |v| < 2^b.  OCaml's
   native [int] is 63 bits (62 magnitude bits + sign), so Word mode is
   safe iff every slot — including shifted operands and rounding
   intermediates — stays within 62 magnitude bits.  Every format width
   a wrap or saturation targets must also be at most 61, one bit below
   what the inline renderings handle exactly; this limit decides which
   designs get a plugin.  Registers hold raw (unwrapped) committed expression
   values, so their bounds come from the same fixpoint, seeded with the
   initial value. *)

exception Too_wide

let value_limit = 62
let width_limit = 61

let bits_of_int64 m =
  let neg = Int64.compare m 0L < 0 in
  let m = if neg then Int64.neg m else m in
  if Int64.compare m 0L < 0 then 63 (* Int64.min_int *)
  else begin
    let b = ref 0 in
    while !b < 63 && Int64.compare (Int64.shift_left 1L !b) m <= 0 do
      incr b
    done;
    !b
  end

let checked b = if b > value_limit then raise Too_wide else b

let checked_width (f : Fixed.format) =
  if f.Fixed.width > width_limit then raise Too_wide else f.Fixed.width

(* The bound of [node]'s value given its operands' bounds [arg i]. *)
let bound node arg =
  let nf = Signal.fmt node in
  let resize_bound ~round (src : Fixed.format) (dst : Fixed.format) b =
    let k = src.Fixed.frac - dst.Fixed.frac in
    if k > 62 then 1
    else if k > 0 then begin
      (match round with
      | Fixed.Truncate -> ()
      | Fixed.Round_nearest | Fixed.Round_even ->
        ignore (checked (max b (k - 1) + 1)));
      checked_width dst
    end
    else if -k > 62 then 1
    else begin
      ignore (checked (b + -k));
      checked_width dst
    end
  in
  let check_aligned x y =
    let ka, kb = align_shifts (Signal.fmt x) (Signal.fmt y) in
    (checked (arg 0 + ka), checked (arg 1 + kb))
  in
  match Signal.op node with
  | Signal.Const _ | Signal.Reg_read _
  | Signal.Shift_left _ | Signal.Shift_right _ ->
    invalid_arg "Emit: an elided node has no statement"
  | Signal.Input_read _ | Signal.Neg _ | Signal.Abs _ -> arg 0
  | Signal.Add (x, y) | Signal.Sub (x, y) ->
    let bx, by = check_aligned x y in
    max bx by + 1
  | Signal.Mul _ -> arg 0 + arg 1
  | Signal.And (x, y) | Signal.Or (x, y) | Signal.Xor (x, y) ->
    ignore (check_aligned x y);
    checked_width nf
  | Signal.Not _ ->
    ignore (checked (arg 0 + 1));
    checked_width nf
  | Signal.Eq (x, y) | Signal.Lt (x, y) | Signal.Le (x, y) ->
    ignore (check_aligned x y);
    1
  | Signal.Mux (_, x, y) ->
    max
      (resize_bound ~round:Fixed.Truncate (Signal.fmt x) nf (arg 1))
      (resize_bound ~round:Fixed.Truncate (Signal.fmt y) nf (arg 2))
  | Signal.Resize (round, _, x) -> resize_bound ~round (Signal.fmt x) nf (arg 0)
  | Signal.Rom_read (r, idx) ->
    let frac = (Signal.fmt idx).Fixed.frac in
    if frac <= 0 then ignore (checked (arg 0 + -frac))
    else if frac > width_limit then raise Too_wide;
    let m = ref 0 in
    for i = 0 to Signal.Rom.size r - 1 do
      m := max !m (bits_of_int64 (Fixed.mantissa (Signal.Rom.get r i)))
    done;
    !m

(* [word_mode_ok p] decides whether Word-mode emission of [p] is exact:
   monotone relaxation of the slot bounds over every statement until
   nothing grows; any bound exceeding the 62-bit magnitude limit (or any
   wrap width above 61) rejects.  Termination: bounds only grow and are
   capped. *)
let word_mode_ok (p : Compiled_sim.program) =
  let open Compiled_sim in
  try
    let bits = Array.make p.pg_slots 0 in
    List.iter (fun (slot, m) -> bits.(slot) <- checked (bits_of_int64 m)) p.pg_consts;
    Array.iter
      (fun r -> bits.(r.reg_cur) <- checked (bits_of_int64 r.reg_init))
      p.pg_regs;
    (* Nets driven from outside the statements carry their format. *)
    let seed slot = bits.(slot) <- checked_width (snd p.pg_nets.(slot)) in
    Array.iter (fun (_, slot, _) -> seed slot) p.pg_stims;
    Array.iter
      (fun k -> List.iter (fun (_, slot, _) -> seed slot) k.hk_outputs)
      p.pg_kernels;
    Array.iter (fun r -> Option.iter (fun (slot, _) -> seed slot) r.ram_rdata) p.pg_rams;
    let changed = ref true in
    let relax slot b =
      if b > bits.(slot) then begin
        bits.(slot) <- b;
        changed := true
      end
    in
    let stmt = function
      | Compute { node; dst; args } ->
        relax dst (checked (bound node (fun i -> bits.(args.(i)))))
      | Output { dst; src; _ } | Assign { dst; src } -> relax dst bits.(src)
    in
    while !changed do
      changed := false;
      Array.iter
        (fun c ->
          Array.iter
            (fun tr ->
              Array.iter stmt tr.tr_guard;
              Array.iter stmt tr.tr_block_a;
              Array.iter stmt tr.tr_block_b;
              Array.iter (fun (cur, nxt) -> relax cur bits.(nxt)) tr.tr_commit)
            c.co_transitions)
        p.pg_comps
    done;
    (* Inlined RAMs compute [Fixed.to_int] of the address and a
       truncate/wrap resize of the write data in emitted code; both may
       shift left, so their intermediates obey the same limit. *)
    Array.iter
      (fun r ->
        ignore (checked_width r.ram_data_fmt);
        let f = r.ram_addr_fmt.Fixed.frac in
        if f < 0 then ignore (checked (bits.(r.ram_addr) + -f));
        let shift = r.ram_data_fmt.Fixed.frac - r.ram_wdata_fmt.Fixed.frac in
        if shift > 0 then ignore (checked (bits.(r.ram_wdata) + shift)))
      p.pg_rams;
    true
  with Too_wide -> false

(* --- the body both shapes share ------------------------------------------- *)

(* Word mode needs no helpers: its wraps, saturation and rounding
   render inline. *)
let emit_helpers buf mode =
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  match mode with
  | I64 ->
    pf "let shl x k = if k = 0 then x else Int64.shift_left x k\n";
    pf "let wrap_u w x = Int64.logand x (Int64.sub (Int64.shift_left 1L w) 1L)\n";
    pf "let wrap_s w x =\n";
    pf "  let m = Int64.logand x (Int64.sub (Int64.shift_left 1L w) 1L) in\n";
    pf "  if Int64.logand m (Int64.shift_left 1L (w - 1)) <> 0L then\n";
    pf "    Int64.sub m (Int64.shift_left 1L w) else m\n";
    pf "let sat lo hi x = if x < lo then lo else if x > hi then hi else x\n";
    pf "let rnd_near k x = Int64.shift_right (Int64.add x (Int64.shift_left 1L (k-1))) k\n";
    pf "let rnd_even k x =\n";
    pf "  let f = Int64.shift_right x k in\n";
    pf "  let r = Int64.sub x (Int64.shift_left f k) in\n";
    pf "  let h = Int64.shift_left 1L (k-1) in\n";
    pf "  if r > h then Int64.add f 1L else if r < h then f\n";
    pf "  else if Int64.logand f 1L = 1L then Int64.add f 1L else f\n";
    pf "let _ = shl 0L 0, wrap_u 1 0L, wrap_s 1 0L, sat 0L 0L 0L, rnd_near 1 0L, rnd_even 1 0L\n";
    pf "let _ = overflow_error\n\n"
  | Word -> ()

(* [Fixed.to_int] of the address value, rendered over the mode's cells.
   Word mode is exact because {!word_mode_ok} checked the left-shift
   bound for negative fractions, and a positive fraction >= 62 divides
   a sub-2^62 magnitude to zero exactly as [Int64.div] does. *)
let ram_to_int_txt mode (r : Compiled_sim.ram) =
  let slot = r.Compiled_sim.ram_addr in
  let f = r.Compiled_sim.ram_addr_fmt.Fixed.frac in
  match mode with
  | Word ->
    if f = 0 then Printf.sprintf "v.(%d)" slot
    else if f < 0 then Printf.sprintf "(v.(%d) lsl %d)" slot (-f)
    else if f > 61 then "0"
    else Printf.sprintf "(v.(%d) / (1 lsl %d))" slot f
  | I64 ->
    if f = 0 then Printf.sprintf "(Int64.to_int v.(%d))" slot
    else if f < 0 then
      Printf.sprintf "(Int64.to_int (Int64.shift_left v.(%d) %d))" slot (-f)
    else
      Printf.sprintf "(Int64.to_int (Int64.div v.(%d) (Int64.shift_left 1L %d)))"
        slot (min f 62)

(* The firing of Ram_model, as in Ram_cell.kernel: produce the
   pre-write word at the wrapped address, stage the resized write when
   the enable is true (the commit section applies it).  The address
   [a_] is reduced into [0, words) before it indexes the image, and the
   staged address is [a_] or -1, which the commit tests. *)
let ram_fire_txt mode i (r : Compiled_sim.ram) =
  let open Compiled_sim in
  String.concat "\n  "
    ([
       Printf.sprintf "(let a_ = %s mod %d in" (ram_to_int_txt mode r) r.ram_words;
       Printf.sprintf " let a_ = if a_ < 0 then a_ + %d else a_ in" r.ram_words;
     ]
    @ (match r.ram_rdata with
      | Some (slot, stamp) ->
        [
          Printf.sprintf " v.(%d) <- ram_%d.(a_);" slot i;
          Printf.sprintf " stamp.(%d) <- !cycle;" stamp;
        ]
      | None -> [])
    @ [
        Printf.sprintf " if v.(%d) <> %s then begin" r.ram_we (zero mode);
        Printf.sprintf "   ram_%d_pa := a_;" i;
        Printf.sprintf "   ram_%d_pv := %s" i
          (resize_txt mode ~ctx:"ram" ~round:Fixed.Truncate ~overflow:Fixed.Wrap
             r.ram_wdata_fmt r.ram_data_fmt
             (Printf.sprintf "v.(%d)" r.ram_wdata));
        " end";
        Printf.sprintf " else ram_%d_pa := (-1));" i;
      ])

(* [step], straight-line: each component's selection binds its
   transition [sel_ci] for the cycle; then every block A, the B-phase
   schedule (B blocks, inlined RAM firings, host kernel hooks), the RAM
   and kernel commits, and each component's register commit and next
   state.  FSM states live in one [states] array indexed by component,
   so the native host can read and force them through the ABI. *)
let step_txt cx (p : Compiled_sim.program) =
  let open Compiled_sim in
  let buf = Buffer.create 65536 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let arms ci body =
    pf "  (match sel_%d with\n" ci;
    Array.iteri
      (fun ti tr -> pf "    | %d ->\n      %s\n" ti (body tr))
      p.pg_comps.(ci).co_transitions;
    pf "    | _ -> ());\n"
  in
  let block ci stmts =
    match Array.to_list stmts with
    | [] -> "()"
    | l ->
      String.concat ";\n      "
        (List.map (stmt_txt cx ~where:p.pg_comps.(ci).co_name) l)
  in
  Array.iteri
    (fun ci c ->
      pf "  (* component %d: %S *)\n" ci c.co_name;
      pf "  let sel_%d = (match states.(%d) with\n" ci ci;
      Array.iteri
        (fun s trs ->
          let chain =
            Array.fold_right
              (fun ti rest ->
                Printf.sprintf "if %s then %d else %s"
                  (guard_txt cx c.co_transitions.(ti))
                  ti rest)
              trs "(-1)"
          in
          pf "    | %d ->\n      %s\n" s chain)
        c.co_by_state;
      pf "    | _ -> (-1)) in\n")
    p.pg_comps;
  Array.iteri (fun ci _ -> arms ci (fun tr -> block ci tr.tr_block_a)) p.pg_comps;
  Array.iter
    (function
      | Component ci -> arms ci (fun tr -> block ci tr.tr_block_b)
      | Inline_ram i -> pf "  %s\n" (ram_fire_txt cx.mode i p.pg_rams.(i))
      | Host_kernel j -> pf "  kernels.(%d) ();\n" j)
    p.pg_schedule;
  Array.iter
    (function
      | Component _ -> ()
      | Inline_ram i ->
        pf "  if !ram_%d_pa >= 0 then begin\n" i;
        pf "    ram_%d.(!ram_%d_pa) <- !ram_%d_pv;\n" i i i;
        pf "    ram_%d_pa := (-1)\n" i;
        pf "  end;\n"
      | Host_kernel j -> pf "  kernel_commits.(%d) ();\n" j)
    p.pg_schedule;
  Array.iteri
    (fun ci _ ->
      arms ci (fun tr ->
          String.concat ";\n      "
            (Array.to_list
               (Array.map
                  (fun (cur, nxt) -> Printf.sprintf "v.(%d) <- v.(%d)" cur nxt)
                  tr.tr_commit)
            @ [ Printf.sprintf "states.(%d) <- %d" ci tr.tr_goto ])))
    p.pg_comps;
  pf "  incr cycle\n";
  buf

type shape = Plugin | Standalone

(* The body: value store, stamps, helpers, tables, power-on, [step] and
   [reset].  A plugin's body follows its ROM tables as the body of a
   generative functor [Make], each application of which is one
   simulator instance. *)
let emit_body buf mode (p : Compiled_sim.program) shape =
  let open Compiled_sim in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let cx =
    {
      mode;
      consts = Hashtbl.of_seq (List.to_seq p.pg_consts);
      rom_names = Hashtbl.create 8;
      roms = [];
    }
  in
  let step = step_txt cx p in
  let n_stamps = max 1 (Array.length p.pg_nets) in
  let roms () =
    List.iter
      (fun (var, contents) ->
        pf "let %s = [|" var;
        Array.iter (fun m -> pf " %s;" (lit mode m)) contents;
        pf " |]\n")
      (List.rev cx.roms)
  in
  if shape = Plugin then begin
    roms ();
    pf "\nmodule Make () = struct\n"
  end;
  pf "let v = Array.make %d %s\n" p.pg_slots (zero mode);
  pf "let stamp = Array.make %d (-1)\n" n_stamps;
  pf "let cycle = ref 0\n";
  pf "let overflow_error what =\n";
  pf "  raise (%s (Printf.sprintf \"%%s (cycle %%d)\" what !cycle))\n"
    (match shape with Plugin -> "Ocapi_native_abi.Native_overflow" | Standalone -> "Overflow");
  emit_helpers buf mode;
  if shape = Standalone then roms ();
  (* Inlined RAM stores: backing array + single staged write (pa < 0
     means nothing staged), mirroring Ram_cell's [pending] ref. *)
  Array.iteri
    (fun i r ->
      pf "let ram_%d = Array.make %d %s\n" i r.ram_words (zero mode);
      pf "let ram_%d_pa = ref (-1)\n" i;
      pf "let ram_%d_pv = ref %s\n" i (zero mode))
    p.pg_rams;
  let n_kernels = Array.length p.pg_kernels in
  pf "let kernels : (unit -> unit) array = Array.make %d (fun () -> ())\n"
    n_kernels;
  pf "let kernel_commits : (unit -> unit) array = Array.make %d (fun () -> ())\n\n"
    n_kernels;
  pf "let power_on () =\n  Array.fill v 0 %d %s;\n" p.pg_slots (zero mode);
  Array.iter (fun r -> pf "  v.(%d) <- %s;\n" r.reg_cur (lit mode r.reg_init)) p.pg_regs;
  pf "  ()\n";
  pf "let () = power_on ()\n\n";
  pf "let states : int array = [|";
  Array.iter (fun c -> pf " %d;" c.co_initial) p.pg_comps;
  pf " |]\n\n";
  pf "let step () =\n";
  Buffer.add_buffer buf step;
  pf "\n";
  pf "let reset () =\n";
  pf "  cycle := 0;\n";
  pf "  Array.fill stamp 0 %d (-1);\n" n_stamps;
  pf "  power_on ();\n";
  Array.iteri (fun ci c -> pf "  states.(%d) <- %d;\n" ci c.co_initial) p.pg_comps;
  Array.iteri
    (fun i r ->
      pf "  Array.fill ram_%d 0 %d %s;\n" i r.ram_words (zero mode);
      pf "  ram_%d_pa := (-1);\n" i)
    p.pg_rams;
  pf "  ()\n\n";
  if shape = Plugin then pf "end\n\n"

let mode_of p = if word_mode_ok p then Word else I64

(* --- the plugin -------------------------------------------------------------- *)

(* The text indexes its arrays unchecked ({!plugin_flags}), so the
   program's indices are checked first. *)
let emit_plugin sys p =
  Compiled_sim.check_indices p;
  if not (word_mode_ok p) then
    Ocapi_error.fail Ocapi_error.Unsupported ~engine:"native"
      ~construct:(Cycle_system.name sys)
      "plugin: a mantissa of system %s may not fit an unboxed int"
      (Cycle_system.name sys);
  let buf = Buffer.create 65536 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pf "(* Generated by ocapi-ml: native simulator plugin for system %S. *)\n"
    (Cycle_system.name sys);
  pf "(* Emitter v%d, unboxed int value store; loaded via Dynlink, driven through\n"
    emitter_version;
  pf "   instances of the factory it registers with Ocapi_native_abi. *)\n\n";
  emit_body buf Word p Plugin;
  let rams f =
    String.concat "; " (List.init (Array.length p.Compiled_sim.pg_rams) f)
  in
  pf "let create () =\n";
  pf "  let module I = Make () in\n";
  pf "  {\n";
  pf "    Ocapi_native_abi.p_values = I.v;\n";
  pf "    p_stamps = I.stamp;\n";
  pf "    p_cycle = I.cycle;\n";
  pf "    p_states = I.states;\n";
  pf "    p_rams = [| %s |];\n" (rams (Printf.sprintf "I.ram_%d"));
  pf "    p_ram_staged = [| %s |];\n" (rams (Printf.sprintf "I.ram_%d_pa"));
  pf "    p_kernels = I.kernels;\n";
  pf "    p_kernel_commits = I.kernel_commits;\n";
  pf "    p_step = I.step;\n";
  pf "    p_reset = I.reset;\n";
  pf "  }\n\n";
  pf "let () = Ocapi_native_abi.register create\n";
  Buffer.contents buf

(* --- the standalone simulator ------------------------------------------------ *)

let emit_standalone sys ~cycles =
  let p = Compiled_sim.lower sys in
  let mode = mode_of p in
  let open Compiled_sim in
  Array.iter
    (fun k ->
      Ocapi_error.fail Ocapi_error.Unsupported ~engine:"compiled"
        ~construct:k.hk_name
        "standalone simulator: untimed kernel %s carries no model to embed"
        k.hk_name)
    p.pg_kernels;
  (* Per stimulus, its column over the window: a presence string
     ('1' on cycles carrying a token) and the mantissas (0 elsewhere). *)
  let stims =
    Array.map
      (fun (name, slot, stamp) ->
        let col = Cycle_system.input_column sys name in
        let present =
          String.init cycles (fun c ->
              if Cycle_system.column_present col c then '1' else '0')
        in
        let values =
          Array.init cycles (fun c ->
              if present.[c] = '1' then Cycle_system.column_mantissa col c
              else 0L)
        in
        (slot, stamp, present, values))
      p.pg_stims
  in
  let buf = Buffer.create 65536 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pf "(* Generated by ocapi-ml: compiled simulator for system %S. *)\n"
    (Cycle_system.name sys);
  pf "(* %d cycles of embedded stimuli; prints \"<cycle> <probe> <mantissa>\". *)\n\n"
    cycles;
  pf "exception Overflow of string\n";
  emit_body buf mode p Standalone;
  Array.iteri
    (fun i (_, _, present, values) ->
      pf "let stim_%d = [|" i;
      Array.iter (fun m -> pf " %s;" (lit mode m)) values;
      pf " |]\n";
      pf "let stim_%d_present = %S\n" i present)
    stims;
  pf "\nlet () =\n";
  pf "  for c = 0 to %d do\n" (cycles - 1);
  Array.iteri
    (fun i (slot, stamp, _, _) ->
      pf "    if stim_%d_present.[c] = '1' then begin\n" i;
      pf "      v.(%d) <- stim_%d.(c);\n      stamp.(%d) <- c\n    end;\n" slot i
        stamp)
    stims;
  pf "    step ();\n";
  Array.iter
    (fun (name, slot, stamp, _) ->
      pf "    if stamp.(%d) = c then Printf.printf \"%%d %%s %s\\n\" c %S v.(%d);\n"
        stamp
        (match mode with Word -> "%d" | I64 -> "%Ld")
        name slot)
    p.pg_probes;
  pf "  done\n";
  Buffer.contents buf
