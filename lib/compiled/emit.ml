(* OCaml source emission for the compiled simulator (fig 7: "a C++
   description can be regenerated to yield an application-specific and
   optimized compiled code simulator").  Two shapes share one renderer:

   - {!emit_ocaml}: a standalone program depending only on the standard
     library, with recorded stimuli embedded as literals; it prints one
     line per probe token so its behaviour can be diffed against the
     in-process engines.

   - {!emit_plugin}: a library-shaped module for the native engine.  It
     registers step/reset closures and its raw state arrays through
     [Ocapi_native_abi] instead of defining [main]; stimuli, probes and
     fault pokes stay on the host side of the ABI.  When the width-bound
     analysis ({!word_mode_ok}) proves every intermediate mantissa fits
     an unboxed 63-bit [int], the plugin is emitted over native [int]
     words ([Word] mode); otherwise it falls back to [int64] cells
     ([I64] mode), semantically identical to the interpreted compiled
     engine on any width. *)

let unsupported fmt =
  Format.kasprintf (fun s -> raise (Compiled_types.Unsupported s)) fmt

(* Bumped whenever the emitted plugin text, the slot-layout contract or
   the [Ocapi_native_abi] record shape changes incompatibly; folded into
   the .cmxs cache key so stale artifacts are never paired with a newer
   host. *)
let emitter_version = 3

let sanitize name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c
      | _ -> '_')
    (String.lowercase_ascii name)

(* --- allocation (textual twin of Compiled_sim's) ----------------------- *)

type alloc = {
  mutable next_slot : int;
  net_slot : (string, int) Hashtbl.t;
  net_fmt : (string, Fixed.format) Hashtbl.t;
  net_stamp : (string, int) Hashtbl.t;
  reg_cur : (int, int) Hashtbl.t;
  reg_next : (int, int) Hashtbl.t;
  reg_init : (int64 * int) list ref;
  node_slot : (int, int) Hashtbl.t;
  sink_net : (string * string, string) Hashtbl.t;
  driver_net : (string * string, string) Hashtbl.t;
  roms : (string * int64 array) list ref;  (* emitted name, contents *)
  rom_names : (string, string) Hashtbl.t;  (* rom name -> emitted name *)
}

let fresh a =
  let s = a.next_slot in
  a.next_slot <- s + 1;
  s

let slot_of_node a n =
  match Hashtbl.find_opt a.node_slot (Signal.id n) with
  | Some s -> s
  | None ->
    let s = fresh a in
    Hashtbl.replace a.node_slot (Signal.id n) s;
    s

let rom_var a r =
  let name = Signal.Rom.name r in
  match Hashtbl.find_opt a.rom_names name with
  | Some v -> v
  | None ->
    let v = Printf.sprintf "rom_%s_%d" (sanitize name) (List.length !(a.roms)) in
    let contents =
      Array.init (Signal.Rom.size r) (fun i ->
          Fixed.mantissa (Signal.Rom.get r i))
    in
    a.roms := (v, contents) :: !(a.roms);
    Hashtbl.replace a.rom_names name v;
    v

(* Slot allocation shared by both emission shapes: nets first, in
   [Cycle_system.nets] order (net i also owns stamp i), then a
   current/next slot pair per register in [all_regs] order.  The native
   host derives every stimulus/probe/poke slot from this contract alone,
   so no layout metadata needs to ride with a cached .cmxs. *)
let make_alloc sys =
  let a =
    {
      next_slot = 0;
      net_slot = Hashtbl.create 64;
      net_fmt = Hashtbl.create 64;
      net_stamp = Hashtbl.create 64;
      reg_cur = Hashtbl.create 64;
      reg_next = Hashtbl.create 64;
      reg_init = ref [];
      node_slot = Hashtbl.create 1024;
      sink_net = Hashtbl.create 64;
      driver_net = Hashtbl.create 64;
      roms = ref [];
      rom_names = Hashtbl.create 8;
    }
  in
  let nets = Cycle_system.nets sys in
  List.iteri
    (fun i (net_name, (dc, dp), sinks) ->
      Hashtbl.replace a.net_slot net_name (fresh a);
      Hashtbl.replace a.net_stamp net_name i;
      Hashtbl.replace a.driver_net (dc, dp) net_name;
      List.iter
        (fun (sc, sp) -> Hashtbl.replace a.sink_net (sc, sp) net_name)
        sinks)
    nets;
  List.iter
    (fun r ->
      let id = Signal.Reg.id r in
      let cur = fresh a and nxt = fresh a in
      Hashtbl.replace a.reg_cur id cur;
      Hashtbl.replace a.reg_next id nxt;
      a.reg_init := (Fixed.mantissa (Signal.Reg.init r), cur) :: !(a.reg_init))
    (Cycle_system.all_regs sys);
  (a, nets)

(* Net formats, as in Compiled_sim: primary inputs and untimed ports
   declare theirs; timed outputs take the producing expression's. *)
let compute_net_formats a sys =
  let set net fmt =
    match Hashtbl.find_opt a.net_fmt net with
    | None -> Hashtbl.replace a.net_fmt net fmt
    | Some f ->
      if not (Fixed.equal_format f fmt) then
        unsupported "emit: net %s is driven with inconsistent formats %s and %s"
          net
          (Fixed.format_to_string f) (Fixed.format_to_string fmt)
  in
  List.iter
    (fun (name, fmt, _) ->
      match Hashtbl.find_opt a.driver_net (name, "out") with
      | Some net -> set net fmt
      | None -> ())
    (Cycle_system.primary_inputs sys);
  List.iter
    (fun (name, k) ->
      List.iter
        (fun (port, _) ->
          match Hashtbl.find_opt a.driver_net (name, port) with
          | Some net -> set net (Dataflow.Kernel.port_format k port)
          | None -> ())
        k.Dataflow.Kernel.k_outputs)
    (Cycle_system.untimed_components sys);
  List.iter
    (fun (cname, fsm) ->
      List.iter
        (fun sfg ->
          List.iter
            (fun (port, e) ->
              match Hashtbl.find_opt a.driver_net (cname, port) with
              | Some net -> set net (Signal.fmt e)
              | None -> ())
            (Sfg.outputs sfg))
        (Fsm.all_sfgs fsm))
    (Cycle_system.timed_components sys)

(* --- expression text ----------------------------------------------------- *)

(* [I64] renders over [int64] cells (the standalone simulator and the
   boxed plugin); [Word] renders over unboxed [int] words and is only
   valid when {!word_mode_ok} proved the bounds. *)
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

let wrap_txt (f : Fixed.format) x =
  match f.Fixed.signedness with
  | Fixed.Unsigned -> Printf.sprintf "(wrap_u %d %s)" f.Fixed.width x
  | Fixed.Signed -> Printf.sprintf "(wrap_s %d %s)" f.Fixed.width x

let sat_txt mode (f : Fixed.format) x =
  Printf.sprintf "(sat %s %s %s)"
    (lit mode (Fixed.min_mantissa f))
    (lit mode (Fixed.max_mantissa f))
    x

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
    | Fixed.Round_nearest -> Printf.sprintf "(rnd_near %d %s)" k x
    | Fixed.Round_even -> Printf.sprintf "(rnd_even %d %s)" k x

let resize_txt mode ?(ctx = "guard") ~round ~overflow (src : Fixed.format)
    (dst : Fixed.format) x =
  let k = src.Fixed.frac - dst.Fixed.frac in
  let ovf v =
    match overflow with
    | Fixed.Wrap -> wrap_txt dst v
    | Fixed.Saturate -> sat_txt mode dst v
  in
  if k > 0 then ovf (round_txt mode round k x)
  else if -k > 62 then
    (* Same semantics as Fixed.resize / the in-process compiled engine:
       zero passes, a nonzero mantissa raises a structured overflow
       carrying the construct, target format and failing cycle. *)
    Printf.sprintf "(if %s = %s then %s else overflow_error %S)" x (zero mode)
      (zero mode)
      (Printf.sprintf "%s: resize to %s: shift too large for nonzero value"
         ctx
         (Fixed.format_to_string dst))
  else ovf (shl_txt mode x (-k))

(* Text of the expression for node [n].  With [~comp:(Some cname)] this
   is a statement-level node whose children are referenced through their
   slots; with [comp = None] it is a pure guard rendered by inline
   recursion (guards cannot read inputs). *)
let rec expr_text mode a ?comp n =
  let s x =
    match comp with
    | Some _ -> Printf.sprintf "v.(%d)" (slot_of_node a x)
    | None -> expr_text mode a x
  in
  let ctx = match comp with Some c -> c | None -> "guard" in
  let nf = Signal.fmt n in
  match Signal.op n with
  | Signal.Const v -> lit mode (Fixed.mantissa v)
  | Signal.Input_read i -> begin
    match comp with
    | None -> unsupported "emit: guard reads input %s" (Signal.Input.name i)
    | Some cname -> begin
      match Hashtbl.find_opt a.sink_net (cname, Signal.Input.name i) with
      | Some net -> Printf.sprintf "v.(%d)" (Hashtbl.find a.net_slot net)
      | None ->
        unsupported "emit: input %s.%s is not connected" cname
          (Signal.Input.name i)
    end
  end
  | Signal.Reg_read r ->
    Printf.sprintf "v.(%d)" (Hashtbl.find a.reg_cur (Signal.Reg.id r))
  | Signal.Add (x, y) ->
    let ka, kb = align_shifts (Signal.fmt x) (Signal.fmt y) in
    bin_txt mode "Int64.add" "+" (shl_txt mode (s x) ka) (shl_txt mode (s y) kb)
  | Signal.Sub (x, y) ->
    let ka, kb = align_shifts (Signal.fmt x) (Signal.fmt y) in
    bin_txt mode "Int64.sub" "-" (shl_txt mode (s x) ka) (shl_txt mode (s y) kb)
  | Signal.Mul (x, y) -> bin_txt mode "Int64.mul" "*" (s x) (s y)
  | Signal.Neg x -> begin
    match mode with
    | I64 -> Printf.sprintf "(Int64.neg %s)" (s x)
    | Word -> Printf.sprintf "(- %s)" (s x)
  end
  | Signal.Abs x -> begin
    match mode with
    | I64 -> Printf.sprintf "(Int64.abs %s)" (s x)
    | Word -> Printf.sprintf "(abs %s)" (s x)
  end
  | Signal.And (x, y) ->
    let ka, kb = align_shifts (Signal.fmt x) (Signal.fmt y) in
    wrap_txt nf
      (bin_txt mode "Int64.logand" "land" (shl_txt mode (s x) ka)
         (shl_txt mode (s y) kb))
  | Signal.Or (x, y) ->
    let ka, kb = align_shifts (Signal.fmt x) (Signal.fmt y) in
    wrap_txt nf
      (bin_txt mode "Int64.logor" "lor" (shl_txt mode (s x) ka)
         (shl_txt mode (s y) kb))
  | Signal.Xor (x, y) ->
    let ka, kb = align_shifts (Signal.fmt x) (Signal.fmt y) in
    wrap_txt nf
      (bin_txt mode "Int64.logxor" "lxor" (shl_txt mode (s x) ka)
         (shl_txt mode (s y) kb))
  | Signal.Not x -> begin
    match mode with
    | I64 -> wrap_txt nf (Printf.sprintf "(Int64.lognot %s)" (s x))
    | Word -> wrap_txt nf (Printf.sprintf "(lnot %s)" (s x))
  end
  | Signal.Eq (x, y) ->
    let ka, kb = align_shifts (Signal.fmt x) (Signal.fmt y) in
    Printf.sprintf "(if %s = %s then %s else %s)" (shl_txt mode (s x) ka)
      (shl_txt mode (s y) kb) (one mode) (zero mode)
  | Signal.Lt (x, y) ->
    let ka, kb = align_shifts (Signal.fmt x) (Signal.fmt y) in
    Printf.sprintf "(if %s < %s then %s else %s)" (shl_txt mode (s x) ka)
      (shl_txt mode (s y) kb) (one mode) (zero mode)
  | Signal.Le (x, y) ->
    let ka, kb = align_shifts (Signal.fmt x) (Signal.fmt y) in
    Printf.sprintf "(if %s <= %s then %s else %s)" (shl_txt mode (s x) ka)
      (shl_txt mode (s y) kb) (one mode) (zero mode)
  | Signal.Mux (sel, x, y) ->
    let rx =
      resize_txt mode ~ctx ~round:Fixed.Truncate ~overflow:Fixed.Wrap
        (Signal.fmt x) nf (s x)
    in
    let ry =
      resize_txt mode ~ctx ~round:Fixed.Truncate ~overflow:Fixed.Wrap
        (Signal.fmt y) nf (s y)
    in
    Printf.sprintf "(if %s <> %s then %s else %s)" (s sel) (zero mode) rx ry
  | Signal.Resize (round, overflow, x) ->
    resize_txt mode ~ctx ~round ~overflow (Signal.fmt x) nf (s x)
  | Signal.Rom_read (r, idx) ->
    let var = rom_var a r in
    let len = Signal.Rom.size r in
    let frac = (Signal.fmt idx).Fixed.frac in
    if frac <= 0 then
      match mode with
      | I64 ->
        Printf.sprintf "%s.(Int64.to_int %s mod %d)" var
          (shl_txt mode (s idx) (-frac))
          len
      | Word ->
        Printf.sprintf "%s.(%s mod %d)" var (shl_txt mode (s idx) (-frac)) len
    else begin
      match mode with
      | I64 ->
        Printf.sprintf "%s.(Int64.to_int (Int64.div %s %LdL) mod %d)" var
          (s idx)
          (Int64.shift_left 1L (min frac 62))
          len
      | Word ->
        Printf.sprintf "%s.((%s / (1 lsl %d)) mod %d)" var (s idx)
          (min frac 62) len
    end
  | Signal.Shift_left (x, _) | Signal.Shift_right (x, _) -> s x

let node_expr_text mode a comp_name n = expr_text mode a ~comp:comp_name n
let pure_expr_text mode a e = expr_text mode a e

(* --- classification (shared logic) --------------------------------------- *)

(* NOTE: every child must be visited even when the answer is already
   known — short-circuiting would leave siblings unclassified, and an
   unclassified input-dependent node would default to block A and read
   stale values. *)
let classify_nodes roots =
  let cls : (int, bool) Hashtbl.t = Hashtbl.create 256 in
  let rec go n =
    match Hashtbl.find_opt cls (Signal.id n) with
    | Some b -> b
    | None ->
      let b =
        match Signal.op n with
        | Signal.Input_read _ -> true
        | Signal.Const _ | Signal.Reg_read _ -> false
        | Signal.Neg x | Signal.Abs x | Signal.Not x
        | Signal.Resize (_, _, x)
        | Signal.Rom_read (_, x)
        | Signal.Shift_left (x, _)
        | Signal.Shift_right (x, _) -> go x
        | Signal.Add (x, y) | Signal.Sub (x, y) | Signal.Mul (x, y)
        | Signal.And (x, y) | Signal.Or (x, y) | Signal.Xor (x, y)
        | Signal.Eq (x, y) | Signal.Lt (x, y) | Signal.Le (x, y) ->
          let bx = go x in
          let by = go y in
          bx || by
        | Signal.Mux (s, x, y) ->
          let bs = go s in
          let bx = go x in
          let by = go y in
          bs || bx || by
      in
      Hashtbl.replace cls (Signal.id n) b;
      b
  in
  List.iter (fun r -> ignore (go r)) roots;
  fun n ->
    match Hashtbl.find_opt cls (Signal.id n) with Some b -> b | None -> false

(* --- width-bound analysis (Word-mode safety) ----------------------------- *)

(* A conservative static fixpoint over magnitude bounds: [bits b] means
   every value the node can carry satisfies |v| < 2^b.  OCaml's native
   [int] is 63 bits (62 magnitude bits + sign), so Word mode is safe iff
   every node — including shifted operands and rounding intermediates —
   stays within 62 magnitude bits, and every format width fed to a
   wrap/saturate helper (which computes [1 lsl width]) is at most 61.
   Registers hold raw (unwrapped) committed expression values, so their
   bounds come from the same fixpoint, seeded with the initial value. *)

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

let rec bound_expr a memo net_bits reg_bits comp n =
  match Hashtbl.find_opt memo (Signal.id n) with
  | Some b -> b
  | None ->
    let bx x = bound_expr a memo net_bits reg_bits comp x in
    let nf = Signal.fmt n in
    let resize_bound ~round ~overflow (src : Fixed.format)
        (dst : Fixed.format) b =
      let k = src.Fixed.frac - dst.Fixed.frac in
      ignore overflow;
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
    let b =
      match Signal.op n with
      | Signal.Const v -> bits_of_int64 (Fixed.mantissa v)
      | Signal.Input_read i -> begin
        match Hashtbl.find_opt a.sink_net (comp, Signal.Input.name i) with
        | Some net -> (
          match Hashtbl.find_opt net_bits net with Some b -> b | None -> 0)
        | None -> 0
      end
      | Signal.Reg_read r -> begin
        match Hashtbl.find_opt reg_bits (Signal.Reg.id r) with
        | Some b -> b
        | None -> 0
      end
      | Signal.Add (x, y) | Signal.Sub (x, y) ->
        let ka, kb = align_shifts (Signal.fmt x) (Signal.fmt y) in
        let bx' = checked (bx x + ka) and by' = checked (bx y + kb) in
        max bx' by' + 1
      | Signal.Mul (x, y) -> bx x + bx y
      | Signal.Neg x | Signal.Abs x -> bx x
      | Signal.And (x, y) | Signal.Or (x, y) | Signal.Xor (x, y) ->
        let ka, kb = align_shifts (Signal.fmt x) (Signal.fmt y) in
        ignore (checked (bx x + ka));
        ignore (checked (bx y + kb));
        checked_width nf
      | Signal.Not x ->
        ignore (checked (bx x + 1));
        checked_width nf
      | Signal.Eq (x, y) | Signal.Lt (x, y) | Signal.Le (x, y) ->
        let ka, kb = align_shifts (Signal.fmt x) (Signal.fmt y) in
        ignore (checked (bx x + ka));
        ignore (checked (bx y + kb));
        1
      | Signal.Mux (sel, x, y) ->
        ignore (bx sel);
        let rx =
          resize_bound ~round:Fixed.Truncate ~overflow:Fixed.Wrap
            (Signal.fmt x) nf (bx x)
        in
        let ry =
          resize_bound ~round:Fixed.Truncate ~overflow:Fixed.Wrap
            (Signal.fmt y) nf (bx y)
        in
        max rx ry
      | Signal.Resize (round, overflow, x) ->
        resize_bound ~round ~overflow (Signal.fmt x) nf (bx x)
      | Signal.Rom_read (r, idx) ->
        let bidx = bx idx in
        let frac = (Signal.fmt idx).Fixed.frac in
        if frac <= 0 then ignore (checked (bidx + -frac))
        else if frac > width_limit then raise Too_wide;
        let m = ref 0 in
        for i = 0 to Signal.Rom.size r - 1 do
          m := max !m (bits_of_int64 (Fixed.mantissa (Signal.Rom.get r i)))
        done;
        !m
      | Signal.Shift_left (x, _) | Signal.Shift_right (x, _) -> bx x
    in
    let b = checked b in
    Hashtbl.replace memo (Signal.id n) b;
    b

(* [word_mode_ok a sys] decides whether Word-mode emission is exact for
   [sys].  Monotone relaxation over per-net / per-register bounds; any
   bound exceeding the 62-bit magnitude limit (or any wrap width above
   61) rejects.  Termination: bounds only grow and are capped. *)
let word_mode_ok a sys =
  try
    let net_bits : (string, int) Hashtbl.t = Hashtbl.create 64 in
    let reg_bits : (int, int) Hashtbl.t = Hashtbl.create 64 in
    List.iter
      (fun (name, (fmt : Fixed.format), _) ->
        match Hashtbl.find_opt a.driver_net (name, "out") with
        | Some net -> Hashtbl.replace net_bits net (checked_width fmt)
        | None -> ())
      (Cycle_system.primary_inputs sys);
    List.iter
      (fun (name, k) ->
        List.iter
          (fun (port, _) ->
            match Hashtbl.find_opt a.driver_net (name, port) with
            | Some net ->
              Hashtbl.replace net_bits net
                (checked_width (Dataflow.Kernel.port_format k port))
            | None -> ())
          k.Dataflow.Kernel.k_outputs)
      (Cycle_system.untimed_components sys);
    List.iter
      (fun r ->
        Hashtbl.replace reg_bits (Signal.Reg.id r)
          (checked (bits_of_int64 (Fixed.mantissa (Signal.Reg.init r)))))
      (Cycle_system.all_regs sys);
    let relax tbl key b =
      let old = match Hashtbl.find_opt tbl key with Some o -> o | None -> 0 in
      if b > old then begin
        Hashtbl.replace tbl key b;
        true
      end
      else false
    in
    let changed = ref true in
    while !changed do
      changed := false;
      List.iter
        (fun (cname, fsm) ->
          List.iter
            (fun tr ->
              let memo = Hashtbl.create 256 in
              let bound n = bound_expr a memo net_bits reg_bits cname n in
              ignore (bound (Fsm.guard_expr tr.Fsm.t_guard));
              List.iter
                (fun sfg ->
                  List.iter
                    (fun (port, e) ->
                      let b = bound e in
                      match Hashtbl.find_opt a.driver_net (cname, port) with
                      | Some net ->
                        if relax net_bits net b then changed := true
                      | None -> ())
                    (Sfg.outputs sfg);
                  List.iter
                    (fun (reg, e) ->
                      let b = bound e in
                      if relax reg_bits (Signal.Reg.id reg) b then
                        changed := true)
                    (Sfg.assigns sfg))
                tr.Fsm.t_actions)
            (Fsm.transitions fsm))
        (Cycle_system.timed_components sys)
    done;
    (* Inlined RAM models compute [Fixed.to_int] of the address and a
       truncate/wrap resize of the write data in plugin code; both may
       shift left, so their intermediates must obey the same magnitude
       limit as every other node. *)
    List.iter
      (fun (name, k) ->
        match k.Dataflow.Kernel.k_model with
        | Some (Dataflow.Kernel.Ram_model { data_fmt; addr_port; wdata_port; _ })
          ->
          ignore (checked_width data_fmt);
          let input_net_bits port =
            match Hashtbl.find_opt a.sink_net (name, port) with
            | None -> None
            | Some net ->
              let fmt =
                match Hashtbl.find_opt a.net_fmt net with
                | Some f -> f
                | None -> Dataflow.Kernel.port_format k port
              in
              let b =
                match Hashtbl.find_opt net_bits net with
                | Some b -> b
                | None -> 0
              in
              Some (fmt, b)
          in
          (match input_net_bits addr_port with
          | Some (f, b) when f.Fixed.frac < 0 ->
            ignore (checked (b + -f.Fixed.frac))
          | _ -> ());
          (match input_net_bits wdata_port with
          | Some (f, b) ->
            let shift = data_fmt.Fixed.frac - f.Fixed.frac in
            if shift > 0 then ignore (checked (b + shift))
          | None -> ())
        | _ -> ())
      (Cycle_system.untimed_components sys);
    true
  with Too_wide -> false

(* --- shared per-component rendering -------------------------------------- *)

type comp_text = {
  ct_name : string;
  ct_cid : string;  (* sanitized identifier *)
  ct_index : int;  (* index into the FSM-state array *)
  ct_select : string;
  ct_block_a : string;
  ct_block_b : string;
  ct_commit : string;
  ct_initial : int;
  ct_states : int;
}

(* Renders one match arm set per component.  FSM states live in a shared
   [states : int array] (indexed by component order) in both emission
   shapes, so the native host can read and force them through the ABI. *)
let build_comp_texts mode a sys ~b_written ~b_read ~n_statements =
  let all_timed = Cycle_system.timed_components sys in
  List.mapi
    (fun ci (cname, fsm) ->
      let cid = sanitize cname in
      let transitions = Array.of_list (Fsm.transitions fsm) in
      let block_a = Buffer.create 1024
      and block_b = Buffer.create 1024
      and commits = Buffer.create 256 in
      let ba fmt = Printf.ksprintf (Buffer.add_string block_a) fmt in
      let bb fmt = Printf.ksprintf (Buffer.add_string block_b) fmt in
      let bc fmt = Printf.ksprintf (Buffer.add_string commits) fmt in
      Array.iteri
        (fun ti tr ->
          let roots =
            List.concat_map
              (fun sfg ->
                List.map snd (Sfg.outputs sfg) @ List.map snd (Sfg.assigns sfg))
              tr.Fsm.t_actions
          in
          let is_b = classify_nodes roots in
          let emitted = Hashtbl.create 128 in
          let a_stmts = ref [] and b_stmts = ref [] and c_stmts = ref [] in
          let emit_node n =
            Signal.fold_dag n ~init:() ~f:(fun () x ->
                if not (Hashtbl.mem emitted (Signal.id x)) then begin
                  Hashtbl.add emitted (Signal.id x) ();
                  let txt =
                    Printf.sprintf "v.(%d) <- %s" (slot_of_node a x)
                      (node_expr_text mode a cname x)
                  in
                  if is_b x then b_stmts := txt :: !b_stmts
                  else a_stmts := txt :: !a_stmts;
                  incr n_statements;
                  match Signal.op x with
                  | Signal.Input_read i -> begin
                    match
                      Hashtbl.find_opt a.sink_net (cname, Signal.Input.name i)
                    with
                    | Some net -> Hashtbl.replace b_read (cname, net) ()
                    | None -> ()
                  end
                  | _ -> ()
                end)
          in
          List.iter
            (fun sfg ->
              List.iter
                (fun (port, e) ->
                  emit_node e;
                  match Hashtbl.find_opt a.driver_net (cname, port) with
                  | None -> ()
                  | Some net ->
                    let txt =
                      Printf.sprintf "v.(%d) <- v.(%d); stamp.(%d) <- !cycle"
                        (Hashtbl.find a.net_slot net)
                        (slot_of_node a e)
                        (Hashtbl.find a.net_stamp net)
                    in
                    incr n_statements;
                    if is_b e then begin
                      b_stmts := txt :: !b_stmts;
                      Hashtbl.replace b_written net cname
                    end
                    else a_stmts := txt :: !a_stmts)
                (Sfg.outputs sfg);
              List.iter
                (fun (reg, e) ->
                  emit_node e;
                  let nxt = Hashtbl.find a.reg_next (Signal.Reg.id reg) in
                  let cur = Hashtbl.find a.reg_cur (Signal.Reg.id reg) in
                  let txt =
                    Printf.sprintf "v.(%d) <- v.(%d)" nxt (slot_of_node a e)
                  in
                  if is_b e then b_stmts := txt :: !b_stmts
                  else a_stmts := txt :: !a_stmts;
                  n_statements := !n_statements + 2;
                  c_stmts := Printf.sprintf "v.(%d) <- v.(%d)" cur nxt :: !c_stmts)
                (Sfg.assigns sfg))
            tr.Fsm.t_actions;
          let body stmts =
            match List.rev stmts with
            | [] -> "()"
            | l -> String.concat ";\n      " l
          in
          ba "    | %d ->\n      %s\n" ti (body !a_stmts);
          bb "    | %d ->\n      %s\n" ti (body !b_stmts);
          bc "    | %d ->\n      %s;\n      states.(%d) <- %d\n" ti
            (body !c_stmts) ci
            (Fsm.state_index tr.Fsm.t_goto))
        transitions;
      (* Guard selection per state. *)
      let sel = Buffer.create 512 in
      let bs fmt = Printf.ksprintf (Buffer.add_string sel) fmt in
      List.iter
        (fun st ->
          bs "    | %d ->\n" (Fsm.state_index st);
          let trs =
            Array.to_list transitions
            |> List.mapi (fun i tr -> (i, tr))
            |> List.filter (fun (_, tr) -> Fsm.state_equal tr.Fsm.t_from st)
          in
          let rec chain = function
            | [] -> "(-1)"
            | (i, tr) :: rest ->
              let g = Fsm.guard_expr tr.Fsm.t_guard in
              Printf.sprintf "if %s <> %s then %d else %s"
                (pure_expr_text mode a g) (zero mode) i (chain rest)
          in
          bs "      %s\n" (chain trs))
        (Fsm.states fsm);
      {
        ct_name = cname;
        ct_cid = cid;
        ct_index = ci;
        ct_select = Buffer.contents sel;
        ct_block_a = Buffer.contents block_a;
        ct_block_b = Buffer.contents block_b;
        ct_commit = Buffer.contents commits;
        ct_initial = Fsm.state_index (Fsm.initial_state fsm);
        ct_states = List.length (Fsm.states fsm);
      })
    all_timed

(* Topological order of the B-phase units: timed components followed by
   untimed kernels (as (kernel name, nets read) pairs; kernel outputs
   were pre-seeded into [b_written]).  Returns indices into the combined
   unit list. *)
let schedule_b_units ~b_written ~b_read comp_texts kernel_reads =
  let names =
    List.map (fun ct -> ct.ct_name) comp_texts
    @ List.map fst kernel_reads
  in
  let idx = Hashtbl.create 16 in
  List.iteri (fun i n -> Hashtbl.replace idx n i) names;
  let n_units = List.length names in
  let succs = Array.make (max 1 n_units) [] in
  let indeg = Array.make (max 1 n_units) 0 in
  let add_edge writer reader =
    if writer <> reader then begin
      let w = Hashtbl.find idx writer and r = Hashtbl.find idx reader in
      succs.(w) <- r :: succs.(w);
      indeg.(r) <- indeg.(r) + 1
    end
  in
  Hashtbl.iter
    (fun (reader, net) () ->
      match Hashtbl.find_opt b_written net with
      | Some writer -> add_edge writer reader
      | None -> ())
    b_read;
  List.iter
    (fun (kname, nets_read) ->
      List.iter
        (fun net ->
          match Hashtbl.find_opt b_written net with
          | Some writer -> add_edge writer kname
          | None -> ())
        nets_read)
    kernel_reads;
  let order = ref [] and queue = Queue.create () and visited = ref 0 in
  for i = 0 to n_units - 1 do
    if indeg.(i) = 0 then Queue.add i queue
  done;
  while not (Queue.is_empty queue) do
    let i = Queue.pop queue in
    order := i :: !order;
    incr visited;
    List.iter
      (fun j ->
        indeg.(j) <- indeg.(j) - 1;
        if indeg.(j) = 0 then Queue.add j queue)
      succs.(i)
  done;
  if !visited <> n_units then
    unsupported "emit: combinational component cycle";
  List.rev !order

(* Shared text fragments: mode helpers, ROMs, register initialization. *)

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
  | Word ->
    pf "let wrap_u w x = x land ((1 lsl w) - 1)\n";
    pf "let wrap_s w x =\n";
    pf "  let m = x land ((1 lsl w) - 1) in\n";
    pf "  if m land (1 lsl (w - 1)) <> 0 then m - (1 lsl w) else m\n";
    pf "let sat lo hi x = if x < lo then lo else if x > hi then hi else x\n";
    pf "let rnd_near k x = (x + (1 lsl (k - 1))) asr k\n";
    pf "let rnd_even k x =\n";
    pf "  let f = x asr k in\n";
    pf "  let r = x - (f lsl k) in\n";
    pf "  let h = 1 lsl (k - 1) in\n";
    pf "  if r > h then f + 1 else if r < h then f\n";
    pf "  else if f land 1 = 1 then f + 1 else f\n";
    pf "let _ = wrap_u 1 0, wrap_s 1 0, sat 0 0 0, rnd_near 1 0, rnd_even 1 0\n";
    pf "let _ = overflow_error\n\n"

let emit_roms buf mode a =
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  List.iter
    (fun (var, contents) ->
      pf "let %s = [|" var;
      Array.iter (fun m -> pf " %s;" (lit mode m)) contents;
      pf " |]\n")
    (List.rev !(a.roms))

let emit_reg_inits buf mode a =
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pf "let () = (* register initial values *)\n";
  List.iter
    (fun (init, cur) -> pf "  v.(%d) <- %s;\n" cur (lit mode init))
    !(a.reg_init);
  pf "  ()\n\n"

let emit_comp_funs buf comp_texts =
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  List.iter
    (fun ct ->
      pf "let sel_%s = ref (-1)\n" ct.ct_cid;
      pf "let select_%s () =\n  sel_%s := (match states.(%d) with\n%s    | _ -> (-1))\n"
        ct.ct_cid ct.ct_cid ct.ct_index ct.ct_select;
      pf "let block_a_%s () =\n  (match !sel_%s with\n%s    | _ -> ())\n"
        ct.ct_cid ct.ct_cid ct.ct_block_a;
      pf "let block_b_%s () =\n  (match !sel_%s with\n%s    | _ -> ())\n"
        ct.ct_cid ct.ct_cid ct.ct_block_b;
      pf "let commit_%s () =\n  (match !sel_%s with\n%s    | _ -> ())\n\n"
        ct.ct_cid ct.ct_cid ct.ct_commit)
    comp_texts

let emit_states buf comp_texts =
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pf "let states : int array = [|";
  List.iter (fun ct -> pf " %d;" ct.ct_initial) comp_texts;
  pf " |]\n"

(* --- standalone emission --------------------------------------------------- *)

let emit_ocaml sys ~cycles =
  if Cycle_system.untimed_components sys <> [] then
    unsupported "emit_ocaml: untimed kernels cannot be embedded in source";
  let mode = I64 in
  let a, nets = make_alloc sys in
  let buf = Buffer.create 65536 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let all_timed = Cycle_system.timed_components sys in
  (* Pre-allocate node slots. *)
  List.iter
    (fun (_, fsm) ->
      List.iter
        (fun tr ->
          List.iter
            (fun sfg ->
              List.iter
                (fun root ->
                  Signal.fold_dag root ~init:() ~f:(fun () n ->
                      ignore (slot_of_node a n)))
                (List.map snd (Sfg.outputs sfg) @ List.map snd (Sfg.assigns sfg)))
            tr.Fsm.t_actions)
        (Fsm.transitions fsm))
    all_timed;
  (* Stimuli: evaluate now, require totality. *)
  let stim_rows =
    List.filter_map
      (fun (name, _fmt, stim) ->
        match Hashtbl.find_opt a.driver_net (name, "out") with
        | None -> None
        | Some net ->
          let vals =
            Array.init cycles (fun c ->
                match stim c with
                | Some v -> Fixed.mantissa v
                | None ->
                  unsupported
                    "emit_ocaml: stimulus %s produced no token at cycle %d"
                    name c)
          in
          Some (sanitize name, Hashtbl.find a.net_slot net,
                Hashtbl.find a.net_stamp net, vals))
      (Cycle_system.primary_inputs sys)
  in
  let b_written = Hashtbl.create 32 in
  let b_read = Hashtbl.create 32 in
  let n_statements = ref 0 in
  let comp_texts =
    build_comp_texts mode a sys ~b_written ~b_read ~n_statements
  in
  let b_order = schedule_b_units ~b_written ~b_read comp_texts [] in
  let comp_arr = Array.of_list comp_texts in
  (* Probes. *)
  let probe_rows =
    List.filter_map
      (fun pname ->
        match Hashtbl.find_opt a.sink_net (pname, "in") with
        | None -> None
        | Some net ->
          Some (pname, Hashtbl.find a.net_slot net, Hashtbl.find a.net_stamp net))
      (Cycle_system.probes sys)
  in
  (* --- assemble the file --- *)
  pf "(* Generated by ocapi-ml: compiled simulator for system %S. *)\n"
    (Cycle_system.name sys);
  pf "(* %d cycles of embedded stimuli; prints \"<cycle> <probe> <mantissa>\". *)\n\n"
    cycles;
  pf "let v = Array.make %d 0L\n" (max 1 a.next_slot);
  pf "let stamp = Array.make %d (-1)\n" (max 1 (List.length nets));
  pf "let cycle = ref 0\n";
  pf "exception Overflow of string\n";
  pf "let overflow_error what =\n";
  pf "  raise (Overflow (Printf.sprintf \"compiled/%%s (cycle %%d)\" what !cycle))\n";
  emit_helpers buf mode;
  emit_roms buf mode a;
  List.iter
    (fun (name, slot, stampi, vals) ->
      pf "let stim_%s = [|" name;
      Array.iter (fun m -> pf " %LdL;" m) vals;
      pf " |]\n";
      pf "let stim_%s_slot = %d\nlet stim_%s_stamp = %d\n" name slot name stampi)
    stim_rows;
  pf "\n";
  emit_reg_inits buf mode a;
  emit_states buf comp_texts;
  emit_comp_funs buf comp_texts;
  pf "let step () =\n";
  List.iter
    (fun (name, _, _, _) ->
      pf "  v.(stim_%s_slot) <- stim_%s.(!cycle); stamp.(stim_%s_stamp) <- !cycle;\n"
        name name name)
    stim_rows;
  List.iter (fun ct -> pf "  select_%s ();\n" ct.ct_cid) comp_texts;
  List.iter (fun ct -> pf "  block_a_%s ();\n" ct.ct_cid) comp_texts;
  List.iter (fun i -> pf "  block_b_%s ();\n" comp_arr.(i).ct_cid) b_order;
  List.iter
    (fun (pname, slot, stampi) ->
      pf "  (if stamp.(%d) = !cycle then Printf.printf \"%%d %s %%Ld\\n\" !cycle v.(%d));\n"
        stampi pname slot)
    probe_rows;
  List.iter (fun ct -> pf "  commit_%s ();\n" ct.ct_cid) comp_texts;
  pf "  incr cycle\n\n";
  pf "let () = for _ = 1 to %d do step () done\n" cycles;
  Buffer.contents buf

(* --- plugin emission ------------------------------------------------------- *)

(* Everything the native host needs to wire a loaded plugin to the
   design: slot/stamp indices for stimuli and probes, register and FSM
   inventories, kernel port wiring.  Derived from the same allocation
   the plugin text was rendered from; plain data, so it can be
   marshalled into a sidecar next to a cached .cmxs. *)
type plugin_meta = {
  pm_version : int;
  pm_packed : bool;  (* Word mode (true) or boxed int64 mode *)
  pm_slots : int;
  pm_stamp_count : int;
  pm_statements : int;
  pm_stims : (string * int * int) list;  (* input name, slot, stamp *)
  pm_probes : (string * int * int * Fixed.format) list;
      (* probe name, slot, stamp, carried format *)
  pm_regs : (string * Fixed.format * int) list;
      (* register name, declared format, current-value slot;
         in Cycle_system.all_regs order *)
  pm_comps : (string * int) list;  (* timed component name, state count *)
  pm_kernels :
    (string
    * (string * int * Fixed.format) list  (* input port, slot, format *)
    * (string * int * int) list)  (* output port, slot, stamp *)
    list;  (* in Cycle_system.untimed_components order *)
}

(* An untimed kernel carrying a {!Dataflow.Kernel.model} is inlined
   into the plugin instead of crossing the host boundary: per-firing
   token boxing through the closure interface is the dominant cycle
   cost of RAM-heavy designs (the DECT transceiver drives seven RAM
   cells every cycle), and the model pins down bit-exact semantics the
   generated code can reproduce directly. *)
type ram_info = {
  ri_id : int;  (* per-plugin RAM ordinal, for identifier naming *)
  ri_words : int;
  ri_data_fmt : Fixed.format;
  ri_addr_slot : int;
  ri_addr_fmt : Fixed.format;
  ri_wdata_slot : int;
  ri_wdata_fmt : Fixed.format;
  ri_we_slot : int;
  ri_rdata : (int * int) option;  (* slot, stamp; None if unconnected *)
}

(* [Fixed.to_int] of the address value, rendered over the mode's cells.
   Word mode is exact because {!word_mode_ok} checked the left-shift
   bound for negative fractions, and a positive fraction >= 62 divides
   a sub-2^62 magnitude to zero exactly as [Int64.div] does. *)
let ram_to_int_txt mode ri =
  let f = ri.ri_addr_fmt.Fixed.frac in
  match mode with
  | Word ->
    if f = 0 then Printf.sprintf "v.(%d)" ri.ri_addr_slot
    else if f < 0 then Printf.sprintf "(v.(%d) lsl %d)" ri.ri_addr_slot (-f)
    else if f > 61 then "0"
    else Printf.sprintf "(v.(%d) / (1 lsl %d))" ri.ri_addr_slot f
  | I64 ->
    if f = 0 then Printf.sprintf "(Int64.to_int v.(%d))" ri.ri_addr_slot
    else if f < 0 then
      Printf.sprintf "(Int64.to_int (Int64.shift_left v.(%d) %d))"
        ri.ri_addr_slot (-f)
    else
      Printf.sprintf
        "(Int64.to_int (Int64.div v.(%d) (Int64.shift_left 1L %d)))"
        ri.ri_addr_slot (min f 62)

(* The firing of Ram_model, as in Ram_cell.kernel: produce the
   pre-write word at the wrapped address, stage the resized write when
   the enable is true (the commit section applies it). *)
let ram_fire_lines mode ri =
  let i = ri.ri_id in
  [
    Printf.sprintf "(let a_ = %s mod %d in" (ram_to_int_txt mode ri)
      ri.ri_words;
    Printf.sprintf " let a_ = if a_ < 0 then a_ + %d else a_ in" ri.ri_words;
  ]
  @ (match ri.ri_rdata with
    | Some (slot, stampi) ->
      [
        Printf.sprintf " v.(%d) <- ram_%d.(a_);" slot i;
        Printf.sprintf " stamp.(%d) <- !cycle;" stampi;
      ]
    | None -> [])
  @ [
      Printf.sprintf " if v.(%d) <> %s then begin" ri.ri_we_slot (zero mode);
      Printf.sprintf "   ram_%d_pa := a_;" i;
      Printf.sprintf "   ram_%d_pv := %s" i
        (resize_txt mode ~ctx:"ram" ~round:Fixed.Truncate ~overflow:Fixed.Wrap
           ri.ri_wdata_fmt ri.ri_data_fmt
           (Printf.sprintf "v.(%d)" ri.ri_wdata_slot));
      " end";
      Printf.sprintf " else ram_%d_pa := (-1));" i;
    ]

let emit_plugin sys =
  let a, nets = make_alloc sys in
  compute_net_formats a sys;
  let all_timed = Cycle_system.timed_components sys in
  List.iter
    (fun (_, fsm) ->
      List.iter
        (fun tr ->
          List.iter
            (fun sfg ->
              List.iter
                (fun root ->
                  Signal.fold_dag root ~init:() ~f:(fun () n ->
                      ignore (slot_of_node a n)))
                (List.map snd (Sfg.outputs sfg) @ List.map snd (Sfg.assigns sfg)))
            tr.Fsm.t_actions)
        (Fsm.transitions fsm))
    all_timed;
  let mode = if word_mode_ok a sys then Word else I64 in
  (* Kernel wiring, as in Compiled_sim.compile. *)
  let kernels =
    List.map
      (fun (cname, k) ->
        let inputs =
          List.map
            (fun (port, _) ->
              match Hashtbl.find_opt a.sink_net (cname, port) with
              | Some net ->
                let fmt =
                  match Hashtbl.find_opt a.net_fmt net with
                  | Some f -> f
                  | None -> Dataflow.Kernel.port_format k port
                in
                (port, Hashtbl.find a.net_slot net, fmt)
              | None ->
                unsupported "emit_plugin: kernel %s input %s unconnected" cname
                  port)
            k.Dataflow.Kernel.k_inputs
        in
        let outputs =
          List.filter_map
            (fun (port, _) ->
              match Hashtbl.find_opt a.driver_net (cname, port) with
              | Some net ->
                Some
                  (port, Hashtbl.find a.net_slot net,
                   Hashtbl.find a.net_stamp net)
              | None -> None)
            k.Dataflow.Kernel.k_outputs
        in
        (cname, k, inputs, outputs))
      (Cycle_system.untimed_components sys)
  in
  (* Partition: kernels carrying an inlinable declarative model run
     entirely inside the plugin; the rest keep crossing the host
     boundary through the closure arrays.  Host indices are assigned
     over the surviving kernels only, so [pm_kernels] and the plugin's
     closure arrays stay index-aligned. *)
  let next_ram = ref 0 in
  let next_host = ref 0 in
  let kunits =
    List.map
      (fun (cname, k, inputs, outputs) ->
        let host () =
          let hj = !next_host in
          incr next_host;
          `Host (hj, (cname, inputs, outputs))
        in
        match k.Dataflow.Kernel.k_model with
        | Some
            (Dataflow.Kernel.Ram_model
               { words; data_fmt; addr_port; wdata_port; we_port; rdata_port })
          -> (
          let inp p =
            List.find_opt (fun (q, _, _) -> String.equal q p) inputs
          in
          match (inp addr_port, inp wdata_port, inp we_port) with
          | Some (_, aslot, afmt), Some (_, wslot, wfmt), Some (_, eslot, _) ->
            let ri =
              {
                ri_id = !next_ram;
                ri_words = words;
                ri_data_fmt = data_fmt;
                ri_addr_slot = aslot;
                ri_addr_fmt = afmt;
                ri_wdata_slot = wslot;
                ri_wdata_fmt = wfmt;
                ri_we_slot = eslot;
                ri_rdata =
                  List.find_map
                    (fun (p, slot, st) ->
                      if String.equal p rdata_port then Some (slot, st)
                      else None)
                    outputs;
              }
            in
            incr next_ram;
            `Inline ri
          | _ -> host ())
        | _ -> host ())
      kernels
  in
  let rams =
    List.filter_map (function `Inline ri -> Some ri | `Host _ -> None) kunits
  in
  let host_kernels =
    List.filter_map
      (function `Host (_, row) -> Some row | `Inline _ -> None)
      kunits
  in
  let kunit_arr = Array.of_list kunits in
  let b_written = Hashtbl.create 32 in
  let b_read = Hashtbl.create 32 in
  (* Kernel outputs are always B-phase-written (inlined or not). *)
  List.iter
    (fun (kname, _, _, outputs) ->
      List.iter
        (fun (port, _, _) ->
          match Hashtbl.find_opt a.driver_net (kname, port) with
          | Some net -> Hashtbl.replace b_written net kname
          | None -> ())
        outputs)
    kernels;
  let n_statements = ref 0 in
  let comp_texts =
    build_comp_texts mode a sys ~b_written ~b_read ~n_statements
  in
  let kernel_reads =
    List.map
      (fun (kname, _, inputs, _) ->
        ( kname,
          List.map
            (fun (port, _, _) -> Hashtbl.find a.sink_net (kname, port))
            inputs ))
      kernels
  in
  let b_order = schedule_b_units ~b_written ~b_read comp_texts kernel_reads in
  let n_comps = List.length comp_texts in
  let comp_arr = Array.of_list comp_texts in
  let n_kernels = List.length host_kernels in
  let stim_rows =
    List.filter_map
      (fun (name, _fmt, _stim) ->
        match Hashtbl.find_opt a.driver_net (name, "out") with
        | None -> None
        | Some net ->
          Some (name, Hashtbl.find a.net_slot net, Hashtbl.find a.net_stamp net))
      (Cycle_system.primary_inputs sys)
  in
  let probe_rows =
    List.filter_map
      (fun pname ->
        match Hashtbl.find_opt a.sink_net (pname, "in") with
        | None -> None
        | Some net ->
          let fmt =
            match Hashtbl.find_opt a.net_fmt net with
            | Some f -> f
            | None ->
              unsupported "emit_plugin: probe %s net %s has unknown format"
                pname net
          in
          Some
            (pname, Hashtbl.find a.net_slot net, Hashtbl.find a.net_stamp net,
             fmt))
      (Cycle_system.probes sys)
  in
  let reg_rows =
    Cycle_system.all_regs sys
    |> List.map (fun r ->
           ( Signal.Reg.name r,
             Signal.Reg.fmt r,
             Hashtbl.find a.reg_cur (Signal.Reg.id r) ))
  in
  let buf = Buffer.create 65536 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pf "(* Generated by ocapi-ml: native simulator plugin for system %S. *)\n"
    (Cycle_system.name sys);
  pf "(* Emitter v%d, %s value store; loaded via Dynlink, driven through\n"
    emitter_version
    (match mode with Word -> "unboxed int" | I64 -> "int64");
  pf "   the Ocapi_native_abi handoff record. *)\n\n";
  (match mode with
  | Word -> pf "let v = Array.make %d 0\n" (max 1 a.next_slot)
  | I64 -> pf "let v = Array.make %d 0L\n" (max 1 a.next_slot));
  pf "let stamp = Array.make %d (-1)\n" (max 1 (List.length nets));
  pf "let cycle = ref 0\n";
  pf "let overflow_error what =\n";
  pf "  raise (Ocapi_native_abi.Native_overflow\n";
  pf "           (Printf.sprintf \"%%s (cycle %%d)\" what !cycle))\n";
  emit_helpers buf mode;
  emit_roms buf mode a;
  (* Inlined RAM stores: backing array + single staged write (pa < 0
     means nothing staged), mirroring Ram_cell's [pending] ref. *)
  List.iter
    (fun ri ->
      pf "let ram_%d = Array.make %d %s\n" ri.ri_id ri.ri_words (zero mode);
      pf "let ram_%d_pa = ref (-1)\n" ri.ri_id;
      pf "let ram_%d_pv = ref %s\n" ri.ri_id (zero mode))
    rams;
  if rams <> [] then pf "\n";
  List.iter
    (fun ri ->
      pf "let commit_ram_%d () =\n" ri.ri_id;
      pf "  if !ram_%d_pa >= 0 then begin\n" ri.ri_id;
      pf "    ram_%d.(!ram_%d_pa) <- !ram_%d_pv;\n" ri.ri_id ri.ri_id ri.ri_id;
      pf "    ram_%d_pa := (-1)\n" ri.ri_id;
      pf "  end\n\n")
    rams;
  pf "let kernels : (unit -> unit) array = Array.make %d (fun () -> ())\n"
    n_kernels;
  pf "let kernel_commits : (unit -> unit) array = Array.make %d (fun () -> ())\n\n"
    n_kernels;
  emit_reg_inits buf mode a;
  emit_states buf comp_texts;
  emit_comp_funs buf comp_texts;
  pf "let step () =\n";
  List.iter (fun ct -> pf "  select_%s ();\n" ct.ct_cid) comp_texts;
  List.iter (fun ct -> pf "  block_a_%s ();\n" ct.ct_cid) comp_texts;
  List.iter
    (fun i ->
      if i < n_comps then pf "  block_b_%s ();\n" comp_arr.(i).ct_cid
      else
        match kunit_arr.(i - n_comps) with
        | `Inline ri ->
          List.iter (fun line -> pf "  %s\n" line) (ram_fire_lines mode ri)
        | `Host (hj, _) -> pf "  kernels.(%d) ();\n" hj)
    b_order;
  List.iter
    (fun i ->
      if i >= n_comps then
        match kunit_arr.(i - n_comps) with
        | `Inline ri -> pf "  commit_ram_%d ();\n" ri.ri_id
        | `Host (hj, _) -> pf "  kernel_commits.(%d) ();\n" hj)
    b_order;
  List.iter (fun ct -> pf "  commit_%s ();\n" ct.ct_cid) comp_texts;
  pf "  incr cycle\n\n";
  pf "let reset () =\n";
  pf "  cycle := 0;\n";
  pf "  Array.fill stamp 0 %d (-1);\n" (max 1 (List.length nets));
  (* Power-on values: every slot zero but the register inits (constants
     are emitted inline), as in a freshly loaded plugin. *)
  pf "  Array.fill v 0 %d %s;\n" (max 1 a.next_slot) (zero mode);
  List.iter
    (fun (init, cur) -> pf "  v.(%d) <- %s;\n" cur (lit mode init))
    !(a.reg_init);
  List.iter
    (fun ct ->
      pf "  states.(%d) <- %d;\n" ct.ct_index ct.ct_initial;
      pf "  sel_%s := (-1);\n" ct.ct_cid)
    comp_texts;
  List.iter
    (fun ri ->
      pf "  Array.fill ram_%d 0 %d %s;\n" ri.ri_id ri.ri_words (zero mode);
      pf "  ram_%d_pa := (-1);\n" ri.ri_id)
    rams;
  pf "  ()\n\n";
  pf "let () =\n";
  pf "  Ocapi_native_abi.register\n";
  pf "    {\n";
  (match mode with
  | Word -> pf "      Ocapi_native_abi.p_values = Ocapi_native_abi.Words v;\n"
  | I64 -> pf "      Ocapi_native_abi.p_values = Ocapi_native_abi.Boxed v;\n");
  pf "      p_stamps = stamp;\n";
  pf "      p_cycle = cycle;\n";
  pf "      p_states = states;\n";
  pf "      p_kernels = kernels;\n";
  pf "      p_kernel_commits = kernel_commits;\n";
  pf "      p_step = step;\n";
  pf "      p_reset = reset;\n";
  pf "    }\n";
  let meta =
    {
      pm_version = emitter_version;
      pm_packed = (mode = Word);
      pm_slots = max 1 a.next_slot;
      pm_stamp_count = max 1 (List.length nets);
      pm_statements = !n_statements;
      pm_stims = stim_rows;
      pm_probes = probe_rows;
      pm_regs = reg_rows;
      pm_comps = List.map (fun ct -> (ct.ct_name, ct.ct_states)) comp_texts;
      pm_kernels = host_kernels;
    }
  in
  (Buffer.contents buf, meta)
