let unsupported ?construct fmt =
  Ocapi_error.fail ?construct Ocapi_error.Unsupported ~engine:"compiled" fmt

(* --- the value store ------------------------------------------------------ *)

(* Every slot is an unboxed int64 at byte offset [8 * slot] of one
   [Bytes] image.  Applied directly, these primitives keep the values
   unboxed in native code; [Bytes.get_int64_ne] is a function behind the
   standard library's interface and boxes what it returns.  Statements,
   guards and commits use the unchecked pair: {!instantiate} checks
   every slot the program names against the store once. *)
external get : Bytes.t -> int -> int64 = "%caml_bytes_get64"
external set : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"
external unsafe_get : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external unsafe_set : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let off slot = slot lsl 3

(* --- mantissa-level operators --------------------------------------------- *)

(* Each operator's constants are resolved at compile time into plain
   data that the statements capture; the helpers below are inlined into
   the statements, so a statement calls no int64 -> int64 closure. *)

(* Two's-complement wrap into a format: the low [width] bits, less
   [w_modulus] when the sign bit [w_sign] is set (0L when unsigned). *)
type wrap = { w_mask : int64; w_sign : int64; w_modulus : int64 }

let wrap_of (f : Fixed.format) =
  let w = f.Fixed.width in
  {
    w_mask = Int64.sub (Int64.shift_left 1L w) 1L;
    w_sign =
      (match f.Fixed.signedness with
      | Fixed.Unsigned -> 0L
      | Fixed.Signed -> Int64.shift_left 1L (w - 1));
    w_modulus = Int64.shift_left 1L w;
  }

let[@inline] wrap w m =
  let low = Int64.logand m w.w_mask in
  if Int64.logand low w.w_sign <> 0L then Int64.sub low w.w_modulus else low

let[@inline] saturate ~lo ~hi (m : int64) =
  if m < lo then lo else if m > hi then hi else m

(* Arithmetic right shift by [k] (0 < k <= 63) rounding as [mode];
   [half] is 2^(k-1). *)
let[@inline] round mode ~k ~half m =
  match mode with
  | Fixed.Truncate -> Int64.shift_right m k
  | Fixed.Round_nearest -> Int64.shift_right (Int64.add m half) k
  | Fixed.Round_even ->
    let floor = Int64.shift_right m k in
    let rem = Int64.sub m (Int64.shift_left floor k) in
    if rem > half then Int64.add floor 1L
    else if rem < half then floor
    else if Int64.logand floor 1L = 1L then Int64.add floor 1L
    else floor

(* A resize between two formats, as [Fixed.resize]: [rz_shift > 0]
   drops that many fraction bits with rounding, otherwise the mantissa
   shifts left by [- rz_shift]; the result then wraps or saturates into
   the destination.  A left shift beyond 62 bits ([rz_huge]) is exact
   only for zero; any other value raises [rz_overflow ()]. *)
type resize = {
  rz_shift : int;
  rz_round : Fixed.rounding;
  rz_half : int64;
  rz_huge : bool;
  rz_saturate : bool;
  rz_lo : int64;
  rz_hi : int64;
  rz_wrap : wrap;
  rz_overflow : unit -> exn;
}

let resize_of ~overflow_exn ~round ~overflow (src : Fixed.format)
    (dst : Fixed.format) =
  let k = src.Fixed.frac - dst.Fixed.frac in
  (* Dropping more than 62 bits leaves the sign under every rounding. *)
  let k, round = if k > 62 then (63, Fixed.Truncate) else (k, round) in
  {
    rz_shift = k;
    rz_round = round;
    rz_half = (if k > 0 then Int64.shift_left 1L (k - 1) else 0L);
    rz_huge = -k > 62;
    rz_saturate =
      (match overflow with Fixed.Saturate -> true | Fixed.Wrap -> false);
    rz_lo = Fixed.min_mantissa dst;
    rz_hi = Fixed.max_mantissa dst;
    rz_wrap = wrap_of dst;
    rz_overflow = overflow_exn;
  }

let[@inline] resize r m =
  let m =
    if r.rz_shift > 0 then round r.rz_round ~k:r.rz_shift ~half:r.rz_half m
    else if r.rz_huge then if m = 0L then 0L else raise (r.rz_overflow ())
    else Int64.shift_left m (-r.rz_shift)
  in
  if r.rz_saturate then saturate ~lo:r.rz_lo ~hi:r.rz_hi m else wrap r.rz_wrap m

(* [Fixed.to_int] of a mantissa carried in a format of fraction [frac]. *)
let[@inline] to_int ~frac m =
  if frac <= 0 then Int64.to_int (Int64.shift_left m (-frac))
  else Int64.to_int (Int64.div m (Int64.shift_left 1L (min frac 62)))

(* Alignment shifts for a binary operation whose common fraction is the
   max of the operand fractions. *)
let align_shifts (fa : Fixed.format) (fb : Fixed.format) =
  let frac = max fa.Fixed.frac fb.Fixed.frac in
  (frac - fa.Fixed.frac, frac - fb.Fixed.frac)

let flip_bit ~name (f : Fixed.format) ~bit m =
  if bit < 0 || bit >= f.Fixed.width then
    invalid_arg
      (Printf.sprintf "flip_register_bit: bit %d outside %s for register %s"
         bit (Fixed.format_to_string f) name);
  wrap (wrap_of f) (Int64.logxor m (Int64.shift_left 1L bit))

let probe_trace sys probes ~slot =
  let names = Cycle_system.probes sys in
  let declared name =
    Array.find_map (fun (n, _, _, fmt) -> if n = name then Some fmt else None) probes
  in
  let trace =
    Cycle_system.Trace.create (List.map (fun name -> (name, declared name)) names)
  in
  ( trace,
    Cycle_system.Trace.feed trace
      (Array.map
         (fun (name, s, stamp, _) ->
           (Option.get (List.find_index (String.equal name) names), slot s, stamp))
         probes) )

(* --- the lowered program --------------------------------------------------- *)

type stmt =
  | Compute of { node : Signal.t; dst : int; args : int array }
  | Output of { dst : int; src : int; stamp : int }
  | Assign of { dst : int; src : int }

type transition = {
  tr_guard : stmt array;
  tr_guard_slot : int;
  tr_block_a : stmt array;
  tr_block_b : stmt array;
  tr_commit : (int * int) array;
  tr_goto : int;
}

type component = {
  co_name : string;
  co_initial : int;
  co_by_state : int array array;
  co_transitions : transition array;
}

type ram = {
  ram_name : string;
  ram_words : int;
  ram_data_fmt : Fixed.format;
  ram_addr : int;
  ram_addr_fmt : Fixed.format;
  ram_wdata : int;
  ram_wdata_fmt : Fixed.format;
  ram_we : int;
  ram_rdata : (int * int) option;
}

type kernel = {
  hk_name : string;
  hk_inputs : (string * int * Fixed.format) list;
  hk_outputs : (string * int * int) list;
}

type b_unit = Component of int | Inline_ram of int | Host_kernel of int

type register = {
  reg_name : string;
  reg_fmt : Fixed.format;
  reg_cur : int;
  reg_init : int64;
}

type program = {
  pg_slots : int;
  pg_consts : (int * int64) list;
  pg_regs : register array;
  pg_nets : (string * Fixed.format) array;
  pg_comps : component array;
  pg_rams : ram array;
  pg_kernels : kernel array;
  pg_schedule : b_unit array;
  pg_stims : (string * int * int) array;
  pg_probes : (string * int * int * Fixed.format) array;
  pg_statements : int;
}

(* --- lowering: slot allocation ----------------------------------------------- *)

(* Net [i] of [Cycle_system.nets] owns slot [i] and stamp [i]; the
   slots after the nets are allocated here. *)
type alloc = {
  mutable next_slot : int;
  reg_cur_of : (int, int) Hashtbl.t;  (* Signal.Reg.id -> slot *)
  reg_next_of : (int, int) Hashtbl.t;
  node_slot : (int, int) Hashtbl.t;  (* Signal node id -> slot *)
  mutable consts : (int * int64) list;  (* constant slots, power-on values *)
}

let fresh a =
  let s = a.next_slot in
  a.next_slot <- s + 1;
  s

(* Register reads and shifts (which only move the binary point) alias
   their source slot; every other node owns one.  A constant's slot is
   written once, into the power-on image. *)
let rec slot_of_node a n =
  match Signal.op n with
  | Signal.Reg_read r -> Hashtbl.find a.reg_cur_of (Signal.Reg.id r)
  | Signal.Shift_left (x, _) | Signal.Shift_right (x, _) -> slot_of_node a x
  | op -> (
    match Hashtbl.find_opt a.node_slot (Signal.id n) with
    | Some s -> s
    | None ->
      let s = fresh a in
      Hashtbl.replace a.node_slot (Signal.id n) s;
      (match op with
      | Signal.Const v -> a.consts <- (s, Fixed.mantissa v) :: a.consts
      | _ -> ());
      s)

(* --- node classification: does a node's cone read an SFG input? -------- *)

(* NOTE: every child must be visited even when the answer is already
   known — short-circuiting would leave siblings unclassified, and an
   unclassified input-dependent node would default to block A and read
   stale values.  Hence the let-bound disjunctions. *)
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
    match Hashtbl.find_opt cls (Signal.id n) with
    | Some b -> b
    | None -> false

(* Telemetry label for the static operator mix of a flattened program. *)
let op_kind_name n =
  match Signal.op n with
  | Signal.Const _ -> "const"
  | Signal.Input_read _ -> "input_read"
  | Signal.Reg_read _ -> "reg_read"
  | Signal.Add _ -> "add"
  | Signal.Sub _ -> "sub"
  | Signal.Mul _ -> "mul"
  | Signal.Neg _ -> "neg"
  | Signal.Abs _ -> "abs"
  | Signal.And _ -> "and"
  | Signal.Or _ -> "or"
  | Signal.Xor _ -> "xor"
  | Signal.Not _ -> "not"
  | Signal.Eq _ -> "eq"
  | Signal.Lt _ -> "lt"
  | Signal.Le _ -> "le"
  | Signal.Mux _ -> "mux"
  | Signal.Resize _ -> "resize"
  | Signal.Rom_read _ -> "rom_read"
  | Signal.Shift_left _ -> "shift_left"
  | Signal.Shift_right _ -> "shift_right"

(* --- lowering ------------------------------------------------------------- *)

let lower sys =
  let nets = Cycle_system.nets sys in
  let a =
    {
      next_slot = List.length nets;
      reg_cur_of = Hashtbl.create 64;
      reg_next_of = Hashtbl.create 64;
      node_slot = Hashtbl.create 1024;
      consts = [];
    }
  in
  let slot = Cycle_system.net_index in
  List.iter
    (fun r ->
      let id = Signal.Reg.id r in
      let cur = fresh a and nxt = fresh a in
      Hashtbl.replace a.reg_cur_of id cur;
      Hashtbl.replace a.reg_next_of id nxt)
    (Cycle_system.all_regs sys);
  let net_fmts =
    List.map (fun n -> (Cycle_system.net_name n, Cycle_system.net_format n)) nets
  in
  let all_timed = Cycle_system.timed_components sys in
  (* Pre-allocate node slots, guards included, so the store can be
     sized; when telemetry is on, also tally the static operator mix of
     the SFGs (each unique expression node once). *)
  let op_seen = Hashtbl.create 256 in
  List.iter
    (fun (_, fsm) ->
      List.iter
        (fun tr ->
          List.iter
            (fun sfg ->
              List.iter
                (fun root ->
                  Signal.fold_dag root ~init:() ~f:(fun () n ->
                      ignore (slot_of_node a n);
                      if
                        Ocapi_obs.enabled ()
                        && not (Hashtbl.mem op_seen (Signal.id n))
                      then begin
                        Hashtbl.add op_seen (Signal.id n) ();
                        Ocapi_obs.count ("compiled.ops." ^ op_kind_name n)
                      end))
                (List.map snd (Sfg.outputs sfg) @ List.map snd (Sfg.assigns sfg)))
            tr.Fsm.t_actions;
          Signal.fold_dag (Fsm.guard_expr tr.Fsm.t_guard) ~init:() ~f:(fun () n ->
              ignore (slot_of_node a n)))
        (Fsm.transitions fsm))
    all_timed;
  let n_statements = ref 0 in
  let b_written_nets : (string, string) Hashtbl.t = Hashtbl.create 64 in
  let b_read_by_comp : (string, (string, unit) Hashtbl.t) Hashtbl.t =
    Hashtbl.create 16
  in
  let note_b_read comp net =
    let tbl =
      match Hashtbl.find_opt b_read_by_comp comp with
      | Some t -> t
      | None ->
        let t = Hashtbl.create 8 in
        Hashtbl.replace b_read_by_comp comp t;
        t
    in
    Hashtbl.replace tbl net ()
  in
  (* The statement computing node [n] into its slot, or [None] for the
     nodes that need none (constants, register reads, shifts; see
     {!slot_of_node}).  [args] are the operand slots in operator order;
     an input read's one operand is the slot of the net it reads. *)
  let node_stmt cname n =
    let compute args =
      Some (Compute { node = n; dst = slot_of_node a n; args = Array.of_list args })
    in
    let operands xs = compute (List.map (slot_of_node a) xs) in
    match Signal.op n with
    | Signal.Const _ | Signal.Reg_read _
    | Signal.Shift_left _ | Signal.Shift_right _ -> None
    | Signal.Input_read i -> begin
      match Cycle_system.input_net sys cname (Signal.Input.name i) with
      | Some net -> compute [ slot net ]
      | None ->
        unsupported ~construct:cname
          "compiled: input %s.%s is not connected to any net" cname
          (Signal.Input.name i)
    end
    | Signal.Neg x | Signal.Abs x | Signal.Not x
    | Signal.Resize (_, _, x)
    | Signal.Rom_read (_, x) -> operands [ x ]
    | Signal.Add (x, y) | Signal.Sub (x, y) | Signal.Mul (x, y)
    | Signal.And (x, y) | Signal.Or (x, y) | Signal.Xor (x, y)
    | Signal.Eq (x, y) | Signal.Lt (x, y) | Signal.Le (x, y) ->
      operands [ x; y ]
    | Signal.Mux (s, x, y) -> operands [ s; x; y ]
  in
  (* [pg_statements] counts every node, elided ones included, plus one
     statement per output and per register assignment. *)
  let lower_transition cname tr (guard, guard_slot) =
    let roots =
      List.concat_map
        (fun sfg ->
          List.map snd (Sfg.outputs sfg) @ List.map snd (Sfg.assigns sfg))
        tr.Fsm.t_actions
    in
    let is_b = classify_nodes roots in
    let emitted = Hashtbl.create 128 in
    let block_a = ref [] and block_b = ref [] and commit = ref [] in
    let push in_b stmt =
      if in_b then block_b := stmt :: !block_b else block_a := stmt :: !block_a
    in
    let emit_node n =
      Signal.fold_dag n ~init:() ~f:(fun () x ->
          if not (Hashtbl.mem emitted (Signal.id x)) then begin
            Hashtbl.add emitted (Signal.id x) ();
            incr n_statements;
            Option.iter (push (is_b x)) (node_stmt cname x);
            match Signal.op x with
            | Signal.Input_read i -> begin
              match Cycle_system.input_net sys cname (Signal.Input.name i) with
              | Some net -> note_b_read cname (Cycle_system.net_name net)
              | None -> ()
            end
            | Signal.Const _ | Signal.Reg_read _ | Signal.Add _ | Signal.Sub _
            | Signal.Mul _ | Signal.Neg _ | Signal.Abs _ | Signal.And _
            | Signal.Or _ | Signal.Xor _ | Signal.Not _ | Signal.Eq _
            | Signal.Lt _ | Signal.Le _ | Signal.Mux _ | Signal.Resize _
            | Signal.Rom_read _ | Signal.Shift_left _ | Signal.Shift_right _ ->
              ()
          end)
    in
    List.iter
      (fun sfg ->
        List.iter
          (fun (port, e) ->
            emit_node e;
            match Cycle_system.output_net sys cname port with
            | None -> () (* unconnected output: value falls on the floor *)
            | Some net ->
              incr n_statements;
              push (is_b e)
                (Output
                   { dst = slot net; src = slot_of_node a e; stamp = slot net });
              if is_b e then
                Hashtbl.replace b_written_nets (Cycle_system.net_name net) cname)
          (Sfg.outputs sfg);
        List.iter
          (fun (reg, e) ->
            emit_node e;
            let nxt = Hashtbl.find a.reg_next_of (Signal.Reg.id reg) in
            let cur = Hashtbl.find a.reg_cur_of (Signal.Reg.id reg) in
            incr n_statements;
            push (is_b e) (Assign { dst = nxt; src = slot_of_node a e });
            commit := (cur, nxt) :: !commit)
          (Sfg.assigns sfg))
      tr.Fsm.t_actions;
    {
      tr_guard = guard;
      tr_guard_slot = guard_slot;
      tr_block_a = Array.of_list (List.rev !block_a);
      tr_block_b = Array.of_list (List.rev !block_b);
      tr_commit = Array.of_list (List.rev !commit);
      tr_goto = Fsm.state_index tr.Fsm.t_goto;
    }
  in
  (* A guard lowers like any expression: its statements run before it
     is tested, leaving its value in the guard's slot.  Guards read only
     registers and constants, so they sit outside the statement count. *)
  let lower_guard cname tr =
    let g = Fsm.guard_expr tr.Fsm.t_guard in
    (match Signal.input_deps g with
    | i :: _ ->
      unsupported ~construct:cname "guard reads input %s" (Signal.Input.name i)
    | [] -> ());
    let code =
      Signal.fold_dag g ~init:[] ~f:(fun acc n ->
          match node_stmt cname n with Some s -> s :: acc | None -> acc)
    in
    (Array.of_list (List.rev code), slot_of_node a g)
  in
  let comps =
    List.map
      (fun (cname, fsm) ->
        let transitions = Array.of_list (Fsm.transitions fsm) in
        let guards = Array.map (lower_guard cname) transitions in
        let trs = Array.map2 (lower_transition cname) transitions guards in
        let by_state = Array.make (List.length (Fsm.states fsm)) [] in
        Array.iteri
          (fun i tr ->
            let s = Fsm.state_index tr.Fsm.t_from in
            by_state.(s) <- i :: by_state.(s))
          transitions;
        {
          co_name = cname;
          co_initial = Fsm.state_index (Fsm.initial_state fsm);
          co_by_state = Array.map (fun l -> Array.of_list (List.rev l)) by_state;
          co_transitions = trs;
        })
      all_timed
    |> Array.of_list
  in
  (* Untimed kernels: one whose model is a RAM with all three inputs
     connected is inlined; the rest stay host kernels called through
     their closures. *)
  let rams = ref [] and host = ref [] in
  let kernel_units =
    List.map
      (fun (cname, k) ->
        let inputs =
          List.map
            (fun (port, _) ->
              match Cycle_system.input_net sys cname port with
              | Some net -> (port, slot net, Cycle_system.net_format net)
              | None ->
                unsupported ~construct:cname
                  "compiled: kernel %s input %s unconnected" cname port)
            k.Dataflow.Kernel.k_inputs
        in
        let outputs =
          List.filter_map
            (fun (port, _) ->
              match Cycle_system.output_net sys cname port with
              | Some net ->
                Hashtbl.replace b_written_nets (Cycle_system.net_name net) cname;
                Some (port, slot net, slot net)
              | None -> None)
            k.Dataflow.Kernel.k_outputs
        in
        let input p = List.find_opt (fun (q, _, _) -> String.equal q p) inputs in
        let as_host () =
          host := { hk_name = cname; hk_inputs = inputs; hk_outputs = outputs } :: !host;
          Host_kernel (List.length !host - 1)
        in
        match k.Dataflow.Kernel.k_model with
        | None -> as_host ()
        | Some
            (Dataflow.Kernel.Ram_model
               { words; data_fmt; addr_port; wdata_port; we_port; rdata_port }) -> (
          match (input addr_port, input wdata_port, input we_port) with
          | Some (_, addr, addr_fmt), Some (_, wdata, wdata_fmt), Some (_, we, _) ->
            rams :=
              {
                ram_name = cname;
                ram_words = words;
                ram_data_fmt = data_fmt;
                ram_addr = addr;
                ram_addr_fmt = addr_fmt;
                ram_wdata = wdata;
                ram_wdata_fmt = wdata_fmt;
                ram_we = we;
                ram_rdata =
                  List.find_map
                    (fun (p, slot, stamp) ->
                      if String.equal p rdata_port then Some (slot, stamp) else None)
                    outputs;
              }
              :: !rams;
            Inline_ram (List.length !rams - 1)
          | _ -> as_host ()))
      (Cycle_system.untimed_components sys)
    |> Array.of_list
  in
  (* B-phase schedule: topological order, edges writer(net) -> reader. *)
  let unit_names =
    Array.append
      (Array.map (fun c -> c.co_name) comps)
      (Array.of_list (List.map fst (Cycle_system.untimed_components sys)))
  in
  let n_comps = Array.length comps in
  let n_units = Array.length unit_names in
  let index_of_name = Hashtbl.create 16 in
  Array.iteri (fun i n -> Hashtbl.replace index_of_name n i) unit_names;
  let reads = Array.make n_units [] in
  Array.iteri
    (fun i name ->
      if i < n_comps then
        match Hashtbl.find_opt b_read_by_comp name with
        | Some tbl -> reads.(i) <- Hashtbl.fold (fun net () acc -> net :: acc) tbl []
        | None -> ())
    unit_names;
  List.iteri
    (fun j (cname, k) ->
      reads.(n_comps + j) <-
        List.filter_map
          (fun (port, _) ->
            Option.map Cycle_system.net_name
              (Cycle_system.input_net sys cname port))
          k.Dataflow.Kernel.k_inputs)
    (Cycle_system.untimed_components sys);
  let succs = Array.make n_units [] in
  let indeg = Array.make n_units 0 in
  Array.iteri
    (fun i nets_read ->
      List.iter
        (fun net ->
          match Hashtbl.find_opt b_written_nets net with
          | Some writer ->
            let w = Hashtbl.find index_of_name writer in
            if w <> i then begin
              succs.(w) <- i :: succs.(w);
              indeg.(i) <- indeg.(i) + 1
            end
          | None -> ())
        nets_read)
    reads;
  let order = ref [] in
  let queue = Queue.create () in
  Array.iteri (fun i d -> if d = 0 then Queue.add i queue) indeg;
  let visited = ref 0 in
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
  if !visited <> n_units then begin
    let stuck =
      Array.to_list unit_names |> List.filteri (fun i _ -> indeg.(i) > 0)
    in
    unsupported
      "compiled: combinational component cycle involving %s; use the \
       interpreted scheduler"
      (String.concat ", " stuck)
  end;
  let schedule =
    List.rev_map
      (fun i -> if i < n_comps then Component i else kernel_units.(i - n_comps))
      !order
    |> Array.of_list
  in
  let stims =
    List.filter_map
      (fun (name, _fmt, _stim) ->
        Option.map
          (fun net -> (name, slot net, slot net))
          (Cycle_system.output_net sys name "out"))
      (Cycle_system.primary_inputs sys)
  in
  let probes =
    List.filter_map
      (fun pname ->
        Option.map
          (fun net -> (pname, slot net, slot net, Cycle_system.net_format net))
          (Cycle_system.input_net sys pname "in"))
      (Cycle_system.probes sys)
  in
  let regs =
    List.map
      (fun r ->
        {
          reg_name = Signal.Reg.name r;
          reg_fmt = Signal.Reg.fmt r;
          reg_cur = Hashtbl.find a.reg_cur_of (Signal.Reg.id r);
          reg_init = Fixed.mantissa (Signal.Reg.init r);
        })
      (Cycle_system.all_regs sys)
  in
  {
    pg_slots = max 1 a.next_slot;
    pg_consts = a.consts;
    pg_regs = Array.of_list regs;
    pg_nets = Array.of_list net_fmts;
    pg_comps = comps;
    pg_rams = Array.of_list (List.rev !rams);
    pg_kernels = Array.of_list (List.rev !host);
    pg_schedule = schedule;
    pg_stims = Array.of_list stims;
    pg_probes = Array.of_list probes;
    pg_statements = !n_statements;
  }

(* --- the closure back end: one closure per statement ---------------------- *)

(* The statement computing [node] into [dst] from the operand slots
   [args].  [cycle_ref] is read lazily so overflow diagnostics carry the
   cycle of the failing step, not of compilation. *)
let compute_statement v (cycle_ref : int ref) comp_name node ~dst ~args =
  let s i = off args.(i) in
  let dst = off dst in
  let nf = Signal.fmt node in
  let overflow_exn () =
    Ocapi_error.Error
      (Ocapi_error.make Ocapi_error.Overflow ~engine:"compiled"
         ~construct:comp_name ~cycle:!cycle_ref
         (Printf.sprintf "resize to %s: shift too large for nonzero value"
            (Fixed.format_to_string nf)))
  in
  let resize_to ~round ~overflow x =
    resize_of ~overflow_exn ~round ~overflow (Signal.fmt x) nf
  in
  match Signal.op node with
  | Signal.Const _ | Signal.Reg_read _
  | Signal.Shift_left _ | Signal.Shift_right _ ->
    invalid_arg "Compiled_sim: an elided node has no statement"
  | Signal.Input_read _ ->
    let src = s 0 in
    fun () -> unsafe_set v dst (unsafe_get v src)
  | Signal.Add (x, y) ->
    let ka, kb = align_shifts (Signal.fmt x) (Signal.fmt y) in
    let sx = s 0 and sy = s 1 in
    fun () ->
      unsafe_set v dst
        (Int64.add (Int64.shift_left (unsafe_get v sx) ka)
           (Int64.shift_left (unsafe_get v sy) kb))
  | Signal.Sub (x, y) ->
    let ka, kb = align_shifts (Signal.fmt x) (Signal.fmt y) in
    let sx = s 0 and sy = s 1 in
    fun () ->
      unsafe_set v dst
        (Int64.sub (Int64.shift_left (unsafe_get v sx) ka)
           (Int64.shift_left (unsafe_get v sy) kb))
  | Signal.Mul _ ->
    let sx = s 0 and sy = s 1 in
    fun () -> unsafe_set v dst (Int64.mul (unsafe_get v sx) (unsafe_get v sy))
  | Signal.Neg _ ->
    let sx = s 0 in
    fun () -> unsafe_set v dst (Int64.neg (unsafe_get v sx))
  | Signal.Abs _ ->
    let sx = s 0 in
    fun () -> unsafe_set v dst (Int64.abs (unsafe_get v sx))
  | Signal.And (x, y) ->
    let ka, kb = align_shifts (Signal.fmt x) (Signal.fmt y) in
    let w = wrap_of nf and sx = s 0 and sy = s 1 in
    fun () ->
      unsafe_set v dst
        (wrap w
           (Int64.logand (Int64.shift_left (unsafe_get v sx) ka)
              (Int64.shift_left (unsafe_get v sy) kb)))
  | Signal.Or (x, y) ->
    let ka, kb = align_shifts (Signal.fmt x) (Signal.fmt y) in
    let w = wrap_of nf and sx = s 0 and sy = s 1 in
    fun () ->
      unsafe_set v dst
        (wrap w
           (Int64.logor (Int64.shift_left (unsafe_get v sx) ka)
              (Int64.shift_left (unsafe_get v sy) kb)))
  | Signal.Xor (x, y) ->
    let ka, kb = align_shifts (Signal.fmt x) (Signal.fmt y) in
    let w = wrap_of nf and sx = s 0 and sy = s 1 in
    fun () ->
      unsafe_set v dst
        (wrap w
           (Int64.logxor (Int64.shift_left (unsafe_get v sx) ka)
              (Int64.shift_left (unsafe_get v sy) kb)))
  | Signal.Not _ ->
    let w = wrap_of nf and sx = s 0 in
    fun () -> unsafe_set v dst (wrap w (Int64.lognot (unsafe_get v sx)))
  | Signal.Eq (x, y) ->
    let ka, kb = align_shifts (Signal.fmt x) (Signal.fmt y) in
    let sx = s 0 and sy = s 1 in
    fun () ->
      unsafe_set v dst
        (if
           Int64.equal
             (Int64.shift_left (unsafe_get v sx) ka)
             (Int64.shift_left (unsafe_get v sy) kb)
         then 1L
         else 0L)
  | Signal.Lt (x, y) ->
    let ka, kb = align_shifts (Signal.fmt x) (Signal.fmt y) in
    let sx = s 0 and sy = s 1 in
    fun () ->
      unsafe_set v dst
        (if
           Int64.shift_left (unsafe_get v sx) ka
           < Int64.shift_left (unsafe_get v sy) kb
         then 1L
         else 0L)
  | Signal.Le (x, y) ->
    let ka, kb = align_shifts (Signal.fmt x) (Signal.fmt y) in
    let sx = s 0 and sy = s 1 in
    fun () ->
      unsafe_set v dst
        (if
           Int64.shift_left (unsafe_get v sx) ka
           <= Int64.shift_left (unsafe_get v sy) kb
         then 1L
         else 0L)
  | Signal.Mux (_, x, y) ->
    let rx = resize_to ~round:Fixed.Truncate ~overflow:Fixed.Wrap x in
    let ry = resize_to ~round:Fixed.Truncate ~overflow:Fixed.Wrap y in
    let ss = s 0 and sx = s 1 and sy = s 2 in
    fun () ->
      unsafe_set v dst
        (if unsafe_get v ss <> 0L then resize rx (unsafe_get v sx)
         else resize ry (unsafe_get v sy))
  | Signal.Resize (round, overflow, x) ->
    let rz = resize_to ~round ~overflow x and sx = s 0 in
    fun () -> unsafe_set v dst (resize rz (unsafe_get v sx))
  | Signal.Rom_read (r, idx) ->
    let len = Signal.Rom.size r in
    let contents = Array.init len (fun i -> Fixed.mantissa (Signal.Rom.get r i)) in
    let frac = (Signal.fmt idx).Fixed.frac and si = s 0 in
    (* The index is data: the table read stays checked. *)
    fun () -> unsafe_set v dst contents.(to_int ~frac (unsafe_get v si) mod len)

type transition_code = {
  tc_block_a : (unit -> unit) array;
  tc_block_b : (unit -> unit) array;
  tc_commit : int array;  (* (current, next) register offset pairs *)
  tc_goto : int;
}

type comp_code = {
  cc_name : string;
  cc_initial : int;
  mutable cc_state : int;
  mutable cc_selected : int;  (* transition index, -1 = none *)
  cc_state_transitions : int array array;  (* per state, priority order *)
  cc_guard_code : (unit -> unit) array array;  (* per transition *)
  cc_guard : int array;  (* per transition: offset of the guard's value *)
  cc_transitions : transition_code array;
}

type kernel_code = {
  kc_kernel : Dataflow.Kernel.t;
  kc_inputs : (string * int * Fixed.format) list;  (* port, offset, fmt *)
  kc_outputs : (string * int * int) list;  (* port, offset, stamp *)
}

(* An untimed kernel carrying a [Ram_model] fires inline against the
   session's RAM image instead of through its closures, which the model
   guarantees implement exactly this.  Word [i] sits at byte offset
   [rm_base + 8 * i] of the image; the word after the last holds the
   staged write value. *)
type ram_code = {
  rm_words : int;
  rm_base : int;
  rm_addr : int;  (* input offsets in the value store *)
  rm_addr_frac : int;
  rm_we : int;
  rm_wdata : int;
  rm_write : resize;  (* wdata into the data format: truncate, wrap *)
  rm_rdata : int;  (* output offset, -1 when unconnected *)
  rm_rdata_stamp : int;
  mutable rm_staged : int;  (* word address of the staged write, -1 = none *)
}

(* A unit of the B-phase schedule. *)
type b_code = Comp of comp_code | Ram of ram_code | Kernel of kernel_code

type stim_code = {
  st_column : Cycle_system.column;
  st_slot : int;  (* byte offset *)
  st_stamp : int;
}

type t = {
  values : Bytes.t;
  power_on : Bytes.t;  (* [values] after reset *)
  rams : Bytes.t;  (* every inlined RAM's words, zero after reset *)
  stamps : int array;
  cycle_ref : int ref;  (* captured by output-store statements *)
  mutable cycle : int;
  comps : comp_code array;
  b_schedule : b_code array;
  ram_codes : ram_code array;  (* the inlined RAMs of [b_schedule] *)
  host_kernels : Dataflow.Kernel.t list;  (* its other kernels *)
  stims : stim_code array;
  trace : Cycle_system.Trace.t;  (* one column per probe of the system *)
  probes : Cycle_system.Trace.feed;  (* the connected ones, by byte offset *)
  (* Register exposure for fault injection, in [Cycle_system.all_regs]
     order — the same indexing every engine uses. *)
  regs : register array;
  n_statements : int;
}

let ram_code ~cycle_ref ~base r =
  let overflow_exn () =
    Ocapi_error.Error
      (Ocapi_error.make Ocapi_error.Overflow ~engine:"compiled"
         ~construct:r.ram_name ~cycle:!cycle_ref
         (Printf.sprintf "ram write resize to %s: shift too large"
            (Fixed.format_to_string r.ram_data_fmt)))
  in
  let rdata, rdata_stamp =
    match r.ram_rdata with
    | Some (slot, stamp) -> (off slot, stamp)
    | None -> (-1, -1)
  in
  {
    rm_words = r.ram_words;
    rm_base = off base;
    rm_addr = off r.ram_addr;
    rm_addr_frac = r.ram_addr_fmt.Fixed.frac;
    rm_we = off r.ram_we;
    rm_wdata = off r.ram_wdata;
    rm_write =
      resize_of ~overflow_exn ~round:Fixed.Truncate ~overflow:Fixed.Wrap
        r.ram_wdata_fmt r.ram_data_fmt;
    rm_rdata = rdata;
    rm_rdata_stamp = rdata_stamp;
    rm_staged = -1;
  }

let check_indices p =
  let within what len i =
    if i < 0 || i >= len then
      Ocapi_error.fail Ocapi_error.Internal ~engine:"compiled"
        "lowered program: %s %d outside an array of %d" what i len
  in
  let slot = within "slot" p.pg_slots in
  let stamped (s, st) =
    slot s;
    within "stamp" (max 1 (Array.length p.pg_nets)) st
  in
  let stmt = function
    | Compute { dst; args; _ } -> Array.iter slot (Array.append [| dst |] args)
    | Output { dst; src; stamp } ->
      stamped (dst, stamp);
      slot src
    | Assign { dst; src } -> List.iter slot [ dst; src ]
  in
  List.iter (fun (s, _) -> slot s) p.pg_consts;
  Array.iter (fun r -> slot r.reg_cur) p.pg_regs;
  Array.iter
    (fun c ->
      Array.iter
        (fun tr ->
          List.iter (Array.iter stmt) [ tr.tr_guard; tr.tr_block_a; tr.tr_block_b ];
          slot tr.tr_guard_slot;
          Array.iter (fun (cur, nxt) -> List.iter slot [ cur; nxt ]) tr.tr_commit)
        c.co_transitions)
    p.pg_comps;
  Array.iter
    (fun r ->
      List.iter slot [ r.ram_addr; r.ram_wdata; r.ram_we ];
      Option.iter stamped r.ram_rdata)
    p.pg_rams;
  Array.iter
    (fun k ->
      List.iter (fun (_, s, _) -> slot s) k.hk_inputs;
      List.iter (fun (_, s, st) -> stamped (s, st)) k.hk_outputs)
    p.pg_kernels;
  Array.iter (fun (_, s, st) -> stamped (s, st)) p.pg_stims;
  Array.iter (fun (_, s, st, _) -> stamped (s, st)) p.pg_probes;
  Array.iter
    (function
      | Component ci -> within "component" (Array.length p.pg_comps) ci
      | Inline_ram i -> within "RAM" (Array.length p.pg_rams) i
      | Host_kernel j -> within "host kernel" (Array.length p.pg_kernels) j)
    p.pg_schedule

let instantiate p sys =
  let t_compile = Ocapi_obs.span_begin () in
  check_indices p;
  let power_on = Bytes.make (off p.pg_slots) '\000' in
  Array.iter (fun r -> set power_on (off r.reg_cur) r.reg_init) p.pg_regs;
  List.iter (fun (slot, m) -> set power_on (off slot) m) p.pg_consts;
  let values = Bytes.copy power_on in
  let stamps = Array.make (max 1 (Array.length p.pg_nets)) (-1) in
  let cycle_ref = ref 0 in
  let closure cname = function
    | Compute { node; dst; args } ->
      compute_statement values cycle_ref cname node ~dst ~args
    | Output { dst; src; stamp } ->
      let dst = off dst and src = off src in
      fun () ->
        unsafe_set values dst (unsafe_get values src);
        stamps.(stamp) <- !cycle_ref
    | Assign { dst; src } ->
      let dst = off dst and src = off src in
      fun () -> unsafe_set values dst (unsafe_get values src)
  in
  let comps =
    Array.map
      (fun c ->
        let code stmts = Array.map (closure c.co_name) stmts in
        {
          cc_name = c.co_name;
          cc_initial = c.co_initial;
          cc_state = c.co_initial;
          cc_selected = -1;
          cc_state_transitions = c.co_by_state;
          cc_guard_code = Array.map (fun tr -> code tr.tr_guard) c.co_transitions;
          cc_guard = Array.map (fun tr -> off tr.tr_guard_slot) c.co_transitions;
          cc_transitions =
            Array.map
              (fun tr ->
                {
                  tc_block_a = code tr.tr_block_a;
                  tc_block_b = code tr.tr_block_b;
                  tc_commit =
                    Array.to_list tr.tr_commit
                    |> List.concat_map (fun (cur, nxt) -> [ off cur; off nxt ])
                    |> Array.of_list;
                  tc_goto = tr.tr_goto;
                })
              c.co_transitions;
        })
      p.pg_comps
  in
  let ram_words = ref 0 in
  let rams =
    Array.map
      (fun r ->
        let base = !ram_words in
        ram_words := base + r.ram_words + 1;
        ram_code ~cycle_ref ~base r)
      p.pg_rams
  in
  let untimed = Cycle_system.untimed_components sys in
  let kernels =
    Array.map
      (fun hk ->
        {
          kc_kernel = List.assoc hk.hk_name untimed;
          kc_inputs = List.map (fun (port, s, fmt) -> (port, off s, fmt)) hk.hk_inputs;
          kc_outputs =
            List.map (fun (port, s, stamp) -> (port, off s, stamp)) hk.hk_outputs;
        })
      p.pg_kernels
  in
  let b_schedule =
    Array.map
      (function
        | Component i -> Comp comps.(i)
        | Inline_ram i -> Ram rams.(i)
        | Host_kernel i -> Kernel kernels.(i))
      p.pg_schedule
  in
  let stims =
    Array.map
      (fun (name, slot, stamp) ->
        {
          st_column = Cycle_system.input_column sys name;
          st_slot = off slot;
          st_stamp = stamp;
        })
      p.pg_stims
  in
  let trace, probes = probe_trace sys p.pg_probes ~slot:off in
  let t =
    {
      values;
      power_on;
      rams = Bytes.make (off !ram_words) '\000';
      stamps;
      cycle_ref;
      cycle = 0;
      comps;
      b_schedule;
      ram_codes = rams;
      host_kernels = Array.to_list (Array.map (fun kc -> kc.kc_kernel) kernels);
      stims;
      trace;
      probes;
      regs = p.pg_regs;
      n_statements = p.pg_statements;
    }
  in
  if Ocapi_obs.enabled () then begin
    Ocapi_obs.set_gauge "compiled.slots" (float_of_int p.pg_slots);
    Ocapi_obs.set_gauge "compiled.statements" (float_of_int p.pg_statements)
  end;
  Ocapi_obs.span_end ~cat:"compiled"
    ~args:
      [
        ("slots", Ocapi_obs.Json.Int p.pg_slots);
        ("statements", Ocapi_obs.Json.Int p.pg_statements);
      ]
    "compiled.compile" t_compile;
  t

(* --- execution ------------------------------------------------------------ *)

let run_block (code : (unit -> unit) array) =
  for i = 0 to Array.length code - 1 do
    code.(i) ()
  done

(* Select the first transition of the current state whose guard holds,
   in priority order, running each guard's statements just before its
   test. *)
let select v c =
  c.cc_selected <- -1;
  let candidates = c.cc_state_transitions.(c.cc_state) in
  let i = ref 0 in
  while c.cc_selected < 0 && !i < Array.length candidates do
    let ti = candidates.(!i) in
    run_block c.cc_guard_code.(ti);
    if unsafe_get v c.cc_guard.(ti) <> 0L then c.cc_selected <- ti;
    incr i
  done

(* The firing of [Ram_model], as in [Ram_cell.kernel]: produce the
   pre-write word at the wrapped address and stage the resized write
   when the enable is true. *)
let fire_ram t r =
  if Ocapi_obs.enabled () then Ocapi_obs.count "compiled.kernel_firings";
  let v = t.values in
  let addr = to_int ~frac:r.rm_addr_frac (get v r.rm_addr) mod r.rm_words in
  let addr = if addr < 0 then addr + r.rm_words else addr in
  let word = get t.rams (r.rm_base + off addr) in
  if get v r.rm_we <> 0L then begin
    set t.rams (r.rm_base + off r.rm_words) (resize r.rm_write (get v r.rm_wdata));
    r.rm_staged <- addr
  end
  else r.rm_staged <- -1;
  if r.rm_rdata >= 0 then begin
    set v r.rm_rdata word;
    t.stamps.(r.rm_rdata_stamp) <- t.cycle
  end

let commit_ram t r =
  if r.rm_staged >= 0 then begin
    set t.rams (r.rm_base + off r.rm_staged) (get t.rams (r.rm_base + off r.rm_words));
    r.rm_staged <- -1
  end

let fire_kernel t kc =
  let k = kc.kc_kernel in
  if k.Dataflow.Kernel.k_ready () then begin
    if Ocapi_obs.enabled () then Ocapi_obs.count "compiled.kernel_firings";
    let consumed =
      List.map
        (fun (port, slot, fmt) -> (port, [ Fixed.create fmt (get t.values slot) ]))
        kc.kc_inputs
    in
    let produced = k.Dataflow.Kernel.k_behavior consumed in
    List.iter
      (fun (port, slot, stamp) ->
        match List.assoc_opt port produced with
        | Some [ x ] ->
          set t.values slot (Fixed.mantissa x);
          t.stamps.(stamp) <- t.cycle
        | Some _ | None -> ())
      kc.kc_outputs
  end

let step t =
  let t_step = Ocapi_obs.span_begin () in
  let v = t.values and cycle = t.cycle in
  t.cycle_ref := cycle;
  for i = 0 to Array.length t.stims - 1 do
    let st = t.stims.(i) in
    if Cycle_system.column_present st.st_column cycle then begin
      set v st.st_slot
        (get (Cycle_system.column_mantissas st.st_column) (off cycle));
      t.stamps.(st.st_stamp) <- cycle
    end
  done;
  for i = 0 to Array.length t.comps - 1 do
    select v t.comps.(i)
  done;
  for i = 0 to Array.length t.comps - 1 do
    let c = t.comps.(i) in
    if c.cc_selected >= 0 then run_block c.cc_transitions.(c.cc_selected).tc_block_a
  done;
  for i = 0 to Array.length t.b_schedule - 1 do
    match t.b_schedule.(i) with
    | Comp c ->
      if c.cc_selected >= 0 then run_block c.cc_transitions.(c.cc_selected).tc_block_b
    | Ram r -> fire_ram t r
    | Kernel kc -> fire_kernel t kc
  done;
  for i = 0 to Array.length t.b_schedule - 1 do
    match t.b_schedule.(i) with
    | Comp _ -> ()
    | Ram r -> commit_ram t r
    | Kernel kc ->
      let k = kc.kc_kernel in
      if k.Dataflow.Kernel.k_ready () then k.Dataflow.Kernel.k_commit ()
  done;
  Cycle_system.Trace.record_store t.probes ~cycle ~stamps:t.stamps v;
  for i = 0 to Array.length t.comps - 1 do
    let c = t.comps.(i) in
    if c.cc_selected >= 0 then begin
      let tc = c.cc_transitions.(c.cc_selected) in
      let pairs = tc.tc_commit in
      for j = 0 to (Array.length pairs / 2) - 1 do
        unsafe_set v pairs.(2 * j) (unsafe_get v pairs.((2 * j) + 1))
      done;
      c.cc_state <- tc.tc_goto
    end
  done;
  if Ocapi_obs.enabled () then begin
    Ocapi_obs.count "compiled.steps";
    let a = ref 0 and b = ref 0 and commits = ref 0 and fired = ref 0 in
    Array.iter
      (fun c ->
        if c.cc_selected >= 0 then begin
          let tc = c.cc_transitions.(c.cc_selected) in
          incr fired;
          a := !a + Array.length tc.tc_block_a;
          b := !b + Array.length tc.tc_block_b;
          commits := !commits + (Array.length tc.tc_commit / 2)
        end)
      t.comps;
    Ocapi_obs.count ~n:!fired "compiled.transitions_fired";
    Ocapi_obs.count ~n:!a "compiled.stmts.block_a";
    Ocapi_obs.count ~n:!b "compiled.stmts.block_b";
    Ocapi_obs.count ~n:!commits "compiled.stmts.commit"
  end;
  t.cycle <- cycle + 1;
  Ocapi_obs.span_end ~cat:"compiled" "compiled.step" t_step

let current_cycle t = t.cycle

let trace t = t.trace

let clear_histories t = Cycle_system.Trace.clear t.trace

let reset t =
  t.cycle <- 0;
  t.cycle_ref := 0;
  Bytes.blit t.power_on 0 t.values 0 (Bytes.length t.power_on);
  Bytes.fill t.rams 0 (Bytes.length t.rams) '\000';
  Array.fill t.stamps 0 (Array.length t.stamps) (-1);
  Array.iter
    (fun c ->
      c.cc_state <- c.cc_initial;
      c.cc_selected <- -1)
    t.comps;
  clear_histories t;
  Array.iter
    (function
      | Comp _ -> ()
      | Ram r -> r.rm_staged <- -1
      | Kernel kc -> kc.kc_kernel.Dataflow.Kernel.k_reset ())
    t.b_schedule

(* --- checkpoints ------------------------------------------------------------ *)

(* A copy of what [reset] re-initializes, less histories and traces.
   The selected transitions are left out: every step writes them before
   reading them. *)
type snapshot = {
  sn_cycle : int;
  sn_values : Bytes.t;
  sn_rams : Bytes.t;
  sn_stamps : int array;
  sn_states : int array;
  sn_staged : int array;
  sn_kernels : Dataflow.Kernel.snapshot;
}

let snapshot t =
  Option.map
    (fun save ->
      {
        sn_cycle = t.cycle;
        sn_values = Bytes.copy t.values;
        sn_rams = Bytes.copy t.rams;
        sn_stamps = Array.copy t.stamps;
        sn_states = Array.map (fun c -> c.cc_state) t.comps;
        sn_staged = Array.map (fun r -> r.rm_staged) t.ram_codes;
        sn_kernels = save ();
      })
    (Dataflow.Kernel.snapshot_all t.host_kernels)

let restore t sn =
  t.cycle <- sn.sn_cycle;
  t.cycle_ref := sn.sn_cycle;
  Bytes.blit sn.sn_values 0 t.values 0 (Bytes.length t.values);
  Bytes.blit sn.sn_rams 0 t.rams 0 (Bytes.length t.rams);
  Array.blit sn.sn_stamps 0 t.stamps 0 (Array.length t.stamps);
  Array.iteri (fun i c -> c.cc_state <- sn.sn_states.(i)) t.comps;
  Array.iteri (fun i r -> r.rm_staged <- sn.sn_staged.(i)) t.ram_codes;
  sn.sn_kernels.Dataflow.Kernel.sn_restore ();
  clear_histories t

let matches t sn =
  t.cycle = sn.sn_cycle
  && Array.for_all2 (fun c s -> c.cc_state = s) t.comps sn.sn_states
  && Bytes.equal t.values sn.sn_values
  && Bytes.equal t.rams sn.sn_rams
  && Array_equal.ints t.stamps sn.sn_stamps
  && Array.for_all2 (fun r s -> r.rm_staged = s) t.ram_codes sn.sn_staged
  && sn.sn_kernels.Dataflow.Kernel.sn_matches ()

let statement_count t = t.n_statements

(* --- fault-injection access ---------------------------------------------- *)

let register_count t = Array.length t.regs

let register_info t i =
  let r = t.regs.(i) in
  (r.reg_name, r.reg_fmt)

let flip_register_bit t i ~bit =
  let r = t.regs.(i) in
  let slot = off r.reg_cur in
  set t.values slot (flip_bit ~name:r.reg_name r.reg_fmt ~bit (get t.values slot))

let component_count t = Array.length t.comps

let component_info t i =
  let c = t.comps.(i) in
  (c.cc_name, Array.length c.cc_state_transitions)

let component_state t i = t.comps.(i).cc_state

let set_component_state t i s =
  let c = t.comps.(i) in
  c.cc_state <-
    Ocapi_error.check_state ~engine:"compiled" ~construct:c.cc_name
      ~cycle:t.cycle ~states:(Array.length c.cc_state_transitions) s
