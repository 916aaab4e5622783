let error ?construct fmt =
  Ocapi_error.fail ?construct Ocapi_error.Internal ~engine:"synth" fmt

type state_encoding = Binary | One_hot

type options = {
  share_operators : bool;
  state_encoding : state_encoding;
  emit_probe_valids : bool;
}

let default_options =
  { share_operators = true; state_encoding = Binary; emit_probe_valids = false }

type macro_spec =
  | Ram_macro of {
      words : int;
      width : int;
      addr_port : string;
      wdata_port : string;
      we_port : string;
      rdata_port : string;
    }

let macro_of_model (k : Dataflow.Kernel.t) =
  match k.Dataflow.Kernel.k_model with
  | Some (Dataflow.Kernel.Ram_model m) ->
    Some
      (Ram_macro
         {
           words = m.words;
           width = m.data_fmt.Fixed.width;
           addr_port = m.addr_port;
           wdata_port = m.wdata_port;
           we_port = m.we_port;
           rdata_port = m.rdata_port;
         })
  | None -> None

type component_report = {
  cr_name : string;
  cr_instructions : int;
  cr_states : int;
  cr_shared_units : (string * int) list;
  cr_ops_before_sharing : int;
  cr_gate_equivalents : int;
  cr_seconds : float;
}

type report = {
  system_name : string;
  components : component_report list;
  total : Netlist.gate_counts;
  total_seconds : float;
}

(* --- structural map ------------------------------------------------------- *)

(* Where the design's architectural state landed in the netlist: the
   flip-flop q-nets of every datapath register (Cycle_system.all_regs
   order) and of every controller state register (timed-component
   order).  This is the gate cycle engine's poke surface — SEU flips
   write q-nets, FSM state reads decode them. *)

type reg_map = {
  rm_name : string;
  rm_fmt : Fixed.format;
  rm_nets : Netlist.net array;  (* q-nets, LSB first *)
}

type fsm_map = {
  fm_name : string;
  fm_states : int;
  fm_encoding : state_encoding;
  fm_state_nets : Netlist.net array;  (* state register q-nets *)
}

type state_map = { sm_regs : reg_map array; sm_fsms : fsm_map array }

(* --- shared operator pools ------------------------------------------------ *)

type unit_cell = {
  u_operands : Wordgen.bus array;  (* pre-allocated fresh nets *)
  u_out : Wordgen.bus;
  mutable u_bindings : (Netlist.net * Wordgen.bus array) list;
      (* (instruction select, operand buses) *)
}

(* A shareable-operation signature, also used as a report label.
   Word-level units worth multiplexing: arithmetic, comparators and ROM
   ports.  Cheap bitwise logic and wiring-only operations stay inline. *)
let signature_of node =
  let f = Fixed.format_to_string in
  let two tag x y =
    Some (Printf.sprintf "%s%sx%s" tag (f (Signal.fmt x)) (f (Signal.fmt y)))
  in
  let one tag x = Some (Printf.sprintf "%s%s" tag (f (Signal.fmt x))) in
  match Signal.op node with
  | Signal.Add (x, y) -> two "add" x y
  | Signal.Sub (x, y) -> two "sub" x y
  | Signal.Mul (x, y) -> two "mul" x y
  | Signal.Eq (x, y) -> two "eq" x y
  | Signal.Lt (x, y) -> two "lt" x y
  | Signal.Le (x, y) -> two "le" x y
  | Signal.Neg x -> one "neg" x
  | Signal.Abs x -> one "abs" x
  | Signal.Rom_read (r, idx) ->
    Some (Printf.sprintf "rom:%s[%s]" (Signal.Rom.name r) (f (Signal.fmt idx)))
  | Signal.Const _ | Signal.Input_read _ | Signal.Reg_read _ | Signal.And _
  | Signal.Or _ | Signal.Xor _ | Signal.Not _ | Signal.Mux _ | Signal.Resize _
  | Signal.Shift_left _ | Signal.Shift_right _ -> None

let rom_addr_width (idx_fmt : Fixed.format) =
  let frac = idx_fmt.Fixed.frac in
  if frac <= 0 then idx_fmt.Fixed.width - frac
  else max 1 (idx_fmt.Fixed.width - frac)

(* Build the hardware unit for a signature, from the sample node. *)
let build_unit nl node =
  let fresh_bus (f : Fixed.format) =
    Array.init f.Fixed.width (fun _ -> Netlist.new_net nl)
  in
  let binop gen x y =
    let fa = Signal.fmt x and fb = Signal.fmt y in
    let a = fresh_bus fa and b = fresh_bus fb in
    { u_operands = [| a; b |]; u_out = gen ~fa ~fb a b; u_bindings = [] }
  in
  let unop gen x =
    let fa = Signal.fmt x in
    let a = fresh_bus fa in
    { u_operands = [| a |]; u_out = gen ~fa a; u_bindings = [] }
  in
  match Signal.op node with
  | Signal.Add (x, y) -> binop (Wordgen.add nl) x y
  | Signal.Sub (x, y) -> binop (Wordgen.sub nl) x y
  | Signal.Mul (x, y) -> binop (Wordgen.mul nl) x y
  | Signal.Eq (x, y) ->
    binop (fun ~fa ~fb a b -> [| Wordgen.eq nl ~fa ~fb a b |]) x y
  | Signal.Lt (x, y) ->
    binop (fun ~fa ~fb a b -> [| Wordgen.lt nl ~fa ~fb a b |]) x y
  | Signal.Le (x, y) ->
    binop (fun ~fa ~fb a b -> [| Wordgen.le nl ~fa ~fb a b |]) x y
  | Signal.Neg x -> unop (Wordgen.neg nl) x
  | Signal.Abs x -> unop (Wordgen.abs_ nl) x
  | Signal.Rom_read (r, idx) ->
    let aw = rom_addr_width (Signal.fmt idx) in
    let addr = Array.init aw (fun _ -> Netlist.new_net nl) in
    let contents =
      Array.init (Signal.Rom.size r) (fun i ->
          Fixed.mantissa (Signal.Rom.get r i))
    in
    let out =
      Netlist.rom nl ~name:(Signal.Rom.name r)
        ~width:(Signal.Rom.fmt r).Fixed.width ~contents addr
    in
    { u_operands = [| addr |]; u_out = out; u_bindings = [] }
  | Signal.Const _ | Signal.Input_read _ | Signal.Reg_read _ | Signal.And _
  | Signal.Or _ | Signal.Xor _ | Signal.Not _ | Signal.Mux _ | Signal.Resize _
  | Signal.Shift_left _ | Signal.Shift_right _ ->
    error "build_unit: not a shareable operation"

(* --- expression compilation ----------------------------------------------- *)

(* Compile a node to a bus.  [memo] is component-global: expression
   objects shared between instructions become one piece of hardware,
   which is correct because unpooled logic is a pure function of the
   input nets and registers, independent of the selected transition.
   [eligible node] decides whether this node goes through the operator
   pools (it must be reachable from exactly the current instruction);
   pooled operands are gated by [sel]. *)
let rec compile_node nl ~in_bus ~reg_bus ~pools ~sel ~occ ~eligible memo node =
  match Hashtbl.find_opt memo (Signal.id node) with
  | Some bus -> bus
  | None ->
    let bus =
      compile_fresh nl ~in_bus ~reg_bus ~pools ~sel ~occ ~eligible memo node
    in
    Hashtbl.replace memo (Signal.id node) bus;
    bus

and compile_fresh nl ~in_bus ~reg_bus ~pools ~sel ~occ ~eligible memo node =
  let go = compile_node nl ~in_bus ~reg_bus ~pools ~sel ~occ ~eligible memo in
  match (if eligible node then signature_of node else None) with
  | Some key ->
    let operands =
      match Signal.op node with
      | Signal.Add (x, y) | Signal.Sub (x, y) | Signal.Mul (x, y)
      | Signal.Eq (x, y) | Signal.Lt (x, y) | Signal.Le (x, y) ->
        [| go x; go y |]
      | Signal.Neg x | Signal.Abs x -> [| go x |]
      | Signal.Rom_read (_, idx) ->
        [| Wordgen.rom_address nl ~idx_fmt:(Signal.fmt idx) (go idx) |]
      | Signal.Const _ | Signal.Input_read _ | Signal.Reg_read _
      | Signal.And _ | Signal.Or _ | Signal.Xor _ | Signal.Not _
      | Signal.Mux _ | Signal.Resize _ | Signal.Shift_left _
      | Signal.Shift_right _ -> assert false
    in
    let units =
      match Hashtbl.find_opt pools key with
      | Some us -> us
      | None -> error "no pool for signature %s" key
    in
    let index =
      match Hashtbl.find_opt occ key with Some n -> n | None -> 0
    in
    Hashtbl.replace occ key (index + 1);
    let unit_cell = units.(index) in
    unit_cell.u_bindings <- (sel, operands) :: unit_cell.u_bindings;
    unit_cell.u_out
  | None -> begin
    match Signal.op node with
    | Signal.Const v ->
      Netlist.const_bus nl ~width:(Fixed.fmt v).Fixed.width (Fixed.mantissa v)
    | Signal.Input_read i -> begin
      match in_bus (Signal.Input.name i) with
      | Some bus -> bus
      | None ->
        error "input port %s is not connected" (Signal.Input.name i)
    end
    | Signal.Reg_read r -> reg_bus r
    | Signal.Add (x, y) ->
      Wordgen.add nl ~fa:(Signal.fmt x) ~fb:(Signal.fmt y) (go x) (go y)
    | Signal.Sub (x, y) ->
      Wordgen.sub nl ~fa:(Signal.fmt x) ~fb:(Signal.fmt y) (go x) (go y)
    | Signal.Mul (x, y) ->
      Wordgen.mul nl ~fa:(Signal.fmt x) ~fb:(Signal.fmt y) (go x) (go y)
    | Signal.Neg x -> Wordgen.neg nl ~fa:(Signal.fmt x) (go x)
    | Signal.Abs x -> Wordgen.abs_ nl ~fa:(Signal.fmt x) (go x)
    | Signal.And (x, y) ->
      Wordgen.logic_op nl Netlist.And ~fa:(Signal.fmt x) ~fb:(Signal.fmt y)
        (go x) (go y)
    | Signal.Or (x, y) ->
      Wordgen.logic_op nl Netlist.Or ~fa:(Signal.fmt x) ~fb:(Signal.fmt y)
        (go x) (go y)
    | Signal.Xor (x, y) ->
      Wordgen.logic_op nl Netlist.Xor ~fa:(Signal.fmt x) ~fb:(Signal.fmt y)
        (go x) (go y)
    | Signal.Not x -> Wordgen.not_ nl (go x)
    | Signal.Eq (x, y) ->
      [| Wordgen.eq nl ~fa:(Signal.fmt x) ~fb:(Signal.fmt y) (go x) (go y) |]
    | Signal.Lt (x, y) ->
      [| Wordgen.lt nl ~fa:(Signal.fmt x) ~fb:(Signal.fmt y) (go x) (go y) |]
    | Signal.Le (x, y) ->
      [| Wordgen.le nl ~fa:(Signal.fmt x) ~fb:(Signal.fmt y) (go x) (go y) |]
    | Signal.Mux (s, x, y) ->
      let sb = go s in
      Wordgen.mux2 nl ~fa:(Signal.fmt x) ~fb:(Signal.fmt y)
        ~fr:(Signal.fmt node) sb.(0) (go x) (go y)
    | Signal.Resize (round, overflow, x) ->
      Wordgen.resize nl ~round ~overflow ~src:(Signal.fmt x)
        ~dst:(Signal.fmt node) (go x)
    | Signal.Rom_read (r, idx) ->
      (* Multi-instruction ROM access: a dedicated port, no gating. *)
      let addr = Wordgen.rom_address nl ~idx_fmt:(Signal.fmt idx) (go idx) in
      let contents =
        Array.init (Signal.Rom.size r) (fun i ->
            Fixed.mantissa (Signal.Rom.get r i))
      in
      Netlist.rom nl ~name:(Signal.Rom.name r)
        ~width:(Signal.Rom.fmt r).Fixed.width ~contents addr
    | Signal.Shift_left (x, _) | Signal.Shift_right (x, _) -> go x
  end

(* Guards: pure expressions over registers, compiled without pools but
   through the component-global memo so they share logic with the
   datapath. *)
let compile_guard nl ~in_bus ~reg_bus memo expr =
  let pools = Hashtbl.create 1 in
  let occ = Hashtbl.create 1 in
  let bus =
    compile_node nl ~in_bus ~reg_bus ~pools ~sel:0 ~occ
      ~eligible:(fun _ -> false)
      memo expr
  in
  bus.(0)

(* --- controller synthesis -------------------------------------------------- *)

let rec log2up n = if n <= 1 then 0 else 1 + log2up ((n + 1) / 2)

(* Build the controller from the FSM: an encoded state register plus
   two-level logic for the transition select lines and the next state.
   [guard_net ti] is the synthesized 1-bit guard wire of transition [ti]
   (meaningless for [always] guards).  Returns the select line per
   transition, in transition order. *)
let synthesize_controller nl fsm ~encoding ~guard_net =
  let states = Fsm.states fsm in
  let n_states = List.length states in
  let sw =
    match encoding with
    | Binary -> max 1 (log2up n_states)
    | One_hot -> max 1 n_states
  in
  (* Does bit [b] of the register hold 1 when the machine is in the
     state with index [enc]? *)
  let bit_of enc b =
    match encoding with
    | Binary -> enc land (1 lsl b) <> 0
    | One_hot -> enc = b
  in
  let state_q = Array.init sw (fun _ -> Netlist.new_net nl) in
  let transitions = Array.of_list (Fsm.transitions fsm) in
  let n_tr = Array.length transitions in
  (* SOP input vector: state bits, then one wire per guarded transition. *)
  let guard_pos = Array.make n_tr (-1) in
  let guard_wires = ref [] in
  Array.iteri
    (fun ti tr ->
      if not (Fsm.is_always tr.Fsm.t_guard) then begin
        guard_pos.(ti) <- sw + List.length !guard_wires;
        guard_wires := guard_net ti :: !guard_wires
      end)
    transitions;
  let inputs = Array.append state_q (Array.of_list (List.rev !guard_wires)) in
  let n_inputs = Array.length inputs in
  (* A transition is dead when an earlier transition from the same state
     is unconditional. *)
  let dead ti =
    let from = transitions.(ti).Fsm.t_from in
    let rec scan j =
      j < ti
      && ((Fsm.state_equal transitions.(j).Fsm.t_from from
          && Fsm.is_always transitions.(j).Fsm.t_guard)
         || scan (j + 1))
    in
    scan 0
  in
  let state_literals enc =
    Array.init sw (fun b -> if bit_of enc b then Sop.One else Sop.Zero)
  in
  let cube_of ti =
    let tr = transitions.(ti) in
    let enc = Fsm.state_index tr.Fsm.t_from in
    let cube = Array.make n_inputs Sop.Dash in
    Array.blit (state_literals enc) 0 cube 0 sw;
    if guard_pos.(ti) >= 0 then cube.(guard_pos.(ti)) <- Sop.One;
    (* Priority: earlier guarded transitions from the same state are off. *)
    for tj = 0 to ti - 1 do
      if
        Fsm.state_equal transitions.(tj).Fsm.t_from tr.Fsm.t_from
        && guard_pos.(tj) >= 0
      then cube.(guard_pos.(tj)) <- Sop.Zero
    done;
    cube
  in
  let sels =
    Array.init n_tr (fun ti ->
        if dead ti then Netlist.gate nl Netlist.Const0 []
        else Sop.to_gates nl ~inputs [ cube_of ti ])
  in
  (* Hold cube for a state with no unconditional transition: all its
     guards false. *)
  let hold_cube s =
    let has_always =
      Array.exists
        (fun tr ->
          Fsm.state_equal tr.Fsm.t_from s && Fsm.is_always tr.Fsm.t_guard)
        transitions
    in
    if has_always then None
    else begin
      let cube = Array.make n_inputs Sop.Dash in
      Array.blit (state_literals (Fsm.state_index s)) 0 cube 0 sw;
      Array.iteri
        (fun ti tr ->
          if Fsm.state_equal tr.Fsm.t_from s && guard_pos.(ti) >= 0 then
            cube.(guard_pos.(ti)) <- Sop.Zero)
        transitions;
      Some cube
    end
  in
  let init_enc = Fsm.state_index (Fsm.initial_state fsm) in
  for b = 0 to sw - 1 do
    let goto_cubes =
      List.concat
        (List.init n_tr (fun ti ->
             if dead ti then []
             else if bit_of (Fsm.state_index transitions.(ti).Fsm.t_goto) b
             then [ cube_of ti ]
             else []))
    in
    let hold_cubes =
      List.filter_map
        (fun s ->
          if bit_of (Fsm.state_index s) b then hold_cube s else None)
        states
    in
    let d = Sop.to_gates nl ~inputs (Sop.minimize (goto_cubes @ hold_cubes)) in
    Netlist.dff_into nl ~init:(bit_of init_enc b) ~q:state_q.(b) d
  done;
  ignore n_states;
  (sels, state_q)

(* --- per-component synthesis ---------------------------------------------- *)

(* Synthesize one timed component into [nl].
   [in_bus port] is the system-net bus feeding input port [port];
   [drive port bus] connects an output port to its system net. *)
let synthesize_component nl ~options ~cname fsm ~in_bus ~drive =
  let t0 = Unix.gettimeofday () in
  let t_span = Ocapi_obs.span_begin () in
  let before = (Netlist.counts nl).Netlist.gate_equivalents in
  let regs = Fsm.all_regs fsm in
  (* Pre-allocated register output buses. *)
  let reg_q = Hashtbl.create 16 in
  List.iter
    (fun r ->
      Hashtbl.replace reg_q (Signal.Reg.id r)
        (Array.init (Signal.Reg.fmt r).Fixed.width (fun _ -> Netlist.new_net nl)))
    regs;
  let reg_bus r =
    match Hashtbl.find_opt reg_q (Signal.Reg.id r) with
    | Some b -> b
    | None ->
      error ~construct:cname "%s: register %s unknown" cname (Signal.Reg.name r)
  in
  let transitions = Array.of_list (Fsm.transitions fsm) in
  let memo = Hashtbl.create 512 in
  (* Which instructions reach each expression node?  [-1] marks nodes
     the guards reach (evaluated every cycle, never pooled). *)
  let users : (int, int list) Hashtbl.t = Hashtbl.create 512 in
  let mark ti root =
    Signal.fold_dag root ~init:() ~f:(fun () n ->
        let id = Signal.id n in
        let cur =
          match Hashtbl.find_opt users id with Some l -> l | None -> []
        in
        if not (List.mem ti cur) then Hashtbl.replace users id (ti :: cur))
  in
  let roots_of tr =
    List.concat_map
      (fun sfg ->
        List.map snd (Sfg.outputs sfg) @ List.map snd (Sfg.assigns sfg))
      tr.Fsm.t_actions
  in
  Array.iteri (fun ti tr -> List.iter (mark ti) (roots_of tr)) transitions;
  Array.iter (fun tr -> mark (-1) (Fsm.guard_expr tr.Fsm.t_guard)) transitions;
  let single_user n =
    match Hashtbl.find_opt users (Signal.id n) with
    | Some [ ti ] when ti >= 0 -> Some ti
    | Some _ | None -> None
  in
  (* Guard wires (shared logic through the same memo). *)
  let guard_nets =
    Array.map
      (fun tr ->
        compile_guard nl ~in_bus ~reg_bus memo (Fsm.guard_expr tr.Fsm.t_guard))
      transitions
  in
  (* Controller. *)
  let sels, state_q =
    synthesize_controller nl fsm ~encoding:options.state_encoding
      ~guard_net:(fun ti -> guard_nets.(ti))
  in
  (* Pool sizing: per instruction, its exclusive shareable nodes. *)
  let pool_max = Hashtbl.create 16 in
  let sample_node = Hashtbl.create 16 in
  let total_shareable = ref 0 in
  if options.share_operators then
    Array.iteri
      (fun ti tr ->
        let per_instr = Hashtbl.create 16 in
        let seen = Hashtbl.create 64 in
        List.iter
          (fun root ->
            Signal.fold_dag root ~init:() ~f:(fun () n ->
                if not (Hashtbl.mem seen (Signal.id n)) then begin
                  Hashtbl.add seen (Signal.id n) ();
                  match signature_of n, single_user n with
                  | Some key, Some owner when owner = ti ->
                    incr total_shareable;
                    if not (Hashtbl.mem sample_node key) then
                      Hashtbl.replace sample_node key n;
                    let c =
                      match Hashtbl.find_opt per_instr key with
                      | Some c -> c
                      | None -> 0
                    in
                    Hashtbl.replace per_instr key (c + 1)
                  | (Some _ | None), _ -> ()
                end))
          (roots_of tr);
        Hashtbl.iter
          (fun key c ->
            let m =
              match Hashtbl.find_opt pool_max key with Some m -> m | None -> 0
            in
            Hashtbl.replace pool_max key (max m c))
          per_instr)
      transitions;
  let pools = Hashtbl.create 16 in
  Hashtbl.iter
    (fun key size ->
      let node = Hashtbl.find sample_node key in
      Hashtbl.replace pools key (Array.init size (fun _ -> build_unit nl node)))
    pool_max;
  (* Compile each instruction. *)
  let out_choices = Hashtbl.create 16 in
  let reg_choices = Hashtbl.create 16 in
  Array.iteri
    (fun ti tr ->
      let sel = sels.(ti) in
      let occ = Hashtbl.create 16 in
      let eligible n = options.share_operators && single_user n = Some ti in
      let compile e =
        compile_node nl ~in_bus ~reg_bus ~pools ~sel ~occ ~eligible memo e
      in
      List.iter
        (fun sfg ->
          List.iter
            (fun (port, e) ->
              let bus = compile e in
              let existing =
                match Hashtbl.find_opt out_choices port with
                | Some l -> l
                | None -> []
              in
              Hashtbl.replace out_choices port ((sel, bus) :: existing))
            (Sfg.outputs sfg);
          List.iter
            (fun (r, e) ->
              let bus = compile e in
              let existing =
                match Hashtbl.find_opt reg_choices (Signal.Reg.id r) with
                | Some l -> l
                | None -> []
              in
              Hashtbl.replace reg_choices (Signal.Reg.id r)
                ((sel, bus) :: existing))
            (Sfg.assigns sfg))
        tr.Fsm.t_actions)
    transitions;
  (* Route operands into the shared units.  A unit bound by a single
     instruction needs no selection network: wire its operands through. *)
  Hashtbl.iter
    (fun _key units ->
      Array.iter
        (fun u ->
          Array.iteri
            (fun p operand_nets ->
              let width = Array.length operand_nets in
              let driven =
                match u.u_bindings with
                | [ (_, ops) ] -> ops.(p)
                | bindings ->
                  Wordgen.select nl
                    (List.map (fun (sel, ops) -> (sel, ops.(p))) bindings)
                    ~width
              in
              Array.iteri
                (fun i dst -> Netlist.buf_into nl ~dst driven.(i))
                operand_nets)
            u.u_operands)
        units)
    pools;
  (* Registers: enabled flip-flops with next-value selection. *)
  List.iter
    (fun r ->
      let q = reg_bus r in
      let width = Array.length q in
      let init = Fixed.mantissa (Signal.Reg.init r) in
      let choices =
        match Hashtbl.find_opt reg_choices (Signal.Reg.id r) with
        | Some l -> l
        | None -> []
      in
      let enable = Wordgen.or_tree nl (List.map fst choices) in
      let d = Wordgen.select nl choices ~width in
      Array.iteri
        (fun i qn ->
          let din = Netlist.gate nl Netlist.Mux2 [ enable; d.(i); qn ] in
          Netlist.dff_into nl
            ~init:(Int64.logand (Int64.shift_right_logical init i) 1L = 1L)
            ~q:qn din)
        q)
    regs;
  (* Outputs: one-hot selection onto the system nets. *)
  Hashtbl.iter
    (fun port choices ->
      match drive port with
      | None -> () (* unconnected output *)
      | Some net_bus ->
        let width = Array.length net_bus in
        let bus = Wordgen.select nl choices ~width in
        Array.iteri (fun i dst -> Netlist.buf_into nl ~dst bus.(i)) net_bus)
    out_choices;
  let after = (Netlist.counts nl).Netlist.gate_equivalents in
  if Ocapi_obs.enabled () then begin
    Ocapi_obs.count "synth.components";
    Ocapi_obs.count ~n:(after - before) "synth.gate_equivalents";
    Ocapi_obs.span_end ~cat:"synth"
      ~args:[ ("gates", Ocapi_obs.Json.Int (after - before)) ]
      ("synth." ^ cname) t_span
  end;
  let report =
    {
      cr_name = cname;
      cr_instructions = Array.length transitions;
      cr_states = List.length (Fsm.states fsm);
      cr_shared_units =
        Hashtbl.fold (fun k v acc -> (k, v) :: acc) pool_max []
        |> List.sort compare;
      cr_ops_before_sharing = !total_shareable;
      cr_gate_equivalents = after - before;
      cr_seconds = Unix.gettimeofday () -. t0;
    }
  in
  let reg_nets =
    List.map (fun r -> (Signal.Reg.id r, reg_bus r)) regs
  in
  (* Which transitions write each output port — the timed half of the
     probe-valid computation. *)
  let port_sels =
    Hashtbl.fold
      (fun port choices acc -> (port, List.map fst choices) :: acc)
      out_choices []
  in
  (report, reg_nets, state_q, port_sels)

(* --- system linkage --------------------------------------------------------- *)

(* The linked netlist of [sys], each untimed kernel mapped through
   [macro]. *)
let link ~options ~macro sys =
  let t0 = Unix.gettimeofday () in
  let t_span = Ocapi_obs.span_begin () in
  let nl = Netlist.create (Cycle_system.name sys) in
  let primary_input_names =
    List.map (fun (n, _, _) -> n) (Cycle_system.primary_inputs sys)
  in
  (* Allocate a bus per net; primary-input-driven nets become netlist
     input buses, everything else is driven by its component. *)
  let net_buses =
    Array.of_list
      (List.map
         (fun n ->
           let width = (Cycle_system.net_format n).Fixed.width in
           let dc, _ = Cycle_system.net_driver n in
           if List.mem dc primary_input_names then Netlist.input_bus nl dc width
           else Array.init width (fun _ -> Netlist.new_net nl))
         (Cycle_system.nets sys))
  in
  let bus n = net_buses.(Cycle_system.net_index n) in
  let in_bus_of cname port =
    Option.map bus (Cycle_system.input_net sys cname port)
  in
  let drive_of cname port =
    Option.map bus (Cycle_system.output_net sys cname port)
  in
  (* Timed components. *)
  let comp_results =
    List.map
      (fun (cname, fsm) ->
        let report, reg_nets, state_q, port_sels =
          synthesize_component nl ~options ~cname fsm
            ~in_bus:(in_bus_of cname) ~drive:(drive_of cname)
        in
        (cname, fsm, report, reg_nets, state_q, port_sels))
      (Cycle_system.timed_components sys)
  in
  let reports = List.map (fun (_, _, r, _, _, _) -> r) comp_results in
  (* Untimed kernels as macro cells. *)
  List.iter
    (fun (cname, k) ->
      match macro k with
      | Some (Ram_macro m) ->
        let get_in port =
          match in_bus_of cname port with
          | Some b -> b
          | None ->
            error ~construct:cname "RAM %s: input %s unconnected" cname port
        in
        let addr = get_in m.addr_port in
        let wdata = get_in m.wdata_port in
        let we = (get_in m.we_port).(0) in
        let rdata =
          Netlist.ram nl ~name:cname ~words:m.words ~width:m.width ~addr ~wdata
            ~we
        in
        (match drive_of cname m.rdata_port with
        | Some bus ->
          Array.iteri (fun i dst -> Netlist.buf_into nl ~dst rdata.(i)) bus
        | None -> ())
      | None ->
        error ~construct:cname "untimed kernel %s has no macro mapping" cname)
    (Cycle_system.untimed_components sys);
  (* Probes become primary outputs. *)
  List.iter
    (fun pname -> Option.iter (Netlist.output_bus nl pname) (in_bus_of pname "in"))
    (Cycle_system.probes sys);
  (* Optional probe-valid wires: a 1-bit output per probe that is high
     exactly when the behavioral engine would record a token.  A net
     driven by a timed component is valid when one of the transitions
     writing the port fires (OR of their select lines); a macro-cell
     output is valid when all the kernel's inputs are (AND of input-net
     valids); a primary input's validity only the test bench knows, so
     it becomes a host-driven 1-bit input bus. *)
  if options.emit_probe_valids then begin
    let port_sels_of dc dp =
      List.find_map
        (fun (cname, _, _, _, _, port_sels) ->
          if cname = dc then List.assoc_opt dp port_sels else None)
        comp_results
    in
    let stim_valid = Hashtbl.create 8 in
    let valid_memo = Hashtbl.create 32 in
    let rec valid_of_net n =
      let i = Cycle_system.net_index n in
      match Hashtbl.find_opt valid_memo i with
      | Some (Some v) -> v
      | Some None ->
        (* A combinational cycle through kernels (gated off at run
           time): break it optimistically. *)
        Netlist.gate nl Netlist.Const1 []
      | None ->
        Hashtbl.replace valid_memo i None;
        let dc, dp = Cycle_system.net_driver n in
        let v =
          if List.mem dc primary_input_names then begin
            match Hashtbl.find_opt stim_valid dc with
            | Some n -> n
            | None ->
              let bus = Netlist.input_bus nl ("__stimvalid__" ^ dc) 1 in
              Hashtbl.replace stim_valid dc bus.(0);
              bus.(0)
          end
          else begin
            match port_sels_of dc dp with
            | Some sels -> Wordgen.or_tree nl sels
            | None -> (
              match List.assoc_opt dc (Cycle_system.untimed_components sys) with
              | Some k ->
                Wordgen.and_tree nl
                  (List.filter_map
                     (fun (port, _) ->
                       Option.map valid_of_net (Cycle_system.input_net sys dc port))
                     k.Dataflow.Kernel.k_inputs)
              | None -> Netlist.gate nl Netlist.Const0 [])
          end
        in
        Hashtbl.replace valid_memo i (Some v);
        v
    in
    List.iter
      (fun pname ->
        Option.iter
          (fun n ->
            Netlist.output_bus nl ("__valid__" ^ pname) [| valid_of_net n |])
          (Cycle_system.input_net sys pname "in"))
      (Cycle_system.probes sys)
  end;
  (* The structural map: datapath registers in Cycle_system.all_regs
     order, controllers in timed-component order. *)
  let reg_nets_by_id = Hashtbl.create 64 in
  List.iter
    (fun (_, _, _, reg_nets, _, _) ->
      List.iter (fun (id, nets) -> Hashtbl.replace reg_nets_by_id id nets)
        reg_nets)
    comp_results;
  let sm_regs =
    Array.of_list
      (List.filter_map
         (fun r ->
           Option.map
             (fun nets ->
               {
                 rm_name = Signal.Reg.name r;
                 rm_fmt = Signal.Reg.fmt r;
                 rm_nets = nets;
               })
             (Hashtbl.find_opt reg_nets_by_id (Signal.Reg.id r)))
         (Cycle_system.all_regs sys))
  in
  let sm_fsms =
    Array.of_list
      (List.map
         (fun (cname, fsm, _, _, state_q, _) ->
           {
             fm_name = cname;
             fm_states = List.length (Fsm.states fsm);
             fm_encoding = options.state_encoding;
             fm_state_nets = state_q;
           })
         comp_results)
  in
  let state_map = { sm_regs; sm_fsms } in
  let report =
    {
      system_name = Cycle_system.name sys;
      components = reports;
      total = Netlist.counts nl;
      total_seconds = Unix.gettimeofday () -. t0;
    }
  in
  if Ocapi_obs.enabled () then begin
    Ocapi_obs.set_gauge "synth.total_gate_equivalents"
      (float_of_int report.total.Netlist.gate_equivalents);
    Ocapi_obs.span_end ~cat:"synth"
      ~args:
        [
          ("gates", Ocapi_obs.Json.Int report.total.Netlist.gate_equivalents);
          ("components", Ocapi_obs.Json.Int (List.length reports));
        ]
      "synth.elaborate" t_span
  end;
  (nl, report, state_map)

let synthesize_mapped ?(options = default_options) sys =
  link ~options ~macro:macro_of_model sys

let synthesize ?(options = default_options) ?(macro_of_kernel = macro_of_model) sys =
  let nl, report, _ = link ~options ~macro:macro_of_kernel sys in
  (nl, report)

let pp_report ppf r =
  Format.fprintf ppf "@[<v>synthesis of %s: %d gate-equivalents total@,"
    r.system_name r.total.Netlist.gate_equivalents;
  Format.fprintf ppf "  (comb %d, dff %d, rom bits %d, ram bits %d) in %.2fs@,"
    r.total.Netlist.combinational r.total.Netlist.flip_flops
    r.total.Netlist.rom_bits r.total.Netlist.ram_bits r.total_seconds;
  List.iter
    (fun c ->
      Format.fprintf ppf
        "  %-24s %3d instr %2d states %5d gates  %d ops -> %d units  %.3fs@,"
        c.cr_name c.cr_instructions c.cr_states c.cr_gate_equivalents
        c.cr_ops_before_sharing
        (List.fold_left (fun a (_, n) -> a + n) 0 c.cr_shared_units)
        c.cr_seconds)
    r.components;
  Format.fprintf ppf "@]"

(* --- verification against the reference simulation ------------------------- *)

type verify_result = {
  vectors_checked : int;
  mismatches : (int * string * int64 * int64) list;
}

(* Replay [sys]'s stimuli on [nl] and sample each probe's output bus at
   the cycles the reference simulation recorded a token: the generated
   test bench discipline, in process.  Returns the reference's trace,
   frozen, and the samples' trace: one column per probe, token [k] of a
   sampled column read in the probe's format at the cycle of the
   reference's token [k]; a probe [nl] has no output for gets none. *)
let replay sys nl ~cycles =
  let module T = Cycle_system.Trace in
  Cycle_system.reset sys;
  Cycle_system.run sys cycles;
  let expected = T.copy (Cycle_system.trace sys) in
  Cycle_system.reset sys;
  let outputs = List.map fst (Netlist.outputs_list nl) in
  let sim = Netlist.Sim.create nl in
  let per_cycle = Array.make cycles [] in
  List.iter
    (fun (c, name, v) -> per_cycle.(c) <- (name, v) :: per_cycle.(c))
    (Cycle_system.stimuli sys ~cycles);
  (* Per probe, the format its bus is read in, when [nl] drives one. *)
  let probes =
    Array.of_list
      (List.map
         (fun p ->
           match Cycle_system.probe_format sys p with
           | Some fmt when List.mem p outputs -> (p, Some fmt)
           | Some _ | None -> (p, None))
         (Cycle_system.probes sys))
  in
  let sampled = T.create (Array.to_list probes) in
  for c = 0 to cycles - 1 do
    List.iter
      (fun (name, v) -> Netlist.Sim.set_input sim name (Fixed.mantissa v))
      per_cycle.(c);
    Netlist.Sim.settle sim;
    Array.iteri
      (fun i (p, fmt) ->
        match fmt with
        | Some fmt ->
          let k = T.length sampled i in
          if k < T.length expected i && T.cycle expected i k = c then
            let signed = fmt.Fixed.signedness = Fixed.Signed in
            T.record_token sampled i ~cycle:c
              (Fixed.create fmt (Netlist.Sim.get_output sim ~signed p))
        | None -> ())
      probes;
    Netlist.Sim.clock sim
  done;
  (expected, sampled)

let verify ?(options = default_options) ?(optimize = false) sys ~cycles =
  Ocapi_error.check_count ~engine:"synth" "gate-level check: cycles" cycles;
  Cycle_system.reset sys;
  let nl, _report = synthesize ~options sys in
  let nl = if optimize then fst (Netopt.run nl) else nl in
  let module T = Cycle_system.Trace in
  let expected, sampled = replay sys nl ~cycles in
  let mismatches =
    List.concat
      (List.init (T.probe_count sampled) (fun p ->
           List.filter_map
             (fun k ->
               let want = T.mantissa expected p k and got = T.mantissa sampled p k in
               if got = want then None
               else Some (T.cycle sampled p k, T.probe_name sampled p, want, got))
             (List.init (T.length sampled p) Fun.id)))
  in
  {
    vectors_checked =
      List.fold_left ( + ) 0 (List.init (T.probe_count sampled) (T.length sampled));
    (* By cycle, then in probe order. *)
    mismatches =
      List.stable_sort (fun (a, _, _, _) (b, _, _, _) -> compare a b) mismatches;
  }
