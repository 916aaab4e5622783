let error ?construct fmt =
  Ocapi_error.fail ?construct Ocapi_error.Internal ~engine:"gates" fmt

type net = int

type gate_kind =
  | Buf
  | Not
  | And
  | Or
  | Xor
  | Nand
  | Nor
  | Mux2
  | Const0
  | Const1

type gate = { g_kind : gate_kind; g_inputs : net array; g_out : net }
type dff_rec = { d_init : bool; d_d : net; d_q : net }

type rom_rec = {
  r_name : string;
  r_width : int;
  r_contents : int64 array;
  r_addr : net array;
  r_out : net array;
}

type ram_rec = {
  m_name : string;
  m_words : int;
  m_width : int;
  m_addr : net array;
  m_wdata : net array;
  m_we : net;
  m_out : net array;
}

type t = {
  nl_name : string;
  mutable n_nets : int;
  mutable gates : gate list;  (* reversed *)
  mutable dffs : dff_rec list;
  mutable roms : rom_rec list;
  mutable rams : ram_rec list;
  mutable inputs : (string * net array) list;
  mutable outputs : (string * net array) list;
  mutable driven : (int, unit) Hashtbl.t;
}

let create nl_name =
  {
    nl_name;
    n_nets = 0;
    gates = [];
    dffs = [];
    roms = [];
    rams = [];
    inputs = [];
    outputs = [];
    driven = Hashtbl.create 256;
  }

let name t = t.nl_name

let new_net t =
  let n = t.n_nets in
  t.n_nets <- n + 1;
  n

let mark_driven t n =
  if Hashtbl.mem t.driven n then error "net %d has two drivers" n;
  Hashtbl.replace t.driven n ()

let arity = function
  | Buf | Not -> 1
  | And | Or | Xor | Nand | Nor -> 2
  | Mux2 -> 3
  | Const0 | Const1 -> 0

let gate t kind inputs =
  if List.length inputs <> arity kind then
    error "gate: wrong arity (%d inputs)" (List.length inputs);
  let out = new_net t in
  mark_driven t out;
  t.gates <- { g_kind = kind; g_inputs = Array.of_list inputs; g_out = out } :: t.gates;
  out

let buf_into t ~dst src =
  mark_driven t dst;
  t.gates <- { g_kind = Buf; g_inputs = [| src |]; g_out = dst } :: t.gates

let dff_into t ?(init = false) ~q d =
  mark_driven t q;
  t.dffs <- { d_init = init; d_d = d; d_q = q } :: t.dffs

let gate_into t kind inputs ~dst =
  if List.length inputs <> arity kind then
    error "gate_into: wrong arity (%d inputs)" (List.length inputs);
  mark_driven t dst;
  t.gates <- { g_kind = kind; g_inputs = Array.of_list inputs; g_out = dst } :: t.gates

let dff t ?(init = false) d =
  let q = new_net t in
  mark_driven t q;
  t.dffs <- { d_init = init; d_d = d; d_q = q } :: t.dffs;
  q

let dff_en t ?(init = false) ~enable d =
  (* Recirculating mux: q feeds back when enable is low. *)
  let q = new_net t in
  mark_driven t q;
  let m = gate t Mux2 [ enable; d; q ] in
  t.dffs <- { d_init = init; d_d = m; d_q = q } :: t.dffs;
  q

let rom t ~name ~width ~contents addr =
  if Array.length contents = 0 then error "rom %s: empty" name;
  let out = Array.init width (fun _ -> new_net t) in
  Array.iter (mark_driven t) out;
  t.roms <-
    { r_name = name; r_width = width; r_contents = contents; r_addr = addr;
      r_out = out }
    :: t.roms;
  out

let ram t ~name ~words ~width ~addr ~wdata ~we =
  let out = Array.init width (fun _ -> new_net t) in
  Array.iter (mark_driven t) out;
  t.rams <-
    { m_name = name; m_words = words; m_width = width; m_addr = addr;
      m_wdata = wdata; m_we = we; m_out = out }
    :: t.rams;
  out

let input_bus t name width =
  if List.mem_assoc name t.inputs then error "duplicate input bus %s" name;
  let bus = Array.init width (fun _ -> new_net t) in
  Array.iter (mark_driven t) bus;
  t.inputs <- (name, bus) :: t.inputs;
  bus

let output_bus t name bus =
  if List.mem_assoc name t.outputs then error "duplicate output bus %s" name;
  t.outputs <- (name, bus) :: t.outputs

let find_input t name =
  match List.assoc_opt name t.inputs with
  | Some b -> b
  | None -> error "no input bus %s" name

let find_output t name =
  match List.assoc_opt name t.outputs with
  | Some b -> b
  | None -> error "no output bus %s" name

let const_bus t ~width v =
  Array.init width (fun i ->
      if Int64.logand (Int64.shift_right_logical v i) 1L = 1L then
        gate t Const1 []
      else gate t Const0 [])

let extend_bus t ~signed bus width =
  let w = Array.length bus in
  if width <= w then Array.sub bus 0 width
  else
    let top =
      if signed && w > 0 then bus.(w - 1)
      else gate t Const0 []
    in
    Array.init width (fun i -> if i < w then bus.(i) else top)

type gate_counts = {
  combinational : int;
  flip_flops : int;
  rom_bits : int;
  ram_bits : int;
  gate_equivalents : int;
}

(* NAND2-equivalent weights, the usual back-of-the-envelope factors.
   Buffers are forward-reference wiring artifacts, not logic. *)
let gate_weight = function
  | Buf -> 0
  | Not -> 1
  | And | Or | Nand | Nor -> 1
  | Xor -> 2
  | Mux2 -> 3
  | Const0 | Const1 -> 0

let counts t =
  let combinational = List.length t.gates in
  let flip_flops = List.length t.dffs in
  let rom_bits =
    List.fold_left
      (fun acc r -> acc + (Array.length r.r_contents * r.r_width))
      0 t.roms
  in
  let ram_bits =
    List.fold_left (fun acc m -> acc + (m.m_words * m.m_width)) 0 t.rams
  in
  let comb_eq =
    List.fold_left (fun acc g -> acc + gate_weight g.g_kind) 0 t.gates
  in
  {
    combinational;
    flip_flops;
    rom_bits;
    ram_bits;
    gate_equivalents = comb_eq + (flip_flops * 6) + (rom_bits / 4) + (ram_bits / 2);
  }

let net_count t = t.n_nets

let gates_in_order t = Array.of_list (List.rev t.gates)

(* --- levelization ------------------------------------------------------- *)

(* The combinational elements of a netlist: gates in creation order
   (the {!fold_gates} order), then the ROM reads, then the RAM reads.
   An element reads its gate inputs or its macro's address bus; a RAM's
   write port only matters at the clock edge. *)
type graph = {
  gr_gates : gate array;
  gr_roms : rom_rec array;
  gr_rams : ram_rec array;
  gr_fan_start : int array;  (* net -> first entry in [gr_fan]; n_nets + 1 *)
  gr_fan : int array;  (* the elements reading each net, one entry per pin *)
  gr_order : int array;  (* every element once, sources first *)
  gr_level : int array;  (* element -> level: 0 for sources, else
                            1 + the deepest element it reads from *)
  gr_acyclic : int;  (* [gr_order] prefix reached before a cycle was cut *)
}

let n_elements gr =
  Array.length gr.gr_gates + Array.length gr.gr_roms + Array.length gr.gr_rams

let element_inputs gr e =
  let ng = Array.length gr.gr_gates and nr = Array.length gr.gr_roms in
  if e < ng then gr.gr_gates.(e).g_inputs
  else if e < ng + nr then gr.gr_roms.(e - ng).r_addr
  else gr.gr_rams.(e - ng - nr).m_addr

(* Kahn levelization over flat arrays.  DFF outputs, primary inputs and
   undriven nets are sources.  When the ready queue runs dry before
   every element is ordered, the rest sit on (or behind) combinational
   cycles: the lowest-numbered one left is taken as ready anyway, which
   cuts its cycle, and the sweep goes on.  Every element thus gets a
   level, and an edge into a lower or equal level marks a cycle. *)
let levelize t =
  let gates = gates_in_order t in
  let roms = Array.of_list (List.rev t.roms) in
  let rams = Array.of_list (List.rev t.rams) in
  let n_nets = max 1 t.n_nets in
  let check n =
    if n < 0 || n >= t.n_nets then
      error "netlist %s: net %d out of range" t.nl_name n
  in
  let ng = Array.length gates and nr = Array.length roms in
  let n = ng + nr + Array.length rams in
  let gr0 =
    { gr_gates = gates; gr_roms = roms; gr_rams = rams; gr_fan_start = [||];
      gr_fan = [||]; gr_order = [||]; gr_level = [||]; gr_acyclic = 0 }
  in
  (* The simulator indexes its net arrays unchecked: every net an
     element, flip-flop or RAM write port names must exist. *)
  List.iter (fun d -> check d.d_d; check d.d_q) t.dffs;
  Array.iter (fun m -> Array.iter check m.m_wdata; check m.m_we) rams;
  let produced = Bytes.make n_nets '\000' in
  let produce o = check o; Bytes.set produced o '\001' in
  Array.iter (fun g -> produce g.g_out) gates;
  Array.iter (fun r -> Array.iter produce r.r_out) roms;
  Array.iter (fun m -> Array.iter produce m.m_out) rams;
  (* Net -> reader fanout in compressed rows, and each element's count
     of inputs driven by another element. *)
  let fan_start = Array.make (n_nets + 1) 0 in
  let indeg = Array.make (max 1 n) 0 in
  for e = 0 to n - 1 do
    Array.iter
      (fun i ->
        check i;
        fan_start.(i + 1) <- fan_start.(i + 1) + 1;
        if Bytes.get produced i <> '\000' then indeg.(e) <- indeg.(e) + 1)
      (element_inputs gr0 e)
  done;
  for i = 1 to n_nets do
    fan_start.(i) <- fan_start.(i) + fan_start.(i - 1)
  done;
  let fan = Array.make (max 1 fan_start.(n_nets)) 0 in
  let fill = Array.sub fan_start 0 n_nets in
  for e = 0 to n - 1 do
    Array.iter
      (fun i ->
        fan.(fill.(i)) <- e;
        fill.(i) <- fill.(i) + 1)
      (element_inputs gr0 e)
  done;
  let order = Array.make (max 1 n) 0 and level = Array.make (max 1 n) 0 in
  let seen = Bytes.make (max 1 n) '\000' in
  let tail = ref 0 in
  let push e =
    Bytes.set seen e '\001';
    order.(!tail) <- e;
    incr tail
  in
  for e = 0 to n - 1 do
    if indeg.(e) = 0 then push e
  done;
  let release o lv =
    for j = fan_start.(o) to fan_start.(o + 1) - 1 do
      let r = fan.(j) in
      if Bytes.get seen r = '\000' then begin
        if level.(r) < lv then level.(r) <- lv;
        indeg.(r) <- indeg.(r) - 1;
        if indeg.(r) = 0 then push r
      end
    done
  in
  let head = ref 0 and acyclic = ref (-1) and next_cut = ref 0 in
  while !head < n do
    if !head = !tail then begin
      (* Stuck on a cycle: cut it at the lowest-numbered element left. *)
      if !acyclic < 0 then acyclic := !head;
      while Bytes.get seen !next_cut <> '\000' do incr next_cut done;
      push !next_cut
    end;
    let e = order.(!head) in
    incr head;
    let lv = level.(e) + 1 in
    if e < ng then release gates.(e).g_out lv
    else if e < ng + nr then Array.iter (fun o -> release o lv) roms.(e - ng).r_out
    else Array.iter (fun o -> release o lv) rams.(e - ng - nr).m_out
  done;
  { gr0 with gr_fan_start = fan_start; gr_fan = fan; gr_order = order;
    gr_level = level; gr_acyclic = (if !acyclic < 0 then n else !acyclic) }

(* Longest acyclic combinational chain between registers / primary
   ports, and the number of elements that sit on (or behind) cycles. *)
let combinational_depth t =
  let gr = levelize t in
  let depth = ref 0 in
  for i = 0 to gr.gr_acyclic - 1 do
    depth := max !depth (gr.gr_level.(gr.gr_order.(i)) + 1)
  done;
  (!depth, n_elements gr - gr.gr_acyclic)

let fold_gates t ~init ~f =
  List.fold_left
    (fun acc g -> f acc g.g_kind g.g_inputs g.g_out)
    init (List.rev t.gates)

let fold_dffs t ~init ~f =
  List.fold_left
    (fun acc d -> f acc d.d_init ~d:d.d_d ~q:d.d_q)
    init (List.rev t.dffs)

let roms_list t =
  List.rev_map
    (fun r -> (r.r_name, r.r_width, r.r_contents, r.r_addr, r.r_out))
    t.roms

let rams_list t =
  List.rev_map
    (fun m -> (m.m_name, m.m_words, m.m_width, m.m_addr, m.m_wdata, m.m_we, m.m_out))
    t.rams

let inputs_list t = List.rev t.inputs
let outputs_list t = List.rev t.outputs

(* Human-readable label for a single-bit net: its position in a named
   input/output bus when it has one, else the bare index. *)
let label_in_buses buses n =
  List.fold_left
    (fun acc (bname, bus) ->
      match acc with
      | Some _ -> acc
      | None ->
        let rec idx i =
          if i >= Array.length bus then None
          else if bus.(i) = n then Some (Printf.sprintf "%s[%d]" bname i)
          else idx (i + 1)
        in
        idx 0)
    None buses

let bus_net_label ~inputs ~outputs n =
  match label_in_buses inputs n with
  | Some s -> s
  | None -> (
    match label_in_buses outputs n with
    | Some s -> s
    | None -> Printf.sprintf "n%d" n)

let net_label t n = bus_net_label ~inputs:t.inputs ~outputs:t.outputs n

(* Canonical structural hash.  Net indices are creation-order integers
   and every element list is rebuilt in creation order, so two builder
   runs producing the same structure hash identically; the name is
   excluded on purpose — the digest identifies the circuit, not its
   label. *)
let digest t =
  let b = Buffer.create 4096 in
  let net n = Buffer.add_string b (string_of_int n); Buffer.add_char b ',' in
  let bus bus = Array.iter net bus; Buffer.add_char b ';' in
  let kind_tag = function
    | Buf -> 'b' | Not -> 'n' | And -> 'a' | Or -> 'o' | Xor -> 'x'
    | Nand -> 'A' | Nor -> 'O' | Mux2 -> 'm' | Const0 -> '0' | Const1 -> '1'
  in
  Buffer.add_string b "nets:";
  Buffer.add_string b (string_of_int t.n_nets);
  Buffer.add_string b "|gates:";
  List.iter
    (fun g ->
      Buffer.add_char b (kind_tag g.g_kind);
      Array.iter net g.g_inputs;
      net g.g_out)
    (List.rev t.gates);
  Buffer.add_string b "|dffs:";
  List.iter
    (fun d ->
      Buffer.add_char b (if d.d_init then '1' else '0');
      net d.d_d;
      net d.d_q)
    (List.rev t.dffs);
  Buffer.add_string b "|roms:";
  List.iter
    (fun r ->
      Buffer.add_string b r.r_name;
      Buffer.add_char b ':';
      Buffer.add_string b (string_of_int r.r_width);
      Array.iter (fun w -> Buffer.add_string b (Int64.to_string w);
                   Buffer.add_char b ',') r.r_contents;
      bus r.r_addr;
      bus r.r_out)
    (List.rev t.roms);
  Buffer.add_string b "|rams:";
  List.iter
    (fun m ->
      Buffer.add_string b m.m_name;
      Buffer.add_char b ':';
      Buffer.add_string b (string_of_int m.m_words);
      Buffer.add_char b 'x';
      Buffer.add_string b (string_of_int m.m_width);
      bus m.m_addr;
      bus m.m_wdata;
      net m.m_we;
      bus m.m_out)
    (List.rev t.rams);
  Buffer.add_string b "|inputs:";
  List.iter
    (fun (name, bs) -> Buffer.add_string b name; Buffer.add_char b ':'; bus bs)
    (List.rev t.inputs);
  Buffer.add_string b "|outputs:";
  List.iter
    (fun (name, bs) -> Buffer.add_string b name; Buffer.add_char b ':'; bus bs)
    (List.rev t.outputs);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* --- stuck-at fault model ------------------------------------------------ *)

type fault_site = Stem of net | Branch of { br_gate : int; br_pin : int }
type fault = { f_site : fault_site; f_stuck : bool }

let fault_label t f =
  let v = if f.f_stuck then 1 else 0 in
  match f.f_site with
  | Stem n -> Printf.sprintf "%s/sa%d" (net_label t n) v
  | Branch { br_gate; br_pin } ->
    Printf.sprintf "g%d.in%d/sa%d" br_gate br_pin v

let fault_universe t =
  let gates = gates_in_order t in
  let faults = ref [] in
  let add site stuck = faults := { f_site = site; f_stuck = stuck } :: !faults in
  let both site =
    add site false;
    add site true
  in
  (* Primary inputs and DFF outputs are fanout stems in their own right. *)
  List.iter (fun (_, bus) -> Array.iter (fun n -> both (Stem n)) bus) t.inputs;
  List.iter (fun d -> both (Stem d.d_q)) (List.rev t.dffs);
  Array.iteri
    (fun gi g ->
      (match g.g_kind with
      (* A constant output stuck at its own value is the fault-free
         circuit; only the opposite polarity is a fault. *)
      | Const0 -> add (Stem g.g_out) true
      | Const1 -> add (Stem g.g_out) false
      | _ -> both (Stem g.g_out));
      Array.iteri (fun pin _ -> both (Branch { br_gate = gi; br_pin = pin }))
        g.g_inputs)
    gates;
  List.rev !faults

(* Equivalence-based collapsing: drop pin faults that some stem fault in
   the universe provably dominates-and-is-dominated-by (classic gate
   rules), and fold single-fanout branch faults onto their stem. *)
let collapse_faults t faults =
  let gates = gates_in_order t in
  (* Gate-pin fanout count per net, plus loads that block branch->stem
     folding (macro-cell reads, primary outputs). *)
  let pin_fanout = Hashtbl.create 256 in
  let bump n =
    Hashtbl.replace pin_fanout n
      (1 + Option.value ~default:0 (Hashtbl.find_opt pin_fanout n))
  in
  Array.iter (fun g -> Array.iter bump g.g_inputs) gates;
  List.iter (fun d -> bump d.d_d) t.dffs;
  let observed = Hashtbl.create 64 in
  List.iter (fun r -> Array.iter (fun n -> Hashtbl.replace observed n ()) r.r_addr)
    t.roms;
  List.iter
    (fun m ->
      Array.iter (fun n -> Hashtbl.replace observed n ()) m.m_addr;
      Array.iter (fun n -> Hashtbl.replace observed n ()) m.m_wdata;
      Hashtbl.replace observed m.m_we ())
    t.rams;
  List.iter (fun (_, bus) -> Array.iter (fun n -> Hashtbl.replace observed n ()) bus)
    t.outputs;
  let stems = Hashtbl.create 256 in
  List.iter
    (fun f -> match f.f_site with Stem n -> Hashtbl.replace stems n () | _ -> ())
    faults;
  List.filter
    (fun f ->
      match f.f_site with
      | Stem _ -> true
      | Branch { br_gate; br_pin } -> (
        let g = gates.(br_gate) in
        let src = g.g_inputs.(br_pin) in
        let controlled_equiv =
          (* Pin fault equivalent to an output-stem fault of the same
             gate: controlling input values, and any fault through an
             inverter or buffer. *)
          match g.g_kind, f.f_stuck with
          | (Buf | Not), _ -> true
          | (And | Nand), false -> true
          | (Or | Nor), true -> true
          | _ -> false
        in
        if controlled_equiv then false
        else
          (* Sole load of its stem and not otherwise observed: the
             branch is electrically the stem. *)
          match Hashtbl.find_opt pin_fanout src with
          | Some 1 when (not (Hashtbl.mem observed src)) && Hashtbl.mem stems src
            -> false
          | _ -> true))
    faults

type netlist = t

module Sim = struct
  (* Every net holds one [int] word; bit [l] is lane [l].  The plain
     simulator keeps all lanes equal (a bit is 0 or -1), so lane 0 is
     the circuit; fault simulation runs one faulty circuit per lane. *)
  let lanes = 63

  let all_lanes = -1

  (* Element kinds: the gate kinds in declaration order (0 = Buf ..
     9 = Const1), then [k_memory] for a ROM/RAM read; a gate with an
     active branch fault is recoded [k_faulty + slot]. *)
  let kind_code = function
    | Buf -> 0
    | Not -> 1
    | And -> 2
    | Or -> 3
    | Xor -> 4
    | Nand -> 5
    | Nor -> 6
    | Mux2 -> 7
    | Const0 -> 8
    | Const1 -> 9

  let k_memory = 10
  let k_faulty = 11

  let apply k a b c =
    match k with
    | 0 -> a
    | 1 -> lnot a
    | 2 -> a land b
    | 3 -> a lor b
    | 4 -> a lxor b
    | 5 -> lnot (a land b)
    | 6 -> lnot (a lor b)
    | 7 -> a land b lor (lnot a land c)
    | 8 -> 0
    | _ -> all_lanes

  (* A ROM or RAM macro, bit-sliced: bit [b] of word [w] is the lane
     word [bits.(w * width + b)], so each lane has its own contents.
     Its read port is an element; a RAM also writes at the clock edge. *)
  type memory = {
    words : int;
    width : int;
    bits : int array;
    addr : net array;
    rdata : net array;
    wdata : net array;  (* empty for a ROM *)
    we : net;  (* -1 for a ROM *)
    scratch : int array;  (* lane-by-lane read buffer, one per bit *)
    read : int;  (* the element of the read port *)
  }

  (* A simulator instance.  Its lane state — net words, stem-fault
     masks, element kinds, RAM contents, the dirty set, branch-fault
     slots, counters — sits next to its topology's read-only arrays,
     field by field, so the evaluation loop reads both alike. *)
  type t = {
    name : string;
    inputs : (string * net array) array;
    outputs : (string * net array) array;
    v : int array;  (* net -> lane word *)
    keep : int array;  (* net -> lanes not stuck (stem faults) *)
    force : int array;  (* net -> lanes stuck at 1 *)
    mutable stuck_nets : bool;  (* a stem fault is active: [write] masks *)
    pokeable : Bytes.t;  (* net -> DFF q-net or primary-input bit *)
    (* Elements, numbered in level order, so that every element reads
       only lower-numbered ones unless levelization cut a cycle.  A gate
       reads [in0]..[in2] (net 0 when unused); a memory read keeps its
       index in [memories] in [in0]. *)
    kind : int array;
    in0 : int array;
    in1 : int array;
    in2 : int array;
    out : int array;
    gate_elem : int array;  (* {!fold_gates} index -> element *)
    fan_start : int array;  (* net -> readers, compressed rows *)
    fan : int array;
    memories : memory array;
    rams : memory array;
    dff_d : int array;
    dff_q : int array;
    dff_init : int array;
    dff_next : int array;
    (* Levelization cut a combinational cycle: the state a settle
       reaches may depend on when it runs, so [clock] settles the edge
       at once and reads never settle early. *)
    cyclic : bool;
    (* The dirty set: bit [e land 31] of word [e lsr 5] marks element
       [e]; the words below [lo] hold no bits, so [lo] at the end of
       [dirty] means nothing is dirty. *)
    dirty : int array;
    mutable lo : int;
    (* Per branch-faulted gate, a slot with its real kind and a
       keep/force mask per pin. *)
    slot_elem : int array;
    slot_kind : int array;
    slot_keep : int array;
    slot_force : int array;
    mutable n_slots : int;
    settle_budget : int;
    mutable n_events : int;
    mutable n_clocks : int;
  }

  (* A topology is an instance with empty lane state, never simulated:
     what levelization derives from the netlist and no simulation
     writes.  [instantiate] gives lane state to a copy that shares the
     rest, so any number of instances, on any domain, share one
     levelization. *)
  type topology = t

  let bit_word m i =
    if Int64.logand (Int64.shift_right_logical m i) 1L = 0L then 0 else all_lanes

  (* Mark every element dirty, as after power-up. *)
  let mark_all t =
    let n = Array.length t.kind and words = Array.length t.dirty in
    Array.fill t.dirty 0 words 0xFFFF_FFFF;
    if n land 31 <> 0 then t.dirty.(words - 1) <- (1 lsl (n land 31)) - 1;
    t.lo <- 0

  let topology (nl : netlist) =
    let gr = levelize nl in
    let gates = gr.gr_gates in
    let ng = Array.length gates in
    let n = n_elements gr in
    let n_nets = max 1 nl.n_nets in
    (* Renumber the elements by level: a counting sort, stable in the
       levelization order. *)
    let n_levels = Array.fold_left (fun m l -> max m (l + 1)) 0 gr.gr_level in
    let n_levels = if n = 0 then 0 else n_levels in
    let fill = Array.make (n_levels + 1) 0 in
    for e = 0 to n - 1 do
      let l = gr.gr_level.(e) in
      fill.(l + 1) <- fill.(l + 1) + 1
    done;
    for l = 1 to n_levels do
      fill.(l) <- fill.(l) + fill.(l - 1)
    done;
    let renum = Array.make (max 1 n) 0 in
    for i = 0 to n - 1 do
      let e = gr.gr_order.(i) in
      let l = gr.gr_level.(e) in
      renum.(e) <- fill.(l);
      fill.(l) <- fill.(l) + 1
    done;
    let m = max 1 n in
    let kind = Array.make m 0 and in0 = Array.make m 0 and in1 = Array.make m 0 in
    let in2 = Array.make m 0 and out = Array.make m 0 in
    Array.iteri
      (fun gi g ->
        let e = renum.(gi) in
        kind.(e) <- kind_code g.g_kind;
        let ins = g.g_inputs in
        let k = Array.length ins in
        if k > 0 then in0.(e) <- ins.(0);
        if k > 1 then in1.(e) <- ins.(1);
        if k > 2 then in2.(e) <- ins.(2);
        out.(e) <- g.g_out)
      gates;
    (* Memory [i] (ROMs, then RAMs) reads as element [renum.(ng + i)]. *)
    let memory i ~words ~width ~bits ~addr ~rdata ~wdata ~we =
      { words; width; bits; addr; rdata; wdata; we; scratch = [||];
        read = renum.(ng + i) }
    in
    let roms =
      Array.mapi
        (fun i r ->
          let words = Array.length r.r_contents in
          let bits = Array.make (max 1 (words * r.r_width)) 0 in
          Array.iteri
            (fun w c ->
              for b = 0 to r.r_width - 1 do
                bits.((w * r.r_width) + b) <- bit_word c b
              done)
            r.r_contents;
          memory i ~words ~width:r.r_width ~bits ~addr:r.r_addr ~rdata:r.r_out
            ~wdata:[||] ~we:(-1))
        gr.gr_roms
    in
    let rams =
      Array.mapi
        (fun i r ->
          memory (Array.length roms + i) ~words:r.m_words ~width:r.m_width
            ~bits:[||] ~addr:r.m_addr ~rdata:r.m_out ~wdata:r.m_wdata ~we:r.m_we)
        gr.gr_rams
    in
    let memories = Array.append roms rams in
    Array.iteri
      (fun i mem ->
        kind.(mem.read) <- k_memory;
        in0.(mem.read) <- i)
      memories;
    let fan = gr.gr_fan in
    for j = 0 to gr.gr_fan_start.(n_nets) - 1 do
      fan.(j) <- renum.(fan.(j))
    done;
    let dffs = Array.of_list (List.rev nl.dffs) in
    let pokeable = Bytes.make n_nets '\000' in
    List.iter
      (fun (_, bus) -> Array.iter (fun n -> Bytes.set pokeable n '\001') bus)
      nl.inputs;
    Array.iter (fun d -> Bytes.set pokeable d.d_q '\001') dffs;
    {
      name = nl.nl_name;
      inputs = Array.of_list (List.rev nl.inputs);
      outputs = Array.of_list (List.rev nl.outputs);
      v = [||];
      keep = [||];
      force = [||];
      stuck_nets = false;
      pokeable;
      kind;
      in0;
      in1;
      in2;
      out;
      gate_elem = Array.sub renum 0 ng;
      fan_start = gr.gr_fan_start;
      fan;
      memories;
      rams = [||];
      dff_d = Array.map (fun d -> d.d_d) dffs;
      dff_q = Array.map (fun d -> d.d_q) dffs;
      dff_init = Array.map (fun d -> if d.d_init then all_lanes else 0) dffs;
      dff_next = [||];
      cyclic = gr.gr_acyclic < n;
      dirty = [||];
      lo = 0;
      slot_elem = [||];
      slot_kind = [||];
      slot_keep = [||];
      slot_force = [||];
      n_slots = 0;
      settle_budget = 1000 * max 64 n;
      n_events = 0;
      n_clocks = 0;
    }

  let instantiate tp =
    let n_nets = Bytes.length tp.pokeable in
    (* A ROM ([we] = -1) keeps its image; a RAM gets its own contents. *)
    let memories =
      Array.map
        (fun mem ->
          let bits =
            if mem.we < 0 then mem.bits
            else Array.make (max 1 (mem.words * mem.width)) 0
          in
          { mem with bits; scratch = Array.make mem.width 0 })
        tp.memories
    in
    let t =
      {
        tp with
        v = Array.make n_nets 0;
        keep = Array.make n_nets all_lanes;
        force = Array.make n_nets 0;
        kind = Array.copy tp.kind;
        memories;
        rams = Array.of_list (List.filter (fun mem -> mem.we >= 0) (Array.to_list memories));
        dff_next = Array.make (Array.length tp.dff_d) 0;
        dirty = Array.make ((Array.length tp.kind + 31) lsr 5) 0;
        slot_elem = Array.make lanes 0;
        slot_kind = Array.make lanes 0;
        slot_keep = Array.make (3 * lanes) all_lanes;
        slot_force = Array.make (3 * lanes) 0;
      }
    in
    Array.iteri (fun i q -> t.v.(q) <- t.dff_init.(i)) t.dff_q;
    mark_all t;
    t

  let create nl = instantiate (topology nl)

  (* One OR.  A mark below the word being scanned lowers [lo], which
     rewinds the sweep. *)
  let[@inline] mark t e =
    let i = e lsr 5 in
    Array.unsafe_set t.dirty i
      (Array.unsafe_get t.dirty i lor (1 lsl (e land 31)));
    if i < t.lo then t.lo <- i

  (* Write a lane word to a net through its stem-fault masks, when a
     stem fault is active (the masks are the identity otherwise, and
     loading them would double the random loads); a change marks the
     net's readers.  Net and element indices were checked when [create]
     built the arrays. *)
  let[@inline] write t o w =
    let w =
      if t.stuck_nets then
        w land Array.unsafe_get t.keep o lor Array.unsafe_get t.force o
      else w
    in
    if w <> Array.unsafe_get t.v o then begin
      Array.unsafe_set t.v o w;
      t.n_events <- t.n_events + 1;
      for j = Array.unsafe_get t.fan_start o
          to Array.unsafe_get t.fan_start (o + 1) - 1 do
        mark t (Array.unsafe_get t.fan j)
      done
    end

  (* The address on a bus when every lane agrees on it, else -1. *)
  let common_address v addr =
    let a = ref 0 and mixed = ref false in
    for i = 0 to Array.length addr - 1 do
      let w = v.(addr.(i)) in
      if w = all_lanes then a := !a lor (1 lsl i) else if w <> 0 then mixed := true
    done;
    if !mixed then -1 else !a

  let lane_address v addr l =
    let a = ref 0 in
    for i = 0 to Array.length addr - 1 do
      if (v.(addr.(i)) lsr l) land 1 <> 0 then a := !a lor (1 lsl i)
    done;
    !a

  let row mem a = (a mod mem.words) * mem.width

  (* A memory read: one word access when all lanes share the address,
     else lane by lane. *)
  let eval_memory t mem =
    let a = common_address t.v mem.addr in
    if a >= 0 then begin
      let base = row mem a in
      for b = 0 to mem.width - 1 do
        write t mem.rdata.(b) mem.bits.(base + b)
      done
    end
    else begin
      let acc = mem.scratch in
      Array.fill acc 0 mem.width 0;
      for l = 0 to lanes - 1 do
        let base = row mem (lane_address t.v mem.addr l) in
        for b = 0 to mem.width - 1 do
          acc.(b) <- acc.(b) lor (mem.bits.(base + b) land (1 lsl l))
        done
      done;
      for b = 0 to mem.width - 1 do
        write t mem.rdata.(b) acc.(b)
      done
    end

  let[@inline] pin v ins e = Array.unsafe_get v (Array.unsafe_get ins e)

  (* A gate with a branch fault reads each pin through its slot's masks. *)
  let masked_pin t s p ins e =
    pin t.v ins e land t.slot_keep.((3 * s) + p) lor t.slot_force.((3 * s) + p)

  (* [apply] again, loading each pin only when the kind reads it.
     Inlined into [settle], its one caller. *)
  let[@inline] eval t e =
    let v = t.v in
    let k = Array.unsafe_get t.kind e in
    if k < k_memory then
      let a = pin v t.in0 e in
      write t (Array.unsafe_get t.out e)
        (match k with
        | 0 -> a
        | 1 -> lnot a
        | 2 -> a land pin v t.in1 e
        | 3 -> a lor pin v t.in1 e
        | 4 -> a lxor pin v t.in1 e
        | 5 -> lnot (a land pin v t.in1 e)
        | 6 -> lnot (a lor pin v t.in1 e)
        | 7 -> a land pin v t.in1 e lor (lnot a land pin v t.in2 e)
        | 8 -> 0
        | _ -> all_lanes)
    else if k = k_memory then eval_memory t t.memories.(t.in0.(e))
    else
      let s = k - k_faulty in
      write t t.out.(e)
        (apply t.slot_kind.(s) (masked_pin t s 0 t.in0 e)
           (masked_pin t s 1 t.in1 e) (masked_pin t s 2 t.in2 e))

  (* [ctz.((b * 0x077CB531) lsr 27 land 31)] is the index of the one
     bit set in [b < 2^32]: 0x077CB531 is a de Bruijn sequence, so the
     top five bits of the 32-bit product differ for every such [b]. *)
  let ctz =
    let table = Array.make 32 0 in
    for i = 0 to 31 do
      table.(((1 lsl i) * 0x077CB531) lsr 27 land 31) <- i
    done;
    table

  (* The budget ran out: report the nets still in motion, the outputs
     of every element left in the dirty set. *)
  let did_not_settle t =
    let toggling = ref [] in
    for i = t.lo to Array.length t.dirty - 1 do
      for b = 0 to 31 do
        if (t.dirty.(i) lsr b) land 1 <> 0 then begin
          let e = (i lsl 5) lor b in
          if t.kind.(e) = k_memory then
            Array.iter
              (fun n -> toggling := n :: !toggling)
              t.memories.(t.in0.(e)).rdata
          else toggling := t.out.(e) :: !toggling
        end
      done
    done;
    let toggling = List.sort_uniq compare !toggling in
    let shown = List.filteri (fun i _ -> i < 12) toggling in
    let label =
      bus_net_label ~inputs:(Array.to_list t.inputs)
        ~outputs:(Array.to_list t.outputs)
    in
    Ocapi_error.fail Ocapi_error.Did_not_settle ~engine:"gates"
      ~construct:t.name ~cycle:t.n_clocks ~nets:(List.map label shown)
      "netlist %s oscillates: %d nets still toggling after %d evaluations"
      t.name (List.length toggling) t.settle_budget

  (* Evaluate the dirty elements, the lowest-numbered first.  In an
     acyclic netlist an evaluation only marks higher-numbered elements,
     so each element runs at most once and the sweep never turns back;
     on a combinational cycle a mark below the cursor rewinds it
     ([mark] lowers [lo]), and the budget bounds the evaluations. *)
  let settle t =
    let evals = ref 0 and events0 = t.n_events in
    let t_settle = Ocapi_obs.span_begin () in
    let dirty = t.dirty in
    let words = Array.length dirty in
    while t.lo < words do
      let i = t.lo in
      let w = Array.unsafe_get dirty i in
      if w = 0 then t.lo <- i + 1
      else begin
        if !evals >= t.settle_budget then did_not_settle t;
        incr evals;
        let b = w land -w in
        Array.unsafe_set dirty i (w lxor b);
        eval t ((i lsl 5) lor Array.unsafe_get ctz ((b * 0x077CB531) lsr 27 land 31))
      end
    done;
    if Ocapi_obs.enabled () then begin
      Ocapi_obs.count "gates.settles";
      Ocapi_obs.count ~n:!evals "gates.evaluations";
      Ocapi_obs.count ~n:(t.n_events - events0) "gates.events";
      Ocapi_obs.observe "gates.evals_per_settle" (float_of_int !evals);
      Ocapi_obs.span_end ~cat:"gates" "gates.settle" t_settle
    end

  (* Before a read: an edge [clock] left unsettled, or inputs driven
     since the last settle, are settled first.  On an acyclic netlist
     the state a settle reaches depends only on the flip-flops, the RAM
     contents and the inputs, so settling early changes nothing a later
     read sees; a netlist with a cut cycle is read as it is. *)
  let[@inline] settled t = if t.lo < Array.length t.dirty && not t.cyclic then settle t

  type input_port = int
  type output_port = int

  let find_port kind ports name =
    let rec go i =
      if i >= Array.length ports then error "no %s bus %s" kind name
      else if fst ports.(i) = name then i
      else go (i + 1)
    in
    go 0

  let input_port tp name = find_port "input" tp.inputs name
  let output_port tp name = find_port "output" tp.outputs name

  (* Bit [i] of [m] as a lane word; bits past the int's own repeat its
     sign, as an int64 mantissa's do. *)
  let[@inline] int_bit m i = -((m asr (if i < 62 then i else 62)) land 1)

  let drive t p m =
    let bus = snd t.inputs.(p) in
    for i = 0 to Array.length bus - 1 do
      write t (Array.unsafe_get bus i) (int_bit m i)
    done

  let read t ~signed p =
    settled t;
    let bus = snd t.outputs.(p) in
    let w = Array.length bus in
    let m = ref 0 in
    for i = 0 to w - 1 do
      m := !m lor ((Array.unsafe_get t.v (Array.unsafe_get bus i) land 1) lsl i)
    done;
    if signed && w > 0 && (!m lsr (w - 1)) land 1 <> 0 then !m - (1 lsl w) else !m

  let output_diff t p m =
    settled t;
    let bus = snd t.outputs.(p) in
    let d = ref 0 in
    for i = 0 to Array.length bus - 1 do
      d := !d lor (Array.unsafe_get t.v (Array.unsafe_get bus i) lxor int_bit m i)
    done;
    !d

  let set_input t name m = drive t (input_port t name) (Int64.to_int m)
  let get_output t ~signed name = Int64.of_int (read t ~signed (output_port t name))

  (* Write the data bus into the row at [base], in the lanes [sel]. *)
  let store_row v mem base sel =
    let n_data = Array.length mem.wdata in
    for b = 0 to mem.width - 1 do
      let data = if b < n_data then v.(mem.wdata.(b)) else 0 in
      mem.bits.(base + b) <- mem.bits.(base + b) land lnot sel lor (data land sel)
    done

  (* A RAM write at the edge, from the pre-edge address and data: one
     word access when the writing lanes share the address, else lane by
     lane. *)
  let write_ram t mem =
    let v = t.v in
    let we = v.(mem.we) in
    if we <> 0 then begin
      let a = common_address v mem.addr in
      if a >= 0 then store_row v mem (row mem a) we
      else
        for l = 0 to lanes - 1 do
          if we land (1 lsl l) <> 0 then
            store_row v mem (row mem (lane_address v mem.addr l)) (1 lsl l)
        done;
      mark t mem.read
    end

  let clock t =
    t.n_clocks <- t.n_clocks + 1;
    if Ocapi_obs.enabled () then Ocapi_obs.count "gates.clocks";
    (* Sample every DFF input first, then update, so the edge is atomic. *)
    let v = t.v in
    for i = 0 to Array.length t.dff_d - 1 do
      t.dff_next.(i) <- v.(t.dff_d.(i))
    done;
    for r = 0 to Array.length t.rams - 1 do
      write_ram t t.rams.(r)
    done;
    for i = 0 to Array.length t.dff_q - 1 do
      write t t.dff_q.(i) t.dff_next.(i)
    done;
    if t.cyclic then settle t

  let reset t =
    (* Every net low, but in its stuck-at-1 lanes. *)
    Array.blit t.force 0 t.v 0 (Array.length t.v);
    Array.iter (fun mem -> Array.fill mem.bits 0 (Array.length mem.bits) 0) t.rams;
    Array.iteri
      (fun i q -> t.v.(q) <- t.dff_init.(i) land t.keep.(q) lor t.force.(q))
      t.dff_q;
    mark_all t;
    t.n_events <- 0;
    t.n_clocks <- 0

  (* A copy of what [reset] re-initializes, less the event counter: net
     words, RAM contents, the dirty set (empty once settled, every
     element after [reset]) and the clock count the diagnostics report.
     Active faults are not state. *)
  type snapshot = {
    sn_v : int array;
    sn_rams : int array array;
    sn_dirty : int array;
    sn_lo : int;
    sn_clocks : int;
  }

  let snapshot t =
    settled t;
    {
      sn_v = Array.copy t.v;
      sn_rams = Array.map (fun mem -> Array.copy mem.bits) t.rams;
      sn_dirty = Array.copy t.dirty;
      sn_lo = t.lo;
      sn_clocks = t.n_clocks;
    }

  let restore t sn =
    Array.blit sn.sn_dirty 0 t.dirty 0 (Array.length t.dirty);
    t.lo <- sn.sn_lo;
    Array.blit sn.sn_v 0 t.v 0 (Array.length t.v);
    Array.iteri
      (fun i mem -> Array.blit sn.sn_rams.(i) 0 mem.bits 0 (Array.length mem.bits))
      t.rams;
    t.n_clocks <- sn.sn_clocks

  (* [lo] only bounds the dirty words, so it is not compared. *)
  let matches t sn =
    settled t;
    t.n_clocks = sn.sn_clocks
    && t.dirty = sn.sn_dirty
    && t.v = sn.sn_v
    && Array.for_all2 (fun mem bits -> mem.bits = bits) t.rams sn.sn_rams

  (* Activate a stuck-at fault on one lane.  A stem fault pins the net
     in that lane: its value is forced now and every later write is
     masked.  A branch fault recodes the gate as faulty, so it reads
     that pin through the slot's masks. *)
  let inject t ~lane (f : fault) =
    if lane < 0 || lane >= lanes then
      invalid_arg (Printf.sprintf "Netlist.Sim.inject: lane %d" lane);
    let bit = 1 lsl lane in
    let stick keep force i =
      keep.(i) <- keep.(i) land lnot bit;
      force.(i) <- (if f.f_stuck then force.(i) lor bit else force.(i) land lnot bit)
    in
    match f.f_site with
    | Stem n ->
      if n < 0 || n >= Array.length t.v then
        error ~construct:t.name "inject: no net %d" n;
      stick t.keep t.force n;
      t.stuck_nets <- true;
      write t n t.v.(n)
    | Branch { br_gate; br_pin } ->
      if br_gate < 0 || br_gate >= Array.length t.gate_elem || br_pin < 0 || br_pin > 2
      then
        error ~construct:t.name "inject: no gate pin g%d.in%d" br_gate br_pin;
      let e = t.gate_elem.(br_gate) in
      if t.kind.(e) < k_faulty then begin
        if t.n_slots = lanes then
          invalid_arg "Netlist.Sim.inject: branch faults on more than 63 gates";
        let s = t.n_slots in
        t.n_slots <- s + 1;
        t.slot_elem.(s) <- e;
        t.slot_kind.(s) <- t.kind.(e);
        t.kind.(e) <- k_faulty + s
      end;
      stick t.slot_keep t.slot_force ((3 * (t.kind.(e) - k_faulty)) + br_pin);
      mark t e

  let clear_fault t =
    Array.fill t.keep 0 (Array.length t.keep) all_lanes;
    Array.fill t.force 0 (Array.length t.force) 0;
    t.stuck_nets <- false;
    for s = 0 to t.n_slots - 1 do
      t.kind.(t.slot_elem.(s)) <- t.slot_kind.(s)
    done;
    Array.fill t.slot_keep 0 (3 * t.n_slots) all_lanes;
    Array.fill t.slot_force 0 (3 * t.n_slots) 0;
    t.n_slots <- 0

  let net_value t n =
    settled t;
    t.v.(n) land 1 <> 0

  let poke_net t n b =
    if n < 0 || n >= Array.length t.v || Bytes.get t.pokeable n = '\000' then
      error ~construct:t.name
        "poke_net: net %d of %s is neither a flip-flop output nor a primary \
         input" n t.name;
    write t n (if b then all_lanes else 0)
end
