let sample_format = Fixed.signed ~width:6 ~frac:4

type t = { system : Cycle_system.t; probes : string list }

let window = 16

(* Balanced addition tree (keeps the widening shallow). *)
let rec sum_tree = function
  | [] -> invalid_arg "Hcor: sum_tree of an empty signal list"
  | [ e ] -> e
  | es ->
    let rec pair = function
      | [] -> []
      | [ e ] -> [ e ]
      | a :: b :: rest -> Signal.add a b :: pair rest
    in
    sum_tree (pair es)

let create ?(threshold = 14) ?(payload_len = 388) ~stimulus () =
  if threshold < 1 || threshold > window then
    invalid_arg
      (Printf.sprintf "Hcor.create: threshold %d out of range [1, %d]" threshold
         window);
  if payload_len < 1 || payload_len > 500 then
    invalid_arg
      (Printf.sprintf "Hcor.create: payload_len %d out of range [1, 500]"
         payload_len);
  let clk = Clock.default in
  let bit = Fixed.bit_format in
  let cnt_fmt = Fixed.unsigned ~width:9 ~frac:0 in
  let corr_fmt = Fixed.unsigned ~width:5 ~frac:0 in
  let soft_fmt = Fixed.signed ~width:12 ~frac:4 in
  let agc_fmt = Fixed.unsigned ~width:12 ~frac:4 in
  (* The sample window: w.(0) is the newest stored sample. *)
  let w =
    Array.init window (fun i ->
        Signal.Reg.create clk (Printf.sprintf "w%d" i) sample_format)
  in
  let found_r = Signal.Reg.create clk "found_r" bit in
  let done_r = Signal.Reg.create clk "done_r" bit in
  let cnt = Signal.Reg.create clk "cnt" cnt_fmt in
  (* The datapath expressions are built once and shared by both SFGs —
     the same object sharing the paper's C++ capture gets for free. *)
  let sample_port = Signal.Input.create "sample" sample_format in
  let sample = Signal.input sample_port in
  (* New window: sample, then the stored samples shifted by one. *)
  let n =
    Array.init window (fun i ->
        if i = 0 then sample else Signal.reg_q w.(i - 1))
  in
  let zero = Signal.constf sample_format 0.0 in
  let hard = Array.map (fun v -> Signal.ge v zero) n in
  (* Window position j holds the bit received j cycles ago; the sync
     word's first (oldest) bit aligns with the oldest position. *)
  let agree =
    List.init window (fun j ->
        let expect = Dect_stimuli.sync_word.(window - 1 - j) in
        if expect then hard.(j) else Signal.not_ hard.(j))
  in
  let corr = sum_tree agree in
  let soft_terms =
    List.init window (fun j ->
        if Dect_stimuli.sync_word.(window - 1 - j) then n.(j)
        else Signal.neg n.(j))
  in
  let soft = sum_tree soft_terms in
  let agc = sum_tree (List.init window (fun j -> Signal.abs_ n.(j))) in
  let found = Signal.ge corr (Signal.consti (Signal.fmt corr) threshold) in
  let datapath b =
    ignore (Sfg.Builder.input_port b sample_port);
    Array.iteri (fun i reg -> Sfg.Builder.assign_resized b reg n.(i)) w;
    Sfg.Builder.output b "corr" (Signal.resize corr_fmt corr);
    Sfg.Builder.output b "soft"
      (Signal.resize ~overflow:Fixed.Saturate soft_fmt soft);
    Sfg.Builder.output b "agc"
      (Signal.resize ~overflow:Fixed.Saturate agc_fmt agc);
    Sfg.Builder.output b "bit_out" hard.(0);
    Sfg.Builder.assign b found_r found
  in
  let sfg_search =
    Sfg.build "search" (fun b ->
        datapath b;
        Sfg.Builder.output b "locked" Signal.gnd;
        Sfg.Builder.assign b cnt (Signal.consti cnt_fmt 0);
        Sfg.Builder.assign b done_r Signal.gnd)
  in
  let sfg_track =
    Sfg.build "track" (fun b ->
        datapath b;
        Sfg.Builder.output b "locked" Signal.vdd;
        Sfg.Builder.assign_resized b cnt
          Signal.(reg_q cnt +: consti cnt_fmt 1);
        Sfg.Builder.assign b done_r
          Signal.(reg_q cnt ==: consti cnt_fmt (payload_len - 1)))
  in
  let fsm = Fsm.create "hcor_ctl" in
  let s_search = Fsm.initial fsm "search" in
  let s_locked = Fsm.state fsm "locked" in
  Fsm.(s_search |-- cnd (Signal.reg_q found_r) |+ sfg_track |-> s_locked);
  Fsm.(s_search |-- always |+ sfg_search |-> s_search);
  Fsm.(s_locked |-- cnd (Signal.reg_q done_r) |+ sfg_search |-> s_search);
  Fsm.(s_locked |-- always |+ sfg_track |-> s_locked);
  let system = Cycle_system.create "hcor" in
  let comp = Cycle_system.add_timed system "hcor" fsm in
  let src = Cycle_system.add_input system "sample_in" sample_format stimulus in
  let probes = [ "corr"; "soft"; "agc"; "bit_out"; "locked" ] in
  let probe_comps =
    List.map (fun p -> (p, Cycle_system.add_output system p)) probes
  in
  ignore (Cycle_system.connect system (src, "out") [ (comp, "sample") ]);
  List.iter
    (fun (p, pc) ->
      ignore (Cycle_system.connect system (comp, p) [ (pc, "in") ]))
    probe_comps;
  { system; probes }

let sample_stimulus samples cycle =
  if cycle < Array.length samples then Some samples.(cycle)
  else Some (Fixed.zero sample_format)

let source_lines () = Src_lines.hcor
