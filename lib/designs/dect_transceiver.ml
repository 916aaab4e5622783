(* The DECT transceiver of fig 5.  See the interface for the overview.

   Microprogram timing (tau = position in the 20-cycle symbol loop):
     tau  0  adc.LATCH            macs.DUMP (previous symbol)
     tau  1  dc.TRACK             macs.CLR
     tau  2  gain.APPLY  agc.ACC  sum.SUM4 (previous symbol)
     tau  3  mem.WRITE            slice.SLICE (previous symbol)
     tau  4..19  mem.READ tap 0..15; mac m MACs during tau 4+4m .. 7+4m
     tau  4  corr.SHIFT   5 crc.UPDATE   6 scram.STEP   7 framer.PUSH
     tau  8/9 deint_a WR/RD   10/11 deint_b WR/RD
     tau 12/13/14 timing EARLY/LATE/DECIDE   15 freq.ACC
     tau 13 equ.SET_MU_k  14 equ misc  16 equ.READ_k  17 equ.UPD_k  18 equ.WRB
     tau 18 ctl rotation   19 monitor.SNAP  agc.UPDATE

   The opcode-capture register gives the VLIW a one-cycle decode
   pipeline: cycle c >= 1 executes schedule[(c-1) mod 320]. *)

let sample_format = Fixed.signed ~width:6 ~frac:4
let x_fmt = Fixed.signed ~width:8 ~frac:4
let est_fmt = Fixed.signed ~width:10 ~frac:8
let coef_fmt = Fixed.signed ~width:8 ~frac:6
let acc_fmt = Fixed.signed ~width:18 ~frac:10
let mac_out_fmt = Fixed.signed ~width:12 ~frac:6
let sum_fmt = Fixed.signed ~width:14 ~frac:6
let adapt_fmt = Fixed.signed ~width:12 ~frac:8
let byte_fmt = Fixed.unsigned ~width:8 ~frac:0
let crc_fmt = Fixed.unsigned ~width:16 ~frac:0
let bit = Fixed.bit_format
let u width = Fixed.unsigned ~width ~frac:0

let loop_length = 20
let loops = 16
let program_length = loop_length * loops

(* Zero-forcing inverse of the default channel [1.0; 0.45; -0.2],
   truncated to 16 taps and quantized to the coefficient ROM format. *)
let equalizer_coefficients =
  let h = Array.make 16 0.0 in
  h.(0) <- 1.0;
  for k = 1 to 15 do
    let prev2 = if k >= 2 then h.(k - 2) else 0.0 in
    h.(k) <- -.((0.45 *. h.(k - 1)) -. (0.2 *. prev2))
  done;
  Array.map (fun c -> Fixed.of_float coef_fmt c) h

(* --- instruction-set table and field packing ------------------------------- *)

let rec bits_for n = if n <= 2 then 1 else 1 + bits_for ((n + 1) / 2)

(* (name, instruction count): between 2 and 57, 22 datapaths (fig 5). *)
let datapath_table =
  [
    ("dp_adc", 2); ("dp_dc", 3); ("dp_agc", 4); ("dp_gain", 3); ("dp_mem", 6);
    ("dp_mac0", 6); ("dp_mac1", 6); ("dp_mac2", 6); ("dp_mac3", 6);
    ("dp_sum", 5); ("dp_slice", 3); ("dp_corr", 4); ("dp_crc", 4);
    ("dp_scram", 4); ("dp_timing", 5); ("dp_freq", 4); ("dp_deint_a", 5);
    ("dp_deint_b", 5); ("dp_framer", 8); ("dp_ctl", 8); ("dp_equ", 57);
    ("dp_mon", 3);
  ]

type field = { f_bank : int; f_offset : int; f_width : int }

let field_layout, bank_widths =
  let fields = Hashtbl.create 32 in
  let bank = ref 0 and offset = ref 0 in
  let widths = ref [] in
  List.iter
    (fun (name, nops) ->
      let w = bits_for nops in
      if !offset + w > 30 then begin
        widths := !offset :: !widths;
        incr bank;
        offset := 0
      end;
      Hashtbl.replace fields name
        { f_bank = !bank; f_offset = !offset; f_width = w };
      offset := !offset + w)
    datapath_table;
  widths := !offset :: !widths;
  (fields, Array.of_list (List.rev !widths))

let n_banks = Array.length bank_widths
let bank_fmt b = Fixed.unsigned ~width:bank_widths.(b) ~frac:0

(* --- the microprogram ------------------------------------------------------- *)

let schedule : (string * int) list array =
  let s = Array.make program_length [] in
  let put p dp op = s.(p) <- (dp, op) :: s.(p) in
  let macs = [ "dp_mac0"; "dp_mac1"; "dp_mac2"; "dp_mac3" ] in
  for k = 0 to loops - 1 do
    let t tau = (k * loop_length) + tau in
    put (t 0) "dp_adc" 1;
    List.iter (fun m -> put (t 0) m 3 (* DUMP *)) macs;
    put (t 1) "dp_dc" 1;
    List.iter (fun m -> put (t 1) m 1 (* CLR *)) macs;
    put (t 2) "dp_gain" 1;
    put (t 2) "dp_agc" 1;
    put (t 2) "dp_sum" 1;
    put (t 3) "dp_mem" 2 (* WRITE *);
    put (t 3) "dp_slice" 1;
    for tau = 4 to 19 do
      put (t tau) "dp_mem" 3 (* READ *);
      put (t tau) (Printf.sprintf "dp_mac%d" ((tau - 4) / 4)) 2 (* MAC *)
    done;
    put (t 4) "dp_corr" 1;
    put (t 5) "dp_crc" 2;
    put (t 6) "dp_scram" 2;
    put (t 7) "dp_framer" 2;
    put (t 8) "dp_deint_a" 2;
    put (t 9) "dp_deint_a" 3;
    put (t 10) "dp_deint_b" 2;
    put (t 11) "dp_deint_b" 3;
    put (t 12) "dp_timing" 1;
    put (t 13) "dp_timing" 2;
    put (t 14) "dp_timing" 3;
    put (t 15) "dp_freq" 1;
    put (t 13) "dp_equ" (34 + k) (* SET_MU_k *);
    if k < 7 then put (t 14) "dp_equ" (50 + k) else put (t 14) "dp_equ" 56;
    put (t 16) "dp_equ" (1 + k) (* READ_k *);
    put (t 17) "dp_equ" (17 + k) (* UPD_k *);
    put (t 18) "dp_equ" 33 (* WRB *);
    put (t 18) "dp_ctl" (1 + (k mod 7));
    put (t 19) "dp_mon" 1;
    put (t 19) "dp_agc" 2
  done;
  (* Coverage of the remaining operations, scheduled where their effect
     is overwritten before it is consumed (see the opcode comments). *)
  let t k tau = (k * loop_length) + tau in
  put (t 0 18) "dp_agc" 3;
  put (t 0 0) "dp_dc" 2;
  put (t 15 0) "dp_gain" 2;
  put (t 3 1) "dp_mem" 5;
  put (t 2 2) "dp_mem" 4;
  List.iter
    (fun m ->
      put (t 15 2) m 4;
      put (t 14 2) m 5)
    macs;
  put (t 2 10) "dp_sum" 2;
  put (t 2 11) "dp_sum" 3;
  put (t 2 12) "dp_sum" 4;
  put (t 0 0) "dp_slice" 2;
  put (t 0 1) "dp_corr" 2;
  put (t 1 1) "dp_corr" 3;
  put (t 0 2) "dp_crc" 1;
  put (t 14 18) "dp_crc" 3;
  put (t 0 3) "dp_scram" 1;
  put (t 5 16) "dp_scram" 3;
  put (t 0 5) "dp_timing" 4;
  put (t 0 6) "dp_freq" 3;
  put (t 5 17) "dp_freq" 2;
  put (t 0 7) "dp_deint_a" 1;
  put (t 1 7) "dp_deint_a" 4;
  put (t 0 8) "dp_deint_b" 1;
  put (t 1 8) "dp_deint_b" 4;
  put (t 0 9) "dp_framer" 1;
  put (t 0 10) "dp_framer" 4;
  put (t 3 13) "dp_framer" 6;
  put (t 5 13) "dp_framer" 7;
  put (t 6 13) "dp_framer" 5;
  put (t 7 13) "dp_framer" 3;
  put (t 0 11) "dp_mon" 2;
  s

(* Clashes: "put" prepends, and the datapath executes the FIRST entry
   found for it... it must not have two.  Validate. *)
let () =
  Array.iteri
    (fun p entry ->
      let seen = Hashtbl.create 8 in
      List.iter
        (fun (dp, op) ->
          if Hashtbl.mem seen dp then
            Ocapi_error.fail Internal ~engine:"design"
              ~construct:"dect.schedule"
              "datapath %s has two ops at program word %d" dp p;
          Hashtbl.replace seen dp ();
          let nops = List.assoc dp datapath_table in
          if op < 0 || op >= nops then
            Ocapi_error.fail Internal ~engine:"design"
              ~construct:"dect.schedule"
              "datapath %s op %d out of range [0, %d) at program word %d" dp op
              nops p)
        entry)
    schedule

let encode_word entry b =
  List.fold_left
    (fun acc (dp, op) ->
      let f = Hashtbl.find field_layout dp in
      if f.f_bank = b then
        Int64.logor acc (Int64.shift_left (Int64.of_int op) f.f_offset)
      else acc)
    0L entry

(* --- design ------------------------------------------------------------------ *)

type t = {
  system : Cycle_system.t;
  probes : string list;
  program_length : int;
  loop_length : int;
  instruction_counts : (string * int) list;
  ram_names : string list;
}

(* Build one datapath: an opcode capture register plus one FSM
   transition per instruction, guarded on the registered opcode
   ("conditions are stored in registers", fig 2).  [ports] lists every
   output with its default (register-read) expression; [body] returns
   per-op output overrides and performs op-specific register assigns.
   Illegal opcodes decode as nop. *)
let make_datapath ~clk ~name ~n_ops ~ports ~extra_inputs ~body =
  ignore clk;
  let f = Hashtbl.find field_layout name in
  let op_fmt = u f.f_width in
  let op_reg = Signal.Reg.create clk (name ^ "_op") op_fmt in
  let instr_port = Signal.Input.create "instr" (bank_fmt f.f_bank) in
  let next_op = Signal.resize op_fmt (Signal.shift_right (Signal.input instr_port) f.f_offset) in
  let input_ports =
    List.map (fun (pname, fmt) -> (pname, Signal.Input.create pname fmt))
      extra_inputs
  in
  let input_signals =
    List.map (fun (pname, port) -> (pname, Signal.input port)) input_ports
  in
  let build_op k =
    Sfg.build
      (Printf.sprintf "%s_op%d" name k)
      (fun b ->
        ignore (Sfg.Builder.input_port b instr_port);
        Sfg.Builder.assign b op_reg next_op;
        let declared = Hashtbl.create 4 in
        let use pname =
          if not (Hashtbl.mem declared pname) then begin
            Hashtbl.replace declared pname ();
            ignore (Sfg.Builder.input_port b (List.assoc pname input_ports))
          end;
          List.assoc pname input_signals
        in
        let overrides = body b k ~use in
        List.iter
          (fun (pname, default) ->
            let e =
              match List.assoc_opt pname overrides with
              | Some e -> e
              | None -> default
            in
            Sfg.Builder.output b pname e)
          ports)
  in
  let sfgs = Array.init n_ops build_op in
  let fsm = Fsm.create name in
  let run = Fsm.initial fsm "run" in
  for k = 0 to n_ops - 1 do
    Fsm.(
      run
      |-- cnd Signal.(reg_q op_reg ==: consti op_fmt k)
      |+ sfgs.(k) |-> run)
  done;
  Fsm.(run |-- always |+ sfgs.(0) |-> run);
  fsm

let sample_stimulus samples cycle =
  if cycle < Array.length samples then Some samples.(cycle)
  else Some (Fixed.zero sample_format)

let macro_of_kernel = Ram_cell.macro_of_kernel

(* Bit accessor used by the serial datapaths: bit [i] of an unsigned
   register value, as a 1-bit signal. *)
let bit_of e i = Signal.resize bit (Signal.shift_right e i)

(* Each [create] call builds a fully isolated transceiver: every RAM
   cell allocates a fresh backing store captured by its own closures
   (see [Ram_cell.kernel]), so factories may be invoked to replicate
   the design for per-domain campaign workers.  Component names are
   deliberately build-independent — no instance counters — so every
   build of the transceiver shares one canonical [Cycle_system.digest]
   (result-cache keys, batch dedup fingerprints).  The by-name
   [Ram_cell] registry consequently maps each RAM name to its most
   recent instance, which is all its peek/clear conveniences promise. *)
let create ?(hold = fun _ -> false) ?(ctl = fun _ -> 0) ~stimulus () =
  let ram_name base = base in
  let clk = Clock.default in
  let sys = Cycle_system.create "dect" in
  (* -- VLIW controller and program counter controller (figs 2 and 5) --
     The controller owns the execute/hold machine and the instruction
     ROM banks; the separate PC controller owns pc and hold_pc and obeys
     a command bus (0 nop, 1 advance, 2 store-hold, 3 resume). *)
  let pc_fmt = u 9 in
  let cmd_fmt = u 2 in
  let pc = Signal.Reg.create clk "pc" pc_fmt in
  let hold_pc = Signal.Reg.create clk "hold_pc" pc_fmt in
  let hold_req_r = Signal.Reg.create clk "hold_req_r" bit in
  let roms =
    Array.init n_banks (fun b ->
        let contents =
          Array.init program_length (fun p ->
              Fixed.create (bank_fmt b) (encode_word schedule.(p) b))
        in
        Signal.Rom.create (Printf.sprintf "irom%d" b) (bank_fmt b) contents)
  in
  let hold_port = Signal.Input.create "hold_in" bit in
  let pc_in_port = Signal.Input.create "pc_in" pc_fmt in
  let hold_pc_in_port = Signal.Input.create "hold_pc_in" pc_fmt in
  let capture_hold b =
    ignore (Sfg.Builder.input_port b hold_port);
    Sfg.Builder.assign b hold_req_r (Signal.input hold_port)
  in
  let rom_outputs b addr =
    Array.iteri
      (fun bk rom ->
        Sfg.Builder.output b (Printf.sprintf "bank%d" bk) (Signal.rom rom addr))
      roms
  in
  let nop_outputs b =
    Array.iteri
      (fun bk _ ->
        Sfg.Builder.output b
          (Printf.sprintf "bank%d" bk)
          (Signal.consti (bank_fmt bk) 0))
      roms
  in
  let cmd b n = Sfg.Builder.output b "pc_cmd" (Signal.consti cmd_fmt n) in
  let sfg_lookup =
    Sfg.build "lookup" (fun b ->
        capture_hold b;
        rom_outputs b (Sfg.Builder.input_port b pc_in_port);
        cmd b 1)
  in
  let sfg_hold_on =
    Sfg.build "hold_on" (fun b ->
        capture_hold b;
        nop_outputs b;
        cmd b 2)
  in
  let sfg_wait =
    Sfg.build "wait" (fun b ->
        capture_hold b;
        nop_outputs b;
        cmd b 0)
  in
  let sfg_hold_lookup =
    Sfg.build "hold_lookup" (fun b ->
        capture_hold b;
        rom_outputs b (Sfg.Builder.input_port b hold_pc_in_port);
        cmd b 3)
  in
  let vliw = Fsm.create "vliw_ctl" in
  let st_execute = Fsm.initial vliw "execute" in
  let st_hold = Fsm.state vliw "hold" in
  Fsm.(st_execute |-- cnd (Signal.reg_q hold_req_r) |+ sfg_hold_on |-> st_hold);
  Fsm.(st_execute |-- always |+ sfg_lookup |-> st_execute);
  Fsm.(st_hold |-- cnd (Signal.reg_q hold_req_r) |+ sfg_wait |-> st_hold);
  Fsm.(st_hold |-- always |+ sfg_hold_lookup |-> st_execute);
  (* The PC controller: a datapath-style component decoding the command
     bus with muxes (it has no conditions of its own). *)
  let pc_next base =
    Signal.(
      mux2
        (base ==: consti pc_fmt (program_length - 1))
        (consti pc_fmt 0)
        (resize pc_fmt (base +: consti pc_fmt 1)))
  in
  let sfg_pc =
    Sfg.build "pc_step" (fun b ->
        let command = Sfg.Builder.input b "cmd" cmd_fmt in
        let is n = Signal.(command ==: consti cmd_fmt n) in
        Sfg.Builder.output b "pc_out" (Signal.resize pc_fmt (Signal.reg_q pc));
        Sfg.Builder.output b "hold_pc_out"
          (Signal.resize pc_fmt (Signal.reg_q hold_pc));
        Sfg.Builder.assign b pc
          (Signal.resize pc_fmt
             (Signal.mux2 (is 1)
                (pc_next (Signal.reg_q pc))
                (Signal.mux2 (is 3)
                   (pc_next (Signal.reg_q hold_pc))
                   (Signal.reg_q pc))));
        Sfg.Builder.assign b hold_pc
          (Signal.resize pc_fmt
             (Signal.mux2 (is 2) (Signal.reg_q pc) (Signal.reg_q hold_pc))))
  in
  let pc_fsm = Fsm.create "pc_ctl" in
  let pc_run = Fsm.initial pc_fsm "run" in
  Fsm.(pc_run |-- always |+ sfg_pc |-> pc_run);
  (* -- datapaths -- *)
  let dp name = make_datapath ~clk ~name in
  let no_override : (string * Signal.t) list = [] in
  (* dp_adc: 0 nop, 1 LATCH *)
  let s_r = Signal.Reg.create clk "s_r" sample_format in
  let dp_adc =
    dp "dp_adc" ~n_ops:2
      ~ports:[ ("s", Signal.reg_q s_r) ]
      ~extra_inputs:[ ("sample", sample_format) ]
      ~body:(fun b k ~use ->
        if k = 1 then Sfg.Builder.assign b s_r (use "sample");
        no_override)
  in
  (* dp_dc: 0 nop, 1 TRACK, 2 RESET *)
  let est = Signal.Reg.create clk "dc_est" est_fmt in
  let y_r = Signal.Reg.create clk "dc_y" x_fmt in
  let dp_dc =
    dp "dp_dc" ~n_ops:3
      ~ports:[ ("y", Signal.reg_q y_r) ]
      ~extra_inputs:[ ("s_in", sample_format) ]
      ~body:(fun b k ~use ->
        (match k with
        | 1 ->
          let s = use "s_in" in
          let diff = Signal.(s -: reg_q est) in
          Sfg.Builder.assign_resized b est
            Signal.(reg_q est +: shift_right diff 5);
          Sfg.Builder.assign b y_r
            (Signal.resize ~overflow:Fixed.Saturate x_fmt diff)
        | 2 -> Sfg.Builder.assign b est (Signal.consti est_fmt 0)
        | _ -> ());
        no_override)
  in
  (* dp_agc: 0 nop, 1 ACC, 2 UPDATE, 3 CLRALL *)
  let mag_fmt = Fixed.unsigned ~width:12 ~frac:4 in
  let mag = Signal.Reg.create clk "agc_mag" mag_fmt in
  let gain_r = Signal.Reg.create clk "agc_gain" (u 2) in
  let dp_agc =
    dp "dp_agc" ~n_ops:4
      ~ports:[ ("agc", Signal.reg_q mag) ]
      ~extra_inputs:[ ("y_in", x_fmt) ]
      ~body:(fun b k ~use ->
        (match k with
        | 1 ->
          Sfg.Builder.assign b mag
            (Signal.resize ~overflow:Fixed.Saturate mag_fmt
               Signal.(reg_q mag +: abs_ (use "y_in")))
        | 2 ->
          Sfg.Builder.assign b gain_r
            Signal.(
              mux2 (reg_q mag <: constf mag_fmt 16.0) (consti (u 2) 1)
                (consti (u 2) 0));
          Sfg.Builder.assign b mag (Signal.consti mag_fmt 0)
        | 3 ->
          Sfg.Builder.assign b mag (Signal.consti mag_fmt 0);
          Sfg.Builder.assign b gain_r (Signal.consti (u 2) 0)
        | _ -> ());
        no_override)
  in
  (* dp_gain: 0 nop, 1 APPLY, 2 RESETG *)
  let x_r = Signal.Reg.create clk "gain_x" x_fmt in
  let dp_gain =
    dp "dp_gain" ~n_ops:3
      ~ports:[ ("x", Signal.reg_q x_r) ]
      ~extra_inputs:[ ("y_in", x_fmt) ]
      ~body:(fun b k ~use ->
        (match k with
        | 1 -> Sfg.Builder.assign b x_r (Signal.resize x_fmt (use "y_in"))
        | 2 -> Sfg.Builder.assign b x_r (Signal.consti x_fmt 0)
        | _ -> ());
        no_override)
  in
  (* dp_mem: 0 nop, 1 RST, 2 WRITE, 3 READ, 4 SETTAP, 5 MARK *)
  let ptr = Signal.Reg.create clk "mem_ptr" (u 6) in
  let tap = Signal.Reg.create clk "mem_tap" (u 4) in
  let mark = Signal.Reg.create clk "mem_mark" (u 6) in
  let dp_mem =
    dp "dp_mem" ~n_ops:6
      ~ports:[ ("addr", Signal.reg_q ptr); ("we", Signal.gnd) ]
      ~extra_inputs:[]
      ~body:(fun b k ~use ->
        ignore use;
        match k with
        | 1 ->
          Sfg.Builder.assign b ptr (Signal.consti (u 6) 0);
          Sfg.Builder.assign b tap (Signal.consti (u 4) 0);
          no_override
        | 2 ->
          Sfg.Builder.assign_resized b ptr
            Signal.(reg_q ptr +: consti (u 6) 1);
          Sfg.Builder.assign b tap (Signal.consti (u 4) 0);
          [ ("we", Signal.vdd) ]
        | 3 ->
          Sfg.Builder.assign_resized b tap
            Signal.(reg_q tap +: consti (u 4) 1);
          [ ("addr",
             Signal.resize (u 6)
               Signal.(reg_q ptr -: consti (u 6) 1 -: reg_q tap)) ]
        | 4 ->
          Sfg.Builder.assign b tap (Signal.consti (u 4) 0);
          no_override
        | 5 ->
          Sfg.Builder.assign b mark (Signal.reg_q ptr);
          no_override
        | _ -> no_override)
  in
  (* dp_macM: 0 nop, 1 CLR, 2 MAC, 3 DUMP, 4 NEGACC, 5 HOLDQ *)
  let make_mac m =
    let acc = Signal.Reg.create clk (Printf.sprintf "mac%d_acc" m) acc_fmt in
    let cnt = Signal.Reg.create clk (Printf.sprintf "mac%d_cnt" m) (u 2) in
    let out_r =
      Signal.Reg.create clk (Printf.sprintf "mac%d_out" m) mac_out_fmt
    in
    let coef_rom =
      Signal.Rom.create
        (Printf.sprintf "coef%d" m)
        coef_fmt
        (Array.sub equalizer_coefficients (4 * m) 4)
    in
    dp
      (Printf.sprintf "dp_mac%d" m)
      ~n_ops:6
      ~ports:[ ("out", Signal.reg_q out_r) ]
      ~extra_inputs:[ ("rdata", x_fmt) ]
      ~body:(fun b k ~use ->
        (match k with
        | 1 ->
          Sfg.Builder.assign b acc (Signal.consti acc_fmt 0);
          Sfg.Builder.assign b cnt (Signal.consti (u 2) 0)
        | 2 ->
          let coef = Signal.rom coef_rom (Signal.reg_q cnt) in
          Sfg.Builder.assign_resized b acc
            Signal.(reg_q acc +: (use "rdata" *: coef));
          Sfg.Builder.assign_resized b cnt
            Signal.(reg_q cnt +: consti (u 2) 1)
        | 3 ->
          Sfg.Builder.assign b out_r
            (Signal.resize ~overflow:Fixed.Saturate mac_out_fmt
               (Signal.reg_q acc))
        | 4 -> Sfg.Builder.assign_resized b acc (Signal.neg (Signal.reg_q acc))
        | 5 -> Sfg.Builder.assign b out_r (Signal.reg_q out_r)
        | _ -> ());
        no_override)
  in
  let dp_mac = Array.init 4 make_mac in
  (* dp_sum: 0 nop, 1 SUM4, 2 CLRS, 3 SUM2, 4 HOLDS *)
  let sum_r = Signal.Reg.create clk "sum_r" sum_fmt in
  let dp_sum =
    dp "dp_sum" ~n_ops:5
      ~ports:[ ("soft", Signal.reg_q sum_r) ]
      ~extra_inputs:
        [ ("m0", mac_out_fmt); ("m1", mac_out_fmt); ("m2", mac_out_fmt);
          ("m3", mac_out_fmt) ]
      ~body:(fun b k ~use ->
        (match k with
        | 1 ->
          Sfg.Builder.assign b sum_r
            (Signal.resize ~overflow:Fixed.Saturate sum_fmt
               Signal.((use "m0" +: use "m1") +: (use "m2" +: use "m3")))
        | 2 -> Sfg.Builder.assign b sum_r (Signal.consti sum_fmt 0)
        | 3 ->
          Sfg.Builder.assign b sum_r
            (Signal.resize ~overflow:Fixed.Saturate sum_fmt
               Signal.(use "m0" +: use "m1"))
        | 4 -> Sfg.Builder.assign b sum_r (Signal.reg_q sum_r)
        | _ -> ());
        no_override)
  in
  (* dp_slice: 0 nop, 1 SLICE, 2 CLRB *)
  let bit_r = Signal.Reg.create clk "bit_r" bit in
  let dp_slice =
    dp "dp_slice" ~n_ops:3
      ~ports:[ ("bit", Signal.reg_q bit_r) ]
      ~extra_inputs:[ ("soft_in", sum_fmt) ]
      ~body:(fun b k ~use ->
        (match k with
        | 1 ->
          Sfg.Builder.assign b bit_r
            Signal.(use "soft_in" >=: consti sum_fmt 0)
        | 2 -> Sfg.Builder.assign b bit_r Signal.gnd
        | _ -> ());
        no_override)
  in
  (* dp_corr: 0 nop, 1 SHIFT, 2 CLRW, 3 HOLD2 *)
  let window = 16 in
  let w =
    Array.init window (fun i ->
        Signal.Reg.create clk (Printf.sprintf "corr_w%d" i) bit)
  in
  let corr_r = Signal.Reg.create clk "corr_r" (u 5) in
  let found_r = Signal.Reg.create clk "corr_found" bit in
  let rec sum_tree = function
    | [] -> invalid_arg "Dect_transceiver: sum_tree of an empty signal list"
    | [ e ] -> e
    | es ->
      let rec pair = function
        | [] -> []
        | [ e ] -> [ e ]
        | a :: b :: rest -> Signal.add a b :: pair rest
      in
      sum_tree (pair es)
  in
  let dp_corr =
    dp "dp_corr" ~n_ops:4
      ~ports:
        [ ("corr", Signal.reg_q corr_r); ("found", Signal.reg_q found_r) ]
      ~extra_inputs:[ ("bit_in", bit) ]
      ~body:(fun b k ~use ->
        (match k with
        | 1 ->
          let nw =
            Array.init window (fun i ->
                if i = 0 then use "bit_in" else Signal.reg_q w.(i - 1))
          in
          Array.iteri (fun i reg -> Sfg.Builder.assign b reg nw.(i)) w;
          let agree =
            List.init window (fun j ->
                if Dect_stimuli.sync_word.(window - 1 - j) then nw.(j)
                else Signal.not_ nw.(j))
          in
          let corr = sum_tree agree in
          Sfg.Builder.assign b corr_r (Signal.resize (u 5) corr);
          Sfg.Builder.assign b found_r
            Signal.(corr >=: consti (Signal.fmt corr) 14)
        | 2 ->
          Array.iter (fun reg -> Sfg.Builder.assign b reg Signal.gnd) w;
          Sfg.Builder.assign b corr_r (Signal.consti (u 5) 0);
          Sfg.Builder.assign b found_r Signal.gnd
        | 3 -> Sfg.Builder.assign b corr_r (Signal.reg_q corr_r)
        | _ -> ());
        no_override)
  in
  (* dp_crc: 0 nop, 1 INIT, 2 UPDATE, 3 DUMP *)
  let crc = Signal.Reg.create clk "crc" crc_fmt in
  let crc_dump = Signal.Reg.create clk "crc_dump" crc_fmt in
  let dp_crc =
    dp "dp_crc" ~n_ops:4
      ~ports:[ ("crc_out", Signal.reg_q crc) ]
      ~extra_inputs:[ ("bit_in", bit) ]
      ~body:(fun b k ~use ->
        (match k with
        | 1 -> Sfg.Builder.assign b crc (Signal.consti crc_fmt 0)
        | 2 ->
          let q = Signal.reg_q crc in
          let fb = Signal.(bit_of q 15 ^: use "bit_in") in
          let shifted = Signal.resize crc_fmt (Signal.shift_left q 1) in
          Sfg.Builder.assign_resized b crc
            Signal.(
              shifted
              ^: mux2 fb (consti crc_fmt 0x1021) (consti crc_fmt 0))
        | 3 -> Sfg.Builder.assign b crc_dump (Signal.reg_q crc)
        | _ -> ());
        no_override)
  in
  (* dp_scram: 0 nop, 1 INIT, 2 STEP, 3 DUMP — x^7 + x^4 + 1 *)
  let seed = 0x5B in
  let lfsr = Signal.Reg.create clk "lfsr" ~init:(Fixed.of_int (u 7) seed) (u 7) in
  let sbit_r = Signal.Reg.create clk "sbit_r" bit in
  let lfsr_dump = Signal.Reg.create clk "lfsr_dump" (u 7) in
  let dp_scram =
    dp "dp_scram" ~n_ops:4
      ~ports:[ ("sbit", Signal.reg_q sbit_r) ]
      ~extra_inputs:[ ("bit_in", bit) ]
      ~body:(fun b k ~use ->
        (match k with
        | 1 -> Sfg.Builder.assign b lfsr (Signal.consti (u 7) seed)
        | 2 ->
          let q = Signal.reg_q lfsr in
          let fb = Signal.(bit_of q 6 ^: bit_of q 3) in
          Sfg.Builder.assign_resized b lfsr
            Signal.(resize (u 7) (shift_left q 1) |: fb);
          Sfg.Builder.assign b sbit_r Signal.(use "bit_in" ^: bit_of q 6)
        | 3 -> Sfg.Builder.assign b lfsr_dump (Signal.reg_q lfsr)
        | _ -> ());
        no_override)
  in
  (* dp_timing: 0 nop, 1 EARLY, 2 LATE, 3 DECIDE, 4 CLRT *)
  let e_r = Signal.Reg.create clk "tim_e" sum_fmt in
  let l_r = Signal.Reg.create clk "tim_l" sum_fmt in
  let t_r = Signal.Reg.create clk "tim_t" bit in
  let dp_timing =
    dp "dp_timing" ~n_ops:5
      ~ports:[ ("terr", Signal.reg_q t_r) ]
      ~extra_inputs:[ ("soft_in", sum_fmt) ]
      ~body:(fun b k ~use ->
        (match k with
        | 1 ->
          Sfg.Builder.assign b e_r
            (Signal.resize ~overflow:Fixed.Saturate sum_fmt
               Signal.(reg_q e_r +: use "soft_in"))
        | 2 ->
          Sfg.Builder.assign b l_r
            (Signal.resize ~overflow:Fixed.Saturate sum_fmt
               Signal.(reg_q l_r +: use "soft_in"))
        | 3 -> Sfg.Builder.assign b t_r Signal.(reg_q e_r <: reg_q l_r)
        | 4 ->
          Sfg.Builder.assign b e_r (Signal.consti sum_fmt 0);
          Sfg.Builder.assign b l_r (Signal.consti sum_fmt 0)
        | _ -> ());
        no_override)
  in
  (* dp_freq: 0 nop, 1 ACC, 2 DUMPF, 3 CLRF *)
  let f_r = Signal.Reg.create clk "freq_f" sum_fmt in
  let prev = Signal.Reg.create clk "freq_prev" sum_fmt in
  let fd_r = Signal.Reg.create clk "freq_dump" sum_fmt in
  let dp_freq =
    dp "dp_freq" ~n_ops:4
      ~ports:[ ("fout", Signal.reg_q f_r) ]
      ~extra_inputs:[ ("soft_in", sum_fmt) ]
      ~body:(fun b k ~use ->
        (match k with
        | 1 ->
          Sfg.Builder.assign b f_r
            (Signal.resize ~overflow:Fixed.Saturate sum_fmt
               Signal.(reg_q f_r +: (use "soft_in" -: reg_q prev)));
          Sfg.Builder.assign b prev (Signal.resize sum_fmt (use "soft_in"))
        | 2 -> Sfg.Builder.assign b fd_r (Signal.reg_q f_r)
        | 3 ->
          Sfg.Builder.assign b f_r (Signal.consti sum_fmt 0);
          Sfg.Builder.assign b prev (Signal.consti sum_fmt 0)
        | _ -> ());
        no_override)
  in
  (* dp_deint_{a,b}: 0 nop, 1 RST, 2 WR_SEQ, 3 RD_PERM, 4 HOLD3 *)
  let make_deint suffix =
    let i_r = Signal.Reg.create clk ("deint_i" ^ suffix) (u 5) in
    dp
      ("dp_deint_" ^ suffix)
      ~n_ops:5
      ~ports:
        [ ("d" ^ suffix ^ "_addr", Signal.reg_q i_r);
          ("d" ^ suffix ^ "_we", Signal.gnd) ]
      ~extra_inputs:[]
      ~body:(fun b k ~use ->
        ignore use;
        match k with
        | 1 ->
          Sfg.Builder.assign b i_r (Signal.consti (u 5) 0);
          no_override
        | 2 ->
          Sfg.Builder.assign_resized b i_r
            Signal.(reg_q i_r +: consti (u 5) 1);
          [ ("d" ^ suffix ^ "_we", Signal.vdd) ]
        | 3 ->
          [ ("d" ^ suffix ^ "_addr",
             Signal.resize (u 5) Signal.(reg_q i_r *: consti (u 5) 5)) ]
        | _ -> no_override)
  in
  let dp_deint_a = make_deint "a" in
  let dp_deint_b = make_deint "b" in
  (* dp_framer: 0 nop, 1 CLR, 2 PUSH, 3 EMIT, 4 SYNC_INS, 5 IDLE1,
     6 COUNT, 7 MARK2 *)
  let byte_r = Signal.Reg.create clk "fr_byte" byte_fmt in
  let bitcnt = Signal.Reg.create clk "fr_bitcnt" (u 3) in
  let bptr = Signal.Reg.create clk "fr_bptr" (u 5) in
  let fcnt = Signal.Reg.create clk "fr_cnt" byte_fmt in
  let frame_r = Signal.Reg.create clk "fr_frame" byte_fmt in
  let dp_framer =
    dp "dp_framer" ~n_ops:8
      ~ports:
        [ ("frame", Signal.reg_q frame_r);
          ("tx_addr", Signal.reg_q bptr);
          ("tx_wdata", Signal.reg_q byte_r);
          ("tx_we", Signal.gnd);
          ("rx_addr", Signal.reg_q bptr);
          ("rx_wdata", Signal.reg_q frame_r);
          ("rx_we", Signal.gnd) ]
      ~extra_inputs:[ ("bit_in", bit); ("da_in", bit); ("db_in", bit) ]
      ~body:(fun b k ~use ->
        match k with
        | 1 ->
          Sfg.Builder.assign b byte_r (Signal.consti byte_fmt 0);
          Sfg.Builder.assign b bitcnt (Signal.consti (u 3) 0);
          no_override
        | 2 ->
          let nb =
            Signal.(
              resize byte_fmt (shift_left (reg_q byte_r) 1) |: use "bit_in")
          in
          let full = Signal.(reg_q bitcnt ==: consti (u 3) 7) in
          Sfg.Builder.assign b byte_r nb;
          Sfg.Builder.assign_resized b bitcnt
            Signal.(reg_q bitcnt +: consti (u 3) 1);
          Sfg.Builder.assign b frame_r
            (Signal.mux2 full nb (Signal.reg_q frame_r));
          Sfg.Builder.assign b bptr
            (Signal.mux2 full
               (Signal.resize (u 5) Signal.(reg_q bptr +: consti (u 5) 1))
               (Signal.reg_q bptr));
          [ ("tx_we", full); ("tx_wdata", nb) ]
        | 3 ->
          Sfg.Builder.assign_resized b bptr
            Signal.(reg_q bptr +: consti (u 5) 1);
          Sfg.Builder.assign b frame_r (Signal.reg_q byte_r);
          [ ("tx_we", Signal.vdd) ]
        | 4 ->
          Sfg.Builder.assign b byte_r (Signal.consti byte_fmt 0xE9);
          no_override
        | 6 ->
          Sfg.Builder.assign_resized b fcnt
            Signal.(reg_q fcnt +: consti byte_fmt 1);
          no_override
        | 7 ->
          [ ("rx_we", Signal.vdd);
            ("rx_wdata", Signal.resize byte_fmt Signal.(use "da_in" +: use "db_in")) ]
        | _ -> no_override)
  in
  (* dp_ctl: 0 nop, 1 WR_MODE, 2 RD_STATUS, 3 SET_THR, 4 CLR_FLAGS,
     5 LATCH_ERR, 6 TOGGLE, 7 IDLE2 *)
  let mode = Signal.Reg.create clk "ctl_mode" byte_fmt in
  let status = Signal.Reg.create clk "ctl_status" byte_fmt in
  let thr = Signal.Reg.create clk "ctl_thr" byte_fmt in
  let flags = Signal.Reg.create clk "ctl_flags" byte_fmt in
  let err = Signal.Reg.create clk "ctl_err" bit in
  let tgl = Signal.Reg.create clk "ctl_tgl" bit in
  let dp_ctl =
    dp "dp_ctl" ~n_ops:8
      ~ports:
        [ ("status_out", Signal.reg_q status);
          ("ctl_addr", Signal.consti (u 4) 0);
          ("ctl_wdata", Signal.reg_q mode);
          ("ctl_we", Signal.gnd) ]
      ~extra_inputs:
        [ ("ext_in", byte_fmt); ("found_in", bit); ("creg_in", byte_fmt) ]
      ~body:(fun b k ~use ->
        (* Write data is always registered (captured on a previous
           WR_MODE/SET_THR) so the control-RAM write path stays free of
           combinational input dependencies — the compiled scheduler
           orders components, not ports. *)
        match k with
        | 1 ->
          Sfg.Builder.assign b mode (use "ext_in");
          [ ("ctl_we", Signal.vdd) ]
        | 2 ->
          Sfg.Builder.assign_resized b status
            Signal.(use "creg_in" +: use "found_in");
          no_override
        | 3 ->
          Sfg.Builder.assign b thr (use "ext_in");
          [ ("ctl_addr", Signal.consti (u 4) 1);
            ("ctl_we", Signal.vdd);
            ("ctl_wdata", Signal.reg_q thr) ]
        | 4 ->
          Sfg.Builder.assign b flags (Signal.consti byte_fmt 0);
          no_override
        | 5 ->
          Sfg.Builder.assign b err (use "found_in");
          no_override
        | 6 ->
          Sfg.Builder.assign b tgl (Signal.not_ (Signal.reg_q tgl));
          no_override
        | _ -> no_override)
  in
  (* dp_equ: the 57-instruction adaptation datapath.
     0 nop; 1..16 READ_k; 17..32 UPD_k; 33 WRB; 34..49 SET_MU_k;
     50 CLR; 51 DUMP; 52 SCALE; 53 SAT; 54 STEP; 55 SIGN; 56 IDLE3. *)
  let wb_r = Signal.Reg.create clk "equ_wb" adapt_fmt in
  let idx = Signal.Reg.create clk "equ_idx" (u 4) in
  let mu = Signal.Reg.create clk "equ_mu" (u 4) in
  let metric = Signal.Reg.create clk "equ_metric" adapt_fmt in
  let metric_dump = Signal.Reg.create clk "equ_mdump" adapt_fmt in
  let dp_equ =
    dp "dp_equ" ~n_ops:57
      ~ports:
        [ ("adapt", Signal.reg_q metric);
          ("e_addr", Signal.reg_q idx);
          ("e_wdata", Signal.reg_q wb_r);
          ("e_we", Signal.gnd) ]
      ~extra_inputs:[ ("erd_in", adapt_fmt); ("soft_in", sum_fmt) ]
      ~body:(fun b k ~use ->
        if k >= 1 && k <= 16 then begin
          let tap_i = k - 1 in
          Sfg.Builder.assign b idx (Signal.consti (u 4) tap_i);
          [ ("e_addr", Signal.consti (u 4) tap_i) ]
        end
        else if k >= 17 && k <= 32 then begin
          let shift = 2 + ((k - 17) mod 4) in
          Sfg.Builder.assign b wb_r
            (Signal.resize ~overflow:Fixed.Saturate adapt_fmt
               Signal.(use "erd_in" +: shift_right (use "soft_in") shift));
          Sfg.Builder.assign b metric
            (Signal.resize ~overflow:Fixed.Saturate adapt_fmt
               Signal.(reg_q metric +: abs_ (use "erd_in")));
          no_override
        end
        else if k = 33 then [ ("e_we", Signal.vdd) ]
        else if k >= 34 && k <= 49 then begin
          Sfg.Builder.assign b mu (Signal.consti (u 4) (k - 34));
          no_override
        end
        else begin
          (match k with
          | 50 -> Sfg.Builder.assign b metric (Signal.consti adapt_fmt 0)
          | 51 -> Sfg.Builder.assign b metric_dump (Signal.reg_q metric)
          | 52 ->
            Sfg.Builder.assign_resized b metric
              (Signal.shift_right (Signal.reg_q metric) 1)
          | 53 ->
            Sfg.Builder.assign b metric
              (Signal.resize ~overflow:Fixed.Saturate adapt_fmt
                 Signal.(reg_q metric +: reg_q metric))
          | 54 ->
            Sfg.Builder.assign b metric
              (Signal.resize ~overflow:Fixed.Saturate adapt_fmt
                 Signal.(reg_q metric +: constf adapt_fmt 0.125))
          | 55 ->
            Sfg.Builder.assign b metric
              (Signal.resize ~overflow:Fixed.Saturate adapt_fmt
                 (Signal.neg (Signal.reg_q metric)))
          | _ -> ());
          no_override
        end)
  in
  (* dp_mon: 0 nop, 1 SNAP, 2 CLRM *)
  let snap = Signal.Reg.create clk "mon_snap" byte_fmt in
  let dp_mon =
    dp "dp_mon" ~n_ops:3
      ~ports:[ ("mon", Signal.reg_q snap) ]
      ~extra_inputs:[ ("tx_in", byte_fmt); ("rx_in", byte_fmt) ]
      ~body:(fun b k ~use ->
        (match k with
        | 1 ->
          Sfg.Builder.assign_resized b snap
            Signal.(use "tx_in" ^: use "rx_in")
        | 2 -> Sfg.Builder.assign b snap (Signal.consti byte_fmt 0)
        | _ -> ());
        no_override)
  in
  (* -- RAM cells (7, untimed) -- *)
  let ram base ~words ~data_fmt ~addr_fmt =
    Cycle_system.add_untimed sys
      (Ram_cell.kernel ~name:(ram_name base) ~words ~data_fmt ~addr_fmt)
  in
  let ram_samples = ram "ram_samples" ~words:64 ~data_fmt:x_fmt ~addr_fmt:(u 6) in
  let ram_deint_a = ram "ram_deint_a" ~words:32 ~data_fmt:bit ~addr_fmt:(u 5) in
  let ram_deint_b = ram "ram_deint_b" ~words:32 ~data_fmt:bit ~addr_fmt:(u 5) in
  let ram_tx = ram "ram_tx" ~words:32 ~data_fmt:byte_fmt ~addr_fmt:(u 5) in
  let ram_rx = ram "ram_rx" ~words:32 ~data_fmt:byte_fmt ~addr_fmt:(u 5) in
  let ram_ctl = ram "ram_ctl" ~words:16 ~data_fmt:byte_fmt ~addr_fmt:(u 4) in
  let ram_adapt = ram "ram_adapt" ~words:16 ~data_fmt:adapt_fmt ~addr_fmt:(u 4) in
  (* -- components and interconnect -- *)
  let add = Cycle_system.add_timed sys in
  let c_vliw = add "vliw_ctl" vliw in
  let c_pc = add "pc_ctl" pc_fsm in
  let c_adc = add "dp_adc" dp_adc in
  let c_dc = add "dp_dc" dp_dc in
  let c_agc = add "dp_agc" dp_agc in
  let c_gain = add "dp_gain" dp_gain in
  let c_mem = add "dp_mem" dp_mem in
  let c_mac = Array.mapi (fun m f -> add (Printf.sprintf "dp_mac%d" m) f) dp_mac in
  let c_sum = add "dp_sum" dp_sum in
  let c_slice = add "dp_slice" dp_slice in
  let c_corr = add "dp_corr" dp_corr in
  let c_crc = add "dp_crc" dp_crc in
  let c_scram = add "dp_scram" dp_scram in
  let c_timing = add "dp_timing" dp_timing in
  let c_freq = add "dp_freq" dp_freq in
  let c_deint_a = add "dp_deint_a" dp_deint_a in
  let c_deint_b = add "dp_deint_b" dp_deint_b in
  let c_framer = add "dp_framer" dp_framer in
  let c_ctl = add "dp_ctl" dp_ctl in
  let c_equ = add "dp_equ" dp_equ in
  let c_mon = add "dp_mon" dp_mon in
  let in_sample = Cycle_system.add_input sys "sample_in" sample_format stimulus in
  let in_hold =
    Cycle_system.add_input sys "hold_request" bit (fun c ->
        Some (Fixed.of_bool (hold c)))
  in
  let in_ctl =
    Cycle_system.add_input sys "ctl_in" byte_fmt (fun c ->
        Some (Fixed.of_int byte_fmt (ctl c land 0xff)))
  in
  let probes =
    [ "soft_out"; "bit_out"; "corr_out"; "found_out"; "crc_probe";
      "scram_out"; "frame_probe"; "status_probe"; "agc_probe"; "timing_probe";
      "freq_probe"; "adapt_probe"; "mon_probe"; "pc_probe" ]
  in
  let probe_comp = List.map (fun p -> (p, Cycle_system.add_output sys p)) probes in
  let pr p = (List.assoc p probe_comp, "in") in
  let cn src sinks = ignore (Cycle_system.connect sys src sinks) in
  (* Instruction buses: every datapath listens to its bank. *)
  let all_dps =
    [ ("dp_adc", c_adc); ("dp_dc", c_dc); ("dp_agc", c_agc);
      ("dp_gain", c_gain); ("dp_mem", c_mem); ("dp_mac0", c_mac.(0));
      ("dp_mac1", c_mac.(1)); ("dp_mac2", c_mac.(2)); ("dp_mac3", c_mac.(3));
      ("dp_sum", c_sum); ("dp_slice", c_slice); ("dp_corr", c_corr);
      ("dp_crc", c_crc); ("dp_scram", c_scram); ("dp_timing", c_timing);
      ("dp_freq", c_freq); ("dp_deint_a", c_deint_a);
      ("dp_deint_b", c_deint_b); ("dp_framer", c_framer); ("dp_ctl", c_ctl);
      ("dp_equ", c_equ); ("dp_mon", c_mon) ]
  in
  for b = 0 to n_banks - 1 do
    let sinks =
      List.filter_map
        (fun (name, comp) ->
          let f = Hashtbl.find field_layout name in
          if f.f_bank = b then Some (comp, "instr") else None)
        all_dps
    in
    cn (c_vliw, Printf.sprintf "bank%d" b) sinks
  done;
  cn (c_vliw, "pc_cmd") [ (c_pc, "cmd") ];
  cn (c_pc, "pc_out") [ (c_vliw, "pc_in"); pr "pc_probe" ];
  cn (c_pc, "hold_pc_out") [ (c_vliw, "hold_pc_in") ];
  cn (in_hold, "out") [ (c_vliw, "hold_in") ];
  cn (in_sample, "out") [ (c_adc, "sample") ];
  cn (in_ctl, "out") [ (c_ctl, "ext_in") ];
  (* Receive chain. *)
  cn (c_adc, "s") [ (c_dc, "s_in") ];
  cn (c_dc, "y") [ (c_gain, "y_in"); (c_agc, "y_in") ];
  cn (c_gain, "x") [ (ram_samples, "wdata") ];
  cn (c_mem, "addr") [ (ram_samples, "addr") ];
  cn (c_mem, "we") [ (ram_samples, "we") ];
  cn (ram_samples, "rdata")
    [ (c_mac.(0), "rdata"); (c_mac.(1), "rdata"); (c_mac.(2), "rdata");
      (c_mac.(3), "rdata") ];
  cn (c_mac.(0), "out") [ (c_sum, "m0") ];
  cn (c_mac.(1), "out") [ (c_sum, "m1") ];
  cn (c_mac.(2), "out") [ (c_sum, "m2") ];
  cn (c_mac.(3), "out") [ (c_sum, "m3") ];
  cn (c_sum, "soft")
    [ (c_slice, "soft_in"); (c_timing, "soft_in"); (c_freq, "soft_in");
      (c_equ, "soft_in"); pr "soft_out" ];
  cn (c_slice, "bit")
    [ (c_corr, "bit_in"); (c_crc, "bit_in"); (c_scram, "bit_in");
      (c_framer, "bit_in"); (ram_deint_a, "wdata"); (ram_deint_b, "wdata");
      pr "bit_out" ];
  cn (c_corr, "corr") [ pr "corr_out" ];
  cn (c_corr, "found") [ (c_ctl, "found_in"); pr "found_out" ];
  cn (c_crc, "crc_out") [ pr "crc_probe" ];
  cn (c_scram, "sbit") [ pr "scram_out" ];
  cn (c_timing, "terr") [ pr "timing_probe" ];
  cn (c_freq, "fout") [ pr "freq_probe" ];
  cn (c_agc, "agc") [ pr "agc_probe" ];
  (* Deinterleaver ping-pong RAMs. *)
  cn (c_deint_a, "da_addr") [ (ram_deint_a, "addr") ];
  cn (c_deint_a, "da_we") [ (ram_deint_a, "we") ];
  cn (c_deint_b, "db_addr") [ (ram_deint_b, "addr") ];
  cn (c_deint_b, "db_we") [ (ram_deint_b, "we") ];
  cn (ram_deint_a, "rdata") [ (c_framer, "da_in") ];
  cn (ram_deint_b, "rdata") [ (c_framer, "db_in") ];
  (* Wire-link buffers. *)
  cn (c_framer, "tx_addr") [ (ram_tx, "addr") ];
  cn (c_framer, "tx_wdata") [ (ram_tx, "wdata") ];
  cn (c_framer, "tx_we") [ (ram_tx, "we") ];
  cn (c_framer, "rx_addr") [ (ram_rx, "addr") ];
  cn (c_framer, "rx_wdata") [ (ram_rx, "wdata") ];
  cn (c_framer, "rx_we") [ (ram_rx, "we") ];
  cn (c_framer, "frame") [ pr "frame_probe" ];
  cn (ram_tx, "rdata") [ (c_mon, "tx_in") ];
  cn (ram_rx, "rdata") [ (c_mon, "rx_in") ];
  cn (c_mon, "mon") [ pr "mon_probe" ];
  (* Control interface. *)
  cn (c_ctl, "ctl_addr") [ (ram_ctl, "addr") ];
  cn (c_ctl, "ctl_wdata") [ (ram_ctl, "wdata") ];
  cn (c_ctl, "ctl_we") [ (ram_ctl, "we") ];
  cn (ram_ctl, "rdata") [ (c_ctl, "creg_in") ];
  cn (c_ctl, "status_out") [ pr "status_probe" ];
  (* Adaptation store. *)
  cn (c_equ, "e_addr") [ (ram_adapt, "addr") ];
  cn (c_equ, "e_wdata") [ (ram_adapt, "wdata") ];
  cn (c_equ, "e_we") [ (ram_adapt, "we") ];
  cn (ram_adapt, "rdata") [ (c_equ, "erd_in") ];
  cn (c_equ, "adapt") [ pr "adapt_probe" ];
  {
    system = sys;
    probes;
    program_length;
    loop_length;
    instruction_counts = datapath_table;
    ram_names =
      List.map ram_name
        [ "ram_samples"; "ram_deint_a"; "ram_deint_b"; "ram_tx"; "ram_rx";
          "ram_ctl"; "ram_adapt" ];
  }

(* --- golden model -------------------------------------------------------- *)

type golden = {
  g_soft : Fixed.t array;
  g_bits : bool array;
  g_crc : int array;
}

let golden_reference samples ~symbols =
  let sample_at c =
    if c < Array.length samples then samples.(c) else Fixed.zero sample_format
  in
  let est = ref (Fixed.zero est_fmt) in
  let hist = Array.make 64 (Fixed.zero x_fmt) in
  let g_soft = Array.make symbols (Fixed.zero sum_fmt) in
  let g_bits = Array.make symbols false in
  let g_crc = Array.make symbols 0 in
  let crc = ref 0 in
  let crc_step b =
    let fb = (!crc lsr 15) land 1 <> 0 <> b in
    crc := (!crc lsl 1) land 0xffff;
    if fb then crc := !crc lxor 0x1021
  in
  (* Pipeline fill: the first pass's loop 0 slices the still-zero sum
     register (a 1 bit) before any real symbol reaches the CRC. *)
  crc_step true;
  for n = 0 to symbols - 1 do
    (* The microprogram re-executes its coverage ops on every pass:
       dc.RESET before the TRACK of symbols n = 0 mod 16, and crc.INIT
       before the update that processes bit (16p - 1). *)
    if n mod loops = 0 then est := Fixed.zero est_fmt;
    (* LATCH at cycle 20n+1; TRACK at 20n+2. *)
    let s = sample_at ((loop_length * n) + 1) in
    let diff = Fixed.sub s !est in
    let est' =
      Fixed.resize est_fmt (Fixed.add !est (Fixed.shift_right diff 5))
    in
    let y = Fixed.resize ~overflow:Fixed.Saturate x_fmt diff in
    est := est';
    (* APPLY, WRITE. *)
    let x = Fixed.resize x_fmt y in
    hist.(n mod 64) <- x;
    (* Four MACs, four taps each; the tap sample for tap j is x[n-j]
       (RAM zeros before the stream started). *)
    let mac_out m =
      let acc = ref (Fixed.zero acc_fmt) in
      for j = 0 to 3 do
        let tap_index = (4 * m) + j in
        let xi =
          if n - tap_index < 0 then Fixed.zero x_fmt
          else hist.((n - tap_index) mod 64)
        in
        acc :=
          Fixed.resize acc_fmt
            (Fixed.add !acc (Fixed.mul xi equalizer_coefficients.(tap_index)))
      done;
      Fixed.resize ~overflow:Fixed.Saturate mac_out_fmt !acc
    in
    let m0 = mac_out 0 and m1 = mac_out 1 and m2 = mac_out 2 and m3 = mac_out 3 in
    let soft =
      Fixed.resize ~overflow:Fixed.Saturate sum_fmt
        (Fixed.add (Fixed.add m0 m1) (Fixed.add m2 m3))
    in
    g_soft.(n) <- soft;
    let b = Fixed.compare_value soft (Fixed.zero sum_fmt) >= 0 in
    g_bits.(n) <- b;
    (* CRC update, one step per sliced bit; the pass-start INIT lands
       just before the update of the pass's first processed bit. *)
    if (n + 1) mod loops = 0 then crc := 0;
    crc_step b;
    g_crc.(n) <- !crc
  done;
  { g_soft; g_bits; g_crc }

let source_lines () = Src_lines.dect
