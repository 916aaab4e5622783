let word_fmt = Fixed.unsigned ~width:8 ~frac:0
let pc_fmt = Fixed.unsigned ~width:4 ~frac:0

type t = { system : Cycle_system.t; probes : string list }

(* Opcodes.  The ISA is deliberately mux-decodable: no instruction
   touches more than the accumulator, the program counter and one data
   RAM port. *)
let op_nop = 0
let op_ldi = 1
let op_add = 2
let op_sub = 3
let op_xor = 4
let op_ld = 5
let op_st = 6
let op_jmp = 7
let op_jnz = 8
let op_out = 9
let op_halt = 10
let op_chk = 11
let op_adm = 12
let op_in = 13

let max_op = op_in
let rom_slots = 16
let ram_words = 8

(* Sum 1..5 into mem[7] via the classic count-down loop, then assert
   the result: a self-checking workload covering LDI/ST/LD/ADM/SUB/JNZ/
   CHK/OUT/HALT and both RAM ports. *)
let default_program =
  [|
    (op_ldi, 0);
    (op_st, 7);
    (* sum = 0 *)
    (op_ldi, 5);
    (op_st, 6);
    (* i = 5 *)
    (op_ld, 6);
    (* loop: acc = i *)
    (op_adm, 7);
    (op_st, 7);
    (* sum += i *)
    (op_ld, 6);
    (op_sub, 1);
    (op_st, 6);
    (* i -= 1 *)
    (op_jnz, 4);
    (* while i <> 0 *)
    (op_ld, 7);
    (op_chk, 15);
    (* ok = (sum == 15) *)
    (op_out, 0);
    (op_halt, 0);
  |]

let create ?(program = default_program) ~io_stimulus () =
  let len = Array.length program in
  if len < 1 || len > rom_slots then
    invalid_arg
      (Printf.sprintf "Acc_cpu.create: program length %d out of range [1, %d]"
         len rom_slots);
  Array.iteri
    (fun i (op, arg) ->
      if op < 0 || op > max_op then
        invalid_arg (Printf.sprintf "Acc_cpu.create: bad opcode %d at %d" op i);
      if arg < 0 || arg > 255 then
        invalid_arg
          (Printf.sprintf "Acc_cpu.create: argument %d at %d exceeds u8" arg i))
    program;
  let slot i = if i < len then program.(i) else (op_halt, 0) in
  let clk = Clock.default in
  let bit = Fixed.bit_format in
  let op_fmt = Fixed.unsigned ~width:4 ~frac:0 in
  (* Two ROM banks indexed by the program counter — the DECT microcode
     idiom, which keeps the fetch path free of bit slicing. *)
  let op_rom =
    Signal.Rom.create "op_rom" op_fmt
      (Array.init rom_slots (fun i -> Fixed.of_int op_fmt (fst (slot i))))
  in
  let arg_rom =
    Signal.Rom.create "arg_rom" word_fmt
      (Array.init rom_slots (fun i -> Fixed.of_int word_fmt (snd (slot i))))
  in
  let pc = Signal.Reg.create clk "pc" pc_fmt in
  let acc = Signal.Reg.create clk "acc" word_fmt in
  let out_r = Signal.Reg.create clk "out_r" word_fmt in
  let ok_r = Signal.Reg.create clk "ok_r" bit in
  let halt_r = Signal.Reg.create clk "halt_r" bit in
  let sfg =
    Sfg.build "exec" (fun b ->
        let rdata = Sfg.Builder.input b "rdata" word_fmt in
        let io = Sfg.Builder.input b "io" word_fmt in
        let pc_q = Signal.reg_q pc in
        let acc_q = Signal.reg_q acc in
        let halted = Signal.reg_q halt_r in
        let op = Signal.rom op_rom pc_q in
        let arg = Signal.rom arg_rom pc_q in
        let is o = Signal.eq op (Signal.consti op_fmt o) in
        let wrap e = Signal.resize word_fmt e in
        (* Accumulator network: one mux arm per writing opcode. *)
        let acc_next =
          List.fold_left
            (fun tail (o, v) -> Signal.mux2 (is o) v tail)
            acc_q
            [
              (op_ldi, arg);
              (op_add, wrap (Signal.add acc_q arg));
              (op_sub, wrap (Signal.sub acc_q arg));
              (op_xor, Signal.xor_ acc_q arg);
              (op_ld, rdata);
              (op_adm, wrap (Signal.add acc_q rdata));
              (op_in, io);
            ]
        in
        let pc_inc =
          Signal.resize pc_fmt (Signal.add pc_q (Signal.consti pc_fmt 1))
        in
        let arg_pc = Signal.resize pc_fmt arg in
        let taken =
          Signal.or_ (is op_jmp)
            (Signal.and_ (is op_jnz)
               (Signal.ne acc_q (Signal.consti word_fmt 0)))
        in
        let pc_next =
          Signal.mux2
            (Signal.or_ halted (is op_halt))
            pc_q
            (Signal.mux2 taken arg_pc pc_inc)
        in
        let active e hold = Signal.mux2 halted hold e in
        Sfg.Builder.assign b pc pc_next;
        Sfg.Builder.assign b acc (active acc_next acc_q);
        Sfg.Builder.assign b out_r
          (active (Signal.mux2 (is op_out) acc_q (Signal.reg_q out_r))
             (Signal.reg_q out_r));
        Sfg.Builder.assign b ok_r
          (active
             (Signal.mux2 (is op_chk)
                (Signal.eq acc_q arg)
                (Signal.reg_q ok_r))
             (Signal.reg_q ok_r));
        Sfg.Builder.assign b halt_r (Signal.or_ halted (is op_halt));
        (* RAM command ports read registers and ROM-of-register only, so
           the scheduler can produce them in the token-production phase
           and close the timed/untimed loop without deadlock. *)
        Sfg.Builder.output b "addr"
          (Signal.resize (Fixed.unsigned ~width:3 ~frac:0) arg);
        Sfg.Builder.output b "wdata" acc_q;
        Sfg.Builder.output b "we"
          (Signal.and_ (is op_st) (Signal.not_ halted));
        Sfg.Builder.output b "out" (Signal.reg_q out_r);
        Sfg.Builder.output b "ok" (Signal.reg_q ok_r);
        Sfg.Builder.output b "pc" pc_q;
        Sfg.Builder.output b "acc" acc_q)
  in
  let fsm = Fsm.create "cpu_ctl" in
  let s_run = Fsm.initial fsm "run" in
  Fsm.(s_run |-- always |+ sfg |-> s_run);
  let system = Cycle_system.create "cpu" in
  let core = Cycle_system.add_timed system "core" fsm in
  let ram =
    Cycle_system.add_untimed system
      (Ram_cell.kernel ~name:"cpu_ram" ~words:ram_words ~data_fmt:word_fmt
         ~addr_fmt:(Fixed.unsigned ~width:3 ~frac:0))
  in
  let io_c = Cycle_system.add_input system "io_in" word_fmt io_stimulus in
  let probes = [ "out"; "ok"; "pc"; "acc" ] in
  let probe_comps =
    List.map (fun pr -> (pr, Cycle_system.add_output system pr)) probes
  in
  ignore (Cycle_system.connect system (core, "addr") [ (ram, "addr") ]);
  ignore (Cycle_system.connect system (core, "wdata") [ (ram, "wdata") ]);
  ignore (Cycle_system.connect system (core, "we") [ (ram, "we") ]);
  ignore (Cycle_system.connect system (ram, "rdata") [ (core, "rdata") ]);
  ignore (Cycle_system.connect system (io_c, "out") [ (core, "io") ]);
  List.iter
    (fun (pr, pc) ->
      ignore (Cycle_system.connect system (core, pr) [ (pc, "in") ]))
    probe_comps;
  { system; probes }

let io_stimulus ?(seed = 3) () =
  fun cycle ->
    let rs = Random.State.make [| 0x10c; seed; cycle |] in
    Some (Fixed.of_int word_fmt (Random.State.int rs 256))

(* The default program halts after its 5-iteration loop: 4 setup, 5 * 7
   loop body, 3 epilogue, then HALT.  64 cycles is comfortably past it. *)
let check_cycles = 64

let source_lines () = Src_lines.cpu
