let sym_fmt = Fixed.unsigned ~width:4 ~frac:0

type t = { system : Cycle_system.t; probes : string list; n : int; k : int }

(* GF(16) arithmetic, primitive polynomial x^4 + x + 1 (0x13), alpha = 2.
   Computed at capture time in OCaml — the hardware only ever sees the
   resulting constant-multiply lookup tables. *)
let gf_mul a b =
  let rec go acc a b =
    if b = 0 then acc
    else
      let acc = if b land 1 <> 0 then acc lxor a else acc in
      let a =
        let a = a lsl 1 in
        if a land 0x10 <> 0 then a lxor 0x13 else a
      in
      go acc a (b lsr 1)
  in
  go 0 a b

let gf_pow a e =
  let rec go acc e = if e = 0 then acc else go (gf_mul acc a) (e - 1) in
  go 1 e

(* Generator polynomial g(x) = prod_{j=1..2t} (x + alpha^j), returned as
   the coefficient array g.(i) of x^i; g.(2t) = 1 (monic). *)
let gen_poly t =
  let g = ref [| 1 |] in
  for j = 1 to 2 * t do
    let root = gf_pow 2 j in
    let old = !g in
    let d = Array.length old in
    let ng =
      Array.init (d + 1) (fun i ->
          let shifted = if i > 0 then old.(i - 1) else 0 in
          let scaled = if i < d then gf_mul root old.(i) else 0 in
          shifted lxor scaled)
    in
    g := ng
  done;
  !g

let mul_table name c =
  Signal.Rom.create name sym_fmt
    (Array.init 16 (fun x -> Fixed.of_int sym_fmt (gf_mul c x)))

let create ?(k = 11) ?(t = 2) ~data_stimulus ~err_stimulus () =
  if t < 1 || t > 3 then
    invalid_arg (Printf.sprintf "Rs_codec.create: t %d out of range [1, 3]" t);
  let n = k + (2 * t) in
  if k < 1 || n > 15 then
    invalid_arg
      (Printf.sprintf "Rs_codec.create: k %d gives block length %d > 15" k n);
  let clk = Clock.default in
  let bit = Fixed.bit_format in
  let cnt_fmt = Fixed.unsigned ~width:4 ~frac:0 in
  let g = gen_poly t in
  let np = 2 * t in
  (* --- Encoder: systematic LFSR over the generator polynomial. ------ *)
  let p =
    Array.init np (fun i ->
        Signal.Reg.create clk (Printf.sprintf "p%d" i) sym_fmt)
  in
  let cnt = Signal.Reg.create clk "ecnt" cnt_fmt in
  let to_par = Signal.Reg.create clk "to_par" bit in
  let to_data = Signal.Reg.create clk "to_data" bit in
  let g_rom =
    Array.init np (fun j -> mul_table (Printf.sprintf "g%d" j) g.(j))
  in
  let data_port = Signal.Input.create "data" sym_fmt in
  let data = Signal.input data_port in
  let cnt_q = Signal.reg_q cnt in
  let cnt_next =
    Signal.mux2
      (Signal.eq cnt_q (Signal.consti cnt_fmt (n - 1)))
      (Signal.consti cnt_fmt 0)
      (Signal.resize cnt_fmt (Signal.add cnt_q (Signal.consti cnt_fmt 1)))
  in
  let common b =
    ignore (Sfg.Builder.input_port b data_port);
    Sfg.Builder.assign b cnt cnt_next
  in
  let sfg_data =
    Sfg.build "enc_data" (fun b ->
        common b;
        (* Feedback shortens the LFSR recurrence to table lookups:
           p.(j) <- p.(j-1) xor g_j * fb, p.(0) <- g_0 * fb. *)
        let fb = Signal.xor_ data (Signal.reg_q p.(np - 1)) in
        Array.iteri
          (fun j reg ->
            let scaled = Signal.rom g_rom.(j) fb in
            let v =
              if j = 0 then scaled
              else Signal.xor_ (Signal.reg_q p.(j - 1)) scaled
            in
            Sfg.Builder.assign b reg v)
          p;
        Sfg.Builder.output b "sym" data;
        Sfg.Builder.assign b to_par
          (Signal.eq cnt_q (Signal.consti cnt_fmt (k - 1)));
        Sfg.Builder.assign b to_data Signal.gnd)
  in
  let sfg_par =
    Sfg.build "enc_par" (fun b ->
        common b;
        (* Shift the parity symbols out, highest degree first. *)
        Array.iteri
          (fun j reg ->
            let v =
              if j = 0 then Signal.consti sym_fmt 0
              else Signal.reg_q p.(j - 1)
            in
            Sfg.Builder.assign b reg v)
          p;
        Sfg.Builder.output b "sym" (Signal.reg_q p.(np - 1));
        Sfg.Builder.assign b to_par Signal.gnd;
        Sfg.Builder.assign b to_data
          (Signal.eq cnt_q (Signal.consti cnt_fmt (n - 1))))
  in
  let enc = Fsm.create "rs_enc" in
  let s_data = Fsm.initial enc "data" in
  let s_par = Fsm.state enc "parity" in
  Fsm.(s_data |-- cnd (Signal.reg_q to_par) |+ sfg_par |-> s_par);
  Fsm.(s_data |-- always |+ sfg_data |-> s_data);
  Fsm.(s_par |-- cnd (Signal.reg_q to_data) |+ sfg_data |-> s_data);
  Fsm.(s_par |-- always |+ sfg_par |-> s_par);
  (* --- Decoder front end: Horner syndrome evaluation. --------------- *)
  let s =
    Array.init np (fun j ->
        Signal.Reg.create clk (Printf.sprintf "s%d" (j + 1)) sym_fmt)
  in
  let dcnt = Signal.Reg.create clk "dcnt" cnt_fmt in
  let serr_r = Signal.Reg.create clk "serr" bit in
  let a_rom =
    Array.init np (fun j ->
        mul_table (Printf.sprintf "a%d" (j + 1)) (gf_pow 2 (j + 1)))
  in
  let sfg_dec =
    Sfg.build "dec" (fun b ->
        let sym = Sfg.Builder.input b "sym" sym_fmt in
        let err = Sfg.Builder.input b "err" sym_fmt in
        let rx = Signal.xor_ sym err in
        let dcnt_q = Signal.reg_q dcnt in
        let last = Signal.eq dcnt_q (Signal.consti cnt_fmt (n - 1)) in
        Sfg.Builder.assign b dcnt
          (Signal.mux2 last
             (Signal.consti cnt_fmt 0)
             (Signal.resize cnt_fmt
                (Signal.add dcnt_q (Signal.consti cnt_fmt 1))));
        (* S_j <- alpha^j * S_j + r, restarted at each block boundary. *)
        let upd =
          Array.mapi
            (fun j reg ->
              Signal.xor_ (Signal.rom a_rom.(j) (Signal.reg_q reg)) rx)
            s
        in
        Array.iteri
          (fun j reg ->
            Sfg.Builder.assign b reg
              (Signal.mux2 last (Signal.consti sym_fmt 0) upd.(j)))
          s;
        let nz =
          Array.fold_left
            (fun acc u -> Signal.or_ acc (Signal.ne u (Signal.consti sym_fmt 0)))
            Signal.gnd upd
        in
        (* serr latches at the block boundary and holds through the next
           block, so a probe sees one flag per codeword. *)
        Sfg.Builder.assign b serr_r
          (Signal.mux2 last nz (Signal.reg_q serr_r));
        Sfg.Builder.output b "serr" (Signal.reg_q serr_r);
        Sfg.Builder.output b "syn1" (Signal.reg_q s.(0));
        Sfg.Builder.output b "rx" rx)
  in
  let dec = Fsm.create "rs_dec" in
  let s_run = Fsm.initial dec "run" in
  Fsm.(s_run |-- always |+ sfg_dec |-> s_run);
  (* --- System wiring. ----------------------------------------------- *)
  let system = Cycle_system.create "rs" in
  let enc_c = Cycle_system.add_timed system "enc" enc in
  let dec_c = Cycle_system.add_timed system "dec" dec in
  let data_c = Cycle_system.add_input system "data_in" sym_fmt data_stimulus in
  let err_c = Cycle_system.add_input system "err_in" sym_fmt err_stimulus in
  let probes = [ "sym"; "rx"; "syn1"; "serr" ] in
  let probe_comps =
    List.map (fun pr -> (pr, Cycle_system.add_output system pr)) probes
  in
  ignore (Cycle_system.connect system (data_c, "out") [ (enc_c, "data") ]);
  ignore (Cycle_system.connect system (err_c, "out") [ (dec_c, "err") ]);
  ignore
    (Cycle_system.connect system (enc_c, "sym")
       [ (dec_c, "sym"); (List.assoc "sym" probe_comps, "in") ]);
  List.iter
    (fun (pr, pc) ->
      if pr <> "sym" then
        ignore (Cycle_system.connect system (dec_c, pr) [ (pc, "in") ]))
    probe_comps;
  { system; probes; n; k }

let data_stimulus ?(seed = 11) () =
  fun cycle ->
    let rs = Random.State.make [| 0x25c; seed; cycle |] in
    Some (Fixed.of_int sym_fmt (Random.State.int rs 16))

let err_stimulus ?(period = 45) ?(offset = 7) () =
  fun cycle ->
    let v = if period > 0 && cycle mod period = offset then 9 else 0 in
    Some (Fixed.of_int sym_fmt v)

let source_lines () = Src_lines.rs
