(* Exhaustive small-width verification: for every format up to 5 bits,
   every operand value and every resize mode, the three value
   representations agree — Fixed (quantized int64), Bitvector (naive
   bits) and Wordgen+Netlist (gates).  This is the strongest statement
   the reproduction makes about its arithmetic core. *)

let formats =
  List.concat_map
    (fun signedness ->
      List.concat_map
        (fun width ->
          List.map
            (fun frac -> Fixed.format signedness ~width ~frac)
            [ -1; 0; 2 ])
        [ 1; 2; 3; 4; 5 ])
    [ Fixed.Signed; Fixed.Unsigned ]

let all_values fmt =
  let lo = Int64.to_int (Fixed.min_mantissa fmt) in
  let hi = Int64.to_int (Fixed.max_mantissa fmt) in
  List.init (hi - lo + 1) (fun i -> Fixed.create fmt (Int64.of_int (lo + i)))

(* Fixed vs Bitvector, all pairs of all small formats (bounded subset of
   format pairs to keep runtime sane). *)
let test_fixed_vs_bitvector_binops () =
  let pairs =
    [ (List.nth formats 0, List.nth formats 3);
      (List.nth formats 4, List.nth formats 19);
      (List.nth formats 7, List.nth formats 7);
      (List.nth formats 10, List.nth formats 22);
      (List.nth formats 13, List.nth formats 28) ]
  in
  List.iter
    (fun (fa, fb) ->
      List.iter
        (fun a ->
          List.iter
            (fun b ->
              let check name fop bop =
                match fop a b with
                | exception e when Raises.code Internal e -> ()
                | expect ->
                  let got =
                    Bitvector.to_fixed
                      (bop (Bitvector.of_fixed a) (Bitvector.of_fixed b))
                  in
                  if not (Fixed.equal expect got) then
                    Alcotest.failf "%s(%s, %s): %s vs %s" name
                      (Fixed.to_string a) (Fixed.to_string b)
                      (Fixed.to_string expect) (Fixed.to_string got)
              in
              check "add" Fixed.add Bitvector.add;
              check "sub" Fixed.sub Bitvector.sub;
              check "mul" Fixed.mul Bitvector.mul;
              check "and" Fixed.logand Bitvector.logand;
              check "xor" Fixed.logxor Bitvector.logxor;
              check "eq" Fixed.eq Bitvector.eq;
              check "lt" Fixed.lt Bitvector.lt)
            (all_values fb))
        (all_values fa))
    pairs

(* Exhaustive resize: all values of a handful of source formats into all
   small destination formats under every rounding/overflow mode. *)
let test_exhaustive_resize () =
  let sources =
    [ Fixed.signed ~width:4 ~frac:2; Fixed.unsigned ~width:4 ~frac:0;
      Fixed.signed ~width:5 ~frac:(-1) ]
  in
  List.iter
    (fun src ->
      List.iter
        (fun dst ->
          List.iter
            (fun v ->
              List.iter
                (fun round ->
                  List.iter
                    (fun overflow ->
                      match Fixed.resize ~round ~overflow dst v with
                      | exception _ -> ()
                      | expect ->
                        let got =
                          Bitvector.to_fixed
                            (Bitvector.resize ~round ~overflow dst
                               (Bitvector.of_fixed v))
                        in
                        if not (Fixed.equal expect got) then
                          Alcotest.failf "resize %s %s->%s"
                            (Fixed.to_string v)
                            (Fixed.format_to_string src)
                            (Fixed.format_to_string dst))
                    [ Fixed.Wrap; Fixed.Saturate ])
                [ Fixed.Truncate; Fixed.Round_nearest; Fixed.Round_even ])
            (all_values src))
        formats)
    sources

(* --- every operator on every engine ------------------------------------- *)

(* Every format of up to 4 bits, both signednesses, fraction -1, 0 and
   2.  Resizes also start from sources 63 and 70 fraction bits deep,
   which drop more than 62 bits. *)
let small_formats =
  List.concat_map
    (fun signedness ->
      List.concat_map
        (fun width ->
          List.map (fun frac -> Fixed.format signedness ~width ~frac) [ -1; 0; 2 ])
        [ 1; 2; 3; 4 ])
    [ Fixed.Signed; Fixed.Unsigned ]

let deep_sources =
  List.concat_map
    (fun signedness ->
      List.concat_map
        (fun width ->
          List.map (fun frac -> Fixed.format signedness ~width ~frac) [ 63; 70 ])
        [ 1; 2; 3; 4 ])
    [ Fixed.Signed; Fixed.Unsigned ]

(* The formats of the two narrower cases below, swept here on every
   engine too: a resize from s5.3 and s4.1 against u3.2. *)
let s5_3 = Fixed.signed ~width:5 ~frac:3
let s5_3_targets =
  [ Fixed.signed ~width:3 ~frac:1; Fixed.unsigned ~width:4 ~frac:0; Fixed.signed ~width:6 ~frac:5 ]
let s4_1 = Fixed.signed ~width:4 ~frac:1
let u3_2 = Fixed.unsigned ~width:3 ~frac:2

let cycles = 256

(* An operand of a row.  [X f] takes the low bits of the cycle number
   as its mantissa and [Y f] those of the cycle number's high nibble, so
   256 cycles meet every pair of values of any two formats of up to 4
   bits, and every value of an [X] of up to 8.  [S b] is a select, 1 on
   odd cycles when [b]; [Prev f] reads a register that latches [X f]
   every cycle. *)
type operand = X of Fixed.format | Y of Fixed.format | S of bool | Prev of Fixed.format

(* The mantissa of format [f] held by the low [f.width] bits of [n]. *)
let low_bits (f : Fixed.format) n =
  let w = f.Fixed.width in
  let m = n land ((1 lsl w) - 1) in
  let m =
    match f.Fixed.signedness with
    | Fixed.Signed when m >= 1 lsl (w - 1) -> m - (1 lsl w)
    | _ -> m
  in
  Fixed.create f (Int64.of_int m)

let value operand c =
  match operand with
  | X f -> low_bits f c
  | Y f -> low_bits f (c lsr 4)
  | S b -> Fixed.of_bool (c land 1 = 1 = b)
  | Prev f -> if c = 0 then Fixed.zero f else low_bits f (c - 1)

(* One output of a design: [build] makes its node from its operands'
   signals, [apply] computes it with [Fixed] from their values. *)
type row = {
  label : string;
  operands : operand list;
  build : Signal.t list -> Signal.t;
  apply : Fixed.t list -> Fixed.t;
}

let fs = Fixed.format_to_string

let binary name sop fop pairs =
  List.map
    (fun (fa, fb) ->
      {
        label = Printf.sprintf "%s %s %s" name (fs fa) (fs fb);
        operands = [ X fa; Y fb ];
        build = (function [ a; b ] -> sop a b | _ -> assert false);
        apply = (function [ a; b ] -> fop a b | _ -> assert false);
      })
    pairs

let unary name sop fop formats =
  List.map
    (fun f ->
      {
        label = Printf.sprintf "%s %s" name (fs f);
        operands = [ X f ];
        build = (function [ a ] -> sop a | _ -> assert false);
        apply = (function [ a ] -> fop a | _ -> assert false);
      })
    formats

(* A mux resizes its chosen branch into its format.  Two selects of
   opposite phase carry both operands through both branches. *)
let muxes pairs =
  List.concat_map
    (fun phase ->
      List.map
        (fun (fa, fb) ->
          {
            label = Printf.sprintf "mux(%b) %s %s" phase (fs fa) (fs fb);
            operands = [ S phase; X fa; Y fb ];
            build = (function [ s; a; b ] -> Signal.mux2 s a b | _ -> assert false);
            apply =
              (function
              | [ s; a; b ] ->
                Fixed.resize
                  (Fixed.logic_format (Fixed.fmt a) (Fixed.fmt b))
                  (if Fixed.is_true s then a else b)
              | _ -> assert false);
          })
        pairs)
    [ true; false ]

let resizes ~round ~overflow pairs =
  List.map
    (fun (src, dst) ->
      {
        label = Printf.sprintf "resize %s -> %s" (fs src) (fs dst);
        operands = [ X src ];
        build = (function [ a ] -> Signal.resize ~round ~overflow dst a | _ -> assert false);
        apply = (function [ a ] -> Fixed.resize ~round ~overflow dst a | _ -> assert false);
      })
    pairs

(* The leaves: an input read, a constant, a register read and a ROM
   read per format. *)
let leaves =
  let rom =
    Signal.Rom.create "ex_rom" (Fixed.signed ~width:4 ~frac:1)
      (Array.init 5 (fun i -> Fixed.create (Fixed.signed ~width:4 ~frac:1) (Int64.of_int (i * 3 - 6))))
  in
  List.concat_map
    (fun f ->
      let c = Fixed.max_mantissa f in
      [
        { label = "input " ^ fs f; operands = [ X f ];
          build = List.hd; apply = List.hd };
        { label = "const " ^ fs f; operands = [];
          build = (fun _ -> Signal.const (Fixed.create f c));
          apply = (fun _ -> Fixed.create f c) };
        { label = "reg " ^ fs f; operands = [ Prev f ];
          build = List.hd; apply = List.hd };
      ]
      @
      match f.Fixed.signedness with
      | Fixed.Signed -> []
      | Fixed.Unsigned ->
        [
          { label = "rom " ^ fs f; operands = [ X f ];
            build = (fun args -> Signal.rom rom (List.hd args));
            apply = (fun args -> Signal.Rom.get rom (Fixed.to_int (List.hd args))) };
        ])
    small_formats

(* A one-state design computing [rows] every cycle, each into its own
   probe, from one primary input per operand. *)
let design name rows =
  let inputs = Hashtbl.create 64 and regs = ref [] in
  let fmt_of = function X f | Y f | Prev f -> f | S _ -> Fixed.bit_format in
  let port_of = function
    | X f | Prev f -> "x" ^ fs f
    | Y f -> "y" ^ fs f
    | S b -> if b then "s1" else "s0"
  in
  let sfg =
    Sfg.build (name ^ "_sfg") (fun b ->
        let input operand =
          let port = port_of operand in
          match Hashtbl.find_opt inputs port with
          | Some (s, _) -> s
          | None ->
            let s = Sfg.Builder.input b port (fmt_of operand) in
            Hashtbl.replace inputs port (s, operand);
            s
        in
        let signal = function
          | Prev f ->
            let r = Signal.Reg.create Clock.default ("r" ^ fs f) f in
            let x = input (X f) in
            regs := (r, x) :: !regs;
            Signal.reg_q r
          | operand -> input operand
        in
        List.iteri
          (fun k row ->
            Sfg.Builder.output b (Printf.sprintf "o%d" k)
              (row.build (List.map signal row.operands)))
          rows;
        List.iter (fun (r, x) -> Sfg.Builder.assign b r x) !regs)
  in
  let fsm = Fsm.create (name ^ "_ctl") in
  let s0 = Fsm.initial fsm "s0" in
  Fsm.(s0 |-- always |+ sfg |-> s0);
  let sys = Cycle_system.create name in
  let c = Cycle_system.add_timed sys "ops" fsm in
  Hashtbl.iter
    (fun port (_, operand) ->
      let i =
        Cycle_system.add_input sys (port ^ "_in") (fmt_of operand) (fun cyc ->
            Some (value operand cyc))
      in
      ignore (Cycle_system.connect sys (i, "out") [ (c, port) ]))
    inputs;
  List.iteri
    (fun k _ ->
      let port = Printf.sprintf "o%d" k in
      let p = Cycle_system.add_output sys port in
      ignore (Cycle_system.connect sys (c, port) [ (p, "in") ]))
    rows;
  sys

(* Operand pairs split four ways by signedness, so no design's plugin
   takes long to compile. *)
let pair_splits =
  let of_sign s = List.filter (fun (f : Fixed.format) -> f.Fixed.signedness = s) small_formats in
  List.concat_map
    (fun sa ->
      List.map
        (fun sb ->
          List.concat_map (fun fa -> List.map (fun fb -> (fa, fb)) (of_sign sb)) (of_sign sa)
          @ if sa = Fixed.Signed && sb = Fixed.Unsigned then [ (s4_1, u3_2) ] else [])
        [ Fixed.Signed; Fixed.Unsigned ])
    [ Fixed.Signed; Fixed.Unsigned ]

let operator_designs =
  let binaries =
    [
      ("add", Signal.add, Fixed.add); ("sub", Signal.sub, Fixed.sub);
      ("mul", Signal.mul, Fixed.mul); ("and", Signal.and_, Fixed.logand);
      ("or", Signal.or_, Fixed.logor); ("xor", Signal.xor_, Fixed.logxor);
      ("eq", Signal.eq, Fixed.eq); ("lt", Signal.lt, Fixed.lt);
      ("le", Signal.le, Fixed.le);
    ]
  in
  [
    ("ex_leaves", leaves);
    ( "ex_unary",
      unary "neg" Signal.neg Fixed.neg small_formats
      @ unary "abs" Signal.abs_ Fixed.abs small_formats
      @ unary "not" Signal.not_ Fixed.lognot small_formats
      @ unary "shl" (fun a -> Signal.shift_left a 3) (fun v -> Fixed.shift_left v 3) small_formats
      @ unary "shr" (fun a -> Signal.shift_right a 2) (fun v -> Fixed.shift_right v 2) small_formats );
  ]
  @ List.concat_map
      (fun (name, sop, fop) ->
        List.mapi (fun i pairs -> (Printf.sprintf "ex_%s_%d" name i, binary name sop fop pairs)) pair_splits)
      binaries
  @ List.mapi (fun i pairs -> (Printf.sprintf "ex_mux_%d" i, muxes pairs)) pair_splits

let resize_designs =
  List.concat_map
    (fun (rname, round) ->
      List.map
        (fun (oname, overflow) ->
          ( Printf.sprintf "ex_resize_%s_%s" rname oname,
            resizes ~round ~overflow
              (List.concat_map
                 (fun src -> List.map (fun dst -> (src, dst)) small_formats)
                 (small_formats @ deep_sources)
              @ List.map (fun dst -> (s5_3, dst)) s5_3_targets) ))
        [ ("wrap", Fixed.Wrap); ("sat", Fixed.Saturate) ])
    [ ("trunc", Fixed.Truncate); ("near", Fixed.Round_nearest); ("even", Fixed.Round_even) ]

(* Each output's probe tokens in [trace] against [Fixed] applied to the
   operand values of the same cycle. *)
let check_trace ~what rows trace =
  let module T = Cycle_system.Trace in
  let probe = Hashtbl.create 1024 in
  for p = 0 to T.probe_count trace - 1 do
    Hashtbl.replace probe (T.probe_name trace p) p
  done;
  List.iteri
    (fun k row ->
      let p =
        match Hashtbl.find_opt probe (Printf.sprintf "o%d" k) with
        | Some p -> p
        | None -> Alcotest.failf "%s: %s has no probe" what row.label
      in
      if T.length trace p <> cycles then
        Alcotest.failf "%s: %s has %d tokens" what row.label (T.length trace p);
      for i = 0 to cycles - 1 do
        let c = T.cycle trace p i and got = T.token trace p i in
        let args = List.map (fun o -> value o c) row.operands in
        let expect = row.apply args in
        if not (Fixed.equal got expect) then
          Alcotest.failf "%s: %s (%s) at cycle %d: %s, Fixed %s" what row.label
            (String.concat ", " (List.map Fixed.to_string args))
            c (Fixed.to_string got) (Fixed.to_string expect)
      done)
    rows

(* The standalone simulators of [designs], compiled in [dir] by one
   background process while the engines run: [wait ()] then runs each
   and checks every "<cycle> <probe> <mantissa>" line it prints against
   [Fixed]. *)
let start_standalone dir designs =
  let sources =
    List.map
      (fun (name, rows) ->
        let ml = Filename.concat dir (name ^ ".ml") in
        let oc = open_out ml in
        output_string oc (Emit.emit_standalone (design name rows) ~cycles);
        close_out oc;
        (name, rows, ml))
      designs
  in
  let script =
    String.concat " && "
      (List.map
         (fun (_, _, ml) ->
           let ml_q = Filename.quote ml in
           let exe = Filename.quote (Filename.remove_extension ml ^ ".exe") in
           Printf.sprintf "{ ocamlopt %s -o %s || ocamlfind ocamlopt %s -o %s; }" ml_q
             exe ml_q exe)
         sources)
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process "/bin/sh" [| "/bin/sh"; "-c"; script |] Unix.stdin null null
  in
  Unix.close null;
  (* Whatever ends the test, the compiles end before [dir] goes. *)
  let status = lazy (snd (Unix.waitpid [] pid)) in
  let stop () = ignore (Lazy.force status) in
  let wait () =
    if Lazy.force status <> Unix.WEXITED 0 then
      Alcotest.fail "a standalone simulator failed to compile";
    List.iter
      (fun (name, rows, ml) ->
        let rows = Array.of_list rows in
        let ic = Unix.open_process_in (Filename.remove_extension ml ^ ".exe") in
        let lines = ref 0 in
        Fun.protect
          ~finally:(fun () -> ignore (Unix.close_process_in ic))
          (fun () ->
            try
              while true do
                let line = input_line ic in
                incr lines;
                Scanf.sscanf line "%d o%d %Ld" (fun c k m ->
                    let row = rows.(k) in
                    let expect = row.apply (List.map (fun o -> value o c) row.operands) in
                    if m <> Fixed.mantissa expect then
                      Alcotest.failf "%s standalone: %s at cycle %d: %Ld, Fixed %s" name
                        row.label c m (Fixed.to_string expect))
              done
            with End_of_file -> ());
        Alcotest.(check int) (name ^ ": standalone lines") (cycles * Array.length rows) !lines)
      sources
  in
  (wait, stop)

(* Gates vs Fixed, exhaustive for one representative signed pair. *)
let test_exhaustive_gates () =
  let fa = Fixed.signed ~width:4 ~frac:1 in
  let fb = Fixed.unsigned ~width:3 ~frac:2 in
  let ops =
    [ ("add", Fixed.add, Wordgen.add); ("sub", Fixed.sub, Wordgen.sub);
      ("mul", Fixed.mul, Wordgen.mul) ]
  in
  List.iter
    (fun (name, fop, wop) ->
      (* Build the circuit once; sweep all operand values through it. *)
      let nl = Netlist.create name in
      let ba = Netlist.input_bus nl "a" fa.Fixed.width in
      let bb = Netlist.input_bus nl "b" fb.Fixed.width in
      Netlist.output_bus nl "out" (wop nl ~fa ~fb ba bb);
      let sim = Netlist.Sim.create nl in
      List.iter
        (fun a ->
          List.iter
            (fun b ->
              let expect = fop a b in
              Netlist.Sim.set_input sim "a" (Fixed.mantissa a);
              Netlist.Sim.set_input sim "b" (Fixed.mantissa b);
              Netlist.Sim.settle sim;
              let signed = (Fixed.fmt expect).Fixed.signedness = Fixed.Signed in
              let got = Netlist.Sim.get_output sim ~signed "out" in
              if got <> Fixed.mantissa expect then
                Alcotest.failf "%s(%s, %s) gates" name (Fixed.to_string a)
                  (Fixed.to_string b))
            (all_values fb))
        (all_values fa))
    ops

(* Compiled mantissa helpers vs Fixed, exhaustively (the closure
   specializations used on the compiled-simulation hot path). *)
let test_compiled_resize_helpers () =
  (* Reached through a one-node system per mode, exhaustive over inputs. *)
  let src = s5_3 in
  List.iter
    (fun dst ->
      List.iter
        (fun round ->
          List.iter
            (fun overflow ->
              let port = Signal.Input.create "x" src in
              let sfg =
                Sfg.build "rz" (fun b ->
                    ignore (Sfg.Builder.input_port b port);
                    Sfg.Builder.output b "y"
                      (Signal.resize ~round ~overflow dst (Signal.input port)))
              in
              let fsm = Fsm.create "rz_ctl" in
              let s0 = Fsm.initial fsm "s0" in
              Fsm.(s0 |-- always |+ sfg |-> s0);
              let values = all_values src in
              let n = List.length values in
              let sys = Cycle_system.create "rz_sys" in
              let c = Cycle_system.add_timed sys "c" fsm in
              let stim =
                Cycle_system.add_input sys "x_in" src (fun cyc ->
                    Some (List.nth values (cyc mod n)))
              in
              let p = Cycle_system.add_output sys "y_out" in
              ignore (Cycle_system.connect sys (stim, "out") [ (c, "x") ]);
              ignore (Cycle_system.connect sys (c, "y") [ (p, "in") ]);
              let interp = Flow.simulate sys ~cycles:n in
              let compiled = Flow.simulate ~engine:"compiled" sys ~cycles:n in
              let hy = List.assoc "y_out" interp in
              let hc = List.assoc "y_out" compiled in
              List.iter2
                (fun (_, v1) (_, v2) ->
                  if not (Fixed.equal v1 v2) then
                    Alcotest.failf "compiled resize %s -> %s"
                      (Fixed.format_to_string src)
                      (Fixed.format_to_string dst))
                hy hc)
            [ Fixed.Wrap; Fixed.Saturate ])
        [ Fixed.Truncate; Fixed.Round_nearest; Fixed.Round_even ])
    s5_3_targets

(* Every operator on every format pair of up to 4 bits, every resize
   mode, over every operand value: each engine agrees with [Fixed]
   computed directly, and so does the standalone simulator on the
   resizes (the other operators render as the native plugin's word-mode
   body, which the native rows run).  When the toolchain is there, the
   native rows run the plugin: no session falls back. *)
let test_operators_on_every_engine () =
  let fallbacks () = (Ocapi_native.stats ()).Ocapi_native.fallbacks in
  let before = fallbacks () in
  Temp_dir.with_dir "ocapi_ex" (fun dir ->
      let wait, stop =
        if Test_opcomplete.toolchain () then start_standalone dir resize_designs
        else ((fun () -> ()), fun () -> ())
      in
      Fun.protect ~finally:stop (fun () ->
          List.iter
            (fun (name, rows) ->
              let sys = design name rows in
              Alcotest.(check bool) (name ^ ": word mode") true
                (Emit.word_mode_ok (Compiled_sim.lower sys));
              List.iter
                (fun engine ->
                  check_trace ~what:(name ^ " on " ^ engine) rows
                    (Flow.simulate_trace ~engine sys ~cycles))
                [ "interp"; "compiled"; "native"; "rtl"; "gate" ])
            (operator_designs @ resize_designs);
          wait ()));
  if Ocapi_native.availability () = Ok () then
    Alcotest.(check int) "the plugin ran" before (fallbacks ())

let suite =
  [
    Alcotest.test_case "fixed == bitvector (exhaustive pairs)" `Slow
      test_fixed_vs_bitvector_binops;
    Alcotest.test_case "resize exhaustive (all modes)" `Slow
      test_exhaustive_resize;
    Alcotest.test_case "gates exhaustive (one format pair)" `Slow
      test_exhaustive_gates;
    Alcotest.test_case "compiled resize helpers exhaustive" `Slow
      test_compiled_resize_helpers;
    Alcotest.test_case "every operator on every engine = Fixed" `Slow
      test_operators_on_every_engine;
  ]
