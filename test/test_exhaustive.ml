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
  let src = Fixed.signed ~width:5 ~frac:3 in
  List.iter
    (fun dst ->
      List.iter
        (fun round ->
          List.iter
            (fun overflow ->
              let clk = Clock.default in
              ignore clk;
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
    [ Fixed.signed ~width:3 ~frac:1; Fixed.unsigned ~width:4 ~frac:0;
      Fixed.signed ~width:6 ~frac:5 ]

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
  ]
