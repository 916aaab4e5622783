type vectors = {
  tb_cycles : int;
  tb_inputs : (int * string * Fixed.t) list;
  tb_outputs : (int * string * Fixed.t) list;
}

let record sys ~cycles =
  Cycle_system.reset sys;
  Cycle_system.run sys cycles;
  let tb_inputs = Cycle_system.stimuli sys ~cycles in
  let trace = Cycle_system.trace sys in
  let tb_outputs =
    List.init (Cycle_system.Trace.probe_count trace) (fun p ->
        List.init (Cycle_system.Trace.length trace p) (fun k ->
            ( Cycle_system.Trace.cycle trace p k,
              Cycle_system.Trace.probe_name trace p,
              Cycle_system.Trace.token trace p k )))
    |> List.concat |> List.sort compare
  in
  Cycle_system.reset sys;
  { tb_cycles = cycles; tb_inputs; tb_outputs }

let sanitize = Verilog.sanitize

let vhdl sys vectors =
  let buf = Buffer.create 16384 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let top = sanitize (Cycle_system.name sys) in
  (* The device under test is [Vhdl.of_system]'s top level, which
     declares a signal per net: every net's format must derive. *)
  List.iter (fun n -> ignore (Cycle_system.net_format n)) (Cycle_system.nets sys);
  let probe_fmt = Cycle_system.probe_format sys in
  let is_signed (f : Fixed.format) =
    match f.Fixed.signedness with Fixed.Signed -> true | Fixed.Unsigned -> false
  in
  let vhdl_type (f : Fixed.format) =
    Printf.sprintf "%s(%d downto 0)"
      (if is_signed f then "signed" else "unsigned")
      (f.Fixed.width - 1)
  in
  pf "library ieee;\nuse ieee.std_logic_1164.all;\nuse ieee.numeric_std.all;\n\n";
  pf "entity tb_%s is\nend entity tb_%s;\n\n" top top;
  pf "architecture sim of tb_%s is\n" top;
  pf "  signal clk : std_logic := '0';\n  signal rst : std_logic := '1';\n";
  List.iter
    (fun (name, fmt, _) ->
      pf "  signal i_%s : %s := (others => '0');\n" (sanitize name)
        (vhdl_type fmt))
    (Cycle_system.primary_inputs sys);
  List.iter
    (fun p ->
      match probe_fmt p with
      | Some f -> pf "  signal o_%s : %s;\n" (sanitize p) (vhdl_type f)
      | None -> ())
    (Cycle_system.probes sys);
  pf "begin\n\n  clk <= not clk after 5 ns;\n\n";
  pf "  dut : entity work.%s\n    port map (\n      clk => clk,\n      rst => rst" top;
  List.iter
    (fun (name, _, _) ->
      pf ",\n      i_%s => i_%s" (sanitize name) (sanitize name))
    (Cycle_system.primary_inputs sys);
  List.iter
    (fun p ->
      match probe_fmt p with
      | Some _ -> pf ",\n      o_%s => o_%s" (sanitize p) (sanitize p)
      | None -> ())
    (Cycle_system.probes sys);
  pf "\n    );\n\n";
  pf "  stimulus : process\n  begin\n";
  pf "    wait until rising_edge(clk);\n    rst <= '0';\n";
  (* Group vectors by cycle: apply inputs after the falling edge, check
     outputs just before the next rising edge. *)
  let per_cycle_in = Array.make vectors.tb_cycles [] in
  List.iter
    (fun (c, name, v) ->
      if c < vectors.tb_cycles then
        per_cycle_in.(c) <- (name, v) :: per_cycle_in.(c))
    vectors.tb_inputs;
  let per_cycle_out = Array.make vectors.tb_cycles [] in
  List.iter
    (fun (c, p, v) ->
      if c < vectors.tb_cycles then
        per_cycle_out.(c) <- (p, v) :: per_cycle_out.(c))
    vectors.tb_outputs;
  for c = 0 to vectors.tb_cycles - 1 do
    pf "    -- cycle %d\n" c;
    List.iter
      (fun (name, v) ->
        let f = Fixed.fmt v in
        pf "    i_%s <= to_%s(%Ld, %d);\n" (sanitize name)
          (if is_signed f then "signed" else "unsigned")
          (Fixed.mantissa v) f.Fixed.width)
      (List.rev per_cycle_in.(c));
    pf "    wait for 4 ns;\n";
    List.iter
      (fun (p, v) ->
        let f = Fixed.fmt v in
        pf
          "    assert o_%s = to_%s(%Ld, %d) report \"cycle %d: %s mismatch\" \
           severity error;\n"
          (sanitize p)
          (if is_signed f then "signed" else "unsigned")
          (Fixed.mantissa v) f.Fixed.width c p)
      (List.rev per_cycle_out.(c));
    pf "    wait until rising_edge(clk);\n"
  done;
  pf "    report \"test bench completed: %d cycles\" severity note;\n"
    vectors.tb_cycles;
  pf "    wait;\n  end process stimulus;\n\nend architecture sim;\n";
  Buffer.contents buf
