(* Tests for the HDL generators: VHDL entities, test benches, Verilog. *)

let s8 = Fixed.signed ~width:8 ~frac:0
let clk = Clock.default

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let small_system () =
  let acc = Signal.Reg.create clk "hdl_acc" s8 in
  let hot = Signal.Reg.create clk "hdl_hot" Fixed.bit_format in
  let step =
    Sfg.build "hdl_step" (fun b ->
        let x = Sfg.Builder.input b "x" s8 in
        let sum = Signal.(x +: reg_q acc) in
        Sfg.Builder.output b "y" (Signal.resize ~overflow:Fixed.Saturate s8 sum);
        Sfg.Builder.assign_resized b acc sum;
        Sfg.Builder.assign b hot Signal.(reg_q acc >: consti s8 50))
  in
  let cool =
    Sfg.build "hdl_cool" (fun b ->
        let x = Sfg.Builder.input b "x" s8 in
        Sfg.Builder.output b "y" (Signal.resize s8 x);
        Sfg.Builder.assign b acc (Signal.consti s8 0);
        Sfg.Builder.assign b hot Signal.gnd)
  in
  let fsm = Fsm.create "hdl_ctl" in
  let run = Fsm.initial fsm "running" in
  let cooldown = Fsm.state fsm "cooling" in
  Fsm.(run |-- cnd (Signal.reg_q hot) |+ cool |-> cooldown);
  Fsm.(run |-- always |+ step |-> run);
  Fsm.(cooldown |-- always |+ step |-> run);
  let sys = Cycle_system.create "hdl_demo" in
  let c = Cycle_system.add_timed sys "worker" fsm in
  let stim = Cycle_system.add_input sys "x_in" s8 (fun cyc -> Some (Fixed.of_int s8 (cyc mod 9))) in
  let p = Cycle_system.add_output sys "y_out" in
  ignore (Cycle_system.connect sys (stim, "out") [ (c, "x") ]);
  ignore (Cycle_system.connect sys (c, "y") [ (p, "in") ]);
  sys

let test_vhdl_structure () =
  let sys = small_system () in
  let files = Vhdl.of_system sys in
  Alcotest.(check int) "two files" 2 (List.length files);
  let comp = List.assoc "worker.vhd" files in
  Alcotest.(check bool) "entity" true (contains comp "entity worker is");
  Alcotest.(check bool) "numeric_std" true (contains comp "use ieee.numeric_std.all;");
  Alcotest.(check bool) "state type" true
    (contains comp "type state_t is (st_running, st_cooling);");
  Alcotest.(check bool) "comb process" true (contains comp "comb : process");
  Alcotest.(check bool) "seq process" true (contains comp "seq : process (clk)");
  Alcotest.(check bool) "register declared" true
    (contains comp "signal r_hdl_acc, r_hdl_acc_next : signed(7 downto 0);");
  Alcotest.(check bool) "input port" true (contains comp "p_x : in signed(7 downto 0)");
  Alcotest.(check bool) "output port" true (contains comp "o_y : out signed(7 downto 0)");
  Alcotest.(check bool) "reset behaviour" true (contains comp "if rst = '1' then");
  let top = List.assoc "hdl_demo_top.vhd" files in
  Alcotest.(check bool) "top entity" true (contains top "entity hdl_demo is");
  Alcotest.(check bool) "instance" true (contains top "u_worker : entity work.worker");
  Alcotest.(check bool) "line count sane" true (Vhdl.line_count files > 60)

let test_vhdl_ram_entity () =
  let sys = small_system () in
  ignore
    (Cycle_system.add_untimed sys
       (Ram_cell.kernel ~name:"hdl_test_ram" ~words:8 ~data_fmt:s8
          ~addr_fmt:(Fixed.unsigned ~width:3 ~frac:0)));
  let files = Vhdl.of_system sys in
  Alcotest.(check bool) "ram entity emitted" true
    (List.mem_assoc "ocapi_ram.vhd" files)

let test_testbench () =
  let sys = small_system () in
  let vectors = Testbench.record sys ~cycles:10 in
  Alcotest.(check int) "cycles" 10 vectors.Testbench.tb_cycles;
  Alcotest.(check int) "inputs recorded" 10 (List.length vectors.Testbench.tb_inputs);
  Alcotest.(check int) "outputs recorded" 10 (List.length vectors.Testbench.tb_outputs);
  let tb = Testbench.vhdl sys vectors in
  Alcotest.(check bool) "tb entity" true (contains tb "entity tb_hdl_demo is");
  Alcotest.(check bool) "dut instance" true (contains tb "dut : entity work.hdl_demo");
  Alcotest.(check bool) "clock gen" true (contains tb "clk <= not clk after 5 ns;");
  Alcotest.(check bool) "has assertions" true (contains tb "assert o_y_out =");
  Alcotest.(check bool) "completion report" true
    (contains tb "report \"test bench completed: 10 cycles\"")

let test_verilog_netlist () =
  let sys = small_system () in
  let nl, _ = Synthesize.synthesize sys in
  let v = Verilog.of_netlist nl in
  Alcotest.(check bool) "module" true (contains v "module hdl_demo (");
  Alcotest.(check bool) "input" true (contains v "input wire [7:0] x_in");
  Alcotest.(check bool) "output" true (contains v "output wire [7:0] y_out");
  Alcotest.(check bool) "ff always" true (contains v "always @(posedge clk)");
  Alcotest.(check bool) "endmodule" true (contains v "endmodule");
  Alcotest.(check bool) "line count" true (Verilog.line_count v > 100)

let test_flow_emit_files () =
  let sys = small_system () in
  Temp_dir.with_dir "ocapi_hdl" (fun dir ->
      let paths = Flow.emit_vhdl sys ~dir in
      Alcotest.(check int) "files written" 2 (List.length paths);
      List.iter (fun p -> Alcotest.(check bool) p true (Sys.file_exists p)) paths;
      let tb = Flow.emit_testbench sys ~dir ~cycles:5 in
      Alcotest.(check bool) "tb written" true (Sys.file_exists tb);
      let _, _, netlist_path = Flow.synthesize_to_verilog sys ~dir in
      Alcotest.(check bool) "netlist written" true (Sys.file_exists netlist_path);
      let sim_path = Flow.emit_ocaml_simulator sys ~dir ~cycles:5 in
      Alcotest.(check bool) "simulator written" true (Sys.file_exists sim_path))

let suite =
  [
    Alcotest.test_case "vhdl structure" `Quick test_vhdl_structure;
    Alcotest.test_case "vhdl ram entity" `Quick test_vhdl_ram_entity;
    Alcotest.test_case "testbench generation" `Quick test_testbench;
    Alcotest.test_case "verilog netlist" `Quick test_verilog_netlist;
    Alcotest.test_case "flow file emission" `Quick test_flow_emit_files;
  ]

let test_vcd () =
  let sys = small_system () in
  let vcd = Vcd.record sys ~cycles:12 in
  Alcotest.(check bool) "header" true (contains vcd "$enddefinitions $end");
  Alcotest.(check bool) "var decl" true (contains vcd "$var wire 8");
  Alcotest.(check bool) "time marks" true (contains vcd "#11");
  Alcotest.(check bool) "binary values" true (contains vcd "b0000");
  (* both nets appear as $var declarations *)
  let count_vars s =
    let re = "$var" in
    let rec go i acc =
      if i + 4 > String.length s then acc
      else if String.sub s i 4 = re then go (i + 4) (acc + 1)
      else go (i + 1) acc
    in
    go 0 0
  in
  Alcotest.(check int) "two nets" 2 (count_vars vcd)

let test_fsm_dot () =
  let sys = small_system () in
  ignore sys;
  let eof = Signal.Reg.create clk "dot_eof" Fixed.bit_format in
  let f = Fsm.create "dot_f" in
  let s0 = Fsm.initial f "s0" and s1 = Fsm.state f "s1" in
  Fsm.(s0 |-- always |+ Sfg.nop "sfg1" |-> s1);
  Fsm.(s1 |-- cnd (Signal.reg_q eof) |+ Sfg.nop "sfg2" |-> s0);
  let dot = Fsm.to_dot f in
  Alcotest.(check bool) "digraph" true (contains dot "digraph \"dot_f\"");
  Alcotest.(check bool) "initial double circle" true
    (contains dot "\"s0\" [shape=doublecircle];");
  Alcotest.(check bool) "edge with action" true (contains dot "sfg1");
  Alcotest.(check bool) "guard label" true (contains dot "dot_eof")

(* The interpreter's waveforms of the gallery designs, pinned by MD5. *)
let test_vcd_gallery_pinned () =
  List.iter
    (fun (name, build, cycles, md5) ->
      Alcotest.(check string) name md5
        (Digest.to_hex (Digest.string (Vcd.record (build ()) ~cycles))))
    [
      ("hcor", Gallery.hcor, 60, "b1f2b93c19dd0c88ad296486b7111bcb");
      ("dect", Gallery.dect, 120, "8ea0d6b1db8c32663247022ebbfbcaab");
      ("rs", Gallery.rs, 60, "338ebadad94b67f5e7546676e0454e16");
      ("cpu", Gallery.cpu, 60, "bce80469a4e730a93b0ae2945dd81054");
    ]

let suite =
  suite
  @ [
      Alcotest.test_case "vcd dump" `Quick test_vcd;
      Alcotest.test_case "vcd of the gallery designs, pinned" `Quick
        test_vcd_gallery_pinned;
      Alcotest.test_case "fsm dot export" `Quick test_fsm_dot;
    ]

let test_vhdl_netlist () =
  let sys = small_system () in
  let nl, _ = Synthesize.synthesize sys in
  let v = Vhdl.of_netlist nl in
  Alcotest.(check bool) "entity" true (contains v "entity hdl_demo_netlist is");
  Alcotest.(check bool) "gates" true (contains v " and ");
  Alcotest.(check bool) "register process" true (contains v "registers : process (clk)");
  Alcotest.(check bool) "ends" true (contains v "end architecture structural;")

let suite = suite @ [ Alcotest.test_case "vhdl netlist view" `Quick test_vhdl_netlist ]

(* What `ocapi emit <design> --cycles 64` writes for the four gallery
   designs — VHDL, test bench, Verilog netlist, standalone simulator,
   architecture graph and waveform — pinned file by file by MD5. *)
let emit_pins =
  [
    ( "hcor",
      [
        ("hcor.vcd", "37e9e87775a8996b383e08a054341405");
        ("hcor.vhd", "c14142b6edb155b0f0ea09aa685359a7");
        ("hcor_architecture.dot", "ed7fd00462c6c5953963a26598deaabb");
        ("hcor_netlist.v", "3612153be758bb3a5fe7786af98846fd");
        ("hcor_sim.ml", "18a8d8ecb95f48addb16326b795bd334");
        ("hcor_top.vhd", "ee599aa60f9f14bf397597abf12d4966");
        ("tb_hcor.vhd", "b3615d4dfaaaef51982d09013406f62b");
      ] );
    ( "dect",
      [
        ("dect.vcd", "02ddcfad3908e192f56388802f171dee");
        ("dect_architecture.dot", "2c0ffb7f2a972474c45a71e37384d787");
        ("dect_netlist.v", "20bfb153d51edcf145c2494c96baf9ab");
        ("dect_sim.ml", "8f7365c3123533fd2cd5b25d33680883");
        ("dect_top.vhd", "444dc1cf7ef39a9530953cf47e248dbb");
        ("dp_adc.vhd", "2db728c3a830859a1743dc221e87c062");
        ("dp_agc.vhd", "ea03e2604976523aed278430badcbbd7");
        ("dp_corr.vhd", "4d0fd585d4064bf826258f23906ad201");
        ("dp_crc.vhd", "0d08cc47cad45cc6c027ce1910a41b13");
        ("dp_ctl.vhd", "f860e73a249a31c1feed2b2149a57d2d");
        ("dp_dc.vhd", "2b4b4b5d4b8768e1d8b0a99e821b4cb4");
        ("dp_deint_a.vhd", "be9693b61733842ff7e9e938a2d2f228");
        ("dp_deint_b.vhd", "1783cf8fb15a1db598612723fb75ed97");
        ("dp_equ.vhd", "42f13f733172cb0a5fea622413aa368f");
        ("dp_framer.vhd", "2081fcc8c4acba306940d163da00dd66");
        ("dp_freq.vhd", "5afbc9cd68096ca5caebd7db587d399b");
        ("dp_gain.vhd", "e45d6a8d8a4331ee571fe5345034b3a0");
        ("dp_mac0.vhd", "c4d06d70588e2c27e5dc59671fc9c7b8");
        ("dp_mac1.vhd", "9577ab536cfbc7fc3796cf3230446ba3");
        ("dp_mac2.vhd", "c1259d89c2e13a9973ce37a7f6b86bf5");
        ("dp_mac3.vhd", "831b0069d4b8f5527dae589b71c775fb");
        ("dp_mem.vhd", "319570967f73eeec4b90061b18d742ed");
        ("dp_mon.vhd", "48e2592da49063a14da6de179985a058");
        ("dp_scram.vhd", "b72c8b43921b8750de08c98e84a49004");
        ("dp_slice.vhd", "68255b68e001623c05b2ffa53d26b6cb");
        ("dp_sum.vhd", "153630080219f4df512e6be1ffc81d2f");
        ("dp_timing.vhd", "a7af51a93b92e4a91d061647140d7538");
        ("ocapi_ram.vhd", "3c24a6d2161f96041c362c0dc60b1370");
        ("pc_ctl.vhd", "0d7c990923a7746122a0f05ea158ac68");
        ("tb_dect.vhd", "1af63911602226fb0a6817e8f2c95bf3");
        ("vliw_ctl.vhd", "ee5d7a74b44303425c40ec706ce4941c");
      ] );
    ( "rs",
      [
        ("dec.vhd", "9484306dc438c6ce9acc4e3d4ac63683");
        ("enc.vhd", "1b77f9d64b9e1c8dc81d57bb62e1800c");
        ("rs.vcd", "7d9f55d827708ad40d7c03208ba4343a");
        ("rs_architecture.dot", "8e5387c4cfa989d1aeae2916fc9de920");
        ("rs_netlist.v", "bdd52ad83514cd184809f56d56a5e710");
        ("rs_sim.ml", "0c5905f65c890ed1da518bb20378261b");
        ("rs_top.vhd", "1455e523a8878d909ff1f9fbcf67e026");
        ("tb_rs.vhd", "51b1a3a213e0547021e708fc8a84940a");
      ] );
    ( "cpu",
      [
        ("core.vhd", "140b675d3cd87d4305a31bc01cd0cf8f");
        ("cpu.vcd", "b0e4e71732647b6fb4595f374a592b4e");
        ("cpu_architecture.dot", "34be6f1254236de55b7588cee1b0f23e");
        ("cpu_netlist.v", "7e379df77de5c729b19949c6d84f4620");
        ("cpu_sim.ml", "b43da85e696fc85e656f8d0490ad7bfa");
        ("cpu_top.vhd", "851845613ee723c2768268a8768f05dc");
        ("ocapi_ram.vhd", "3c24a6d2161f96041c362c0dc60b1370");
        ("tb_cpu.vhd", "6c85884a90044fe6d183c2717f033391");
      ] );
  ]

(* A design's RAMs need no mapping: synthesis reads the model each
   kernel declares, and the netlists are the ones `ocapi emit` writes. *)
let test_ram_designs_synthesize_unmapped () =
  List.iter
    (fun (design, build) ->
      let nl, _ = Synthesize.synthesize (build ()) in
      Alcotest.(check string) (design ^ "_netlist.v")
        (List.assoc (design ^ "_netlist.v") (List.assoc design emit_pins))
        (Digest.to_hex (Digest.string (Verilog.of_netlist nl))))
    [ ("dect", Gallery.dect); ("cpu", Gallery.cpu) ]

let test_emit_pinned () =
  let cli =
    Filename.concat (Filename.concat Filename.parent_dir_name "bin") "ocapi_cli.exe"
  in
  let root = Filename.temp_file "ocapi_emit_pins" "" in
  Sys.remove root;
  Unix.mkdir root 0o755;
  let rec rm_rf path =
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path
  in
  Fun.protect
    ~finally:(fun () -> rm_rf root)
    (fun () ->
      List.iter
        (fun (design, pins) ->
          let dir = Filename.concat root design in
          let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
          let pid =
            Unix.create_process cli
              [| cli; "emit"; design; "--dir"; dir; "--cycles"; "64" |]
              Unix.stdin null null
          in
          Unix.close null;
          let _, status = Unix.waitpid [] pid in
          Alcotest.(check bool)
            (design ^ ": emit exits 0") true (status = Unix.WEXITED 0);
          let written =
            Sys.readdir dir |> Array.to_list |> List.sort String.compare
            |> List.map (fun f ->
                   (f, Digest.to_hex (Digest.file (Filename.concat dir f))))
          in
          Alcotest.(check (list (pair string string))) design pins written)
        emit_pins)

let suite =
  suite
  @ [
      Alcotest.test_case "emit pinned: hcor, dect, rs, cpu" `Quick test_emit_pinned;
      Alcotest.test_case "RAM designs synthesize with no mapping" `Quick
        test_ram_designs_synthesize_unmapped;
    ]

(* --- resize temporaries -------------------------------------------------- *)

(* A component resizing sources that drop fewer, as many and more
   fraction bits than they are wide (more than 62 too), or gain some,
   under every rounding and overflow mode. *)
let resize_system () =
  let sources =
    [
      (Fixed.signed ~width:4 ~frac:2, Fixed.signed ~width:4 ~frac:0);
      (Fixed.signed ~width:4 ~frac:8, Fixed.signed ~width:4 ~frac:0);
      (Fixed.unsigned ~width:3 ~frac:8, Fixed.unsigned ~width:2 ~frac:0);
      (Fixed.signed ~width:4 ~frac:63, Fixed.signed ~width:4 ~frac:0);
      (Fixed.signed ~width:3 ~frac:(-1), Fixed.signed ~width:5 ~frac:2);
    ]
  in
  let sfg =
    Sfg.build "hdl_rz" (fun b ->
        List.iteri
          (fun i (src, dst) ->
            let x = Sfg.Builder.input b (Printf.sprintf "x%d" i) src in
            List.iter
              (fun (r, round) ->
                List.iter
                  (fun (o, overflow) ->
                    Sfg.Builder.output b (Printf.sprintf "y%d_%s_%s" i r o)
                      (Signal.resize ~round ~overflow dst x))
                  [ ("w", Fixed.Wrap); ("s", Fixed.Saturate) ])
              [ ("t", Fixed.Truncate); ("n", Fixed.Round_nearest); ("e", Fixed.Round_even) ])
          sources)
  in
  let fsm = Fsm.create "hdl_rz_ctl" in
  let s0 = Fsm.initial fsm "s0" in
  Fsm.(s0 |-- always |+ sfg |-> s0);
  let sys = Cycle_system.create "hdl_rz" in
  ignore (Cycle_system.add_timed sys "rz" fsm);
  sys

(* Positions just past each occurrence of [needle] in [text]. *)
let after text needle =
  let n = String.length needle in
  let rec go from acc =
    match
      Seq.find
        (fun i -> String.sub text i n = needle)
        (Seq.init (max 0 (String.length text - n - from + 1)) (fun k -> from + k))
    with
    | Some i -> go (i + 1) ((i + n) :: acc)
    | None -> List.rev acc
  in
  go 0 []

let rest text i = String.sub text i (String.length text - i)

(* No VHDL simulator runs here, so the generated text is checked
   structurally: every index into a resize's wide temporary ([v_N_w])
   lies within its declaration, and every [to_signed]/[to_unsigned]
   constant fits its width. *)
let test_resize_temporaries_fit () =
  List.iter
    (fun (name, build) ->
      List.iter
        (fun (file, text) ->
          let what = name ^ "/" ^ file in
          let high = Hashtbl.create 16 in
          List.iter
            (fun i ->
              try
                Scanf.sscanf (rest text i) "%s : signed(%d downto 0)" (fun v h ->
                    if Filename.check_suffix v "_w" then Hashtbl.replace high v h)
              with Scanf.Scan_failure _ | End_of_file -> ())
            (after text "variable ");
          List.iter
            (fun i ->
              let start = ref (i - 3) in
              while !start > 0 && text.[!start - 1] <> ' ' && text.[!start - 1] <> '(' do
                decr start
              done;
              let v = String.sub text !start (i - 1 - !start) in
              let idx = Scanf.sscanf (rest text i) "%d" Fun.id in
              match Hashtbl.find_opt high v with
              | Some h when idx <= h -> ()
              | Some h -> Alcotest.failf "%s: %s(%d) outside %d downto 0" what v idx h
              | None -> Alcotest.failf "%s: %s indexed but not declared" what v)
            (after text "_w(");
          let fits ~signed c w =
            if signed then
              w >= 64
              || (let h = Int64.shift_left 1L (w - 1) in
                  Int64.neg h <= c && c < h)
            else c >= 0L && (w >= 63 || c < Int64.shift_left 1L w)
          in
          List.iter
            (fun (needle, signed) ->
              List.iter
                (fun i ->
                  Scanf.sscanf (rest text i) "%Ld, %d)" (fun c w ->
                      if not (fits ~signed c w) then
                        Alcotest.failf "%s: %s%Ld, %d) does not fit" what needle c w))
                (after text needle))
            [ ("to_signed(", true); ("to_unsigned(", false) ])
        (Vhdl.of_system (build ())))
    [ ("hdl_rz", resize_system) ]

let suite =
  suite
  @ [
      Alcotest.test_case "vhdl resize temporaries hold their indices" `Quick
        test_resize_temporaries_fit;
    ]
