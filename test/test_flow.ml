(* Tests for the Flow facade's reporting paths and the remaining
   code-generation corners (DECT-scale emission with ROM constants,
   VCD on a large system, report rendering). *)

let s8 = Fixed.signed ~width:8 ~frac:0
let clk = Clock.default

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_check_report_rendering () =
  (* A deliberately dirty system: dangling input, unreachable state. *)
  let sfg =
    Sfg.build "fl_sfg" (fun b ->
        let x = Sfg.Builder.input b "x" s8 in
        ignore (Sfg.Builder.input b "unused" s8);
        Sfg.Builder.output b "y" (Signal.resize s8 x))
  in
  let fsm = Fsm.create "fl_ctl" in
  let s0 = Fsm.initial fsm "s0" in
  ignore (Fsm.state fsm "orphan");
  Fsm.(s0 |-- always |+ sfg |-> s0);
  let sys = Cycle_system.create "fl_dirty" in
  ignore (Cycle_system.add_timed sys "c" fsm);
  let report = Flow.check sys in
  Alcotest.(check bool) "not clean" false (Flow.check_clean report);
  let text = Format.asprintf "%a" Flow.pp_check_report report in
  Alcotest.(check bool) "mentions dangling" true (contains text "dangling input");
  Alcotest.(check bool) "mentions unreachable" true (contains text "unreachable state orphan");
  Alcotest.(check bool) "mentions unconnected" true (contains text "no driver")

let dect () =
  let d =
    Dect_transceiver.create
      ~stimulus:(fun c ->
        Some
          (Fixed.of_float ~overflow:Fixed.Saturate Dect_transceiver.sample_format
             (sin (float c) /. 3.0)))
      ()
  in
  d.Dect_transceiver.system

let test_dect_vhdl_emission () =
  let files = Vhdl.of_system (dect ()) in
  (* 24 component files + RAM entity + top. *)
  Alcotest.(check int) "file count" 26 (List.length files);
  let vliw = List.assoc "vliw_ctl.vhd" files in
  Alcotest.(check bool) "irom constants" true (contains vliw "constant rom_irom0");
  Alcotest.(check bool) "execute state" true (contains vliw "st_execute");
  let equ = List.assoc "dp_equ.vhd" files in
  Alcotest.(check bool) "57-way decode present" true
    (contains equ "elsif");
  let top = List.assoc "dect_top.vhd" files in
  Alcotest.(check bool) "instantiates every datapath" true
    (contains top "u_dp_mac3 : entity work.dp_mac3");
  Alcotest.(check bool) "lines at scale" true (Vhdl.line_count files > 4000)

let test_dect_vcd () =
  let sys = dect () in
  let vcd = Vcd.record sys ~cycles:45 in
  Alcotest.(check bool) "instruction bus declared" true
    (contains vcd "vliw_ctl.bank0");
  Alcotest.(check bool) "ram rdata declared" true (contains vcd "rdata");
  Alcotest.(check bool) "has time marks" true (contains vcd "#44")

let test_single_iteration_deadlock_none () =
  (* A consistent SDF graph that cannot complete one iteration without
     initial tokens (a token-free loop): schedule must be None. *)
  let g = Dataflow.create "sd" in
  let mk name = Dataflow.add_process g (Dataflow.Kernel.map1 name Fun.id) in
  let a = mk "a" and b = mk "b" in
  ignore (Dataflow.connect g (a, "out") (b, "in"));
  ignore (Dataflow.connect g (b, "out") (a, "in"));
  Alcotest.(check bool) "no schedule" true
    (Dataflow.single_iteration_schedule g = None);
  Alcotest.(check bool) "but consistent" true
    (Dataflow.repetition_vector g <> None)

let test_synthesize_to_verilog_roundtrip () =
  let sys = dect () in
  Temp_dir.with_dir "ocapi_flow" (fun dir ->
      let nl, rep, path = Flow.synthesize_to_verilog sys ~dir in
      Alcotest.(check bool) "file exists" true (Sys.file_exists path);
      Alcotest.(check bool) "tens of kgates" true
        (rep.Synthesize.total.Netlist.gate_equivalents > 20_000);
      (* The written file round-trips through the printer length. *)
      let ic = open_in path in
      let len = in_channel_length ic in
      close_in ic;
      Alcotest.(check int) "written length" (String.length (Verilog.of_netlist nl)) len)

(* Negative counts are structured [Unsupported] errors at the library
   entry points, raised before any work; `ocapi` prints them and exits
   1.  A window of 0 cycles stays valid. *)
let test_negative_counts () =
  let rs () = Gallery.rs () in
  let unsupported name f =
    match f () with
    | _ -> Alcotest.failf "%s: expected Ocapi_error.Error" name
    | exception Ocapi_error.Error e ->
      Alcotest.(check string) name "unsupported"
        (Ocapi_error.code_label e.Ocapi_error.e_code)
  in
  unsupported "simulate" (fun () -> Flow.simulate (rs ()) ~cycles:(-5));
  unsupported "standalone simulator" (fun () ->
      Flow.emit_ocaml_simulator (rs ()) ~dir:"." ~cycles:(-3));
  unsupported "gate-level check" (fun () -> Synthesize.verify (rs ()) ~cycles:(-2));
  unsupported "stuck-at cycles" (fun () ->
      Ocapi_fault.stuck_at_system (rs ()) ~cycles:(-1));
  unsupported "stuck-at max_faults" (fun () ->
      Ocapi_fault.stuck_at_system ~max_faults:(-2) (rs ()) ~cycles:8);
  unsupported "optimized stuck-at cycles" (fun () ->
      Ocapi_fault.stuck_at_optimized (rs ()) ~cycles:(-1));
  unsupported "stuck-at netlist max_faults" (fun () ->
      Ocapi_fault.stuck_at_netlist ~max_faults:(-1)
        (fst (Synthesize.synthesize (rs ())))
        ~vectors:[||]);
  unsupported "fuzz count" (fun () -> Ocapi_diff.fuzz ~seed:1 ~count:(-1) ());
  Alcotest.(check int) "zero cycles simulate" 0
    (List.length
       (List.concat_map snd (Flow.simulate (rs ()) ~cycles:0)));
  let cli =
    Filename.concat (Filename.concat Filename.parent_dir_name "bin") "ocapi_cli.exe"
  in
  let dir = Filename.temp_file "ocapi_negative" "" in
  Sys.remove dir;
  List.iter
    (fun args ->
      let err = Filename.temp_file "ocapi_negative" ".err" in
      Fun.protect
        ~finally:(fun () -> Sys.remove err)
        (fun () ->
          let out = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
          let errfd = Unix.openfile err [ Unix.O_WRONLY; Unix.O_TRUNC ] 0 in
          let pid =
            Unix.create_process cli (Array.of_list (cli :: args)) Unix.stdin out errfd
          in
          Unix.close out;
          Unix.close errfd;
          let _, status = Unix.waitpid [] pid in
          let line = String.concat " " args in
          Alcotest.(check bool) (line ^ ": exit 1") true (status = Unix.WEXITED 1);
          Alcotest.(check bool)
            (line ^ ": structured error") true
            (contains (In_channel.with_open_bin err In_channel.input_all) "unsupported")))
    [
      [ "emit"; "--cycles=-3"; "--dir"; dir; "rs" ];
      [ "fault"; "--campaign"; "stuck-at"; "--design"; "rs"; "--max-faults=-2" ];
      [ "fault"; "--campaign"; "stuck-at"; "--design"; "rs"; "--cycles=-1" ];
      [ "fuzz"; "--count=-1" ];
      [ "simulate"; "--cycles=-5"; "rs" ];
      [ "profile"; "--design"; "rs"; "--cycles=-4"; "--dir"; dir ];
    ];
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

let suite =
  [
    Alcotest.test_case "check report rendering" `Quick test_check_report_rendering;
    Alcotest.test_case "negative counts: structured error, exit 1" `Quick
      test_negative_counts;
    Alcotest.test_case "DECT VHDL emission at scale" `Quick test_dect_vhdl_emission;
    Alcotest.test_case "DECT VCD" `Quick test_dect_vcd;
    Alcotest.test_case "token-free SDF loop schedule" `Quick
      test_single_iteration_deadlock_none;
    Alcotest.test_case "synthesize_to_verilog roundtrip" `Slow
      test_synthesize_to_verilog_roundtrip;
  ]
