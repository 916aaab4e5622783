let () =
  Alcotest.run "ocapi-ml"
    [
      ("fixed", Test_fixed.suite);
      ("bitvector", Test_bitvector.suite);
      ("signal", Test_signal.suite);
      ("sfg", Test_sfg.suite);
      ("fsm", Test_fsm.suite);
      ("dataflow", Test_dataflow.suite);
      ("sched", Test_sched.suite);
      ("columns", Test_columns.suite);
      ("engines", Test_engines.suite);
      ("engine", Test_engine.suite);
      ("ir", Test_ir.suite);
      ("native", Test_native.suite);
      ("netlist", Test_netlist.suite);
      ("sop", Test_sop.suite);
      ("wordgen", Test_wordgen.suite);
      ("synth", Test_synth.suite);
      ("netopt", Test_netopt.suite);
      ("hdl", Test_hdl.suite);
      ("designs", Test_designs.suite);
      ("gallery", Test_gallery.suite);
      ("integration", Test_integration.suite);
      ("exhaustive", Test_exhaustive.suite);
      ("opcomplete", Test_opcomplete.suite);
      ("flow", Test_flow.suite);
      ("obs", Test_obs.suite);
      ("ledger", Test_ledger.suite);
      ("fault", Test_fault.suite);
      ("parallel", Test_parallel.suite);
      ("batch", Test_batch.suite);
      ("service", Test_service.suite);
      ("diff", Test_diff.suite);
    ]
