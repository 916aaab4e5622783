(* Names only [Metrics] from the ocapi library, as a Table 1 program
   does; [Flow], whose initializer registers the native and gate
   engines, is not named here. *)
let () =
  ignore (Metrics.engine_label Metrics.Gate_netlist);
  print_endline (String.concat " " (Ocapi_engine.names ()))
