type engine =
  | Interpreted_objects
  | Compiled_code
  | Native_code
  | Rt_event_driven
  | Gate_netlist

let engine_label = function
  | Interpreted_objects -> "OCaml (interpreted obj)"
  | Compiled_code -> "OCaml (compiled)"
  | Native_code -> "OCaml (native)"
  | Rt_event_driven -> "VHDL (RT)"
  | Gate_netlist -> "Verilog (netlist)"

let all_engines =
  [ Interpreted_objects; Compiled_code; Native_code; Rt_event_driven;
    Gate_netlist ]

type measurement = {
  m_engine : engine;
  m_cycles : int;
  m_seconds : float;
  m_cycles_per_second : float;
  m_process_bytes : int;
  m_source_lines : int;
}

let timed f =
  let t0 = Unix.gettimeofday () in
  f ();
  Unix.gettimeofday () -. t0

(* The registry engine behind each Table 1 row.  Since the gate engine
   joined the registry every row is measured through the same uniform
   session loop — no per-representation harness remains here. *)
let session_engine = function
  | Interpreted_objects -> "interp"
  | Compiled_code -> "compiled"
  | Native_code -> "native"
  | Rt_event_driven -> "rtl"
  | Gate_netlist -> "gate"

let measure ?(ocaml_source_lines = 0) ?macro_of_kernel build engine ~cycles =
  (* Each row measures its own build: a design memoizes state for every
     engine (the interpreter's evaluation plans in its SFGs, its nets'
     formats), so on a shared system a row would also count what the
     rows before it built. *)
  let sys = build () in
  (* The paper reports generated-HDL line counts for the RT and netlist
     rows; render those before the session opens. *)
  let generated_lines =
    match engine with
    | Rt_event_driven -> Vhdl.line_count (Vhdl.of_system sys)
    | Gate_netlist ->
      let nl, _report = Synthesize.synthesize ?macro_of_kernel sys in
      Verilog.line_count (Verilog.of_netlist nl)
    | Interpreted_objects | Compiled_code | Native_code -> 0
  in
  let (module E : Ocapi_engine.ENGINE) =
    Ocapi_engine.get (session_engine engine)
  in
  let ses = E.make sys in
  let seconds, source_lines, process_bytes =
    Fun.protect ~finally:ses.Ocapi_engine.ses_close (fun () ->
        let open Ocapi_engine in
        ses.ses_reset ();
        for _ = 1 to min 16 cycles do ses.ses_step () done (* warm-up *);
        ses.ses_reset ();
        let s =
          timed (fun () ->
              for _ = 1 to cycles do ses.ses_step () done)
        in
        (* Read after the run, from reset: what the run built (the
           interpreter's evaluation plans, first built when a transition
           first fires) counts, the values it left do not. *)
        ses.ses_reset ();
        let resident = ses.ses_resident_words () * (Sys.word_size / 8) in
        let lines =
          match engine with
          | Interpreted_objects -> ocaml_source_lines
          | Compiled_code | Native_code ->
            (* The static program size stands in for the paper's
               generated-C++ line count. *)
            Option.value ~default:0 ses.ses_static_size
          | Rt_event_driven | Gate_netlist -> generated_lines
        in
        (s, lines, resident))
  in
  {
    m_engine = engine;
    m_cycles = cycles;
    m_seconds = seconds;
    m_cycles_per_second =
      (if seconds > 0. then float_of_int cycles /. seconds else infinity);
    m_process_bytes = process_bytes;
    m_source_lines = source_lines;
  }

let human_speed v =
  if v >= 1e6 then Printf.sprintf "%.1fM" (v /. 1e6)
  else if v >= 1e3 then Printf.sprintf "%.1fK" (v /. 1e3)
  else Printf.sprintf "%.0f" v

let pp_table ppf ~design ~gates ms =
  Format.fprintf ppf
    "@[<v>%-8s %-7s %-26s %10s %14s %12s@,%s@," "Design" "Size" "Type"
    "Src lines" "Speed (cyc/s)" "Process"
    (String.make 82 '-');
  List.iter
    (fun m ->
      Format.fprintf ppf "%-8s %-7s %-26s %10d %14s %9.1fMB@," design
        (Printf.sprintf "%dK" (gates / 1000))
        (engine_label m.m_engine) m.m_source_lines
        (human_speed m.m_cycles_per_second)
        (float_of_int m.m_process_bytes /. 1048576.);
      ignore m.m_seconds)
    ms;
  Format.fprintf ppf "@]"
