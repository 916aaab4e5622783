(* Workload [table1]: the paper's Table 1.  One session per (engine x
   design) cell, elaborated once in set-up, then stepped from reset for
   a fixed cycle count in rounds over the cells.  Cache off, serial. *)

open Common

(* Cycles per sample, sized on the seed commit so a sample takes about
   20 ms (15 ms on the native engine, whose long histories cost memory).
   DECT steps at least 1000 cycles on every engine so each sample gets
   past the idle preamble of its burst, which makes the gate engine's
   first 300 cycles cheap. *)
let cycles = function
  | "interp", "hcor" -> 950
  | "compiled", "hcor" -> 8250
  | "native", "hcor" -> 45000
  | "rtl", "hcor" -> 3500
  | "gate", "hcor" -> 700
  | "interp", "dect" -> 1000
  | "compiled", "dect" -> 2250
  | "native", "dect" -> 16000
  | "rtl", "dect" -> 1000
  | "gate", "dect" -> 1000
  | "interp", "rs" -> 2700
  | "compiled", "rs" -> 9500
  | "native", "rs" -> 25000
  | "rtl", "rs" -> 1200
  | "gate", "rs" -> 1050
  | "interp", "cpu" -> 2100
  | "compiled", "cpu" -> 9500
  | "native", "cpu" -> 27500
  | "rtl", "cpu" -> 2600
  | _ -> 8500

(* Chunks per sample, each about 2-4 ms on the seed commit. *)
let chunks = function
  | "gate", "dect" -> 250
  | ("interp" | "rtl"), "dect" -> 20
  | _ -> 10

(* Rounds between two samples of a cell: the gate engine's 1000 DECT
   cycles take about 0.9 s, as long as the other 19 cells' samples
   together, so that cell is sampled every other round. *)
let every = function "gate", "dect" -> 2 | _ -> 1

(* Rounds at the nominal run length. *)
let nominal_rounds = 26

(* The untimed cross-engine check window. *)
let window_cycles = 200

let prefix n h = List.map (fun (p, l) -> (p, List.filter (fun (c, _) -> c < n) l)) h

let run ~seed ~scale ~traced =
  require_native ();
  let cells = List.concat_map (fun d -> List.map (fun e -> (e, d)) engines) designs in
  let order = shuffle (rng ~seed 1) cells in
  let op (e, d) = Printf.sprintf "table1:%s.%s" e d in
  let key (e, d) = e ^ "." ^ d in
  List.iter (fun cell -> attempt (op cell)) cells;
  (* Set-up makes every session.  The first set-up compiles the native
     plugins into an empty artifact cache; the later ones load them, as
     every session after the first does for a user. *)
  let setup = new_setup () in
  let make_all () =
    List.map
      (fun ((e, d) as cell) ->
        Recorder.set_op (op cell);
        let ses =
          guard [ op cell ] (fun () ->
              let sys = setup_step setup (fun () -> build_span d) in
              let (module E : Ocapi_engine.ENGINE) = engine e in
              setup_step setup (fun () ->
                  span "engine.make" ~key:(key cell) (fun () -> E.make sys)))
        in
        (cell, ses))
      order
  in
  let close_all = List.iter (fun (_, s) -> Option.iter (fun s -> s.Ocapi_engine.ses_close ()) s) in
  fresh_native_dir ();
  let sessions = setup_rep setup make_all in
  (* Untimed checks: every engine agrees over the window, and the
     interpreted window histories and gate counts match the committed
     values. *)
  let windows = Hashtbl.create 4 in
  span "checks" ~harness:true (fun () ->
      List.iter
        (fun d ->
          let cell_ops = List.map (fun e -> op (e, d)) engines in
          Recorder.set_op ("table1:check." ^ d);
          match
            guard cell_ops (fun () ->
                let sys = build_span d in
                ignore (span "sched.digest" ~key:d (fun () -> Cycle_system.digest sys));
                let mismatches =
                  span "flow.engine_disagreements" ~key:d (fun () ->
                      Flow.engine_disagreements sys ~cycles:window_cycles)
                in
                let h =
                  span "flow.simulate" ~key:d (fun () ->
                      Flow.simulate ~engine:"interp" sys ~cycles:window_cycles)
                in
                let _, report =
                  span "synth.synthesize" ~key:d (fun () ->
                      Synthesize.synthesize ~macro_of_kernel:(macro_of_kernel d) sys)
                in
                (mismatches, h, report.Synthesize.total.Netlist.gate_equivalents))
          with
          | None -> ()
          | Some (mismatches, h, gates) ->
            Hashtbl.replace windows d h;
            List.iter
              (fun m -> fail_all cell_ops (Format.asprintf "%a" Flow.pp_mismatch m))
              mismatches;
            expect ~workload:"table1" ~op:(op ("interp", d)) ~applies:true
              ("histories_md5." ^ d)
              (Json.String
                 (Digest.to_hex
                    (Digest.string
                       (Json.to_string
                          (Flow.simulate_result_json ~engine:"interp"
                             ~cycles:window_cycles h)))));
            expect ~workload:"table1" ~op:(op ("gate", d)) ~applies:true
              ("gate_equivalents." ^ d) (Json.Int gates))
        designs;
      if traced then begin
        (* Layer probes outside the timed samples: per design, a native
           plugin compile into an empty artifact cache, then a load from
           it; the IR gate-optimization pass on HCOR. *)
        let (module N : Ocapi_engine.ENGINE) = engine "native" in
        fresh_native_dir ();
        List.iter
          (fun layer ->
            List.iter
              (fun d ->
                let sys = build d in
                (span layer ~key:d (fun () -> N.make sys)).Ocapi_engine.ses_close ())
              designs)
          [ "native.compile"; "native.load" ];
        let ir = Ocapi_ir.behavioral (build "hcor") in
        let gate =
          span "ir.lower_to_gate" ~key:"hcor" (fun () ->
              Ocapi_ir.apply Ocapi_ir.lower_to_gate ir)
        in
        ignore
          (span "ir.optimize_gates" ~key:"hcor" (fun () ->
               Ocapi_ir.apply Ocapi_ir.optimize_gates gate))
      end);
  let live = List.filter_map (fun (c, s) -> Option.map (fun s -> (c, s)) s) sessions in
  let rounds = rounds ~scale nominal_rounds in
  (* Before each sample (untimed) the session is reset, freeing its
     histories; the sample is timed in chunks of equal cycle counts.  A
     cell's last sample must reproduce the window histories on its first
     cycles. *)
  let step_times = Hashtbl.create 32 and timed_s = ref 0.0 in
  let sample_cell ~last (((_, d) as cell), ses) =
    let n = cycles cell and k = chunks cell in
    span "engine.reset" ~key:(key cell) ses.Ocapi_engine.ses_reset;
    let points = Array.make (k + 1) 0.0 in
    let (), dt =
      sample (fun () ->
          span "engine.step" ~key:(key cell) ~work:n (fun () ->
              points.(0) <- now ();
              for j = 1 to k do
                for _ = 1 + (n * (j - 1) / k) to n * j / k do
                  ses.Ocapi_engine.ses_step ()
                done;
                points.(j) <- now ()
              done))
    in
    timed_s := !timed_s +. dt;
    add_sample step_times cell (chunk_times points);
    check (op cell)
      (ses.Ocapi_engine.ses_cycle () = n)
      (lazy "cycle counter disagrees with the cycles stepped");
    match Hashtbl.find_opt windows d with
    | Some w when last -> (
      let h = span "engine.histories" ~key:(key cell) ses.Ocapi_engine.ses_histories in
      match Flow.first_history_mismatch w (prefix window_cycles h) with
      | None -> ()
      | Some (probe, cycle, detail) ->
        fail (op cell)
          (Printf.sprintf "probe %s differs from the window at cycle %s: %s" probe
             (match cycle with Some c -> string_of_int c | None -> "-")
             detail))
    | _ -> ()
  in
  (* Every cell once per round (or every other round), so a slow
     stretch of the host spreads over the cells. *)
  Gc.full_major ();
  span "timed" ~harness:true (fun () ->
      for r = 1 to rounds do
        close_all (setup_rep setup make_all);
        List.iter
          (fun ((cell, _) as live_cell) ->
            if (r - 1) mod every cell = 0 then begin
              Recorder.set_op (op cell);
              ignore
                (guard [ op cell ] (fun () ->
                     sample_cell ~last:(r + every cell > rounds) live_cell))
            end)
          live
      done);
  close_all sessions;
  check_no_fallback (List.map (fun d -> op ("native", d)) designs);
  let rates = Hashtbl.create 32 in
  Hashtbl.iter
    (fun cell rounds -> Hashtbl.replace rates cell (float_of_int (cycles cell) /. best_total rounds))
    step_times;
  { setup_s = setup_seconds setup; rates = engine_rates rates; timed_s = !timed_s }
