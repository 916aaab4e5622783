(* Workload [campaign]: fault campaigns, i.e. many short faulty runs.
   Every round runs each campaign once, in a seeded order: the stuck-at
   campaigns on the gate netlist and the SEU campaigns of the four cycle
   engines, all serial.  Each campaign keeps its seed for the whole run,
   so every round must give the same report. *)

open Common

(* (design, test-bench cycles, max_faults); HCOR runs before and after
   gate optimization. *)
let stuck_at = [ ("hcor", 24, 15); ("dect", 64, 5); ("rs", 45, 150); ("cpu", 64, 200) ]

let seu_cycles = function "rs" -> 45 | _ -> 64

(* Runs per SEU campaign, sized on the seed commit so a campaign takes
   about 50 ms: hundreds on the compiled and native engines, a few to
   tens on the slower ones. *)
let seu_runs = function
  | "compiled", "dect" -> 100
  | "compiled", "rs" -> 500
  | "compiled", _ -> 250
  | "native", "dect" -> 300
  | "native", "rs" -> 750
  | "native", _ -> 500
  | "interp", "dect" -> 5
  | "interp", "rs" -> 75
  | "interp", _ -> 40
  | "rtl", "dect" -> 6
  | "rtl", "rs" -> 38
  | _ -> 30

let seu_engines = [ "compiled"; "interp"; "native"; "rtl" ]
let seu_designs = [ "dect"; "rs"; "cpu" ]

(* Rounds at the nominal run length. *)
let nominal_rounds = 28

(* Chunks per campaign after its prologue, a few milliseconds each on
   the seed commit. *)
let max_chunks = 15

type campaign = Stuck_at of string * int * int | Seu of string * string

let name = function
  | Stuck_at (d, _, _) -> "stuck-at." ^ d
  | Seu (e, d) -> Printf.sprintf "seu.%s.%s" e d

let campaigns =
  List.map (fun (d, c, m) -> Stuck_at (d, c, m)) stuck_at
  @ List.concat_map (fun e -> List.map (fun d -> Seu (e, d)) seu_designs) seu_engines

(* The cycles a campaign simulated, so that a seed whose faults stop
   early does not read as a slower engine.  A stuck-at fault stops at
   the cycle that exposed it; an SEU run stopped by an engine diagnostic
   is counted up to its injection cycle, and every other run steps the
   whole window (the watchdog judges finished histories). *)
let stuck_cycles_run (r : Ocapi_fault.stuck_report) =
  List.fold_left
    (fun acc (x : Ocapi_fault.stuck_record) ->
      acc
      +
      match x.sr_outcome with
      | Ocapi_fault.Sa_detected { at_cycle; _ } -> at_cycle + 1
      | Sa_undetected | Sa_diagnosed _ -> r.st_vectors)
    0 r.st_records

let seu_cycles_run (r : Ocapi_fault.seu_report) =
  List.fold_left
    (fun acc (x : Ocapi_fault.seu_run) ->
      acc
      +
      match x.run_outcome with
      | Ocapi_fault.Detected { Ocapi_error.e_code; _ } when e_code <> Ocapi_error.Watchdog ->
        x.run_cycle + 1
      | _ -> r.seu_cycles)
    0 r.seu_records

let stuck_json name (r : Ocapi_fault.stuck_report) =
  List.map
    (fun (k, v) -> ("stuck_at." ^ name ^ "." ^ k, v))
    [
      ("universe", Json.Int r.st_universe);
      ("collapsed", Json.Int r.st_collapsed);
      ("simulated", Json.Int r.st_simulated);
      ("detected", Json.Int r.st_detected);
      ("coverage", Json.Float r.st_coverage);
    ]

type report = Stuck of (string * Ocapi_fault.stuck_report) list | Seu_report of Ocapi_fault.seu_report

let run ~seed ~scale ~traced =
  require_native ();
  let seeds = rng ~seed 2 in
  let seed_of = List.map (fun c -> (c, 1 + Random.State.int seeds 1_000_000)) campaigns in
  let order = rng ~seed 3 in
  let op c = "campaign:" ^ name c in
  List.iter (fun c -> attempt (op c)) campaigns;
  (* Set-up builds every campaign system, one per campaign. *)
  let setup = new_setup () in
  let build_all () =
    List.map
      (fun c ->
        ( c,
          setup_step setup (fun () ->
              build_span (match c with Stuck_at (d, _, _) | Seu (_, d) -> d)) ))
      campaigns
  in
  let systems = setup_rep setup build_all in
  (* Untimed warm-up: one native session per design compiles its plugin
     into an empty artifact cache, from which the timed native campaigns
     load it, as a user's campaigns do after the first. *)
  fresh_native_dir ();
  span "warm-up" ~harness:true (fun () ->
      let (module N : Ocapi_engine.ENGINE) = engine "native" in
      List.iter
        (fun d ->
          let sys = build d in
          (span "native.compile" ~key:d (fun () -> N.make sys)).Ocapi_engine.ses_close ())
        seu_designs);
  let seu ~domains ?replicate ?progress (e, d) sys =
    span "fault.seu_campaign" ~key:(Printf.sprintf "%s.%s.d%d" e d domains) (fun () ->
        Ocapi_fault.seu_campaign ~engine:e ~runs:(seu_runs (e, d))
          ~seed:(List.assoc (Seu (e, d)) seed_of)
          ~domains ?replicate ?progress sys ~cycles:(seu_cycles d))
  in
  (* One campaign: its report, its wall time and its chunk times.  The
     first chunk is the prologue up to the first fault or run (session
     make, fault-free run and, for stuck-at, synthesis and fault
     collapsing); the faults or runs follow in at most [max_chunks]
     groups of consecutive ones, stamped by the [progress] hook. *)
  let run_one c =
    let sys = List.assoc c systems in
    let calls = ref [] in
    let progress _ = calls := now () :: !calls in
    let t0 = ref 0.0 in
    let report, dt =
      sample @@ fun () ->
      t0 := now ();
      match c with
      | Stuck_at ("hcor", cycles, max_faults) ->
        let r =
          span "fault.stuck_at_optimized" ~key:"hcor" (fun () ->
              Ocapi_fault.stuck_at_optimized ~max_faults ~seed:(List.assoc c seed_of)
                ~progress sys ~cycles)
        in
        Stuck [ ("hcor-pre", r.sc_pre); ("hcor-post", r.sc_post) ]
      | Stuck_at (d, cycles, max_faults) ->
        Stuck
          [
            ( d,
              span "fault.stuck_at_system" ~key:d (fun () ->
                  Ocapi_fault.stuck_at_system ~max_faults ~seed:(List.assoc c seed_of)
                    ~macro_of_kernel:(macro_of_kernel d) ~progress sys ~cycles) );
          ]
      | Seu (e, d) -> Seu_report (seu ~domains:1 ~progress (e, d) sys)
    in
    let t1 = now () in
    let calls = Array.of_list (List.rev !calls) in
    let m = Array.length calls in
    let k = min m max_chunks in
    let points = Array.concat [ [| !t0 |]; Array.init k (fun j -> calls.(j * m / k)); [| t1 |] ] in
    (report, dt, chunk_times points)
  in
  let reports = Hashtbl.create 16 and walls = Hashtbl.create 16 and chunks = Hashtbl.create 16 in
  Gc.full_major ();
  span "timed" ~harness:true (fun () ->
      for _ = 1 to rounds ~scale nominal_rounds do
        List.iteri
          (fun i c ->
            (* Set-up takes about 5 ms: it repeats before every fourth
               campaign, so its repetitions spread over the round. *)
            if i mod 4 = 0 then ignore (setup_rep setup build_all);
            Recorder.set_op (op c);
            match guard [ op c ] (fun () -> run_one c) with
            | None -> ()
            | Some (report, dt, times) ->
              add_sample walls c dt;
              add_sample chunks c times;
              (match Hashtbl.find_opt reports c with
              | None -> Hashtbl.replace reports c report
              | Some r -> check (op c) (r = report) (lazy "two rounds of one seed gave different reports")))
          (shuffle order campaigns)
      done);
  check_no_fallback (List.map (fun d -> op (Seu ("native", d))) seu_designs);
  (* Outcomes add up, and for seed 1 they are the committed ones. *)
  let applies = seed = 1 in
  let rates = Hashtbl.create 16 in
  Hashtbl.iter
    (fun c report ->
      let best = best_chunks (Hashtbl.find chunks c) in
      let total = Array.fold_left ( +. ) 0.0 best in
      (* the faults or runs alone, without the prologue *)
      let items_s = total -. best.(0) in
      let per_item n = items_s /. float_of_int (max 1 n) in
      match (c, report) with
      | Stuck_at (d, _, _), Stuck rs ->
        let simulated = ref 0 and gate_cycles = ref 0 in
        List.iter
          (fun (n, (r : Ocapi_fault.stuck_report)) ->
            check (op c)
              (r.st_detected + r.st_undetected + r.st_diagnosed = r.st_simulated)
              (lazy "stuck-at outcomes do not add up to the faults simulated");
            List.iter (fun (k, v) -> expect ~workload:"campaign" ~op:(op c) ~applies k v) (stuck_json n r);
            simulated := !simulated + r.st_simulated;
            gate_cycles := !gate_cycles + stuck_cycles_run r)
          rs;
        (* Without the prologue: DECT's synthesis and fault collapsing
           take 2/3 of its campaign, and with 5 faults the cycles they
           step vary by 40% between seeds. *)
        Hashtbl.replace rates ("gate", d) (float_of_int !gate_cycles /. items_s);
        set_layer ("fault.stuck_at.fault_ms." ^ d) (1e3 *. per_item !simulated)
      | Seu (e, d), Seu_report r ->
        check (op c)
          (r.seu_masked + r.seu_sdc + r.seu_detected = r.seu_runs)
          (lazy "SEU outcomes do not add up to the runs");
        List.iter
          (fun (k, v) ->
            expect ~workload:"campaign" ~op:(op c) ~applies
              (Printf.sprintf "seu.%s.%s.%s" e d k)
              (Json.Int v))
          [ ("masked", r.seu_masked); ("sdc", r.seu_sdc); ("detected", r.seu_detected) ];
        Hashtbl.replace rates (e, d) (float_of_int (seu_cycles_run r) /. total);
        set_layer (Printf.sprintf "fault.seu.run_us.%s.%s" e d) (1e6 *. per_item r.seu_runs)
      | _ -> ())
    reports;
  if traced then
    span "probes" ~harness:true (fun () ->
        (* The compiled campaigns again on 2 worker domains: the report
           must equal the serial one, and the walls give the parallel
           speedup. *)
        List.iter
          (fun d ->
            let c = Seu ("compiled", d) in
            Recorder.set_op (op c);
            match (Hashtbl.find_opt reports c, Hashtbl.find_opt walls c) with
            | Some (Seu_report serial), Some serial_walls ->
              ignore
                (guard [ op c ] (fun () ->
                     let replica = build d in
                     let r, d2 =
                       time (fun () ->
                           seu ~domains:2 ~replicate:(fun () -> replica) ("compiled", d)
                             (List.assoc c systems))
                     in
                     check (op c) (r = serial) (lazy "2-domain SEU report differs from the serial one");
                     set_layer ("parallel.seu_speedup_d2." ^ d) (Stats.minimum serial_walls /. d2)))
            | _ -> ())
          seu_designs);
  let timed_s = Hashtbl.fold (fun _ ts acc -> List.fold_left ( +. ) acc ts) walls 0.0 in
  { setup_s = setup_seconds setup; rates = engine_rates rates; timed_s }
