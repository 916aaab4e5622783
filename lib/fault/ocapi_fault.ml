(* Fault injection and fault simulation over the OCAPI engines. *)

(* --- stuck-at fault simulation ------------------------------------------- *)

type stuck_outcome =
  | Sa_detected of { at_cycle : int; at_output : string }
  | Sa_undetected
  | Sa_diagnosed of Ocapi_error.t

type stuck_record = {
  sr_label : string;
  sr_fault : Netlist.fault;
  sr_outcome : stuck_outcome;
}

type stuck_report = {
  st_design : string;
  st_universe : int;
  st_collapsed : int;
  st_simulated : int;
  st_detected : int;
  st_undetected : int;
  st_diagnosed : int;
  st_vectors : int;
  st_coverage : float;
  st_records : stuck_record list;
}

(* Deterministic sample of [k] elements (Fisher-Yates prefix). *)
let sample_list rng k l =
  let arr = Array.of_list l in
  let n = Array.length arr in
  if k >= n then l
  else begin
    for i = 0 to k - 1 do
      let j = i + Random.State.int rng (n - i) in
      let tmp = arr.(i) in
      arr.(i) <- arr.(j);
      arr.(j) <- tmp
    done;
    Array.to_list (Array.sub arr 0 k)
  end

let check_max_faults =
  Option.iter (Ocapi_error.check_count ~engine:"fault" "stuck-at campaign: max_faults")

(* Parallel-pattern single-fault propagation: the faults run in
   batches of up to [Netlist.Sim.lanes], one fault per lane, each batch
   replaying the vectors once until every lane is detected.  A lane's
   first differing (cycle, output), in output declaration order, is
   recorded exactly as a lone run of its fault records it. *)
let stuck_at_netlist ?max_faults ?(seed = 1) ?(domains = 1) ?progress nl
    ~vectors =
  check_max_faults max_faults;
  let out_names = Array.of_list (List.map fst (Netlist.outputs_list nl)) in
  let n_cycles = Array.length vectors in
  let replay_cycle sim c =
    List.iter (fun (name, v) -> Netlist.Sim.set_input sim name v) vectors.(c);
    Netlist.Sim.settle sim
  in
  (* One levelization: every worker's simulator is an instance of it. *)
  let topology = Netlist.Sim.topology nl in
  let ports = Array.map (Netlist.Sim.output_port topology) out_names in
  (* Fault-free reference: every output word of every cycle.  Computed
     once on the coordinating domain's own simulator and shared
     read-only with the workers. *)
  let sim0 = Netlist.Sim.instantiate topology in
  let golden =
    Array.init n_cycles (fun c ->
        replay_cycle sim0 c;
        let outs = Array.map (Netlist.Sim.read sim0 ~signed:false) ports in
        Netlist.Sim.clock sim0;
        outs)
  in
  let universe = Netlist.fault_universe nl in
  let collapsed = Netlist.collapse_faults nl universe in
  let simulated =
    match max_faults with
    | Some k when k < List.length collapsed ->
      sample_list (Random.State.make [| seed; 0x5a |]) k collapsed
    | _ -> collapsed
  in
  let faults = Array.of_list simulated in
  let n_faults = Array.length faults in
  (* Lanes share one evaluation schedule.  On a combinational cycle the
     state a settle reaches can depend on that schedule, so a netlist
     with cycles runs one fault per batch. *)
  let batch =
    if snd (Netlist.combinational_depth nl) > 0 then 1 else Netlist.Sim.lanes
  in
  (* Faults [first, first + k) on lanes [0, k) of a worker's simulator.
     Everything the body touches beyond [sim] is read-only ([nl], the
     topology, [ports], [vectors], [golden]), so per-worker instances
     are the whole isolation story. *)
  let run_batch sim first k =
    let outcomes = Array.make k Sa_undetected in
    let live = ref (if k >= Netlist.Sim.lanes then -1 else (1 lsl k) - 1) in
    (try
       Netlist.Sim.clear_fault sim;
       Netlist.Sim.reset sim;
       for l = 0 to k - 1 do
         Netlist.Sim.inject sim ~lane:l faults.(first + l)
       done;
       let c = ref 0 in
       while !live <> 0 && !c < n_cycles do
         replay_cycle sim !c;
         Array.iteri
           (fun j port ->
             let d = Netlist.Sim.output_diff sim port golden.(!c).(j) land !live in
             if d <> 0 then begin
               for l = 0 to k - 1 do
                 if d land (1 lsl l) <> 0 then
                   outcomes.(l) <- Sa_detected { at_cycle = !c; at_output = out_names.(j) }
               done;
               live := !live land lnot d
             end)
           ports;
         if !live <> 0 then Netlist.Sim.clock sim;
         incr c
       done
     with Ocapi_error.Error d ->
       (* An acyclic settle evaluates each element at most once, so a
          batch of several faults stops on a diagnostic only when the
          budget is below the element count: the first settle after
          [reset] then stops every lone run the same way. *)
       for l = 0 to k - 1 do
         if !live land (1 lsl l) <> 0 then outcomes.(l) <- Sa_diagnosed d
       done);
    outcomes
  in
  let n_batches = (n_faults + batch - 1) / batch in
  let batches =
    Ocapi_parallel.map_tasks ~domains
      ~make_state:(fun k ->
        if k = 0 && domains <= 1 then sim0
        else Netlist.Sim.instantiate topology)
      ~tasks:n_batches
      ~f:(fun state b ->
        let first = b * batch in
        let k = min batch (n_faults - first) in
        (match progress with
        | Some f -> for i = first to first + k - 1 do f i done
        | None -> ());
        let outcomes = run_batch state first k in
        if Ocapi_obs.enabled () then
          Array.iter
            (fun o ->
              Ocapi_obs.count
                (match o with
                | Sa_detected _ -> "fault.stuck.detected"
                | Sa_undetected -> "fault.stuck.undetected"
                | Sa_diagnosed _ -> "fault.stuck.diagnosed"))
            outcomes;
        outcomes)
      ()
  in
  let outcomes = Array.concat (Array.to_list batches) in
  let records =
    List.init n_faults (fun i ->
        let f = faults.(i) in
        { sr_label = Netlist.fault_label nl f; sr_fault = f;
          sr_outcome = outcomes.(i) })
  in
  let n_of p = List.length (List.filter p records) in
  let detected =
    n_of (fun r -> match r.sr_outcome with Sa_detected _ -> true | _ -> false)
  in
  let diagnosed =
    n_of (fun r -> match r.sr_outcome with Sa_diagnosed _ -> true | _ -> false)
  in
  {
    st_design = Netlist.name nl;
    st_universe = List.length universe;
    st_collapsed = List.length collapsed;
    st_simulated = n_faults;
    st_detected = detected;
    st_undetected = n_faults - detected - diagnosed;
    st_diagnosed = diagnosed;
    st_vectors = n_cycles;
    st_coverage =
      (if n_faults = 0 then 0.0
       else float_of_int detected /. float_of_int n_faults);
    st_records = records;
  }

(* The system's own stimuli, read from its columns as the test-bench
   generator does, keyed to the netlist input-bus naming.  Checks the
   campaign's counts first, so a bad one fails before any work. *)
let record_vectors ?max_faults sys ~cycles =
  Ocapi_error.check_count ~engine:"fault" "stuck-at campaign: cycles" cycles;
  check_max_faults max_faults;
  let vectors = Array.make cycles [] in
  List.iter
    (fun (c, name, v) -> vectors.(c) <- (name, Fixed.mantissa v) :: vectors.(c))
    (Cycle_system.stimuli sys ~cycles);
  vectors

let stuck_at_system ?max_faults ?seed ?macro_of_kernel ?domains ?progress sys
    ~cycles =
  let vectors = record_vectors ?max_faults sys ~cycles in
  let nl, _report = Synthesize.synthesize ?macro_of_kernel sys in
  stuck_at_netlist ?max_faults ?seed ?domains ?progress nl ~vectors

type stuck_compare = {
  sc_design : string;
  sc_pre : stuck_report;
  sc_post : stuck_report;
  sc_provenance : Ocapi_ir.pass_record list;
}

let stuck_at_optimized ?max_faults ?seed ?domains ?progress sys ~cycles =
  let vectors = record_vectors ?max_faults sys ~cycles in
  (* Lower through the IR passes so the optimized netlist carries a
     provenance chain back to the behavioral root. *)
  let gate = Ocapi_ir.apply Ocapi_ir.lower_to_gate (Ocapi_ir.behavioral sys) in
  let opt = Ocapi_ir.apply Ocapi_ir.optimize_gates gate in
  let netlist_of d =
    match Ocapi_ir.to_netlist d with
    | Some nl -> nl
    | None -> assert false (* both designs are at the gate level *)
  in
  let campaign nl =
    stuck_at_netlist ?max_faults ?seed ?domains ?progress nl ~vectors
  in
  let pre = campaign (netlist_of gate) in
  let post = campaign (netlist_of opt) in
  {
    sc_design = Cycle_system.name sys;
    sc_pre = pre;
    sc_post = post;
    sc_provenance = opt.Ocapi_ir.ir_provenance;
  }

(* --- SEU campaigns -------------------------------------------------------- *)

type seu_target =
  | Reg_bit of { t_reg : int; t_bit : int }
  | State_bit of { t_comp : int; t_bit : int }

type seu_outcome =
  | Masked
  | Sdc of { probe : string; cycle : int option; detail : string }
  | Detected of Ocapi_error.t

type seu_run = {
  run_index : int;
  run_target : seu_target;
  run_label : string;
  run_cycle : int;
  run_outcome : seu_outcome;
}

type seu_report = {
  seu_design : string;
  seu_engine : string;
  seu_runs : int;
  seu_cycles : int;
  seu_seed : int;
  seu_masked : int;
  seu_sdc : int;
  seu_detected : int;
  seu_records : seu_run list;
}

(* The engines hold a timed component's state as a 16-bit word (the RTL
   elaboration's state signal format); every bit of that word is a
   flippable target.  Flips landing outside the encoded state indices
   are detected by the engine's state decode ([Invalid_state]).
   Single-state FSMs carry no state register at all. *)
let state_register_width = 16
let state_bits n = if n <= 1 then 0 else state_register_width

(* Engine instances (compiled program, RTL elaboration) are built once
   per campaign as an [Ocapi_engine.session] and reused run after run;
   the uniform poke surface of the session replaces the per-engine
   harness dispatch. *)
let make_session ~engine sys =
  let (module E : Ocapi_engine.ENGINE) = Ocapi_engine.get engine in
  E.make sys

let poke_target ses = function
  | Reg_bit { t_reg; t_bit } ->
    ses.Ocapi_engine.ses_poke_register_bit t_reg ~bit:t_bit
  | State_bit { t_comp; t_bit } ->
    let s' =
      ses.Ocapi_engine.ses_component_state t_comp lxor (1 lsl t_bit)
    in
    ses.Ocapi_engine.ses_force_component_state t_comp s'

(* The target universe of a system: every bit of every register, every
   bit of every multi-state FSM's encoded state index. *)
let seu_targets sys =
  let regs = Cycle_system.all_regs sys in
  let reg_targets =
    List.concat
      (List.mapi
         (fun i r ->
           let f = Signal.Reg.fmt r in
           List.init f.Fixed.width (fun b ->
               ( Reg_bit { t_reg = i; t_bit = b },
                 Printf.sprintf "%s[%d]" (Signal.Reg.name r) b )))
         regs)
  in
  let state_targets =
    List.concat
      (List.mapi
         (fun i (cname, fsm) ->
           let bits = state_bits (List.length (Fsm.states fsm)) in
           List.init bits (fun b ->
               ( State_bit { t_comp = i; t_bit = b },
                 Printf.sprintf "%s.state[%d]" cname b )))
         (Cycle_system.timed_components sys))
  in
  Array.of_list (reg_targets @ state_targets)

(* SEU reports are memoized through the shared [Flow.Cache] lifecycle:
   an enabled cache serves a repeated campaign (same design digest,
   stimuli, engine, run count, seed, cycle count) from memory or disk,
   and identical campaigns in flight on other domains coalesce to one
   execution.  The whole report is a function of the cache key — the
   schedule is drawn from [seed] alone and parallel runs are
   bit-identical to serial ones — so [domains] stays out of the key. *)
module Seu_store = Flow.Cache.Store (struct
  type t = seu_report

  let namespace = "seu"
end)

let seu_key ~engine ~runs ~seed sys ~cycles =
  Flow.Cache.key_of
    ~engine:(String.concat "+" [ "seu"; engine; "runs" ^ string_of_int runs ])
    ~seed sys ~cycles

(* --- running one faulty run ---------------------------------------------------- *)

(* The fault-free run takes a checkpoint every [stride] cycles, at most
   [max_checkpoints] per session: every cycle on windows up to 64. *)
let max_checkpoints = 64

(* A session's fault-free run: its trace, frozen, and, when
   [checkpointed] and the session can copy its state, checkpoints at
   cycles [0, stride, 2 * stride, ...] with, per checkpoint and probe,
   the index of the first token at or after its cycle. *)
type golden = {
  g_trace : Cycle_system.Trace.t;
  g_stride : int;
  g_checkpoints : Ocapi_engine.checkpoint array;
  g_starts : int array array;
}

let golden_run ~checkpointed ses ~cycles =
  let stride = (cycles + max_checkpoints - 1) / max_checkpoints in
  let checkpoints = ref [] in
  let trace =
    Ocapi_engine.run ses ~cycles ~progress:(fun c ->
        if checkpointed && c mod stride = 0 then
          Option.iter
            (fun ck -> checkpoints := ck :: !checkpoints)
            (ses.Ocapi_engine.ses_checkpoint ()))
  in
  let checkpoints = Array.of_list (List.rev !checkpoints) in
  {
    g_trace = trace;
    g_stride = stride;
    g_checkpoints = checkpoints;
    g_starts =
      Array.map
        (fun ck ->
          Array.init (Cycle_system.Trace.probe_count trace) (fun p ->
              Cycle_system.Trace.index_from trace p ~cycle:ck.Ocapi_engine.ck_cycle))
        checkpoints;
  }

(* The oracle: compare a faulty run's probe tokens with the fault-free
   run's, probe by probe.  A differing token value at the same cycle is
   silent data corruption; a structural divergence — tokens shifted in
   time, missing, or an output stream that stops — is what a
   system-level watchdog monitor catches, so it is classified as
   detected.

   The faulty run started from reset, or restored checkpoint [j] and
   stepped to the end, or to checkpoint [k] where its state rejoined
   the fault-free run's.  Its tokens are the trace [own], then, when it
   converged, the golden trace's from [k] on, read in place.  They are
   compared with the golden tokens from the run's start on: [start p]
   is probe [p]'s first golden token at or after it.  Both traces come
   from one session, so the probes are the same. *)
let classify ~engine golden ~own ~start ~converged =
  let module T = Cycle_system.Trace in
  let g = golden.g_trace in
  let structural p cycle detail =
    Detected
      (Ocapi_error.make Ocapi_error.Watchdog ~engine ~construct:(T.probe_name g p)
         ~cycle
         (Printf.sprintf "output stream diverged structurally: %s" detail))
  in
  (* Golden tokens from [gi] on against faulty tokens from [fi] of [f]:
     the outcome at their first difference; when the faulty tokens end
     first or with the golden ones, [tail] of the golden index they end
     at. *)
  let compare p gi f fi ~tail =
    match T.mismatch (g, p, gi) (f, p, fi) with
    | Some (T.Cycle d) ->
      let c1 = T.cycle g p (gi + d) and c2 = T.cycle f p (fi + d) in
      Some
        (structural p (min c1 c2)
           (Printf.sprintf "token cycles diverge (%d vs %d)" c1 c2))
    | Some (T.Value d) ->
      Some
        (Sdc
           {
             probe = T.probe_name g p;
             cycle = Some (T.cycle g p (gi + d));
             detail =
               Printf.sprintf "%s vs %s"
                 (Fixed.to_string (T.token g p (gi + d)))
                 (Fixed.to_string (T.token f p (fi + d)));
           })
    | Some (T.Length d) when fi + d < T.length f p ->
      Some (structural p (T.cycle f p (fi + d)) "faulty run produces extra tokens")
    | Some (T.Length _) | None -> tail (gi + T.length f p - fi)
  in
  let ends p gi =
    if gi < T.length g p then
      Some (structural p (T.cycle g p gi) "faulty output stream ends early")
    else None
  in
  let scan p =
    compare p (start p) own 0 ~tail:(fun gi ->
        match converged with
        | None -> ends p gi
        | Some k ->
          (* The rest of the faulty stream is the golden one from [gk]. *)
          let gk = golden.g_starts.(k).(p) in
          if gi = gk then None else compare p gi g gk ~tail:(ends p))
  in
  let rec probes p =
    if p = T.probe_count g then Masked
    else match scan p with Some outcome -> outcome | None -> probes (p + 1)
  in
  probes 0

(* A run from reset, with the whole traces compared: the reference
   [checkpointed_run] must reproduce, and the run of a session that
   cannot copy its state. *)
let run_from_reset ses golden ~cycles ~target ~at =
  classify ~engine:ses.Ocapi_engine.ses_engine golden
    ~own:(Ocapi_engine.run ses ~cycles ~inject:(at, fun () -> poke_target ses target))
    ~start:(fun _ -> 0) ~converged:None

(* Restore the last checkpoint at or before [at], step to [at], poke,
   and step on until the window ends or, at a later checkpoint cycle
   [t], the state equals the fault-free run's: from equal states the
   run repeats the fault-free tokens from [t] on (and raises nothing,
   as that run did not), so those tokens are read from the golden trace
   instead of stepped.  The cycles before the restored checkpoint carry
   the fault-free tokens on both sides, so comparing from there gives
   the outcome of the whole traces.  The session is left mid-run;
   the next run's restore works from any state. *)
let checkpointed_run ses golden ~cycles ~target ~at =
  let j = at / golden.g_stride in
  golden.g_checkpoints.(j).Ocapi_engine.ck_restore ();
  let rec go c =
    if c = cycles then None
    else if
      c > at
      && c mod golden.g_stride = 0
      && golden.g_checkpoints.(c / golden.g_stride).Ocapi_engine.ck_matches ()
    then Some (c / golden.g_stride)
    else begin
      if c = at then poke_target ses target;
      ses.Ocapi_engine.ses_step ();
      go (c + 1)
    end
  in
  let converged = go golden.g_checkpoints.(j).Ocapi_engine.ck_cycle in
  classify ~engine:ses.Ocapi_engine.ses_engine golden
    ~own:(ses.Ocapi_engine.ses_trace ())
    ~start:(fun p -> golden.g_starts.(j).(p))
    ~converged

(* --- campaigns ----------------------------------------------------------------- *)

let check_campaign_size ~runs ~cycles =
  Ocapi_error.check_count ~engine:"fault" "SEU campaign: runs" runs;
  if cycles <= 0 then
    Ocapi_error.fail Ocapi_error.Unsupported ~engine:"fault"
      "SEU campaign: cycles must be a positive integer, got %d" cycles

(* The [~replicate] contract: each worker domain must own an isolated
   copy of the design, because engine sessions cache compiled and
   elaborated state inside (or aliasing) the system.  A factory that
   hands back the campaign system, the same system twice, or a system
   some live session still owns would silently share mutable engine
   state across domains — detect all three and refuse. *)
let check_replica ~campaign ~seen replica =
  let refuse msg =
    Ocapi_error.fail Ocapi_error.Shared_state ~engine:"fault"
      ~construct:(Cycle_system.name replica) "Ocapi_fault.seu_campaign: %s" msg
  in
  if replica == campaign then
    refuse
      "~replicate returned the campaign system itself; worker domains \
       would share mutable engine state";
  if List.memq replica seen then
    refuse
      "~replicate returned the same system twice; each worker domain \
       needs its own copy";
  match Cycle_system.attached_engines replica with
  | [] -> ()
  | attached ->
    refuse
      (Printf.sprintf
         "~replicate returned a system with live engine sessions (%s); \
          close them (or build a fresh system) before handing it to a \
          worker"
         (String.concat ", " attached))

let seu_campaign_with ~checkpointed ~engine ~runs ~seed ~domains ?replicate
    ?progress sys ~cycles =
  let targets = seu_targets sys in
  if Array.length targets = 0 then
    invalid_arg "Ocapi_fault.seu_campaign: design has no architectural state";
  (* The full injection schedule is drawn up front, consuming the seeded
     stream in exactly the order the historic serial loop did (target,
     then cycle, per run).  Runs thereby become index-keyed independent
     tasks: whatever domain simulates run [i], its target and cycle —
     and so the merged report — are fixed by [seed] alone. *)
  let rng = Random.State.make [| seed |] in
  let schedule =
    Array.init runs (fun _ ->
        let ti = Random.State.int rng (Array.length targets) in
        let at = Random.State.int rng cycles in
        (ti, at))
  in
  let simulate_one (ses, golden) i =
    (match progress with Some f -> f i | None -> ());
    let ti, at = schedule.(i) in
    let target, _ = targets.(ti) in
    let run_one =
      if Array.length golden.g_checkpoints = 0 then run_from_reset
      else checkpointed_run
    in
    let outcome =
      try run_one ses golden ~cycles ~target ~at
      with Ocapi_error.Error d -> Detected d
    in
    if Ocapi_obs.enabled () then
      Ocapi_obs.count
        (match outcome with
        | Masked -> "fault.seu.masked"
        | Sdc _ -> "fault.seu.sdc"
        | Detected _ -> "fault.seu.detected");
    outcome
  in
  (* [make_state] runs serially on the coordinating domain, so plain
     refs suffice to track replicas (for the shared-state audit) and
     open sessions (reset and closed after the joins below). *)
  let replicas = ref [] in
  let sessions = ref [] in
  let make_state k =
    let s =
      if k = 0 then sys
      else begin
        let replicate =
          match replicate with
          | Some f -> f
          | None ->
            invalid_arg
              "Ocapi_fault.seu_campaign: a ~replicate design factory is \
               required when domains > 1 (each worker domain owns an \
               isolated copy of the system)"
        in
        let s = replicate () in
        check_replica ~campaign:sys ~seen:!replicas s;
        replicas := s :: !replicas;
        if Array.length (seu_targets s) <> Array.length targets then
          invalid_arg
            "Ocapi_fault.seu_campaign: ~replicate built a system with a \
             different fault-target universe than the campaign system";
        s
      end
    in
    let ses = make_session ~engine s in
    sessions := ses :: !sessions;
    (ses, golden_run ~checkpointed ses ~cycles)
  in
  let outcomes =
    Fun.protect
      ~finally:(fun () ->
        List.iter
          (fun s ->
            s.Ocapi_engine.ses_reset ();
            s.Ocapi_engine.ses_close ())
          !sessions)
      (fun () ->
        Ocapi_parallel.map_tasks ~domains ~make_state ~tasks:runs
          ~f:simulate_one ())
  in
  let records =
    List.init runs (fun i ->
        let ti, at = schedule.(i) in
        let target, label = targets.(ti) in
        { run_index = i; run_target = target; run_label = label;
          run_cycle = at; run_outcome = outcomes.(i) })
  in
  let n_of p = List.length (List.filter p records) in
  {
    seu_design = Cycle_system.name sys;
    seu_engine = engine;
    seu_runs = runs;
    seu_cycles = cycles;
    seu_seed = seed;
    seu_masked = n_of (fun r -> r.run_outcome = Masked);
    seu_sdc =
      n_of (fun r -> match r.run_outcome with Sdc _ -> true | _ -> false);
    seu_detected =
      n_of (fun r -> match r.run_outcome with Detected _ -> true | _ -> false);
    seu_records = records;
  }

let seu_campaign ?(engine = "compiled") ?(runs = 1000) ?(seed = 1)
    ?(domains = 1) ?replicate ?progress sys ~cycles =
  check_campaign_size ~runs ~cycles;
  (* Resolve the engine up front so an unknown name fails before any
     simulation; the report records the canonical registry name even
     when an alias was passed. *)
  let engine = Ocapi_engine.name_of (Ocapi_engine.get engine) in
  let campaign () =
    seu_campaign_with ~checkpointed:true ~engine ~runs ~seed ~domains
      ?replicate ?progress sys ~cycles
  in
  if not (Flow.Cache.enabled ()) then campaign ()
  else
    Seu_store.coalesced
      ~key:(seu_key ~engine ~runs ~seed sys ~cycles)
      ~compute:campaign

let seu_campaign_from_reset ~engine ~runs ~seed sys ~cycles =
  check_campaign_size ~runs ~cycles;
  let engine = Ocapi_engine.name_of (Ocapi_engine.get engine) in
  seu_campaign_with ~checkpointed:false ~engine ~runs ~seed ~domains:1 sys
    ~cycles

(* --- reports --------------------------------------------------------------- *)

let pp_stuck_report ppf r =
  Format.fprintf ppf
    "@[<v>stuck-at campaign: %s@,\
     fault universe  %d pins (collapsed %d, simulated %d)@,\
     test vectors    %d cycles@,\
     detected        %d@,\
     undetected      %d@,\
     diagnosed       %d@,\
     coverage        %.1f%%@]" r.st_design r.st_universe r.st_collapsed
    r.st_simulated r.st_vectors r.st_detected r.st_undetected r.st_diagnosed
    (100.0 *. r.st_coverage);
  let undet =
    List.filter
      (fun rc -> match rc.sr_outcome with Sa_undetected -> true | _ -> false)
      r.st_records
  in
  if undet <> [] && List.length undet <= 16 then begin
    Format.fprintf ppf "@,@[<v 2>undetected faults:";
    List.iter (fun rc -> Format.fprintf ppf "@,%s" rc.sr_label) undet;
    Format.fprintf ppf "@]"
  end;
  List.iter
    (fun rc ->
      match rc.sr_outcome with
      | Sa_diagnosed d ->
        Format.fprintf ppf "@,diagnostic %s: %a" rc.sr_label Ocapi_error.pp d
      | _ -> ())
    r.st_records

let pp_stuck_compare ppf c =
  Format.fprintf ppf
    "@[<v>stuck-at pre/post optimization: %s@,\
     %-12s %10s %10s@,\
     %-12s %10d %10d@,\
     %-12s %10d %10d@,\
     %-12s %10d %10d@,\
     %-12s %9.1f%% %9.1f%%@]" c.sc_design "" "pre-opt" "post-opt" "universe"
    c.sc_pre.st_universe c.sc_post.st_universe "simulated"
    c.sc_pre.st_simulated c.sc_post.st_simulated "detected"
    c.sc_pre.st_detected c.sc_post.st_detected "coverage"
    (100.0 *. c.sc_pre.st_coverage)
    (100.0 *. c.sc_post.st_coverage);
  Format.fprintf ppf "@,@[<v 2>provenance:";
  List.iter
    (fun (p : Ocapi_ir.pass_record) ->
      Format.fprintf ppf "@,%s: %s -> %s" p.Ocapi_ir.pr_pass
        (String.sub p.Ocapi_ir.pr_input_digest 0 8)
        (String.sub p.Ocapi_ir.pr_output_digest 0 8))
    c.sc_provenance;
  Format.fprintf ppf "@]"

let pp_seu_report ppf r =
  Format.fprintf ppf
    "@[<v>SEU campaign: %s on %s engine@,\
     runs            %d (seed %d, %d cycles each)@,\
     masked          %d@,\
     silent data corruption %d@,\
     detected        %d@]" r.seu_design r.seu_engine r.seu_runs r.seu_seed
    r.seu_cycles r.seu_masked r.seu_sdc r.seu_detected;
  (* One example diagnostic per distinct error code. *)
  let seen = Hashtbl.create 4 in
  List.iter
    (fun rc ->
      match rc.run_outcome with
      | Detected d when not (Hashtbl.mem seen d.Ocapi_error.e_code) ->
        Hashtbl.add seen d.Ocapi_error.e_code ();
        Format.fprintf ppf "@,run %d (%s @@ cycle %d): %a" rc.run_index
          rc.run_label rc.run_cycle Ocapi_error.pp d
      | _ -> ())
    r.seu_records

let error_json (d : Ocapi_error.t) =
  let open Ocapi_obs.Json in
  Obj
    [
      ("code", String (Ocapi_error.code_label d.Ocapi_error.e_code));
      ("severity", String (Ocapi_error.severity_label d.Ocapi_error.e_severity));
      ("engine", String d.Ocapi_error.e_engine);
      ( "construct",
        match d.Ocapi_error.e_construct with
        | Some c -> String c
        | None -> Null );
      ( "cycle",
        match d.Ocapi_error.e_cycle with Some c -> Int c | None -> Null );
      ("nets", List (List.map (fun n -> String n) d.Ocapi_error.e_nets));
      ("message", String d.Ocapi_error.e_message);
    ]

let stuck_report_json r =
  let open Ocapi_obs.Json in
  Obj
    [
      ("campaign", String "stuck-at");
      ("design", String r.st_design);
      ("fault_universe", Int r.st_universe);
      ("collapsed", Int r.st_collapsed);
      ("simulated", Int r.st_simulated);
      ("detected", Int r.st_detected);
      ("undetected", Int r.st_undetected);
      ("diagnosed", Int r.st_diagnosed);
      ("vectors", Int r.st_vectors);
      ("coverage", Float r.st_coverage);
      ( "diagnostics",
        List
          (List.filter_map
             (fun rc ->
               match rc.sr_outcome with
               | Sa_diagnosed d ->
                 Some
                   (Obj [ ("fault", String rc.sr_label); ("error", error_json d) ])
               | _ -> None)
             r.st_records) );
    ]

let stuck_compare_json c =
  let open Ocapi_obs.Json in
  Obj
    [
      ("campaign", String "stuck-at-optimized");
      ("design", String c.sc_design);
      ("pre", stuck_report_json c.sc_pre);
      ("post", stuck_report_json c.sc_post);
      ( "provenance",
        List
          (List.map
             (fun (p : Ocapi_ir.pass_record) ->
               Obj
                 [
                   ("pass", String p.Ocapi_ir.pr_pass);
                   ("input_digest", String p.Ocapi_ir.pr_input_digest);
                   ("output_digest", String p.Ocapi_ir.pr_output_digest);
                 ])
             c.sc_provenance) );
    ]

let seu_report_json r =
  let open Ocapi_obs.Json in
  let outcome_row rc =
    Obj
      ([
         ("run", Int rc.run_index);
         ("target", String rc.run_label);
         ("cycle", Int rc.run_cycle);
       ]
      @
      match rc.run_outcome with
      | Masked -> [ ("outcome", String "masked") ]
      | Sdc { probe; cycle; detail } ->
        [
          ("outcome", String "sdc");
          ("probe", String probe);
          ("sdc_cycle", match cycle with Some c -> Int c | None -> Null);
          ("detail", String detail);
        ]
      | Detected d -> [ ("outcome", String "detected"); ("error", error_json d) ])
  in
  Obj
    [
      ("campaign", String "seu");
      ("design", String r.seu_design);
      ("engine", String r.seu_engine);
      ("runs", Int r.seu_runs);
      ("cycles", Int r.seu_cycles);
      ("seed", Int r.seu_seed);
      ("masked", Int r.seu_masked);
      ("sdc", Int r.seu_sdc);
      ("detected", Int r.seu_detected);
      ( "detected_runs",
        List
          (List.filter_map
             (fun rc ->
               match rc.run_outcome with
               | Detected _ -> Some (outcome_row rc)
               | _ -> None)
             r.seu_records) );
    ]
