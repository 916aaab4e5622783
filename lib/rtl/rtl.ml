let error ?construct fmt =
  Ocapi_error.fail ?construct Ocapi_error.Internal ~engine:"rtl" fmt

type rtl_signal = {
  sg_id : int;
  sg_name : string;
  mutable sg_value : Fixed.t;
  sg_initial : Fixed.t;
  mutable sg_driven_this_cycle : bool;  (* sticky: ever driven *)
}

type assignment = rtl_signal * Fixed.t

type process_ = {
  pr_id : int;
  pr_sensitivity : rtl_signal list;
  pr_exec : unit -> assignment list;
}

(* A connected probe: its column in the trace, the net signal it
   samples. *)
type probe_rec = { pb_column : int; pb_signal : rtl_signal }

type t = {
  mutable signals : rtl_signal list;  (* reversed *)
  mutable processes : process_ list;  (* reversed *)
  (* signal id -> processes sensitive to it *)
  mutable wakeups : (int, process_ list) Hashtbl.t;
  clk : rtl_signal;
  stims : (rtl_signal * (int -> Fixed.t option)) list;
  probes : probe_rec list;
  trace : Cycle_system.Trace.t;  (* one column per probe of the system *)
  resets : (unit -> unit) list;  (* restore component-local state *)
  latches : bool ref array;  (* per sequential process, the clock it last saw *)
  kernels : Dataflow.Kernel.t list;
  kernel_commits : (unit -> unit) list;
  kernel_procs : process_ list;
  regs : Signal.Reg.t array;  (* Cycle_system.all_regs order *)
  reg_shadows : (int * rtl_signal) list;  (* Reg.id -> shadow signal *)
  (* Per timed component: name, state signal, number of encoded states. *)
  state_sigs : (string * rtl_signal * int) array;
  mutable cycle_count : int;
  mutable initialized : bool;
  mutable n_events : int;
  mutable n_transactions : int;
  mutable n_deltas : int;
  mutable n_activations : int;
}

(* --- construction -------------------------------------------------------- *)

(* Atomic so elaborations may run concurrently in different domains
   (domain-isolation audit: construction-time gensyms must not race). *)
let sig_counter = Atomic.make 0

let make_signal name init =
  {
    sg_id = Atomic.fetch_and_add sig_counter 1 + 1;
    sg_name = name;
    sg_value = init;
    sg_initial = init;
    sg_driven_this_cycle = false;
  }

let proc_counter = Atomic.make 0

let make_process sensitivity exec =
  { pr_id = Atomic.fetch_and_add proc_counter 1 + 1; pr_sensitivity = sensitivity;
    pr_exec = exec }

(* An action SFG of a transition: its own plan ([Sfg.plan], which the
   interpreter evaluates too) and the signals its roots drive. *)
type rtl_action = {
  ra_plan : Signal.Plan.t;
  ra_outputs : (int * rtl_signal) list;  (* root, net signal *)
  ra_assigns : (int * rtl_signal) list;  (* root, next signal *)
}

(* A transition of a timed component with every signal its evaluation
   reads or writes, and every plan, resolved at elaboration. *)
type rtl_transition = {
  rt_goto : Fixed.t;  (* the next-state value *)
  rt_inputs : (Signal.Input.t * rtl_signal) list;
  rt_actions : rtl_action list;
  rt_holds : (rtl_signal * rtl_signal) list;
      (* next and shadow signals of the registers it leaves unassigned *)
}

let of_system sys =
  let signals = ref [] in
  let add_signal name init =
    let s = make_signal name init in
    signals := s :: !signals;
    s
  in
  (* One RTL signal per net. *)
  let net_signals =
    Array.of_list
      (List.map
         (fun n ->
           add_signal (Cycle_system.net_name n)
             (Fixed.zero (Cycle_system.net_format n)))
         (Cycle_system.nets sys))
  in
  let net_signal n = net_signals.(Cycle_system.net_index n) in
  let clk = add_signal "clk" (Fixed.of_bool false) in
  let processes = ref [] in
  let resets = ref [] in
  let latches = ref [] in
  let kernel_commits = ref [] in
  let kernel_procs = ref [] in
  let add_process p = processes := p :: !processes in
  (* Fault-injection bookkeeping: register shadows and state signals. *)
  let all_shadows = ref [] in
  let state_sig_rows = ref [] in
  (* Timed components: comb + seq process pairs. *)
  List.iter
    (fun (cname, fsm) ->
      let regs = Fsm.all_regs fsm in
      (* Shadow and next signals per register. *)
      let shadow =
        List.map
          (fun r ->
            (Signal.Reg.id r, add_signal (cname ^ "." ^ Signal.Reg.name r)
                                (Signal.Reg.init r)))
          regs
      in
      let next_sig =
        List.map
          (fun r ->
            ( Signal.Reg.id r,
              add_signal (cname ^ "." ^ Signal.Reg.name r ^ "_next")
                (Signal.Reg.init r) ))
          regs
      in
      let state_fmt = Fixed.unsigned ~width:16 ~frac:0 in
      let state_sig =
        add_signal (cname ^ ".state")
          (Fixed.of_int state_fmt (Fsm.state_index (Fsm.initial_state fsm)))
      in
      let next_state_sig =
        add_signal (cname ^ ".state_next") state_sig.sg_initial
      in
      all_shadows := shadow @ !all_shadows;
      state_sig_rows :=
        (cname, state_sig, List.length (Fsm.states fsm)) :: !state_sig_rows;
      (* Input nets feeding this component, by SFG input name. *)
      let input_net i = Cycle_system.input_net sys cname (Signal.Input.name i) in
      let input_nets =
        List.concat_map
          (fun sfg -> List.filter_map input_net (Sfg.inputs sfg))
          (Fsm.all_sfgs fsm)
        |> List.sort_uniq (fun a b ->
               String.compare (Cycle_system.net_name a) (Cycle_system.net_name b))
      in
      let comb_sensitivity =
        List.map net_signal input_nets @ List.map snd shadow @ [ state_sig ]
      in
      (* (register, shadow) and (next, shadow) pairs, in register order. *)
      let shadow_of r = List.assoc (Signal.Reg.id r) shadow in
      let next_of r = List.assoc (Signal.Reg.id r) next_sig in
      let mirrors = List.map (fun r -> (r, shadow_of r)) regs in
      let next_shadow = List.map (fun r -> (next_of r, shadow_of r)) regs in
      let action sfg =
        let outputs = Sfg.outputs sfg in
        {
          ra_plan = Sfg.plan sfg;
          ra_outputs =
            List.concat
              (List.mapi
                 (fun k (port, _) ->
                   match Cycle_system.output_net sys cname port with
                   | Some n -> [ (k, net_signal n) ]
                   | None -> [])
                 outputs);
          ra_assigns =
            List.mapi
              (fun k (r, _) -> (List.length outputs + k, next_of r))
              (Sfg.assigns sfg);
        }
      in
      let elaborate tr =
        let actions = List.map action tr.Fsm.t_actions in
        let assigned nx =
          List.exists (fun a -> List.exists (fun (_, s) -> s == nx) a.ra_assigns) actions
        in
        {
          rt_goto = Fixed.of_int state_fmt (Fsm.state_index tr.Fsm.t_goto);
          rt_inputs =
            List.concat_map
              (fun sfg ->
                List.filter_map
                  (fun i -> Option.map (fun n -> (i, net_signal n)) (input_net i))
                  (Sfg.inputs sfg))
              tr.Fsm.t_actions;
          rt_actions = actions;
          rt_holds = List.filter (fun (nx, _) -> not (assigned nx)) next_shadow;
        }
      in
      let transitions = Array.of_list (List.map elaborate (Fsm.transitions fsm)) in
      let comb_exec () =
        (* Mirror register shadows into the shared Reg objects so that
           the guard and transition plans see the event-driven state. *)
        List.iter (fun (r, s) -> Signal.Reg.set_value r s.sg_value) mirrors;
        (* Select the transition as the FSM would, from the state signal. *)
        match Fsm.select_from fsm (Fixed.to_int state_sig.sg_value) with
        | None ->
          (* Hold: next state and next regs keep current values. *)
          (next_state_sig, state_sig.sg_value)
          :: List.map (fun (nx, sh) -> (nx, sh.sg_value)) next_shadow
        | Some k ->
          let rt = transitions.(k) in
          let env = Signal.Env.create () in
          List.iter (fun (i, s) -> Signal.Env.bind env i s.sg_value) rt.rt_inputs;
          (* Every action's outputs, then every action's assignments:
             the order of the transition body. *)
          let memos =
            List.map (fun a -> (a, Signal.Plan.memo a.ra_plan env)) rt.rt_actions
          in
          let eval roots =
            List.concat_map
              (fun (a, m) -> List.map (fun (k, s) -> (s, Signal.Plan.eval m k)) (roots a))
              memos
          in
          let outs = eval (fun a -> a.ra_outputs) in
          let assigned = eval (fun a -> a.ra_assigns) in
          (* Unassigned registers hold their value. *)
          let holds = List.map (fun (nx, sh) -> (nx, sh.sg_value)) rt.rt_holds in
          ((next_state_sig, rt.rt_goto) :: outs) @ assigned @ holds
      in
      add_process (make_process comb_sensitivity comb_exec);
      (* Sequential process: latch on the rising clock edge. *)
      let prev_clk = ref false in
      latches := prev_clk :: !latches;
      let seq_exec () =
        let now = Fixed.is_true clk.sg_value in
        let rising = now && not !prev_clk in
        prev_clk := now;
        if rising then
          (state_sig, next_state_sig.sg_value)
          :: List.map (fun (nx, sh) -> (sh, nx.sg_value)) next_shadow
        else []
      in
      add_process (make_process [ clk ] seq_exec);
      resets :=
        (fun () ->
          prev_clk := false;
          Fsm.reset fsm)
        :: !resets)
    (Cycle_system.timed_components sys);
  (* Untimed kernels: combinational processes. *)
  List.iter
    (fun (cname, k) ->
      let ports port_net ports =
        List.filter_map
          (fun (port, _) ->
            Option.map (fun n -> (port, net_signal n)) (port_net sys cname port))
          ports
      in
      let ins = ports Cycle_system.input_net k.Dataflow.Kernel.k_inputs in
      let outs = ports Cycle_system.output_net k.Dataflow.Kernel.k_outputs in
      kernel_commits := k.Dataflow.Kernel.k_commit :: !kernel_commits;
      resets := k.Dataflow.Kernel.k_reset :: !resets;
      let exec () =
        if k.Dataflow.Kernel.k_ready () then begin
          let consumed = List.map (fun (port, s) -> (port, [ s.sg_value ])) ins in
          let produced = k.Dataflow.Kernel.k_behavior consumed in
          List.filter_map
            (fun (port, s) ->
              match List.assoc_opt port produced with
              | Some [ v ] -> Some (s, v)
              | Some _ | None -> None)
            outs
        end
        else []
      in
      let p = make_process (List.map snd ins) exec in
      kernel_procs := p :: !kernel_procs;
      add_process p)
    (Cycle_system.untimed_components sys);
  (* Primary inputs and probes. *)
  let stims =
    List.filter_map
      (fun (name, _fmt, stim) ->
        Option.map
          (fun n -> (net_signal n, stim))
          (Cycle_system.output_net sys name "out"))
      (Cycle_system.primary_inputs sys)
  in
  (* Every probe of the system has a column, declared in the format of
     the net it reads; an unconnected probe's stays empty. *)
  let probe_nets =
    List.map (fun pname -> (pname, Cycle_system.input_net sys pname "in"))
      (Cycle_system.probes sys)
  in
  let trace =
    Cycle_system.Trace.create
      (List.map (fun (pname, n) -> (pname, Option.map Cycle_system.net_format n)) probe_nets)
  in
  let probes =
    List.concat
      (List.mapi
         (fun i (_, n) ->
           match n with
           | Some n -> [ { pb_column = i; pb_signal = net_signal n } ]
           | None -> [])
         probe_nets)
  in
  let wakeups = Hashtbl.create 256 in
  List.iter
    (fun p ->
      List.iter
        (fun s ->
          let existing =
            match Hashtbl.find_opt wakeups s.sg_id with
            | Some l -> l
            | None -> []
          in
          Hashtbl.replace wakeups s.sg_id (p :: existing))
        p.pr_sensitivity)
    !processes;
  {
    signals = !signals;
    processes = !processes;
    wakeups;
    clk;
    stims;
    probes;
    trace;
    resets = !resets;
    latches = Array.of_list !latches;
    kernels = List.map snd (Cycle_system.untimed_components sys);
    kernel_commits = !kernel_commits;
    kernel_procs = !kernel_procs;
    regs = Array.of_list (Cycle_system.all_regs sys);
    reg_shadows = !all_shadows;
    state_sigs = Array.of_list (List.rev !state_sig_rows);
    cycle_count = 0;
    initialized = false;
    n_events = 0;
    n_transactions = 0;
    n_deltas = 0;
    n_activations = 0;
  }

(* --- the event-driven kernel ---------------------------------------------- *)

(* Delta cycles one settle may take before a loop is declared. *)
let max_deltas = 1000

(* Apply assignments, wake sensitive processes of changed signals, loop. *)
let settle t initial_assignments =
  let obs = Ocapi_obs.enabled () in
  let pending = ref initial_assignments in
  let deltas = ref 0 in
  while !pending <> [] do
    incr deltas;
    t.n_deltas <- t.n_deltas + 1;
    if obs then
      (* pending transactions = the event queue of this delta *)
      Ocapi_obs.max_gauge "rtl.queue_high_water"
        (float_of_int (List.length !pending));
    if !deltas > max_deltas then begin
      (* Name the signals still being scheduled — the combinational loop
         (or ping-ponging process pair) runs through them. *)
      let culprits =
        List.map (fun (s, _) -> s.sg_name) !pending
        |> List.sort_uniq String.compare
      in
      let shown =
        if List.length culprits <= 12 then culprits
        else
          (List.filteri (fun i _ -> i < 12) culprits)
          @ [ Printf.sprintf "... %d more" (List.length culprits - 12) ]
      in
      Ocapi_error.fail Ocapi_error.Delta_overflow ~engine:"rtl"
        ~cycle:t.cycle_count ~nets:shown
        "no convergence after %d delta cycles: %d signals still scheduling \
         transactions" max_deltas (List.length culprits)
    end;
    (* Apply transactions; collect processes woken by events. *)
    let woken = Hashtbl.create 16 in
    List.iter
      (fun (s, v) ->
        t.n_transactions <- t.n_transactions + 1;
        s.sg_driven_this_cycle <- true;
        if not (Fixed.equal s.sg_value v) then begin
          s.sg_value <- v;
          t.n_events <- t.n_events + 1;
          match Hashtbl.find_opt t.wakeups s.sg_id with
          | Some procs ->
            List.iter (fun p -> Hashtbl.replace woken p.pr_id p) procs
          | None -> ()
        end)
      !pending;
    (* Execute woken processes, gathering next-delta assignments. *)
    let next = ref [] in
    Hashtbl.iter
      (fun _ p ->
        t.n_activations <- t.n_activations + 1;
        next := p.pr_exec () @ !next)
      woken;
    pending := !next
  done

let initialize t =
  (* VHDL semantics: every process executes once at time zero. *)
  if not t.initialized then begin
    t.initialized <- true;
    let assignments =
      List.concat_map
        (fun p ->
          t.n_activations <- t.n_activations + 1;
          p.pr_exec ())
        t.processes
    in
    settle t assignments
  end

let cycle t =
  let t_cycle = Ocapi_obs.span_begin () in
  let events0 = t.n_events
  and transactions0 = t.n_transactions
  and deltas0 = t.n_deltas
  and activations0 = t.n_activations in
  initialize t;
  (* Drive primary inputs, settle. *)
  let input_assignments =
    List.filter_map
      (fun (s, stim) ->
        match stim t.cycle_count with
        | Some v -> Some (s, v)
        | None -> None)
      t.stims
  in
  settle t input_assignments;
  (* Sample probes that saw a transaction, before the clock edge — the
     combinational outputs of this cycle are stable now, computed from
     this cycle's inputs and the pre-edge register values, exactly as a
     test bench would sample them. *)
  List.iter
    (fun pb ->
      if pb.pb_signal.sg_driven_this_cycle then
        Cycle_system.Trace.record_token t.trace pb.pb_column ~cycle:t.cycle_count
          pb.pb_signal.sg_value)
    t.probes;
  (* Kernel state commits are synchronous: like a register latch they
     apply the staging settled from this cycle's pre-edge signal values.
     Committing before the clock event re-runs any process keeps the
     staged write exactly what the cycle's tokens computed — the three-
     phase scheduler's register-update-phase semantics.  (Committing
     after the edge settle would overwrite the staging with post-edge
     register values first: a one-cycle skew on register-driven write
     data that the differential fuzzer caught.) *)
  if t.kernel_commits <> [] then List.iter (fun f -> f ()) t.kernel_commits;
  (* Rising edge, settle. *)
  settle t [ (t.clk, Fixed.of_bool true) ];
  (* Committed state may change combinational reads (a RAM's read port
     now sees the written word), so kernel processes re-execute and
     settle even when none of their input nets saw an edge event. *)
  if t.kernel_commits <> [] then begin
    let assignments =
      List.concat_map
        (fun p ->
          t.n_activations <- t.n_activations + 1;
          p.pr_exec ())
        t.kernel_procs
    in
    settle t assignments
  end;
  (* Falling edge, settle. *)
  settle t [ (t.clk, Fixed.of_bool false) ];
  if Ocapi_obs.enabled () then begin
    Ocapi_obs.count "rtl.cycles";
    Ocapi_obs.count ~n:(t.n_events - events0) "rtl.events_fired";
    Ocapi_obs.count ~n:(t.n_transactions - transactions0)
      "rtl.events_scheduled";
    Ocapi_obs.count ~n:(t.n_activations - activations0) "rtl.activations";
    Ocapi_obs.observe "rtl.deltas_per_cycle"
      (float_of_int (t.n_deltas - deltas0));
    Ocapi_obs.span_end ~cat:"rtl" "rtl.cycle" t_cycle
  end;
  t.cycle_count <- t.cycle_count + 1

let current_cycle t = t.cycle_count

let trace t = t.trace

let clear_histories t = Cycle_system.Trace.clear t.trace

let reset t =
  t.cycle_count <- 0;
  t.initialized <- false;
  t.n_events <- 0;
  t.n_transactions <- 0;
  t.n_deltas <- 0;
  t.n_activations <- 0;
  List.iter
    (fun s ->
      s.sg_value <- s.sg_initial;
      s.sg_driven_this_cycle <- false)
    t.signals;
  Array.iter Signal.Reg.reset t.regs;
  List.iter (fun f -> f ()) t.resets;
  clear_histories t

(* --- checkpoints ------------------------------------------------------------ *)

(* A copy of what [reset] re-initializes, less the probe trace and the
   activity counters.  Signal values are immutable [Fixed.t]s, so the
   copy shares them. *)
type snapshot = {
  sn_cycle : int;
  sn_initialized : bool;
  sn_values : Fixed.t array;  (* [t.signals] order *)
  sn_driven : bool array;
  sn_latches : bool array;
  sn_regs : (Fixed.t * Fixed.t option) array;
  sn_kernels : Dataflow.Kernel.snapshot;
}

let snapshot t =
  Option.map
    (fun save ->
      let signals = Array.of_list t.signals in
      {
        sn_cycle = t.cycle_count;
        sn_initialized = t.initialized;
        sn_values = Array.map (fun s -> s.sg_value) signals;
        sn_driven = Array.map (fun s -> s.sg_driven_this_cycle) signals;
        sn_latches = Array.map ( ! ) t.latches;
        sn_regs = Array.map (fun r -> (Signal.Reg.value r, Signal.Reg.next r)) t.regs;
        sn_kernels = save ();
      })
    (Dataflow.Kernel.snapshot_all t.kernels)

let restore t sn =
  t.cycle_count <- sn.sn_cycle;
  t.initialized <- sn.sn_initialized;
  List.iteri
    (fun i s ->
      s.sg_value <- sn.sn_values.(i);
      s.sg_driven_this_cycle <- sn.sn_driven.(i))
    t.signals;
  Array.iteri (fun i l -> l := sn.sn_latches.(i)) t.latches;
  Array.iteri
    (fun i r ->
      let v, next = sn.sn_regs.(i) in
      Signal.Reg.reset r;
      Signal.Reg.set_value r v;
      Option.iter (Signal.Reg.set_next r) next)
    t.regs;
  sn.sn_kernels.Dataflow.Kernel.sn_restore ();
  clear_histories t

let matches t sn =
  let rec same_signals i = function
    | [] -> true
    | s :: rest ->
      Fixed.equal s.sg_value sn.sn_values.(i)
      && s.sg_driven_this_cycle = sn.sn_driven.(i)
      && same_signals (i + 1) rest
  in
  t.cycle_count = sn.sn_cycle
  && t.initialized = sn.sn_initialized
  && Array.for_all2
       (fun r (v, next) ->
         Fixed.equal (Signal.Reg.value r) v
         && Option.equal Fixed.equal (Signal.Reg.next r) next)
       t.regs sn.sn_regs
  && Array.for_all2 (fun l v -> !l = v) t.latches sn.sn_latches
  && same_signals 0 t.signals
  && sn.sn_kernels.Dataflow.Kernel.sn_matches ()

(* --- fault-injection access ----------------------------------------------- *)

let register_count t = Array.length t.regs

let register_info t i =
  let r = t.regs.(i) in
  (Signal.Reg.name r, Signal.Reg.fmt r)

let flip_register_bit t i ~bit =
  let r = t.regs.(i) in
  let f = Signal.Reg.fmt r in
  if bit < 0 || bit >= f.Fixed.width then
    invalid_arg
      (Printf.sprintf "Rtl.flip_register_bit: bit %d outside format %s of %s"
         bit
         (Fixed.format_to_string f)
         (Signal.Reg.name r));
  match List.assoc_opt (Signal.Reg.id r) t.reg_shadows with
  | None ->
    error ~construct:(Signal.Reg.name r)
      "flip_register_bit: register %s has no shadow signal" (Signal.Reg.name r)
  | Some sh ->
    initialize t;
    let v = sh.sg_value in
    (* The shadow may hold a value in a wider expression format than the
       declared one; flip within the stored width. *)
    let b = min bit ((Fixed.fmt v).Fixed.width - 1) in
    settle t [ (sh, Fixed.flip_bit v b) ]

let component_count t = Array.length t.state_sigs

let component_info t i =
  let cname, _, n = t.state_sigs.(i) in
  (cname, n)

let component_state t i =
  let _, s, _ = t.state_sigs.(i) in
  Fixed.to_int s.sg_value

let set_component_state t i state =
  let cname, s, n = t.state_sigs.(i) in
  let state =
    Ocapi_error.check_state ~engine:"rtl" ~construct:cname ~cycle:t.cycle_count
      ~states:n state
  in
  initialize t;
  settle t [ (s, Fixed.of_int (Fixed.fmt s.sg_value) state) ]
