(* [of_system] resolves, once, every signal, process, plan, seed and
   sensitivity list of the elaboration; [settle] steps over the result.
   A delta applies one transaction queue, stamps each reader of a signal
   that changed with the delta it is woken in, and runs the woken
   processes, which drive the next delta's queue.  The rising edge is a
   loop over the components, queueing state and shadows; unless the
   elaboration is cyclic, the next settle applies that queue with the
   next cycle's inputs. *)

type signal = {
  sg_index : int;  (* position in [t.signals] *)
  sg_name : string;
  mutable sg_value : Fixed.t;
  sg_initial : Fixed.t;
  mutable sg_driven : bool;  (* sticky: ever driven *)
  mutable sg_readers : int array;  (* the processes sensitive to it *)
  mutable sg_selects : int;  (* the component whose selection reads it; -1 *)
}

(* An action SFG of a transition: its plan ([Sfg.plan], which the
   interpreter evaluates too), the input signals and the read nodes each
   seeds, the net signals its outputs drive and the registers it
   assigns. *)
type action = {
  ac_plan : Signal.Plan.t;
  ac_seeds : (signal * int array) array;
  ac_outputs : (int * signal) array;  (* root, net signal: connected outputs *)
  ac_assigns : int array;  (* register of the assignment at root [ac_first + k] *)
  ac_first : int;
}

type transition = {
  tr_goto : Fixed.t;  (* the next-state value *)
  tr_actions : action array;
  tr_holds : int array;  (* the registers it leaves unassigned *)
}

(* A timed component's combinational process, sensitive to its input
   nets, its state and its registers' shadows.  Its selection is kept
   until the state or a shadow changes: the guards read registers and
   constants only, and each firing mirrors the component's shadows into
   the registers they read ([of_system] refuses a register another
   component assigns). *)
type comb = {
  cb_selector : Fsm.selector;
  cb_state : signal;
  cb_next_state : signal;
  cb_regs : Signal.Reg.t array;  (* [Fsm.all_regs] order *)
  cb_shadows : signal array;  (* per register *)
  cb_nexts : signal array;  (* per register *)
  cb_transitions : transition array;  (* [Fsm.transitions] order *)
  mutable cb_stale : bool;  (* its selection must be made again *)
  mutable cb_selected : int;  (* the transition selected, -1 to hold *)
}

type kernel = {
  kn_kernel : Dataflow.Kernel.t;
  kn_inputs : (string * signal) list;  (* connected input ports *)
  kn_outputs : (string * signal) array;  (* connected output ports *)
}

type process = Comb of comb | Kernel of kernel

type t = {
  signals : signal array;  (* creation order *)
  procs : process array;  (* creation order *)
  combs : comb array;  (* per timed component, in system order *)
  components : (string * int) array;  (* name, number of encoded states *)
  fsms : Fsm.t array;
  kernels : Dataflow.Kernel.t array;  (* untimed, in system order *)
  kernel_procs : int array;  (* their processes *)
  (* A combinational path through the signals closes on itself: each
     edge settles within its step and every transaction is queued. *)
  cyclic : bool;
  stims : (Cycle_system.column * Fixed.format * signal) array;
  probes : (int * signal) array;  (* trace column, the net signal it samples *)
  trace : Cycle_system.Trace.t;  (* one column per probe of the system *)
  regs : Signal.Reg.t array;  (* Cycle_system.all_regs order *)
  reg_shadows : signal array;  (* per register *)
  (* The transaction queue a delta fills, and the one it applies; each
     holds as many transactions as all processes drive in one delta. *)
  mutable q_sigs : int array;
  mutable q_vals : Fixed.t array;
  mutable q_len : int;
  mutable q_high : int;  (* the longest queue applied since it was reported *)
  (* The last rising edge is queued, not settled: the kernels fire again
     before the queue is applied. *)
  mutable pending : bool;
  mutable applied_sigs : int array;
  mutable applied_vals : Fixed.t array;
  stamps : int array;  (* per process, the delta it was last woken in *)
  woken : int array;
  mutable epoch : int;  (* deltas since elaboration *)
  mutable cycle_count : int;
  mutable initialized : bool;
  mutable n_events : int;
  mutable n_transactions : int;
  mutable n_deltas : int;
  mutable n_activations : int;
}

(* A queue slot's value outside a delta: no value is kept there. *)
let no_value = Fixed.zero Fixed.bit_format

let state_format = Fixed.unsigned ~width:16 ~frac:0

(* --- elaboration ------------------------------------------------------------- *)

(* Does a combinational path through the signals close on itself?  An
   edge runs from each input signal a comb process's action seeds to
   each output net whose root reads it, from a RAM's address to its read
   word, and from every input of any other kernel to each of its
   outputs.  Next states and next registers reach only the edge. *)
let has_cycle n_signals procs =
  let succ = Array.make n_signals [] in
  let edge s o = succ.(s.sg_index) <- o.sg_index :: succ.(s.sg_index) in
  let action ac =
    (* [seen.(node)] is the last output root whose reads include it. *)
    let seen = Array.make (Signal.Plan.size ac.ac_plan) (-1) in
    Array.iter
      (fun (k, o) ->
        Array.iter (fun n -> seen.(n) <- k) (Signal.Plan.root_deps ac.ac_plan k);
        Array.iter
          (fun (s, nodes) -> if Array.exists (fun n -> seen.(n) = k) nodes then edge s o)
          ac.ac_seeds)
      ac.ac_outputs
  in
  Array.iter
    (function
      | Comb c -> Array.iter (fun tr -> Array.iter action tr.tr_actions) c.cb_transitions
      | Kernel kn ->
        let through =
          match kn.kn_kernel.Dataflow.Kernel.k_model with
          | Some (Dataflow.Kernel.Ram_model { addr_port; rdata_port; _ }) ->
            fun i o -> String.equal i addr_port && String.equal o rdata_port
          | None -> fun _ _ -> true
        in
        List.iter
          (fun (i, s) -> Array.iter (fun (o, so) -> if through i o then edge s so) kn.kn_outputs)
          kn.kn_inputs)
    procs;
  (* Depth first: 1 on the current path, 2 done. *)
  let mark = Array.make n_signals 0 in
  let rec closes i =
    match mark.(i) with
    | 1 -> true
    | 2 -> false
    | _ ->
      mark.(i) <- 1;
      let found = List.exists closes succ.(i) in
      mark.(i) <- 2;
      found
  in
  let rec any i = i < n_signals && (closes i || any (i + 1)) in
  any 0

let of_system sys =
  Cycle_system.refuse_shared_registers ~engine:"rtl" sys;
  let signals = ref [] and n_signals = ref 0 in
  let signal name init =
    let s =
      {
        sg_index = !n_signals;
        sg_name = name;
        sg_value = init;
        sg_initial = init;
        sg_driven = false;
        sg_readers = [||];
        sg_selects = -1;
      }
    in
    incr n_signals;
    signals := s :: !signals;
    s
  in
  (* One signal per net. *)
  let net_signals =
    Array.of_list
      (List.map
         (fun n ->
           signal (Cycle_system.net_name n) (Fixed.zero (Cycle_system.net_format n)))
         (Cycle_system.nets sys))
  in
  let net_signal n = net_signals.(Cycle_system.net_index n) in
  (* Processes, with their sensitivity and the most transactions one
     firing drives. *)
  let procs = ref [] and n_procs = ref 0 and sensitive = ref [] and drives = ref 0
  and latched = ref 0 in
  let process p ~sensitivity ~most =
    List.iter (fun s -> sensitive := (s, !n_procs) :: !sensitive) sensitivity;
    drives := !drives + most;
    procs := p :: !procs;
    incr n_procs;
    !n_procs - 1
  in
  let shadow_of_reg = Hashtbl.create 64 in
  let timed =
    List.mapi
      (fun i (cname, fsm) ->
        let regs = Array.of_list (Fsm.all_regs fsm) in
        let index = Hashtbl.create 16 in
        Array.iteri (fun j r -> Hashtbl.replace index (Signal.Reg.id r) j) regs;
        let shadows =
          Array.map (fun r -> signal (cname ^ "." ^ Signal.Reg.name r) (Signal.Reg.init r)) regs
        in
        let nexts =
          Array.map
            (fun r -> signal (cname ^ "." ^ Signal.Reg.name r ^ "_next") (Signal.Reg.init r))
            regs
        in
        Array.iteri (fun j r -> Hashtbl.replace shadow_of_reg (Signal.Reg.id r) shadows.(j)) regs;
        let state =
          signal (cname ^ ".state")
            (Fixed.of_int state_format (Fsm.state_index (Fsm.initial_state fsm)))
        in
        let next_state = signal (cname ^ ".state_next") state.sg_initial in
        (* Per SFG, once: its declared inputs' signals, its action, and
           whether its plan reads only inputs it declares — then its
           seeds are the same in every transition. *)
        let resolved = Hashtbl.create 16 in
        let resolve sfg =
          match List.assq_opt sfg (Hashtbl.find_all resolved (Sfg.name sfg)) with
          | Some info -> info
          | None ->
            let plan = Sfg.plan sfg and outputs = Sfg.outputs sfg in
            let declared =
              List.filter_map
                (fun i ->
                  Option.map
                    (fun n -> (Signal.Input.id i, net_signal n))
                    (Cycle_system.input_net sys cname (Signal.Input.name i)))
                (Sfg.inputs sfg)
            in
            let seeds bound =
              Array.of_list
                (List.filter_map
                   (fun (id, s) ->
                     match Signal.Plan.read_nodes plan (fun i -> Signal.Input.id i = id) with
                     | [||] -> None
                     | nodes -> Some (s, nodes))
                   bound)
            in
            let own i = List.exists (fun d -> Signal.Input.id d = Signal.Input.id i) (Sfg.inputs sfg) in
            let closed = Signal.Plan.read_nodes plan (fun i -> not (own i)) = [||] in
            let action =
              {
                ac_plan = plan;
                ac_seeds = seeds declared;
                ac_outputs =
                  Array.of_list
                    (List.concat
                       (List.mapi
                          (fun k (port, _) ->
                            match Cycle_system.output_net sys cname port with
                            | Some n -> [ (k, net_signal n) ]
                            | None -> [])
                          outputs));
                ac_assigns =
                  Array.of_list
                    (List.map (fun (r, _) -> Hashtbl.find index (Signal.Reg.id r)) (Sfg.assigns sfg));
                ac_first = List.length outputs;
              }
            in
            let info = (declared, action, if closed then None else Some seeds) in
            Hashtbl.add resolved (Sfg.name sfg) (sfg, info);
            info
        in
        let transition tr =
          let infos = List.map resolve tr.Fsm.t_actions in
          (* An action reading an input another action declares is
             seeded from every input the transition's actions declare. *)
          let bound = lazy (List.concat_map (fun (declared, _, _) -> declared) infos) in
          let actions =
            Array.of_list
              (List.map
                 (fun (_, a, reseed) ->
                   match reseed with
                   | None -> a
                   | Some seeds -> { a with ac_seeds = seeds (Lazy.force bound) })
                 infos)
          in
          let assigned = Array.make (Array.length regs) false in
          Array.iter (fun a -> Array.iter (fun j -> assigned.(j) <- true) a.ac_assigns) actions;
          let holds = ref [] in
          for j = Array.length regs - 1 downto 0 do
            if not assigned.(j) then holds := j :: !holds
          done;
          {
            tr_goto = Fixed.of_int state_format (Fsm.state_index tr.Fsm.t_goto);
            tr_actions = actions;
            tr_holds = Array.of_list !holds;
          }
        in
        let transitions = Array.of_list (List.map transition (Fsm.transitions fsm)) in
        let comb =
          {
            cb_selector = Fsm.selector fsm;
            cb_state = state;
            cb_next_state = next_state;
            cb_regs = regs;
            cb_shadows = shadows;
            cb_nexts = nexts;
            cb_transitions = transitions;
            cb_stale = true;
            cb_selected = -1;
          }
        in
        let inputs =
          List.concat_map
            (fun sfg ->
              let declared, _, _ = resolve sfg in
              List.map snd declared)
            (Fsm.all_sfgs fsm)
          |> List.sort_uniq (fun a b -> compare a.sg_index b.sg_index)
        in
        let most =
          Array.fold_left
            (fun m tr ->
              Array.fold_left
                (fun m a -> m + Array.length a.ac_outputs + Array.length a.ac_assigns)
                (Array.length tr.tr_holds) tr.tr_actions
              |> max m)
            (Array.length regs) transitions
        in
        ignore
          (process (Comb comb)
             ~sensitivity:(inputs @ Array.to_list shadows @ [ state ])
             ~most:(1 + most));
        Array.iter (fun s -> s.sg_selects <- i) shadows;
        state.sg_selects <- i;
        latched := !latched + 1 + Array.length regs;
        ((cname, List.length (Fsm.states fsm)), fsm, comb))
      (Cycle_system.timed_components sys)
  in
  (* Untimed kernels: combinational processes. *)
  let untimed = Cycle_system.untimed_components sys in
  let kernel_outs = ref 0 in
  let kernel_procs =
    List.map
      (fun (cname, k) ->
        let ports port_net ports =
          List.filter_map
            (fun (port, _) ->
              Option.map (fun n -> (port, net_signal n)) (port_net sys cname port))
            ports
        in
        let ins = ports Cycle_system.input_net k.Dataflow.Kernel.k_inputs in
        let outs = Array.of_list (ports Cycle_system.output_net k.Dataflow.Kernel.k_outputs) in
        kernel_outs := !kernel_outs + Array.length outs;
        process
          (Kernel { kn_kernel = k; kn_inputs = ins; kn_outputs = outs })
          ~sensitivity:(List.map snd ins) ~most:(Array.length outs))
      untimed
  in
  (* Primary inputs and probes. *)
  let stims =
    List.filter_map
      (fun (name, fmt, _) ->
        Option.map
          (fun n -> (Cycle_system.input_column sys name, fmt, net_signal n))
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
           match n with Some n -> [ (i, net_signal n) ] | None -> [])
         probe_nets)
  in
  let signals = Array.of_list (List.rev !signals) in
  (* Each signal's readers, from the (signal, process) pairs. *)
  let readers = Array.make (Array.length signals) [] in
  List.iter (fun (s, p) -> readers.(s.sg_index) <- p :: readers.(s.sg_index)) !sensitive;
  Array.iter (fun s -> s.sg_readers <- Array.of_list readers.(s.sg_index)) signals;
  (* A delta's queue holds what its processes drive; a step's first
     queue, the edge's transactions, the inputs and the kernels'. *)
  let capacity =
    max 1 (max !drives (!latched + List.length stims + !kernel_outs))
  in
  let regs = Array.of_list (Cycle_system.all_regs sys) in
  let procs = Array.of_list (List.rev !procs) in
  {
    signals;
    procs;
    combs = Array.of_list (List.map (fun (_, _, c) -> c) timed);
    components = Array.of_list (List.map (fun (row, _, _) -> row) timed);
    fsms = Array.of_list (List.map (fun (_, fsm, _) -> fsm) timed);
    kernels = Array.of_list (List.map snd untimed);
    kernel_procs = Array.of_list kernel_procs;
    cyclic = has_cycle (Array.length signals) procs;
    stims = Array.of_list stims;
    probes = Array.of_list probes;
    trace;
    regs;
    reg_shadows = Array.map (fun r -> Hashtbl.find shadow_of_reg (Signal.Reg.id r)) regs;
    q_sigs = Array.make capacity 0;
    q_vals = Array.make capacity no_value;
    q_len = 0;
    q_high = 0;
    pending = false;
    applied_sigs = Array.make capacity 0;
    applied_vals = Array.make capacity no_value;
    stamps = Array.make !n_procs (-1);
    woken = Array.make !n_procs 0;
    epoch = 0;
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

(* A transaction for the next delta.  Unless the elaboration is cyclic,
   one that would not change the signal is not queued: a signal has one
   driver, which runs at most once per delta, so nothing else can change
   the signal before the transaction would apply. *)
let drive t s v =
  if t.cyclic || (v != s.sg_value && not (Fixed.equal s.sg_value v)) then begin
    let n = t.q_len in
    t.q_sigs.(n) <- s.sg_index;
    t.q_vals.(n) <- v;
    t.q_len <- n + 1
  end
  else s.sg_driven <- true

(* What an exception left queued goes, and a pending edge with it: the
   next settle starts empty. *)
let drop_queue t =
  Array.fill t.q_vals 0 t.q_len no_value;
  t.q_len <- 0;
  t.pending <- false

(* A fresh memo for an action, seeded straight from its input signals. *)
let seeded ac =
  let m = Signal.Plan.start ac.ac_plan in
  for j = 0 to Array.length ac.ac_seeds - 1 do
    let s, nodes = ac.ac_seeds.(j) in
    Signal.Plan.seed m nodes s.sg_value
  done;
  m

let fire_comb t c =
  (* Mirror the shadows into the shared registers, which the guards and
     the transitions' plans read. *)
  for j = 0 to Array.length c.cb_regs - 1 do
    let r = c.cb_regs.(j) and v = c.cb_shadows.(j).sg_value in
    if Signal.Reg.value r != v then Signal.Reg.set_value r v
  done;
  if c.cb_stale then begin
    c.cb_selected <- Fsm.select_from c.cb_selector (Fixed.to_int c.cb_state.sg_value);
    c.cb_stale <- false
  end;
  if c.cb_selected < 0 then begin
    (* Hold: next state and next registers keep the current values. *)
    drive t c.cb_next_state c.cb_state.sg_value;
    for j = 0 to Array.length c.cb_nexts - 1 do
      drive t c.cb_nexts.(j) c.cb_shadows.(j).sg_value
    done
  end
  else begin
    let tr = c.cb_transitions.(c.cb_selected) in
    drive t c.cb_next_state tr.tr_goto;
    let actions = tr.tr_actions in
    let memos = Array.map seeded actions in
    (* Every action's outputs, then every action's assignments: the
       order of the transition body. *)
    for a = 0 to Array.length actions - 1 do
      let outputs = actions.(a).ac_outputs in
      for j = 0 to Array.length outputs - 1 do
        let k, s = outputs.(j) in
        drive t s (Signal.Plan.eval memos.(a) k)
      done
    done;
    for a = 0 to Array.length actions - 1 do
      let ac = actions.(a) in
      for j = 0 to Array.length ac.ac_assigns - 1 do
        drive t c.cb_nexts.(ac.ac_assigns.(j)) (Signal.Plan.eval memos.(a) (ac.ac_first + j))
      done
    done;
    (* Unassigned registers hold their value. *)
    let holds = tr.tr_holds in
    for j = 0 to Array.length holds - 1 do
      drive t c.cb_nexts.(holds.(j)) c.cb_shadows.(holds.(j)).sg_value
    done
  end

let fire_kernel t kn =
  let k = kn.kn_kernel in
  if k.Dataflow.Kernel.k_ready () then begin
    let consumed = List.map (fun (port, s) -> (port, [ s.sg_value ])) kn.kn_inputs in
    let produced = k.Dataflow.Kernel.k_behavior consumed in
    for j = 0 to Array.length kn.kn_outputs - 1 do
      let port, s = kn.kn_outputs.(j) in
      match List.assoc_opt port produced with
      | Some [ v ] -> drive t s v
      | Some _ | None -> ()
    done
  end

let fire t p =
  t.n_activations <- t.n_activations + 1;
  match t.procs.(p) with
  | Comb c -> fire_comb t c
  | Kernel kn -> fire_kernel t kn

(* Name the signals still being scheduled — the combinational loop (or
   ping-ponging process pair) runs through them. *)
let overflow t =
  let culprits =
    List.init t.q_len (fun j -> t.signals.(t.q_sigs.(j)).sg_name)
    |> List.sort_uniq String.compare
  in
  let shown =
    if List.length culprits <= 12 then culprits
    else
      List.filteri (fun i _ -> i < 12) culprits
      @ [ Printf.sprintf "... %d more" (List.length culprits - 12) ]
  in
  Ocapi_error.fail Ocapi_error.Delta_overflow ~engine:"rtl" ~cycle:t.cycle_count
    ~nets:shown
    "no convergence after %d delta cycles: %d signals still scheduling transactions"
    max_deltas (List.length culprits)

(* Apply the queued transactions, wake the readers of the signals that
   changed, run them; until a delta drives nothing.  [spent] deltas of
   the budget are already used. *)
let settle t ~spent =
  let deltas = ref spent in
  while t.q_len > 0 do
    incr deltas;
    t.n_deltas <- t.n_deltas + 1;
    if t.q_len > t.q_high then t.q_high <- t.q_len;
    if !deltas > max_deltas then overflow t;
    let sigs = t.q_sigs and vals = t.q_vals and n = t.q_len in
    t.q_sigs <- t.applied_sigs;
    t.q_vals <- t.applied_vals;
    t.q_len <- 0;
    t.applied_sigs <- sigs;
    t.applied_vals <- vals;
    t.epoch <- t.epoch + 1;
    let epoch = t.epoch and woken = ref 0 in
    t.n_transactions <- t.n_transactions + n;
    for j = 0 to n - 1 do
      let s = t.signals.(sigs.(j)) and v = vals.(j) in
      vals.(j) <- no_value;
      s.sg_driven <- true;
      (* Only a cyclic elaboration queues a transaction that changes
         nothing. *)
      if not (t.cyclic && (v == s.sg_value || Fixed.equal s.sg_value v)) then begin
        s.sg_value <- v;
        t.n_events <- t.n_events + 1;
        if s.sg_selects >= 0 then t.combs.(s.sg_selects).cb_stale <- true;
        let readers = s.sg_readers in
        for r = 0 to Array.length readers - 1 do
          let p = readers.(r) in
          if t.stamps.(p) <> epoch then begin
            t.stamps.(p) <- epoch;
            t.woken.(!woken) <- p;
            incr woken
          end
        done
      end
    done;
    for w = 0 to !woken - 1 do
      fire t t.woken.(w)
    done
  done

let initialize t =
  (* VHDL semantics: every process executes once at time zero. *)
  if not t.initialized then begin
    t.initialized <- true;
    for p = 0 to Array.length t.procs - 1 do
      fire t p
    done;
    settle t ~spent:0
  end

(* Committed state may change combinational reads (a RAM's read port
   then sees the written word), so kernel processes execute again after
   the rising edge even when none of their input nets saw an event. *)
let refire_kernels t =
  for j = 0 to Array.length t.kernel_procs - 1 do
    fire t t.kernel_procs.(j)
  done

(* The rising edge: every component's sequential part latches its next
   state and next registers, one activation each, into the queue. *)
let latch t =
  for i = 0 to Array.length t.combs - 1 do
    let c = t.combs.(i) in
    t.n_activations <- t.n_activations + 1;
    drive t c.cb_state c.cb_next_state.sg_value;
    for j = 0 to Array.length c.cb_nexts - 1 do
      drive t c.cb_shadows.(j) c.cb_nexts.(j).sg_value
    done
  done

(* A pending edge's queue is applied by the next settle, after the
   kernels run again. *)
let take_edge t =
  if t.pending then begin
    t.pending <- false;
    refire_kernels t
  end

(* Settle what the last step's rising edge left queued, so that a reader
   or a writer of the state sees what a settled edge leaves. *)
let settle_edge t =
  if t.pending then
    match
      take_edge t;
      settle t ~spent:0
    with
    | () -> ()
    | exception e ->
      drop_queue t;
      raise e

let step t =
  initialize t;
  (* Drive primary inputs and settle them, with the last rising edge if
     it is still queued. *)
  let c = t.cycle_count in
  for j = 0 to Array.length t.stims - 1 do
    let col, fmt, s = t.stims.(j) in
    if Cycle_system.column_present col c then
      drive t s (Fixed.create fmt (Cycle_system.column_mantissa col c))
  done;
  take_edge t;
  settle t ~spent:0;
  (* Sample probes whose nets were driven, before the clock edge — the
     combinational outputs of this cycle are stable now, computed from
     this cycle's inputs and the pre-edge register values, exactly as a
     test bench would sample them. *)
  for j = 0 to Array.length t.probes - 1 do
    let column, s = t.probes.(j) in
    if s.sg_driven then
      Cycle_system.Trace.record_token t.trace column ~cycle:c s.sg_value
  done;
  (* Kernel state commits are synchronous: like a register latch they
     apply the staging settled from this cycle's pre-edge signal values.
     Committing before the edge re-runs any process keeps the
     staged write exactly what the cycle's tokens computed — the three-
     phase scheduler's register-update-phase semantics.  (Committing
     after the edge settle would overwrite the staging with post-edge
     register values first: a one-cycle skew on register-driven write
     data that the differential fuzzer caught.)  Newest first. *)
  for j = Array.length t.kernels - 1 downto 0 do
    t.kernels.(j).Dataflow.Kernel.k_commit ()
  done;
  (* Rising edge.  Without a combinational cycle the settled values do
     not depend on the order the edge and the next inputs apply in, so
     the next settle takes both at once.  With one, the edge settles
     here, and the latch uses the first delta of its budget: the delta in
     which a clock event runs the sequential processes. *)
  latch t;
  if t.cyclic then begin
    settle t ~spent:1;
    if Array.length t.kernel_procs > 0 then begin
      refire_kernels t;
      settle t ~spent:0
    end
  end
  else t.pending <- true

(* [settle] keeps the queue's high-water mark as an [int]; telemetry
   gets it once per cycle or poke, off the delta loop. *)
let report_queue t =
  if t.q_high > 0 then begin
    if Ocapi_obs.enabled () then
      Ocapi_obs.max_gauge "rtl.queue_high_water" (float_of_int t.q_high);
    t.q_high <- 0
  end

let cycle t =
  let t_cycle = Ocapi_obs.span_begin () in
  let events0 = t.n_events
  and transactions0 = t.n_transactions
  and deltas0 = t.n_deltas
  and activations0 = t.n_activations in
  (match step t with
  | () -> ()
  | exception e ->
    drop_queue t;
    report_queue t;
    raise e);
  report_queue t;
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

(* Every selection is made again: [reset] and [restore] set states and
   shadows without an event. *)
let stale t = Array.iter (fun c -> c.cb_stale <- true) t.combs

let reset t =
  t.cycle_count <- 0;
  t.initialized <- false;
  t.n_events <- 0;
  t.n_transactions <- 0;
  t.n_deltas <- 0;
  t.n_activations <- 0;
  t.q_high <- 0;
  drop_queue t;
  Array.iter
    (fun s ->
      s.sg_value <- s.sg_initial;
      s.sg_driven <- false)
    t.signals;
  Array.iter Signal.Reg.reset t.regs;
  Array.iter Fsm.reset t.fsms;
  Array.iter (fun k -> k.Dataflow.Kernel.k_reset ()) t.kernels;
  stale t;
  clear_histories t

(* --- checkpoints ------------------------------------------------------------ *)

(* A copy of what [reset] re-initializes, less the probe trace and the
   activity counters, taken with the last edge settled.  Signal values
   are immutable [Fixed.t]s, so the copy shares them. *)
type snapshot = {
  sn_cycle : int;
  sn_initialized : bool;
  sn_values : Fixed.t array;  (* [t.signals] order *)
  sn_driven : bool array;
  sn_regs : (Fixed.t * Fixed.t option) array;
  sn_kernels : Dataflow.Kernel.snapshot;
}

let snapshot t =
  settle_edge t;
  Option.map
    (fun save ->
      {
        sn_cycle = t.cycle_count;
        sn_initialized = t.initialized;
        sn_values = Array.map (fun s -> s.sg_value) t.signals;
        sn_driven = Array.map (fun s -> s.sg_driven) t.signals;
        sn_regs = Array.map (fun r -> (Signal.Reg.value r, Signal.Reg.next r)) t.regs;
        sn_kernels = save ();
      })
    (Dataflow.Kernel.snapshot_all (Array.to_list t.kernels))

let restore t sn =
  t.cycle_count <- sn.sn_cycle;
  t.initialized <- sn.sn_initialized;
  drop_queue t;
  Array.iteri
    (fun i s ->
      s.sg_value <- sn.sn_values.(i);
      s.sg_driven <- sn.sn_driven.(i))
    t.signals;
  Array.iteri
    (fun i r ->
      let v, next = sn.sn_regs.(i) in
      Signal.Reg.reset r;
      Signal.Reg.set_value r v;
      Option.iter (Signal.Reg.set_next r) next)
    t.regs;
  sn.sn_kernels.Dataflow.Kernel.sn_restore ();
  stale t;
  clear_histories t

let matches t sn =
  let rec same_signals i =
    i = Array.length t.signals
    || (let s = t.signals.(i) in
        Fixed.equal s.sg_value sn.sn_values.(i)
        && s.sg_driven = sn.sn_driven.(i)
        && same_signals (i + 1))
  in
  settle_edge t;
  t.cycle_count = sn.sn_cycle
  && t.initialized = sn.sn_initialized
  && Array.for_all2
       (fun r (v, next) ->
         Fixed.equal (Signal.Reg.value r) v
         && Option.equal Fixed.equal (Signal.Reg.next r) next)
       t.regs sn.sn_regs
  && same_signals 0
  && sn.sn_kernels.Dataflow.Kernel.sn_matches ()

(* --- fault-injection access ----------------------------------------------- *)

(* Drive [s] with [value s], read once the elaboration is initialized
   and the last edge settled, and settle: a poke between two cycles. *)
let poke t s value =
  (match
     settle_edge t;
     initialize t;
     drive t s (value s);
     settle t ~spent:0
   with
  | () -> ()
  | exception e ->
    drop_queue t;
    report_queue t;
    raise e);
  report_queue t

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
  (* The shadow may hold a value in a wider expression format than the
     declared one; flip within the stored width. *)
  poke t t.reg_shadows.(i) (fun sh ->
      let v = sh.sg_value in
      Fixed.flip_bit v (min bit ((Fixed.fmt v).Fixed.width - 1)))

let component_count t = Array.length t.combs

let component_info t i = t.components.(i)

let component_state t i =
  settle_edge t;
  Fixed.to_int t.combs.(i).cb_state.sg_value

let set_component_state t i state =
  let cname, n = t.components.(i) in
  let state =
    Ocapi_error.check_state ~engine:"rtl" ~construct:cname ~cycle:t.cycle_count
      ~states:n state
  in
  poke t t.combs.(i).cb_state (fun s -> Fixed.of_int (Fixed.fmt s.sg_value) state)
