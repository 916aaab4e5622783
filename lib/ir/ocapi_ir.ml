type payload = Behavioral of Cycle_system.t | Gate of Netlist.t

type pass_record = {
  pr_pass : string;
  pr_input_digest : string;
  pr_output_digest : string;
}

type t = {
  ir_design : payload;
  ir_digest : string;
  ir_provenance : pass_record list;
}

type pass = { pass_name : string; pass_body : t -> payload }

let digest_of = function
  | Behavioral sys -> Cycle_system.digest sys
  | Gate nl -> Netlist.digest nl

let level_name d =
  match d.ir_design with Behavioral _ -> "behavioral" | Gate _ -> "gate"

let behavioral sys =
  {
    ir_design = Behavioral sys;
    ir_digest = Cycle_system.digest sys;
    ir_provenance = [];
  }

let to_netlist d =
  match d.ir_design with Gate nl -> Some nl | Behavioral _ -> None

let wrong_level pass d ~expected =
  raise
    (Ocapi_error.Error
       (Ocapi_error.make Ocapi_error.Unsupported ~engine:"ir"
          ~construct:
            (match d.ir_design with
            | Behavioral sys -> Cycle_system.name sys
            | Gate nl -> Netlist.name nl)
          (Printf.sprintf "pass %s expects a %s design, got %s" pass expected
             (level_name d))))

(* --- the pass manager ----------------------------------------------------- *)

let apply pass d =
  let input_digest = d.ir_digest in
  let out = pass.pass_body d in
  let out_digest = digest_of out in
  {
    ir_design = out;
    ir_digest = out_digest;
    ir_provenance =
      d.ir_provenance
      @ [
          {
            pr_pass = pass.pass_name;
            pr_input_digest = input_digest;
            pr_output_digest = out_digest;
          };
        ];
  }

(* --- built-in passes ------------------------------------------------------- *)

let lower_to_gate =
  {
    pass_name = "lower-to-gate";
    pass_body =
      (fun d ->
        match d.ir_design with
        | Behavioral sys ->
          Cycle_system.reset sys;
          Gate (fst (Synthesize.synthesize sys))
        | Gate _ -> wrong_level "lower-to-gate" d ~expected:"behavioral");
  }

let optimize_gates =
  {
    pass_name = "optimize-gates";
    pass_body =
      (fun d ->
        match d.ir_design with
        | Gate nl -> Gate (fst (Netopt.run nl))
        | Behavioral _ -> wrong_level "optimize-gates" d ~expected:"gate");
  }

(* --- the gate cycle engine -------------------------------------------------- *)

(* What a gate session needs of its design besides its own lane state:
   where the registers and controllers landed, the levelized topology
   and the buses, resolved once.  Immutable, so sessions on every
   domain share it. *)
type gate_artifact = {
  ga_map : Synthesize.state_map;
  ga_topology : Netlist.Sim.topology;
  ga_static_size : int;
  (* Probes in [Cycle_system.probes] order with, when connected, their
     format, signedness, output bus and valid wire. *)
  ga_probes :
    (string
    * (Fixed.format * bool * Netlist.Sim.output_port * Netlist.Sim.output_port option)
      option)
    list;
  (* Primary inputs the netlist reads: name, bus, stimulus-valid bus. *)
  ga_inputs : (string * Netlist.Sim.input_port * Netlist.Sim.input_port option) list;
}

let gate_elaborate sys =
  let synth_options =
    { Synthesize.default_options with Synthesize.emit_probe_valids = true }
  in
  let nl, _report, smap =
    Synthesize.synthesize_mapped ~options:synth_options sys
  in
  let topology = Netlist.Sim.topology nl in
  let out_names = List.map fst (Netlist.outputs_list nl) in
  let in_names = List.map fst (Netlist.inputs_list nl) in
  let output_port name =
    if List.mem name out_names then Some (Netlist.Sim.output_port topology name)
    else None
  in
  let input_port name =
    if List.mem name in_names then Some (Netlist.Sim.input_port topology name)
    else None
  in
  {
    ga_map = smap;
    ga_topology = topology;
    ga_static_size = (Netlist.counts nl).Netlist.gate_equivalents;
    ga_probes =
      List.map
        (fun p ->
          ( p,
            match (Cycle_system.probe_format sys p, output_port p) with
            | Some fmt, Some port ->
              let signed = fmt.Fixed.signedness = Fixed.Signed in
              Some (fmt, signed, port, output_port ("__valid__" ^ p))
            | _ -> None ))
        (Cycle_system.probes sys);
    ga_inputs =
      List.filter_map
        (fun (iname, _fmt, _) ->
          Option.map
            (fun port -> (iname, port, input_port ("__stimvalid__" ^ iname)))
            (input_port iname))
        (Cycle_system.primary_inputs sys);
  }

(* The gate engine's table of elaborations, by elaboration key. *)
type gate_stats = Artifact_table.stats = {
  elaborations : int;
  hits : int;
  evictions : int;
}

let gate_capacity = Artifact_table.capacity
let gate_table : gate_artifact Artifact_table.t = Artifact_table.create ()
let gate_stats () = Artifact_table.stats gate_table
let reset_gate_stats () = Artifact_table.reset_stats gate_table

let gate_artifact sys =
  Artifact_table.find_or_add gate_table (Cycle_system.elaboration_key sys) (fun () ->
      gate_elaborate sys)

module Gate_engine = struct
  let name = "gate"
  let display = "gate"
  let aliases = [ "netlist" ]

  let make sys =
    Cycle_system.reset sys;
    let a = gate_artifact sys in
    let smap = a.ga_map in
    let sim = Netlist.Sim.instantiate a.ga_topology in
    (* Buses were resolved at elaboration: a step neither builds bus
       names nor looks buses up.  Every probe has a trace column; an
       unconnected one's stays empty. *)
    let trace =
      Cycle_system.Trace.create
        (List.map (fun (p, bus) -> (p, Option.map (fun (fmt, _, _, _) -> fmt) bus)) a.ga_probes)
    in
    let probe_rows =
      List.concat
        (List.mapi
           (fun i (_, bus) ->
             match bus with
             | Some (_, signed, port, valid) -> [ (i, signed, port, valid) ]
             | None -> [])
           a.ga_probes)
    in
    let input_rows =
      List.map
        (fun (iname, port, valid) -> (Cycle_system.input_column sys iname, port, valid))
        a.ga_inputs
    in
    let cycle = ref 0 in
    let step () =
      List.iter
        (fun (col, port, valid) ->
          let present = Cycle_system.column_present col !cycle in
          if present then
            Netlist.Sim.drive sim port (Cycle_system.column_mantissa col !cycle);
          match valid with
          | Some vp -> Netlist.Sim.drive sim vp (if present then 1L else 0L)
          | None -> ())
        input_rows;
      Netlist.Sim.settle sim;
      List.iter
        (fun (column, signed, port, valid) ->
          let live =
            match valid with
            | Some vp -> Netlist.Sim.read sim ~signed:false vp = 1L
            | None -> true
          in
          if live then
            Cycle_system.Trace.record trace column ~cycle:!cycle
              (Netlist.Sim.read sim ~signed port))
        probe_rows;
      Netlist.Sim.clock sim;
      incr cycle
    in
    let clear_histories () = Cycle_system.Trace.clear trace in
    let reset () =
      Netlist.Sim.reset sim;
      cycle := 0;
      clear_histories ()
    in
    let bit_of encoding s b =
      match encoding with
      | Synthesize.Binary -> s land (1 lsl b) <> 0
      | Synthesize.One_hot -> s = b
    in
    let check_state (f : Synthesize.fsm_map) s =
      Ocapi_error.check_state ~engine:name ~construct:f.Synthesize.fm_name
        ~cycle:!cycle ~states:f.Synthesize.fm_states s
    in
    Cycle_system.attach_engine sys name;
    {
      Ocapi_engine.ses_engine = name;
      ses_step = step;
      ses_cycle = (fun () -> !cycle);
      ses_reset = reset;
      ses_histories = (fun () -> Cycle_system.Trace.to_histories trace);
      ses_trace = (fun () -> trace);
      ses_register_count = Array.length smap.Synthesize.sm_regs;
      ses_register_info =
        (fun i ->
          let r = smap.Synthesize.sm_regs.(i) in
          (r.Synthesize.rm_name, r.Synthesize.rm_fmt));
      ses_poke_register_bit =
        (fun i ~bit ->
          let r = smap.Synthesize.sm_regs.(i) in
          let nets = r.Synthesize.rm_nets in
          let b = min bit (Array.length nets - 1) in
          Netlist.Sim.poke_net sim nets.(b)
            (not (Netlist.Sim.net_value sim nets.(b))));
      ses_component_count = Array.length smap.Synthesize.sm_fsms;
      ses_component_info =
        (fun i ->
          let f = smap.Synthesize.sm_fsms.(i) in
          (f.Synthesize.fm_name, f.Synthesize.fm_states));
      ses_component_state =
        (fun i ->
          let f = smap.Synthesize.sm_fsms.(i) in
          let bits =
            Array.map (Netlist.Sim.net_value sim) f.Synthesize.fm_state_nets
          in
          match f.Synthesize.fm_encoding with
          | Synthesize.Binary ->
            let v = ref 0 in
            Array.iteri (fun b on -> if on then v := !v lor (1 lsl b)) bits;
            !v
          | Synthesize.One_hot -> (
            let set = ref [] in
            Array.iteri (fun b on -> if on then set := b :: !set) bits;
            match !set with
            | [ b ] -> b
            | _ -> check_state f (-1)));
      ses_force_component_state =
        (fun i s ->
          let f = smap.Synthesize.sm_fsms.(i) in
          let s = check_state f s in
          Array.iteri
            (fun b net ->
              Netlist.Sim.poke_net sim net (bit_of f.Synthesize.fm_encoding s b))
            f.Synthesize.fm_state_nets);
      ses_resident_words = (fun () -> Cycle_system.resident_words sys ~trace sim);
      ses_static_size = Some a.ga_static_size;
      ses_checkpoint =
        (fun () ->
          let at = !cycle and sn = Netlist.Sim.snapshot sim in
          Some
            {
              Ocapi_engine.ck_cycle = at;
              ck_restore =
                (fun () ->
                  Netlist.Sim.restore sim sn;
                  cycle := at;
                  clear_histories ());
              ck_matches = (fun () -> !cycle = at && Netlist.Sim.matches sim sn);
            });
      ses_close = Ocapi_engine.closer sys name;
    }
end

let registered = ref false

let register_gate_engine () =
  if not !registered then begin
    registered := true;
    Ocapi_engine.register (module Gate_engine)
  end
