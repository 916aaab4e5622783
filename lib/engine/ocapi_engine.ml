(* The uniform cycle-engine interface: one session calling convention
   over the five engines — interp, compiled and rtl here, native and
   gate registered from their own libraries — plus the registry the
   upper layers (Flow, fault campaigns, CLI, bench) resolve engines
   from by name. *)

type histories = (string * (int * Fixed.t) list) list

type checkpoint = {
  ck_cycle : int;
  ck_restore : unit -> unit;
  ck_matches : unit -> bool;
}

type session = {
  ses_engine : string;
  ses_step : unit -> unit;
  ses_cycle : unit -> int;
  ses_reset : unit -> unit;
  ses_histories : unit -> histories;
  ses_trace : unit -> Cycle_system.Trace.t;
  ses_register_count : int;
  ses_register_info : int -> string * Fixed.format;
  ses_poke_register_bit : int -> bit:int -> unit;
  ses_component_count : int;
  ses_component_info : int -> string * int;
  ses_component_state : int -> int;
  ses_force_component_state : int -> int -> unit;
  ses_resident_words : unit -> int;
  ses_static_size : int option;
  ses_checkpoint : unit -> checkpoint option;
  ses_close : unit -> unit;
}

module type ENGINE = sig
  val name : string
  val display : string
  val aliases : string list
  val make : Cycle_system.t -> session
end

type t = (module ENGINE)

let name_of (module E : ENGINE) = E.name
let display_of (module E : ENGINE) = E.display

(* A close that detaches exactly once, however many times callers'
   cleanup paths run it. *)
let closer sys name =
  let closed = ref false in
  fun () ->
    if not !closed then begin
      closed := true;
      Cycle_system.detach_engine sys name
    end

(* --- interpreted three-phase engine -------------------------------------- *)

module Interp_engine = struct
  let name = "interp"
  let display = "interpreted"
  let aliases = [ "interpreted" ]

  let make sys =
    let regs = Array.of_list (Cycle_system.all_regs sys) in
    let comps = Array.of_list (Cycle_system.timed_components sys) in
    Cycle_system.attach_engine sys name;
    {
      ses_engine = name;
      ses_step = (fun () -> Cycle_system.cycle sys);
      ses_cycle = (fun () -> Cycle_system.current_cycle sys);
      ses_reset = (fun () -> Cycle_system.reset sys);
      ses_histories =
        (fun () -> Cycle_system.Trace.to_histories (Cycle_system.trace sys));
      ses_trace = (fun () -> Cycle_system.trace sys);
      ses_register_count = Array.length regs;
      ses_register_info =
        (fun i ->
          let r = regs.(i) in
          (Signal.Reg.name r, Signal.Reg.fmt r));
      ses_poke_register_bit =
        (fun i ~bit ->
          let r = regs.(i) in
          let v = Signal.Reg.value r in
          (* Registers may hold values in a wider expression format than
             the declared one; flip within the stored width. *)
          let b = min bit ((Fixed.fmt v).Fixed.width - 1) in
          Signal.Reg.set_value r (Fixed.flip_bit v b));
      ses_component_count = Array.length comps;
      ses_component_info =
        (fun i ->
          let cname, fsm = comps.(i) in
          (cname, List.length (Fsm.states fsm)));
      ses_component_state =
        (fun i ->
          let _, fsm = comps.(i) in
          Fsm.state_index (Fsm.current fsm));
      ses_force_component_state =
        (fun i s ->
          let cname, fsm = comps.(i) in
          Fsm.force_state fsm
            (Ocapi_error.check_state ~engine:name ~construct:cname
               ~cycle:(Cycle_system.current_cycle sys)
               ~states:(List.length (Fsm.states fsm)) s));
      ses_resident_words =
        (fun () ->
          Cycle_system.resident_words sys ~trace:(Cycle_system.trace sys) sys);
      ses_static_size = None;
      ses_checkpoint =
        (fun () ->
          Option.map
            (fun sn ->
              {
                ck_cycle = Cycle_system.current_cycle sys;
                ck_restore = (fun () -> Cycle_system.restore sys sn);
                ck_matches = (fun () -> Cycle_system.matches sys sn);
              })
            (Cycle_system.snapshot sys));
      ses_close = closer sys name;
    }
end

(* --- compiled closure-program engine -------------------------------------- *)

(* Lowered programs by elaboration key, shared by the compiled and
   native engines. *)
let programs : Compiled_sim.program Artifact_table.t = Artifact_table.create ()

let lowered ~key sys =
  Artifact_table.find_or_add programs key (fun () -> Compiled_sim.lower sys)

let program_stats () = Artifact_table.stats programs

let compiled_session ~engine sys =
  Cycle_system.reset sys;
  let key = Cycle_system.elaboration_key sys in
  let prog = Compiled_sim.instantiate (lowered ~key sys) sys in
  Cycle_system.attach_engine sys engine;
  {
    ses_engine = engine;
    ses_step = (fun () -> Compiled_sim.step prog);
    ses_cycle = (fun () -> Compiled_sim.current_cycle prog);
    ses_reset = (fun () -> Compiled_sim.reset prog);
    ses_histories =
      (fun () -> Cycle_system.Trace.to_histories (Compiled_sim.trace prog));
    ses_trace = (fun () -> Compiled_sim.trace prog);
    ses_register_count = Compiled_sim.register_count prog;
    ses_register_info = Compiled_sim.register_info prog;
    ses_poke_register_bit = Compiled_sim.flip_register_bit prog;
    ses_component_count = Compiled_sim.component_count prog;
    ses_component_info = Compiled_sim.component_info prog;
    ses_component_state = Compiled_sim.component_state prog;
    ses_force_component_state = Compiled_sim.set_component_state prog;
    ses_resident_words =
      (fun () ->
        Cycle_system.resident_words sys ~trace:(Compiled_sim.trace prog) prog);
    ses_static_size = Some (Compiled_sim.statement_count prog);
    ses_checkpoint =
      (fun () ->
        Option.map
          (fun sn ->
            {
              ck_cycle = Compiled_sim.current_cycle prog;
              ck_restore = (fun () -> Compiled_sim.restore prog sn);
              ck_matches = (fun () -> Compiled_sim.matches prog sn);
            })
          (Compiled_sim.snapshot prog));
    ses_close = closer sys engine;
  }

module Compiled_engine = struct
  let name = "compiled"
  let display = "compiled"
  let aliases = []

  let make sys = compiled_session ~engine:name sys
end

(* --- event-driven RTL engine ---------------------------------------------- *)

module Rtl_engine = struct
  let name = "rtl"
  let display = "rtl"
  let aliases = [ "rtl-sim"; "rt" ]

  let make sys =
    Cycle_system.reset sys;
    let rtl = Rtl.of_system sys in
    Cycle_system.attach_engine sys name;
    {
      ses_engine = name;
      ses_step = (fun () -> Rtl.cycle rtl);
      ses_cycle = (fun () -> Rtl.current_cycle rtl);
      ses_reset =
        (fun () ->
          (* The elaboration shares the system's register objects:
             restore both so the system is pristine between runs. *)
          Rtl.reset rtl;
          Cycle_system.reset sys);
      ses_histories = (fun () -> Cycle_system.Trace.to_histories (Rtl.trace rtl));
      ses_trace = (fun () -> Rtl.trace rtl);
      ses_register_count = Rtl.register_count rtl;
      ses_register_info = Rtl.register_info rtl;
      ses_poke_register_bit = Rtl.flip_register_bit rtl;
      ses_component_count = Rtl.component_count rtl;
      ses_component_info = Rtl.component_info rtl;
      ses_component_state = Rtl.component_state rtl;
      ses_force_component_state = Rtl.set_component_state rtl;
      ses_resident_words =
        (fun () -> Cycle_system.resident_words sys ~trace:(Rtl.trace rtl) rtl);
      ses_static_size = None;
      ses_checkpoint =
        (fun () ->
          Option.map
            (fun sn ->
              {
                ck_cycle = Rtl.current_cycle rtl;
                ck_restore = (fun () -> Rtl.restore rtl sn);
                ck_matches = (fun () -> Rtl.matches rtl sn);
              })
            (Rtl.snapshot rtl));
      ses_close = closer sys name;
    }
end

(* --- registry -------------------------------------------------------------- *)

let engines : t list ref = ref []

let register e = engines := !engines @ [ e ]

let all () = !engines

let names () = List.map name_of !engines

let find label =
  List.find_opt
    (fun (module E : ENGINE) -> E.name = label || List.mem label E.aliases)
    !engines

let get label =
  match find label with
  | Some e -> e
  | None ->
    Ocapi_error.fail Ocapi_error.Unsupported ~engine:"registry"
      "unknown engine %S (known: %s)" label
      (String.concat ", " (names ()))

let () =
  register (module Interp_engine : ENGINE);
  register (module Compiled_engine : ENGINE);
  register (module Rtl_engine : ENGINE)

(* --- uniform execution ----------------------------------------------------- *)

let run ?inject ?progress ses ~cycles =
  ses.ses_reset ();
  (try
     for c = 0 to cycles - 1 do
       (match progress with Some f -> f c | None -> ());
       (match inject with
       | Some (at, poke) when at = c -> poke ()
       | _ -> ());
       ses.ses_step ()
     done
   with e ->
     ses.ses_reset ();
     raise e);
  let trace = Cycle_system.Trace.copy (ses.ses_trace ()) in
  ses.ses_reset ();
  trace
