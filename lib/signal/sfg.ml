let error ?construct fmt =
  Ocapi_error.fail ?construct Ocapi_error.Internal ~engine:"sfg" fmt

type t = {
  name : string;
  inputs : Signal.Input.t list;
  outputs : (string * Signal.t) list;
  assigns : (Signal.Reg.t * Signal.t) list;
  plan : Signal.Plan.t option Atomic.t;
      (* outputs then assigns; built on the first firing *)
}

module Builder = struct
  type t = {
    sfg_name : string;
    mutable b_inputs : Signal.Input.t list;  (* reversed *)
    mutable b_outputs : (string * Signal.t) list;  (* reversed *)
    mutable b_assigns : (Signal.Reg.t * Signal.t) list;  (* reversed *)
  }

  let create sfg_name =
    { sfg_name; b_inputs = []; b_outputs = []; b_assigns = [] }

  let input_port b port =
    if
      List.exists
        (fun i -> Signal.Input.name i = Signal.Input.name port)
        b.b_inputs
    then
      error ~construct:b.sfg_name "sfg %s: duplicate input %s" b.sfg_name
        (Signal.Input.name port);
    b.b_inputs <- port :: b.b_inputs;
    Signal.input port

  let input b name fmt = input_port b (Signal.Input.create name fmt)

  let output b name e =
    if List.mem_assoc name b.b_outputs then
      error ~construct:b.sfg_name "sfg %s: duplicate output %s" b.sfg_name name;
    b.b_outputs <- (name, e) :: b.b_outputs

  let assign b reg e =
    if List.exists (fun (r, _) -> Signal.Reg.id r = Signal.Reg.id reg) b.b_assigns
    then
      error ~construct:b.sfg_name "sfg %s: register %s assigned twice"
        b.sfg_name (Signal.Reg.name reg);
    if not (Fixed.equal_format (Signal.fmt e) (Signal.Reg.fmt reg)) then
      error ~construct:b.sfg_name
        "sfg %s: assignment to %s has format %s, register is %s" b.sfg_name
        (Signal.Reg.name reg)
        (Fixed.format_to_string (Signal.fmt e))
        (Fixed.format_to_string (Signal.Reg.fmt reg));
    b.b_assigns <- (reg, e) :: b.b_assigns

  let assign_resized b reg e =
    assign b reg (Signal.resize (Signal.Reg.fmt reg) e)

  let finish b =
    {
      name = b.sfg_name;
      inputs = List.rev b.b_inputs;
      outputs = List.rev b.b_outputs;
      assigns = List.rev b.b_assigns;
      plan = Atomic.make None;
    }
end

let name t = t.name
let inputs t = t.inputs
let outputs t = t.outputs
let assigns t = t.assigns
let regs_written t = List.map fst t.assigns

let all_roots t = List.map snd t.outputs @ List.map snd t.assigns

let regs_read t =
  let seen = Hashtbl.create 16 in
  Signal.regs_read_all (all_roots t)
  |> List.filter (fun r ->
         let id = Signal.Reg.id r in
         if Hashtbl.mem seen id then false
         else begin
           Hashtbl.add seen id ();
           true
         end)

let node_count t =
  let seen = Hashtbl.create 64 in
  List.fold_left
    (fun acc root ->
      Signal.fold_dag root ~init:acc ~f:(fun acc n ->
          if Hashtbl.mem seen (Signal.id n) then acc
          else begin
            Hashtbl.add seen (Signal.id n) ();
            acc + 1
          end))
    0 (all_roots t)

type check_issue =
  | Dangling_input of string
  | Dead_output of string
  | Multiple_drivers of string

let pp_issue ppf = function
  | Dangling_input s -> Format.fprintf ppf "dangling input %s" s
  | Dead_output s -> Format.fprintf ppf "dead output %s (constant cone)" s
  | Multiple_drivers s -> Format.fprintf ppf "multiple drivers for %s" s

let check ?(flag_constant_outputs = false) t =
  let used = Hashtbl.create 16 in
  List.iter
    (fun root ->
      List.iter
        (fun i -> Hashtbl.replace used (Signal.Input.id i) ())
        (Signal.input_deps root))
    (all_roots t);
  let dangling =
    List.filter_map
      (fun i ->
        if Hashtbl.mem used (Signal.Input.id i) then None
        else Some (Dangling_input (Signal.Input.name i)))
      t.inputs
  in
  let dead =
    if not flag_constant_outputs then []
    else
    List.filter_map
      (fun (nm, e) ->
        let has_leaf =
          Signal.fold_dag e ~init:false ~f:(fun acc n ->
              acc
              ||
              match Signal.op n with
              | Signal.Input_read _ | Signal.Reg_read _ -> true
              | Signal.Const _ | Signal.Add _ | Signal.Sub _ | Signal.Mul _
              | Signal.Neg _ | Signal.Abs _ | Signal.And _ | Signal.Or _
              | Signal.Xor _ | Signal.Not _ | Signal.Eq _ | Signal.Lt _
              | Signal.Le _ | Signal.Mux _ | Signal.Resize _
              | Signal.Rom_read _ | Signal.Shift_left _ | Signal.Shift_right _
                -> false)
        in
        if has_leaf then None else Some (Dead_output nm))
      t.outputs
  in
  dangling @ dead

let build name f =
  let b = Builder.create name in
  f b;
  Builder.finish b

let nop name = build name (fun _ -> ())

type firing = (string * Fixed.t) list

let plan t = Signal.Plan.cached t.plan all_roots t

(* Stages [assigns]; assignment [k] is root [first + k] of [m]'s plan. *)
let stage_assigns m ~first assigns =
  List.iteri
    (fun k (reg, _) -> Signal.Reg.set_next reg (Signal.Plan.eval m (first + k)))
    assigns

let fire t env =
  let m = Signal.Plan.memo (plan t) env in
  let out = List.mapi (fun k (nm, _) -> (nm, Signal.Plan.eval m k)) t.outputs in
  stage_assigns m ~first:(List.length t.outputs) t.assigns;
  out

let pp ppf t =
  Format.fprintf ppf "@[<v 2>sfg %s:" t.name;
  List.iter
    (fun i -> Format.fprintf ppf "@ in %a" Signal.Input.pp i)
    t.inputs;
  List.iter
    (fun (nm, e) -> Format.fprintf ppf "@ out %s = %a" nm Signal.pp e)
    t.outputs;
  List.iter
    (fun (r, e) ->
      Format.fprintf ppf "@ %s <- %a" (Signal.Reg.name r) Signal.pp e)
    t.assigns;
  Format.fprintf ppf "@]"
