let error ?construct ?cycle fmt =
  Ocapi_error.fail ?construct ?cycle Ocapi_error.Internal ~engine:"sched" fmt

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* --- probe traces ---------------------------------------------------------- *)

module Trace = struct
  (* One probe's tokens, oldest first: token [k] arrived at cycle
     [pc_cycles.(k)], its mantissa is the int64 at byte offset [8 * k] of
     [pc_mantissas] (the stimulus columns' layout) and its format is
     [pc_formats.(byte k of pc_format_ix)].  [pc_formats] lists the
     formats seen, in order of first arrival; a probe with a declared
     format starts with it at index 0.  The format bytes are allocated
     when a token in a second format arrives: until then they would all
     be 0, and the step loops write two columns per token, not three.
     Storage doubles from 64 tokens and is kept by [clear]. *)
  type column = {
    pc_name : string;
    mutable pc_formats : Fixed.format array;
    mutable pc_len : int;
    mutable pc_cycles : int array;
    mutable pc_mantissas : Bytes.t;
    mutable pc_format_ix : Bytes.t;
  }

  type t = column array

  let column pc_name fmt =
    {
      pc_name;
      pc_formats = (match fmt with Some f -> [| f |] | None -> [||]);
      pc_len = 0;
      pc_cycles = [||];
      pc_mantissas = Bytes.empty;
      pc_format_ix = Bytes.empty;
    }

  let create probes =
    Array.of_list (List.map (fun (name, fmt) -> column name fmt) probes)

  let probe_count t = Array.length t
  let probe_name t p = t.(p).pc_name
  let length t p = t.(p).pc_len

  (* Probe [p]'s column, with token [k] recorded: the storage beyond
     [pc_len] holds cleared tokens. *)
  let recorded t p k =
    let col = t.(p) in
    if k < 0 || k >= col.pc_len then
      error "Trace: token %d of probe %s, which holds %d" k col.pc_name col.pc_len;
    col

  let format_ix col k =
    if Bytes.length col.pc_format_ix = 0 then 0
    else Char.code (Bytes.get col.pc_format_ix k)

  let cycle t p k = (recorded t p k).pc_cycles.(k)

  let token t p k =
    let col = recorded t p k in
    Fixed.create col.pc_formats.(format_ix col k) (get64 col.pc_mantissas (8 * k))

  let mantissa t p k = get64 (recorded t p k).pc_mantissas (8 * k)

  let grow col =
    let cap = max 64 (2 * col.pc_len) in
    let cycles = Array.make cap 0 in
    let mantissas = Bytes.make (8 * cap) '\000' in
    Array.blit col.pc_cycles 0 cycles 0 col.pc_len;
    Bytes.blit col.pc_mantissas 0 mantissas 0 (8 * col.pc_len);
    col.pc_cycles <- cycles;
    col.pc_mantissas <- mantissas;
    if Bytes.length col.pc_format_ix > 0 then
      col.pc_format_ix <-
        Bytes.extend col.pc_format_ix 0 (cap - Bytes.length col.pc_format_ix)

  (* Format bytes, from the first token in a second format on. *)
  let set_format col k ix =
    if Bytes.length col.pc_format_ix = 0 then
      col.pc_format_ix <- Bytes.make (Array.length col.pc_cycles) '\000';
    Bytes.set col.pc_format_ix k (Char.chr ix)

  (* Append a token.  After [grow], [k] is below the capacity of the
     cycle and mantissa columns, so the writes skip their bounds
     checks. *)
  let[@inline] append col cycle ix m =
    let k = col.pc_len in
    if k = Array.length col.pc_cycles then grow col;
    Array.unsafe_set col.pc_cycles k cycle;
    set64u col.pc_mantissas (8 * k) m;
    if ix <> 0 || Bytes.length col.pc_format_ix > 0 then set_format col k ix;
    col.pc_len <- k + 1

  (* The gate engine's probes carry their declared format; their
     mantissas come off the netlist as native ints. *)
  let record t p ~cycle m = append t.(p) cycle 0 (Int64.of_int m)

  (* Probes of a value store, recorded by one call per step whose loop
     reads the mantissas where the store keeps them, so that none is
     boxed on its way in. *)
  type fed = { fd_column : column; fd_slot : int; fd_stamp : int }
  type feed = fed array

  let feed t probes =
    Array.map
      (fun (c, fd_slot, fd_stamp) -> { fd_column = t.(c); fd_slot; fd_stamp })
      probes

  let record_words feed ~cycle ~stamps (words : int array) =
    for i = 0 to Array.length feed - 1 do
      let fd = feed.(i) in
      if stamps.(fd.fd_stamp) = cycle then
        append fd.fd_column cycle 0 (Int64.of_int words.(fd.fd_slot))
    done

  let record_store feed ~cycle ~stamps store =
    for i = 0 to Array.length feed - 1 do
      let fd = feed.(i) in
      if stamps.(fd.fd_stamp) = cycle then
        append fd.fd_column cycle 0 (get64 store fd.fd_slot)
    done

  (* A token in any format: the interpreter's probes are not declared
     one, and may carry two (a port produced in two formats, a kernel
     port without a declared format). *)
  let record_token t p ~cycle v =
    let col = t.(p) in
    let f = Fixed.fmt v in
    let n = Array.length col.pc_formats in
    let rec find i =
      if i = n then begin
        if n > 255 then
          error ~construct:col.pc_name ~cycle "probe %s: more than 256 token formats"
            col.pc_name;
        col.pc_formats <- Array.append col.pc_formats [| f |];
        n
      end
      else if Fixed.equal_format col.pc_formats.(i) f then i
      else find (i + 1)
    in
    append col cycle (find 0) (Fixed.mantissa v)

  let clear t = Array.iter (fun col -> col.pc_len <- 0) t

  let copy t =
    Array.map
      (fun col ->
        let n = col.pc_len in
        {
          col with
          pc_cycles = Array.sub col.pc_cycles 0 n;
          pc_mantissas = Bytes.sub col.pc_mantissas 0 (8 * n);
          pc_format_ix =
            (if Bytes.length col.pc_format_ix = 0 then Bytes.empty
             else Bytes.sub col.pc_format_ix 0 n);
        })
      t

  (* The first token of probe [p] at or after [cycle]. *)
  let index_from t p ~cycle =
    let col = t.(p) in
    let rec search lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if col.pc_cycles.(mid) < cycle then search (mid + 1) hi else search lo mid
    in
    search 0 col.pc_len

  type difference = Cycle of int | Value of int | Length of int

  let mismatch (a, p, i) (b, q, j) =
    let ca = a.(p) and cb = b.(q) in
    if i < 0 || j < 0 || i > ca.pc_len || j > cb.pc_len then
      error "Trace.mismatch: token %d of probe %s or token %d of probe %s is past its end"
        i ca.pc_name j cb.pc_name;
    let m = ca.pc_len - i and n = cb.pc_len - j in
    let rec from k =
      if k = m || k = n then if m = n then None else Some (Length k)
      else if ca.pc_cycles.(i + k) <> cb.pc_cycles.(j + k) then Some (Cycle k)
      else if
        (get64 ca.pc_mantissas (8 * (i + k)) : int64)
        <> get64 cb.pc_mantissas (8 * (j + k))
        ||
        let f = ca.pc_formats.(format_ix ca (i + k))
        and g = cb.pc_formats.(format_ix cb (j + k)) in
        f != g && not (Fixed.equal_format f g)
      then Some (Value k)
      else from (k + 1)
    in
    from 0

  (* Built from the newest token back; a token equal to the one after
     it shares its value, which spares the allocation on probes that
     hold a value. *)
  let history t p =
    let col = t.(p) in
    let rec build k acc =
      if k < 0 then acc
      else
        let f = col.pc_formats.(format_ix col k)
        and m = get64 col.pc_mantissas (8 * k) in
        let v =
          match acc with
          | (_, next) :: _ when next.Fixed.fmt == f && next.Fixed.mantissa = m -> next
          | _ -> Fixed.create f m
        in
        build (k - 1) ((col.pc_cycles.(k), v) :: acc)
    in
    build (col.pc_len - 1) []

  let to_histories t =
    Array.to_list (Array.mapi (fun p col -> (col.pc_name, history t p)) t)
end

(* A primary input's stimulus column: the tokens of its function,
   evaluated at most once per cycle.  Byte [c] of [col_present] marks a
   token at cycle [c]; its mantissa is the int64 at byte offset [8 * c]
   of [col_mantissas], as in the compiled engine's value store.  Cycles
   [0, col_filled) are evaluated.  The storage is allocated on the first
   read and doubles whenever a later cycle is asked for. *)
type column = {
  col_name : string;
  col_fmt : Fixed.format;
  col_fn : int -> Fixed.t option;
  mutable col_filled : int;
  mutable col_present : Bytes.t;
  mutable col_mantissas : Bytes.t;
}

type kind =
  | Timed of Fsm.t
  | Untimed of Dataflow.Kernel.t
  | Primary_input of column
  | Primary_output of int  (* the probe's column in the system's trace *)

(* The wiring, filed by port: [c_drives] maps each output port to the
   net it drives, [c_reads] each input port to the net driving it.
   [connect] fills both; every other port lookup reads them. *)
type component = {
  c_id : int;
  c_name : string;
  c_kind : kind;
  c_drives : (string, net) Hashtbl.t;
  c_reads : (string, net) Hashtbl.t;
}

and net = {
  n_id : int;  (* creation order *)
  n_name : string;
  n_driver : component * string;
  n_sinks : (component * string) list;
  mutable n_format : Fixed.format option;  (* [net_format], once derived *)
  mutable n_token : Fixed.t option;
}

(* --- run tables ----------------------------------------------------------- *)

(* What [cycle] and [cycle_two_phase] step over, resolved from the
   components, their FSMs' transitions and the nets on the first cycle
   after a structural change ([add] and [connect] drop it).  Per cycle,
   only the selections, the slots' firing state and the kernels' fired
   flags change. *)

(* One action SFG of one transition.  Its plan, nets, registers and
   seeds are resolved when the table is built; the memo, the input
   count and the output flags are one cycle's firing state, restarted
   when the transition is selected. *)
type slot = {
  sl_plan : Signal.Plan.t;  (* [Sfg.plan]: the outputs, then the assignments *)
  sl_sfg_name : string;
  sl_nets : run_net option array;  (* output [k]'s net, [None] when unconnected *)
  sl_regs : Signal.Reg.t array;  (* assignment [k]'s register *)
  sl_seeds : int array array;
      (* per input port of the component: the plan nodes a token on it
         seeds, the reads of every input of that name that an action of
         the transition declares *)
  sl_declares : bool array;  (* per input port: does the SFG declare it? *)
  sl_inputs : int;  (* inputs the SFG declares *)
  mutable sl_memo : Signal.Plan.memo;
  mutable sl_unbound : int;  (* declared inputs without a token yet *)
  sl_produced : Bytes.t;  (* per output: 0 pending, 1 evaluated, 2 delivered *)
  mutable sl_evaluated : int;  (* outputs evaluated this cycle *)
  mutable sl_complete : bool;
}

(* A timed component: its FSM's transitions, by index, with one slot
   per action. *)
and timed = {
  tc_comp : component;
  tc_fsm : Fsm.t;
  tc_selector : Fsm.selector;  (* one memo per guarded transition *)
  tc_ports : string array;  (* connected input ports; the index of [sl_seeds] *)
  mutable tc_transitions : Fsm.transition array;
  mutable tc_slots : slot array array;  (* per transition *)
  mutable tc_selected : int;  (* this cycle's transition, -1 for none *)
}

and run_net = {
  rn_net : net;
  rn_sinks : (timed * int) array;  (* timed sinks, with the port's index *)
  rn_probes : int array;  (* the probe columns it feeds *)
}

type untimed = {
  uk_comp : component;
  uk_kernel : Dataflow.Kernel.t;
  uk_inputs : net option array;  (* [k_inputs] order, [None] when unconnected *)
  uk_outputs : (string * run_net) array;  (* connected output ports *)
  mutable uk_fired : bool;
}

type run = {
  r_timed : timed array;  (* creation order *)
  r_untimed : untimed array;  (* creation order *)
  r_inputs : (column * run_net) array;  (* connected primary inputs, creation order *)
  r_nets : run_net array;  (* creation order *)
}

type t = {
  s_name : string;
  mutable comps : component list;  (* reversed *)
  by_name : (string, component) Hashtbl.t;
  mutable s_nets : net list;  (* reversed *)
  mutable cycle_count : int;
  mutable s_trace : Trace.t;  (* one column per probe, in creation order *)
  mutable s_net_trace : Trace.t option;  (* from [trace_all]: one column per net *)
  mutable tokens_transferred : int;
  mutable eval_iterations : int;
  mutable untimed_fires : int;
  mutable s_attached : string list;  (* engine names of open sessions *)
  mutable s_run : run option;  (* built by the first cycle after [add] or [connect] *)
}

let create s_name =
  {
    s_name;
    comps = [];
    by_name = Hashtbl.create 16;
    s_nets = [];
    cycle_count = 0;
    s_trace = Trace.create [];
    s_net_trace = None;
    tokens_transferred = 0;
    eval_iterations = 0;
    untimed_fires = 0;
    s_attached = [];
    s_run = None;
  }

let attach_engine t engine = t.s_attached <- engine :: t.s_attached

let detach_engine t engine =
  (* Remove one occurrence: nested sessions of the same engine each
     hold their own mark. *)
  let rec drop = function
    | [] -> []
    | e :: rest -> if e = engine then rest else e :: drop rest
  in
  t.s_attached <- drop t.s_attached

let attached_engines t = t.s_attached

let name t = t.s_name
let component_name c = c.c_name

let add t c_name c_kind =
  if Hashtbl.mem t.by_name c_name then
    error "system %s: duplicate component %s" t.s_name c_name;
  let c =
    {
      c_id = List.length t.comps;
      c_name;
      c_kind;
      c_drives = Hashtbl.create 4;
      c_reads = Hashtbl.create 4;
    }
  in
  t.comps <- c :: t.comps;
  Hashtbl.replace t.by_name c_name c;
  t.s_run <- None;
  c

let add_timed t name fsm = add t name (Timed fsm)

let add_untimed t kernel =
  List.iter
    (fun (p, r) ->
      if r <> 1 then
        error "untimed %s: port %s has rate %d; the cycle scheduler moves \
               one token per net per cycle"
          kernel.Dataflow.Kernel.k_name p r)
    (kernel.Dataflow.Kernel.k_inputs @ kernel.Dataflow.Kernel.k_outputs);
  add t kernel.Dataflow.Kernel.k_name (Untimed kernel)

let add_input t name fmt stim =
  add t name
    (Primary_input
       {
         col_name = name;
         col_fmt = fmt;
         col_fn = stim;
         col_filled = 0;
         col_present = Bytes.empty;
         col_mantissas = Bytes.empty;
       })

(* --- stimulus columns -------------------------------------------------- *)

let grow_column col c =
  let cap = ref (max 64 (2 * Bytes.length col.col_present)) in
  while !cap <= c do
    cap := 2 * !cap
  done;
  let present = Bytes.make !cap '\000' in
  let mantissas = Bytes.make (8 * !cap) '\000' in
  Bytes.blit col.col_present 0 present 0 col.col_filled;
  Bytes.blit col.col_mantissas 0 mantissas 0 (8 * col.col_filled);
  col.col_present <- present;
  col.col_mantissas <- mantissas

(* Evaluate the function over cycles [col_filled, c], in order.  An
   exception leaves the cycles before it filled and [col_filled] at its
   cycle, so the next read of that cycle calls the function again. *)
let fill_column col c =
  if c >= Bytes.length col.col_present then grow_column col c;
  while col.col_filled <= c do
    let k = col.col_filled in
    (match col.col_fn k with
    | None -> ()
    | Some v ->
      if not (Fixed.equal_format v.Fixed.fmt col.col_fmt) then
        Ocapi_error.fail Ocapi_error.Unsupported ~engine:"sched"
          ~construct:col.col_name ~cycle:k
          "stimulus of input %s produced a %s token; the input is declared %s"
          col.col_name
          (Fixed.format_to_string v.Fixed.fmt)
          (Fixed.format_to_string col.col_fmt);
      Bytes.set col.col_present k '\001';
      set64 col.col_mantissas (8 * k) v.Fixed.mantissa);
    col.col_filled <- k + 1
  done

let column_present col c =
  if c >= col.col_filled then fill_column col c;
  Bytes.get col.col_present c <> '\000'

let column_mantissas col = col.col_mantissas
let column_mantissa col c = get64 col.col_mantissas (8 * c)

(* The [Fixed.t option] view of a column: what the function returned. *)
let column_token col c =
  if column_present col c then Some (Fixed.create col.col_fmt (column_mantissa col c))
  else None

let add_output t name =
  let c = add t name (Primary_output (Trace.probe_count t.s_trace)) in
  t.s_trace <- Array.append t.s_trace (Trace.create [ (name, None) ]);
  c

let find_component t name = Hashtbl.find_opt t.by_name name

(* --- port inventories -------------------------------------------------- *)

let timed_input_ports fsm =
  List.concat_map
    (fun sfg -> List.map Signal.Input.name (Sfg.inputs sfg))
    (Fsm.all_sfgs fsm)
  |> List.sort_uniq String.compare

let timed_output_ports fsm =
  List.concat_map
    (fun sfg -> List.map fst (Sfg.outputs sfg))
    (Fsm.all_sfgs fsm)
  |> List.sort_uniq String.compare

let input_ports c =
  match c.c_kind with
  | Timed fsm -> timed_input_ports fsm
  | Untimed k -> List.map fst k.Dataflow.Kernel.k_inputs
  | Primary_input _ -> []
  | Primary_output _ -> [ "in" ]

let output_ports c =
  match c.c_kind with
  | Timed fsm -> timed_output_ports fsm
  | Untimed k -> List.map fst k.Dataflow.Kernel.k_outputs
  | Primary_input _ -> [ "out" ]
  | Primary_output _ -> []

let connect t (src, src_port) sinks =
  if not (List.mem src_port (output_ports src)) then
    error "connect: %s has no output port %s" src.c_name src_port;
  if Hashtbl.mem src.c_drives src_port then
    error "connect: %s.%s already drives a net; fan out through its sinks"
      src.c_name src_port;
  List.iter
    (fun (dst, dst_port) ->
      if not (List.mem dst_port (input_ports dst)) then
        error "connect: %s has no input port %s" dst.c_name dst_port;
      if Hashtbl.mem dst.c_reads dst_port then
        error "connect: %s.%s already driven" dst.c_name dst_port)
    sinks;
  let n =
    {
      n_id = List.length t.s_nets;
      n_name = Printf.sprintf "%s.%s" src.c_name src_port;
      n_driver = (src, src_port);
      n_sinks = sinks;
      n_format = None;
      n_token = None;
    }
  in
  Hashtbl.replace src.c_drives src_port n;
  List.iter (fun (dst, dst_port) -> Hashtbl.replace dst.c_reads dst_port n) sinks;
  t.s_nets <- n :: t.s_nets;
  t.s_run <- None;
  n

(* --- wiring and net formats ------------------------------------------------ *)

let nets t = List.rev t.s_nets
let net_name n = n.n_name
let net_index n = n.n_id
let net_driver n = ((fst n.n_driver).c_name, snd n.n_driver)

let port_net table t cname port =
  match Hashtbl.find_opt t.by_name cname with
  | Some c -> Hashtbl.find_opt (table c) port
  | None -> None

let output_net = port_net (fun c -> c.c_drives)
let input_net = port_net (fun c -> c.c_reads)

(* The format a net carries, from its driver: a primary input or an
   untimed kernel declares it; a timed output carries the producing
   expression's format, which every SFG producing the port must share.
   Each timed sink must declare its input in that format.  [Error] is
   the diagnostic of the first rule broken. *)
let derive_format n =
  let fmt_s = Fixed.format_to_string in
  let driver, port = n.n_driver in
  let produced =
    match driver.c_kind with
    | Primary_input col -> [ col.col_fmt ]
    | Untimed k -> [ Dataflow.Kernel.port_format k port ]
    | Timed fsm ->
      List.concat_map
        (fun sfg ->
          List.filter_map
            (fun (p, e) -> if p = port then Some (Signal.fmt e) else None)
            (Sfg.outputs sfg))
        (Fsm.all_sfgs fsm)
    | Primary_output _ -> []
  in
  (* [connect] checked that the driver produces [port]. *)
  let f = List.hd produced in
  let declared =
    List.concat_map
      (fun (sink, sp) ->
        match sink.c_kind with
        | Timed fsm ->
          List.concat_map
            (fun sfg ->
              List.filter_map
                (fun i ->
                  if Signal.Input.name i = sp then
                    Some (sink, sp, Signal.Input.fmt i)
                  else None)
                (Sfg.inputs sfg))
            (Fsm.all_sfgs fsm)
        | Untimed _ | Primary_input _ | Primary_output _ -> [])
      n.n_sinks
  in
  match
    ( List.find_opt (fun g -> not (Fixed.equal_format f g)) produced,
      List.find_opt (fun (_, _, g) -> not (Fixed.equal_format f g)) declared )
  with
  | Some g, _ ->
    Error
      (Printf.sprintf "net %s driven with inconsistent formats %s and %s"
         n.n_name (fmt_s f) (fmt_s g))
  | None, Some (sink, sp, g) ->
    Error
      (Printf.sprintf "net %s carries %s but input %s.%s is declared %s" n.n_name
         (fmt_s f) sink.c_name sp (fmt_s g))
  | None, None -> Ok f

let net_format n =
  match n.n_format with
  | Some f -> f
  | None -> (
    match derive_format n with
    | Ok f ->
      n.n_format <- Some f;
      f
    | Error msg -> error "%s" msg)

let probe_format t name = Option.map net_format (input_net t name "in")

(* --- checks ------------------------------------------------------------ *)

type check_issue =
  | Unconnected_input of string * string
  | Unconnected_output of string * string
  | Unknown_port of string * string
  | Format_conflict of string * string
  | Shared_register of string * string * string
  | Unassigned_shared_register of string * string * string

let pp_issue ppf = function
  | Unconnected_input (c, p) ->
    Format.fprintf ppf "dangling input: %s.%s has no driver" c p
  | Unconnected_output (c, p) ->
    Format.fprintf ppf "unconnected output: %s.%s drives nothing" c p
  | Unknown_port (c, p) -> Format.fprintf ppf "unknown port %s.%s" c p
  | Format_conflict (_, msg) -> Format.fprintf ppf "format conflict: %s" msg
  | Shared_register (r, a, b) ->
    Format.fprintf ppf "shared register: %s is assigned in %s and read in %s" r a b
  | Unassigned_shared_register (r, a, b) ->
    Format.fprintf ppf "shared register: %s is read in %s and %s and assigned in none"
      r a b

(* A kernel port may leave its format undeclared: the interpreter moves
   its tokens as they come, so only the static back ends need it. *)
let format_declared n =
  match n.n_driver with
  | { c_kind = Untimed k; _ }, port ->
    List.mem_assoc port k.Dataflow.Kernel.k_formats
  | { c_kind = Timed _ | Primary_input _ | Primary_output _; _ }, _ -> true

let all_regs t =
  let seen = Hashtbl.create 64 in
  List.concat_map
    (fun c ->
      match c.c_kind with
      | Timed fsm -> Fsm.all_regs fsm
      | Untimed _ | Primary_input _ | Primary_output _ -> [])
    (List.rev t.comps)
  |> List.filter (fun r ->
         let id = Signal.Reg.id r in
         if Hashtbl.mem seen id then false
         else begin
           Hashtbl.add seen id ();
           true
         end)

let shared_registers t =
  (* Per register id, in one pass over the timed components in system
     order: the first component that assigns it, and every component
     that holds it, newest first. *)
  let writer = Hashtbl.create 64 and holders = Hashtbl.create 64 in
  List.iter
    (fun c ->
      match c.c_kind with
      | Timed fsm ->
        List.iter
          (fun sfg ->
            List.iter
              (fun r ->
                let id = Signal.Reg.id r in
                if not (Hashtbl.mem writer id) then Hashtbl.add writer id c.c_name)
              (Sfg.regs_written sfg))
          (Fsm.all_sfgs fsm);
        List.iter (fun r -> Hashtbl.add holders (Signal.Reg.id r) c.c_name) (Fsm.all_regs fsm)
      | Untimed _ | Primary_input _ | Primary_output _ -> ())
    (List.rev t.comps);
  List.filter_map
    (fun r ->
      let name = Signal.Reg.name r and id = Signal.Reg.id r in
      let holders = List.rev (Hashtbl.find_all holders id) in
      match Hashtbl.find_opt writer id with
      | Some a ->
        Option.map
          (fun b -> Shared_register (name, a, b))
          (List.find_opt (fun b -> not (String.equal a b)) holders)
      | None -> (
        match holders with
        | a :: b :: _ -> Some (Unassigned_shared_register (name, a, b))
        | _ -> None))
    (all_regs t)

let refuse_shared_registers ~engine t =
  let refuse r a b how =
    Ocapi_error.fail Ocapi_error.Unsupported ~engine ~construct:r ~nets:[ a; b ]
      "%s: register %s is %s; each component would read a copy of its own, so \
       use the interp, compiled or native engine"
      engine r how
  in
  match shared_registers t with
  | Shared_register (r, a, b) :: _ ->
    refuse r a b (Printf.sprintf "assigned in %s and read in %s" a b)
  | Unassigned_shared_register (r, a, b) :: _ ->
    refuse r a b (Printf.sprintf "read in %s and %s and assigned in none" a b)
  | _ -> ()

let check t =
  let issues = ref [] in
  List.iter
    (fun c ->
      List.iter
        (fun p ->
          if not (Hashtbl.mem c.c_reads p) then
            issues := Unconnected_input (c.c_name, p) :: !issues)
        (input_ports c);
      List.iter
        (fun p ->
          if not (Hashtbl.mem c.c_drives p) then
            issues := Unconnected_output (c.c_name, p) :: !issues)
        (output_ports c))
    t.comps;
  List.iter
    (fun n ->
      if format_declared n then
        match derive_format n with
        | Ok _ -> ()
        | Error msg -> issues := Format_conflict (n.n_name, msg) :: !issues)
    (nets t);
  List.rev_append !issues (shared_registers t)

(* --- building the run table ---------------------------------------------- *)

(* A slot's memo outside a cycle: no plan and nothing computed, so a
   reset leaves no value of the last run reachable. *)
let no_memo = Signal.Plan.start (Signal.Plan.create [])

(* [port]'s index in [ports]; -1 when it is not there. *)
let port_index ports port =
  let rec go i =
    if i = Array.length ports then -1
    else if String.equal ports.(i) port then i
    else go (i + 1)
  in
  go 0

(* The net output [port] of [c] drives, if any. *)
let driven nets c port =
  Option.map (fun n -> nets.(n.n_id)) (Hashtbl.find_opt c.c_drives port)

(* The slot of action [sfg] of a transition.  A token on a port binds
   every input of its name that an action of the transition declares
   ([bound.(port)] lists their ids), and reaches every read of those
   inputs. *)
let slot nets tc bound sfg =
  let plan = Sfg.plan sfg and inputs = Sfg.inputs sfg and outputs = Sfg.outputs sfg in
  let seeds ids =
    if ids = [] then [||]
    else Signal.Plan.read_nodes plan (fun i -> List.mem (Signal.Input.id i) ids)
  in
  let declares port =
    List.exists (fun i -> String.equal (Signal.Input.name i) port) inputs
  in
  {
    sl_plan = plan;
    sl_sfg_name = Sfg.name sfg;
    sl_nets =
      Array.of_list (List.map (fun (port, _) -> driven nets tc.tc_comp port) outputs);
    sl_regs = Array.of_list (Sfg.regs_written sfg);
    sl_seeds = Array.map seeds bound;
    sl_declares = Array.map declares tc.tc_ports;
    sl_inputs = List.length inputs;
    sl_memo = no_memo;
    sl_unbound = 0;
    sl_produced = Bytes.make (List.length outputs) '\000';
    sl_evaluated = 0;
    sl_complete = false;
  }

(* [tc]'s entry for every transition its FSM has now. *)
let resolve_transitions nets tc =
  let trs = Array.of_list (Fsm.transitions tc.tc_fsm) in
  tc.tc_transitions <- trs;
  tc.tc_slots <-
    Array.map
      (fun tr ->
        let actions = tr.Fsm.t_actions in
        let bound = Array.make (Array.length tc.tc_ports) [] in
        List.iter
          (fun sfg ->
            List.iter
              (fun i ->
                match port_index tc.tc_ports (Signal.Input.name i) with
                | p when p >= 0 -> bound.(p) <- Signal.Input.id i :: bound.(p)
                | _ -> ())
              (Sfg.inputs sfg))
          actions;
        Array.of_list (List.map (slot nets tc bound) actions))
      trs

let build_run t =
  let comps = List.rev t.comps in
  let timed_of = Array.make (List.length comps) None in
  let r_timed =
    List.filter_map
      (fun c ->
        match c.c_kind with
        | Timed fsm ->
          let ports = Hashtbl.fold (fun p _ acc -> p :: acc) c.c_reads [] in
          let tc =
            {
              tc_comp = c;
              tc_fsm = fsm;
              tc_selector = Fsm.selector fsm;
              tc_ports = Array.of_list (List.sort String.compare ports);
              tc_transitions = [||];
              tc_slots = [||];
              tc_selected = -1;
            }
          in
          timed_of.(c.c_id) <- Some tc;
          Some tc
        | Untimed _ | Primary_input _ | Primary_output _ -> None)
      comps
  in
  let run_net n =
    {
      rn_net = n;
      rn_sinks =
        Array.of_list
          (List.filter_map
             (fun (sink, port) ->
               Option.map
                 (fun tc -> (tc, port_index tc.tc_ports port))
                 timed_of.(sink.c_id))
             n.n_sinks);
      rn_probes =
        Array.of_list
          (List.filter_map
             (fun (sink, _) ->
               match sink.c_kind with
               | Primary_output p -> Some p
               | Timed _ | Untimed _ | Primary_input _ -> None)
             n.n_sinks);
    }
  in
  let nets = Array.of_list (List.map run_net (nets t)) in
  List.iter (resolve_transitions nets) r_timed;
  let untimed c k =
    {
      uk_comp = c;
      uk_kernel = k;
      uk_inputs =
        Array.of_list
          (List.map
             (fun (port, _) -> Hashtbl.find_opt c.c_reads port)
             k.Dataflow.Kernel.k_inputs);
      uk_outputs =
        Array.of_list
          (List.filter_map
             (fun (port, _) -> Option.map (fun n -> (port, n)) (driven nets c port))
             k.Dataflow.Kernel.k_outputs);
      uk_fired = false;
    }
  in
  {
    r_timed = Array.of_list r_timed;
    r_untimed =
      Array.of_list
        (List.filter_map
           (fun c ->
             match c.c_kind with
             | Untimed k -> Some (untimed c k)
             | Timed _ | Primary_input _ | Primary_output _ -> None)
           comps);
    r_inputs =
      Array.of_list
        (List.filter_map
           (fun c ->
             match c.c_kind with
             | Primary_input col -> Option.map (fun n -> (col, n)) (driven nets c "out")
             | Timed _ | Untimed _ | Primary_output _ -> None)
           comps);
    r_nets = nets;
  }

let run_table t =
  match t.s_run with
  | Some run -> run
  | None ->
    let run = build_run t in
    t.s_run <- Some run;
    run

(* Drops every slot's memo, and with it the values of the last run. *)
let clear_memos run =
  Array.iter
    (fun tc -> Array.iter (Array.iter (fun sl -> sl.sl_memo <- no_memo)) tc.tc_slots)
    run.r_timed

(* --- per-cycle machinery ------------------------------------------------ *)

(* The slots of [tc]'s transition this cycle; none when its FSM holds. *)
let selected tc = if tc.tc_selected >= 0 then tc.tc_slots.(tc.tc_selected) else [||]

(* Deliver a token to a net: store it, trace it, and seed it into the
   memos of the slots its timed sinks selected. *)
let push_token t rn v =
  let n = rn.rn_net in
  (match n.n_token with
  | Some _ ->
    error ~cycle:t.cycle_count "net %s: two tokens in one cycle" n.n_name
  | None -> ());
  n.n_token <- Some v;
  t.tokens_transferred <- t.tokens_transferred + 1;
  (match t.s_net_trace with
  | Some tr when n.n_id < Trace.probe_count tr ->
    Trace.record_token tr n.n_id ~cycle:t.cycle_count v
  | Some _ | None -> ());
  let sinks = rn.rn_sinks in
  for j = 0 to Array.length sinks - 1 do
    let tc, port = sinks.(j) in
    let slots = selected tc in
    for s = 0 to Array.length slots - 1 do
      let sl = slots.(s) in
      Signal.Plan.seed sl.sl_memo sl.sl_seeds.(port) v;
      if sl.sl_declares.(port) then sl.sl_unbound <- sl.sl_unbound - 1
    done
  done

(* Fire a marked slot: evaluate the outputs not produced yet ([partial]:
   only those whose input reads are all seeded), stage the register
   assignments once every declared input has its token, then deliver
   the outputs evaluated, in order. *)
let fire_slot t sl ~partial =
  let m = sl.sl_memo and flags = sl.sl_produced in
  let outputs = Bytes.length flags in
  for k = 0 to outputs - 1 do
    if Bytes.get flags k = '\000' && ((not partial) || Signal.Plan.ready m k) then begin
      ignore (Signal.Plan.eval m k);
      Bytes.set flags k '\001';
      sl.sl_evaluated <- sl.sl_evaluated + 1
    end
  done;
  if sl.sl_unbound = 0 then begin
    for j = 0 to Array.length sl.sl_regs - 1 do
      Signal.Reg.set_next sl.sl_regs.(j) (Signal.Plan.eval m (outputs + j))
    done;
    sl.sl_complete <- true
  end;
  for k = 0 to outputs - 1 do
    if Bytes.get flags k = '\001' then begin
      Bytes.set flags k '\002';
      match sl.sl_nets.(k) with
      | Some rn -> push_token t rn (Signal.Plan.eval m k)
      | None -> () (* unconnected output: token falls on the floor *)
    end
  done

(* One sweep over the marked slots, in marked order (components in
   creation order, then actions): each one not complete fires, in part
   when [partial], else only once every declared input has its token.
   [true] when one produced an output or completed. *)
let sweep_marked t run ~partial =
  let progress = ref false in
  for c = 0 to Array.length run.r_timed - 1 do
    let slots = selected run.r_timed.(c) in
    for s = 0 to Array.length slots - 1 do
      let sl = slots.(s) in
      if (not sl.sl_complete) && (partial || sl.sl_unbound = 0) then begin
        let evaluated = sl.sl_evaluated in
        fire_slot t sl ~partial;
        if sl.sl_evaluated > evaluated || sl.sl_complete then progress := true
      end
    done
  done;
  !progress

let rec incomplete slots s =
  s < Array.length slots && ((not slots.(s).sl_complete) || incomplete slots (s + 1))

let rec exists_incomplete timed c =
  c < Array.length timed
  && (incomplete (selected timed.(c)) 0 || exists_incomplete timed (c + 1))

(* Untimed kernel firing inside a cycle: all input nets carry a token. *)
let rec arrived nets j =
  j = Array.length nets
  || (match nets.(j) with Some n -> Option.is_some n.n_token | None -> false)
     && arrived nets (j + 1)

let untimed_ready uk =
  (not uk.uk_fired) && uk.uk_kernel.Dataflow.Kernel.k_ready () && arrived uk.uk_inputs 0

let rec exists_ready untimed j =
  j < Array.length untimed
  && (untimed_ready untimed.(j) || exists_ready untimed (j + 1))

(* Per-component firing counters; only consulted when telemetry is on. *)
let obs_fire cname = Ocapi_obs.count ("sched.fire." ^ cname)

let rec kernel_output outputs port j =
  if j = Array.length outputs then None
  else
    let p, rn = outputs.(j) in
    if String.equal p port then Some rn else kernel_output outputs port (j + 1)

let fire_untimed t uk =
  let c = uk.uk_comp and k = uk.uk_kernel in
  if Ocapi_obs.enabled () then obs_fire c.c_name;
  let consumed =
    List.mapi
      (fun j (port, _) ->
        match uk.uk_inputs.(j) with
        | Some { n_token = Some v; _ } -> (port, [ v ])
        | Some { n_token = None; _ } | None ->
          error ~construct:c.c_name ~cycle:t.cycle_count
            "untimed %s: token vanished" c.c_name)
      k.Dataflow.Kernel.k_inputs
  in
  let produced = k.Dataflow.Kernel.k_behavior consumed in
  Dataflow.Kernel.validate_production k produced;
  uk.uk_fired <- true;
  t.untimed_fires <- t.untimed_fires + 1;
  List.iter
    (fun (port, values) ->
      match values, kernel_output uk.uk_outputs port 0 with
      | [ v ], Some rn -> push_token t rn v
      | [ _ ], None -> ()
      | _, _ ->
        error ~construct:c.c_name ~cycle:t.cycle_count
          "untimed %s: port %s must produce one token" c.c_name port)
    produced

(* The kernels ready now fire, in creation order; [true] if one did. *)
let fire_ready_kernels t run =
  let fired = ref false in
  for j = 0 to Array.length run.r_untimed - 1 do
    let uk = run.r_untimed.(j) in
    if untimed_ready uk then begin
      fire_untimed t uk;
      fired := true
    end
  done;
  !fired

let clear_nets t = List.iter (fun n -> n.n_token <- None) t.s_nets

(* Each FSM selects a transition, whose slots restart on a fresh memo;
   the kernels have not fired.  A transition the table has not resolved
   (an FSM extended since) resolves its component's entry again. *)
let select_transitions run =
  Array.iter (fun uk -> uk.uk_fired <- false) run.r_untimed;
  for c = 0 to Array.length run.r_timed - 1 do
    let tc = run.r_timed.(c) in
    tc.tc_selected <- -1;
    match Fsm.select_from tc.tc_selector (Fsm.state_index (Fsm.current tc.tc_fsm)) with
    | -1 -> ()
    | k ->
      if k >= Array.length tc.tc_transitions then resolve_transitions run.r_nets tc;
      let slots = tc.tc_slots.(k) in
      for s = 0 to Array.length slots - 1 do
        let sl = slots.(s) in
        sl.sl_memo <- Signal.Plan.start sl.sl_plan;
        sl.sl_unbound <- sl.sl_inputs;
        Bytes.fill sl.sl_produced 0 (Bytes.length sl.sl_produced) '\000';
        sl.sl_evaluated <- 0;
        sl.sl_complete <- false
      done;
      tc.tc_selected <- k
  done

let drive_primary_inputs t run =
  for j = 0 to Array.length run.r_inputs - 1 do
    let col, rn = run.r_inputs.(j) in
    if column_present col t.cycle_count then
      push_token t rn (Fixed.create col.col_fmt (column_mantissa col t.cycle_count))
  done

(* Phase 3: the kernels that fired commit, newest first; the marked
   slots' registers commit, in marked order; the FSMs advance; each
   probe records its net's token, nets newest first. *)
let commit_and_advance t run =
  for j = Array.length run.r_untimed - 1 downto 0 do
    let uk = run.r_untimed.(j) in
    if uk.uk_fired then uk.uk_kernel.Dataflow.Kernel.k_commit ()
  done;
  Array.iter
    (fun tc ->
      Array.iter (fun sl -> Array.iter Signal.Reg.commit sl.sl_regs) (selected tc))
    run.r_timed;
  Array.iter
    (fun tc ->
      if tc.tc_selected >= 0 then
        Fsm.advance tc.tc_fsm tc.tc_transitions.(tc.tc_selected))
    run.r_timed;
  (* A probe reads one net, so each column takes at most one token per
     cycle, in whatever format it arrives. *)
  for j = Array.length run.r_nets - 1 downto 0 do
    let rn = run.r_nets.(j) in
    match rn.rn_net.n_token with
    | None -> ()
    | Some v ->
      Array.iter
        (fun p -> Trace.record_token t.s_trace p ~cycle:t.cycle_count v)
        rn.rn_probes
  done;
  clear_nets t;
  t.cycle_count <- t.cycle_count + 1

(* The evaluation phase stalled if a marked slot is still incomplete:
   clear the nets and raise [Deadlock], naming the waiting SFGs in
   marked order. *)
let check_deadlock t run =
  let waiting = ref [] in
  for c = Array.length run.r_timed - 1 downto 0 do
    let tc = run.r_timed.(c) in
    let slots = selected tc in
    for s = Array.length slots - 1 downto 0 do
      if not slots.(s).sl_complete then
        waiting :=
          Printf.sprintf "%s/%s" tc.tc_comp.c_name slots.(s).sl_sfg_name :: !waiting
    done
  done;
  match !waiting with
  | [] -> ()
  | waiting ->
    clear_nets t;
    Ocapi_error.fail Ocapi_error.Deadlock ~engine:"sched" ~cycle:t.cycle_count
      ~nets:waiting
      "no component can fire: every candidate waits on a missing token"

(* Telemetry for one scheduler cycle, shared by both disciplines.
   Deltas of the existing activity counters are pushed when enabled. *)
let obs_cycle_done t run ~tokens0 ~evals0 ~fires0 =
  if Ocapi_obs.enabled () then begin
    Ocapi_obs.count "sched.cycles";
    Ocapi_obs.count
      ~n:(Array.fold_left (fun n tc -> n + Array.length (selected tc)) 0 run.r_timed)
      "sched.sfg_firings";
    Array.iter
      (fun tc ->
        Array.iter
          (fun sl -> if sl.sl_complete then obs_fire tc.tc_comp.c_name)
          (selected tc))
      run.r_timed;
    Ocapi_obs.count ~n:(t.tokens_transferred - tokens0) "sched.tokens";
    Ocapi_obs.count ~n:(t.untimed_fires - fires0) "sched.untimed_firings";
    Ocapi_obs.observe "sched.eval_iterations_per_cycle"
      (float_of_int (t.eval_iterations - evals0))
  end

(* The three-phase cycle of section 4. *)
let cycle t =
  let t_cycle = Ocapi_obs.span_begin () in
  let tokens0 = t.tokens_transferred
  and evals0 = t.eval_iterations
  and fires0 = t.untimed_fires in
  let t_sel = Ocapi_obs.span_begin () in
  let run = run_table t in
  select_transitions run;
  drive_primary_inputs t run;
  Ocapi_obs.span_end ~cat:"sched" "sched.select+inputs" t_sel;
  (* Phase 1: token production — partial firing with nothing bound except
     primary inputs produces exactly the outputs that depend only on
     registers and constants (and already-arrived primary inputs). *)
  let t_p1 = Ocapi_obs.span_begin () in
  ignore (sweep_marked t run ~partial:true);
  Ocapi_obs.span_end ~cat:"sched" "sched.phase1.token-production" t_p1;
  (* Phases 2a/2b: iterative evaluation. *)
  let t_p2 = Ocapi_obs.span_begin () in
  let progress = ref true in
  while
    !progress && (exists_incomplete run.r_timed 0 || exists_ready run.r_untimed 0)
  do
    t.eval_iterations <- t.eval_iterations + 1;
    let fired = sweep_marked t run ~partial:true in
    let fired_kernels = fire_ready_kernels t run in
    progress := fired || fired_kernels
  done;
  Ocapi_obs.span_end ~cat:"sched" "sched.phase2.evaluate" t_p2;
  check_deadlock t run;
  (* Phase 3: register update. *)
  let t_p3 = Ocapi_obs.span_begin () in
  commit_and_advance t run;
  Ocapi_obs.span_end ~cat:"sched" "sched.phase3.commit" t_p3;
  obs_cycle_done t run ~tokens0 ~evals0 ~fires0;
  Ocapi_obs.span_end ~cat:"sched" "sched.cycle" t_cycle

(* The classic two-phase discipline: no token-production phase; an SFG
   fires only once all of its inputs are bound. *)
let cycle_two_phase t =
  let t_cycle = Ocapi_obs.span_begin () in
  let tokens0 = t.tokens_transferred
  and evals0 = t.eval_iterations
  and fires0 = t.untimed_fires in
  let run = run_table t in
  select_transitions run;
  drive_primary_inputs t run;
  (* Zero-input SFGs can fire immediately. *)
  let progress = ref true in
  while !progress do
    t.eval_iterations <- t.eval_iterations + 1;
    let fired = sweep_marked t run ~partial:false in
    let fired_kernels = fire_ready_kernels t run in
    progress := fired || fired_kernels
  done;
  check_deadlock t run;
  commit_and_advance t run;
  obs_cycle_done t run ~tokens0 ~evals0 ~fires0;
  Ocapi_obs.span_end ~cat:"sched" "sched.cycle" t_cycle

let run ?(two_phase = false) t n =
  for _ = 1 to n do
    if two_phase then cycle_two_phase t else cycle t
  done

let clear_histories t =
  Trace.clear t.s_trace;
  Option.iter Trace.clear t.s_net_trace

let reset t =
  t.cycle_count <- 0;
  t.tokens_transferred <- 0;
  t.eval_iterations <- 0;
  t.untimed_fires <- 0;
  clear_histories t;
  List.iter (fun n -> n.n_token <- None) t.s_nets;
  List.iter Signal.Reg.reset (all_regs t);
  List.iter
    (fun c ->
      match c.c_kind with
      | Timed fsm -> Fsm.reset fsm
      | Untimed k -> k.Dataflow.Kernel.k_reset ()
      | Primary_input _ | Primary_output _ -> ())
    t.comps;
  Option.iter clear_memos t.s_run

let current_cycle t = t.cycle_count

let output_history t probe =
  match probe.c_kind with
  | Primary_output p -> Trace.history t.s_trace p
  | Timed _ | Untimed _ | Primary_input _ ->
    error "output_history: %s is not a probe" probe.c_name

let probe_components t =
  List.filter
    (fun c ->
      match c.c_kind with
      | Primary_output _ -> true
      | Timed _ | Untimed _ | Primary_input _ -> false)
    (List.rev t.comps)

let trace t = t.s_trace

let trace_all t =
  match t.s_net_trace with
  | Some tr -> tr
  | None ->
    let tr = Trace.create (List.map (fun n -> (n.n_name, None)) (nets t)) in
    t.s_net_trace <- Some tr;
    tr

let timed_components t =
  List.filter_map
    (fun c ->
      match c.c_kind with
      | Timed fsm -> Some (c.c_name, fsm)
      | Untimed _ | Primary_input _ | Primary_output _ -> None)
    (List.rev t.comps)

let input_columns t =
  List.filter_map
    (fun c ->
      match c.c_kind with
      | Primary_input col -> Some col
      | Timed _ | Untimed _ | Primary_output _ -> None)
    (List.rev t.comps)

let primary_inputs t =
  List.map
    (fun col -> (col.col_name, col.col_fmt, column_token col))
    (input_columns t)

(* The pair block is 3 words: its header and two fields. *)
let resident_words t ~trace root =
  let excluded = (input_columns t, trace) in
  Obj.reachable_words (Obj.repr (root, excluded))
  - Obj.reachable_words (Obj.repr excluded)
  - 3

let input_column t name =
  match List.find_opt (fun col -> col.col_name = name) (input_columns t) with
  | Some col -> col
  | None -> error "input_column: %s is not a primary input of %s" name t.s_name

let stimuli t ~cycles =
  let cols = input_columns t in
  List.concat
    (List.init cycles (fun c ->
         List.filter_map
           (fun col -> Option.map (fun v -> (c, col.col_name, v)) (column_token col c))
           cols))

let probes t = List.map component_name (probe_components t)

let untimed_components t =
  List.filter_map
    (fun c ->
      match c.c_kind with
      | Untimed k -> Some (c.c_name, k)
      | Timed _ | Primary_input _ | Primary_output _ -> None)
    (List.rev t.comps)

(* --- checkpoints ------------------------------------------------------------ *)

type snapshot = {
  sn_cycle : int;
  sn_regs : (Signal.Reg.t * Fixed.t * Fixed.t option) array;
  sn_fsms : (Fsm.t * int) array;
  sn_tokens : (net * Fixed.t option) array;
  sn_kernels : Dataflow.Kernel.snapshot;
}

let snapshot t =
  let kernels = List.map snd (untimed_components t) in
  Option.map
    (fun save ->
      {
        sn_cycle = t.cycle_count;
        sn_regs =
          Array.of_list
            (List.map
               (fun r -> (r, Signal.Reg.value r, Signal.Reg.next r))
               (all_regs t));
        sn_fsms =
          Array.of_list
            (List.map
               (fun (_, fsm) -> (fsm, Fsm.state_index (Fsm.current fsm)))
               (timed_components t));
        sn_tokens = Array.of_list (List.map (fun n -> (n, n.n_token)) t.s_nets);
        sn_kernels = save ();
      })
    (Dataflow.Kernel.snapshot_all kernels)

let restore t sn =
  t.cycle_count <- sn.sn_cycle;
  Array.iter
    (fun (r, v, next) ->
      Signal.Reg.reset r;
      Signal.Reg.set_value r v;
      Option.iter (Signal.Reg.set_next r) next)
    sn.sn_regs;
  Array.iter (fun (fsm, s) -> Fsm.force_state fsm s) sn.sn_fsms;
  Array.iter (fun (n, tok) -> n.n_token <- tok) sn.sn_tokens;
  sn.sn_kernels.Dataflow.Kernel.sn_restore ();
  clear_histories t

let matches t sn =
  t.cycle_count = sn.sn_cycle
  && Array.for_all
       (fun (r, v, next) ->
         Fixed.equal (Signal.Reg.value r) v
         && Option.equal Fixed.equal (Signal.Reg.next r) next)
       sn.sn_regs
  && Array.for_all
       (fun (fsm, s) -> Fsm.state_index (Fsm.current fsm) = s)
       sn.sn_fsms
  && Array.for_all (fun (n, tok) -> Option.equal Fixed.equal n.n_token tok) sn.sn_tokens
  && sn.sn_kernels.Dataflow.Kernel.sn_matches ()

let to_dot t =
  let buf = Buffer.create 4096 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pf "digraph %S {\n  rankdir=LR;\n" t.s_name;
  List.iter
    (fun c ->
      match c.c_kind with
      | Timed _ -> pf "  %S [shape=box];\n" c.c_name
      | Untimed _ -> pf "  %S [shape=ellipse, style=dashed];\n" c.c_name
      | Primary_input _ | Primary_output _ ->
        pf "  %S [shape=plaintext];\n" c.c_name)
    (List.rev t.comps);
  List.iter
    (fun n ->
      let driver, port = n.n_driver in
      List.iter
        (fun (sink, _) ->
          pf "  %S -> %S [label=%S];\n" driver.c_name sink.c_name port)
        n.n_sinks)
    (nets t);
  pf "}\n";
  Buffer.contents buf

(* --- canonical structural digest ---------------------------------------- *)

(* The rendering below is the design's canonical identity: everything
   structural (topology, formats, expressions, FSMs, ROM contents,
   firing rules) and nothing incidental (global instance counters,
   construction order of components and nets, closures).  Shared
   expression nodes are numbered in traversal order, so two builds of
   the same design — even under different instance-counter offsets —
   produce byte-identical renderings.  Each format, value, register and
   ROM is rendered once per digest: a ROM read by several SFGs, or a
   register read by many nodes, repeats the memoized text. *)
let digest t =
  let buf = Buffer.create 4096 in
  let add = Buffer.add_string buf in
  let adds = List.iter add in
  let memo tbl key render =
    match Hashtbl.find_opt tbl key with
    | Some s -> s
    | None ->
      let s = render key in
      Hashtbl.add tbl key s;
      s
  in
  let formats = Hashtbl.create 16 and values = Hashtbl.create 64 in
  let fmt_s f = memo formats f Fixed.format_to_string in
  let value_s v = memo values v Fixed.to_string in
  let rounding_s = function
    | Fixed.Truncate -> "trunc"
    | Fixed.Round_nearest -> "nearest"
    | Fixed.Round_even -> "even"
  in
  let overflow_s = function Fixed.Wrap -> "wrap" | Fixed.Saturate -> "sat" in
  let regs = Hashtbl.create 64 in
  let reg_s r =
    memo regs (Signal.Reg.id r) (fun _ ->
        String.concat ""
          [ Signal.Reg.name r; ":"; fmt_s (Signal.Reg.fmt r); "=";
            value_s (Signal.Reg.init r); "@"; Clock.name (Signal.Reg.clock r) ])
  in
  (* ROMs by name, then by identity: the whole ["rom ...} "] prefix. *)
  let roms = Hashtbl.create 8 in
  let rom_s rom =
    let same = Option.value ~default:[] (Hashtbl.find_opt roms (Signal.Rom.name rom)) in
    match List.assq_opt rom same with
    | Some s -> s
    | None ->
      let b = Buffer.create 1024 in
      List.iter (Buffer.add_string b)
        [ "rom "; Signal.Rom.name rom; ":"; fmt_s (Signal.Rom.fmt rom); "[";
          string_of_int (Signal.Rom.size rom); "]{" ];
      for i = 0 to Signal.Rom.size rom - 1 do
        Buffer.add_string b (Int64.to_string (Fixed.mantissa (Signal.Rom.get rom i)));
        Buffer.add_char b ','
      done;
      Buffer.add_string b "} ";
      let s = Buffer.contents b in
      Hashtbl.replace roms (Signal.Rom.name rom) ((rom, s) :: same);
      s
  in
  (* Local DAG numbering: global node ids key the memo table but never
     reach the buffer. *)
  let local = Hashtbl.create 256 in
  let next = ref 0 in
  let rec expr e =
    match Hashtbl.find_opt local (Signal.id e) with
    | Some k -> adds [ "#"; string_of_int k; ";" ]
    | None ->
      Hashtbl.add local (Signal.id e) !next;
      incr next;
      adds [ "("; fmt_s (Signal.fmt e); " " ];
      (match Signal.op e with
      | Signal.Const v -> adds [ "const "; value_s v ]
      | Signal.Input_read i ->
        adds [ "in "; Signal.Input.name i; ":"; fmt_s (Signal.Input.fmt i) ]
      | Signal.Reg_read r -> adds [ "reg "; reg_s r ]
      | Signal.Add (a, b) -> add "add "; expr a; expr b
      | Signal.Sub (a, b) -> add "sub "; expr a; expr b
      | Signal.Mul (a, b) -> add "mul "; expr a; expr b
      | Signal.Neg a -> add "neg "; expr a
      | Signal.Abs a -> add "abs "; expr a
      | Signal.And (a, b) -> add "and "; expr a; expr b
      | Signal.Or (a, b) -> add "or "; expr a; expr b
      | Signal.Xor (a, b) -> add "xor "; expr a; expr b
      | Signal.Not a -> add "not "; expr a
      | Signal.Eq (a, b) -> add "eq "; expr a; expr b
      | Signal.Lt (a, b) -> add "lt "; expr a; expr b
      | Signal.Le (a, b) -> add "le "; expr a; expr b
      | Signal.Mux (s, a, b) -> add "mux "; expr s; expr a; expr b
      | Signal.Resize (r, o, a) ->
        adds [ "resize "; rounding_s r; " "; overflow_s o; " " ];
        expr a
      | Signal.Rom_read (rom, a) -> add (rom_s rom); expr a
      | Signal.Shift_left (a, k) -> adds [ "shl "; string_of_int k; " " ]; expr a
      | Signal.Shift_right (a, k) -> adds [ "shr "; string_of_int k; " " ]; expr a);
      add ")"
  in
  let sfg s =
    adds [ "sfg "; Sfg.name s; " ins[" ];
    List.iter
      (fun i -> adds [ Signal.Input.name i; ":"; fmt_s (Signal.Input.fmt i); "," ])
      (Sfg.inputs s);
    add "] outs[";
    List.iter
      (fun (port, e) ->
        adds [ port; "=" ];
        expr e;
        add ",")
      (Sfg.outputs s);
    add "] assigns[";
    List.iter
      (fun (r, e) ->
        adds [ reg_s r; "<-" ];
        expr e;
        add ",")
      (Sfg.assigns s);
    add "]\n"
  in
  let fsm f =
    adds [ "fsm "; Fsm.name f; " states[" ];
    List.iter (fun s -> adds [ Fsm.state_name s; "," ]) (Fsm.states f);
    adds [ "] initial "; Fsm.state_name (Fsm.initial_state f); "\n" ];
    List.iter (fun s -> sfg s) (Fsm.all_sfgs f);
    List.iter
      (fun tr ->
        adds [ "tr "; Fsm.state_name tr.Fsm.t_from; " -[" ];
        expr (Fsm.guard_expr tr.Fsm.t_guard);
        adds [ "]-> "; Fsm.state_name tr.Fsm.t_goto; " {" ];
        List.iter (fun s -> adds [ Sfg.name s; "," ]) tr.Fsm.t_actions;
        add "}\n")
      (Fsm.transitions f)
  in
  adds [ "system "; t.s_name; " clock "; Clock.name Clock.default; "\n" ];
  let comps =
    List.sort (fun a b -> String.compare a.c_name b.c_name) t.comps
  in
  List.iter
    (fun c ->
      match c.c_kind with
      | Timed f ->
        adds [ "timed "; c.c_name; " " ];
        fsm f
      | Untimed k ->
        (* Firing rule and declared formats are structural; the
           behaviour closure is opaque (documented digest limit). *)
        let rate (p, r) = adds [ p; "*"; string_of_int r; "," ] in
        adds [ "untimed "; c.c_name; " ins[" ];
        List.iter rate k.Dataflow.Kernel.k_inputs;
        add "] outs[";
        List.iter rate k.Dataflow.Kernel.k_outputs;
        add "] formats[";
        List.iter
          (fun (p, f) -> adds [ p; ":"; fmt_s f; "," ])
          (List.sort compare k.Dataflow.Kernel.k_formats);
        add "]\n"
      | Primary_input col -> adds [ "input "; c.c_name; ":"; fmt_s col.col_fmt; "\n" ]
      | Primary_output _ -> adds [ "output "; c.c_name; "\n" ])
    comps;
  List.iter
    (fun n ->
      let d, dp = n.n_driver in
      adds [ "net "; n.n_name; " "; d.c_name; "."; dp; " ->" ];
      List.iter
        (fun (s, sp) -> adds [ " "; s.c_name; "."; sp ])
        (List.sort
           (fun (a, ap) (b, bp) -> compare (a.c_name, ap) (b.c_name, bp))
           n.n_sinks);
      add "\n")
    (List.sort (fun a b -> String.compare a.n_name b.n_name) t.s_nets);
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* What an elaboration bakes in beyond [digest]: each untimed kernel's
   declared model, which back ends inline in place of its closures, and
   the construction order of components, nets and sinks, which fixes
   the order of registers, probes and netlist nets.  The digest fixes
   the set of names, so the names in order pin the permutation. *)
let elaboration_key t =
  let buf = Buffer.create 1024 in
  let add s =
    Buffer.add_char buf ' ';
    Buffer.add_string buf s
  in
  Buffer.add_string buf (digest t);
  List.iter
    (fun c ->
      add c.c_name;
      match c.c_kind with
      | Untimed { Dataflow.Kernel.k_model = Some (Dataflow.Kernel.Ram_model m); _ } ->
        List.iter add
          [ "ram"; string_of_int m.words; Fixed.format_to_string m.data_fmt;
            m.addr_port; m.wdata_port; m.we_port; m.rdata_port ]
      | Untimed _ | Timed _ | Primary_input _ | Primary_output _ -> ())
    (List.rev t.comps);
  List.iter
    (fun n ->
      add "net";
      add n.n_name;
      List.iter (fun (s, sp) -> add s.c_name; add sp) n.n_sinks)
    (List.rev t.s_nets);
  Digest.to_hex (Digest.string (Buffer.contents buf))

type stats = {
  cycles : int;
  tokens_transferred : int;
  eval_iterations : int;
  untimed_firings : int;
}

let stats t =
  {
    cycles = t.cycle_count;
    tokens_transferred = t.tokens_transferred;
    eval_iterations = t.eval_iterations;
    untimed_firings = t.untimed_fires;
  }
