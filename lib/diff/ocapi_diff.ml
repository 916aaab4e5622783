(* Differential fuzzing of the engine stack: seeded design genomes,
   cross-engine checks, greedy shrinking, and a replayable JSONL
   reproducer corpus.  See ocapi_diff.mli for the contract. *)

module Json = Ocapi_obs.Json

(* ------------------------------------------------------------------ *)
(* Genomes                                                            *)
(* ------------------------------------------------------------------ *)

module Spec = struct
  type fmt = { f_signed : bool; f_width : int; f_frac : int }

  type expr =
    | E_const of int
    | E_input of int
    | E_reg of int
    | E_ram_q of int
    | E_bin of string * expr * expr
    | E_un of string * expr
    | E_mux of expr * expr * expr * expr
    | E_resize of fmt * string * string * expr
    | E_rom of int * expr

  type state_spec = { ss_outs : expr list; ss_assigns : expr list; ss_flag : expr }

  type ram_spec = {
    rs_words : int;
    rs_data : fmt;
    rs_addr : expr;
    rs_wdata : expr;
    rs_we : expr;
  }

  type t = {
    sp_seed : int;
    sp_inputs : fmt list;
    sp_regs : fmt list;
    sp_outs : fmt list;
    sp_roms : (fmt * int list) list;
    sp_states : state_spec list;
    sp_ram : ram_spec option;
    sp_cycles : int;
    sp_stim_seed : int;
  }

  let fixed_of_fmt f =
    Fixed.format
      (if f.f_signed then Fixed.Signed else Fixed.Unsigned)
      ~width:f.f_width ~frac:f.f_frac

  (* Every [E_const] mantissa lives in one fixed small format, so the
     constant pool stays serializable as bare ints. *)
  let const_fmt = Fixed.signed ~width:8 ~frac:2

  let clamp_mantissa fmt m =
    let lo = Fixed.min_mantissa fmt and hi = Fixed.max_mantissa fmt in
    let m = Int64.of_int m in
    if Int64.compare m lo < 0 then lo
    else if Int64.compare m hi > 0 then hi
    else m

  let rounding_of_name = function
    | "nearest" -> Fixed.Round_nearest
    | "even" -> Fixed.Round_even
    | _ -> Fixed.Truncate

  let overflow_of_name = function "sat" -> Fixed.Saturate | _ -> Fixed.Wrap

  (* ---------------- generation ---------------- *)

  let gen_fmt rs =
    {
      f_signed = Random.State.bool rs;
      f_width = 2 + Random.State.int rs 8;
      f_frac = Random.State.int rs 8 - 3;
    }

  let gen_mantissa rs f =
    let fmt = fixed_of_fmt f in
    let lo = Fixed.min_mantissa fmt and hi = Fixed.max_mantissa fmt in
    let span = Int64.add (Int64.sub hi lo) 1L in
    Int64.to_int (Int64.add lo (Random.State.int64 rs span))

  let bin_ops = [| "add"; "sub"; "and"; "or"; "xor"; "eq" |]
  let un_ops = [| "neg"; "not"; "abs" |]
  let roundings = [| "trunc"; "nearest"; "even" |]
  let overflows = [| "wrap"; "sat" |]

  let pick rs a = a.(Random.State.int rs (Array.length a))

  (* General expression generator over the genome's leaf universe. *)
  let rec gen_expr rs ~n_inputs ~n_regs ~ram ~n_roms depth =
    let leaf () =
      let n_kinds = 4 + if ram then 1 else 0 in
      match Random.State.int rs n_kinds with
      | 0 -> E_const (Random.State.int rs 101 - 50)
      | 1 when n_inputs > 0 -> E_input (Random.State.int rs n_inputs)
      | (2 | 3) when n_regs > 0 -> E_reg (Random.State.int rs n_regs)
      | 4 -> E_ram_q 0
      | _ ->
        if n_inputs > 0 then E_input (Random.State.int rs n_inputs)
        else E_const (Random.State.int rs 101 - 50)
    in
    if depth <= 0 then leaf ()
    else
      let sub () = gen_expr rs ~n_inputs ~n_regs ~ram ~n_roms (depth - 1) in
      match Random.State.int rs 12 with
      | 0 | 1 -> leaf ()
      | 2 | 3 | 4 | 5 | 6 -> E_bin (pick rs bin_ops, sub (), sub ())
      | 7 -> E_un (pick rs un_ops, sub ())
      | 8 -> E_mux (sub (), sub (), sub (), sub ())
      | 9 -> E_resize (gen_fmt rs, pick rs roundings, pick rs overflows, sub ())
      | 10 when n_roms > 0 ->
        E_rom (Random.State.int rs n_roms, sub ())
      | _ -> leaf ()

  (* RAM control expressions read registers and constants only, so the
     timed component can put addr/wdata/we on the interconnect in the
     token-production phase (the DECT timed/untimed loop). *)
  let rec gen_ctrl rs ~n_regs depth =
    let leaf () =
      if n_regs > 0 && Random.State.bool rs then
        E_reg (Random.State.int rs n_regs)
      else E_const (Random.State.int rs 101 - 50)
    in
    if depth <= 0 then leaf ()
    else
      match Random.State.int rs 4 with
      | 0 ->
        E_bin
          ( pick rs [| "add"; "xor"; "and" |],
            gen_ctrl rs ~n_regs (depth - 1),
            gen_ctrl rs ~n_regs (depth - 1) )
      | _ -> leaf ()

  let generate ?(size = 2) ~seed () =
    let size = max 1 (min 4 size) in
    let rs = Random.State.make [| 0xd1f; seed; size |] in
    let n_inputs = 1 + Random.State.int rs (1 + size) in
    let n_regs = 1 + Random.State.int rs (1 + size) in
    let n_outs = 1 + Random.State.int rs 2 in
    let n_states = 1 + Random.State.int rs size in
    let n_roms = if Random.State.int rs 3 = 0 then 1 else 0 in
    let ram = size >= 2 && Random.State.int rs 3 = 0 in
    let inputs = List.init n_inputs (fun _ -> gen_fmt rs) in
    let regs = List.init n_regs (fun _ -> gen_fmt rs) in
    let outs = List.init n_outs (fun _ -> gen_fmt rs) in
    let roms =
      List.init n_roms (fun _ ->
          let f = gen_fmt rs in
          let len = 4 + Random.State.int rs 5 in
          (f, List.init len (fun _ -> gen_mantissa rs f)))
    in
    let ram_spec =
      if ram then
        Some
          {
            rs_words = 8;
            rs_data = gen_fmt rs;
            rs_addr = gen_ctrl rs ~n_regs 2;
            rs_wdata = gen_ctrl rs ~n_regs 2;
            rs_we = gen_ctrl rs ~n_regs 1;
          }
      else None
    in
    let depth = min 4 (1 + size) in
    let gexpr d = gen_expr rs ~n_inputs ~n_regs ~ram ~n_roms d in
    let states =
      List.init n_states (fun _ ->
          {
            ss_outs =
              List.init n_outs (fun j ->
                  (* keep the RAM read observable: fold rdata into the
                     first probe of every state *)
                  if j = 0 && ram then E_bin ("xor", E_ram_q 0, gexpr (depth - 1))
                  else gexpr depth);
            ss_assigns = List.init n_regs (fun _ -> gexpr depth);
            ss_flag = gexpr 2;
          })
    in
    {
      sp_seed = seed;
      sp_inputs = inputs;
      sp_regs = regs;
      sp_outs = outs;
      sp_roms = roms;
      sp_states = states;
      sp_ram = ram_spec;
      sp_cycles = 16 + (4 * size);
      sp_stim_seed = seed lxor 0x9e37;
    }

  (* ---------------- build ---------------- *)

  let build spec =
    let sys = Cycle_system.create (Printf.sprintf "fz%d" spec.sp_seed) in
    let clk = Clock.default in
    let input_ports =
      Array.of_list
        (List.mapi
           (fun i f ->
             Signal.Input.create (Printf.sprintf "in%d" i) (fixed_of_fmt f))
           spec.sp_inputs)
    in
    let regs =
      Array.of_list
        (List.mapi
           (fun i f ->
             Signal.Reg.create clk (Printf.sprintf "r%d" i) (fixed_of_fmt f))
           spec.sp_regs)
    in
    let flag = Signal.Reg.create clk "flag" Fixed.bit_format in
    let roms =
      Array.of_list
        (List.mapi
           (fun i (f, contents) ->
             let fmt = fixed_of_fmt f in
             Signal.Rom.create
               (Printf.sprintf "rom%d" i)
               fmt
               (Array.of_list
                  (List.map
                     (fun m -> Fixed.create fmt (clamp_mantissa fmt m))
                     contents)))
           spec.sp_roms)
    in
    let rdata_port =
      match spec.sp_ram with
      | Some r -> Some (Signal.Input.create "rdata" (fixed_of_fmt r.rs_data))
      | None -> None
    in
    let rec sig_of = function
      | E_const m -> Signal.const (Fixed.create const_fmt (clamp_mantissa const_fmt m))
      | E_input i -> Signal.input input_ports.(i)
      | E_reg i -> Signal.reg_q regs.(i)
      | E_ram_q _ -> (
        match rdata_port with
        | Some p -> Signal.input p
        | None -> Signal.const (Fixed.zero const_fmt))
      | E_bin (op, a, b) -> (
        let a = sig_of a and b = sig_of b in
        match op with
        | "add" -> Signal.add a b
        | "sub" -> Signal.sub a b
        | "and" -> Signal.and_ a b
        | "or" -> Signal.or_ a b
        | "xor" -> Signal.xor_ a b
        | _ -> Signal.eq a b)
      | E_un (op, a) -> (
        let a = sig_of a in
        match op with
        | "neg" -> Signal.neg a
        | "abs" -> Signal.abs_ a
        | _ -> Signal.not_ a)
      | E_mux (a, b, c, d) ->
        Signal.mux2 (Signal.lt (sig_of a) (sig_of b)) (sig_of c) (sig_of d)
      | E_resize (f, r, o, a) ->
        Signal.resize ~round:(rounding_of_name r) ~overflow:(overflow_of_name o)
          (fixed_of_fmt f) (sig_of a)
      | E_rom (i, a) ->
        Signal.rom roms.(i)
          (Signal.resize (Fixed.unsigned ~width:4 ~frac:0) (sig_of a))
    in
    let out_fmts = Array.of_list (List.map fixed_of_fmt spec.sp_outs) in
    let addr_fmt = Fixed.unsigned ~width:3 ~frac:0 in
    let sfg_of_state k st =
      Sfg.build (Printf.sprintf "sfg%d" k) (fun b ->
          Array.iter (fun p -> ignore (Sfg.Builder.input_port b p)) input_ports;
          (match rdata_port with
          | Some p -> ignore (Sfg.Builder.input_port b p)
          | None -> ());
          List.iteri
            (fun j e ->
              Sfg.Builder.output b
                (Printf.sprintf "y%d" j)
                (Signal.resize ~overflow:Fixed.Saturate out_fmts.(j) (sig_of e)))
            st.ss_outs;
          (match spec.sp_ram with
          | Some r ->
            Sfg.Builder.output b "addr" (Signal.resize addr_fmt (sig_of r.rs_addr));
            Sfg.Builder.output b "wdata"
              (Signal.resize (fixed_of_fmt r.rs_data) (sig_of r.rs_wdata));
            Sfg.Builder.output b "we"
              (Signal.resize Fixed.bit_format (sig_of r.rs_we))
          | None -> ());
          List.iteri
            (fun j e -> Sfg.Builder.assign_resized b regs.(j) (sig_of e))
            st.ss_assigns;
          Sfg.Builder.assign_resized b flag (sig_of st.ss_flag))
    in
    let sfgs = List.mapi sfg_of_state spec.sp_states in
    let fsm = Fsm.create "ctl" in
    let fstates =
      List.mapi
        (fun k _ ->
          if k = 0 then Fsm.initial fsm "s0"
          else Fsm.state fsm (Printf.sprintf "s%d" k))
        spec.sp_states
    in
    let n = List.length fstates in
    List.iteri
      (fun k sfg ->
        let s = List.nth fstates k in
        let next = List.nth fstates ((k + 1) mod n) in
        if n > 1 then Fsm.(s |-- cnd (Signal.reg_q flag) |+ sfg |-> next);
        Fsm.(s |-- always |+ sfg |-> s))
      sfgs;
    let dp = Cycle_system.add_timed sys "dp" fsm in
    List.iteri
      (fun i f ->
        let fmt = fixed_of_fmt f in
        let stim cyc =
          let r = Random.State.make [| 0x5eed; spec.sp_stim_seed; i; cyc |] in
          let lo = Fixed.min_mantissa fmt and hi = Fixed.max_mantissa fmt in
          let span = Int64.add (Int64.sub hi lo) 1L in
          Some (Fixed.create fmt (Int64.add lo (Random.State.int64 r span)))
        in
        let ic = Cycle_system.add_input sys (Printf.sprintf "pi%d" i) fmt stim in
        ignore
          (Cycle_system.connect sys (ic, "out") [ (dp, Printf.sprintf "in%d" i) ]))
      spec.sp_inputs;
    (match spec.sp_ram with
    | Some r ->
      let ram =
        Cycle_system.add_untimed sys
          (Ram_cell.kernel ~name:"fzram" ~words:r.rs_words
             ~data_fmt:(fixed_of_fmt r.rs_data) ~addr_fmt)
      in
      ignore (Cycle_system.connect sys (dp, "addr") [ (ram, "addr") ]);
      ignore (Cycle_system.connect sys (dp, "wdata") [ (ram, "wdata") ]);
      ignore (Cycle_system.connect sys (dp, "we") [ (ram, "we") ]);
      ignore (Cycle_system.connect sys (ram, "rdata") [ (dp, "rdata") ])
    | None -> ());
    List.iteri
      (fun j _ ->
        let p = Cycle_system.add_output sys (Printf.sprintf "po%d" j) in
        ignore
          (Cycle_system.connect sys (dp, Printf.sprintf "y%d" j) [ (p, "in") ]))
      spec.sp_outs;
    sys

  let digest spec = Cycle_system.digest (build spec)

  (* ---------------- size ---------------- *)

  let rec expr_size = function
    | E_const _ | E_input _ | E_reg _ | E_ram_q _ -> 1
    | E_bin (_, a, b) -> 1 + expr_size a + expr_size b
    | E_un (_, a) -> 1 + expr_size a
    | E_mux (a, b, c, d) ->
      1 + expr_size a + expr_size b + expr_size c + expr_size d
    | E_resize (_, _, _, a) -> 1 + expr_size a
    | E_rom (_, a) -> 1 + expr_size a

  let size spec =
    let state_exprs st =
      List.fold_left (fun acc e -> acc + expr_size e) 0 (st.ss_outs @ st.ss_assigns)
      + expr_size st.ss_flag
    in
    let exprs =
      List.fold_left (fun acc st -> acc + state_exprs st) 0 spec.sp_states
      + (match spec.sp_ram with
        | Some r -> expr_size r.rs_addr + expr_size r.rs_wdata + expr_size r.rs_we
        | None -> 0)
    in
    exprs
    + (2
      * (List.length spec.sp_inputs + List.length spec.sp_regs
        + List.length spec.sp_outs + List.length spec.sp_roms))
    + (3 * List.length spec.sp_states)
    + (match spec.sp_ram with Some _ -> 5 | None -> 0)
    + spec.sp_cycles

  (* ---------------- JSON ---------------- *)

  let fmt_json f =
    Json.Obj [ ("s", Json.Bool f.f_signed); ("w", Json.Int f.f_width); ("f", Json.Int f.f_frac) ]

  let rec expr_json = function
    | E_const m -> Json.List [ Json.String "c"; Json.Int m ]
    | E_input i -> Json.List [ Json.String "i"; Json.Int i ]
    | E_reg i -> Json.List [ Json.String "r"; Json.Int i ]
    | E_ram_q w -> Json.List [ Json.String "q"; Json.Int w ]
    | E_bin (op, a, b) ->
      Json.List [ Json.String "b"; Json.String op; expr_json a; expr_json b ]
    | E_un (op, a) -> Json.List [ Json.String "u"; Json.String op; expr_json a ]
    | E_mux (a, b, c, d) ->
      Json.List [ Json.String "m"; expr_json a; expr_json b; expr_json c; expr_json d ]
    | E_resize (f, r, o, a) ->
      Json.List [ Json.String "z"; fmt_json f; Json.String r; Json.String o; expr_json a ]
    | E_rom (i, a) -> Json.List [ Json.String "t"; Json.Int i; expr_json a ]

  let state_json st =
    Json.Obj
      [
        ("outs", Json.List (List.map expr_json st.ss_outs));
        ("assigns", Json.List (List.map expr_json st.ss_assigns));
        ("flag", expr_json st.ss_flag);
      ]

  let to_json spec =
    Json.Obj
      [
        ("seed", Json.Int spec.sp_seed);
        ("inputs", Json.List (List.map fmt_json spec.sp_inputs));
        ("regs", Json.List (List.map fmt_json spec.sp_regs));
        ("outs", Json.List (List.map fmt_json spec.sp_outs));
        ( "roms",
          Json.List
            (List.map
               (fun (f, contents) ->
                 Json.List
                   [ fmt_json f; Json.List (List.map (fun m -> Json.Int m) contents) ])
               spec.sp_roms) );
        ("states", Json.List (List.map state_json spec.sp_states));
        ( "ram",
          match spec.sp_ram with
          | None -> Json.Null
          | Some r ->
            Json.Obj
              [
                ("words", Json.Int r.rs_words);
                ("data", fmt_json r.rs_data);
                ("addr", expr_json r.rs_addr);
                ("wdata", expr_json r.rs_wdata);
                ("we", expr_json r.rs_we);
              ] );
        ("cycles", Json.Int spec.sp_cycles);
        ("stim_seed", Json.Int spec.sp_stim_seed);
      ]

  exception Bad of string

  let get_int = function Json.Int n -> n | _ -> raise (Bad "expected int")
  let get_list = function Json.List l -> l | _ -> raise (Bad "expected list")
  let get_string = function Json.String s -> s | _ -> raise (Bad "expected string")

  let field name j =
    match Json.member name j with
    | Some v -> v
    | None -> raise (Bad ("missing field " ^ name))

  let fmt_of_json j =
    match (Json.member "s" j, Json.member "w" j, Json.member "f" j) with
    | Some (Json.Bool s), Some (Json.Int w), Some (Json.Int f) ->
      { f_signed = s; f_width = w; f_frac = f }
    | _ -> raise (Bad "bad format")

  let rec expr_of_json j =
    match get_list j with
    | [ Json.String "c"; m ] -> E_const (get_int m)
    | [ Json.String "i"; i ] -> E_input (get_int i)
    | [ Json.String "r"; i ] -> E_reg (get_int i)
    | [ Json.String "q"; w ] -> E_ram_q (get_int w)
    | [ Json.String "b"; op; a; b ] ->
      E_bin (get_string op, expr_of_json a, expr_of_json b)
    | [ Json.String "u"; op; a ] -> E_un (get_string op, expr_of_json a)
    | [ Json.String "m"; a; b; c; d ] ->
      E_mux (expr_of_json a, expr_of_json b, expr_of_json c, expr_of_json d)
    | [ Json.String "z"; f; r; o; a ] ->
      E_resize (fmt_of_json f, get_string r, get_string o, expr_of_json a)
    | [ Json.String "t"; i; a ] -> E_rom (get_int i, expr_of_json a)
    | _ -> raise (Bad "bad expression")

  let state_of_json j =
    {
      ss_outs = List.map expr_of_json (get_list (field "outs" j));
      ss_assigns = List.map expr_of_json (get_list (field "assigns" j));
      ss_flag = expr_of_json (field "flag" j);
    }

  let of_json j =
    try
      Ok
        {
          sp_seed = get_int (field "seed" j);
          sp_inputs = List.map fmt_of_json (get_list (field "inputs" j));
          sp_regs = List.map fmt_of_json (get_list (field "regs" j));
          sp_outs = List.map fmt_of_json (get_list (field "outs" j));
          sp_roms =
            List.map
              (fun r ->
                match get_list r with
                | [ f; contents ] ->
                  (fmt_of_json f, List.map get_int (get_list contents))
                | _ -> raise (Bad "bad rom"))
              (get_list (field "roms" j));
          sp_states = List.map state_of_json (get_list (field "states" j));
          sp_ram =
            (match field "ram" j with
            | Json.Null -> None
            | r ->
              Some
                {
                  rs_words = get_int (field "words" r);
                  rs_data = fmt_of_json (field "data" r);
                  rs_addr = expr_of_json (field "addr" r);
                  rs_wdata = expr_of_json (field "wdata" r);
                  rs_we = expr_of_json (field "we" r);
                });
          sp_cycles = get_int (field "cycles" j);
          sp_stim_seed = get_int (field "stim_seed" j);
        }
    with Bad msg -> Error ("spec: " ^ msg)
end

(* ------------------------------------------------------------------ *)
(* Findings                                                           *)
(* ------------------------------------------------------------------ *)

type finding = { f_check : string; f_error : Ocapi_error.t }

let finding_json f =
  Json.Obj
    [
      ("check", Json.String f.f_check);
      ("error", Ocapi_fault.error_json f.f_error);
    ]

(* ------------------------------------------------------------------ *)
(* Differential checks                                                *)
(* ------------------------------------------------------------------ *)

let buggy_name = "buggy-lsb"

let default_engines () =
  List.filter (fun n -> n <> buggy_name) (Ocapi_engine.names ())

type run_result = R_ok of Cycle_system.Trace.t | R_err of Ocapi_error.t

let run_engine sys ~cycles name =
  try R_ok (Flow.simulate_trace ~engine:name sys ~cycles)
  with Ocapi_error.Error e -> R_err e

let engines_findings sys ~cycles engines =
  match engines with
  | [] | [ _ ] -> []
  | base :: rest ->
    let base_r = run_engine sys ~cycles base in
    List.concat_map
      (fun name ->
        let pair = base ^ "-vs-" ^ name in
        let mk ?construct ?cycle msg =
          [
            {
              f_check = "engines";
              f_error =
                Ocapi_error.make ?construct ?cycle Ocapi_error.Mismatch
                  ~engine:pair msg;
            };
          ]
        in
        match (base_r, run_engine sys ~cycles name) with
        | R_ok ha, R_ok hb -> (
          match Flow.first_mismatch ha hb with
          | None -> []
          | Some (probe, cycle, detail) ->
            mk ~construct:probe ?cycle
              (Printf.sprintf "probe %s diverges: %s" probe detail))
        | R_err ea, R_err eb ->
          if ea.e_code = eb.e_code then []
          else
            mk
              (Printf.sprintf "engines stop differently: %s raises %s, %s raises %s"
                 base
                 (Ocapi_error.code_label ea.e_code)
                 name
                 (Ocapi_error.code_label eb.e_code))
        | R_ok _, R_err eb ->
          mk
            (Printf.sprintf "%s completes but %s stops with %s: %s" base name
               (Ocapi_error.code_label eb.e_code)
               eb.e_message)
        | R_err ea, R_ok _ ->
          mk
            (Printf.sprintf "%s completes but %s stops with %s: %s" name base
               (Ocapi_error.code_label ea.e_code)
               ea.e_message))
      rest

let includes_gate engines =
  List.exists
    (fun n ->
      match Ocapi_engine.find n with
      | Some e -> Ocapi_engine.name_of e = "gate"
      | None -> false)
    engines

let classified_check ~check body =
  try body () with Ocapi_error.Error e -> [ { f_check = check; f_error = e } ]

let opt_equivalence_findings spec =
  classified_check ~check:"opt-equivalence" (fun () ->
      let b = Ocapi_ir.behavioral (Spec.build spec) in
      let g = Ocapi_ir.pipeline [ Ocapi_ir.lower_to_gate; Ocapi_ir.optimize_gates ] b in
      match Ocapi_ir.check_equivalence ~cycles:spec.Spec.sp_cycles b g with
      | Ok () -> []
      | Error e -> [ { f_check = "opt-equivalence"; f_error = e } ])

let norm_seu_outcome = function
  | Ocapi_fault.Masked -> "m"
  | Ocapi_fault.Sdc { probe; cycle; detail } ->
    Printf.sprintf "s:%s:%s:%s" probe
      (match cycle with Some c -> string_of_int c | None -> "-")
      detail
  | Ocapi_fault.Detected e -> "d:" ^ Ocapi_error.code_label e.Ocapi_error.e_code

(* The checkpointed campaigns on interp and compiled against the
   reference — every run replayed from reset on interp — on one
   schedule: a bug in the checkpointed loop or in either engine's
   checkpoints shows as a divergence from the reference, which two
   checkpointed campaigns could share. *)
let seu_cross_findings spec =
  classified_check ~check:"seu-cross" (fun () ->
      let seed = 1 + (spec.Spec.sp_seed land 0xffff)
      and cycles = spec.Spec.sp_cycles in
      let signature (r : Ocapi_fault.seu_report) =
        List.map
          (fun (run : Ocapi_fault.seu_run) ->
            Printf.sprintf "%d:%s:%d:%s" run.run_index run.run_label run.run_cycle
              (norm_seu_outcome run.run_outcome))
          r.Ocapi_fault.seu_records
      in
      let reference =
        signature
          (Ocapi_fault.seu_campaign_from_reset ~engine:"interp" ~runs:8 ~seed
             (Spec.build spec) ~cycles)
      in
      List.concat_map
        (fun engine ->
          let b =
            signature
              (Ocapi_fault.seu_campaign ~engine ~runs:8 ~seed (Spec.build spec)
                 ~cycles)
          in
          if reference = b then []
          else
            let detail =
              match List.find_opt (fun (x, y) -> x <> y) (List.combine reference b) with
              | Some (x, y) -> Printf.sprintf "%s vs %s" x y
              | None -> "campaign lengths differ"
            in
            [
              {
                f_check = "seu-cross";
                f_error =
                  Ocapi_error.make Ocapi_error.Mismatch
                    ~engine:("reference-vs-" ^ engine)
                    (Printf.sprintf "SEU classifications diverge: %s" detail);
              };
            ])
        [ "interp"; "compiled" ])

let stuck_determinism_findings spec =
  classified_check ~check:"stuck-determinism" (fun () ->
      let run () =
        let sys = Spec.build spec in
        let r =
          Ocapi_fault.stuck_at_system ~max_faults:8 ~seed:7
            ~macro_of_kernel:Ocapi_ir.macro_of_model sys
            ~cycles:spec.Spec.sp_cycles
        in
        Json.to_string (Ocapi_fault.stuck_report_json r)
      in
      let a = run () and b = run () in
      if String.equal a b then []
      else
        [
          {
            f_check = "stuck-determinism";
            f_error =
              Ocapi_error.make Ocapi_error.Mismatch ~engine:"gates"
                "stuck-at campaign is not deterministic under a fixed seed";
          };
        ])

let check_spec ?engines ?(deep = false) spec =
  let engines =
    match engines with Some e -> e | None -> default_engines ()
  in
  let sys = Spec.build spec in
  let cycles = spec.Spec.sp_cycles in
  let f1 = engines_findings sys ~cycles engines in
  let f2 = if includes_gate engines then opt_equivalence_findings spec else [] in
  let f3 = if deep then seu_cross_findings spec else [] in
  let f4 = if deep then stuck_determinism_findings spec else [] in
  f1 @ f2 @ f3 @ f4

(* ------------------------------------------------------------------ *)
(* Shrinking                                                          *)
(* ------------------------------------------------------------------ *)

let rec map_expr f e =
  let e' =
    match e with
    | Spec.E_bin (op, a, b) -> Spec.E_bin (op, map_expr f a, map_expr f b)
    | Spec.E_un (op, a) -> Spec.E_un (op, map_expr f a)
    | Spec.E_mux (a, b, c, d) ->
      Spec.E_mux (map_expr f a, map_expr f b, map_expr f c, map_expr f d)
    | Spec.E_resize (fmt, r, o, a) -> Spec.E_resize (fmt, r, o, map_expr f a)
    | Spec.E_rom (i, a) -> Spec.E_rom (i, map_expr f a)
    | leaf -> leaf
  in
  f e'

let map_spec_exprs f (spec : Spec.t) =
  {
    spec with
    Spec.sp_states =
      List.map
        (fun (st : Spec.state_spec) ->
          {
            Spec.ss_outs = List.map (map_expr f) st.Spec.ss_outs;
            ss_assigns = List.map (map_expr f) st.Spec.ss_assigns;
            ss_flag = map_expr f st.Spec.ss_flag;
          })
        spec.Spec.sp_states;
    sp_ram =
      Option.map
        (fun (r : Spec.ram_spec) ->
          {
            r with
            Spec.rs_addr = map_expr f r.Spec.rs_addr;
            rs_wdata = map_expr f r.Spec.rs_wdata;
            rs_we = map_expr f r.Spec.rs_we;
          })
        spec.Spec.sp_ram;
  }

let drop_nth l n = List.filteri (fun i _ -> i <> n) l

let expr_children = function
  | Spec.E_bin (_, a, b) -> [ a; b ]
  | Spec.E_un (_, a) -> [ a ]
  | Spec.E_mux (a, b, c, d) -> [ a; b; c; d ]
  | Spec.E_resize (_, _, _, a) -> [ a ]
  | Spec.E_rom (_, a) -> [ a ]
  | _ -> []

(* Candidate genomes in a fixed order; each is structurally smaller in
   at least one dimension (the shrink loop re-checks [size] anyway). *)
let candidates (spec : Spec.t) =
  let open Spec in
  let cycle_cuts =
    if spec.sp_cycles > 4 then
      [ { spec with sp_cycles = max 4 (spec.sp_cycles / 2) } ]
    else []
  in
  let ram_cut =
    match spec.sp_ram with
    | None -> []
    | Some _ ->
      [
        map_spec_exprs
          (function E_ram_q _ -> E_const 0 | e -> e)
          { spec with sp_ram = None };
      ]
  in
  let rom_cuts =
    List.mapi
      (fun j _ ->
        map_spec_exprs
          (function
            | E_rom (i, _) when i = j -> E_const 0
            | E_rom (i, a) when i > j -> E_rom (i - 1, a)
            | e -> e)
          { spec with sp_roms = drop_nth spec.sp_roms j })
      spec.sp_roms
  in
  let state_cuts =
    if List.length spec.sp_states > 1 then
      List.mapi
        (fun k _ -> { spec with sp_states = drop_nth spec.sp_states k })
        spec.sp_states
    else []
  in
  let out_cuts =
    if List.length spec.sp_outs > 1 then
      List.mapi
        (fun j _ ->
          {
            spec with
            sp_outs = drop_nth spec.sp_outs j;
            sp_states =
              List.map
                (fun st -> { st with ss_outs = drop_nth st.ss_outs j })
                spec.sp_states;
          })
        spec.sp_outs
    else []
  in
  let reg_cuts =
    List.mapi
      (fun j _ ->
        map_spec_exprs
          (function
            | E_reg i when i = j -> E_const 0
            | E_reg i when i > j -> E_reg (i - 1)
            | e -> e)
          {
            spec with
            sp_regs = drop_nth spec.sp_regs j;
            sp_states =
              List.map
                (fun st -> { st with ss_assigns = drop_nth st.ss_assigns j })
                spec.sp_states;
          })
      spec.sp_regs
  in
  let input_cuts =
    List.mapi
      (fun j _ ->
        map_spec_exprs
          (function
            | E_input i when i = j -> E_const 0
            | E_input i when i > j -> E_input (i - 1)
            | e -> e)
          { spec with sp_inputs = drop_nth spec.sp_inputs j })
      spec.sp_inputs
  in
  (* expression edits: replace one top-level expression with each of its
     children, or with the zero constant *)
  let edits_of e =
    expr_children e @ (match e with E_const _ -> [] | _ -> [ E_const 0 ])
  in
  let with_state k st = { spec with sp_states = List.mapi (fun i s -> if i = k then st else s) spec.sp_states } in
  let expr_cuts =
    List.concat
      (List.mapi
         (fun k st ->
           List.concat
             [
               List.concat
                 (List.mapi
                    (fun j e ->
                      List.map
                        (fun e' ->
                          with_state k
                            { st with ss_outs = List.mapi (fun i x -> if i = j then e' else x) st.ss_outs })
                        (edits_of e))
                    st.ss_outs);
               List.concat
                 (List.mapi
                    (fun j e ->
                      List.map
                        (fun e' ->
                          with_state k
                            { st with ss_assigns = List.mapi (fun i x -> if i = j then e' else x) st.ss_assigns })
                        (edits_of e))
                    st.ss_assigns);
               List.map (fun e' -> with_state k { st with ss_flag = e' }) (edits_of st.ss_flag);
             ])
         spec.sp_states)
  in
  let ram_expr_cuts =
    match spec.sp_ram with
    | None -> []
    | Some r ->
      let set f = { spec with sp_ram = Some (f r) } in
      List.concat
        [
          List.map (fun e -> set (fun r -> { r with rs_addr = e })) (edits_of r.rs_addr);
          List.map (fun e -> set (fun r -> { r with rs_wdata = e })) (edits_of r.rs_wdata);
          List.map (fun e -> set (fun r -> { r with rs_we = e })) (edits_of r.rs_we);
        ]
  in
  List.concat
    [
      cycle_cuts; ram_cut; rom_cuts; state_cuts; out_cuts; reg_cuts; input_cuts;
      expr_cuts; ram_expr_cuts;
    ]

let shrink ~check spec =
  if check spec = [] then spec
  else
    let rec loop spec =
      let sz = Spec.size spec in
      match
        List.find_opt
          (fun c -> Spec.size c < sz && check c <> [])
          (candidates spec)
      with
      | Some c -> loop c
      | None -> spec
    in
    loop spec

(* ------------------------------------------------------------------ *)
(* Corpus                                                             *)
(* ------------------------------------------------------------------ *)

module Corpus = struct
  type entry = {
    ce_seed : int;
    ce_digest : string;
    ce_engines : string list;
    ce_check : string;
    ce_detail : string;
    ce_spec : Spec.t;
  }

  let entry_json e =
    Json.Obj
      [
        ("seed", Json.Int e.ce_seed);
        ("digest", Json.String e.ce_digest);
        ("engines", Json.List (List.map (fun n -> Json.String n) e.ce_engines));
        ("check", Json.String e.ce_check);
        ("detail", Json.String e.ce_detail);
        ("spec", Spec.to_json e.ce_spec);
      ]

  let entry_of_json j =
    let str name =
      match Json.member name j with
      | Some (Json.String s) -> Ok s
      | _ -> Error (Printf.sprintf "corpus entry: missing string field %S" name)
    in
    match (Json.member "seed" j, Json.member "spec" j) with
    | Some (Json.Int seed), Some spec_j -> (
      match Spec.of_json spec_j with
      | Error e -> Error e
      | Ok spec -> (
        match (str "digest", str "check", str "detail") with
        | Ok digest, Ok check, Ok detail ->
          let engines =
            match Json.member "engines" j with
            | Some (Json.List l) ->
              List.filter_map (function Json.String s -> Some s | _ -> None) l
            | _ -> []
          in
          Ok
            {
              ce_seed = seed;
              ce_digest = digest;
              ce_engines = engines;
              ce_check = check;
              ce_detail = detail;
              ce_spec = spec;
            }
        | Error e, _, _ | _, Error e, _ | _, _, Error e -> Error e))
    | _ -> Error "corpus entry: missing seed or spec"

  let load path =
    if not (Sys.file_exists path) then Ok (Ok [])
    else
      Result.map
        (fun lines -> Ocapi_obs.File.decode path lines entry_of_json)
        (Ocapi_obs.File.read_jsonl path)

  let append path entries =
    List.fold_left
      (fun acc e ->
        Result.bind acc (fun () ->
            Ocapi_obs.File.append_line path (Json.to_string (entry_json e))))
      (Ok ()) entries
end

(* ------------------------------------------------------------------ *)
(* Campaigns                                                          *)
(* ------------------------------------------------------------------ *)

type replay = {
  rp_entry : Corpus.entry;
  rp_digest_ok : bool;
  rp_findings : finding list;
}

type design_result = {
  dr_index : int;
  dr_seed : int;
  dr_digest : string;
  dr_size : int;
  dr_cycles : int;
  dr_findings : finding list;
  dr_shrunk : (Spec.t * string * int) option;
}

type report = {
  fz_seed : int;
  fz_count : int;
  fz_engines : string list;
  fz_deep : bool;
  fz_replays : replay list;
  fz_results : design_result list;
  fz_divergent : int;
  fz_replay_failures : int;
}

let derive_seed seed index =
  let rs = Random.State.make [| 0xfa22; seed; index |] in
  Random.State.int rs 0x3FFFFFFF

let replay_failed r = (not r.rp_digest_ok) || r.rp_findings <> []

let replay_entry ~engines ~deep (e : Corpus.entry) =
  (* prefer the engines the entry recorded, dropping any that are not
     registered in this process (e.g. the self-test's injected engine);
     fall back to the campaign roster when fewer than two survive *)
  let recorded =
    List.filter (fun n -> Ocapi_engine.find n <> None) e.Corpus.ce_engines
  in
  let engines = if List.length recorded >= 2 then recorded else engines in
  let ok = String.equal (Spec.digest e.Corpus.ce_spec) e.Corpus.ce_digest in
  let findings = if ok then check_spec ~engines ~deep e.Corpus.ce_spec else [] in
  { rp_entry = e; rp_digest_ok = ok; rp_findings = findings }

type task_result = T_replay of replay | T_fresh of design_result

let fuzz ?engines ?(deep = false) ?(shrink_failures = true) ?size ?(domains = 1)
    ?(corpus = []) ?progress ~seed ~count () =
  Ocapi_error.check_count ~engine:"diff" "fuzz: count" count;
  let engines =
    match engines with Some e -> e | None -> default_engines ()
  in
  let corpus = Array.of_list corpus in
  let n_replay = Array.length corpus in
  let tasks = n_replay + count in
  let results =
    Ocapi_parallel.map_tasks ~domains
      ~make_state:(fun _ -> ())
      ~tasks
      ~f:(fun () i ->
        (match progress with Some p -> p i | None -> ());
        if i < n_replay then
          T_replay (replay_entry ~engines ~deep corpus.(i))
        else
          let idx = i - n_replay in
          let dseed = derive_seed seed idx in
          let spec = Spec.generate ?size ~seed:dseed () in
          let findings = check_spec ~engines ~deep spec in
          let shrunk =
            if findings <> [] && shrink_failures then
              let s = shrink ~check:(check_spec ~engines ~deep) spec in
              Some (s, Spec.digest s, Spec.size s)
            else None
          in
          T_fresh
            {
              dr_index = idx;
              dr_seed = dseed;
              dr_digest = Spec.digest spec;
              dr_size = Spec.size spec;
              dr_cycles = spec.Spec.sp_cycles;
              dr_findings = findings;
              dr_shrunk = shrunk;
            })
      ()
  in
  let replays =
    Array.to_list results
    |> List.filter_map (function T_replay r -> Some r | T_fresh _ -> None)
  in
  let fresh =
    Array.to_list results
    |> List.filter_map (function T_fresh r -> Some r | T_replay _ -> None)
  in
  {
    fz_seed = seed;
    fz_count = count;
    fz_engines = engines;
    fz_deep = deep;
    fz_replays = replays;
    fz_results = fresh;
    fz_divergent =
      List.length (List.filter (fun r -> r.dr_findings <> []) fresh);
    fz_replay_failures = List.length (List.filter replay_failed replays);
  }

let report_reproducers report =
  List.filter_map
    (fun r ->
      if r.dr_findings = [] then None
      else
        let check, detail =
          match r.dr_findings with
          | f :: _ -> (f.f_check, Ocapi_error.to_string f.f_error)
          | [] -> ("", "")
        in
        let spec, digest =
          match r.dr_shrunk with
          | Some (s, d, _) -> (s, d)
          | None ->
            (* shrinking was off: recover the genome from its seed,
               probing the size knob against the recorded digest *)
            let regen =
              List.find_map
                (fun size ->
                  let s = Spec.generate ~size ~seed:r.dr_seed () in
                  if String.equal (Spec.digest s) r.dr_digest then Some s
                  else None)
                [ 2; 1; 3; 4 ]
            in
            let s =
              match regen with
              | Some s -> s
              | None -> Spec.generate ~seed:r.dr_seed ()
            in
            (s, r.dr_digest)
        in
        Some
          {
            Corpus.ce_seed = r.dr_seed;
            ce_digest = digest;
            ce_engines = report.fz_engines;
            ce_check = check;
            ce_detail = detail;
            ce_spec = spec;
          })
    report.fz_results

let replay_json r =
  Json.Obj
    [
      ("seed", Json.Int r.rp_entry.Corpus.ce_seed);
      ("digest", Json.String r.rp_entry.Corpus.ce_digest);
      ("digest_ok", Json.Bool r.rp_digest_ok);
      ("check", Json.String r.rp_entry.Corpus.ce_check);
      ("findings", Json.List (List.map finding_json r.rp_findings));
    ]

let design_json r =
  Json.Obj
    [
      ("index", Json.Int r.dr_index);
      ("seed", Json.Int r.dr_seed);
      ("digest", Json.String r.dr_digest);
      ("size", Json.Int r.dr_size);
      ("cycles", Json.Int r.dr_cycles);
      ("findings", Json.List (List.map finding_json r.dr_findings));
      ( "shrunk",
        match r.dr_shrunk with
        | None -> Json.Null
        | Some (spec, digest, size) ->
          Json.Obj
            [
              ("digest", Json.String digest);
              ("size", Json.Int size);
              ("spec", Spec.to_json spec);
            ] );
    ]

let report_json r =
  Json.Obj
    [
      ("kind", Json.String "fuzz-report");
      ("seed", Json.Int r.fz_seed);
      ("count", Json.Int r.fz_count);
      ("engines", Json.List (List.map (fun n -> Json.String n) r.fz_engines));
      ("deep", Json.Bool r.fz_deep);
      ("replays", Json.List (List.map replay_json r.fz_replays));
      ("designs", Json.List (List.map design_json r.fz_results));
      ("divergent", Json.Int r.fz_divergent);
      ("replay_failures", Json.Int r.fz_replay_failures);
      ("agree", Json.Bool (r.fz_divergent = 0 && r.fz_replay_failures = 0));
    ]

let pp_report ppf r =
  Format.fprintf ppf "fuzz: seed %d, %d designs, engines [%s]%s@," r.fz_seed
    r.fz_count
    (String.concat ", " r.fz_engines)
    (if r.fz_deep then ", deep checks" else "");
  if r.fz_replays <> [] then
    Format.fprintf ppf "  corpus: %d replayed, %d failing@,"
      (List.length r.fz_replays) r.fz_replay_failures;
  List.iter
    (fun rp ->
      if replay_failed rp then
        Format.fprintf ppf "  REPLAY seed %d %s: %s@," rp.rp_entry.Corpus.ce_seed
          (if rp.rp_digest_ok then "re-fails" else "digest mismatch")
          rp.rp_entry.Corpus.ce_check)
    r.fz_replays;
  Format.fprintf ppf "  fresh: %d checked, %d divergent@,"
    (List.length r.fz_results) r.fz_divergent;
  List.iter
    (fun d ->
      if d.dr_findings <> [] then (
        let f = List.hd d.dr_findings in
        Format.fprintf ppf "  FAIL seed %d (%s): %a@," d.dr_seed f.f_check
          Ocapi_error.pp f.f_error;
        match d.dr_shrunk with
        | Some (_, digest, size) ->
          Format.fprintf ppf "       shrunk to size %d, digest %s@," size digest
        | None -> ()))
    r.fz_results;
  Format.fprintf ppf "  verdict: %s@,"
    (if r.fz_divergent = 0 && r.fz_replay_failures = 0 then
       "all engines agree"
     else "DIVERGENCE")

(* ------------------------------------------------------------------ *)
(* Self test                                                          *)
(* ------------------------------------------------------------------ *)

let buggy_registered = ref false

let register_buggy_engine () =
  if not !buggy_registered then (
    let (module I : Ocapi_engine.ENGINE) = Ocapi_engine.get "interp" in
    let module B = struct
      let name = buggy_name
      let display = "buggy"
      let aliases = []

      let make sys =
        let ses = I.make sys in
        (* A copy of the interpreter's trace with bit 0 of every token
           from cycle 3 on flipped, rebuilt on each read: callers read
           it after stepping. *)
        let corrupt_trace () =
          let module T = Cycle_system.Trace in
          let live = ses.Ocapi_engine.ses_trace () in
          let probes = List.init (T.probe_count live) Fun.id in
          let trace = T.create (List.map (fun p -> (T.probe_name live p, None)) probes) in
          List.iter
            (fun p ->
              for k = 0 to T.length live p - 1 do
                let c = T.cycle live p k and v = T.token live p k in
                T.record_token trace p ~cycle:c (if c >= 3 then Fixed.flip_bit v 0 else v)
              done)
            probes;
          trace
        in
        {
          ses with
          Ocapi_engine.ses_engine = buggy_name;
          ses_histories = (fun () -> Cycle_system.Trace.to_histories (corrupt_trace ()));
          ses_trace = corrupt_trace;
        }
    end in
    Ocapi_engine.register (module B);
    buggy_registered := true);
  buggy_name
