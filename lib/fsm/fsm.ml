let error ?construct fmt =
  Ocapi_error.fail ?construct Ocapi_error.Internal ~engine:"fsm" fmt

type state = { s_fsm_id : int; s_index : int; s_name : string }

type guard = Always | When of Signal.t

type transition = {
  t_from : state;
  t_guard : guard;
  t_actions : Sfg.t list;
  t_goto : state;
}

(* A transition with its position in [transitions] and its guard's
   plan ([None] for [always]). *)
type arm = { a_index : int; a_tr : transition; a_guard : Signal.Plan.t option }

type t = {
  id : int;
  name : string;
  mutable f_states : state list;  (* reversed *)
  mutable f_initial : state option;
  mutable f_transitions : transition list;  (* reversed *)
  mutable f_current : state option;
  f_arms : arm array array option Atomic.t;
      (* per state index, its transitions in priority order; built on the
         first selection, dropped when a state or transition is added *)
  f_regs : Signal.Reg.t list option Atomic.t;
      (* [all_regs]: built on first use, dropped with the arms *)
}

(* Atomic so machine construction is safe from any domain
   (domain-isolation audit: construction-time gensym must not race). *)
let fsm_counter = Atomic.make 0

let create name =
  {
    id = Atomic.fetch_and_add fsm_counter 1 + 1;
    name;
    f_states = [];
    f_initial = None;
    f_transitions = [];
    f_current = None;
    f_arms = Atomic.make None;
    f_regs = Atomic.make None;
  }

let always = Always

let cnd e =
  if (Signal.fmt e).Fixed.width <> 1 then
    error "cnd: guard must be 1 bit wide, got %s"
      (Fixed.format_to_string (Signal.fmt e));
  (match Signal.input_deps e with
  | [] -> ()
  | i :: _ ->
    error "cnd: guard depends on input %s; guards may only read registers"
      (Signal.Input.name i));
  When e

let guard_expr = function Always -> Signal.vdd | When e -> e
let is_always = function Always -> true | When _ -> false

let gnot = function
  | Always -> When (Signal.not_ Signal.vdd)
  | When e -> When (Signal.not_ e)

let gand a b =
  match a, b with
  | Always, g | g, Always -> g
  | When x, When y -> When (Signal.and_ x y)

let gor a b =
  match a, b with
  | Always, _ | _, Always -> Always
  | When x, When y -> When (Signal.or_ x y)

(* Drops what is derived from the transitions — the per-state transition
   arrays and the register list — which the next use rebuilds.  While a
   machine is being built there is none, and the checks spare
   construction two atomic writes per state and transition. *)
let drop_derived t =
  (match Atomic.get t.f_arms with
  | Some _ -> Atomic.set t.f_arms None
  | None -> ());
  match Atomic.get t.f_regs with
  | Some _ -> Atomic.set t.f_regs None
  | None -> ()

let add_state t name =
  if List.exists (fun s -> s.s_name = name) t.f_states then
    error ~construct:t.name "fsm %s: duplicate state %s" t.name name;
  let s = { s_fsm_id = t.id; s_index = List.length t.f_states; s_name = name } in
  t.f_states <- s :: t.f_states;
  drop_derived t;
  s

let initial t name =
  (match t.f_initial with
  | Some s ->
    error ~construct:t.name "fsm %s: initial state already declared (%s)"
      t.name s.s_name
  | None -> ());
  let s = add_state t name in
  t.f_initial <- Some s;
  t.f_current <- Some s;
  s

let state t name = add_state t name

(* The table of live FSMs lets the operator spelling find the machine a
   state belongs to without threading it through the expression.  Writes
   (at [create]) and the [|->] lookups both happen at design-construction
   time; the mutex makes concurrent construction from several domains
   safe.  Simulation never touches this table. *)
let registry : (int, t) Hashtbl.t = Hashtbl.create 16
let registry_mutex = Mutex.create ()

let registry_find id =
  Mutex.lock registry_mutex;
  let r = Hashtbl.find_opt registry id in
  Mutex.unlock registry_mutex;
  r

let add_transition t ~from ~guard ~actions ~goto =
  if from.s_fsm_id <> t.id || goto.s_fsm_id <> t.id then
    error ~construct:t.name "fsm %s: transition uses a state of another machine"
      t.name;
  t.f_transitions <-
    { t_from = from; t_guard = guard; t_actions = actions; t_goto = goto }
    :: t.f_transitions;
  drop_derived t

type partial_transition = {
  p_from : state;
  p_guard : guard;
  p_actions : Sfg.t list;  (* reversed *)
}

let ( |-- ) s g = { p_from = s; p_guard = g; p_actions = [] }
let ( |+ ) p sfg = { p with p_actions = sfg :: p.p_actions }

let ( |-> ) p goto =
  match registry_find p.p_from.s_fsm_id with
  | None -> error "(|->): source state's machine is not registered"
  | Some t ->
    add_transition t ~from:p.p_from ~guard:p.p_guard
      ~actions:(List.rev p.p_actions) ~goto

let name t = t.name
let states t = List.rev t.f_states

let initial_state t =
  match t.f_initial with
  | Some s -> s
  | None -> error ~construct:t.name "fsm %s: no initial state" t.name

let state_name s = s.s_name
let state_index s = s.s_index
let state_equal a b = a.s_fsm_id = b.s_fsm_id && a.s_index = b.s_index
let transitions t = List.rev t.f_transitions

let transitions_from t s =
  List.filter (fun tr -> state_equal tr.t_from s) (transitions t)

let all_sfgs t =
  let seen = Hashtbl.create 16 in
  List.concat_map (fun tr -> tr.t_actions) (transitions t)
  |> List.filter (fun sfg ->
         let key = Sfg.name sfg in
         if Hashtbl.mem seen key then false
         else begin
           Hashtbl.add seen key ();
           true
         end)

let derive_regs t =
  let seen = Hashtbl.create 16 in
  let add acc r =
    let id = Signal.Reg.id r in
    if Hashtbl.mem seen id then acc
    else begin
      Hashtbl.add seen id ();
      r :: acc
    end
  in
  let from_sfgs =
    List.fold_left
      (fun acc sfg ->
        let acc = List.fold_left add acc (Sfg.regs_written sfg) in
        List.fold_left add acc (Sfg.regs_read sfg))
      [] (all_sfgs t)
  in
  let from_guards =
    List.fold_left add from_sfgs
      (Signal.regs_read_all
         (List.filter_map
            (fun tr -> match tr.t_guard with Always -> None | When e -> Some e)
            (transitions t)))
  in
  List.rev from_guards

let all_regs t =
  match Atomic.get t.f_regs with
  | Some regs -> regs
  | None ->
    let regs = derive_regs t in
    Atomic.set t.f_regs (Some regs);
    regs

let current t =
  match t.f_current with
  | Some s -> s
  | None ->
    error ~construct:t.name "fsm %s: no current state (no initial declared)"
      t.name

let arms t =
  match Atomic.get t.f_arms with
  | Some arms -> arms
  | None ->
    let by_state = Array.make (List.length t.f_states) [] in
    List.iteri
      (fun a_index tr ->
        let a_guard =
          match tr.t_guard with
          | Always -> None
          | When e -> Some (Signal.Plan.create [ e ])
        in
        let s = tr.t_from.s_index in
        by_state.(s) <- { a_index; a_tr = tr; a_guard } :: by_state.(s))
      (transitions t);
    let arms = Array.map (fun l -> Array.of_list (List.rev l)) by_state in
    Atomic.set t.f_arms (Some arms);
    arms

(* A selector's memos, one per arm of the arm table they were made
   for; an [always] arm's is never evaluated.  Each memo is cleared
   after its try, so between tries it holds no value: a guard reads only
   registers and constants, and every try reads them afresh. *)
type selector = {
  sel_fsm : t;
  mutable sel_arms : arm array array;
  mutable sel_memos : Signal.Plan.memo array array;
}

let selector t = { sel_fsm = t; sel_arms = [||]; sel_memos = [||] }

let no_guard = Signal.Plan.start (Signal.Plan.create [])

(* The machine's arm table, with the selector's memos made for it: on
   the first selection, and again after a state or transition was
   added. *)
let selector_arms sel =
  let arms = arms sel.sel_fsm in
  if arms != sel.sel_arms then begin
    sel.sel_memos <-
      Array.map
        (Array.map (fun arm ->
             match arm.a_guard with
             | Some p -> Signal.Plan.start p
             | None -> no_guard))
        arms;
    sel.sel_arms <- arms
  end;
  arms

let enabled arm m =
  match arm.a_guard with
  | None -> true
  | Some _ -> (
    match Signal.Plan.eval m 0 with
    | v ->
      Signal.Plan.clear m;
      Fixed.is_true v
    | exception e ->
      Signal.Plan.clear m;
      raise e)

(* The position in [from] of the first arm whose guard holds, -1 when
   none does. *)
let rec first_enabled from memos k =
  if k = Array.length from then -1
  else if enabled from.(k) memos.(k) then k
  else first_enabled from memos (k + 1)

let select_from sel i =
  let arms = selector_arms sel in
  if i < 0 || i >= Array.length arms then -1
  else
    match first_enabled arms.(i) sel.sel_memos.(i) 0 with
    | -1 -> -1
    | k -> arms.(i).(k).a_index

let select t =
  let i = (current t).s_index in
  let sel = selector t in
  let arms = selector_arms sel in
  if i >= Array.length arms then None
  else
    match first_enabled arms.(i) sel.sel_memos.(i) 0 with
    | -1 -> None
    | k -> Some arms.(i).(k).a_tr

let advance t tr = t.f_current <- Some tr.t_goto

let reset t =
  match t.f_initial with
  | Some s -> t.f_current <- Some s
  | None ->
    error ~construct:t.name "fsm %s: cannot reset, no initial state" t.name

let force_state t i =
  match List.find_opt (fun s -> s.s_index = i) t.f_states with
  | Some s -> t.f_current <- Some s
  | None ->
    error ~construct:t.name "fsm %s: force_state: no state with index %d"
      t.name i

type check_issue =
  | Unreachable_state of string
  | Nondeterministic of string
  | Incomplete of string
  | No_initial

let pp_issue ppf = function
  | Unreachable_state s -> Format.fprintf ppf "unreachable state %s" s
  | Nondeterministic s ->
    Format.fprintf ppf "state %s: several guards enabled simultaneously" s
  | Incomplete s -> Format.fprintf ppf "state %s: no guard enabled (implicit hold)" s
  | No_initial -> Format.fprintf ppf "no initial state declared"

(* Registers read by any guard of the machine. *)
let guard_regs t =
  let seen = Hashtbl.create 16 in
  List.concat_map
    (fun tr ->
      match tr.t_guard with
      | Always -> []
      | When e -> Signal.regs_read e)
    (transitions t)
  |> List.filter (fun r ->
         let id = Signal.Reg.id r in
         if Hashtbl.mem seen id then false
         else begin
           Hashtbl.add seen id ();
           true
         end)

(* Guard-register valuations the completeness check samples. *)
let check_samples = 100

let check ?(flag_overlaps = false) t =
  let issues = ref [] in
  let sel = selector t in
  let arms = selector_arms sel in
  (match t.f_initial with
  | None -> issues := No_initial :: !issues
  | Some init ->
    (* Reachability over the transition graph. *)
    let reachable = Array.make (Array.length arms) false in
    let rec visit i =
      if not reachable.(i) then begin
        reachable.(i) <- true;
        Array.iter (fun arm -> visit arm.a_tr.t_goto.s_index) arms.(i)
      end
    in
    visit init.s_index;
    List.iter
      (fun s ->
        if not reachable.(s.s_index) then
          issues := Unreachable_state s.s_name :: !issues)
      (states t));
  (* Randomized determinism / completeness over guard-register space.
     The sampled values never outlive the check, even when a guard
     raises on one of them. *)
  let regs = guard_regs t in
  let saved = List.map (fun r -> (r, Signal.Reg.value r)) regs in
  let rng = Random.State.make [| 0x0ca91; List.length regs |] in
  let nondet = Hashtbl.create 4 and incomplete = Hashtbl.create 4 in
  Fun.protect
    ~finally:(fun () -> List.iter (fun (r, v) -> Signal.Reg.set_value r v) saved)
    (fun () ->
      for _ = 1 to check_samples do
        List.iter
          (fun r ->
            let f = Signal.Reg.fmt r in
            let lo = Fixed.min_mantissa f and hi = Fixed.max_mantissa f in
            let range = Int64.add (Int64.sub hi lo) 1L in
            let m = Int64.add lo (Random.State.int64 rng range) in
            Signal.Reg.set_value r (Fixed.create f m))
          regs;
        List.iter
          (fun s ->
            let from = arms.(s.s_index) and memos = sel.sel_memos.(s.s_index) in
            let n = ref 0 in
            Array.iteri (fun k arm -> if enabled arm memos.(k) then incr n) from;
            match !n with
            | 0 -> if Array.length from > 0 then Hashtbl.replace incomplete s.s_name ()
            | 1 -> ()
            | _ -> if flag_overlaps then Hashtbl.replace nondet s.s_name ())
          (states t)
      done);
  Hashtbl.iter (fun s () -> issues := Nondeterministic s :: !issues) nondet;
  Hashtbl.iter (fun s () -> issues := Incomplete s :: !issues) incomplete;
  List.rev !issues

let pp ppf t =
  Format.fprintf ppf "@[<v 2>fsm %s:" t.name;
  List.iter
    (fun tr ->
      let g =
        match tr.t_guard with
        | Always -> "always"
        | When e -> Format.asprintf "%a" Signal.pp e
      in
      Format.fprintf ppf "@ %s --[%s / %s]--> %s" tr.t_from.s_name g
        (String.concat "," (List.map Sfg.name tr.t_actions))
        tr.t_goto.s_name)
    (transitions t);
  Format.fprintf ppf "@]"

let to_dot t =
  let buf = Buffer.create 1024 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pf "digraph %S {\n  rankdir=LR;\n  node [shape=circle];\n" t.name;
  (match t.f_initial with
  | Some s -> pf "  %S [shape=doublecircle];\n" s.s_name
  | None -> ());
  List.iter
    (fun tr ->
      let g =
        match tr.t_guard with
        | Always -> "always"
        | When e -> Format.asprintf "%a" Signal.pp e
      in
      pf "  %S -> %S [label=\"%s / %s\"];\n" tr.t_from.s_name tr.t_goto.s_name
        (String.escaped g)
        (String.escaped (String.concat "," (List.map Sfg.name tr.t_actions))))
    (transitions t);
  pf "}\n";
  Buffer.contents buf

(* Register machines in the operator-spelling registry at creation. *)
let create name =
  let t = create name in
  Mutex.lock registry_mutex;
  Hashtbl.replace registry t.id t;
  Mutex.unlock registry_mutex;
  t
