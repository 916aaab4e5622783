let error fmt = Ocapi_error.fail Ocapi_error.Internal ~engine:"signal" fmt

type format = Fixed.format

(* Atomic so expression/register construction is safe from any domain
   (domain-isolation audit: construction-time gensym must not race). *)
let next_id =
  let counter = Atomic.make 0 in
  fun () -> Atomic.fetch_and_add counter 1 + 1

module Reg = struct
  type t = {
    id : int;
    name : string;
    fmt : format;
    clock : Clock.t;
    init : Fixed.t;
    mutable value : Fixed.t;
    mutable next : Fixed.t option;
  }

  let create ?init clock name fmt =
    let init =
      match init with
      | None -> Fixed.zero fmt
      | Some v ->
        if not (Fixed.equal_format (Fixed.fmt v) fmt) then
          error "register %s: init format %s does not match %s" name
            (Fixed.format_to_string (Fixed.fmt v))
            (Fixed.format_to_string fmt);
        v
    in
    { id = next_id (); name; fmt; clock; init; value = init; next = None }

  let name t = t.name
  let fmt t = t.fmt
  let clock t = t.clock
  let init t = t.init
  let id t = t.id
  let value t = t.value
  let next t = t.next
  let set_value t v = t.value <- v
  let set_next t v = t.next <- Some v

  let commit t =
    match t.next with
    | None -> ()
    | Some v ->
      t.value <- v;
      t.next <- None

  let reset t =
    t.value <- t.init;
    t.next <- None

  let pp ppf t = Format.fprintf ppf "reg:%s%a" t.name Fixed.pp_format t.fmt
end

module Input = struct
  type t = { id : int; name : string; fmt : format }

  let create name fmt = { id = next_id (); name; fmt }
  let name t = t.name
  let fmt t = t.fmt
  let id t = t.id
  let pp ppf t = Format.fprintf ppf "in:%s%a" t.name Fixed.pp_format t.fmt
end

module Rom = struct
  type t = { name : string; fmt : format; contents : Fixed.t array }

  let create name fmt contents =
    if Array.length contents = 0 then error "rom %s: empty contents" name;
    Array.iteri
      (fun i v ->
        if not (Fixed.equal_format (Fixed.fmt v) fmt) then
          error "rom %s: element %d has format %s, expected %s" name i
            (Fixed.format_to_string (Fixed.fmt v))
            (Fixed.format_to_string fmt))
      contents;
    { name; fmt; contents }

  let name t = t.name
  let fmt t = t.fmt
  let size t = Array.length t.contents
  let get t i = t.contents.(i mod Array.length t.contents)
end

type t = { id : int; fmt : format; op : op }

and op =
  | Const of Fixed.t
  | Input_read of Input.t
  | Reg_read of Reg.t
  | Add of t * t
  | Sub of t * t
  | Mul of t * t
  | Neg of t
  | Abs of t
  | And of t * t
  | Or of t * t
  | Xor of t * t
  | Not of t
  | Eq of t * t
  | Lt of t * t
  | Le of t * t
  | Mux of t * t * t
  | Resize of Fixed.rounding * Fixed.overflow * t
  | Rom_read of Rom.t * t
  | Shift_left of t * int
  | Shift_right of t * int

let id t = t.id
let fmt t = t.fmt
let op t = t.op
let node fmt op = { id = next_id (); fmt; op }
let const v = node (Fixed.fmt v) (Const v)
let constf fmt x = const (Fixed.of_float fmt x)
let consti fmt n = const (Fixed.of_int fmt n)
let vdd = const (Fixed.of_bool true)
let gnd = const (Fixed.of_bool false)
let input i = node (Input.fmt i) (Input_read i)
let reg_q r = node (Reg.fmt r) (Reg_read r)

let rom r index =
  (match (fmt index).Fixed.signedness with
  | Fixed.Unsigned -> ()
  | Fixed.Signed ->
    error "rom %s: index must be unsigned, got %s" (Rom.name r)
      (Fixed.format_to_string (fmt index)));
  node (Rom.fmt r) (Rom_read (r, index))

let add a b = node (Fixed.add_format a.fmt b.fmt) (Add (a, b))
let sub a b = node (Fixed.add_format a.fmt (Fixed.neg_format b.fmt)) (Sub (a, b))
let mul a b = node (Fixed.mul_format a.fmt b.fmt) (Mul (a, b))
let neg a = node (Fixed.neg_format a.fmt) (Neg a)
let abs_ a = node (Fixed.neg_format a.fmt) (Abs a)
let and_ a b = node (Fixed.logic_format a.fmt b.fmt) (And (a, b))
let or_ a b = node (Fixed.logic_format a.fmt b.fmt) (Or (a, b))
let xor_ a b = node (Fixed.logic_format a.fmt b.fmt) (Xor (a, b))
let not_ a = node a.fmt (Not a)
let eq a b = node Fixed.bit_format (Eq (a, b))
let lt a b = node Fixed.bit_format (Lt (a, b))
let le a b = node Fixed.bit_format (Le (a, b))
let ne a b = node Fixed.bit_format (Not (eq a b))
let gt a b = node Fixed.bit_format (Not (le a b))
let ge a b = node Fixed.bit_format (Not (lt a b))

let mux2 sel a b =
  if (fmt sel).Fixed.width <> 1 then
    error "mux2: select must be 1 bit wide, got %s"
      (Fixed.format_to_string (fmt sel));
  node (Fixed.logic_format a.fmt b.fmt) (Mux (sel, a, b))

let resize ?(round = Fixed.Truncate) ?(overflow = Fixed.Wrap) fmt e =
  node fmt (Resize (round, overflow, e))

let shift_left a n =
  let f = a.fmt in
  node (Fixed.format f.Fixed.signedness ~width:f.Fixed.width ~frac:(f.Fixed.frac - n))
    (Shift_left (a, n))

let shift_right a n =
  let f = a.fmt in
  node (Fixed.format f.Fixed.signedness ~width:f.Fixed.width ~frac:(f.Fixed.frac + n))
    (Shift_right (a, n))

let ( +: ) = add
let ( -: ) = sub
let ( *: ) = mul
let ( &: ) = and_
let ( |: ) = or_
let ( ^: ) = xor_
let ( ~: ) = not_
let ( ==: ) = eq
let ( <>: ) = ne
let ( <: ) = lt
let ( <=: ) = le
let ( >: ) = gt
let ( >=: ) = ge

(* One walk over the DAGs under [roots]: a node several roots share is
   visited once, under the first.  Operands are visited in order, a
   mux's select first. *)
let fold_dags roots ~init ~f =
  let seen = Hashtbl.create 64 in
  let rec go acc n =
    if Hashtbl.mem seen n.id then acc
    else begin
      Hashtbl.add seen n.id ();
      let acc =
        match n.op with
        | Const _ | Input_read _ | Reg_read _ -> acc
        | Neg a | Abs a | Not a | Resize (_, _, a) | Rom_read (_, a)
        | Shift_left (a, _) | Shift_right (a, _) ->
          go acc a
        | Add (a, b) | Sub (a, b) | Mul (a, b) | And (a, b) | Or (a, b)
        | Xor (a, b) | Eq (a, b) | Lt (a, b) | Le (a, b) ->
          go (go acc a) b
        | Mux (s, a, b) -> go (go (go acc s) a) b
      in
      f acc n
    end
  in
  List.fold_left go init roots

let fold_dag e ~init ~f = fold_dags [ e ] ~init ~f

let input_deps e =
  fold_dag e ~init:[] ~f:(fun acc n ->
      match n.op with Input_read i -> i :: acc | _ -> acc)
  |> List.rev

let regs_read_all roots =
  fold_dags roots ~init:[] ~f:(fun acc n ->
      match n.op with Reg_read r -> r :: acc | _ -> acc)
  |> List.rev

let regs_read e = regs_read_all [ e ]

let node_count e = fold_dag e ~init:0 ~f:(fun acc _ -> acc + 1)

let op_name = function
  | Const _ -> "const"
  | Input_read _ -> "input"
  | Reg_read _ -> "reg"
  | Add _ -> "add"
  | Sub _ -> "sub"
  | Mul _ -> "mul"
  | Neg _ -> "neg"
  | Abs _ -> "abs"
  | And _ -> "and"
  | Or _ -> "or"
  | Xor _ -> "xor"
  | Not _ -> "not"
  | Eq _ -> "eq"
  | Lt _ -> "lt"
  | Le _ -> "le"
  | Mux _ -> "mux"
  | Resize _ -> "resize"
  | Rom_read _ -> "rom"
  | Shift_left _ -> "shl"
  | Shift_right _ -> "shr"

let rec pp ppf t =
  match t.op with
  | Const v -> Fixed.pp ppf v
  | Input_read i -> Format.pp_print_string ppf (Input.name i)
  | Reg_read r -> Format.pp_print_string ppf (Reg.name r)
  | Rom_read (r, i) -> Format.fprintf ppf "%s[%a]" (Rom.name r) pp i
  | Shift_left (a, n) -> Format.fprintf ppf "(%a << %d)" pp a n
  | Shift_right (a, n) -> Format.fprintf ppf "(%a >> %d)" pp a n
  | Mux (s, a, b) -> Format.fprintf ppf "(%a ? %a : %a)" pp s pp a pp b
  | Resize (_, _, a) -> Format.fprintf ppf "resize%a(%a)" Fixed.pp_format t.fmt pp a
  | Neg a -> Format.fprintf ppf "(- %a)" pp a
  | Abs a -> Format.fprintf ppf "abs(%a)" pp a
  | Not a -> Format.fprintf ppf "(~ %a)" pp a
  | Add (a, b) | Sub (a, b) | Mul (a, b) | And (a, b) | Or (a, b)
  | Xor (a, b) | Eq (a, b) | Lt (a, b) | Le (a, b) ->
    Format.fprintf ppf "(%a %s %a)" pp a (op_name t.op) pp b

module Env = struct
  type t = (int, Fixed.t) Hashtbl.t

  let create () = Hashtbl.create 16
  let bind env i v = Hashtbl.replace env (Input.id i) v
  let find env i = Hashtbl.find_opt env (Input.id i)
  let is_bound env i = Hashtbl.mem env (Input.id i)
end

(* --- evaluation plans ------------------------------------------------------ *)

type signal = t

module Plan = struct
  type t = {
    nodes : signal array;  (* dense numbering, children before parents *)
    kids : int array;  (* node i's children at 3i .. 3i+2, in [children] order *)
    roots : int array;  (* root k's node *)
    reads : int array;  (* the nodes that read an input, in node order *)
    deps : int array array;  (* the input reads under root k *)
  }

  let create roots =
    (* Nodes are numbered children first, in [children] order; [order]
       lists them newest first.  Then each node's children are looked up
       by number. *)
    let index = Hashtbl.create 16 and order = ref [] and count = ref 0 in
    let rec visit e =
      if not (Hashtbl.mem index e.id) then begin
        (match e.op with
        | Const _ | Input_read _ | Reg_read _ -> ()
        | Neg a | Abs a | Not a | Resize (_, _, a) | Rom_read (_, a)
        | Shift_left (a, _) | Shift_right (a, _) ->
          visit a
        | Add (a, b) | Sub (a, b) | Mul (a, b) | And (a, b) | Or (a, b)
        | Xor (a, b) | Eq (a, b) | Lt (a, b) | Le (a, b) ->
          visit a;
          visit b
        | Mux (s, a, b) ->
          visit s;
          visit a;
          visit b);
        Hashtbl.add index e.id !count;
        incr count;
        order := e :: !order
      end
    in
    List.iter visit roots;
    let n = !count in
    let nodes =
      match !order with
      | [] -> [||]
      | last :: _ ->
        let nodes = Array.make n last in
        List.iteri (fun k e -> nodes.(n - 1 - k) <- e) !order;
        nodes
    in
    let number e = Hashtbl.find index e.id in
    let kids = Array.make (3 * n) (-1) in
    Array.iteri
      (fun i e ->
        match e.op with
        | Const _ | Input_read _ | Reg_read _ -> ()
        | Neg a | Abs a | Not a | Resize (_, _, a) | Rom_read (_, a)
        | Shift_left (a, _) | Shift_right (a, _) ->
          kids.(3 * i) <- number a
        | Add (a, b) | Sub (a, b) | Mul (a, b) | And (a, b) | Or (a, b)
        | Xor (a, b) | Eq (a, b) | Lt (a, b) | Le (a, b) ->
          kids.(3 * i) <- number a;
          kids.((3 * i) + 1) <- number b
        | Mux (s, a, b) ->
          kids.(3 * i) <- number s;
          kids.((3 * i) + 1) <- number a;
          kids.((3 * i) + 2) <- number b)
      nodes;
    let roots = Array.of_list (List.map number roots) in
    let is_read i = match nodes.(i).op with Input_read _ -> true | _ -> false in
    (* Each root's input reads, one walk of its cone over the numbering
       ([seen] holds the last root that reached a node): a hash table
       per root, as [input_deps] builds, doubles DECT's plan build. *)
    let seen = Array.make n (-1) in
    let cone_reads r =
      let rec walk acc i =
        if i < 0 || seen.(i) = r then acc
        else begin
          seen.(i) <- r;
          let acc = if is_read i then i :: acc else acc in
          walk (walk (walk acc kids.(3 * i)) kids.((3 * i) + 1)) kids.((3 * i) + 2)
        end
      in
      Array.of_list (walk [] roots.(r))
    in
    let reads = ref [] in
    for i = n - 1 downto 0 do
      if is_read i then reads := i :: !reads
    done;
    {
      nodes;
      kids;
      roots;
      reads = Array.of_list !reads;
      deps = Array.init (Array.length roots) cone_reads;
    }

  let size t = Array.length t.nodes

  let read_nodes t p =
    let reads i = match t.nodes.(i).op with Input_read inp -> p inp | _ -> false in
    match Array.fold_left (fun n i -> if reads i then n + 1 else n) 0 t.reads with
    | 0 -> [||]
    | n ->
      let nodes = Array.make n 0 and j = ref 0 in
      Array.iter
        (fun i ->
          if reads i then begin
            nodes.(!j) <- i;
            incr j
          end)
        t.reads;
      nodes

  let root_deps t k = t.deps.(k)

  let cached cell roots x =
    match Atomic.get cell with
    | Some t -> t
    | None ->
      let t = create (roots x) in
      Atomic.set cell (Some t);
      t

  type memo = { plan : t; values : Fixed.t array }

  (* Marks a node not yet computed in this firing, or an input read not
     yet seeded: a record no evaluation returns, compared physically. *)
  let unset = Fixed.zero (Sys.opaque_identity Fixed.bit_format)

  let start plan = { plan; values = Array.make (Array.length plan.nodes) unset }

  let seed m nodes v =
    for j = 0 to Array.length nodes - 1 do
      m.values.(nodes.(j)) <- v
    done

  let clear m = Array.fill m.values 0 (Array.length m.values) unset

  let memo plan env =
    let m = start plan in
    for j = 0 to Array.length plan.reads - 1 do
      let i = plan.reads.(j) in
      match plan.nodes.(i).op with
      | Input_read inp -> begin
        match Hashtbl.find env (Input.id inp) with
        | v -> m.values.(i) <- v
        | exception Not_found -> ()
      end
      | _ -> ()
    done;
    m

  let rec seeded values reads j =
    j = Array.length reads || (values.(reads.(j)) != unset && seeded values reads (j + 1))

  let ready m r = seeded m.values m.plan.deps.(r) 0

  (* [value] follows the expression recursion node for node: operands
     are requested in the same expression shapes, hence in the same
     order, so the first node to raise is the one a recursive evaluation
     of the roots, one after another, reaches first. *)
  let rec value m i =
    let v = m.values.(i) in
    if v != unset then v
    else begin
      let v = compute m i in
      m.values.(i) <- v;
      v
    end

  and kid m i j = value m m.plan.kids.((3 * i) + j)

  and compute m i =
    let n = m.plan.nodes.(i) in
    match n.op with
    | Const v -> v
    | Input_read inp -> error "eval: input %s has no token" (Input.name inp)
    | Reg_read r -> Reg.value r
    | Add _ -> Fixed.add (kid m i 0) (kid m i 1)
    | Sub _ -> Fixed.sub (kid m i 0) (kid m i 1)
    | Mul _ -> Fixed.mul (kid m i 0) (kid m i 1)
    | Neg _ -> Fixed.neg (kid m i 0)
    | Abs _ -> Fixed.abs (kid m i 0)
    | And _ -> Fixed.logand (kid m i 0) (kid m i 1)
    | Or _ -> Fixed.logor (kid m i 0) (kid m i 1)
    | Xor _ -> Fixed.logxor (kid m i 0) (kid m i 1)
    | Not _ -> Fixed.lognot (kid m i 0)
    | Eq _ -> Fixed.eq (kid m i 0) (kid m i 1)
    | Lt _ -> Fixed.lt (kid m i 0) (kid m i 1)
    | Le _ -> Fixed.le (kid m i 0) (kid m i 1)
    | Mux _ ->
      (* Both branches are evaluated: hardware muxes have no short
         circuit, and resizing to the mux format must be consistent. *)
      let sv = kid m i 0 and av = kid m i 1 and bv = kid m i 2 in
      let v = if Fixed.is_true sv then av else bv in
      Fixed.resize ~round:Fixed.Truncate ~overflow:Fixed.Wrap n.fmt v
    | Resize (round, overflow, _) ->
      Fixed.resize ~round ~overflow n.fmt (kid m i 0)
    | Rom_read (r, _) ->
      let k = Fixed.to_int (kid m i 0) in
      Rom.get r k
    | Shift_left (_, k) -> Fixed.resize n.fmt (Fixed.shift_left (kid m i 0) k)
    | Shift_right (_, k) -> Fixed.resize n.fmt (Fixed.shift_right (kid m i 0) k)

  let eval m r = value m m.plan.roots.(r)
end

let eval env e =
  let p = Plan.create [ e ] in
  Plan.eval (Plan.memo p env) 0
