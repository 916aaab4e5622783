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

let children t =
  match t.op with
  | Const _ | Input_read _ | Reg_read _ -> []
  | Neg a | Abs a | Not a | Resize (_, _, a)
  | Rom_read (_, a) | Shift_left (a, _) | Shift_right (a, _) -> [ a ]
  | Add (a, b) | Sub (a, b) | Mul (a, b) | And (a, b) | Or (a, b)
  | Xor (a, b) | Eq (a, b) | Lt (a, b) | Le (a, b) -> [ a; b ]
  | Mux (s, a, b) -> [ s; a; b ]

let fold_dag e ~init ~f =
  let seen = Hashtbl.create 64 in
  let rec go acc n =
    if Hashtbl.mem seen n.id then acc
    else begin
      Hashtbl.add seen n.id ();
      let acc = List.fold_left go acc (children n) in
      f acc n
    end
  in
  go init e

let input_deps e =
  fold_dag e ~init:[] ~f:(fun acc n ->
      match n.op with Input_read i -> i :: acc | _ -> acc)
  |> List.rev

let regs_read e =
  fold_dag e ~init:[] ~f:(fun acc n ->
      match n.op with Reg_read r -> r :: acc | _ -> acc)
  |> List.rev

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

let eval_memo memo env e =
  let rec go n =
    match Hashtbl.find_opt memo n.id with
    | Some v -> v
    | None ->
      let v = compute n in
      Hashtbl.add memo n.id v;
      v
  and compute n =
    match n.op with
    | Const v -> v
    | Input_read i -> begin
      match Env.find env i with
      | Some v -> v
      | None -> error "eval: input %s has no token" (Input.name i)
    end
    | Reg_read r -> Reg.value r
    | Add (a, b) -> Fixed.add (go a) (go b)
    | Sub (a, b) -> Fixed.sub (go a) (go b)
    | Mul (a, b) -> Fixed.mul (go a) (go b)
    | Neg a -> Fixed.neg (go a)
    | Abs a -> Fixed.abs (go a)
    | And (a, b) -> Fixed.logand (go a) (go b)
    | Or (a, b) -> Fixed.logor (go a) (go b)
    | Xor (a, b) -> Fixed.logxor (go a) (go b)
    | Not a -> Fixed.lognot (go a)
    | Eq (a, b) -> Fixed.eq (go a) (go b)
    | Lt (a, b) -> Fixed.lt (go a) (go b)
    | Le (a, b) -> Fixed.le (go a) (go b)
    | Mux (s, a, b) ->
      (* Both branches are evaluated: hardware muxes have no short
         circuit, and resizing to the mux format must be consistent. *)
      let sv = go s and av = go a and bv = go b in
      let v = if Fixed.is_true sv then av else bv in
      Fixed.resize ~round:Fixed.Truncate ~overflow:Fixed.Wrap n.fmt v
    | Resize (round, overflow, a) -> Fixed.resize ~round ~overflow n.fmt (go a)
    | Rom_read (r, idx) ->
      let i = Fixed.to_int (go idx) in
      Rom.get r i
    | Shift_left (a, k) -> Fixed.resize n.fmt (Fixed.shift_left (go a) k)
    | Shift_right (a, k) -> Fixed.resize n.fmt (Fixed.shift_right (go a) k)
  in
  go e

let eval env e = eval_memo (Hashtbl.create 64) env e
