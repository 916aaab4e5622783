let sanitize name =
  let s =
    String.map
      (fun c ->
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c
        | _ -> '_')
      (String.lowercase_ascii name)
  in
  match s.[0] with
  | 'a' .. 'z' -> s
  | '0' .. '9' | '_' -> "x" ^ s
  | _ -> "x" ^ s
  | exception Invalid_argument _ -> "x"

let is_signed (f : Fixed.format) =
  match f.Fixed.signedness with Fixed.Signed -> true | Fixed.Unsigned -> false

let vhdl_type (f : Fixed.format) =
  Printf.sprintf "%s(%d downto 0)"
    (if is_signed f then "signed" else "unsigned")
    (f.Fixed.width - 1)

(* Value-preserving cast of [expr] (format [src]) to the representation
   width [w] and signedness of [dst], with an alignment shift of [k]
   fraction bits. *)
let cast ~src ~dst_signed ~w ~k expr =
  let resized =
    if is_signed src = dst_signed then Printf.sprintf "resize(%s, %d)" expr w
    else if is_signed src then
      (* Only occurs when the value is known non-negative by the format
         rules; reinterpret after resizing. *)
      Printf.sprintf "unsigned(resize(%s, %d))" expr w
    else Printf.sprintf "signed(resize(%s, %d))" expr w
  in
  if k = 0 then resized else Printf.sprintf "shift_left(%s, %d)" resized k

let var n = Printf.sprintf "v_%d" (Signal.id n)

(* Emit three-address assignments computing [node] into its variable.
   [emitted] dedups across the whole process; [line] appends a statement. *)
let rec emit_node ~line ~emitted ~port_name ~reg_name ~rom_name node =
  if not (Hashtbl.mem emitted (Signal.id node)) then begin
    Hashtbl.replace emitted (Signal.id node) ();
    let go x = emit_node ~line ~emitted ~port_name ~reg_name ~rom_name x in
    let nf = Signal.fmt node in
    let w = nf.Fixed.width in
    let self_signed = is_signed nf in
    let kind = if self_signed then "signed" else "unsigned" in
    (* Operand [x] cast to the node's representation, shifted [k] bits. *)
    let operand x k = cast ~src:(Signal.fmt x) ~dst_signed:self_signed ~w ~k (var x) in
    let bin op x y =
      go x;
      go y;
      let al = Fixed.align (Signal.fmt x) (Signal.fmt y) in
      let cx = operand x al.Fixed.al_shift_a and cy = operand y al.Fixed.al_shift_b in
      line (Printf.sprintf "%s := %s %s %s;" (var node) cx op cy)
    in
    let cmp op x y =
      go x;
      go y;
      let fx = Signal.fmt x and fy = Signal.fmt y in
      let al = Fixed.align fx fy in
      let ka = al.Fixed.al_shift_a and kb = al.Fixed.al_shift_b in
      (* Compare value-faithfully in signed arithmetic two bits wide of
         slack. *)
      let cw = 2 + max (fx.Fixed.width + ka) (fy.Fixed.width + kb) in
      let cx = cast ~src:fx ~dst_signed:true ~w:cw ~k:ka (var x) in
      let cy = cast ~src:fy ~dst_signed:true ~w:cw ~k:kb (var y) in
      line
        (Printf.sprintf "if %s %s %s then %s := \"1\"; else %s := \"0\"; end if;"
           cx op cy (var node) (var node))
    in
    match Signal.op node with
    | Signal.Const v ->
      line
        (Printf.sprintf "%s := to_%s(%Ld, %d);" (var node) kind (Fixed.mantissa v) w)
    | Signal.Input_read i ->
      line (Printf.sprintf "%s := %s;" (var node) (port_name i))
    | Signal.Reg_read r ->
      line (Printf.sprintf "%s := %s;" (var node) (reg_name r))
    | Signal.Add (x, y) -> bin "+" x y
    | Signal.Sub (x, y) -> bin "-" x y
    | Signal.Mul (x, y) ->
      go x;
      go y;
      let conv f v =
        if is_signed f = self_signed then v
        else cast ~src:f ~dst_signed:self_signed ~w:(f.Fixed.width + 1) ~k:0 v
      in
      line
        (Printf.sprintf "%s := resize(%s * %s, %d);" (var node)
           (conv (Signal.fmt x) (var x))
           (conv (Signal.fmt y) (var y))
           w)
    | Signal.Neg x ->
      go x;
      line
        (Printf.sprintf "%s := -resize(%s, %d);" (var node)
           (cast ~src:(Signal.fmt x) ~dst_signed:true ~w ~k:0 (var x))
           w)
    | Signal.Abs x ->
      go x;
      line
        (Printf.sprintf "%s := abs(resize(%s, %d));" (var node)
           (cast ~src:(Signal.fmt x) ~dst_signed:true ~w ~k:0 (var x))
           w)
    | Signal.And (x, y) -> bin "and" x y
    | Signal.Or (x, y) -> bin "or" x y
    | Signal.Xor (x, y) -> bin "xor" x y
    | Signal.Not x ->
      go x;
      line (Printf.sprintf "%s := not %s;" (var node) (var x))
    | Signal.Eq (x, y) -> cmp "=" x y
    | Signal.Lt (x, y) -> cmp "<" x y
    | Signal.Le (x, y) -> cmp "<=" x y
    | Signal.Mux (s, x, y) ->
      go s;
      go x;
      go y;
      let branch b =
        let p = Fixed.resize_plan ~round:Fixed.Truncate ~overflow:Fixed.Wrap (Signal.fmt b) nf in
        operand b (-p.Fixed.rz_shift)
      in
      let ex = branch x in
      let ey = branch y in
      line
        (Printf.sprintf
           "if %s = \"1\" then %s := %s; else %s := %s; end if;" (var s)
           (var node) ex (var node) ey)
    | Signal.Resize (round, overflow, x) ->
      go x;
      let fx = Signal.fmt x in
      let p = Fixed.resize_plan ~round ~overflow fx nf in
      let k = p.Fixed.rz_shift and half = p.Fixed.rz_half in
      (* Work in a wide signed temporary. *)
      let wide = p.Fixed.rz_width in
      let t = Printf.sprintf "%s_w" (var node) in
      line
        (Printf.sprintf "%s := %s;" t
           (cast ~src:fx ~dst_signed:true ~w:wide ~k:(max 0 (-k)) (var x)));
      if k > 0 then begin
        (match round with
        | Fixed.Truncate -> ()
        | Fixed.Round_nearest ->
          line (Printf.sprintf "%s := %s + to_signed(%Ld, %d);" t t half wide)
        | Fixed.Round_even ->
          line
            (Printf.sprintf
               "if %s(%d) = '1' and (%s(%d downto 0) /= 0 or %s(%d) = '1') \
                then %s := %s + to_signed(%Ld, %d); end if;"
               t (k - 1) t
               (max 0 (k - 2))
               t k t t half wide));
        line (Printf.sprintf "%s := shift_right(%s, %d);" t t k)
      end;
      (match overflow with
      | Fixed.Wrap ->
        line (Printf.sprintf "%s := %s(%s(%d downto 0));" (var node) kind t (w - 1))
      | Fixed.Saturate ->
        let lo = p.Fixed.rz_lo and hi = p.Fixed.rz_hi in
        line
          (Printf.sprintf
             "if %s < to_signed(%Ld, %d) then %s := to_%s(%Ld, %d); elsif %s \
              > to_signed(%Ld, %d) then %s := to_%s(%Ld, %d); else %s := \
              %s(%s(%d downto 0)); end if;"
             t lo wide (var node) kind lo w t hi wide (var node) kind hi w
             (var node) kind t (w - 1)))
    | Signal.Rom_read (r, idx) ->
      go idx;
      let fi = Signal.fmt idx in
      let addr =
        if fi.Fixed.frac <= 0 then
          Printf.sprintf "to_integer(%s) * %d" (var idx)
            (1 lsl max 0 (-fi.Fixed.frac))
        else Printf.sprintf "to_integer(%s) / %d" (var idx) (1 lsl fi.Fixed.frac)
      in
      line
        (Printf.sprintf "%s := %s((%s) mod %d);" (var node) (rom_name r) addr
           (Signal.Rom.size r))
    | Signal.Shift_left (x, _) | Signal.Shift_right (x, _) ->
      go x;
      line (Printf.sprintf "%s := %s;" (var node) (var x))
  end

(* Collect every node of a component once. *)
let all_nodes fsm =
  let seen = Hashtbl.create 256 in
  let nodes = ref [] in
  let visit root =
    Signal.fold_dag root ~init:() ~f:(fun () n ->
        if not (Hashtbl.mem seen (Signal.id n)) then begin
          Hashtbl.replace seen (Signal.id n) ();
          nodes := n :: !nodes
        end)
  in
  List.iter
    (fun tr ->
      visit (Fsm.guard_expr tr.Fsm.t_guard);
      List.iter
        (fun sfg ->
          List.iter (fun (_, e) -> visit e) (Sfg.outputs sfg);
          List.iter (fun (_, e) -> visit e) (Sfg.assigns sfg))
        tr.Fsm.t_actions)
    (Fsm.transitions fsm);
  List.rev !nodes

let component_entity cname fsm ~out_fmts =
  let buf = Buffer.create 8192 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let ent = sanitize cname in
  let regs = Fsm.all_regs fsm in
  let in_ports =
    List.concat_map
      (fun sfg -> List.map (fun i -> (Signal.Input.name i, Signal.Input.fmt i)) (Sfg.inputs sfg))
      (Fsm.all_sfgs fsm)
    |> List.sort_uniq compare
  in
  let out_ports =
    List.concat_map
      (fun sfg -> List.map fst (Sfg.outputs sfg))
      (Fsm.all_sfgs fsm)
    |> List.sort_uniq String.compare
    |> List.filter_map (fun p ->
           match List.assoc_opt p out_fmts with
           | Some f -> Some (p, f)
           | None -> None)
  in
  pf "library ieee;\nuse ieee.std_logic_1164.all;\nuse ieee.numeric_std.all;\n\n";
  pf "entity %s is\n  port (\n    clk : in std_logic;\n    rst : in std_logic" ent;
  List.iter
    (fun (p, f) -> pf ";\n    p_%s : in %s" (sanitize p) (vhdl_type f))
    in_ports;
  List.iter
    (fun (p, f) -> pf ";\n    o_%s : out %s" (sanitize p) (vhdl_type f))
    out_ports;
  pf "\n  );\nend entity %s;\n\n" ent;
  pf "architecture rtl of %s is\n" ent;
  (* State type. *)
  let states = Fsm.states fsm in
  pf "  type state_t is (%s);\n"
    (String.concat ", " (List.map (fun s -> "st_" ^ sanitize (Fsm.state_name s)) states));
  pf "  signal state, state_next : state_t;\n";
  List.iter
    (fun r ->
      pf "  signal r_%s, r_%s_next : %s;\n" (sanitize (Signal.Reg.name r))
        (sanitize (Signal.Reg.name r))
        (vhdl_type (Signal.Reg.fmt r)))
    regs;
  (* ROM constants. *)
  let roms = Hashtbl.create 4 in
  List.iter
    (fun n ->
      match Signal.op n with
      | Signal.Rom_read (r, _) ->
        if not (Hashtbl.mem roms (Signal.Rom.name r)) then begin
          Hashtbl.replace roms (Signal.Rom.name r) ();
          let rn = sanitize (Signal.Rom.name r) in
          let rf = Signal.Rom.fmt r in
          pf "  type %s_t is array (0 to %d) of %s;\n" rn
            (Signal.Rom.size r - 1) (vhdl_type rf);
          pf "  constant rom_%s : %s_t := (\n    " rn rn;
          for i = 0 to Signal.Rom.size r - 1 do
            if i > 0 then pf ",%s" (if i mod 8 = 0 then "\n    " else " ");
            pf "to_%s(%Ld, %d)"
              (if is_signed rf then "signed" else "unsigned")
              (Fixed.mantissa (Signal.Rom.get r i))
              rf.Fixed.width
          done;
          pf ");\n"
        end
      | _ -> ())
    (all_nodes fsm);
  pf "begin\n\n";
  (* Combinational process. *)
  pf "  comb : process (state%s%s)\n"
    (String.concat ""
       (List.map (fun r -> ", r_" ^ sanitize (Signal.Reg.name r)) regs))
    (String.concat ""
       (List.map (fun (p, _) -> ", p_" ^ sanitize p) in_ports));
  List.iter
    (fun n -> pf "    variable %s : %s;\n" (var n) (vhdl_type (Signal.fmt n)))
    (all_nodes fsm);
  (* Wide temporaries for resize nodes. *)
  List.iter
    (fun n ->
      match Signal.op n with
      | Signal.Resize (round, overflow, x) ->
        let p = Fixed.resize_plan ~round ~overflow (Signal.fmt x) (Signal.fmt n) in
        pf "    variable %s_w : signed(%d downto 0);\n" (var n) (p.Fixed.rz_width - 1)
      | _ -> ())
    (all_nodes fsm);
  pf "  begin\n";
  pf "    state_next <= state;\n";
  List.iter
    (fun r ->
      let rn = sanitize (Signal.Reg.name r) in
      pf "    r_%s_next <= r_%s;\n" rn rn)
    regs;
  List.iter
    (fun (p, _) -> pf "    o_%s <= (others => '0');\n" (sanitize p))
    out_ports;
  let emitted = Hashtbl.create 256 in
  let port_name i = "p_" ^ sanitize (Signal.Input.name i) in
  let reg_name r = "r_" ^ sanitize (Signal.Reg.name r) in
  let rom_name r = "rom_" ^ sanitize (Signal.Rom.name r) in
  let indent = ref 2 in
  let line s =
    pf "%s%s\n" (String.make (!indent * 2) ' ') s
  in
  (* Guards first (they read registers only). *)
  List.iter
    (fun tr ->
      emit_node ~line ~emitted ~port_name ~reg_name ~rom_name
        (Fsm.guard_expr tr.Fsm.t_guard))
    (Fsm.transitions fsm);
  pf "    case state is\n";
  List.iter
    (fun s ->
      pf "      when st_%s =>\n" (sanitize (Fsm.state_name s));
      indent := 4;
      let trs = Fsm.transitions_from fsm s in
      let rec chain first = function
        | [] ->
          if not first then line "end if;"
        | tr :: rest ->
          let g = Fsm.guard_expr tr.Fsm.t_guard in
          line
            (Printf.sprintf "%s %s = \"1\" then"
               (if first then "if" else "elsif")
               (var g));
          indent := !indent + 1;
          (* The transition body: fresh dedup per branch so shared nodes
             are recomputed in each branch (variables are branch-local
             in effect). *)
          let branch_emitted = Hashtbl.create 64 in
          Hashtbl.iter (fun k () -> Hashtbl.replace branch_emitted k ()) emitted;
          let bline = line in
          List.iter
            (fun sfg ->
              List.iter
                (fun (port, e) ->
                  emit_node ~line:bline ~emitted:branch_emitted ~port_name
                    ~reg_name ~rom_name e;
                  bline
                    (Printf.sprintf "o_%s <= %s;" (sanitize port) (var e)))
                (Sfg.outputs sfg);
              List.iter
                (fun (r, e) ->
                  emit_node ~line:bline ~emitted:branch_emitted ~port_name
                    ~reg_name ~rom_name e;
                  bline
                    (Printf.sprintf "r_%s_next <= %s;"
                       (sanitize (Signal.Reg.name r))
                       (var e)))
                (Sfg.assigns sfg))
            tr.Fsm.t_actions;
          bline
            (Printf.sprintf "state_next <= st_%s;"
               (sanitize (Fsm.state_name tr.Fsm.t_goto)));
          indent := !indent - 1;
          chain false rest
      in
      chain true trs;
      indent := 2)
    states;
  pf "    end case;\n";
  pf "  end process comb;\n\n";
  (* Sequential process. *)
  pf "  seq : process (clk)\n  begin\n";
  pf "    if rising_edge(clk) then\n";
  pf "      if rst = '1' then\n";
  pf "        state <= st_%s;\n"
    (sanitize (Fsm.state_name (Fsm.initial_state fsm)));
  List.iter
    (fun r ->
      pf "        r_%s <= to_%s(%Ld, %d);\n"
        (sanitize (Signal.Reg.name r))
        (if is_signed (Signal.Reg.fmt r) then "signed" else "unsigned")
        (Fixed.mantissa (Signal.Reg.init r))
        (Signal.Reg.fmt r).Fixed.width)
    regs;
  pf "      else\n";
  pf "        state <= state_next;\n";
  List.iter
    (fun r ->
      let rn = sanitize (Signal.Reg.name r) in
      pf "        r_%s <= r_%s_next;\n" rn rn)
    regs;
  pf "      end if;\n    end if;\n  end process seq;\n\n";
  pf "end architecture rtl;\n";
  Buffer.contents buf

let ram_entity =
  String.concat "\n"
    [
      "library ieee;";
      "use ieee.std_logic_1164.all;";
      "use ieee.numeric_std.all;";
      "";
      "entity ocapi_ram is";
      "  generic (words : positive; width : positive; addr_width : positive);";
      "  port (";
      "    clk   : in std_logic;";
      "    addr  : in unsigned(addr_width - 1 downto 0);";
      "    wdata : in unsigned(width - 1 downto 0);";
      "    we    : in std_logic;";
      "    rdata : out unsigned(width - 1 downto 0)";
      "  );";
      "end entity ocapi_ram;";
      "";
      "architecture rtl of ocapi_ram is";
      "  type mem_t is array (0 to words - 1) of unsigned(width - 1 downto 0);";
      "  signal mem : mem_t := (others => (others => '0'));";
      "begin";
      "  rdata <= mem(to_integer(addr) mod words);";
      "  write : process (clk)";
      "  begin";
      "    if rising_edge(clk) and we = '1' then";
      "      mem(to_integer(addr) mod words) <= wdata;";
      "    end if;";
      "  end process write;";
      "end architecture rtl;";
      "";
    ]

let toplevel sys =
  let buf = Buffer.create 4096 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let top = sanitize (Cycle_system.name sys) in
  let net_signal n = sanitize (Cycle_system.net_name n) in
  pf "library ieee;\nuse ieee.std_logic_1164.all;\nuse ieee.numeric_std.all;\n\n";
  pf "entity %s is\n  port (\n    clk : in std_logic;\n    rst : in std_logic" top;
  List.iter
    (fun (name, fmt, _) -> pf ";\n    i_%s : in %s" (sanitize name) (vhdl_type fmt))
    (Cycle_system.primary_inputs sys);
  List.iter
    (fun p ->
      Option.iter
        (fun f -> pf ";\n    o_%s : out %s" (sanitize p) (vhdl_type f))
        (Cycle_system.probe_format sys p))
    (Cycle_system.probes sys);
  pf "\n  );\nend entity %s;\n\n" top;
  pf "architecture structure of %s is\n" top;
  List.iter
    (fun n ->
      pf "  signal n_%s : %s;\n" (net_signal n)
        (vhdl_type (Cycle_system.net_format n)))
    (Cycle_system.nets sys);
  pf "begin\n";
  (* Primary input wiring. *)
  List.iter
    (fun (name, _, _) ->
      Option.iter
        (fun n -> pf "  n_%s <= i_%s;\n" (net_signal n) (sanitize name))
        (Cycle_system.output_net sys name "out"))
    (Cycle_system.primary_inputs sys);
  (* Component instances. *)
  let ports of_sfg fsm =
    List.concat_map of_sfg (Fsm.all_sfgs fsm) |> List.sort_uniq String.compare
  in
  List.iter
    (fun (cname, fsm) ->
      pf "\n  u_%s : entity work.%s\n    port map (\n      clk => clk,\n      rst => rst"
        (sanitize cname) (sanitize cname);
      List.iter
        (fun p ->
          Option.iter
            (fun n -> pf ",\n      p_%s => n_%s" (sanitize p) (net_signal n))
            (Cycle_system.input_net sys cname p))
        (ports (fun sfg -> List.map Signal.Input.name (Sfg.inputs sfg)) fsm);
      List.iter
        (fun p ->
          Option.iter
            (fun n -> pf ",\n      o_%s => n_%s" (sanitize p) (net_signal n))
            (Cycle_system.output_net sys cname p))
        (ports (fun sfg -> List.map fst (Sfg.outputs sfg)) fsm);
      pf "\n    );\n")
    (Cycle_system.timed_components sys);
  (* Probe wiring. *)
  List.iter
    (fun p ->
      Option.iter
        (fun n -> pf "  o_%s <= n_%s;\n" (sanitize p) (net_signal n))
        (Cycle_system.input_net sys p "in"))
    (Cycle_system.probes sys);
  pf "\nend architecture structure;\n";
  Buffer.contents buf

let of_system sys =
  let comp_files =
    List.map
      (fun (cname, fsm) ->
        let out_fmts =
          List.concat_map
            (fun sfg -> List.map fst (Sfg.outputs sfg))
            (Fsm.all_sfgs fsm)
          |> List.sort_uniq String.compare
          |> List.filter_map (fun p ->
                 Option.map
                   (fun n -> (p, Cycle_system.net_format n))
                   (Cycle_system.output_net sys cname p))
        in
        (sanitize cname ^ ".vhd", component_entity cname fsm ~out_fmts))
      (Cycle_system.timed_components sys)
  in
  let ram_files =
    if Cycle_system.untimed_components sys <> [] then
      [ ("ocapi_ram.vhd", ram_entity) ]
    else []
  in
  comp_files @ ram_files
  @ [ (sanitize (Cycle_system.name sys) ^ "_top.vhd", toplevel sys) ]

let line_count files =
  List.fold_left
    (fun acc (_, contents) ->
      acc + List.length (String.split_on_char '\n' contents))
    0 files

let of_netlist nl =
  let buf = Buffer.create 65536 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let w n = Printf.sprintf "n%d" n in
  let ent = sanitize (Netlist.name nl) in
  let inputs = Netlist.inputs_list nl and outputs = Netlist.outputs_list nl in
  pf "-- Generated by ocapi-ml: structural netlist for %s\n" (Netlist.name nl);
  pf "library ieee;\nuse ieee.std_logic_1164.all;\nuse ieee.numeric_std.all;\n\n";
  pf "entity %s_netlist is\n  port (\n    clk : in std_logic" ent;
  List.iter
    (fun (name, bus) ->
      pf ";\n    %s : in std_logic_vector(%d downto 0)" (sanitize name)
        (Array.length bus - 1))
    inputs;
  List.iter
    (fun (name, bus) ->
      pf ";\n    %s : out std_logic_vector(%d downto 0)" (sanitize name)
        (Array.length bus - 1))
    outputs;
  pf "\n  );\nend entity %s_netlist;\n\n" ent;
  pf "architecture structural of %s_netlist is\n" ent;
  for n = 0 to Netlist.net_count nl - 1 do
    pf "  signal %s : std_logic;\n" (w n)
  done;
  pf "begin\n";
  List.iter
    (fun (name, bus) ->
      Array.iteri
        (fun i n -> pf "  %s <= %s(%d);\n" (w n) (sanitize name) i)
        bus)
    inputs;
  List.iter
    (fun (name, bus) ->
      Array.iteri
        (fun i n -> pf "  %s(%d) <= %s;\n" (sanitize name) i (w n))
        bus)
    outputs;
  Netlist.fold_gates nl ~init:() ~f:(fun () kind ins out ->
      match kind with
      | Netlist.Buf -> pf "  %s <= %s;\n" (w out) (w ins.(0))
      | Netlist.Not -> pf "  %s <= not %s;\n" (w out) (w ins.(0))
      | Netlist.And ->
        pf "  %s <= %s and %s;\n" (w out) (w ins.(0)) (w ins.(1))
      | Netlist.Or -> pf "  %s <= %s or %s;\n" (w out) (w ins.(0)) (w ins.(1))
      | Netlist.Xor ->
        pf "  %s <= %s xor %s;\n" (w out) (w ins.(0)) (w ins.(1))
      | Netlist.Nand ->
        pf "  %s <= %s nand %s;\n" (w out) (w ins.(0)) (w ins.(1))
      | Netlist.Nor ->
        pf "  %s <= %s nor %s;\n" (w out) (w ins.(0)) (w ins.(1))
      | Netlist.Mux2 ->
        pf "  %s <= %s when %s = '1' else %s;\n" (w out) (w ins.(1))
          (w ins.(0)) (w ins.(2))
      | Netlist.Const0 -> pf "  %s <= '0';\n" (w out)
      | Netlist.Const1 -> pf "  %s <= '1';\n" (w out));
  (* Flip-flops: one clocked process. *)
  let dffs =
    Netlist.fold_dffs nl ~init:[] ~f:(fun acc init ~d ~q -> (init, d, q) :: acc)
  in
  if dffs <> [] then begin
    pf "\n  registers : process (clk)\n  begin\n";
    pf "    if rising_edge(clk) then\n";
    List.iter (fun (_, d, q) -> pf "      %s <= %s;\n" (w q) (w d)) (List.rev dffs);
    pf "    end if;\n  end process registers;\n"
  end;
  (* ROM macros: selected concurrent assignments per word bit. *)
  List.iteri
    (fun i (name, width, contents, addr, out) ->
      pf "\n  -- ROM %s (%d x %d)\n" name (Array.length contents) width;
      pf "  rom%d : process (%s)\n" i
        (String.concat ", " (Array.to_list (Array.map w addr)));
      pf "    variable a : integer;\n  begin\n";
      pf "    a := 0;\n";
      Array.iteri
        (fun bi n -> pf "    if %s = '1' then a := a + %d; end if;\n" (w n) (1 lsl bi))
        addr;
      pf "    a := a mod %d;\n" (Array.length contents);
      pf "    case a is\n";
      Array.iteri
        (fun word v ->
          pf "      when %d =>\n" word;
          Array.iteri
            (fun bi n ->
              pf "        %s <= '%c';\n" (w n)
                (if Int64.logand (Int64.shift_right_logical v bi) 1L = 1L then
                   '1'
                 else '0'))
            out)
        contents;
      pf "      when others =>\n";
      Array.iter (fun n -> pf "        %s <= '0';\n" (w n)) out;
      pf "    end case;\n  end process rom%d;\n" i)
    (Netlist.roms_list nl);
  (* RAM macros. *)
  List.iteri
    (fun i (name, words, width, addr, wdata, we, out) ->
      pf "\n  -- RAM %s (%d x %d)\n" name words width;
      pf "  ram%d : block\n" i;
      pf "    type mem_t is array (0 to %d) of std_logic_vector(%d downto 0);\n"
        (words - 1) (width - 1);
      pf "    signal mem : mem_t := (others => (others => '0'));\n";
      pf "    signal a : integer := 0;\n  begin\n";
      pf "    a <= %s;\n"
        (String.concat " + "
           (Array.to_list
              (Array.mapi
                 (fun bi n ->
                   Printf.sprintf "(%d * to_integer(unsigned'(\"\" & %s)))"
                     (1 lsl bi) (w n))
                 addr)));
      Array.iteri
        (fun bi n -> pf "    %s <= mem(a mod %d)(%d);\n" (w n) words bi)
        out;
      pf "    write : process (clk)\n    begin\n";
      pf "      if rising_edge(clk) and %s = '1' then\n" (w we);
      pf "        mem(a mod %d) <= (%s);\n" words
        (String.concat ", "
           (List.rev
              (Array.to_list
                 (Array.mapi (fun bi n -> Printf.sprintf "%d => %s" bi (w n)) wdata))));
      pf "      end if;\n    end process write;\n";
      pf "  end block ram%d;\n" i)
    (Netlist.rams_list nl);
  pf "\nend architecture structural;\n";
  Buffer.contents buf
