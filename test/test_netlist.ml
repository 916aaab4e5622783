(* Tests for the gate-level netlist substrate and its simulator. *)

let test_gate_logic () =
  let nl = Netlist.create "gates" in
  let a = Netlist.input_bus nl "a" 1 and b = Netlist.input_bus nl "b" 1 in
  let outs =
    [
      ("and_o", Netlist.gate nl Netlist.And [ a.(0); b.(0) ]);
      ("or_o", Netlist.gate nl Netlist.Or [ a.(0); b.(0) ]);
      ("xor_o", Netlist.gate nl Netlist.Xor [ a.(0); b.(0) ]);
      ("nand_o", Netlist.gate nl Netlist.Nand [ a.(0); b.(0) ]);
      ("nor_o", Netlist.gate nl Netlist.Nor [ a.(0); b.(0) ]);
      ("not_o", Netlist.gate nl Netlist.Not [ a.(0) ]);
      ("buf_o", Netlist.gate nl Netlist.Buf [ a.(0) ]);
      ("c1", Netlist.gate nl Netlist.Const1 []);
    ]
  in
  List.iter (fun (n, net) -> Netlist.output_bus nl n [| net |]) outs;
  let sim = Netlist.Sim.create nl in
  let truth av bv expect_and expect_or expect_xor =
    Netlist.Sim.set_input sim "a" (if av then 1L else 0L);
    Netlist.Sim.set_input sim "b" (if bv then 1L else 0L);
    Netlist.Sim.settle sim;
    let g n = Netlist.Sim.get_output sim ~signed:false n = 1L in
    Alcotest.(check bool) "and" expect_and (g "and_o");
    Alcotest.(check bool) "or" expect_or (g "or_o");
    Alcotest.(check bool) "xor" expect_xor (g "xor_o");
    Alcotest.(check bool) "nand" (not expect_and) (g "nand_o");
    Alcotest.(check bool) "nor" (not expect_or) (g "nor_o");
    Alcotest.(check bool) "not" (not av) (g "not_o");
    Alcotest.(check bool) "buf" av (g "buf_o");
    Alcotest.(check bool) "const" true (g "c1")
  in
  truth false false false false false;
  truth true false false true true;
  truth false true false true true;
  truth true true true true false

let test_mux_gate () =
  let nl = Netlist.create "mux" in
  let s = Netlist.input_bus nl "s" 1 in
  let a = Netlist.input_bus nl "a" 1 and b = Netlist.input_bus nl "b" 1 in
  Netlist.output_bus nl "o" [| Netlist.gate nl Netlist.Mux2 [ s.(0); a.(0); b.(0) ] |];
  let sim = Netlist.Sim.create nl in
  Netlist.Sim.set_input sim "a" 1L;
  Netlist.Sim.set_input sim "b" 0L;
  Netlist.Sim.set_input sim "s" 1L;
  Netlist.Sim.settle sim;
  Alcotest.(check int64) "sel=1 -> a" 1L (Netlist.Sim.get_output sim ~signed:false "o");
  Netlist.Sim.set_input sim "s" 0L;
  Netlist.Sim.settle sim;
  Alcotest.(check int64) "sel=0 -> b" 0L (Netlist.Sim.get_output sim ~signed:false "o")

let test_dff_and_clock () =
  let nl = Netlist.create "dffs" in
  let d = Netlist.input_bus nl "d" 1 in
  let q = Netlist.dff nl ~init:true d.(0) in
  Netlist.output_bus nl "q" [| q |];
  let sim = Netlist.Sim.create nl in
  Netlist.Sim.settle sim;
  Alcotest.(check int64) "init" 1L (Netlist.Sim.get_output sim ~signed:false "q");
  Netlist.Sim.set_input sim "d" 0L;
  Netlist.Sim.settle sim;
  Alcotest.(check int64) "not yet latched" 1L
    (Netlist.Sim.get_output sim ~signed:false "q");
  Netlist.Sim.clock sim;
  Alcotest.(check int64) "latched" 0L (Netlist.Sim.get_output sim ~signed:false "q")

let test_dff_en () =
  let nl = Netlist.create "dffen" in
  let d = Netlist.input_bus nl "d" 1 and en = Netlist.input_bus nl "en" 1 in
  let q = Netlist.dff_en nl ~enable:en.(0) d.(0) in
  Netlist.output_bus nl "q" [| q |];
  let sim = Netlist.Sim.create nl in
  Netlist.Sim.set_input sim "d" 1L;
  Netlist.Sim.set_input sim "en" 0L;
  Netlist.Sim.settle sim;
  Netlist.Sim.clock sim;
  Alcotest.(check int64) "held" 0L (Netlist.Sim.get_output sim ~signed:false "q");
  Netlist.Sim.set_input sim "en" 1L;
  Netlist.Sim.settle sim;
  Netlist.Sim.clock sim;
  Alcotest.(check int64) "loaded" 1L (Netlist.Sim.get_output sim ~signed:false "q")

let test_rom_macro () =
  let nl = Netlist.create "roms" in
  let addr = Netlist.input_bus nl "addr" 3 in
  let out = Netlist.rom nl ~name:"t" ~width:8 ~contents:(Array.init 5 (fun i -> Int64.of_int (i * 11))) addr in
  Netlist.output_bus nl "data" out;
  let sim = Netlist.Sim.create nl in
  Netlist.Sim.set_input sim "addr" 3L;
  Netlist.Sim.settle sim;
  Alcotest.(check int64) "read" 33L (Netlist.Sim.get_output sim ~signed:false "data");
  (* wrap modulo size *)
  Netlist.Sim.set_input sim "addr" 6L;
  Netlist.Sim.settle sim;
  Alcotest.(check int64) "wrap" 11L (Netlist.Sim.get_output sim ~signed:false "data")

let test_ram_macro () =
  let nl = Netlist.create "rams" in
  let addr = Netlist.input_bus nl "addr" 3 in
  let wdata = Netlist.input_bus nl "wdata" 8 in
  let we = Netlist.input_bus nl "we" 1 in
  let rdata = Netlist.ram nl ~name:"m" ~words:8 ~width:8 ~addr ~wdata ~we:we.(0) in
  Netlist.output_bus nl "rdata" rdata;
  let sim = Netlist.Sim.create nl in
  Netlist.Sim.set_input sim "addr" 2L;
  Netlist.Sim.set_input sim "wdata" 99L;
  Netlist.Sim.set_input sim "we" 1L;
  Netlist.Sim.settle sim;
  Alcotest.(check int64) "read-before-write" 0L
    (Netlist.Sim.get_output sim ~signed:false "rdata");
  Netlist.Sim.clock sim;
  Alcotest.(check int64) "after clock" 99L
    (Netlist.Sim.get_output sim ~signed:false "rdata");
  (* no write when we=0 *)
  Netlist.Sim.set_input sim "wdata" 5L;
  Netlist.Sim.set_input sim "we" 0L;
  Netlist.Sim.settle sim;
  Netlist.Sim.clock sim;
  Alcotest.(check int64) "unchanged" 99L
    (Netlist.Sim.get_output sim ~signed:false "rdata")

let test_buses_and_signed_read () =
  let nl = Netlist.create "bus" in
  let a = Netlist.input_bus nl "a" 4 in
  Netlist.output_bus nl "o" (Netlist.extend_bus nl ~signed:true a 8);
  let sim = Netlist.Sim.create nl in
  Netlist.Sim.set_input sim "a" (-3L) (* 1101 *);
  Netlist.Sim.settle sim;
  Alcotest.(check int64) "sign extended" (-3L)
    (Netlist.Sim.get_output sim ~signed:true "o");
  Alcotest.(check int64) "raw bits" 253L
    (Netlist.Sim.get_output sim ~signed:false "o")

let test_const_bus () =
  let nl = Netlist.create "constb" in
  Netlist.output_bus nl "o" (Netlist.const_bus nl ~width:8 0xA5L);
  let sim = Netlist.Sim.create nl in
  Netlist.Sim.settle sim;
  Alcotest.(check int64) "constant" 0xA5L
    (Netlist.Sim.get_output sim ~signed:false "o")

let test_double_driver_rejected () =
  let nl = Netlist.create "dd" in
  let a = Netlist.input_bus nl "a" 1 in
  let o = Netlist.gate nl Netlist.Buf [ a.(0) ] in
  match Netlist.buf_into nl ~dst:o a.(0) with
  | exception e when Raises.code Internal e -> ()
  | _ -> Alcotest.fail "double driver accepted"

let test_oscillation_detected () =
  (* A ring of one inverter. *)
  let nl = Netlist.create "osc" in
  let loop_net = Netlist.new_net nl in
  let inv = Netlist.gate nl Netlist.Not [ loop_net ] in
  Netlist.buf_into nl ~dst:loop_net inv;
  Netlist.output_bus nl "o" [| inv |];
  let sim = Netlist.Sim.create nl in
  match Netlist.Sim.settle sim with
  | exception e when Raises.code Did_not_settle e -> ()
  | () -> Alcotest.fail "oscillation not detected"

let test_counts () =
  let nl = Netlist.create "counting" in
  let a = Netlist.input_bus nl "a" 1 in
  let x = Netlist.gate nl Netlist.Xor [ a.(0); a.(0) ] in
  let _q = Netlist.dff nl x in
  ignore (Netlist.rom nl ~name:"r" ~width:4 ~contents:[| 1L; 2L |] a);
  let c = Netlist.counts nl in
  Alcotest.(check int) "comb" 1 c.Netlist.combinational;
  Alcotest.(check int) "dff" 1 c.Netlist.flip_flops;
  Alcotest.(check int) "rom bits" 8 c.Netlist.rom_bits;
  Alcotest.(check bool) "equivalents include dff weight" true
    (c.Netlist.gate_equivalents >= 2 + 6)

let suite =
  [
    Alcotest.test_case "gate truth tables" `Quick test_gate_logic;
    Alcotest.test_case "mux gate" `Quick test_mux_gate;
    Alcotest.test_case "dff and clock" `Quick test_dff_and_clock;
    Alcotest.test_case "dff with enable" `Quick test_dff_en;
    Alcotest.test_case "rom macro" `Quick test_rom_macro;
    Alcotest.test_case "ram macro" `Quick test_ram_macro;
    Alcotest.test_case "buses and signed read" `Quick test_buses_and_signed_read;
    Alcotest.test_case "const bus" `Quick test_const_bus;
    Alcotest.test_case "double driver rejected" `Quick test_double_driver_rejected;
    Alcotest.test_case "oscillation detected" `Quick test_oscillation_detected;
    Alcotest.test_case "gate counts" `Quick test_counts;
  ]

let test_combinational_depth () =
  let nl = Netlist.create "depth" in
  let a = Netlist.input_bus nl "a" 1 in
  (* A chain of 5 inverters, then a register, then 2 more. *)
  let rec chain net k = if k = 0 then net else chain (Netlist.gate nl Netlist.Not [ net ]) (k - 1) in
  let five = chain a.(0) 5 in
  let q = Netlist.dff nl five in
  let two = chain q 2 in
  Netlist.output_bus nl "o" [| two |];
  let depth, cyclic = Netlist.combinational_depth nl in
  Alcotest.(check int) "longest chain" 5 depth;
  Alcotest.(check int) "no cycles" 0 cyclic;
  (* A gated false cycle is excluded but counted. *)
  let nl2 = Netlist.create "depth2" in
  let b = Netlist.input_bus nl2 "b" 1 in
  let loop_net = Netlist.new_net nl2 in
  let g1 = Netlist.gate nl2 Netlist.And [ b.(0); loop_net ] in
  Netlist.buf_into nl2 ~dst:loop_net g1;
  Netlist.output_bus nl2 "o" [| g1 |];
  let _, cyclic2 = Netlist.combinational_depth nl2 in
  Alcotest.(check int) "cycle detected" 2 cyclic2

let suite = suite @ [ Alcotest.test_case "combinational depth" `Quick test_combinational_depth ]

(* --- the poke surface ------------------------------------------------------- *)

(* Pokes reach flip-flop outputs and primary inputs only: a levelized
   settle would overwrite a poke on a gate-driven net. *)
let test_poke_net_restricted () =
  let nl = Netlist.create "poke" in
  let a = Netlist.input_bus nl "a" 1 in
  let g = Netlist.gate nl Netlist.Not [ a.(0) ] in
  let q = Netlist.dff nl g in
  Netlist.output_bus nl "q" [| q |];
  Netlist.output_bus nl "g" [| g |];
  let sim = Netlist.Sim.create nl in
  Netlist.Sim.settle sim;
  Netlist.Sim.poke_net sim q true;
  Netlist.Sim.settle sim;
  Alcotest.(check int64) "q poked" 1L (Netlist.Sim.get_output sim ~signed:false "q");
  Netlist.Sim.poke_net sim a.(0) true;
  Netlist.Sim.settle sim;
  Alcotest.(check int64) "input poked" 0L (Netlist.Sim.get_output sim ~signed:false "g");
  match Netlist.Sim.poke_net sim g true with
  | exception e when Raises.code Internal e -> ()
  | () -> Alcotest.fail "poke on a gate-driven net accepted"

(* --- the levelized kernel against a naive evaluator -------------------------- *)

(* A random acyclic network shaped like the netopt equivalence
   property's: gates and flip-flops over a growing pool of nets, plus
   one ROM and one RAM macro reading nets of the pool. *)
let random_network seed =
  let rng = Random.State.make [| seed |] in
  let int n = Random.State.int rng n in
  let nl = Netlist.create "rand" in
  let a = Netlist.input_bus nl "a" 4 in
  let pool =
    ref
      (Netlist.gate nl Netlist.Const0 [] :: Netlist.gate nl Netlist.Const1 []
      :: Array.to_list a)
  in
  let pick () = List.nth !pool (int (List.length !pool)) in
  let add n = pool := n :: !pool in
  let rom_at = int 25 and ram_at = int 25 in
  for i = 0 to 24 do
    if i = rom_at then
      Array.iter add
        (Netlist.rom nl ~name:"r" ~width:3
           ~contents:(Array.init 5 (fun _ -> Int64.of_int (int 8)))
           [| pick (); pick (); pick () |]);
    if i = ram_at then
      Array.iter add
        (Netlist.ram nl ~name:"m" ~words:4 ~width:2 ~addr:[| pick (); pick () |]
           ~wdata:[| pick (); pick () |] ~we:(pick ()));
    add
      (match int 8 with
      | 0 -> Netlist.gate nl Netlist.Not [ pick () ]
      | 1 -> Netlist.gate nl Netlist.And [ pick (); pick () ]
      | 2 -> Netlist.gate nl Netlist.Or [ pick (); pick () ]
      | 3 -> Netlist.gate nl Netlist.Xor [ pick (); pick () ]
      | 4 -> Netlist.gate nl Netlist.Nand [ pick (); pick () ]
      | 5 -> Netlist.gate nl Netlist.Nor [ pick (); pick () ]
      | 6 -> Netlist.gate nl Netlist.Mux2 [ pick (); pick (); pick () ]
      | _ -> Netlist.dff nl ~init:(Random.State.bool rng) (pick ()))
  done;
  Netlist.output_bus nl "o" (Array.init 4 (fun _ -> pick ()));
  Netlist.output_bus nl "p" (Array.init 2 (fun _ -> pick ()));
  let vectors = Array.init 12 (fun _ -> [ ("a", Int64.of_int (int 16)) ]) in
  (nl, vectors)

let bits_of bus value =
  let m = ref 0L in
  Array.iteri (fun i n -> if value n then m := Int64.logor !m (Int64.shift_left 1L i)) bus;
  !m

(* Every net recomputed from its driver on demand, afresh each cycle:
   no levels, no dirty set, no lanes.  Returns the unsigned output
   words of each cycle, in output declaration order. *)
let naive_outputs nl vectors =
  let n = Netlist.net_count nl in
  let drivers = Array.make n (fun _ -> false) in
  let state = Hashtbl.create 16 in
  let dffs = Netlist.fold_dffs nl ~init:[] ~f:(fun acc init ~d ~q -> (init, d, q) :: acc) in
  List.iter (fun (init, _, q) -> Hashtbl.replace state q init) dffs;
  let rams =
    List.map
      (fun (_, words, _, addr, wdata, we, rdata) -> (Array.make words 0L, addr, wdata, we, rdata))
      (Netlist.rams_list nl)
  in
  let inputs = Hashtbl.create 8 in
  let memo = Array.make n None in
  let rec value net =
    match memo.(net) with
    | Some b -> b
    | None ->
      let b =
        if Hashtbl.mem state net then Hashtbl.find state net
        else if Hashtbl.mem inputs net then Hashtbl.find inputs net
        else drivers.(net) value
      in
      memo.(net) <- Some b;
      b
  in
  Netlist.fold_gates nl ~init:() ~f:(fun () kind ins out ->
      drivers.(out) <-
        (fun v ->
          let x i = v ins.(i) in
          match kind with
          | Netlist.Buf -> x 0
          | Not -> not (x 0)
          | And -> x 0 && x 1
          | Or -> x 0 || x 1
          | Xor -> x 0 <> x 1
          | Nand -> not (x 0 && x 1)
          | Nor -> not (x 0 || x 1)
          | Mux2 -> if x 0 then x 1 else x 2
          | Const0 -> false
          | Const1 -> true));
  let word_bit w b = Int64.logand (Int64.shift_right_logical w b) 1L = 1L in
  List.iter
    (fun (_, _, contents, addr, out) ->
      Array.iteri
        (fun b o ->
          drivers.(o) <-
            (fun v ->
              let a = Int64.to_int (bits_of addr v) in
              word_bit contents.(a mod Array.length contents) b))
        out)
    (Netlist.roms_list nl);
  List.iter
    (fun (mem, addr, _, _, rdata) ->
      Array.iteri
        (fun b o ->
          drivers.(o) <-
            (fun v ->
              let a = Int64.to_int (bits_of addr v) in
              word_bit mem.(a mod Array.length mem) b))
        rdata)
    rams;
  Array.map
    (fun vec ->
      List.iter
        (fun (name, m) ->
          Array.iteri
            (fun i net -> Hashtbl.replace inputs net (word_bit m i))
            (Netlist.find_input nl name))
        vec;
      Array.fill memo 0 n None;
      let outs = List.map (fun (_, bus) -> bits_of bus value) (Netlist.outputs_list nl) in
      let next = List.map (fun (_, d, q) -> (q, value d)) dffs in
      List.iter
        (fun (mem, addr, wdata, we, _) ->
          if value we then
            mem.(Int64.to_int (bits_of addr value) mod Array.length mem) <- bits_of wdata value)
        rams;
      List.iter (fun (q, b) -> Hashtbl.replace state q b) next;
      outs)
    vectors

let sim_outputs ?(faults = []) nl vectors =
  let sim = Netlist.Sim.create nl in
  List.iteri (fun lane f -> Netlist.Sim.inject sim ~lane f) faults;
  Array.map
    (fun vec ->
      List.iter (fun (name, m) -> Netlist.Sim.set_input sim name m) vec;
      Netlist.Sim.settle sim;
      let outs =
        List.map
          (fun (name, _) -> Netlist.Sim.get_output sim ~signed:false name)
          (Netlist.outputs_list nl)
      in
      Netlist.Sim.clock sim;
      outs)
    vectors

let prop_kernel_matches_naive =
  QCheck.Test.make ~name:"levelized kernel = naive evaluator (random networks)"
    ~count:60 QCheck.int (fun seed ->
      let nl, vectors = random_network seed in
      sim_outputs nl vectors = naive_outputs nl vectors)

(* In a batch of k faults, one per lane, lane l's outputs equal those
   of its fault alone on every cycle, detected or not. *)
let prop_lanes_independent =
  QCheck.Test.make ~name:"fault lanes = lone faulty runs (random networks)"
    ~count:30 QCheck.int (fun seed ->
      let nl, vectors = random_network seed in
      let universe = Array.of_list (Netlist.fault_universe nl) in
      let rng = Random.State.make [| seed; 1 |] in
      let k = 1 + Random.State.int rng Netlist.Sim.lanes in
      let faults =
        List.init k (fun _ -> universe.(Random.State.int rng (Array.length universe)))
      in
      let topology = Netlist.Sim.topology nl in
      let batch = Netlist.Sim.instantiate topology in
      List.iteri (fun lane f -> Netlist.Sim.inject batch ~lane f) faults;
      let ports =
        List.map (fun (name, _) -> Netlist.Sim.output_port topology name) (Netlist.outputs_list nl)
      in
      let lone = List.map (fun f -> sim_outputs ~faults:[ f ] nl vectors) faults in
      Array.for_all Fun.id
        (Array.mapi
           (fun c vec ->
             List.iter (fun (name, m) -> Netlist.Sim.set_input batch name m) vec;
             Netlist.Sim.settle batch;
             let ok =
               List.for_all Fun.id
                 (List.mapi
                    (fun lane run ->
                      List.for_all2
                        (fun port word ->
                          Netlist.Sim.output_diff batch port (Int64.to_int word) land (1 lsl lane) = 0)
                        ports run.(c))
                    lone)
             in
             Netlist.Sim.clock batch;
             ok)
           vectors))

(* --- one settle per cycle ------------------------------------------------------ *)

(* [clock] leaves an acyclic netlist's edge unsettled; a read right
   after it settles first, so it sees the edge. *)
let test_read_after_clock_settles () =
  let nl = Netlist.create "edge" in
  let d = Netlist.input_bus nl "d" 1 in
  let q = Netlist.dff nl d.(0) in
  let g = Netlist.gate nl Netlist.Not [ q ] in
  Netlist.output_bus nl "g" [| g |];
  let topology = Netlist.Sim.topology nl in
  let port = Netlist.Sim.output_port topology "g" in
  let sim = Netlist.Sim.instantiate topology in
  Netlist.Sim.set_input sim "d" 1L;
  Netlist.Sim.settle sim;
  Alcotest.(check bool) "before the edge" true (Netlist.Sim.net_value sim g);
  Netlist.Sim.clock sim;
  Alcotest.(check bool) "net_value after the edge" false (Netlist.Sim.net_value sim g);
  Netlist.Sim.set_input sim "d" 0L;
  Netlist.Sim.settle sim;
  Netlist.Sim.clock sim;
  Alcotest.(check int) "output_diff after the edge: no lane differs from 1" 0
    (Netlist.Sim.output_diff sim port 1)

(* A netlist whose levelization cut a cycle settles at the edge: a ring
   a flip-flop enables oscillates from the [clock] that sets the
   flip-flop, and that call raises, naming the cycle and the net. *)
let test_cyclic_edge_raises_at_clock () =
  let nl = Netlist.create "gated_ring" in
  let en = Netlist.input_bus nl "en" 1 in
  let q = Netlist.dff nl en.(0) in
  let loop = Netlist.new_net nl in
  let g = Netlist.gate nl Netlist.Nand [ q; loop ] in
  Netlist.buf_into nl ~dst:loop (Netlist.gate nl Netlist.Buf [ g ]);
  Netlist.output_bus nl "o" [| g |];
  Alcotest.(check bool) "a cycle was cut" true (snd (Netlist.combinational_depth nl) > 0);
  let sim = Netlist.Sim.create nl in
  Netlist.Sim.set_input sim "en" 1L;
  Netlist.Sim.settle sim;
  match Netlist.Sim.clock sim with
  | () -> Alcotest.fail "clock returned on an oscillating ring"
  | exception (Ocapi_error.Error d as e) when Raises.code Did_not_settle e ->
    Alcotest.(check string) "message"
      "netlist gated_ring oscillates: 1 nets still toggling after 64000 evaluations"
      d.Ocapi_error.e_message;
    Alcotest.(check (option int)) "cycle" (Some 1) d.Ocapi_error.e_cycle;
    Alcotest.(check (list string)) "nets" [ "n4" ] d.Ocapi_error.e_nets

let suite =
  suite
  @ [
      Alcotest.test_case "poke_net restricted to q-nets and inputs" `Quick
        test_poke_net_restricted;
    ]
  @ List.map QCheck_alcotest.to_alcotest [ prop_kernel_matches_naive; prop_lanes_independent ]
  @ [
      Alcotest.test_case "reads after clock see the settled edge" `Quick
        test_read_after_clock_settles;
      Alcotest.test_case "cyclic netlist: clock raises Did_not_settle" `Quick
        test_cyclic_edge_raises_at_clock;
    ]
