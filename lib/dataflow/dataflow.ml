let error ?construct fmt =
  Ocapi_error.fail ?construct Ocapi_error.Internal ~engine:"dataflow" fmt

module Kernel = struct
  type model =
    | Ram_model of {
        words : int;
        data_fmt : Fixed.format;
        addr_port : string;
        wdata_port : string;
        we_port : string;
        rdata_port : string;
      }

  type snapshot = { sn_restore : unit -> unit; sn_matches : unit -> bool }

  type t = {
    k_name : string;
    k_inputs : (string * int) list;
    k_outputs : (string * int) list;
    k_ready : unit -> bool;
    k_formats : (string * Fixed.format) list;
    k_reset : unit -> unit;
    k_commit : unit -> unit;
    k_behavior : (string * Fixed.t list) list -> (string * Fixed.t list) list;
    k_model : model option;
    k_snapshot : (unit -> snapshot) option;
  }

  let create k_name ?(ready = fun () -> true) ?(formats = [])
      ?(commit = fun () -> ()) ?(reset = fun () -> ()) ?model ?snapshot ~inputs
      ~outputs k_behavior =
    List.iter
      (fun (p, rate) ->
        if rate < 1 then error "kernel %s: port %s has rate %d < 1" k_name p rate)
      (inputs @ outputs);
    { k_name; k_inputs = inputs; k_outputs = outputs; k_ready = ready;
      k_formats = formats; k_reset = reset; k_commit = commit; k_behavior;
      k_model = model; k_snapshot = snapshot }

  let snapshot_all ks =
    if List.exists (fun k -> Option.is_none k.k_snapshot) ks then None
    else
      let hooks = List.filter_map (fun k -> k.k_snapshot) ks in
      Some
        (fun () ->
          let sns = List.map (fun save -> save ()) hooks in
          {
            sn_restore = (fun () -> List.iter (fun sn -> sn.sn_restore ()) sns);
            sn_matches = (fun () -> List.for_all (fun sn -> sn.sn_matches ()) sns);
          })

  let port_format k port =
    match List.assoc_opt port k.k_formats with
    | Some f -> f
    | None -> error "kernel %s: no declared format for port %s" k.k_name port

  let map1 name f =
    create name ~inputs:[ ("in", 1) ] ~outputs:[ ("out", 1) ] (fun consumed ->
        match consumed with
        | [ ("in", [ v ]) ] -> [ ("out", [ f v ]) ]
        | _ -> error "map1 %s: unexpected consumption shape" name)

  let source name values =
    let remaining = ref values in
    create name
      ~ready:(fun () -> !remaining <> [])
      ~inputs:[] ~outputs:[ ("out", 1) ]
      (fun _ ->
        match !remaining with
        | [] -> error "source %s: fired while exhausted" name
        | v :: rest ->
          remaining := rest;
          [ ("out", [ v ]) ])

  let sink name =
    let collected = ref [] in
    let k =
      create name ~inputs:[ ("in", 1) ] ~outputs:[] (fun consumed ->
          match consumed with
          | [ ("in", [ v ]) ] ->
            collected := v :: !collected;
            []
          | _ -> error "sink %s: unexpected consumption shape" name)
    in
    (k, fun () -> List.rev !collected)

  let validate_production k produced =
    List.iter
      (fun (port, rate) ->
        let got =
          match List.assoc_opt port produced with
          | Some vs -> List.length vs
          | None -> 0
        in
        if got <> rate then
          error ~construct:k.k_name
            "kernel %s: port %s produced %d tokens, declared %d" k.k_name port
            got rate)
      k.k_outputs;
    List.iter
      (fun (port, _) ->
        if not (List.mem_assoc port k.k_outputs) then
          error ~construct:k.k_name "kernel %s: produced on undeclared port %s"
            k.k_name port)
      produced
end

type process = { p_index : int; kernel : Kernel.t }

type channel = {
  c_index : int;
  c_src : process * string;
  c_dst : process * string;
  c_queue : Fixed.t Queue.t;
}

type t = {
  g_name : string;
  mutable procs : process list;  (* reversed *)
  mutable chans : channel list;  (* reversed *)
}

let create g_name = { g_name; procs = []; chans = [] }
let name t = t.g_name
let processes t = List.rev t.procs
let process_name p = p.kernel.Kernel.k_name

let add_process t kernel =
  let p = { p_index = List.length t.procs; kernel } in
  t.procs <- p :: t.procs;
  p

let port_exists ports port = List.mem_assoc port ports

let connect t (p1, out_port) (p2, in_port) =
  if not (port_exists p1.kernel.Kernel.k_outputs out_port) then
    error "connect: %s has no output port %s" (process_name p1) out_port;
  if not (port_exists p2.kernel.Kernel.k_inputs in_port) then
    error "connect: %s has no input port %s" (process_name p2) in_port;
  if
    List.exists
      (fun c -> fst c.c_dst == p2 && snd c.c_dst = in_port)
      t.chans
  then
    error "connect: input %s.%s already driven" (process_name p2) in_port;
  let c =
    {
      c_index = List.length t.chans;
      c_src = (p1, out_port);
      c_dst = (p2, in_port);
      c_queue = Queue.create ();
    }
  in
  t.chans <- c :: t.chans;
  c

let initial_tokens _t ch values = List.iter (fun v -> Queue.add v ch.c_queue) values
let channel_depth _t ch = Queue.length ch.c_queue

let in_channel_of t p port =
  List.find_opt (fun c -> fst c.c_dst == p && snd c.c_dst = port) t.chans

let out_channels_of t p port =
  List.filter (fun c -> fst c.c_src == p && snd c.c_src = port) t.chans

let fireable t p =
  p.kernel.Kernel.k_ready ()
  && List.for_all
       (fun (port, rate) ->
         match in_channel_of t p port with
         | None -> false
         | Some c -> Queue.length c.c_queue >= rate)
       p.kernel.Kernel.k_inputs

let fire t p =
  if not (fireable t p) then
    error ~construct:(process_name p) "fire: %s's firing rule is not satisfied"
      (process_name p);
  let consumed =
    List.map
      (fun (port, rate) ->
        let c =
          match in_channel_of t p port with
          | Some c -> c
          | None ->
            error ~construct:(process_name p) "fire: %s.%s unconnected"
              (process_name p) port
        in
        (port, List.init rate (fun _ -> Queue.pop c.c_queue)))
      p.kernel.Kernel.k_inputs
  in
  let produced = p.kernel.Kernel.k_behavior consumed in
  p.kernel.Kernel.k_commit ();
  Kernel.validate_production p.kernel produced;
  List.iter
    (fun (port, values) ->
      match out_channels_of t p port with
      | [] -> () (* unconnected output: tokens fall on the floor *)
      | chans ->
        List.iter
          (fun c -> List.iter (fun v -> Queue.add v c.c_queue) values)
          chans)
    produced

type run_stats = {
  firings : (string * int) list;
  steps : int;
  deadlocked : bool;
}

let run ?(max_firings = 1_000_000) t =
  let procs = processes t in
  let counts = Array.make (List.length procs) 0 in
  let steps = ref 0 in
  let progress = ref true in
  while !progress && !steps < max_firings do
    progress := false;
    List.iter
      (fun p ->
        if !steps < max_firings && fireable t p then begin
          fire t p;
          counts.(p.p_index) <- counts.(p.p_index) + 1;
          incr steps;
          progress := true
        end)
      procs
  done;
  let tokens_remain =
    List.exists (fun c -> not (Queue.is_empty c.c_queue)) t.chans
  in
  let any_fireable = List.exists (fireable t) procs in
  {
    firings = List.map (fun p -> (process_name p, counts.(p.p_index))) procs;
    steps = !steps;
    deadlocked = tokens_remain && not any_fireable;
  }

(* --- SDF balance equations ------------------------------------------- *)

let rec gcd a b = if b = 0 then abs a else gcd b (a mod b)
let lcm a b = if a = 0 || b = 0 then 0 else abs (a * b) / gcd a b

(* Solve q(src) * prod = q(dst) * cons for all channels by propagating
   rational firing ratios over the (assumed connected) graph, then scale
   to the smallest integers.  Rationals are (num, den) pairs. *)
let repetition_vector t =
  let procs = processes t in
  let n = List.length procs in
  if n = 0 then None
  else begin
    let ratio = Array.make n None in
    (* Adjacency: channel constraints touching each process. *)
    let rate_of ports port =
      match List.assoc_opt port ports with Some r -> r | None -> 0
    in
    let constraints =
      List.map
        (fun c ->
          let sp, sport = c.c_src and dp, dport = c.c_dst in
          let prod = rate_of sp.kernel.Kernel.k_outputs sport in
          let cons = rate_of dp.kernel.Kernel.k_inputs dport in
          (sp.p_index, prod, dp.p_index, cons))
        t.chans
    in
    let consistent = ref true in
    let rec propagate i =
      List.iter
        (fun (si, prod, di, cons) ->
          let link ra b prod cons =
            (* q(a) * prod = q(b) * cons, ra = (num, den) of q(a) *)
            let num, den = ra in
            let nb = (num * prod, den * cons) in
            match ratio.(b) with
            | None ->
              ratio.(b) <- Some nb;
              propagate b
            | Some (n2, d2) ->
              if fst nb * d2 <> n2 * snd nb then consistent := false
          in
          if si = i then begin
            match ratio.(si) with
            | Some ra -> link ra di prod cons
            | None -> ()
          end
          else if di = i then begin
            match ratio.(di) with
            | Some rd -> link rd si cons prod
            | None -> ()
          end)
        constraints
    in
    (* Seed each connected component with ratio 1. *)
    for i = 0 to n - 1 do
      if ratio.(i) = None then begin
        ratio.(i) <- Some (1, 1);
        propagate i
      end
    done;
    if not !consistent then None
    else begin
      let dens =
        Array.to_list ratio
        |> List.map (function Some (_, d) -> d | None -> 1)
      in
      let common = List.fold_left lcm 1 dens in
      let counts =
        Array.map
          (function
            | Some (num, den) -> num * (common / den)
            | None -> common)
          ratio
      in
      let g = Array.fold_left (fun acc v -> gcd acc v) 0 counts in
      let g = if g = 0 then 1 else g in
      Some
        (List.map
           (fun p -> (process_name p, counts.(p.p_index) / g))
           procs)
    end
  end

let single_iteration_schedule t =
  match repetition_vector t with
  | None -> None
  | Some reps ->
    (* Simulate token counts symbolically and greedily schedule. *)
    let procs = processes t in
    let remaining =
      Array.of_list (List.map (fun (_, r) -> r) reps)
    in
    let depth = Array.make (List.length t.chans) 0 in
    List.iter (fun c -> depth.(c.c_index) <- Queue.length c.c_queue) t.chans;
    let rate_of ports port =
      match List.assoc_opt port ports with Some r -> r | None -> 0
    in
    let can_fire p =
      remaining.(p.p_index) > 0
      && List.for_all
           (fun (port, rate) ->
             match in_channel_of t p port with
             | None -> false
             | Some c -> depth.(c.c_index) >= rate)
           p.kernel.Kernel.k_inputs
    in
    let do_fire p =
      List.iter
        (fun (port, rate) ->
          match in_channel_of t p port with
          | Some c -> depth.(c.c_index) <- depth.(c.c_index) - rate
          | None -> ())
        p.kernel.Kernel.k_inputs;
      List.iter
        (fun (port, rate) ->
          List.iter
            (fun c -> depth.(c.c_index) <- depth.(c.c_index) + rate)
            (out_channels_of t p port))
        p.kernel.Kernel.k_outputs;
      ignore (rate_of [] "");
      remaining.(p.p_index) <- remaining.(p.p_index) - 1
    in
    let schedule = ref [] in
    let progress = ref true in
    while !progress do
      progress := false;
      List.iter
        (fun p ->
          if can_fire p then begin
            do_fire p;
            schedule := process_name p :: !schedule;
            progress := true
          end)
        procs
    done;
    if Array.for_all (fun r -> r = 0) remaining then Some (List.rev !schedule)
    else None
