(* A fixed-size Domain.spawn pool with a chunked work queue and
   index-keyed (hence scheduling-independent) result merging. *)

let available_domains () = Domain.recommended_domain_count ()

let extract out =
  Array.map (function Some v -> v | None -> assert false) out

let serial_run ~make_state ~tasks ~f =
  let st = make_state 0 in
  let out = Array.make tasks None in
  for i = 0 to tasks - 1 do
    out.(i) <- Some (f st i)
  done;
  extract out

let map_tasks ?(domains = 1) ~make_state ~tasks ~f () =
  if tasks < 0 then invalid_arg "Ocapi_parallel.map_tasks: tasks < 0";
  if tasks = 0 then [||]
  else begin
    let domains = max 1 (min domains tasks) in
    if domains = 1 then serial_run ~make_state ~tasks ~f
    else begin
      let chunk = max 1 (tasks / (domains * 8)) in
      (* Worker states are built serially in this domain (construction
         touches process-wide gensyms/registries) and handed over. *)
      let states = Array.make domains None in
      for k = 0 to domains - 1 do
        states.(k) <- Some (make_state k)
      done;
      let out = Array.make tasks None in
      let next = Atomic.make 0 in
      let failure = Array.make domains None in
      let telemetry = Array.make domains None in
      let worker k st () =
        (try
           let rec drain () =
             let start = Atomic.fetch_and_add next chunk in
             if start < tasks then begin
               let stop = min (start + chunk) tasks in
               for i = start to stop - 1 do
                 out.(i) <- Some (f st i)
               done;
               drain ()
             end
           in
           drain ()
         with e ->
           failure.(k) <- Some (e, Printexc.get_raw_backtrace ()));
        if Ocapi_obs.enabled () then
          telemetry.(k) <- Some (Ocapi_obs.export_domain ())
      in
      (* Spawn incrementally so a mid-way failure (domain limit, out of
         memory) can join the workers already launched — they drain the
         queue and terminate on their own — instead of leaking them. *)
      let handles = ref [] in
      (try
         for k = 0 to domains - 1 do
           match states.(k) with
           | Some st -> handles := Domain.spawn (worker k st) :: !handles
           | None -> assert false
         done
       with e ->
         List.iter Domain.join !handles;
         raise e);
      List.iter Domain.join !handles;
      (* Deterministic merge: telemetry in worker order, then the first
         failure by worker index, then the index-keyed results. *)
      Array.iter
        (function Some ex -> Ocapi_obs.absorb_domain ex | None -> ())
        telemetry;
      Array.iter
        (function
          | Some (e, bt) -> Printexc.raise_with_backtrace e bt | None -> ())
        failure;
      extract out
    end
  end
