(** A fixed-size domain pool for embarrassingly parallel campaigns.

    Fault-injection campaigns, engine cross-verification sweeps and
    throughput benches all share one shape: a fixed number of
    {e independent} tasks, each a deterministic function of its index,
    run against {e per-worker isolated} simulation state.  This module
    runs that shape on OCaml 5 domains ([Domain.spawn], stdlib only —
    no [domainslib]) while keeping the result {b bit-identical to the
    serial run}: results are keyed by task index and merged in index
    order, so scheduling can never reorder, duplicate or drop a record.

    Design rules the pool enforces or relies on:

    - {b Per-worker state, built serially.}  [make_state k] is invoked
      in the {e calling} domain, for [k = 0, 1, ...], before any worker
      spawns.  Design construction and engine elaboration touch
      construction-time gensyms and registries (clock/signal/FSM ids,
      RAM-cell instances), so they stay single-domain; workers receive
      ownership of their state and must be the only domain touching it.
    - {b Chunked work queue.}  Workers pull half-open index ranges
      [\[start, start+chunk)], [chunk = max 1 (tasks / (domains * 8))],
      from one atomic counter until the queue is empty — cheap dynamic
      load balancing with no per-task synchronization.
    - {b Deterministic merge.}  Worker [k] writes result [i] into slot
      [i] of the output; after joining, worker telemetry is absorbed in
      worker order ({!Ocapi_obs.absorb_domain}), so merged counters
      equal the serial run's counters exactly.
    - {b Serial short-circuit.}  [domains <= 1] runs the same loop in
      the calling domain with a single state and spawns nothing: the
      default path is the existing serial path.

    Telemetry: when {!Ocapi_obs.enabled} is on at spawn time, each
    worker domain records into its own domain-local registry and trace
    buffer; the pool exports them at worker exit and merges them at
    join, so instrumented parallel campaigns aggregate correctly. *)

(** What the runtime believes this machine can usefully run in
    parallel ({!Domain.recommended_domain_count}).  A campaign asking
    for more domains than this still works — the extra domains just
    time-share cores. *)
val available_domains : unit -> int

(** [map_tasks ~domains ~make_state ~tasks ~f ()] computes
    [[| f s0 0; f s? 1; ...; f s? (tasks-1) |]] where each task [i]
    runs exactly once on some worker's state.

    - [domains] (default [1]): pool size, clamped to [\[1, tasks\]].
      [1] runs serially in the calling domain — no spawn, no merge.
    - [make_state k]: build worker [k]'s isolated state (a fresh
      simulator, a replicated system...).  Called serially in the
      calling domain before any spawn; see the module preamble.
    - [f state i]: run task [i].  Must touch only [state], data local
      to the call, and immutable shared structure; the result lands in
      slot [i] regardless of which worker ran it.

    When a task raises, every worker still joins first and the
    telemetry of the surviving workers is still merged; then the
    task's own exception is re-raised in the calling domain with its
    backtrace, as the serial path raises it.  The lowest-indexed
    failing worker wins.
    @raise Invalid_argument on [tasks < 0]. *)
val map_tasks :
  ?domains:int ->
  make_state:(int -> 'w) ->
  tasks:int ->
  f:('w -> int -> 'a) ->
  unit ->
  'a array
