(** The gallery: the four reference designs the command line, the bench
    harness and the tests name, each built with its reference stimulus.

    - [hcor]: the DECT burst correlator on a seeded noisy burst;
    - [dect]: the DECT transceiver on a sine stimulus;
    - [rs]: the Reed-Solomon encoder/decoder pair;
    - [cpu]: the accumulator CPU and its RAM.

    Every builder is deterministic: two builds of one name have the same
    digest and stimuli, so a worker process or a replica domain that
    builds a design by name gets the design its caller built. *)

val hcor : unit -> Cycle_system.t
val dect : unit -> Cycle_system.t
val rs : unit -> Cycle_system.t
val cpu : unit -> Cycle_system.t

(** The designs by name, in the order above. *)
val designs : (string * (unit -> Cycle_system.t)) list

(** ["hcor"; "dect"; "rs"; "cpu"]. *)
val names : string list

(** [build name] — a fresh build of the named design, [None] for an
    unknown name. *)
val build : string -> Cycle_system.t option
