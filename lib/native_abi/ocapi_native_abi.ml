type plugin = {
  p_values : int array;
  p_stamps : int array;
  p_cycle : int ref;
  p_states : int array;
  p_rams : int array array;
  p_ram_staged : int ref array;
  p_kernels : (unit -> unit) array;
  p_kernel_commits : (unit -> unit) array;
  p_step : unit -> unit;
  p_reset : unit -> unit;
}

exception Native_overflow of string

let slot : (unit -> plugin) option ref = ref None
let register create = slot := Some create
let clear () = slot := None

let take () =
  let create = !slot in
  slot := None;
  create
