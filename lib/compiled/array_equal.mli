(** Array equality by typed loops, for the compiled and native engines'
    checkpoint matching: polymorphic [=] walks an array generically and
    compares boxed [int64]s through their custom operations. *)

val ints : int array -> int array -> bool
val int64s : int64 array -> int64 array -> bool
