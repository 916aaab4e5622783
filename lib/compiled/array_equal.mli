(** Array equality by a typed loop, for the compiled and native engines'
    checkpoint matching: polymorphic [=] walks an array generically. *)

val ints : int array -> int array -> bool
