(** Growable int arrays, for scratch buffers on hot paths.  [Vec] is
    polymorphic, so each of its stores goes through the write barrier
    and [Vec.clear] rewrites every slot; here stores are plain and
    [clear] takes constant time. *)

type t

val create : unit -> t
val size : t -> int
val clear : t -> unit

val shrink : t -> int -> unit
(** [shrink v n] keeps the first [n] elements. *)

val get : t -> int -> int
(** Raises [Invalid_argument] outside [0 .. size - 1]. *)

val set : t -> int -> int -> unit
val push : t -> int -> unit

val to_array : t -> int array
(** A fresh array of the elements, in order. *)
