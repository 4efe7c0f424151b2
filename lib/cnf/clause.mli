(** Clauses: disjunctions of literals.

    A clause is represented as an immutable, sorted, duplicate-free literal
    array.  Construction normalises the literal list; a clause containing
    both [l] and [negate l] is a tautology. *)

type t

val of_list : Lit.t list -> t
(** [of_list lits] builds a clause, sorting and removing duplicate
    literals. *)

val of_array : Lit.t array -> t
(** [of_array lits] is [of_list (Array.to_list lits)], without the
    list; [lits] is not modified. *)

val of_dimacs_list : int list -> t
(** [of_dimacs_list ints] builds a clause from DIMACS literals. *)

val to_list : t -> Lit.t list
val to_array : t -> Lit.t array
(** [to_array c] is a fresh array of the literals of [c]. *)

val size : t -> int

val get : t -> int -> Lit.t
(** [get c i] is the [i]-th literal of [c] in sorted order, for
    [0 <= i < size c]. *)

val is_empty : t -> bool

val is_tautology : t -> bool
(** [is_tautology c] is [true] iff [c] contains a literal and its
    complement. *)

val mem : Lit.t -> t -> bool
val equal : t -> t -> bool
val compare : t -> t -> int

val subsumes : t -> t -> bool
(** [subsumes c d] is [true] iff every literal of [c] occurs in [d]
    (hence [c] logically implies [d]). *)

val eval : (int -> bool) -> t -> bool
(** [eval value c] evaluates [c] under the total assignment
    [value : var -> bool]. *)

val map_vars : (int -> Lit.t) -> t -> t
(** [map_vars f c] replaces each literal [l] by [f (var l)], preserving
    polarity: a negative occurrence of [v] becomes [negate (f v)]. *)

val pp : Format.formatter -> t -> unit
(** Prints as a DIMACS-style list, e.g. [(1 -2 3)]. *)

val to_string : t -> string
