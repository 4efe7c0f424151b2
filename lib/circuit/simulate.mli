(** Circuit simulation: scalar and 62-way bit-parallel. *)

val eval_all : Netlist.t -> bool array -> bool array
(** [eval_all c ins] simulates with input values given in input creation
    order; returns a value per node.  Raises [Invalid_argument] on input
    count mismatch. *)

val eval_outputs : Netlist.t -> bool array -> bool array
(** Output values, in output declaration order. *)

val eval_node : Netlist.t -> bool array -> Netlist.node_id -> bool

val parallel_all : Netlist.t -> int array -> int array
(** Bit-parallel simulation: each input carries up to [word_width]
    patterns packed into an [int]; returns the packed value per node. *)

val parallel_outputs : Netlist.t -> int array -> int array

val word_width : int
(** Patterns per simulation word (62 on a 64-bit system). *)

val popcount : int -> int
(** Set bits of an [int] (all 63 of them), in a constant number of word
    operations: the pattern count of a simulation word. *)

val parallel_gate : Gate.t -> int list -> int
(** One gate evaluated over packed words (exposed for cone-limited fault
    simulation). *)

val random_words : Sat.Rng.t -> int -> int array
(** [random_words rng n] draws [n] full simulation words. *)

type ternary = F | T | X
(** Three-valued logic for partial input patterns (X = unknown). *)

val eval3_all : Netlist.t -> ternary array -> ternary array
(** Ternary simulation: controlling values decide gates even when other
    inputs are X — the classical justification check for partial test
    patterns. *)

val eval3_outputs : Netlist.t -> ternary array -> ternary array

val ternary_of_pattern :
  Netlist.t -> (Netlist.node_id * bool) list -> ternary array
(** Builds an input vector from a partial pattern: unlisted inputs are
    [X]. *)
