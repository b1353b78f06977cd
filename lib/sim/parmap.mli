(** Leaf domain fan-out: parallel [map] over ordinary lists.

    This module exists below {!Symmetry} in the dependency order, so the
    parallel orbit minimization and the analyzer's per-subject fan-out
    share one primitive without a cycle. *)

val map : jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f xs] applies [f] to every element across [jobs] domains
    (static index partition), preserving order.  [f] must be domain-safe.
    The first exception raised (in item order) is re-raised after all
    domains join.  [jobs <= 1] is plain [List.map]. *)

val chunk : pieces:int -> 'a list -> 'a list list
(** [chunk ~pieces xs] splits [xs] into at most [pieces] contiguous,
    order-preserving chunks of near-equal length.  Deterministic: chunk
    boundaries depend only on [pieces] and [List.length xs]. *)
