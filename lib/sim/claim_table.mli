(** Lock-free open-addressed claim table.

    The parallel explorer's visited set, reduced to its essence: a
    claim-once membership test over two-lane 126-bit fingerprints with
    no mutex on the hot path.  Slots are pairs of [int Atomic.t] words
    (62 usable bits per lane after the live/empty/tombstone encoding, so
    an effective 124-bit key, ~2^-124 collision odds per pair); claiming
    is a single CAS on the first lane; linear probing resolves
    collisions; capacity grows by appending doubled segments, so there
    is never a stop-the-world rehash.  See the implementation comment
    and DESIGN.md, "The lock-free claim table", for the claim-once
    linearizability argument. *)

type t

(** Per-claim instrumentation, accumulated into caller-owned (per-domain)
    mutable fields — no shared counters on the hot path. *)
type opstats = { mutable probes : int; mutable cas_retries : int }

val fresh_opstats : unit -> opstats

val create :
  ?initial_capacity:int -> ?expected_states:int -> [ `Two_lane ] -> t
(** [initial_capacity] (default 4096) is rounded up to a power of two,
    minimum 64.  [expected_states] is a sizing hint used when
    [initial_capacity] is absent: the first segment is sized to hold that
    many entries without growing (capped at 2^21 slots, so a loose hint
    cannot pre-allocate unbounded memory).  An explicit
    [initial_capacity] wins over the hint.  [`Two_lane] is the only
    layout; the argument stays so existing callers (the per-layer
    benchmark replay among them) keep compiling. *)

val claim : t -> opstats -> h1:int -> h2:int -> [ `Fresh | `Dup ]
(** [claim t st ~h1 ~h2] — [`Fresh] for exactly one caller per distinct
    [(h1, h2)] (mod the 62-bit-per-lane truncation), [`Dup] for every
    other.  Lock-free; safe from any number of domains. *)

val occupancy : t -> int
(** Slots consumed (successful claims, aborted ones included). *)

val memory_bytes : t -> int
(** Analytic memory footprint of the table's arrays and atoms. *)

val fold_key : int -> int -> int
(** One well-mixed word out of both fingerprint lanes: the out-of-core
    {!Spill_table} keys by {e exactly} this 62-bit compression. *)

val encode : int -> int
(** Force the live-entry tag (sign bit) onto a lane word: a stored word
    is always negative, distinguishable from empty (0) and tombstone
    (1).  [encode (fold_key h1 h2)] is the on-disk word of the spill
    table. *)
