(** Multicore state-space exploration: the one parallel engine.

    Runs the same transition relation as {!Explore} across [jobs] worker
    domains that share one visited table.  A bounded breadth-first pass
    on the calling domain seeds a frontier of roughly [4 * jobs] work
    items ([?seed_target] overrides), handed to the workers round-robin.
    Each worker owns a Chase–Lev work-stealing deque ({!Ws_deque}) and
    runs depth-first search over it, pushing every successor onto its
    own deque; an empty worker steals from a random sibling's top with a
    lock-free CAS.

    {b Visited table: one per key kind.}  Deduplication is claim-once
    through a table picked by the keys the search claims
    ({!table_name}):

    - fingerprint keys (the default): an open-addressed claim table of
      [Atomic] slot words storing both fingerprint lanes (effective 124
      bits) — CAS claim, linear probing, segment-chained growth with no
      rehash stall ({!Claim_table});
    - exact keys ([~paranoid]): mutex-sharded hashtables, the only table
      that can hold full canonical keys (collisions impossible);
    - [?spill]: a directory under which the search maps its visited set
      as files of 62-bit compressed claim words ({!Spill_table}) — heap
      residency drops to bookkeeping ([parallel.visited_bytes] gauge)
      while the mapped bytes ([parallel.spill_bytes]) are file-backed
      and evictable.  The birthday collision bound over the 62-bit words
      is surfaced in [stats.collision_bound].  [~paranoid] overrides
      [?spill] (exact keys cannot be compressed).

    A search node is claimed exactly once whichever table is active, so
    every node is expanded at most once and the explored graph is exactly
    the sequential one.

    {b Termination.}  A single global credit counter counts every live
    work item (deques and the seed queue), incremented before an item
    becomes reachable and decremented only after its expansion
    completes.  Reading [0] proves exhaustion.

    {b Fault budgets.}  [?max_crashes] and [?max_recoveries] mirror the
    sequential explorer exactly — budget exactness holds at any [jobs]
    because recover successors are pushed by whichever worker claims the
    state, and the recovery count is part of the fingerprint.  A state
    budget ([?max_states]) truncates to exactly [max_states] states at
    any [jobs]: claim first, ticket second on one shared state counter.

    {b Deadline.}  [?deadline] (seconds of wall clock) stops the search
    through the first-cause stop protocol; the merged stats then read
    [limited = true], [limit_reason = Deadline].  Which states were
    visited before the cutoff is scheduling-dependent — a deadline run
    is only ever a {e Limited} answer.

    {b Determinism.}  On acyclic state graphs (every one-shot bounded
    algorithm in this repository) the merged [states], [transitions],
    [terminals], [hung_terminals], [crashed_terminals],
    [recovered_terminals], [dedup_hits] and [source_skips] equal the
    sequential explorer's — at any [jobs], with or without [?spill] or
    [~paranoid]: claim-once yields the same claimed-node set however the
    race for claims resolves, and each claimed node contributes an
    expansion that is a pure function of the node.  [max_depth] and the
    particular witness traces are racy; checkers built on this module
    return deterministic {e verdicts} with possibly different (equally
    valid) witnesses.  [cycles] is always [0] here: back-edges count as
    [dedup_hits] (use the sequential {!Explore.find_cycle} for
    non-termination hunting).

    {b Reductions.}  Both reductions compose with work stealing.
    Symmetry quotienting canonicalizes before the claim, so an orbit's
    members race for a single slot.  Source sets ride inside the work
    items: each item carries the sleep set computed at its parent, the
    claim key is the (canonical configuration, canonical relevant sleep)
    pair ({!Explore.claim_key}), and expansion calls the same
    {!Explore.source_successors} as the sequential explorer — a pure
    function of the claimed pair under the canonical sibling order.  A
    stolen subtree therefore prunes {e identically} to the subtree its
    producer would have explored, and [source_skips] is deterministic.
    See DESIGN.md, "Parallel exploration".

    {b Metrics.}  Every search adds to the [parallel.*] counters
    ([searches], [states], [steals], [probes], [cas_retries],
    [shard_contention], [source_skips], [spill_bytes], [spill_probes])
    and the shared [fp.*] counters, and sets the
    [parallel.states_per_sec] and [parallel.visited_bytes] gauges; with
    a sink installed it emits one ["parallel"] event.

    {b Callbacks.}  [f] in {!iter_terminals} is serialized under a lock
    (terminals are sparse); [f] in {!iter_reachable} is called
    concurrently from worker domains and must be domain-safe.  A callback
    may raise {!Stop} to end the search gracefully (stats reflect work
    done so far); any other exception aborts the search and is re-raised
    on the calling domain. *)

(** Raise from a callback to stop the search gracefully. *)
exception Stop

val table_name : paranoid:bool -> spill:string option -> string
(** The visited table a search with these arguments builds:
    ["sharded"] under [~paranoid] (it wins over [?spill]), ["spill"]
    with [?spill], ["lockfree"] otherwise.  The ["visited"] field of the
    ["parallel"] event and of the CLI's explore JSON. *)

val default_seq_threshold : int
(** The auto-sequential fallback threshold, [4096]: the seeding pass
    (which runs the identical claim/expand path on the calling domain)
    keeps going until it has counted this many states before any worker
    domain is spawned, so small state spaces — where the spawn + steal
    machinery costs 2-8x the whole search — complete sequentially with
    identical stats.  [?seq_threshold] overrides it per call ([0]
    restores the eager spawn).  Passing [?seed_target] disables the
    fallback: those callers want the domains regardless of size. *)

(** Work items travel delta-encoded ({!Config.Delta}) with their claim
    key attached — with symmetry off, also with a carried homomorphic
    fingerprint — so a duplicate claim needs neither a materialization
    nor a re-fold; the merged stats expose [frontier_bytes] — peak deque
    population times the mean retained words per item. *)

val iter_terminals :
  ?max_states:int ->
  ?max_depth:int ->
  ?max_crashes:int ->
  ?max_recoveries:int ->
  ?deadline:float ->
  ?expected_states:int ->
  ?reduction:Explore.reduction ->
  ?paranoid:bool ->
  ?seed_target:int ->
  ?seq_threshold:int ->
  ?spill:string ->
  jobs:int ->
  Config.t ->
  f:(Config.t -> Trace.t -> unit) ->
  Explore.stats
(** Parallel {!Explore.iter_terminals}.  [f] sees every reachable terminal
    exactly once (one representative per orbit under symmetry), serialized
    under the callback lock, in a nondeterministic order.  [?seed_target]
    sets the width the sequential seeding pass aims for before handing
    the frontier to the domains (default [4 * jobs], clamped to at least
    [1]); tests force it to [1] to maximize steal pressure. *)

val iter_reachable :
  ?max_states:int ->
  ?max_depth:int ->
  ?max_crashes:int ->
  ?max_recoveries:int ->
  ?deadline:float ->
  ?expected_states:int ->
  ?reduction:Explore.reduction ->
  ?paranoid:bool ->
  ?seed_target:int ->
  ?seq_threshold:int ->
  ?spill:string ->
  jobs:int ->
  Config.t ->
  f:(Config.t -> Trace.t Lazy.t -> unit) ->
  Explore.stats
(** Parallel {!Explore.iter_reachable}.  [f] runs {e concurrently} on
    worker domains — it must be domain-safe.  Source sets are stripped
    here exactly as in the sequential version: reachability consumers
    want every state, not a reduced cover. *)

val find_terminal :
  ?max_states:int ->
  ?max_depth:int ->
  ?max_crashes:int ->
  ?max_recoveries:int ->
  ?deadline:float ->
  ?expected_states:int ->
  ?reduction:Explore.reduction ->
  ?paranoid:bool ->
  ?seed_target:int ->
  ?seq_threshold:int ->
  ?spill:string ->
  jobs:int ->
  Config.t ->
  violates:(Config.t -> bool) ->
  (Config.t * Trace.t) option * Explore.stats
(** Parallel {!Explore.find_terminal}: whether a violating terminal exists
    is deterministic; {e which} one is returned is not. *)
