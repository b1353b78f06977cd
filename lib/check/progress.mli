(** Progress properties: wait-freedom certificates and t-resilient
    termination.

    Every algorithm this repository reproduces makes a {e wait-free} claim:
    each process terminates in a bounded number of its own steps regardless
    of what the others do — including crashing.  {!check_wait_free}
    certifies this by exhaustive search: from {e every} reachable configuration (under
    every interleaving and every crash pattern within the budget), every
    running process must terminate within a bounded number of {e solo}
    steps.  The certificate is the bound; a refutation carries a concrete
    counterexample schedule — a reachable prefix after which some process
    runs solo forever (the signature of a merely lock-free construction) or
    hangs.

    {!check_t_resilient} checks the weaker property that no execution with at most
    [t] crashes runs forever (and none hangs a process) — termination
    rather than a per-process solo bound. *)

open Subc_sim

(** [check_wait_free store ~programs] certifies wait-freedom.  Search
    knobs come from the {!Subc_sim.Search.options} record ([?options]):
    [max_crashes] additionally quantifies the reachable prefix over every
    crash pattern within the budget, [max_recoveries] over every
    crash-recovery pattern, [deadline] (seconds of wall clock) gracefully
    truncates the enumeration — the verdict is then Limited — and [jobs]
    spreads the reachable-prefix enumeration across that many domains
    ({!Subc_sim.Parallel}).  [reduction] applies to the reachable-prefix
    enumeration (symmetry only; source sets are stripped from
    reachability on either engine).  [solo_limit] caps the solo search
    per process (default 10000); exceeding it counts as non-termination.
    The verdict status, solo bound and configuration count are
    deterministic, the counterexample witness (on refutation) may differ
    between runs.  The solo bound and configuration count are in the
    verdict's metrics. *)
val check_wait_free :
  ?options:Search.options ->
  ?solo_limit:int ->
  Store.t ->
  programs:Value.t Program.t list ->
  Verdict.t

(** [check_t_resilient ~t store ~programs] checks that no schedule with at
    most [t] crashes runs forever and none hangs a process.  The [t]
    budget overrides [options.max_crashes]; cycle hunting is always
    sequential, so [options.jobs] is ignored. *)
val check_t_resilient :
  ?options:Search.options ->
  t:int ->
  Store.t ->
  programs:Value.t Program.t list ->
  Verdict.t
