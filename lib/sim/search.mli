(** Unified search options.

    Every explorer and checker entry point used to take the same sprawl
    of optional arguments ([?max_states ?max_depth ?max_crashes
    ?max_recoveries ?deadline ?expected_states ?reduction ?paranoid
    ?jobs]).  {!options} packs them into one record with
    pipe-friendly [with_*] builders:

    {[
      let opts =
        Search.default
        |> Search.with_max_crashes 1
        |> Search.with_reduction (Explore.full_reduction sym)
        |> Search.with_jobs 4
      in
      Search.iter_terminals ~options:opts config ~f
    ]}

    The entry points here pick one of two engines: the sequential
    {!Explore} when [jobs <= 1] and [spill = None], otherwise the
    work-stealing {!Parallel} engine.  On either path the observable
    counts and verdicts agree (see the determinism notes in
    {!Parallel}); [--reduction full] runs at full strength on both.  Both engines key their visited sets through the
    one claim-key policy {!Explore.claim_key}. *)

type options = {
  max_states : int;  (** visited-state budget (default [5_000_000]) *)
  max_depth : int;  (** trace-length budget (default [10_000]) *)
  max_crashes : int;  (** crash-fault budget (default [0]) *)
  max_recoveries : int;  (** recovery budget (default [0]) *)
  deadline : float option;  (** wall-clock budget in seconds *)
  expected_states : int option;  (** visited-table pre-size hint *)
  reduction : Explore.reduction;  (** default {!Explore.no_reduction} *)
  paranoid : bool;  (** exact canonical keys, no fingerprints *)
  jobs : int;  (** worker domains; [<= 1] means sequential *)
  spill : string option;
      (** out-of-core mode: directory under which the search mmaps its
          visited set as 62-bit compressed claim words
          ({!Spill_table}); selects {!Parallel} even at [jobs = 1] *)
  seq_threshold : int option;
      (** auto-sequential fallback: state count the seeding pass reaches
          before worker domains spawn; [None] defers to
          {!Parallel.default_seq_threshold} *)
}

val default : options

(** {1 Builders} *)

val with_max_states : int -> options -> options
val with_max_depth : int -> options -> options
val with_max_crashes : int -> options -> options
val with_max_recoveries : int -> options -> options
val with_deadline : float -> options -> options
val with_expected_states : int -> options -> options
val with_reduction : Explore.reduction -> options -> options

val with_independence : Explore.independence -> options -> options
(** Sets the independence judge of the current [reduction] field:
    [Semantic] computes diamonds, [Static] consults installed
    {!Explore.static_independent} tables (falling back to the semantic
    judge on uncovered pairs), [Both] cross-validates. *)

val with_paranoid : bool -> options -> options

val with_jobs : int -> options -> options
(** Clamped to at least [1]. *)

val with_spill : string -> options -> options
(** Spill directory for the out-of-core visited table; dispatches to
    {!Parallel}. *)

val with_seq_threshold : int -> options -> options
(** Override {!Parallel.default_seq_threshold} for this search
    (clamped to at least [0]; [0] spawns domains eagerly). *)

val pp : Format.formatter -> options -> unit

(** {1 Entry points}

    Thin dispatchers over {!Explore} (sequential) and {!Parallel}
    (work-stealing); see those modules for callback and
    determinism contracts. *)

val iter_terminals :
  ?options:options -> Config.t -> f:(Config.t -> Trace.t -> unit) -> Explore.stats

val iter_reachable :
  ?options:options ->
  Config.t ->
  f:(Config.t -> Trace.t Lazy.t -> unit) ->
  Explore.stats
(** Source sets are stripped on both paths — reachability consumers want
    every state, not a reduced cover. *)

val find_terminal :
  ?options:options ->
  Config.t ->
  violates:(Config.t -> bool) ->
  (Config.t * Trace.t) option * Explore.stats

val check_terminals :
  ?options:options ->
  Config.t ->
  ok:(Config.t -> bool) ->
  (Explore.stats, Config.t * Trace.t * Explore.stats) result

val find_cycle :
  ?options:options -> Config.t -> Trace.t option * Explore.stats
(** Always sequential — cycle detection needs the DFS stack discipline —
    but honors every other field of [options] (the parallel knobs [jobs],
    [spill] and [seq_threshold] are ignored). *)
