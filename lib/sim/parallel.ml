(* Multicore exploration: the one parallel driver for the sequential
   explorer's transition relation, over one visited table shared by
   [jobs] work-stealing worker domains, optionally out-of-core
   (mmap-spilled).

   Each worker owns a Chase–Lev deque ({!Ws_deque}); it runs depth-first
   search over its own deque (LIFO bottom) and, when it empties, steals
   from a random sibling's top (lock-free CAS).  Every successor is
   pushed straight onto its producer's deque.

   A node is {e claimed} exactly once, by whichever worker's claim lands
   first in the visited table ([vtable]); only the claimer expands it, so
   every node is expanded at most once and the explored graph is exactly
   the sequential one.  The table is a function of the key kind: exact
   [~paranoid] keys go to mutex-sharded hashtables (the only table that
   holds them), [?spill] maps a {!Spill_table}, and every other search
   claims in the two-lane lock-free {!Claim_table}.

   {b Producer-side keys.}  The producer of a successor computes its
   claim key (it holds the materialized successor configuration anyway,
   straight out of [Explore.source_successors]).  The work item then
   travels delta-encoded ({!Config.Delta}) with the key attached, so the
   claimer needs no materialization to reject a duplicate: an item is
   materialized only when its claim wins.

   {b Termination: a global credit counter.}  [in_flight] counts every
   work item in existence (deques and the seed queue), incremented
   {e before} an item becomes reachable and decremented only after it is
   fully processed (its children counted first).  [in_flight = 0]
   therefore proves global exhaustion — it can never be observed while
   any item exists or is being expanded — and an idle worker (empty
   deque, failed steals) that reads 0 ends the search.

   {b Budget exactness.}  A successful claim draws a ticket from the one
   shared state counter (claim first, ticket second); tickets below
   [max_states] are counted, the first ticket at the budget raises the
   stop flag and is {e not} counted — so a truncated search reports
   exactly [max_states] states at any [jobs], matching the sequential
   engine.  Stop causes are first-cause-wins ([Budget], [Deadline], a
   callback exception); workers poll between items.

   {b Determinism} (see DESIGN.md, "Parallel exploration").  Each
   claimed key is expanded by the same pure function
   ([Explore.source_successors] of the canonical (state, sleep) pair,
   the sleep set travelling inside the work item) whichever worker
   claims it and however steals interleave.  [states], [transitions],
   [terminals], [hung_terminals], [crashed_terminals],
   [recovered_terminals], [dedup_hits] and [source_skips] are therefore
   identical at any [jobs] x reduction.  [max_depth] and the witness
   traces are racy.  Cycle detection is not offered: back-edges are
   indistinguishable from cross-edges without a per-domain DFS stack
   discipline, so revisits count as [dedup_hits]; use the sequential
   [Explore.find_cycle]. *)

module Obs = Subc_obs

exception Stop

(* Auto-sequential fallback: on sub-10^4-state spaces the domain spawn +
   steal traffic costs more than the whole search (E21 measures jobs=2 at
   2-8x slower than jobs=1 on such families), so the seeding pass keeps
   going — it runs the identical claim/expand path — until it has counted
   this many states; only spaces that outlive the threshold pay for
   domains.  [?seq_threshold] overrides it per call (0 restores the
   eager spawn). *)
let default_seq_threshold = 4096

type stop_cause = Budget | Deadline | Callback of exn

(* Mutex shards of the exact-key table. *)
let n_shards = 128

type shard = { lock : Mutex.t; tbl : unit Fingerprint.Ktbl.t }

type vtable =
  | Shards of shard array
  | Claims of Claim_table.t
  | Spill of Spill_table.t

(* Which [vtable] a search builds is a function of its keys: exact
   [~paranoid] keys need the hashtable (it wins over [?spill]), [?spill]
   maps files, every other search claims in the lock-free table. *)
let table_name ~paranoid ~spill =
  if paranoid then "sharded" else if spill <> None then "spill" else "lockfree"

(* A work item carries everything its claimer needs to claim and expand
   it without re-deriving anything: the configuration, delta-encoded
   ({!Config.Delta}: each push extends the parent's chain with its
   transition's one-proc-slot / one-store-slot patch, so an item retains
   O(1) fresh words); the carried homomorphic fingerprint ([Some]
   exactly with symmetry off, for paranoid cross-validation and O(1)
   child patching); the precomputed claim key; and the canonicalizing
   renaming and enabled-restricted sleep (the
   [Explore.source_successors] inputs — carried so a stolen subtree
   prunes identically to one its producer expands). *)
type work = {
  delta : Config.Delta.t;
  fp : Fingerprint.t option;
  ckey : Fingerprint.key;
  pi : Symmetry.perm option;
  rsleep : Explore.tr list;
  rev_trace : Trace.event list;
  depth : int;
}

(* Per-worker statistics, merged after the join (sums except
   [max_depth]). *)
type dstats = {
  mutable states : int;
  mutable transitions : int;
  mutable terminals : int;
  mutable hung_terminals : int;
  mutable crashed_terminals : int;
  mutable recovered_terminals : int;
  mutable max_depth : int;
  mutable dedup_hits : int;
  mutable source_skips : int;
  mutable fp_patches : int;
  mutable fp_refolds : int;
  mutable fp_mismatches : int;
  mutable pushed_items : int;
  mutable pushed_words : int;
  mutable depth_limited : bool;
  mutable steals : int;
  mutable contention : int;
  claim : Claim_table.opstats; (* probes + CAS retries, all hot paths *)
  mutable seconds : float;
}

let fresh_dstats () =
  {
    states = 0;
    transitions = 0;
    terminals = 0;
    hung_terminals = 0;
    crashed_terminals = 0;
    recovered_terminals = 0;
    max_depth = 0;
    dedup_hits = 0;
    source_skips = 0;
    fp_patches = 0;
    fp_refolds = 0;
    fp_mismatches = 0;
    pushed_items = 0;
    pushed_words = 0;
    depth_limited = false;
    steals = 0;
    contention = 0;
    claim = Claim_table.fresh_opstats ();
    seconds = 0.0;
  }

type global = {
  table : vtable;
  deques : work Ws_deque.t array; (* one per worker *)
  spill : string option;
  stop : stop_cause option Atomic.t;
  finished : bool Atomic.t;
  in_flight : int Atomic.t; (* the credit counter; see the header *)
  n_states : int Atomic.t;
  max_states : int;
  depth_limit : int;
  max_crashes : int;
  max_recoveries : int;
  deadline_at : float;
  reduction : Explore.reduction;
  paranoid : bool;
  frontier_peak : int Atomic.t;
  cb_lock : Mutex.t;
  on_terminal : Config.t -> Trace.t -> unit;
  on_visit : Config.t -> Trace.t Lazy.t -> unit;
}

(* Where a context pushes the successors it produces: the seeding pass
   into its breadth-first queue, a worker onto its own deque. *)
type frontier = Seed of work Queue.t | Own of work Ws_deque.t

type ctx = {
  g : global;
  wid : int; (* this worker's deque index *)
  out : frontier;
  stats : dstats;
  commute : Explore.commute_cache;
  mutable rng : int;
  mutable tick : int;
}

let set_stop g cause = ignore (Atomic.compare_and_set g.stop None (Some cause))

(* Claim [item]'s key in the visited table.  [`Fresh] means this worker
   owns the node and must expand it; [`Dup] means another claim got
   there first; [`Budget] means the global state budget is exhausted —
   the node is left uncounted.  Claim first, ticket second (on the
   shared [n_states]): every ticket below the budget goes to exactly one
   successful claim, so a truncated run reports exactly [max_states]
   states at any [jobs]. *)
let claim ctx item =
  let g = ctx.g in
  let ticket () =
    if Atomic.fetch_and_add g.n_states 1 >= g.max_states then `Budget
    else `Fresh
  in
  match (g.table, item.ckey) with
  | Claims t, Fingerprint.Fp f -> (
    match
      Claim_table.claim t ctx.stats.claim ~h1:f.Fingerprint.h1
        ~h2:f.Fingerprint.h2
    with
    | `Dup -> `Dup
    | `Fresh -> ticket ())
  | Spill s, Fingerprint.Fp f -> (
    match
      Spill_table.claim s ctx.stats.claim ~h1:f.Fingerprint.h1
        ~h2:f.Fingerprint.h2
    with
    | `Dup -> `Dup
    | `Fresh -> ticket ())
  | Shards shards, key ->
    let sh = shards.(Fingerprint.shard_index key mod Array.length shards) in
    if not (Mutex.try_lock sh.lock) then begin
      ctx.stats.contention <- ctx.stats.contention + 1;
      Mutex.lock sh.lock
    end;
    let r =
      if Fingerprint.Ktbl.mem sh.tbl key then `Dup
      else if Atomic.fetch_and_add g.n_states 1 >= g.max_states then `Budget
      else begin
        Fingerprint.Ktbl.add sh.tbl key ();
        `Fresh
      end
    in
    Mutex.unlock sh.lock;
    r
  | (Claims _ | Spill _), Fingerprint.Exact _ ->
    (* Exact keys only arise under [~paranoid], which builds [Shards]. *)
    assert false

(* Expand one claimed-or-not work item; the caller decrements
   [in_flight] after this returns (children are counted inside, so the
   counter can never be observed at zero mid-expansion).  Exceptions
   from user callbacks propagate to the caller (the worker loop converts
   them into a stop cause); no lock is held while [on_visit] runs. *)
let process ctx item =
  let g = ctx.g in
  ctx.tick <- ctx.tick + 1;
  if ctx.tick land 255 = 0 then begin
    if g.deadline_at < infinity && Unix.gettimeofday () > g.deadline_at then
      set_stop g Deadline;
    (* Sample the frontier population for the peak gauge. *)
    let sz = Array.fold_left (fun a d -> a + Ws_deque.size d) 0 g.deques in
    let rec bump () =
      let cur = Atomic.get g.frontier_peak in
      if sz > cur && not (Atomic.compare_and_set g.frontier_peak cur sz) then
        bump ()
    in
    bump ()
  end;
  if item.depth > ctx.stats.max_depth then ctx.stats.max_depth <- item.depth;
  if item.depth > g.depth_limit then ctx.stats.depth_limited <- true
  else
    match claim ctx item with
    | `Dup -> ctx.stats.dedup_hits <- ctx.stats.dedup_hits + 1
    | `Budget -> set_stop g Budget
    | `Fresh ->
      (* Only a winning claim materializes: duplicates die as carried
         keys, never as configurations. *)
      let config = Config.Delta.materialize item.delta in
      ctx.stats.states <- ctx.stats.states + 1;
      (* Paranoid cross-validation of the carried incremental
         fingerprint against a full homomorphic re-fold (mirrors the
         sequential DFS; any mismatch fails the run after the join). *)
      (match item.fp with
      | Some f when g.paranoid ->
        ctx.stats.fp_refolds <- ctx.stats.fp_refolds + 1;
        if not (Fingerprint.equal f (Fingerprint.hom_of_config config)) then
          ctx.stats.fp_mismatches <- ctx.stats.fp_mismatches + 1
      | _ -> ());
      g.on_visit config (lazy (List.rev item.rev_trace));
      (* Terminal for the processes, not necessarily for the search:
         with recovery budget left, the adversary may still revive a
         crashed process.  A terminal's relevant sleep is empty, so it
         claims by state alone and this fires exactly once per terminal
         configuration. *)
      if Config.running config = [] then begin
        ctx.stats.terminals <- ctx.stats.terminals + 1;
        if Config.any_hung config then
          ctx.stats.hung_terminals <- ctx.stats.hung_terminals + 1;
        if Config.any_crashed config then
          ctx.stats.crashed_terminals <- ctx.stats.crashed_terminals + 1;
        if Config.any_recovered config then
          ctx.stats.recovered_terminals <- ctx.stats.recovered_terminals + 1;
        Mutex.lock g.cb_lock;
        Fun.protect
          ~finally:(fun () -> Mutex.unlock g.cb_lock)
          (fun () -> g.on_terminal config (List.rev item.rev_trace))
      end;
      (* The same expansion the sequential DFS runs: enabled transition
         bundles in canonical sibling order, each with the sleep set its
         children inherit — deterministic per claimed key. *)
      let groups, skips =
        Explore.source_successors ctx.commute g.reduction ~pi:item.pi
          ~max_crashes:g.max_crashes ~max_recoveries:g.max_recoveries config
          ~sleep:item.rsleep
      in
      ctx.stats.source_skips <- ctx.stats.source_skips + skips;
      List.iter
        (fun grp ->
          List.iter
            (fun (config', event, slots) ->
              ctx.stats.transitions <- ctx.stats.transitions + 1;
              let fp' =
                match item.fp with
                | None -> None
                | Some f ->
                  ctx.stats.fp_patches <- ctx.stats.fp_patches + 1;
                  Some
                    (Explore.fp_inject_fault
                       (Explore.patched_fingerprint config f slots config'))
              in
              let delta' =
                let i = slots.Step.sl_proc in
                Config.Delta.extend item.delta
                  ~proc_sets:[ (i, config'.Config.procs.(i)) ]
                  ~store_sets:slots.Step.sl_store
              in
              (* The producer holds the materialized successor, so it
                 computes the claim key, through the sequential DFS's own
                 key policy. *)
              let ckey, pi, rsleep =
                Explore.claim_key ~paranoid:g.paranoid g.reduction
                  ~max_crashes:g.max_crashes ~carried:fp' config'
                  ~sleep:grp.Explore.g_sleep
              in
              ctx.stats.pushed_items <- ctx.stats.pushed_items + 1;
              ctx.stats.pushed_words <-
                ctx.stats.pushed_words + 7 + Config.Delta.approx_words delta';
              let w =
                {
                  delta = delta';
                  fp = fp';
                  ckey;
                  pi;
                  rsleep;
                  rev_trace = event :: item.rev_trace;
                  depth = item.depth + 1;
                }
              in
              Atomic.incr g.in_flight;
              match ctx.out with
              | Seed q -> Queue.push w q
              | Own d -> Ws_deque.push d w)
            grp.Explore.g_succs)
        groups

let[@inline] next_rand ctx =
  let x = ctx.rng in
  let x = x lxor (x lsl 13) in
  let x = x lxor (x lsr 7) in
  let x = x lxor (x lsl 17) in
  let x = x land max_int in
  ctx.rng <- (if x = 0 then 0x9E3779B9 else x);
  ctx.rng

(* One steal sweep over the sibling deques.  [None] after a full
   unsuccessful sweep — the worker's outer loop re-checks the credit
   counter and spins. *)
let steal ctx =
  let deques = ctx.g.deques in
  let n = Array.length deques in
  if n <= 1 then None
  else begin
    let start = next_rand ctx mod n in
    let rec go k =
      if k = n then None
      else
        let v = (start + k) mod n in
        if v = ctx.wid || Ws_deque.size deques.(v) = 0 then go (k + 1)
        else
          match Ws_deque.steal deques.(v) with
          | `Stolen w ->
            ctx.stats.steals <- ctx.stats.steals + 1;
            Some w
          | `Empty -> go (k + 1)
          | `Retry ->
            ctx.stats.claim.Claim_table.cas_retries <-
              ctx.stats.claim.Claim_table.cas_retries + 1;
            go k
    in
    go 0
  end

let rec worker ctx =
  let g = ctx.g in
  if Atomic.get g.stop <> None || Atomic.get g.finished then ()
  else
    let next =
      match Ws_deque.pop g.deques.(ctx.wid) with
      | Some _ as item -> item
      | None -> steal ctx
    in
    match next with
    | Some item ->
      (try process ctx item with e -> set_stop g (Callback e));
      Atomic.decr g.in_flight;
      worker ctx
    | None ->
      if Atomic.get g.in_flight = 0 then Atomic.set g.finished true
      else Domain.cpu_relax ();
      worker ctx

(* Birthday bound of the table at its key width.  The sharded table
   holds exact (paranoid) keys, which cannot collide.  A claim table's
   occupancy also counts aborted claims, hence the cap at the run's
   state count. *)
let collision_bound g ~states =
  match g.table with
  | Shards _ -> 0.0
  | Claims t ->
    Explore.collision_bound ~bits:124
      ~states:(min states (Claim_table.occupancy t))
  | Spill s ->
    Explore.collision_bound ~bits:62 ~states:(Spill_table.occupancy s)

(* Approximate footprint of the visited set, for the bench's
   memory-per-state comparison: analytic for the claim and spill tables
   (a spill table's heap bookkeeping only), a bucket+cons estimate for
   the sharded hashtables (their exact paranoid keys hold whole key
   trees, not counted — paranoid is a debug mode). *)
let visited_bytes g =
  match g.table with
  | Claims t -> Claim_table.memory_bytes t
  | Spill s -> Spill_table.memory_bytes s
  | Shards shards ->
    8
    * Array.fold_left
        (fun a sh ->
          let s = Fingerprint.Ktbl.stats sh.tbl in
          a + s.Hashtbl.num_buckets + (7 * s.Hashtbl.num_bindings))
        0 shards

let spill_bytes g =
  match g.table with Spill s -> Spill_table.spill_bytes s | _ -> 0

let merge_stats g (all : dstats list) =
  let sum f = List.fold_left (fun acc d -> acc + f d) 0 all in
  let limit_reason =
    match Atomic.get g.stop with
    | Some Budget -> Explore.Max_states
    | Some Deadline -> Explore.Deadline
    | Some (Callback _) | None ->
      if List.exists (fun d -> d.depth_limited) all then Explore.Max_depth
      else Explore.No_limit
  in
  let states = sum (fun d -> d.states) in
  let frontier_bytes =
    let items = sum (fun d -> d.pushed_items) in
    if items = 0 then 0
    else
      let words = sum (fun d -> d.pushed_words) in
      let peak = max 1 (Atomic.get g.frontier_peak) in
      int_of_float
        (8.0 *. float_of_int peak
        *. (float_of_int words /. float_of_int items))
  in
  {
    Explore.states;
    frontier_bytes;
    transitions = sum (fun d -> d.transitions);
    terminals = sum (fun d -> d.terminals);
    hung_terminals = sum (fun d -> d.hung_terminals);
    crashed_terminals = sum (fun d -> d.crashed_terminals);
    recovered_terminals = sum (fun d -> d.recovered_terminals);
    max_depth = List.fold_left (fun acc d -> max acc d.max_depth) 0 all;
    dedup_hits = sum (fun d -> d.dedup_hits);
    source_skips = sum (fun d -> d.source_skips);
    cycles = 0;
    collision_bound = collision_bound g ~states;
    limited = Explore.reason_truncates limit_reason;
    limit_reason;
  }

(* Observability: aggregate counters always; one "parallel" event with
   a per-worker breakdown when a sink is installed. *)
let m_searches = Obs.Metrics.counter "parallel.searches"
let m_states = Obs.Metrics.counter "parallel.states"
let m_steals = Obs.Metrics.counter "parallel.steals"
let m_probes = Obs.Metrics.counter "parallel.probes"
let m_cas_retries = Obs.Metrics.counter "parallel.cas_retries"
let m_contention = Obs.Metrics.counter "parallel.shard_contention"
let m_source = Obs.Metrics.counter "parallel.source_skips"
let m_spill_bytes = Obs.Metrics.counter "parallel.spill_bytes"
let m_spill_probes = Obs.Metrics.counter "parallel.spill_probes"

(* Same interned counters the sequential engine flushes into. *)
let m_fp_patches = Obs.Metrics.counter "fp.patches"
let m_fp_refolds = Obs.Metrics.counter "fp.refolds"
let m_fp_mismatches = Obs.Metrics.counter "fp.paranoid_mismatches"

(* [all] is the seeding pass's stats followed by the workers'
   ([workers]): the seeder claims, patches and re-folds through the same
   path, so the aggregate counters cover the whole search, while the
   per-worker d0.. breakdown of the event stays worker-only. *)
let emit_obs label g stats ~workers ~all dt =
  let spilling = g.spill <> None && not g.paranoid in
  Obs.Metrics.incr m_searches;
  Obs.Metrics.add m_states stats.Explore.states;
  Obs.Metrics.add m_source stats.Explore.source_skips;
  List.iter
    (fun d ->
      Obs.Metrics.add m_steals d.steals;
      Obs.Metrics.add m_probes d.claim.Claim_table.probes;
      Obs.Metrics.add m_cas_retries d.claim.Claim_table.cas_retries;
      Obs.Metrics.add m_contention d.contention;
      if spilling then
        Obs.Metrics.add m_spill_probes d.claim.Claim_table.probes;
      Obs.Metrics.add m_fp_patches d.fp_patches;
      Obs.Metrics.add m_fp_refolds d.fp_refolds;
      Obs.Metrics.add m_fp_mismatches d.fp_mismatches)
    all;
  Obs.Metrics.add m_spill_bytes (spill_bytes g);
  let rate = if dt > 0.0 then float_of_int stats.Explore.states /. dt else 0.0 in
  Obs.Metrics.set_gauge "parallel.states_per_sec" rate;
  Obs.Metrics.set_gauge "parallel.visited_bytes"
    (float_of_int (visited_bytes g));
  Obs.Metrics.set_gauge "explore.frontier_bytes"
    (float_of_int stats.Explore.frontier_bytes);
  if Obs.Sink.get () != Obs.Sink.null then
    Obs.Sink.emit "parallel"
      ([
         ("search", Obs.Sink.Str label);
         ("jobs", Obs.Sink.Int (Array.length workers));
         ( "visited",
           Obs.Sink.Str (table_name ~paranoid:g.paranoid ~spill:g.spill) );
         ("states", Obs.Sink.Int stats.Explore.states);
         ("transitions", Obs.Sink.Int stats.Explore.transitions);
         ("terminals", Obs.Sink.Int stats.Explore.terminals);
         ("dedup_hits", Obs.Sink.Int stats.Explore.dedup_hits);
         ("source_skips", Obs.Sink.Int stats.Explore.source_skips);
         ("visited_bytes", Obs.Sink.Int (visited_bytes g));
         ("spill_bytes", Obs.Sink.Int (spill_bytes g));
         ("collision_bound", Obs.Sink.Float stats.Explore.collision_bound);
         ("limited", Obs.Sink.Bool stats.Explore.limited);
         ("seconds", Obs.Sink.Float dt);
         ("states_per_sec", Obs.Sink.Float rate);
       ]
      @ List.concat
          (List.mapi
             (fun i (d : dstats) ->
               let pfx = Printf.sprintf "d%d." i in
               [
                 (pfx ^ "states", Obs.Sink.Int d.states);
                 ( pfx ^ "states_per_sec",
                   Obs.Sink.Float
                     (if d.seconds > 0.0 then
                        float_of_int d.states /. d.seconds
                      else 0.0) );
                 (pfx ^ "steals", Obs.Sink.Int d.steals);
                 (pfx ^ "probes", Obs.Sink.Int d.claim.Claim_table.probes);
                 ( pfx ^ "cas_retries",
                   Obs.Sink.Int d.claim.Claim_table.cas_retries );
                 (pfx ^ "contention", Obs.Sink.Int d.contention);
               ])
             (Array.to_list workers)))

let run ?(max_states = 5_000_000) ?(max_depth = 10_000)
    ?(max_crashes = 0) ?(max_recoveries = 0) ?deadline ?expected_states
    ?(reduction = Explore.no_reduction) ?(paranoid = false) ?seed_target
    ?seq_threshold ?spill ~jobs ~on_terminal ~on_visit label config =
  let n_workers = max 1 jobs in
  (* A homomorphic fingerprint is carried only with symmetry off
     (canonical keys go through the orbit minimization); under
     [~paranoid] it is carried for cross-validation while the claim keys
     stay exact. *)
  let root_fp =
    if reduction.Explore.symmetry = None then
      Some (Fingerprint.hom_of_config config)
    else None
  in
  (* The auto-sequential fallback threshold, resolved before the table
     because it also sizes it: when it is active and no
     [?expected_states] hint says otherwise, the space is presumed small
     until the seeder proves it big, so the table starts tiny (a
     right-sized allocation costs more than the whole search on the
     small spaces the fallback exists for — segment-chained growth
     amortizes the big-space case). *)
  let threshold =
    match seed_target with
    | Some _ -> 0
    | None -> (
      match seq_threshold with
      | Some n -> max 0 n
      | None -> default_seq_threshold)
  in
  (* The same precedence as [table_name]. *)
  let table =
    if paranoid then
      let slots = if threshold > 0 then 64 else 1024 in
      Shards
        (Array.init n_shards (fun _ ->
             { lock = Mutex.create (); tbl = Fingerprint.Ktbl.create slots }))
    else
      match spill with
      | Some dir -> Spill (Spill_table.create ?expected_states ~dir ())
      | None ->
        Claims
          (match expected_states with
          | Some n -> Claim_table.create ~expected_states:(max 64 n) `Two_lane
          | None ->
            Claim_table.create
              ~initial_capacity:(if threshold > 0 then 256 else 8192)
              `Two_lane)
  in
  let rkey, rpi, rsleep =
    Explore.claim_key ~paranoid ~max_crashes reduction ~carried:root_fp config
      ~sleep:[]
  in
  let root =
    {
      delta = Config.Delta.root config;
      fp = root_fp;
      ckey = rkey;
      pi = rpi;
      rsleep;
      rev_trace = [];
      depth = 0;
    }
  in
  let g =
    {
      table;
      deques = Array.init n_workers (fun _ -> Ws_deque.create ~dummy:root ());
      spill;
      stop = Atomic.make None;
      finished = Atomic.make false;
      in_flight = Atomic.make 1 (* the root *);
      n_states = Atomic.make 0;
      max_states;
      depth_limit = max_depth;
      max_crashes;
      max_recoveries;
      deadline_at =
        (match deadline with
        | None -> infinity
        | Some secs -> Unix.gettimeofday () +. secs);
      reduction;
      paranoid;
      frontier_peak = Atomic.make 0;
      cb_lock = Mutex.create ();
      on_terminal;
      on_visit;
    }
  in
  let t0 = Unix.gettimeofday () in
  let queue = Queue.create () in
  Queue.push root queue;
  (* Seed: bounded BFS on the main domain, claiming through the same
     [process] path the workers use, until the frontier is wide enough
     for every worker {e and} the sequential-fallback threshold is
     crossed — spaces smaller than the threshold finish right here and
     never pay a domain spawn.  [?seed_target] shrinks
     (or widens) the seeded frontier; the stress tests set it to 1 so
     nearly all distribution happens through steals of freshly pushed
     work. *)
  let target =
    match seed_target with Some t -> max 1 t | None -> 4 * n_workers
  in
  let seed_stats = fresh_dstats () in
  if root_fp <> None then seed_stats.fp_refolds <- 1;
  let seed_ctx =
    {
      g;
      wid = 0;
      out = Seed queue;
      stats = seed_stats;
      commute = Explore.commute_cache ();
      rng = 0x9E3779B9;
      tick = 0;
    }
  in
  (try
     while
       (not (Queue.is_empty queue))
       && (Queue.length queue < target || seed_stats.states < threshold)
       && Atomic.get g.stop = None
     do
       let item = Queue.pop queue in
       process seed_ctx item;
       Atomic.decr g.in_flight
     done
   with e -> set_stop g (Callback e));
  Explore.flush_commute_metrics seed_ctx.commute;
  seed_stats.seconds <- Unix.gettimeofday () -. t0;
  let dstats = Array.init n_workers (fun _ -> fresh_dstats ()) in
  (* The seeded queue is frontier too: fold it into the peak before the
     per-item sampling takes over. *)
  if Queue.length queue > Atomic.get g.frontier_peak then
    Atomic.set g.frontier_peak (Queue.length queue);
  if (not (Queue.is_empty queue)) && Atomic.get g.stop = None then begin
    (* Hand the remaining frontier to the workers round-robin; spawn
       publishes the deque contents. *)
    let rr = ref 0 in
    Queue.iter
      (fun w ->
        Ws_deque.push g.deques.(!rr mod n_workers) w;
        incr rr)
      queue;
    let domains =
      Array.init n_workers (fun i ->
          Domain.spawn (fun () ->
              let w0 = Unix.gettimeofday () in
              let ctx =
                {
                  g;
                  wid = i;
                  out = Own g.deques.(i);
                  stats = dstats.(i);
                  commute = Explore.commute_cache ();
                  rng = 0x9E3779B9 * (i + 1);
                  tick = 0;
                }
              in
              worker ctx;
              Explore.flush_commute_metrics ctx.commute;
              dstats.(i).seconds <- Unix.gettimeofday () -. w0))
    in
    Array.iter Domain.join domains
  end;
  let dt = Unix.gettimeofday () -. t0 in
  let all = seed_stats :: Array.to_list dstats in
  let stats = merge_stats g all in
  emit_obs label g stats ~workers:dstats ~all dt;
  (match Atomic.get g.stop with
  | Some (Callback Stop) | Some Budget | Some Deadline | None -> ()
  | Some (Callback e) -> raise e);
  let mismatches = List.fold_left (fun acc d -> acc + d.fp_mismatches) 0 all in
  if mismatches > 0 then
    invalid_arg
      (Printf.sprintf
         "Parallel: %d incremental fingerprint patch(es) disagree with the \
          paranoid re-fold"
         mismatches);
  stats

let iter_terminals ?max_states ?max_depth ?max_crashes ?max_recoveries
    ?deadline ?expected_states ?reduction ?paranoid ?seed_target
    ?seq_threshold ?spill ~jobs config ~f =
  run ?max_states ?max_depth ?max_crashes ?max_recoveries ?deadline
    ?expected_states ?reduction ?paranoid ?seed_target ?seq_threshold
    ?spill ~jobs ~on_terminal:f
    ~on_visit:(fun _ _ -> ())
    "iter_terminals" config

let iter_reachable ?max_states ?max_depth ?max_crashes ?max_recoveries
    ?deadline ?expected_states ?reduction ?paranoid ?seed_target
    ?seq_threshold ?spill ~jobs config ~f =
  (* Source sets are stripped exactly as in {!Explore.iter_reachable}:
     reachability consumers quantify over every configuration. *)
  let reduction =
    Option.map (fun r -> { r with Explore.source_sets = false }) reduction
  in
  run ?max_states ?max_depth ?max_crashes ?max_recoveries ?deadline
    ?expected_states ?reduction ?paranoid ?seed_target ?seq_threshold
    ?spill ~jobs
    ~on_terminal:(fun _ _ -> ())
    ~on_visit:f "iter_reachable" config

let find_terminal ?max_states ?max_depth ?max_crashes ?max_recoveries
    ?deadline ?expected_states ?reduction ?paranoid ?seed_target
    ?seq_threshold ?spill ~jobs config ~violates =
  let found = ref None in
  (* [on_terminal] runs under the callback lock, so the first writer
     wins and the witness is stable once set. *)
  let on_terminal c trace =
    if Option.is_none !found && violates c then begin
      found := Some (c, trace);
      raise Stop
    end
  in
  let stats =
    run ?max_states ?max_depth ?max_crashes ?max_recoveries ?deadline
      ?expected_states ?reduction ?paranoid ?seed_target ?seq_threshold
      ?spill ~jobs ~on_terminal
      ~on_visit:(fun _ _ -> ())
      "find_terminal" config
  in
  (!found, stats)
