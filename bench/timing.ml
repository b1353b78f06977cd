(* Bechamel timing benches (B1–B5 of EXPERIMENTS.md): cost of the
   simulator, the substrates and the checkers; [run_perf] adds the
   fingerprint/multicore performance sweep and writes BENCH_results.json
   (the CI artifact). *)

open Bechamel
open Toolkit
open Subc_sim
module Obs = Subc_obs

(* B1: simulator step rate — one full Algorithm 2 run (k = 6) per
   iteration under a seeded random adversary. *)
let b1_sim_run =
  let k = 6 in
  let store, t = Subc_core.Alg2.alloc Store.empty ~k ~one_shot:false in
  let programs =
    List.init k (fun i -> Subc_core.Alg2.propose t ~i (Value.Int (100 + i)))
  in
  let config = Config.make store programs in
  Test.make ~name:"b1: run alg2 k=6 (random schedule)"
    (Staged.stage (fun () -> ignore (Runner.run (Runner.Random 42) config)))

(* B2: snapshot implementations — solo update+scan on the register-based
   AADGMS vs the primitive object, n = 8 components. *)
let snapshot_bench name snapshot =
  let store, api = snapshot Store.empty 8 in
  let program =
    let open Program.Syntax in
    let* () = api.Subc_rwmem.Snapshot_api.update ~me:3 (Value.Int 1) in
    api.Subc_rwmem.Snapshot_api.scan
  in
  let config = Config.make store [ program ] in
  Test.make ~name
    (Staged.stage (fun () -> ignore (Runner.run Runner.Round_robin config)))

let b2_snapshot_registers =
  snapshot_bench "b2: snapshot scan (AADGMS, n=8)"
    Subc_rwmem.Snapshot_api.register_based

let b2_snapshot_primitive =
  snapshot_bench "b2: snapshot scan (primitive, n=8)"
    Subc_rwmem.Snapshot_api.primitive

(* B3: model-checker throughput — exhaustive exploration of Algorithm 2,
   k = 4 (hundreds of canonical states). *)
let b3_explore =
  let k = 4 in
  let store, t = Subc_core.Alg2.alloc Store.empty ~k ~one_shot:true in
  let programs =
    List.init k (fun i -> Subc_core.Alg2.propose t ~i (Value.Int (100 + i)))
  in
  let config = Config.make store programs in
  Test.make ~name:"b3: explore alg2 k=4 (exhaustive)"
    (Staged.stage (fun () ->
         ignore (Explore.iter_terminals config ~f:(fun _ _ -> ()))))

(* B4: linearizability checking — a 6-operation 1sWRN history. *)
let b4_linearizability =
  let spec = Subc_objects.One_shot_wrn.model ~k:6 in
  let wrn i v = Op.make "wrn" [ Value.Int i; Value.Int v ] in
  let record proc op result inv res =
    { Subc_check.Linearizability.proc; op; result = Some result; inv; res }
  in
  let history =
    [
      record 0 (wrn 0 100) (Value.Int 101) 0 10;
      record 1 (wrn 1 101) Value.Bot 1 11;
      record 2 (wrn 2 102) Value.Bot 2 12;
      record 3 (wrn 3 103) Value.Bot 3 13;
      record 4 (wrn 4 104) (Value.Int 105) 4 14;
      record 5 (wrn 5 105) Value.Bot 5 15;
    ]
  in
  Test.make ~name:"b4: linearizability check (6-op 1sWRN history)"
    (Staged.stage (fun () ->
         ignore (Subc_check.Linearizability.check ~spec history)))

(* B5: Algorithm 5 end-to-end — one full 3-party run of the implemented
   1sWRN on a random schedule. *)
let b5_alg5 =
  let store, t = Subc_core.Alg5.alloc Store.empty ~k:3 () in
  let programs =
    List.init 3 (fun i -> Subc_core.Alg5.wrn t ~i (Value.Int (100 + i)))
  in
  let config = Config.make store programs in
  Test.make ~name:"b5: run alg5 k=3 (random schedule)"
    (Staged.stage (fun () -> ignore (Runner.run (Runner.Random 7) config)))

(* B6: the BG simulation — a full 2-simulators/3-processes run. *)
let b6_bg =
  let codes =
    List.init 3 (fun p ->
        Subc_bgsim.Sim_code.write_then_snapshot (Value.Int (100 + p)) Fun.id)
  in
  let store, bg = Subc_bgsim.Bg.alloc Store.empty ~simulators:2 ~codes in
  let programs = List.init 2 (fun me -> Subc_bgsim.Bg.simulate bg ~me) in
  let config = Config.make store programs in
  Test.make ~name:"b6: run BG simulation 2x3 (random schedule)"
    (Staged.stage (fun () -> ignore (Runner.run (Runner.Random 3) config)))

(* B7: protocol-space refutation throughput — one whole k=3, 1-op census
   (144 protocols, each model-checked). *)
let b7_census =
  Test.make ~name:"b7: protocol census k=3 ops=1 (144 protocols)"
    (Staged.stage (fun () ->
         ignore (Subc_classic.Protocol_search.census ~k:3 ~ops:1 ())))

let run_all () =
  Format.printf "@.=== Timing benches (bechamel) ===@.";
  let tests =
    [ b1_sim_run; b2_snapshot_registers; b2_snapshot_primitive; b3_explore;
      b4_linearizability; b5_alg5; b6_bg; b7_census ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true ()
  in
  let grouped = Test.make_grouped ~name:"subconsensus" tests in
  let raw = Benchmark.all cfg instances grouped in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name r acc -> (name, r) :: acc) results [] in
  List.iter
    (fun (name, r) ->
      let ns =
        match Analyze.OLS.estimates r with
        | Some (ns :: _) -> Printf.sprintf "%12.1f ns/run" ns
        | _ -> "estimate unavailable"
      in
      let r2 =
        match Analyze.OLS.r_square r with
        | Some r2 -> Printf.sprintf "r²=%.3f" r2
        | None -> ""
      in
      Format.printf "%-55s %s %s@." name ns r2)
    (List.sort compare rows)

(* ------------------------------------------------------------------ *)
(* Performance sweep: fingerprint cost and multicore exploration.      *)
(* Results land in BENCH_results.json so CI can archive them and       *)
(* successive runs can be diffed.  Numbers are wall-clock              *)
(* (Unix.gettimeofday — CPU time would sum over domains and hide any   *)
(* speedup); [host_domains] records how many cores the host actually   *)
(* offers, since speedup_vs_1 is bounded by it.                        *)

type bench_result = { name : string; fields : (string * float) list }

let results_file = "BENCH_results.json"

let json_of_results results =
  let field (k, v) =
    (* Plain [%.6g] prints integral floats without a dot; keep them JSON
       numbers either way. *)
    Printf.sprintf "%S: %.6g" k v
  in
  let obj r =
    Printf.sprintf "    {%S: %S, %s}" "name" r.name
      (String.concat ", " (List.map field r.fields))
  in
  let host_domains = Domain.recommended_domain_count () in
  (* Single-core hosts cannot show any parallel speedup: every jobs>1 row
     measures synchronization overhead only, and the consumer of the JSON
     artifact must not read those rows as a scaling regression. *)
  let mode = if host_domains > 1 then "parallel" else "overhead-only" in
  Printf.sprintf
    "{\n  \"host_domains\": %d,\n  \"mode\": %S,\n  \"benches\": [\n%s\n  ]\n}\n"
    host_domains mode
    (String.concat ",\n" (List.map obj results))

let write_results results =
  let oc = open_out results_file in
  output_string oc (json_of_results results);
  close_out oc;
  Format.printf "@.wrote %s (%d benches)@." results_file (List.length results)

(* The legacy fingerprint this PR replaced: MD5 over a marshalled
   canonical key.  Kept here (only here) as the baseline of the
   microbench. *)
let legacy_fingerprint config =
  Digest.string (Marshal.to_string (Config.key config) [])

let time_per_op ~repeat f configs =
  let t0 = Unix.gettimeofday () in
  for _ = 1 to repeat do
    List.iter (fun c -> ignore (Sys.opaque_identity (f c))) configs
  done;
  let dt = Unix.gettimeofday () -. t0 in
  dt /. float_of_int (repeat * List.length configs)

(* P1: per-state fingerprint cost, structural 126-bit hash vs the legacy
   marshal+MD5 pipeline, over a real reachable set (Algorithm 5, k=3). *)
let perf_fingerprint () =
  let store, t = Subc_core.Alg5.alloc Store.empty ~k:3 () in
  let programs =
    List.init 3 (fun i -> Subc_core.Alg5.wrn t ~i (Value.Int (100 + i)))
  in
  let config = Config.make store programs in
  let configs = ref [] in
  ignore (Explore.iter_reachable config ~f:(fun c _ -> configs := c :: !configs));
  let configs = !configs in
  let repeat = 50 in
  let structural_ns =
    1e9 *. time_per_op ~repeat Fingerprint.of_config configs
  in
  let legacy_ns = 1e9 *. time_per_op ~repeat legacy_fingerprint configs in
  (* The explore hot path: producing the child's fingerprint from the
     parent's.  Incremental = patch the slots the transition rewrote
     (O(1)); full = re-fold the whole child ([hom_of_config], what the
     incremental path replaces). *)
  let transitions =
    List.concat_map
      (fun parent ->
        let f = Fingerprint.hom_of_config parent in
        List.concat_map
          (fun i ->
            List.map
              (fun (child, _e, slots) -> (parent, f, slots, child))
              (Step.step_slots parent i))
          (Config.running parent))
      configs
  in
  let patch_ns =
    1e9
    *. time_per_op ~repeat
         (fun (parent, f, slots, child) ->
           Explore.patched_fingerprint parent f slots child)
         transitions
  in
  let hom_refold_ns =
    1e9
    *. time_per_op ~repeat
         (fun (_, _, _, child) -> Fingerprint.hom_of_config child)
         transitions
  in
  Format.printf
    "p1: fingerprint (%d configs): structural %.0f ns, marshal+md5 %.0f ns \
     (%.1fx)@."
    (List.length configs) structural_ns legacy_ns
    (legacy_ns /. structural_ns);
  Format.printf
    "p1: incremental (%d transitions): patch %.0f ns, hom re-fold %.0f ns \
     (%.1fx)@."
    (List.length transitions) patch_ns hom_refold_ns
    (hom_refold_ns /. patch_ns);
  {
    name = "p1.fingerprint";
    fields =
      [
        ("configs", float_of_int (List.length configs));
        ("structural_ns", structural_ns);
        ("legacy_marshal_md5_ns", legacy_ns);
        ("speedup", legacy_ns /. structural_ns);
        ("transitions", float_of_int (List.length transitions));
        ("incremental_patch_ns", patch_ns);
        ("hom_refold_ns", hom_refold_ns);
        ("incremental_speedup", hom_refold_ns /. patch_ns);
      ];
  }

(* Metric deltas around one exploration: the parallel engine adds to the
   process-global counters; subtracting a snapshot isolates one run. *)
let counter_delta names f =
  let read () =
    List.map (fun n -> Option.value ~default:0.0 (Obs.Metrics.find n)) names
  in
  let before = read () in
  let r = f () in
  let after = read () in
  (r, List.map2 (fun a b -> a -. b) after before)

(* P2: exploration throughput across domain counts, over Algorithm 5
   k=3 f=1 (the largest registry family), on the lock-free claim table
   every fingerprint-keyed parallel search uses.  Counts are asserted
   identical to the sequential run at every domain count (determinism is
   part of the bench); wall-clock, states/sec and the contention counters
   (steals, probes, CAS retries) are informational — on a single-core
   host every jobs>1 row just measures synchronization overhead. *)
let perf_parallel ~jobs_list () =
  let store, t = Subc_core.Alg5.alloc Store.empty ~k:3 () in
  let programs =
    List.init 3 (fun i -> Subc_core.Alg5.wrn t ~i (Value.Int (100 + i)))
  in
  let config = Config.make store programs in
  let counter_names =
    [ "parallel.steals"; "parallel.probes"; "parallel.cas_retries" ]
  in
  (* Best-of-[repeat] wall clock: single ~10ms runs are too noisy. *)
  let repeat = 3 in
  let best_of f =
    let best = ref infinity and result = ref None in
    for _ = 1 to repeat do
      let t0 = Unix.gettimeofday () in
      let r = f () in
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best then best := dt;
      result := Some r
    done;
    (Option.get !result, !best)
  in
  let base_stats, base_secs =
    best_of (fun () ->
        Explore.iter_terminals ~max_crashes:1 config ~f:(fun _ _ -> ()))
  in
  Format.printf "p2: explore alg5 k=3 f=1, sequential: %d states, %.3fs@."
    base_stats.Explore.states base_secs;
  List.map
    (fun jobs ->
      let (stats, secs), deltas =
        counter_delta counter_names (fun () ->
            best_of (fun () ->
                Parallel.iter_terminals ~max_crashes:1 ~jobs config
                  ~f:(fun _ _ -> ())))
      in
      let deltas = List.map (fun d -> d /. float_of_int repeat) deltas in
      if
        stats.Explore.states <> base_stats.Explore.states
        || stats.Explore.terminals <> base_stats.Explore.terminals
      then
        Format.printf
          "!! p2 jobs=%d NONDETERMINISM: %d states / %d terminals, expected \
           %d / %d@."
          jobs stats.Explore.states stats.Explore.terminals
          base_stats.Explore.states base_stats.Explore.terminals;
      let rate = float_of_int stats.Explore.states /. secs in
      let visited_bytes =
        Option.value ~default:0.0 (Obs.Metrics.find "parallel.visited_bytes")
      in
      Format.printf
        "p2: explore alg5 k=3 f=1, jobs=%d: %d states, %.3fs, %.0f states/s, \
         speedup %.2fx, visited %.0f bytes@."
        jobs stats.Explore.states secs rate (base_secs /. secs) visited_bytes;
      {
        (* The row name keeps its table segment, which the CI scaling
           floor reads. *)
        name = Printf.sprintf "p2.parallel_explore.lockfree.jobs%d" jobs;
        fields =
          [
            ("jobs", float_of_int jobs);
            ("states", float_of_int stats.Explore.states);
            ("seconds", secs);
            ("states_per_sec", rate);
            ("speedup_vs_seq", base_secs /. secs);
            ("collision_bound", stats.Explore.collision_bound);
            ("visited_bytes", visited_bytes);
          ]
          @ List.map2
              (fun n d ->
                (* "parallel.steals" -> "steals" *)
                (String.sub n 9 (String.length n - 9), d))
              counter_names deltas;
      })
    jobs_list

(* P3: parallel orbit minimization — [Symmetry.canonical_key ~jobs] over
   the full symmetric group on 5 processes (120 permutations, above the
   chunking threshold).  The canonical key and winning permutation are
   asserted identical at every domain count. *)
let perf_canonical ~jobs_list () =
  let k = 5 in
  (* |S_5| = 120 sits BELOW the chunking threshold (512): every [jobs]
     now takes the sequential fold, so jobs=2 must cost the same as
     jobs=1 — that is the small-orbit regression fix this row guards
     (the old threshold of 64 made jobs=2 pay a 27x domain-spawn
     penalty per call here). *)
  let store, t = Subc_core.Alg2.alloc Store.empty ~k ~one_shot:true in
  let programs =
    List.init k (fun i -> Subc_core.Alg2.propose t ~i (Value.Int (100 + i)))
  in
  let config = Config.make store programs in
  let sym = Symmetry.standard ~n:k ~input_base:100 `Full in
  let base_key, base_perm = Symmetry.canonical_key ~jobs:1 sym config in
  let repeat = 200 in
  List.map
    (fun jobs ->
      let key, perm = Symmetry.canonical_key ~jobs sym config in
      if not (key = base_key && perm = base_perm) then
        Format.printf "!! p3 jobs=%d NONDETERMINISM: canonical key differs@."
          jobs;
      let t0 = Unix.gettimeofday () in
      for _ = 1 to repeat do
        ignore (Sys.opaque_identity (Symmetry.canonical_key ~jobs sym config))
      done;
      let per_call = (Unix.gettimeofday () -. t0) /. float_of_int repeat in
      Format.printf
        "p3: canonical_key S_%d (%d perms), jobs=%d: %.0f us/call@." k 120
        jobs (1e6 *. per_call);
      {
        name = Printf.sprintf "p3.canonical_key.jobs%d" jobs;
        fields =
          [
            ("jobs", float_of_int jobs);
            ("perms", 120.0);
            ("us_per_call", 1e6 *. per_call);
          ];
      })
    jobs_list
  |> fun rows ->
  (* Guard row: jobs=2 / jobs=1 cost ratio at this small orbit.  Must
     stay ~1.0 (CI asserts <= 1.2) now that small groups bypass the
     domain fan-out entirely. *)
  let us j =
    List.find_map
      (fun r ->
        if r.name = Printf.sprintf "p3.canonical_key.jobs%d" j then
          List.assoc_opt "us_per_call" r.fields
        else None)
      rows
  in
  match (us 1, us 2) with
  | Some u1, Some u2 when u1 > 0.0 ->
    Format.printf "p3: small-orbit jobs2/jobs1 ratio %.2fx@." (u2 /. u1);
    rows
    @ [
        {
          name = "p3.canonical_key.small_orbit_ratio";
          fields =
            [ ("perms", 120.0); ("jobs2_vs_jobs1", u2 /. u1) ];
        };
      ]
  | _ -> rows

(* P4 / E19 artifact rows: source-set reduction strength under work
   stealing — Algorithm 5 k=3 f=1 explored unreduced, with symmetry only,
   and at full reduction (symmetry + source sets), each at jobs 1/2/4.
   The counts are deterministic (that is E19's claim, re-asserted here),
   so the reduction ratio is a constant of the family; we still record it
   per domain count so the CI artifact shows the parallel runs achieving
   the same pruning as the sequential one, not a degraded approximation. *)
let perf_reduction ~jobs_list () =
  let k = 3 in
  let config () =
    let store, t = Subc_core.Alg5.alloc Store.empty ~k () in
    let programs =
      List.init k (fun i -> Subc_core.Alg5.wrn t ~i (Value.Int (100 + i)))
    in
    Config.make store programs
  in
  let sym () = Symmetry.standard ~n:k ~input_base:100 `Rotations in
  let reductions =
    [
      ("none", None);
      ("symmetry", Some (Explore.with_symmetry (sym ())));
      ("full", Some (Explore.full_reduction (sym ())));
    ]
  in
  let explore reduction jobs =
    let t0 = Unix.gettimeofday () in
    let stats =
      if jobs <= 1 then
        Explore.iter_terminals ~max_crashes:1 ?reduction (config ())
          ~f:(fun _ _ -> ())
      else
        Parallel.iter_terminals ~max_crashes:1 ?reduction ~jobs (config ())
          ~f:(fun _ _ -> ())
    in
    (stats, Unix.gettimeofday () -. t0)
  in
  let cells =
    List.map
      (fun (name, red) ->
        (name, List.map (fun jobs -> (jobs, explore red jobs)) jobs_list))
      reductions
  in
  let trans name jobs =
    let s, _ = List.assoc jobs (List.assoc name cells) in
    s.Explore.transitions
  in
  List.concat_map
    (fun (name, per_jobs) ->
      let base, _ = snd (List.hd per_jobs) in
      List.map
        (fun (jobs, ((stats : Explore.stats), secs)) ->
          if stats.Explore.transitions <> base.Explore.transitions then
            Format.printf
              "!! p4 %s jobs=%d NONDETERMINISM: %d transitions, expected %d@."
              name jobs stats.Explore.transitions base.Explore.transitions;
          let ratio_vs_none =
            float_of_int (trans "none" jobs)
            /. float_of_int (max 1 stats.Explore.transitions)
          in
          let ratio_vs_symmetry =
            float_of_int (trans "symmetry" jobs)
            /. float_of_int (max 1 stats.Explore.transitions)
          in
          Format.printf
            "p4: explore alg5 k=3 f=1, reduction=%s jobs=%d: %d states, %d \
             transitions (%.2fx vs none), %.3fs@."
            name jobs stats.Explore.states stats.Explore.transitions
            ratio_vs_none secs;
          {
            name = Printf.sprintf "e19.reduction.%s.jobs%d" name jobs;
            fields =
              [
                ("jobs", float_of_int jobs);
                ("states", float_of_int stats.Explore.states);
                ("transitions", float_of_int stats.Explore.transitions);
                ("terminals", float_of_int stats.Explore.terminals);
                ("source_skips", float_of_int stats.Explore.source_skips);
                ("seconds", secs);
                ("ratio_vs_none", ratio_vs_none);
                ("ratio_vs_symmetry", ratio_vs_symmetry);
              ];
          })
        per_jobs)
    cells

(* P5: the static-independence fast path (Issue 8).  Full reduction,
   three independence modes per family; the interesting numbers are the
   diamond computations the static tables avoid and the resulting
   states/sec, with commute.static_mismatches as the cross-validation
   row (must stay 0).  Counters are read as before/after deltas. *)
let perf_independence () =
  ignore (Subc_analysis.Analyzer.install_static ());
  let families =
    [
      ( "alg2",
        fun () ->
          let store, t = Subc_core.Alg2.alloc Store.empty ~k:3 ~one_shot:true in
          ( store,
            List.init 3 (fun i -> Subc_core.Alg2.propose t ~i (Value.Int (100 + i))),
            Subc_core.Alg2.symmetry t ~input_base:100 () ) );
      ( "alg5",
        fun () ->
          let store, t = Subc_core.Alg5.alloc Store.empty ~k:3 () in
          ( store,
            List.init 3 (fun i -> Subc_core.Alg5.wrn t ~i (Value.Int (100 + i))),
            Subc_core.Alg5.symmetry t ~input_base:100 () ) );
      ( "1swrn",
        fun () ->
          let store, h =
            Store.alloc Store.empty (Subc_objects.One_shot_wrn.model ~k:3)
          in
          ( store,
            List.init 3 (fun i ->
                Subc_objects.One_shot_wrn.wrn h i (Value.Int (100 + i))),
            Symmetry.standard ~n:3 ~input_base:100 `Rotations ) );
    ]
  in
  let metric name =
    match Subc_obs.Metrics.find name with Some v -> v | None -> 0.
  in
  let counter_names =
    [
      "commute.diamonds"; "commute.memo_hits"; "commute.static_hits";
      "commute.static_mismatches";
    ]
  in
  List.concat_map
    (fun (family, harness) ->
      List.map
        (fun (mode, independence) ->
          let store, programs, sym = harness () in
          let options =
            Search.(
              default |> with_max_crashes 1
              |> with_reduction (Explore.full_reduction sym)
              |> with_independence independence)
          in
          let before = List.map metric counter_names in
          let t0 = Unix.gettimeofday () in
          let stats =
            Search.iter_terminals ~options
              (Config.make store programs)
              ~f:(fun _ _ -> ())
          in
          let secs = Unix.gettimeofday () -. t0 in
          let deltas =
            List.map2 ( -. ) (List.map metric counter_names) before
          in
          Format.printf
            "p5: %s %s: %d states, %.0f diamonds, %.0f static hits, %.0f \
             mismatches, %.3fs@."
            family mode stats.Explore.states (List.nth deltas 0)
            (List.nth deltas 2) (List.nth deltas 3) secs;
          {
            name = Printf.sprintf "p5.independence.%s.%s" family mode;
            fields =
              [
                ("states", float_of_int stats.Explore.states);
                ("transitions", float_of_int stats.Explore.transitions);
                ("seconds", secs);
                ( "states_per_sec",
                  float_of_int stats.Explore.states /. max 1e-9 secs );
                ("diamonds", List.nth deltas 0);
                ("memo_hits", List.nth deltas 1);
                ("static_hits", List.nth deltas 2);
                ("static_mismatches", List.nth deltas 3);
              ];
          })
        [
          ("semantic", Explore.Semantic); ("static", Explore.Static);
          ("both", Explore.Both);
        ])
    families

(* P6 / E22 artifact rows: the parallel engine over the heap claim
   table and the mmap-spilled table.  Two headline guards ride in
   [p6.spill_compare]:

   - [spill_vs_lockfree_memory]: the mmap-spilled visited set's heap
     residency must be <= 50% of the lock-free claim table's on the
     largest registry family (it is bookkeeping-only; the mapped pages
     are file-backed).
   - determinism: every run's counts are diffed against the sequential
     explorer, like P2 does for the heap table. *)
let perf_spill ~jobs_list () =
  let store, t = Subc_core.Alg5.alloc Store.empty ~k:3 () in
  let programs =
    List.init 3 (fun i -> Subc_core.Alg5.wrn t ~i (Value.Int (100 + i)))
  in
  let config = Config.make store programs in
  let base_stats =
    Explore.iter_terminals ~max_crashes:1 config ~f:(fun _ _ -> ())
  in
  let repeat = 3 in
  let best_of f =
    let best = ref infinity and result = ref None in
    for _ = 1 to repeat do
      let t0 = Unix.gettimeofday () in
      let r = f () in
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best then best := dt;
      result := Some r
    done;
    (Option.get !result, !best)
  in
  let jobs = match List.rev jobs_list with j :: _ -> min j 4 | [] -> 4 in
  let counter_names = [ "parallel.spill_bytes"; "parallel.steals" ] in
  let explore ?spill () =
    let (stats, secs), deltas =
      counter_delta counter_names (fun () ->
          best_of (fun () ->
              Parallel.iter_terminals ~max_crashes:1 ?spill ~seq_threshold:0
                ~jobs config
                ~f:(fun _ _ -> ())))
    in
    (stats, secs, List.map (fun d -> d /. float_of_int repeat) deltas)
  in
  let bytes_of_mode = Hashtbl.create 2 in
  let rows =
    List.map
      (fun (mode, spill) ->
        let stats, secs, deltas = explore ?spill () in
        if
          stats.Explore.states <> base_stats.Explore.states
          || stats.Explore.terminals <> base_stats.Explore.terminals
        then
          Format.printf
            "!! p6 %s NONDETERMINISM: %d states / %d terminals, expected %d \
             / %d@."
            mode stats.Explore.states stats.Explore.terminals
            base_stats.Explore.states base_stats.Explore.terminals;
        let visited_bytes =
          Option.value ~default:0.0 (Obs.Metrics.find "parallel.visited_bytes")
        in
        Hashtbl.replace bytes_of_mode mode visited_bytes;
        Format.printf
          "p6: explore alg5 k=3 f=1, tables=%s jobs=%d: %d states, %.3fs, \
           visited %.0f B@."
          mode jobs stats.Explore.states secs visited_bytes;
        {
          name = Printf.sprintf "p6.table_explore.%s" mode;
          fields =
            [
              ("jobs", float_of_int jobs);
              ("states", float_of_int stats.Explore.states);
              ("seconds", secs);
              ( "states_per_sec",
                float_of_int stats.Explore.states /. max 1e-9 secs );
              ("collision_bound", stats.Explore.collision_bound);
              ("visited_bytes", visited_bytes);
              ("spill_bytes", List.nth deltas 0);
              ("steals", List.nth deltas 1);
            ];
        })
      [ ("heap", None); ("spill", Some "_perf_spill.tmp") ]
  in
  let lockfree_bytes = Hashtbl.find bytes_of_mode "heap" in
  let spill_bytes_heap = Hashtbl.find bytes_of_mode "spill" in
  let ratio =
    if lockfree_bytes > 0.0 then spill_bytes_heap /. lockfree_bytes else 0.0
  in
  Format.printf "p6: spill heap bytes / lockfree %.2fx@." ratio;
  rows
  @ [
      {
        name = "p6.spill_compare";
        fields =
          [
            ("jobs", float_of_int jobs);
            ("lockfree_visited_bytes", lockfree_bytes);
            ("spill_heap_bytes", spill_bytes_heap);
            ("spill_vs_lockfree_memory", ratio);
          ];
      };
    ]

(* P7: the auto-sequential fallback ([Parallel.default_seq_threshold]).  On a space
   far below the threshold the parallel entry points complete on the
   seeding pass without spawning a single domain, so asking for jobs=4
   must cost about the same as the sequential explorer — CI asserts the
   ratio <= 1.2 (the old eager spawn measured 2-8x here). *)
let perf_seq_fallback () =
  let harness () =
    let store, t = Subc_core.Alg2.alloc Store.empty ~k:3 ~one_shot:true in
    Config.make store
      (List.init 3 (fun i -> Subc_core.Alg2.propose t ~i (Value.Int (100 + i))))
  in
  let config = harness () in
  let repeat = 200 in
  let per_call f =
    (* Warm up, then time: domain spawn noise is the thing measured. *)
    ignore (f ());
    let t0 = Unix.gettimeofday () in
    for _ = 1 to repeat do
      ignore (Sys.opaque_identity (f ()))
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int repeat
  in
  let seq_secs =
    per_call (fun () ->
        Explore.iter_terminals ~max_crashes:1 config ~f:(fun _ _ -> ()))
  in
  let fallback_secs =
    per_call (fun () ->
        Parallel.iter_terminals ~max_crashes:1 ~jobs:4 config
          ~f:(fun _ _ -> ()))
  in
  let eager_secs =
    per_call (fun () ->
        Parallel.iter_terminals ~max_crashes:1 ~seq_threshold:0 ~jobs:4 config
          ~f:(fun _ _ -> ()))
  in
  let ratio = if seq_secs > 0.0 then fallback_secs /. seq_secs else 0.0 in
  Format.printf
    "p7: alg2 k=3 f=1 (small space): seq %.0f us, jobs=4 fallback %.0f us \
     (%.2fx), jobs=4 eager %.0f us (%.2fx)@."
    (1e6 *. seq_secs) (1e6 *. fallback_secs) ratio (1e6 *. eager_secs)
    (if seq_secs > 0.0 then eager_secs /. seq_secs else 0.0);
  [
    {
      name = "p7.seq_fallback";
      fields =
        [
          ("threshold", float_of_int Parallel.default_seq_threshold);
          ("seq_us", 1e6 *. seq_secs);
          ("fallback_jobs4_us", 1e6 *. fallback_secs);
          ("eager_jobs4_us", 1e6 *. eager_secs);
          ("small_space_ratio", ratio);
          ( "eager_ratio",
            if seq_secs > 0.0 then eager_secs /. seq_secs else 0.0 );
        ];
    };
  ]

let run_perf ?(jobs_list = [ 1; 2; 4; 8 ]) () =
  Format.printf "@.=== Performance sweep (%s) ===@." results_file;
  let fingerprint = perf_fingerprint () in
  let parallel = perf_parallel ~jobs_list () in
  let canonical =
    perf_canonical ~jobs_list:(List.filter (fun j -> j <= 4) jobs_list) ()
  in
  let reduction =
    perf_reduction ~jobs_list:(List.filter (fun j -> j <= 4) jobs_list) ()
  in
  let independence = perf_independence () in
  let spill = perf_spill ~jobs_list () in
  let seq_fallback = perf_seq_fallback () in
  write_results
    ((fingerprint :: parallel) @ canonical @ reduction @ independence @ spill
    @ seq_fallback)
