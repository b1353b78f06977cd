(* Cross-validation of the partitioned (and out-of-core) exploration
   engine.

   Determinism contract (see Parallel's interface): for every algorithm
   family, crash/recovery budget and reduction, the partitioned search
   must agree with the sequential explorer on [states], [transitions],
   [terminals], [hung_terminals], [crashed_terminals], [dedup_hits] and
   [source_skips] at any partition count x jobs split, under the heap
   tables and under mmap-spilled 62-bit tables alike.  The batching
   layer must never starve a partition (flush-on-idle), budget
   truncation must stay exact on the shared ticket counter, and paranoid
   runs must cross-validate carried fingerprints over rebased
   cross-partition deltas. *)
open Subc_sim
open Helpers
module Task_check = Subc_check.Task_check
module Verdict = Subc_check.Verdict
module R = Subc_check.Recoverable

(* Total worker-domain count for the partitioned side of each
   comparison; overridable so CI can pin it (SUBC_TEST_JOBS=4).  The
   engine splits it across partitions, at least one domain each. *)
let jobs =
  match Sys.getenv_opt "SUBC_TEST_JOBS" with
  | Some s -> ( try max 2 (int_of_string s) with _ -> 4)
  | None -> 4

(* Every partitioned call below forces [~seq_threshold:0]: the spaces in
   this suite are small enough that the auto-sequential fallback would
   otherwise complete them on the seeding pass without ever exercising
   the worker domains, inboxes or batch buffers.  The fallback itself is
   covered by [seeder_fallback]. *)

(* ---------------------------------------------------------------- *)
(* Harnesses (shared shapes with test_parallel).                     *)

let alg2_harness k =
  let store, t = Subc_core.Alg2.alloc Store.empty ~k ~one_shot:true in
  let programs =
    List.mapi (fun i v -> Subc_core.Alg2.propose t ~i v) (inputs k)
  in
  (store, programs, Subc_core.Alg2.symmetry t ~input_base:100 ())

let alg3_harness () =
  let k = 2 in
  let ids = [ 9; 2 ] in
  let store, t =
    Subc_core.Alg3.alloc Store.empty ~k ~flavor:Subc_core.Alg3.Relaxed_wrn
      ~renamer:Subc_core.Alg3.Rename_snapshot ()
  in
  let inputs = List.map (fun id -> Value.Int (1000 + id)) ids in
  let programs =
    List.mapi
      (fun slot id ->
        Subc_core.Alg3.propose t ~slot ~id (Value.Int (1000 + id)))
      ids
  in
  (store, programs, inputs, Subc_tasks.Task.set_consensus (k - 1))

let alg5_harness k =
  let store, t = Subc_core.Alg5.alloc Store.empty ~k () in
  let programs =
    List.init k (fun i -> Subc_core.Alg5.wrn t ~i (Value.Int (100 + i)))
  in
  (store, programs, Subc_core.Alg5.symmetry t ~input_base:100 ())

let wrn_harness k =
  let store, h = Store.alloc Store.empty (Subc_objects.One_shot_wrn.model ~k) in
  let programs =
    List.init k (fun i ->
        Subc_objects.One_shot_wrn.wrn h i (Value.Int (100 + i)))
  in
  (store, programs, Symmetry.standard ~n:k ~input_base:100 `Rotations)

let recovery_config family ~n ~r =
  let store, programs = R.protocol Store.empty family ~n ~max_recoveries:r in
  Config.make store programs

(* The deterministic slice of the statistics; [max_depth] is deliberately
   excluded (pop order is racy across partitions too). *)
let same_counts name (a : Explore.stats) (b : Explore.stats) =
  Alcotest.(check int) (name ^ " states") a.Explore.states b.Explore.states;
  Alcotest.(check int)
    (name ^ " transitions")
    a.Explore.transitions b.Explore.transitions;
  Alcotest.(check int)
    (name ^ " terminals")
    a.Explore.terminals b.Explore.terminals;
  Alcotest.(check int)
    (name ^ " hung")
    a.Explore.hung_terminals b.Explore.hung_terminals;
  Alcotest.(check int)
    (name ^ " crashed")
    a.Explore.crashed_terminals b.Explore.crashed_terminals;
  Alcotest.(check int)
    (name ^ " recovered")
    a.Explore.recovered_terminals b.Explore.recovered_terminals;
  Alcotest.(check int)
    (name ^ " dedup")
    a.Explore.dedup_hits b.Explore.dedup_hits;
  Alcotest.(check int)
    (name ^ " source_skips")
    a.Explore.source_skips b.Explore.source_skips;
  Alcotest.(check bool) (name ^ " limited") a.Explore.limited b.Explore.limited

(* ---------------------------------------------------------------- *)
(* Partition-count determinism matrix.                               *)

let stats_matrix () =
  let harnesses =
    [
      ("alg2", (fun () -> alg2_harness 3), [ 0; 1 ]);
      ("alg5", (fun () -> alg5_harness 3), [ 1 ]);
      ("wrn", (fun () -> wrn_harness 3), [ 1 ]);
    ]
  in
  List.iter
    (fun (name, harness, budgets) ->
      let store, programs, sym = harness () in
      let config = Config.make store programs in
      List.iter
        (fun f ->
          List.iter
            (fun (rlabel, reduction) ->
              let seq =
                Explore.iter_terminals ~max_crashes:f ?reduction config
                  ~f:(fun _ _ -> ())
              in
              List.iter
                (fun partitions ->
                  List.iter
                    (fun j ->
                      let label =
                        Printf.sprintf "%s f=%d %s p=%d j=%d" name f rlabel
                          partitions j
                      in
                      let par =
                        Parallel.iter_terminals ~max_crashes:f ?reduction
                          ~seq_threshold:0 ~partitions ~jobs:j config
                          ~f:(fun _ _ -> ())
                      in
                      same_counts label seq par)
                    [ 1; jobs ])
                [ 1; 2; 4 ])
            [
              ("none", None);
              ("source", Some Explore.source_only);
              ("sym", Some (Explore.with_symmetry sym));
              ("full", Some (Explore.full_reduction sym));
            ])
        budgets)
    harnesses

(* A quick slice of the matrix for the default (non -slow) run. *)
let stats_quick () =
  let store, programs, sym = alg2_harness 3 in
  let config = Config.make store programs in
  List.iter
    (fun (rlabel, reduction) ->
      let seq =
        Explore.iter_terminals ~max_crashes:1 ?reduction config
          ~f:(fun _ _ -> ())
      in
      let par =
        Parallel.iter_terminals ~max_crashes:1 ?reduction ~seq_threshold:0
          ~partitions:2 ~jobs config
          ~f:(fun _ _ -> ())
      in
      same_counts (Printf.sprintf "alg2 f=1 %s p=2" rlabel) seq par)
    [ ("none", None); ("full", Some (Explore.full_reduction sym)) ]

(* Crash-recovery budgets: the recovery count is part of the claim key,
   so recover successors dedup identically across partitions. *)
let recovery_matrix () =
  List.iter
    (fun family ->
      List.iter
        (fun r ->
          let config = recovery_config family ~n:2 ~r in
          let seq =
            Explore.iter_terminals ~max_crashes:1 ~max_recoveries:r config
              ~f:(fun _ _ -> ())
          in
          List.iter
            (fun partitions ->
              let par =
                Parallel.iter_terminals ~max_crashes:1 ~max_recoveries:r
                  ~seq_threshold:0 ~partitions ~jobs config
                  ~f:(fun _ _ -> ())
              in
              same_counts
                (Printf.sprintf "%s r=%d p=%d" (R.family_name family) r
                   partitions)
                seq par)
            [ 2; 4 ])
        [ 0; 1 ])
    [ R.Test_and_set; R.Cas ]

(* Verdict-typed checkers must agree through the Search dispatcher. *)
let verdicts_agree () =
  let store, programs, inputs, task = alg3_harness () in
  let seqv = Task_check.check ~options:Search.default store ~programs ~inputs ~task in
  List.iter
    (fun partitions ->
      let parv =
        Task_check.check
          ~options:
            Search.(
              default |> with_jobs jobs |> with_partitions partitions
              |> with_seq_threshold 0)
          store ~programs ~inputs ~task
      in
      Alcotest.(check string)
        (Printf.sprintf "alg3 status p=%d" partitions)
        (Verdict.status_string seqv)
        (Verdict.status_string parv);
      same_counts
        (Printf.sprintf "alg3 stats p=%d" partitions)
        (explore_stats_exn seqv) (explore_stats_exn parv))
    [ 2; 4 ]

(* Small spaces never leave the seeding pass: at the default
   [Parallel.default_seq_threshold] the whole search completes
   sequentially on the calling domain, with identical stats. *)
let seeder_fallback () =
  let store, programs, _ = alg2_harness 3 in
  let config = Config.make store programs in
  let seq =
    Explore.iter_terminals ~max_crashes:1 config ~f:(fun _ _ -> ())
  in
  let par =
    Parallel.iter_terminals ~max_crashes:1 ~seq_threshold:4096 ~partitions:4
      ~jobs config
      ~f:(fun _ _ -> ())
  in
  same_counts "seeder fallback" seq par

(* ---------------------------------------------------------------- *)
(* Budget truncation: claim-first-ticket-second on one shared counter
   reports exactly [max_states] at any partition count.              *)

let budget_truncation () =
  let store, programs, _ = alg5_harness 3 in
  let config = Config.make store programs in
  let budget = 500 in
  List.iter
    (fun partitions ->
      let s =
        Parallel.iter_terminals ~max_crashes:1 ~max_states:budget
          ~seq_threshold:0 ~partitions ~jobs config
          ~f:(fun _ _ -> ())
      in
      Alcotest.(check int)
        (Printf.sprintf "p=%d truncates exactly" partitions)
        budget s.Explore.states;
      Alcotest.(check bool)
        (Printf.sprintf "p=%d limited" partitions)
        true s.Explore.limited)
    [ 1; 2; 4 ]

(* ---------------------------------------------------------------- *)
(* Batching: a buffer bigger than the whole state space means nothing
   would ever cross partitions on the size trigger alone — only the
   flush-on-idle path keeps the other partitions fed.  [batch_size 1]
   is the opposite extreme (maximum exchange traffic).               *)

let flush_on_idle () =
  let store, programs, _ = alg5_harness 3 in
  let config = Config.make store programs in
  let seq =
    Explore.iter_terminals ~max_crashes:1 config ~f:(fun _ _ -> ())
  in
  List.iter
    (fun batch_size ->
      let par =
        Parallel.iter_terminals ~max_crashes:1 ~seq_threshold:0 ~batch_size
          ~partitions:4 ~jobs config
          ~f:(fun _ _ -> ())
      in
      same_counts (Printf.sprintf "batch_size=%d" batch_size) seq par)
    [ 1; 1_000_000 ]

(* Terminal callbacks fire exactly once per terminal, serialized. *)
let terminal_callback_count () =
  let store, programs, _ = alg5_harness 3 in
  let config = Config.make store programs in
  let count = Atomic.make 0 in
  let s =
    Parallel.iter_terminals ~max_crashes:1 ~seq_threshold:0 ~partitions:3
      ~jobs config
      ~f:(fun _ _ -> Atomic.incr count)
  in
  Alcotest.(check int)
    "one callback per terminal" s.Explore.terminals (Atomic.get count)

(* Parallel.Stop from a callback ends the search gracefully. *)
let stop_from_callback () =
  let store, programs, _ = alg5_harness 3 in
  let config = Config.make store programs in
  let seq =
    Explore.iter_terminals ~max_crashes:1 config ~f:(fun _ _ -> ())
  in
  let seen = Atomic.make 0 in
  let s =
    Parallel.iter_terminals ~max_crashes:1 ~seq_threshold:0 ~partitions:2
      ~jobs config
      ~f:(fun _ _ ->
        if Atomic.fetch_and_add seen 1 >= 3 then raise Parallel.Stop)
  in
  Alcotest.(check bool) "saw some terminals" true (s.Explore.terminals >= 1);
  Alcotest.(check bool)
    "stopped before exhausting the space" true
    (s.Explore.terminals < seq.Explore.terminals)

(* ---------------------------------------------------------------- *)
(* Out-of-core: the mmap-spilled 62-bit tables.                      *)

let spill_determinism () =
  let store, programs, _ = alg5_harness 3 in
  let config = Config.make store programs in
  let seq =
    Explore.iter_terminals ~max_crashes:1 config ~f:(fun _ _ -> ())
  in
  List.iter
    (fun partitions ->
      let par =
        Parallel.iter_terminals ~max_crashes:1 ~spill:"spill-run.tmp"
          ~seq_threshold:0 ~partitions ~jobs config
          ~f:(fun _ _ -> ())
      in
      same_counts (Printf.sprintf "spill p=%d" partitions) seq par)
    [ 1; 2 ]

(* Spill through the Search dispatcher ([spill] alone implies the
   partitioned engine) preserves checker verdicts. *)
let spill_search_dispatch () =
  let store, programs, inputs, task = alg3_harness () in
  let seqv =
    Task_check.check ~options:Search.default store ~programs ~inputs ~task
  in
  let spv =
    Task_check.check
      ~options:
        Search.(
          default |> with_spill "spill-search.tmp" |> with_jobs 2
          |> with_seq_threshold 0)
      store ~programs ~inputs ~task
  in
  Alcotest.(check string)
    "spill status" (Verdict.status_string seqv) (Verdict.status_string spv);
  same_counts "spill stats" (explore_stats_exn seqv) (explore_stats_exn spv)

(* Claim-once semantics of the spill table itself, including forced
   62-bit collisions (two distinct logical keys on one folded word) and
   segment-chained growth past the initial capacity. *)
let spill_claim_once () =
  let t =
    Spill_table.create ~initial_capacity:64 ~dir:"spill-unit.tmp" ~part:0 ()
  in
  let ops = Claim_table.fresh_opstats () in
  for i = 1 to 200 do
    let h1 = (i * 0x9E37) lxor 0x55 and h2 = i * 7919 in
    Alcotest.(check bool)
      (Printf.sprintf "key %d fresh" i)
      true
      (Spill_table.claim t ops ~h1 ~h2 = `Fresh);
    Alcotest.(check bool)
      (Printf.sprintf "key %d dup" i)
      true
      (Spill_table.claim t ops ~h1 ~h2 = `Dup)
  done;
  Alcotest.(check int) "occupancy" 200 (Spill_table.occupancy t);
  Alcotest.(check bool)
    "grew past the initial segment" true
    (Spill_table.segments t > 1);
  (* Forced collision: a second logical key landing on the same folded
     word must lose the claim — the documented ~2^-62 per-pair risk. *)
  let w = Claim_table.encode (Claim_table.fold_key 123456789 987654321) in
  Alcotest.(check bool)
    "collided word fresh once" true
    (Spill_table.claim_word t ops w = `Fresh);
  Alcotest.(check bool)
    "collided word dup after" true
    (Spill_table.claim_word t ops w = `Dup);
  Alcotest.(check bool) "probes counted" true (ops.Claim_table.probes > 0);
  (* The mapped bytes dominate; the heap keeps only bookkeeping. *)
  Alcotest.(check bool)
    "spill bytes mapped" true
    (Spill_table.spill_bytes t > 0);
  Alcotest.(check bool)
    "heap footprint is bookkeeping only" true
    (Spill_table.memory_bytes t < Spill_table.spill_bytes t)

(* A segment that cannot be mapped (here: the spill directory is gone)
   raises out of the claim without keeping the table's lock, so the
   next claim that needs the segment raises the same error instead of
   blocking every worker of the partition. *)
let spill_growth_error_releases_lock () =
  let dir = "spill-vanish.tmp" in
  let t = Spill_table.create ~initial_capacity:64 ~dir ~part:0 () in
  Unix.rmdir dir;
  let ops = Claim_table.fresh_opstats () in
  let claim i = Spill_table.claim t ops ~h1:(i * 0x9E37) ~h2:(i * 7919) in
  let rec until_error i =
    if i > 64 then Alcotest.fail "segment growth never raised"
    else
      match claim i with
      | `Fresh | `Dup -> until_error (i + 1)
      | exception Unix.Unix_error _ -> i
  in
  let i = until_error 1 in
  match claim (i + 1) with
  | _ -> Alcotest.fail "claim needing the unmappable segment succeeded"
  | exception Unix.Unix_error _ -> ()

(* ---------------------------------------------------------------- *)
(* Paranoid cross-validation over rebased cross-partition deltas.    *)

let paranoid_cross_validation () =
  let store, programs, _ = alg2_harness 3 in
  let config = Config.make store programs in
  let seq =
    Explore.iter_terminals ~max_crashes:1 config ~f:(fun _ _ -> ())
  in
  List.iter
    (fun partitions ->
      let par =
        Parallel.iter_terminals ~max_crashes:1 ~paranoid:true ~seq_threshold:0
          ~partitions ~jobs config
          ~f:(fun _ _ -> ())
      in
      same_counts
        (Printf.sprintf "partitioned paranoid p=%d" partitions)
        seq par)
    [ 2; 4 ]

(* Corrupted incremental patches must be caught by the paranoid re-fold
   even when the carried fingerprint crossed a partition boundary. *)
let paranoid_catches_mutation () =
  let store, programs, _ = alg2_harness 3 in
  let config = Config.make store programs in
  Fun.protect
    ~finally:(fun () -> Explore.set_fp_fault_injection 0)
    (fun () ->
      Explore.set_fp_fault_injection 5;
      match
        Parallel.iter_terminals ~max_crashes:1 ~paranoid:true ~seq_threshold:0
          ~partitions:2 ~jobs config
          ~f:(fun _ _ -> ())
      with
      | _ -> Alcotest.fail "corrupted cross-partition patches went unnoticed"
      | exception Invalid_argument _ -> ())

let suite =
  [
    ( "partition.determinism",
      [
        test "alg2 quick slice (p=2, all counts)" stats_quick;
        test_slow "partition x jobs x reduction matrix" stats_matrix;
        test_slow "crash-recovery budgets across partitions" recovery_matrix;
        test "verdicts agree through Search dispatch" verdicts_agree;
        test "small spaces fall back to the seeder" seeder_fallback;
        test "budget truncation is exact" budget_truncation;
      ] );
    ( "partition.batching",
      [
        test_slow "flush-on-idle beats any batch size" flush_on_idle;
        test "one callback per terminal" terminal_callback_count;
        test "Stop from a callback is graceful" stop_from_callback;
      ] );
    ( "partition.spill",
      [
        test "spill-mode counts match sequential" spill_determinism;
        test "spill via Search preserves verdicts" spill_search_dispatch;
        test "spill table claims once (forced collisions)" spill_claim_once;
        test "failed segment growth releases the table lock"
          spill_growth_error_releases_lock;
      ] );
    ( "partition.paranoid",
      [
        test "paranoid counts match at any partition count"
          paranoid_cross_validation;
        test "paranoid catches corrupted cross-partition patches"
          paranoid_catches_mutation;
      ] );
  ]
