(* The benchmark program: one workload in one process.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1 [--spans FILE]

   With --trace 0 it times set-up and repeated searches with tracing off
   and reports the end-to-end metrics.  With --trace 1 it runs untraced
   and traced searches, replays every layer on the workload's own
   configurations, and reports the per-layer metrics; spans go to FILE.  The last line of standard output is a JSON report; run.py checks
   its observations against expected.json. *)

open Subc_sim
module W = Workloads
module J = Util.Json

let workload = ref ""
let seed = ref 1
let seconds = ref 10.
let trace = ref 0
let spans_file = ref ""

let setup_sample_ns = 50_000_000
let setup_first = 4
let setup_every_ns = 1_000_000_000

(* One set-up sample: the mean build time over at least 50 ms of builds,
   so that neither the clock's resolution nor the phase of the GC cycle
   decides a microsecond figure (10 ms samples of the same build varied
   up to 1.8x with the phase).  It starts from a collected heap and keeps
   only the latest build alive, so sampling does not raise the peak
   resident memory that [peak_rss_mb] reports. *)
let setup_sample build =
  Gc.full_major ();
  let t0 = Util.now_ns () and n = ref 0 and last = ref None in
  while Util.now_ns () - t0 < setup_sample_ns do
    last := Some (build ());
    incr n
  done;
  (Option.get !last, Util.secs (Util.now_ns () - t0) /. float_of_int !n)

let guarded f =
  try f () with e -> (J.Obj [ ("error", Str (Printexc.to_string e)) ], None)

(* One verdict of an end-to-end run: its result, the set-up samples
   taken just before it and its time, both raw, and the factor that
   scales them to the reference host speed (see calibrate.ml). *)
type 'a segment = { result : 'a; setups : float list; raw_s : float; factor : float }

(* Run verdicts until the next one would overrun the time budget; always
   at least one.  Set-up is sampled before every verdict, once per started
   second of the previous verdict, so its median covers the same stretch
   of the run as the verdicts' median does, even when one verdict takes
   ten seconds; each verdict uses the latest build.  Each verdict starts
   from a compacted heap, as in a fresh process, so it does not inherit
   the heap the previous one grew.  The reference kernel is timed after
   every verdict, and a segment's factor is [Calibrate.nominal_s] over
   the mean of the kernel times on either side of it (only the one after
   it, for the first).  The peak resident memory is read once, after the
   first verdict: later ones run on a heap the earlier ones grew and
   fragmented, so the high-water mark over a whole run of the 10 s
   lin-symfull-k5 verdicts moved by 0.11 of its median from run to run.
   [verdict] returns its result and the ns it took. *)
let first_peak_rss_mb = ref nan

let repeat ~reference ~build verdict =
  let sample k =
    let inst = ref None and times = ref [] in
    for _ = 1 to k do
      let i, t = setup_sample build in
      inst := Some i;
      times := t :: !times
    done;
    (Option.get !inst, List.rev !times)
  in
  let t0 = Util.now_ns () in
  let rec go k prev_ref acc =
    let inst, setups = sample k in
    Gc.compact ();
    let r, dt = verdict inst in
    if acc = [] then first_peak_rss_mb := Util.peak_rss_mb ();
    let ref_s = reference () in
    let around = match prev_ref with None -> ref_s | Some p -> (p +. ref_s) /. 2. in
    let seg =
      { result = r; setups; raw_s = Util.secs dt; factor = Calibrate.nominal_s /. around }
    in
    let acc = seg :: acc in
    if Util.secs (Util.now_ns () - t0 + dt) +. ref_s > !seconds then List.rev acc
    else go (max 1 ((dt + setup_every_ns - 1) / setup_every_ns)) (Some ref_s) acc
  in
  go setup_first None []

let ms ns = float_of_int ns *. 1e-6

(* Every verdict's raw time and factor, for the result file. *)
let verdict_samples = ref []

let scaled f segs = List.map (fun s -> f s *. s.factor) segs

let e2e ~segs ~states ~p50 =
  verdict_samples := List.map (fun s -> (s.raw_s, s.factor)) segs;
  let setup_s =
    Util.median (List.concat_map (fun s -> List.map (fun t -> t *. s.factor) s.setups) segs)
  in
  let verdict_s = Util.median (scaled (fun s -> s.raw_s) segs) in
  [
    ("setup_s", setup_s, "s");
    ("verdict_s", verdict_s, "s");
    ("states_per_s", float_of_int states /. verdict_s, "states/s");
    ("peak_rss_mb", !first_peak_rss_mb, "MB");
    ("check_p50_ms", p50, "ms");
  ]

let states_of = function
  | J.Obj kvs :: _ -> (
    match List.assoc_opt "states" kvs with Some (J.Int n) -> n | _ -> 0)
  | _ -> 0

(* ------------------------------------------------------------------ *)
(* End-to-end runs (tracing off).  Every time is scaled to the reference
   host speed.                                                          *)

(* One verdict is one search: the check latency is the verdict time. *)
let run_lin_e2e w =
  Calibrate.with_reference ~domains:w.W.jobs @@ fun reference ->
  let segs =
    repeat ~reference
      ~build:(fun () -> W.lin_setup ~seed:!seed w)
      (fun inst -> Util.time_ns (fun () -> fst (guarded (fun () -> W.lin_check inst))))
  in
  let obs = List.map (fun s -> s.result) segs in
  let metrics =
    e2e ~segs ~states:(states_of obs)
      ~p50:(Util.median (scaled (fun s -> s.raw_s *. 1e3) segs))
  in
  (obs, metrics, [ ("verdicts", List.length segs); ("checks", List.length segs) ], [])

(* One verdict is a sweep of 20,736 searches.  The check latency median
   is taken per sweep, and the run reports its median over the sweeps. *)
let run_census_e2e ck ops =
  Calibrate.with_reference ~domains:1 @@ fun reference ->
  let lat = ref [||] in
  let segs =
    repeat ~reference
      ~build:(fun () -> W.census_setup ~seed:!seed ~ck ~ops)
      (fun inst ->
        if Array.length !lat = 0 then lat := Array.make (Array.length inst.W.protocols) 0;
        let obs, dt =
          Util.time_ns (fun () ->
              fst (guarded (fun () -> (W.census_sweep inst ~lat:!lat, None))))
        in
        ((obs, Util.percentile 50. (List.map ms (Array.to_list !lat))), dt))
  in
  let obs = List.map (fun s -> fst s.result) segs in
  let metrics =
    e2e ~segs ~states:(states_of obs) ~p50:(Util.median (scaled (fun s -> snd s.result) segs))
  in
  ( obs, metrics,
    [ ("verdicts", List.length segs); ("checks", List.length segs * Array.length !lat) ],
    [] )

(* ------------------------------------------------------------------ *)
(* Traced runs: counters, GC, traced searches, layer replays.           *)

let run_counters =
  [ "fp.patches"; "fp.refolds"; "explore.source_skips"; "parallel.source_skips";
    "commute.diamonds"; "commute.memo_hits"; "parallel.steals"; "parallel.probes";
    "parallel.cas_retries"; "explore.searches"; "parallel.searches";
    "explore.states"; "explore.transitions"; "explore.dedup_hits" ]

(* Before/after deltas of the metrics registry and the GC around [f]. *)
let observed f =
  let c0 = Util.counters run_counters and g0 = Gc.quick_stat () in
  let r, dt = Util.time_ns f in
  let g1 = Gc.quick_stat () and c1 = Util.counters run_counters in
  (r, dt, Util.delta c0 c1, g0, g1)

let replay name f =
  Spans.with_span ("replay." ^ name) f

let collect_fingerprints ~max_crashes ~max_states root =
  let acc = ref [] in
  ignore
    (Explore.iter_reachable ~max_crashes ~max_states root ~f:(fun c _ ->
         acc := Fingerprint.hom_of_config c :: !acc));
  Array.of_list (List.rev !acc)

let replays (s : Layers.subject) ~rng ~claim_groups ~extra =
  let ws =
    Spans.with_span "replay.sample" (fun () ->
        Layers.walks ~rng ~max_crashes:s.max_crashes ~configs:3000 s.inits)
  in
  let sample = Layers.sample_of_walks ws in
  let results =
    [
      replay "step" (fun () -> Layers.step sample);
      replay "fingerprint" (fun () -> Layers.fingerprint ~max_crashes:s.max_crashes sample);
      replay "symmetry" (fun () -> Layers.symmetry s.symmetry sample);
      replay "source" (fun () -> Layers.source s sample);
      replay "search_setup" (fun () -> Layers.search_setup s sample);
      replay "claim_table" (fun () -> Layers.claim_table (claim_groups ()));
      replay "delta" (fun () -> Layers.delta ws);
    ]
    @ extra ()
  in
  ( List.concat_map (fun r -> r.Layers.metrics) results,
    List.concat_map (fun r -> r.Layers.failures) results )

type search_facts = {
  states : int;
  transitions : int;
  dedup : int;
  source_skips : int;
  frontier_bytes : int;
  searches : int;
  histories : int;
}

(* The per-layer table.  [layer] holds the replay numbers; [d] the
   counter deltas of the untraced search. *)
let per_layer ~(f : search_facts) ~layer ~d ~(g0 : Gc.stat) ~(g1 : Gc.stat)
    ~jobs ~crashes ~symmetry ~source_sets ~untraced_ns ~traced_ns ~callback_ns
    ~us_per_history ~speedup ~check_p99_ms =
  let l name = Option.value ~default:nan (List.assoc_opt name layer) in
  let fi = float_of_int in
  let tr = fi (max 1 f.transitions) in
  let claims = fi (f.transitions + 1) in
  let est_ns =
    (if source_sets then
       (l "source.us_per_state" *. 1e3 *. fi f.states)
       +. (l "symmetry.canonical_us" *. 1e3 *. fi f.dedup)
     else
       (l "step.ns_per_transition" *. fi f.transitions)
       +. (if crashes > 0 then l "step.crash_ns_per_state" *. fi f.states else 0.)
       +. (l "fingerprint.patch_ns" *. d "fp.patches")
       +. (l "fingerprint.refold_ns" *. d "fp.refolds")
       +. if symmetry then l "symmetry.canonical_us" *. 1e3 *. claims else 0.)
    +. (if jobs > 1 then
          (l "claim_table.claim_ns" *. claims)
          +. (l "delta.extend_ns" *. fi f.transitions)
          +. (l "delta.materialize_ns" *. fi f.states)
        else 0.)
    +. fi callback_ns
    +. (l "explore.search_setup_us" *. 1e3 *. fi f.searches)
  in
  let hits = d "commute.memo_hits" and diamonds = d "commute.diamonds" in
  layer
  @ (match us_per_history with
    | Some u -> [ ("linearizability.us_per_history", u) ]
    | None -> [])
  @ [
      ("step.transitions", fi f.transitions);
      ("fingerprint.patches", d "fp.patches");
      ("fingerprint.refolds", d "fp.refolds");
      ("source.skips", fi f.source_skips);
      ("commute.diamonds", diamonds);
      ("commute.memo_hit_ratio", Util.ratio hits (hits +. diamonds));
      ("explore.dedup_ratio", fi f.dedup /. tr);
      ("claim_table.run_probes_per_claim",
       if jobs > 1 then d "parallel.probes" /. claims else 0.);
      ("claim_table.cas_retries", d "parallel.cas_retries");
      ("delta.frontier_bytes", fi f.frontier_bytes);
      ("parallel.steals", d "parallel.steals");
      ("parallel.speedup_vs_seq", speedup);
      ("linearizability.histories", fi f.histories);
      ("linearizability.share", Util.ratio (fi callback_ns) (fi traced_ns));
      ("protocol_search.searches", fi f.searches);
      ("protocol_search.check_p99_ms", check_p99_ms);
      ("protocol_search.states_per_search", fi f.states /. fi (max 1 f.searches));
      ("gc.minor_words_per_transition", (g1.minor_words -. g0.minor_words) /. tr);
      ("gc.promoted_words_per_transition", (g1.promoted_words -. g0.promoted_words) /. tr);
      ("gc.major_collections", fi (g1.major_collections - g0.major_collections));
      ("gc.top_heap_mb", fi (g1.top_heap_words * (Sys.word_size / 8)) /. 1048576.);
      ("residual_share", 1. -. (est_ns /. (fi untraced_ns *. fi jobs)));
      ("trace.overhead", fi traced_ns /. fi untraced_ns);
    ]

(* Untraced searches run before and after the traced one; the trace
   overhead and the residual use the median of all of them, so neither
   heap warm-up nor one slow search favours a side. *)
let median_ns xs = int_of_float (Util.median (List.map float_of_int xs))

let us_per ns n = if n = 0 then 0. else float_of_int ns /. float_of_int n /. 1e3

let run_lin_traced w =
  let rng = Random.State.make [| !seed; 7 |] in
  let inst = Spans.with_span "setup" (fun () -> W.lin_setup ~seed:!seed w) in
  let (obs_u, stats_u), untraced_ns, d, g0, g1 =
    observed (fun () ->
        Spans.with_span "search.untraced" (fun () -> W.lin_check inst))
  in
  (* A parallel search's time varies more from one search to the next, so
     the parallel workload traces three searches and takes the median. *)
  let traced_reps = if w.W.jobs > 1 then 3 else 1 in
  let traced =
    List.init traced_reps (fun _ ->
        Util.time_ns (fun () ->
            Spans.with_span "search" (fun () -> W.lin_check_traced inst)))
  in
  let traced_ns = median_ns (List.map snd traced) in
  let untraced () =
    Spans.with_span "search.untraced" (fun () ->
        snd (Util.time_ns (fun () -> W.lin_check inst)))
  in
  let first_ns = untraced_ns in
  let histories, callback_ns =
    let n, ns = Spans.total "terminal_callback" in
    (n / traced_reps, ns / traced_reps)
  in
  let untraced_ns, speedup =
    if w.W.jobs <= 1 then (median_ns [ first_ns; untraced () ], 1.)
    else
      (* Base: the sequential engine on the same instance, in the same
         process, alternating with the parallel one. *)
      let seq = W.lin_setup ~seed:!seed { w with W.jobs = 1 } in
      let pairs =
        List.init 3 (fun _ ->
            ( Spans.with_span "search.sequential" (fun () ->
                  snd (Util.time_ns (fun () -> W.lin_check seq))),
              untraced () ))
      in
      let par = median_ns (first_ns :: List.map snd pairs) in
      (par, float_of_int (median_ns (List.map fst pairs)) /. float_of_int par)
  in
  let stats =
    match stats_u with
    | Some s -> s
    | None -> failwith "the untraced search gave no statistics"
  in
  let root = Config.make inst.W.store inst.W.programs in
  let subject =
    {
      Layers.inits = [| root |];
      max_crashes = w.W.crashes;
      reduction = inst.W.options.Search.reduction;
      symmetry = Subc_core.Alg5.symmetry inst.W.alg ~input_base:inst.W.base ();
    }
  in
  let layer, failures =
    replays subject ~rng
      ~claim_groups:(fun () ->
        [|
          collect_fingerprints ~max_crashes:w.W.crashes
            ~max_states:stats.Explore.states root;
        |])
      ~extra:(fun () -> [])
  in
  let facts =
    {
      states = stats.Explore.states;
      transitions = stats.Explore.transitions;
      dedup = stats.Explore.dedup_hits;
      source_skips = stats.Explore.source_skips;
      frontier_bytes = stats.Explore.frontier_bytes;
      searches = 1;
      histories;
    }
  in
  let metrics =
    per_layer ~f:facts ~layer ~d ~g0 ~g1 ~jobs:w.W.jobs ~crashes:w.W.crashes
      ~symmetry:w.W.full ~source_sets:w.W.full ~untraced_ns ~traced_ns
      ~callback_ns ~us_per_history:(Some (us_per callback_ns histories))
      ~speedup ~check_p99_ms:(ms untraced_ns)
  in
  (obs_u :: List.map (fun ((o, _), _) -> o) traced, metrics, failures)

(* alg5 k=3 histories: the census checks none of its own, so its
   linearizability row is this reference replay. *)
let reference_histories () =
  let inst =
    W.lin_setup ~seed:!seed { W.k = 3; crashes = 0; full = false; jobs = 1 }
  in
  let acc = ref [] in
  ignore
    (Explore.iter_terminals (Config.make inst.W.store inst.W.programs)
       ~f:(fun c t -> acc := (c, t) :: !acc));
  Layers.linearizability ~spec:inst.W.spec ~ops:inst.W.ops !acc

let run_census_traced ck ops =
  let rng = Random.State.make [| !seed; 7 |] in
  let inst =
    Spans.with_span "setup" (fun () -> W.census_setup ~seed:!seed ~ck ~ops)
  in
  let n = Array.length inst.W.protocols in
  let lat = Array.make n 0 in
  let obs_u, untraced_ns, d, g0, g1 =
    observed (fun () ->
        Spans.with_span "sweep.untraced" (fun () ->
            Spans.paused (fun () -> W.census_sweep inst ~lat)))
  in
  let obs_t, traced_ns =
    Util.time_ns (fun () ->
        Spans.with_span "sweep" (fun () ->
            W.census_sweep inst ~lat:(Array.make n 0)))
  in
  let untraced_ns =
    median_ns
      [
        untraced_ns;
        Spans.with_span "sweep.untraced" (fun () ->
            snd
              (Util.time_ns (fun () ->
                   Spans.paused (fun () ->
                       W.census_sweep inst ~lat:(Array.make n 0)))));
      ]
  in
  let roots = Array.init 64 (fun _ -> Layers.census_root ~rng ~k:ck ~ops) in
  let subject =
    {
      Layers.inits = roots;
      max_crashes = 0;
      reduction = Explore.no_reduction;
      symmetry = Symmetry.standard ~n:2 `Full;
    }
  in
  let layer, failures =
    replays subject ~rng
      ~claim_groups:(fun () ->
        Array.map
          (collect_fingerprints ~max_crashes:0 ~max_states:max_int)
          roots)
      ~extra:(fun () ->
        [ replay "linearizability" reference_histories ])
  in
  let di n = int_of_float (d n) in
  let facts =
    {
      states = di "explore.states";
      transitions = di "explore.transitions";
      dedup = di "explore.dedup_hits";
      source_skips = di "explore.source_skips";
      frontier_bytes = int_of_float (Util.counter "explore.frontier_bytes");
      searches = di "explore.searches";
      histories = 0;
    }
  in
  let metrics =
    per_layer ~f:facts ~layer ~d ~g0 ~g1 ~jobs:1 ~crashes:0 ~symmetry:false
      ~source_sets:false ~untraced_ns ~traced_ns ~callback_ns:0
      ~us_per_history:None ~speedup:1.
      ~check_p99_ms:(Util.percentile 99. (List.map ms (Array.to_list lat)))
  in
  ([ obs_u; obs_t ], metrics, failures)

(* ------------------------------------------------------------------ *)

let () =
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measurement budget");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer run");
      ("--spans", Arg.Set_string spans_file, "FILE where the traced run writes spans");
      ( "--calibrate",
        Arg.Unit (fun () -> Calibrate.serve (); exit 0),
        " serve reference-kernel timings, one per input line" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  let kind =
    match List.assoc_opt !workload W.all with
    | Some k -> k
    | None ->
      Printf.eprintf "unknown workload %S (known: %s)\n" !workload
        (String.concat ", " (List.map fst W.all));
      exit 2
  in
  let traced = !trace = 1 in
  if traced then
    Spans.start ~run:(Printf.sprintf "%s-seed%d-pid%d" !workload !seed (Unix.getpid ()));
  let obs, metrics, samples, failures =
    match (kind, traced) with
    | W.Lin w, false -> run_lin_e2e w
    | W.Census { ck; ops }, false -> run_census_e2e ck ops
    | W.Lin w, true ->
      let o, m, f = run_lin_traced w in
      (o, List.map (fun (n, v) -> (n, v, "")) m, [], f)
    | W.Census { ck; ops }, true ->
      let o, m, f = run_census_traced ck ops in
      (o, List.map (fun (n, v) -> (n, v, "")) m, [], f)
  in
  if traced then begin
    Spans.stop ();
    if !spans_file <> "" then Spans.write !spans_file
  end;
  print_endline
    (J.to_string
       (Obj
          [
            ("workload", Str !workload);
            ("seed", Int !seed);
            ("trace", Int !trace);
            ("ocaml_version", Str Sys.ocaml_version);
            ("observations", List obs);
            ("samples", Obj (List.map (fun (k, v) -> (k, J.Int v)) samples));
            ("verdict_samples_s", List (List.map (fun (r, _) -> J.Float r) !verdict_samples));
            ("factors", List (List.map (fun (_, f) -> J.Float f) !verdict_samples));
            ( "metrics",
              Obj
                (List.map
                   (fun (n, v, u) ->
                     (n, J.Obj [ ("value", Float v); ("unit", Str u) ]))
                   metrics) );
            ("replay_failures", List (List.map (fun s -> J.Str s) failures));
          ]))
