(* The observability layer: sinks, metrics, spans (lib/obs). *)
open Helpers
module Sink = Subc_obs.Sink
module Metrics = Subc_obs.Metrics
module Span = Subc_obs.Span

(* Every test that installs a sink must restore the null sink: the registry
   is process-global and other suites emit through it. *)
let with_memory_sink f =
  let sink, events = Sink.memory () in
  Sink.set sink;
  Fun.protect ~finally:(fun () -> Sink.set Sink.null) (fun () -> f events)

let sink_tests =
  [
    test "set installs the sink emit/flush use" (fun () ->
        with_memory_sink (fun events ->
            Sink.emit "alpha" [ ("n", Sink.Int 1) ];
            Sink.emit "beta" [];
            Alcotest.(check (list string))
              "events in order" [ "alpha"; "beta" ]
              (List.map (fun e -> e.Sink.name) (events ()))));
    test "null sink drops everything" (fun () ->
        with_memory_sink (fun events ->
            Sink.set Sink.null;
            Sink.emit "dropped" [];
            Alcotest.(check int) "no events" 0 (List.length (events ()))));
    test "memory sink preserves fields" (fun () ->
        with_memory_sink (fun events ->
            let fields =
              [
                ("i", Sink.Int 3); ("f", Sink.Float 1.5);
                ("s", Sink.Str "x"); ("b", Sink.Bool true);
              ]
            in
            Sink.emit "ev" fields;
            match events () with
            | [ e ] ->
              Alcotest.(check bool) "fields round-trip" true
                (e.Sink.fields = fields)
            | es -> Alcotest.failf "expected 1 event, got %d" (List.length es)));
  ]

let json_tests =
  [
    test "json_of_event renders one flat object" (fun () ->
        let ev =
          {
            Sink.name = "span";
            fields =
              [
                ("label", Sink.Str "explore"); ("n", Sink.Int 42);
                ("ratio", Sink.Float 0.5); ("ok", Sink.Bool false);
              ];
          }
        in
        Alcotest.(check string) "exact rendering"
          "{\"event\":\"span\",\"label\":\"explore\",\"n\":42,\"ratio\":0.5,\"ok\":false}"
          (Sink.json_of_event ev));
    test "integral floats keep a decimal point" (fun () ->
        Alcotest.(check string) "2.0 not 2" "2.0"
          (Sink.json_of_field (Sink.Float 2.0)));
    test "escape handles quotes, backslashes and control chars" (fun () ->
        Alcotest.(check string) "escaped" "a\\\"b\\\\c\\n\\t\\u0001"
          (Sink.escape "a\"b\\c\n\t\x01"));
    test "jsonl events parse back through the escape table" (fun () ->
        let ev = { Sink.name = "e\"v"; fields = [ ("k\n", Sink.Str "v\\") ] } in
        Alcotest.(check string) "escaped keys and values"
          "{\"event\":\"e\\\"v\",\"k\\n\":\"v\\\\\"}" (Sink.json_of_event ev));
  ]

(* A parallel run reports the claim-table probes and source skips under
   the [parallel.*] namespace.  [with_seq_threshold 0] hands the space to
   the worker domains after a short seeding pass, so their claims are
   what the counters see. *)
let alg5_k3 () =
  let open Subc_sim in
  let store, t = Subc_core.Alg5.alloc Store.empty ~k:3 () in
  Config.make store
    (List.init 3 (fun i -> Subc_core.Alg5.wrn t ~i (Value.Int (100 + i))))

let parallel_metrics () =
  let open Subc_sim in
  let config = alg5_k3 () in
  let options =
    Search.(
      default |> with_max_crashes 1 |> with_jobs 2 |> with_seq_threshold 0
      |> with_reduction Explore.source_only)
  in
  let value name = Metrics.value (Metrics.counter name) in
  let probes0 = value "parallel.probes"
  and skips0 = value "parallel.source_skips" in
  let stats = Search.iter_terminals ~options config ~f:(fun _ _ -> ()) in
  Alcotest.(check bool)
    "parallel.probes counted" true
    (value "parallel.probes" - probes0 > 0);
  Alcotest.(check int)
    "parallel.source_skips = stats.source_skips" stats.Explore.source_skips
    (value "parallel.source_skips" - skips0)

(* The one "parallel" event of a search names the visited table it
   built — exact keys win over a spill directory — and carries the
   worker count and the search's states. *)
let parallel_event_table () =
  let open Subc_sim in
  let config = alg5_k3 () in
  List.iter
    (fun (expected, paranoid, spill) ->
      with_memory_sink (fun events ->
          let stats =
            Parallel.iter_terminals ~max_crashes:1 ~paranoid ?spill
              ~seq_threshold:0 ~jobs:2 config
              ~f:(fun _ _ -> ())
          in
          match List.filter (fun e -> e.Sink.name = "parallel") (events ()) with
          | [ e ] ->
            let field name = List.assoc_opt name e.Sink.fields in
            Alcotest.(check bool)
              (expected ^ ": visited") true
              (field "visited" = Some (Sink.Str expected));
            Alcotest.(check bool)
              (expected ^ ": jobs") true
              (field "jobs" = Some (Sink.Int 2));
            Alcotest.(check bool)
              (expected ^ ": states") true
              (field "states" = Some (Sink.Int stats.Explore.states))
          | evs ->
            Alcotest.failf "%s: %d parallel events, expected 1" expected
              (List.length evs)))
    [
      ("lockfree", false, None);
      ("spill", false, Some "obs-spill.tmp");
      ("sharded", true, None);
      ("sharded", true, Some "obs-spill.tmp");
    ]

(* Search picks its engine from [jobs] and [spill] alone: one worker and
   no spill directory run the sequential explorer (no parallel search is
   counted, even at seq_threshold 0); a spill directory selects the
   parallel engine even at one worker, as do two workers. *)
let search_dispatch () =
  let open Subc_sim in
  let config = alg5_k3 () in
  let base = Search.(default |> with_max_crashes 1 |> with_seq_threshold 0) in
  let searches () = Metrics.value (Metrics.counter "parallel.searches") in
  List.iter
    (fun (label, options, expected) ->
      let before = searches () in
      ignore (Search.iter_terminals ~options config ~f:(fun _ _ -> ()));
      Alcotest.(check int) label expected (searches () - before))
    [
      ("jobs 1: sequential", base, 0);
      ("jobs 1 + spill: parallel", Search.with_spill "obs-dispatch.tmp" base, 1);
      ("jobs 2: parallel", Search.with_jobs 2 base, 1);
    ]

let metrics_tests =
  [
    test "counters are interned by name" (fun () ->
        Metrics.reset ();
        let a = Metrics.counter "obs.test.c" in
        let b = Metrics.counter "obs.test.c" in
        Metrics.incr a;
        Metrics.add b 4;
        Alcotest.(check int) "both handles hit one cell" 5 (Metrics.value a);
        Alcotest.(check (option (float 0.0))) "find sees it" (Some 5.0)
          (Metrics.find "obs.test.c"));
    test "gauges and snapshot" (fun () ->
        (* The registry is process-global (other modules intern counters at
           load time), so assert membership, not the whole snapshot. *)
        Metrics.set_gauge "obs.test.g" 2.5;
        Metrics.incr (Metrics.counter "obs.test.c2");
        let snap = Metrics.snapshot () in
        Alcotest.(check (option (float 0.0))) "gauge present" (Some 2.5)
          (List.assoc_opt "obs.test.g" snap);
        Alcotest.(check (option (float 0.0))) "counter present" (Some 1.0)
          (List.assoc_opt "obs.test.c2" snap);
        Alcotest.(check (list string)) "sorted by name"
          (List.sort compare (List.map fst snap))
          (List.map fst snap));
    test "reset zeroes counters and drops gauges" (fun () ->
        let c = Metrics.counter "obs.test.c3" in
        Metrics.incr c;
        Metrics.set_gauge "obs.test.g3" 1.0;
        Metrics.reset ();
        Alcotest.(check int) "counter zeroed" 0 (Metrics.value c);
        Alcotest.(check (option (float 0.0))) "gauge dropped" None
          (Metrics.find "obs.test.g3"));
    test "parallel runs report probes and source skips" parallel_metrics;
    test "parallel event names the visited table" parallel_event_table;
    test "Search dispatches on jobs and spill" search_dispatch;
  ]

let span_tests =
  [
    test "time returns the thunk's value and accumulates" (fun () ->
        Span.reset ();
        Alcotest.(check int) "value through" 7
          (Span.time "obs.test.span" (fun () -> 7));
        let t1 =
          match Span.total "obs.test.span" with
          | Some t -> t
          | None -> Alcotest.fail "no total recorded"
        in
        Alcotest.(check bool) "non-negative" true (t1 >= 0.0);
        ignore (Span.time "obs.test.span" (fun () -> 0));
        let t2 = Option.get (Span.total "obs.test.span") in
        Alcotest.(check bool) "accumulation is monotone" true (t2 >= t1));
    test "a span is recorded even when the thunk raises" (fun () ->
        Span.reset ();
        (try Span.time "obs.test.raise" (fun () -> raise Exit)
         with Exit -> ());
        Alcotest.(check bool) "total present" true
          (Span.total "obs.test.raise" <> None));
    test "time emits a span event on the current sink" (fun () ->
        with_memory_sink (fun events ->
            ignore (Span.time "obs.test.emit" (fun () -> ()));
            match events () with
            | [ { Sink.name = "span"; fields } ] ->
              Alcotest.(check bool) "label field" true
                (List.assoc_opt "label" fields
                = Some (Sink.Str "obs.test.emit"))
            | es ->
              Alcotest.failf "expected one span event, got %d"
                (List.length es)));
  ]

let suite =
  [
    ("obs.sink", sink_tests);
    ("obs.json", json_tests);
    ("obs.metrics", metrics_tests);
    ("obs.span", span_tests);
  ]
