(* The workloads: what each sets up, the search call it times, and the
   observation (verdict and counts) that run.py checks against
   expected.json.  BENCHMARK.json gates three of them.  lin-crash-k4, the
   sequential twin of lin-crash-k4-j2, is not gated: its raw one-domain
   verdict time followed the host's speed swings past the 0.25 bound,
   and a fourth workload would leave no time for 40 s runs.
   test_seeds.py still runs it, to check that jobs=2 gives its counts.

   The seed reaches the program only through the inputs generated here:
   it shifts the process input values of the alg5 harness and orders the
   census protocols.  Neither changes a verdict or a count. *)

open Subc_sim
module Lin = Subc_check.Linearizability
module Verdict = Subc_check.Verdict
module Ps = Subc_classic.Protocol_search

type lin = { k : int; crashes : int; full : bool; jobs : int }
type kind = Lin of lin | Census of { ck : int; ops : int }

let all =
  [
    ("lin-crash-k4", Lin { k = 4; crashes = 1; full = false; jobs = 1 });
    ("lin-symfull-k5", Lin { k = 5; crashes = 0; full = true; jobs = 1 });
    ("lin-crash-k4-j2", Lin { k = 4; crashes = 1; full = false; jobs = 2 });
    ("census-k3", Census { ck = 3; ops = 2 });
  ]

let input_base seed = 100 + (10 * (abs seed mod 1000))

(* ---- alg5 linearizability against 1sWRN (the CLI [check] path) ---- *)

type lin_instance = {
  alg : Subc_core.Alg5.t;
  base : int;
  store : Store.t;
  programs : Value.t Program.t list;
  ops : int -> Op.t;
  spec : Obj_model.t;
  options : Search.options;
}

let lin_setup ~seed w =
  let base = input_base seed in
  let store, alg = Subc_core.Alg5.alloc Store.empty ~k:w.k () in
  let programs =
    List.init w.k (fun i -> Subc_core.Alg5.wrn alg ~i (Value.Int (base + i)))
  in
  let ops i = Op.make "wrn" [ Value.Int i; Value.Int (base + i) ] in
  let spec = Subc_objects.One_shot_wrn.model ~k:w.k in
  let reduction =
    if w.full then
      Explore.full_reduction (Subc_core.Alg5.symmetry alg ~input_base:base ())
    else Explore.no_reduction
  in
  let options =
    Search.default
    |> Search.with_max_crashes w.crashes
    |> Search.with_reduction reduction
    |> Search.with_jobs w.jobs
  in
  { alg; base; store; programs; ops; spec; options }

let lin_observation ~verdict ~histories (s : Explore.stats) : Util.Json.t =
  Obj
    [
      ("verdict", Str verdict);
      ("states", Int s.Explore.states);
      ("transitions", Int s.Explore.transitions);
      ("terminals", Int s.Explore.terminals);
      ("histories", Int histories);
    ]

(* The untraced search: exactly the library checker the CLI calls. *)
let lin_check inst =
  let v =
    Lin.check_harness ~options:inst.options inst.store ~programs:inst.programs
      ~ops:inst.ops ~spec:inst.spec
  in
  let st = Verdict.stats v in
  let histories =
    int_of_float
      (Option.value ~default:0. (List.assoc_opt "histories" st.Verdict.metrics))
  in
  match st.Verdict.explore with
  | Some s ->
    (lin_observation ~verdict:(Verdict.status_string v) ~histories s, Some s)
  | None -> (Util.Json.Obj [ ("verdict", Str (Verdict.status_string v)) ], None)

(* The traced search: the same checker spelled out from its public parts,
   so that every terminal callback (history + linearizability check) gets
   a span of its own. *)
let lin_check_traced inst =
  let config = Config.make inst.store inst.programs in
  let refuted = ref false and histories = ref 0 in
  let on_terminal final trace =
    Spans.with_span "terminal_callback" @@ fun () ->
    if not !refuted then begin
      incr histories;
      let h = Lin.history ~ops:inst.ops final trace in
      if Lin.check ~spec:inst.spec h = None then refuted := true
    end
  in
  let s = Search.iter_terminals ~options:inst.options config ~f:on_terminal in
  let verdict =
    if !refuted then "refuted" else if s.Explore.limited then "limited"
    else "proved"
  in
  (lin_observation ~verdict ~histories:!histories s, s)

(* ---- census of a protocol class (Lemma 38 / E14) ---- *)

type census_instance = { ck : int; protocols : Ps.protocol array }

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

let census_setup ~seed ~ck ~ops =
  let protocols = Array.of_list (Ps.enumerate ~k:ck ~ops) in
  shuffle (Random.State.make [| seed |]) protocols;
  { ck; protocols }

let census_counters =
  [ "explore.states"; "explore.transitions"; "explore.searches" ]

(* One sweep: every protocol checked in turn, each search timed on its
   own.  [lat.(i)] receives the latency of the i-th search in ns. *)
let census_sweep inst ~lat =
  let before = Util.counters census_counters in
  let solving = ref 0 in
  Array.iteri
    (fun i p ->
      let t0 = Util.now_ns () in
      let ok =
        Spans.with_span "search" (fun () ->
            Ps.solves_consensus ~k:inst.ck p)
      in
      lat.(i) <- Util.now_ns () - t0;
      if ok then incr solving)
    inst.protocols;
  let after = Util.counters census_counters in
  let d n = int_of_float (Util.delta before after n) in
  Util.Json.Obj
    [
      ("total", Int (Array.length inst.protocols));
      ("solving", Int !solving);
      ("states", Int (d "explore.states"));
      ("transitions", Int (d "explore.transitions"));
      ("searches", Int (d "explore.searches"));
    ]
