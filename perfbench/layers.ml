(* Layer replays: each layer's public functions, called from outside on a
   seeded sample of the workload's own configurations and timed in bulk
   (one clock read per pass, median of several passes), so a per-call
   clock read never dominates a sub-microsecond operation.

   Every replay keeps a correctness check on what it replays.  A failed
   check is reported as a failure message, and the layer's number is
   withheld. *)

open Subc_sim

type subject = {
  inits : Config.t array;  (** the search roots (one per census protocol) *)
  max_crashes : int;
  reduction : Explore.reduction;  (** the workload's own reduction *)
  symmetry : Symmetry.t;  (** the group [canonical_key] is replayed under *)
}

type result = { metrics : (string * float) list; failures : string list }

let passes = 5

(* Median wall time of [passes] runs of [f], in ns. *)
let bench f =
  Util.median
    (List.init passes (fun _ -> float_of_int (snd (Util.time_ns f))))

let successors ~max_crashes c =
  let steps =
    List.concat_map
      (fun i -> List.map (fun (c', _, sl) -> (c', sl)) (Step.step_slots c i))
      (Config.running c)
  in
  if Config.n_crashed c < max_crashes then
    steps
    @ List.map (fun (c', _, sl) -> (c', sl)) (Step.crash_successors_slots c)
  else steps

let pick rng = function
  | [] -> None
  | l -> Some (List.nth l (Random.State.int rng (List.length l)))

(* Seeded random walks from the roots to terminals: a sample of the
   reachable set covering every depth.  Each element is the path of one
   walk, root first, with the slots of the transition that entered each
   configuration. *)
let walks ~rng ~max_crashes ~configs inits =
  let rec walk c acc =
    match pick rng (successors ~max_crashes c) with
    | None -> List.rev acc
    | Some (c', sl) -> walk c' ((c', sl) :: acc)
  in
  let out = ref [] and n = ref 0 and r = ref 0 in
  while !n < configs do
    let root = inits.(!r mod Array.length inits) in
    incr r;
    let path = walk root [] in
    n := !n + 1 + List.length path;
    out := (root, path) :: !out
  done;
  List.rev !out

let sample_of_walks ws =
  Array.of_list (List.concat_map (fun (root, path) -> root :: List.map fst path) ws)

(* ---- Step ---- *)

let step sample =
  let pairs =
    Array.of_list
      (List.concat_map
         (fun c -> List.map (fun i -> (c, i)) (Config.running c))
         (Array.to_list sample))
  in
  let live = Array.of_list (List.filter (fun c -> Config.running c <> []) (Array.to_list sample)) in
  let produced = ref 0 in
  Array.iter (fun (c, i) -> produced := !produced + List.length (Step.step_slots c i)) pairs;
  let t_step =
    bench (fun () -> Array.iter (fun (c, i) -> ignore (Step.step_slots c i)) pairs)
  in
  let t_crash =
    bench (fun () -> Array.iter (fun c -> ignore (Step.crash_successors_slots c)) live)
  in
  {
    metrics =
      [
        ("step.ns_per_transition", t_step /. float_of_int (max 1 !produced));
        ("step.crash_ns_per_state", t_crash /. float_of_int (max 1 (Array.length live)));
      ];
    failures = [];
  }

(* ---- Fingerprint: patch vs re-fold ---- *)

let fingerprint ~max_crashes sample =
  let trans =
    Array.of_list
      (List.concat_map
         (fun c ->
           let fp = Fingerprint.hom_of_config c in
           List.map (fun (c', sl) -> (c, fp, sl, c')) (successors ~max_crashes c))
         (Array.to_list sample))
  in
  let n = float_of_int (max 1 (Array.length trans)) in
  let patched = Array.map (fun (c, fp, sl, c') -> Explore.patched_fingerprint c fp sl c') trans in
  let bad = ref 0 in
  Array.iteri
    (fun i (_, _, _, c') ->
      if not (Fingerprint.equal patched.(i) (Fingerprint.hom_of_config c')) then incr bad)
    trans;
  let t_patch =
    bench (fun () ->
        Array.iter (fun (c, fp, sl, c') -> ignore (Explore.patched_fingerprint c fp sl c')) trans)
  in
  let t_refold =
    bench (fun () -> Array.iter (fun (_, _, _, c') -> ignore (Fingerprint.hom_of_config c')) trans)
  in
  if !bad > 0 then
    {
      metrics = [ ("fingerprint.refold_ns", t_refold /. n) ];
      failures =
        [ Printf.sprintf "fingerprint: %d of %d patched fingerprints differ from the re-fold" !bad
            (Array.length trans) ];
    }
  else
    { metrics = [ ("fingerprint.patch_ns", t_patch /. n); ("fingerprint.refold_ns", t_refold /. n) ];
      failures = [] }

(* ---- Symmetry ---- *)

let symmetry sym sample =
  let keys = Array.map (fun c -> fst (Symmetry.canonical_key sym c)) sample in
  let bad = ref 0 in
  Array.iteri
    (fun i c -> if not (Value.equal keys.(i) (fst (Symmetry.canonical_key sym c))) then incr bad)
    sample;
  let t = bench (fun () -> Array.iter (fun c -> ignore (Symmetry.canonical_key sym c)) sample) in
  if !bad > 0 then
    { metrics = [];
      failures = [ Printf.sprintf "symmetry: canonical_key changed between calls on %d configurations" !bad ] }
  else
    { metrics = [ ("symmetry.canonical_us", t /. float_of_int (max 1 (Array.length sample)) /. 1e3) ];
      failures = [] }

(* ---- Explore: source-set key + expansion ---- *)

let source s sample =
  let expand cache c =
    let _, pi, sleep = Explore.source_key s.reduction ~max_crashes:s.max_crashes c ~sleep:[] in
    Explore.source_successors cache s.reduction ~pi ~max_crashes:s.max_crashes ~max_recoveries:0 c ~sleep
  in
  let first =
    let cache = Explore.commute_cache () in
    Array.map (fun c -> snd (expand cache c)) sample
  in
  let cache = Explore.commute_cache () in
  let bad = ref 0 in
  Array.iteri (fun i c -> if snd (expand cache c) <> first.(i) then incr bad) sample;
  let t =
    bench (fun () ->
        let cache = Explore.commute_cache () in
        Array.iter (fun c -> ignore (expand cache c)) sample)
  in
  if !bad > 0 then
    { metrics = []; failures = [ Printf.sprintf "source: expansion of %d configurations not deterministic" !bad ] }
  else
    { metrics = [ ("source.us_per_state", t /. float_of_int (max 1 (Array.length sample)) /. 1e3) ];
      failures = [] }

(* ---- Explore: fixed cost of one search ---- *)

let search_setup s sample =
  match List.find_opt Config.is_terminal (Array.to_list sample) with
  | None -> { metrics = []; failures = [ "search setup: no terminal configuration in the sample" ] }
  | Some c ->
    let calls = 200 in
    let run () =
      Explore.check_terminals ~max_crashes:s.max_crashes ~reduction:s.reduction c
        ~ok:(fun _ -> true)
    in
    let ok = match run () with Ok st -> st.Explore.states = 1 | Error _ -> false in
    let t = bench (fun () -> for _ = 1 to calls do ignore (run ()) done) in
    if ok then
      { metrics = [ ("explore.search_setup_us", t /. float_of_int calls /. 1e3) ]; failures = [] }
    else { metrics = []; failures = [ "search setup: a terminal root did not give a one-state search" ] }

(* ---- Claim_table at default sizing ---- *)

(* [groups] are the fingerprints of whole searches, in visiting order;
   each group is claimed into a fresh table, as each search gets one. *)
let claim_table groups =
  let claims = Array.fold_left (fun n g -> n + Array.length g) 0 groups in
  let run () =
    let st = Claim_table.fresh_opstats () in
    let fresh = ref 0 in
    let t =
      Array.fold_left
        (fun t g ->
          let tbl = Claim_table.create `Two_lane in
          let (), dt =
            Util.time_ns (fun () ->
                Array.iter
                  (fun (fp : Fingerprint.t) ->
                    match Claim_table.claim tbl st ~h1:fp.h1 ~h2:fp.h2 with
                    | `Fresh -> incr fresh
                    | `Dup -> ())
                  g)
          in
          t + dt)
        0 groups
    in
    (t, st.Claim_table.probes, !fresh)
  in
  let results = List.init passes (fun _ -> run ()) in
  let _, probes, fresh = List.hd results in
  let t = Util.median (List.map (fun (t, _, _) -> float_of_int t) results) in
  let distinct =
    Array.fold_left
      (fun n g ->
        let h = Hashtbl.create (Array.length g) in
        Array.iter (fun fp -> Hashtbl.replace h fp ()) g;
        n + Hashtbl.length h)
      0 groups
  in
  let c = float_of_int (max 1 claims) in
  if fresh <> distinct then
    { metrics = [];
      failures = [ Printf.sprintf "claim table: %d fresh claims for %d distinct fingerprints" fresh distinct ] }
  else
    { metrics = [ ("claim_table.claim_ns", t /. c); ("claim_table.probes_per_claim", float_of_int probes /. c) ];
      failures = [] }

(* ---- Config.Delta: extend along walks, materialize, compare ---- *)

let same_config (a : Config.t) (b : Config.t) =
  Array.length a.procs = Array.length b.procs
  && Array.for_all2 ( == ) a.procs b.procs
  && Store.diff a.store b.store = []
  && Value.equal (Config.key a) (Config.key b)

let delta ws =
  let ws = Array.of_list (List.map (fun (root, path) -> (root, Array.of_list path)) ws) in
  let patches =
    Array.map
      (fun (_, path) ->
        Array.map
          (fun ((c' : Config.t), (sl : Step.slots)) ->
            ([ (sl.sl_proc, c'.procs.(sl.sl_proc)) ], sl.sl_store))
          path)
      ws
  in
  let extend_all () =
    Array.mapi
      (fun w (root, _) ->
        let node = ref (Config.Delta.root root) in
        Array.map
          (fun (proc_sets, store_sets) ->
            node := Config.Delta.extend !node ~proc_sets ~store_sets;
            !node)
          patches.(w))
      ws
  in
  let nodes = extend_all () in
  let n = float_of_int (max 1 (Array.fold_left (fun n p -> n + Array.length p) 0 nodes)) in
  let bad = ref 0 in
  Array.iteri
    (fun w (_, path) ->
      Array.iteri
        (fun i (c', _) -> if not (same_config (Config.Delta.materialize nodes.(w).(i)) c') then incr bad)
        path)
    ws;
  let t_extend = bench (fun () -> ignore (extend_all ())) in
  let t_mat =
    bench (fun () -> Array.iter (Array.iter (fun d -> ignore (Config.Delta.materialize d))) nodes)
  in
  if !bad > 0 then
    { metrics = [];
      failures = [ Printf.sprintf "delta: %d materialized configurations differ from the eager child" !bad ] }
  else
    { metrics = [ ("delta.extend_ns", t_extend /. n); ("delta.materialize_ns", t_mat /. n) ]; failures = [] }

(* ---- Linearizability on recorded histories ---- *)

let linearizability ~spec ~ops histories_of =
  let hs = Array.of_list histories_of in
  let bad = ref 0 in
  Array.iter
    (fun (final, trace) ->
      if Subc_check.Linearizability.(check ~spec (history ~ops final trace)) = None then incr bad)
    hs;
  let t =
    bench (fun () ->
        Array.iter
          (fun (final, trace) ->
            ignore Subc_check.Linearizability.(check ~spec (history ~ops final trace)))
          hs)
  in
  if !bad > 0 then
    { metrics = []; failures = [ Printf.sprintf "linearizability: %d histories refuted" !bad ] }
  else
    { metrics = [ ("linearizability.us_per_history", t /. float_of_int (max 1 (Array.length hs)) /. 1e3) ];
      failures = [] }

(* ---- Census-class configurations ----

   The census protocols are abstract outside [Protocol_search], so the
   replays rebuild configurations of the same class: two processes, one
   WRN_k object and two announcement registers; each process announces,
   performs [ops] WRN calls at chosen indices, then decides its own value
   or the other's announcement by its response pattern. *)

let census_root ~rng ~k ~ops =
  let open Program.Syntax in
  let module Register = Subc_objects.Register in
  let store, wrn = Store.alloc Store.empty (Subc_objects.Wrn.model ~k) in
  let store, ann = Store.alloc_many store 2 Register.model_bot in
  let ann = Array.of_list ann in
  let program me v =
    let indices = Array.init ops (fun _ -> Random.State.int rng k) in
    let own = Array.init (1 lsl ops) (fun _ -> Random.State.bool rng) in
    let* () = Register.write ann.(me) v in
    let rec steps i pattern =
      if i >= ops then
        if own.(pattern) then Program.return v else Register.read ann.(1 - me)
      else
        let* r = Subc_objects.Wrn.wrn wrn indices.(i) (Value.Int (1000 + me)) in
        steps (i + 1) (pattern lor if Value.is_bot r then 0 else 1 lsl i)
    in
    steps 0 0
  in
  Config.make store [ program 0 (Value.Int 0); program 1 (Value.Int 1) ]
