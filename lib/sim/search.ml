(* One record for every search knob, replacing the nine-optional-arg
   sprawl that every explorer and checker entry point used to duplicate.
   The two engines ({!Explore}, {!Parallel}) keep their low-level
   labelled interfaces; this module is the front door that dispatches
   between them on [jobs] / [spill]. *)

type options = {
  max_states : int;
  max_depth : int;
  max_crashes : int;
  max_recoveries : int;
  deadline : float option;
  expected_states : int option;
  reduction : Explore.reduction;
  paranoid : bool;
  jobs : int;
  spill : string option;
  seq_threshold : int option;
}

let default =
  {
    max_states = 5_000_000;
    max_depth = 10_000;
    max_crashes = 0;
    max_recoveries = 0;
    deadline = None;
    expected_states = None;
    reduction = Explore.no_reduction;
    paranoid = false;
    jobs = 1;
    spill = None;
    seq_threshold = None;
  }

let with_max_states n o = { o with max_states = n }
let with_max_depth n o = { o with max_depth = n }
let with_max_crashes n o = { o with max_crashes = n }
let with_max_recoveries n o = { o with max_recoveries = n }
let with_deadline secs o = { o with deadline = Some secs }
let with_expected_states n o = { o with expected_states = Some n }
let with_reduction r o = { o with reduction = r }

let with_independence i o =
  { o with reduction = Explore.with_independence i o.reduction }

let with_paranoid b o = { o with paranoid = b }
let with_jobs n o = { o with jobs = max 1 n }
let with_spill dir o = { o with spill = Some dir }
let with_seq_threshold n o = { o with seq_threshold = Some (max 0 n) }

let pp ppf o =
  Format.fprintf ppf
    "max-states=%d max-depth=%d crashes<=%d recoveries<=%d%s jobs=%d%s \
     paranoid=%b %a"
    o.max_states o.max_depth o.max_crashes o.max_recoveries
    (match o.deadline with
    | None -> ""
    | Some s -> Printf.sprintf " deadline=%.3gs" s)
    o.jobs
    (match o.spill with
    | None -> ""
    | Some dir -> Printf.sprintf " spill=%s" dir)
    o.paranoid Explore.pp_reduction o.reduction

(* Two engines: the sequential reference explorer, and the parallel one
   whenever more than one domain or spilling is asked for (even at
   [jobs = 1], a spilled search gets its out-of-core table). *)
let sequential o = o.jobs <= 1 && o.spill = None

let iter_terminals ?(options = default) config ~f =
  let o = options in
  if sequential o then
    Explore.iter_terminals ~max_states:o.max_states ~max_depth:o.max_depth
      ~max_crashes:o.max_crashes ~max_recoveries:o.max_recoveries
      ?deadline:o.deadline ?expected_states:o.expected_states
      ~reduction:o.reduction ~paranoid:o.paranoid config ~f
  else
    Parallel.iter_terminals ~max_states:o.max_states
      ~max_depth:o.max_depth ~max_crashes:o.max_crashes
      ~max_recoveries:o.max_recoveries ?deadline:o.deadline
      ?expected_states:o.expected_states ~reduction:o.reduction
      ~paranoid:o.paranoid ?seq_threshold:o.seq_threshold
      ?spill:o.spill ~jobs:o.jobs config ~f

let iter_reachable ?(options = default) config ~f =
  let o = options in
  if sequential o then
    Explore.iter_reachable ~max_states:o.max_states ~max_depth:o.max_depth
      ~max_crashes:o.max_crashes ~max_recoveries:o.max_recoveries
      ?deadline:o.deadline ?expected_states:o.expected_states
      ~reduction:o.reduction ~paranoid:o.paranoid config ~f
  else
    Parallel.iter_reachable ~max_states:o.max_states
      ~max_depth:o.max_depth ~max_crashes:o.max_crashes
      ~max_recoveries:o.max_recoveries ?deadline:o.deadline
      ?expected_states:o.expected_states ~reduction:o.reduction
      ~paranoid:o.paranoid ?seq_threshold:o.seq_threshold
      ?spill:o.spill ~jobs:o.jobs config ~f

let find_terminal ?(options = default) config ~violates =
  let o = options in
  if sequential o then
    Explore.find_terminal ~max_states:o.max_states ~max_depth:o.max_depth
      ~max_crashes:o.max_crashes ~max_recoveries:o.max_recoveries
      ?deadline:o.deadline ?expected_states:o.expected_states
      ~reduction:o.reduction ~paranoid:o.paranoid config ~violates
  else
    Parallel.find_terminal ~max_states:o.max_states
      ~max_depth:o.max_depth ~max_crashes:o.max_crashes
      ~max_recoveries:o.max_recoveries ?deadline:o.deadline
      ?expected_states:o.expected_states ~reduction:o.reduction
      ~paranoid:o.paranoid ?seq_threshold:o.seq_threshold
      ?spill:o.spill ~jobs:o.jobs config ~violates

let check_terminals ?(options = default) config ~ok =
  match find_terminal ~options config ~violates:(fun c -> not (ok c)) with
  | None, stats -> Ok stats
  | Some (c, trace), stats -> Error (c, trace, stats)

(* Cycle hunting needs the sequential DFS stack discipline whatever
   [jobs] says; the options record still supplies every other knob. *)
let find_cycle ?(options = default) config =
  let o = options in
  Explore.find_cycle ~max_states:o.max_states ~max_depth:o.max_depth
    ~max_crashes:o.max_crashes ~max_recoveries:o.max_recoveries
    ?deadline:o.deadline ?expected_states:o.expected_states
    ~reduction:o.reduction ~paranoid:o.paranoid config
