(* Lock-free open-addressed claim table for the parallel explorer.

   A claim table answers one question, once per state: "am I the first
   domain to reach this fingerprint?"  It supports exactly one operation,
   [claim], which returns [`Fresh] to exactly one caller per distinct key
   and [`Dup] to every other — claim-once, with no mutex anywhere on the
   path.

   {b Slot encoding.}  Each slot is two [int Atomic.t] words.  A
   stored lane keeps the low 62 bits of its fingerprint lane and forces
   the sign bit on ([encode] below), so a live word is always negative —
   distinguishable from [empty] (0) and from the [dead] tombstone (1)
   without a separate presence bit.  Dropping one bit per lane leaves an
   effective 124-bit key (collision odds ~2^-124 per pair; the birthday
   bound is surfaced through [Explore.stats.collision_bound]).

   {b Two-lane claim protocol.}  Lane 1 is the claim word: CASing it from
   [empty] wins the slot.  Lane 2 is published immediately after; until
   then it reads [empty] and probers spin ([pending] lasts two
   instructions of the claimer).  A probe that matches lane 1 but not
   lane 2 — a genuine 62-bit lane-1 collision between distinct keys, or a
   tombstone — continues down the probe chain.

   {b Growth without a rehash stall.}  The table is a chain of segments
   (newest first), each a fixed power-of-two array.  Nothing is ever
   rehashed or moved: when the newest segment's occupancy crosses its
   limit, a grower appends a doubled segment at the head (serialized by a
   mutex — growth is rare and off the hot path; claims never take it).
   A claim probes the older segments read-only, then claims in the head
   segment, then {e validates} that the head is unchanged; if a new
   segment was published in the window, the claimer tombstones its own
   entry and retries from scratch.

   {b Why claim-once holds (sketch; DESIGN.md has the full argument).}
   Two [`Fresh] answers for one key would need two validated CASes.  In
   the same segment the second CAS on the probed slot fails and the
   probe re-reads the winner's entry ([`Dup]).  Across segments, suppose
   A validated in segment S1 and B claimed in a newer head S2: B's
   snapshot of the segment list contains S2, so B's read of the list
   follows the publication of S2 in the SC order, which follows A's
   validation read (A saw a list without S2), which follows A's entry
   write — so B's read-only probe of S1 sees A's entry and returns
   [`Dup], a contradiction.  A tombstoned (aborted) entry can earn other
   claimers a [`Dup] answer, but its owner retries until it claims or
   meets a validated entry, so exactly one [`Fresh] per key survives;
   growth is finite, so the retries terminate. *)

let empty = 0
let dead = 1

let[@inline] encode h = h lor min_int

(* One well-mixed word out of both lanes: the spill table's 62-bit key. *)
let fold_key h1 h2 =
  let x = h1 + (h2 * 0x27D4EB2F165667C5) in
  let x = (x lxor (x lsr 31)) * 0x2545F4914F6CDD1D in
  x lxor (x lsr 29)

type segment = {
  mask : int;
  lane1 : int Atomic.t array;
  lane2 : int Atomic.t array;
  count : int Atomic.t; (* successful claims incl. tombstoned; occupancy *)
  limit : int; (* occupancy that triggers growth; margin = cap/4 slots
                  absorbs the claimers already past the check *)
}

type t = {
  segments : segment list Atomic.t; (* head = newest = claim target *)
  grow_lock : Mutex.t;
}

(* Per-claim instrumentation, filled by the caller's domain — no shared
   counters on the hot path. *)
type opstats = { mutable probes : int; mutable cas_retries : int }

let fresh_opstats () = { probes = 0; cas_retries = 0 }

let make_segment cap =
  {
    mask = cap - 1;
    lane1 = Array.init cap (fun _ -> Atomic.make empty);
    lane2 = Array.init cap (fun _ -> Atomic.make empty);
    count = Atomic.make 0;
    limit = cap - (cap / 4);
  }

(* A segment holds 3/4 of its capacity before growth triggers, so an
   expectation of [n] live entries needs a capacity of 4n/3; the cap
   keeps a loose expectation from pre-allocating hundreds of MB. *)
let capacity_for_expectation n = min (1 lsl 21) (max 64 (n + (n / 3)))

let create ?initial_capacity ?expected_states `Two_lane =
  let initial_capacity =
    match (initial_capacity, expected_states) with
    | Some c, _ -> c
    | None, Some n -> capacity_for_expectation n
    | None, None -> 4096
  in
  let cap =
    let rec up c = if c >= initial_capacity then c else up (c * 2) in
    up 64
  in
  { segments = Atomic.make [ make_segment cap ]; grow_lock = Mutex.create () }

(* Spin until the claimer of slot [i] publishes lane 2 (two instructions
   away); returns the published word ([dead] if the claim was aborted). *)
let rec lane2_value seg i =
  let b = Atomic.get seg.lane2.(i) in
  if b = empty then begin
    Domain.cpu_relax ();
    lane2_value seg i
  end
  else b

(* Read-only probe of an older segment: [true] iff a live entry for
   (w1, w2) is present.  Stops at the first empty slot — older segments
   receive no new claims except in-flight ones that will abort. *)
let probe_ro st (seg : segment) w1 w2 =
  let cap = seg.mask + 1 in
  let rec go i remaining =
    if remaining = 0 then false
    else begin
      st.probes <- st.probes + 1;
      let a = Atomic.get seg.lane1.(i) in
      if a = empty then false
      else if a = w1 && lane2_value seg i = w2 then true
      else go ((i + 1) land seg.mask) (remaining - 1)
    end
  in
  go (w1 land seg.mask) cap

(* Claim in the head segment. *)
let claim_in_head st (seg : segment) w1 w2 =
  let cap = seg.mask + 1 in
  let rec go i remaining =
    if remaining = 0 then `Full
    else begin
      st.probes <- st.probes + 1;
      let a = Atomic.get seg.lane1.(i) in
      if a = empty then
        if Atomic.get seg.count >= seg.limit then `Full
        else if Atomic.compare_and_set seg.lane1.(i) empty w1 then begin
          Atomic.set seg.lane2.(i) w2;
          Atomic.incr seg.count;
          `Claimed i
        end
        else begin
          (* Lost the slot race: re-examine the same slot. *)
          st.cas_retries <- st.cas_retries + 1;
          go i remaining
        end
      else if a = w1 && lane2_value seg i = w2 then `Dup
      else go ((i + 1) land seg.mask) (remaining - 1)
    end
  in
  go (w1 land seg.mask) cap

(* Tombstone our own aborted claim: the slot stays occupied (probe chains
   must not shorten), but no key matches it again. *)
let retract (seg : segment) i = Atomic.set seg.lane2.(i) dead

(* Append a doubled segment, unless someone already did. *)
let grow t seen =
  Mutex.lock t.grow_lock;
  (if Atomic.get t.segments == seen then
     let cap =
       match seen with [] -> assert false | s :: _ -> 2 * (s.mask + 1)
     in
     Atomic.set t.segments (make_segment cap :: seen));
  Mutex.unlock t.grow_lock

let claim t st ~h1 ~h2 =
  let w1 = encode h1 and w2 = encode h2 in
  let rec attempt () =
    let segs = Atomic.get t.segments in
    match segs with
    | [] -> assert false
    | head :: older ->
      if List.exists (fun s -> probe_ro st s w1 w2) older then `Dup
      else begin
        match claim_in_head st head w1 w2 with
        | `Dup -> `Dup
        | `Full ->
          grow t segs;
          attempt ()
        | `Claimed i ->
          if Atomic.get t.segments == segs then `Fresh
          else begin
            (* A new segment appeared in the window: another claimer of
               this key may have missed our entry.  Abort and retry. *)
            retract head i;
            st.cas_retries <- st.cas_retries + 1;
            attempt ()
          end
      end
  in
  attempt ()

let occupancy t =
  List.fold_left
    (fun acc s -> acc + Atomic.get s.count)
    0
    (Atomic.get t.segments)

(* Analytic footprint: each [int Atomic.t] is a one-field boxed record
   (header + field = 2 words) plus its array slot — 3 words per lane per
   slot — plus the array headers. *)
let memory_bytes t =
  List.fold_left
    (fun acc s -> acc + (((s.mask + 1) * 6) + 8))
    0
    (Atomic.get t.segments)
  * 8
