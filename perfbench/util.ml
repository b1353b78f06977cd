(* Clock, summary statistics, process memory and a minimal JSON writer.

   Every timing in the benchmark reads the monotonic wall clock in
   nanoseconds; none uses [Sys.time], which sums CPU seconds over
   domains. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let secs ns = float_of_int ns *. 1e-9

let time_ns f =
  let t0 = now_ns () in
  let r = f () in
  (r, now_ns () - t0)

(* Nearest-rank percentile of an unsorted sample, [p] in [0, 100]. *)
let percentile p xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let ratio a b = if b = 0. then 0. else a /. b

(* Peak resident set of this process so far, in MiB (Linux VmHWM).  The
   kernel's high-water mark only grows, which is why every workload runs
   in a process of its own. *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> nan
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> nan
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
            (fun kb -> float_of_int kb /. 1024.)
        else scan ()
    in
    Fun.protect ~finally:(fun () -> close_in ic) scan

let counter name =
  Option.value ~default:0. (Subc_obs.Metrics.find name)

(* Snapshot of several metrics-registry entries, for before/after deltas. *)
let counters names = List.map (fun n -> (n, counter n)) names

let delta before after name = List.assoc name after -. List.assoc name before

module Json = struct
  type t =
    | Int of int
    | Float of float
    | Str of string
    | Bool of bool
    | List of t list
    | Obj of (string * t) list

  let escape s =
    let b = Buffer.create (String.length s + 2) in
    String.iter
      (function
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b

  let rec to_buffer b = function
    | Int i -> Buffer.add_string b (string_of_int i)
    | Float f ->
      Buffer.add_string b
        (if Float.is_finite f then Printf.sprintf "%.17g" f else "null")
    | Str s -> Printf.bprintf b "\"%s\"" (escape s)
    | Bool x -> Buffer.add_string b (string_of_bool x)
    | List xs ->
      Buffer.add_char b '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char b ',';
          to_buffer b x)
        xs;
      Buffer.add_char b ']'
    | Obj kvs ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          Printf.bprintf b "\"%s\":" (escape k);
          to_buffer b v)
        kvs;
      Buffer.add_char b '}'

  let to_string v =
    let b = Buffer.create 256 in
    to_buffer b v;
    Buffer.contents b
end
