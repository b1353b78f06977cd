(* The host-speed reference.

   On a shared host the same search runs up to 1.9x slower for minutes at
   a time while other tenants load the machine, and each vCPU slows on
   its own schedule.  Raw verdict times of the same code then spread past
   any usable bound: ten 40 s runs of census-k3 read from 0.51 to 0.97 s,
   a quartile spread of 0.36 of the median.  The kernel below does the
   kind of work a search does: a depth-first walk over a synthetic state
   space, with a fresh array per successor and a visited table on
   structural keys that grows to 150,000 states (about 40 MB resident).
   It is the benchmark's own code, so no change to the program moves it,
   and it runs in a child process of its own, so neither the program's
   heap nor its memory use moves it either.  Timed after every verdict on
   the CPUs the verdict ran on, it measures how fast the host runs this
   kind of work at that moment: on census-k3, pinned to one CPU, log
   sweep time against log kernel time had slope 0.89 and correlation
   0.81, and the quartile spread of five runs fell from 0.23 raw to 0.09
   scaled.  Run unpinned, the kernel lands on the other vCPU as often as
   not and the correlation falls to 0.44. *)

let states = 150_000

(* Roughly the kernel's time (0.15-0.18 s) on the 2.1 GHz Xeon vCPUs the
   benchmark was tuned on.  A time scaled by [nominal_s / r], where [r]
   is the kernel's time measured next to it, reads as seconds on a host
   where the kernel takes [nominal_s]. *)
let nominal_s = 0.15

(* Slot [i] of the 8 steps by [i + 1] modulo 13, so every slot runs
   through all 13 values and the walk never runs out of states before
   [states]. *)
let kernel () =
  let seen = Hashtbl.create 1024 in
  let root = Array.make 8 0 in
  Hashtbl.add seen root ();
  let stack = ref [ root ] in
  while Hashtbl.length seen < states do
    match !stack with
    | [] -> failwith "reference kernel: state space exhausted"
    | s :: rest ->
      stack := rest;
      for i = 0 to 7 do
        let c = Array.copy s in
        c.(i) <- (c.(i) + i + 1) mod 13;
        if not (Hashtbl.mem seen c) then begin
          Hashtbl.add seen c ();
          stack := c :: !stack
        end
      done
  done;
  Hashtbl.length seen

(* Seconds the kernel takes now, from a compacted heap. *)
let measure () =
  Gc.compact ();
  let n, dt = Util.time_ns kernel in
  if n < states then failwith "reference kernel: too few states";
  Util.secs dt

(* The child's loop: one measurement per line read, until end of input. *)
let serve () =
  try
    while true do
      ignore (input_line stdin);
      Printf.printf "%.17g\n%!" (measure ())
    done
  with End_of_file -> ()

external pin_to_current_cpu : unit -> int = "perfbench_pin_to_current_cpu"

(* Run [f] with a function that times the kernel on the CPUs a verdict
   uses and returns the mean time.  With [domains] = 1 this process is
   first pinned to the CPU it runs on, and one child, pinned there too,
   runs the kernel.  With more, as many unpinned children run it at
   once, so that together they load the CPUs the verdict's domains ran
   on.  The children are this executable started with [--calibrate];
   they end, and are waited for, when [f] returns or raises. *)
let with_reference ~domains f =
  if domains = 1 then ignore (pin_to_current_cpu ());
  let exe = Sys.executable_name in
  let children = ref [] in
  let stop () = List.iter (fun c -> ignore (Unix.close_process c)) !children in
  Fun.protect ~finally:stop @@ fun () ->
  for _ = 1 to domains do
    children := Unix.open_process_args exe [| exe; "--calibrate" |] :: !children
  done;
  let time () =
    List.iter (fun (_, oc) -> output_string oc "run\n"; flush oc) !children;
    let ts = List.map (fun (ic, _) -> float_of_string (input_line ic)) !children in
    List.fold_left ( +. ) 0. ts /. float_of_int domains
  in
  f time
