(* Domain fan-out over an ordinary list: static index partition (item [i]
   goes to domain [i mod jobs]).  This is the leaf parallel primitive of
   the simulator — it sits below [Symmetry] (parallel orbit
   minimization), so no dependency cycle arises.  The work items handed to it are
   few and coarse, so static partitioning is enough.  The first exception
   (in item order) is re-raised after all domains join. *)

let map ~jobs f xs =
  let jobs = max 1 jobs in
  if jobs = 1 then List.map f xs
  else begin
    let arr = Array.of_list xs in
    let n = Array.length arr in
    let out = Array.make n None in
    let worker d () =
      let i = ref d in
      while !i < n do
        (out.(!i) <-
           (match f arr.(!i) with
           | y -> Some (Ok y)
           | exception e -> Some (Error e)));
        i := !i + jobs
      done
    in
    let domains =
      Array.init (min jobs (max n 1)) (fun d -> Domain.spawn (worker d))
    in
    Array.iter Domain.join domains;
    Array.to_list out
    |> List.map (function
         | Some (Ok y) -> y
         | Some (Error e) -> raise e
         | None -> assert false)
  end

(* Split [xs] into at most [pieces] contiguous chunks of near-equal
   length, preserving order (chunk boundaries are deterministic — used by
   [Symmetry.canonical_key] so the winning permutation is independent of
   the domain count). *)
let chunk ~pieces xs =
  let n = List.length xs in
  let pieces = max 1 (min pieces n) in
  if pieces = 1 then [ xs ]
  else begin
    let base = n / pieces and extra = n mod pieces in
    let rec take k acc l =
      if k = 0 then (List.rev acc, l)
      else
        match l with
        | [] -> (List.rev acc, [])
        | x :: tl -> take (k - 1) (x :: acc) tl
    in
    let rec loop i l =
      if i = pieces then []
      else
        let len = base + if i < extra then 1 else 0 in
        let chunk, rest = take len [] l in
        chunk :: loop (i + 1) rest
    in
    loop 0 xs
  end
