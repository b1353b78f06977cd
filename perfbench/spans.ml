(* In-memory span recorder for the traced run.

   A span is a named wall-clock interval with the span that caused it and
   the identifier of the run it belongs to.  Spans are recorded only from
   the benchmark's own files, around its calls into the libraries, and are
   written out once when the run ends.  With recording off, [with_span] is
   a plain call.

   Terminal callbacks of the parallel engine run on worker domains, but
   the engine serializes them under its callback lock, so the recorder
   never sees two concurrent spans. *)

type span = {
  id : int;
  parent : int;  (** [0] for a root span *)
  name : string;
  start_ns : int;
  end_ns : int;
}

let enabled = ref false
let run_id = ref ""
let origin = ref 0
let next_id = ref 1
let current = ref 0
let recorded : span list ref = ref []
let totals : (string, int * int) Hashtbl.t = Hashtbl.create 16

let start ~run =
  enabled := true;
  run_id := run;
  origin := Util.now_ns ()

let stop () = enabled := false

(* Run [f] with recording off (an untraced search inside a traced run). *)
let paused f =
  let was = !enabled in
  enabled := false;
  Fun.protect ~finally:(fun () -> enabled := was) f

let with_span name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = !current in
    current := id;
    let start_ns = Util.now_ns () in
    Fun.protect
      ~finally:(fun () ->
        let end_ns = Util.now_ns () in
        current := parent;
        recorded := { id; parent; name; start_ns; end_ns } :: !recorded;
        let n, total =
          Option.value ~default:(0, 0) (Hashtbl.find_opt totals name)
        in
        Hashtbl.replace totals name (n + 1, total + end_ns - start_ns))
      f
  end

(* Number of spans recorded under [name] and their summed duration (ns). *)
let total name = Option.value ~default:(0, 0) (Hashtbl.find_opt totals name)

(* One JSON object per line, in start order, times relative to [start]. *)
let write path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  List.iter
    (fun s ->
      output_string oc
        (Util.Json.to_string
           (Obj
              [
                ("run", Str !run_id);
                ("id", Int s.id);
                ("parent", Int s.parent);
                ("name", Str s.name);
                ("start_ns", Int (s.start_ns - !origin));
                ("end_ns", Int (s.end_ns - !origin));
              ]));
      output_char oc '\n')
    (List.sort (fun a b -> compare a.start_ns b.start_ns) !recorded)
