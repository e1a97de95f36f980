(* Spans recorded by the traced run around every call the benchmark
   makes into a layer: name, start, end, parent span and request id.
   Spans stay in memory and are written out once, at exit. With tracing
   off [span] only calls its function. *)

type span = { id : int; name : string; start : float; stop : float; parent : int; req : string }

let on = ref false
let now = Unix.gettimeofday
let recorded : span list ref = ref []
let next = ref 0
let lock = Mutex.create ()

(* open spans of the main thread; the load generator's threads record
   finished spans with explicit parents instead *)
let stack : int list ref = ref []

let add ?(parent = -1) ?(req = "") name start stop =
  Mutex.protect lock (fun () ->
      let id = !next in
      incr next;
      recorded := { id; name; start; stop; parent; req } :: !recorded;
      id)

let span ?(req = "") name f =
  if not !on then f ()
  else begin
    let id = Mutex.protect lock (fun () -> let id = !next in incr next; id) in
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := id :: !stack;
    let start = now () in
    Fun.protect
      ~finally:(fun () ->
        let stop = now () in
        stack := List.tl !stack;
        Mutex.protect lock (fun () ->
            recorded := { id; name; start; stop; parent; req } :: !recorded))
      f
  end

let spans () = List.rev !recorded

let write path =
  let oc = open_out path in
  output_string oc "[\n";
  List.iteri
    (fun i s ->
      if i > 0 then output_string oc ",\n";
      output_string oc
        (Json.to_string
           (Json.Object
              [
                ("id", Json.Number (float_of_int s.id));
                ("name", Json.String s.name);
                ("start", Json.Number s.start);
                ("end", Json.Number s.stop);
                ("parent", Json.Number (float_of_int s.parent));
                ("req", Json.String s.req);
              ])))
    (spans ());
  output_string oc "\n]\n";
  close_out oc
