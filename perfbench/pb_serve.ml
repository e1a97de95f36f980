(* A real [smoothe serve] process over its Unix socket, and the open-loop
   load generator that drives it. *)

let now = Unix.gettimeofday

type daemon = { pid : int; sock : string }

(* flags beyond the socket: replay on, everything else at its default
   (one executor, --jobs 1) *)
let daemon_flags = [ "--plan"; "on" ]

type conn = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let connect sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX sock)
   with e ->
     Unix.close fd;
     raise e);
  { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let call c frame =
  output_string c.oc frame;
  output_char c.oc '\n';
  flush c.oc;
  input_line c.ic

let call_once sock frame =
  let c = connect sock in
  Fun.protect ~finally:(fun () -> close c) (fun () -> call c frame)

let ping sock =
  match Json.parse (call_once sock {|{"op":"ping"}|}) with
  | j -> Json.member "status" j = Json.String "ok"
  | exception _ -> false

(* daemons not yet stopped; [stop_all] runs at exit so an error in the
   benchmark never leaves one behind *)
let live : daemon list ref = ref []

let start ~exe ~sock ~log =
  (try Sys.remove sock with Sys_error _ -> ());
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let argv = Array.of_list (exe :: "serve" :: "--socket" :: sock :: daemon_flags) in
  let pid = Unix.create_process exe argv Unix.stdin out out in
  Unix.close out;
  let d = { pid; sock } in
  live := d :: !live;
  let deadline = now () +. 30.0 in
  let rec wait () =
    if (try ping sock with _ -> false) then d
    else if now () > deadline then failwith "daemon did not answer ping within 30s"
    else begin
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ -> failwith "daemon exited during start-up (see its log)");
      Unix.sleepf 0.01;
      wait ()
    end
  in
  wait ()

(* VmHWM of a process, in MB *)
let peak_rss_mb pid =
  let path = if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid in
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      let rec find () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
                float_of_int kb /. 1024.0)
        | _ -> find ()
        | exception End_of_file -> nan
      in
      find ())

(* SIGTERM makes the daemon drain and exit; escalate if it hangs *)
let stop d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = now () +. 20.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when now () < deadline ->
        Unix.sleepf 0.01;
        wait ()
    | 0, _ ->
        (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] d.pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ();
  live := List.filter (fun x -> x.pid <> d.pid) !live;
  try Sys.remove d.sock with Sys_error _ -> ()

let stop_all () = List.iter stop !live

(* engine counters from the [stats] control op *)
let stats sock =
  let j = Json.member "stats" (Json.parse (call_once sock {|{"op":"stats"}|})) in
  fun k -> Json.get_number (Json.member k j)

(* One scheduled request and what happened to it. Times are absolute. *)
type slot = {
  frame : string;
  intended : float;
  mutable free_at : float;  (** when a connection became free for it *)
  mutable send : float;
  mutable recv : float;
  mutable reply : string;
}

(* Open loop: request [i] is due at [t0 + i / rate] whatever happened to
   the others. [lanes.(i)] names the connection that carries it; each
   connection sends its requests in order, one at a time, so a request
   due while its connection is busy waits for it, and that wait counts
   in its latency. *)
let run_open_loop ~sock ~rate ~lanes frames =
  let conns = 1 + Array.fold_left max 0 lanes in
  let t0 = now () +. 0.05 in
  let slots =
    Array.mapi
      (fun i frame ->
        {
          frame;
          intended = t0 +. (float_of_int i /. rate);
          free_at = 0.0;
          send = 0.0;
          recv = 0.0;
          reply = "";
        })
      frames
  in
  let worker (lane, c) =
    Array.iteri
      (fun i s ->
        if lanes.(i) = lane then begin
          s.free_at <- now ();
          let wait = s.intended -. s.free_at in
          if wait > 0.0 then Thread.delay wait;
          s.send <- now ();
          s.reply <- (try call c s.frame with e -> "transport error: " ^ Printexc.to_string e);
          s.recv <- now ()
        end)
      slots
  in
  let cs = List.init conns (fun lane -> (lane, connect sock)) in
  let threads = List.map (Thread.create worker) cs in
  List.iter Thread.join threads;
  List.iter (fun (_, c) -> close c) cs;
  (t0, slots)
