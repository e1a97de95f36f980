(* The command-line front end on bad input files: each must end with a
   one-line error that names the file and exit status 1, never an
   uncaught exception (exit 125). Runs the built executable. *)

let cli = "../bin/smoothe_cli.exe"

(* Run the CLI with [args]; returns its exit status and stderr. *)
let run args =
  let err = Filename.temp_file "smoothe_cli" ".err" in
  let fd = Unix.openfile err [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid = Unix.create_process cli (Array.of_list (cli :: args)) devnull devnull fd in
  Unix.close fd;
  Unix.close devnull;
  let _, status = Unix.waitpid [] pid in
  let stderr = Fsio.read_file err in
  Sys.remove err;
  ((match status with Unix.WEXITED c -> c | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> -1), stderr)

(* Run the CLI with [args]; returns its exit status and everything it
   wrote to stdout and stderr. *)
let run_all args =
  let out = Filename.temp_file "smoothe_cli" ".out" in
  let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid = Unix.create_process cli (Array.of_list (cli :: args)) devnull fd fd in
  Unix.close fd;
  Unix.close devnull;
  let _, status = Unix.waitpid [] pid in
  let text = Fsio.read_file out in
  Sys.remove out;
  ((match status with Unix.WEXITED c -> c | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> -1), text)

let with_file suffix contents f =
  let path = Filename.temp_file "smoothe_input" suffix in
  Fsio.write_atomic ~path contents;
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let expect_one_line_error ~path args =
  let code, err = run args in
  Alcotest.(check int) "exit status" 1 code;
  let lines = String.split_on_char '\n' (String.trim err) in
  Alcotest.(check int) ("one line on stderr: " ^ err) 1 (List.length lines);
  Alcotest.(check bool) ("names the file: " ^ err) true (Test_util.contains err path);
  Alcotest.(check bool) ("no uncaught exception: " ^ err) false
    (Test_util.contains err "exception")

let test_malformed_egraph () =
  with_file ".egraph" "garbage here\n" (fun path ->
      expect_one_line_error ~path [ "extract"; path; "-m"; "greedy" ])

let test_truncated_gym_json () =
  with_file ".json" "{\"nodes\": {\"a\": {\"op\": \"x\", \"children\": [" (fun path ->
      expect_one_line_error ~path [ "extract"; path; "-m"; "greedy" ])

let test_missing_trace () =
  let path = Filename.concat (Filename.get_temp_dir_name ()) "smoothe-no-such-trace.json" in
  if Sys.file_exists path then Sys.remove path;
  expect_one_line_error ~path [ "trace-summary"; path ]

(* Doc strings render without cmdliner complaints, and the fault-plan
   examples keep their '@' ([nan\\@K] once rendered as "nanK"). *)
let test_help_renders () =
  List.iter
    (fun (cmd, example) ->
      let code, text = run_all [ cmd; "--help=plain" ] in
      Alcotest.(check int) (cmd ^ " --help exit status") 0 code;
      Alcotest.(check bool) (cmd ^ " --help has no cmdliner error") false
        (Test_util.contains text "cmdliner error");
      Alcotest.(check bool) (cmd ^ " --help shows " ^ example) true
        (Test_util.contains text example))
    [ ("extract", "nan@K"); ("extract", "skew@S"); ("serve", "--journal-dir");
      ("request", "crash@5") ]

let () =
  Alcotest.run "cli"
    [
      ( "bad input",
        [
          Alcotest.test_case "malformed .egraph" `Quick test_malformed_egraph;
          Alcotest.test_case "truncated gym json" `Quick test_truncated_gym_json;
          Alcotest.test_case "missing trace file" `Quick test_missing_trace;
        ] );
      ("help", [ Alcotest.test_case "doc strings render" `Quick test_help_renders ]);
    ]
