(* The benchmark's own tests: the independent checker, the metric
   arithmetic, and the metric names against BENCHMARK.json. A short run
   of every workload is checked by smoke.py. *)

let tiny =
  "egraph tiny\nroot 0\nnode 0 1 a 1\nnode 1 2 b 0\nnode 1 3 c\n"

let is_error = function Ok _ -> false | Error _ -> true

let test_tiny () =
  let g = Pb_check.parse tiny in
  Alcotest.(check (float 0.0)) "valid" 4.0
    (Result.get_ok (Pb_check.check g [ (0, 0); (1, 2) ] ~claimed:4.0));
  Alcotest.(check bool) "cycle" true (is_error (Pb_check.check g [ (0, 0); (1, 1) ] ~claimed:3.0));
  Alcotest.(check bool) "dropped class" true (is_error (Pb_check.check g [ (0, 0) ] ~claimed:1.0));
  Alcotest.(check bool) "wrong cost" true (is_error (Pb_check.check g [ (0, 0); (1, 2) ] ~claimed:4.5));
  Alcotest.(check bool) "node outside class" true
    (is_error (Pb_check.check g [ (0, 1); (1, 2) ] ~claimed:5.0));
  Alcotest.(check bool) "no root" true (is_error (Pb_check.check g [ (1, 2) ] ~claimed:3.0))

(* a real instance's greedy solution passes; each corruption fails *)
let test_instance name () =
  let g = (Registry.find_instance name).Registry.build () in
  let cg = Pb_check.parse (Egraph.Serial.to_string g) in
  let r = Greedy_dag.extract g in
  let choices = Pb_bench.choices_of (Option.get r.Extractor.solution) in
  let claimed = r.Extractor.cost in
  Alcotest.(check bool) "valid" false (is_error (Pb_check.check cg choices ~claimed));
  Alcotest.(check bool) "wrong cost" true
    (is_error (Pb_check.check cg choices ~claimed:(claimed +. 1.0)));
  (* drop a class the root's node needs *)
  let root_node = List.assoc cg.Pb_check.root choices in
  let child = cg.Pb_check.children.(root_node).(0) in
  Alcotest.(check bool) "dropped class" true
    (is_error (Pb_check.check cg (List.remove_assoc child choices) ~claimed))

(* on a cyclic instance, select a node that leads back into its own
   class: the checker must find the cycle *)
let test_cycle () =
  let g = (Registry.find_instance "VGG").Registry.build () in
  let cg = Pb_check.parse (Egraph.Serial.to_string g) in
  let choices = Pb_bench.choices_of (Option.get (Greedy_dag.extract g).Extractor.solution) in
  let self_loop =
    let found = ref None in
    Array.iteri
      (fun n kids ->
        let c = cg.Pb_check.node_class.(n) in
        if !found = None && Array.mem c kids && List.mem_assoc c choices then found := Some (c, n))
      cg.Pb_check.children;
    !found
  in
  match self_loop with
  | None -> Alcotest.fail "VGG has no self-dependent node"
  | Some (c, n) ->
      let bad = (c, n) :: List.remove_assoc c choices in
      Alcotest.(check bool) "cycle rejected" true (is_error (Pb_check.check cg bad ~claimed:0.0))

let metric_value name =
  let _, v, _ = List.find (fun (n, _, _) -> n = name) !Pb_bench.metrics in
  v

(* the profiled phases fit inside the extract call's wall time, so the
   unattributed share is never negative *)
let test_shares () =
  Pb_bench.metrics := [];
  let g = (Registry.find_instance "mat-mul_2x2").Registry.build () in
  let run, wall =
    Pb_bench.time (fun () ->
        Smoothe_extract.extract ~config:{ Smoothe_config.default with Smoothe_config.max_iters = 20 } g)
  in
  Pb_bench.smoothe_layer [ Pb_bench.sample_of run wall ] ~iterations:run.Smoothe_extract.iterations;
  List.iter
    (fun name ->
      let v = metric_value name in
      Alcotest.(check bool) (name ^ " in (0, 1)") true (v > 0.0 && v < 1.0))
    [ "smoothe.loss_share"; "smoothe.grad_share"; "smoothe.sample_share" ];
  Alcotest.(check bool) "other share not negative" true (metric_value "smoothe.other_share" >= 0.0)

(* A short serve session against a real daemon: every reply passes the
   checker, and the queue and execution times the daemon reports fit
   inside the round trip the client measured. *)
let test_serve_split () =
  let out = "serve-session" in
  if not (Sys.file_exists out) then Sys.mkdir out 0o755;
  let _, served, _, _, _, _ =
    Fun.protect
      ~finally:(fun () ->
        Array.iter (fun f -> Sys.remove (Filename.concat out f)) (Sys.readdir out);
        Sys.rmdir out)
      (fun () -> Pb_bench.serve_session ~exe:"../bin/smoothe_cli.exe" ~out ~seed:5 ~seconds:1.0)
  in
  Alcotest.(check int) "requests" 150 (List.length served);
  List.iter
    (fun (s : Pb_bench.served) ->
      (match s.Pb_bench.verdict with
      | Pb_bench.Good _ -> ()
      | Pb_bench.Fail m | Pb_bench.Wrong m -> Alcotest.fail m);
      let _, overhead, queue, exec = Pb_bench.split s in
      let what = Pb_bench.cls_name s.Pb_bench.req.Pb_bench.cls in
      Alcotest.(check bool) (what ^ ": queue and exec not negative") true (queue >= 0.0 && exec >= 0.0);
      Alcotest.(check bool)
        (Printf.sprintf "%s: overhead %.3f ms not negative" what overhead)
        true (overhead >= 0.0))
    served

(* one stalled window moves the windowed median, not the figure *)
let test_windows () =
  let t = Pb_bench.tally () in
  for i = 0 to 2999 do
    let ms = if i >= 1000 && i < 2000 then 50.0 else float_of_int (i mod 100) /. 10.0 in
    Pb_bench.record t ~what:"x" ~latency_s:(ms /. 1000.0) ~ref_cost:1.0 (Pb_bench.Good 1.0)
  done;
  let windowed = Pb_bench.latency_percentiles ~window:1000 t 0.5 in
  Alcotest.(check (float 1e-9)) "median of window medians" 4.95 windowed;
  Alcotest.(check bool) "whole run is dragged up" true (Pb_bench.latency_percentiles t 0.5 > windowed)

(* the end-to-end metrics a run prints are exactly BENCHMARK.json's *)
let test_names () =
  let spec = Json.parse (In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all) in
  let declared =
    List.map
      (fun m -> (Json.get_string (Json.member "name" m), Json.get_string (Json.member "unit" m)))
      (Json.get_list (Json.member "end_to_end" spec))
  in
  Pb_bench.metrics := [];
  let t = Pb_bench.tally () in
  Pb_bench.record t ~what:"x" ~latency_s:0.5 ~ref_cost:2.0 (Pb_bench.Good 1.0);
  Pb_bench.end_to_end t ~throughput:1.0 ~setup_s:0.1 ~rss:10.0;
  let printed = List.rev_map (fun (n, _, u) -> (n, u)) !Pb_bench.metrics in
  Alcotest.(check (list (pair string string))) "names and units" declared printed

(* every instance and inline variant a run can send has a committed
   reference cost, and every exact_proof instance a recorded optimum *)
let test_refs () =
  List.iter
    (fun name ->
      Alcotest.(check bool) name true (List.mem_assoc name Pb_refs.greedy_dag);
      if Array.mem name Pb_suite.inline_pool then
        for v = 0 to Pb_suite.variants - 1 do
          let k = Pb_suite.variant_key name v in
          Alcotest.(check bool) k true (List.mem_assoc k Pb_refs.greedy_dag)
        done)
    (Pb_suite.all_instances ());
  List.iter
    (fun name -> Alcotest.(check bool) name true (List.mem_assoc name Pb_refs.optimum))
    Pb_suite.exact_instances

let () =
  Alcotest.run "perfbench"
    [
      ( "checker",
        [
          Alcotest.test_case "tiny graph" `Quick test_tiny;
          Alcotest.test_case "mcm_8 corruptions" `Quick (test_instance "mcm_8");
          Alcotest.test_case "box_3 corruptions" `Quick (test_instance "box_3");
          Alcotest.test_case "cycle on VGG" `Quick test_cycle;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "smoothe shares fit the call's wall time" `Quick test_shares;
          Alcotest.test_case "serve session: checked replies, overhead not negative" `Quick
            test_serve_split;
          Alcotest.test_case "windowed latency percentiles" `Quick test_windows;
          Alcotest.test_case "end-to-end names match BENCHMARK.json" `Quick test_names;
          Alcotest.test_case "reference costs cover every input" `Quick test_refs;
        ] );
    ]
