(* The repository's benchmark: workloads, layer probes and the result
   line. [perfbench.exe] is its command-line entry:

     perfbench.exe --workload extract_suite|serve_open|exact_proof
                   --seed N --seconds S --trace 0|1 --smoothe PATH [--out DIR]
     perfbench.exe gen-refs        (prints pb_refs.ml from the current program)

   Prints a header line, then as its last line one JSON object
   {correct, attempted, failed, metrics}. With --trace 0 the metrics are
   the end-to-end ones; with --trace 1 the run records spans around every
   call into a layer and prints the per-layer metrics instead. See
   README.md beside this file. *)

let now = Unix.gettimeofday
let say fmt = Printf.eprintf (fmt ^^ "\n%!")
let nproc = Domain.recommended_domain_count ()

(* ------------------------------------------------------------ statistics *)

let quantile xs q =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
      let a = Array.of_list sorted in
      let pos = q *. float_of_int (Array.length a - 1) in
      let lo = truncate pos in
      let hi = min (Array.length a - 1) (lo + 1) in
      a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile xs 0.5
let sum = List.fold_left ( +. ) 0.0
let mean xs = if xs = [] then nan else sum xs /. float_of_int (List.length xs)

let geomean = function
  | [] -> nan
  | xs -> exp (sum (List.map log xs) /. float_of_int (List.length xs))

(* ------------------------------------------------------------ metrics *)

let metrics : (string * float * string) list ref = ref []
let metric name unit_ value = metrics := (name, value, unit_) :: !metrics

(* ------------------------------------------------------------ configs *)

(* The CLI's defaults: the library defaults with the CLI's 60 s limit.
   The domain pool also stays at its default size, the CLI's --jobs 1. *)
let smoothe_config = { Smoothe_config.default with Smoothe_config.time_limit = 60.0 }
let hybrid_config = { Hybrid_pipeline.default_config with Hybrid_pipeline.time_budget = 60.0 }
let ilp_time_limit = 60.0

(* What the daemon runs for a SmoothE request that names only its seed. *)
let request_config seed =
  {
    Smoothe_config.default with
    Smoothe_config.time_limit = Serve_engine.default_config.Serve_engine.default_budget;
    batch = Serve_protocol.default_request.Serve_protocol.batch;
    max_iters = Serve_protocol.default_request.Serve_protocol.iters;
    lambda_ = Serve_protocol.default_request.Serve_protocol.lambda_;
    seed;
    plan = Smoothe_config.Plan_on;
  }

let config_json (c : Smoothe_config.t) =
  Json.(
    Object
      [
        ("assumption", String (Smoothe_config.assumption_name c.assumption));
        ("batch", Number (float_of_int c.batch));
        ("lr", Number c.lr);
        ("max_iters", Number (float_of_int c.max_iters));
        ("patience", Number (float_of_int c.patience));
        ("lambda", Number c.lambda_);
        ("prop_iters", match c.prop_iters with Some p -> Number (float_of_int p) | None -> Null);
        ("time_limit", Number c.time_limit);
        ("init_std", Number c.init_std);
        ("repair_sampling", Bool c.repair_sampling);
        ("scc_decomposition", Bool c.scc_decomposition);
        ("batched_matexp", Bool c.batched_matexp);
        ("temperature", Number c.temperature);
        ("temperature_decay", Number c.temperature_decay);
        ("min_temperature", Number c.min_temperature);
        ("entropy_weight", Number c.entropy_weight);
        ("seed", Number (float_of_int c.seed));
        ("plan", String (Smoothe_config.plan_mode_name c.plan));
      ])

(* ------------------------------------------------------------ helpers *)

let read_text path = In_channel.with_open_bin path In_channel.input_all

let build name = (Registry.find_instance name).Registry.build ()

let choices_of (s : Egraph.Solution.s) =
  let acc = ref [] in
  Array.iteri
    (fun c n -> match n with Some n -> acc := (c, n) :: !acc | None -> ())
    s.Egraph.Solution.choice;
  !acc

let ref_cost name =
  match List.assoc_opt name Pb_refs.greedy_dag with
  | Some c -> c
  | None -> failwith ("no committed reference cost for " ^ name)

(* Set up [reps] times from scratch; keep the last result, report the
   median time. A set-up takes about a second, so one slow moment on a
   shared host moves a single one; the median of five resists that. *)
let setup_reps = 5

let timed_setup ~reps f =
  let times = ref [] and last = ref None in
  for _ = 1 to reps do
    let t0 = now () in
    last := Some (f ());
    times := (now () -. t0) :: !times
  done;
  (Option.get !last, median !times)

(* Outcome tally shared by the workloads. A failure is an error, a
   solution the checker rejects, a binding time limit or a wrong
   optimum; [incorrect] counts the subset where an output was wrong. *)
type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable incorrect : int;
  mutable latencies : float list;  (** ms *)
  mutable ratios : float list;
  mutable busy : float;  (** seconds spent in timed operations *)
}

let tally () = { attempted = 0; failed = 0; incorrect = 0; latencies = []; ratios = []; busy = 0.0 }

type verdict = Good of float | Fail of string | Wrong of string

let record t ~what ~latency_s ~ref_cost verdict =
  t.attempted <- t.attempted + 1;
  t.latencies <- (latency_s *. 1000.0) :: t.latencies;
  match verdict with
  | Good cost -> t.ratios <- (cost /. ref_cost) :: t.ratios
  | Fail why ->
      t.failed <- t.failed + 1;
      say "FAIL %s: %s" what why
  | Wrong why ->
      t.failed <- t.failed + 1;
      t.incorrect <- t.incorrect + 1;
      say "WRONG %s: %s" what why

let check_solution cg (r : Extractor.r) =
  match r.Extractor.solution with
  | None -> Fail "no solution"
  | Some s -> (
      match Pb_check.check cg (choices_of s) ~claimed:r.Extractor.cost with
      | Ok c -> Good c
      | Error e -> Wrong e)

(* each consecutive window's percentile, in send order; a partial last
   window is dropped *)
let window_quantiles ~window t q =
  let rec windows acc cur k = function
    | [] -> List.rev acc
    | x :: rest ->
        if k + 1 = window then windows (quantile (x :: cur) q :: acc) [] 0 rest
        else windows acc (x :: cur) (k + 1) rest
  in
  windows [] [] 0 (List.rev t.latencies)

(* Latency percentiles: over all operations, or, given [window], the
   median over consecutive windows of that many requests (in send order)
   of each window's percentile, so one stall on a shared host moves one
   window, not the figure. *)
let latency_percentiles ?window t q =
  match window with
  | Some w when List.length t.latencies >= 2 * w -> median (window_quantiles ~window:w t q)
  | _ -> quantile t.latencies q

(* The end-to-end metrics BENCHMARK.json names, in its order. *)
let end_to_end t ~throughput ~setup_s ~rss =
  let ok = t.attempted - t.failed in
  metric "setup_s" "s" setup_s;
  metric "throughput_per_s" "1/s" throughput;
  metric "ok_frac" "fraction" (float_of_int ok /. float_of_int (max 1 t.attempted));
  metric "cost_ratio" "ratio" (geomean t.ratios);
  metric "peak_rss_mb" "MB" rss;
  say "attempted %d failed %d (fail_frac %.6g); latency p50 %.3f ms, p99 %.3f ms over %d samples"
    t.attempted t.failed
    (float_of_int t.failed /. float_of_int (max 1 t.attempted))
    (quantile t.latencies 0.5) (quantile t.latencies 0.99) (List.length t.latencies)

(* extract_suite and exact_proof: successful operations per second of
   timed work *)
let batch_end_to_end t ~setup_s =
  let ok = t.attempted - t.failed in
  end_to_end t ~throughput:(float_of_int ok /. t.busy) ~setup_s ~rss:(Pb_serve.peak_rss_mb 0)

(* Whole passes over the workload's operations, so every run times the
   same mix. A pass starts only if, at the mean pass time so far, it ends
   nearer to [seconds] than stopping now would: a run measures about
   [seconds], never more than half a pass over it. [f] gets the pass
   number. *)
let run_passes ~seconds f =
  let t0 = now () and pass = ref 0 in
  while
    !pass = 0
    ||
    let elapsed = now () -. t0 in
    elapsed +. (elapsed /. float_of_int !pass /. 2.0) <= seconds
  do
    f !pass;
    incr pass
  done

(* ------------------------------------------------------------ layer probes *)

(* Each probe calls one layer's public function from outside, on the
   workload's own graphs, and reports a time per call. *)

let per_call ~min_s f =
  let t0 = now () and calls = ref 0 in
  while !calls = 0 || now () -. t0 < min_s do
    ignore (Sys.opaque_identity (f ()));
    incr calls
  done;
  (now () -. t0) /. float_of_int !calls

let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

let probe_parse texts =
  let secs = ref 0.0 and bytes = ref 0 in
  List.iter
    (fun text ->
      let s =
        Pb_trace.span "egraph.Serial.of_string" (fun () ->
            per_call ~min_s:0.02 (fun () -> Egraph.Serial.of_string text))
      in
      secs := !secs +. s;
      bytes := !bytes + String.length text)
    texts;
  metric "egraph.parse_ms" "ms" (!secs *. 1000.0 /. float_of_int (List.length texts));
  metric "egraph.parse_mb_per_s" "MB/s" (float_of_int !bytes /. 1e6 /. !secs)

let probe_static graphs =
  let lint =
    List.map
      (fun g ->
        Pb_trace.span "analysis.Egraph_lint.check" (fun () ->
            per_call ~min_s:0.02 (fun () -> Egraph_lint.check g)))
      graphs
  in
  metric "analysis.lint_ms" "ms" (mean lint *. 1000.0);
  let compile =
    List.map
      (fun g ->
        Pb_trace.span "relaxation.compile" (fun () ->
            per_call ~min_s:0.02 (fun () -> Relaxation.compile smoothe_config g)))
      graphs
  in
  metric "relaxation.compile_ms" "ms" (mean compile *. 1000.0)

let gaussian st =
  let u1 = Float.max 1e-300 (Random.State.float st 1.0) and u2 = Random.State.float st 1.0 in
  sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)

let fresh_theta cfg g =
  let st = Random.State.make [| Egraph.num_nodes g |] in
  Tensor.init ~batch:cfg.Smoothe_config.batch ~width:(Egraph.num_nodes g) (fun _ _ ->
      cfg.Smoothe_config.init_std *. gaussian st)

(* One SmoothE iteration at a time: forward, backward, Adam, sampling —
   the interpreter's steps, timed separately. *)
let probe_iterations graphs ~iters =
  let fwd_t = ref 0.0 and bwd_t = ref 0.0 and adam_t = ref 0.0 and smp_t = ref 0.0 in
  let words = ref 0.0 and count = ref 0 in
  Device.run Device.a100 (fun () ->
      List.iter
        (fun g ->
          let cfg = smoothe_config in
          let compiled = Relaxation.compile cfg g and model = Cost_model.of_egraph g in
          let theta = fresh_theta cfg g in
          let opt = Optim.adam ~lr:cfg.Smoothe_config.lr [ theta ] in
          for _ = 1 to iters do
            let w0 = Gc.minor_words () in
            let fwd, tf =
              time (fun () ->
                  Pb_trace.span "autodiff.Relaxation.forward" (fun () ->
                      Relaxation.forward ~temperature:1.0 compiled ~config:cfg ~model ~theta))
            in
            let (), tb =
              time (fun () ->
                  Pb_trace.span "autodiff.Ad.backward" (fun () ->
                      Ad.backward fwd.Relaxation.loss))
            in
            words := !words +. (Gc.minor_words () -. w0);
            let grad = Ad.grad fwd.Relaxation.theta in
            let (), ta =
              time (fun () ->
                  Pb_trace.span "optim.adam_step" (fun () ->
                      ignore (Optim.clip_grad_norm ~max_norm:100.0 [ grad ]);
                      Optim.adam_step opt [ grad ]))
            in
            let _, ts =
              time (fun () ->
                  Pb_trace.span "sampler.best_of_batch" (fun () ->
                      Sampler.best_of_batch g ~model ~cp:(Ad.value fwd.Relaxation.cp)))
            in
            fwd_t := !fwd_t +. tf;
            bwd_t := !bwd_t +. tb;
            adam_t := !adam_t +. ta;
            smp_t := !smp_t +. ts;
            incr count
          done)
        graphs);
  let per x = !x *. 1000.0 /. float_of_int !count in
  metric "autodiff.forward_ms" "ms" (per fwd_t);
  metric "autodiff.backward_ms" "ms" (per bwd_t);
  metric "optim.adam_ms" "ms" (per adam_t);
  metric "sampler.ms" "ms" (per smp_t);
  metric "autodiff.minor_mwords_per_iter" "Mword" (!words /. 1e6 /. float_of_int !count)

(* Replay: two captures, the stability check, the dataflow analysis and
   compilation, then forward/backward replays of the compiled plan. *)
let probe_plan graphs ~iters =
  let cap_t = ref 0.0 and fwd_t = ref 0.0 and bwd_t = ref 0.0 and bytes = ref 0 in
  let plans = ref 0 and replays = ref 0 in
  Device.run Device.a100 (fun () ->
      List.iter
        (fun g ->
          let cfg = smoothe_config in
          let compiled = Relaxation.compile cfg g and model = Cost_model.of_egraph g in
          let theta = fresh_theta cfg g in
          let step () =
            let f = Relaxation.forward ~temperature:1.0 compiled ~config:cfg ~model ~theta in
            Ad.backward f.Relaxation.loss;
            f
          in
          let f1 = step () in
          let c1, t1 = time (fun () -> Plan.capture f1.Relaxation.tape ~root:f1.Relaxation.loss) in
          let f2 = step () in
          let compiled_plan, t2 =
            time (fun () ->
                Pb_trace.span "plan.capture" (fun () ->
                    let c2 = Plan.capture f2.Relaxation.tape ~root:f2.Relaxation.loss in
                    match Plan.stable c1 c2 with
                    | Error _ -> None
                    | Ok () -> (
                        let id = Ad.node_id in
                        let outputs =
                          [|
                            id f2.Relaxation.cp;
                            id f2.Relaxation.per_seed_cost;
                            id f2.Relaxation.penalty;
                            id f2.Relaxation.loss;
                          |]
                        and grads = [| id f2.Relaxation.theta |] in
                        let report =
                          Plan_check.analyze ~grads ~root:(id f2.Relaxation.loss) ~outputs
                            c2.Plan.ir
                        in
                        match
                          Plan.compile
                            ~arena:(Plan_check.arena_spec report)
                            ~chains:(Plan_check.plan_chains report)
                            ~outputs ~grads c2
                        with
                        | Ok p -> Some p
                        | Error _ -> None)))
          in
          cap_t := !cap_t +. t1 +. t2;
          incr plans;
          match compiled_plan with
          | None -> say "plan probe: %s did not arm" g.Egraph.name
          | Some p ->
              let st = Plan.stats p in
              bytes := !bytes + st.Plan.arena_bytes + st.Plan.dedicated_bytes + st.Plan.scratch_bytes;
              for _ = 1 to iters do
                let (), tf =
                  time (fun () -> Pb_trace.span "plan.run_forward" (fun () -> Plan.run_forward p))
                in
                let (), tb =
                  time (fun () -> Pb_trace.span "plan.run_backward" (fun () -> Plan.run_backward p))
                in
                fwd_t := !fwd_t +. tf;
                bwd_t := !bwd_t +. tb;
                incr replays
              done)
        graphs);
  metric "plan.capture_ms" "ms" (!cap_t *. 1000.0 /. float_of_int (max 1 !plans));
  metric "plan.forward_ms" "ms" (!fwd_t *. 1000.0 /. float_of_int (max 1 !replays));
  metric "plan.backward_ms" "ms" (!bwd_t *. 1000.0 /. float_of_int (max 1 !replays));
  metric "plan.arena_mb" "MB" (float_of_int !bytes /. 1048576.0 /. float_of_int (max 1 !plans))

let probe_greedy graphs =
  let ts =
    List.map
      (fun g ->
        Pb_trace.span "greedy_dag.extract" (fun () ->
            per_call ~min_s:0.02 (fun () -> Greedy_dag.extract g)))
      graphs
  in
  metric "greedy_dag.ms" "ms" (mean ts *. 1000.0)

let probe_lp graphs =
  let enc =
    List.map
      (fun g ->
        Pb_trace.span "ilp.encode" (fun () -> per_call ~min_s:0.02 (fun () -> Ilp.encode g)))
      graphs
  in
  metric "ilp.encode_ms" "ms" (mean enc *. 1000.0);
  let root =
    List.map
      (fun g ->
        let e = Ilp.encode g in
        snd (time (fun () -> Pb_trace.span "lp.solve" (fun () -> Lp.solve e.Ilp.problem))))
      graphs
  in
  metric "lp.root_ms" "ms" (mean root *. 1000.0)

(* What smoothe.* needs from a finished run: a few numbers, not the run,
   so that a long run does not keep every solution alive and grow the
   heap it is measuring. *)
type smoothe_sample = { iters : int; loss : float; grad : float; sample : float; wall : float }

(* [wall] is the time of the call that produced [r] *)
let sample_of (r : Smoothe_extract.run) wall =
  let p = r.Smoothe_extract.profile in
  {
    iters = r.Smoothe_extract.iterations;
    loss = p.Smoothe_extract.loss_time;
    grad = p.Smoothe_extract.grad_time;
    sample = p.Smoothe_extract.sample_time;
    wall;
  }

(* smoothe.* from finished runs *)
let smoothe_layer samples ~iterations =
  let total f = sum (List.map f samples) in
  let wall = total (fun s -> s.wall) in
  let loss = total (fun s -> s.loss) and grad = total (fun s -> s.grad) and smp = total (fun s -> s.sample) in
  let iters = total (fun s -> float_of_int s.iters) in
  metric "smoothe.iterations" "count" (float_of_int iterations);
  metric "smoothe.iter_ms" "ms" (wall *. 1000.0 /. iters);
  metric "smoothe.loss_share" "fraction" (loss /. wall);
  metric "smoothe.grad_share" "fraction" (grad /. wall);
  metric "smoothe.sample_share" "fraction" (smp /. wall);
  metric "smoothe.other_share" "fraction" ((wall -. loss -. grad -. smp) /. wall)

(* ------------------------------------------------------------ exact ops *)

type exact_stats = {
  mutable nodes : int;  (** B&B nodes in the first pass *)
  mutable bnb_s : float;
  mutable bnb_nodes : int;
  mutable hyb_wall : float;
  mutable dropped : int;
  mutable hyb_n : int;
  mutable hyb_runs : smoothe_sample list;
      (** stage-1 runs, each with its profiled time: the stage's wall
          clock is not visible from outside the pipeline *)
  mutable hyb_iters : int;  (** stage-1 iterations in the first pass *)
}

let exact_stats () =
  {
    nodes = 0;
    bnb_s = 0.0;
    bnb_nodes = 0;
    hyb_wall = 0.0;
    dropped = 0;
    hyb_n = 0;
    hyb_runs = [];
    hyb_iters = 0;
  }

let note_int r key =
  match List.assoc_opt key r.Extractor.notes with Some v -> int_of_string v | None -> 0

(* One exact solve through the CLI's path; the verdict demands a proof
   and the committed optimum. *)
let exact_op xs ~first_pass (name, meth) path cg =
  let g = Pb_trace.span "egraph.Serial.read_file" (fun () -> Egraph.Serial.read_file path) in
  let add_nodes n =
    if first_pass then xs.nodes <- xs.nodes + n;
    xs.bnb_nodes <- xs.bnb_nodes + n
  in
  let r, wall =
    match meth with
    | "ilp-cplex" ->
        let r, wall =
          time (fun () ->
              Pb_trace.span "ilp.Ilp.extract" (fun () ->
                  let warm = (Greedy_dag.extract g).Extractor.solution in
                  Ilp.extract ~time_limit:ilp_time_limit ?warm_start:warm
                    ~profile:Bnb.cplex_like g))
        in
        add_nodes (note_int r "nodes");
        xs.bnb_s <- xs.bnb_s +. wall;
        (r, wall)
    | _ ->
        let run, wall =
          time (fun () ->
              Pb_trace.span "hybrid.Hybrid_pipeline.extract" (fun () ->
                  Hybrid_pipeline.extract ~config:hybrid_config ~health:(Health.create ()) g))
        in
        let h = run.Hybrid_pipeline.hybrid in
        add_nodes (List.fold_left (fun a p -> a + p.Hybrid.phase_nodes) 0 h.Hybrid.phases);
        xs.bnb_s <- xs.bnb_s +. sum (List.map (fun p -> p.Hybrid.phase_time) h.Hybrid.phases);
        xs.dropped <- xs.dropped + h.Hybrid.dropped_by_fixing + h.Hybrid.dropped_by_bound;
        xs.hyb_n <- xs.hyb_n + Egraph.num_nodes g;
        xs.hyb_wall <- xs.hyb_wall +. wall;
        (match run.Hybrid_pipeline.smoothe_run with
        | Some sr ->
            xs.hyb_runs <-
              sample_of sr sr.Smoothe_extract.profile.Smoothe_extract.total_time :: xs.hyb_runs;
            if first_pass then xs.hyb_iters <- xs.hyb_iters + sr.Smoothe_extract.iterations
        | None -> ());
        (run.Hybrid_pipeline.result, wall)
  in
  let verdict =
    if not r.Extractor.proved_optimal then Fail (name ^ " " ^ meth ^ ": not proved optimal")
    else
      match check_solution cg r with
      | Good c -> (
          match List.assoc_opt name Pb_refs.optimum with
          | Some opt when Pb_check.close c opt -> Good c
          | Some opt -> Wrong (Printf.sprintf "claimed optimum %.17g, recorded %.17g" c opt)
          | None -> Fail ("no recorded optimum for " ^ name))
      | v -> v
  in
  (verdict, wall)

let exact_layer xs =
  metric "bnb.nodes" "count" (float_of_int xs.nodes);
  metric "bnb.ms_per_node" "ms" (xs.bnb_s *. 1000.0 /. float_of_int (max 1 xs.bnb_nodes));
  metric "hybrid.smoothe_share" "fraction" (sum (List.map (fun s -> s.wall) xs.hyb_runs) /. xs.hyb_wall);
  metric "hybrid.pruned_frac" "fraction" (float_of_int xs.dropped /. float_of_int (max 1 xs.hyb_n))

(* ------------------------------------------------------------ serve_open *)

type cls = Hit | Inline | Miss

let cls_name = function Hit -> "hit" | Inline -> "inline" | Miss -> "smoothe"

type sreq = {
  cls : cls;
  name : string;
  seed : int;
  frame : string;
  warm : string;  (** same request under a seed no timed request uses *)
  graph : Pb_check.graph;
  ref_c : float;
}

(* Open-loop rate and class mix: synthetic assumptions, not taken from
   a measured or published client workload. 150 requests per second keep
   the seed daemon's executor about a fifth busy: nearer half load, the
   queue amplified the host's speed drift and p50 swung several-fold
   between runs. p50 is the median over 100-request windows (50 samples
   beyond each; each window is one block of [serve_inputs], with the same
   class counts) and p99 over 1000-request windows (ten beyond each), so
   a burst of CPU steal that slows part of a run moves few windows. *)
let serve_rate = 150.0
let serve_windows = (100, 1000)
let mix = [ (Hit, 0.80); (Inline, 0.18); (Miss, 0.02) ]

let frame_instance ~id ~name ~meth ~seed =
  Printf.sprintf {|{"id":"%s","instance":"%s","method":"%s","seed":%d}|} id name meth seed

let frame_inline ~id ~text ~costs ~seed =
  let b = Buffer.create (String.length text * 2) in
  Buffer.add_string b
    (Printf.sprintf {|{"id":"%s","method":"greedy-dag","seed":%d,"egraph":%s,"costs":[|} id seed
       (Json.to_string (Json.String text)));
  Array.iteri
    (fun i c ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Printf.sprintf "%.17g" c))
    costs;
  Buffer.add_string b "]}";
  Buffer.contents b

type serve_inputs = {
  hot : (string * string * Pb_check.graph) list;  (** name, text, parsed *)
  requests : sreq array;
  inline_texts : string list;
  inline_graphs : Egraph.t list;
}

(* [n] items, each item's count in proportion to its weight (largest
   remainder), in a seeded order: every seed sends the same multiset of
   requests and only their order and seeds differ *)
let stratified rng n items =
  let total = Array.fold_left (fun a (_, w) -> a +. w) 0.0 items in
  let exact = Array.map (fun (_, w) -> float_of_int n *. w /. total) items in
  let counts = Array.map truncate exact in
  let order = Array.init (Array.length items) Fun.id in
  Array.stable_sort
    (fun a b -> compare (exact.(b) -. float_of_int counts.(b)) (exact.(a) -. float_of_int counts.(a)))
    order;
  for k = 0 to n - Array.fold_left ( + ) 0 counts - 1 do
    counts.(order.(k)) <- counts.(order.(k)) + 1
  done;
  let seq = Array.concat (Array.to_list (Array.mapi (fun i (x, _) -> Array.make counts.(i) x) items)) in
  Pb_suite.shuffle rng seq;
  seq

let serve_inputs ~seed ~seconds =
  let text_of name = Egraph.Serial.to_string (build name) in
  let hot = List.map (fun n -> let t = text_of n in (n, t, Pb_check.parse t)) (Array.to_list Pb_suite.hot_pool) in
  let inline =
    Array.map (fun n -> let t = text_of n in (n, t, Pb_check.parse t)) Pb_suite.inline_pool
  in
  let misses = Array.map (fun n -> (n, Pb_check.parse (text_of n))) Pb_suite.smoothe_pool in
  let rng = Pb_suite.rng_of seed 4 in
  let n = int_of_float (serve_rate *. seconds) in
  (* blocks of 100 with the same class counts each, so the load is even
     over the run and no stretch of it is heavier than another *)
  let block = 100 in
  let classes =
    Array.concat
      (List.init ((n + block - 1) / block) (fun _ -> stratified rng block (Array.of_list mix)))
  in
  let classes = Array.sub classes 0 n in
  let count c = Array.fold_left (fun a x -> if x = c then a + 1 else a) 0 classes in
  let hot_seq = stratified rng (count Hit) (Array.of_list (List.map (fun h -> (h, 1.0)) hot)) in
  (* smaller graphs are sent more often: weight 1/size keeps the large
     ones a rare tail *)
  let inline_seq =
    stratified rng (count Inline)
      (Array.map (fun ((_, t, _) as x) -> (x, 1.0 /. float_of_int (String.length t))) inline)
  in
  let miss_seq = stratified rng (count Miss) (Array.map (fun m -> (m, 1.0)) misses) in
  let cursor = Hashtbl.create 3 in
  let next c seq =
    let k = Option.value ~default:0 (Hashtbl.find_opt cursor c) in
    Hashtbl.replace cursor c (k + 1);
    seq.(k)
  in
  let requests =
    Array.mapi
      (fun i c ->
        let id = Printf.sprintf "r%d" i in
        match c with
        | Hit ->
            let name, _, g = next Hit hot_seq in
            let frame = frame_instance ~id ~name ~meth:"smoothe" ~seed:7 in
            { cls = Hit; name; seed = 7; frame; warm = frame; graph = g; ref_c = ref_cost name }
        | Inline ->
            let name, text, g = next Inline inline_seq in
            let v = Random.State.int rng Pb_suite.variants in
            let costs = Pb_suite.perturb name v g.Pb_check.cost in
            {
              cls = Inline;
              name;
              seed = 1000 + i;
              frame = frame_inline ~id ~text ~costs ~seed:(1000 + i);
              warm = frame_inline ~id ~text ~costs ~seed:999999;
              graph = Pb_check.with_costs g costs;
              ref_c = ref_cost (Pb_suite.variant_key name v);
            }
        | Miss ->
            let name, g = next Miss miss_seq in
            {
              cls = Miss;
              name;
              seed = 1000 + i;
              frame = frame_instance ~id ~name ~meth:"smoothe" ~seed:(1000 + i);
              warm = frame_instance ~id ~name ~meth:"smoothe" ~seed:999999;
              graph = g;
              ref_c = ref_cost name;
            })
      classes
  in
  {
    hot;
    requests;
    inline_texts = Array.to_list (Array.map (fun (_, t, _) -> t) inline);
    inline_graphs = Array.to_list (Array.map (fun (n, _, _) -> build n) inline);
  }

let sock_path out = Filename.concat out "smoothe.sock"

(* start the daemon, wait for ping, fill the cache with the hot
   instances and warm every request class once *)
let serve_setup ~exe ~out inputs =
  let d = Pb_serve.start ~exe ~sock:(sock_path out) ~log:(Filename.concat out "daemon.log") in
  List.iteri
    (fun i (name, _, _) ->
      ignore (Pb_serve.call_once d.Pb_serve.sock (frame_instance ~id:(Printf.sprintf "w%d" i) ~name ~meth:"smoothe" ~seed:7)))
    inputs.hot;
  let first c = List.find_opt (fun r -> r.cls = c) (Array.to_list inputs.requests) in
  List.iter
    (fun c ->
      match first c with
      | Some r -> ignore (Pb_serve.call_once d.Pb_serve.sock r.warm)
      | None -> ())
    [ Inline; Miss ];
  d

type served = {
  req : sreq;
  slot : Pb_serve.slot;
  verdict : verdict;
  queue_ms : float;
  exec_ms : float;
}

(* A reply is good when it is ok, its choices pass the checker, and the
   daemon's time budget did not bind: an answer cut off by the budget is
   a failure, not a result. *)
let budget_ms = Serve_engine.default_config.Serve_engine.default_budget *. 1000.0

let judge (r : sreq) (s : Pb_serve.slot) =
  match Json.parse s.Pb_serve.reply with
  | exception Json.Parse_error _ -> (Fail ("unparsable reply: " ^ s.Pb_serve.reply), nan, nan)
  | Json.Object _ as j -> (
      let num k = match Json.member k j with Json.Number f -> f | _ -> nan in
      let q = num "queue_ms" and e = num "elapsed_ms" in
      match Json.member "status" j with
      | Json.String "ok" when e >= budget_ms -> (Fail "time budget bound", q, e)
      | Json.String "ok" -> (
          let choices =
            match Json.member "choices" j with
            | Json.Array l ->
                List.map
                  (function
                    | Json.Array [ Json.Number c; Json.Number n ] -> (int_of_float c, int_of_float n)
                    | _ -> (-1, -1))
                  l
            | _ -> []
          in
          match Pb_check.check r.graph choices ~claimed:(num "cost") with
          | Ok c -> (Good c, q, e)
          | Error m -> (Wrong m, q, e))
      | _ ->
          let code = match Json.member "code" j with Json.String c -> c | _ -> "?" in
          (Fail ("error response " ^ code), q, e))
  | _ -> (Fail ("reply is not an object: " ^ s.Pb_serve.reply), nan, nan)

(* An assumed connection layout, like the mix above: cache reads and
   executor work go on separate connections, so a hit never waits behind
   a SmoothE run on its own connection. With one connection everything
   shares it. *)
let lane_of ~conns i cls =
  let reads = conns / 2 in
  if reads = 0 then 0
  else match cls with Hit -> i mod reads | Inline | Miss -> reads + (i mod (conns - reads))

(* A timed serve session; returns the per-request results and the
   counters around it. *)
let serve_session ~exe ~out ~seed ~seconds =
  let last = ref None in
  let (inputs, d), setup_s =
    timed_setup ~reps:setup_reps (fun () ->
        (* only the last set-up's daemon serves the timed window *)
        Option.iter Pb_serve.stop !last;
        let inputs = serve_inputs ~seed ~seconds in
        let d = serve_setup ~exe ~out inputs in
        last := Some d;
        (inputs, d))
  in
  Fun.protect ~finally:(fun () -> Pb_serve.stop d) (fun () ->
      let before = Pb_serve.stats d.Pb_serve.sock in
      let frames = Array.map (fun r -> r.frame) inputs.requests in
      let lanes = Array.mapi (fun i r -> lane_of ~conns:nproc i r.cls) inputs.requests in
      let t0, slots = Pb_serve.run_open_loop ~sock:d.Pb_serve.sock ~rate:serve_rate ~lanes frames in
      let after = Pb_serve.stats d.Pb_serve.sock in
      let rss = Pb_serve.peak_rss_mb d.Pb_serve.pid in
      let served =
        Array.to_list
          (Array.mapi
             (fun i s ->
               let verdict, queue_ms, exec_ms = judge inputs.requests.(i) s in
               { req = inputs.requests.(i); slot = s; verdict; queue_ms; exec_ms })
             slots)
      in
      let t_end = Array.fold_left (fun m s -> Float.max m s.Pb_serve.recv) t0 slots in
      let delta k = after k -. before k in
      let window = t_end -. t0 in
      List.iter
        (fun c ->
          let mine = List.filter (fun s -> s.req.cls = c) served in
          let wire = List.map (fun s -> (s.slot.Pb_serve.recv -. s.slot.Pb_serve.send) *. 1000.0) mine in
          let lat = List.map (fun s -> (s.slot.Pb_serve.recv -. s.slot.Pb_serve.intended) *. 1000.0) mine in
          say "%-8s n=%4d latency p50 %.2f p99 %.2f ms, wire p50 %.2f mean %.2f ms, exec mean %.2f ms"
            (cls_name c) (List.length mine) (quantile lat 0.5) (quantile lat 0.99)
            (quantile wire 0.5) (mean wire) (mean (List.map (fun s -> s.exec_ms) mine)))
        [ Hit; Inline; Miss ];
      say "executor busy %.3f, connections busy %.3f"
        (sum (List.map (fun s -> s.exec_ms) served) /. 1000.0 /. window)
        (sum (List.map (fun s -> s.slot.Pb_serve.recv -. s.slot.Pb_serve.send) served)
         /. window /. float_of_int nproc);
      (inputs, served, setup_s, t_end -. t0, rss, delta))

let latency_ms s = (s.slot.Pb_serve.recv -. s.slot.Pb_serve.intended) *. 1000.0

(* latency = connection wait + socket overhead + queue + execution, in
   ms: the wait for a free connection (generator lateness included),
   then the daemon's own queue and execution times as it reports them,
   and the rest of the round trip as transport, codec and admission *)
let split s =
  let sl = s.slot in
  let wait = (sl.Pb_serve.send -. sl.Pb_serve.intended) *. 1000.0 in
  let wire = (sl.Pb_serve.recv -. sl.Pb_serve.send) *. 1000.0 in
  (wait, wire -. s.queue_ms -. s.exec_ms, s.queue_ms, s.exec_ms)

let serve_layer ~inputs ~served ~delta =
  let p q xs = quantile xs q in
  let overhead = List.map (fun s -> let _, o, _, _ = split s in o) served in
  metric "serve_socket.overhead_ms_p50" "ms" (p 0.5 overhead);
  metric "serve_socket.overhead_ms_p99" "ms" (p 0.99 overhead);
  let admitted = List.filter (fun s -> s.req.cls <> Hit) served in
  let queue = List.map (fun s -> s.queue_ms) admitted in
  metric "admission.queue_ms_p50" "ms" (p 0.5 queue);
  metric "admission.queue_ms_p99" "ms" (p 0.99 queue);
  metric "admission.shed" "count" (delta "shed");
  let hits = delta "cache_hits" and misses = delta "cache_misses" in
  say "serve_cache: %.0f hits of %.0f lookups" hits (hits +. misses);
  metric "serve_cache.hit_ratio" "fraction" (hits /. Float.max 1.0 (hits +. misses));
  List.iter
    (fun c ->
      let ex = List.filter_map (fun s -> if s.req.cls = c then Some s.exec_ms else None) served in
      metric (Printf.sprintf "serve_engine.%s.exec_ms_p50" (cls_name c)) "ms" (p 0.5 ex);
      metric (Printf.sprintf "serve_engine.%s.exec_ms_p99" (cls_name c)) "ms" (p 0.99 ex))
    [ Inline; Miss ];
  let late =
    List.map
      (fun s ->
        (s.slot.Pb_serve.send -. Float.max s.slot.Pb_serve.intended s.slot.Pb_serve.free_at)
        *. 1000.0)
      served
  in
  metric "loadgen.late_ms_p99" "ms" (p 0.99 late);
  metric "loadgen.conn_wait_ms_p99" "ms" (p 0.99 (List.map (fun s -> let w, _, _, _ = split s in w) served));
  (* codec cost on the workload's own frames, in this process *)
  let frames = List.filteri (fun i _ -> i < 200) (Array.to_list inputs.requests) in
  let dec =
    List.map
      (fun r ->
        Pb_trace.span "serve_protocol.request_of_json" (fun () ->
            per_call ~min_s:0.002 (fun () ->
                Serve_protocol.request_of_json (Json.parse r.frame))))
      frames
  in
  metric "serve_protocol.decode_us" "us" (mean dec *. 1e6);
  let replies =
    List.filteri (fun i _ -> i < 200) served
    |> List.filter_map (fun s ->
           match Serve_protocol.response_of_json (Json.parse s.slot.Pb_serve.reply) with
           | Ok r -> Some r
           | Error _ | (exception _) -> None)
  in
  let enc =
    List.map
      (fun r ->
        Pb_trace.span "serve_protocol.response_to_json" (fun () ->
            per_call ~min_s:0.002 (fun () ->
                Json.to_string (Serve_protocol.response_to_json r))))
      replies
  in
  metric "serve_protocol.encode_us" "us" (mean enc *. 1e6)

(* trace spans for every request, after the fact: the generator keeps
   its own timestamps so recording costs nothing while it runs *)
let trace_requests served =
  List.iteri
    (fun i s ->
      let sl = s.slot in
      let req = Printf.sprintf "r%d" i in
      let top = Pb_trace.add ~req ("request." ^ cls_name s.req.cls) sl.Pb_serve.intended sl.Pb_serve.recv in
      ignore (Pb_trace.add ~parent:top ~req "loadgen.conn_wait" sl.Pb_serve.intended sl.Pb_serve.send);
      ignore (Pb_trace.add ~parent:top ~req "serve_socket.round_trip" sl.Pb_serve.send sl.Pb_serve.recv))
    served

(* serve_open's latency, from each request's intended send time to its
   reply: p50 is the median over 100-request windows of each window's
   median, p99 the median over 1000-request windows of each window's
   p99. These metrics are not in BENCHMARK.json (see the README). *)
let serve_latency t =
  let w50, w99 = serve_windows in
  metric "latency_ms_p50" "ms" (latency_percentiles ~window:w50 t 0.5);
  metric "latency_ms_p99" "ms" (latency_percentiles ~window:w99 t 0.99);
  let range q w =
    let ws = window_quantiles ~window:w t q in
    Printf.sprintf "%d windows of %d, min %.3f median %.3f max %.3f" (List.length ws) w
      (quantile ws 0.0) (median ws) (quantile ws 1.0)
  in
  say "latency p50: %s; p99: %s" (range 0.5 w50) (range 0.99 w99)

let tally_served served =
  let t = tally () in
  List.iter
    (fun s ->
      record t ~what:(cls_name s.req.cls) ~latency_s:(latency_ms s /. 1000.0) ~ref_cost:s.req.ref_c
        s.verdict)
    served;
  t

(* ------------------------------------------------------------ workloads *)

type ctx = { seed : int; seconds : float; traced : bool; exe : string; out : string }

(* The layers a workload does not exercise itself are probed on its own
   graphs, so every traced run reports every per-layer metric. The MILP
   layers are probed on two small instances instead: the dense simplex
   takes seconds on the larger SmoothE graphs. *)
let milp_probe_pairs = [ ("mat-mul_4x4", "ilp-cplex"); ("set_cover_small", "hybrid") ]

let run_milp_probe ctx =
  let xs = exact_stats () in
  List.iter
    (fun (name, meth) ->
      let path = Filename.concat ctx.out (name ^ ".egraph") in
      let g = build name in
      Egraph.Serial.write_file path g;
      ignore (exact_op xs ~first_pass:true (name, meth) path (Pb_check.parse (read_text path))))
    milp_probe_pairs;
  exact_layer xs;
  probe_lp (List.map (fun (name, _) -> build name) milp_probe_pairs)

let run_serve_probe ctx =
  let inputs, served, _, _, _, delta =
    serve_session ~exe:ctx.exe ~out:ctx.out ~seed:ctx.seed ~seconds:(Float.min ctx.seconds 4.0)
  in
  trace_requests served;
  serve_layer ~inputs ~served ~delta

let extract_suite ctx =
  let setup () =
    let items =
      List.map
        (fun name ->
          let path = Filename.concat ctx.out (name ^ ".egraph") in
          Egraph.Serial.write_file path (build name);
          let text = read_text path in
          (name, path, text, Pb_check.parse text))
        (Pb_suite.draw_suite ctx.seed)
    in
    List.iter
      (fun (_, path, _, _) ->
        ignore
          (Smoothe_extract.extract
             ~config:{ smoothe_config with Smoothe_config.max_iters = 3 }
             ~preflight:true (Egraph.Serial.read_file path)))
      items;
    items
  in
  let items, setup_s = timed_setup ~reps:setup_reps setup in
  say "suite: %s" (String.concat ", " (List.map (fun (n, _, _, _) -> n) items));
  let t = tally () in
  let runs = ref [] and first_iters = ref 0 in
  run_passes ~seconds:ctx.seconds (fun pass ->
    List.iter
      (fun (name, path, _, cg) ->
        let ts = now () in
        let g = Pb_trace.span "egraph.Serial.read_file" (fun () -> Egraph.Serial.read_file path) in
        let run, wall =
          time (fun () ->
              Pb_trace.span "smoothe.Smoothe_extract.extract" (fun () ->
                  Smoothe_extract.extract ~config:smoothe_config ~health:(Health.create ())
                    ~preflight:true g))
        in
        let latency = now () -. ts in
        t.busy <- t.busy +. latency;
        runs := sample_of run wall :: !runs;
        if pass = 0 then first_iters := !first_iters + run.Smoothe_extract.iterations;
        let verdict =
          if latency >= smoothe_config.Smoothe_config.time_limit then Fail "time limit bound"
          else check_solution cg run.Smoothe_extract.result
        in
        record t ~what:name ~latency_s:latency ~ref_cost:(ref_cost name) verdict)
      items);
  if not ctx.traced then batch_end_to_end t ~setup_s
  else begin
    say "traced: throughput %.4f/s" (float_of_int (t.attempted - t.failed) /. t.busy);
    smoothe_layer !runs ~iterations:!first_iters;
    let graphs = List.map (fun (n, _, _, _) -> build n) items in
    probe_parse (List.map (fun (_, _, text, _) -> text) items);
    probe_static graphs;
    probe_iterations graphs ~iters:10;
    probe_plan graphs ~iters:10;
    probe_greedy graphs;
    run_milp_probe ctx;
    run_serve_probe ctx
  end;
  t

let exact_proof ctx =
  let pairs = Pb_suite.exact_pairs ctx.seed in
  let setup () =
    let files =
      List.map
        (fun name ->
          let path = Filename.concat ctx.out (name ^ ".egraph") in
          Egraph.Serial.write_file path (build name);
          let text = read_text path in
          (name, (path, text, Pb_check.parse text)))
        Pb_suite.exact_instances
    in
    let xs = exact_stats () in
    List.iter
      (fun ((name, _) as pair) ->
        let path, _, cg = List.assoc name files in
        ignore (exact_op xs ~first_pass:false pair path cg))
      [ ("mat-mul_4x4", "ilp-cplex"); ("VGG", "hybrid") ];
    files
  in
  let files, setup_s = timed_setup ~reps:setup_reps setup in
  let xs = exact_stats () in
  let t = tally () in
  run_passes ~seconds:ctx.seconds (fun pass ->
    List.iter
      (fun ((name, meth) as pair) ->
        let path, _, cg = List.assoc name files in
        let ts = now () in
        let verdict, _ = exact_op xs ~first_pass:(pass = 0) pair path cg in
        let latency = now () -. ts in
        t.busy <- t.busy +. latency;
        let verdict =
          if latency >= ilp_time_limit then Fail "time limit bound" else verdict
        in
        record t ~what:(name ^ "/" ^ meth) ~latency_s:latency ~ref_cost:(ref_cost name) verdict)
      pairs);
  if not ctx.traced then batch_end_to_end t ~setup_s
  else begin
    say "traced: throughput %.4f/s" (float_of_int (t.attempted - t.failed) /. t.busy);
    exact_layer xs;
    smoothe_layer xs.hyb_runs ~iterations:xs.hyb_iters;
    let graphs = List.map build Pb_suite.exact_instances in
    probe_parse (List.map (fun (_, (_, text, _)) -> text) files);
    probe_static graphs;
    probe_iterations graphs ~iters:10;
    probe_plan graphs ~iters:10;
    probe_greedy graphs;
    probe_lp graphs;
    run_serve_probe ctx
  end;
  t

let serve_open ctx =
  let inputs, served, setup_s, window, rss, delta =
    serve_session ~exe:ctx.exe ~out:ctx.out ~seed:ctx.seed ~seconds:ctx.seconds
  in
  let t = tally_served served in
  let ok = t.attempted - t.failed in
  if not ctx.traced then begin
    end_to_end t ~throughput:(float_of_int ok /. window) ~setup_s ~rss;
    serve_latency t
  end
  else begin
    let w50, w99 = serve_windows in
    say "traced: throughput %.4f/s p50 %.3f ms p99 %.3f ms" (float_of_int ok /. window)
      (latency_percentiles ~window:w50 t 0.5)
      (latency_percentiles ~window:w99 t 0.99);
    trace_requests served;
    serve_layer ~inputs ~served ~delta;
    (* the run's first SmoothE misses, replayed in this process with the
       daemon's request config, for the layers inside the daemon *)
    let misses =
      List.filteri (fun i _ -> i < 6)
        (List.filter (fun r -> r.cls = Miss) (Array.to_list inputs.requests))
    in
    let runs =
      List.map
        (fun (r : sreq) ->
          let run, wall =
            time (fun () ->
                Pb_trace.span "smoothe.Smoothe_extract.extract" (fun () ->
                    Smoothe_extract.extract ~config:(request_config r.seed) (build r.name)))
          in
          sample_of run wall)
        misses
    in
    smoothe_layer runs ~iterations:(List.fold_left (fun a s -> a + s.iters) 0 runs);
    let graphs = List.map build (Array.to_list Pb_suite.smoothe_pool @ Array.to_list Pb_suite.hot_pool) in
    probe_parse inputs.inline_texts;
    probe_static graphs;
    probe_iterations graphs ~iters:10;
    probe_plan graphs ~iters:10;
    probe_greedy inputs.inline_graphs;
    run_milp_probe ctx
  end;
  t

(* ------------------------------------------------------------ header *)

(* machine-wide CPU ticks (total, steal) from /proc/stat: on a shared
   host, time stolen by other guests slows every wall-clock figure *)
let cpu_ticks () =
  match In_channel.with_open_bin "/proc/stat" input_line with
  | line -> (
      match List.filter (( <> ) "") (String.split_on_char ' ' line) with
      | "cpu" :: fields ->
          let v = List.map float_of_string fields in
          (sum v, match List.nth_opt v 7 with Some st -> st | None -> 0.0)
      | _ -> (0.0, 0.0))
  | exception _ -> (0.0, 0.0)


let source_digest () =
  let rec files dir =
    if Sys.file_exists dir && Sys.is_directory dir then
      List.concat_map
        (fun f ->
          let p = Filename.concat dir f in
          if Sys.is_directory p then files p
          else if Filename.check_suffix p ".ml" || Filename.check_suffix p ".mli" then [ p ]
          else [])
        (List.sort compare (Array.to_list (Sys.readdir dir)))
    else []
  in
  let all = files "lib" @ files "bin" in
  Digest.to_hex (Digest.string (String.concat "" (List.map Digest.file all)))

let git_revision () =
  match String.trim (read_text ".git/HEAD") with
  | head when String.length head > 5 && String.sub head 0 5 = "ref: " -> (
      let r = String.sub head 5 (String.length head - 5) in
      try String.trim (read_text (Filename.concat ".git" r)) with Sys_error _ -> head)
  | head -> head
  | exception Sys_error _ -> "none"

let header ctx workload =
  Json.(
    Object
      [
        ("workload", String workload);
        ("seed", Number (float_of_int ctx.seed));
        ("seconds", Number ctx.seconds);
        ("trace", Bool ctx.traced);
        ("git_revision", String (git_revision ()));
        ("source_digest", String (source_digest ()));
        ("ocaml", String Sys.ocaml_version);
        ("nproc", Number (float_of_int nproc));
        ("pool_jobs", Number (float_of_int (Pool.jobs ())));
        ( "daemon_flags",
          String (if workload = "serve_open" then String.concat " " Pb_serve.daemon_flags else "") );
        ( "smoothe_config",
          if workload = "serve_open" then config_json (request_config 0)
          else config_json smoothe_config );
      ])

(* ------------------------------------------------------------ refs *)

(* Prints pb_refs.ml: each instance's greedy-DAG cost under the current
   program, and the proven optimum of the exact_proof instances. *)
let gen_refs () =
  let p = Printf.printf in
  p "(* Generated by [perfbench.exe gen-refs]: reference costs the benchmark\n";
  p "   reads instead of asking the program under test. *)\n\n";
  p "let greedy_dag = [\n";
  List.iter
    (fun name ->
      let g = build name in
      let c = (Greedy_dag.extract g).Extractor.cost in
      p "  (%S, %h); (* %g *)\n" name c c;
      if Array.mem name Pb_suite.inline_pool then
        for v = 0 to Pb_suite.variants - 1 do
          let g' = Egraph.set_costs g (Pb_suite.perturb name v g.Egraph.costs) in
          let c = (Greedy_dag.extract g').Extractor.cost in
          p "  (%S, %h); (* %g *)\n" (Pb_suite.variant_key name v) c c
        done)
    (Pb_suite.all_instances ());
  p "]\n\nlet optimum = [\n";
  List.iter
    (fun name ->
      let g = build name in
      let warm = (Greedy_dag.extract g).Extractor.solution in
      let r = Ilp.extract ~time_limit:600.0 ?warm_start:warm ~profile:Bnb.cplex_like g in
      if not r.Extractor.proved_optimal then failwith ("no proof for " ^ name);
      p "  (%S, %h); (* %g *)\n" name r.Extractor.cost r.Extractor.cost)
    Pb_suite.exact_instances;
  p "]\n"

(* ------------------------------------------------------------ main *)

let workloads = [ ("extract_suite", extract_suite); ("serve_open", serve_open); ("exact_proof", exact_proof) ]

let main () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let exe = ref "_build/default/bin/smoothe_cli.exe" and out = ref "perfbench-out" in
  let gen = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME");
      ("--seed", Arg.Set_int seed, "N");
      ("--seconds", Arg.Set_float seconds, "S");
      ("--trace", Arg.Set_int trace, "0|1");
      ("--smoothe", Arg.Set_string exe, "PATH to smoothe_cli.exe");
      ("--out", Arg.Set_string out, "DIR for inputs, logs and traces");
    ]
    (function "gen-refs" -> gen := true | a -> raise (Arg.Bad a))
    "perfbench.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !gen then gen_refs ()
  else
    match List.assoc_opt !workload workloads with
    | None ->
        say "unknown workload %S (one of %s)" !workload (String.concat ", " (List.map fst workloads));
        exit 2
    | Some run ->
        (try Unix.mkdir !out 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
        at_exit Pb_serve.stop_all;
        List.iter
          (fun sg -> Sys.set_signal sg (Sys.Signal_handle (fun _ -> exit 3)))
          [ Sys.sigterm; Sys.sigint ];
        let ctx = { seed = !seed; seconds = !seconds; traced = !trace = 1; exe = !exe; out = !out } in
        Pb_trace.on := ctx.traced;
        print_endline (Json.to_string (Json.Object [ ("header", header ctx !workload) ]));
        let total0, steal0 = cpu_ticks () in
        let t = Pb_trace.span ("workload." ^ !workload) (fun () -> run ctx) in
        let total1, steal1 = cpu_ticks () in
        say "cpu steal during the run: %.1f%%"
          (100.0 *. (steal1 -. steal0) /. Float.max 1.0 (total1 -. total0));
        if ctx.traced then
          Pb_trace.write
            (Filename.concat !out (Printf.sprintf "trace-%s-%d.json" !workload !seed));
        let ms =
          List.rev_map
            (fun (name, value, u) -> (name, Json.Object [ ("value", Json.Number value); ("unit", Json.String u) ]))
            !metrics
        in
        print_endline
          (Json.to_string
             (Json.Object
                [
                  ("correct", Json.Bool (t.incorrect = 0));
                  ("attempted", Json.Number (float_of_int t.attempted));
                  ("failed", Json.Number (float_of_int t.failed));
                  ("metrics", Json.Object ms);
                ]))
