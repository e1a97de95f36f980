(* Static-plan replay and the plan-level dataflow analysis.

   The contract under test is strict: a compiled plan replaying the
   captured iteration IR over a shared buffer arena must be BIT-identical
   to the tape interpreter — same loss, same probabilities, same
   gradients, down to signed zeros — while allocating no tensors. The
   arena soundness itself is a property: on random e-graphs the analysis
   may never map two overlapping live ranges to one slot, and any forced
   mis-assignment must be caught by the independent verifier. *)

let default_cfg =
  { Smoothe_config.default with Smoothe_config.batch = 4; prop_iters = Some 4 }

(* One forward pass of the real relaxation, plus everything a plan
   needs: the capture and the ids of the observable nodes. *)
let forward_once ?(config = default_cfg) g model compiled theta =
  let fwd = Relaxation.forward compiled ~config ~model ~theta in
  ignore g;
  fwd

let ids_of (fwd : Relaxation.forward) =
  let root = Ad.node_id fwd.Relaxation.loss in
  let theta_id = Ad.node_id fwd.Relaxation.theta in
  let outputs =
    [|
      Ad.node_id fwd.Relaxation.cp;
      Ad.node_id fwd.Relaxation.per_seed_cost;
      Ad.node_id fwd.Relaxation.penalty;
      root;
    |]
  in
  (root, theta_id, outputs)

(* Capture two consecutive iterations, run the analysis and compile.
   Fails the test on any gate the extraction loop would treat as clean. *)
let compile_plan ?(config = default_cfg) g =
  let model = Cost_model.of_egraph g in
  let compiled = Relaxation.compile config g in
  let rng = Rng.create 23 in
  let theta =
    Tensor.init ~batch:config.Smoothe_config.batch ~width:(Egraph.num_nodes g)
      (fun _ _ -> 0.5 *. Rng.gaussian rng)
  in
  let fwd1 = forward_once ~config g model compiled theta in
  let c1 = Plan.capture fwd1.Relaxation.tape ~root:fwd1.Relaxation.loss in
  let fwd2 = forward_once ~config g model compiled theta in
  let c2 = Plan.capture fwd2.Relaxation.tape ~root:fwd2.Relaxation.loss in
  (match Plan.stable c1 c2 with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("captures unstable: " ^ e));
  let root, theta_id, outputs = ids_of fwd2 in
  let report = Plan_check.analyze ~grads:[| theta_id |] ~root ~outputs c2.Plan.ir in
  let blocking =
    List.filter
      (fun d -> d.Diagnostic.severity <> Diagnostic.Info)
      report.Plan_check.diags
  in
  (match blocking with
  | [] -> ()
  | d :: _ -> Alcotest.fail ("analysis rejected the IR: " ^ Diagnostic.render d));
  match
    Plan.compile
      ~arena:(Plan_check.arena_spec report)
      ~chains:(Plan_check.plan_chains report)
      ~outputs ~grads:[| theta_id |] c2
  with
  | Error e -> Alcotest.fail ("compile failed: " ^ e)
  | Ok plan -> (plan, report, theta, model, compiled, config)

let check_bits msg a b =
  Alcotest.(check bool) msg true (Tensor.bits_equal a b)

(* ------------------------------------------------- replay bit-identity *)

let test_replay_bit_identical () =
  let rng = Rng.create 5 in
  let g = Test_util.random_egraph rng ~classes:10 in
  let plan, _report, theta, model, compiled, config = compile_plan g in
  (* several replays across in-place theta updates, each checked against
     a fresh interpreter pass over the same logits *)
  for round = 1 to 3 do
    let fwd = Relaxation.forward compiled ~config ~model ~theta in
    Plan.run_forward plan;
    check_bits
      (Printf.sprintf "round %d: loss" round)
      (Plan.value plan (Ad.node_id fwd.Relaxation.loss))
      (Ad.value fwd.Relaxation.loss);
    check_bits
      (Printf.sprintf "round %d: cp" round)
      (Plan.value plan (Ad.node_id fwd.Relaxation.cp))
      (Ad.value fwd.Relaxation.cp);
    check_bits
      (Printf.sprintf "round %d: per-seed cost" round)
      (Plan.value plan (Ad.node_id fwd.Relaxation.per_seed_cost))
      (Ad.value fwd.Relaxation.per_seed_cost);
    check_bits
      (Printf.sprintf "round %d: penalty" round)
      (Plan.value plan (Ad.node_id fwd.Relaxation.penalty))
      (Ad.value fwd.Relaxation.penalty);
    Ad.backward fwd.Relaxation.loss;
    Plan.run_backward plan;
    check_bits
      (Printf.sprintf "round %d: theta gradient" round)
      (Plan.grad_of plan (Ad.node_id fwd.Relaxation.theta))
      (Ad.grad fwd.Relaxation.theta);
    (* nudge theta in place, as Adam would, and replay again *)
    let d = Tensor.unsafe_data theta in
    for i = 0 to Tensor.numel theta - 1 do
      d.(i) <- d.(i) +. (0.05 *. Rng.gaussian rng)
    done
  done

(* Minor-heap words a replayed step may allocate: the closures a kernel
   call builds for its row chunks, a constant. A kernel that boxed
   floats would allocate per element, so its words would grow with
   batch and width past any fixed bound. *)
let words_per_step_bound = 64.0

let test_replay_allocates_nothing () =
  List.iter
    (fun (batch, classes) ->
      let rng = Rng.create 9 in
      let g = Test_util.random_egraph rng ~classes in
      let config = { default_cfg with Smoothe_config.batch } in
      let plan, _, _, _, _, _ = compile_plan ~config g in
      (Obs.with_enabled @@ fun () ->
       Metrics.scoped @@ fun () ->
       (* warm-up replay, then measure: steady-state iterations must not
          allocate a single tensor *)
       Plan.run_forward plan;
       Plan.run_backward plan;
       let before = Metrics.counter_value "tensor.bytes_allocated" in
       for _ = 1 to 5 do
         Plan.run_forward plan;
         Plan.run_backward plan
       done;
       let after = Metrics.counter_value "tensor.bytes_allocated" in
       Alcotest.(check (float 0.0)) "zero bytes allocated across 5 replays" before after);
      (* with the sink off, as extractions run by default *)
      let st = Plan.stats plan in
      let steps = float_of_int (st.Plan.steps_forward + st.Plan.steps_backward) in
      let w0 = Gc.minor_words () in
      for _ = 1 to 5 do
        Plan.run_forward plan;
        Plan.run_backward plan
      done;
      let per_step = (Gc.minor_words () -. w0) /. (5.0 *. steps) in
      if per_step > words_per_step_bound then
        Alcotest.failf "batch %d, %d classes: %.1f minor words per replayed step (bound %.0f)"
          batch classes per_step words_per_step_bound)
    [ (4, 8); (16, 40) ]

let test_scalar_backend_refuses () =
  let rng = Rng.create 3 in
  let g = Test_util.random_egraph rng ~classes:6 in
  let config = default_cfg in
  let model = Cost_model.of_egraph g in
  let compiled = Relaxation.compile config g in
  let theta = Tensor.create ~batch:config.Smoothe_config.batch ~width:(Egraph.num_nodes g) in
  let fwd = Relaxation.forward compiled ~config ~model ~theta in
  let c = Plan.capture fwd.Relaxation.tape ~root:fwd.Relaxation.loss in
  let root, theta_id, outputs = ids_of fwd in
  ignore root;
  Tensor.Backend.with_mode Tensor.Backend.Scalar @@ fun () ->
  match Plan.compile ~outputs ~grads:[| theta_id |] c with
  | Ok _ -> Alcotest.fail "compile must refuse the scalar backend"
  | Error _ -> ()

(* ------------------------------------------------------------ capture *)

let test_capture_keeps_only_leaves () =
  let rng = Rng.create 31 in
  let g = Test_util.random_egraph rng ~classes:8 in
  let config = default_cfg in
  let theta =
    Tensor.init ~batch:config.Smoothe_config.batch ~width:(Egraph.num_nodes g)
      (fun _ _ -> 0.5 *. Rng.gaussian rng)
  in
  let fwd =
    Relaxation.forward (Relaxation.compile config g) ~config ~model:(Cost_model.of_egraph g)
      ~theta
  in
  let c = Plan.capture fwd.Relaxation.tape ~root:fwd.Relaxation.loss in
  Array.iteri
    (fun i nd ->
      let op = nd.Ad.Ir.op in
      Alcotest.(check bool)
        (Printf.sprintf "node %d (%s) keeps a value iff it is a leaf" i op)
        (Plan.is_leaf op)
        (Option.is_some c.Plan.vals.(i)))
    c.Plan.ir

(* A two-leaf tape: sum(x * k), x a param, k a const. *)
let leaf_capture ~x ~k =
  let tp = Ad.tape () in
  let xv = Ad.param tp x in
  let loss = Ad.sum_all (Ad.mul xv (Ad.const tp k)) in
  (Plan.capture tp ~root:loss, loss, xv)

let test_capture_leaf_gates () =
  let x = Tensor.init ~batch:2 ~width:3 (fun b w -> float_of_int ((3 * b) + w) -. 2.5) in
  let k = Tensor.init ~batch:2 ~width:3 (fun b w -> 0.25 *. float_of_int (b + w + 1)) in
  let c1, _, _ = leaf_capture ~x ~k in
  let c2, loss, xv = leaf_capture ~x ~k:(Tensor.copy k) in
  (match Plan.stable c1 c2 with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("same param, bitwise-equal const: " ^ e));
  let rejects what c msg =
    match Plan.stable c1 c with
    | Ok () -> Alcotest.fail (what ^ " accepted")
    | Error e -> Alcotest.(check bool) (what ^ ": " ^ e) true (Test_util.contains e msg)
  in
  let rebound, _, _ = leaf_capture ~x:(Tensor.copy x) ~k in
  rejects "rebound param" rebound "param rebound";
  let k' = Tensor.copy k in
  Tensor.set k' 1 2 (Tensor.get k 1 2 +. 1.0);
  let changed, _, _ = leaf_capture ~x ~k:k' in
  rejects "changed const" changed "const leaf value changed";
  let x_id = Ad.node_id xv in
  match Plan.compile ~outputs:[||] ~grads:[| x_id |] c2 with
  | Error e -> Alcotest.fail ("compile from a leaf-only capture: " ^ e)
  | Ok p ->
      Plan.run_forward p;
      check_bits "replayed loss" (Plan.value p (Ad.node_id loss)) (Ad.value loss);
      Ad.backward loss;
      Plan.run_backward p;
      check_bits "replayed param gradient" (Plan.grad_of p x_id) (Ad.grad xv)

(* ------------------------------------------------------- whole runs *)

let run_cost mode g =
  let config =
    { default_cfg with Smoothe_config.max_iters = 12; patience = 50; plan = mode }
  in
  let run = Smoothe_extract.extract ~config g in
  (run.Smoothe_extract.result.Extractor.cost, run)

let test_extract_modes_agree () =
  (* the plan must never change results, only cost: off / on / check all
     land on the same incumbent, and check mode asserts bitwise equality
     internally on every replayed iteration *)
  let rng = Rng.create 17 in
  List.iter
    (fun classes ->
      let g = Test_util.random_egraph rng ~classes in
      let off, _ = run_cost Smoothe_config.Plan_off g in
      let on, run_on = run_cost Smoothe_config.Plan_on g in
      let check, _ = run_cost Smoothe_config.Plan_check g in
      Alcotest.(check (float 0.0)) "plan on = off" off on;
      Alcotest.(check (float 0.0)) "plan check = off" off check;
      (* the interesting case actually armed: no Preflight "disabled" *)
      let disabled =
        List.exists
          (fun e ->
            e.Health.kind = Health.Preflight
            && String.length e.Health.detail >= 13
            && String.sub e.Health.detail 0 13 = "plan disabled")
          run_on.Smoothe_extract.health
      in
      Alcotest.(check bool) "plan armed on a static graph" false disabled)
    [ 6; 12 ]

let test_extract_agree_across_jobs () =
  (* bundled instances, interpreted vs replayed, at --jobs 1 and 4 *)
  let g = Fig1.egraph () in
  List.iter
    (fun jobs ->
      Pool.set_jobs jobs;
      Fun.protect
        ~finally:(fun () -> Pool.set_jobs 1)
        (fun () ->
          let off, _ = run_cost Smoothe_config.Plan_off g in
          let check, _ = run_cost Smoothe_config.Plan_check g in
          Alcotest.(check (float 0.0))
            (Printf.sprintf "jobs %d: check mode bit-identical end to end" jobs)
            off check))
    [ 1; 4 ]

(* The library default replays. On the smallest member of each
   benchmark family (deep, shallow, cyclic, correlated) a default run
   must arm and match a Plan_off run bit for bit: cost, iterations,
   best seed and the whole history except wall-clock. *)
let test_default_replays_like_off () =
  let config = { Smoothe_config.default with Smoothe_config.max_iters = 8 } in
  Alcotest.(check string) "default plan mode" "on"
    (Smoothe_config.plan_mode_name config.Smoothe_config.plan);
  let bits x = Int64.bits_of_float x in
  let shape run =
    ( bits run.Smoothe_extract.result.Extractor.cost,
      run.Smoothe_extract.iterations,
      run.Smoothe_extract.best_seed,
      List.map
        (fun h ->
          ( h.Smoothe_extract.iter,
            bits h.Smoothe_extract.relaxed_loss,
            bits h.Smoothe_extract.sampled_cost,
            bits h.Smoothe_extract.incumbent ))
        run.Smoothe_extract.history )
  in
  List.iter
    (fun jobs ->
      Pool.set_jobs jobs;
      Fun.protect
        ~finally:(fun () -> Pool.set_jobs 1)
        (fun () ->
          List.iter
            (fun name ->
              let g = (Registry.find_instance name).Registry.build () in
              let on = Smoothe_extract.extract ~config g in
              let off =
                Smoothe_extract.extract
                  ~config:{ config with Smoothe_config.plan = Smoothe_config.Plan_off }
                  g
              in
              let what = Printf.sprintf "%s, jobs %d" name jobs in
              (match on.Smoothe_extract.plan with
              | Smoothe_extract.Replay_armed _ -> ()
              | _ -> Alcotest.fail (what ^ ": default run did not arm"));
              Alcotest.(check bool)
                (what ^ ": off run reports no plan")
                true
                (off.Smoothe_extract.plan = Smoothe_extract.Replay_off);
              Alcotest.(check bool)
                (what ^ ": bit-identical to the interpreter")
                true
                (shape on = shape off))
            [ "box_3"; "maxsat_25_120"; "ResNet-50"; "adpcm" ]))
    [ 1; 2 ]

(* ------------------------------------------------- analysis properties *)

let capture_ir g =
  let config = default_cfg in
  let model = Cost_model.of_egraph g in
  let compiled = Relaxation.compile config g in
  let theta =
    Tensor.init ~batch:config.Smoothe_config.batch ~width:(Egraph.num_nodes g)
      (fun b w -> 0.1 *. float_of_int ((b * 7) + w mod 5))
  in
  let fwd = Relaxation.forward compiled ~config ~model ~theta in
  let root, theta_id, outputs = ids_of fwd in
  (Ad.ir fwd.Relaxation.tape, root, theta_id, outputs)

let prop_arena_sound =
  QCheck2.Test.make ~count:30 ~name:"arena never overlaps live ranges in a slot"
    (Test_util.arb_egraph ~max_classes:9 ())
    (fun g ->
      let ir, root, theta_id, outputs = capture_ir g in
      let report = Plan_check.analyze ~grads:[| theta_id |] ~root ~outputs ir in
      (* the analysis must accept its own assignment... *)
      Diagnostic.errors report.Plan_check.diags = 0
      && Diagnostic.warnings report.Plan_check.diags = 0
      &&
      (* ...and the verifier must reject every forced mis-placement: an
         assigned buffer moved to any earlier slot must trip PL001/PL002
         (the greedy scan already proved earlier slots conflict) *)
      let ok = ref true in
      Array.iteri
        (fun b s ->
          if s > 0 then
            for s' = 0 to s - 1 do
              let assign = Array.copy report.Plan_check.assign in
              assign.(b) <- s';
              let diags =
                Plan_check.verify_arena report
                  ~slot_sizes:report.Plan_check.slot_sizes ~assign
              in
              if Diagnostic.errors diags = 0 then ok := false
            done)
        report.Plan_check.assign;
      !ok)

let prop_replay_bit_identical =
  QCheck2.Test.make ~count:12 ~name:"replay bit-identical to interpreter"
    (Test_util.arb_egraph ~max_classes:8 ())
    (fun g ->
      let plan, _, theta, model, compiled, config = compile_plan g in
      let fwd = Relaxation.forward compiled ~config ~model ~theta in
      Plan.run_forward plan;
      Ad.backward fwd.Relaxation.loss;
      Plan.run_backward plan;
      Tensor.bits_equal
        (Plan.value plan (Ad.node_id fwd.Relaxation.loss))
        (Ad.value fwd.Relaxation.loss)
      && Tensor.bits_equal
           (Plan.value plan (Ad.node_id fwd.Relaxation.cp))
           (Ad.value fwd.Relaxation.cp)
      && Tensor.bits_equal
           (Plan.grad_of plan (Ad.node_id fwd.Relaxation.theta))
           (Ad.grad fwd.Relaxation.theta))

(* ------------------------------------------------------ stability *)

let mk_ir nodes = Array.of_list nodes

let nd ?(args = [||]) ?(meta = Ad.Ir.M_none) op batch width =
  { Ad.Ir.op; args; shape = { Ad.Ir.batch; width }; context = ""; meta }

let test_stability_codes () =
  let a = mk_ir [ nd "param" 1 4; nd "neg" ~args:[| 0 |] 1 4 ] in
  Alcotest.(check int) "identical IRs are stable" 0
    (List.length (Plan_check.stability a a));
  let longer = mk_ir [ nd "param" 1 4; nd "neg" ~args:[| 0 |] 1 4; nd "neg" ~args:[| 1 |] 1 4 ] in
  (match Plan_check.stability a longer with
  | [ d ] -> Alcotest.(check string) "length divergence is PL006" "PL006" d.Diagnostic.code
  | _ -> Alcotest.fail "expected one diagnostic");
  let other_op = mk_ir [ nd "param" 1 4; nd "relu" ~args:[| 0 |] 1 4 ] in
  (match Plan_check.stability a other_op with
  | [ d ] -> Alcotest.(check string) "op divergence is PL006" "PL006" d.Diagnostic.code
  | _ -> Alcotest.fail "expected one diagnostic");
  let b1 =
    mk_ir [ nd "param" 1 4; nd "scale" ~args:[| 0 |] ~meta:(Ad.Ir.M_scalar 2.0) 1 4 ]
  in
  let b2 =
    mk_ir [ nd "param" 1 4; nd "scale" ~args:[| 0 |] ~meta:(Ad.Ir.M_scalar 3.0) 1 4 ]
  in
  match Plan_check.stability b1 b2 with
  | [ d ] ->
      Alcotest.(check string) "metadata-only divergence is PL007" "PL007" d.Diagnostic.code
  | _ -> Alcotest.fail "expected one diagnostic"

(* ----------------------------------------------- tape-identity guards *)

let test_cross_tape_mixing_raises () =
  let t1 = Ad.tape () and t2 = Ad.tape () in
  let x = Ad.param t1 (Tensor.of_array ~batch:1 ~width:2 [| 1.0; 2.0 |]) in
  let y = Ad.param t2 (Tensor.of_array ~batch:1 ~width:2 [| 3.0; 4.0 |]) in
  match Ad.add x y with
  | _ -> Alcotest.fail "mixing nodes from two tapes must raise"
  | exception Invalid_argument msg ->
      Alcotest.(check bool) "message names the tape mix" true
        (Test_util.contains msg "different tape")

let test_grad_before_backward_raises () =
  let tape = Ad.tape () in
  let x = Ad.param tape (Tensor.of_array ~batch:1 ~width:2 [| 1.0; 2.0 |]) in
  let _loss = Ad.sum_all (Ad.mul x x) in
  match Ad.grad x with
  | _ -> Alcotest.fail "grad before backward must raise"
  | exception Invalid_argument msg ->
      Alcotest.(check bool) "message names the missing sweep" true
        (Test_util.contains msg "not been swept")

let test_context_chain_in_diagnostics () =
  (* nested with_context joins outermost→innermost, and the analysis
     carries the full chain into rendered text and JSON *)
  let tape = Ad.tape () in
  let x = Ad.param tape (Tensor.of_array ~batch:1 ~width:2 [| 1.0; 2.0 |]) in
  let mk label =
    Ad.with_context "outer.loop" @@ fun () ->
    Ad.with_context label @@ fun () -> Ad.sum_all (Ad.neg x)
  in
  let _a = mk "inner.first" in
  let ir1 = Ad.ir tape in
  let tape2 = Ad.tape () in
  let x2 = Ad.param tape2 (Tensor.of_array ~batch:1 ~width:2 [| 1.0; 2.0 |]) in
  let _b =
    Ad.with_context "outer.loop" @@ fun () ->
    Ad.with_context "inner.second" @@ fun () -> Ad.sum_all (Ad.neg x2)
  in
  let ir2 = Ad.ir tape2 in
  Alcotest.(check bool) "IR records the joined chain" true
    (Array.exists (fun nd -> nd.Ad.Ir.context = "outer.loop/inner.first") ir1);
  match Plan_check.stability ir1 ir2 with
  | [ d ] ->
      Alcotest.(check string) "divergent provenance is PL006" "PL006" d.Diagnostic.code;
      let text = Diagnostic.render d in
      Alcotest.(check bool) "text render carries both chains" true
        (Test_util.contains text "outer.loop/inner.first"
        && Test_util.contains text "outer.loop/inner.second");
      let json = Json.to_string (Diagnostic.to_json d) in
      Alcotest.(check bool) "json render carries the chain" true
        (Test_util.contains json "outer.loop/inner.first")
  | ds ->
      Alcotest.fail
        (Printf.sprintf "expected exactly one diagnostic, got %d" (List.length ds))

let test_analysis_reports_fusion () =
  (* x -> neg -> scale -> add_scalar -> ... must surface a PL004 chain.
     The relaxation's own tape has no such run since its propagation
     step is one fused op, so the chain is built here directly. *)
  let tp = Ad.tape () in
  let x = Ad.param tp (Tensor.init ~batch:2 ~width:3 (fun b i -> float_of_int (b - i))) in
  let loss = Ad.sum_all (Ad.add_scalar 1.0 (Ad.scale 0.5 (Ad.neg x))) in
  let chain_report =
    Plan_check.analyze ~grads:[| Ad.node_id x |] ~root:(Ad.node_id loss) ~outputs:[||]
      (Ad.ir tp)
  in
  let has code =
    List.exists (fun d -> d.Diagnostic.code = code) chain_report.Plan_check.diags
  in
  Alcotest.(check bool) "finds at least one fusable chain (PL004)" true (has "PL004");
  let rng = Rng.create 29 in
  let g = Test_util.random_egraph rng ~classes:10 in
  let ir, root, theta_id, outputs = capture_ir g in
  let report = Plan_check.analyze ~grads:[| theta_id |] ~root ~outputs ir in
  Alcotest.(check bool) "arena smaller than interpreter allocation" true
    (report.Plan_check.arena_bytes < report.Plan_check.naive_bytes)

let () =
  let qcheck = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "plan"
    [
      ( "replay",
        [
          Alcotest.test_case "bit-identical across rounds" `Quick test_replay_bit_identical;
          Alcotest.test_case "allocates nothing" `Quick test_replay_allocates_nothing;
          Alcotest.test_case "scalar backend refused" `Quick test_scalar_backend_refuses;
        ] );
      ( "capture",
        [
          Alcotest.test_case "keeps only leaf values" `Quick test_capture_keeps_only_leaves;
          Alcotest.test_case "leaf gates and compile" `Quick test_capture_leaf_gates;
        ] );
      ( "extraction",
        [
          Alcotest.test_case "modes agree" `Slow test_extract_modes_agree;
          Alcotest.test_case "jobs 1 and 4 agree" `Slow test_extract_agree_across_jobs;
          Alcotest.test_case "default replays like off" `Slow test_default_replays_like_off;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "stability codes" `Quick test_stability_codes;
          Alcotest.test_case "fusion + arena accounting" `Quick test_analysis_reports_fusion;
          Alcotest.test_case "context chain in diagnostics" `Quick
            test_context_chain_in_diagnostics;
        ] );
      ( "guards",
        [
          Alcotest.test_case "cross-tape mixing raises" `Quick test_cross_tape_mixing_raises;
          Alcotest.test_case "grad before backward raises" `Quick
            test_grad_before_backward_raises;
        ] );
      ("properties", qcheck [ prop_arena_sound; prop_replay_bit_identical ]);
    ]
