(* Gradient checks: every analytic adjoint in Ad is validated against
   central finite differences, plus optimiser behaviour tests. *)

let qtest ?(count = 60) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let rand_tensor rng ~batch ~width = Tensor.init ~batch ~width (fun _ _ -> Rng.float rng 2.0 -. 1.0)

(* Check d(sum f(x))/dx against finite differences. [build] maps a param
   node to the output node. *)
let grad_check ?(tol = 1e-4) ~build x =
  let forward t =
    let tape = Ad.tape () in
    let v = Ad.param tape (Tensor.copy t) in
    Tensor.sum (Ad.value (build tape v))
  in
  let tape = Ad.tape () in
  let v = Ad.param tape x in
  let out = build tape v in
  Ad.backward out;
  let analytic = Ad.grad v in
  let numeric = Ad.finite_difference ~f:forward ~x ~eps:1e-5 in
  let ok = ref true in
  let worst = ref 0.0 in
  for i = 0 to Tensor.numel x - 1 do
    let a = (Tensor.unsafe_data analytic).(i) and n = (Tensor.unsafe_data numeric).(i) in
    let err = Float.abs (a -. n) /. (1.0 +. Float.abs n) in
    if err > !worst then worst := err;
    if err > tol then ok := false
  done;
  !ok

let seeded_gen = QCheck2.Gen.int_bound 1_000_000

let pointwise_grads =
  List.map
    (fun (name, build) ->
      qtest ("grad: " ^ name) seeded_gen (fun seed ->
          let rng = Rng.create seed in
          let x = rand_tensor rng ~batch:2 ~width:5 in
          (* fixed partner tensor, shared by every finite-difference probe *)
          let other = rand_tensor rng ~batch:2 ~width:5 in
          grad_check ~build:(fun tape v -> build tape other v) x))
    [
      ("add self", fun _ _ v -> Ad.add v v);
      ("sub const", fun tape other v -> Ad.sub v (Ad.const tape other));
      ("mul const", fun tape other v -> Ad.mul v (Ad.const tape other));
      ("mul self", fun _ _ v -> Ad.mul v v);
      ("neg", fun _ _ v -> Ad.neg v);
      ("scale", fun _ _ v -> Ad.scale 2.5 v);
      ("add_scalar", fun _ _ v -> Ad.add_scalar 3.0 v);
      ("sum_width", fun _ _ v -> Ad.sum_width v);
      ("sum_all", fun _ _ v -> Ad.sum_all v);
      ("mean_all", fun _ _ v -> Ad.mean_all v);
      ("mean_rows", fun _ _ v -> Ad.mean_rows v);
      ("slice_row", fun _ _ v -> Ad.slice_row v 1);
      ("gather", fun _ _ v -> Ad.gather v [| 0; 2; 2; 4; 1 |]);
      ("dot_const", fun _ _ v -> Ad.dot_const v [| 0.5; -1.0; 2.0; 0.0; 3.0 |]);
      ("compose mul(1-x, x)", fun _ _ v -> Ad.mul (Ad.add_scalar 1.0 (Ad.neg v)) v);
    ]

let log_safe_grad =
  qtest "grad: log_safe (positive inputs)" seeded_gen (fun seed ->
      let rng = Rng.create seed in
      let x = Tensor.init ~batch:2 ~width:5 (fun _ _ -> 0.1 +. Rng.float rng 2.0) in
      grad_check ~build:(fun _ v -> Ad.log_safe v) x)

let entropy_grad =
  qtest "grad: entropy term cp*log(cp)" seeded_gen (fun seed ->
      let rng = Rng.create seed in
      let x = Tensor.init ~batch:1 ~width:6 (fun _ _ -> 0.1 +. Rng.float rng 0.8) in
      grad_check ~build:(fun _ v -> Ad.sum_all (Ad.mul v (Ad.log_safe v))) x)

let relu_grad =
  (* relu is kinked at 0: sample away from it *)
  qtest "grad: relu (away from kink)" seeded_gen (fun seed ->
      let rng = Rng.create seed in
      let x =
        Tensor.init ~batch:2 ~width:5 (fun _ _ ->
            let v = Rng.float rng 2.0 -. 1.0 in
            if Float.abs v < 0.05 then 0.5 else v)
      in
      grad_check ~build:(fun _ v -> Ad.relu v) x)

let segment_grads =
  let seg = Segments.of_lens [| 2; 1; 3 |] in
  List.map
    (fun (name, build) ->
      qtest ("grad: " ^ name) seeded_gen (fun seed ->
          let rng = Rng.create seed in
          let x = Tensor.init ~batch:2 ~width:6 (fun _ _ -> Rng.float rng 2.0 -. 1.0) in
          grad_check ~build:(fun _ v -> build v) x))
    [
      ("segment_softmax", fun v -> Ad.mul (Ad.segment_softmax v seg) (Ad.segment_softmax v seg));
      ("segment_sum", fun v -> Ad.mul (Ad.segment_sum v seg) (Ad.segment_sum v seg));
    ]

let segment_softmax_weighted_grad =
  qtest "grad: weighted segment_softmax" seeded_gen (fun seed ->
      let seg = Segments.of_lens [| 3; 3 |] in
      let rng = Rng.create seed in
      let x = Tensor.init ~batch:1 ~width:6 (fun _ _ -> Rng.float rng 2.0 -. 1.0) in
      let u = [| 1.0; -2.0; 0.5; 3.0; 0.0; -1.0 |] in
      grad_check ~build:(fun _ v -> Ad.dot_const (Ad.segment_softmax v seg) u) x)

(* The fused propagation step on random structures with empty parent
   lists, a pinned root (which may have parents) and repeated parent
   e-nodes, against finite differences in both operands. Marginals are
   kept apart so no max tie sits within a probe's reach. *)
let propagate_grads =
  List.map
    (fun mix ->
      qtest
        (Printf.sprintf "grad: propagate_step (%s)" (Propagation.mix_name mix))
        seeded_gen
        (fun seed ->
          let rng = Rng.create seed in
          let nodes = 2 + Rng.int rng 7 and classes = 1 + Rng.int rng 5 in
          let prop = Test_util.random_propagation rng ~mix ~nodes ~classes in
          let p = Test_util.separated_probabilities rng ~batch:2 ~width:nodes in
          let cp = Tensor.init ~batch:2 ~width:nodes (fun _ _ -> 0.1 +. Rng.float rng 0.8) in
          let w = rand_tensor rng ~batch:2 ~width:nodes in
          let weighted tape y = Ad.mul y (Ad.const tape w) in
          grad_check
            ~build:(fun tape v ->
              weighted tape (Ad.propagate ~p0:v prop ~steps:1 ~cp:(Ad.const tape (Tensor.copy cp))))
            p
          && grad_check
               ~build:(fun tape v ->
                 weighted tape
                   (Ad.propagate ~p0:(Ad.const tape (Tensor.copy p)) prop ~steps:1 ~cp:v))
               cp))
    Propagation.[ Independent; Correlated; Hybrid ]

(* At a max tie the documented subgradient credits the first tied parent
   edge only: it must equal the one-sided derivative that raises that
   parent, and the one that lowers the other tied parent. Class 1's
   parents are e-nodes 0 and 1 (tied), class 2's is e-node 2, and
   e-node 3 carries class 2's probability into the output. *)
let propagate_tie_grad =
  qtest "grad: propagate_step at max ties" seeded_gen (fun seed ->
      let rng = Rng.create seed in
      let ok = ref true in
      List.iter
        (fun mix ->
          let prop =
            Propagation.make ~mix ~edge_node:[| 0; 1; 2 |]
              ~parents:(Segments.of_lens [| 0; 2; 1 |])
              ~node_class:[| 1; 1; 0; 2 |] ~root:0
          in
          let tie = 0.2 +. Rng.float rng 0.6 in
          let p = Tensor.of_array ~batch:1 ~width:4 [| tie; tie; Rng.float rng 1.0; 0.5 |] in
          let cp = Tensor.init ~batch:1 ~width:4 (fun _ _ -> 0.1 +. Rng.float rng 0.8) in
          let w = Tensor.init ~batch:1 ~width:4 (fun _ _ -> 0.5 +. Rng.float rng 1.0) in
          let loss tape v =
            Ad.sum_all
              (Ad.mul (Ad.propagate ~p0:v prop ~steps:1 ~cp:(Ad.const tape cp)) (Ad.const tape w))
          in
          let f x =
            let tape = Ad.tape () in
            Tensor.get (Ad.value (loss tape (Ad.param tape x))) 0 0
          in
          let tape = Ad.tape () in
          let v = Ad.param tape (Tensor.copy p) in
          Ad.backward (loss tape v);
          let g = Ad.grad v in
          let h = 1e-7 in
          let moved i d =
            let x = Tensor.copy p in
            Tensor.set x 0 i (Tensor.get x 0 i +. d);
            f x
          in
          let f0 = f p in
          let raise_first = (moved 0 h -. f0) /. h in
          let lower_second = (f0 -. moved 1 (-.h)) /. h in
          let close a b = Float.abs (a -. b) <= 1e-5 *. (1.0 +. Float.abs b) in
          if not (close (Tensor.get g 0 0) raise_first && close (Tensor.get g 0 1) lower_second)
          then ok := false;
          (* the tie is a kink: the credited parent's gradient carries the
             max term, the other tied parent's does not *)
          if mix = Propagation.Correlated && Tensor.get g 0 1 <> 0.0 then ok := false)
        Propagation.[ Correlated; Hybrid ];
      !ok)

(* The whole unrolled propagation as one op against the same number of
   chained single steps: p^T, the cp adjoint and the p⁰ adjoint must be
   bit-identical for every mix, for p⁰ given or built from cp, for T = 1,
   below, at and above the structure's depth (its deepest finite settle
   step or height), on both backends and with one or two pool domains
   (the cutoff lowered so every row chunk goes through the pool). *)
let propagate_fused_matches_chained =
  qtest ~count:40 "propagate: fused steps = chained single steps" seeded_gen (fun seed ->
      let rng = Rng.create seed in
      let nodes = 2 + Rng.int rng 9 and classes = 1 + Rng.int rng 6 in
      let dag = Rng.int rng 2 = 0 in
      let batch = 1 + Rng.int rng 3 in
      let p0 = Test_util.separated_probabilities rng ~batch ~width:nodes in
      let cp = Tensor.init ~batch ~width:nodes (fun _ _ -> 0.1 +. Rng.float rng 0.8) in
      let w = rand_tensor rng ~batch ~width:nodes in
      List.for_all
        (fun mix ->
          let prop = Test_util.random_propagation ~dag rng ~mix ~nodes ~classes in
          let finite_max a =
            Array.fold_left (fun d x -> if x = Propagation.never then d else max d x) 1 a
          in
          let depth = max (finite_max prop.Propagation.settle) (finite_max prop.Propagation.height) in
          let run ~fused ~given ~steps =
            let tape = Ad.tape () in
            let cpv = Ad.param tape (Tensor.copy cp) in
            let p0v = if given then Some (Ad.param tape (Tensor.copy p0)) else None in
            let out =
              if fused then Ad.propagate ?p0:p0v prop ~steps ~cp:cpv
              else Test_util.chained_propagation ?p0:p0v tape prop ~steps ~cp:cpv
            in
            Ad.backward (Ad.sum_all (Ad.mul out (Ad.const tape w)));
            Ad.value out :: Ad.grad cpv :: Option.to_list (Option.map Ad.grad p0v)
          in
          let saved_jobs = Pool.jobs () and saved_cutoff = !Parallel.sequential_cutoff in
          Fun.protect ~finally:(fun () ->
              Pool.set_jobs saved_jobs;
              Parallel.sequential_cutoff := saved_cutoff)
          @@ fun () ->
          Parallel.sequential_cutoff := 1;
          List.for_all
            (fun (steps, given, backend, jobs) ->
              Pool.set_jobs jobs;
              Tensor.Backend.with_mode backend (fun () ->
                  List.for_all2 Tensor.bits_equal
                    (run ~fused:true ~given ~steps)
                    (run ~fused:false ~given ~steps)))
            (List.concat_map
               (fun steps ->
                 List.concat_map
                   (fun given ->
                     List.concat_map
                       (fun backend -> [ (steps, given, backend, 1); (steps, given, backend, 2) ])
                       Tensor.Backend.[ Vectorized; Scalar ])
                   [ true; false ])
               (List.sort_uniq compare [ 1; max 1 (depth - 1); depth; depth + 2 ])))
        Propagation.[ Independent; Correlated; Hybrid ])

let linear_grads =
  qtest "grad: linear layer (input, weight, bias)" seeded_gen (fun seed ->
      let rng = Rng.create seed in
      let x = rand_tensor rng ~batch:3 ~width:4 in
      let w = rand_tensor rng ~batch:2 ~width:4 in
      let b = rand_tensor rng ~batch:1 ~width:2 in
      let ok_x =
        grad_check
          ~build:(fun tape v ->
            Ad.linear ~input:v ~weight:(Ad.param tape (Tensor.copy w))
              ~bias:(Ad.param tape (Tensor.copy b)))
          x
      in
      let ok_w =
        grad_check
          ~build:(fun tape v ->
            Ad.linear ~input:(Ad.const tape x) ~weight:v ~bias:(Ad.param tape (Tensor.copy b)))
          w
      in
      let ok_b =
        grad_check
          ~build:(fun tape v ->
            Ad.linear ~input:(Ad.const tape x) ~weight:(Ad.param tape (Tensor.copy w)) ~bias:v)
          b
      in
      ok_x && ok_w && ok_b)

let matrix_of_entries_grad =
  qtest "grad: matrix_of_entries + expm_trace" seeded_gen (fun seed ->
      let rng = Rng.create seed in
      (* non-negative inputs as in the real NOTEARS use *)
      let x = Tensor.init ~batch:1 ~width:4 (fun _ _ -> Rng.float rng 0.8) in
      let entries = [| (0, 0, 1); (1, 1, 0); (2, 1, 2); (3, 2, 0) |] in
      grad_check ~tol:1e-3
        ~build:(fun _ v -> Ad.expm_trace (Ad.matrix_of_entries v ~dim:3 entries))
        x)

let mse_grad =
  qtest "grad: mse" seeded_gen (fun seed ->
      let rng = Rng.create seed in
      let x = rand_tensor rng ~batch:4 ~width:1 in
      let target = rand_tensor rng ~batch:4 ~width:1 in
      grad_check ~build:(fun tape v -> Ad.mse ~pred:v ~target:(Ad.const tape target)) x)

(* -------------------------------------------------- behavioural checks *)

let test_backward_seeds_ones () =
  let tape = Ad.tape () in
  let x = Ad.param tape (Tensor.of_array ~batch:1 ~width:2 [| 3.0; 4.0 |]) in
  let y = Ad.scale 2.0 x in
  Ad.backward y;
  Test_util.check_close ~msg:"dy/dx0" 2.0 (Tensor.get (Ad.grad x) 0 0);
  Test_util.check_close ~msg:"dy/dx1" 2.0 (Tensor.get (Ad.grad x) 0 1)

let test_grad_accumulates_fanout () =
  let tape = Ad.tape () in
  let x = Ad.param tape (Tensor.of_array ~batch:1 ~width:1 [| 5.0 |]) in
  (* y = x + x: dy/dx = 2 via accumulation across the fan-out *)
  let y = Ad.add x x in
  Ad.backward y;
  Test_util.check_close ~msg:"fanout grad" 2.0 (Tensor.get (Ad.grad x) 0 0)

let test_const_blocks_grad () =
  let tape = Ad.tape () in
  let c = Ad.const tape (Tensor.of_array ~batch:1 ~width:1 [| 2.0 |]) in
  let x = Ad.param tape (Tensor.of_array ~batch:1 ~width:1 [| 3.0 |]) in
  let y = Ad.mul c x in
  Ad.backward y;
  Test_util.check_close ~msg:"const grad untouched by pull" 3.0 (Tensor.get (Ad.grad c) 0 0);
  Test_util.check_close ~msg:"param grad" 2.0 (Tensor.get (Ad.grad x) 0 0)

let test_node_count () =
  let tape = Ad.tape () in
  let x = Ad.param tape (Tensor.create ~batch:1 ~width:3) in
  ignore (Ad.add x (Ad.neg x));
  Alcotest.(check int) "nodes on tape" 3 (Ad.node_count tape)

let test_double_backward_raises () =
  (* tapes are single-use: the pull closures are consumed by the sweep,
     so a second backward must fail loudly rather than return zeros *)
  let tape = Ad.tape () in
  let x = Ad.param tape (Tensor.of_array ~batch:1 ~width:2 [| 1.0; 2.0 |]) in
  let loss = Ad.sum_all (Ad.mul x x) in
  Ad.backward loss;
  (match Ad.backward loss with
  | () -> Alcotest.fail "second backward on the same tape should raise"
  | exception Invalid_argument msg ->
      Alcotest.(check bool) "message names the single-use constraint" true
        (let n = String.length msg and m = String.length "single-use" in
         let rec go i = i + m <= n && (String.sub msg i m = "single-use" || go (i + 1)) in
         go 0));
  (* a fresh tape over the same tensor works fine *)
  let tape2 = Ad.tape () in
  let x2 = Ad.param tape2 (Tensor.of_array ~batch:1 ~width:2 [| 1.0; 2.0 |]) in
  let loss2 = Ad.sum_all (Ad.mul x2 x2) in
  Ad.backward loss2;
  Test_util.check_close ~msg:"fresh tape grad" 2.0 (Tensor.get (Ad.grad x2) 0 0)

let test_ir_records_ops () =
  (* every operator leaves one IR node with op name, args and shape *)
  let tape = Ad.tape () in
  let x = Ad.param tape (Tensor.of_array ~batch:2 ~width:3 [| 1.; 2.; 3.; 4.; 5.; 6. |]) in
  let loss =
    Ad.with_context "test.loss" @@ fun () -> Ad.sum_all (Ad.mul x (Ad.add_scalar 1.0 x))
  in
  let ir = Ad.ir tape in
  Alcotest.(check int) "one IR node per tape node" (Ad.node_count tape) (Array.length ir);
  Alcotest.(check int) "loss is the last node" (Array.length ir - 1) (Ad.node_id loss);
  Alcotest.(check string) "param recorded" "param" ir.(Ad.node_id x).Ad.Ir.op;
  let last = ir.(Ad.node_id loss) in
  Alcotest.(check string) "op name" "sum_all" last.Ad.Ir.op;
  Alcotest.(check bool) "shape" true (last.Ad.Ir.shape = { Ad.Ir.batch = 1; width = 1 });
  Alcotest.(check string) "context label" "test.loss" last.Ad.Ir.context;
  Alcotest.(check bool) "args point at earlier nodes" true
    (Array.for_all
       (fun nd -> Array.for_all (fun a -> a >= 0) nd.Ad.Ir.args)
       ir)

(* --------------------------------------------------------------- optim *)

let test_adam_minimises_quadratic () =
  (* minimise ||x - t||² *)
  let x = Tensor.of_array ~batch:1 ~width:3 [| 5.0; -4.0; 2.0 |] in
  let target = Tensor.of_array ~batch:1 ~width:3 [| 1.0; 2.0; 3.0 |] in
  let opt = Optim.adam ~lr:0.1 [ x ] in
  for _ = 1 to 400 do
    let tape = Ad.tape () in
    let v = Ad.param tape x in
    let loss = Ad.mse ~pred:v ~target:(Ad.const tape target) in
    Ad.backward loss;
    Optim.adam_step opt [ Ad.grad v ]
  done;
  for i = 0 to 2 do
    Test_util.check_close ~tol:1e-2 ~msg:"converged" (Tensor.get target 0 i) (Tensor.get x 0 i)
  done

let test_sgd_step () =
  let x = Tensor.of_array ~batch:1 ~width:2 [| 1.0; 2.0 |] in
  let g = Tensor.of_array ~batch:1 ~width:2 [| 0.5; -1.0 |] in
  Optim.sgd_step ~lr:0.1 ~params:[ x ] ~grads:[ g ];
  Test_util.check_close ~msg:"x0" 0.95 (Tensor.get x 0 0);
  Test_util.check_close ~msg:"x1" 2.1 (Tensor.get x 0 1)

let test_clip_grad_norm () =
  let g = Tensor.of_array ~batch:1 ~width:2 [| 3.0; 4.0 |] in
  let norm = Optim.clip_grad_norm ~max_norm:1.0 [ g ] in
  Test_util.check_close ~msg:"pre-clip norm" 5.0 norm;
  Test_util.check_close ~msg:"clipped x" 0.6 (Tensor.get g 0 0);
  Test_util.check_close ~msg:"clipped y" 0.8 (Tensor.get g 0 1);
  let g2 = Tensor.of_array ~batch:1 ~width:2 [| 0.3; 0.4 |] in
  ignore (Optim.clip_grad_norm ~max_norm:1.0 [ g2 ]);
  Test_util.check_close ~msg:"under threshold untouched" 0.3 (Tensor.get g2 0 0)

let () =
  Alcotest.run "autodiff"
    ([
       ( "behaviour",
         [
           Alcotest.test_case "backward seeds ones" `Quick test_backward_seeds_ones;
           Alcotest.test_case "fan-out accumulates" `Quick test_grad_accumulates_fanout;
           Alcotest.test_case "const blocks grad" `Quick test_const_blocks_grad;
           Alcotest.test_case "node count" `Quick test_node_count;
           Alcotest.test_case "double backward raises" `Quick test_double_backward_raises;
           Alcotest.test_case "ir records ops" `Quick test_ir_records_ops;
         ] );
       ( "optim",
         [
           Alcotest.test_case "adam minimises quadratic" `Quick test_adam_minimises_quadratic;
           Alcotest.test_case "sgd step" `Quick test_sgd_step;
           Alcotest.test_case "clip_grad_norm" `Quick test_clip_grad_norm;
         ] );
     ]
    @ [
        ( "gradients",
          pointwise_grads
          @ [ relu_grad; log_safe_grad; entropy_grad ]
          @ segment_grads @ propagate_grads
          @ [
              segment_softmax_weighted_grad;
              propagate_tie_grad;
              propagate_fused_matches_chained;
              linear_grads;
              matrix_of_entries_grad;
              mse_grad;
            ] );
      ])
