(* Tests for the SmoothE core: the differentiable relaxation (φ
   propagation, NOTEARS penalty), the sampler and the full loop. *)

let qtest ?(count = 40) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let cfg = Smoothe_config.default

(* Reference φ: exact topological computation of the class probabilities
   q and marginals p on an acyclic e-graph, per Eq. (5)-(7). *)
let reference_phi assumption g cp_row =
  let m = Egraph.num_classes g in
  let q = Array.make m 0.0 in
  let p = Array.make (Egraph.num_nodes g) 0.0 in
  q.(g.Egraph.root) <- 1.0;
  (* classes in topological order of the class graph (root first) *)
  let order = Option.get (Graph_algo.topological_order g.Egraph.class_children) in
  Array.iter
    (fun c ->
      if c <> g.Egraph.root then begin
        (* parents' p values are final because parents precede c *)
        let seg = g.Egraph.parent_seg in
        let start = seg.Segments.starts.(c) and len = seg.Segments.lens.(c) in
        let parents = List.init len (fun k -> g.Egraph.parent_edge_node.(start + k)) in
        let ind = 1.0 -. List.fold_left (fun acc k -> acc *. (1.0 -. p.(k))) 1.0 parents in
        let cor = List.fold_left (fun acc k -> Float.max acc p.(k)) 0.0 parents in
        q.(c) <-
          (match assumption with
          | Smoothe_config.Independent -> ind
          | Smoothe_config.Correlated -> cor
          | Smoothe_config.Hybrid -> 0.5 *. (ind +. cor))
      end;
      Array.iter (fun i -> p.(i) <- cp_row.(i) *. q.(c)) g.Egraph.class_nodes.(c))
    order;
  p

let propagation_matches_reference assumption =
  qtest ~count:60
    (Printf.sprintf "unrolled propagation = exact topological φ (%s)"
       (Smoothe_config.assumption_name assumption))
    QCheck2.Gen.(pair (Test_util.arb_egraph ~max_classes:7 ()) (int_bound 1_000_000))
    (fun (g, seed) ->
      let config =
        { cfg with Smoothe_config.assumption; prop_iters = Some (Egraph.num_classes g + 2) }
      in
      let compiled = Relaxation.compile config g in
      let rng = Rng.create seed in
      let n = Egraph.num_nodes g in
      let theta = Tensor.init ~batch:1 ~width:n (fun _ _ -> Rng.gaussian rng) in
      let model = Cost_model.of_egraph g in
      let fwd = Relaxation.forward compiled ~config ~model ~theta in
      let cp_row = Tensor.row (Ad.value fwd.Relaxation.cp) 0 in
      let expected = reference_phi assumption g cp_row in
      let actual = Tensor.row (Ad.value fwd.Relaxation.p) 0 in
      let ok = ref true in
      for i = 0 to n - 1 do
        if not (Test_util.float_close ~tol:1e-6 expected.(i) actual.(i)) then ok := false
      done;
      !ok)

let test_cp_sums_to_one_per_class () =
  let g = Fig1.egraph () in
  let config = cfg in
  let compiled = Relaxation.compile config g in
  let rng = Rng.create 3 in
  let theta = Tensor.init ~batch:2 ~width:(Egraph.num_nodes g) (fun _ _ -> Rng.gaussian rng) in
  let fwd = Relaxation.forward compiled ~config ~model:(Cost_model.of_egraph g) ~theta in
  let cp = Ad.value fwd.Relaxation.cp in
  let sums = Segments.sum cp g.Egraph.class_seg in
  for b = 0 to 1 do
    for c = 0 to Egraph.num_classes g - 1 do
      Test_util.check_close ~msg:"Eq 3b" 1.0 (Tensor.get sums b c)
    done
  done

let test_root_probability_one () =
  let g = Fig1.egraph () in
  let compiled = Relaxation.compile cfg g in
  let theta = Tensor.create ~batch:1 ~width:(Egraph.num_nodes g) in
  let fwd = Relaxation.forward compiled ~config:cfg ~model:(Cost_model.of_egraph g) ~theta in
  let p = Ad.value fwd.Relaxation.p in
  (* sum of root-class marginals = 1 (constraint (a)) *)
  let total =
    Array.fold_left
      (fun acc i -> acc +. Tensor.get p 0 i)
      0.0 g.Egraph.class_nodes.(g.Egraph.root)
  in
  Test_util.check_close ~msg:"root mass 1" 1.0 total

let two_cycle_egraph_fwd () =
  let b = Egraph.Builder.create () in
  let a = Egraph.Builder.add_class b in
  let c = Egraph.Builder.add_class b in
  ignore (Egraph.Builder.add_node b ~cls:a ~op:"fwd" ~cost:1.0 ~children:[ c ]);
  ignore (Egraph.Builder.add_node b ~cls:a ~op:"leafA" ~cost:9.0 ~children:[]);
  ignore (Egraph.Builder.add_node b ~cls:c ~op:"back" ~cost:1.0 ~children:[ a ]);
  ignore (Egraph.Builder.add_node b ~cls:c ~op:"leafC" ~cost:9.0 ~children:[]);
  Egraph.Builder.freeze b ~root:a

let full_loss_gradient_matches_fd =
  qtest ~count:10 "end-to-end loss gradient matches finite differences"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      (* independence assumption only: segment_max would add kinks *)
      let g = Fig1.egraph () in
      let config =
        { cfg with Smoothe_config.assumption = Smoothe_config.Independent; batch = 2 }
      in
      let compiled = Relaxation.compile config g in
      let model = Cost_model.of_egraph g in
      let rng = Rng.create seed in
      let n = Egraph.num_nodes g in
      let theta = Tensor.init ~batch:2 ~width:n (fun _ _ -> Rng.gaussian rng) in
      let fwd = Relaxation.forward compiled ~config ~model ~theta in
      Ad.backward fwd.Relaxation.loss;
      let analytic = Ad.grad fwd.Relaxation.theta in
      let f t =
        let fwd = Relaxation.forward compiled ~config ~model ~theta:t in
        Tensor.get (Ad.value fwd.Relaxation.loss) 0 0
      in
      let numeric = Ad.finite_difference ~f ~x:theta ~eps:1e-5 in
      let ok = ref true in
      for i = 0 to Tensor.numel theta - 1 do
        let a = (Tensor.unsafe_data analytic).(i) and n' = (Tensor.unsafe_data numeric).(i) in
        if Float.abs (a -. n') /. (1.0 +. Float.abs n') > 1e-3 then ok := false
      done;
      !ok)

let full_loss_gradient_cyclic =
  qtest ~count:8 "loss gradient (incl. NOTEARS matexp) matches finite differences"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let g = two_cycle_egraph_fwd () in
      let config =
        { cfg with Smoothe_config.assumption = Smoothe_config.Independent; batch = 1;
          lambda_ = 5.0 }
      in
      let compiled = Relaxation.compile config g in
      let model = Cost_model.of_egraph g in
      let rng = Rng.create seed in
      let n = Egraph.num_nodes g in
      let theta = Tensor.init ~batch:1 ~width:n (fun _ _ -> Rng.gaussian rng) in
      let fwd = Relaxation.forward compiled ~config ~model ~theta in
      Ad.backward fwd.Relaxation.loss;
      let analytic = Ad.grad fwd.Relaxation.theta in
      let f t =
        let fwd = Relaxation.forward compiled ~config ~model ~theta:t in
        Tensor.get (Ad.value fwd.Relaxation.loss) 0 0
      in
      let numeric = Ad.finite_difference ~f ~x:theta ~eps:1e-5 in
      let ok = ref true in
      for i = 0 to Tensor.numel theta - 1 do
        let a = (Tensor.unsafe_data analytic).(i) and n' = (Tensor.unsafe_data numeric).(i) in
        if Float.abs (a -. n') /. (1.0 +. Float.abs n') > 1e-3 then ok := false
      done;
      !ok)

(* ------------------------------------------------------- exact marginals *)

let test_exact_marginals_chain () =
  (* root class {a} -> child class {x (via a), y}: p(x) = cp_x, p(y) = cp_y *)
  let b = Egraph.Builder.create () in
  let root = Egraph.Builder.add_class b in
  let child = Egraph.Builder.add_class b in
  ignore (Egraph.Builder.add_node b ~cls:root ~op:"a" ~cost:1.0 ~children:[ child ]);
  ignore (Egraph.Builder.add_node b ~cls:child ~op:"x" ~cost:1.0 ~children:[]);
  ignore (Egraph.Builder.add_node b ~cls:child ~op:"y" ~cost:1.0 ~children:[]);
  let g = Egraph.Builder.freeze b ~root in
  let cp = Array.make 3 0.0 in
  Array.iteri (fun i op -> if op = "a" then cp.(i) <- 1.0 else if op = "x" then cp.(i) <- 0.3 else cp.(i) <- 0.7) g.Egraph.ops;
  let m = Exact_marginals.node_marginals g ~cp in
  Array.iteri
    (fun i op ->
      let expected = match op with "a" -> 1.0 | "x" -> 0.3 | _ -> 0.7 in
      Test_util.check_close ~msg:op expected m.(i))
    g.Egraph.ops

let exact_marginals_match_phi_on_trees =
  (* when every class has at most one parent e-node, all three
     assumptions coincide with the exact marginals *)
  qtest ~count:30 "exact marginals = φ on single-parent e-graphs"
    QCheck2.Gen.(pair (int_bound 1_000_000) (int_range 2 6))
    (fun (seed, classes) ->
      let rng = Rng.create seed in
      (* a chain of classes, each with 2 members, child = next class *)
      let b = Egraph.Builder.create () in
      let ids = Array.init classes (fun _ -> Egraph.Builder.add_class b) in
      for c = 0 to classes - 1 do
        for k = 0 to 1 do
          let children = if c < classes - 1 && k = 0 then [ ids.(c + 1) ] else [] in
          ignore
            (Egraph.Builder.add_node b ~cls:ids.(c)
               ~op:(Printf.sprintf "n%d_%d" c k)
               ~cost:1.0 ~children)
        done
      done;
      let g = Egraph.Builder.freeze b ~root:ids.(0) in
      let cp = Array.make (Egraph.num_nodes g) 0.0 in
      Array.iter
        (fun members ->
          let r = 0.2 +. (0.6 *. Rng.uniform rng) in
          cp.(members.(0)) <- r;
          cp.(members.(1)) <- 1.0 -. r)
        g.Egraph.class_nodes;
      List.for_all
        (fun a -> Exact_marginals.assumption_error g ~cp a < 1e-6)
        [ Smoothe_config.Independent; Smoothe_config.Correlated; Smoothe_config.Hybrid ])

let test_exact_marginals_space_guard () =
  let rng = Rng.create 3 in
  let g = Test_util.random_egraph ~max_class_size:4 rng ~classes:40 in
  let cp = Array.make (Egraph.num_nodes g) 0.5 in
  match Exact_marginals.node_marginals g ~cp with
  | exception Invalid_argument _ -> ()
  | _ ->
      (* small enough after all: fine, just check the shape *)
      ()

(* -------------------------------------------------------- temperature *)

let test_temperature_sharpens () =
  let g = Fig1.egraph () in
  let compiled = Relaxation.compile cfg g in
  let rng = Rng.create 5 in
  let theta = Tensor.init ~batch:1 ~width:(Egraph.num_nodes g) (fun _ _ -> Rng.gaussian rng) in
  let model = Cost_model.of_egraph g in
  let entropy_of temperature =
    let fwd = Relaxation.forward ~temperature compiled ~config:cfg ~model ~theta in
    let cp = Ad.value fwd.Relaxation.cp in
    let acc = ref 0.0 in
    for i = 0 to Tensor.numel cp - 1 do
      let p = (Tensor.unsafe_data cp).(i) in
      if p > 1e-9 then acc := !acc -. (p *. log p)
    done;
    !acc
  in
  let hot = entropy_of 4.0 and cold = entropy_of 0.25 in
  Alcotest.(check bool)
    (Printf.sprintf "hot entropy %.3f > cold %.3f" hot cold)
    true (hot > cold)

let test_entropy_weight_spreads_cp () =
  (* with a big entropy bonus the optimiser keeps cp near uniform *)
  let g = Fig1.egraph () in
  let run w =
    let config =
      { cfg with Smoothe_config.batch = 4; max_iters = 60; entropy_weight = w }
    in
    Smoothe_extract.extract ~config g
  in
  let plain = run 0.0 and spread = run 50.0 in
  (* both still produce valid extractions *)
  Alcotest.(check bool) "plain valid" true
    (plain.Smoothe_extract.result.Extractor.solution <> None);
  Alcotest.(check bool) "entropy-heavy valid" true
    (spread.Smoothe_extract.result.Extractor.solution <> None)

let test_annealing_still_optimal () =
  let config =
    {
      cfg with
      Smoothe_config.batch = 8;
      max_iters = 120;
      temperature = 2.0;
      temperature_decay = 0.96;
      min_temperature = 0.2;
    }
  in
  let run = Smoothe_extract.extract ~config (Fig1.egraph ()) in
  Test_util.check_close ~msg:"annealed run finds 19" Fig1.optimal_cost
    run.Smoothe_extract.result.Extractor.cost

(* -------------------------------------------------------------- penalty *)

let two_cycle_egraph () =
  let b = Egraph.Builder.create () in
  let a = Egraph.Builder.add_class b in
  let c = Egraph.Builder.add_class b in
  ignore (Egraph.Builder.add_node b ~cls:a ~op:"fwd" ~cost:1.0 ~children:[ c ]);
  ignore (Egraph.Builder.add_node b ~cls:a ~op:"leafA" ~cost:9.0 ~children:[]);
  ignore (Egraph.Builder.add_node b ~cls:c ~op:"back" ~cost:1.0 ~children:[ a ]);
  ignore (Egraph.Builder.add_node b ~cls:c ~op:"leafC" ~cost:9.0 ~children:[]);
  Egraph.Builder.freeze b ~root:a

let test_no_blocks_on_dag () =
  let compiled = Relaxation.compile cfg (Fig1.egraph ()) in
  Alcotest.(check int) "acyclic -> no NOTEARS blocks" 0
    (Array.length compiled.Relaxation.blocks)

let test_blocks_on_cycle () =
  let g = two_cycle_egraph () in
  let compiled = Relaxation.compile cfg g in
  Alcotest.(check int) "one block" 1 (Array.length compiled.Relaxation.blocks);
  Alcotest.(check int) "block spans both classes" 2
    compiled.Relaxation.blocks.(0).Relaxation.dim

let test_acyclicity_value_behaviour () =
  let g = two_cycle_egraph () in
  let compiled = Relaxation.compile cfg g in
  let n = Egraph.num_nodes g in
  (* cp mass on the cycle edges: penalty clearly positive *)
  let cyclic_cp = Tensor.create ~batch:1 ~width:n in
  Array.iteri
    (fun i op -> if op = "fwd" || op = "back" then Tensor.set cyclic_cp 0 i 1.0)
    g.Egraph.ops;
  let h_cyclic = Relaxation.acyclicity_value compiled ~cp:cyclic_cp in
  Alcotest.(check bool) "penalty positive on cycle" true (h_cyclic > 0.1);
  (* cp mass on the leaves: penalty zero *)
  let acyclic_cp = Tensor.create ~batch:1 ~width:n in
  Array.iteri
    (fun i op -> if op = "leafA" || op = "leafC" then Tensor.set acyclic_cp 0 i 1.0)
    g.Egraph.ops;
  let h_acyclic = Relaxation.acyclicity_value compiled ~cp:acyclic_cp in
  Test_util.check_close ~tol:1e-9 ~msg:"penalty zero off cycle" 0.0 h_acyclic;
  Alcotest.(check bool) "order" true (h_cyclic > h_acyclic)

let test_full_block_when_scc_off () =
  let g = Fig1.egraph () in
  let config = { cfg with Smoothe_config.scc_decomposition = false } in
  let compiled = Relaxation.compile config g in
  Alcotest.(check int) "single full block" 1 (Array.length compiled.Relaxation.blocks);
  Alcotest.(check int) "block dim = M" (Egraph.num_classes g)
    compiled.Relaxation.blocks.(0).Relaxation.dim

(* -------------------------------------------------------------- sampler *)

let sampler_completeness =
  qtest "samples satisfy completeness (valid on DAGs)"
    QCheck2.Gen.(pair (Test_util.arb_egraph ~max_classes:7 ()) (int_bound 1_000_000))
    (fun (g, seed) ->
      let rng = Rng.create seed in
      let cp = Tensor.init ~batch:3 ~width:(Egraph.num_nodes g) (fun _ _ -> Rng.uniform rng) in
      let samples = Test_util.sample_all g ~cp in
      Array.for_all (fun s -> Egraph.Solution.is_valid g s) samples)

let sampler_picks_argmax =
  qtest "sampler picks the argmax-cp member of each selected class"
    QCheck2.Gen.(pair (Test_util.arb_egraph ~max_classes:6 ()) (int_bound 1_000_000))
    (fun (g, seed) ->
      let rng = Rng.create seed in
      let cp = Tensor.init ~batch:1 ~width:(Egraph.num_nodes g) (fun _ _ -> Rng.uniform rng) in
      let s = Sampler.sample_seed g ~cp ~seed:0 in
      let row = Tensor.row cp 0 in
      let ok = ref true in
      Array.iteri
        (fun c choice ->
          match choice with
          | None -> ()
          | Some n ->
              Array.iter
                (fun k -> if row.(k) > row.(n) +. 1e-12 then ok := false)
                g.Egraph.class_nodes.(c))
        s.Egraph.Solution.choice;
      !ok)

(* The one-pass sampler against the reference path (decode every seed,
   validate, score with Cost_model.dense_solution) on random e-graphs,
   cyclic ones included: the same winning seed, the same cost bits and
   the same choice. Costs are fractional, so a different summation order
   would show in the bits; cp is quantised, so argmax ties occur. *)
let sampler_one_pass_matches_reference =
  qtest ~count:200 "one-pass best_of_batch = reference decode"
    QCheck2.Gen.(
      triple
        (Test_util.arb_egraph ~max_classes:8 ~cycle_prob:0.3 ())
        (int_bound 1_000_000) (int_range 1 6))
    (fun (g, seed, batch) ->
      let rng = Rng.create seed in
      let n = Egraph.num_nodes g in
      let cp =
        Tensor.init ~batch ~width:n (fun _ _ -> float_of_int (Rng.int rng 4) /. 4.0)
      in
      let model = Cost_model.linear (Array.init n (fun _ -> Rng.float rng 10.0 -. 2.0)) in
      match
        (Sampler.best_of_batch g ~model ~cp, Test_util.best_of_decodes g ~model ~cp)
      with
      | None, None -> true
      | Some (seed, s, cost), Some (seed', s', cost') ->
          seed = seed'
          && Int64.equal (Int64.bits_of_float cost) (Int64.bits_of_float cost')
          && s.Egraph.Solution.choice = s'.Egraph.Solution.choice
      | Some _, None | None, Some _ -> false)

let test_repair_breaks_cycle () =
  let g = two_cycle_egraph () in
  let n = Egraph.num_nodes g in
  (* cp strongly prefers the cyclic pair *)
  let cp = Tensor.create ~batch:1 ~width:n in
  Array.iteri
    (fun i op ->
      Tensor.set cp 0 i (if op = "fwd" || op = "back" then 0.9 else 0.1))
    g.Egraph.ops;
  let plain = Sampler.sample_seed ~repair:false g ~cp ~seed:0 in
  Alcotest.(check bool) "plain sample cyclic" true
    (Egraph.Solution.validate g plain = Egraph.Solution.Cyclic);
  let repaired = Sampler.sample_seed ~repair:true g ~cp ~seed:0 in
  Alcotest.(check bool) "repaired valid" true (Egraph.Solution.is_valid g repaired)

let test_best_of_batch () =
  let g = Fig1.egraph () in
  let rng = Rng.create 9 in
  let cp = Tensor.init ~batch:6 ~width:(Egraph.num_nodes g) (fun _ _ -> Rng.uniform rng) in
  let model = Cost_model.of_egraph g in
  match Sampler.best_of_batch g ~model ~cp with
  | None -> Alcotest.fail "no valid sample on an acyclic e-graph"
  | Some (seed, s, cost) ->
      Alcotest.(check bool) "seed in range" true (seed >= 0 && seed < 6);
      Test_util.check_close ~msg:"cost matches solution" (Egraph.Solution.dag_cost g s) cost;
      (* it is the minimum over all seeds *)
      Array.iteri
        (fun _ s' ->
          let c' = Cost_model.dense_solution model g s' in
          Alcotest.(check bool) "minimal" true (cost <= c' +. 1e-9))
        (Test_util.sample_all g ~cp)

(* ------------------------------------------------------------- full loop *)

let test_extract_fig1_all_assumptions () =
  List.iter
    (fun assumption ->
      let config =
        { cfg with Smoothe_config.assumption; batch = 8; max_iters = 120; seed = 5 }
      in
      let run = Smoothe_extract.extract ~config (Fig1.egraph ()) in
      Test_util.check_close
        ~msg:(Smoothe_config.assumption_name assumption ^ " finds 19")
        Fig1.optimal_cost run.Smoothe_extract.result.Extractor.cost)
    [ Smoothe_config.Independent; Smoothe_config.Correlated; Smoothe_config.Hybrid ]

let test_extract_beats_greedy_on_sharing () =
  (* the shared-subexpression gadget where greedy pays 14 but 10 is optimal *)
  let b = Egraph.Builder.create () in
  let root = Egraph.Builder.add_class b in
  let a_cls = Egraph.Builder.add_class b in
  let b_cls = Egraph.Builder.add_class b in
  let s_cls = Egraph.Builder.add_class b in
  ignore (Egraph.Builder.add_node b ~cls:root ~op:"pair" ~cost:0.0 ~children:[ a_cls; b_cls ]);
  ignore (Egraph.Builder.add_node b ~cls:s_cls ~op:"shared" ~cost:10.0 ~children:[]);
  ignore (Egraph.Builder.add_node b ~cls:a_cls ~op:"a_s" ~cost:0.0 ~children:[ s_cls ]);
  ignore (Egraph.Builder.add_node b ~cls:a_cls ~op:"a_p" ~cost:7.0 ~children:[]);
  ignore (Egraph.Builder.add_node b ~cls:b_cls ~op:"b_s" ~cost:0.0 ~children:[ s_cls ]);
  ignore (Egraph.Builder.add_node b ~cls:b_cls ~op:"b_p" ~cost:7.0 ~children:[]);
  let g = Egraph.Builder.freeze b ~root in
  let config = { cfg with Smoothe_config.batch = 8; max_iters = 120 } in
  let run = Smoothe_extract.extract ~config g in
  Test_util.check_close ~msg:"finds the shared optimum" 10.0
    run.Smoothe_extract.result.Extractor.cost

let test_extract_cyclic_egraph () =
  let g = two_cycle_egraph () in
  let config = { cfg with Smoothe_config.batch = 8; max_iters = 120 } in
  let run = Smoothe_extract.extract ~config g in
  (* optimum: leafA alone costs 9 (class c is then unreachable) *)
  Test_util.check_close ~msg:"cycle avoided" 9.0 run.Smoothe_extract.result.Extractor.cost

let smoothe_never_below_brute_force =
  qtest ~count:15 "SmoothE cost >= brute-force optimum, and is valid"
    (Test_util.arb_egraph ~max_classes:6 ()) (fun g ->
      let bf, _ = Test_util.brute_force_optimum g in
      let config = { cfg with Smoothe_config.batch = 6; max_iters = 60; patience = 15 } in
      let run = Smoothe_extract.extract ~config g in
      let cost = run.Smoothe_extract.result.Extractor.cost in
      match run.Smoothe_extract.result.Extractor.solution with
      | Some s -> Egraph.Solution.is_valid g s && cost >= bf -. 1e-9
      | None -> not (Float.is_finite bf))

let test_patience_stops_early () =
  let config = { cfg with Smoothe_config.batch = 4; max_iters = 500; patience = 5 } in
  let run = Smoothe_extract.extract ~config (Fig1.egraph ()) in
  Alcotest.(check bool) "stopped well before the cap" true (run.Smoothe_extract.iterations < 200)

let test_history_monotone_incumbent () =
  let config = { cfg with Smoothe_config.batch = 4; max_iters = 60 } in
  let run = Smoothe_extract.extract ~config (Fig1.egraph ()) in
  let rec check prev = function
    | [] -> ()
    | h :: rest ->
        Alcotest.(check bool) "incumbent non-increasing" true
          (h.Smoothe_extract.incumbent <= prev +. 1e-9);
        Alcotest.(check bool) "sampled >= incumbent" true
          (h.Smoothe_extract.sampled_cost >= h.Smoothe_extract.incumbent -. 1e-9);
        check h.Smoothe_extract.incumbent rest
  in
  check infinity run.Smoothe_extract.history;
  Alcotest.(check int) "history covers every iteration" run.Smoothe_extract.iterations
    (List.length run.Smoothe_extract.history)

let test_mcm8_near_optimal () =
  (* deterministic: seed batching over 16 seeds finds the ILP optimum
     166 on mcm_8 (cf. the Table 3 behaviour) *)
  let g = (Registry.find_instance "mcm_8").Registry.build () in
  let config = { cfg with Smoothe_config.batch = 16; max_iters = 150; seed = 7 } in
  let run = Smoothe_extract.extract ~config g in
  Alcotest.(check bool)
    (Printf.sprintf "near-optimal (got %.1f)" run.Smoothe_extract.result.Extractor.cost)
    true
    (run.Smoothe_extract.result.Extractor.cost <= 170.0)

let test_ablation_matexp_modes_agree () =
  let g = two_cycle_egraph () in
  let base = { cfg with Smoothe_config.batch = 4; max_iters = 80 } in
  let with_batched = Smoothe_extract.extract ~config:base g in
  let without_batched =
    Smoothe_extract.extract ~config:{ base with Smoothe_config.batched_matexp = false } g
  in
  let no_scc =
    Smoothe_extract.extract ~config:{ base with Smoothe_config.scc_decomposition = false } g
  in
  Test_util.check_close ~msg:"batched vs per-seed"
    with_batched.Smoothe_extract.result.Extractor.cost
    without_batched.Smoothe_extract.result.Extractor.cost;
  Test_util.check_close ~msg:"scc vs full" with_batched.Smoothe_extract.result.Extractor.cost
    no_scc.Smoothe_extract.result.Extractor.cost

let test_nonlinear_model_extraction () =
  (* SmoothE optimises through an MLP-corrected model end-to-end *)
  let g = Fig1.egraph () in
  let rng = Rng.create 99 in
  let inputs = Random_walk.dense_dataset rng g ~count:30 in
  let targets = Array.init (Array.length inputs) (fun _ -> -.Rng.float rng 3.0) in
  let mlp = Mlp.create rng ~input_dim:(Egraph.num_nodes g) in
  ignore (Mlp.train ~epochs:20 rng mlp ~inputs ~targets);
  let model = Cost_model.mlp_corrected ~linear:g.Egraph.costs mlp in
  let config = { cfg with Smoothe_config.batch = 8; max_iters = 80 } in
  let run = Smoothe_extract.extract ~config ~model g in
  match run.Smoothe_extract.result.Extractor.solution with
  | Some s ->
      Alcotest.(check bool) "valid" true (Egraph.Solution.is_valid g s);
      Test_util.check_close ~msg:"cost under the model"
        (Cost_model.dense_solution model g s)
        run.Smoothe_extract.result.Extractor.cost
  | None -> Alcotest.fail "no solution under the MLP model"

let test_time_limit_respected () =
  let g = (Registry.find_instance "fir_7").Registry.build () in
  let config =
    { cfg with Smoothe_config.batch = 16; max_iters = 100_000; patience = 100_000;
      time_limit = 0.3 }
  in
  let run, wall = Timer.time (fun () -> Smoothe_extract.extract ~config g) in
  (* the loop polls the deadline between iterations, so only the
     iteration in flight when it passed may end after it, however fast
     iterations are; the wall bound is generous because the suite runs
     test binaries concurrently *)
  Alcotest.(check bool) "stopped promptly" true (wall < 8.0);
  Alcotest.(check bool) "stopped within one iteration of the deadline" true
    (List.length
       (List.filter
          (fun h -> h.Smoothe_extract.elapsed > config.Smoothe_config.time_limit)
          run.Smoothe_extract.history)
    <= 1);
  Alcotest.(check bool) "did some work" true (run.Smoothe_extract.iterations > 0)

let test_trace_is_decreasing () =
  let config = { cfg with Smoothe_config.batch = 8; max_iters = 80 } in
  let run = Smoothe_extract.extract ~config ((Registry.find_instance "mcm_8").Registry.build ()) in
  let trace = run.Smoothe_extract.result.Extractor.trace in
  Alcotest.(check bool) "non-empty" true (trace <> []);
  let rec decreasing = function
    | (_, a) :: ((_, b) :: _ as rest) -> a > b && decreasing rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "strictly improving" true (decreasing trace);
  (* final trace entry equals the reported cost *)
  let _, last = List.nth trace (List.length trace - 1) in
  Test_util.check_close ~msg:"trace end = result" run.Smoothe_extract.result.Extractor.cost last

(* --------------------------------------------------------------- device *)

let test_device_oom () =
  let g = (Registry.find_instance "mcm_8").Registry.build () in
  let tiny = { Device.device_name = "tiny"; memory_bytes = 1024.0; backend = Tensor.Backend.Vectorized } in
  let config = { cfg with Smoothe_config.max_iters = 5; batch = 4 } in
  (* a device that can't fit one seed no longer fails the run: the
     derating ladder ends on the CPU baseline *)
  let run = Smoothe_extract.extract ~config ~device:tiny g in
  Alcotest.(check bool) "degraded, not oom" false run.Smoothe_extract.oom;
  Alcotest.(check bool) "still finds a solution" true
    (run.Smoothe_extract.result.Extractor.solution <> None);
  Alcotest.(check bool) "derated note" true
    (List.mem_assoc "derated" run.Smoothe_extract.result.Extractor.notes);
  Alcotest.(check bool) "oom-derate events logged" true
    (List.exists
       (fun e -> e.Health.kind = Health.Oom_derate)
       run.Smoothe_extract.health);
  (* under extreme memory pressure even the CPU baseline OOMs: the run
     reports total failure the old way, with the ladder in its log *)
  Fault_plan.with_plan
    [ Fault_plan.Mem_pressure 1e18 ]
    (fun () ->
      let run = Smoothe_extract.extract ~config ~device:tiny g in
      Alcotest.(check bool) "oom" true run.Smoothe_extract.oom;
      Alcotest.(check bool) "failed result" true
        (run.Smoothe_extract.result.Extractor.solution = None);
      Alcotest.(check bool) "degraded event" true
        (List.exists
           (fun e -> e.Health.kind = Health.Degraded)
           run.Smoothe_extract.health))

let test_device_derates_batch () =
  let g = (Registry.find_instance "mcm_8").Registry.build () in
  let fp = Device.footprint g ~prop_iters:10 ~scc_decomposition:true ~batched_matexp:true in
  (* a device that fits exactly 3 seeds *)
  let three =
    {
      Device.device_name = "three-seeds";
      memory_bytes = Device.bytes_for_batch fp 3 +. 1.0;
      backend = Tensor.Backend.Vectorized;
    }
  in
  Alcotest.(check int) "max_batch" 3 (Device.max_batch three fp);
  let config = { cfg with Smoothe_config.batch = 16; max_iters = 10; prop_iters = Some 10 } in
  let run = Smoothe_extract.extract ~config ~device:three g in
  Alcotest.(check int) "batch derated" 3 run.Smoothe_extract.batch_used

let test_device_boundaries () =
  let g = (Registry.find_instance "mcm_8").Registry.build () in
  let shared = Device.footprint g ~prop_iters:10 ~scc_decomposition:true ~batched_matexp:true in
  let per_seed =
    Device.footprint g ~prop_iters:10 ~scc_decomposition:true ~batched_matexp:false
  in
  (* matexp accounting: paid once when batched, per seed when not *)
  Alcotest.(check bool) "batched matexp is shared" false shared.Device.matexp_per_seed;
  Alcotest.(check bool) "unbatched matexp is per seed" true per_seed.Device.matexp_per_seed;
  Test_util.check_close ~msg:"shared matexp is affine in the batch"
    ((3.0 *. shared.Device.per_seed_bytes) +. shared.Device.matexp_bytes)
    (Device.bytes_for_batch shared 3);
  Test_util.check_close ~msg:"per-seed matexp multiplies with the batch"
    (3.0 *. (per_seed.Device.per_seed_bytes +. per_seed.Device.matexp_bytes))
    (Device.bytes_for_batch per_seed 3);
  (* a footprint landing exactly on the capacity still fits *)
  let exact =
    {
      Device.device_name = "exact";
      memory_bytes = Device.bytes_for_batch shared 4;
      backend = Tensor.Backend.Vectorized;
    }
  in
  Alcotest.(check bool) "fits at exactly capacity" true (Device.fits exact shared ~batch:4);
  Alcotest.(check bool) "one more seed does not" false (Device.fits exact shared ~batch:5);
  Alcotest.(check int) "max_batch at the boundary" 4 (Device.max_batch exact shared);
  (* one byte short of a single seed: zero-seed OOM *)
  let sub = { exact with Device.memory_bytes = Device.bytes_for_batch shared 1 -. 1.0 } in
  Alcotest.(check bool) "cannot fit one seed" false (Device.fits sub shared ~batch:1);
  Alcotest.(check int) "max_batch reports OOM" 0 (Device.max_batch sub shared)

let test_device_memory_model_shapes () =
  let g = (Registry.find_instance "NASRNN").Registry.build () in
  let on = Device.footprint g ~prop_iters:20 ~scc_decomposition:true ~batched_matexp:true in
  let off = Device.footprint g ~prop_iters:20 ~scc_decomposition:false ~batched_matexp:true in
  Alcotest.(check bool) "SCC decomposition shrinks matexp memory" true
    (on.Device.matexp_bytes < off.Device.matexp_bytes);
  let per_seed = Device.footprint g ~prop_iters:20 ~scc_decomposition:true ~batched_matexp:false in
  Alcotest.(check bool) "per-seed matexp scales with batch" true
    (Device.bytes_for_batch per_seed 8 -. Device.bytes_for_batch per_seed 1
    > Device.bytes_for_batch on 8 -. Device.bytes_for_batch on 1);
  (* the paper's 8x memory ratio derates batches by ~8x *)
  let b_a100 = Device.max_batch Device.a100 on in
  let b_2080 = Device.max_batch Device.rtx2080ti on in
  Alcotest.(check bool) "a100 fits more seeds" true (b_a100 > b_2080)

let test_scalar_backend_produces_same_result () =
  let g = Fig1.egraph () in
  let config = { cfg with Smoothe_config.batch = 4; max_iters = 60 } in
  let fast = Smoothe_extract.extract ~config ~device:Device.a100 g in
  let slow = Smoothe_extract.extract ~config ~device:Device.cpu_baseline g in
  Test_util.check_close ~msg:"backend-independent result"
    fast.Smoothe_extract.result.Extractor.cost slow.Smoothe_extract.result.Extractor.cost

(* ------------------------------------------------------------- portfolio *)

let test_portfolio_fig1 () =
  let out = Portfolio.extract (Rng.create 3) (Fig1.egraph ()) in
  Test_util.check_close ~msg:"portfolio finds the optimum" Fig1.optimal_cost
    out.Portfolio.best.Extractor.cost;
  Alcotest.(check string) "method name" "portfolio" out.Portfolio.best.Extractor.method_name;
  Alcotest.(check bool) "winner recorded" true
    (List.mem_assoc "winner" out.Portfolio.best.Extractor.notes);
  Alcotest.(check bool) "heuristics always present" true
    (List.exists (fun m -> m.Portfolio.member_name = "heuristic") out.Portfolio.members)

let portfolio_dominates_members =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:10 ~name:"portfolio best <= every member"
       (Test_util.arb_egraph ~max_classes:6 ())
       (fun g ->
         let config =
           { Portfolio.default_config with Portfolio.time_budget = 3.0; use_genetic = true }
         in
         let out = Portfolio.extract ~config (Rng.create 5) g in
         List.for_all
           (fun m -> out.Portfolio.best.Extractor.cost <= m.Portfolio.result.Extractor.cost +. 1e-9)
           out.Portfolio.members))

let test_portfolio_nonlinear_uses_ilp_star () =
  let g = Fig1.egraph () in
  let model = Cost_model.fusion_of_egraph (Rng.create 7) ~pairs:4 ~discount:0.5 g in
  let out = Portfolio.extract ~model (Rng.create 9) g in
  Alcotest.(check bool) "ilp member renamed ilp*" true
    (List.exists (fun m -> m.Portfolio.member_name = "ilp*") out.Portfolio.members);
  (* best is consistently scored under the non-linear model *)
  match out.Portfolio.best.Extractor.solution with
  | Some s ->
      Test_util.check_close ~msg:"model-consistent cost"
        (Cost_model.dense_solution model g s)
        out.Portfolio.best.Extractor.cost
  | None -> Alcotest.fail "no solution"

(* --------------------------------------------------------------- config *)

let test_derive_prop_iters () =
  let g = Fig1.egraph () in
  let k = Smoothe_config.derive_prop_iters cfg g in
  Alcotest.(check bool) "within clamp" true (k >= 4 && k <= 32);
  let forced = Smoothe_config.derive_prop_iters { cfg with Smoothe_config.prop_iters = Some 9 } g in
  Alcotest.(check int) "explicit wins" 9 forced

let test_assumption_names () =
  List.iter
    (fun a ->
      Alcotest.(check bool) "roundtrip" true
        (Smoothe_config.assumption_of_string (Smoothe_config.assumption_name a) = a))
    [ Smoothe_config.Independent; Smoothe_config.Correlated; Smoothe_config.Hybrid ];
  Alcotest.check_raises "unknown" (Invalid_argument "unknown assumption \"x\"") (fun () ->
      ignore (Smoothe_config.assumption_of_string "x"))

(* ------------------------------------------------------------ golden *)

(* Bitwise digests of one optimisation trajectory, recorded with the
   unfused propagation (a dozen generic tape ops per step) before it was
   replaced by one fused op: loss, cp, per-seed cost, penalty and theta
   gradient of the third iteration at the default configuration, on an
   acyclic (box_3) and a cyclic (ResNet-50) instance. The fused op must
   reproduce them exactly, interpreted and replayed. *)
let golden =
  [
    ("box_3", "independent", [| "8c7bf3a1407ccf5b1f429bb294cf833c"; "e6a1bcb71a7998493b4df61c43d5fddc"; "d6ffb0adff6346bda33df7a47c18e9b3"; "7dea362b3fac8e00956a4952a3d4f474"; "8f3b2ba131aa6f7bd5ca8a895d388114" |]);
    ("box_3", "correlated", [| "f54a9fce02eb2f8e4e084feba9cc5bec"; "c9d73a5bc700db8e2f31a5cbbd96f613"; "a3ece85704c70b2eea4a1cd66b91cd1f"; "7dea362b3fac8e00956a4952a3d4f474"; "8ddad7b1ece0d4f432ca92538daa6418" |]);
    ("box_3", "hybrid", [| "9a187f37c54ccce25f5f5b4dacd31901"; "05bbed7ad6f1a72dbba1316e62f92a88"; "6c876396d351ffc3867f1a204d0a9a8d"; "7dea362b3fac8e00956a4952a3d4f474"; "9dc292c446e23f718c32f1ec4de16b43" |]);
    ("ResNet-50", "independent", [| "66436264308371e13a3433434562c726"; "996f61e47585fb284e96312977a76129"; "7b252ac82c1feadc14587d86d7c90c15"; "bedeb18c656ed3c3413a1538347ada22"; "34ab29b672a31edce5d941ec8189e16c" |]);
    ("ResNet-50", "correlated", [| "0721da7071b7cb930f631504fb0433dd"; "53880caaf3af458ffd07dd998fbff612"; "a6de918a3cc2c7dc8c3f75eeddcb3416"; "da3238a41246896cd4ed1ea263959ce9"; "b43ba51b9043c965a0cbe0af835ab3f5" |]);
    ("ResNet-50", "hybrid", [| "a26a0ee41435e3637488839475f2bfa9"; "a157bbecd77f677ade9677d923e8fe3d"; "d6489102c30cf2b314cc33960565f845"; "df19d5baebe3bb587adeccfb3e54819e"; "941cff08c14715d6db0200fd97eed6bb" |]);
  ]

let digest_tensor t =
  let b = Buffer.create (8 * Tensor.numel t) in
  Array.iter (fun x -> Buffer.add_int64_le b (Int64.bits_of_float x)) (Tensor.unsafe_data t);
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_golden_digests () =
  List.iter
    (fun (name, assumption, expected) ->
      let g = (Registry.find_instance name).Registry.build () in
      let config =
        {
          Smoothe_config.default with
          Smoothe_config.assumption = Smoothe_config.assumption_of_string assumption;
        }
      in
      let compiled = Relaxation.compile config g in
      let model = Cost_model.of_egraph g in
      let rng = Rng.create config.Smoothe_config.seed in
      let theta =
        Tensor.init ~batch:config.Smoothe_config.batch ~width:(Egraph.num_nodes g) (fun _ _ ->
            config.Smoothe_config.init_std *. Rng.gaussian rng)
      in
      let opt = Optim.adam ~lr:config.Smoothe_config.lr [ theta ] in
      let captures = ref [] in
      for _ = 1 to 2 do
        let fwd = Relaxation.forward compiled ~config ~model ~theta in
        captures := Plan.capture fwd.Relaxation.tape ~root:fwd.Relaxation.loss :: !captures;
        Ad.backward fwd.Relaxation.loss;
        Optim.adam_step opt [ Ad.grad fwd.Relaxation.theta ]
      done;
      let fwd = Relaxation.forward compiled ~config ~model ~theta in
      Ad.backward fwd.Relaxation.loss;
      let id v = Ad.node_id v in
      let outputs =
        [| id fwd.Relaxation.cp; id fwd.Relaxation.per_seed_cost; id fwd.Relaxation.penalty |]
      in
      let plan =
        match
          Plan.compile ~outputs ~grads:[| id fwd.Relaxation.theta |] (List.hd !captures)
        with
        | Ok plan -> plan
        | Error e -> Alcotest.failf "%s/%s: compile failed: %s" name assumption e
      in
      Plan.run_forward plan;
      Plan.run_backward plan;
      let labels = [| "loss"; "cp"; "per-seed cost"; "penalty"; "theta gradient" |] in
      let check executor got =
        Array.iteri
          (fun k t ->
            Alcotest.(check string)
              (Printf.sprintf "%s/%s %s: %s" name assumption executor labels.(k))
              expected.(k) (digest_tensor t))
          got
      in
      check "interpreted"
        [|
          Ad.value fwd.Relaxation.loss;
          Ad.value fwd.Relaxation.cp;
          Ad.value fwd.Relaxation.per_seed_cost;
          Ad.value fwd.Relaxation.penalty;
          Ad.grad fwd.Relaxation.theta;
        |];
      check "replayed"
        (Array.append
           (Array.map (Plan.value plan)
              [| id fwd.Relaxation.loss; id fwd.Relaxation.cp; id fwd.Relaxation.per_seed_cost;
                 id fwd.Relaxation.penalty |])
           [| Plan.grad_of plan (id fwd.Relaxation.theta) |]))
    golden

let () =
  Alcotest.run "smoothe"
    [
      ("golden", [ Alcotest.test_case "digests unchanged" `Quick test_golden_digests ]);
      ( "relaxation",
        [
          propagation_matches_reference Smoothe_config.Independent;
          propagation_matches_reference Smoothe_config.Correlated;
          propagation_matches_reference Smoothe_config.Hybrid;
          Alcotest.test_case "cp sums to 1 per class" `Quick test_cp_sums_to_one_per_class;
          Alcotest.test_case "root probability pinned" `Quick test_root_probability_one;
          full_loss_gradient_matches_fd;
          full_loss_gradient_cyclic;
        ] );
      ( "penalty",
        [
          Alcotest.test_case "no blocks on DAG" `Quick test_no_blocks_on_dag;
          Alcotest.test_case "blocks on cycle" `Quick test_blocks_on_cycle;
          Alcotest.test_case "penalty value behaviour" `Quick test_acyclicity_value_behaviour;
          Alcotest.test_case "full block when SCC off" `Quick test_full_block_when_scc_off;
        ] );
      ( "exact_marginals",
        [
          Alcotest.test_case "chain semantics" `Quick test_exact_marginals_chain;
          exact_marginals_match_phi_on_trees;
          Alcotest.test_case "space guard" `Quick test_exact_marginals_space_guard;
        ] );
      ( "temperature",
        [
          Alcotest.test_case "temperature sharpens cp" `Quick test_temperature_sharpens;
          Alcotest.test_case "entropy weight" `Slow test_entropy_weight_spreads_cp;
          Alcotest.test_case "annealing still optimal" `Quick test_annealing_still_optimal;
        ] );
      ( "sampler",
        [
          sampler_completeness;
          sampler_picks_argmax;
          sampler_one_pass_matches_reference;
          Alcotest.test_case "repair breaks cycles" `Quick test_repair_breaks_cycle;
          Alcotest.test_case "best of batch" `Quick test_best_of_batch;
        ] );
      ( "extract",
        [
          Alcotest.test_case "fig1 under all assumptions" `Slow test_extract_fig1_all_assumptions;
          Alcotest.test_case "beats greedy on sharing" `Quick test_extract_beats_greedy_on_sharing;
          Alcotest.test_case "cyclic e-graph" `Quick test_extract_cyclic_egraph;
          smoothe_never_below_brute_force;
          Alcotest.test_case "patience stops early" `Quick test_patience_stops_early;
          Alcotest.test_case "history invariants" `Quick test_history_monotone_incumbent;
          Alcotest.test_case "mcm_8 near optimal" `Slow test_mcm8_near_optimal;
          Alcotest.test_case "matexp ablations agree" `Slow test_ablation_matexp_modes_agree;
          Alcotest.test_case "MLP cost extraction" `Slow test_nonlinear_model_extraction;
        ] );
      ( "runtime",
        [
          Alcotest.test_case "time limit" `Quick test_time_limit_respected;
          Alcotest.test_case "trace decreasing" `Quick test_trace_is_decreasing;
        ] );
      ( "device",
        [
          Alcotest.test_case "oom" `Quick test_device_oom;
          Alcotest.test_case "batch derating" `Quick test_device_derates_batch;
          Alcotest.test_case "capacity boundaries" `Quick test_device_boundaries;
          Alcotest.test_case "memory model shapes" `Quick test_device_memory_model_shapes;
          Alcotest.test_case "scalar backend same result" `Slow
            test_scalar_backend_produces_same_result;
        ] );
      ( "portfolio",
        [
          Alcotest.test_case "fig1" `Quick test_portfolio_fig1;
          portfolio_dominates_members;
          Alcotest.test_case "non-linear uses ILP*" `Quick test_portfolio_nonlinear_uses_ilp_star;
        ] );
      ( "config",
        [
          Alcotest.test_case "derive_prop_iters" `Quick test_derive_prop_iters;
          Alcotest.test_case "assumption names" `Quick test_assumption_names;
        ] );
    ]
