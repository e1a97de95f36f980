let ilp_profiles = [ Bnb.cplex_like; Bnb.scip_like; Bnb.cbc_like ]

(* ------------------------------------------------------------- Table 1 *)

let table1 bank =
  Report.heading "Table 1: dataset statistics";
  Report.set_columns [ 10; 20; 4; 6; 8; 8; 12; 28 ];
  Report.row [ "Dataset"; "Task"; "#G"; "d(v)"; "max(N)"; "max(M)"; "Avg.Density"; "Workload(s)" ];
  Report.rule ();
  List.iter
    (fun ds ->
      let stats =
        List.map (fun i -> Egraph.Stats.compute (Runbank.egraph bank i)) ds.Registry.instances
      in
      let avg f = Stats.mean (Array.of_list (List.map f stats)) in
      let maxi f = List.fold_left (fun acc s -> max acc (f s)) 0 stats in
      Report.row
        [
          ds.Registry.ds_name;
          ds.Registry.task;
          string_of_int (List.length ds.Registry.instances);
          Printf.sprintf "%.1f" (avg (fun s -> s.Egraph.Stats.avg_degree));
          string_of_int (maxi (fun s -> s.Egraph.Stats.nodes));
          string_of_int (maxi (fun s -> s.Egraph.Stats.classes));
          Printf.sprintf "%.1e" (avg (fun s -> s.Egraph.Stats.density));
          ds.Registry.workloads;
        ])
    Registry.all

(* -------------------------------------------------------- Tables 2 & 4 *)

(* Per-dataset aggregation of one deterministic method. *)
let aggregate_method bank ds results =
  let times = Array.of_list (List.map (fun (r : Extractor.r) -> r.Extractor.time_s) results) in
  let increases =
    List.map2
      (fun inst (r : Extractor.r) -> Runbank.quality_increase bank ds inst r.Extractor.cost)
      ds.Registry.instances results
  in
  let fails = List.length (List.filter (fun x -> not (Float.is_finite x)) increases) in
  let finite = Array.of_list (List.filter Float.is_finite increases) in
  (* paper convention: "worst" is Failed when any e-graph failed, "avg"
     is the geometric mean over the e-graphs with feasible solutions *)
  let worst =
    if fails > 0 || Array.length finite = 0 then infinity else snd (Stats.min_max finite)
  in
  let avg = if Array.length finite = 0 then infinity else Stats.geomean_ratio finite in
  Stats.mean times, fails, worst, avg

let smoothe_aggregate bank ds =
  (* per-run aggregates, then mean ± max-difference across runs *)
  let runs_per_instance = List.map (fun i -> Runbank.smoothe_runs bank ds i) ds.Registry.instances in
  let nruns = Runbank.budget bank |> fun b -> b.Budget.smoothe_runs in
  let per_run k =
    let results =
      List.map (fun runs -> (List.nth runs k).Smoothe_extract.result) runs_per_instance
    in
    aggregate_method bank ds results
  in
  let agg = List.init nruns per_run in
  let series f = Array.of_list (List.map f agg) in
  let times = series (fun (t, _, _, _) -> t) in
  let fails = List.fold_left (fun acc (_, f, _, _) -> max acc f) 0 agg in
  let worsts = series (fun (_, _, w, _) -> w) in
  let avgs = series (fun (_, _, _, a) -> a) in
  times, fails, worsts, avgs

let comparison_table bank ~title datasets =
  Report.heading title;
  Report.set_columns [ 10; 16; 16; 16; 15; 15; 22 ];
  Report.row [ "Dataset"; "CPLEX-like"; "SCIP-like"; "CBC-like"; "Heuristic"; "Heuristic+"; "SmoothE (ours)" ];
  Report.row [ ""; "time(fails)"; "time(fails)"; "time(fails)"; "time"; "time"; "time" ];
  Report.row [ ""; "worst/avg"; "worst/avg"; "worst/avg"; "worst/avg"; "worst/avg"; "worst/avg" ];
  Report.rule ();
  List.iter
    (fun ds ->
      let deterministic runs =
        let t, fails, worst, avg = aggregate_method bank ds runs in
        ( Printf.sprintf "%s%s" (Report.secs t)
            (if fails > 0 then Printf.sprintf " (%d)" fails else ""),
          Printf.sprintf "%s / %s" (Report.pct worst) (Report.pct avg) )
      in
      let cells_det =
        List.map
          (fun profile ->
            deterministic (List.map (fun i -> Runbank.ilp bank profile i) ds.Registry.instances))
          ilp_profiles
        @ [
            deterministic (List.map (fun i -> Runbank.heuristic bank i) ds.Registry.instances);
            deterministic (List.map (fun i -> Runbank.heuristic_plus bank i) ds.Registry.instances);
          ]
      in
      let times, fails, worsts, avgs = smoothe_aggregate bank ds in
      let smoothe_time =
        Printf.sprintf "%s%s"
          (Report.pm (Stats.mean times) (Stats.max_abs_diff times))
          (if fails > 0 then Printf.sprintf " (%d)" fails else "")
      in
      let finite xs = Array.of_list (List.filter Float.is_finite (Array.to_list xs)) in
      let fw = finite worsts and fa = finite avgs in
      let smoothe_quality =
        if Array.length fw = 0 then "Failed"
        else
          Printf.sprintf "%s / %s"
            (Report.pct_pm (Stats.mean fw) (Stats.max_abs_diff fw))
            (Report.pct_pm (Stats.mean fa) (Stats.max_abs_diff fa))
      in
      Report.row (ds.Registry.ds_name :: List.map fst cells_det @ [ smoothe_time ]);
      Report.row ("" :: List.map snd cells_det @ [ smoothe_quality ]);
      Report.rule ())
    datasets

let table2 bank =
  comparison_table bank
    ~title:"Table 2: linear cost model, realistic datasets (normalised to oracle)"
    Registry.realistic;
  print_endline
    "Assumptions per dataset (Table 2 caption): diospyros/rover/tensat independent,\n\
     flexc/impress correlated. Time limits scaled per DESIGN.md."

let table4 bank =
  comparison_table bank ~title:"Table 4: synthetic NP-hard datasets (set, maxsat)"
    Registry.adversarial

(* ------------------------------------------------------------- Table 3 *)

let table3 bank =
  Report.heading "Table 3: tensat and rover breakdown (cost / time)";
  Report.set_columns [ 8; 11; 18; 18; 18; 15; 15; 24 ];
  Report.row
    [ "Dataset"; "E-Graph"; "CPLEX-like"; "SCIP-like"; "CBC-like"; "Heuristic"; "Heuristic+"; "SmoothE (ours)" ];
  Report.rule ();
  List.iter
    (fun ds_name ->
      let ds = Registry.find ds_name in
      List.iter
        (fun inst ->
          let cost_time (r : Extractor.r) =
            if Float.is_finite r.Extractor.cost then
              Printf.sprintf "%.4g / %s%s" r.Extractor.cost (Report.secs r.Extractor.time_s)
                (if r.Extractor.proved_optimal then "*" else "")
            else Printf.sprintf "Fails / %s" (Report.secs r.Extractor.time_s)
          in
          let runs = Runbank.smoothe_runs bank ds inst in
          let costs =
            Array.of_list
              (List.map (fun r -> r.Smoothe_extract.result.Extractor.cost) runs)
          in
          let times =
            Array.of_list (List.map (fun r -> r.Smoothe_extract.result.Extractor.time_s) runs)
          in
          let smoothe_cell =
            let recovered = Runbank.smoothe_recoveries bank ds inst in
            Printf.sprintf "%s / %s%s"
              (Report.pm (Stats.mean costs) (Stats.max_abs_diff costs))
              (Report.pm (Stats.mean times) (Stats.max_abs_diff times))
              (if recovered > 0 then Printf.sprintf " [r%d]" recovered else "")
          in
          Report.row
            ([ ds_name; inst.Registry.inst_name ]
            @ List.map (fun p -> cost_time (Runbank.ilp bank p inst)) ilp_profiles
            @ [
                cost_time (Runbank.heuristic bank inst);
                cost_time (Runbank.heuristic_plus bank inst);
                smoothe_cell;
              ]))
        ds.Registry.instances)
    [ "tensat"; "rover" ];
  print_endline "* = proved optimal before the time limit."

(* ------------------------------------------------------------- Table 5 *)

let table5 bank =
  Report.heading "Table 5: performance portability across devices";
  let budget = Runbank.budget bank in
  (* the largest member of each realistic dataset, plus oversized
     e-graphs whose per-seed footprint exceeds the small GPU's memory *)
  let biggest ds =
    let best = ref None in
    List.iter
      (fun i ->
        let n = Egraph.num_nodes (Runbank.egraph bank i) in
        match !best with
        | Some (_, n') when n' >= n -> ()
        | _ -> best := Some (i, n))
      (Registry.find ds).Registry.instances;
    let i, _ = Option.get !best in
    ds, i.Registry.inst_name, Runbank.egraph bank i
  in
  let xl =
    [
      ( "impress",
        "mul_1024 (XL)",
        Impress_ds.multiply ~name:"mul_1024" ~width:1024 ~base:16 );
      ( "diospyros",
        "2d-conv_16x16 (XL)",
        Diospyros_ds.conv2d ~name:"2d-conv_16x16_3x3" ~image:16 ~kernel:3 );
    ]
  in
  let cases = List.map biggest [ "diospyros"; "flexc"; "impress"; "rover"; "tensat" ] @ xl in
  Report.set_columns [ 10; 20; 22; 22 ];
  Report.row [ "Dataset"; "E-Graph"; "A100-80GB"; "RTX2080Ti-11GB" ];
  Report.row [ ""; ""; "batch cost/time"; "batch cost/time" ];
  Report.rule ();
  List.iter
    (fun (ds_name, inst_name, g) ->
      let ds = Registry.find ds_name in
      let assumption = Smoothe_config.assumption_of_string ds.Registry.assumption in
      let config = { budget.Budget.smoothe with Smoothe_config.assumption } in
      let cell device =
        let run = Smoothe_extract.extract ~config ~device g in
        if run.Smoothe_extract.oom then "OOM"
        else
          Printf.sprintf "B=%d %.4g/%s" run.Smoothe_extract.batch_used
            run.Smoothe_extract.result.Extractor.cost
            (Report.secs run.Smoothe_extract.result.Extractor.time_s)
      in
      Report.row [ ds_name; inst_name; cell Device.a100; cell Device.rtx2080ti ])
    cases;
  print_endline
    "OOM = modelled per-seed memory exceeds device capacity (Device.footprint);\n\
     batch sizes derate with device memory, reproducing the paper's 8x gap."

(* -------------------------------------------------------------- Fig. 4 *)

let fig4_instances = [ "NASRNN"; "BERT"; "box_4"; "fir_7" ]

let fig4 bank =
  Report.heading "Figure 4: anytime results (SmoothE vs CPLEX-like ILP)";
  List.iter
    (fun name ->
      let inst = Registry.find_instance name in
      let ds = Registry.find (if List.mem name [ "NASRNN"; "BERT" ] then "tensat" else "rover") in
      Report.subheading name;
      let ilp = Runbank.ilp bank Bnb.cplex_like inst in
      let smoothe = List.hd (Runbank.smoothe_runs bank ds inst) in
      Report.set_columns [ 10; 14; 14 ];
      Report.row [ "series"; "time(s)"; "cost" ];
      Report.rule ();
      List.iter
        (fun (t, c) -> Report.row [ "ilp"; Report.secs t; Printf.sprintf "%.4g" c ])
        ilp.Extractor.trace;
      List.iter
        (fun (t, c) -> Report.row [ "smoothe"; Report.secs t; Printf.sprintf "%.4g" c ])
        smoothe.Smoothe_extract.result.Extractor.trace)
    fig4_instances

(* -------------------------------------------------------------- Fig. 5 *)

let fig5 bank =
  Report.heading "Figure 5: non-linear (MLP) cost model, increase normalised to SmoothE";
  let budget = Runbank.budget bank in
  Report.set_columns [ 10; 14; 14; 20; 14 ];
  Report.row [ "Dataset"; "SmoothE"; "ILP*"; "Genetic (±max)"; "GeneticFails" ];
  Report.rule ();
  List.iter
    (fun ds ->
      (* two representative instances per dataset keep the MLP training
         budget reasonable *)
      let insts =
        match ds.Registry.instances with a :: b :: _ -> [ a; b ] | rest -> rest
      in
      let per_instance inst =
        let g = Runbank.egraph bank inst in
        let rng = Rng.create 4242 in
        let inputs = Random_walk.dense_dataset rng g ~count:48 in
        let targets = Array.init (Array.length inputs) (fun _ -> -.Rng.float rng 5.0) in
        let mlp = Mlp.create rng ~input_dim:(Egraph.num_nodes g) in
        ignore (Mlp.train ~epochs:budget.Budget.mlp_train_epochs rng mlp ~inputs ~targets);
        let model = Cost_model.mlp_corrected ~linear:g.Egraph.costs mlp in
        let assumption = Smoothe_config.assumption_of_string ds.Registry.assumption in
        (* non-linear models need more optimisation steps (§5.5) *)
        let config =
          {
            budget.Budget.smoothe with
            Smoothe_config.assumption;
            batch = max 32 budget.Budget.smoothe.Smoothe_config.batch;
            max_iters = 2 * budget.Budget.smoothe.Smoothe_config.max_iters;
            patience = 2 * budget.Budget.smoothe.Smoothe_config.patience;
          }
        in
        let smoothe = (Smoothe_extract.extract ~config ~model g).Smoothe_extract.result in
        (* ILP*: the linear-model oracle solution re-evaluated under the
           non-linear model (§5.5) *)
        let ilp_star =
          let r = Runbank.ilp bank Bnb.cplex_like inst in
          match r.Extractor.solution with
          | Some s -> Cost_model.dense_solution model g s
          | None -> infinity
        in
        let genetic_costs =
          List.init 3 (fun k ->
              let r =
                Genetic.extract ~config:budget.Budget.genetic ~model (Rng.create (97 + k)) g
              in
              r.Extractor.cost)
        in
        smoothe.Extractor.cost, ilp_star, genetic_costs
      in
      let rows = List.map per_instance insts in
      (* normalise each instance's costs to SmoothE's; costs are
         negative-leaning (savings), so report differences relative to
         |SmoothE| *)
      let norm base v =
        if not (Float.is_finite v) then infinity
        else (v -. base) /. Float.max 1e-9 (Float.abs base)
      in
      let ilp_incs =
        Array.of_list (List.map (fun (s, i, _) -> norm s i) rows) |> fun a ->
        Array.of_list (List.filter Float.is_finite (Array.to_list a))
      in
      let gen_all =
        List.concat_map (fun (s, _, gs) -> List.map (norm s) gs) rows
        |> List.filter Float.is_finite
      in
      let gen_fails =
        List.concat_map (fun (_, _, gs) -> gs) rows
        |> List.filter (fun c -> not (Float.is_finite c))
        |> List.length
      in
      let gen_arr = Array.of_list gen_all in
      Report.row
        [
          ds.Registry.ds_name;
          "0.0% (ref)";
          (if Array.length ilp_incs = 0 then "Failed" else Report.pct (Stats.mean ilp_incs));
          (if Array.length gen_arr = 0 then "Failed"
           else Report.pct_pm (Stats.mean gen_arr) (Stats.max_abs_diff gen_arr));
          string_of_int gen_fails;
        ])
    Registry.realistic

(* -------------------------------------------------------------- Fig. 6 *)

let fig6 bank =
  Report.heading "Figure 6: speedup over the CPU baseline (tensat)";
  let budget = Runbank.budget bank in
  Report.set_columns [ 11; 12; 12; 12; 12; 12 ];
  Report.row [ "E-Graph"; "CPU(s)"; "+GPU(s)"; "+MatExp(s)"; "GPU speedup"; "MatExp speedup" ];
  Report.rule ();
  let ds = Registry.find "tensat" in
  List.iter
    (fun inst ->
      let g = Runbank.egraph bank inst in
      let config =
        {
          budget.Budget.smoothe with
          Smoothe_config.assumption = Smoothe_config.Independent;
          batch = min 8 budget.Budget.smoothe.Smoothe_config.batch;
          max_iters = min 60 budget.Budget.smoothe.Smoothe_config.max_iters;
          time_limit = 120.0;
          (* the figure compares backends of the interpreter; replay
             runs only on the vectorised one and would skew the ratio *)
          plan = Smoothe_config.Plan_off;
        }
      in
      let unoptimised =
        { config with Smoothe_config.scc_decomposition = false; batched_matexp = false }
      in
      let time_of device cfg =
        let run = Smoothe_extract.extract ~config:cfg ~device g in
        if run.Smoothe_extract.oom then nan
        else run.Smoothe_extract.profile.Smoothe_extract.total_time
      in
      let cpu = time_of Device.cpu_baseline unoptimised in
      let gpu = time_of Device.a100 unoptimised in
      let matexp = time_of Device.a100 config in
      let show t = if Float.is_nan t then "OOM" else Report.secs t in
      let speedup a b =
        if Float.is_nan a || Float.is_nan b then "-" else Printf.sprintf "%.1fx" (a /. b)
      in
      Report.row
        [
          inst.Registry.inst_name;
          show cpu;
          show gpu;
          show matexp;
          speedup cpu gpu;
          speedup gpu matexp;
        ])
    ds.Registry.instances;
  print_endline
    "CPU = scalar backend without SCC/batched-matexp optimisations;\n\
     +GPU = vectorised backend; +MatExp adds SCC decomposition + Eq. (11) batching."

(* -------------------------------------------------------------- Fig. 7 *)

let fig7 bank =
  Report.heading "Figure 7: seed batching on rover/box_3 (cost & latency vs B)";
  let budget = Runbank.budget bank in
  let g = Runbank.egraph bank (Registry.find_instance "box_3") in
  Report.set_columns [ 6; 16; 12; 12 ];
  Report.row [ "B"; "avg cost(±max)"; "variance"; "latency(s)" ];
  Report.rule ();
  List.iter
    (fun b ->
      let costs, times =
        List.split
          (List.init 3 (fun k ->
               let config =
                 {
                   budget.Budget.smoothe with
                   Smoothe_config.batch = b;
                   assumption = Smoothe_config.Independent;
                   seed = 17 + (1000 * k);
                 }
               in
               let run = Smoothe_extract.extract ~config g in
               ( run.Smoothe_extract.result.Extractor.cost,
                 run.Smoothe_extract.profile.Smoothe_extract.total_time )))
      in
      let costs = Array.of_list costs and times = Array.of_list times in
      Report.row
        [
          string_of_int b;
          Report.pm (Stats.mean costs) (Stats.max_abs_diff costs);
          Printf.sprintf "%.3g" (Stats.variance costs);
          Report.secs (Stats.mean times);
        ])
    budget.Budget.seed_sweep

(* -------------------------------------------------------------- Fig. 8 *)

let fig8 bank =
  Report.heading "Figure 8: runtime profiling (share of wall-clock per component)";
  Report.set_columns [ 10; 14; 16; 12 ];
  Report.row [ "Dataset"; "LossCalc"; "GradDescent"; "Sampling" ];
  Report.rule ();
  List.iter
    (fun ds ->
      let shares =
        List.map
          (fun inst ->
            let run = List.hd (Runbank.smoothe_runs bank ds inst) in
            let p = run.Smoothe_extract.profile in
            let total = Float.max 1e-9 p.Smoothe_extract.total_time in
            ( p.Smoothe_extract.loss_time /. total,
              p.Smoothe_extract.grad_time /. total,
              p.Smoothe_extract.sample_time /. total ))
          ds.Registry.instances
      in
      let mean f = Stats.mean (Array.of_list (List.map f shares)) in
      Report.row
        [
          ds.Registry.ds_name;
          Printf.sprintf "%.1f%%" (100.0 *. mean (fun (a, _, _) -> a));
          Printf.sprintf "%.1f%%" (100.0 *. mean (fun (_, b, _) -> b));
          Printf.sprintf "%.1f%%" (100.0 *. mean (fun (_, _, c) -> c));
        ])
    Registry.realistic

(* -------------------------------------------------------------- Fig. 9 *)

let fig9 bank =
  Report.heading "Figure 9: optimisation loss vs sampling loss";
  List.iter
    (fun name ->
      let inst = Registry.find_instance name in
      let ds = Registry.find (if List.mem name [ "NASRNN"; "BERT" ] then "tensat" else "rover") in
      let run = List.hd (Runbank.smoothe_runs bank ds inst) in
      Report.subheading name;
      Report.set_columns [ 6; 16; 16; 14 ];
      Report.row [ "iter"; "relaxed f(p)+λh"; "sampled f_b(s)"; "incumbent" ];
      Report.rule ();
      let history = run.Smoothe_extract.history in
      let len = List.length history in
      let stride = max 1 (len / 12) in
      List.iteri
        (fun k h ->
          if k mod stride = 0 || k = len - 1 then
            Report.row
              [
                string_of_int h.Smoothe_extract.iter;
                Printf.sprintf "%.5g" h.Smoothe_extract.relaxed_loss;
                (if Float.is_finite h.Smoothe_extract.sampled_cost then
                   Printf.sprintf "%.5g" h.Smoothe_extract.sampled_cost
                 else "invalid");
                Printf.sprintf "%.5g" h.Smoothe_extract.incumbent;
              ])
        history)
    [ "NASRNN"; "BERT"; "box_4"; "fir_7" ]

(* ------------------------------------------------------------ ablations *)

let ablation_lambda bank =
  Report.heading "Ablation: NOTEARS weight λ (cyclic tensat/NASRNN)";
  let budget = Runbank.budget bank in
  let g = Runbank.egraph bank (Registry.find_instance "NASRNN") in
  Report.set_columns [ 8; 12; 18 ];
  Report.row [ "lambda"; "cost"; "invalid samples" ];
  Report.rule ();
  List.iter
    (fun lambda_ ->
      let config =
        {
          budget.Budget.smoothe with
          Smoothe_config.lambda_;
          assumption = Smoothe_config.Independent;
        }
      in
      let run = Smoothe_extract.extract ~config g in
      let invalid =
        List.length
          (List.filter
             (fun h -> not (Float.is_finite h.Smoothe_extract.sampled_cost))
             run.Smoothe_extract.history)
      in
      Report.row
        [
          Printf.sprintf "%g" lambda_;
          Printf.sprintf "%.4g" run.Smoothe_extract.result.Extractor.cost;
          Printf.sprintf "%d / %d" invalid run.Smoothe_extract.iterations;
        ])
    [ 0.0; 0.1; 1.0; 10.0; 100.0 ]

let ablation_repair bank =
  Report.heading "Ablation: cycle-aware sampling repair (our extension)";
  let budget = Runbank.budget bank in
  Report.set_columns [ 11; 16; 16 ];
  Report.row [ "E-Graph"; "repair off"; "repair on" ];
  Report.rule ();
  List.iter
    (fun name ->
      let g = Runbank.egraph bank (Registry.find_instance name) in
      let cell repair_sampling =
        let config =
          {
            budget.Budget.smoothe with
            Smoothe_config.repair_sampling;
            assumption = Smoothe_config.Independent;
            lambda_ = 0.1 (* weak penalty so raw sampling actually hits cycles *);
          }
        in
        let run = Smoothe_extract.extract ~config g in
        Printf.sprintf "%.4g" run.Smoothe_extract.result.Extractor.cost
      in
      Report.row [ name; cell false; cell true ])
    [ "NASRNN"; "BERT"; "VGG"; "ResNet-50" ]

let ablation_assumption bank =
  Report.heading "Ablation: correlation assumption (Eq. 6 vs Eq. 7 vs hybrid)";
  let budget = Runbank.budget bank in
  Report.set_columns [ 10; 11; 14; 14; 14 ];
  Report.row [ "Dataset"; "E-Graph"; "independent"; "correlated"; "hybrid" ];
  Report.rule ();
  List.iter
    (fun ds_name ->
      let ds = Registry.find ds_name in
      let inst = List.hd ds.Registry.instances in
      let g = Runbank.egraph bank inst in
      let cell assumption =
        let config = { budget.Budget.smoothe with Smoothe_config.assumption } in
        let run = Smoothe_extract.extract ~config g in
        Printf.sprintf "%.4g" run.Smoothe_extract.result.Extractor.cost
      in
      Report.row
        [
          ds_name;
          inst.Registry.inst_name;
          cell Smoothe_config.Independent;
          cell Smoothe_config.Correlated;
          cell Smoothe_config.Hybrid;
        ])
    [ "diospyros"; "flexc"; "impress"; "rover"; "tensat"; "set"; "maxsat" ]

let ablation_fusion bank =
  Report.heading "Ablation: pairwise fusion cost model (future-work direction, §6)";
  let budget = Runbank.budget bank in
  Report.set_columns [ 11; 12; 12; 12; 12 ];
  Report.row [ "E-Graph"; "linear-opt"; "SmoothE"; "genetic"; "ILP*" ];
  Report.rule ();
  List.iter
    (fun name ->
      let inst = Registry.find_instance name in
      let g = Runbank.egraph bank inst in
      let model = Cost_model.fusion_of_egraph (Rng.create 7) ~discount:0.4 g in
      let config =
        {
          budget.Budget.smoothe with
          Smoothe_config.assumption = Smoothe_config.Independent;
          max_iters = 2 * budget.Budget.smoothe.Smoothe_config.max_iters;
        }
      in
      let smoothe = (Smoothe_extract.extract ~config ~model g).Smoothe_extract.result in
      let genetic = Genetic.extract ~config:budget.Budget.genetic ~model (Rng.create 31) g in
      let linear_opt = Runbank.ilp bank Bnb.cplex_like inst in
      let ilp_star =
        match linear_opt.Extractor.solution with
        | Some s -> Cost_model.dense_solution model g s
        | None -> infinity
      in
      let show c = if Float.is_finite c then Printf.sprintf "%.4g" c else "Fails" in
      Report.row
        [
          name;
          show linear_opt.Extractor.cost;
          show smoothe.Extractor.cost;
          show genetic.Extractor.cost;
          show ilp_star;
        ])
    [ "mcm_8"; "bzip2_1"; "mat-mul_4x4"; "maxsat_30_90" ];
  print_endline
    "Fusion discounts apply only when both e-nodes of a pair are selected; a\n\
     linear-model optimum (ILP*) ignores them, SmoothE optimises through them."

let ablation_phi bank =
  Report.heading "Ablation: accuracy of the correlation assumptions vs exact marginals";
  ignore bank;
  Report.set_columns [ 22; 14; 14; 14 ];
  Report.row [ "e-graph (random cp)"; "independent"; "correlated"; "hybrid" ];
  Report.rule ();
  (* small e-graphs where the exact enumeration is tractable: the fig. 1
     example plus random DAGs and random cyclic e-graphs *)
  let cases =
    ("fig1", Fig1.egraph ())
    :: List.concat_map
         (fun cyclic ->
           List.map
             (fun seed ->
               let rng = Rng.create seed in
               let b = Egraph.Builder.create ~name:"rnd" () in
               (* 6 classes, 2 nodes each: 64 assignments *)
               let ids = Array.init 6 (fun _ -> Egraph.Builder.add_class b) in
               for c = 5 downto 0 do
                 for _ = 1 to 2 do
                   let children = ref [] in
                   if c < 5 then children := [ ids.(c + 1 + Rng.int rng (5 - c)) ];
                   if cyclic && Rng.uniform rng < 0.3 then
                     children := ids.(Rng.int rng 6) :: !children;
                   ignore
                     (Egraph.Builder.add_node b ~cls:ids.(c)
                        ~op:(Printf.sprintf "o%d" (Rng.int rng 4))
                        ~cost:1.0 ~children:!children)
                 done
               done;
               ( Printf.sprintf "%s-%d" (if cyclic then "cyclic" else "dag") seed,
                 Egraph.Builder.freeze b ~root:ids.(0) ))
             [ 1; 2; 3 ])
         [ false; true ]
  in
  List.iter
    (fun (name, g) ->
      let rng = Rng.create 99 in
      (* random cp summing to 1 per class *)
      let cp = Array.make (Egraph.num_nodes g) 0.0 in
      Array.iter
        (fun members ->
          let raw = Array.map (fun _ -> 0.1 +. Rng.uniform rng) members in
          let total = Array.fold_left ( +. ) 0.0 raw in
          Array.iteri (fun k node -> cp.(node) <- raw.(k) /. total) members)
        g.Egraph.class_nodes;
      let err a = Exact_marginals.assumption_error g ~cp a in
      Report.row
        [
          name;
          Printf.sprintf "%.4f" (err Smoothe_config.Independent);
          Printf.sprintf "%.4f" (err Smoothe_config.Correlated);
          Printf.sprintf "%.4f" (err Smoothe_config.Hybrid);
        ])
    cases;
  print_endline
    "Mean |exact - propagated| marginal per e-node. The exact marginals come from\n\
     full enumeration (Exact_marginals); the paper instead must assume a parent\n\
     correlation structure (section 3.3). Lower is better."

let ablation_temperature bank =
  Report.heading "Ablation: softmax temperature annealing and entropy bonus (our extensions)";
  let budget = Runbank.budget bank in
  let g = Runbank.egraph bank (Registry.find_instance "box_4") in
  Report.set_columns [ 34; 12; 12 ];
  Report.row [ "configuration"; "cost"; "iterations" ];
  Report.rule ();
  List.iter
    (fun (label, temperature, temperature_decay, entropy_weight) ->
      let config =
        {
          budget.Budget.smoothe with
          Smoothe_config.assumption = Smoothe_config.Independent;
          temperature;
          temperature_decay;
          entropy_weight;
        }
      in
      let run = Smoothe_extract.extract ~config g in
      Report.row
        [
          label;
          Printf.sprintf "%.4g" run.Smoothe_extract.result.Extractor.cost;
          string_of_int run.Smoothe_extract.iterations;
        ])
    [
      ("paper default (tau=1, no entropy)", 1.0, 1.0, 0.0);
      ("hot start, annealed (tau 2 -> 0.2)", 2.0, 0.97, 0.0);
      ("entropy bonus w=0.5", 1.0, 1.0, 0.5);
      ("annealed + entropy", 2.0, 0.97, 0.5);
      ("cold (tau=0.5)", 0.5, 1.0, 0.0);
    ]

(* ------------------------------------------------------ phase breakdown *)

(* The Fig. 6 configurations again (scalar vs vectorised backend,
   matexp optimisations off/on), but with the per-phase wall-clock
   summed from recorded spans rather than the profile struct, plus the
   matexp squaring counts that explain the gap. *)
let phases bank =
  Report.heading "Per-phase breakdown from recorded spans (Fig. 6 configurations)";
  let budget = Runbank.budget bank in
  let g = Runbank.egraph bank (Registry.find_instance "box_3") in
  let base =
    {
      budget.Budget.smoothe with
      Smoothe_config.assumption = Smoothe_config.Independent;
      batch = min 8 budget.Budget.smoothe.Smoothe_config.batch;
      max_iters = min 40 budget.Budget.smoothe.Smoothe_config.max_iters;
      (* every iteration interpreted, so the smoothe.forward/backward
         spans cover all of them on every backend *)
      plan = Smoothe_config.Plan_off;
    }
  in
  let cases =
    [
      ("scalar", Device.cpu_baseline, false);
      ("scalar+matexp", Device.cpu_baseline, true);
      ("vectorised", Device.a100, false);
      ("vectorised+matexp", Device.a100, true);
    ]
  in
  Report.set_columns [ 20; 10; 10; 10; 10; 10; 12 ];
  Report.row [ "configuration"; "forward"; "backward"; "adam"; "sample"; "total"; "sq/matexp" ];
  Report.rule ();
  (* the four cases fan across the default pool. Each runs against a
     scoped metrics registry and a captured trace, so concurrent cases
     read only their own counters and spans; the captured events are
     re-absorbed so the pool merges them into the global trace in case
     order, and rows print in case order after the join. *)
  Obs.with_enabled (fun () ->
      Trace.reset ();
      Metrics.reset ();
      let rows =
        Pool.run_list (Pool.get ())
          (List.map
             (fun (label, device, matexp) () ->
               let config =
                 { base with Smoothe_config.scc_decomposition = matexp; batched_matexp = matexp }
               in
               Metrics.scoped (fun () ->
                   let (), evs =
                     Trace.capturing (fun () ->
                         ignore (Smoothe_extract.extract ~config ~device g))
                   in
                   let totals = Trace.span_totals_of evs in
                   Trace.absorb evs;
                   let total name =
                     match List.find_opt (fun (n, _, _) -> n = name) totals with
                     | Some (_, _, t) -> t
                     | None -> 0.0
                   in
                   let calls = Metrics.counter_value "tensor.matexp_calls" in
                   let sq = Metrics.counter_value "tensor.matexp_squarings" in
                   [
                     label;
                     Report.secs (total "smoothe.forward");
                     Report.secs (total "smoothe.backward");
                     Report.secs (total "smoothe.adam_step");
                     Report.secs (total "smoothe.sample");
                     Report.secs (total "smoothe.extract");
                     (if calls > 0.0 then Printf.sprintf "%.1f" (sq /. calls) else "-");
                   ]))
             cases)
      in
      List.iter Report.row rows;
      (* the merged trace (all four cases, absorbed in case order even
         when they ran concurrently) doubles as a CI artifact *)
      Trace.write_file "phases-trace.json");
  print_endline
    "Phase times are summed from recorded smoothe.* spans; sq/matexp is the mean\n\
     squaring count per matrix exponential (Eq. 11 batching shrinks it).\n\
     Merged span trace written to phases-trace.json."

let durability bank =
  Report.heading "Durability: checkpoint overhead vs snapshot interval (mcm_8)";
  let budget = Runbank.budget bank in
  let g = Runbank.egraph bank (Registry.find_instance "mcm_8") in
  let config =
    {
      budget.Budget.smoothe with
      Smoothe_config.time_limit = 0.0;
      (* unlimited: the interval, not the clock, decides when we stop *)
      max_iters = min 60 budget.Budget.smoothe.Smoothe_config.max_iters;
    }
  in
  (* one snapshot dir per interval (not one shared dir): the rows fan
     across the default pool, and concurrent stores must not interleave
     generations in each other's directories *)
  let dir_for interval =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "smoothe-durability-%d-%d" (Unix.getpid ()) interval)
  in
  let cleanup dir =
    if Sys.file_exists dir then begin
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Unix.rmdir dir
    end
  in
  let intervals = [ 0; 1; 5; 25 ] in
  Report.set_columns [ 10; 10; 10; 10; 10; 12 ];
  Report.row [ "interval"; "time"; "cost"; "iters"; "writes"; "KiB written" ];
  Report.rule ();
  Fun.protect
    ~finally:(fun () -> List.iter (fun i -> cleanup (dir_for i)) intervals)
    (fun () ->
      Obs.with_enabled (fun () ->
          let rows =
            Pool.run_list (Pool.get ())
              (List.map
                 (fun interval () ->
                   let dir = dir_for interval in
                   cleanup dir;
                   let store =
                     if interval = 0 then None
                     else Some (Checkpoint.store ~dir ~name:"durability" ())
                   in
                   (* scoped: each row reads only its own checkpoint
                      counters, whatever its neighbours are writing *)
                   Metrics.scoped (fun () ->
                       let run, t =
                         Timer.time (fun () ->
                             Smoothe_extract.extract ~config ?checkpoint:store
                               ~checkpoint_every:interval g)
                       in
                       [
                         (if interval = 0 then "off" else string_of_int interval);
                         Report.secs t;
                         Printf.sprintf "%.4g" run.Smoothe_extract.result.Extractor.cost;
                         string_of_int run.Smoothe_extract.iterations;
                         Printf.sprintf "%.0f" (Metrics.counter_value "checkpoint.writes");
                         Printf.sprintf "%.1f"
                           (Metrics.counter_value "checkpoint.bytes_written" /. 1024.0);
                       ]))
                 intervals)
          in
          List.iter Report.row rows));
  print_endline
    "Same seed and iteration budget in every row, so cost must not move; the\n\
     delta against `off' is the price of durability at each snapshot interval."

let preflight bank =
  Report.heading "Pre-flight static analysis: every bundled instance";
  Report.set_columns [ 20; 8; 8; 8; 10; 8; 10 ];
  Report.row [ "instance"; "nodes"; "classes"; "errors"; "warnings"; "infos"; "verdict" ];
  Report.rule ();
  (* materialise every instance through the Runbank cache on this
     domain first — its memo Hashtbls are not domain-safe — then fan
     the per-instance analysis (the expensive part: a forward tape and
     three checkers each) across the default pool. Results come back
     in instance order, so the table and the totals are identical at
     any jobs count. *)
  let cases =
    List.concat_map
      (fun ds -> List.map (fun inst -> (inst, Runbank.egraph bank inst)) ds.Registry.instances)
      Registry.all
  in
  let analyse (inst, g) =
    (* lint the graph, then a tiny recorded forward tape: batch 2
       and two propagation steps exercise every op kind the real
       run would build, at negligible cost *)
    let config =
      { Smoothe_config.default with Smoothe_config.batch = 2; prop_iters = Some 2 }
    in
    let tape_ds =
      match
        let compiled = Relaxation.compile config g in
        let theta = Tensor.create ~batch:2 ~width:(Egraph.num_nodes g) in
        let fwd = Relaxation.forward compiled ~config ~model:(Cost_model.of_egraph g) ~theta in
        let ir = Ad.ir fwd.Relaxation.tape in
        Shape_check.check ir @ Grad_flow.check ~root:(Ad.node_id fwd.Relaxation.loss) ir
      with
      | ds -> ds
      | exception e ->
          [
            Diagnostic.error ~code:"AN001" Diagnostic.Graph
              "building the forward tape failed: %s" (Printexc.to_string e);
          ]
    in
    let ds = Egraph_lint.check g @ tape_ds in
    let row =
      [
        inst.Registry.inst_name;
        string_of_int (Egraph.num_nodes g);
        string_of_int (Egraph.num_classes g);
        string_of_int (Diagnostic.errors ds);
        string_of_int (Diagnostic.warnings ds);
        string_of_int (Diagnostic.infos ds);
        (if Diagnostic.ok ~strict:true ds then "clean" else "FINDINGS");
      ]
    in
    (row, Diagnostic.errors ds, Diagnostic.warnings ds)
  in
  let results =
    Pool.run_list (Pool.get ()) (List.map (fun case () -> analyse case) cases)
  in
  List.iter (fun (row, _, _) -> Report.row row) results;
  let total_errors = List.fold_left (fun acc (_, e, _) -> acc + e) 0 results in
  let total_warnings = List.fold_left (fun acc (_, _, w) -> acc + w) 0 results in
  Printf.printf
    "Every bundled instance must lint clean (infos allowed): %d errors, %d warnings.\n"
    total_errors total_warnings

(* --------------------------------------------------------------- replay *)

(* The compiled replay engine (lib/autodiff/plan) against the
   interpreter it must reproduce bit for bit: the same captured
   iteration run both ways over identical in-place theta updates,
   reporting per-iteration wall clock and per-iteration tensor
   allocation for each executor. Two hard assertions ride along —
   every replayed loss and theta gradient must be bitwise equal to the
   interpreter's, and steady-state replayed iterations must allocate
   zero tensor bytes. Rows run sequentially on purpose: fanning the
   cases over the pool would contend for cores and skew the very
   per-iteration wall clocks the table exists to compare. *)
let replay bank =
  Report.heading "Plan replay: interpreted vs compiled iterations (bit-identical)";
  let budget = Runbank.budget bank in
  let iters = min 30 (max 6 (budget.Budget.smoothe.Smoothe_config.max_iters / 5)) in
  let config =
    {
      budget.Budget.smoothe with
      Smoothe_config.batch = min 8 budget.Budget.smoothe.Smoothe_config.batch;
    }
  in
  let nudge rng theta =
    (* the in-place update an optimiser step would make; replays see it
       through the captured leaf reference, never through a new tape *)
    let d = Tensor.unsafe_data theta in
    for i = 0 to Tensor.numel theta - 1 do
      d.(i) <- d.(i) +. (0.02 *. Rng.gaussian rng)
    done
  in
  Report.set_columns [ 18; 6; 11; 11; 9; 13; 13; 15; 10 ];
  Report.row
    [
      "instance";
      "iters";
      "interp/it";
      "replay/it";
      "speedup";
      "interp KiB/it";
      "replay KiB/it";
      "replay words/it";
      "identical";
    ];
  Report.rule ();
  let run_case name =
    let g = Runbank.egraph bank (Registry.find_instance name) in
    let compiled = Relaxation.compile config g in
    let model = Cost_model.of_egraph g in
    let rng = Rng.create 11 in
    let theta =
      Tensor.init ~batch:config.Smoothe_config.batch ~width:(Egraph.num_nodes g)
        (fun _ _ -> 0.5 *. Rng.gaussian rng)
    in
    (* capture two consecutive iterations, gate on the dataflow
       analysis, compile against its verified arena and fusion chains —
       the same pipeline `--plan on' arms inside the extraction loop *)
    let fwd1 = Relaxation.forward compiled ~config ~model ~theta in
    let c1 = Plan.capture fwd1.Relaxation.tape ~root:fwd1.Relaxation.loss in
    let fwd2 = Relaxation.forward compiled ~config ~model ~theta in
    let c2 = Plan.capture fwd2.Relaxation.tape ~root:fwd2.Relaxation.loss in
    (match Plan.stable c1 c2 with
    | Ok () -> ()
    | Error e -> failwith (Printf.sprintf "replay bench: %s captures unstable: %s" name e));
    let root = Ad.node_id fwd2.Relaxation.loss in
    let theta_id = Ad.node_id fwd2.Relaxation.theta in
    let outputs = [| root |] in
    let report = Plan_check.analyze ~grads:[| theta_id |] ~root ~outputs c2.Plan.ir in
    (match
       List.filter
         (fun d -> d.Diagnostic.severity <> Diagnostic.Info)
         report.Plan_check.diags
     with
    | [] -> ()
    | d :: _ ->
        failwith
          (Printf.sprintf "replay bench: %s analysis rejected the IR: %s" name
             (Diagnostic.render d)));
    let plan =
      match
        Plan.compile
          ~arena:(Plan_check.arena_spec report)
          ~chains:(Plan_check.plan_chains report)
          ~outputs ~grads:[| theta_id |] c2
      with
      | Ok plan -> plan
      | Error e -> failwith (Printf.sprintf "replay bench: %s compile failed: %s" name e)
    in
    let theta0 = Tensor.copy theta in
    (* untimed verification pass (doubles as the replay warm-up): every
       iteration runs both executors over the same theta and must agree
       bitwise on the loss and the theta gradient *)
    let identical = ref true in
    let rng_v = Rng.create 101 in
    for _ = 1 to iters do
      let fwd = Relaxation.forward compiled ~config ~model ~theta in
      Ad.backward fwd.Relaxation.loss;
      Plan.run_forward plan;
      Plan.run_backward plan;
      identical :=
        !identical
        && Tensor.bits_equal (Plan.value plan root) (Ad.value fwd.Relaxation.loss)
        && Tensor.bits_equal (Plan.grad_of plan theta_id) (Ad.grad fwd.Relaxation.theta);
      nudge rng_v theta
    done;
    if not !identical then
      failwith (Printf.sprintf "replay bench: %s replay diverged from the interpreter" name);
    (* timed interpreted loop: fresh tape and fresh intermediates every
       iteration, exactly what the extraction loop pays under --plan off *)
    Tensor.copy_into ~out:theta theta0;
    let rng_i = Rng.create 101 in
    let interp_bytes = ref 0.0 in
    let (), interp_s =
      Timer.time (fun () ->
          Metrics.scoped (fun () ->
              for _ = 1 to iters do
                let fwd = Relaxation.forward compiled ~config ~model ~theta in
                Ad.backward fwd.Relaxation.loss;
                nudge rng_i theta
              done;
              interp_bytes := Metrics.counter_value "tensor.bytes_allocated"))
    in
    (* timed replay loop: the identical theta trajectory through the
       compiled schedule; the allocation counter must not move at all *)
    Tensor.copy_into ~out:theta theta0;
    let rng_r = Rng.create 101 in
    let replay_bytes = ref 0.0 in
    let (), replay_s =
      Timer.time (fun () ->
          Metrics.scoped (fun () ->
              for _ = 1 to iters do
                Plan.run_forward plan;
                Plan.run_backward plan;
                nudge rng_r theta
              done;
              replay_bytes := Metrics.counter_value "tensor.bytes_allocated"))
    in
    (* minor-heap words per replayed iteration with the sink off, as an
       extraction runs by default (the sink's counters allocate) *)
    let replay_words =
      Obs.set_sink Obs.Disabled;
      Fun.protect ~finally:Obs.enable (fun () ->
          let w0 = Gc.minor_words () in
          for _ = 1 to iters do
            Plan.run_forward plan;
            Plan.run_backward plan
          done;
          (Gc.minor_words () -. w0) /. float_of_int iters)
    in
    if !replay_bytes <> 0.0 then
      failwith
        (Printf.sprintf "replay bench: %s replayed iterations allocated %.0f bytes" name
           !replay_bytes);
    let per_it s = s *. 1e3 /. float_of_int iters in
    let st = Plan.stats plan in
    Report.row
      [
        name;
        string_of_int iters;
        Printf.sprintf "%.2f ms" (per_it interp_s);
        Printf.sprintf "%.2f ms" (per_it replay_s);
        Printf.sprintf "%.2fx" (interp_s /. replay_s);
        Printf.sprintf "%.1f" (!interp_bytes /. 1024.0 /. float_of_int iters);
        Printf.sprintf "%.1f" (!replay_bytes /. 1024.0 /. float_of_int iters);
        Printf.sprintf "%.0f" replay_words;
        (if !identical then "yes" else "NO");
      ];
    (name, st)
  in
  let stats =
    Obs.with_enabled (fun () ->
        List.map run_case [ "box_3"; "mcm_8"; "set_cover_small"; "fir_5" ])
  in
  print_endline
    "Replayed iterations must allocate zero tensor bytes and agree bitwise with\n\
     the interpreter on every loss and theta gradient (both enforced above).";
  List.iter
    (fun (name, st) ->
      Printf.printf
        "%s: %d nodes, %d KiB arena + %d KiB pinned, %d ops fused into %d chains\n" name
        st.Plan.nodes
        ((st.Plan.arena_bytes + 1023) / 1024)
        ((st.Plan.dedicated_bytes + 1023) / 1024)
        st.Plan.fused_nodes st.Plan.chains)
    stats

(* ------------------------------------------------------------- parallel *)

(* The --jobs machinery measured end to end: the same seeded extraction
   and the same chunked kernel workload at jobs=1 and at the host's
   recommended width. Costs must agree bit-for-bit (the determinism
   contract); the wall-clock columns show whatever speedup the host's
   cores actually deliver. *)
let parallel bank =
  Report.heading "Parallel execution: jobs sweep (bit-identical results required)";
  let budget = Runbank.budget bank in
  let g = Runbank.egraph bank (Registry.find_instance "box_3") in
  let config =
    {
      budget.Budget.smoothe with
      Smoothe_config.assumption = Smoothe_config.Independent;
      time_limit = 0.0 (* iteration-bounded, so every jobs value does identical work *);
      max_iters = min 40 budget.Budget.smoothe.Smoothe_config.max_iters;
    }
  in
  let kernel_workload () =
    let x =
      Tensor.init ~batch:32 ~width:20_000 (fun b i ->
          float_of_int (((b * 31) + i) mod 97) /. 97.0)
    in
    let y = Tensor.exp x in
    let z = Tensor.mul x y in
    Tensor.sum z
  in
  let widths =
    let rec dedup = function a :: (b :: _ as tl) when a = b -> dedup tl | a :: tl -> a :: dedup tl | [] -> [] in
    dedup [ 1; 2; Stdlib.max 2 (Domain.recommended_domain_count ()) ]
  in
  Report.set_columns [ 6; 12; 12; 14; 14 ];
  Report.row [ "jobs"; "extract(s)"; "kernels(s)"; "cost"; "kernel sum" ];
  Report.rule ();
  let saved = Pool.jobs () in
  let reference = ref None in
  Fun.protect
    ~finally:(fun () -> Pool.set_jobs saved)
    (fun () ->
      List.iter
        (fun jobs ->
          Pool.set_jobs jobs;
          let run, t = Timer.time (fun () -> Smoothe_extract.extract ~config g) in
          let cost = run.Smoothe_extract.result.Extractor.cost in
          let ksum = ref 0.0 in
          let (), kt = Timer.time (fun () -> ksum := kernel_workload ()) in
          (match !reference with
          | None -> reference := Some (cost, !ksum)
          | Some (c, s) ->
              if c <> cost || s <> !ksum then
                failwith
                  (Printf.sprintf
                     "parallel: results diverged at jobs=%d (cost %.17g vs %.17g, sum %.17g \
                      vs %.17g)"
                     jobs cost c !ksum s));
          Report.row
            [
              string_of_int jobs;
              Report.secs t;
              Report.secs kt;
              Printf.sprintf "%.6g" cost;
              Printf.sprintf "%.6g" !ksum;
            ])
        widths);
  print_endline
    "Chunk boundaries depend only on input size, never on the pool, so every row\n\
     must report the same cost and kernel sum; the experiment fails loudly if not."

(* -------------------------------------------------------------- hybrid *)

(* The hybrid pipeline head to head against the strongest plain solver:
   warm-started cplex-like ILP vs SmoothE incumbent -> fix/cut/shrink ->
   warm-started B&B -> sound verification solve, both at the same
   per-instance wall-clock. The selling point shows on the NP-hard rows:
   plain B&B never finds a good incumbent from the greedy warm start
   (its cost column stays at the heuristic), while the hybrid holds
   SmoothE's solution from the first second and spends the budget
   closing the bound — same wall-clock, far lower cost and gap. *)
let hybrid bank =
  Report.heading "Hybrid extraction: plain cplex-like ILP vs hybrid (equal wall-clock)";
  let budget = Runbank.budget bank in
  let tl = budget.Budget.ilp_time in
  Report.set_columns [ 16; 11; 7; 8; 11; 11; 7; 8; 7 ];
  Report.row
    [ "instance"; "ilp cost"; "proved"; "gap"; "hyb cost"; "hyb bound"; "proved"; "gap"; "fixed" ];
  Report.rule ();
  let ilp_proofs = ref 0 and hyb_proofs = ref 0 in
  List.iter
    (fun name ->
      let g = Runbank.egraph bank (Registry.find_instance name) in
      let greedy = Greedy_dag.extract g in
      let ilp =
        Ilp.extract ~time_limit:tl ?warm_start:greedy.Extractor.solution
          ~profile:Bnb.cplex_like g
      in
      let run =
        Hybrid_pipeline.extract
          ~config:
            {
              Hybrid_pipeline.default_config with
              Hybrid_pipeline.time_budget = tl;
              smoothe = budget.Budget.smoothe;
            }
          g
      in
      let hyb = run.Hybrid_pipeline.result in
      let ho = run.Hybrid_pipeline.hybrid in
      (* invariant, not luck: the hybrid starts from an incumbent and
         only ever improves on it, so it can never lose to its own seed *)
      if hyb.Extractor.cost > greedy.Extractor.cost +. Bnb.tolerance greedy.Extractor.cost
      then
        failwith
          (Printf.sprintf "hybrid worse than its greedy seed on %s: %.17g vs %.17g" name
             hyb.Extractor.cost greedy.Extractor.cost);
      if ilp.Extractor.proved_optimal then incr ilp_proofs;
      if hyb.Extractor.proved_optimal then incr hyb_proofs;
      let note (r : Extractor.r) k =
        match List.assoc_opt k r.Extractor.notes with Some v -> v | None -> "-"
      in
      Report.row
        [
          name;
          Printf.sprintf "%.6g" ilp.Extractor.cost;
          (if ilp.Extractor.proved_optimal then "yes" else "no");
          note ilp "gap";
          Printf.sprintf "%.6g" hyb.Extractor.cost;
          Printf.sprintf "%.6g" ho.Hybrid.bound;
          (if hyb.Extractor.proved_optimal then "yes" else "no");
          Printf.sprintf "%.3g" ho.Hybrid.gap;
          string_of_int ho.Hybrid.fixed_classes;
        ])
    [
      "mat-mul_2x2"; "mat-mul_3x3"; "set_cover_small"; "set_cover_mid"; "set_cover_dense";
      "maxsat_25_120"; "bzip2_1"; "box_3";
    ];
  Printf.printf "proof counts: plain ILP %d, hybrid %d (budget %.1fs each)\n" !ilp_proofs
    !hyb_proofs tl;
  print_endline
    "Equal wall-clock per method and instance; the hybrid spends part of its share\n\
     on SmoothE, the rest on the pruned and verification solves. Its bound and any\n\
     proof are valid for the full problem (DESIGN.md, Hybrid extraction)."

(* --------------------------------------------------------------- serve *)

let serve bank =
  Report.heading
    "Serve: admission control under ramped offered load (mcm_8, manual executors)";
  let g = Runbank.egraph bank (Registry.find_instance "mcm_8") in
  let inline = Egraph.Serial.to_string g in
  let queue_limit = 8 in
  let mk i =
    {
      Serve_protocol.default_request with
      Serve_protocol.id = Printf.sprintf "r%d" i;
      source = Serve_protocol.Inline inline;
      iters = 12;
      batch = 2;
      seed = i;
    }
  in
  Report.set_columns [ 8; 9; 6; 8; 10; 10; 10 ];
  Report.row [ "offered"; "admitted"; "shed"; "shed%"; "p50(ms)"; "p95(ms)"; "rehits" ];
  Report.rule ();
  List.iter
    (fun offered ->
      let engine =
        Serve_engine.create
          ~config:
            {
              Serve_engine.default_config with
              Serve_engine.queue_limit;
              executors = 0;
              cache_capacity = 64;
            }
          ()
      in
      (* wave 1: burst of [offered] arrivals against a cold queue; in
         manual mode nothing executes until [run_pending], so the burst
         probes pure admission policy *)
      let outcomes = List.init offered (fun i -> Serve_engine.offer engine (mk i)) in
      ignore (Serve_engine.run_pending engine);
      let responses =
        List.map
          (function
            | Serve_engine.Queued tk -> Serve_engine.await tk
            | Serve_engine.Done r -> r)
          outcomes
      in
      let shed =
        List.length
          (List.filter
             (fun r ->
               match r.Serve_protocol.body with
               | Error { Serve_protocol.code = Serve_protocol.Overloaded; _ } -> true
               | _ -> false)
             responses)
      in
      let latencies =
        Array.of_list
          (List.filter_map
             (fun r ->
               match r.Serve_protocol.body with
               | Ok _ -> Some (r.Serve_protocol.queue_ms +. r.Serve_protocol.elapsed_ms)
               | Error _ -> None)
             responses)
      in
      (* wave 2: re-offer the requests that completed; the warmed cache
         must answer every one at admission time *)
      let survivors = Stdlib.min offered queue_limit in
      let rehits = ref 0 in
      List.iter
        (fun outcome ->
          let r =
            match outcome with
            | Serve_engine.Queued tk -> Serve_engine.await tk
            | Serve_engine.Done r -> r
          in
          match r.Serve_protocol.body with
          | Ok b when b.Serve_protocol.cache_hit -> incr rehits
          | _ -> ())
        (List.init survivors (fun i -> Serve_engine.offer engine (mk i)));
      ignore (Serve_engine.run_pending engine);
      Serve_engine.stop engine;
      let admitted = offered - shed in
      Report.row
        [
          string_of_int offered;
          string_of_int admitted;
          string_of_int shed;
          Printf.sprintf "%.0f%%" (100.0 *. float_of_int shed /. float_of_int offered);
          Printf.sprintf "%.2f" (Stats.percentile latencies 50.0);
          Printf.sprintf "%.2f" (Stats.percentile latencies 95.0);
          Printf.sprintf "%d/%d" !rehits survivors;
        ])
    [ 4; 8; 16; 32 ];
  Printf.printf
    "Queue limit %d: every request beyond it in a burst must be shed with a retry\n\
     hint, and every re-offered completed request must hit the solution cache.\n"
    queue_limit

(* ------------------------------------------------------------ recovery *)

let recovery bank =
  Report.heading
    "Recovery: request-journal admission overhead and time-to-recover (mcm_8)";
  let g = Runbank.egraph bank (Registry.find_instance "mcm_8") in
  let inline = Egraph.Serial.to_string g in
  let mk i =
    {
      Serve_protocol.default_request with
      Serve_protocol.id = Printf.sprintf "r%d" i;
      source = Serve_protocol.Inline inline;
      iters = 8;
      batch = 1;
      seed = i;
    }
  in
  let config =
    {
      Serve_engine.default_config with
      Serve_engine.queue_limit = 128;
      executors = 0;
      cache_capacity = 128;
    }
  in
  let journal_dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "smoothe-bench-journal-%d" (Unix.getpid ()))
  in
  let clean_dir () =
    if Sys.file_exists journal_dir then
      Array.iter
        (fun f -> try Sys.remove (Filename.concat journal_dir f) with Sys_error _ -> ())
        (Sys.readdir journal_dir)
  in
  (* part A: what the write-ahead append costs on the admission path.
     Offers happen in manual mode against an idle queue, so the delta
     between rows is purely the journal (and its fsync). *)
  let offers = 64 in
  Report.set_columns [ 20; 8; 12; 12; 12 ];
  Report.row [ "admission"; "offers"; "p50(us)"; "p95(us)"; "max(us)" ];
  Report.rule ();
  List.iter
    (fun (label, journal) ->
      clean_dir ();
      let j =
        if journal then
          Some
            (Serve_journal.open_ ~fsync:(label <> "journal, no fsync") ~dir:journal_dir
               ~name:"bench" ())
        else None
      in
      let engine = Serve_engine.create ~config ?journal:j () in
      let lat =
        Array.init offers (fun i ->
            let outcome, t = Timer.time (fun () -> Serve_engine.offer engine (mk i)) in
            (match outcome with
            | Serve_engine.Queued _ -> ()
            | Serve_engine.Done _ -> failwith "recovery bench: offer unexpectedly refused");
            t *. 1e6)
      in
      ignore (Serve_engine.run_pending engine);
      Serve_engine.stop engine;
      Option.iter Serve_journal.close j;
      Report.row
        [
          label;
          string_of_int offers;
          Printf.sprintf "%.1f" (Stats.percentile lat 50.0);
          Printf.sprintf "%.1f" (Stats.percentile lat 95.0);
          Printf.sprintf "%.1f" (Array.fold_left Float.max 0.0 lat);
        ])
    [ ("no journal", false); ("journal, fsync", true); ("journal, no fsync", true) ];
  (* part B: restart cost as a function of how much work the dead
     process was holding. Admit D requests, abandon the engine without
     running them (the crash), then time the full restart: scan +
     compact + replay + execute the backlog. *)
  Report.heading "Time-to-recover vs journal depth (crash with D admitted, 0 completed)";
  Report.set_columns [ 8; 10; 12; 14; 14 ];
  Report.row [ "depth"; "replayed"; "scan(ms)"; "replay(ms)"; "backlog(ms)" ];
  Report.rule ();
  List.iter
    (fun depth ->
      clean_dir ();
      let j = Serve_journal.open_ ~dir:journal_dir ~name:"bench" () in
      let engine = Serve_engine.create ~config ~journal:j () in
      List.iter
        (fun i ->
          match Serve_engine.offer engine (mk i) with
          | Serve_engine.Queued _ -> ()
          | Serve_engine.Done _ -> failwith "recovery bench: offer unexpectedly refused")
        (List.init depth Fun.id);
      (* the crash: no drain, no stop — only the fsynced journal survives *)
      Serve_journal.close j;
      let j2, scan_s = Timer.time (fun () -> Serve_journal.open_ ~dir:journal_dir ~name:"bench" ()) in
      let engine2 = Serve_engine.create ~config ~journal:j2 () in
      let replayed, replay_s = Timer.time (fun () -> Serve_engine.recover engine2) in
      let ran, backlog_s = Timer.time (fun () -> Serve_engine.run_pending engine2) in
      Serve_engine.stop engine2;
      Serve_journal.close j2;
      if replayed <> depth || ran <> depth then
        failwith
          (Printf.sprintf "recovery bench: depth %d replayed %d ran %d" depth replayed ran);
      Report.row
        [
          string_of_int depth;
          string_of_int replayed;
          Printf.sprintf "%.2f" (scan_s *. 1e3);
          Printf.sprintf "%.2f" (replay_s *. 1e3);
          Printf.sprintf "%.2f" (backlog_s *. 1e3);
        ])
    [ 4; 16; 64 ];
  clean_dir ();
  (try Unix.rmdir journal_dir with Unix.Unix_error _ -> ());
  print_endline
    "Scan+replay must grow with journal depth only (compaction bounds it by live\n\
     state); every replayed request must re-execute — none may be lost or doubled."

(* -------------------------------------------------------------- driver *)

let registry =
  [
    ("table1", table1);
    ("table2", table2);
    ("table3", table3);
    ("table4", table4);
    ("table5", table5);
    ("fig4", fig4);
    ("fig5", fig5);
    ("fig6", fig6);
    ("fig7", fig7);
    ("fig8", fig8);
    ("fig9", fig9);
    ("ablation_lambda", ablation_lambda);
    ("ablation_repair", ablation_repair);
    ("ablation_assumption", ablation_assumption);
    ("ablation_fusion", ablation_fusion);
    ("ablation_phi", ablation_phi);
    ("ablation_temperature", ablation_temperature);
    ("phases", phases);
    ("durability", durability);
    ("preflight", preflight);
    ("replay", replay);
    ("parallel", parallel);
    ("hybrid", hybrid);
    ("serve", serve);
    ("recovery", recovery);
  ]

let names = List.map fst registry
let by_name name = List.assoc_opt name registry

let all bank =
  List.iter
    (fun (name, f) ->
      let (), t = Timer.time (fun () -> f bank) in
      Printf.printf "[%s completed in %.1fs]\n%!" name t)
    registry
