type scc_block = {
  dim : int;
  classes : int array;
  entries : (int * int * int) array;
}

type compiled = {
  g : Egraph.t;
  prop_iters : int;
  blocks : scc_block array;
  prop : Propagation.t;
}

(* A component can host a cycle iff it has more than one class, or a
   single class one of whose nodes depends on the class itself. *)
let build_blocks g =
  let blocks = Vec.create () in
  Array.iter
    (fun classes ->
      let dim = Array.length classes in
      let self_loop =
        dim = 1
        && Array.exists (fun c -> c = classes.(0)) g.Egraph.class_children.(classes.(0))
      in
      if dim > 1 || self_loop then begin
        let local = Hashtbl.create dim in
        Array.iteri (fun i c -> Hashtbl.add local c i) classes;
        let entries = Vec.create () in
        Array.iteri
          (fun i c ->
            Array.iter
              (fun k ->
                (* node k of class c: one entry per distinct child class
                   inside this component *)
                let seen = Hashtbl.create 4 in
                Array.iter
                  (fun child ->
                    match Hashtbl.find_opt local child with
                    | Some j when not (Hashtbl.mem seen j) ->
                        Hashtbl.add seen j ();
                        Vec.push entries (k, i, j)
                    | Some _ | None -> ())
                  g.Egraph.children.(k))
              g.Egraph.class_nodes.(c))
          classes;
        if not (Vec.is_empty entries) then
          Vec.push blocks { dim; classes; entries = Vec.to_array entries }
      end)
    g.Egraph.sccs;
  Vec.to_array blocks

(* Without SCC decomposition (the Figure 6 ablation's baseline) the
   NOTEARS term runs on the full M×M class adjacency. *)
let build_full_block g =
  let m = Egraph.num_classes g in
  if m = 0 then [||]
  else begin
    let classes = Array.init m Fun.id in
    let entries = Vec.create () in
    for k = 0 to Egraph.num_nodes g - 1 do
      let i = g.Egraph.node_class.(k) in
      let seen = Hashtbl.create 4 in
      Array.iter
        (fun j ->
          if not (Hashtbl.mem seen j) then begin
            Hashtbl.add seen j ();
            Vec.push entries (k, i, j)
          end)
        g.Egraph.children.(k)
    done;
    [| { dim = m; classes; entries = Vec.to_array entries } |]
  end

(* The parallel-schedule update of §3.3: class probabilities q from the
   parents' marginals under independence Eq. (6), full correlation
   Eq. (7), or their mean (hybrid), the root pinned at probability 1,
   then p = cp ⊙ q[class]. *)
let propagation config g =
  let mix =
    match config.Smoothe_config.assumption with
    | Smoothe_config.Independent -> Propagation.Independent
    | Smoothe_config.Correlated -> Propagation.Correlated
    | Smoothe_config.Hybrid -> Propagation.Hybrid
  in
  Propagation.make ~mix ~edge_node:g.Egraph.parent_edge_node ~parents:g.Egraph.parent_seg
    ~node_class:g.Egraph.node_class ~root:g.Egraph.root

let compile config g =
  let blocks =
    if config.Smoothe_config.scc_decomposition then build_blocks g else build_full_block g
  in
  {
    g;
    prop_iters = Smoothe_config.derive_prop_iters config g;
    blocks;
    prop = propagation config g;
  }

type forward = {
  tape : Ad.tape;
  theta : Ad.v;
  cp : Ad.v;
  p : Ad.v;
  per_seed_cost : Ad.v;
  penalty : Ad.v;
  loss : Ad.v;
}

let penalty_of_cp compiled tape cp_rows =
  (* cp_rows: (1, N) — either the batch mean (Eq. 11) or one seed. *)
  Array.fold_left
    (fun acc block ->
      let a = Ad.matrix_of_entries cp_rows ~dim:block.dim block.entries in
      let h = Ad.add_scalar (-.float_of_int block.dim) (Ad.expm_trace a) in
      match acc with None -> Some h | Some t -> Some (Ad.add t h))
    None compiled.blocks
  |> function
  | Some v -> v
  | None -> Ad.const tape (Tensor.create ~batch:1 ~width:1)

let forward ?(temperature = 1.0) compiled ~config ~model ~theta =
  (* provenance label for the recorded op-graph IR: shape/grad-flow
     diagnostics on this tape say "built in smoothe.forward" *)
  Ad.with_context "smoothe.forward" @@ fun () ->
  let tape = Ad.tape () in
  let g = compiled.g in
  let theta_v = Ad.param tape theta in
  let logits =
    if temperature = 1.0 then theta_v else Ad.scale (1.0 /. Float.max 1e-6 temperature) theta_v
  in
  let cp = Ad.segment_softmax logits g.Egraph.class_seg in
  (* p⁰ = cp ⊙ q⁰[class] (q⁰: root 1, else 0), then prop_iters steps *)
  let p = Ad.propagate compiled.prop ~steps:compiled.prop_iters ~cp in
  let per_seed_cost = Cost_model.relaxed model tape p in
  let batch = theta.Tensor.batch in
  let penalty =
    if Array.length compiled.blocks = 0 then Ad.const tape (Tensor.create ~batch:1 ~width:1)
    else if config.Smoothe_config.batched_matexp then
      (* Eq. (11): exp of the averaged adjacency, once for the batch. *)
      penalty_of_cp compiled tape (Ad.mean_rows cp)
    else begin
      let acc = ref None in
      for b = 0 to batch - 1 do
        let h = penalty_of_cp compiled tape (Ad.slice_row cp b) in
        acc := (match !acc with None -> Some h | Some t -> Some (Ad.add t h))
      done;
      match !acc with Some v -> v | None -> Ad.const tape (Tensor.create ~batch:1 ~width:1)
    end
  in
  let penalty_scale =
    (* With batched matexp one shared term stands in for B per-seed
       terms; scale so λ means the same thing in both modes. *)
    if config.Smoothe_config.batched_matexp then
      config.Smoothe_config.lambda_ *. float_of_int batch
    else config.Smoothe_config.lambda_
  in
  let base = Ad.add (Ad.sum_all per_seed_cost) (Ad.scale penalty_scale penalty) in
  let loss =
    (* optional entropy bonus: subtracting w·H(cp) = adding w·Σ cp log cp
       would *sharpen*; we add −w·Σ cp log cp so positive weights keep
       the distribution spread out early in the run (our extension) *)
    let w = config.Smoothe_config.entropy_weight in
    if w = 0.0 then base
    else Ad.add base (Ad.scale w (Ad.sum_all (Ad.mul cp (Ad.log_safe cp))))
  in
  { tape; theta = theta_v; cp; p; per_seed_cost; penalty; loss }

let acyclicity_value compiled ~cp =
  let tape = Ad.tape () in
  let mean = Tensor.mean_rows cp in
  let v = penalty_of_cp compiled tape (Ad.const tape mean) in
  Tensor.get (Ad.value v) 0 0
