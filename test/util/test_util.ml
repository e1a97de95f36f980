(* Shared helpers for the test-suite: a brute-force extraction oracle for
   tiny e-graphs and reproducible random e-graph generators. *)

(* Enumerate every per-class choice assignment, validate, and return the
   minimum DAG cost and witnessing solution. Exponential — only for
   e-graphs whose choice-space product is small. *)
let brute_force_optimum ?(limit = 2_000_000) g =
  let m = Egraph.num_classes g in
  let space =
    Array.fold_left
      (fun acc members -> acc * Array.length members)
      1 g.Egraph.class_nodes
  in
  if space > limit || space <= 0 then
    invalid_arg (Printf.sprintf "brute_force_optimum: %d assignments is too many" space);
  let pick = Array.map (fun members -> members.(0)) g.Egraph.class_nodes in
  let indices = Array.make m 0 in
  let best_cost = ref infinity in
  let best = ref None in
  let rec enumerate c =
    if c = m then begin
      let s = Egraph.Solution.of_node_choice g pick in
      let cost = Egraph.Solution.dag_cost g s in
      if cost < !best_cost then begin
        best_cost := cost;
        best := Some s
      end
    end
    else
      for i = 0 to Array.length g.Egraph.class_nodes.(c) - 1 do
        indices.(c) <- i;
        pick.(c) <- g.Egraph.class_nodes.(c).(i);
        enumerate (c + 1)
      done
  in
  enumerate 0;
  !best_cost, !best

(* Random e-graph: [classes] e-classes, each with 1..max_class_size
   nodes; children drawn from earlier classes (guaranteeing a DAG and
   derivability) except that with probability [cycle_prob] a node also
   points at a later (or its own) class, introducing cycles. Class 0 is
   the root. *)
let random_egraph ?(max_class_size = 3) ?(max_children = 2) ?(cycle_prob = 0.0) rng ~classes =
  let b = Egraph.Builder.create ~name:"random" () in
  let ids = Array.init classes (fun _ -> Egraph.Builder.add_class b) in
  (* Build bottom-up: class k may reference classes k+1.. (children are
     later indices so that index 0 can be the root). *)
  for c = classes - 1 downto 0 do
    let node_count = 1 + Rng.int rng max_class_size in
    for _ = 1 to node_count do
      let children = ref [] in
      if c < classes - 1 then begin
        let kid_count = Rng.int rng (max_children + 1) in
        for _ = 1 to kid_count do
          children := ids.(c + 1 + Rng.int rng (classes - c - 1)) :: !children
        done
      end;
      if Rng.uniform rng < cycle_prob then
        (* a backward (or self) reference: candidate cycle *)
        children := ids.(Rng.int rng (c + 1)) :: !children;
      ignore
        (Egraph.Builder.add_node b ~cls:ids.(c)
           ~op:(Printf.sprintf "op%d" (Rng.int rng 8))
           ~cost:(float_of_int (Rng.int rng 20))
           ~children:!children)
    done
  done;
  Egraph.Builder.freeze b ~root:ids.(0)

(* QCheck arbitrary wrapper: seeds drawn by qcheck, e-graph derived
   deterministically. *)
let arb_egraph ?(max_classes = 8) ?(cycle_prob = 0.0) () =
  QCheck2.Gen.map
    (fun (seed, classes) ->
      let rng = Rng.create seed in
      random_egraph ~cycle_prob rng ~classes)
    QCheck2.Gen.(pair (int_bound 1_000_000) (int_range 1 max_classes))

let float_close ?(tol = 1e-6) a b =
  if Float.is_finite a && Float.is_finite b then
    Float.abs (a -. b) <= tol *. (1.0 +. Float.abs a +. Float.abs b)
  else a = b

let check_close ?tol ~msg a b =
  if not (float_close ?tol a b) then
    Alcotest.failf "%s: %.12g vs %.12g" msg a b

let contains haystack needle =
  let n = String.length haystack and m = String.length needle in
  let rec go i = i + m <= n && (String.sub haystack i m = needle || go (i + 1)) in
  go 0

(* A random propagation structure (not necessarily an e-graph's): e-nodes
   spread over e-classes, parent lists of 0..3 edges read from any
   e-node (repeats included), the last class always without parents and
   a random root that may have parents of its own. With [dag], class c's
   parents are drawn only from e-nodes of later classes, so the only
   cycles are none; otherwise self-loops and longer cycles are common. *)
let random_propagation ?(dag = false) rng ~mix ~nodes ~classes =
  let lens = Array.init classes (fun c -> if c = classes - 1 then 0 else Rng.int rng 4) in
  if not dag then begin
    let parents = Segments.of_lens lens in
    let edge_node = Array.init parents.Segments.width (fun _ -> Rng.int rng nodes) in
    let node_class = Array.init nodes (fun _ -> Rng.int rng classes) in
    Propagation.make ~mix ~edge_node ~parents ~node_class ~root:(Rng.int rng classes)
  end
  else begin
    let node_class = Array.init nodes (fun _ -> Rng.int rng classes) in
    let later c = Array.of_list (List.filter (fun k -> node_class.(k) > c) (List.init nodes Fun.id)) in
    let edges =
      List.init classes (fun c ->
          let pool = later c in
          if Array.length pool = 0 then lens.(c) <- 0;
          Array.init lens.(c) (fun _ -> pool.(Rng.int rng (Array.length pool))))
    in
    Propagation.make ~mix ~edge_node:(Array.concat edges) ~parents:(Segments.of_lens lens)
      ~node_class ~root:(Rng.int rng classes)
  end

(* The single-step oracle: [steps] chained one-step ops from [p0], or
   from cp ⊙ q⁰[class] built the way the relaxation once built it (a
   const q⁰, a gather and a mul). *)
let chained_propagation ?p0 tape prop ~steps ~cp =
  let start =
    match p0 with
    | Some p -> p
    | None ->
        let c = Ad.value cp in
        let q0 = Tensor.create ~batch:c.Tensor.batch ~width:(Propagation.classes prop) in
        for b = 0 to c.Tensor.batch - 1 do
          Tensor.set q0 b prop.Propagation.root 1.0
        done;
        Ad.mul cp (Ad.gather (Ad.const tape q0) prop.Propagation.node_class)
  in
  let p = ref start in
  for _ = 1 to steps do
    p := Ad.propagate ~p0:!p prop ~steps:1 ~cp
  done;
  !p

(* Every seed of the batch, decoded as the sampler decodes it. *)
let sample_all ?repair g ~cp =
  Array.init cp.Tensor.batch (fun seed -> Sampler.sample_seed ?repair g ~cp ~seed)

(* The sampler's selection rule by the reference path: decode every seed,
   validate and score it with [Cost_model.dense_solution], keep the
   cheapest finite one, the earliest on ties. *)
let best_of_decodes g ~model ~cp =
  let best = ref None in
  Array.iteri
    (fun seed s ->
      let cost = Cost_model.dense_solution model g s in
      if Float.is_finite cost then
        match !best with
        | Some (_, _, c) when c <= cost -> ()
        | Some _ | None -> best := Some (seed, s, cost))
    (sample_all g ~cp);
  !best

(* Probabilities in (0, 1) whose distinct entries within a row lie at
   least 0.4 / (width + 1) apart: no ties a finite difference could
   cross. *)
let separated_probabilities rng ~batch ~width =
  let t = Tensor.create ~batch ~width in
  for b = 0 to batch - 1 do
    let perm = Array.init width Fun.id in
    Rng.shuffle rng perm;
    Array.iteri
      (fun i r ->
        Tensor.set t b i
          ((float_of_int r +. 0.5 +. Rng.float rng 0.6 -. 0.3) /. float_of_int (width + 1)))
      perm
  done;
  t
