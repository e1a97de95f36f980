(** The differentiable relaxation at the heart of SmoothE (§3).

    [compile] digests an e-graph into the index structures the forward
    pass needs; [forward] then builds one optimisation step on an
    autodiff tape:

    + θ logits → conditional probabilities cp by per-class softmax
      (Eq. 3);
    + cp → marginal probabilities p by the unrolled parallel propagation
      schedule of Eq. (5)–(7) under the configured correlation
      assumption, with the root e-class pinned to probability 1;
    + p → per-seed cost through the cost model (any differentiable f);
    + cp → NOTEARS acyclicity penalty h(A_t) of Eq. (8)–(10), evaluated
      per strongly-connected component and — when enabled — on the
      batch-averaged adjacency (Eq. 11). *)

type scc_block = {
  dim : int;
  classes : int array;  (** the e-classes of this component *)
  entries : (int * int * int) array;
      (** (cp column k, local row i, local col j): node k of class
          classes.(i) depends on classes.(j) *)
}

type compiled = {
  g : Egraph.t;
  prop_iters : int;
  blocks : scc_block array;  (** only components that can host a cycle *)
  prop : Propagation.t;  (** the propagation structure under the configured assumption *)
}

val compile : Smoothe_config.t -> Egraph.t -> compiled

type forward = {
  tape : Ad.tape;
  theta : Ad.v;
  cp : Ad.v;  (** (B, N) conditional probabilities *)
  p : Ad.v;  (** (B, N) marginal probabilities *)
  per_seed_cost : Ad.v;  (** (B, 1) cost-model values f(p) *)
  penalty : Ad.v;  (** (1, 1) summed NOTEARS terms Σ (tr e^A − d) *)
  loss : Ad.v;  (** (1, 1) total optimised objective *)
}

val forward :
  ?temperature:float ->
  compiled ->
  config:Smoothe_config.t ->
  model:Cost_model.t ->
  theta:Tensor.t ->
  forward
(** [theta] is the persistent (B, N) logit tensor; its gradient is read
    off [Ad.grad f.theta] after [Ad.backward f.loss]. [temperature]
    divides the logits before the softmax (1.0 = the paper's
    formulation); [config.entropy_weight] adds an exploration bonus. *)

val acyclicity_value : compiled -> cp:Tensor.t -> float
(** The (non-differentiable, per-batch-mean) penalty value alone — used
    by tests and diagnostics. *)
