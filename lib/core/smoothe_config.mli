(** SmoothE hyper-parameters.

    Defaults follow the paper: hybrid correlation assumption (§3.3,
    "using the hybrid assumption by default performs well enough"),
    seed batching (§4.2), SCC decomposition and batched matrix
    exponential both on (§4.3), per-iteration sampling with
    patience-based stopping (§3.5). *)

type assumption =
  | Independent  (** parent e-nodes independent: Eq. (6) *)
  | Correlated  (** fully positively correlated: Eq. (7) *)
  | Hybrid  (** arithmetic mean of the two *)

val assumption_name : assumption -> string
val assumption_of_string : string -> assumption

type plan_mode =
  | Plan_off
      (** interpret every iteration: the escape hatch, and the baseline
          replay is measured against *)
  | Plan_on
      (** the default: capture iterations 1–2, verify with the
          plan_check analysis, then replay 3..N over the preallocated
          arena; any gate failure falls back to interpretation and is
          recorded as a health event *)
  | Plan_check
      (** replay AND interpret every iteration, asserting bit-identical
          losses, probabilities and gradients (differential testing) *)

val plan_mode_name : plan_mode -> string
val plan_mode_of_string : string -> plan_mode

type t = {
  assumption : assumption;
  batch : int;  (** number of seeds optimised in parallel (B of §4.2) *)
  lr : float;  (** Adam learning rate on the θ logits *)
  max_iters : int;  (** hard iteration cap (§3.5 stop condition 2) *)
  patience : int;  (** stop after this many non-improving samples (§3.5 condition 1) *)
  lambda_ : float;  (** NOTEARS penalty weight λ of Eq. (10) *)
  prop_iters : int option;  (** propagation-unroll depth; [None] = derive from the e-graph *)
  time_limit : float;  (** seconds; <= 0 = unlimited *)
  init_std : float;  (** stddev of the Gaussian θ initialisation per seed *)
  repair_sampling : bool;
      (** our addition: when a sampled selection is cyclic, demote the
          responsible argmax and retry instead of discarding the sample;
          the paper relies on the penalty alone (off by default) *)
  scc_decomposition : bool;  (** §4.3 SCC optimisation *)
  batched_matexp : bool;  (** §4.3 Eq. (11) batched approximation *)
  temperature : float;
      (** softmax temperature τ: cp = softmax(θ/τ). 1.0 reproduces the
          paper; τ > 1 explores, τ < 1 sharpens. Our extension. *)
  temperature_decay : float;
      (** per-iteration multiplier on τ (1.0 = constant); annealing
          toward {!field-min_temperature} sharpens cp as optimisation
          converges. Our extension. *)
  min_temperature : float;
  entropy_weight : float;
      (** weight of an entropy bonus on cp added to the loss
          (0 = off, the paper's objective): positive values penalise
          premature commitment. Our extension. *)
  seed : int;
  plan : plan_mode;
      (** static-plan replay of the iteration IR (see {!plan_mode}) *)
}

val default : t
(** The paper's settings, with [plan = Plan_on]: replay is
    bit-identical to interpretation and measured faster, so it is the
    default everywhere a configuration does not say otherwise. *)

val with_assumption : assumption -> t -> t

val derive_prop_iters : t -> Egraph.t -> int
(** The unroll depth actually used: the configured value, or the
    root-to-leaf depth of the class condensation plus slack, clamped to
    [4, 32]. *)
