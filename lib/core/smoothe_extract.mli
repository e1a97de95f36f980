(** The SmoothE extraction loop (§3.5, §4).

    Each iteration: one autodiff forward/backward over the relaxation
    (loss = cost model + λ·NOTEARS), one Adam step on the per-seed θ
    logits, and one sampling pass that decodes all seeds and keeps the
    cheapest valid selection seen so far. Stops on patience (no
    improvement), on the iteration cap, or on the wall-clock limit —
    and, like the paper's anytime evaluation (Figure 4), records the
    incumbent trajectory. *)

type profile = {
  loss_time : float;  (** forward passes (the "Loss Calculation" share of Fig. 8) *)
  grad_time : float;  (** backward + Adam ("Gradient Descent") *)
  sample_time : float;  (** decoding + scoring ("Sampling") *)
  total_time : float;
}

type history_point = {
  iter : int;
  elapsed : float;
  relaxed_loss : float;  (** best per-seed f(p) + λ·h this iteration (Fig. 9's optimisation loss) *)
  sampled_cost : float;  (** best sampled discrete cost this iteration (Fig. 9's sampling loss) *)
  incumbent : float;  (** best cost so far *)
}

(** What static-plan replay did in a run. *)
type plan_outcome =
  | Replay_off  (** [Plan_off], or the run ended before a second capture *)
  | Replay_armed of { stats : Plan.stats; naive_bytes : int }
      (** compiled and verified; [naive_bytes] is what the interpreter
          allocates per iteration *)
  | Replay_disabled of string
      (** a gate refused the plan (the reason); the run stayed on the
          interpreter and recorded a [Preflight] health event *)

val plan_summary : plan_outcome -> string option
(** The one-line report: ["plan armed: ..."] or ["plan disabled: ..."];
    [None] for [Replay_off]. *)

type run = {
  result : Extractor.r;
  iterations : int;
  best_seed : int;  (** which seed produced the incumbent; -1 if none *)
  batch_used : int;  (** after device memory derating *)
  prop_iters : int;
  profile : profile;
  history : history_point list;  (** chronological *)
  oom : bool;  (** no derating step could fit even one seed *)
  recoveries : int;  (** numeric recoveries applied during the run *)
  health : Health.event list;  (** chronological supervision events *)
  final_cp : float array option;
      (** per-node class-softmax probabilities (cp) of the incumbent's
          seed, captured at the iteration the incumbent was found — the
          marginals the hybrid extractor's fixing rule consumes. [None]
          when no sample ever improved (or right after a resume). *)
  plan : plan_outcome;
}

val extract :
  ?config:Smoothe_config.t ->
  ?model:Cost_model.t ->
  ?device:Device.t ->
  ?health:Health.log ->
  ?checkpoint:Checkpoint.store ->
  ?checkpoint_every:int ->
  ?resume_from:Checkpoint.snapshot ->
  ?preflight:bool ->
  Egraph.t ->
  run
(** [model] defaults to the e-graph's linear costs; [device] defaults to
    {!Device.a100}. The device's memory model derates the configured
    batch (Table 5) and its backend selects vectorised or scalar kernels
    (Figure 6).

    With [~preflight:true] the run lints the e-graph ({!Egraph_lint})
    before the first iteration: error/warning findings are recorded as
    [Preflight] health events and counted in the [analysis.errors] /
    [analysis.warnings] metrics (when observability is on). The gate
    never changes the optimisation itself — with or without it, θ, the
    incumbent and the history are bit-identical. Default off; the CLI
    enables it unless [--no-preflight] is given.

    Durability: with [?checkpoint], the loop writes a {!Checkpoint}
    snapshot to the store every [checkpoint_every] iterations
    (default 25; 0 disables the periodic writes). [?resume_from]
    restores a previous snapshot — θ, the Adam moments, the RNG stream,
    the incumbent, the elapsed-budget offset and the health timeline —
    so a run killed at iteration K and resumed continues exactly where
    it stopped: the completed run is bit-identical (modulo wall-clock
    fields) to an uninterrupted run at the same seed. A snapshot whose
    fingerprint (graph, size, seed, derated batch) does not match the
    current run is refused with a [Checkpoint_corrupt] health event and
    the run starts fresh.

    The loop is supervised. A non-finite loss or gradient never reaches
    the Adam state or the incumbent: the iteration is quarantined, the
    optimiser moments reset, the learning rate backed off 2x per strike
    (with θ re-randomised from a fresh seed stream from the second
    strike), and after five strikes the loop degrades gracefully,
    keeping its incumbent. If the device cannot fit even one seed, the
    configuration is derated step by step (memory optimisations forced
    on, seed batch halved, CPU-baseline fallback) before giving up.
    Every such event lands in [health] (and in the shared [?health] log,
    when given). A fault-free run takes none of these paths and behaves
    bit-identically to the unsupervised loop. *)
