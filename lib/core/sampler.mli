(** Discrete solution sampling (§3.5).

    After each optimisation step the conditional probabilities cp are
    decoded into binary selections, one per seed: starting from the root
    e-class, each selected e-class takes its argmax-cp member, and the
    chosen node's child classes are selected in turn — satisfying the
    completeness constraints by construction. Acyclicity is *not*
    guaranteed by this schedule; the paper relies on the NOTEARS penalty
    having pushed cyclic selections away. Samples that still close a
    cycle score [infinity].

    [repair] additionally implements a cycle-breaking retry (our
    extension, off by default): when validation reports a cycle, the
    argmax of a class on the offending path is demoted to the class's
    next-best cp and decoding retries. *)

val sample_seed : ?repair:bool -> Egraph.t -> cp:Tensor.t -> seed:int -> Egraph.Solution.s
(** Decode one batch row of the (B, N) cp tensor. The result satisfies
    completeness; it may be cyclic (check with
    {!Egraph.Solution.validate}) unless [repair] succeeded. *)

val best_of_batch :
  ?repair:bool ->
  Egraph.t ->
  model:Cost_model.t ->
  cp:Tensor.t ->
  (int * Egraph.Solution.s * float) option
(** Decode every seed, score valid decodes with the model, and return
    (seed index, solution, cost) of the cheapest, the earliest seed on
    ties — the selection rule of §4.2's seed batching. [None] when every
    seed decoded to an invalid selection. Under a linear model without
    [repair], each seed is decoded, checked for a cycle and scored in
    one pass from the root, and only the winner becomes a solution; the
    result is the same as decoding, validating and scoring each seed
    with {!Cost_model.dense_solution}. *)
