(** Differentiability lint over the autodiff op-graph IR.

    Answers "will gradient actually flow where the builder expects?"
    statically: reachability between [param] leaves and the loss node,
    plus a simple interval abstraction (seeded from known op ranges —
    softmax outputs are in (0,1], relu is non-negative, …) to flag
    domain-boundary ops whose operand may touch the non-differentiable
    region.

    Codes (full table in DESIGN.md):
    - [GF001] error: a parameter has no path to the loss — detached θ,
      training would silently be a no-op for it
    - [GF002] warning: *no* parameter reaches the loss at all
    - [GF003] info: op nodes feeding the loss through constants only
      (a const-blocked subgraph; expected for cost vectors, worth
      surfacing when unexpected)
    - [GF004] warning: a domain-boundary op ([log]/[div]/[sqrt] family)
      whose operand interval admits values ≤ 0 — the value is clamped
      but the gradient can explode or go non-finite at the boundary
    - [GF005] warning ([segment_softmax]) / info ([segment_sum], and
      [propagate] e-classes without parent edges): reduction over
      provably empty segments *)

val check : ?root:int -> Ad.Ir.t -> Diagnostic.t list
(** [root] is the loss node's IR index (see {!Ad.node_id}); defaults to
    the last node on the tape. *)
