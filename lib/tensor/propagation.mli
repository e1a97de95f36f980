(** One step of SmoothE's unrolled marginal propagation (§3.3), fused.

    Given the current e-node marginals [p] and the conditional
    probabilities [cp], both (B, N), one step computes

    {[ p' = cp ⊙ gather(q, class)   with   q = mix(1 − Π (1 − p[parents]), max p[parents]),  q[root] := 1 ]}

    where the parents of an e-class are the e-nodes that have it as a
    child, [Π] runs over them in edge order starting from 1 (Eq. (6)),
    [max] is the first strict maximum, 0 over no parents (Eq. (7)), and
    [mix] picks the independent term, the correlated term, or their
    mean [0.5 *. (ind +. cor)] (hybrid).

    This one kernel replaces a composition of twelve tape ops. It
    reproduces that composition's arithmetic bit for bit, forward and
    backward, including the staging through freshly zeroed adjoints, so
    fusing changes no cost, iteration count or marginal.

    {b Subgradient at ties.} The max is not differentiable where two
    parents tie. The backward pass credits the whole adjoint of [max] to
    the first parent edge (in edge order) that attains it and nothing to
    the other tied edges. That is the gradient of the smooth piece on
    which the credited parent strictly wins, an element of the Clarke
    subdifferential: it equals the one-sided derivative that raises the
    credited parent's marginal, and the one-sided derivative that lowers
    any other tied parent's marginal. The root pin passes no gradient;
    an e-class without parents contributes [1 − 1 = 0] and [0]. *)

type mix = Independent | Correlated | Hybrid

val mix_name : mix -> string

type t = private {
  mix : mix;
  edge_node : int array;  (** parent edge → the parent e-node it reads *)
  parents : Segments.t;  (** parent edges segmented by child e-class *)
  node_class : int array;  (** e-node → its e-class *)
  root : int;  (** the e-class pinned to probability 1 *)
}

val make :
  mix:mix -> edge_node:int array -> parents:Segments.t -> node_class:int array -> root:int -> t
(** @raise Invalid_argument when an index falls outside its range. *)

val nodes : t -> int
val classes : t -> int
val edges : t -> int

(** Op-owned scratch: [q] and the per-class argmax written by a forward
    pass and read by its backward pass, plus the backward pass's
    temporaries. One per op instance; reusable across iterations. *)
type scratch

val scratch : t -> batch:int -> scratch
val scratch_words : scratch -> int

val forward_into : t -> scratch -> out:Tensor.t -> p:Tensor.t -> cp:Tensor.t -> unit
(** Writes [p'] into [out] (B, N) and records [q] and the argmax in the
    scratch. Allocates nothing beyond a constant per call. *)

val backward_into :
  t ->
  scratch ->
  g:Tensor.t ->
  p:Tensor.t ->
  cp:Tensor.t ->
  gp:Tensor.t option ->
  gcp:Tensor.t option ->
  unit
(** Given the adjoint [g] of [p'], accumulates into the adjoints of [p]
    and [cp] (either may be omitted). The scratch must hold the forward
    pass over the same [p] and [cp]. *)
