(** SmoothE's unrolled marginal propagation (§3.3), T steps in one op.

    Given the conditional probabilities [cp] (B, N) and the starting
    marginals [p⁰] (an argument, or [cp ⊙ q⁰[class]] with [q⁰] = 1 at
    the root and 0 elsewhere), step [s = 1 … T] computes

    {[ p^s = cp ⊙ gather(q^s, class)   with   q^s = mix(1 − Π (1 − p^(s−1)[parents]), max p^(s−1)[parents]),  q^s[root] := 1 ]}

    where the parents of an e-class are the e-nodes that have it as a
    child, [Π] runs over them in edge order starting from 1 (Eq. (6)),
    [max] is the first strict maximum, 0 over no parents (Eq. (7)), and
    [mix] picks the independent term, the correlated term, or their
    mean [0.5 *. (ind +. cor)] (hybrid). The op returns [p^T].

    {b Windows.} Two static facts, computed once from the structure,
    let the kernels skip work whose bits are already known:
    - the {e settle step} of a class, the longest parent path from the
      root or a parentless class ([never] inside a cycle or below one):
      from that step on its q no longer changes, so forward step [s]
      recomputes only the classes that settle at [s] or later and copies
      the others' p, q and argmax from step [s − 1] (a step where every
      class is still settling runs the plain loop);
    - the {e height} of an e-node, the longest child path ignoring the
      pinned root ([never] on or above a cycle): the adjoint of [p^s]
      is exactly zero on e-nodes of height below [T − s], so backward
      step [s] touches only the others and their classes.
    Skipped forward work would recompute identical inputs. A skipped
    backward contribution is an exact [±0.0] added to adjoints that
    start at [+0.0] and therefore never hold [−0.0], as long as the
    inputs are finite. The cp adjoint still accumulates in the order
    steps T … 1, then the [p⁰] product. So the op is bit-identical to T
    chained single steps, which in turn reproduce the twelve-op
    composition each step replaced (including its staging through
    freshly zeroed adjoints), forward and backward.

    Rows are independent through all T steps, so each pass chunks the
    batch once: a parallel run pays one dispatch per pass, not one per
    step.

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

val never : int
(** The settle step or height of what lies on or beyond a cycle. *)

type t = private {
  mix : mix;
  edge_node : int array;  (** parent edge → the parent e-node it reads *)
  parents : Segments.t;  (** parent edges segmented by child e-class *)
  node_class : int array;  (** e-node → its e-class *)
  root : int;  (** the e-class pinned to probability 1 *)
  settle : int array;  (** e-class → its settle step, or {!never} *)
  height : int array;  (** e-node → its height, or {!never} *)
}

val make :
  mix:mix -> edge_node:int array -> parents:Segments.t -> node_class:int array -> root:int -> t
(** @raise Invalid_argument when an index falls outside its range. *)

val nodes : t -> int
val classes : t -> int
val edges : t -> int

(** Op-owned scratch for one op instance of [steps] steps: the history
    of [p], [q] and the per-class argmax written by a forward pass and
    read by its backward pass, the backward pass's temporaries, and the
    step windows. Reusable across iterations. *)
type scratch

val scratch : t -> batch:int -> steps:int -> scratch
(** @raise Invalid_argument when [steps < 1]. *)

val scratch_words : scratch -> int

val forward_into : t -> scratch -> out:Tensor.t -> p0:Tensor.t option -> cp:Tensor.t -> unit
(** Writes [p^T] into [out] (B, N) and records the history in the
    scratch. [p0 = None] builds [p⁰] from [cp]. Allocates nothing beyond
    a constant per call. *)

val backward_into :
  t -> scratch -> g:Tensor.t -> cp:Tensor.t -> gp0:Tensor.t option -> gcp:Tensor.t option -> unit
(** Given the adjoint [g] of [p^T], accumulates into the adjoints of
    [p⁰] and [cp] (either may be omitted). The scratch must hold the
    forward pass over the same [cp].
    @raise Invalid_argument for [gp0] when that pass built [p⁰] itself. *)
