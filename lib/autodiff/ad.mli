(** Reverse-mode automatic differentiation over batched tensors.

    This is the reproduction's stand-in for PyTorch autograd. SmoothE
    (§3) needs gradients of a scalar loss — cost model plus NOTEARS
    acyclicity penalty — with respect to the free e-node logits θ,
    through segment softmax, the iterative probability propagation φ of
    Eq. (5)–(7) (all its unrolled steps in one tape node), MLP cost
    models, and the matrix exponential of Eq. (8).

    Usage: allocate a {!tape}, lift inputs with {!const}/{!param}, build
    the loss with the operators below, call {!backward} on the scalar
    output, then read gradients of parameters with {!grad}. The tape is
    single-use: one forward/backward pair per tape; a second {!backward}
    on the same tape raises [Invalid_argument].

    Alongside the runtime tape, every operator records one node of a
    lightweight op-graph {!Ir} — op name, operand ids, output shape,
    ambient {!with_context} label, and op-specific metadata. The IR is
    plain data with no tensors or closures; the static analyses in
    [lib/analysis] (shape abstract interpretation, gradient-flow lint)
    run over it without executing any kernel. *)

(** Side-effect-free op-graph recorded at tape-construction time. Node
    [i] of the IR describes tape node [i]; [args] are indices of earlier
    nodes. *)
module Ir : sig
  type shape = { batch : int; width : int }

  (** Op-specific static facts that shape/gradient analyses need but the
      output shape alone does not carry. *)
  type meta =
    | M_none
    | M_scalar of float  (** [scale] / [add_scalar] constant *)
    | M_gather of { count : int; index_min : int; index_max : int }
        (** gather index stats; [index_max = -1] when the index is empty *)
    | M_segments of {
        seg_count : int;
        seg_width : int;  (** total elements the segmentation expects *)
        empty_segments : int;
        max_len : int;
      }
    | M_propagation of {
        mix : Propagation.mix;
        nodes : int;
        classes : int;
        edges : int;
        root : int;
        empty_classes : int;  (** e-classes without parent edges *)
        steps : int;  (** unrolled steps T *)
      }  (** [propagate] structure summary *)
    | M_row of int  (** [slice_row] row index *)
    | M_width of int  (** [dot_const] coefficient count *)
    | M_matrix of { dim : int; class_min : int; class_max : int; col_max : int }
        (** [matrix_of_entries] scatter targets; [-1] maxima when empty *)

  type node = {
    op : string;
    args : int array;
    shape : shape;  (** shape the op actually produced *)
    context : string;
        (** full {!with_context} provenance chain at build time,
            outermost→innermost, joined with ["/"]
            (e.g. ["smoothe.forward/cost_model.relaxed"]);
            ["(toplevel)"] outside any region *)
    meta : meta;
  }

  type t = node array

  val shape_to_string : shape -> string
end

(** Runtime payloads that {!Ir.meta} summarises but does not carry: the
    exact index arrays, segmentations, coefficient vectors and scatter
    entries an op closed over. The plan replay engine ({!Plan}) needs
    them verbatim to re-execute a captured graph. *)
type payload =
  | P_none
  | P_indices of int array  (** [gather] index array *)
  | P_segments of Segments.t  (** [segment_*] segmentation *)
  | P_coeffs of float array  (** [dot_const] coefficients *)
  | P_entries of { dim : int; entries : (int * int * int) array }
      (** [matrix_of_entries] scatter targets *)
  | P_propagation of Propagation.t  (** [propagate] structure *)

type tape
type v

val tape : unit -> tape
val node_count : tape -> int

val ir : tape -> Ir.t
(** Snapshot of the op-graph recorded so far (index [i] = tape node [i]). *)

val payloads : tape -> payload array
(** Per-node runtime payloads, parallel to {!ir}. *)

val values : tape -> Tensor.t array
(** Per-node forward values, parallel to {!ir} — what a plan capture
    aliases for [const]/[param] leaves. *)

val swept : tape -> bool
(** Whether {!backward} already ran on this tape. *)

val node_id : v -> int
(** This node's position on its tape — its index into {!ir}. *)

val with_context : string -> (unit -> 'a) -> 'a
(** [with_context label f] runs [f] with [label] pushed onto the
    provenance chain recorded into every node built inside (restored
    afterwards, also on exceptions). Nested calls stack: diagnostics
    render the whole chain outermost→innermost. *)

val value : v -> Tensor.t
(** Forward value of a node. *)

val grad : v -> Tensor.t
(** Accumulated adjoint. Zero tensor if the node never received
    gradient.
    @raise Invalid_argument if this node's tape has not been swept by
    {!backward} — in particular when the node belongs to a different
    tape than the one swept, which would otherwise silently read as
    zeros. *)

val const : tape -> Tensor.t -> v
(** A node that blocks gradient flow (inputs, fixed cost vectors). *)

val param : tape -> Tensor.t -> v
(** A differentiable leaf. The tensor is captured by reference so an
    optimiser can update it between iterations. *)

val backward : v -> unit
(** Seeds the given node with an all-ones adjoint and sweeps the tape in
    reverse. The node is normally the (1,1) scalar loss; seeding a
    wider node differentiates the *sum* of its entries.
    @raise Invalid_argument if this tape was already swept — tapes are
    single-use, one forward/backward pair each. Cross-tape operand
    mixing is rejected earlier, at node construction: every operator
    raises [Invalid_argument] when an operand belongs to a different
    tape than the one being built on. *)

(** {1 Pointwise} *)

val add : v -> v -> v
val sub : v -> v -> v
val mul : v -> v -> v
val neg : v -> v
val scale : float -> v -> v
val add_scalar : float -> v -> v
val relu : v -> v

val log_safe : v -> v
(** Natural log clamped below at 1e-12 (value and gradient) — used by
    the entropy regulariser over conditional probabilities. *)

(** {1 Structure ops} *)

val gather : v -> int array -> v
(** Column gather; adjoint is scatter-add. *)

val segment_softmax : v -> Segments.t -> v
(** Per-segment softmax (Eq. 3b): θ logits → conditional probabilities. *)

val segment_sum : v -> Segments.t -> v

val propagate : ?p0:v -> Propagation.t -> steps:int -> cp:v -> v
(** [propagate prop ~steps ~cp] is the whole unrolled marginal
    propagation of Eq. (5)–(7), (B,N) → (B,N): [steps] steps of class
    probabilities from the parents' marginals under [prop]'s mix, the
    root pinned at 1, times [cp], starting from [p0] or, without it,
    from [cp ⊙ q⁰[class]] ([q⁰] = 1 at the root, 0 elsewhere). One tape
    node; its kernels, its step windows and its subgradient at max ties
    are documented in {!Propagation}.
    @raise Invalid_argument when [steps < 1]. *)

val mean_rows : v -> v
(** (B,N) → (1,N) batch mean — the batched matrix-exponential
    approximation of Eq. (11) averages seed adjacencies this way. *)

val slice_row : v -> int -> v
(** (B,N) → (1,N) view of one batch row (copy; adjoint scatters back). *)

(** {1 Reductions} *)

val sum_width : v -> v
(** (B,N) → (B,1) per-seed sum. *)

val sum_all : v -> v
(** (B,N) → (1,1). *)

val dot_const : v -> float array -> v
(** [dot_const p u] is the per-seed linear cost [uᵀ p] : (B,N) → (B,1). *)

val mean_all : v -> v

(** {1 Neural-network ops} *)

val linear : input:v -> weight:v -> bias:v -> v
(** [linear ~input ~weight ~bias] with input (B,N), weight (H,N) stored
    row-per-output-neuron, bias (1,H) → (B,H). *)

val mse : pred:v -> target:v -> v
(** Mean squared error, a (1,1) scalar. *)

(** {1 Matrix ops} *)

val matrix_of_entries : v -> dim:int -> (int * int * int) array -> v
(** [matrix_of_entries cp ~dim entries] scatter-adds the (1,N) input into
    a dim×dim matrix: entry [(col, i, j)] adds [cp.(col)] to [A[i,j]].
    Builds the SCC-restricted transition matrix A_t of §3.4 where
    [A_t[i,j] = Σ cp_k] over e-nodes k in class i with child class j. *)

val expm_trace : v -> v
(** [expm_trace a] is [tr(e^A)] as a (1,1) scalar. The adjoint uses the
    analytic identity d tr(e^A)/dA = (e^A)ᵀ, so the backward pass costs
    one transpose of the already-computed exponential. *)

(** {1 Utilities} *)

val finite_difference :
  f:(Tensor.t -> float) -> x:Tensor.t -> eps:float -> Tensor.t
(** Central-difference gradient estimate of a scalar function, used by
    the test-suite to validate every analytic adjoint above. *)
