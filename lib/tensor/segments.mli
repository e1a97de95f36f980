(** Segmented kernels over batched tensors.

    E-graphs are sparse (Table 1 reports densities of 1e-5..1e-2), so the
    paper's implementation never materialises dense M×N matrices; it uses
    sparse gather/scatter/segment primitives instead (§4.1). A
    {!t} partitions the width axis of a tensor into contiguous segments —
    e.g. e-nodes grouped by owning e-class, or parent-edge lists grouped
    by child e-class — and every kernel below applies per batch row and
    per segment.

    All kernels honour {!Tensor.Backend}: the [Scalar] mode runs an
    element-at-a-time reference path. *)

type t = private {
  starts : int array;
  lens : int array;
  width : int;
  mutable owners : int array option;  (** memoised {!seg_of_index} *)
}
(** [width] is the total element count; segment [s] covers
    [starts.(s) .. starts.(s) + lens.(s) - 1]. Segments tile the width
    exactly and in order. *)

val of_lens : int array -> t
(** Build from segment lengths. Lengths must be non-negative. *)

val count : t -> int
val seg_len : t -> int -> int
val seg_of_index : t -> int array
(** For each element position, the segment that owns it. *)

(** {1 Kernels}

    Inputs are (B, width) tensors; "per-segment" outputs are
    (B, count) tensors. *)

val softmax : Tensor.t -> t -> Tensor.t
(** Per-segment softmax along the width axis — realises Eq. (3b): the
    conditional probabilities of the e-nodes in one e-class sum to 1.
    Numerically stabilised by max subtraction. Empty segments produce no
    output positions (their region is empty). *)

val sum : Tensor.t -> t -> Tensor.t
(** Per-segment sums. *)

val gather : Tensor.t -> int array -> Tensor.t
(** [gather src idx] with [src : (B, M)] returns [(B, |idx|)] where
    output column [e] reads source column [idx.(e)]. *)

val scatter_add : into:Tensor.t -> int array -> Tensor.t -> unit
(** [scatter_add ~into idx src] accumulates column [e] of [src] into
    column [idx.(e)] of [into] — the adjoint of {!gather}. *)

(** {1 Preallocated kernels}

    [_into] variants writing into caller-owned outputs with zero
    allocation — the cores behind the allocating kernels above and the
    building blocks of the plan replay engine. Arithmetic and segment-op
    counters are identical to the allocating versions; outputs must have
    the exact result shape ([Invalid_argument] otherwise). Every cell a
    segment covers is (re)written, so buffers can be reused across
    calls. *)

val softmax_into : out:Tensor.t -> Tensor.t -> t -> unit
val sum_into : out:Tensor.t -> Tensor.t -> t -> unit

val gather_into : out:Tensor.t -> Tensor.t -> int array -> unit
