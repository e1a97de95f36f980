(** Batched dense tensors.

    This module is the reproduction's stand-in for the PyTorch tensors of
    the paper's implementation (§4.1). A value of type {!t} is a batch of
    [batch] rows, each a dense vector of [width] floats, stored row-major
    in one flat array. SmoothE uses batch = number of seeds (§4.2,
    seed batching); square matrices (for the NOTEARS matrix exponential)
    are represented with [batch = width = d].

    All kernels run on one of two backends (see {!Backend}):
    the [Vectorized] backend uses tight unsafe loops over the flat array
    and models GPU execution; the [Scalar] backend deliberately runs
    element-at-a-time through closures with bounds checks, and models the
    unoptimised CPU baseline of the paper's Figure 6 ablation. Results
    are identical on both; only speed differs. *)

type t = private { data : float array; batch : int; width : int }

module Backend : sig
  type mode =
    | Vectorized  (** fused flat-array loops — the "GPU" execution model *)
    | Scalar  (** element-at-a-time with per-element closures — "CPU baseline" *)

  val set : mode -> unit
  val current : unit -> mode

  val with_mode : mode -> (unit -> 'a) -> 'a
  (** Runs the thunk under the given mode, restoring the previous mode
      afterwards (also on exceptions). *)

  val scalar_read : float array -> int -> float
  (** One element access under the scalar execution model: an indirect,
      non-inlinable call that boxes its result — the per-element
      dispatch overhead of unvectorised execution. *)

  val reader : unit -> float array -> int -> float
  (** The element accessor for the current mode. *)
end

(** {1 Construction} *)

val create : batch:int -> width:int -> t
(** Zero-filled tensor. *)

val full : batch:int -> width:int -> float -> t

val of_array : batch:int -> width:int -> float array -> t
(** Takes ownership of the array. @raise Invalid_argument on size mismatch. *)

val of_row : float array -> t
(** Single-row tensor (batch = 1). Copies its input. *)

val copy : t -> t

val identity : int -> t
(** [identity d] is the d×d identity (batch = width = d). *)

val init : batch:int -> width:int -> (int -> int -> float) -> t
(** [init ~batch ~width f] fills position (b, i) with [f b i]. *)

(** {1 Access} *)

val get : t -> int -> int -> float
val set : t -> int -> int -> float -> unit
val numel : t -> int
val row : t -> int -> float array
(** Copy of one row. *)

val blit_row : src:float array -> t -> int -> unit
(** Overwrite row [b] with [src]. *)

val fill : t -> float -> unit
val unsafe_data : t -> float array
(** The backing store; mutate with care. Layout: row [b] occupies
    indices [b*width .. (b+1)*width - 1]. *)

(** {1 Elementwise kernels}

    Binary kernels require operands of identical shape. [add], [sub],
    [mul], [neg], [scale], [add_scalar] and [relu] allocate their
    output and run the matching [_into] kernel below; [map] and [map2]
    call their function once per element. *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
val neg : t -> t
val scale : float -> t -> t
val add_scalar : float -> t -> t
val map : (float -> float) -> t -> t
val map2 : (float -> float -> float) -> t -> t -> t
val relu : t -> t
val exp : t -> t
val log_safe : t -> t
(** Natural log clamped below at [log 1e-30] to keep gradients finite. *)

val clamp : lo:float -> hi:float -> t -> t

val add_inplace : t -> t -> unit
(** [add_inplace dst src] accumulates [src] into [dst]. *)

val axpy : float -> t -> t -> unit
(** [axpy a x y] performs [y <- a*x + y]. *)

val scale_inplace : float -> t -> unit

(** {1 Preallocated kernels}

    [_into] variants of the allocating kernels above: they write into a
    caller-owned output tensor and never allocate — no tensor, and on
    the Vectorized backend no boxed float either (direct loops, no
    closure per element). The allocating elementwise kernels, [transpose]
    and [matmul_nt] are built on them, so both compute the same bits.
    The plan replay engine is built on these. Outputs may alias inputs for the elementwise
    kernels; {!transpose_into} and {!matmul_nt_into} reject aliased
    outputs. All raise [Invalid_argument] on shape mismatch. *)

val copy_into : out:t -> t -> unit
val add_into : out:t -> t -> t -> unit
val sub_into : out:t -> t -> t -> unit
val mul_into : out:t -> t -> t -> unit
val neg_into : out:t -> t -> unit
val scale_into : out:t -> float -> t -> unit
val add_scalar_into : out:t -> float -> t -> unit
val relu_into : out:t -> t -> unit
val transpose_into : out:t -> t -> unit
val matmul_nt_into : out:t -> t -> t -> unit

(** {1 Reductions} *)

val sum : t -> float
val mean : t -> float
val max_value : t -> float
val dot : t -> t -> float
val sum_rows : t -> float array
(** Per-batch-row sums: element [b] is the sum of row [b]. *)

val abs_max : t -> float

val all_finite : t -> bool
(** False when any entry is NaN or ±infinity — the numeric-guard check
    run on losses and gradients each iteration. *)

val bits_equal : t -> t -> bool
(** Shape equality plus element-by-element IEEE-754 bit equality
    ([Int64.bits_of_float]) — distinguishes [+0.] from [-0.] and treats
    identical NaN payloads as equal. The comparison the plan replay
    differential check ([--plan check]) uses against the interpreter. *)

val norm1_matrix : t -> float
(** Maximum absolute column sum of a square matrix — the operator 1-norm
    used to pick the scaling power in {!Matfun.expm}. *)

val mean_rows : t -> t
(** Collapse the batch dimension: returns a 1×width tensor whose entries
    are per-column means — the batched-matexp approximation of Eq. (11)
    averages seed adjacency matrices this way. *)

(** {1 Linear algebra} *)

val matmul_nt : t -> t -> t
(** [matmul_nt a b] with [a : (p, n)] and [b : (q, n)] computes the
    p×q product [a · bᵀ] — the layout used by MLP linear layers where
    weights are stored row-per-output-neuron. *)

val matmul : t -> t -> t
(** [matmul a b] with [a : (p, n)], [b : (n, q)] is the plain product. *)

val transpose : t -> t

module Lu : sig
  type factors

  val decompose : t -> factors
  (** LU with partial pivoting of a square matrix.
      @raise Failure on a (numerically) singular matrix. *)

  val solve : factors -> t -> t
  (** [solve f b] solves [A x = b] column-wise; [b] is square d×d. *)

  val preallocate : int -> factors
  (** Workspace for {!decompose_into}: a d×d factor store plus its
      permutation, allocated once and refilled on every call. *)

  val decompose_into : factors -> t -> unit
  (** {!decompose} into a preallocated workspace — no allocation.
      @raise Failure on a (numerically) singular matrix. *)

  val solve_into : out:t -> factors -> t -> unit
  (** {!solve} into a preallocated output of the rhs shape. *)
end

module Matfun : sig
  val expm : t -> t
  (** Matrix exponential of a square matrix by scaling-and-squaring with
      a degree-13 Padé approximant (Higham 2005) — the same algorithm
      behind [torch.matrix_exp] that the paper identifies as the
      bottleneck (§4.3). *)

  type ws
  (** Preallocated workspace holding every intermediate of one {!expm}
      call for a fixed dimension. *)

  val workspace : int -> ws
  (** [workspace d] allocates the intermediates for d×d inputs
      ([d >= 1]). *)

  val expm_into : ws -> t -> t
  (** {!expm} with zero per-call allocation: all intermediates live in
      the workspace, and the returned tensor is one of the workspace's
      buffers — valid until the next [expm_into] on the same
      workspace. Arithmetic is bit-identical to {!expm}. *)

  val trace : t -> float
end

val pp : Format.formatter -> t -> unit
