(** Static replay plans for captured tapes — the reproduction's stand-in
    for CUDA-graph capture over the SmoothE iteration.

    The interpreter ({!Ad}) rebuilds its tape and allocates every
    intermediate tensor on each optimisation iteration. When two
    consecutive iterations record the *same* IR (checked by {!stable}),
    the graph is static and {!compile} turns it into a fixed schedule of
    kernel closures over preallocated buffers: {!run_forward} /
    {!run_backward} then replay iterations with zero tape construction
    and zero tensor allocation, bit-identical to the interpreter.

    Buffer placement is supplied from outside as an {!arena_spec}
    (computed — and independently verified — by the plan-level dataflow
    analysis in [lib/analysis/plan_check]); without one, every buffer is
    dedicated, which is always safe. Fusion [chains] of elementwise ops
    likewise come from the analysis; the compiled jam reproduces the
    interpreter's per-stage rounding (including its literal [+. 0.0]
    zero-initialised accumulations) so fused runs stay bit-identical.

    Replay requires the [Vectorized] backend: the [Scalar] execution
    model deliberately routes every element access through an
    interpreter-style indirect call, and a compiled plan would not model
    that baseline honestly. {!compile} returns [Error] under [Scalar]. *)

(** {1 Capture} *)

type capture = {
  ir : Ad.Ir.t;
  pay : Ad.payload array;  (** per-node runtime payloads *)
  vals : Tensor.t option array;
      (** per-node forward values: [Some] for [param]/[const] leaves
          (aliased, not copied), [None] for every other node *)
  root : int;  (** node the backward sweep seeds *)
}

val capture : Ad.tape -> root:Ad.v -> capture
(** Snapshot a finished forward pass. Leaf tensors are captured by
    reference: a [param] updated in place by an optimiser is seen by
    subsequent replays, exactly as the interpreter would. Interior
    values are dropped: {!stable} and {!compile} read only leaves, so a
    capture held across iterations keeps no interior tensor alive. *)

val stable : capture -> capture -> (unit, string) result
(** Structural equality of two captures: same ops, arguments, shapes,
    contexts and metadata node by node; payloads equal (segmentations by
    structure, coefficients bitwise); [param] leaves physically the same
    tensor; [const] leaves bitwise-equal ({!Tensor.bits_equal}). [Error]
    carries the first divergence, for PL006/PL007 diagnostics. *)

(** {1 Op facts}

    The single source of truth about op behaviour that both this module
    and the [plan_check] analysis consume — which ops a plan can replay,
    which operand {e values} a backward pull re-reads (so liveness must
    extend them across the sweep), and which unary ops fuse. *)

val op_supported : string -> bool
val is_leaf : string -> bool

val backward_reads_arg : string -> int -> bool
(** [backward_reads_arg op k]: does [op]'s pull read the forward value
    of operand [k]? ([mul] both, [log_safe]/[relu] their input,
    [linear] its input and weight, [propagate] its cp — and, keeping
    the answer independent of arity, its [p⁰], which the op copies.) *)

val backward_reads_self : string -> bool
(** Does the pull read the op's {e own} forward output?
    ([segment_softmax].) *)

val fusable_elementwise : string -> bool
(** Unary elementwise ops a chain jam may fuse: [neg], [scale],
    [add_scalar]. *)

(** {1 Compilation} *)

type arena_spec = {
  slot_sizes : int array;  (** element count of each shared buffer *)
  assign : int array;
      (** length [2n]: buffer [i < n] is node [i]'s value, buffer
          [n + i] its gradient; entry = slot index or [-1] for a
          dedicated buffer. Assigned buffers must match their slot's
          size exactly; leaves, outputs, the root gradient and
          requested gradients must be [-1]. *)
}

type stats = {
  nodes : int;
  steps_forward : int;
  steps_backward : int;
  arena_bytes : int;  (** bytes of shared arena storage *)
  dedicated_bytes : int;  (** bytes of per-buffer dedicated storage *)
  scratch_bytes : int;  (** per-op workspace (incl. expm workspace) *)
  chains : int;  (** fused elementwise chains *)
  fused_nodes : int;  (** nodes covered by those chains *)
}

type t

val compile :
  ?arena:arena_spec ->
  ?chains:int array array ->
  outputs:int array ->
  grads:int array ->
  capture ->
  (t, string) result
(** Compile a capture into a static schedule. [outputs] are node ids
    whose values the caller reads after {!run_forward} (the capture
    root is implicitly one); [grads] are node ids whose gradients the
    caller reads after {!run_backward} — all are pinned out of the
    arena. [chains] lists fusion runs [c1; ...; ck] (each node consumed
    only by the next, all {!fusable_elementwise}); invalid chains,
    unsupported ops, arena shape violations and the [Scalar] backend
    all yield [Error]. *)

val stats : t -> stats

(** {1 Replay} *)

val run_forward : t -> unit
(** Execute the forward schedule. Allocates nothing. *)

val run_backward : t -> unit
(** Seed the root gradient and execute the backward schedule (gradient
    buffers are re-zeroed exactly where the interpreter's lazy zero
    materialisation would). Must follow {!run_forward}. Allocates
    nothing. *)

val value : t -> int -> Tensor.t
(** Buffer holding node [i]'s value after {!run_forward}.
    @raise Invalid_argument for chain-interior nodes (fused away). *)

val grad_of : t -> int -> Tensor.t
(** Buffer holding node [i]'s gradient after {!run_backward}.
    @raise Invalid_argument if the plan materialises no gradient for
    [i] — pass it in [grads] at compile time to pin one. *)
