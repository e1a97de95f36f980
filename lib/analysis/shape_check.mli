(** Abstract shape interpreter over the autodiff op-graph IR.

    Re-infers every node's (batch, width) shape from its operands using
    the declared semantics of each {!Ad} op and reports mismatches with
    op provenance ("`mul` at node 412: (8,1024) vs (8,512), built in
    smoothe.forward") instead of the bare [Invalid_argument] a tensor
    kernel would throw. The IR is plain data, so the check runs without
    executing any kernel — a hand-built or recorded IR can be vetted
    before (or without) a forward pass.

    Codes (full table in DESIGN.md):
    - [SC001] error: pointwise binary operands (or [propagate]'s
      marginals and cp) disagree
    - [SC002] error: gather index out of the operand's width
    - [SC003] error: segmentation (or [propagate] structure)
      width disagrees with the operand
    - [SC004] error: linear/dot dimension mismatch
    - [SC005] error: [expm_trace] of a non-square matrix
    - [SC006] error: [matrix_of_entries] scatter target out of range
    - [SC007] warning: recorded shape differs from the inferred shape
      (op ran, but not with the semantics this checker assumes)
    - [SC008] error: operand id out of range (malformed IR)
    - [SC010] error: row index out of the operand's shape

    Poisoned nodes (those already reported) propagate their recorded
    shape so one defect yields one diagnostic, not a cascade. *)

val check : Ad.Ir.t -> Diagnostic.t list
