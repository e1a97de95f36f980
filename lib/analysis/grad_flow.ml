module D = Diagnostic
module Ir = Ad.Ir

(* ---------- interval domain ---------- *)

type itv = { lo : float; hi : float }

let top = { lo = Float.neg_infinity; hi = Float.infinity }

(* nan-safe constructor: any nan bound (0 * inf etc.) widens to top *)
let mk lo hi = if Float.is_nan lo || Float.is_nan hi then top else { lo; hi }

(* interval-safe product of two bounds: 0 absorbs even against inf *)
let bmul a b = if a = 0.0 || b = 0.0 then 0.0 else a *. b

let imul a b =
  let p1 = bmul a.lo b.lo and p2 = bmul a.lo b.hi in
  let p3 = bmul a.hi b.lo and p4 = bmul a.hi b.hi in
  mk (min (min p1 p2) (min p3 p4)) (max (max p1 p2) (max p3 p4))

let iadd a b = mk (a.lo +. b.lo) (a.hi +. b.hi)
let ineg a = { lo = -.a.hi; hi = -.a.lo }
let isub a b = iadd a (ineg b)
let iscale k a = imul { lo = k; hi = k } a
let ishift k a = mk (a.lo +. k) (a.hi +. k)

let itv_to_string a = Printf.sprintf "[%g, %g]" a.lo a.hi

(* ---------- the lint ---------- *)

let check ?root (ir : Ir.t) =
  let n = Array.length ir in
  if n = 0 then []
  else begin
    let root = match root with Some r -> r | None -> n - 1 in
    if root < 0 || root >= n then
      invalid_arg (Printf.sprintf "Grad_flow.check: root %d outside IR of %d nodes" root n);
    let ds = ref [] in
    let add d = ds := d :: !ds in
    (* forward: which nodes have a parameter somewhere upstream *)
    let has_param = Array.make n false in
    for i = 0 to n - 1 do
      has_param.(i) <-
        ir.(i).Ir.op = "param"
        || Array.exists (fun a -> a >= 0 && a < i && has_param.(a)) ir.(i).Ir.args
    done;
    (* backward: which nodes the loss depends on *)
    let feeds_root = Array.make n false in
    feeds_root.(root) <- true;
    for i = n - 1 downto 0 do
      if feeds_root.(i) then
        Array.iter (fun a -> if a >= 0 && a < i then feeds_root.(a) <- true) ir.(i).Ir.args
    done;
    (* GF001 / GF002: parameter-to-loss connectivity *)
    let params = ref [] in
    Array.iteri (fun i nd -> if nd.Ir.op = "param" then params := i :: !params) ir;
    let params = List.rev !params in
    let connected = List.filter (fun p -> feeds_root.(p)) params in
    List.iter
      (fun p ->
        if not (feeds_root.(p)) then
          add
            (D.error ~code:"GF001" (D.Tape_node p)
               "parameter at node %d (built in %s) has no path to the loss at node %d: its \
                gradient will stay zero and training is a silent no-op for it (detached θ)"
               p ir.(p).Ir.context root))
      params;
    if connected = [] then
      add
        (D.warning ~code:"GF002" (D.Tape_node root)
           "the loss at node %d depends on no parameter: every gradient of this tape is zero"
           root);
    (* GF003: const-blocked region feeding the loss *)
    let blocked = ref 0 in
    for i = 0 to n - 1 do
      match ir.(i).Ir.op with
      | "const" | "param" -> ()
      | _ -> if feeds_root.(i) && not has_param.(i) then incr blocked
    done;
    if !blocked > 0 then
      add
        (D.info ~code:"GF003" D.Graph
           "%d op node%s feed%s the loss through constants only (no parameter upstream); \
            expected for cost vectors, suspicious elsewhere"
           !blocked
           (if !blocked = 1 then "" else "s")
           (if !blocked = 1 then "s" else ""));
    (* interval pass: GF004 domain boundaries, GF005 empty segments *)
    let itv = Array.make n top in
    for i = 0 to n - 1 do
      let nd = ir.(i) in
      let arg k =
        let a = nd.Ir.args.(k) in
        if a >= 0 && a < i then itv.(a) else top
      in
      let out =
        match (nd.Ir.op, Array.length nd.Ir.args) with
        | ("const" | "param"), _ -> top
        | "add", 2 -> iadd (arg 0) (arg 1)
        | "sub", 2 -> isub (arg 0) (arg 1)
        | "mul", 2 -> imul (arg 0) (arg 1)
        | "neg", 1 -> ineg (arg 0)
        | "scale", 1 -> (
            match nd.Ir.meta with Ir.M_scalar k -> iscale k (arg 0) | _ -> top)
        | "add_scalar", 1 -> (
            match nd.Ir.meta with Ir.M_scalar k -> ishift k (arg 0) | _ -> top)
        | "relu", 1 ->
            let a = arg 0 in
            { lo = Float.max 0.0 a.lo; hi = Float.max 0.0 a.hi }
        | "log_safe", 1 ->
            let a = arg 0 in
            if a.lo <= 0.0 then
              add
                (D.warning ~code:"GF004" (D.Tape_node i)
                   "`%s` at node %d (built in %s): operand interval %s admits values ≤ 0 — the \
                    value is clamped at the floor but the gradient can reach 1/%g there"
                   nd.Ir.op i nd.Ir.context (itv_to_string a) 1e-12);
            mk (Stdlib.log (Float.max a.lo 1e-12)) (Stdlib.log (Float.max a.hi 1e-12))
        | ("div" | "sqrt" | "rsqrt" | "log"), _ ->
            (* not emitted by Ad today; future-proof the boundary check *)
            let a = arg (Array.length nd.Ir.args - 1) in
            if a.lo <= 0.0 then
              add
                (D.warning ~code:"GF004" (D.Tape_node i)
                   "`%s` at node %d (built in %s): operand interval %s admits values ≤ 0 at a \
                    domain boundary"
                   nd.Ir.op i nd.Ir.context (itv_to_string a));
            top
        | "segment_softmax", 1 ->
            (* outputs are mathematically in (0,1]: strictly positive *)
            { lo = Float.min_float; hi = 1.0 }
        | "segment_sum", 1 -> (
            let a = arg 0 in
            match nd.Ir.meta with
            | Ir.M_segments { max_len; _ } ->
                let l = float_of_int max_len in
                mk (min 0.0 (bmul l a.lo)) (max 0.0 (bmul l a.hi))
            | _ -> top)
        | "propagate", (1 | 2) ->
            (* probabilities in, class probabilities in [0, 1] (the root
               pinned at 1, parentless classes at 0), times cp at every
               step; without an argument p⁰ is cp times 0 or 1 *)
            let k = Array.length nd.Ir.args in
            let cp = arg (k - 1) in
            let unit = { lo = 0.0; hi = 1.0 } in
            let inside (x : itv) = x.lo >= 0.0 && x.hi <= 1.0 in
            let p0 = if k = 2 then arg 0 else imul cp unit in
            let steps = match nd.Ir.meta with Ir.M_propagation { steps; _ } -> steps | _ -> 1 in
            if inside p0 && (steps = 1 || inside (imul cp unit)) then imul cp unit else top
        | "gather", 1 -> arg 0
        | ("mean_rows" | "slice_row"), 1 -> arg 0
        | ("sum_width" | "sum_all"), 1 -> (
            let a = arg 0 in
            let w = ir.(nd.Ir.args.(0)).Ir.shape.Ir.width in
            let w =
              if nd.Ir.op = "sum_all" then w * ir.(nd.Ir.args.(0)).Ir.shape.Ir.batch else w
            in
            let l = float_of_int w in
            mk (min 0.0 (bmul l a.lo)) (max 0.0 (bmul l a.hi)))
        | _ -> top
      in
      itv.(i) <- out;
      (* GF005: reductions over provably empty segments *)
      (match (nd.Ir.op, nd.Ir.meta) with
      | "propagate", Ir.M_propagation { empty_classes; classes; _ } when empty_classes > 0 ->
          add
            (D.info ~code:"GF005" (D.Tape_node i)
               "`propagate` at node %d (built in %s): %d of %d e-classes have no parent edges \
                (their product is 1 and their max 0; expected for the root)"
               i nd.Ir.context empty_classes classes)
      | ( ("segment_softmax" | "segment_sum"), Ir.M_segments { empty_segments; seg_count; _ } )
        when empty_segments > 0 ->
          if nd.Ir.op = "segment_softmax" then
            add
              (D.warning ~code:"GF005" (D.Tape_node i)
                 "`segment_softmax` at node %d (built in %s): %d of %d segments are empty — an \
                  e-class with no candidate e-nodes has no probability distribution"
                 i nd.Ir.context empty_segments seg_count)
          else
            add
              (D.info ~code:"GF005" (D.Tape_node i)
                 "`%s` at node %d (built in %s): %d of %d segments are empty (reduces to the \
                  neutral element)"
                 nd.Ir.op i nd.Ir.context empty_segments seg_count)
      | _ -> ())
    done;
    D.sort !ds
  end
