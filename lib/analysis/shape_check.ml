module D = Diagnostic
module Ir = Ad.Ir

let sh b w = { Ir.batch = b; width = w }
let str = Ir.shape_to_string

let check (ir : Ir.t) =
  let ds = ref [] in
  let add d = ds := d :: !ds in
  let n = Array.length ir in
  (* inferred shapes; on any reported defect we fall back to the recorded
     shape so downstream nodes are checked against what actually exists
     rather than cascading one error through the whole tape *)
  let inferred = Array.make n (sh 0 0) in
  for i = 0 to n - 1 do
    let nd = ir.(i) in
    let here = D.Tape_node i in
    let provenance = Printf.sprintf ", built in %s" nd.Ir.context in
    let errf ~code fmt = Printf.ksprintf (fun m -> add (D.error ~code here "%s%s" m provenance)) fmt in
    let recorded = nd.Ir.shape in
    let args_ok =
      Array.for_all
        (fun a ->
          if a < 0 || a >= i then begin
            errf ~code:"SC008" "`%s` at node %d: operand id %d out of range (expected 0..%d)"
              nd.Ir.op i a (i - 1);
            false
          end
          else true)
        nd.Ir.args
    in
    let arg k = inferred.(nd.Ir.args.(k)) in
    let inf =
      if not args_ok then recorded
      else
        match (nd.Ir.op, Array.length nd.Ir.args) with
        | ("const" | "param"), _ -> recorded
        | ("add" | "sub" | "mul"), 2 ->
            let a = arg 0 and b = arg 1 in
            if a <> b then begin
              errf ~code:"SC001" "`%s` at node %d: %s vs %s" nd.Ir.op i (str a) (str b);
              recorded
            end
            else a
        | ("neg" | "relu" | "log_safe"), 1 -> arg 0
        | ("scale" | "add_scalar"), 1 -> arg 0
        | "gather", 1 -> (
            let a = arg 0 in
            match nd.Ir.meta with
            | Ir.M_gather { count; index_min; index_max } ->
                if index_min < 0 || index_max >= a.Ir.width then
                  errf ~code:"SC002"
                    "`gather` at node %d: index range [%d,%d] outside operand width %d" i
                    index_min index_max a.Ir.width;
                sh a.Ir.batch count
            | _ -> recorded)
        | ("segment_softmax" | "segment_sum"), 1 -> (
            let a = arg 0 in
            match nd.Ir.meta with
            | Ir.M_segments { seg_count; seg_width; _ } ->
                if seg_width <> a.Ir.width then begin
                  errf ~code:"SC003"
                    "`%s` at node %d: segmentation covers %d elements but the operand is %s"
                    nd.Ir.op i seg_width (str a);
                  recorded
                end
                else if nd.Ir.op = "segment_softmax" then a
                else sh a.Ir.batch seg_count
            | _ -> recorded)
        | "propagate", (1 | 2) -> (
            (* [p⁰; cp] or [cp] alone *)
            let k = Array.length nd.Ir.args in
            let p = arg 0 and cp = arg (k - 1) in
            if p <> cp then
              errf ~code:"SC001" "`propagate` at node %d: marginals %s vs cp %s" i (str p)
                (str cp);
            match nd.Ir.meta with
            | Ir.M_propagation { nodes; _ } ->
                if nodes <> p.Ir.width then
                  errf ~code:"SC003"
                    "`propagate` at node %d: structure covers %d e-nodes but the operand is %s"
                    i nodes (str p);
                sh p.Ir.batch nodes
            | _ -> recorded)
        | "slice_row", 1 -> (
            let a = arg 0 in
            (match nd.Ir.meta with
            | Ir.M_row r ->
                if r < 0 || r >= a.Ir.batch then
                  errf ~code:"SC010" "`slice_row` at node %d: row %d outside batch %d" i r
                    a.Ir.batch
            | _ -> ());
            sh 1 a.Ir.width)
        | "mean_rows", 1 -> sh 1 (arg 0).Ir.width
        | "sum_width", 1 -> sh (arg 0).Ir.batch 1
        | "sum_all", 1 -> sh 1 1
        | "dot_const", 1 -> (
            let a = arg 0 in
            (match nd.Ir.meta with
            | Ir.M_width w ->
                if w <> a.Ir.width then
                  errf ~code:"SC004"
                    "`dot_const` at node %d: %d coefficients against operand %s" i w (str a)
            | _ -> ());
            sh a.Ir.batch 1)
        | "linear", 3 ->
            let x = arg 0 and w = arg 1 and b = arg 2 in
            if w.Ir.width <> x.Ir.width then
              errf ~code:"SC004"
                "`linear` at node %d: weight expects %d input features, input is %s" i
                w.Ir.width (str x);
            if b.Ir.width <> w.Ir.batch then
              errf ~code:"SC004" "`linear` at node %d: bias %s against %d output neurons" i
                (str b) w.Ir.batch;
            sh x.Ir.batch w.Ir.batch
        | "matrix_of_entries", 1 -> (
            let a = arg 0 in
            match nd.Ir.meta with
            | Ir.M_matrix { dim; class_min; class_max; col_max } ->
                if a.Ir.batch <> 1 then
                  errf ~code:"SC006"
                    "`matrix_of_entries` at node %d: expected a (1,N) operand, got %s" i (str a);
                if col_max >= a.Ir.width then
                  errf ~code:"SC006"
                    "`matrix_of_entries` at node %d: source column %d outside operand width %d" i
                    col_max a.Ir.width;
                if class_max >= dim || (class_max >= 0 && class_min < 0) then
                  errf ~code:"SC006"
                    "`matrix_of_entries` at node %d: entry target (%d..%d) outside %dx%d matrix"
                    i class_min class_max dim dim;
                sh dim dim
            | _ -> recorded)
        | "expm_trace", 1 ->
            let a = arg 0 in
            if a.Ir.batch <> a.Ir.width then
              errf ~code:"SC005" "`expm_trace` at node %d: matrix %s is not square" i (str a);
            sh 1 1
        | _ ->
            (* an op this checker does not know: trust the recording *)
            recorded
    in
    if inf <> recorded then
      add
        (D.warning ~code:"SC007" here
           "`%s` at node %d: recorded shape %s differs from inferred %s%s" nd.Ir.op i
           (str recorded) (str inf) provenance);
    (* downstream nodes see the shape that actually materialised *)
    inferred.(i) <- recorded
  done;
  D.sort !ds
