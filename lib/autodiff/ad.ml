(* The tape carries a parallel, side-effect-free op-graph IR so static
   analyses (lib/analysis: Shape_check, Grad_flow) can inspect what a
   forward pass built without re-running any tensor kernel. Recording is
   always on: it is one small immutable record per tape node, does not
   touch any tensor, and therefore cannot perturb numerics. *)
module Ir = struct
  type shape = { batch : int; width : int }

  type meta =
    | M_none
    | M_scalar of float
    | M_gather of { count : int; index_min : int; index_max : int }
    | M_segments of {
        seg_count : int;
        seg_width : int;
        empty_segments : int;
        max_len : int;
      }
    | M_propagation of {
        mix : Propagation.mix;
        nodes : int;
        classes : int;
        edges : int;
        root : int;
        empty_classes : int;
        steps : int;
      }
    | M_row of int
    | M_width of int
    | M_matrix of { dim : int; class_min : int; class_max : int; col_max : int }

  type node = {
    op : string;
    args : int array;
    shape : shape;
    context : string;
    meta : meta;
  }

  type t = node array

  let shape_to_string { batch; width } = Printf.sprintf "(%d,%d)" batch width
end

(* Runtime payloads the IR's [meta] summarises but does not carry: the
   exact index arrays, segmentations, coefficient vectors and scatter
   entries an op closed over. The plan replay engine (Plan) needs them
   verbatim to re-execute a captured graph; analyses keep using the
   summarised [meta]. One payload per tape node, [P_none] for ops whose
   behaviour is fully determined by op + meta. *)
type payload =
  | P_none
  | P_indices of int array  (* gather *)
  | P_segments of Segments.t  (* segment_* *)
  | P_coeffs of float array  (* dot_const *)
  | P_entries of { dim : int; entries : (int * int * int) array }  (* matrix_of_entries *)
  | P_propagation of Propagation.t  (* propagate *)

type v = {
  tp : tape;
  id : int;  (* position on the tape = index into the IR *)
  value : Tensor.t;
  mutable grad : Tensor.t option;
  mutable pull : (unit -> unit) option;
      (* reads this node's adjoint and accumulates into its parents *)
}

and tape = {
  nodes : v Vec.t;
  ir : Ir.node Vec.t;
  pay : payload Vec.t;
  mutable swept : bool;
}

let tape () = { nodes = Vec.create (); ir = Vec.create (); pay = Vec.create (); swept = false }
let node_count tp = Vec.length tp.nodes
let ir tp = Vec.to_array tp.ir
let payloads tp = Vec.to_array tp.pay
let values tp = Array.init (Vec.length tp.nodes) (fun i -> (Vec.get tp.nodes i).value)
let node_id n = n.id
let swept tp = tp.swept

let value n = n.value

(* Ambient provenance chain recorded into every IR node, so diagnostics
   can say where on the tape an op was built. Nested [with_context]
   calls stack; the recorded label joins the chain outermost→innermost
   ("smoothe.forward/cost_model.relaxed"), memoised per push so [node]
   pays one field read. Domain-local: concurrent pool extractions keep
   independent chains. *)
let context_key : (string list * string) ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref ([], "(toplevel)"))

let context_label () = snd !(Domain.DLS.get context_key)

let with_context label f =
  let cell = Domain.DLS.get context_key in
  let saved = !cell in
  let chain = label :: fst saved in
  cell := (chain, String.concat "/" (List.rev chain));
  Fun.protect ~finally:(fun () -> cell := saved) f

let grad_tensor n =
  match n.grad with
  | Some g -> g
  | None ->
      let g = Tensor.create ~batch:n.value.Tensor.batch ~width:n.value.Tensor.width in
      n.grad <- Some g;
      g

let grad n =
  if not n.tp.swept then
    invalid_arg
      "Ad.grad: this node's tape has not been swept — call Ad.backward on a node of the \
       same tape first (a node from a different tape than the one swept reads as zeros \
       otherwise)";
  grad_tensor n

let node ?(meta = Ir.M_none) ?(payload = P_none) ~op ~args tp value pull =
  Array.iter
    (fun a ->
      if a.tp != tp then
        invalid_arg
          (Printf.sprintf
             "Ad.%s: operand node %d was built on a different tape — mixing tapes silently \
              detaches gradients"
             op a.id))
    args;
  let n = { tp; id = Vec.length tp.nodes; value; grad = None; pull } in
  Vec.push tp.nodes n;
  Vec.push tp.ir
    {
      Ir.op;
      args = Array.map (fun a -> a.id) args;
      shape = { Ir.batch = value.Tensor.batch; width = value.Tensor.width };
      context = context_label ();
      meta;
    };
  Vec.push tp.pay payload;
  n

let const tp t = node ~op:"const" ~args:[||] tp t None
let param tp t = node ~op:"param" ~args:[||] tp t None
let owner n = n.tp

let backward out =
  let tp = owner out in
  if tp.swept then
    invalid_arg
      "Ad.backward: tape already swept — tapes are single-use (one \
       forward/backward pair per tape); build a fresh tape for the next pass";
  tp.swept <- true;
  let sweep () =
    (* Seed with ones: differentiates the sum of the output's entries.
       An active NaN-gradient fault poisons the seed instead, so the NaN
       flows through the whole tape exactly like a real numeric blow-up
       and downstream guards see a fully contaminated gradient. *)
    Tensor.fill (grad_tensor out) (if Fault_plan.on_backward () then Float.nan else 1.0);
    for i = Vec.length tp.nodes - 1 downto 0 do
      let n = Vec.get tp.nodes i in
      match n.pull, n.grad with
      | Some pull, Some _ -> pull ()
      | Some _, None | None, _ -> ()
    done
  in
  if !Obs.on then begin
    Metrics.observe "ad.tape_nodes" (float_of_int (Vec.length tp.nodes));
    Trace.with_span ~cat:"ad"
      ~attrs:[ ("nodes", string_of_int (Vec.length tp.nodes)) ]
      "ad.backward" sweep
  end
  else sweep ()

let add a b =
  let tp = owner a in
  let out = node ~op:"add" ~args:[| a; b |] tp (Tensor.add a.value b.value) None in
  out.pull <-
    Some
      (fun () ->
        let g = grad_tensor out in
        Tensor.add_inplace (grad_tensor a) g;
        Tensor.add_inplace (grad_tensor b) g);
  out

let sub a b =
  let tp = owner a in
  let out = node ~op:"sub" ~args:[| a; b |] tp (Tensor.sub a.value b.value) None in
  out.pull <-
    Some
      (fun () ->
        let g = grad_tensor out in
        Tensor.add_inplace (grad_tensor a) g;
        Tensor.axpy (-1.0) g (grad_tensor b));
  out

let mul a b =
  let tp = owner a in
  let out = node ~op:"mul" ~args:[| a; b |] tp (Tensor.mul a.value b.value) None in
  out.pull <-
    Some
      (fun () ->
        let g = grad_tensor out in
        Tensor.add_inplace (grad_tensor a) (Tensor.mul g b.value);
        Tensor.add_inplace (grad_tensor b) (Tensor.mul g a.value));
  out

let neg a =
  let tp = owner a in
  let out = node ~op:"neg" ~args:[| a |] tp (Tensor.neg a.value) None in
  out.pull <- Some (fun () -> Tensor.axpy (-1.0) (grad_tensor out) (grad_tensor a));
  out

let scale k a =
  let tp = owner a in
  let out =
    node ~op:"scale" ~meta:(Ir.M_scalar k) ~args:[| a |] tp (Tensor.scale k a.value) None
  in
  out.pull <- Some (fun () -> Tensor.axpy k (grad_tensor out) (grad_tensor a));
  out

let add_scalar k a =
  let tp = owner a in
  let out =
    node ~op:"add_scalar" ~meta:(Ir.M_scalar k) ~args:[| a |] tp
      (Tensor.add_scalar k a.value) None
  in
  out.pull <- Some (fun () -> Tensor.add_inplace (grad_tensor a) (grad_tensor out));
  out

let log_floor = 1e-12

let log_safe a =
  let tp = owner a in
  let out =
    node ~op:"log_safe" ~args:[| a |] tp
      (Tensor.map (fun x -> Stdlib.log (Float.max x log_floor)) a.value)
      None
  in
  out.pull <-
    Some
      (fun () ->
        let g = grad_tensor out in
        let inv = Tensor.map (fun x -> 1.0 /. Float.max x log_floor) a.value in
        Tensor.add_inplace (grad_tensor a) (Tensor.mul g inv));
  out

let relu a =
  let tp = owner a in
  let out = node ~op:"relu" ~args:[| a |] tp (Tensor.relu a.value) None in
  out.pull <-
    Some
      (fun () ->
        let g = grad_tensor out in
        let mask = Tensor.map (fun x -> if x > 0.0 then 1.0 else 0.0) a.value in
        Tensor.add_inplace (grad_tensor a) (Tensor.mul g mask));
  out

let gather_meta idx =
  let count = Array.length idx in
  let index_min = Array.fold_left min max_int idx in
  let index_max = Array.fold_left max min_int idx in
  Ir.M_gather { count; index_min = (if count = 0 then 0 else index_min);
                index_max = (if count = 0 then -1 else index_max) }

let gather a idx =
  let tp = owner a in
  let out =
    node ~op:"gather" ~meta:(gather_meta idx) ~payload:(P_indices idx) ~args:[| a |] tp
      (Segments.gather a.value idx) None
  in
  out.pull <- Some (fun () -> Segments.scatter_add ~into:(grad_tensor a) idx (grad_tensor out));
  out

let segments_meta (seg : Segments.t) =
  let empty = Array.fold_left (fun n l -> if l = 0 then n + 1 else n) 0 seg.Segments.lens in
  let max_len = Array.fold_left max 0 seg.Segments.lens in
  Ir.M_segments
    {
      seg_count = Array.length seg.Segments.lens;
      seg_width = seg.Segments.width;
      empty_segments = empty;
      max_len;
    }

let segment_softmax a seg =
  let tp = owner a in
  let y = Segments.softmax a.value seg in
  let out = node ~op:"segment_softmax" ~meta:(segments_meta seg) ~payload:(P_segments seg) ~args:[| a |] tp y None in
  out.pull <-
    Some
      (fun () ->
        (* dθ_i = y_i (g_i - Σ_{j in seg} g_j y_j) *)
        let g = grad_tensor out in
        let gy = Tensor.mul g y in
        let seg_dot = Segments.sum gy seg in
        let owner_of = Segments.seg_of_index seg in
        let spread = Segments.gather seg_dot owner_of in
        let corr = Tensor.mul y (Tensor.sub g spread) in
        Tensor.add_inplace (grad_tensor a) corr);
  out

let segment_sum a seg =
  let tp = owner a in
  let out =
    node ~op:"segment_sum" ~meta:(segments_meta seg) ~payload:(P_segments seg) ~args:[| a |] tp
      (Segments.sum a.value seg) None
  in
  out.pull <-
    Some
      (fun () ->
        let owner_of = Segments.seg_of_index seg in
        let spread = Segments.gather (grad_tensor out) owner_of in
        Tensor.add_inplace (grad_tensor a) spread);
  out

(* The interpreter allocates the output and the op-owned scratch (the
   p, q and argmax history the pull reads back) per node, then calls the
   same kernels the plan replays over its arena. *)
let propagate ?p0 prop ~steps ~cp =
  let tp = owner cp in
  let c = cp.value in
  let s = Propagation.scratch prop ~batch:c.Tensor.batch ~steps in
  let y = Tensor.create ~batch:c.Tensor.batch ~width:c.Tensor.width in
  Propagation.forward_into prop s ~out:y ~p0:(Option.map value p0) ~cp:c;
  let lens = prop.Propagation.parents.Segments.lens in
  let meta =
    Ir.M_propagation
      {
        mix = prop.Propagation.mix;
        nodes = Propagation.nodes prop;
        classes = Propagation.classes prop;
        edges = Propagation.edges prop;
        root = prop.Propagation.root;
        empty_classes = Array.fold_left (fun k l -> if l = 0 then k + 1 else k) 0 lens;
        steps;
      }
  in
  let args = match p0 with Some p -> [| p; cp |] | None -> [| cp |] in
  let out = node ~op:"propagate" ~meta ~payload:(P_propagation prop) ~args tp y None in
  out.pull <-
    Some
      (fun () ->
        Propagation.backward_into prop s ~g:(grad_tensor out) ~cp:c
          ~gp0:(Option.map grad_tensor p0) ~gcp:(Some (grad_tensor cp)));
  out

let mean_rows a =
  let tp = owner a in
  let out = node ~op:"mean_rows" ~args:[| a |] tp (Tensor.mean_rows a.value) None in
  out.pull <-
    Some
      (fun () ->
        let g = grad_tensor out in
        let ga = grad_tensor a in
        let inv = 1.0 /. float_of_int (max 1 a.value.Tensor.batch) in
        let gd = Tensor.unsafe_data g and gad = Tensor.unsafe_data ga in
        let w = a.value.Tensor.width in
        for b = 0 to a.value.Tensor.batch - 1 do
          for i = 0 to w - 1 do
            gad.((b * w) + i) <- gad.((b * w) + i) +. (gd.(i) *. inv)
          done
        done);
  out

let slice_row a b =
  let tp = owner a in
  let y = Tensor.of_row (Tensor.row a.value b) in
  let out = node ~op:"slice_row" ~meta:(Ir.M_row b) ~args:[| a |] tp y None in
  out.pull <-
    Some
      (fun () ->
        let g = grad_tensor out in
        let ga = grad_tensor a in
        let w = a.value.Tensor.width in
        let gd = Tensor.unsafe_data g and gad = Tensor.unsafe_data ga in
        for i = 0 to w - 1 do
          gad.((b * w) + i) <- gad.((b * w) + i) +. gd.(i)
        done);
  out

let sum_width a =
  let tp = owner a in
  let sums = Tensor.sum_rows a.value in
  let y = Tensor.of_array ~batch:a.value.Tensor.batch ~width:1 sums in
  let out = node ~op:"sum_width" ~args:[| a |] tp y None in
  out.pull <-
    Some
      (fun () ->
        let g = grad_tensor out in
        let ga = grad_tensor a in
        let w = a.value.Tensor.width in
        let gd = Tensor.unsafe_data g and gad = Tensor.unsafe_data ga in
        for b = 0 to a.value.Tensor.batch - 1 do
          let gb = gd.(b) in
          for i = 0 to w - 1 do
            gad.((b * w) + i) <- gad.((b * w) + i) +. gb
          done
        done);
  out

let sum_all a =
  let tp = owner a in
  let y = Tensor.of_array ~batch:1 ~width:1 [| Tensor.sum a.value |] in
  let out = node ~op:"sum_all" ~args:[| a |] tp y None in
  out.pull <-
    Some
      (fun () ->
        let g = Tensor.get (grad_tensor out) 0 0 in
        let ga = grad_tensor a in
        let gad = Tensor.unsafe_data ga in
        for i = 0 to Tensor.numel a.value - 1 do
          gad.(i) <- gad.(i) +. g
        done);
  out

let mean_all a =
  let n = float_of_int (Tensor.numel a.value) in
  scale (1.0 /. n) (sum_all a)

let dot_const a u =
  if Array.length u <> a.value.Tensor.width then invalid_arg "Ad.dot_const: width mismatch";
  let tp = owner a in
  let batch = a.value.Tensor.batch and w = a.value.Tensor.width in
  let y = Tensor.create ~batch ~width:1 in
  let ad = Tensor.unsafe_data a.value and yd = Tensor.unsafe_data y in
  for b = 0 to batch - 1 do
    let acc = ref 0.0 in
    let base = b * w in
    for i = 0 to w - 1 do
      acc := !acc +. (ad.(base + i) *. u.(i))
    done;
    yd.(b) <- !acc
  done;
  let out =
    node ~op:"dot_const" ~meta:(Ir.M_width (Array.length u)) ~payload:(P_coeffs u) ~args:[| a |] tp y None
  in
  out.pull <-
    Some
      (fun () ->
        let g = grad_tensor out in
        let ga = grad_tensor a in
        let gd = Tensor.unsafe_data g and gad = Tensor.unsafe_data ga in
        for b = 0 to batch - 1 do
          let gb = gd.(b) in
          let base = b * w in
          for i = 0 to w - 1 do
            gad.(base + i) <- gad.(base + i) +. (gb *. u.(i))
          done
        done);
  out

let linear ~input ~weight ~bias =
  let tp = owner input in
  let x = input.value and w = weight.value and b = bias.value in
  if w.Tensor.width <> x.Tensor.width then invalid_arg "Ad.linear: in_features mismatch";
  if b.Tensor.width <> w.Tensor.batch then invalid_arg "Ad.linear: bias width mismatch";
  let y = Tensor.matmul_nt x w in
  let yd = Tensor.unsafe_data y and bd = Tensor.unsafe_data b in
  let h = w.Tensor.batch in
  for row = 0 to y.Tensor.batch - 1 do
    for j = 0 to h - 1 do
      yd.((row * h) + j) <- yd.((row * h) + j) +. bd.(j)
    done
  done;
  let out = node ~op:"linear" ~args:[| input; weight; bias |] tp y None in
  out.pull <-
    Some
      (fun () ->
        let g = grad_tensor out in
        (* dX = G · W        : (B,H)x(H,N) -> (B,N) *)
        Tensor.add_inplace (grad_tensor input) (Tensor.matmul g w);
        (* dW = Gᵀ · X       : (H,B)x(B,N) -> (H,N) *)
        Tensor.add_inplace (grad_tensor weight) (Tensor.matmul (Tensor.transpose g) x);
        (* db = column sums of G *)
        let gb = grad_tensor bias in
        let gbd = Tensor.unsafe_data gb and gd = Tensor.unsafe_data g in
        for row = 0 to g.Tensor.batch - 1 do
          for j = 0 to h - 1 do
            gbd.(j) <- gbd.(j) +. gd.((row * h) + j)
          done
        done);
  out

let mse ~pred ~target =
  let diff = sub pred target in
  mean_all (mul diff diff)

let matrix_of_entries cp ~dim entries =
  let tp = owner cp in
  if cp.value.Tensor.batch <> 1 then invalid_arg "Ad.matrix_of_entries: expected a (1,N) input";
  let a = Tensor.create ~batch:dim ~width:dim in
  let src = Tensor.unsafe_data cp.value and dst = Tensor.unsafe_data a in
  Array.iter (fun (col, i, j) -> dst.((i * dim) + j) <- dst.((i * dim) + j) +. src.(col)) entries;
  let class_min =
    Array.fold_left (fun m (_, i, j) -> min m (min i j)) (if Array.length entries = 0 then 0 else max_int) entries
  in
  let class_max = Array.fold_left (fun m (_, i, j) -> max m (max i j)) (-1) entries in
  let col_max = Array.fold_left (fun m (c, _, _) -> max m c) (-1) entries in
  let out =
    node ~op:"matrix_of_entries"
      ~meta:(Ir.M_matrix { dim; class_min; class_max; col_max })
      ~payload:(P_entries { dim; entries })
      ~args:[| cp |] tp a None
  in
  out.pull <-
    Some
      (fun () ->
        let g = grad_tensor out in
        let gcp = grad_tensor cp in
        let gd = Tensor.unsafe_data g and gcpd = Tensor.unsafe_data gcp in
        Array.iter (fun (col, i, j) -> gcpd.(col) <- gcpd.(col) +. gd.((i * dim) + j)) entries);
  out

let expm_trace a =
  let tp = owner a in
  let e = Tensor.Matfun.expm a.value in
  let y = Tensor.of_array ~batch:1 ~width:1 [| Tensor.Matfun.trace e |] in
  let out = node ~op:"expm_trace" ~args:[| a |] tp y None in
  out.pull <-
    Some
      (fun () ->
        let g = Tensor.get (grad_tensor out) 0 0 in
        Tensor.axpy g (Tensor.transpose e) (grad_tensor a));
  out

let finite_difference ~f ~x ~eps =
  let g = Tensor.create ~batch:x.Tensor.batch ~width:x.Tensor.width in
  let xd = Tensor.unsafe_data x and gd = Tensor.unsafe_data g in
  for i = 0 to Tensor.numel x - 1 do
    let saved = xd.(i) in
    xd.(i) <- saved +. eps;
    let up = f x in
    xd.(i) <- saved -. eps;
    let down = f x in
    xd.(i) <- saved;
    gd.(i) <- (up -. down) /. (2.0 *. eps)
  done;
  g
