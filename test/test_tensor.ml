(* Tests for the tensor substrate: dense kernels, both backends, LU,
   matrix exponential, segment kernels and CSR. *)

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let tensor_gen ?(max_batch = 4) ?(max_width = 8) () =
  QCheck2.Gen.(
    bind (pair (int_range 1 max_batch) (int_range 1 max_width)) (fun (b, w) ->
        map
          (fun seed ->
            let rng = Rng.create seed in
            Tensor.init ~batch:b ~width:w (fun _ _ -> Rng.float rng 4.0 -. 2.0))
          (int_bound 1_000_000)))

(* ------------------------------------------------------------- basics *)

let test_shapes () =
  let t = Tensor.create ~batch:3 ~width:4 in
  Alcotest.(check int) "numel" 12 (Tensor.numel t);
  Tensor.set t 2 3 5.0;
  Test_util.check_close ~msg:"get/set" 5.0 (Tensor.get t 2 3);
  let r = Tensor.row t 2 in
  Test_util.check_close ~msg:"row copy" 5.0 r.(3);
  Alcotest.check_raises "of_array mismatch"
    (Invalid_argument "Tensor.of_array: 3 elements for shape (2, 2)") (fun () ->
      ignore (Tensor.of_array ~batch:2 ~width:2 [| 1.0; 2.0; 3.0 |]))

let test_elementwise () =
  let a = Tensor.of_array ~batch:1 ~width:3 [| 1.0; 2.0; 3.0 |] in
  let b = Tensor.of_array ~batch:1 ~width:3 [| 4.0; 5.0; 6.0 |] in
  Test_util.check_close ~msg:"add" 9.0 (Tensor.get (Tensor.add a b) 0 2);
  Test_util.check_close ~msg:"sub" (-3.0) (Tensor.get (Tensor.sub a b) 0 0);
  Test_util.check_close ~msg:"mul" 10.0 (Tensor.get (Tensor.mul a b) 0 1);
  Test_util.check_close ~msg:"div" 0.25 (Tensor.get (Tensor.div a b) 0 0);
  Test_util.check_close ~msg:"scale" 6.0 (Tensor.get (Tensor.scale 2.0 a) 0 2);
  Test_util.check_close ~msg:"sum" 6.0 (Tensor.sum a);
  Test_util.check_close ~msg:"dot" 32.0 (Tensor.dot a b);
  Test_util.check_close ~msg:"relu" 0.0 (Tensor.get (Tensor.relu (Tensor.neg a)) 0 0)

let test_reductions () =
  let t = Tensor.of_array ~batch:2 ~width:2 [| 1.0; 2.0; 3.0; 4.0 |] in
  let rows = Tensor.sum_rows t in
  Test_util.check_close ~msg:"row0" 3.0 rows.(0);
  Test_util.check_close ~msg:"row1" 7.0 rows.(1);
  let m = Tensor.mean_rows t in
  Test_util.check_close ~msg:"col mean" 2.0 (Tensor.get m 0 0);
  Test_util.check_close ~msg:"col mean" 3.0 (Tensor.get m 0 1);
  Test_util.check_close ~msg:"max" 4.0 (Tensor.max_value t);
  Test_util.check_close ~msg:"abs_max" 4.0 (Tensor.abs_max (Tensor.neg t))

let backends_agree op =
  qtest
    (Printf.sprintf "backends agree on %s" op)
    QCheck2.Gen.(pair (tensor_gen ()) (int_bound 1_000_000))
    (fun (a, seed) ->
      let rng = Rng.create seed in
      let b =
        Tensor.init ~batch:a.Tensor.batch ~width:a.Tensor.width (fun _ _ -> Rng.float rng 2.0)
      in
      let f =
        match op with
        | "add" -> Tensor.add
        | "mul" -> Tensor.mul
        | "matmul_nt" -> Tensor.matmul_nt
        | _ -> assert false
      in
      let fast = Tensor.Backend.with_mode Tensor.Backend.Vectorized (fun () -> f a b) in
      let slow = Tensor.Backend.with_mode Tensor.Backend.Scalar (fun () -> f a b) in
      let ok = ref true in
      for i = 0 to Tensor.numel fast - 1 do
        if
          not
            (Test_util.float_close (Tensor.unsafe_data fast).(i) (Tensor.unsafe_data slow).(i))
        then ok := false
      done;
      !ok)

(* -------------------------------------------------------------- matmul *)

let test_matmul_known () =
  let a = Tensor.of_array ~batch:2 ~width:2 [| 1.0; 2.0; 3.0; 4.0 |] in
  let b = Tensor.of_array ~batch:2 ~width:2 [| 5.0; 6.0; 7.0; 8.0 |] in
  let c = Tensor.matmul a b in
  Test_util.check_close ~msg:"c00" 19.0 (Tensor.get c 0 0);
  Test_util.check_close ~msg:"c01" 22.0 (Tensor.get c 0 1);
  Test_util.check_close ~msg:"c10" 43.0 (Tensor.get c 1 0);
  Test_util.check_close ~msg:"c11" 50.0 (Tensor.get c 1 1)

let matmul_identity =
  qtest "A · I = A" (tensor_gen ~max_batch:5 ~max_width:5 ()) (fun a ->
      let eye = Tensor.identity a.Tensor.width in
      let c = Tensor.matmul a eye in
      let ok = ref true in
      for i = 0 to Tensor.numel a - 1 do
        if not (Test_util.float_close (Tensor.unsafe_data c).(i) (Tensor.unsafe_data a).(i)) then
          ok := false
      done;
      !ok)

let transpose_involution =
  qtest "transpose . transpose = id" (tensor_gen ()) (fun a ->
      let t2 = Tensor.transpose (Tensor.transpose a) in
      Tensor.unsafe_data t2 = Tensor.unsafe_data a)

(* ------------------------------------------------------------------ LU *)

let square_gen n =
  QCheck2.Gen.map
    (fun seed ->
      let rng = Rng.create seed in
      (* diagonally dominant -> comfortably non-singular *)
      Tensor.init ~batch:n ~width:n (fun i j ->
          if i = j then 5.0 +. Rng.float rng 2.0 else Rng.float rng 2.0 -. 1.0))
    QCheck2.Gen.(int_bound 1_000_000)

let lu_solves =
  qtest "LU solve: A·X = B" (square_gen 5) (fun a ->
      let rng = Rng.create 77 in
      let b = Tensor.init ~batch:5 ~width:5 (fun _ _ -> Rng.float rng 4.0 -. 2.0) in
      let x = Tensor.Lu.solve (Tensor.Lu.decompose a) b in
      let ax = Tensor.matmul a x in
      let ok = ref true in
      for i = 0 to Tensor.numel b - 1 do
        if
          not
            (Test_util.float_close ~tol:1e-8 (Tensor.unsafe_data ax).(i) (Tensor.unsafe_data b).(i))
        then ok := false
      done;
      !ok)

let test_lu_singular () =
  let a = Tensor.of_array ~batch:2 ~width:2 [| 1.0; 2.0; 2.0; 4.0 |] in
  Alcotest.check_raises "singular" (Failure "Lu.decompose: singular matrix") (fun () ->
      ignore (Tensor.Lu.decompose a))

(* ----------------------------------------------------------------- expm *)

let expm_taylor a =
  (* reference: plain Taylor series with many terms (inputs are scaled small) *)
  let d = a.Tensor.batch in
  let acc = ref (Tensor.identity d) in
  let term = ref (Tensor.identity d) in
  for k = 1 to 60 do
    term := Tensor.scale (1.0 /. float_of_int k) (Tensor.matmul !term a);
    acc := Tensor.add !acc !term
  done;
  !acc

let expm_matches_taylor =
  qtest ~count:50 "expm matches Taylor reference" (square_gen 4) (fun raw ->
      let a = Tensor.scale 0.2 raw in
      let fast = Tensor.Matfun.expm a in
      let slow = expm_taylor a in
      let ok = ref true in
      for i = 0 to Tensor.numel a - 1 do
        if
          not
            (Test_util.float_close ~tol:1e-7 (Tensor.unsafe_data fast).(i)
               (Tensor.unsafe_data slow).(i))
        then ok := false
      done;
      !ok)

let test_expm_zero () =
  let z = Tensor.create ~batch:3 ~width:3 in
  let e = Tensor.Matfun.expm z in
  Test_util.check_close ~msg:"tr e^0 = d" 3.0 (Tensor.Matfun.trace e)

let test_expm_nilpotent () =
  (* strictly upper triangular: e^A = I + A + A²/2, trace stays d *)
  let a = Tensor.create ~batch:3 ~width:3 in
  Tensor.set a 0 1 2.0;
  Tensor.set a 1 2 3.0;
  let e = Tensor.Matfun.expm a in
  Test_util.check_close ~msg:"trace" 3.0 (Tensor.Matfun.trace e);
  Test_util.check_close ~msg:"(0,1)" 2.0 (Tensor.get e 0 1);
  Test_util.check_close ~msg:"(0,2) = 2*3/2" 3.0 (Tensor.get e 0 2)

let test_expm_diag () =
  let a = Tensor.create ~batch:2 ~width:2 in
  Tensor.set a 0 0 1.0;
  Tensor.set a 1 1 2.0;
  let e = Tensor.Matfun.expm a in
  Test_util.check_close ~msg:"e^1" (Float.exp 1.0) (Tensor.get e 0 0);
  Test_util.check_close ~msg:"e^2" (Float.exp 2.0) (Tensor.get e 1 1);
  Test_util.check_close ~msg:"off-diag" 0.0 (Tensor.get e 0 1)

let test_expm_scaling_path () =
  (* a norm > theta13 exercises the scaling-and-squaring branch *)
  let a = Tensor.create ~batch:2 ~width:2 in
  Tensor.set a 0 0 10.0;
  let e = Tensor.Matfun.expm a in
  Test_util.check_close ~tol:1e-8 ~msg:"e^10" (Float.exp 10.0) (Tensor.get e 0 0)

(* NOTEARS theorem 3.1 sanity: tr(e^A) = d iff A (non-negative) is acyclic *)
let test_notears_criterion () =
  let cyclic = Tensor.create ~batch:2 ~width:2 in
  Tensor.set cyclic 0 1 1.0;
  Tensor.set cyclic 1 0 1.0;
  let acyclic = Tensor.create ~batch:2 ~width:2 in
  Tensor.set acyclic 0 1 1.0;
  let h t = Tensor.Matfun.trace (Tensor.Matfun.expm t) -. 2.0 in
  Alcotest.(check bool) "cyclic > 0" true (h cyclic > 1e-6);
  Test_util.check_close ~msg:"acyclic = 0" 0.0 (h acyclic)

(* -------------------------------------------------------------- segments *)

let test_segments_structure () =
  let seg = Segments.of_lens [| 2; 0; 3 |] in
  Alcotest.(check int) "count" 3 (Segments.count seg);
  Alcotest.(check int) "len" 3 (Segments.seg_len seg 2);
  Alcotest.(check (list int)) "owners" [ 0; 0; 2; 2; 2 ]
    (Array.to_list (Segments.seg_of_index seg))

let seg_gen =
  (* segments + a matching tensor *)
  QCheck2.Gen.(
    bind (pair (int_range 1 3) (list_size (int_range 1 6) (int_range 0 4))) (fun (b, lens) ->
        map
          (fun seed ->
            let seg = Segments.of_lens (Array.of_list lens) in
            let rng = Rng.create seed in
            let width = List.fold_left ( + ) 0 lens in
            let t = Tensor.init ~batch:b ~width (fun _ _ -> Rng.float rng 2.0 -. 1.0) in
            seg, t)
          (int_bound 1_000_000)))

let seg_sum_matches_naive =
  qtest "segment sum matches naive" seg_gen (fun (seg, t) ->
      let out = Segments.sum t seg in
      let owners = Segments.seg_of_index seg in
      let ok = ref true in
      for b = 0 to t.Tensor.batch - 1 do
        for s = 0 to Segments.count seg - 1 do
          let acc = ref 0.0 in
          Array.iteri (fun i o -> if o = s then acc := !acc +. Tensor.get t b i) owners;
          if not (Test_util.float_close !acc (Tensor.get out b s)) then ok := false
        done
      done;
      !ok)

let seg_softmax_sums_to_one =
  qtest "segment softmax sums to 1 per segment" seg_gen (fun (seg, t) ->
      let out = Segments.softmax t seg in
      let sums = Segments.sum out seg in
      let ok = ref true in
      for b = 0 to t.Tensor.batch - 1 do
        for s = 0 to Segments.count seg - 1 do
          if Segments.seg_len seg s > 0 then
            if not (Test_util.float_close 1.0 (Tensor.get sums b s)) then ok := false
        done
      done;
      !ok)

let seg_backends_agree =
  List.map
    (fun (name, run) ->
      qtest
        (Printf.sprintf "backends agree on segment %s" name)
        seg_gen
        (fun (seg, t) ->
          let fast = Tensor.Backend.with_mode Tensor.Backend.Vectorized (fun () -> run t seg) in
          let slow = Tensor.Backend.with_mode Tensor.Backend.Scalar (fun () -> run t seg) in
          let ok = ref true in
          for i = 0 to Tensor.numel fast - 1 do
            if
              not
                (Test_util.float_close (Tensor.unsafe_data fast).(i)
                   (Tensor.unsafe_data slow).(i))
            then ok := false
          done;
          !ok))
    [
      ("softmax", Segments.softmax);
      ("sum", Segments.sum);
    ]

(* ------------------------------------------------- fused propagation *)

let prop_gen mix =
  QCheck2.Gen.(
    map
      (fun (seed, nodes, classes) ->
        let rng = Rng.create seed in
        let prop = Test_util.random_propagation rng ~mix ~nodes ~classes in
        let batch = 1 + Rng.int rng 3 in
        let p = Test_util.separated_probabilities rng ~batch ~width:nodes in
        let cp = Tensor.init ~batch ~width:nodes (fun _ _ -> Rng.float rng 1.0) in
        (prop, p, cp))
      (triple (int_bound 1_000_000) (int_range 1 9) (int_range 1 6)))

let step prop p cp =
  let s = Propagation.scratch prop ~batch:p.Tensor.batch ~steps:1 in
  let out = Tensor.create ~batch:p.Tensor.batch ~width:p.Tensor.width in
  Propagation.forward_into prop s ~out ~p0:(Some p) ~cp;
  (s, out)

(* p'[k] = cp[k] · q[class k], with q from a plain per-class fold *)
let matches_naive prop p cp q_of =
  let _, out = step prop p cp in
  let seg = prop.Propagation.parents in
  let ok = ref true in
  for b = 0 to p.Tensor.batch - 1 do
    Array.iteri
      (fun k c ->
        let parents =
          List.init (Segments.seg_len seg c) (fun i ->
              Tensor.get p b prop.Propagation.edge_node.(seg.Segments.starts.(c) + i))
        in
        let q = if c = prop.Propagation.root then 1.0 else q_of parents in
        if not (Test_util.float_close (Tensor.get cp b k *. q) (Tensor.get out b k)) then
          ok := false)
      prop.Propagation.node_class
  done;
  !ok

let prop_independent_naive =
  qtest "independent step matches naive" (prop_gen Propagation.Independent)
    (fun (prop, p, cp) ->
      matches_naive prop p cp (fun ps ->
          1.0 -. List.fold_left (fun acc x -> acc *. (1.0 -. x)) 1.0 ps))

let prop_correlated_max =
  qtest "correlated step takes the max" (prop_gen Propagation.Correlated)
    (fun (prop, p, cp) ->
      matches_naive prop p cp (fun ps -> List.fold_left Float.max 0.0 ps))

(* Parents at probability exactly 1 zero the product: its gradient must
   still be the product of the other factors (prefix × suffix, no
   division), read here off the step's gradient with respect to p. *)
let prop_zero_safe_gradient =
  qtest "independent gradient is zero-safe" (prop_gen Propagation.Independent)
    (fun (prop, p, cp) ->
      let pd = Tensor.unsafe_data p in
      Array.iteri (fun i x -> if x > 0.6 then pd.(i) <- 1.0) pd;
      let batch = p.Tensor.batch and n = p.Tensor.width in
      let s, _ = step prop p cp in
      (* the adjoint of p'[k] is 1 on one e-node of the first class with
         parents, so gp is d q[c] / d p times cp[k] *)
      let seg = prop.Propagation.parents in
      let root = prop.Propagation.root in
      let target =
        let found = ref None in
        Array.iteri
          (fun k c ->
            if !found = None && c <> root && Segments.seg_len seg c > 0 then found := Some (k, c))
          prop.Propagation.node_class;
        !found
      in
      match target with
      | None -> true
      | Some (k, c) ->
          let g = Tensor.create ~batch ~width:n in
          for b = 0 to batch - 1 do
            Tensor.set g b k 1.0
          done;
          let gp = Tensor.create ~batch ~width:n in
          Propagation.backward_into prop s ~g ~cp ~gp0:(Some gp) ~gcp:None;
          let ok = ref true in
          for b = 0 to batch - 1 do
            let expected = Array.make n 0.0 in
            let start = seg.Segments.starts.(c) and len = Segments.seg_len seg c in
            for e = start to start + len - 1 do
              let others = ref 1.0 in
              for e' = start to start + len - 1 do
                if e' <> e then
                  others := !others *. (1.0 -. Tensor.get p b prop.Propagation.edge_node.(e'))
              done;
              let j = prop.Propagation.edge_node.(e) in
              expected.(j) <- expected.(j) +. (Tensor.get cp b k *. !others)
            done;
            for j = 0 to n - 1 do
              if not (Test_util.float_close expected.(j) (Tensor.get gp b j)) then ok := false
            done
          done;
          !ok)

(* Both backends compute the same bits, forward and backward. *)
let prop_backends_agree =
  List.map
    (fun mix ->
      qtest
        (Printf.sprintf "backends agree (%s)" (Propagation.mix_name mix))
        (prop_gen mix)
        (fun (prop, p, cp) ->
          let run () =
            let s, out = step prop p cp in
            let gp = Tensor.create ~batch:p.Tensor.batch ~width:p.Tensor.width in
            let gcp = Tensor.create ~batch:p.Tensor.batch ~width:p.Tensor.width in
            Propagation.backward_into prop s ~g:cp ~cp ~gp0:(Some gp) ~gcp:(Some gcp);
            [ out; gp; gcp ]
          in
          let fast = Tensor.Backend.with_mode Tensor.Backend.Vectorized run in
          let slow = Tensor.Backend.with_mode Tensor.Backend.Scalar run in
          List.for_all2 Tensor.bits_equal fast slow))
    Propagation.[ Independent; Correlated; Hybrid ]

let test_propagation_rejects_bad_structure () =
  let parents = Segments.of_lens [| 0; 2 |] in
  Alcotest.check_raises "parent e-node out of range"
    (Invalid_argument "Propagation.make: parent e-node 3 outside 3") (fun () ->
      ignore
        (Propagation.make ~mix:Propagation.Hybrid ~edge_node:[| 0; 3 |] ~parents
           ~node_class:[| 0; 1; 1 |] ~root:0));
  let prop =
    Propagation.make ~mix:Propagation.Hybrid ~edge_node:[| 0; 2 |] ~parents
      ~node_class:[| 0; 1; 1 |] ~root:0
  in
  let s = Propagation.scratch prop ~batch:2 ~steps:1 in
  let p = Tensor.create ~batch:1 ~width:3 in
  Alcotest.check_raises "scratch batch"
    (Invalid_argument "Propagation.forward_into: scratch for batch 2, inputs have 1") (fun () ->
      Propagation.forward_into prop s ~out:(Tensor.create ~batch:1 ~width:3) ~p0:(Some p) ~cp:p)

let test_backend_reader () =
  let a = [| 1.5; 2.5 |] in
  Tensor.Backend.with_mode Tensor.Backend.Scalar (fun () ->
      Test_util.check_close ~msg:"scalar read" 2.5 (Tensor.Backend.reader () a 1));
  Tensor.Backend.with_mode Tensor.Backend.Vectorized (fun () ->
      Test_util.check_close ~msg:"vectorized read" 1.5 (Tensor.Backend.reader () a 0));
  Test_util.check_close ~msg:"scalar_read direct" 1.5 (Tensor.Backend.scalar_read a 0)

let test_gather_scatter () =
  let src = Tensor.of_array ~batch:2 ~width:3 [| 1.0; 2.0; 3.0; 4.0; 5.0; 6.0 |] in
  let g = Segments.gather src [| 2; 0; 2 |] in
  Alcotest.(check (list (float 1e-9))) "gather row0" [ 3.0; 1.0; 3.0 ]
    (Array.to_list (Tensor.row g 0));
  let into = Tensor.create ~batch:2 ~width:3 in
  Segments.scatter_add ~into [| 2; 0; 2 |] g;
  (* column 2 receives 3+3, column 0 receives 1 *)
  Test_util.check_close ~msg:"scatter col2" 6.0 (Tensor.get into 0 2);
  Test_util.check_close ~msg:"scatter col0" 1.0 (Tensor.get into 0 0);
  Test_util.check_close ~msg:"scatter col1" 0.0 (Tensor.get into 0 1)

(* ------------------------------------------------------------------ CSR *)

let coo_gen =
  QCheck2.Gen.(
    bind (pair (int_range 1 6) (int_range 1 6)) (fun (r, c) ->
        map
          (fun seed ->
            let rng = Rng.create seed in
            let n = Rng.int rng 12 in
            let triplets =
              List.init n (fun _ -> Rng.int rng r, Rng.int rng c, Rng.float rng 4.0 -. 2.0)
            in
            r, c, triplets)
          (int_bound 1_000_000)))

let csr_spmv_matches_dense =
  qtest "CSR spmv matches dense" coo_gen (fun (r, c, triplets) ->
      let a = Csr.of_coo ~rows:r ~cols:c triplets in
      let rng = Rng.create 3 in
      let x = Array.init c (fun _ -> Rng.float rng 2.0) in
      let y = Csr.spmv a x in
      let dense = Csr.to_dense a in
      let ok = ref true in
      for i = 0 to r - 1 do
        let acc = ref 0.0 in
        for j = 0 to c - 1 do
          acc := !acc +. (Tensor.get dense i j *. x.(j))
        done;
        if not (Test_util.float_close !acc y.(i)) then ok := false
      done;
      !ok)

let csr_transpose_spmv =
  qtest "spmv_t a x = spmv (transpose a) x" coo_gen (fun (r, c, triplets) ->
      let a = Csr.of_coo ~rows:r ~cols:c triplets in
      let rng = Rng.create 4 in
      let x = Array.init r (fun _ -> Rng.float rng 2.0) in
      let y1 = Csr.spmv_t a x in
      let y2 = Csr.spmv (Csr.transpose a) x in
      Array.for_all2 (fun u v -> Test_util.float_close u v) y1 y2)

let csr_spmm_batched_rows =
  qtest "spmm_batched row b = spmv of row b" coo_gen (fun (r, c, triplets) ->
      let a = Csr.of_coo ~rows:r ~cols:c triplets in
      let rng = Rng.create 5 in
      let x = Tensor.init ~batch:3 ~width:c (fun _ _ -> Rng.float rng 2.0) in
      let y = Csr.spmm_batched a x in
      let ok = ref true in
      for b = 0 to 2 do
        let yr = Csr.spmv a (Tensor.row x b) in
        Array.iteri (fun i v -> if not (Test_util.float_close v (Tensor.get y b i)) then ok := false) yr
      done;
      !ok)

let test_csr_dedup () =
  let a = Csr.of_coo ~rows:2 ~cols:2 [ (0, 0, 1.0); (0, 0, 2.0); (1, 1, 3.0) ] in
  Alcotest.(check int) "nnz merged" 2 (Csr.nnz a);
  Test_util.check_close ~msg:"summed" 3.0 (snd (List.hd (Csr.row_entries a 0)));
  let inc = Csr.of_incidence ~rows:2 ~cols:2 [ (0, 1); (0, 1); (1, 0) ] in
  Alcotest.(check int) "incidence dedup" 2 (Csr.nnz inc)

let () =
  Alcotest.run "tensor"
    [
      ( "dense",
        [
          Alcotest.test_case "shapes" `Quick test_shapes;
          Alcotest.test_case "elementwise" `Quick test_elementwise;
          Alcotest.test_case "reductions" `Quick test_reductions;
          backends_agree "add";
          backends_agree "mul";
          backends_agree "matmul_nt";
        ] );
      ( "matmul",
        [
          Alcotest.test_case "known product" `Quick test_matmul_known;
          matmul_identity;
          transpose_involution;
        ] );
      ("lu", [ lu_solves; Alcotest.test_case "singular" `Quick test_lu_singular ]);
      ( "expm",
        [
          expm_matches_taylor;
          Alcotest.test_case "zero" `Quick test_expm_zero;
          Alcotest.test_case "nilpotent" `Quick test_expm_nilpotent;
          Alcotest.test_case "diagonal" `Quick test_expm_diag;
          Alcotest.test_case "scaling path" `Quick test_expm_scaling_path;
          Alcotest.test_case "NOTEARS criterion" `Quick test_notears_criterion;
        ] );
      ( "segments",
        [
          Alcotest.test_case "structure" `Quick test_segments_structure;
          seg_sum_matches_naive;
          Alcotest.test_case "gather/scatter" `Quick test_gather_scatter;
          seg_softmax_sums_to_one;
          Alcotest.test_case "backend reader" `Quick test_backend_reader;
        ]
        @ seg_backends_agree );
      ( "propagation",
        [
          prop_independent_naive;
          prop_correlated_max;
          prop_zero_safe_gradient;
          Alcotest.test_case "rejects bad structure" `Quick
            test_propagation_rejects_bad_structure;
        ]
        @ prop_backends_agree );
      ( "csr",
        [
          csr_spmv_matches_dense;
          csr_transpose_spmv;
          csr_spmm_batched_rows;
          Alcotest.test_case "dedup" `Quick test_csr_dedup;
        ] );
    ]
