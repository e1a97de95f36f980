type mix = Independent | Correlated | Hybrid

type t = {
  mix : mix;
  edge_node : int array;
  parents : Segments.t;
  node_class : int array;
  root : int;
}

let mix_name = function
  | Independent -> "independent"
  | Correlated -> "correlated"
  | Hybrid -> "hybrid"

let make ~mix ~edge_node ~parents ~node_class ~root =
  let n = Array.length node_class and m = Segments.count parents in
  if Array.length edge_node <> parents.Segments.width then
    invalid_arg
      (Printf.sprintf "Propagation.make: %d parent edges, segments cover %d"
         (Array.length edge_node) parents.Segments.width);
  if root < 0 || root >= m then
    invalid_arg (Printf.sprintf "Propagation.make: root %d outside %d classes" root m);
  Array.iter
    (fun k ->
      if k < 0 || k >= n then
        invalid_arg (Printf.sprintf "Propagation.make: parent e-node %d outside %d" k n))
    edge_node;
  Array.iter
    (fun c ->
      if c < 0 || c >= m then
        invalid_arg (Printf.sprintf "Propagation.make: e-node class %d outside %d" c m))
    node_class;
  { mix; edge_node; parents; node_class; root }

let nodes t = Array.length t.node_class
let classes t = Segments.count t.parents
let edges t = t.parents.Segments.width
let max_parents t = Array.fold_left Stdlib.max 0 t.parents.Segments.lens

type scratch = {
  batch : int;
  mp : int;
  q : float array;
  arg : int array;
  gq : float array;
  others : float array;
  om : float array;
}

let scratch t ~batch =
  let bm = batch * classes t in
  {
    batch;
    mp = max_parents t;
    q = Array.make bm 0.0;
    arg = (if t.mix = Independent then [||] else Array.make bm (-1));
    gq = Array.make bm 0.0;
    others = (if t.mix = Correlated then [||] else Array.make (batch * max_parents t) 0.0);
    om = (if t.mix = Correlated then [||] else Array.make (batch * max_parents t) 0.0);
  }

let scratch_words s =
  Array.length s.q + Array.length s.arg + Array.length s.gq + Array.length s.others
  + Array.length s.om

let check name t (p : Tensor.t) (cp : Tensor.t) s =
  let n = nodes t in
  if p.Tensor.width <> n || cp.Tensor.width <> n || p.Tensor.batch <> cp.Tensor.batch then
    invalid_arg
      (Printf.sprintf "Propagation.%s: p (%d,%d) and cp (%d,%d) for %d e-nodes" name
         p.Tensor.batch p.Tensor.width cp.Tensor.batch cp.Tensor.width n);
  if s.batch <> p.Tensor.batch then
    invalid_arg
      (Printf.sprintf "Propagation.%s: scratch for batch %d, inputs have %d" name s.batch
         p.Tensor.batch)

let check_like name (x : Tensor.t) (like : Tensor.t) =
  if x.Tensor.batch <> like.Tensor.batch || x.Tensor.width <> like.Tensor.width then
    invalid_arg
      (Printf.sprintf "Propagation.%s: (%d,%d) buffer, expected (%d,%d)" name x.Tensor.batch
         x.Tensor.width like.Tensor.batch like.Tensor.width)

(* Element reads of the Scalar backend go through its boxed indirect
   reader (the Figure 6 baseline); the Vectorized branch is a plain
   load. Inlined, so the Vectorized path boxes nothing. *)
let[@inline] rd scalar a i =
  if scalar then Tensor.Backend.scalar_read a i else Array.unsafe_get a i

let by_rows t batch body =
  let w = edges t + nodes t in
  Parallel.chunks
    ~grain:(Stdlib.max 1 (Parallel.default_grain / Stdlib.max 1 w))
    ~cost:(Stdlib.max 1 w) batch body

(* The kernels work one batch row at a time. Rows are independent in
   both directions (each reads and writes only its own slice of every
   buffer), so any row schedule is bit-identical to the sequential loop.
   Within a row every expression and every accumulation order is that
   of the unfused composition gather → (1 − ·) → segment product →
   (1 − ·) | segment max → mix → root pin → gather → mul, including its
   staging through freshly zeroed adjoints ([0.0 +. x],
   [(k *. x) +. 0.0]). Each row function is inlined at two call sites,
   once with [scalar] known true and once known false, so the
   Vectorized copy tests no backend per element. *)
let[@inline] forward_row scalar t s pd cpd od b =
  let n = nodes t and m = classes t in
  let en = t.edge_node and cls = t.node_class in
  let starts = t.parents.Segments.starts and lens = t.parents.Segments.lens in
  let q = s.q and arg = s.arg in
  let root = t.root and mix = t.mix in
  let pb = b * n and qb = b * m in
  for c = 0 to m - 1 do
    let start = Array.unsafe_get starts c and len = Array.unsafe_get lens c in
    (* one sweep over the parents: independence, Eq. (6), is
       1 − Π (1 − p) with the product from 1 in edge order; full
       correlation, Eq. (7), the first strict maximum, 0 over no
       parents *)
    let acc = ref 1.0 in
    let best = ref (if len = 0 then 0.0 else rd scalar pd (pb + Array.unsafe_get en start)) in
    let besti = ref (if len = 0 then -1 else start) in
    for e = start to start + len - 1 do
      let v = rd scalar pd (pb + Array.unsafe_get en e) in
      if mix <> Correlated then acc := !acc *. (1.0 +. -.v);
      if v > !best then begin
        best := v;
        besti := e
      end
    done;
    if mix <> Independent then arg.(qb + c) <- !besti;
    let qc =
      match mix with
      | Independent -> 1.0 +. -. !acc
      | Correlated -> !best
      | Hybrid -> 0.5 *. ((1.0 +. -. !acc) +. !best)
    in
    q.(qb + c) <- (if c = root then 1.0 else qc)
  done;
  for k = pb to pb + n - 1 do
    Array.unsafe_set od k
      (rd scalar cpd k *. Array.unsafe_get q (qb + Array.unsafe_get cls (k - pb)))
  done

let forward_into t s ~out ~p ~cp =
  check "forward_into" t p cp s;
  check_like "forward_into" out p;
  let pd = Tensor.unsafe_data p and cpd = Tensor.unsafe_data cp in
  let od = Tensor.unsafe_data out in
  if Tensor.Backend.current () = Tensor.Backend.Scalar then
    by_rows t p.Tensor.batch (fun blo bhi ->
        for b = blo to bhi - 1 do
          forward_row true t s pd cpd od b
        done)
  else
    by_rows t p.Tensor.batch (fun blo bhi ->
        for b = blo to bhi - 1 do
          forward_row false t s pd cpd od b
        done)

let[@inline] backward_row scalar t s pd cpd gd gp gcp b =
  let n = nodes t and m = classes t and mp = s.mp in
  let en = t.edge_node and cls = t.node_class in
  let starts = t.parents.Segments.starts and lens = t.parents.Segments.lens in
  let q = s.q and arg = s.arg and gq = s.gq and others = s.others and om = s.om in
  let root = t.root and mix = t.mix in
  let pb = b * n and qb = b * m and ob = b * mp in
  (* p' = cp ⊙ q[class]: cp's adjoint, and q's through the gather *)
  Array.fill gq qb m 0.0;
  (match gcp with
  | Some gcpt ->
      let gcpd = Tensor.unsafe_data gcpt in
      for k = pb to pb + n - 1 do
        let c = qb + Array.unsafe_get cls (k - pb) and gk = rd scalar gd k in
        Array.unsafe_set gcpd k (Array.unsafe_get gcpd k +. (gk *. Array.unsafe_get q c));
        Array.unsafe_set gq c (Array.unsafe_get gq c +. (0.0 +. (gk *. rd scalar cpd k)))
      done
  | None ->
      for k = pb to pb + n - 1 do
        let c = qb + Array.unsafe_get cls (k - pb) in
        Array.unsafe_set gq c
          (Array.unsafe_get gq c +. (0.0 +. (rd scalar gd k *. rd scalar cpd k)))
      done);
  match gp with
  | None -> ()
  | Some gpt ->
      let gpd = Tensor.unsafe_data gpt in
      for c = 0 to m - 1 do
        let start = Array.unsafe_get starts c and len = Array.unsafe_get lens c in
        (* the root pin passes no gradient *)
        let gmix = 0.0 +. (if c = root then 0.0 else Array.unsafe_get gq (qb + c)) in
        (* hybrid: the 0.5 scale, then the sum's two operands *)
        let gind =
          match mix with
          | Independent -> gmix
          | Correlated -> 0.0
          | Hybrid -> 0.0 +. ((0.5 *. gmix) +. 0.0)
        in
        let gcor =
          match mix with
          | Independent -> 0.0
          | Correlated -> gmix
          | Hybrid -> 0.0 +. ((0.5 *. gmix) +. 0.0)
        in
        (* d ind / d Π, then Π's product-of-others by prefix and
           suffix sweeps (zero-safe, no division) *)
        let gprod = (-1.0 *. (0.0 +. gind)) +. 0.0 in
        if mix <> Correlated then begin
          let acc = ref 1.0 in
          for e = start to start + len - 1 do
            let o = ob + e - start in
            let x = 1.0 +. -.rd scalar pd (pb + Array.unsafe_get en e) in
            Array.unsafe_set om o x;
            Array.unsafe_set others o !acc;
            acc := !acc *. x
          done;
          let acc = ref 1.0 in
          for o = ob + len - 1 downto ob do
            Array.unsafe_set others o (Array.unsafe_get others o *. !acc);
            acc := !acc *. Array.unsafe_get om o
          done
        end;
        let besti = if mix = Independent then -1 else Array.unsafe_get arg (qb + c) in
        for e = start to start + len - 1 do
          (* the max's adjoint lands on the first strict maximum only *)
          let gmax = if e = besti then 0.0 +. gcor else 0.0 in
          let ge =
            if mix = Correlated then gmax
            else
              let g3 = 0.0 +. (gprod *. Array.unsafe_get others (ob + e - start)) in
              (-1.0 *. (0.0 +. g3)) +. gmax
          in
          let j = pb + Array.unsafe_get en e in
          Array.unsafe_set gpd j (Array.unsafe_get gpd j +. ge)
        done
      done

let backward_into t s ~g ~p ~cp ~gp ~gcp =
  check "backward_into" t p cp s;
  check_like "backward_into" g p;
  (match gp with Some x -> check_like "backward_into" x p | None -> ());
  (match gcp with Some x -> check_like "backward_into" x p | None -> ());
  let pd = Tensor.unsafe_data p and cpd = Tensor.unsafe_data cp in
  let gd = Tensor.unsafe_data g in
  if Tensor.Backend.current () = Tensor.Backend.Scalar then
    by_rows t p.Tensor.batch (fun blo bhi ->
        for b = blo to bhi - 1 do
          backward_row true t s pd cpd gd gp gcp b
        done)
  else
    by_rows t p.Tensor.batch (fun blo bhi ->
        for b = blo to bhi - 1 do
          backward_row false t s pd cpd gd gp gcp b
        done)
