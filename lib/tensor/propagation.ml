type mix = Independent | Correlated | Hybrid

type t = {
  mix : mix;
  edge_node : int array;
  parents : Segments.t;
  node_class : int array;
  root : int;
  settle : int array;
  height : int array;
}

let never = max_int

let mix_name = function
  | Independent -> "independent"
  | Correlated -> "correlated"
  | Hybrid -> "hybrid"

(* Settle step per class: 0 for the root and parentless classes, else
   1 + the largest settle step among the classes of its parent e-nodes;
   [never] inside a cycle or below one. Kahn's algorithm over the
   parent-class → class edges (the root's own parents ignored). *)
let settle_steps ~edge_node ~(parents : Segments.t) ~node_class ~root =
  let m = Segments.count parents in
  let starts = parents.Segments.starts and lens = parents.Segments.lens in
  let pending = Array.init m (fun c -> if c = root then 0 else lens.(c)) in
  let out_start = Array.make (m + 1) 0 in
  for c = 0 to m - 1 do
    if c <> root then
      for e = starts.(c) to starts.(c) + lens.(c) - 1 do
        let pc = node_class.(edge_node.(e)) in
        out_start.(pc + 1) <- out_start.(pc + 1) + 1
      done
  done;
  for c = 0 to m - 1 do
    out_start.(c + 1) <- out_start.(c + 1) + out_start.(c)
  done;
  let fill = Array.sub out_start 0 m and out = Array.make out_start.(m) 0 in
  for c = 0 to m - 1 do
    if c <> root then
      for e = starts.(c) to starts.(c) + lens.(c) - 1 do
        let pc = node_class.(edge_node.(e)) in
        out.(fill.(pc)) <- c;
        fill.(pc) <- fill.(pc) + 1
      done
  done;
  let settle = Array.make m never and acc = Array.make m 0 in
  let queue = Queue.create () in
  for c = 0 to m - 1 do
    if pending.(c) = 0 then begin
      settle.(c) <- 0;
      Queue.push c queue
    end
  done;
  while not (Queue.is_empty queue) do
    let pc = Queue.pop queue in
    for i = out_start.(pc) to out_start.(pc + 1) - 1 do
      let c = out.(i) in
      acc.(c) <- Stdlib.max acc.(c) (settle.(pc) + 1);
      pending.(c) <- pending.(c) - 1;
      if pending.(c) = 0 then begin
        settle.(c) <- acc.(c);
        Queue.push c queue
      end
    done
  done;
  settle

(* Height per e-node: 0 without a non-root child class, else 1 + the
   largest height among the e-nodes of its non-root child classes (the
   classes whose parent lists read it); [never] on a cycle or above one.
   Kahn's algorithm from the sinks: a node is final once every parent
   edge that reads it belongs to a final class, a class once all of its
   nodes are, and a final class raises the heights of its parents. *)
let node_heights ~edge_node ~(parents : Segments.t) ~node_class ~root =
  let m = Segments.count parents and n = Array.length node_class in
  let starts = parents.Segments.starts and lens = parents.Segments.lens in
  let pend_node = Array.make n 0 in
  for c = 0 to m - 1 do
    if c <> root then
      for e = starts.(c) to starts.(c) + lens.(c) - 1 do
        pend_node.(edge_node.(e)) <- pend_node.(edge_node.(e)) + 1
      done
  done;
  let height = Array.make n 0 in
  (* per class: nodes not yet final, and the largest final height *)
  let pend_class = Array.make m 0 and class_h = Array.make m (-1) in
  Array.iteri
    (fun k c ->
      if pend_node.(k) > 0 then pend_class.(c) <- pend_class.(c) + 1
      else class_h.(c) <- Stdlib.max class_h.(c) 0)
    node_class;
  let queue = Queue.create () in
  for c = 0 to m - 1 do
    if pend_class.(c) = 0 then Queue.push c queue
  done;
  while not (Queue.is_empty queue) do
    let c = Queue.pop queue in
    if c <> root then
      for e = starts.(c) to starts.(c) + lens.(c) - 1 do
        let k = edge_node.(e) in
        height.(k) <- Stdlib.max height.(k) (class_h.(c) + 1);
        pend_node.(k) <- pend_node.(k) - 1;
        if pend_node.(k) = 0 then begin
          let pc = node_class.(k) in
          class_h.(pc) <- Stdlib.max class_h.(pc) height.(k);
          pend_class.(pc) <- pend_class.(pc) - 1;
          if pend_class.(pc) = 0 then Queue.push pc queue
        end
      done
  done;
  Array.iteri (fun k r -> if r > 0 then height.(k) <- never) pend_node;
  height

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
  {
    mix;
    edge_node;
    parents;
    node_class;
    root;
    settle = settle_steps ~edge_node ~parents ~node_class ~root;
    height = node_heights ~edge_node ~parents ~node_class ~root;
  }

let nodes t = Array.length t.node_class
let classes t = Segments.count t.parents
let edges t = t.parents.Segments.width
let max_parents t = Array.fold_left Stdlib.max 0 t.parents.Segments.lens

type scratch = {
  batch : int;
  steps : int;
  mp : int;
  ph : float array;  (* p⁰ … p^(T−1), row-major per batch row *)
  qh : float array;  (* q¹ … q^T *)
  ah : int array;  (* argmax¹ … argmax^T *)
  gq : float array;
  gbuf : float array;  (* two adjoint rows per batch row, ping-pong *)
  others : float array;
  om : float array;
  full_until : int;  (* forward steps 1 … full_until run the plain loop *)
  fw_cls : int array array;  (* step s: classes with settle step ≥ s *)
  fw_nodes : int array array;  (* step s: their e-nodes *)
  bw_nodes : int array array;  (* step s: e-nodes of height ≥ T − s, ascending *)
  bw_cls : int array array;  (* step s: their non-root classes with parents, ascending *)
  mutable given : bool;  (* the last forward read p⁰ from an argument *)
}

(* For each step s = 0 … steps, the indices i < len with [key i ≥ thr s],
   ascending. [thr] is monotone in s, so the sets nest: visiting the
   steps by rising threshold, each set is filtered from the one before,
   and a step whose set did not shrink shares its array. *)
let windows ~steps ~len ~key ~thr =
  let w = Array.make (steps + 1) [||] and prev = ref (Array.init len Fun.id) in
  let visit s =
    let t = thr s and src = !prev in
    let count = ref 0 in
    Array.iter (fun i -> if key i >= t then incr count) src;
    if !count < Array.length src then begin
      let a = Array.make !count 0 and j = ref 0 in
      Array.iter
        (fun i ->
          if key i >= t then begin
            a.(!j) <- i;
            incr j
          end)
        src;
      prev := a
    end;
    w.(s) <- !prev
  in
  if thr 0 <= thr steps then
    for s = 0 to steps do
      visit s
    done
  else
    for s = steps downto 0 do
      visit s
    done;
  w

let scratch t ~batch ~steps =
  if steps < 1 then invalid_arg (Printf.sprintf "Propagation.scratch: %d steps" steps);
  let n = nodes t and m = classes t and mp = max_parents t in
  let settle = t.settle and height = t.height and cls = t.node_class in
  (* forward: a class recomputes at step s while its settle step is ≥ s *)
  let fw_cls = windows ~steps ~len:m ~key:(fun c -> settle.(c)) ~thr:Fun.id in
  let fw_nodes = windows ~steps ~len:n ~key:(fun k -> settle.(cls.(k))) ~thr:Fun.id in
  let full_until =
    (* the earliest positive settle step ([never] keeps every step
       full); 1 when every class settles at 0 *)
    if Array.for_all (fun st -> st = 0) settle then 1
    else Array.fold_left (fun acc st -> if st >= 1 then Stdlib.min acc st else acc) never settle
  in
  (* backward: the adjoint of p^s can be nonzero only on e-nodes of
     height ≥ T − s, and only their classes pass gradient on *)
  let class_h = Array.make m (-1) in
  Array.iteri (fun k c -> class_h.(c) <- Stdlib.max class_h.(c) height.(k)) cls;
  let spreads c = c <> t.root && t.parents.Segments.lens.(c) > 0 in
  let bw_nodes = windows ~steps ~len:n ~key:(fun k -> height.(k)) ~thr:(fun s -> steps - s) in
  let bw_cls =
    windows ~steps ~len:m
      ~key:(fun c -> if spreads c then class_h.(c) else -1)
      ~thr:(fun s -> steps - s)
  in
  let hist = batch * steps in
  let pairs = if t.mix = Correlated then 0 else batch * mp in
  {
    batch;
    steps;
    mp;
    ph = Array.make (hist * n) 0.0;
    qh = Array.make (hist * m) 0.0;
    ah = (if t.mix = Independent then [||] else Array.make (hist * m) (-1));
    gq = Array.make (batch * m) 0.0;
    gbuf = Array.make (batch * 2 * n) 0.0;
    others = Array.make pairs 0.0;
    om = Array.make pairs 0.0;
    full_until;
    fw_cls;
    fw_nodes;
    bw_nodes;
    bw_cls;
    given = false;
  }

let scratch_words s =
  (* window arrays are shared between consecutive steps *)
  let distinct ws =
    snd
      (Array.fold_left
         (fun (prev, acc) a -> (a, if a == prev then acc else acc + Array.length a))
         ([||], 0) ws)
  in
  Array.length s.ph + Array.length s.qh + Array.length s.ah + Array.length s.gq
  + Array.length s.gbuf + Array.length s.others + Array.length s.om + distinct s.fw_cls
  + distinct s.fw_nodes + distinct s.bw_nodes + distinct s.bw_cls

let check_like name (x : Tensor.t) (like : Tensor.t) =
  if x.Tensor.batch <> like.Tensor.batch || x.Tensor.width <> like.Tensor.width then
    invalid_arg
      (Printf.sprintf "Propagation.%s: (%d,%d) buffer, expected (%d,%d)" name x.Tensor.batch
         x.Tensor.width like.Tensor.batch like.Tensor.width)

let check name t (cp : Tensor.t) s =
  let n = nodes t in
  if cp.Tensor.width <> n then
    invalid_arg
      (Printf.sprintf "Propagation.%s: cp (%d,%d) for %d e-nodes" name cp.Tensor.batch
         cp.Tensor.width n);
  if s.batch <> cp.Tensor.batch then
    invalid_arg
      (Printf.sprintf "Propagation.%s: scratch for batch %d, inputs have %d" name s.batch
         cp.Tensor.batch)

(* Element reads of the Scalar backend go through its boxed indirect
   reader (the Figure 6 baseline); the Vectorized branch is a plain
   load. Inlined, so the Vectorized path boxes nothing. *)
let[@inline] rd scalar a i =
  if scalar then Tensor.Backend.scalar_read a i else Array.unsafe_get a i

(* One dispatch per pass: rows are independent through all T steps (each
   reads and writes only its own slice of every buffer), so any row
   schedule is bit-identical to the sequential loop. *)
let by_rows t s body =
  let w = s.steps * (edges t + nodes t) in
  Parallel.chunks
    ~grain:(Stdlib.max 1 (Parallel.default_grain / Stdlib.max 1 w))
    ~cost:(Stdlib.max 1 w) s.batch body

(* Within a row every expression and every accumulation order is that of
   the unfused composition gather → (1 − ·) → segment product →
   (1 − ·) | segment max → mix → root pin → gather → mul, including its
   staging through freshly zeroed adjoints ([0.0 +. x], [(k *. x) +. 0.0]).
   Each row function is inlined at two call sites, once with [scalar]
   known true and once known false, so the Vectorized copy tests no
   backend per element. *)

(* q and the argmax of class [c] from the marginals at [pd.(pb + ·)]. *)
let[@inline] class_forward scalar ~mix ~root en starts lens pd pb qh ah qb c =
  let start = Array.unsafe_get starts c and len = Array.unsafe_get lens c in
  (* one sweep over the parents: independence, Eq. (6), is 1 − Π (1 − p)
     with the product from 1 in edge order; full correlation, Eq. (7),
     the first strict maximum, 0 over no parents *)
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
  if mix <> Independent then Array.unsafe_set ah (qb + c) !besti;
  let qc =
    match mix with
    | Independent -> 1.0 +. -. !acc
    | Correlated -> !best
    | Hybrid -> 0.5 *. ((1.0 +. -. !acc) +. !best)
  in
  Array.unsafe_set qh (qb + c) (if c = root then 1.0 else qc)

let[@inline] forward_row scalar t s p0d cpd od b =
  let n = nodes t and m = classes t and steps = s.steps in
  let cls = t.node_class and root = t.root and mix = t.mix and en = t.edge_node in
  let starts = t.parents.Segments.starts and lens = t.parents.Segments.lens in
  let ph = s.ph and qh = s.qh and ah = s.ah in
  let cb = b * n and hb = b * steps in
  (match p0d with
  | Some p0d -> Array.blit p0d cb ph (hb * n) n
  | None ->
      (* p⁰ = cp ⊙ q⁰[class], q⁰ = 1 at the root and 0 elsewhere *)
      for k = 0 to n - 1 do
        Array.unsafe_set ph ((hb * n) + k)
          (rd scalar cpd (cb + k) *. if Array.unsafe_get cls k = root then 1.0 else 0.0)
      done);
  (* a given p⁰ is arbitrary, so every class settles one step later *)
  let late = if p0d = None then 0 else 1 in
  for st = 1 to steps do
    let pb = (hb + st - 1) * n and qb = (hb + st - 1) * m in
    let dst = if st = steps then od else ph in
    let db = if st = steps then cb else pb + n in
    if st - late <= s.full_until then begin
      for c = 0 to m - 1 do
        class_forward scalar ~mix ~root en starts lens ph pb qh ah qb c
      done;
      for k = 0 to n - 1 do
        Array.unsafe_set dst (db + k)
          (rd scalar cpd (cb + k) *. Array.unsafe_get qh (qb + Array.unsafe_get cls k))
      done
    end
    else begin
      (* settled classes keep step st − 1's p, q and argmax; the rest
         recompute *)
      Array.blit ph pb dst db n;
      Array.blit qh (qb - m) qh qb m;
      (* a loop, not Array.blit: blitting an int array in the major heap
         goes through the write barrier element by element *)
      if mix <> Independent then
        for c = qb to qb + m - 1 do
          Array.unsafe_set ah c (Array.unsafe_get ah (c - m))
        done;
      let fc = Array.unsafe_get s.fw_cls (st - late) in
      let fnodes = Array.unsafe_get s.fw_nodes (st - late) in
      for i = 0 to Array.length fc - 1 do
        class_forward scalar ~mix ~root en starts lens ph pb qh ah qb (Array.unsafe_get fc i)
      done;
      for i = 0 to Array.length fnodes - 1 do
        let k = Array.unsafe_get fnodes i in
        Array.unsafe_set dst (db + k)
          (rd scalar cpd (cb + k) *. Array.unsafe_get qh (qb + Array.unsafe_get cls k))
      done
    end
  done

let forward_into t s ~out ~p0 ~cp =
  check "forward_into" t cp s;
  check_like "forward_into" out cp;
  (match p0 with Some p -> check_like "forward_into" p cp | None -> ());
  s.given <- p0 <> None;
  let p0d = Option.map Tensor.unsafe_data p0 in
  let cpd = Tensor.unsafe_data cp and od = Tensor.unsafe_data out in
  if Tensor.Backend.current () = Tensor.Backend.Scalar then
    by_rows t s (fun blo bhi ->
        for b = blo to bhi - 1 do
          forward_row true t s p0d cpd od b
        done)
  else
    by_rows t s (fun blo bhi ->
        for b = blo to bhi - 1 do
          forward_row false t s p0d cpd od b
        done)

(* Spread the adjoint of q[c] over c's parent edges into [td.(tb + ·)],
   reading the marginals [pd.(pb + ·)] the forward step read. *)
let[@inline] class_backward scalar ~mix en starts lens ah gq others om pd pb qb ob gqb td tb c =
  let start = Array.unsafe_get starts c and len = Array.unsafe_get lens c in
  let gmix = 0.0 +. Array.unsafe_get gq (gqb + c) in
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
  (* d ind / d Π, then Π's product-of-others by prefix and suffix sweeps
     (zero-safe, no division) *)
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
  let besti = if mix = Independent then -1 else Array.unsafe_get ah (qb + c) in
  for e = start to start + len - 1 do
    (* the max's adjoint lands on the first strict maximum only *)
    let gmax = if e = besti then 0.0 +. gcor else 0.0 in
    let ge =
      if mix = Correlated then gmax
      else
        let g3 = 0.0 +. (gprod *. Array.unsafe_get others (ob + e - start)) in
        (-1.0 *. (0.0 +. g3)) +. gmax
    in
    let j = tb + Array.unsafe_get en e in
    Array.unsafe_set td j (Array.unsafe_get td j +. ge)
  done

let[@inline] backward_row scalar t s gd cpd gp0 gcp b =
  let n = nodes t and m = classes t and steps = s.steps in
  let cls = t.node_class and root = t.root and mix = t.mix and en = t.edge_node in
  let starts = t.parents.Segments.starts and lens = t.parents.Segments.lens in
  let ph = s.ph and qh = s.qh and ah = s.ah and gq = s.gq and gbuf = s.gbuf in
  let others = s.others and om = s.om in
  let cb = b * n and hb = b * steps and gqb = b * m and ob = b * s.mp and gbb = b * 2 * n in
  for st = steps downto 1 do
    (* the adjoint of p^st: the op's output at st = T, else a ping-pong row *)
    let gsrc = if st = steps then gd else gbuf in
    let gb = if st = steps then cb else gbb + ((st land 1) * n) in
    let pb = (hb + st - 1) * n and qb = (hb + st - 1) * m in
    let wn = Array.unsafe_get s.bw_nodes st in
    Array.fill gq gqb m 0.0;
    (* p^st = cp ⊙ q[class]: cp's adjoint, and q's through the gather *)
    (match gcp with
    | Some gcpd ->
        for i = 0 to Array.length wn - 1 do
          let k = Array.unsafe_get wn i in
          let c = Array.unsafe_get cls k and gk = rd scalar gsrc (gb + k) in
          Array.unsafe_set gcpd (cb + k)
            (Array.unsafe_get gcpd (cb + k) +. (gk *. Array.unsafe_get qh (qb + c)));
          Array.unsafe_set gq (gqb + c)
            (Array.unsafe_get gq (gqb + c) +. (0.0 +. (gk *. rd scalar cpd (cb + k))))
        done
    | None ->
        for i = 0 to Array.length wn - 1 do
          let k = Array.unsafe_get wn i in
          let c = gqb + Array.unsafe_get cls k in
          Array.unsafe_set gq c
            (Array.unsafe_get gq c +. (0.0 +. (rd scalar gsrc (gb + k) *. rd scalar cpd (cb + k))))
        done);
    (* the adjoint of p^(st−1): into gp0 at st = 1 when p⁰ was an
       argument, else into the other ping-pong row, freshly zeroed *)
    let into_gp0 = st = 1 && s.given in
    let spread = (not into_gp0) || gp0 <> None in
    if spread then begin
      let td = if into_gp0 then Option.get gp0 else gbuf in
      let tb = if into_gp0 then cb else gbb + (((st - 1) land 1) * n) in
      if not into_gp0 then Array.fill gbuf tb n 0.0;
      let wc = Array.unsafe_get s.bw_cls st in
      for i = 0 to Array.length wc - 1 do
        class_backward scalar ~mix en starts lens ah gq others om ph pb qb ob gqb td tb
          (Array.unsafe_get wc i)
      done
    end
  done;
  (* p⁰ = cp ⊙ q⁰[class] built in the op: its product's cp adjoint *)
  match gcp with
  | Some gcpd when not s.given ->
      let w0 = Array.unsafe_get s.bw_nodes 0 in
      for i = 0 to Array.length w0 - 1 do
        let k = Array.unsafe_get w0 i in
        let q0 = if Array.unsafe_get cls k = root then 1.0 else 0.0 in
        Array.unsafe_set gcpd (cb + k)
          (Array.unsafe_get gcpd (cb + k) +. (Array.unsafe_get gbuf (gbb + k) *. q0))
      done
  | Some _ | None -> ()

let backward_into t s ~g ~cp ~gp0 ~gcp =
  check "backward_into" t cp s;
  check_like "backward_into" g cp;
  (match gp0 with
  | Some x ->
      if not s.given then
        invalid_arg "Propagation.backward_into: p⁰ was built from cp, it has no adjoint";
      check_like "backward_into" x cp
  | None -> ());
  (match gcp with Some x -> check_like "backward_into" x cp | None -> ());
  let cpd = Tensor.unsafe_data cp and gd = Tensor.unsafe_data g in
  let gp0d = Option.map Tensor.unsafe_data gp0 and gcpd = Option.map Tensor.unsafe_data gcp in
  if Tensor.Backend.current () = Tensor.Backend.Scalar then
    by_rows t s (fun blo bhi ->
        for b = blo to bhi - 1 do
          backward_row true t s gd cpd gp0d gcpd b
        done)
  else
    by_rows t s (fun blo bhi ->
        for b = blo to bhi - 1 do
          backward_row false t s gd cpd gp0d gcpd b
        done)
