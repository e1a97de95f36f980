type t = { data : float array; batch : int; width : int }

module Backend = struct
  type mode = Vectorized | Scalar

  (* Domain-local: [Device.run] installs the mode around a whole
     extraction, and under the pool that extraction lives on one
     domain — per-domain state lets concurrent pool tasks run
     different backends (the phases sweep pits scalar against
     vectorised cases). Kernels read the mode once at entry, on the
     task's own domain, so the chunk bodies a Vectorized kernel fans
     out never re-read it. Fresh domains start Vectorized. *)
  let mode_key : mode ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref Vectorized)

  let set m = Domain.DLS.get mode_key := m
  let current () = !(Domain.DLS.get mode_key)

  let with_mode m f =
    let cell = Domain.DLS.get mode_key in
    let saved = !cell in
    cell := m;
    Fun.protect ~finally:(fun () -> cell := saved) f

  (* The Scalar execution model: every element access goes through an
     indirect call (a mutable function cell the compiler cannot inline,
     like an interpreter's dispatch) and boxes its result. This is the
     honest stand-in for the paper's unvectorised CPU baseline; the
     Vectorized mode reads flat arrays in fused loops. *)
  let scalar_read_cell : (float array -> int -> float) ref =
    ref (fun a i ->
        let r = ref (Array.get a i) in
        Sys.opaque_identity !r)

  let scalar_read a i = (Sys.opaque_identity !scalar_read_cell) a i

  let reader () =
    match current () with
    | Vectorized -> fun (a : float array) i -> Array.unsafe_get a i
    | Scalar -> scalar_read
end

(* Allocation accounting (8 bytes per float element). One branch when
   the observability sink is off; a counter bump when it is on. *)
let count_alloc n = if !Obs.on then Metrics.incr ~by:(float_of_int (8 * n)) "tensor.bytes_allocated"

let create ~batch ~width =
  count_alloc (batch * width);
  { data = Array.make (batch * width) 0.0; batch; width }

let full ~batch ~width x =
  count_alloc (batch * width);
  { data = Array.make (batch * width) x; batch; width }

let of_array ~batch ~width data =
  if Array.length data <> batch * width then
    invalid_arg
      (Printf.sprintf "Tensor.of_array: %d elements for shape (%d, %d)" (Array.length data) batch
         width);
  count_alloc (batch * width);
  { data; batch; width }

let of_row src =
  count_alloc (Array.length src);
  { data = Array.copy src; batch = 1; width = Array.length src }

let copy t =
  count_alloc (Array.length t.data);
  { t with data = Array.copy t.data }

let identity d =
  let t = create ~batch:d ~width:d in
  for i = 0 to d - 1 do
    t.data.((i * d) + i) <- 1.0
  done;
  t

let init ~batch ~width f =
  count_alloc (batch * width);
  let data = Array.make (batch * width) 0.0 in
  for b = 0 to batch - 1 do
    for i = 0 to width - 1 do
      data.((b * width) + i) <- f b i
    done
  done;
  { data; batch; width }

let get t b i = t.data.((b * t.width) + i)
let set t b i x = t.data.((b * t.width) + i) <- x
let numel t = t.batch * t.width
let row t b = Array.sub t.data (b * t.width) t.width
let blit_row ~src t b = Array.blit src 0 t.data (b * t.width) t.width
let fill t x = Array.fill t.data 0 (Array.length t.data) x
let unsafe_data t = t.data

let check_same_shape name a b =
  if a.batch <> b.batch || a.width <> b.width then
    invalid_arg
      (Printf.sprintf "Tensor.%s: shape mismatch (%d,%d) vs (%d,%d)" name a.batch a.width b.batch
         b.width)

(* Elementwise kernels. Each [_into] kernel is one direct loop over flat
   arrays with the op chosen by a tag inside the loop, not a closure
   called per element, so the Vectorized branch boxes no float; the
   allocating kernels are [create] plus the matching [_into] call. The
   Scalar backend goes element-by-element through an indirect call,
   with checked accesses and boxed values — an honest model of the
   paper's unvectorised CPU baseline, computing identical results; it
   stays sequential for the same reason. The Vectorized branches run
   under [Parallel.chunks]: elementwise bodies write disjoint indices,
   so any chunk schedule is bit-identical to the sequential loop. None
   of the [_into] kernels bump [tensor.bytes_allocated]. *)

let like a = create ~batch:a.batch ~width:a.width

let fresh a fill =
  let out = like a in
  fill out;
  out

type binop = Add | Sub | Mul

let[@inline] binop op x y = match op with Add -> x +. y | Sub -> x -. y | Mul -> x *. y

let binop_into name op ~out a b =
  check_same_shape name a b;
  check_same_shape name out a;
  let n = numel a and da = a.data and db = b.data and dd = out.data in
  match Backend.current () with
  | Backend.Vectorized ->
      Parallel.chunks n (fun lo hi ->
          for i = lo to hi - 1 do
            Array.unsafe_set dd i (binop op (Array.unsafe_get da i) (Array.unsafe_get db i))
          done)
  | Backend.Scalar ->
      let f = Sys.opaque_identity (fun x y -> binop op x y) in
      for i = 0 to n - 1 do
        let x = Backend.scalar_read da i in
        let y = Backend.scalar_read db i in
        Array.set dd i (f x y)
      done

type unop = Neg | Scale | Shift | Relu

let[@inline] unop op k x =
  match op with
  | Neg -> -.x
  | Scale -> k *. x
  | Shift -> k +. x
  | Relu -> if x > 0.0 then x else 0.0

let unop_into name op k ~out a =
  check_same_shape name out a;
  let n = numel a and da = a.data and dd = out.data in
  match Backend.current () with
  | Backend.Vectorized ->
      Parallel.chunks n (fun lo hi ->
          for i = lo to hi - 1 do
            Array.unsafe_set dd i (unop op k (Array.unsafe_get da i))
          done)
  | Backend.Scalar ->
      let f = Sys.opaque_identity (fun x -> unop op k x) in
      for i = 0 to n - 1 do
        Array.set dd i (f (Backend.scalar_read da i))
      done

let add_into ~out a b = binop_into "add_into" Add ~out a b
let sub_into ~out a b = binop_into "sub_into" Sub ~out a b
let mul_into ~out a b = binop_into "mul_into" Mul ~out a b
let neg_into ~out a = unop_into "neg_into" Neg 0.0 ~out a
let scale_into ~out k a = unop_into "scale_into" Scale k ~out a
let add_scalar_into ~out k a = unop_into "add_scalar_into" Shift k ~out a
let relu_into ~out a = unop_into "relu_into" Relu 0.0 ~out a

let add a b = fresh a (fun out -> add_into ~out a b)
let sub a b = fresh a (fun out -> sub_into ~out a b)
let mul a b = fresh a (fun out -> mul_into ~out a b)
let neg a = fresh a (fun out -> neg_into ~out a)
let scale k a = fresh a (fun out -> scale_into ~out k a)
let add_scalar k a = fresh a (fun out -> add_scalar_into ~out k a)
let relu a = fresh a (fun out -> relu_into ~out a)

(* General maps call [f] per element (boxing on the Vectorized path
   too); nothing on the replayed path uses them. *)
let map f a =
  let out = like a in
  (match Backend.current () with
  | Backend.Vectorized ->
      let da = a.data and dd = out.data in
      Parallel.chunks (numel a) (fun lo hi ->
          for i = lo to hi - 1 do
            Array.unsafe_set dd i (f (Array.unsafe_get da i))
          done)
  | Backend.Scalar ->
      for i = 0 to numel a - 1 do
        let x = Backend.scalar_read a.data i in
        Array.set out.data i ((Sys.opaque_identity f) x)
      done);
  out

let map2_named name f a b =
  check_same_shape name a b;
  let out = like a in
  (match Backend.current () with
  | Backend.Vectorized ->
      let da = a.data and db = b.data and dd = out.data in
      Parallel.chunks (numel a) (fun lo hi ->
          for i = lo to hi - 1 do
            Array.unsafe_set dd i (f (Array.unsafe_get da i) (Array.unsafe_get db i))
          done)
  | Backend.Scalar ->
      for i = 0 to numel a - 1 do
        let x = Backend.scalar_read a.data i in
        let y = Backend.scalar_read b.data i in
        Array.set out.data i ((Sys.opaque_identity f) x y)
      done);
  out

let map2 f a b = map2_named "map2" f a b
let div a b = map2_named "div" ( /. ) a b
let exp a = map Stdlib.exp a

let log_floor = 1e-30

let log_safe a = map (fun x -> Stdlib.log (Float.max x log_floor)) a

let clamp ~lo ~hi a = map (fun x -> Float.min hi (Float.max lo x)) a

let add_inplace dst src =
  check_same_shape "add_inplace" dst src;
  let n = numel dst in
  match Backend.current () with
  | Backend.Vectorized ->
      Parallel.chunks n (fun lo hi ->
          for i = lo to hi - 1 do
            Array.unsafe_set dst.data i
              (Array.unsafe_get dst.data i +. Array.unsafe_get src.data i)
          done)
  | Backend.Scalar ->
      for i = 0 to n - 1 do
        let x = Backend.scalar_read dst.data i and y = Backend.scalar_read src.data i in
        Array.set dst.data i (x +. y)
      done

let axpy a x y =
  check_same_shape "axpy" x y;
  let n = numel x in
  match Backend.current () with
  | Backend.Vectorized ->
      Parallel.chunks n (fun lo hi ->
          for i = lo to hi - 1 do
            Array.unsafe_set y.data i
              ((a *. Array.unsafe_get x.data i) +. Array.unsafe_get y.data i)
          done)
  | Backend.Scalar ->
      for i = 0 to n - 1 do
        let xv = Backend.scalar_read x.data i and yv = Backend.scalar_read y.data i in
        Array.set y.data i ((a *. xv) +. yv)
      done

let scale_inplace k t =
  let n = numel t in
  Parallel.chunks n (fun lo hi ->
      for i = lo to hi - 1 do
        Array.unsafe_set t.data i (k *. Array.unsafe_get t.data i)
      done)

let sum t = Array.fold_left ( +. ) 0.0 t.data

let mean t =
  let n = numel t in
  if n = 0 then 0.0 else sum t /. float_of_int n

let max_value t = Array.fold_left Float.max neg_infinity t.data

let dot a b =
  check_same_shape "dot" a b;
  let acc = ref 0.0 in
  for i = 0 to numel a - 1 do
    acc := !acc +. (Array.unsafe_get a.data i *. Array.unsafe_get b.data i)
  done;
  !acc

let sum_rows t =
  let out = Array.make t.batch 0.0 in
  for b = 0 to t.batch - 1 do
    let acc = ref 0.0 in
    let base = b * t.width in
    for i = 0 to t.width - 1 do
      acc := !acc +. Array.unsafe_get t.data (base + i)
    done;
    out.(b) <- !acc
  done;
  out

let abs_max t = Array.fold_left (fun acc x -> Float.max acc (Float.abs x)) 0.0 t.data

let all_finite t =
  let n = numel t in
  let ok = ref true in
  let i = ref 0 in
  while !ok && !i < n do
    if not (Float.is_finite (Array.unsafe_get t.data !i)) then ok := false;
    incr i
  done;
  !ok

let norm1_matrix t =
  if t.batch <> t.width then invalid_arg "Tensor.norm1_matrix: not square";
  let d = t.width in
  let best = ref 0.0 in
  for j = 0 to d - 1 do
    let col = ref 0.0 in
    for i = 0 to d - 1 do
      col := !col +. Float.abs t.data.((i * d) + j)
    done;
    if !col > !best then best := !col
  done;
  !best

let mean_rows t =
  let out = create ~batch:1 ~width:t.width in
  let inv = 1.0 /. float_of_int (max 1 t.batch) in
  for b = 0 to t.batch - 1 do
    let base = b * t.width in
    for i = 0 to t.width - 1 do
      out.data.(i) <- out.data.(i) +. t.data.(base + i)
    done
  done;
  for i = 0 to t.width - 1 do
    out.data.(i) <- out.data.(i) *. inv
  done;
  out

let copy_into ~out src =
  check_same_shape "copy_into" out src;
  Array.blit src.data 0 out.data 0 (numel src)

let transpose_into ~out t =
  if out.batch <> t.width || out.width <> t.batch then
    invalid_arg
      (Printf.sprintf "Tensor.transpose_into: out (%d,%d) for input (%d,%d)" out.batch out.width
         t.batch t.width);
  if out.data == t.data then invalid_arg "Tensor.transpose_into: out aliases input";
  for b = 0 to t.batch - 1 do
    for i = 0 to t.width - 1 do
      out.data.((i * t.batch) + b) <- t.data.((b * t.width) + i)
    done
  done

let matmul_nt_into ~out a b =
  if a.width <> b.width then
    invalid_arg
      (Printf.sprintf "Tensor.matmul_nt_into: inner dims differ (%d vs %d)" a.width b.width);
  if out.batch <> a.batch || out.width <> b.batch then
    invalid_arg
      (Printf.sprintf "Tensor.matmul_nt_into: out (%d,%d) for result (%d,%d)" out.batch out.width
         a.batch b.batch);
  if out.data == a.data || out.data == b.data then
    invalid_arg "Tensor.matmul_nt_into: out aliases an input";
  let p = a.batch and q = b.batch and n = a.width in
  match Backend.current () with
  | Backend.Vectorized ->
      let row_cost = Stdlib.max 1 (q * n) in
      Parallel.chunks
        ~grain:(Stdlib.max 1 (Parallel.default_grain / row_cost))
        ~cost:row_cost p
        (fun ilo ihi ->
          for i = ilo to ihi - 1 do
            let abase = i * n in
            for j = 0 to q - 1 do
              let bbase = j * n in
              let acc = ref 0.0 in
              for k = 0 to n - 1 do
                acc :=
                  !acc
                  +. (Array.unsafe_get a.data (abase + k) *. Array.unsafe_get b.data (bbase + k))
              done;
              out.data.((i * q) + j) <- !acc
            done
          done)
  | Backend.Scalar ->
      let read = Backend.scalar_read in
      let dot_row i j =
        let acc = ref 0.0 in
        for k = 0 to n - 1 do
          acc := !acc +. (read a.data ((i * n) + k) *. read b.data ((j * n) + k))
        done;
        !acc
      in
      for i = 0 to p - 1 do
        for j = 0 to q - 1 do
          Array.set out.data ((i * q) + j) (dot_row i j)
        done
      done

let matmul_nt a b =
  if a.width <> b.width then
    invalid_arg
      (Printf.sprintf "Tensor.matmul_nt: inner dims differ (%d vs %d)" a.width b.width);
  let out = create ~batch:a.batch ~width:b.batch in
  matmul_nt_into ~out a b;
  out

let transpose t =
  let out = create ~batch:t.width ~width:t.batch in
  transpose_into ~out t;
  out

let matmul a b = matmul_nt a (transpose b)

let bits_equal a b =
  a.batch = b.batch && a.width = b.width
  &&
  let n = numel a in
  let ok = ref true in
  let i = ref 0 in
  while !ok && !i < n do
    if
      Int64.bits_of_float (Array.unsafe_get a.data !i)
      <> Int64.bits_of_float (Array.unsafe_get b.data !i)
    then ok := false;
    incr i
  done;
  !ok

module Lu = struct
  type factors = { lu : t; perm : int array }

  (* Shared elimination core: factor the square matrix held in [m]
     (row-major, dimension [d]) in place, recording row swaps in
     [perm]. *)
  let factorize m perm d =
    for k = 0 to d - 1 do
      (* Partial pivoting: bring the largest remaining |entry| of column k up. *)
      let pivot = ref k in
      let best = ref (Float.abs m.((k * d) + k)) in
      for i = k + 1 to d - 1 do
        let v = Float.abs m.((i * d) + k) in
        if v > !best then begin
          best := v;
          pivot := i
        end
      done;
      if !best < 1e-14 then failwith "Lu.decompose: singular matrix";
      if !pivot <> k then begin
        for j = 0 to d - 1 do
          let tmp = m.((k * d) + j) in
          m.((k * d) + j) <- m.((!pivot * d) + j);
          m.((!pivot * d) + j) <- tmp
        done;
        let tp = perm.(k) in
        perm.(k) <- perm.(!pivot);
        perm.(!pivot) <- tp
      end;
      let pk = m.((k * d) + k) in
      (match Backend.current () with
      | Backend.Vectorized ->
          for i = k + 1 to d - 1 do
            let factor = Array.unsafe_get m ((i * d) + k) /. pk in
            m.((i * d) + k) <- factor;
            for j = k + 1 to d - 1 do
              Array.unsafe_set m ((i * d) + j)
                (Array.unsafe_get m ((i * d) + j) -. (factor *. Array.unsafe_get m ((k * d) + j)))
            done
          done
      | Backend.Scalar ->
          let read = Backend.scalar_read in
          for i = k + 1 to d - 1 do
            let factor = read m ((i * d) + k) /. pk in
            m.((i * d) + k) <- factor;
            for j = k + 1 to d - 1 do
              Array.set m ((i * d) + j) (read m ((i * d) + j) -. (factor *. read m ((k * d) + j)))
            done
          done)
    done

  let decompose a =
    if a.batch <> a.width then invalid_arg "Lu.decompose: not square";
    let d = a.width in
    let lu = copy a in
    let perm = Array.init d (fun i -> i) in
    factorize lu.data perm d;
    { lu; perm }

  let preallocate d =
    if d < 1 then invalid_arg "Lu.preallocate: dimension must be positive";
    { lu = create ~batch:d ~width:d; perm = Array.init d (fun i -> i) }

  let decompose_into f a =
    if a.batch <> a.width then invalid_arg "Lu.decompose_into: not square";
    check_same_shape "Lu.decompose_into" f.lu a;
    let d = a.width in
    Array.blit a.data 0 f.lu.data 0 (numel a);
    for i = 0 to d - 1 do
      f.perm.(i) <- i
    done;
    factorize f.lu.data f.perm d

  let solve_into ~out f b =
    let d = f.lu.width in
    if b.batch <> d then invalid_arg "Lu.solve_into: rhs row count mismatch";
    check_same_shape "Lu.solve_into" out b;
    let cols = b.width in
    let m = f.lu.data in
    let x = out in
    (* Apply the row permutation, then forward- and back-substitute. *)
    for i = 0 to d - 1 do
      Array.blit b.data (f.perm.(i) * cols) x.data (i * cols) cols
    done;
    (* direct reads on the Vectorized path: no closure, no boxing *)
    let scalar = Backend.current () = Backend.Scalar in
    let[@inline] read a i = if scalar then Backend.scalar_read a i else Array.unsafe_get a i in
    for i = 1 to d - 1 do
      for k = 0 to i - 1 do
        let lik = m.((i * d) + k) in
        if lik <> 0.0 then
          for c = 0 to cols - 1 do
            x.data.((i * cols) + c) <- read x.data ((i * cols) + c) -. (lik *. read x.data ((k * cols) + c))
          done
      done
    done;
    for i = d - 1 downto 0 do
      for k = i + 1 to d - 1 do
        let uik = m.((i * d) + k) in
        if uik <> 0.0 then
          for c = 0 to cols - 1 do
            x.data.((i * cols) + c) <- read x.data ((i * cols) + c) -. (uik *. read x.data ((k * cols) + c))
          done
      done;
      let uii = m.((i * d) + i) in
      for c = 0 to cols - 1 do
        x.data.((i * cols) + c) <- read x.data ((i * cols) + c) /. uii
      done
    done

  let solve f b =
    let x = create ~batch:f.lu.width ~width:b.width in
    solve_into ~out:x f b;
    x
end

module Matfun = struct
  let trace t =
    if t.batch <> t.width then invalid_arg "Matfun.trace: not square";
    let d = t.width in
    let acc = ref 0.0 in
    for i = 0 to d - 1 do
      acc := !acc +. t.data.((i * d) + i)
    done;
    !acc

  (* Degree-13 Padé coefficients (Higham, "The scaling and squaring method
     for the matrix exponential revisited", 2005). *)
  let pade13 =
    [|
      64764752532480000.0;
      32382376266240000.0;
      7771770303897600.0;
      1187353796428800.0;
      129060195264000.0;
      10559470521600.0;
      670442572800.0;
      33522128640.0;
      1323241920.0;
      40840800.0;
      960960.0;
      16380.0;
      182.0;
      1.0;
    |]

  let theta13 = 5.371920351148152

  let expm a =
    if a.batch <> a.width then invalid_arg "Matfun.expm: not square";
    let d = a.width in
    if d = 0 then create ~batch:0 ~width:0
    else if d = 1 then of_array ~batch:1 ~width:1 [| Stdlib.exp a.data.(0) |]
    else begin
      let norm = norm1_matrix a in
      let s =
        if norm <= theta13 then 0
        else int_of_float (Float.ceil (Float.log (norm /. theta13) /. Float.log 2.0))
      in
      if !Obs.on then begin
        Metrics.incr "tensor.matexp_calls";
        Metrics.incr ~by:(float_of_int s) "tensor.matexp_squarings";
        Metrics.observe "tensor.matexp_dim" (float_of_int d)
      end;
      let x = if s = 0 then copy a else scale (1.0 /. (2.0 ** float_of_int s)) a in
      let b = pade13 in
      let eye = identity d in
      let x2 = matmul x x in
      let x4 = matmul x2 x2 in
      let x6 = matmul x2 x4 in
      (* U = X (X6 (b13 X6 + b11 X4 + b9 X2) + b7 X6 + b5 X4 + b3 X2 + b1 I) *)
      let inner_u =
        let acc = scale b.(13) x6 in
        axpy b.(11) x4 acc;
        axpy b.(9) x2 acc;
        acc
      in
      let u_body = matmul x6 inner_u in
      axpy b.(7) x6 u_body;
      axpy b.(5) x4 u_body;
      axpy b.(3) x2 u_body;
      axpy b.(1) eye u_body;
      let u = matmul x u_body in
      (* V = X6 (b12 X6 + b10 X4 + b8 X2) + b6 X6 + b4 X4 + b2 X2 + b0 I *)
      let inner_v =
        let acc = scale b.(12) x6 in
        axpy b.(10) x4 acc;
        axpy b.(8) x2 acc;
        acc
      in
      let v = matmul x6 inner_v in
      axpy b.(6) x6 v;
      axpy b.(4) x4 v;
      axpy b.(2) x2 v;
      axpy b.(0) eye v;
      (* r = (V - U)^{-1} (V + U), then repeated squaring undoes the scaling. *)
      let vmu = sub v u in
      let vpu = add v u in
      let r = ref (Lu.solve (Lu.decompose vmu) vpu) in
      for _ = 1 to s do
        r := matmul !r !r
      done;
      !r
    end

  (* Preallocated workspace for [expm_into]: every intermediate the
     allocating [expm] creates, owned by the caller and reused across
     iterations. [w_tt] is the shared transpose scratch behind the
     matmul-via-[matmul_nt] steps; [w_r0]/[w_r1] alternate through the
     squaring phase, so the result lands in one of them — valid until
     the next [expm_into] call on this workspace. *)
  type ws = {
    wdim : int;
    w_x : t;
    w_tt : t;
    w_x2 : t;
    w_x4 : t;
    w_x6 : t;
    w_acc_u : t;
    w_u_body : t;
    w_u : t;
    w_acc_v : t;
    w_v : t;
    w_vmu : t;
    w_vpu : t;
    w_eye : t;
    w_lu : Lu.factors;
    w_r0 : t;
    w_r1 : t;
  }

  let workspace d =
    if d < 1 then invalid_arg "Matfun.workspace: dimension must be positive";
    let sq () = create ~batch:d ~width:d in
    {
      wdim = d;
      w_x = sq ();
      w_tt = sq ();
      w_x2 = sq ();
      w_x4 = sq ();
      w_x6 = sq ();
      w_acc_u = sq ();
      w_u_body = sq ();
      w_u = sq ();
      w_acc_v = sq ();
      w_v = sq ();
      w_vmu = sq ();
      w_vpu = sq ();
      w_eye = identity d;
      w_lu = Lu.preallocate d;
      w_r0 = sq ();
      w_r1 = sq ();
    }

  let expm_into ws a =
    if a.batch <> a.width then invalid_arg "Matfun.expm_into: not square";
    if a.width <> ws.wdim then
      invalid_arg
        (Printf.sprintf "Matfun.expm_into: workspace dim %d for input dim %d" ws.wdim a.width);
    let d = a.width in
    if d = 1 then begin
      ws.w_r0.data.(0) <- Stdlib.exp a.data.(0);
      ws.w_r0
    end
    else begin
      let norm = norm1_matrix a in
      let s =
        if norm <= theta13 then 0
        else int_of_float (Float.ceil (Float.log (norm /. theta13) /. Float.log 2.0))
      in
      if !Obs.on then begin
        Metrics.incr "tensor.matexp_calls";
        Metrics.incr ~by:(float_of_int s) "tensor.matexp_squarings";
        Metrics.observe "tensor.matexp_dim" (float_of_int d)
      end;
      (* matmul via the shared transpose scratch, mirroring
         [matmul a b = matmul_nt a (transpose b)] *)
      let mm out a b =
        transpose_into ~out:ws.w_tt b;
        matmul_nt_into ~out a ws.w_tt
      in
      let x = ws.w_x in
      if s = 0 then copy_into ~out:x a else scale_into ~out:x (1.0 /. (2.0 ** float_of_int s)) a;
      let b = pade13 in
      let eye = ws.w_eye in
      let x2 = ws.w_x2 and x4 = ws.w_x4 and x6 = ws.w_x6 in
      mm x2 x x;
      mm x4 x2 x2;
      mm x6 x2 x4;
      let inner_u = ws.w_acc_u in
      scale_into ~out:inner_u b.(13) x6;
      axpy b.(11) x4 inner_u;
      axpy b.(9) x2 inner_u;
      let u_body = ws.w_u_body in
      mm u_body x6 inner_u;
      axpy b.(7) x6 u_body;
      axpy b.(5) x4 u_body;
      axpy b.(3) x2 u_body;
      axpy b.(1) eye u_body;
      let u = ws.w_u in
      mm u x u_body;
      let inner_v = ws.w_acc_v in
      scale_into ~out:inner_v b.(12) x6;
      axpy b.(10) x4 inner_v;
      axpy b.(8) x2 inner_v;
      let v = ws.w_v in
      mm v x6 inner_v;
      axpy b.(6) x6 v;
      axpy b.(4) x4 v;
      axpy b.(2) x2 v;
      axpy b.(0) eye v;
      sub_into ~out:ws.w_vmu v u;
      add_into ~out:ws.w_vpu v u;
      Lu.decompose_into ws.w_lu ws.w_vmu;
      Lu.solve_into ~out:ws.w_r0 ws.w_lu ws.w_vpu;
      let cur = ref ws.w_r0 and other = ref ws.w_r1 in
      for _ = 1 to s do
        mm !other !cur !cur;
        let tmp = !cur in
        cur := !other;
        other := tmp
      done;
      !cur
    end
end

let pp fmt t =
  Format.fprintf fmt "@[<v>tensor (%d, %d)" t.batch t.width;
  let max_rows = min t.batch 6 and max_cols = min t.width 10 in
  for b = 0 to max_rows - 1 do
    Format.fprintf fmt "@,[";
    for i = 0 to max_cols - 1 do
      Format.fprintf fmt "%s%.4g" (if i > 0 then "; " else "") (get t b i)
    done;
    if t.width > max_cols then Format.fprintf fmt "; ...";
    Format.fprintf fmt "]"
  done;
  if t.batch > max_rows then Format.fprintf fmt "@,...";
  Format.fprintf fmt "@]"
