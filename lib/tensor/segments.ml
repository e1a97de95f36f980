type t = {
  starts : int array;
  lens : int array;
  width : int;
  mutable owners : int array option;  (* cache for seg_of_index *)
}

let of_lens lens =
  let count = Array.length lens in
  let starts = Array.make count 0 in
  let acc = ref 0 in
  for s = 0 to count - 1 do
    if lens.(s) < 0 then invalid_arg "Segments.of_lens: negative length";
    starts.(s) <- !acc;
    acc := !acc + lens.(s)
  done;
  { starts; lens; width = !acc; owners = None }

let count seg = Array.length seg.starts
let seg_len seg s = seg.lens.(s)

(* Guards the [owners] cache of every segmentation. Always taken — an
   unsynchronised fast-path read of the [Some] could observe the
   option before the array contents under the OCaml memory model —
   and cold (once per AD tape node, not per element). *)
let owners_lock = Mutex.create ()

let seg_of_index seg =
  Mutex.protect owners_lock (fun () ->
      match seg.owners with
      | Some owner -> owner
      | None ->
          let owner = Array.make seg.width (-1) in
          for s = 0 to count seg - 1 do
            for i = seg.starts.(s) to seg.starts.(s) + seg.lens.(s) - 1 do
              owner.(i) <- s
            done
          done;
          seg.owners <- Some owner;
          owner)

(* Element reads: the Scalar backend's boxed indirect reader, or a
   plain load. Inlined into each kernel's loop, so the Vectorized path
   boxes no float. *)
let[@inline] rd scalar a i =
  if scalar then Tensor.Backend.scalar_read a i else Array.unsafe_get a i

let scalar () = Tensor.Backend.current () = Tensor.Backend.Scalar

(* Segment-kernel launch counter: one bump per entry point, labelled by
   op, so runs can report how many segment ops an extraction issued. *)
let count_op name =
  if !Obs.on then begin
    Metrics.incr "tensor.segment_ops";
    Metrics.incr ("tensor.segment_ops." ^ name)
  end

(* Segment kernels chunk over batch *rows*: each row reads and writes
   its own slice, so any row schedule is bit-identical to the
   sequential loop (per-element accumulation order within a row never
   changes). Grain keeps chunks near [Parallel.default_grain] elements
   of actual work; [~cost] makes the sequential cutoff count elements
   too, not rows. *)
let row_grain width = Stdlib.max 1 (Parallel.default_grain / Stdlib.max 1 width)

let by_rows width batch body =
  Parallel.chunks ~grain:(row_grain width) ~cost:(Stdlib.max 1 width) batch body

let check_width name seg (x : Tensor.t) =
  if x.Tensor.width <> seg.width then
    invalid_arg
      (Printf.sprintf "Segments.%s: tensor width %d, segments cover %d" name x.Tensor.width
         seg.width)

(* Each kernel has a preallocated [_into] core (used directly by the
   plan replay engine — no allocation, same launch counters) and an
   allocating wrapper. The cores write every element of [out] that any
   segment covers; since segments tile [0, width), coverage is total
   for the same-width kernels, and the reduction kernels write every
   (row, segment) cell — so reusing an output buffer across calls is
   safe. *)

let check_out name (out : Tensor.t) ~batch ~width =
  if out.Tensor.batch <> batch || out.Tensor.width <> width then
    invalid_arg
      (Printf.sprintf "Segments.%s: out (%d,%d), expected (%d,%d)" name out.Tensor.batch
         out.Tensor.width batch width)

let softmax_into ~out x seg =
  check_width "softmax" seg x;
  check_out "softmax_into" out ~batch:x.Tensor.batch ~width:x.Tensor.width;
  count_op "softmax";
  let src = Tensor.unsafe_data x and dst = Tensor.unsafe_data out in
  let scalar = scalar () in
  let w = seg.width in
  by_rows w x.Tensor.batch (fun blo bhi ->
      for b = blo to bhi - 1 do
        let base = b * w in
        for s = 0 to count seg - 1 do
          let start = base + seg.starts.(s) and len = seg.lens.(s) in
          if len > 0 then begin
            let m = ref neg_infinity in
            for i = start to start + len - 1 do
              let v = rd scalar src i in
              if v > !m then m := v
            done;
            let z = ref 0.0 in
            for i = start to start + len - 1 do
              let e = Stdlib.exp (rd scalar src i -. !m) in
              dst.(i) <- e;
              z := !z +. e
            done;
            let inv = 1.0 /. !z in
            for i = start to start + len - 1 do
              dst.(i) <- dst.(i) *. inv
            done
          end
        done
      done)

let softmax x seg =
  let out = Tensor.create ~batch:x.Tensor.batch ~width:x.Tensor.width in
  softmax_into ~out x seg;
  out

let sum_into ~out x seg =
  check_width "sum" seg x;
  let nsegs = count seg in
  check_out "sum_into" out ~batch:x.Tensor.batch ~width:nsegs;
  count_op "sum";
  let src = Tensor.unsafe_data x and dst = Tensor.unsafe_data out in
  let scalar = scalar () in
  let w = seg.width in
  by_rows w x.Tensor.batch (fun blo bhi ->
      for b = blo to bhi - 1 do
        let base = b * w in
        for s = 0 to nsegs - 1 do
          let start = base + seg.starts.(s) and len = seg.lens.(s) in
          let acc = ref 0.0 in
          for i = start to start + len - 1 do
            acc := !acc +. rd scalar src i
          done;
          dst.((b * nsegs) + s) <- !acc
        done
      done)

let sum x seg =
  let out = Tensor.create ~batch:x.Tensor.batch ~width:(count seg) in
  sum_into ~out x seg;
  out

let gather_into ~out src idx =
  let n = Array.length idx in
  check_out "gather_into" out ~batch:src.Tensor.batch ~width:n;
  count_op "gather";
  let s = Tensor.unsafe_data src and d = Tensor.unsafe_data out in
  let m = src.Tensor.width in
  (match Tensor.Backend.current () with
  | Tensor.Backend.Vectorized ->
      by_rows n src.Tensor.batch (fun blo bhi ->
          for b = blo to bhi - 1 do
            let sbase = b * m and dbase = b * n in
            for e = 0 to n - 1 do
              Array.unsafe_set d (dbase + e)
                (Array.unsafe_get s (sbase + Array.unsafe_get idx e))
            done
          done)
  | Tensor.Backend.Scalar ->
      for b = 0 to src.Tensor.batch - 1 do
        for e = 0 to n - 1 do
          Array.set d ((b * n) + e) (Tensor.Backend.scalar_read s ((b * m) + Array.get idx e))
        done
      done)

let gather src idx =
  let out = Tensor.create ~batch:src.Tensor.batch ~width:(Array.length idx) in
  gather_into ~out src idx;
  out

let scatter_add ~into idx src =
  count_op "scatter_add";
  let n = Array.length idx in
  if src.Tensor.width <> n then invalid_arg "Segments.scatter_add: width/index mismatch";
  if src.Tensor.batch <> into.Tensor.batch then
    invalid_arg "Segments.scatter_add: batch mismatch";
  let s = Tensor.unsafe_data src and d = Tensor.unsafe_data into in
  let scalar = scalar () in
  let m = into.Tensor.width in
  (* rows write disjoint destination slices even when [idx] repeats an
     index: collisions stay within a row, in sequential order *)
  by_rows n src.Tensor.batch (fun blo bhi ->
      for b = blo to bhi - 1 do
        let sbase = b * n and dbase = b * m in
        for e = 0 to n - 1 do
          let j = dbase + idx.(e) in
          d.(j) <- d.(j) +. rd scalar s (sbase + e)
        done
      done)
