(* Dataflow analysis that gates the replay engine: def-use chains,
   forward+backward liveness, fusion discovery, arena assignment by
   interval-graph colouring, and an independent verification of the
   resulting placement. The timeline interleaves both sweeps: node [i]'s
   forward step runs at time [i], its backward pull at [2n-1-i], so a
   buffer's live range is one contiguous interval and strict disjointness
   is exactly "safe to share a slot". Op behaviour (which operand values
   a pull re-reads, which ops fuse) comes from the {!Plan} op facts —
   the same table the replay engine executes, so the analysis and the
   engine cannot drift apart silently. *)

module D = Diagnostic

type interval = { lo : int; hi : int; numel : int; pinned : bool }

type report = {
  nodes : int;
  root : int;
  feeds_root : bool array;
  carries : bool array;
  chains : int array array;
  intervals : interval option array;
  reads : int list array;
  slot_sizes : int array;
  assign : int array;
  arena_bytes : int;
  dedicated_bytes : int;
  naive_bytes : int;
  diags : D.t list;
}

let numel_of (ir : Ad.Ir.t) i =
  let s = ir.(i).Ad.Ir.shape in
  s.Ad.Ir.batch * s.Ad.Ir.width

(* ---- Fusion discovery --------------------------------------------- *)

(* Maximal runs c1..ck of unary elementwise ops where every member but
   the last is consumed exactly once (by the next member) and is neither
   an output, the root, nor a requested gradient. Greedy over ascending
   ids: a fusable node not yet absorbed is necessarily a run head,
   because an eligible predecessor would have absorbed it already. *)
let find_chains ir ~n ~cons ~is_output ~requested ~root =
  let fusable i =
    Plan.fusable_elementwise ir.(i).Ad.Ir.op && Array.length ir.(i).Ad.Ir.args = 1
  in
  let extendable c =
    (not (is_output.(c) || c = root || requested.(c)))
    &&
    match cons.(c) with
    | [ j ] -> fusable j && ir.(j).Ad.Ir.shape = ir.(c).Ad.Ir.shape
    | _ -> false
  in
  let in_chain = Array.make n false in
  let chains = ref [] in
  let blocked = ref [] in
  for i = 0 to n - 1 do
    if fusable i && not in_chain.(i) then begin
      let run = ref [ i ] in
      let cur = ref i in
      while extendable !cur do
        match cons.(!cur) with
        | [ j ] ->
            run := j :: !run;
            cur := j
        | _ -> assert false
      done;
      let cs = Array.of_list (List.rev !run) in
      if Array.length cs >= 2 then begin
        Array.iter (fun c -> in_chain.(c) <- true) cs;
        chains := cs :: !chains
      end
    end
  done;
  let chains = Array.of_list (List.rev !chains) in
  let chain_of = Array.make n (-1) in
  Array.iteri (fun ci cs -> Array.iter (fun c -> chain_of.(c) <- ci) cs) chains;
  (* adjacent fusable pairs that did not land in one chain: report why *)
  for i = 0 to n - 1 do
    if fusable i then
      List.iter
        (fun j ->
          if
            fusable j
            && ir.(j).Ad.Ir.args = [| i |]
            && (chain_of.(i) < 0 || chain_of.(i) <> chain_of.(j))
          then begin
            let reason =
              if is_output.(i) then "its value is an extraction output"
              else if i = root then "it is the loss root"
              else if requested.(i) then "its gradient is requested"
              else
                let others = List.filter (fun c -> c <> j) cons.(i) in
                match others with
                | c :: _ ->
                    let nd = ir.(c) in
                    let seg_note =
                      match nd.Ad.Ir.meta with
                      | Ad.Ir.M_segments { seg_count; _ } ->
                          Printf.sprintf " over %d segments" seg_count
                      | _ -> ""
                    in
                    Printf.sprintf "its value is also consumed by node %d (%s%s)" c
                      nd.Ad.Ir.op seg_note
                | [] -> "of an interior use"
            in
            blocked :=
              D.info ~code:"PL005" (D.Tape_node i)
                "fusion of %s (node %d) into %s (node %d) blocked: %s — built in %s"
                ir.(i).Ad.Ir.op i ir.(j).Ad.Ir.op j reason ir.(i).Ad.Ir.context
              :: !blocked
          end)
        cons.(i)
  done;
  (chains, chain_of, List.rev !blocked)

(* ---- Stability (PL006 / PL007) ------------------------------------ *)

let meta_desc : Ad.Ir.meta -> string = function
  | Ad.Ir.M_none -> "none"
  | M_scalar k -> Printf.sprintf "scalar %g" k
  | M_gather { count; index_min; index_max } ->
      Printf.sprintf "gather of %d indices in [%d, %d]" count index_min index_max
  | M_segments { seg_count; seg_width; empty_segments; max_len } ->
      Printf.sprintf "%d segments over %d elements (%d empty, max len %d)" seg_count
        seg_width empty_segments max_len
  | M_propagation { mix; nodes; classes; edges; steps; _ } ->
      Printf.sprintf "%s propagation of %d steps over %d e-nodes, %d classes, %d parent edges"
        (Propagation.mix_name mix) steps nodes classes edges
  | M_row r -> Printf.sprintf "row %d" r
  | M_width w -> Printf.sprintf "%d coefficients" w
  | M_matrix { dim; _ } -> Printf.sprintf "%dx%d scatter" dim dim

let stability (ir1 : Ad.Ir.t) (ir2 : Ad.Ir.t) =
  let n1 = Array.length ir1 and n2 = Array.length ir2 in
  if n1 <> n2 then
    [
      D.error ~code:"PL006" D.Graph
        "iteration-2 IR records %d nodes where iteration-1 recorded %d — the graph is not \
         iteration-stable, replay falls back to interpreted mode"
        n2 n1;
    ]
  else begin
    let diag = ref None in
    let i = ref 0 in
    while !diag = None && !i < n1 do
      let a = ir1.(!i) and b = ir2.(!i) in
      if not (String.equal a.Ad.Ir.op b.Ad.Ir.op) then
        diag :=
          Some
            (D.error ~code:"PL006" (D.Tape_node !i) "op %s became %s between captures"
               a.Ad.Ir.op b.Ad.Ir.op)
      else if a.args <> b.args then
        diag :=
          Some
            (D.error ~code:"PL006" (D.Tape_node !i) "%s: operand set changed between captures"
               a.Ad.Ir.op)
      else if a.shape <> b.shape then
        diag :=
          Some
            (D.error ~code:"PL006" (D.Tape_node !i) "%s: shape %s became %s between captures"
               a.Ad.Ir.op
               (Ad.Ir.shape_to_string a.shape)
               (Ad.Ir.shape_to_string b.shape))
      else if not (String.equal a.context b.context) then
        diag :=
          Some
            (D.error ~code:"PL006" (D.Tape_node !i)
               "%s: provenance %s became %s between captures" a.Ad.Ir.op a.context b.context)
      else if a.meta <> b.meta then
        diag :=
          Some
            (D.error ~code:"PL007" (D.Tape_node !i)
               "%s: non-reusable dynamic metadata changed between captures (%s became %s)"
               a.Ad.Ir.op (meta_desc a.meta) (meta_desc b.meta));
      incr i
    done;
    match !diag with Some d -> [ d ] | None -> []
  end

(* ---- Analysis ----------------------------------------------------- *)

let rec analyze ?(grads = [||]) ~root ~outputs (ir : Ad.Ir.t) =
  let n = Array.length ir in
  let tn = 2 * n in
  let empty_report diags =
    {
      nodes = n;
      root;
      feeds_root = Array.make n false;
      carries = Array.make n false;
      chains = [||];
      intervals = Array.make tn None;
      reads = Array.make tn [];
      slot_sizes = [||];
      assign = Array.make tn (-1);
      arena_bytes = 0;
      dedicated_bytes = 0;
      naive_bytes = 0;
      diags;
    }
  in
  if n = 0 then empty_report []
  else if root < 0 || root >= n then
    empty_report [ D.error ~code:"PL006" D.Graph "root node %d out of range" root ]
  else begin
    let unsupported = ref [] in
    Array.iteri
      (fun i nd ->
        if not (Plan.op_supported nd.Ad.Ir.op) then
          unsupported :=
            D.warning ~code:"PL008" (D.Tape_node i)
              "op %s (built in %s) has no replay kernel — the plan is disabled and \
               extraction stays interpreted"
              nd.Ad.Ir.op nd.Ad.Ir.context
            :: !unsupported)
      ir;
    if !unsupported <> [] then empty_report (List.rev !unsupported)
    else begin
      let is_output = Array.make n false in
      Array.iter (fun i -> if i >= 0 && i < n then is_output.(i) <- true) outputs;
      is_output.(root) <- true;
      let requested = Array.make n false in
      Array.iter (fun i -> if i >= 0 && i < n then requested.(i) <- true) grads;
      let leaf i = Plan.is_leaf ir.(i).Ad.Ir.op in
      (* def-use: consumers in descending id order *)
      let cons = Array.make n [] in
      Array.iteri
        (fun i nd -> Array.iter (fun a -> cons.(a) <- i :: cons.(a)) nd.Ad.Ir.args)
        ir;
      let feeds_root = Array.make n false in
      feeds_root.(root) <- true;
      for i = n - 1 downto 0 do
        if feeds_root.(i) && not (leaf i) then
          Array.iter (fun a -> feeds_root.(a) <- true) ir.(i).Ad.Ir.args
      done;
      let carries = Array.make n false in
      for i = 0 to n - 1 do
        carries.(i) <-
          String.equal ir.(i).Ad.Ir.op "param"
          || requested.(i)
          || Array.exists (fun a -> carries.(a)) ir.(i).Ad.Ir.args
      done;
      let chains, chain_of, fusion_diags =
        find_chains ir ~n ~cons ~is_output ~requested ~root
      in
      let chain_head = Array.make n (-1) in
      let chain_last = Array.make n false in
      Array.iter
        (fun cs ->
          Array.iter (fun c -> chain_head.(c) <- cs.(0)) cs;
          chain_last.(cs.(Array.length cs - 1)) <- true)
        chains;
      let member i = chain_head.(i) >= 0 in
      let interior i = member i && not (chain_last.(i)) in
      (* gradient materialisation, mirroring Plan.compile *)
      let grad_mat =
        Array.init n (fun i ->
            (i = root || (feeds_root.(i) && carries.(i))) && not (interior i))
      in
      let has_gbuf = Array.init n (fun i -> grad_mat.(i) || (requested.(i) && not (interior i))) in
      (* which positions emit a backward step *)
      let emits_bwd =
        Array.init n (fun j ->
            if member j then
              chain_head.(j) = j
              && grad_mat.(chains.(chain_of.(j)).(Array.length chains.(chain_of.(j)) - 1))
            else (not (leaf j)) && grad_mat.(j))
      in
      let bp j = tn - 1 - j in
      (* buffer existence *)
      let has_vbuf i = (not (leaf i)) && not (interior i) in
      let reads = Array.make tn [] in
      let read_v i t = reads.(i) <- t :: reads.(i) in
      let read_g i t = reads.(n + i) <- t :: reads.(n + i) in
      (* forward reads: each executing step reads its buffered args *)
      for j = 0 to n - 1 do
        if (not (member j)) || chain_head.(j) = j then
          Array.iter (fun a -> if has_vbuf a then read_v a j) ir.(j).Ad.Ir.args
      done;
      (* backward value reads, from the op-fact table *)
      for j = 0 to n - 1 do
        if emits_bwd.(j) && not (member j) then begin
          let nd = ir.(j) in
          Array.iteri
            (fun k a ->
              if Plan.backward_reads_arg nd.Ad.Ir.op k && has_vbuf a then read_v a (bp j))
            nd.Ad.Ir.args;
          if Plan.backward_reads_self nd.Ad.Ir.op && has_vbuf j then read_v j (bp j)
        end
      done;
      (* gradient writers double as reads (accumulation is
         read-modify-write), and each pull reads its own adjoint *)
      let grad_lo = Array.make n max_int in
      for j = 0 to n - 1 do
        if emits_bwd.(j) then begin
          let t = bp j in
          if member j then begin
            (* the jam writes the chain input's gradient and reads the
               chain output's *)
            let cs = chains.(chain_of.(j)) in
            let x = ir.(cs.(0)).Ad.Ir.args.(0) in
            let last = cs.(Array.length cs - 1) in
            if has_gbuf.(x) then begin
              read_g x t;
              if t < grad_lo.(x) then grad_lo.(x) <- t
            end;
            read_g last t
          end
          else begin
            Array.iter
              (fun a ->
                if has_gbuf.(a) then begin
                  read_g a t;
                  if t < grad_lo.(a) then grad_lo.(a) <- t
                end)
              ir.(j).Ad.Ir.args;
            read_g j t
          end
        end
      done;
      (* intervals *)
      let intervals = Array.make tn None in
      for i = 0 to n - 1 do
        if has_vbuf i then begin
          let def = if chain_last.(i) then chain_head.(i) else i in
          let pinned = is_output.(i) in
          let hi =
            if pinned then tn - 1 else List.fold_left Stdlib.max def reads.(i)
          in
          intervals.(i) <- Some { lo = def; hi; numel = numel_of ir i; pinned }
        end;
        if has_gbuf.(i) then begin
          let pinned = i = root || requested.(i) || leaf i in
          let def = if i = root then n - 1 else if grad_lo.(i) = max_int then n - 1 else grad_lo.(i) in
          let hi =
            if pinned then tn - 1 else List.fold_left Stdlib.max def reads.(n + i)
          in
          intervals.(n + i) <- Some { lo = def; hi; numel = numel_of ir i; pinned }
        end
      done;
      (* arena assignment: greedy linear scan within exact-size classes,
         strictly disjoint intervals only *)
      let assign = Array.make tn (-1) in
      let order =
        let ids = ref [] in
        for b = tn - 1 downto 0 do
          match intervals.(b) with
          (* zero-numel buffers (empty gathers) stay dedicated: a
             zero-byte slot shares nothing worth sharing *)
          | Some iv when (not iv.pinned) && iv.numel > 0 -> ids := b :: !ids
          | _ -> ()
        done;
        List.sort
          (fun b1 b2 ->
            let i1 = Option.get intervals.(b1) and i2 = Option.get intervals.(b2) in
            if i1.lo <> i2.lo then compare i1.lo i2.lo else compare b1 b2)
          !ids
      in
      let slot_sizes = ref [] and slot_his = ref [] and nslots = ref 0 in
      List.iter
        (fun b ->
          let iv = Option.get intervals.(b) in
          let rec place idx sizes his =
            match (sizes, his) with
            | [], [] ->
                slot_sizes := !slot_sizes @ [ iv.numel ];
                slot_his := !slot_his @ [ ref iv.hi ];
                assign.(b) <- !nslots;
                incr nslots
            | sz :: sizes', hi :: his' ->
                if sz = iv.numel && !hi < iv.lo then begin
                  hi := iv.hi;
                  assign.(b) <- idx
                end
                else place (idx + 1) sizes' his'
            | _ -> assert false
          in
          place 0 !slot_sizes !slot_his)
        order;
      let slot_sizes = Array.of_list !slot_sizes in
      (* byte accounting *)
      let arena_bytes = 8 * Array.fold_left ( + ) 0 slot_sizes in
      let dedicated_bytes =
        let acc = ref 0 in
        for b = 0 to tn - 1 do
          match intervals.(b) with
          | Some iv when assign.(b) = -1 ->
              (* leaf values alias the capture; everything else pinned
                 or unassigned is a real dedicated buffer *)
              if not (b < n && leaf b) then acc := !acc + iv.numel
          | _ -> ()
        done;
        8 * !acc
      in
      let naive_bytes =
        let acc = ref 0 in
        for i = 0 to n - 1 do
          if not (leaf i) then acc := !acc + numel_of ir i;
          if feeds_root.(i) then acc := !acc + numel_of ir i
        done;
        8 * !acc
      in
      let report =
        {
          nodes = n;
          root;
          feeds_root;
          carries;
          chains;
          intervals;
          reads;
          slot_sizes;
          assign;
          arena_bytes;
          dedicated_bytes;
          naive_bytes;
          diags = [];
        }
      in
      let chain_infos =
        Array.to_list
          (Array.map
             (fun cs ->
               let k = Array.length cs in
               D.info ~code:"PL004" (D.Tape_node cs.(0))
                 "fusable elementwise run of %d ops (%s at node %d .. %s at node %d) — \
                  replayed as one fused pass"
                 k
                 ir.(cs.(0)).Ad.Ir.op
                 cs.(0)
                 ir.(cs.(k - 1)).Ad.Ir.op
                 cs.(k - 1))
             chains)
      in
      let verify = verify_arena report ~slot_sizes ~assign in
      { report with diags = D.sort (verify @ chain_infos @ fusion_diags) }
    end
  end

(* ---- Verification ------------------------------------------------- *)

and verify_arena report ~slot_sizes ~assign =
  let n = report.nodes in
  let tn = 2 * n in
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let describe b = if b < n then Printf.sprintf "value of node %d" b else Printf.sprintf "gradient of node %d" (b - n) in
  let site b = D.Tape_node (if b < n then b else b - n) in
  if Array.length assign <> tn then
    add
      (D.error ~code:"PL001" D.Graph "assignment covers %d buffers, expected %d"
         (Array.length assign) tn)
  else begin
    let nslots = Array.length slot_sizes in
    let tenants = Array.make nslots [] in
    Array.iteri
      (fun b s ->
        if s >= nslots || s < -1 then
          add (D.error ~code:"PL001" (site b) "%s assigned to unknown slot %d" (describe b) s)
        else if s >= 0 then begin
          match report.intervals.(b) with
          | None ->
              add
                (D.error ~code:"PL003" (site b)
                   "%s has no buffer to place (leaf alias or fused interior) yet slot %d \
                    claims it"
                   (describe b) s)
          | Some iv ->
              if iv.pinned then
                add
                  (D.error ~code:"PL003" (site b)
                     "%s is pinned (leaf, output or requested gradient) but a temporary \
                      arena slot %d aliases it"
                     (describe b) s)
              else if iv.numel <> slot_sizes.(s) then
                add
                  (D.error ~code:"PL001" (site b)
                     "%s holds %d elements but slot %d holds %d" (describe b) iv.numel s
                     slot_sizes.(s))
              else tenants.(s) <- b :: tenants.(s)
        end)
      assign;
    Array.iteri
      (fun s bs ->
        let bs =
          List.sort
            (fun b1 b2 ->
              let i1 = Option.get report.intervals.(b1)
              and i2 = Option.get report.intervals.(b2) in
              if i1.lo <> i2.lo then compare i1.lo i2.lo else compare b1 b2)
            bs
        in
        (* PL001: strict disjointness of consecutive tenancies *)
        let rec overlaps = function
          | b1 :: (b2 :: _ as rest) ->
              let i1 = Option.get report.intervals.(b1)
              and i2 = Option.get report.intervals.(b2) in
              if i2.lo <= i1.hi then
                add
                  (D.error ~code:"PL001" (site b2)
                     "slot %d maps overlapping live ranges: %s live [%d, %d] and %s live \
                      [%d, %d]"
                     s (describe b1) i1.lo i1.hi (describe b2) i2.lo i2.hi);
              overlaps rest
          | _ -> ()
        in
        overlaps bs;
        (* PL002: simulate reads against the slot's write timeline *)
        let arr = Array.of_list bs in
        List.iter
          (fun b ->
            let iv = Option.get report.intervals.(b) in
            List.iter
              (fun t ->
                (* current tenant at time t: the latest def <= t *)
                let cur = ref None in
                Array.iter
                  (fun b' ->
                    let iv' = Option.get report.intervals.(b') in
                    if iv'.lo <= t then cur := Some (b', iv'.lo))
                  arr;
                match !cur with
                | Some (b', def') when b' <> b && def' > iv.lo ->
                    add
                      (D.error ~code:"PL002" (site b)
                         "%s is read at step %d but slot %d was overwritten at step %d by \
                          the %s"
                         (describe b) t s def' (describe b'))
                | _ -> ())
              report.reads.(b))
          bs)
      tenants
  end;
  List.rev !diags

let arena_spec report = { Plan.slot_sizes = report.slot_sizes; assign = report.assign }
let plan_chains report = report.chains
