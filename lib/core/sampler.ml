(* Root-first decode with a per-class candidate rank: rank 0 takes the
   argmax-cp member, rank r the (r+1)-th best. Ranks are all 0 for the
   paper's schedule; the repair loop bumps ranks on cycle-closing
   classes. *)
let decode_with_ranks g ~row ~ranks =
  let pick =
    Array.init (Egraph.num_classes g) (fun c ->
        let members = g.Egraph.class_nodes.(c) in
        if ranks.(c) = 0 then begin
          (* common case: plain argmax, no sort *)
          let best = ref members.(0) in
          Array.iter (fun k -> if row.(k) > row.(!best) then best := k) members;
          !best
        end
        else begin
          let pairs = Array.map (fun k -> k, row.(k)) members in
          Array.sort (fun (_, a) (_, b) -> compare b a) pairs;
          let r = min ranks.(c) (Array.length members - 1) in
          fst pairs.(r)
        end)
  in
  Egraph.Solution.of_node_choice g pick

(* Find one class on a directed cycle of the selected class graph. *)
let find_cycle_class g s =
  let m = Egraph.num_classes g in
  let colour = Array.make m 0 in
  let witness = ref None in
  let rec dfs c =
    if !witness = None then begin
      match s.Egraph.Solution.choice.(c) with
      | None -> colour.(c) <- 2
      | Some node ->
          colour.(c) <- 1;
          Array.iter
            (fun child ->
              if !witness = None then
                if colour.(child) = 1 then witness := Some c
                else if colour.(child) = 0 then dfs child)
            g.Egraph.children.(node);
          if colour.(c) = 1 then colour.(c) <- 2
    end
  in
  dfs g.Egraph.root;
  !witness

let sample_seed ?(repair = false) g ~cp ~seed =
  let row = Tensor.row cp seed in
  let ranks = Array.make (Egraph.num_classes g) 0 in
  let first = decode_with_ranks g ~row ~ranks in
  if not repair then first
  else begin
    let rec attempt s tries =
      match Egraph.Solution.validate g s with
      | Egraph.Solution.Valid | Egraph.Solution.No_root | Egraph.Solution.Incomplete _ -> s
      | Egraph.Solution.Cyclic when tries <= 0 -> s
      | Egraph.Solution.Cyclic -> (
          match find_cycle_class g s with
          | None -> s
          | Some c ->
              let size = Array.length g.Egraph.class_nodes.(c) in
              if ranks.(c) + 1 >= size then s
              else begin
                ranks.(c) <- ranks.(c) + 1;
                if !Obs.on then Metrics.incr "sampler.repairs";
                attempt (decode_with_ranks g ~row ~ranks) (tries - 1)
              end)
    in
    attempt first 16
  end

(* The reference path: decode every seed, validate it, score it with
   the model. Kept for [repair] and for non-linear models. *)
let best_of_decodes ~repair g ~model ~cp =
  let best = ref None and accepted = ref 0 in
  for seed = 0 to cp.Tensor.batch - 1 do
    let s = sample_seed ~repair g ~cp ~seed in
    let cost = Cost_model.dense_solution model g s in
    if Float.is_finite cost then begin
      incr accepted;
      match !best with
      | Some (_, _, c) when c <= cost -> ()
      | Some _ | None -> best := Some (seed, s, cost)
    end
  done;
  (!best, !accepted)

(* Linear models in one pass per seed: a DFS from the root over buffers
   shared by all seeds takes the argmax (first strict maximum) of each
   class when it first reaches it, stops at a child class still on its
   path (a cycle, so the seed scores infinity), and sums the selected
   nodes' costs in ascending node order, as [Cost_model.dense] does, so
   the cost bits equal the reference path's. Only the winning seed is
   decoded into a solution. *)
let best_linear g ~model ~cp =
  let m = Egraph.num_classes g and n = Egraph.num_nodes g in
  let members = g.Egraph.class_nodes and children = g.Egraph.children in
  let u = Cost_model.linear_coeffs model and cd = Tensor.unsafe_data cp in
  let pick = Array.make m 0 and state = Array.make m 0 in
  let stack = Array.make m 0 and pos = Array.make m 0 and seen = Array.make m 0 in
  let chosen = Array.make n false in
  let best = ref (-1) and best_cost = ref infinity and accepted = ref 0 in
  for b = 0 to cp.Tensor.batch - 1 do
    let base = b * n and nseen = ref 0 and depth = ref 0 and cyclic = ref false in
    let enter c =
      let ks = members.(c) in
      let k = ref ks.(0) in
      for i = 1 to Array.length ks - 1 do
        if cd.(base + ks.(i)) > cd.(base + !k) then k := ks.(i)
      done;
      pick.(c) <- !k;
      state.(c) <- 1;
      seen.(!nseen) <- c;
      incr nseen;
      stack.(!depth) <- c;
      pos.(!depth) <- 0;
      incr depth
    in
    enter g.Egraph.root;
    while !depth > 0 && not !cyclic do
      let c = stack.(!depth - 1) in
      let ch = children.(pick.(c)) and i = pos.(!depth - 1) in
      if i < Array.length ch then begin
        pos.(!depth - 1) <- i + 1;
        let d = ch.(i) in
        if state.(d) = 1 then cyclic := true else if state.(d) = 0 then enter d
      end
      else begin
        state.(c) <- 2;
        decr depth
      end
    done;
    if not !cyclic then begin
      for i = 0 to !nseen - 1 do
        chosen.(pick.(seen.(i))) <- true
      done;
      let cost = ref 0.0 in
      for k = 0 to n - 1 do
        if chosen.(k) then begin
          cost := !cost +. (u.(k) *. 1.0);
          chosen.(k) <- false
        end
      done;
      if Float.is_finite !cost then begin
        incr accepted;
        if !cost < !best_cost then begin
          best := b;
          best_cost := !cost
        end
      end
    end;
    for i = 0 to !nseen - 1 do
      state.(seen.(i)) <- 0
    done
  done;
  let winner =
    if !best < 0 then None else Some (!best, sample_seed g ~cp ~seed:!best, !best_cost)
  in
  (winner, !accepted)

let best_of_batch ?(repair = false) g ~model ~cp =
  let best, accepted =
    if repair || not (Cost_model.is_linear model) then best_of_decodes ~repair g ~model ~cp
    else best_linear g ~model ~cp
  in
  if !Obs.on then begin
    Metrics.incr ~by:(float_of_int cp.Tensor.batch) "sampler.samples";
    Metrics.incr ~by:(float_of_int accepted) "sampler.accepted"
  end;
  best
