(* Independent solution checker.

   Parses the native e-graph text format on its own and re-verifies a
   returned selection: the root class is selected, every child class of
   a selected reachable node is selected, the selection is acyclic, and
   the claimed cost equals the DAG cost recomputed here. It shares no
   code with [Egraph.Solution], so a defect there cannot hide in the
   check. *)

type graph = {
  name : string;
  root : int;
  nclasses : int;
  node_class : int array;
  cost : float array;
  children : int array array;
}

let fail fmt = Printf.ksprintf failwith fmt

(* Node ids are the order of the [node] lines, which is the numbering
   the program uses for a graph it serialized itself. *)
let parse text =
  let name = ref "" and root = ref (-1) in
  let nodes = ref [] in
  List.iteri
    (fun i line ->
      match String.split_on_char ' ' (String.trim line) |> List.filter (( <> ) "") with
      | [] -> ()
      | [ "egraph"; n ] -> name := n
      | [ "classes"; _ ] -> ()
      | [ "root"; r ] -> root := int_of_string r
      | "node" :: cls :: cost :: _op :: kids ->
          nodes :=
            ( int_of_string cls,
              float_of_string cost,
              Array.of_list (List.map int_of_string kids) )
            :: !nodes
      | _ -> fail "line %d: unrecognised: %s" (i + 1) line)
    (String.split_on_char '\n' text);
  let nodes = Array.of_list (List.rev !nodes) in
  if !root < 0 then fail "no root line";
  if nodes = [||] then fail "no nodes";
  let nclasses =
    Array.fold_left
      (fun m (c, _, kids) -> Array.fold_left max (max m c) kids)
      !root nodes
    + 1
  in
  {
    name = !name;
    root = !root;
    nclasses;
    node_class = Array.map (fun (c, _, _) -> c) nodes;
    cost = Array.map (fun (_, c, _) -> c) nodes;
    children = Array.map (fun (_, _, k) -> k) nodes;
  }

let with_costs g costs =
  if Array.length costs <> Array.length g.cost then
    fail "cost override has %d entries for %d nodes" (Array.length costs)
      (Array.length g.cost);
  { g with cost = Array.copy costs }

let close a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.abs b)

(* [choices] are (class, node) pairs. Returns the recomputed DAG cost,
   or the first defect found. *)
let check g choices ~claimed =
  try
    let pick = Array.make g.nclasses (-1) in
    List.iter
      (fun (c, n) ->
        if c < 0 || c >= g.nclasses then fail "class %d out of range" c;
        if n < 0 || n >= Array.length g.node_class then fail "node %d out of range" n;
        if g.node_class.(n) <> c then fail "node %d is not in class %d" n c;
        if pick.(c) >= 0 then fail "class %d selected twice" c;
        pick.(c) <- n)
      choices;
    if pick.(g.root) < 0 then fail "root class %d not selected" g.root;
    (* 0 = unvisited, 1 = on the DFS path, 2 = done *)
    let colour = Array.make g.nclasses 0 in
    let total = ref 0.0 in
    let rec visit c =
      match colour.(c) with
      | 1 -> fail "cycle through class %d" c
      | 2 -> ()
      | _ ->
          let n = pick.(c) in
          if n < 0 then fail "class %d is needed but not selected" c;
          colour.(c) <- 1;
          Array.iter visit g.children.(n);
          colour.(c) <- 2;
          total := !total +. g.cost.(n)
    in
    visit g.root;
    if not (close claimed !total) then
      fail "claimed cost %.17g but the selection costs %.17g" claimed !total;
    Ok !total
  with Failure msg -> Error msg
