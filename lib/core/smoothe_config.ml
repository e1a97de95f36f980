type assumption = Independent | Correlated | Hybrid

let assumption_name = function
  | Independent -> "independent"
  | Correlated -> "correlated"
  | Hybrid -> "hybrid"

let assumption_of_string = function
  | "independent" -> Independent
  | "correlated" -> Correlated
  | "hybrid" -> Hybrid
  | s -> invalid_arg (Printf.sprintf "unknown assumption %S" s)

type plan_mode = Plan_off | Plan_on | Plan_check

let plan_mode_name = function
  | Plan_off -> "off"
  | Plan_on -> "on"
  | Plan_check -> "check"

let plan_mode_of_string = function
  | "off" -> Plan_off
  | "on" -> Plan_on
  | "check" -> Plan_check
  | s -> invalid_arg (Printf.sprintf "unknown plan mode %S" s)

type t = {
  assumption : assumption;
  batch : int;
  lr : float;
  max_iters : int;
  patience : int;
  lambda_ : float;
  prop_iters : int option;
  time_limit : float;
  init_std : float;
  repair_sampling : bool;
  scc_decomposition : bool;
  batched_matexp : bool;
  temperature : float;
  temperature_decay : float;
  min_temperature : float;
  entropy_weight : float;
  seed : int;
  plan : plan_mode;
}

let default =
  {
    assumption = Hybrid;
    batch = 16;
    lr = 0.25;
    max_iters = 150;
    patience = 30;
    lambda_ = 100.0;
    prop_iters = None;
    time_limit = 120.0;
    init_std = 0.5;
    repair_sampling = false;
    scc_decomposition = true;
    batched_matexp = true;
    temperature = 1.0;
    temperature_decay = 1.0;
    min_temperature = 0.2;
    entropy_weight = 0.0;
    seed = 7;
    plan = Plan_on;
  }

let with_assumption assumption cfg = { cfg with assumption }

(* The propagation needs enough unrolled steps for probability mass to
   reach the deepest e-class, i.e. the *longest* root-to-class path.
   Cycles would make that unbounded, so we measure the longest path on
   the SCC condensation, charging each component its own size (mass
   circulating inside an SCC settles in about |SCC| rounds). *)
let class_depth g =
  let sccs = g.Egraph.sccs in
  let k = Array.length sccs in
  let comp = g.Egraph.scc_of_class in
  (* condensation edges: component of parent class -> component of child *)
  let succ = Array.make k [] in
  Array.iteri
    (fun c children ->
      Array.iter
        (fun child -> if comp.(c) <> comp.(child) then succ.(comp.(c)) <- comp.(child) :: succ.(comp.(c)))
        children)
    g.Egraph.class_children;
  (* tarjan emits components in reverse topological order, so a forward
     scan from the last index visits parents before children *)
  let longest = Array.make k 0 in
  let deepest = ref 0 in
  for ci = k - 1 downto 0 do
    let here = longest.(ci) + Array.length sccs.(ci) in
    if here > !deepest then deepest := here;
    List.iter (fun cj -> if here > longest.(cj) then longest.(cj) <- here) succ.(ci)
  done;
  !deepest

let derive_prop_iters cfg g =
  match cfg.prop_iters with
  | Some k -> max 1 k
  | None ->
      let d = class_depth g + 3 in
      min 96 (max 4 d)
