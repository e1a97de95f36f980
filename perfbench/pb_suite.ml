(* The benchmark's inputs: instance pools, seeded draws and cost
   perturbations. Draws use the standard library's [Random], never the
   program's own generator, so a change to the program cannot change the
   inputs it is measured on. *)

let rng_of seed salt = Random.State.make [| 0x5eed; seed; salt |]

(* extract_suite: the families and their members. Every run extracts
   every member, in an order the seed draws: members of one family differ
   in cost and in how far SmoothE beats greedy, so a run that drew one
   member per family would measure its draw more than the code. *)
let families =
  [
    ("deep", [| "box_3"; "fir_5" |]);
    ("shallow", [| "set_cover_mid"; "maxsat_25_120" |]);
    ("cyclic", [| "NASNet-A"; "ResNet-50" |]);
    ("correlated", [| "adpcm"; "mul_256" |]);
  ]

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

let draw_suite seed =
  let a = Array.of_list (List.concat_map (fun (_, p) -> Array.to_list p) families) in
  shuffle (rng_of seed 1) a;
  Array.to_list a

(* exact_proof: every pair runs in each pass; the seed only orders them.
   Their solve times differ by two orders of magnitude, so a subset draw
   would make throughput a property of the draw. *)
let exact_instances = [ "mcm_8"; "mcm_9"; "set_cover_small"; "2d-conv_3x3_3x3"; "mat-mul_4x4"; "VGG" ]
let exact_methods = [ "ilp-cplex"; "hybrid" ]

let exact_pairs seed =
  let pairs =
    Array.of_list
      (List.concat_map (fun i -> List.map (fun m -> (i, m)) exact_methods) exact_instances)
  in
  shuffle (rng_of seed 2) pairs;
  Array.to_list pairs

(* serve_open request classes *)
(* every run sends the whole hot set: a cache hit still builds the
   instance to key it, and build costs differ between instances *)
let hot_pool = [| "mat-mul_2x2"; "dot_16"; "mcm_8"; "mat-mul_3x3"; "VGG"; "set_cover_small" |]
let smoothe_pool = [| "mat-mul_2x2"; "dot_16"; "mat-mul_3x3" |]

(* serialized sizes span 2.5 KB to 106 KB *)
let inline_pool = [| "mcm_8"; "mcm_9"; "box_3"; "set_cover_mid"; "fir_7"; "mul_512" |]
let variants = 8

(* Variant [v] of an instance scales each node cost by a factor in
   [0.9, 1.1] drawn from (instance, v). The variants are finite so that
   each one's reference cost can be committed. *)
let perturb name v costs =
  let rng = Random.State.make [| 0xc057; Hashtbl.hash name; v |] in
  Array.map (fun c -> c *. (0.9 +. (0.2 *. Random.State.float rng 1.0))) costs

let variant_key name v = Printf.sprintf "%s#%d" name v

(* every instance a draw can pick, for the committed reference costs *)
let all_instances () =
  List.sort_uniq compare
    (List.concat_map (fun (_, p) -> Array.to_list p) families
    @ exact_instances @ Array.to_list hot_pool @ Array.to_list smoothe_pool
    @ Array.to_list inline_pool)
