type profile = {
  loss_time : float;
  grad_time : float;
  sample_time : float;
  total_time : float;
}

type history_point = {
  iter : int;
  elapsed : float;
  relaxed_loss : float;
  sampled_cost : float;
  incumbent : float;
}

type plan_outcome =
  | Replay_off
  | Replay_armed of { stats : Plan.stats; naive_bytes : int }
  | Replay_disabled of string

let plan_summary = function
  | Replay_off -> None
  | Replay_armed { stats = st; naive_bytes } ->
      Some
        (Printf.sprintf
           "plan armed: %d nodes, %d KiB arena + %d KiB pinned (interpreter allocates %d KiB \
            per iteration), %d ops fused into %d chains"
           st.Plan.nodes (st.Plan.arena_bytes / 1024) (st.Plan.dedicated_bytes / 1024)
           (naive_bytes / 1024) st.Plan.fused_nodes st.Plan.chains)
  | Replay_disabled why -> Some ("plan disabled: " ^ why)

type run = {
  result : Extractor.r;
  iterations : int;
  best_seed : int;
  batch_used : int;
  prop_iters : int;
  profile : profile;
  history : history_point list;
  oom : bool;
  recoveries : int;
  health : Health.event list;
  final_cp : float array option;
  plan : plan_outcome;
}

let member = "smoothe"
let max_recoveries = 5

(* A compiled replay plan plus the node ids of the captured forward's
   observable tensors (the only ones pinned out of the shared arena). *)
type replayable = {
  rp : Plan.t;
  rp_theta : int;
  rp_cp : int;
  rp_per_seed : int;
  rp_penalty : int;
  rp_loss : int;
}

let init_theta rng ~batch ~width ~std =
  Tensor.init ~batch ~width (fun _ _ -> std *. Rng.gaussian rng)

(* The OOM derating ladder (most faithful configuration first). When the
   requested configuration cannot fit even one seed, retry with the
   memory optimisations of §4 forced on, then with a halved seed batch,
   and finally on the big-RAM CPU baseline. Each step taken is recorded
   as a Health.Oom_derate event. *)
let derating_ladder config device =
  let optimised =
    {
      config with
      Smoothe_config.scc_decomposition = true;
      Smoothe_config.batched_matexp = true;
    }
  in
  let halved =
    { optimised with Smoothe_config.batch = max 1 (config.Smoothe_config.batch / 2) }
  in
  [
    config, device, "as configured";
    optimised, device, "scc decomposition + batched matexp forced on";
    halved, device, "seed batch halved";
    halved, Device.cpu_baseline, "fall back to CPU baseline";
  ]

type chosen = {
  c_config : Smoothe_config.t;
  c_device : Device.t;
  c_compiled : Relaxation.compiled;
  c_max_batch : int;
  c_desc : string option;  (* Some desc when any derating step was taken *)
  c_rung : int;  (* index into the derating ladder (0 = as configured) *)
}

let select_configuration log config device g =
  let fingerprint (cfg, (dev : Device.t), _) =
    ( Smoothe_config.derive_prop_iters cfg g,
      cfg.Smoothe_config.scc_decomposition,
      cfg.Smoothe_config.batched_matexp,
      cfg.Smoothe_config.batch,
      dev.Device.device_name )
  in
  let rec walk seen derated rung = function
    | [] -> None
    | ((cfg, dev, desc) as attempt) :: rest ->
        let fp_key = fingerprint attempt in
        if List.mem fp_key seen then walk seen derated (rung + 1) rest
        else begin
          let compiled = Relaxation.compile cfg g in
          let fp =
            Device.footprint g ~prop_iters:compiled.Relaxation.prop_iters
              ~scc_decomposition:cfg.Smoothe_config.scc_decomposition
              ~batched_matexp:cfg.Smoothe_config.batched_matexp
          in
          let max_batch = Device.max_batch dev fp in
          if max_batch > 0 then
            Some
              {
                c_config = cfg;
                c_device = dev;
                c_compiled = compiled;
                c_max_batch = max_batch;
                c_desc = (if derated then Some desc else None);
                c_rung = rung;
              }
          else begin
            Health.record log ~member Health.Oom_derate
              (Printf.sprintf "%s does not fit one seed on %s (%.2f GiB needed)" desc
                 dev.Device.device_name
                 (Device.bytes_for_batch fp 1 /. (1024.0 *. 1024.0 *. 1024.0)));
            walk (fp_key :: seen) true (rung + 1) rest
          end
        end
  in
  walk [] false 0 (derating_ladder config device)

let extract ?(config = Smoothe_config.default) ?model ?(device = Device.a100) ?health
    ?checkpoint ?(checkpoint_every = 25) ?resume_from ?(preflight = false) g =
  let model = match model with Some m -> m | None -> Cost_model.of_egraph g in
  let log = Health.create () in
  (* static pre-flight: lint the e-graph before the first iteration so
     input defects surface as structured events in milliseconds instead
     of index errors or NaNs minutes in. Off by default — the gate must
     not change behaviour for existing callers (events only, never the
     optimisation path). *)
  if preflight then begin
    let findings = Egraph_lint.check g in
    if !Obs.on then begin
      Metrics.incr ~by:(float_of_int (Diagnostic.errors findings)) "analysis.errors";
      Metrics.incr ~by:(float_of_int (Diagnostic.warnings findings)) "analysis.warnings"
    end;
    List.iter
      (fun d ->
        if d.Diagnostic.severity <> Diagnostic.Info then
          Health.record log ~member Health.Preflight (Diagnostic.render d))
      findings
  end;
  let drain () =
    List.iter
      (fun what -> Health.record log ~member Health.Fault_injected what)
      (Fault_plan.drain_injections ())
  in
  let finish run =
    drain ();
    (match health with Some shared -> Health.merge ~into:shared log | None -> ());
    { run with health = Health.events log; recoveries = Health.count log Health.Recovery }
  in
  match select_configuration log config device g with
  | None ->
      (* even the last ladder rung OOMs: report failure, with the ladder
         walk in the health log *)
      Health.record log ~member Health.Degraded
        (Printf.sprintf "OOM on every derating step (requested device %s)"
           device.Device.device_name);
      let compiled = Relaxation.compile config g in
      finish
        {
          result =
            {
              (Extractor.failed ~method_name:"smoothe" ~time_s:0.0) with
              Extractor.notes = [ ("oom", device.Device.device_name) ];
            };
          iterations = 0;
          best_seed = -1;
          batch_used = 0;
          prop_iters = compiled.Relaxation.prop_iters;
          profile = { loss_time = 0.0; grad_time = 0.0; sample_time = 0.0; total_time = 0.0 };
          history = [];
          oom = true;
          recoveries = 0;
          health = [];
          final_cp = None;
          plan = Replay_off;
        }
  | Some { c_config; c_device; c_compiled; c_max_batch; c_desc; c_rung } ->
      let config = c_config and device = c_device and compiled = c_compiled in
      let batch = min config.Smoothe_config.batch c_max_batch in
      let n = Egraph.num_nodes g in
      (* A snapshot only resumes the run it was taken from: same graph,
         seed and (post-derating) batch. Anything else would silently
         continue a different optimisation, so it is refused loudly. *)
      let fingerprint =
        {
          Checkpoint.fp_graph = g.Egraph.name;
          fp_nodes = n;
          fp_classes = Egraph.num_classes g;
          fp_seed = config.Smoothe_config.seed;
          fp_batch = batch;
        }
      in
      let resume =
        match resume_from with
        | None -> None
        | Some snap when snap.Checkpoint.fingerprint = fingerprint -> Some snap
        | Some snap ->
            Health.record log ~member Health.Checkpoint_corrupt
              (Printf.sprintf "snapshot fingerprint %s does not match run %s; starting fresh"
                 (Checkpoint.fingerprint_to_string snap.Checkpoint.fingerprint)
                 (Checkpoint.fingerprint_to_string fingerprint));
            None
      in
      let rng = Rng.create config.Smoothe_config.seed in
      let theta = init_theta rng ~batch ~width:n ~std:config.Smoothe_config.init_std in
      let lr0 = config.Smoothe_config.lr in
      let opt = Optim.adam ~lr:lr0 [ theta ] in
      let rng =
        match resume with
        | None -> rng
        | Some snap ->
            (* replay the snapshot's health timeline first so counts and
               ordering match the uninterrupted run's log *)
            List.iter (Health.add log) snap.Checkpoint.health;
            Health.record log ~member Health.Resumed
              (Printf.sprintf "resumed at iteration %d (%.2fs of budget consumed)"
                 snap.Checkpoint.iter snap.Checkpoint.elapsed);
            Array.blit
              (Tensor.unsafe_data snap.Checkpoint.theta)
              0 (Tensor.unsafe_data theta) 0 (Tensor.numel theta);
            Optim.restore opt ~m:[| snap.Checkpoint.adam_m |] ~v:[| snap.Checkpoint.adam_v |]
              ~step:snap.Checkpoint.adam_step;
            Optim.set_lr opt snap.Checkpoint.adam_lr;
            Rng.of_state snap.Checkpoint.rng_state
      in
      let base_elapsed =
        match resume with Some snap -> snap.Checkpoint.elapsed | None -> 0.0
      in
      let deadline =
        let tl = config.Smoothe_config.time_limit in
        Timer.deadline_after (if tl > 0.0 then Float.max 1e-6 (tl -. base_elapsed) else tl)
      in
      let elapsed_now () = base_elapsed +. Timer.elapsed deadline in
      let restore_ref f default =
        match resume with Some snap -> ref (f snap) | None -> ref default
      in
      let loss_time = restore_ref (fun s -> s.Checkpoint.loss_time) 0.0
      and grad_time = restore_ref (fun s -> s.Checkpoint.grad_time) 0.0
      and sample_time = restore_ref (fun s -> s.Checkpoint.sample_time) 0.0 in
      let best_cost = restore_ref (fun s -> s.Checkpoint.best_cost) infinity in
      let best_solution =
        restore_ref
          (fun s ->
            Option.map
              (fun choice -> { Egraph.Solution.choice = Array.copy choice })
              s.Checkpoint.best_choice)
          None
      in
      let best_seed = restore_ref (fun s -> s.Checkpoint.best_seed) (-1) in
      (* cp row of the seed that produced the incumbent, at the
         iteration it was found — the marginals the hybrid pipeline
         fixes classes with. Not checkpointed: after a resume it stays
         None until the next improvement. *)
      let incumbent_cp = ref None in
      let last_improvement = restore_ref (fun s -> s.Checkpoint.last_improvement) 0 in
      let trace = restore_ref (fun s -> List.rev s.Checkpoint.trace) [] in
      let history =
        restore_ref
          (fun s ->
            List.rev_map
              (fun (iter, elapsed, relaxed_loss, sampled_cost, incumbent) ->
                { iter; elapsed; relaxed_loss; sampled_cost; incumbent })
              s.Checkpoint.history)
          []
      in
      let start_iter = match resume with Some snap -> snap.Checkpoint.iter | None -> 0 in
      let iters_done = ref start_iter in
      let recoveries = restore_ref (fun s -> s.Checkpoint.recoveries) 0 in
      let save_checkpoint st ~iter =
        let m, v, step = Optim.state opt in
        let snap =
          {
            Checkpoint.fingerprint;
            iter;
            elapsed = elapsed_now ();
            rng_state = Rng.state rng;
            theta = Tensor.copy theta;
            adam_m = m.(0);
            adam_v = v.(0);
            adam_step = step;
            adam_lr = Optim.lr opt;
            best_cost = !best_cost;
            best_seed = !best_seed;
            best_choice =
              Option.map (fun s -> Array.copy s.Egraph.Solution.choice) !best_solution;
            last_improvement = !last_improvement;
            recoveries = !recoveries;
            ladder_rung = c_rung;
            loss_time = !loss_time;
            grad_time = !grad_time;
            sample_time = !sample_time;
            trace = List.rev !trace;
            history =
              List.rev_map
                (fun h -> (h.iter, h.elapsed, h.relaxed_loss, h.sampled_cost, h.incumbent))
                !history;
            health = Health.events log;
          }
        in
        ignore (Checkpoint.save st snap)
      in
      let repair = config.Smoothe_config.repair_sampling in
      (* Static-plan replay state machine. Iterations run interpreted
         until two consecutive successful captures are structurally
         identical; the Plan_check dataflow analysis then derives and
         independently verifies a buffer arena, the capture compiles
         into a static schedule, and every later iteration replays with
         zero tape construction and zero tensor allocation. Any gate
         failure records a Preflight event and leaves the run on the
         interpreter — the plan must never change results, only cost.
         Arming is reported only in the run's [plan] outcome; a fallback
         is also a health event. *)
      let plan_mode = config.Smoothe_config.plan in
      let plan_state =
        ref (match plan_mode with Smoothe_config.Plan_off -> `Off | _ -> `Cold)
      in
      let plan_outcome = ref Replay_off in
      let disable_plan why =
        Health.record log ~member Health.Preflight ("plan disabled: " ^ why);
        if !Obs.on then Metrics.incr "plan.disabled";
        plan_outcome := Replay_disabled why;
        plan_state := `Off
      in
      let advance_plan (fwd : Relaxation.forward) =
        match !plan_state with
        | `Off | `Ready _ -> ()
        | `Cold ->
            if Tensor.Backend.current () <> Tensor.Backend.Vectorized then
              disable_plan
                "the scalar backend models per-element dispatch and has no replay kernels"
            else
              plan_state := `Armed (Plan.capture fwd.Relaxation.tape ~root:fwd.Relaxation.loss)
        | `Armed c1 -> (
            Trace.with_span ~cat:"smoothe" "plan.capture"
            @@ fun () ->
            let c2 = Plan.capture fwd.Relaxation.tape ~root:fwd.Relaxation.loss in
            match Plan.stable c1 c2 with
            | Error why ->
                List.iter
                  (fun d -> Health.record log ~member Health.Preflight (Diagnostic.render d))
                  (Plan_check.stability c1.Plan.ir c2.Plan.ir);
                disable_plan why
            | Ok () -> (
                let rp_theta = Ad.node_id fwd.Relaxation.theta
                and rp_cp = Ad.node_id fwd.Relaxation.cp
                and rp_per_seed = Ad.node_id fwd.Relaxation.per_seed_cost
                and rp_penalty = Ad.node_id fwd.Relaxation.penalty
                and rp_loss = Ad.node_id fwd.Relaxation.loss in
                let outputs = [| rp_cp; rp_per_seed; rp_penalty; rp_loss |] in
                let grads = [| rp_theta |] in
                let report = Plan_check.analyze ~grads ~root:rp_loss ~outputs c2.Plan.ir in
                let blocking =
                  List.filter
                    (fun d -> d.Diagnostic.severity <> Diagnostic.Info)
                    report.Plan_check.diags
                in
                if !Obs.on then begin
                  Metrics.incr
                    ~by:(float_of_int (Diagnostic.errors report.Plan_check.diags))
                    "analysis.errors";
                  Metrics.incr
                    ~by:(float_of_int (Diagnostic.warnings report.Plan_check.diags))
                    "analysis.warnings"
                end;
                if blocking <> [] then begin
                  List.iter
                    (fun d ->
                      Health.record log ~member Health.Preflight (Diagnostic.render d))
                    blocking;
                  disable_plan "the dataflow analysis rejected the captured IR"
                end
                else
                  match
                    Plan.compile
                      ~arena:(Plan_check.arena_spec report)
                      ~chains:(Plan_check.plan_chains report)
                      ~outputs ~grads c2
                  with
                  | Error why -> disable_plan why
                  | Ok rp ->
                      let st = Plan.stats rp in
                      if !Obs.on then begin
                        Metrics.set_gauge "plan.arena_bytes"
                          (float_of_int st.Plan.arena_bytes);
                        Metrics.incr ~by:(float_of_int st.Plan.fused_nodes) "plan.fused_ops"
                      end;
                      plan_outcome :=
                        Replay_armed
                          { stats = st; naive_bytes = report.Plan_check.naive_bytes };
                      plan_state :=
                        `Ready { rp; rp_theta; rp_cp; rp_per_seed; rp_penalty; rp_loss }))
      in
      (* a crash (injected or real) must not lose the supervision
         timeline: merge it into the shared log before re-raising so the
         supervisor's retry sees what happened *)
      (try
         Trace.with_span ~cat:"smoothe"
           ~attrs:
             (if !Obs.on then
                [ ("batch", string_of_int batch); ("nodes", string_of_int n) ]
              else [])
           "smoothe.extract"
         @@ fun () ->
         Device.run device (fun () ->
          let iter = ref start_iter in
          let stop = ref false in
          (* Numeric recovery: a non-finite loss or gradient must never
             reach the Adam state or the incumbent. Each strike resets
             the optimiser moments, backs the learning rate off by 2x,
             and (from the second strike) re-randomises theta from a
             fresh seed stream; after [max_recoveries] strikes the loop
             stops and keeps its incumbent. *)
          let recover what =
            Health.record log ~member Health.Nan_detected
              (Printf.sprintf "iteration %d: non-finite %s" !iter what);
            if !Obs.on then Metrics.incr "smoothe.nan_recoveries";
            incr recoveries;
            if !recoveries > max_recoveries then begin
              Health.record log ~member Health.Degraded
                (Printf.sprintf "%d numeric recoveries exhausted; keeping incumbent"
                   max_recoveries);
              stop := true
            end
            else begin
              Optim.reset opt;
              let lr = lr0 *. (0.5 ** float_of_int !recoveries) in
              Optim.set_lr opt lr;
              let d = Tensor.unsafe_data theta in
              if !recoveries >= 2 then begin
                let seed = config.Smoothe_config.seed + (7919 * !recoveries) in
                let rng' = Rng.create seed in
                for i = 0 to Tensor.numel theta - 1 do
                  d.(i) <- config.Smoothe_config.init_std *. Rng.gaussian rng'
                done;
                Health.record log ~member Health.Recovery
                  (Printf.sprintf "adam reset, lr %.3g, theta re-randomised (seed %d)" lr seed)
              end
              else begin
                for i = 0 to Tensor.numel theta - 1 do
                  if not (Float.is_finite d.(i)) then d.(i) <- 0.0
                done;
                Health.record log ~member Health.Recovery
                  (Printf.sprintf "adam reset, lr backed off to %.3g" lr)
              end
            end
          in
          (* Per-iteration tail — sampling, incumbent tracking, history —
             identical whether the step was interpreted or replayed, so
             both executors feed it their own output tensors. *)
          let sample_and_log ~loss_ok ~grad_ok ~cp ~per_seed ~penalty =
            if loss_ok && grad_ok then begin
              (* sample every iteration (§3.5) *)
              let sampled, t_smp =
                Timer.time (fun () ->
                    Trace.with_span ~cat:"smoothe" "smoothe.sample" (fun () ->
                        Sampler.best_of_batch ~repair g ~model ~cp))
              in
              sample_time := !sample_time +. t_smp;
              let sampled_cost =
                match sampled with
                | Some (seed, s, cost) ->
                    if cost < !best_cost -. 1e-12 then begin
                      best_cost := cost;
                      best_solution := Some s;
                      best_seed := seed;
                      last_improvement := !iter;
                      trace := (elapsed_now (), cost) :: !trace;
                      incumbent_cp := Some (Array.init n (fun i -> Tensor.get cp seed i))
                    end;
                    cost
                | None -> infinity
              in
              (* relaxed loss of the best seed this iteration, for Fig. 9 *)
              let relaxed_loss =
                let h = Tensor.get penalty 0 0 in
                let best = ref infinity in
                for b = 0 to batch - 1 do
                  let v = Tensor.get per_seed b 0 in
                  if v < !best then best := v
                done;
                !best +. (config.Smoothe_config.lambda_ *. h)
              in
              if !Obs.on then begin
                Metrics.observe "smoothe.loss" relaxed_loss;
                if Float.is_finite !best_cost then
                  Metrics.set_gauge "smoothe.incumbent" !best_cost
              end;
              history :=
                {
                  iter = !iter;
                  elapsed = elapsed_now ();
                  relaxed_loss;
                  sampled_cost;
                  incumbent = !best_cost;
                }
                :: !history
            end
            else begin
              recover (if loss_ok then "gradient" else "loss");
              history :=
                {
                  iter = !iter;
                  elapsed = elapsed_now ();
                  relaxed_loss = Float.nan;
                  sampled_cost = infinity;
                  incumbent = !best_cost;
                }
                :: !history
            end
          in
          while (not !stop) && !iter < config.Smoothe_config.max_iters do
            incr iter;
            iters_done := !iter;
            Fault_plan.crash_now ~iter:!iter;
            if !Obs.on then Metrics.incr "smoothe.iterations";
            Trace.with_span ~cat:"smoothe"
              ~attrs:(if !Obs.on then [ ("iteration", string_of_int !iter) ] else [])
              "smoothe.iter"
            @@ fun () ->
            (match (!plan_state, plan_mode) with
            | `Ready r, Smoothe_config.Plan_on ->
                (* verified replay: the static schedule re-runs the
                   captured iteration over the arena — no tape, no
                   tensor allocation *)
                if !Obs.on then Metrics.incr "plan.replays";
                let (), t_fwd =
                  Timer.time (fun () ->
                      Trace.with_span ~cat:"smoothe" "plan.replay" (fun () ->
                          Plan.run_forward r.rp))
                in
                loss_time := !loss_time +. t_fwd;
                let loss_ok = Tensor.all_finite (Plan.value r.rp r.rp_loss) in
                let grad_ok = ref false in
                if loss_ok then begin
                  let (), t_bwd =
                    Timer.time (fun () ->
                        Trace.with_span ~cat:"smoothe" "plan.replay.backward" (fun () ->
                            Plan.run_backward r.rp);
                        let grad = Plan.grad_of r.rp r.rp_theta in
                        if Tensor.all_finite grad then begin
                          grad_ok := true;
                          Trace.with_span ~cat:"smoothe" "smoothe.adam_step" (fun () ->
                              let norm = Optim.clip_grad_norm ~max_norm:100.0 [ grad ] in
                              if !Obs.on then Metrics.observe "smoothe.grad_norm" norm;
                              Optim.adam_step opt [ grad ])
                        end)
                  in
                  grad_time := !grad_time +. t_bwd
                end;
                sample_and_log ~loss_ok ~grad_ok:!grad_ok
                  ~cp:(Plan.value r.rp r.rp_cp)
                  ~per_seed:(Plan.value r.rp r.rp_per_seed)
                  ~penalty:(Plan.value r.rp r.rp_penalty)
            | st, _ ->
                (* interpreted step — and, in check mode with a ready
                   plan, a shadow replay asserted bit-identical to it *)
                let shadow =
                  match (st, plan_mode) with
                  | `Ready r, Smoothe_config.Plan_check -> Some r
                  | _ -> None
                in
                (* forward, under the (possibly annealed) temperature *)
                let temperature =
                  Float.max config.Smoothe_config.min_temperature
                    (config.Smoothe_config.temperature
                    *. (config.Smoothe_config.temperature_decay
                       ** float_of_int (!iter - 1)))
                in
                let fwd, t_fwd =
                  Timer.time (fun () ->
                      Trace.with_span ~cat:"smoothe" "smoothe.forward" (fun () ->
                          Relaxation.forward ~temperature compiled ~config ~model ~theta))
                in
                loss_time := !loss_time +. t_fwd;
                (match shadow with
                | Some r ->
                    if !Obs.on then Metrics.incr "plan.replays";
                    Trace.with_span ~cat:"smoothe" "plan.replay" (fun () ->
                        Plan.run_forward r.rp);
                    let bits what plan_t interp_t =
                      if not (Tensor.bits_equal plan_t interp_t) then
                        failwith
                          (Printf.sprintf
                             "plan check: replayed %s diverges bitwise from the \
                              interpreter at iteration %d"
                             what !iter)
                    in
                    bits "loss" (Plan.value r.rp r.rp_loss) (Ad.value fwd.Relaxation.loss);
                    bits "cp" (Plan.value r.rp r.rp_cp) (Ad.value fwd.Relaxation.cp);
                    bits "per-seed cost"
                      (Plan.value r.rp r.rp_per_seed)
                      (Ad.value fwd.Relaxation.per_seed_cost);
                    bits "penalty"
                      (Plan.value r.rp r.rp_penalty)
                      (Ad.value fwd.Relaxation.penalty)
                | None -> ());
                let loss_ok = Tensor.all_finite (Ad.value fwd.Relaxation.loss) in
                let grad_ok = ref false in
                if loss_ok then begin
                  (* backward + step, guarded: a poisoned gradient skips
                     the Adam update entirely *)
                  let (), t_bwd =
                    Timer.time (fun () ->
                        Trace.with_span ~cat:"smoothe" "smoothe.backward" (fun () ->
                            Ad.backward fwd.Relaxation.loss);
                        let grad = Ad.grad fwd.Relaxation.theta in
                        (match shadow with
                        | Some r ->
                            Trace.with_span ~cat:"smoothe" "plan.replay.backward"
                              (fun () -> Plan.run_backward r.rp);
                            if not (Tensor.bits_equal (Plan.grad_of r.rp r.rp_theta) grad)
                            then
                              failwith
                                (Printf.sprintf
                                   "plan check: replayed theta gradient diverges bitwise \
                                    from the interpreter at iteration %d"
                                   !iter)
                        | None -> ());
                        if Tensor.all_finite grad then begin
                          grad_ok := true;
                          Trace.with_span ~cat:"smoothe" "smoothe.adam_step" (fun () ->
                              let norm = Optim.clip_grad_norm ~max_norm:100.0 [ grad ] in
                              if !Obs.on then Metrics.observe "smoothe.grad_norm" norm;
                              Optim.adam_step opt [ grad ])
                        end)
                  in
                  grad_time := !grad_time +. t_bwd
                end;
                sample_and_log ~loss_ok ~grad_ok:!grad_ok
                  ~cp:(Ad.value fwd.Relaxation.cp)
                  ~per_seed:(Ad.value fwd.Relaxation.per_seed_cost)
                  ~penalty:(Ad.value fwd.Relaxation.penalty);
                if loss_ok && !grad_ok then advance_plan fwd);
            (match checkpoint with
             | Some st when checkpoint_every > 0 && !iter mod checkpoint_every = 0 ->
                 save_checkpoint st ~iter:!iter
             | _ -> ());
            if Timer.expired deadline then stop := true
            else if
              !best_solution <> None
              && !iter - !last_improvement >= config.Smoothe_config.patience
            then stop := true
          done)
       with e ->
         drain ();
         (match health with Some shared -> Health.merge ~into:shared log | None -> ());
         raise e);
      let total = !loss_time +. !grad_time +. !sample_time in
      let notes =
        [
          ("assumption", Smoothe_config.assumption_name config.Smoothe_config.assumption);
          ("batch", string_of_int batch);
          ("device", device.Device.device_name);
        ]
        @ (match c_desc with Some d -> [ ("derated", d) ] | None -> [])
        @
        if !recoveries > 0 then [ ("recoveries", string_of_int !recoveries) ] else []
      in
      let result =
        Extractor.make_with_model
          ~trace:(List.rev !trace)
          ~notes ~method_name:"smoothe" ~time_s:total ~model g !best_solution
      in
      finish
        {
          result;
          iterations = !iters_done;
          best_seed = !best_seed;
          batch_used = batch;
          prop_iters = compiled.Relaxation.prop_iters;
          profile =
            {
              loss_time = !loss_time;
              grad_time = !grad_time;
              sample_time = !sample_time;
              total_time = total;
            };
          history = List.rev !history;
          oom = false;
          recoveries = 0;
          health = [];
          final_cp = !incumbent_cp;
          plan = !plan_outcome;
        }
