module P = Serve_protocol

type config = {
  queue_limit : int;
  executors : int;
  default_budget : float;
  max_budget : float;
  retry_attempts : int;
  cache_capacity : int;
  preflight : bool;
  plan : Smoothe_config.plan_mode;
}

let default_config =
  {
    queue_limit = 64;
    executors = 0;
    default_budget = 30.0;
    max_budget = 300.0;
    retry_attempts = 2;
    cache_capacity = 128;
    preflight = false;
    plan = Smoothe_config.default.Smoothe_config.plan;
  }

let validate_config c =
  let ( let* ) = Result.bind in
  let* _ = P.positive_int ~what:"queue limit" c.queue_limit in
  let* _ =
    if c.executors < 0 then
      Error (Printf.sprintf "executors must be >= 0, got %d" c.executors)
    else Ok c.executors
  in
  let* _ = P.positive_float ~what:"default budget" c.default_budget in
  let* _ = P.positive_float ~what:"max budget" c.max_budget in
  let* _ = P.positive_int ~what:"retry attempts" c.retry_attempts in
  let* _ =
    if c.cache_capacity < 0 then
      Error (Printf.sprintf "cache capacity must be >= 0, got %d" c.cache_capacity)
    else Ok c.cache_capacity
  in
  Ok c

(* A ticket is the engine's promise of a response: the admission path
   hands it to the caller, an executor fulfils it. *)
type ticket = {
  req : P.request;
  rid : string;  (** request id minted at admission; see [mint_rid] *)
  jrid : string;
      (** journal id: equals [rid] for fresh requests; a replayed
          request keeps the rid its admitted frame was journaled under,
          so its completion frame closes that frame *)
  graph : Egraph.t;
  cache_key : Serve_cache.key option;
  budget : float;
  overall : Timer.deadline;  (** includes queue wait; armed at admission *)
  enq_at : float;
  tk_m : Mutex.t;
  tk_cv : Condition.t;
  mutable resp : P.response option;
}

type offer_outcome = Queued of ticket | Done of P.response

type t = {
  cfg : config;
  adm : Admission.t;
  q : ticket Queue.t;
  m : Mutex.t;
  cv_work : Condition.t;  (** executors wait here for arrivals *)
  cv_idle : Condition.t;  (** drain waits here for quiescence *)
  cache : P.ok_body Serve_cache.t;
  daemon_health : Health.log;
  journal : Serve_journal.t option;
  created_at : float;
  mutable seq : int;  (** request-id sequence, guarded by [m] *)
  mutable latency_est_ms : float;
  mutable replayed : int;  (** journal replays this process performed *)
  mutable warmed : int;  (** cache entries restored from the journal *)
  mutable domains : unit Domain.t list;
}

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

(* Every request that reaches [offer] gets a daemon-unique id — the
   client id plus an admission sequence number — stamped on its log
   lines, its [serve.request] trace span and its health events, so one
   request can be followed across queue -> retry -> cache -> solution
   even when clients reuse ids. *)
let mint_rid t id =
  let n = locked t (fun () -> t.seq <- t.seq + 1; t.seq) in
  Printf.sprintf "%s#%d" (if id = "" then "anon" else id) n

let fulfill tk resp =
  Mutex.lock tk.tk_m;
  tk.resp <- Some resp;
  Condition.broadcast tk.tk_cv;
  Mutex.unlock tk.tk_m

let await tk =
  Mutex.lock tk.tk_m;
  let rec wait () =
    match tk.resp with
    | Some r -> r
    | None ->
        Condition.wait tk.tk_cv tk.tk_m;
        wait ()
  in
  Fun.protect ~finally:(fun () -> Mutex.unlock tk.tk_m) wait

let peek tk =
  Mutex.lock tk.tk_m;
  let r = tk.resp in
  Mutex.unlock tk.tk_m;
  r

(* --- request resolution ------------------------------------------------ *)

let resolve_graph req =
  match req.P.source with
  | P.Inline text -> (
      match Egraph.Serial.of_string text with
      | g -> Ok g
      | exception Failure msg -> Error (Printf.sprintf "unparsable e-graph: %s" msg))
  | P.Instance name -> (
      match Registry.find_instance name with
      | inst -> Ok (inst.Registry.build ())
      | exception Not_found -> Error (Printf.sprintf "unknown instance %S" name))

let apply_costs req g =
  match req.P.costs with
  | None -> Ok g
  | Some costs -> (
      match Egraph.set_costs g costs with
      | g -> Ok g
      | exception Invalid_argument msg -> Error (Printf.sprintf "bad cost override: %s" msg))

let cache_key_of req g =
  (* canonical serialized text (cost overrides already applied), so the
     key tracks content, not submission formatting *)
  let text = Egraph.Serial.to_string g in
  let fingerprint =
    {
      Checkpoint.fp_graph = g.Egraph.name;
      fp_nodes = Egraph.num_nodes g;
      fp_classes = Egraph.num_classes g;
      fp_seed = req.P.seed;
      fp_batch = req.P.batch;
    }
  in
  let config_digest =
    Printf.sprintf "m=%s;iters=%d;lambda=%h" (P.method_name req.P.method_) req.P.iters
      req.P.lambda_
  in
  Serve_cache.key ~fingerprint ~graph_crc:(Checksum.crc32 text) ~config_digest

(* --- execution --------------------------------------------------------- *)

let choices_of_solution = function
  | None -> []
  | Some s ->
      let acc = ref [] in
      Array.iteri
        (fun cls node -> match node with Some n -> acc := (cls, n) :: !acc | None -> ())
        s.Egraph.Solution.choice;
      List.rev !acc

let run_extraction cfg req g ~health ~time_limit =
  match req.P.method_ with
  | P.Greedy -> (Greedy.extract g, 0)
  | P.Greedy_dag -> (Greedy_dag.extract g, 0)
  | P.Smoothe ->
      let config =
        {
          Smoothe_config.default with
          Smoothe_config.batch = req.P.batch;
          max_iters = req.P.iters;
          time_limit;
          seed = req.P.seed;
          lambda_ = req.P.lambda_;
          plan = cfg.plan;
        }
      in
      let run = Smoothe_extract.extract ~config ~health ~preflight:cfg.preflight g in
      (run.Smoothe_extract.result, run.Smoothe_extract.iterations)

let execute t tk =
  let req = tk.req in
  let queue_ms = Float.max 0.0 ((Timer.now () -. tk.enq_at) *. 1000.0) in
  if !Obs.on then Metrics.observe "serve.queue_ms" queue_ms;
  Log.emit ~req:tk.rid ~event:"request.dequeued" [ ("queue_ms", Json.Number queue_ms) ];
  if Timer.expired tk.overall then begin
    if !Obs.on then Metrics.incr "serve.deadline_expired";
    Log.emit ~req:tk.rid ~event:"request.deadline_expired"
      [ ("where", Json.String "queue"); ("queue_ms", Json.Number queue_ms) ];
    P.error_response ~queue_ms ~id:req.P.id P.Deadline_expired
      (Printf.sprintf "deadline passed after %.1fms in queue" queue_ms)
  end
  else begin
    let health = Health.create () in
    let member = "request:" ^ tk.rid in
    let budget = Float.min tk.budget (Timer.remaining tk.overall) in
    let supervised () =
      Supervisor.run_retrying ~health ~rng:(Rng.create (req.P.seed + 0x5eed))
        ~attempts:t.cfg.retry_attempts ~backoff:0.01 ~name:member ~budget
        (fun ~attempt:_ dl -> run_extraction t.cfg req tk.graph ~health ~time_limit:(Timer.remaining dl))
    in
    let outcome, dt =
      Timer.time (fun () ->
          Trace.with_span ~cat:"serve"
            ~attrs:
              (if !Obs.on then
                 [
                   ("id", req.P.id);
                   ("rid", tk.rid);
                   ("method", P.method_name req.P.method_);
                 ]
               else [])
            "serve.request"
            (fun () ->
              if req.P.fault_plan = "" then supervised ()
              else Fault_plan.with_plan (Fault_plan.of_string req.P.fault_plan) supervised))
    in
    let elapsed_ms = dt *. 1000.0 in
    if !Obs.on then Metrics.observe "serve.request_ms" elapsed_ms;
    (* replay the request's health timeline onto the log with its id:
       retries, faults and recoveries stay attributable per request *)
    (match Log.sink () with
    | Log.Silent -> ()
    | Log.Memory | Log.Channel _ ->
        List.iter
          (fun e ->
            Log.emit ~req:tk.rid ~event:"request.health"
              [
                ("kind", Json.String (Health.kind_name e.Health.kind));
                ("member", Json.String e.Health.member);
                ("detail", Json.String e.Health.detail);
              ])
          (Health.events health));
    locked t (fun () -> Health.merge ~into:t.daemon_health health);
    match outcome with
    | Supervisor.Finished _ when Timer.expired tk.overall ->
        (* the overall deadline is a response deadline: a result the
           client has already given up on is not a success *)
        if !Obs.on then Metrics.incr "serve.deadline_expired";
        Log.emit ~req:tk.rid ~event:"request.deadline_expired"
          [ ("where", Json.String "completion"); ("elapsed_ms", Json.Number elapsed_ms) ];
        {
          (P.error_response ~queue_ms ~id:req.P.id P.Deadline_expired
             (Printf.sprintf "completed after the %.1fms deadline"
                (Option.value ~default:0.0 req.P.deadline_ms)))
          with
          P.elapsed_ms;
        }
    | Supervisor.Finished (result, iterations) ->
        let valid =
          match result.Extractor.solution with
          | Some s -> Egraph.Solution.is_valid tk.graph s
          | None -> false
        in
        let body =
          {
            P.cost = result.Extractor.cost;
            valid;
            choices = choices_of_solution result.Extractor.solution;
            iterations;
            cache_hit = false;
            health = Health.summary health;
          }
        in
        (* only fault-free, valid runs are worth replaying to the next
           client; a faulted run answers its own request but is not
           representative *)
        (match tk.cache_key with
        | Some key when valid && req.P.fault_plan = "" -> Serve_cache.add t.cache key body
        | Some _ | None -> ());
        if !Obs.on then begin
          Metrics.incr "serve.completed";
          Metrics.mark "serve.completed.rate"
        end;
        Log.emit ~req:tk.rid ~event:"request.completed"
          [
            ("cost", Json.Number result.Extractor.cost);
            ("valid", Json.Bool valid);
            ("iterations", Json.Number (float_of_int iterations));
            ("elapsed_ms", Json.Number elapsed_ms);
          ];
        { P.resp_id = req.P.id; elapsed_ms; queue_ms; body = Ok body }
    | Supervisor.Crashed { exn } ->
        if !Obs.on then Metrics.incr "serve.crashed";
        Log.emit ~req:tk.rid ~event:"request.crashed" [ ("error", Json.String exn) ];
        {
          (P.error_response ~queue_ms ~id:req.P.id P.Crashed
             (Printf.sprintf "run failed after %d attempt(s): %s" t.cfg.retry_attempts exn))
          with
          P.elapsed_ms;
        }
  end

(* --- executor loop ----------------------------------------------------- *)

let finish_one t =
  Mutex.lock t.m;
  Admission.finish t.adm;
  if !Obs.on then
    Metrics.set_gauge "serve.queue_depth" (float_of_int (Admission.snapshot t.adm).Admission.queued);
  if Admission.idle t.adm then Condition.broadcast t.cv_idle;
  Mutex.unlock t.m

let record_latency t elapsed_ms =
  (* rolling estimate backing the shed responses' retry-after hints *)
  Mutex.lock t.m;
  t.latency_est_ms <- (0.8 *. t.latency_est_ms) +. (0.2 *. elapsed_ms);
  Mutex.unlock t.m

(* Durably mark the ticket answered. For cacheable successes the frame
   carries the cache key and body, so the next process can warm its
   solution cache and serve retries of this request as hits. A journal
   write failure here must not kill the executor: the response still
   goes out, the request merely replays (harmlessly) on next start. *)
let journal_completion t tk resp =
  match t.journal with
  | None -> ()
  | Some j -> (
      let key, body =
        match (resp.P.body, tk.cache_key) with
        | Ok b, Some key when b.P.valid && tk.req.P.fault_plan = "" ->
            (Some key, Some { b with P.cache_hit = false })
        | _ -> (None, None)
      in
      try
        Serve_journal.append_completed j ~rid:tk.jrid ?key ?body ();
        if !Obs.on then Metrics.incr "serve.journal.appends"
      with e ->
        locked t (fun () ->
            Health.record t.daemon_health ~member:"journal" Health.Degraded
              ("completion append failed: " ^ Printexc.to_string e));
        Log.emit ~req:tk.rid ~event:"journal.append_failed"
          [ ("error", Json.String (Printexc.to_string e)) ])

let execute_and_fulfill t tk =
  let resp =
    match execute t tk with
    | resp -> resp
    | exception e ->
        (* an executor must never die with its request *)
        locked t (fun () ->
            Health.record t.daemon_health ~member:("request:" ^ tk.rid)
              Health.Member_failed (Printexc.to_string e));
        if !Obs.on then Metrics.incr "serve.internal_errors";
        Log.emit ~req:tk.rid ~event:"request.internal_error"
          [ ("error", Json.String (Printexc.to_string e)) ];
        P.error_response ~id:tk.req.P.id P.Internal (Printexc.to_string e)
  in
  journal_completion t tk resp;
  (* settle the admission counters before the caller can observe the
     response, so a stats probe right after a reply never sees the
     finished request still in flight *)
  finish_one t;
  fulfill tk resp;
  record_latency t resp.P.elapsed_ms;
  (* deliberately outside the per-request guard above: a
     crash-in-flight fault models an engine bug that escapes request
     supervision and kills the daemon with work still queued *)
  Fault_plan.crash_in_flight
    ~completed:(locked t (fun () -> (Admission.snapshot t.adm).Admission.completed))

let rec exec_loop t =
  Mutex.lock t.m;
  let rec next () =
    if not (Queue.is_empty t.q) then
      match Admission.state t.adm with
      | Admission.Stopped -> `Exit  (* stop() fails the leftovers *)
      | Admission.Accepting | Admission.Draining -> `Work (Queue.pop t.q)
    else
      match Admission.state t.adm with
      | Admission.Stopped | Admission.Draining -> `Exit
      | Admission.Accepting ->
          Condition.wait t.cv_work t.m;
          next ()
  in
  match next () with
  | `Exit ->
      Condition.broadcast t.cv_idle;
      Mutex.unlock t.m
  | `Work tk ->
      Admission.start t.adm;
      if !Obs.on then
        Metrics.set_gauge "serve.queue_depth"
          (float_of_int (Admission.snapshot t.adm).Admission.queued);
      Mutex.unlock t.m;
      execute_and_fulfill t tk;
      exec_loop t

(* --- lifecycle --------------------------------------------------------- *)

let create ?(config = default_config) ?journal () =
  (match validate_config config with
  | Ok _ -> ()
  | Error msg -> invalid_arg ("Serve_engine.create: " ^ msg));
  let t =
    {
      cfg = config;
      adm = Admission.create ~queue_limit:config.queue_limit;
      q = Queue.create ();
      m = Mutex.create ();
      cv_work = Condition.create ();
      cv_idle = Condition.create ();
      cache = Serve_cache.create ~capacity:config.cache_capacity;
      daemon_health = Health.create ();
      journal;
      created_at = Timer.now ();
      seq = 0;
      latency_est_ms = 50.0;
      replayed = 0;
      warmed = 0;
      domains = [];
    }
  in
  (match journal with
  | None -> ()
  | Some j ->
      (* warm the solution cache from the journal's carried-forward
         completions before any executor starts, so replays and client
         retries of already-answered requests hit instead of recompute *)
      List.iter (fun (key, body) -> Serve_cache.add t.cache key body) (Serve_journal.warm j);
      t.warmed <- List.length (Serve_journal.warm j);
      if !Obs.on && t.warmed > 0 then
        Metrics.set_gauge "serve.journal.warmed" (float_of_int t.warmed);
      List.iter
        (fun (file, reason) ->
          Health.record t.daemon_health ~member:"journal" Health.Journal_torn
            (Printf.sprintf "%s: %s" file reason);
          if !Obs.on then Metrics.incr "serve.journal.torn";
          Log.emit ~event:"journal.torn"
            [ ("file", Json.String file); ("reason", Json.String reason) ])
        (Serve_journal.torn j));
  t.domains <- List.init config.executors (fun _ -> Domain.spawn (fun () -> exec_loop t));
  t

let fresh_ticket req ~rid ~jrid graph cache_key ~budget ~overall =
  {
    req;
    rid;
    jrid;
    graph;
    cache_key;
    budget;
    overall;
    enq_at = Timer.now ();
    tk_m = Mutex.create ();
    tk_cv = Condition.create ();
    resp = None;
  }

(* [replay = Some jrid] re-offers a journaled request after a restart:
   it runs the full validation/cache/admission gauntlet like any fresh
   request, but keeps the journal rid of its existing admitted frame
   (so its completion closes that frame) and skips re-journaling the
   admission (the open-time compaction already carried the frame into
   the current generation). *)
let offer_aux t req ~replay =
  let rid = mint_rid t req.P.id in
  if !Obs.on then begin
    Metrics.incr "serve.requests";
    Metrics.mark "serve.offered.rate"
  end;
  Log.emit ~req:rid ~event:"request.received"
    [
      ("id", Json.String req.P.id);
      ("method", Json.String (P.method_name req.P.method_));
    ];
  let bad msg =
    Log.emit ~req:rid ~event:"request.rejected" [ ("error", Json.String msg) ];
    Done (P.error_response ~id:req.P.id P.Bad_request msg)
  in
  if req.P.fault_plan <> "" && t.cfg.executors > 1 then
    bad "per-request fault plans need a daemon with at most one executor (they install \
         process-ambient state)"
  else
    match Result.bind (resolve_graph req) (apply_costs req) with
    | Error msg -> bad msg
    | Ok graph -> (
        let budget =
          Float.min t.cfg.max_budget (Option.value ~default:t.cfg.default_budget req.P.budget)
        in
        let key =
          if req.P.use_cache && Serve_cache.capacity t.cache > 0 then
            Some (cache_key_of req graph)
          else None
        in
        let cached = Option.bind key (Serve_cache.find t.cache) in
        match cached with
        | Some body ->
            if !Obs.on then begin
              Metrics.incr "serve.cache_hits";
              Metrics.mark "serve.cache_hit.rate"
            end;
            Log.emit ~req:rid ~event:"request.cache_hit"
              [ ("cost", Json.Number body.P.cost) ];
            Done
              {
                P.resp_id = req.P.id;
                elapsed_ms = 0.0;
                queue_ms = 0.0;
                body = Ok { body with P.cache_hit = true };
              }
        | None ->
            if !Obs.on && key <> None then begin
              Metrics.incr "serve.cache_misses";
              Metrics.mark "serve.cache_miss.rate"
            end;
            let overall =
              match req.P.deadline_ms with
              | None -> Timer.no_deadline
              | Some ms -> Timer.deadline_after (ms /. 1000.0)
            in
            let decision =
              locked t (fun () ->
                  let d = Admission.offer t.adm ~est_ms:t.latency_est_ms in
                  (match d with
                  | Admission.Admit ->
                      if !Obs.on then begin
                        Metrics.incr "serve.admitted";
                        Metrics.set_gauge "serve.queue_depth"
                          (float_of_int (Admission.snapshot t.adm).Admission.queued)
                      end
                  | Admission.Shed _ ->
                      if !Obs.on then begin
                        Metrics.incr "serve.shed";
                        Metrics.mark "serve.shed.rate"
                      end
                  | Admission.Refuse _ -> if !Obs.on then Metrics.incr "serve.refused");
                  d)
            in
            (match decision with
            | Admission.Admit -> (
                let jrid = Option.value ~default:rid replay in
                let tk = fresh_ticket req ~rid ~jrid graph key ~budget ~overall in
                (* the write-ahead step: the admitted frame must be on
                   disk before the ticket is visible to executors, or a
                   crash between visibility and durability would lose
                   the request. Replays skip it — their frame is
                   already in the current generation. *)
                let journaled =
                  match t.journal with
                  | Some j when replay = None -> (
                      try
                        Serve_journal.append_admitted j ~rid:jrid req;
                        if !Obs.on then Metrics.incr "serve.journal.appends";
                        Ok ()
                      with e -> Error (Printexc.to_string e))
                  | Some _ | None -> Ok ()
                in
                match journaled with
                | Error msg ->
                    (* durability failed: refuse rather than accept a
                       request we could silently lose. The admission
                       slot is settled so counters stay exact. *)
                    locked t (fun () ->
                        Admission.start t.adm;
                        Admission.finish t.adm;
                        Health.record t.daemon_health ~member:"journal" Health.Degraded
                          ("admit append failed: " ^ msg));
                    Log.emit ~req:rid ~event:"journal.append_failed"
                      [ ("error", Json.String msg) ];
                    Done
                      (P.error_response ~id:req.P.id P.Internal
                         ("request journal append failed: " ^ msg))
                | Ok () ->
                    (* log before the push: once the ticket is visible an
                       executor may dequeue it, and the admitted line must
                       precede the dequeued one in the request's timeline *)
                    Log.emit ~req:rid ~event:"request.admitted"
                      [
                        ("queued",
                         Json.Number
                           (float_of_int (Admission.snapshot t.adm).Admission.queued));
                      ];
                    locked t (fun () ->
                        Queue.push tk t.q;
                        Condition.signal t.cv_work);
                    Queued tk)
            | Admission.Shed { retry_after_ms } ->
                Log.emit ~req:rid ~event:"request.shed"
                  [ ("retry_after_ms", Json.Number retry_after_ms) ];
                Done
                  (P.error_response ~retry_after_ms ~id:req.P.id P.Overloaded
                     (Printf.sprintf "admission queue full (limit %d); retry after %.0fms"
                        t.cfg.queue_limit retry_after_ms))
            | Admission.Refuse st ->
                Log.emit ~req:rid ~event:"request.refused"
                  [ ("state", Json.String (Admission.state_name st)) ];
                Done
                  (P.error_response ~id:req.P.id P.Draining
                     (Printf.sprintf "daemon is %s; not accepting new requests"
                        (Admission.state_name st)))))

let offer t req = offer_aux t req ~replay:None

let submit t req = match offer t req with Queued tk -> await tk | Done r -> r

(* --- journal replay ---------------------------------------------------- *)

let recover t =
  match t.journal with
  | None -> 0
  | Some j ->
      let mark_answered jrid =
        try Serve_journal.append_completed j ~rid:jrid ()
        with _ -> () (* already logged via journal_completion's path on next write *)
      in
      let pending = Serve_journal.pending j in
      List.iter
        (fun (jrid, req) ->
          if !Obs.on then Metrics.incr "serve.journal.replayed";
          Health.record t.daemon_health ~member:("request:" ^ jrid) Health.Replayed
            "re-offered from journal after restart";
          Log.emit ~req:jrid ~event:"request.replayed" [ ("id", Json.String req.P.id) ];
          let rec replay attempts =
            match offer_aux t req ~replay:(Some jrid) with
            | Queued _ -> () (* an executor (or run_pending) completes and journals it *)
            | Done resp -> (
                match resp.P.body with
                | Error { P.code = P.Overloaded; retry_after_ms; _ }
                  when attempts > 0 && t.cfg.executors > 0 ->
                    (* executors are draining the backlog we just
                       re-queued; give them the hinted pause *)
                    Unix.sleepf (Option.value ~default:10.0 retry_after_ms /. 1000.0);
                    replay (attempts - 1)
                | Error { P.code = P.Overloaded; _ } ->
                    (* still shed: leave the frame incomplete so the
                       request replays on the next restart instead of
                       being dropped *)
                    Log.emit ~req:jrid ~event:"request.replay_shed" []
                | Ok _ | Error _ ->
                    (* answered at admission (cache hit from the warmed
                       cache, or rejected as invalid): close the frame
                       so it never replays again *)
                    mark_answered jrid)
          in
          replay 3;
          locked t (fun () -> t.replayed <- t.replayed + 1))
        pending;
      List.length pending

let run_pending t =
  let rec go n =
    let work =
      locked t (fun () ->
          if Queue.is_empty t.q then None
          else begin
            let tk = Queue.pop t.q in
            Admission.start t.adm;
            Some tk
          end)
    in
    match work with
    | None -> n
    | Some tk ->
        execute_and_fulfill t tk;
        go (n + 1)
  in
  go 0

let drain t =
  Mutex.lock t.m;
  Admission.drain t.adm;
  Condition.broadcast t.cv_work;
  if t.domains <> [] then
    while not (Admission.idle t.adm) do
      Condition.wait t.cv_idle t.m
    done;
  Mutex.unlock t.m

let stop t =
  let leftovers =
    locked t (fun () ->
        Admission.stop t.adm;
        Condition.broadcast t.cv_work;
        let rec pop acc =
          if Queue.is_empty t.q then List.rev acc else pop (Queue.pop t.q :: acc)
        in
        pop [])
  in
  List.iter
    (fun tk ->
      (* the admission counters still owe a start/finish for each
         admitted-but-never-run ticket *)
      locked t (fun () ->
          Admission.start t.adm;
          Admission.finish t.adm);
      fulfill tk
        (P.error_response ~id:tk.req.P.id P.Draining "daemon stopped before execution"))
    leftovers;
  locked t (fun () -> if Admission.idle t.adm then Condition.broadcast t.cv_idle);
  let ds = t.domains in
  t.domains <- [];
  List.iter Domain.join ds

let health t = t.daemon_health
let replayed t = locked t (fun () -> t.replayed)
let warmed t = t.warmed

type stats = {
  admission : Admission.snapshot;
  cache_hits : int;
  cache_misses : int;
  cache_size : int;
  cache_hit_rate : float;
  latency_est_ms : float;
  uptime_s : float;
}

let stats t =
  locked t (fun () ->
      let hits = Serve_cache.hits t.cache and misses = Serve_cache.misses t.cache in
      let lookups = hits + misses in
      {
        admission = Admission.snapshot t.adm;
        cache_hits = hits;
        cache_misses = misses;
        cache_size = Serve_cache.size t.cache;
        (* 0/0 lookups reads as 0%, not NaN: a fresh daemon has not
           missed anything yet either *)
        cache_hit_rate = (if lookups = 0 then 0.0 else float_of_int hits /. float_of_int lookups);
        latency_est_ms = t.latency_est_ms;
        uptime_s = Float.max 0.0 (Timer.now () -. t.created_at);
      })

let stats_json t =
  let s = stats t in
  let a = s.admission in
  Json.Object
    ([
      ("state", Json.String (Admission.state_name a.Admission.snap_state));
      ("queued", Json.Number (float_of_int a.Admission.queued));
      ("queue_limit", Json.Number (float_of_int t.cfg.queue_limit));
      ("inflight", Json.Number (float_of_int a.Admission.inflight));
      ("admitted", Json.Number (float_of_int a.Admission.admitted));
      ("shed", Json.Number (float_of_int a.Admission.shed));
      ("refused", Json.Number (float_of_int a.Admission.refused));
      ("completed", Json.Number (float_of_int a.Admission.completed));
      ("cache_hits", Json.Number (float_of_int s.cache_hits));
      ("cache_misses", Json.Number (float_of_int s.cache_misses));
      ("cache_hit_rate", Json.Number s.cache_hit_rate);
      ("cache_size", Json.Number (float_of_int s.cache_size));
      ("cache_capacity", Json.Number (float_of_int t.cfg.cache_capacity));
      ("latency_est_ms", Json.Number s.latency_est_ms);
      ("uptime_s", Json.Number s.uptime_s);
    ]
    @
    match t.journal with
    | None -> []
    | Some j ->
        [
          ( "journal",
            Json.Object
              [
                ("generation", Json.Number (float_of_int (Serve_journal.generation j)));
                ("appends", Json.Number (float_of_int (Serve_journal.appends j)));
                ( "pending_at_start",
                  Json.Number (float_of_int (List.length (Serve_journal.pending j))) );
                ("warmed", Json.Number (float_of_int t.warmed));
                ("replayed", Json.Number (float_of_int (replayed t)));
                ( "torn_files",
                  Json.Number (float_of_int (List.length (Serve_journal.torn j))) );
              ] );
        ])
