(** Domain-parallel fleet execution (see the interface for the
    soundness, determinism and barrier arguments). *)

module Machine = Live_core.Machine

(** One shard: a worker domain's slice of the fleet for the current
    tick, its lifetime metrics, and the tick's deltas the coordinator
    folds into the report after the barrier.

    Ownership discipline: [assigned] and the [d_*] deltas are written
    by the coordinator during assignment (workers quiescent) and by
    the owning worker during processing (coordinator blocked on the
    barrier); [metrics] is written only by the owning worker and read
    by the coordinator only between ticks.  Every hand-off crosses the
    pool mutex, which gives the necessary happens-before edges. *)
type shard = {
  metrics : Host_metrics.t;  (** per-domain lifetime totals *)
  mutable assigned : Registry.id list;  (** this tick's sessions *)
  mutable d_processed : int;
  mutable d_taps_hit : int;
  mutable d_taps_missed : int;
  mutable d_served : int;
  mutable d_errors : (Registry.id * Machine.error) list;
}

let fresh_shard () =
  {
    metrics = Host_metrics.create ();
    assigned = [];
    d_processed = 0;
    d_taps_hit = 0;
    d_taps_missed = 0;
    d_served = 0;
    d_errors = [];
  }

type t = {
  reg : Registry.t;
  jobs : int;
  batch : int;
  shards : shard array;  (** length [jobs]; index 0 = coordinator *)
  mutable workers : unit Domain.t list;  (** the [jobs - 1] spawned domains *)
  lock : Mutex.t;  (** guards [epoch], [unfinished], [stopping] *)
  work_ready : Condition.t;
  work_done : Condition.t;
  mutable epoch : int;  (** bumped once per tick to release workers *)
  mutable unfinished : int;  (** workers still serving this epoch *)
  mutable stopping : bool;
  world : Mutex.t;
      (** the stop-the-world lock: held for the whole of every tick
          and for the whole of every broadcast, so the two can never
          overlap — the broadcast barrier *)
  ticking : bool Atomic.t;  (** a tick's shards are (possibly) in flight *)
  updating : bool Atomic.t;  (** a broadcast is being applied *)
  violations : int Atomic.t;  (** served-while-updating sightings *)
  mutable shut : bool;
}

(* ------------------------------------------------------------------ *)
(* Shard service (runs on the owning domain)                           *)
(* ------------------------------------------------------------------ *)

let process_shard (t : t) (sh : shard) : unit =
  match sh.assigned with
  | [] -> ()
  | ids ->
      let t0 = Host_metrics.now () in
      List.iter
        (fun id ->
          (* the barrier property, checked from the worker side: a
             broadcast must never be in flight while a session is
             being served *)
          if Atomic.get t.updating then
            ignore (Atomic.fetch_and_add t.violations 1);
          let sv = Scheduler.serve t.reg ~batch:t.batch id in
          sh.d_processed <- sh.d_processed + sv.Scheduler.sv_processed;
          sh.d_taps_hit <- sh.d_taps_hit + sv.Scheduler.sv_taps_hit;
          sh.d_taps_missed <- sh.d_taps_missed + sv.Scheduler.sv_taps_missed;
          if sv.Scheduler.sv_painted then sh.d_served <- sh.d_served + 1;
          sh.d_errors <-
            List.rev_append sv.Scheduler.sv_errors sh.d_errors)
        ids;
      let dt_ns = (Host_metrics.now () -. t0) *. 1e9 in
      (* lifetime per-domain accounting; merged into fleet totals by
         {!snapshot} *)
      let m = sh.metrics in
      m.Host_metrics.events_processed <-
        m.Host_metrics.events_processed + sh.d_processed;
      m.Host_metrics.taps_hit <- m.Host_metrics.taps_hit + sh.d_taps_hit;
      m.Host_metrics.taps_missed <-
        m.Host_metrics.taps_missed + sh.d_taps_missed;
      m.Host_metrics.repaints <- m.Host_metrics.repaints + sh.d_served;
      m.Host_metrics.coalesced_renders <-
        m.Host_metrics.coalesced_renders + (sh.d_processed - sh.d_served);
      Host_metrics.record m.Host_metrics.tick_latency dt_ns

let worker_loop (t : t) (i : int) : unit =
  let sh = t.shards.(i) in
  let my_epoch = ref 0 in
  let running = ref true in
  while !running do
    Mutex.lock t.lock;
    while (not t.stopping) && t.epoch = !my_epoch do
      Condition.wait t.work_ready t.lock
    done;
    if t.stopping then begin
      Mutex.unlock t.lock;
      running := false
    end
    else begin
      my_epoch := t.epoch;
      Mutex.unlock t.lock;
      process_shard t sh;
      Mutex.lock t.lock;
      t.unfinished <- t.unfinished - 1;
      if t.unfinished = 0 then Condition.signal t.work_done;
      Mutex.unlock t.lock
    end
  done

(* ------------------------------------------------------------------ *)
(* Pool lifecycle                                                      *)
(* ------------------------------------------------------------------ *)

let create ?jobs:(j = Domain.recommended_domain_count ())
    ?(batch = 8) (reg : Registry.t) : t =
  let jobs = max 1 (min 64 j) in
  let t =
    {
      reg;
      jobs;
      batch = max 1 batch;
      shards = Array.init jobs (fun _ -> fresh_shard ());
      workers = [];
      lock = Mutex.create ();
      work_ready = Condition.create ();
      work_done = Condition.create ();
      epoch = 0;
      unfinished = 0;
      stopping = false;
      world = Mutex.create ();
      ticking = Atomic.make false;
      updating = Atomic.make false;
      violations = Atomic.make 0;
      shut = false;
    }
  in
  t.workers <-
    List.init (jobs - 1) (fun k -> Domain.spawn (fun () -> worker_loop t (k + 1)));
  t

let shutdown (t : t) : unit =
  if not t.shut then begin
    t.shut <- true;
    Mutex.lock t.lock;
    t.stopping <- true;
    Condition.broadcast t.work_ready;
    Mutex.unlock t.lock;
    List.iter Domain.join t.workers;
    t.workers <- []
  end

let with_pool ?jobs ?batch reg f =
  let t = create ?jobs ?batch reg in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

let jobs (t : t) = t.jobs
let registry (t : t) = t.reg
let barrier_violations (t : t) = Atomic.get t.violations
let domain_metrics (t : t) = Array.map (fun sh -> sh.metrics) t.shards

(* ------------------------------------------------------------------ *)
(* The tick                                                            *)
(* ------------------------------------------------------------------ *)

(** Deterministic hottest-first LPT partition: runnable sessions
    sorted by this tick's work (descending, ties by id) and dealt
    greedily to the least-loaded shard (ties to the lowest index).
    Deterministic because every input — pending depths, the id order —
    is; so for a seeded trace the shard a session lands on is a pure
    function of the trace, and so (more importantly) is the event
    sequence each {e session} sees, whatever domain serves it. *)
let assign (t : t) : unit =
  Array.iter
    (fun sh ->
      sh.assigned <- [];
      sh.d_processed <- 0;
      sh.d_taps_hit <- 0;
      sh.d_taps_missed <- 0;
      sh.d_served <- 0;
      sh.d_errors <- [])
    t.shards;
  let work =
    List.filter_map
      (fun id ->
        let p = Registry.pending t.reg id in
        if p = 0 then None else Some (id, min p t.batch))
      (Registry.ids t.reg)
  in
  let work =
    List.stable_sort
      (fun (a, wa) (b, wb) ->
        match compare wb wa with 0 -> compare a b | c -> c)
      work
  in
  let load = Array.make t.jobs 0 in
  List.iter
    (fun (id, w) ->
      let best = ref 0 in
      for j = 1 to t.jobs - 1 do
        if load.(j) < load.(!best) then best := j
      done;
      load.(!best) <- load.(!best) + w;
      t.shards.(!best).assigned <- id :: t.shards.(!best).assigned)
    work;
  (* keep hottest-first order within each shard *)
  Array.iter (fun sh -> sh.assigned <- List.rev sh.assigned) t.shards

let tick (t : t) : Scheduler.tick_report =
  if t.shut then invalid_arg "Parallel.tick: pool is shut down";
  Mutex.lock t.world;
  Fun.protect
    ~finally:(fun () ->
      Atomic.set t.ticking false;
      Mutex.unlock t.world)
    (fun () ->
      Atomic.set t.ticking true;
      let t0 = Host_metrics.now () in
      assign t;
      (* release the workers on shards 1.., serve shard 0 here *)
      Mutex.lock t.lock;
      t.epoch <- t.epoch + 1;
      t.unfinished <- t.jobs - 1;
      if t.jobs > 1 then Condition.broadcast t.work_ready;
      Mutex.unlock t.lock;
      process_shard t t.shards.(0);
      Mutex.lock t.lock;
      while t.unfinished > 0 do
        Condition.wait t.work_done t.lock
      done;
      Mutex.unlock t.lock;
      (* every shard has quiesced: fold the tick together *)
      let latency_ns = (Host_metrics.now () -. t0) *. 1e9 in
      let m = Registry.metrics t.reg in
      m.Host_metrics.ticks <- m.Host_metrics.ticks + 1;
      let processed = ref 0 in
      let served = ref 0 in
      let taps_hit = ref 0 in
      let taps_missed = ref 0 in
      let errors = ref [] in
      Array.iter
        (fun sh ->
          processed := !processed + sh.d_processed;
          served := !served + sh.d_served;
          taps_hit := !taps_hit + sh.d_taps_hit;
          taps_missed := !taps_missed + sh.d_taps_missed;
          errors := !errors @ List.rev sh.d_errors)
        t.shards;
      {
        Scheduler.processed = !processed;
        sessions_served = !served;
        repaints = !served;
        coalesced = !processed - !served;
        taps_hit = !taps_hit;
        taps_missed = !taps_missed;
        errors = !errors;
        latency_ns;
      })

let drain ?(max_ticks = 1_000_000) (t : t) : (int, string) result =
  let rec go k total =
    if Registry.total_pending t.reg = 0 then Ok total
    else if k <= 0 then
      Error
        (Printf.sprintf "drain: %d events still pending after %d ticks"
           (Registry.total_pending t.reg) max_ticks)
    else
      let r = tick t in
      if r.Scheduler.processed = 0 && Registry.total_pending t.reg > 0 then
        Error "drain: pending events but a tick processed nothing"
      else go (k - 1) (total + r.Scheduler.processed)
  in
  go max_ticks 0

(* ------------------------------------------------------------------ *)
(* The broadcast barrier                                               *)
(* ------------------------------------------------------------------ *)

let update ?typecheck (t : t) (code : Live_core.Program.t) :
    (Broadcast.report, Machine.error) result =
  Mutex.lock t.world;
  Fun.protect
    ~finally:(fun () ->
      Atomic.set t.updating false;
      Mutex.unlock t.world)
    (fun () ->
      (* holding [world] means no tick is in flight; if one somehow
         were, both sides would count it *)
      if Atomic.get t.ticking then
        ignore (Atomic.fetch_and_add t.violations 1);
      Atomic.set t.updating true;
      Broadcast.update ?typecheck t.reg code)

let exclusive (t : t) (f : unit -> 'a) : 'a =
  Mutex.lock t.world;
  Fun.protect
    ~finally:(fun () ->
      Atomic.set t.updating false;
      Mutex.unlock t.world)
    (fun () ->
      if Atomic.get t.ticking then
        ignore (Atomic.fetch_and_add t.violations 1);
      Atomic.set t.updating true;
      f ())

(* ------------------------------------------------------------------ *)
(* Fleet totals                                                        *)
(* ------------------------------------------------------------------ *)

let snapshot (t : t) : Host_metrics.snapshot =
  Registry.snapshot_merged t.reg
    ~extra:(Array.to_list (domain_metrics t))
