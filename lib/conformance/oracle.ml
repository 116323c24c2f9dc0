open Live_core
module Session = Live_runtime.Session
module Restart = Live_baseline.Restart_runtime

type divergence = {
  step : int;
  event : Ctrace.event option;
  config : string;
  field : string;
  expected : string;
  actual : string;
}

type outcome = Agreed | Diverged of divergence | Boot_failed of string

type sabotage = Cache_no_flush

(* ------------------------------------------------------------------ *)
(* Observations                                                        *)
(* ------------------------------------------------------------------ *)

(** What a configuration exposes after every step, as canonical
    strings: cheap to compare, and already printable when a
    divergence must be reported. *)
type obs = { store : string; stack : string; display : string; pixels : string }

let obs_of_state ~(width : int) (st : State.t) : obs =
  let store =
    Store.bindings st.State.store
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    |> List.map (fun (g, v) ->
           Printf.sprintf "%s = %s" g (Pretty.value_to_string v))
    |> String.concat "\n"
  in
  let stack =
    st.State.stack
    |> List.map (fun (p, v) ->
           Printf.sprintf "%s(%s)" p (Pretty.value_to_string v))
    |> String.concat " ; "
  in
  let display, pixels =
    match st.State.display with
    | State.Invalid -> ("<invalid>", "<invalid>")
    | State.Shown b ->
        (Fmt.str "%a" Boxcontent.pp b, Live_ui.Render.screenshot ~width b)
  in
  { store; stack; display; pixels }

(** Structural invariants every configuration must keep at every
    stable point, whatever the trace did: the state types (Fig. 11),
    the queue is drained, the display is valid. *)
let invariant_of_state (st : State.t) : string option =
  match State_typing.check_state st with
  | Error m -> Some ("ill-typed state: " ^ m)
  | Ok () ->
      if not (State.is_stable st) then Some "state not stable"
      else if not (State.display_valid st) then Some "display invalid"
      else None

(* ------------------------------------------------------------------ *)
(* Configurations                                                      *)
(* ------------------------------------------------------------------ *)

(** A step consumes one trace event; [Ok] carries a short status word
    so configurations must also agree on {e how} a step concluded
    (tapped vs. missed, updated vs. rejected). *)
type config = {
  name : string;
  step : Ctrace.event -> Program.t option -> (string, string) result;
  observe : unit -> obs;
  invariant : unit -> string option;
  strict : unit -> bool;
      (** structural comparison applies; the restart baseline drops
          out at its first UPDATE or queue fault *)
  finalize : unit -> unit;
      (** release owned resources (the parallel host's worker
          domains); called exactly once by {!run}, on every path *)
}

let err_str (e : Machine.error) = Machine.error_to_string e

(** The reference: the uncached Machine driven directly, with the
    oracle's own hit-testing (no Session code involved). *)
let machine_config ~(width : int) (boot : Program.t) :
    (config, string) result =
  match Machine.boot boot with
  | Error e -> Error (err_str e)
  | Ok st0 ->
      let state = ref st0 in
      let pending : [ `Drop | `Dup ] option ref = ref None in
      let apply_pending () =
        match !pending with
        | None -> ()
        | Some f ->
            pending := None;
            state :=
              (match f with
              | `Drop -> Machine.drop_oldest_event !state
              | `Dup -> Machine.duplicate_oldest_event !state)
      in
      let stabilize () =
        match Machine.run_to_stable !state with
        | Ok st ->
            state := st;
            Ok ()
        | Error e -> Error (err_str e)
      in
      let ( let* ) = Result.bind in
      let step (ev : Ctrace.event) (prog : Program.t option) =
        match ev with
        | Ctrace.Tap { x; y } -> (
            match !state.State.display with
            | State.Invalid -> Error "tap: display invalid"
            | State.Shown b -> (
                let root = Live_ui.Layout.layout_page ~width b in
                match Live_ui.Layout.handler_at root ~x ~y with
                | None -> Ok "no-handler"
                | Some handler ->
                    let* st =
                      Result.map_error err_str
                        (Machine.tap !state ~handler)
                    in
                    state := st;
                    apply_pending ();
                    let* () = stabilize () in
                    Ok "tapped"))
        | Ctrace.Back ->
            state := Machine.back !state;
            apply_pending ();
            let* () = stabilize () in
            Ok "ok"
        | Ctrace.Update _ -> (
            match prog with
            | None -> Ok "rejected"
            | Some code ->
                let* st =
                  Result.map_error err_str (Machine.update code !state)
                in
                state := st;
                let* () = stabilize () in
                Ok "updated")
        | Ctrace.Broken_update -> Ok "rejected"
        | Ctrace.Render | Ctrace.Flush_cache -> Ok "ok"
        | Ctrace.Drop_next ->
            pending := Some `Drop;
            Ok "ok"
        | Ctrace.Dup_next ->
            pending := Some `Dup;
            Ok "ok"
        | Ctrace.Begin_txn _ | Ctrace.Canary | Ctrace.Promote
        | Ctrace.Rollback ->
            (* interpreted by the transaction wrapper ({!with_txn});
               inert if a config is ever driven without it *)
            Ok "ok"
      in
      Ok
        {
          name = "machine";
          step;
          observe = (fun () -> obs_of_state ~width !state);
          invariant = (fun () -> invariant_of_state !state);
          strict = (fun () -> true);
          finalize = ignore;
        }

(** A {!Live_runtime.Session}, in one of its cache modes and with
    either expression engine.  [evaluator] defaults to the session
    default (closure-compiled); the ["session"] configuration pins the
    substitution engine so both engines stay under differential test. *)
let session_config ~(width : int) ~(name : string) ~(incremental : bool)
    ~(cache : bool) ?evaluator ?(sabotage : sabotage option)
    (boot : Program.t) : (config, string) result =
  match Session.create ~width ~incremental ~cache ?evaluator boot with
  | Error e -> Error (err_str e)
  | Ok s ->
      (match sabotage with
      | Some Cache_no_flush ->
          Option.iter
            (fun rc -> Render_cache.set_sabotage_no_flush rc true)
            (Session.render_cache_handle s)
      | None -> ());
      let step (ev : Ctrace.event) (prog : Program.t option) =
        match ev with
        | Ctrace.Tap { x; y } -> (
            match Session.tap s ~x ~y with
            | Ok Session.Tapped -> Ok "tapped"
            | Ok Session.No_handler -> Ok "no-handler"
            | Error e -> Error (err_str e))
        | Ctrace.Back -> (
            match Session.back s with
            | Ok () -> Ok "ok"
            | Error e -> Error (err_str e))
        | Ctrace.Update _ -> (
            match prog with
            | None -> Ok "rejected"
            | Some code -> (
                match Session.update s code with
                | Ok _report -> Ok "updated"
                | Error e -> Error (err_str e)))
        | Ctrace.Broken_update -> Ok "rejected"
        | Ctrace.Render ->
            ignore (Session.screenshot s);
            Ok "ok"
        | Ctrace.Flush_cache ->
            Session.flush_caches s;
            Ok "ok"
        | Ctrace.Drop_next ->
            Session.inject s Session.Drop_next_event;
            Ok "ok"
        | Ctrace.Dup_next ->
            Session.inject s Session.Duplicate_next_event;
            Ok "ok"
        | Ctrace.Begin_txn _ | Ctrace.Canary | Ctrace.Promote
        | Ctrace.Rollback ->
            Ok "ok" (* interpreted by {!with_txn} *)
      in
      Ok
        {
          name;
          step;
          observe = (fun () -> obs_of_state ~width (Session.state s));
          invariant = (fun () -> invariant_of_state (Session.state s));
          strict = (fun () -> true);
          finalize = ignore;
        }

(** The multi-session host (lib/host) as a fleet of one, driven
    end-to-end through its ingress / scheduler / broadcast pipeline: a
    tap is offered to the bounded ingress queue and drained by a
    scheduler tick; an update goes through the typecheck-once
    {!Live_host.Broadcast}.  A single-session fleet must agree
    byte-for-byte with the plain session — the scheduler batches and
    coalesces only {e painting}, never the Fig. 9 transitions — so the
    fuzzer's whole trace corpus covers the host subsystem for free. *)
let host_config ~(width : int) ?jobs ?(cache = false) ?typecheck
    (boot : Program.t) : (config, string) result =
  let open Live_host in
  let cfg =
    {
      Registry.default_config with
      Registry.width;
      cache;
      (* ample headroom: the oracle ticks after every offer, so the
         queue never fills and backpressure can never drop an event
         (a drop would — correctly — be a divergence) *)
      queue_capacity = 8;
      queue_policy = Backpressure.Reject;
    }
  in
  let reg = Registry.create ~config:cfg boot in
  match Registry.spawn reg with
  | Error e -> Error (err_str e)
  | Ok id -> (
      match Registry.session reg id with
      | None -> Error "host: spawned session not found"
      | Some s ->
          (* [jobs = None]: the sequential batching scheduler.
             [jobs = Some n]: the lib/host/parallel domain pool — same
             registry, same per-session semantics, ticks fanned out
             across domains and updates applied through the
             stop-the-world barrier.  A fleet of one must agree
             byte-for-byte either way, so the whole trace corpus and
             every fuzz campaign differentially covers the parallel
             path. *)
          let name, tick, update, finalize =
            match jobs with
            | None ->
                let sched =
                  Scheduler.create ~policy:Scheduler.Round_robin ~batch:1 reg
                in
                ( (if cache then "host-incr" else "host"),
                  (fun () -> Scheduler.tick sched),
                  (fun code -> Broadcast.update ?typecheck reg code),
                  ignore )
            | Some j ->
                let pool = Parallel.create ~jobs:j ~batch:1 reg in
                ( "host-parallel",
                  (fun () -> Parallel.tick pool),
                  (fun code -> Parallel.update ?typecheck pool code),
                  fun () -> Parallel.shutdown pool )
          in
          let deliver (ev : Registry.uevent) : (string, string) result =
            match Registry.offer reg id ev with
            | Backpressure.Rejected | Backpressure.Dropped_oldest ->
                Error "host: ingress queue refused the event"
            | Backpressure.Accepted -> (
                let r = tick () in
                match r.Scheduler.errors with
                | (_, e) :: _ -> Error (err_str e)
                | [] ->
                    if r.Scheduler.taps_hit > 0 then Ok "tapped"
                    else if r.Scheduler.taps_missed > 0 then Ok "no-handler"
                    else Ok "ok")
          in
          let step (ev : Ctrace.event) (prog : Program.t option) =
            match ev with
            | Ctrace.Tap { x; y } -> deliver (Registry.Tap { x; y })
            | Ctrace.Back -> deliver Registry.Back
            | Ctrace.Update _ -> (
                match prog with
                | None -> Ok "rejected"
                | Some code -> (
                    match update code with
                    | Ok _report -> Ok "updated"
                    | Error e -> Error (err_str e)))
            | Ctrace.Broken_update -> Ok "rejected"
            | Ctrace.Render ->
                ignore (Session.screenshot s);
                Ok "ok"
            | Ctrace.Flush_cache ->
                Session.flush_caches s;
                Ok "ok"
            | Ctrace.Drop_next ->
                Session.inject s Session.Drop_next_event;
                Ok "ok"
            | Ctrace.Dup_next ->
                Session.inject s Session.Duplicate_next_event;
                Ok "ok"
            | Ctrace.Begin_txn _ | Ctrace.Canary | Ctrace.Promote
            | Ctrace.Rollback ->
                Ok "ok" (* interpreted by {!with_txn} *)
          in
          Ok
            {
              name;
              step;
              observe = (fun () -> obs_of_state ~width (Session.state s));
              invariant = (fun () -> invariant_of_state (Session.state s));
              strict = (fun () -> true);
              finalize;
            })

(** The staged-rollout pipeline ({!Live_host.Rollout}) as a fleet of
    one, driven through real edit transactions: [Begin_txn] stages the
    change set as a second live epoch (diffed, typechecked once,
    cross-checked), [Canary] applies it to the canary cohort — which,
    with one session, is the whole fleet — and the transaction
    resolves by {!Live_host.Rollout.promote} or
    {!Live_host.Rollout.rollback} per the [Begin_txn]'s recorded
    decision.  The reference configurations interpret the same events
    through {!with_txn}: a promoted transaction is exactly one plain
    UPDATE, a rolled-back one is exactly nothing.  During a
    doomed-to-roll-back canary window this configuration's state
    legitimately differs from the reference (it {e is} running the
    edit), so it goes non-strict for the window and byte-equality is
    re-checked from the resolving event on — which is precisely the
    rollback soundness statement: checkpoint + journal replay must be
    indistinguishable from never having begun the rollout. *)
let host_txn_config ~(width : int) (boot : Program.t) :
    (config, string) result =
  let open Live_host in
  let cfg =
    {
      Registry.default_config with
      Registry.width;
      cache = true;
      queue_capacity = 8;
      queue_policy = Backpressure.Reject;
    }
  in
  let reg = Registry.create ~config:cfg boot in
  match Registry.spawn reg with
  | Error e -> Error (err_str e)
  | Ok id -> (
      match Registry.session reg id with
      | None -> Error "host-txn: spawned session not found"
      | Some s ->
          let sched =
            Scheduler.create ~policy:Scheduler.Round_robin ~batch:1 reg
          in
          (* the open transaction and its recorded decision; [strict]
             drops only for a rollback-decision canary window *)
          let txn : (Rollout.t * bool) option ref = ref None in
          let strict = ref true in
          let resolve () =
            match !txn with
            | None -> ()
            | Some (r, promote) ->
                txn := None;
                (match Rollout.stage r with
                | Rollout.Canarying when promote ->
                    (* fleet of one, whole-fleet cohort: nothing to
                       migrate, the promote closes the epoch *)
                    ignore (Rollout.promote r : Broadcast.session_outcome list)
                | Rollout.Staged | Rollout.Canarying ->
                    (* replay errors mirror per-event errors the window
                       already reported live; consumed exactly as the
                       scheduler consumes them *)
                    ignore
                      (Rollout.rollback r
                        : (Registry.id * Live_core.Machine.error) list)
                | Rollout.Promoted | Rollout.Rolled_back -> ());
                strict := true
          in
          let deliver (ev : Registry.uevent) : (string, string) result =
            match Registry.offer reg id ev with
            | Backpressure.Rejected | Backpressure.Dropped_oldest ->
                Error "host-txn: ingress queue refused the event"
            | Backpressure.Accepted -> (
                let r = Scheduler.tick sched in
                match r.Scheduler.errors with
                | (_, e) :: _ -> Error (err_str e)
                | [] ->
                    if r.Scheduler.taps_hit > 0 then Ok "tapped"
                    else if r.Scheduler.taps_missed > 0 then Ok "no-handler"
                    else Ok "ok")
          in
          let step (ev : Ctrace.event) (prog : Program.t option) =
            match ev with
            | Ctrace.Tap { x; y } -> deliver (Registry.Tap { x; y })
            | Ctrace.Back -> deliver Registry.Back
            | Ctrace.Update _ -> (
                resolve ();
                match prog with
                | None -> Ok "rejected"
                | Some code -> (
                    match
                      Broadcast.update ~typecheck:Broadcast.Cross_check reg
                        code
                    with
                    | Ok _report -> Ok "updated"
                    | Error e -> Error (err_str e)))
            | Ctrace.Begin_txn { promote; _ } -> (
                match prog with
                | None -> Ok "rejected"
                | Some code -> (
                    resolve ();
                    match
                      Rollout.begin_ ~typecheck:Broadcast.Cross_check
                        ~fraction:1.0 ~seed:11 reg code
                    with
                    | Ok r ->
                        txn := Some (r, promote);
                        Ok "staged"
                    | Error e -> Error (err_str e)))
            | Ctrace.Canary -> (
                match !txn with
                | Some (r, promote) -> (
                    match Rollout.stage r with
                    | Rollout.Staged ->
                        let _outcomes = Rollout.canary r in
                        (* per-session fix-up outcomes are reported,
                           not statused — exactly as a broadcast's *)
                        if not promote then strict := false;
                        Ok "updated"
                    | _ -> Ok "ok")
                | None -> Ok "ok")
            | Ctrace.Promote | Ctrace.Rollback ->
                resolve ();
                Ok "ok"
            | Ctrace.Broken_update -> Ok "rejected"
            | Ctrace.Render ->
                ignore (Session.screenshot s);
                Ok "ok"
            | Ctrace.Flush_cache ->
                Session.flush_caches s;
                Ok "ok"
            | Ctrace.Drop_next ->
                Session.inject s Session.Drop_next_event;
                Ok "ok"
            | Ctrace.Dup_next ->
                Session.inject s Session.Duplicate_next_event;
                Ok "ok"
          in
          let invariant () =
            match invariant_of_state (Session.state s) with
            | Some m -> Some m
            | None -> (
                (* while a rollout is open, the full side-by-side
                   health check: cohort accounting identities, no
                   session crossing epochs, fleet state invariants *)
                match !txn with
                | None -> None
                | Some (r, _) ->
                    let h = Rollout.observe r in
                    if Rollout.healthy h then None
                    else Some ("rollout unhealthy: " ^ Rollout.summary r))
          in
          Ok
            {
              name = "host-txn";
              step;
              observe = (fun () -> obs_of_state ~width (Session.state s));
              invariant;
              strict = (fun () -> !strict);
              finalize = ignore;
            })

(** The restart baseline: structurally compared only until its first
    UPDATE (restart-and-replay intentionally loses model state) or
    queue fault (it has no injection hooks); always
    invariant-checked — it may lose data, never corrupt it. *)
let restart_config ~(width : int) (boot : Program.t) :
    (config, string) result =
  match Restart.create ~width boot with
  | Error e -> Error (Restart.error_to_string e)
  | Ok t ->
      let strict = ref true in
      let step (ev : Ctrace.event) (prog : Program.t option) =
        match ev with
        | Ctrace.Tap { x; y } -> (
            match Restart.tap t ~x ~y with
            | Ok Session.Tapped -> Ok "tapped"
            | Ok Session.No_handler -> Ok "no-handler"
            | Error e -> Error (Restart.error_to_string e))
        | Ctrace.Back -> (
            match Restart.back t with
            | Ok () -> Ok "ok"
            | Error e -> Error (Restart.error_to_string e))
        | Ctrace.Update _ -> (
            strict := false;
            match prog with
            | None -> Ok "rejected"
            | Some code -> (
                match Restart.update t code with
                | Ok _outcome -> Ok "updated"
                | Error e -> Error (Restart.error_to_string e)))
        | Ctrace.Broken_update -> Ok "rejected"
        | Ctrace.Render | Ctrace.Flush_cache -> Ok "ok"
        | Ctrace.Drop_next | Ctrace.Dup_next ->
            strict := false;
            Ok "ok"
        | Ctrace.Begin_txn _ | Ctrace.Canary | Ctrace.Promote
        | Ctrace.Rollback ->
            Ok "ok" (* interpreted by {!with_txn} *)
      in
      Ok
        {
          name = "restart";
          step;
          observe = (fun () -> obs_of_state ~width (Restart.state t));
          invariant = (fun () -> invariant_of_state (Restart.state t));
          strict = (fun () -> !strict);
          finalize = ignore;
        }

(** The networked host's persistence path, stressed to the maximum:
    a fleet of one where {e every} step is followed by a full
    detach/resume cycle through {!Live_net.Snapshot} — capture the
    session, print the canonical snapshot text, parse it back, check
    the re-print is byte-identical, restore, and adopt the restored
    session into a {e fresh} registry (a fresh host process, as far as
    the session can tell).  The snapshot text also rides through
    {!Live_net.Wire} inside a [Resume] frame, so the binary codec's
    round-trip is fuzzed by the same corpus.  Agreement with the
    reference machine is exactly the ISSUE's digest-equality oracle:
    a session that detaches and resumes after every single transition
    must stay byte-identical to one that never detached. *)
let host_net_config ~(width : int) (boot : Program.t) :
    (config, string) result =
  let open Live_host in
  let module Snapshot = Live_net.Snapshot in
  let module Wire = Live_net.Wire in
  let cfg =
    {
      Registry.default_config with
      Registry.width;
      queue_capacity = 8;
      queue_policy = Backpressure.Reject;
    }
  in
  let fresh (program : Program.t) = Registry.create ~config:cfg program in
  let reg0 = fresh boot in
  match Registry.spawn reg0 with
  | Error e -> Error (err_str e)
  | Ok id0 -> (
      match Registry.session reg0 id0 with
      | None -> Error "host-net: spawned session not found"
      | Some s0 ->
          let reg = ref reg0 and id = ref id0 and s = ref s0 in
          let sched =
            ref (Scheduler.create ~policy:Scheduler.Round_robin ~batch:1 reg0)
          in
          (* One wire-borne detach/resume cycle: the oracle's unit of
             coverage for the whole persistence stack. *)
          let recycle () : (unit, string) result =
            let snap = Snapshot.of_session !s in
            let text = Snapshot.to_string snap in
            let via_wire =
              match
                Wire.decode
                  (Wire.encode (Wire.Client (Wire.Resume { snapshot = text })))
              with
              | Wire.Frame (Wire.Client (Wire.Resume { snapshot }), _) ->
                  Ok snapshot
              | Wire.Frame _ -> Error "host-net: wire round-trip changed frame"
              | Wire.Need_more -> Error "host-net: wire round-trip truncated"
              | Wire.Corrupt m -> Error ("host-net: wire round-trip: " ^ m)
            in
            match via_wire with
            | Error m -> Error m
            | Ok text' -> (
                match Snapshot.of_string text' with
                | Error m -> Error ("host-net: snapshot parse: " ^ m)
                | Ok snap' ->
                    if not (String.equal (Snapshot.to_string snap') text) then
                      Error "host-net: snapshot re-print not byte-identical"
                    else (
                      match Snapshot.restore snap' with
                      | Error m -> Error ("host-net: restore: " ^ m)
                      | Ok s' ->
                          let reg' =
                            fresh (Session.state s').Live_core.State.code
                          in
                          let id' = Registry.adopt reg' s' in
                          reg := reg';
                          id := id';
                          s := s';
                          sched :=
                            Scheduler.create ~policy:Scheduler.Round_robin
                              ~batch:1 reg';
                          Ok ()))
          in
          let then_recycle (r : (string, string) result) =
            match r with
            | Error _ as e -> e
            | Ok status -> (
                match recycle () with
                | Ok () -> Ok status
                | Error m -> Error m)
          in
          let deliver (ev : Registry.uevent) : (string, string) result =
            match Registry.offer !reg !id ev with
            | Backpressure.Rejected | Backpressure.Dropped_oldest ->
                Error "host-net: ingress queue refused the event"
            | Backpressure.Accepted -> (
                let r = Scheduler.tick !sched in
                match r.Scheduler.errors with
                | (_, e) :: _ -> Error (err_str e)
                | [] ->
                    if r.Scheduler.taps_hit > 0 then Ok "tapped"
                    else if r.Scheduler.taps_missed > 0 then Ok "no-handler"
                    else Ok "ok")
          in
          let step (ev : Ctrace.event) (prog : Program.t option) =
            match ev with
            | Ctrace.Tap { x; y } ->
                then_recycle (deliver (Registry.Tap { x; y }))
            | Ctrace.Back -> then_recycle (deliver Registry.Back)
            | Ctrace.Update _ -> (
                match prog with
                | None -> Ok "rejected"
                | Some code ->
                    then_recycle
                      (match Broadcast.update !reg code with
                      | Ok _report -> Ok "updated"
                      | Error e -> Error (err_str e)))
            | Ctrace.Broken_update -> Ok "rejected"
            | Ctrace.Render ->
                ignore (Session.screenshot !s);
                then_recycle (Ok "ok")
            | Ctrace.Flush_cache ->
                Session.flush_caches !s;
                then_recycle (Ok "ok")
            | Ctrace.Drop_next ->
                (* the armed fault must survive the detach/resume *)
                Session.inject !s Session.Drop_next_event;
                then_recycle (Ok "ok")
            | Ctrace.Dup_next ->
                Session.inject !s Session.Duplicate_next_event;
                then_recycle (Ok "ok")
            | Ctrace.Begin_txn _ | Ctrace.Canary | Ctrace.Promote
            | Ctrace.Rollback ->
                Ok "ok" (* interpreted by {!with_txn} *)
          in
          Ok
            {
              name = "host-net";
              step;
              observe = (fun () -> obs_of_state ~width (Session.state !s));
              invariant = (fun () -> invariant_of_state (Session.state !s));
              strict = (fun () -> true);
              finalize = ignore;
            })

(** The shard director ({!Live_net.Director}) as a fleet of one over
    two in-process shard servers, driven entirely over the wire — and
    kept {e in motion}: after {e every} consumed event the session is
    rebalanced to the other shard (detach → snapshot → wire → resume,
    global id unchanged, strict before/after digest check inside the
    director), and every UPDATE runs the two-phase Prepare / Commit
    protocol across both shards.  Agreement with the reference machine
    is the ISSUE's statement that a directed N-shard fleet is
    observationally identical to a single process, event for event. *)

let host_director_config ~(width : int) (boot : Program.t) :
    (config, string) result =
  let open Live_host in
  let module Scenario = Live_net.Scenario in
  let module Wire = Live_net.Wire in
  let module Snapshot = Live_net.Snapshot in
  let module Conn = Live_net.Conn in
  let cfg =
    {
      Registry.default_config with
      Registry.width;
      queue_capacity = 8;
      queue_policy = Backpressure.Reject;
    }
  in
  let fleet = Scenario.start ~config:cfg (Scenario.Directed 2) boot in
  let pump = Scenario.pump fleet in
  let shards = Scenario.registries fleet in
  let conn = Conn.connect (Scenario.socket fleet) in
  let finalize () =
    Conn.close conn;
    Scenario.stop fleet
  in
  let rpc (f : Wire.client_frame) : Wire.host_frame =
    Conn.rpc ~pump conn (Wire.Client f) (fun () -> Conn.next conn)
  in
  (* consume repaint deltas already in flight (an UPDATE marks the
     fleet dirty) so a later reply-wait cannot be satisfied by a stale
     frame; five consecutive idle pumps of an in-process fleet means
     nothing is queued anywhere *)
  let drain () =
    let idle = ref 0 in
    while !idle < 5 do
      match Conn.next conn with
      | Some (Wire.Delta _) -> idle := 0
      | Some f ->
          failwith
            ("host-director: unexpected frame while draining: "
            ^ Fmt.to_to_string Wire.pp (Wire.Host f))
      | None ->
          ignore (Conn.poll ~pump [ conn ] 0.);
          incr idle
    done
  in
  let find_session () : Session.t =
    match
      List.concat_map
        (fun reg -> List.filter_map (Registry.session reg) (Registry.ids reg))
        shards
    with
    | [ s ] -> s
    | [] -> failwith "host-director: session lost"
    | _ -> failwith "host-director: more than one session"
  in
  let taps () =
    List.fold_left
      (fun (h, m) reg ->
        let mt = Registry.metrics reg in
        (h + mt.Host_metrics.taps_hit, m + mt.Host_metrics.taps_missed))
      (0, 0) shards
  in
  match rpc (Wire.Hello { client = "oracle"; sessions = 1 }) with
  | exception e ->
      finalize ();
      Error ("host-director: " ^ Printexc.to_string e)
  | Wire.Error { msg; _ } ->
      finalize ();
      Error msg
  | Wire.Attach { session = g; _ } ->
      let deliver (ev : Wire.event) : (string, string) result =
        let h0, m0 = taps () in
        match rpc (Wire.Event { session = g; ev }) with
        | Wire.Delta _ ->
            let h1, m1 = taps () in
            if h1 > h0 then Ok "tapped"
            else if m1 > m0 then Ok "no-handler"
            else Ok "ok"
        | Wire.Error { msg; _ } -> Error msg
        | f ->
            Error
              ("host-director: unexpected event reply: "
              ^ Fmt.to_to_string Wire.pp (Wire.Host f))
      in
      let update (code : Program.t) : (string, string) result =
        match rpc (Wire.Update { program = Snapshot.program_to_string code }) with
        | Wire.Ack _ ->
            drain ();
            Ok "updated"
        | Wire.Error { code = 6; msg } ->
            (* unwrap the director's two-phase framing back to the
               underlying machine error so the status stays comparable
               with the reference's *)
            let suffix = " (fleet unchanged)" in
            let prefix = "prepare failed on " in
            let msg =
              if String.length msg >= String.length suffix
                 && String.equal suffix
                      (String.sub msg
                         (String.length msg - String.length suffix)
                         (String.length suffix))
              then String.sub msg 0 (String.length msg - String.length suffix)
              else msg
            in
            let msg =
              if String.length msg > String.length prefix
                 && String.equal prefix
                      (String.sub msg 0 (String.length prefix))
              then
                match String.index_from_opt msg (String.length prefix) ':' with
                | Some i when i + 2 <= String.length msg ->
                    String.sub msg (i + 2) (String.length msg - i - 2)
                | _ -> msg
              else msg
            in
            Error msg
        | Wire.Error { msg; _ } -> Error msg
        | f ->
            Error
              ("host-director: unexpected update reply: "
              ^ Fmt.to_to_string Wire.pp (Wire.Host f))
      in
      let rebalance () : (unit, string) result =
        match rpc (Wire.Rebalance { count = 1 }) with
        | Wire.Ack _ ->
            drain ();
            Ok ()
        | Wire.Error { msg; _ } -> Error ("host-director: rebalance: " ^ msg)
        | f ->
            Error
              ("host-director: unexpected rebalance reply: "
              ^ Fmt.to_to_string Wire.pp (Wire.Host f))
      in
      let then_rebalance (r : (string, string) result) =
        match r with
        | Error _ as e -> e
        | Ok status -> (
            match rebalance () with
            | Ok () -> Ok status
            | Error m -> Error m)
      in
      let step (ev : Ctrace.event) (prog : Program.t option) =
        match ev with
        | Ctrace.Tap { x; y } -> then_rebalance (deliver (Wire.Ev_tap { x; y }))
        | Ctrace.Back -> then_rebalance (deliver Wire.Ev_back)
        | Ctrace.Update _ -> (
            match prog with
            | None -> Ok "rejected"
            | Some code -> then_rebalance (update code))
        | Ctrace.Broken_update -> Ok "rejected"
        | Ctrace.Render ->
            ignore (Session.screenshot (find_session ()));
            then_rebalance (Ok "ok")
        | Ctrace.Flush_cache ->
            Session.flush_caches (find_session ());
            then_rebalance (Ok "ok")
        | Ctrace.Drop_next ->
            (* armed on the live session; the very next rebalance proves
               the snapshot carries it across the shard boundary *)
            Session.inject (find_session ()) Session.Drop_next_event;
            then_rebalance (Ok "ok")
        | Ctrace.Dup_next ->
            Session.inject (find_session ()) Session.Duplicate_next_event;
            then_rebalance (Ok "ok")
        | Ctrace.Begin_txn _ | Ctrace.Canary | Ctrace.Promote
        | Ctrace.Rollback ->
            Ok "ok" (* interpreted by {!with_txn} *)
      in
      Ok
        {
          name = "host-director";
          step;
          observe =
            (fun () -> obs_of_state ~width (Session.state (find_session ())));
          invariant =
            (fun () -> invariant_of_state (Session.state (find_session ())));
          strict = (fun () -> true);
          finalize;
        }
  | f ->
      finalize ();
      Error
        ("host-director: unexpected Hello reply: "
        ^ Fmt.to_to_string Wire.pp (Wire.Host f))

(* ------------------------------------------------------------------ *)
(* Transaction semantics for the reference configurations              *)
(* ------------------------------------------------------------------ *)

(** What a staged rollout must be {e equivalent to}, expressed over
    any single-state configuration: an edit transaction resolves to
    exactly one plain UPDATE (canaried, then promoted) or to exactly
    nothing (rolled back, or closed without ever canarying).  With a
    fleet of one the canary cohort is the whole fleet, so the canary
    {e is} the update: it is applied at [Canary] time when the
    transaction's recorded decision is promote, and never applied at
    all when the decision is rollback — the byte-identity the real
    rollback (checkpoint + journal replay) must reproduce.

    The wrapper intercepts the four transaction events and translates
    them for the wrapped configuration; every other event passes
    through, except that a plain [Update] first resolves any open
    transaction (mirroring the driver, which must resolve before the
    broadcast guard lets a flat update through). *)
let with_txn (c : config) : config =
  let staged : (Program.t * bool) option ref = ref None in
  let canaried = ref false in
  let resolve () =
    (* a canaried promote-decision transaction already applied its
       update at [Canary]; every other resolution applies nothing *)
    staged := None;
    canaried := false
  in
  let step (ev : Ctrace.event) (prog : Program.t option) =
    match ev with
    | Ctrace.Begin_txn { promote; _ } -> (
        match prog with
        | None -> Ok "rejected"
        | Some code -> (
            resolve ();
            (* the rollout pipeline typechecks the change set once at
               [begin_]; stage-time rejection must match it *)
            match Machine.check_program code with
            | Error e -> Error (err_str e)
            | Ok () ->
                staged := Some (code, promote);
                Ok "staged"))
    | Ctrace.Canary -> (
        match !staged with
        | Some (code, decision) when not !canaried ->
            canaried := true;
            if decision then c.step (Ctrace.Update 0) (Some code)
            else Ok "updated" (* doomed window: never applied at all *)
        | _ -> Ok "ok")
    | Ctrace.Promote | Ctrace.Rollback ->
        resolve ();
        Ok "ok"
    | Ctrace.Update _ ->
        resolve ();
        c.step ev prog
    | _ -> c.step ev prog
  in
  { c with step }

(** How many domains the ["host-parallel"] configuration runs: enough
    to actually cross a domain boundary, small enough that a fuzz
    campaign spawning one pool per trace stays cheap. *)
let parallel_jobs = 2

let all_configs =
  [
    "machine";
    "session";
    "compiled";
    "cached";
    "incremental";
    "host";
    "host-incr";
    "host-parallel";
    "host-txn";
    "host-net";
    "host-director";
    "restart";
  ]

(* ------------------------------------------------------------------ *)
(* The differential run                                                *)
(* ------------------------------------------------------------------ *)

let default_width = 46

let run ?(width = default_width) ?(configs = all_configs) ?sabotage
    (trace : Ctrace.t) : outcome =
  if Array.length trace.Ctrace.pool = 0 then Boot_failed "empty program pool"
  else
    (* one compilation per distinct source, shared by every
       configuration (programs are immutable) *)
    let compiled : (int, Program.t option) Hashtbl.t = Hashtbl.create 8 in
    let compile (i : int) : Program.t option =
      match Hashtbl.find_opt compiled i with
      | Some r -> r
      | None ->
          let r =
            if i < 0 || i >= Array.length trace.Ctrace.pool then None
            else
              match Live_surface.Compile.compile trace.Ctrace.pool.(i) with
              | Ok c -> Some c.Live_surface.Compile.core
              | Error _ -> None
          in
          Hashtbl.replace compiled i r;
          r
    in
    match compile 0 with
    | None -> Boot_failed "boot program does not compile"
    | Some boot -> (
        let mk name =
          match name with
          | "machine" -> machine_config ~width boot
          | "session" ->
              (* the substitution engine, uncached: keeps the paper's
                 evaluator under differential test now that sessions
                 default to the compiled one *)
              session_config ~width ~name ~incremental:false ~cache:false
                ~evaluator:Machine.Subst boot
          | "compiled" ->
              (* the closure-compiled engine (the session default),
                 uncached: diffed per step against the substitution
                 machine reference *)
              session_config ~width ~name ~incremental:false ~cache:false
                ~evaluator:Machine.Compiled boot
          | "cached" ->
              session_config ~width ~name ~incremental:false ~cache:true
                ?sabotage boot
          | "incremental" ->
              session_config ~width ~name ~incremental:true ~cache:false boot
          | "host" -> host_config ~width boot
          | "host-incr" ->
              (* the O(edit) broadcast pipeline, end to end: render
                 cache retargeted (not flushed) across updates, and
                 every UPDATE typechecked by {e both} the scratch and
                 the incremental checker ([Cross_check]) — a verdict
                 disagreement rejects the broadcast and surfaces here
                 as a status divergence, so every fuzzed [Mutate] edit
                 cross-checks the two checkers *)
              host_config ~width ~cache:true
                ~typecheck:Live_host.Broadcast.Cross_check boot
          | "host-parallel" -> host_config ~width ~jobs:parallel_jobs boot
          | "host-txn" -> host_txn_config ~width boot
          | "host-net" -> host_net_config ~width boot
          | "host-director" -> host_director_config ~width boot
          | "restart" -> restart_config ~width boot
          | other -> Error (Printf.sprintf "unknown configuration %S" other)
        in
        (* every configuration but the rollout pipeline itself gets the
           reference transaction semantics layered on top *)
        let mk name =
          if String.equal name "host-txn" then mk name
          else Result.map with_txn (mk name)
        in
        let boots = List.map (fun n -> (n, mk n)) configs in
        (* whatever happens below — agreement, divergence, an
           exception — every configuration that booted releases what
           it owns (the parallel host joins its worker domains) *)
        let finalize_all () =
          List.iter
            (fun (_, r) ->
              match r with Ok c -> c.finalize () | Error _ -> ())
            boots
        in
        Fun.protect ~finally:finalize_all @@ fun () ->
        match
          List.find_opt (fun (_, r) -> Result.is_error r) boots
        with
        | Some (n, Error m) ->
            (* every configuration boots the same checked program; a
               single failing boot is itself a divergence, unless all
               fail (then the trace is unbootable) *)
            if List.for_all (fun (_, r) -> Result.is_error r) boots then
              Boot_failed m
            else
              Diverged
                {
                  step = -1;
                  event = None;
                  config = n;
                  field = "status";
                  expected = "boot ok";
                  actual = m;
                }
        | _ -> (
            let cfgs =
              List.map
                (fun (_, r) ->
                  match r with Ok c -> c | Error _ -> assert false)
                boots
            in
            match cfgs with
            | [] -> Boot_failed "no configurations selected"
            | reference :: others -> (
                let divergence = ref None in
                let report step event config field expected actual =
                  if !divergence = None then
                    divergence :=
                      Some { step; event; config; field; expected; actual }
                in
                let compare_obs step event (ref_obs : obs) (c : config) =
                  if c.strict () && !divergence = None then begin
                    let o = c.observe () in
                    let fields =
                      [
                        ("store", ref_obs.store, o.store);
                        ("stack", ref_obs.stack, o.stack);
                        ("display", ref_obs.display, o.display);
                        ("pixels", ref_obs.pixels, o.pixels);
                      ]
                    in
                    List.iter
                      (fun (f, e, a) ->
                        if !divergence = None && not (String.equal e a) then
                          report step event c.name f e a)
                      fields
                  end
                in
                let check_invariants step event =
                  List.iter
                    (fun c ->
                      if !divergence = None then
                        match c.invariant () with
                        | Some m ->
                            report step event c.name "invariant" "holds" m
                        | None -> ())
                    cfgs
                in
                (* boot observation *)
                let ref_obs = ref (reference.observe ()) in
                List.iter (compare_obs (-1) None !ref_obs) others;
                check_invariants (-1) None;
                let stepno = ref 0 in
                List.iter
                  (fun ev ->
                    if !divergence = None then begin
                      let k = !stepno in
                      incr stepno;
                      let prog =
                        match ev with
                        | Ctrace.Update i | Ctrace.Begin_txn { prog = i; _ }
                          ->
                            compile i
                        | _ -> None
                      in
                      let ref_status = reference.step ev prog in
                      let status_str = function
                        | Ok s -> "ok: " ^ s
                        | Error m -> "error: " ^ m
                      in
                      List.iter
                        (fun c ->
                          let st = c.step ev prog in
                          if
                            !divergence = None
                            && c.strict ()
                            && not
                                 (String.equal (status_str st)
                                    (status_str ref_status))
                          then
                            report k (Some ev) c.name "status"
                              (status_str ref_status) (status_str st))
                        others;
                      if !divergence = None then begin
                        let prev = !ref_obs in
                        ref_obs := reference.observe ();
                        (* a rejected edit must change nothing, even in
                           the reference *)
                        (match ev with
                        | Ctrace.Broken_update ->
                            if
                              not
                                (String.equal prev.pixels !ref_obs.pixels
                                && String.equal prev.store !ref_obs.store
                                && String.equal prev.stack !ref_obs.stack)
                            then
                              report k (Some ev) reference.name
                                "broken-update" prev.pixels !ref_obs.pixels
                        | _ -> ());
                        List.iter (compare_obs k (Some ev) !ref_obs) others;
                        check_invariants k (Some ev)
                      end
                    end)
                  trace.Ctrace.events;
                match !divergence with
                | Some d -> Diverged d
                | None -> Agreed)))

(* ------------------------------------------------------------------ *)
(* Pretty-printing a delta                                             *)
(* ------------------------------------------------------------------ *)

(** Focus a pair of multi-line observations on their first differing
    line, with one line of context. *)
let first_diff (expected : string) (actual : string) : string =
  let e = Array.of_list (String.split_on_char '\n' expected) in
  let a = Array.of_list (String.split_on_char '\n' actual) in
  let n = max (Array.length e) (Array.length a) in
  let line arr i = if i < Array.length arr then arr.(i) else "<eof>" in
  let rec find i =
    if i >= n then None
    else if not (String.equal (line e i) (line a i)) then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> "(identical?)"
  | Some i ->
      Printf.sprintf "line %d:\n  expected | %s\n  actual   | %s" (i + 1)
        (line e i) (line a i)

let pp_divergence ppf (d : divergence) =
  Fmt.pf ppf "@[<v>step %d%a: configuration %S diverges on %s@,%s@]" d.step
    (fun ppf -> function
      | None -> Fmt.string ppf " (boot)"
      | Some e -> Fmt.pf ppf " (%s)" (Ctrace.event_to_string e))
    d.event d.config d.field
    (if String.length d.expected + String.length d.actual < 160 then
       Printf.sprintf "  expected | %s\n  actual   | %s" d.expected d.actual
     else first_diff d.expected d.actual)
