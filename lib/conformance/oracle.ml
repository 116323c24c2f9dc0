open Live_core
module Session = Live_runtime.Session
module Restart = Live_baseline.Restart_runtime
module Registry = Live_host.Registry
module Broadcast = Live_host.Broadcast

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
      (** release owned resources (the directed fleet's connection
          and servers); called exactly once by {!run}, on every path *)
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

(* ------------------------------------------------------------------ *)
(* Fleets of one                                                       *)
(* ------------------------------------------------------------------ *)

(** A fleet of one: a single live session behind some transport, and
    the functions through which a tap, a back or an update reaches it.
    {!of_fleet} turns any fleet into a configuration, so each layer
    below says only how its transport differs. *)
type fleet = {
  session : unit -> Session.t;  (** the live session, wherever it is now *)
  deliver : Registry.uevent -> (string, string) result;
      (** ["tapped"], ["no-handler"] or ["ok"] *)
  update : Program.t -> (string, string) result;  (** ["updated"] *)
  settle : unit -> (unit, string) result;
      (** run after every successful step that reached the session *)
  stop : unit -> unit;  (** release what the fleet owns *)
}

(** The one Session-backed dispatch.  A single-session fleet must
    agree byte-for-byte with the reference machine whatever carries
    its events, so the fuzzer's whole trace corpus covers every
    transport for free. *)
let of_fleet ~(width : int) ~(name : string) (f : fleet) : config =
  let settled = function
    | Ok status -> Result.map (fun () -> status) (f.settle ())
    | Error _ as e -> e
  in
  let at_session act =
    act (f.session ());
    settled (Ok "ok")
  in
  let step (ev : Ctrace.event) (prog : Program.t option) =
    match ev with
    | Ctrace.Tap { x; y } -> settled (f.deliver (Registry.Tap { x; y }))
    | Ctrace.Back -> settled (f.deliver Registry.Back)
    | Ctrace.Update _ -> (
        match prog with
        | None -> Ok "rejected"
        | Some code -> settled (f.update code))
    | Ctrace.Broken_update -> Ok "rejected"
    | Ctrace.Render -> at_session (fun s -> ignore (Session.screenshot s))
    | Ctrace.Flush_cache -> at_session Session.flush_caches
    | Ctrace.Drop_next ->
        (* armed on the live session; a settle that moves the session
           must carry it along *)
        at_session (fun s -> Session.inject s Session.Drop_next_event)
    | Ctrace.Dup_next ->
        at_session (fun s -> Session.inject s Session.Duplicate_next_event)
    | Ctrace.Begin_txn _ | Ctrace.Canary | Ctrace.Promote
    | Ctrace.Rollback ->
        Ok "ok" (* interpreted by {!with_txn} or {!with_rollout} *)
  in
  {
    name;
    step;
    observe = (fun () -> obs_of_state ~width (Session.state (f.session ())));
    invariant = (fun () -> invariant_of_state (Session.state (f.session ())));
    strict = (fun () -> true);
    finalize = f.stop;
  }

(** Every session that runs a render cache carries the sabotage. *)
let sabotage_session (sabotage : sabotage option) (s : Session.t) : unit =
  match sabotage with
  | Some Cache_no_flush ->
      Option.iter
        (fun rc -> Render_cache.set_sabotage_no_flush rc true)
        (Session.render_cache_handle s)
  | None -> ()

(** A {!Live_runtime.Session} driven directly. *)
let plain ?sabotage (s : Session.t) : fleet =
  sabotage_session sabotage s;
  let status word r = Result.map_error err_str (Result.map word r) in
  {
    session = (fun () -> s);
    deliver =
      (function
      | Registry.Tap { x; y } ->
          status
            (function
              | Session.Tapped -> "tapped" | Session.No_handler -> "no-handler")
            (Session.tap s ~x ~y)
      | Registry.Back -> status (fun () -> "ok") (Session.back s));
    update = (fun code -> status (fun _ -> "updated") (Session.update s code));
    settle = (fun () -> Ok ());
    stop = ignore;
  }

(** Every hosted fleet's registry.  Ample headroom: the oracle ticks
    after every offer, so the queue never fills and backpressure can
    never drop an event (a drop would, correctly, be a divergence). *)
let host_config ~(width : int) ~(cache : bool) : Registry.config =
  {
    Registry.default_config with
    width;
    cache;
    queue_capacity = 8;
    queue_policy = Live_host.Backpressure.Reject;
  }

(** The multi-session host (lib/host) as a fleet of one: a tap is
    offered to the bounded ingress queue and drained by one tick of the
    {!Live_host.Scheduler} (batch 1, round-robin), an update goes
    through the typecheck-once {!Live_host.Broadcast}.  The scheduler
    batches and coalesces only {e painting}, never the Fig. 9
    transitions. *)
let hosted ?typecheck ?sabotage (reg : Registry.t) (id : Registry.id) :
    fleet =
  let open Live_host in
  let s = Option.get (Registry.session reg id) in
  sabotage_session sabotage s;
  let sched = Scheduler.create ~policy:Scheduler.Round_robin ~batch:1 reg in
  {
    session = (fun () -> s);
    deliver =
      (fun ev ->
        match Registry.offer reg id ev with
        | Backpressure.Rejected | Backpressure.Dropped_oldest ->
            Error "ingress queue refused the event"
        | Backpressure.Accepted -> (
            let r = Scheduler.tick sched in
            match r.Scheduler.errors with
            | (_, e) :: _ -> Error (err_str e)
            | [] ->
                if r.Scheduler.taps_hit > 0 then Ok "tapped"
                else if r.Scheduler.taps_missed > 0 then Ok "no-handler"
                else Ok "ok"));
    update =
      (fun code ->
        match Broadcast.update ?typecheck reg code with
        | Ok _report -> Ok "updated"
        | Error e -> Error (err_str e));
    settle = (fun () -> Ok ());
    stop = ignore;
  }

(** {!hosted} with a twin: a second session on the same registry, so
    on the same epochs' render tables, that receives every tap and back
    right after the primary.  Each replays subtrees the other recorded
    — under the cache's code and read checks, or the primary
    diverges.  Only the primary is observed and the twin's outcomes are
    ignored; faults and flushes reach the primary alone, so the twin's
    state drifts from it and their renders differ in the values they
    read. *)
let twinned ?typecheck ?sabotage (reg : Registry.t) (id : Registry.id) :
    (fleet, string) result =
  let open Live_host in
  let primary = hosted ?typecheck ?sabotage reg id in
  match Registry.spawn reg with
  | Error e -> Error (err_str e)
  | Ok twin ->
      sabotage_session sabotage (Option.get (Registry.session reg twin));
      let sched = Scheduler.create ~policy:Scheduler.Round_robin ~batch:1 reg in
      let deliver ev =
        let r = primary.deliver ev in
        (match Registry.offer reg twin ev with
        | Backpressure.Accepted -> ignore (Scheduler.tick sched)
        | Backpressure.Rejected | Backpressure.Dropped_oldest -> ());
        r
      in
      Ok { primary with deliver }

(** The networked host's persistence path, stressed to the maximum: a
    hosted fleet where every step is followed by a full detach/resume
    cycle through {!Live_net.Snapshot}.  Capture the session, print the
    canonical snapshot, carry the text through a {!Live_net.Wire}
    [Resume] frame, parse it back, check the re-print is
    byte-identical, restore, and adopt the restored session into a
    {e fresh} registry (a fresh host process, as far as the session can
    tell).  A session that detaches and resumes after every transition
    must stay byte-identical to one that never detached. *)
let recycled (cfg : Registry.config) ((reg, id) : Registry.t * Registry.id) :
    fleet =
  let module Snapshot = Live_net.Snapshot in
  let module Wire = Live_net.Wire in
  let cur = ref (hosted reg id) in
  let ( let* ) = Result.bind in
  let cycle () =
    let text = Snapshot.to_string (Snapshot.of_session (!cur.session ())) in
    let* text' =
      let frame = Wire.Client (Wire.Resume { snapshot = text }) in
      match Wire.decode (Wire.encode frame) with
      | Wire.Frame (Wire.Client (Wire.Resume { snapshot }), _) -> Ok snapshot
      | Wire.Frame _ -> Error "wire round-trip changed frame"
      | Wire.Need_more -> Error "wire round-trip truncated"
      | Wire.Corrupt m -> Error ("wire round-trip: " ^ m)
    in
    let* snap =
      Result.map_error (( ^ ) "snapshot parse: ") (Snapshot.of_string text')
    in
    if not (String.equal (Snapshot.to_string snap) text) then
      Error "snapshot re-print not byte-identical"
    else
      let* s = Result.map_error (( ^ ) "restore: ") (Snapshot.restore snap) in
      let reg = Registry.create ~config:cfg (Session.state s).State.code in
      cur := hosted reg (Registry.adopt reg s);
      Ok ()
  in
  {
    session = (fun () -> !cur.session ());
    deliver = (fun ev -> !cur.deliver ev);
    update = (fun code -> !cur.update code);
    settle = cycle;
    stop = (fun () -> !cur.stop ());
  }

(** The shard director ({!Live_net.Director}) over two in-process shard
    servers, driven entirely over the wire and kept {e in motion}:
    every settle rebalances the session to the other shard (detach →
    snapshot → wire → resume, global id unchanged, strict before/after
    digest check inside the director), and every UPDATE runs the
    two-phase Prepare / Commit protocol across both shards.  A directed
    N-shard fleet must be observationally identical to a single
    process, event for event. *)
let directed (cfg : Registry.config) (boot : Program.t) :
    (fleet, string) result =
  let module Scenario = Live_net.Scenario in
  let module Wire = Live_net.Wire in
  let module Conn = Live_net.Conn in
  let fleet = Scenario.start ~config:cfg (Scenario.Directed 2) boot in
  let pump = Scenario.pump fleet in
  let shards = Scenario.registries fleet in
  let conn = Conn.connect (Scenario.socket fleet) in
  let stop () =
    Conn.close conn;
    Scenario.stop fleet
  in
  let rpc (f : Wire.client_frame) : Wire.host_frame =
    Conn.rpc ~pump conn (Wire.Client f) (fun () -> Conn.next conn)
  in
  let unexpected what (f : Wire.host_frame) =
    Error
      (Printf.sprintf "host-director: unexpected %s reply: %s" what
         (Fmt.to_to_string Wire.pp (Wire.Host f)))
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
  let session () : Session.t =
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
        ( h + mt.Live_host.Host_metrics.taps_hit,
          m + mt.Live_host.Host_metrics.taps_missed ))
      (0, 0) shards
  in
  match rpc (Wire.Hello { client = "oracle"; sessions = 1 }) with
  | exception e ->
      stop ();
      Error ("host-director: " ^ Printexc.to_string e)
  | Wire.Error { msg; _ } ->
      stop ();
      Error msg
  | Wire.Attach { session = g; _ } ->
      let deliver (ev : Registry.uevent) =
        let ev =
          match ev with
          | Registry.Tap { x; y } -> Wire.Ev_tap { x; y }
          | Registry.Back -> Wire.Ev_back
        in
        let h0, m0 = taps () in
        match rpc (Wire.Event { session = g; ev }) with
        | Wire.Delta _ ->
            let h1, m1 = taps () in
            if h1 > h0 then Ok "tapped"
            else if m1 > m0 then Ok "no-handler"
            else Ok "ok"
        | Wire.Error { msg; _ } -> Error msg
        | f -> unexpected "event" f
      in
      let update (code : Program.t) =
        let program = Live_net.Snapshot.program_to_string code in
        match rpc (Wire.Update { program }) with
        | Wire.Ack _ ->
            drain ();
            Ok "updated"
        | Wire.Error { code = 6; msg } ->
            (* unwrap the director's two-phase framing back to the
               underlying machine error so the status stays comparable
               with the reference's *)
            let suffix = " (fleet unchanged)"
            and prefix = "prepare failed on " in
            let msg =
              if String.ends_with ~suffix msg then
                String.sub msg 0 (String.length msg - String.length suffix)
              else msg
            in
            let msg =
              match
                if String.starts_with ~prefix msg then
                  String.index_from_opt msg (String.length prefix) ':'
                else None
              with
              | Some i when i + 2 <= String.length msg ->
                  String.sub msg (i + 2) (String.length msg - i - 2)
              | _ -> msg
            in
            Error msg
        | Wire.Error { msg; _ } -> Error msg
        | f -> unexpected "update" f
      in
      let rebalance () =
        match rpc (Wire.Rebalance { count = 1 }) with
        | Wire.Ack _ ->
            drain ();
            Ok ()
        | Wire.Error { msg; _ } -> Error ("host-director: rebalance: " ^ msg)
        | f -> unexpected "rebalance" f
      in
      Ok { session; deliver; update; settle = rebalance; stop }
  | f ->
      stop ();
      unexpected "Hello" f

(* ------------------------------------------------------------------ *)
(* Transaction semantics                                               *)
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

(** The real thing {!with_txn} specifies: the staged-rollout pipeline
    ({!Live_host.Rollout}) over the fleet of one in [reg].  [Begin_txn]
    stages the change set as a second live epoch (diffed, typechecked
    once, cross-checked), [Canary] applies it to the canary cohort —
    which, with one session, is the whole fleet — and the transaction
    resolves by {!Live_host.Rollout.promote} or
    {!Live_host.Rollout.rollback} per the [Begin_txn]'s recorded
    decision.  During a doomed-to-roll-back canary window the session
    legitimately runs the edit, so the configuration goes non-strict
    for the window and byte-equality is re-checked from the resolving
    event on: checkpoint + journal replay must be indistinguishable
    from never having begun the rollout. *)
let with_rollout (reg : Registry.t) (c : config) : config =
  let open Live_host in
  (* the open transaction and its recorded decision; [strict] drops
     only for a rollback-decision canary window *)
  let txn : (Rollout.t * bool) option ref = ref None in
  let strict = ref true in
  let resolve () =
    match !txn with
    | None -> ()
    | Some (r, promote) ->
        txn := None;
        (match Rollout.stage r with
        | Rollout.Canarying when promote ->
            (* fleet of one, whole-fleet cohort: nothing to migrate,
               the promote closes the epoch *)
            ignore (Rollout.promote r : Broadcast.session_outcome list)
        | Rollout.Staged | Rollout.Canarying ->
            (* replay errors mirror per-event errors the window
               already reported live; consumed exactly as the
               scheduler consumes them *)
            ignore (Rollout.rollback r : (Registry.id * Machine.error) list)
        | Rollout.Promoted | Rollout.Rolled_back -> ());
        strict := true
  in
  let step (ev : Ctrace.event) (prog : Program.t option) =
    match ev with
    | Ctrace.Begin_txn { promote; _ } -> (
        match prog with
        | None -> Ok "rejected"
        | Some code -> (
            resolve ();
            match
              Rollout.begin_ ~typecheck:Broadcast.Cross_check ~fraction:1.0
                ~seed:11 reg code
            with
            | Ok r ->
                txn := Some (r, promote);
                Ok "staged"
            | Error e -> Error (err_str e)))
    | Ctrace.Canary -> (
        match !txn with
        | Some (r, promote) when Rollout.stage r = Rollout.Staged ->
            (* per-session fix-up outcomes are reported, not statused —
               exactly as a broadcast's *)
            ignore (Rollout.canary r : Broadcast.session_outcome list);
            if not promote then strict := false;
            Ok "updated"
        | _ -> Ok "ok")
    | Ctrace.Promote | Ctrace.Rollback ->
        resolve ();
        Ok "ok"
    | Ctrace.Update _ ->
        resolve ();
        c.step ev prog
    | _ -> c.step ev prog
  in
  let invariant () =
    match c.invariant () with
    | Some m -> Some m
    | None -> (
        (* while a rollout is open, the full side-by-side health
           check: cohort accounting identities, no session crossing
           epochs, fleet state invariants *)
        match !txn with
        | Some (r, _) when not (Rollout.healthy (Rollout.observe r)) ->
            Some ("rollout unhealthy: " ^ Rollout.summary r)
        | _ -> None)
  in
  { c with step; invariant; strict = (fun () -> !strict) }

(* ------------------------------------------------------------------ *)
(* The configurations                                                  *)
(* ------------------------------------------------------------------ *)

(** A hosted fleet of one on a fresh registry. *)
let spawn (cfg : Registry.config) (boot : Program.t) :
    (Registry.t * Registry.id, string) result =
  let reg = Registry.create ~config:cfg boot in
  match Registry.spawn reg with
  | Ok id -> Ok (reg, id)
  | Error e -> Error (err_str e)

(** Every configuration, in comparison order: its name and how it
    builds its layer stack over the trace's boot program. *)
let table :
    (string
    * (name:string ->
      width:int ->
      sabotage option ->
      Program.t ->
      (config, string) result))
    list =
  let session ?evaluator ?(incremental = false) ?(cache = false) () ~name
      ~width sabotage boot =
    match Session.create ~width ~incremental ~cache ?evaluator boot with
    | Error e -> Error (err_str e)
    | Ok s -> Ok (of_fleet ~width ~name (plain ?sabotage s))
  in
  let host ~name ~width sabotage boot =
    Result.map
      (fun (reg, id) -> of_fleet ~width ~name (hosted ?sabotage reg id))
      (spawn (host_config ~width ~cache:false) boot)
  in
  [
    ("machine", fun ~name:_ ~width _ boot -> machine_config ~width boot);
    (* the substitution engine: keeps the paper's evaluator under
       differential test now that sessions default to the compiled one *)
    ("session", session ~evaluator:Machine.Subst ());
    ("compiled", session ~evaluator:Machine.Compiled ());
    ("cached", session ~cache:true ());
    ("incremental", session ~incremental:true ());
    ("host", host);
    (* the O(edit) broadcast pipeline: the epoch's render tables
       retargeted (not flushed) across updates and shared with a twin
       session, and every UPDATE typechecked by both the scratch and
       the incremental checker — a verdict disagreement surfaces as a
       status divergence *)
    ( "host-incr",
      fun ~name ~width sabotage boot ->
        Result.bind (spawn (host_config ~width ~cache:true) boot)
          (fun (reg, id) ->
            Result.map (of_fleet ~width ~name)
              (twinned ~typecheck:Broadcast.Cross_check ?sabotage reg id)) );
    ( "host-txn",
      fun ~name ~width sabotage boot ->
        Result.map
          (fun (reg, id) ->
            with_rollout reg
              (of_fleet ~width ~name
                 (hosted ~typecheck:Broadcast.Cross_check ?sabotage reg id)))
          (spawn (host_config ~width ~cache:true) boot) );
    ( "host-net",
      fun ~name ~width _ boot ->
        let cfg = host_config ~width ~cache:false in
        Result.map
          (fun fleet -> of_fleet ~width ~name (recycled cfg fleet))
          (spawn cfg boot) );
    ( "host-director",
      fun ~name ~width _ boot ->
        Result.map (of_fleet ~width ~name)
          (directed (host_config ~width ~cache:false) boot) );
    ("restart", fun ~name:_ ~width _ boot -> restart_config ~width boot);
  ]

let all_configs = List.map fst table

(* ------------------------------------------------------------------ *)
(* The differential run                                                *)
(* ------------------------------------------------------------------ *)

let default_width = 46

let run ?(width = default_width) ?(configs = all_configs) ?sabotage
    (trace : Ctrace.t) : outcome =
  List.iter
    (fun n ->
      if not (List.mem_assoc n table) then
        invalid_arg (Printf.sprintf "Oracle.run: unknown configuration %S" n))
    configs;
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
        (* every configuration but the rollout pipeline itself gets the
           reference transaction semantics layered on top *)
        let mk name =
          let c = (List.assoc name table) ~name ~width sabotage boot in
          if String.equal name "host-txn" then c else Result.map with_txn c
        in
        let boots = List.map (fun n -> (n, mk n)) configs in
        (* whatever happens below — agreement, divergence, an
           exception — every configuration that booted releases what
           it owns (the directed fleet closes its connection and
           stops its servers) *)
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
