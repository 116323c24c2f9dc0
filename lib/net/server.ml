(** The networked host (see the interface).  Single-threaded and
    [select]-based over {!Conn}s: reads accumulate in each connection's
    input buffer, and a tick's worth of frames leaves as one staged
    write per connection, so a slow client never blocks the fleet. *)

module Registry = Live_host.Registry
module Scheduler = Live_host.Scheduler
module Backpressure = Live_host.Backpressure
module Host_metrics = Live_host.Host_metrics
module Broadcast = Live_host.Broadcast
module Rollout = Live_host.Rollout
module Session = Live_runtime.Session

(* Per-session client-side view: the rows this connection last saw
   (the baseline every Delta is diffed against) and the number of
   offered-but-not-yet-acknowledged events — returned to the client as
   the next Delta's [acks], the pipelining credit scheme. *)
type view = {
  mutable last : string array;
  mutable dirty : bool;
  mutable unacked : int;
}

type conn = { conn : Conn.t; views : (Registry.id, view) Hashtbl.t }

type stats = {
  accepted : int;
  connections : int;
  frames_in : int;
  frames_out : int;
  bytes_in : int;
  bytes_out : int;
  deltas_sent : int;
  delta_rows_sent : int;
  full_rows : int;
  detaches : int;
  resumes : int;
  corrupt : int;
}

type t = {
  reg : Registry.t;
  sched : Scheduler.t;
  listener : Conn.listener;
  conns : (Unix.file_descr, conn) Hashtbl.t;
  mutable pending_rollout : (int * Rollout.t) option;
      (** the open cross-shard UPDATE transaction, at most one:
          [Prepare]d but not yet [Commit]ted or [Abort]ed *)
  mutable stopped : bool;
  mutable s_accepted : int;
  mutable s_frames_in : int;
  mutable s_frames_out : int;
  mutable s_bytes_in : int;  (** from connections since dropped *)
  mutable s_bytes_out : int;
  mutable s_deltas : int;
  mutable s_delta_rows : int;
  mutable s_full_rows : int;
  mutable s_detaches : int;
  mutable s_resumes : int;
  mutable s_corrupt : int;
}

let create ?(config = Registry.default_config) ?batch ~socket
    (program : Live_core.Program.t) : t =
  let reg = Registry.create ~config program in
  let sched = Scheduler.create ?batch reg in
  let listener = Conn.listen socket in
  {
    reg;
    sched;
    listener;
    conns = Hashtbl.create 16;
    pending_rollout = None;
    stopped = false;
    s_accepted = 0;
    s_frames_in = 0;
    s_frames_out = 0;
    s_bytes_in = 0;
    s_bytes_out = 0;
    s_deltas = 0;
    s_delta_rows = 0;
    s_full_rows = 0;
    s_detaches = 0;
    s_resumes = 0;
    s_corrupt = 0;
  }

let registry (t : t) = t.reg
let scheduler (t : t) = t.sched

let stats (t : t) : stats =
  let live f = Hashtbl.fold (fun _ c n -> n + f c.conn) t.conns 0 in
  {
    accepted = t.s_accepted;
    connections = Hashtbl.length t.conns;
    frames_in = t.s_frames_in;
    frames_out = t.s_frames_out;
    bytes_in = t.s_bytes_in + live Conn.bytes_in;
    bytes_out = t.s_bytes_out + live Conn.bytes_out;
    deltas_sent = t.s_deltas;
    delta_rows_sent = t.s_delta_rows;
    full_rows = t.s_full_rows;
    detaches = t.s_detaches;
    resumes = t.s_resumes;
    corrupt = t.s_corrupt;
  }

let send (t : t) (c : conn) (f : Wire.frame) : unit =
  Conn.send c.conn f;
  t.s_frames_out <- t.s_frames_out + 1

(* Close the connection now.  Its sessions stay in the fleet — session
   lifetime is decoupled from connection lifetime (the whole point of
   the persistence layer): a vanished client's sessions keep running
   and remain observable; only an explicit [Detach] takes one out. *)
let drop_conn (t : t) (c : conn) : unit =
  Hashtbl.reset c.views;
  Hashtbl.remove t.conns (Conn.fd c.conn);
  t.s_bytes_in <- t.s_bytes_in + Conn.bytes_in c.conn;
  t.s_bytes_out <- t.s_bytes_out + Conn.bytes_out c.conn;
  Conn.close c.conn

let screenshot_rows (t : t) (id : Registry.id) : string array option =
  match Registry.session t.reg id with
  | None -> None
  | Some s -> Some (Wire.rows_of_text (Session.screenshot s))

let attach (t : t) (c : conn) (id : Registry.id) : unit =
  match Registry.session t.reg id with
  | None -> send t c (Wire.Host (Wire.Error { code = 5; msg = string_of_int id }))
  | Some s ->
      let text = Session.screenshot s in
      Hashtbl.replace c.views id
        { last = Wire.rows_of_text text; dirty = false; unacked = 0 };
      send t c
        (Wire.Host
           (Wire.Attach { session = id; width = Session.width s; frame = text }))

let uevent_of_wire : Wire.event -> Registry.uevent = function
  | Wire.Ev_tap { x; y } -> Registry.Tap { x; y }
  | Wire.Ev_back -> Registry.Back

let wire_of_uevent : Registry.uevent -> Wire.event = function
  | Registry.Tap { x; y } -> Wire.Ev_tap { x; y }
  | Registry.Back -> Wire.Ev_back

let error t c code msg = send t c (Wire.Host (Wire.Error { code; msg }))

let mark_all_dirty (t : t) : unit =
  Hashtbl.iter
    (fun _ c -> Hashtbl.iter (fun _ view -> view.dirty <- true) c.views)
    t.conns

(* A protocol violation: answer code 1 and close once the write
   drains.  The connection stops being read immediately. *)
let violation (t : t) (c : conn) (msg : string) : unit =
  t.s_corrupt <- t.s_corrupt + 1;
  error t c 1 msg;
  Conn.close_after_flush c.conn

let handle_client_frame (t : t) (c : conn) (f : Wire.client_frame) : unit =
  match f with
  | Wire.Hello { client = _; sessions } ->
      if sessions < 1 then violation t c "Hello: sessions must be >= 1"
      else
        for _ = 1 to sessions do
          match Registry.spawn t.reg with
          | Ok id -> attach t c id
          | Error e -> error t c 4 (Live_core.Machine.error_to_string e)
        done
  | Wire.Event { session; ev } -> (
      match Hashtbl.find_opt c.views session with
      | None -> error t c 5 (string_of_int session)
      | Some view -> (
          match Registry.offer t.reg session (uevent_of_wire ev) with
          | Backpressure.Accepted | Backpressure.Dropped_oldest ->
              (* a dropped-oldest still consumed an offer: the credit
                 goes back to the client either way *)
              view.dirty <- true;
              view.unacked <- view.unacked + 1
          | Backpressure.Rejected ->
              error t c 2 (Printf.sprintf "%d rejected by backpressure" session)
          ))
  | Wire.Detach { session } -> (
      match Hashtbl.find_opt c.views session with
      | None -> error t c 5 (string_of_int session)
      | Some _ -> (
          match Registry.session t.reg session with
          | None -> error t c 5 (string_of_int session)
          | Some s ->
              (* Drain the still-queued ingress into the snapshot so
                 no accepted event is lost across the detach. *)
              let rec drain acc =
                match Registry.take t.reg session with
                | None -> List.rev acc
                | Some ev -> drain (wire_of_uevent ev :: acc)
              in
              let pending = drain [] in
              let snap = Snapshot.of_session ~pending s in
              let text = Snapshot.to_string snap in
              Hashtbl.remove c.views session;
              ignore (Registry.kill t.reg session);
              t.s_detaches <- t.s_detaches + 1;
              send t c (Wire.Host (Wire.Detached { session; snapshot = text }))
          ))
  | Wire.Resume { snapshot } -> (
      match Snapshot.of_string snapshot with
      | Error m -> error t c 3 m
      | Ok snap -> (
          let host_program = Registry.program t.reg in
          match Snapshot.restore ~program:host_program snap with
          | Error m -> error t c 4 m
          | Ok s -> (
              (* A snapshot carrying older code is UPDATE-d to the
                 host's program before joining the fleet — the fleet
                 shares one program, physically (check_epochs). *)
              let upd =
                if Snapshot.program_equal snap.Snapshot.program host_program
                then Ok ()
                else
                  match Session.update s host_program with
                  | Ok _report -> Ok ()
                  | Error e -> Error (Live_core.Machine.error_to_string e)
              in
              match upd with
              | Error m -> error t c 4 m
              | Ok () -> (
                  (* adopt refuses while a rollout is open (the epoch
                     ledger would not know which epoch to pin the
                     newcomer to) — a resume landing inside a prepared
                     transaction is refused, not fatal *)
                  match Registry.adopt t.reg s with
                  | exception Invalid_argument m -> error t c 4 m
                  | id ->
                  t.s_resumes <- t.s_resumes + 1;
                  attach t c id;
                  List.iter
                    (fun ev ->
                      match Registry.offer t.reg id (uevent_of_wire ev) with
                      | Backpressure.Accepted | Backpressure.Dropped_oldest ->
                          (match Hashtbl.find_opt c.views id with
                          | Some view ->
                              view.dirty <- true;
                              view.unacked <- view.unacked + 1
                          | None -> ())
                      | Backpressure.Rejected ->
                          error t c 2
                            (Printf.sprintf "%d rejected by backpressure" id))
                    snap.Snapshot.pending))))
  | Wire.Stats ->
      send t c
        (Wire.Host
           (Wire.Metrics
              { text = Host_metrics.to_string (Registry.snapshot t.reg) }))
  | Wire.Bye ->
      (* orderly goodbye: the sessions live on, unattached *)
      Hashtbl.reset c.views;
      Conn.close_after_flush c.conn
  | Wire.Update { program } -> (
      match Snapshot.program_of_string program with
      | Error m -> error t c 6 m
      | Ok p -> (
          if t.pending_rollout <> None then
            error t c 6 "a prepared transaction is open"
          else
            match Broadcast.update t.reg p with
            | Error e -> error t c 6 (Live_core.Machine.error_to_string e)
            | Ok report ->
                let failed =
                  List.length
                    (List.filter
                       (fun (o : Broadcast.session_outcome) ->
                         Result.is_error o.Broadcast.outcome)
                       report.Broadcast.outcomes)
                in
                mark_all_dirty t;
                send t c
                  (Wire.Host
                     (Wire.Ack
                        {
                          info =
                            Printf.sprintf "updated %d sessions (%d failed)"
                              (List.length report.Broadcast.outcomes) failed;
                        }))))
  | Wire.Prepare { txn; program } -> (
      (* phase one of the director's two-phase UPDATE: diff, typecheck
         and compile, open the target epoch, apply nothing.  Refusing
         when a transaction is already open is also the fault-injection
         hook the atomicity tests lean on. *)
      match t.pending_rollout with
      | Some (open_txn, _) ->
          error t c 6 (Printf.sprintf "transaction %d is already open" open_txn)
      | None -> (
          match Snapshot.program_of_string program with
          | Error m -> error t c 6 m
          | Ok p -> (
              match Rollout.begin_ ~seed:txn t.reg p with
              | exception Invalid_argument m -> error t c 6 m
              | Error e -> error t c 6 (Live_core.Machine.error_to_string e)
              | Ok r ->
                  t.pending_rollout <- Some (txn, r);
                  send t c
                    (Wire.Host
                       (Wire.Ack
                          {
                            info =
                              Printf.sprintf "prepared txn %d (epoch %d)" txn
                                (Rollout.target_epoch r);
                          })))))
  | Wire.Commit { txn } -> (
      match t.pending_rollout with
      | Some (open_txn, r) when open_txn = txn ->
          (* canary + promote back to back — no client frame is read in
             between, so the whole shard moves epochs in one step *)
          let failed outcomes =
            List.length
              (List.filter
                 (fun (o : Broadcast.session_outcome) ->
                   Result.is_error o.Broadcast.outcome)
                 outcomes)
          in
          let f1 = failed (Rollout.canary r) in
          let f2 = failed (Rollout.promote r) in
          t.pending_rollout <- None;
          mark_all_dirty t;
          send t c
            (Wire.Host
               (Wire.Ack
                  {
                    info =
                      Printf.sprintf "committed txn %d (%d failed)" txn
                        (f1 + f2);
                  }))
      | Some (open_txn, _) ->
          error t c 6
            (Printf.sprintf "commit txn %d: transaction %d is open" txn open_txn)
      | None -> error t c 6 (Printf.sprintf "commit txn %d: none open" txn))
  | Wire.Abort { txn } -> (
      match t.pending_rollout with
      | Some (open_txn, r) when open_txn = txn ->
          (* a Staged rollout never touched a session: rollback is a
             pure close and every session stays on the base epoch *)
          let errs = Rollout.rollback r in
          t.pending_rollout <- None;
          send t c
            (Wire.Host
               (Wire.Ack
                  {
                    info =
                      Printf.sprintf "aborted txn %d (%d replay errors)" txn
                        (List.length errs);
                  }))
      | Some (open_txn, _) ->
          error t c 6
            (Printf.sprintf "abort txn %d: transaction %d is open" txn open_txn)
      | None -> error t c 6 (Printf.sprintf "abort txn %d: none open" txn))
  | Wire.Observe ->
      let sessions =
        List.filter_map
          (fun id ->
            match Registry.session t.reg id with
            | None -> None
            | Some s -> Some (id, Registry.observe_session s))
          (Registry.ids t.reg)
      in
      send t c (Wire.Host (Wire.Observed { sessions }))
  | Wire.Stats_data ->
      send t c (Wire.Host (Wire.Metrics { text = Registry.export_metrics t.reg }))
  | Wire.Rebalance _ ->
      error t c 6 "rebalance: not a director"

let handle_frame (t : t) (c : conn) (f : Wire.frame) : bool =
  t.s_frames_in <- t.s_frames_in + 1;
  (match f with
  | Wire.Client f -> handle_client_frame t c f
  | Wire.Host _ -> violation t c "host-tagged frame from a client");
  true

(* Send every dirty view its damage-masked Delta.  An empty row list
   still goes out — it is the acknowledgement a lockstep client waits
   for. *)
let send_deltas (t : t) : unit =
  Hashtbl.iter
    (fun _ c ->
      if not (Conn.closing c.conn) then
        Hashtbl.iter
          (fun id view ->
            if view.dirty then begin
              view.dirty <- false;
              match screenshot_rows t id with
              | None -> ()
              | Some rows ->
                  let delta = Wire.delta_of_frames ~prev:view.last rows in
                  let acks = view.unacked in
                  view.unacked <- 0;
                  view.last <- rows;
                  t.s_deltas <- t.s_deltas + 1;
                  t.s_delta_rows <- t.s_delta_rows + List.length delta;
                  t.s_full_rows <- t.s_full_rows + Array.length rows;
                  send t c
                    (Wire.Host
                       (Wire.Delta
                          {
                            session = id;
                            height = Array.length rows;
                            acks;
                            rows = delta;
                          }))
            end)
          c.views)
    t.conns

let step ?(timeout = 0.05) (t : t) : bool =
  if t.stopped then false
  else begin
    let conns = Hashtbl.fold (fun _ c acc -> c.conn :: acc) t.conns [] in
    let incoming, readable = Conn.select ~listener:t.listener conns timeout in
    let worked = ref false in
    if incoming then
      List.iter
        (fun conn ->
          Hashtbl.replace t.conns (Conn.fd conn)
            { conn; views = Hashtbl.create 8 };
          t.s_accepted <- t.s_accepted + 1;
          worked := true)
        (Conn.accept t.listener);
    (* Ingress: read and handle every complete frame on every readable
       connection; a dead peer is dropped. *)
    List.iter
      (fun fd ->
        match Hashtbl.find_opt t.conns fd with
        | None -> ()
        | Some c -> (
            worked := true;
            match Conn.read c.conn with
            | () -> (
                match Conn.frames c.conn (handle_frame t c) with
                | Some m -> violation t c m
                | None -> ())
            | exception Conn.Failed _ -> drop_conn t c))
      readable;
    (* Serve: drain every event accepted above (and any left over),
       then answer with deltas. *)
    if Registry.total_pending t.reg > 0 then begin
      worked := true;
      (match Scheduler.drain t.sched with Ok _ | Error _ -> ())
    end;
    send_deltas t;
    (* Egress: flush what the sockets will take; drop the dead and the
       drained closing. *)
    Hashtbl.fold
      (fun _ c dead -> if Conn.flush_live c.conn then dead else c :: dead)
      t.conns []
    |> List.iter (drop_conn t);
    !worked
  end

let run ~(until : unit -> bool) (t : t) : unit =
  while not (until ()) && not t.stopped do
    ignore (step t)
  done

let stop (t : t) : unit =
  if not t.stopped then begin
    t.stopped <- true;
    Hashtbl.fold (fun _ c acc -> c :: acc) t.conns [] |> List.iter (drop_conn t);
    Conn.close_listener t.listener
  end
