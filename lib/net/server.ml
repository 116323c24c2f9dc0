(** The networked host (see the interface).  Single-threaded and
    [select]-based over {!Conn}s: reads accumulate in each connection's
    input buffer, and a tick's worth of frames leaves as one staged
    write per connection, so a slow client never blocks the fleet.
    Every code change runs one {!Live_host.Broadcast} transaction: a
    client's [Update] prepares and commits it in one step, a director's
    [Prepare] / [Commit] / [Abort] run its halves. *)

module Registry = Live_host.Registry
module Scheduler = Live_host.Scheduler
module Backpressure = Live_host.Backpressure
module Host_metrics = Live_host.Host_metrics
module Broadcast = Live_host.Broadcast
module Session = Live_runtime.Session

(* Per-session client-side view: the rows this connection last saw
   (the baseline every Delta is diffed against), whether it waits in
   the server's dirty queue, and the number of
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
  dirty : (conn * Registry.id * view) Queue.t;
      (** views owed a Delta, first dirtied first, each once *)
  mutable pending_txn : (int * Broadcast.txn) option;
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
    dirty = Queue.create ();
    pending_txn = None;
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

let attach (t : t) (c : conn) (id : Registry.id) : unit =
  match Registry.session t.reg id with
  | None -> send t c (Wire.Host (Wire.Error { code = 5; msg = string_of_int id }))
  | Some s ->
      let rows = Session.rows s in
      Hashtbl.replace c.views id { last = rows; dirty = false; unacked = 0 };
      send t c
        (Wire.Host
           (Wire.Attach
              {
                session = id;
                width = Session.width s;
                frame = Wire.text_of_rows rows;
              }))

let uevent_of_wire : Wire.event -> Registry.uevent = function
  | Wire.Ev_tap { x; y } -> Registry.Tap { x; y }
  | Wire.Ev_back -> Registry.Back

let wire_of_uevent : Registry.uevent -> Wire.event = function
  | Registry.Tap { x; y } -> Wire.Ev_tap { x; y }
  | Registry.Back -> Wire.Ev_back

let error t c code msg = send t c (Wire.Host (Wire.Error { code; msg }))

let mark_dirty (t : t) (c : conn) (id : Registry.id) (view : view) : unit =
  if not view.dirty then begin
    view.dirty <- true;
    Queue.push (c, id, view) t.dirty
  end

let mark_all_dirty (t : t) : unit =
  Hashtbl.iter
    (fun _ c -> Hashtbl.iter (fun id view -> mark_dirty t c id view) c.views)
    t.conns

(* A committed edit: every attached view repaints, and the Ack counts
   the sessions whose UPDATE failed at run time. *)
let committed (t : t) (c : conn) (report : Broadcast.report) (what : string) :
    unit =
  let failed =
    List.length
      (List.filter
         (fun (o : Broadcast.session_outcome) ->
           Result.is_error o.Broadcast.outcome)
         report.Broadcast.outcomes)
  in
  mark_all_dirty t;
  send t c
    (Wire.Host (Wire.Ack { info = Printf.sprintf "%s (%d failed)" what failed }))

(* Close the open transaction if [txn] names it, else refuse. *)
let resolve_txn (t : t) (c : conn) (what : string) (txn : int)
    (k : Broadcast.txn -> unit) : unit =
  match t.pending_txn with
  | Some (open_txn, x) when open_txn = txn ->
      t.pending_txn <- None;
      k x
  | Some (open_txn, _) ->
      error t c 6
        (Printf.sprintf "%s txn %d: transaction %d is open" what txn open_txn)
  | None -> error t c 6 (Printf.sprintf "%s txn %d: none open" what txn)

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
              mark_dirty t c session view;
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
          match
            Snapshot.restore ~program:host_program (Registry.config t.reg) snap
          with
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
                  (* adopt refuses while a transaction is open (the epoch
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
                              mark_dirty t c id view;
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
      (* a one-shot transaction; [Broadcast.prepare] refuses while a
         prepared one is open *)
      match Snapshot.program_of_string program with
      | Error m -> error t c 6 m
      | Ok p -> (
          match Broadcast.update t.reg p with
          | Error e -> error t c 6 (Live_core.Machine.error_to_string e)
          | Ok report ->
              committed t c report
                (Printf.sprintf "updated %d sessions"
                   (List.length report.Broadcast.outcomes))))
  | Wire.Prepare { txn; program } -> (
      (* phase one of the director's two-phase UPDATE: diff, typecheck
         and compile, open the target epoch, apply nothing.
         [Broadcast.prepare] refuses while a transaction is already
         open — also the fault-injection hook the atomicity tests lean
         on. *)
      match Snapshot.program_of_string program with
      | Error m -> error t c 6 m
      | Ok p -> (
          match Broadcast.prepare t.reg p with
          | Error e -> error t c 6 (Live_core.Machine.error_to_string e)
          | Ok x ->
              t.pending_txn <- Some (txn, x);
              send t c
                (Wire.Host
                   (Wire.Ack
                      {
                        info =
                          Printf.sprintf "prepared txn %d (epoch %d)" txn
                            (Broadcast.target_epoch x);
                      }))))
  | Wire.Commit { txn } ->
      (* the whole shard moves epochs in this one step *)
      resolve_txn t c "commit" txn (fun x ->
          committed t c (Broadcast.commit x)
            (Printf.sprintf "committed txn %d" txn))
  | Wire.Abort { txn } ->
      (* a prepared transaction never touched a session: every session
         stays on the base epoch *)
      resolve_txn t c "abort" txn (fun x ->
          Broadcast.abort x;
          send t c
            (Wire.Host (Wire.Ack { info = Printf.sprintf "aborted txn %d" txn })))
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

(* Send every dirty view its damage-masked Delta, in the order the
   views were dirtied.  An empty row list still goes out — it is the
   acknowledgement a lockstep client waits for.  A queued view that
   Detach removed, or that Bye or [drop_conn] reset, is no longer its
   connection's view of that session and is skipped, as is every view
   of a closing connection. *)
let send_deltas (t : t) : unit =
  while not (Queue.is_empty t.dirty) do
    let c, id, view = Queue.pop t.dirty in
    let attached =
      match Hashtbl.find_opt c.views id with
      | Some v -> v == view
      | None -> false
    in
    if attached && not (Conn.closing c.conn) then begin
      view.dirty <- false;
      match Registry.session t.reg id with
      | None -> ()
      | Some s ->
          let rows = Session.rows s in
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
                  { session = id; height = Array.length rows; acks; rows = delta }))
    end
  done

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
       then answer with deltas.  A drain error means a session with
       input fell out of the ready set: its events would wait forever
       and its client would never hear, so it is fatal. *)
    if Registry.total_pending t.reg > 0 then begin
      worked := true;
      match Scheduler.drain t.sched with Ok _ -> () | Error m -> failwith m
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
