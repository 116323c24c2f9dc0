(** Lockstep load client (see the interface).  Everything is driven
    from one thread: {!Conn}s whose waits interleave the caller's
    [pump] (the in-process server's [step]) with reads, and an internal
    exception for the fatal paths that {!run} catches into a
    [result]. *)

module Host_metrics = Live_host.Host_metrics

exception Fail of string

let fail fmt = Printf.ksprintf (fun m -> raise (Fail m)) fmt

type cstate = {
  conn : Conn.t;
  (* session id -> slot, for every slot currently homed on this
     connection *)
  slots : (int, int) Hashtbl.t;
  (* slots awaiting an [Attach] on this connection, in send order —
     the server spawns in request order, so Attaches pair up FIFO *)
  attach_q : int Queue.t;
}

type report = {
  rounds : int;
  events_sent : int;
  rejected : int;
  latency : Host_metrics.histogram;
  bytes_in : int;
  bytes_out : int;
  frames_in : int;
  frames_out : int;
  delta_rows : int;
  full_rows : int;
  detaches : int;
  resumes : int;
  session_ids : int list;
  frames : string array array;
  metrics : string option;
}

type st = {
  conns : cstate array;
  links : Conn.t list;  (** [conns]' connections *)
  pump : unit -> unit;
  window : int;  (** max in-flight events per slot *)
  slot_conn : int array;  (** slot -> connection index *)
  slot_id : int array;  (** slot -> current server-side session id *)
  slot_frame : string array array;  (** slot -> reconstructed rows *)
  slot_sent_at : float Queue.t array;
      (** send timestamps of the slot's in-flight events, oldest first —
          credits come back in send order (the server consumes a
          session's events FIFO), so each ack pops the head *)
  slot_inflight : int array;
  latency : Host_metrics.histogram;
  mutable events_sent : int;
  mutable rejected : int;
  mutable frames_in : int;
  mutable frames_out : int;
  mutable delta_rows : int;
  mutable full_rows : int;
  mutable detaches : int;
  mutable resumes : int;
  (* out-of-band expectations, keyed by connection index *)
  mutable expect_detached : (int * int * string option ref) option;
      (** (conn, slot, cell): the next Detached on [conn] fills [cell] *)
  mutable metrics_cell : string option;
}

let now_ns () = Int64.to_float (Monotonic_clock.now ())

(* Frames go out at once: an event's latency clock starts when it is
   written, not when a round's worth has been staged. *)
let send_all (t : st) (c : cstate) (frame : Wire.frame) : unit =
  Conn.send c.conn frame;
  Conn.push ~pump:t.pump c.conn;
  t.frames_out <- t.frames_out + 1

(* ------------------------------------------------------------------ *)
(* Frame dispatch                                                      *)
(* ------------------------------------------------------------------ *)

let slot_of_session (t : st) (ci : int) (session : int) : int =
  match Hashtbl.find_opt t.conns.(ci).slots session with
  | Some slot -> slot
  | None -> fail "server spoke of unknown session %d" session

(* Return [n] credits to the slot: pop that many send timestamps
   (oldest first) and record each latency.  A server batching several
   events into one delta acks them all at once; a broadcast repaint
   acks none. *)
let return_credits (t : st) (slot : int) (n : int) : unit =
  let q = t.slot_sent_at.(slot) in
  for _ = 1 to min n (Queue.length q) do
    t.slot_inflight.(slot) <- t.slot_inflight.(slot) - 1;
    Host_metrics.record t.latency (now_ns () -. Queue.pop q)
  done

let apply_delta_frame (t : st) (ci : int) ~session ~height ~acks ~rows : unit =
  let slot = slot_of_session t ci session in
  t.delta_rows <- t.delta_rows + List.length rows;
  t.full_rows <- t.full_rows + height;
  t.slot_frame.(slot) <- Wire.apply_delta t.slot_frame.(slot) ~height ~rows;
  return_credits t slot acks

let handle_host_frame (t : st) (ci : int) (f : Wire.host_frame) : unit =
  match f with
  | Wire.Delta { session; height; acks; rows } ->
      apply_delta_frame t ci ~session ~height ~acks ~rows
  | Wire.Attach { session; width = _; frame } -> (
      match Queue.take_opt t.conns.(ci).attach_q with
      | Some slot ->
          Hashtbl.replace t.conns.(ci).slots session slot;
          t.slot_id.(slot) <- session;
          t.slot_frame.(slot) <- Wire.rows_of_text frame
      | None -> fail "unexpected Attach for session %d" session)
  | Wire.Detached { session; snapshot } -> (
      match t.expect_detached with
      | Some (eci, slot, cell) when eci = ci && t.slot_id.(slot) = session ->
          t.expect_detached <- None;
          cell := Some snapshot;
          Hashtbl.remove t.conns.(ci).slots session
      | _ -> fail "unexpected Detached for session %d" session)
  | Wire.Error { code = 2; msg } -> (
      (* backpressure rejection; msg leads with the session id *)
      match int_of_string_opt (List.hd (String.split_on_char ' ' msg)) with
      | Some session ->
          let slot = slot_of_session t ci session in
          if t.slot_inflight.(slot) = 0 then
            fail "stray backpressure rejection for session %d" session;
          (* the rejection answers exactly one offered event *)
          t.rejected <- t.rejected + 1;
          return_credits t slot 1
      | None -> fail "malformed backpressure rejection %S" msg)
  | Wire.Error { code; msg } -> fail "host error %d: %s" code msg
  | Wire.Metrics { text } -> t.metrics_cell <- Some text
  | Wire.Ack { info } -> fail "unexpected Ack %S" info
  | Wire.Observed _ -> fail "unexpected Observed"

let dispatch_all (t : st) : unit =
  Array.iteri
    (fun ci c ->
      match
        Conn.frames c.conn (function
          | Wire.Host f ->
              t.frames_in <- t.frames_in + 1;
              handle_host_frame t ci f;
              true
          | Wire.Client _ -> fail "client-tagged frame from the host")
      with
      | Some m -> fail "corrupt frame from the host: %s" m
      | None -> ())
    t.conns

(* One poll iteration: pump the in-process server, then read and
   dispatch whatever arrived.  Returns whether any bytes came in. *)
let poll (t : st) : bool =
  let got = Conn.poll ~pump:t.pump t.links 0.001 in
  dispatch_all t;
  got

let poll_until (t : st) ~(what : string) (done_ : unit -> bool) : unit =
  try
    Conn.await ~pump:t.pump t.links (fun () ->
        dispatch_all t;
        if done_ () then Some () else None)
  with Conn.Failed m -> fail "%s (waiting for %s)" m what

(* ------------------------------------------------------------------ *)
(* The run                                                             *)
(* ------------------------------------------------------------------ *)

let run ~socket ~conns ~sessions ~rounds ~gen ?(window = 1)
    ?(barrier = fun _ -> true) ?detach_every ?(on_round = fun _ -> ())
    ?(pump = fun () -> ()) ?(stats = false) () : (report, string) result =
  if conns < 1 then Error "conns must be >= 1"
  else if sessions < conns then Error "sessions must be >= conns"
  else if window < 1 then Error "window must be >= 1"
  else begin
    let opened = ref [] in
    let close_all () = List.iter Conn.close !opened in
    match
      let cs =
        Array.init conns (fun _ ->
            pump ();
            let conn = Conn.connect socket in
            opened := conn :: !opened;
            { conn; slots = Hashtbl.create 8; attach_q = Queue.create () })
      in
      let t =
        {
          conns = cs;
          links = Array.to_list (Array.map (fun c -> c.conn) cs);
          pump;
          window;
          slot_conn = Array.make sessions 0;
          slot_id = Array.make sessions (-1);
          slot_frame = Array.make sessions [||];
          slot_sent_at = Array.init sessions (fun _ -> Queue.create ());
          slot_inflight = Array.make sessions 0;
          latency = Host_metrics.histogram ();
          events_sent = 0;
          rejected = 0;
          frames_in = 0;
          frames_out = 0;
          delta_rows = 0;
          full_rows = 0;
          detaches = 0;
          resumes = 0;
          expect_detached = None;
          metrics_cell = None;
        }
      in
      (* Slot layout: contiguous blocks, connection by connection. *)
      let base = sessions / conns and extra = sessions mod conns in
      let slot = ref 0 in
      let block ci = base + if ci < extra then 1 else 0 in
      Array.iteri
        (fun ci c ->
          let k = block ci in
          let first = !slot in
          for s = first to first + k - 1 do
            t.slot_conn.(s) <- ci
          done;
          slot := first + k;
          send_all t c
            (Wire.Client (Wire.Hello { client = "live-load"; sessions = k }));
          (* Attaches arrive in spawn order: hand them to slots
             first..first+k-1 FIFO. *)
          for s = first to first + k - 1 do
            Queue.add s c.attach_q
          done;
          poll_until t ~what:"Attach" (fun () -> Queue.is_empty c.attach_q))
        t.conns;
      (* Rounds.  With [window] = 1 every round is a full barrier —
         the original lockstep.  With a wider window, each slot keeps
         up to [window] events in flight and only the declared barrier
         rounds (plus detach rounds and the final round) drain the
         pipe before [on_round] runs at a quiescent fleet. *)
      for round = 0 to rounds - 1 do
        let detach_round =
          match detach_every with
          | Some k when k > 0 && (round + 1) mod k = 0 -> true
          | _ -> false
        in
        let is_barrier =
          t.window = 1 || detach_round || round = rounds - 1 || barrier round
        in
        for s = 0 to sessions - 1 do
          let ev = gen ~slot:s ~round in
          if t.slot_inflight.(s) >= t.window then
            poll_until t ~what:"window credit" (fun () ->
                t.slot_inflight.(s) < t.window);
          Queue.add (now_ns ()) t.slot_sent_at.(s);
          t.slot_inflight.(s) <- t.slot_inflight.(s) + 1;
          send_all t
            t.conns.(t.slot_conn.(s))
            (Wire.Client (Wire.Event { session = t.slot_id.(s); ev }));
          t.events_sent <- t.events_sent + 1
        done;
        if is_barrier then begin
          poll_until t ~what:"round answers" (fun () ->
              Array.for_all (fun n -> n = 0) t.slot_inflight);
          (if detach_round then
             match detach_every with
             | Some k ->
                 let s = round / k mod sessions in
                 let ci = t.slot_conn.(s) in
                 let cell = ref None in
                 t.expect_detached <- Some (ci, s, cell);
                 send_all t t.conns.(ci)
                   (Wire.Client (Wire.Detach { session = t.slot_id.(s) }));
                 poll_until t ~what:"Detached" (fun () -> !cell <> None);
                 t.detaches <- t.detaches + 1;
                 let snapshot = Option.get !cell in
                 Queue.add s t.conns.(ci).attach_q;
                 send_all t t.conns.(ci)
                   (Wire.Client (Wire.Resume { snapshot }));
                 poll_until t ~what:"Attach after Resume" (fun () ->
                     Queue.is_empty t.conns.(ci).attach_q);
                 t.resumes <- t.resumes + 1
             | None -> ());
          on_round round
        end
      done;
      (* Settle: collect any unsolicited broadcast deltas still in
         flight. *)
      let quiet = ref 0 in
      while !quiet < 25 do
        if poll t then quiet := 0 else incr quiet
      done;
      if stats then begin
        send_all t t.conns.(0) (Wire.Client Wire.Stats);
        poll_until t ~what:"Metrics" (fun () -> t.metrics_cell <> None)
      end;
      Array.iter (fun c -> send_all t c (Wire.Client Wire.Bye)) t.conns;
      let total f = List.fold_left (fun n c -> n + f c) 0 t.links in
      {
        rounds;
        events_sent = t.events_sent;
        rejected = t.rejected;
        latency = t.latency;
        bytes_in = total Conn.bytes_in;
        bytes_out = total Conn.bytes_out;
        frames_in = t.frames_in;
        frames_out = t.frames_out;
        delta_rows = t.delta_rows;
        full_rows = t.full_rows;
        detaches = t.detaches;
        resumes = t.resumes;
        session_ids = Array.to_list t.slot_id;
        frames = t.slot_frame;
        metrics = t.metrics_cell;
      }
    with
    | report ->
        close_all ();
        Ok report
    | exception (Fail m | Conn.Failed m) ->
        close_all ();
        Error m
    | exception Unix.Unix_error (e, fn, _) ->
        close_all ();
        Error (Printf.sprintf "%s: %s" fn (Unix.error_message e))
  end
