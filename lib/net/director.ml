(** The shard director (see the interface).  Single-threaded and
    [select]-based like {!Server}: client and shard connections are
    {!Conn}s with staged egress — every frame bound for a peer during
    one select round lands in that peer's staging buffer and flushes
    as a single write.  A control frame ([Detach]/[Resume]/[Prepare]/...)
    turns the shard conversation briefly synchronous ({!Conn.rpc}):
    the director writes the request through and pumps frames off the
    shard until the reply arrives, routing any unrelated [Delta]
    traffic to its owner on the way.

    The data plane is copy-free: a shard's [Delta] and a client's
    [Event] are relayed as raw bytes with only the session-id field
    rewritten ({!Wire.relay_rewrite}), never decoded.  Shards are
    director-trusted (an envelope violation is still {!Fatal}, but a
    delta's payload is forwarded unexamined); client events are {e not}
    trusted — the fast path takes only byte-validated event frames
    ({!Wire.event_payload_ok}) and everything else falls back to the
    full decoder, so malformed client bytes can never reach a shard
    stream.  Fleet-wide sweeps ([Observe]/[Stats_data]) broadcast the
    request to every shard before gathering replies: one round-trip
    wall-clock, not one per shard. *)

module Host_metrics = Live_host.Host_metrics
module Prng = Live_core.Prng

exception Fatal of string

let fatal fmt = Printf.ksprintf (fun m -> raise (Fatal m)) fmt

(* ------------------------------------------------------------------ *)
(* State                                                               *)
(* ------------------------------------------------------------------ *)

type shard = {
  sx : int;
  endpoint : string;
  conn : Conn.t;
  locals : (int, int) Hashtbl.t;  (** shard-local id -> global id *)
}

type placement = {
  mutable p_shard : int;  (** index into [shards] *)
  mutable p_local : int;  (** the session's id on that shard *)
  mutable p_owner : Unix.file_descr option;
      (** the client connection attached to this session, if any *)
}

type t = {
  shards : shard array;
  listener : Conn.listener;
  conns : (Unix.file_descr, Conn.t) Hashtbl.t;  (** client connections *)
  sessions : (int, placement) Hashtbl.t;  (** global id -> placement *)
  mutable next_global : int;
  mutable next_txn : int;
  pump : unit -> unit;
  mutable stopped : bool;
  mutable d_accepted : int;
  mutable d_frames_in : int;
  mutable d_frames_out : int;
  mutable d_updates : int;
  mutable d_updates_rejected : int;
  mutable d_rebalances : int;
  mutable d_moved : int;
  mutable d_digest_checks : int;
  mutable d_digest_failures : int;
  mutable d_corrupt : int;
}

(* ------------------------------------------------------------------ *)
(* Placement: rendezvous hashing                                       *)
(* ------------------------------------------------------------------ *)

(* FNV-1a over the endpoint string, folded to a seed.  Any fixed hash
   works: the only requirements are determinism and that distinct
   endpoints get distinct score streams. *)
let hash_endpoint (s : string) : int =
  let h = ref 0x811c9dc5 in
  String.iter
    (fun c -> h := (!h lxor Char.code c) * 0x01000193 land max_int)
    s;
  !h

(* Highest-random-weight: session [g] lives wherever
   [derive (hash endpoint) g] is largest.  Stable under shard-list
   growth: adding an endpoint only moves the sessions it wins. *)
let place (t : t) (g : int) : int =
  let best = ref 0 and best_score = ref min_int in
  Array.iter
    (fun sh ->
      let score = Prng.derive (hash_endpoint sh.endpoint) g in
      if score > !best_score then begin
        best_score := score;
        best := sh.sx
      end)
    t.shards;
  !best

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let create ?(pump = fun () -> ()) ?(connect_timeout = 10.) ~socket
    ~(shards : string list) () : t =
  if shards = [] then invalid_arg "Director.create: no shards";
  let shards =
    Array.of_list
      (List.mapi
         (fun sx endpoint ->
           {
             sx;
             endpoint;
             conn = Conn.connect ~timeout:connect_timeout endpoint;
             locals = Hashtbl.create 64;
           })
         shards)
  in
  {
    shards;
    listener = Conn.listen socket;
    conns = Hashtbl.create 16;
    sessions = Hashtbl.create 256;
    next_global = 0;
    next_txn = 1;
    pump;
    stopped = false;
    d_accepted = 0;
    d_frames_in = 0;
    d_frames_out = 0;
    d_updates = 0;
    d_updates_rejected = 0;
    d_rebalances = 0;
    d_moved = 0;
    d_digest_checks = 0;
    d_digest_failures = 0;
    d_corrupt = 0;
  }

(* ------------------------------------------------------------------ *)
(* Client-side plumbing                                                *)
(* ------------------------------------------------------------------ *)

let send_client (t : t) (c : Conn.t) (f : Wire.frame) : unit =
  Conn.send c f;
  t.d_frames_out <- t.d_frames_out + 1

let error t c code msg = send_client t c (Wire.Host (Wire.Error { code; msg }))

let violation (t : t) (c : Conn.t) (msg : string) : unit =
  t.d_corrupt <- t.d_corrupt + 1;
  error t c 1 msg;
  Conn.close_after_flush c

let disown (t : t) (c : Conn.t) : unit =
  Hashtbl.iter
    (fun _ p -> if p.p_owner = Some (Conn.fd c) then p.p_owner <- None)
    t.sessions

let drop_conn (t : t) (c : Conn.t) : unit =
  disown t c;
  Hashtbl.remove t.conns (Conn.fd c);
  Conn.close c

(* ------------------------------------------------------------------ *)
(* Shard-side plumbing                                                 *)
(* ------------------------------------------------------------------ *)

let send_shard (t : t) (sh : shard) (f : Wire.client_frame) : unit =
  Conn.send sh.conn (Wire.Client f);
  t.d_frames_out <- t.d_frames_out + 1

(* Every shard socket error — a hang-up, a failed read or write, a
   reply that never comes — is fatal. *)
let shard_io (sh : shard) (f : unit -> 'a) : 'a =
  try f () with Conn.Failed m -> fatal "shard %s: %s" sh.endpoint m

let leading_int (msg : string) : int option =
  int_of_string_opt (List.hd (String.split_on_char ' ' msg))

let owner_conn (t : t) (g : int) : Conn.t option =
  match Hashtbl.find_opt t.sessions g with
  | Some { p_owner = Some fd; _ } -> (
      match Hashtbl.find_opt t.conns fd with
      | Some c when not (Conn.closing c) -> Some c
      | _ -> None)
  | _ -> None

(* The hot path: a shard [Delta] located by {!Wire.peek} is relayed to
   its owner as raw bytes, only the session-id field rewritten local →
   global — no decode, no re-encode, one append into the owner's
   staging buffer. *)
let route_raw_delta (t : t) (sh : shard) (data : string) (r : Wire.raw) : unit
    =
  match Hashtbl.find_opt sh.locals r.Wire.r_session with
  | None -> () (* session migrated away mid-flight; stale delta *)
  | Some g -> (
      match owner_conn t g with
      | Some c ->
          Conn.relay c data r ~session:g;
          t.d_frames_out <- t.d_frames_out + 1
      | None -> ())

(* An asynchronous decoded shard frame (one that is not the reply a
   control exchange is waiting for): a backpressure rejection, rewritten
   local -> global for the owning client.  [Delta]s never land here:
   {!drain_shard_frames} relays every one raw. *)
let route_shard_frame (t : t) (sh : shard) (f : Wire.host_frame) : unit =
  match f with
  | Wire.Error { code = 2; msg } -> (
      (* backpressure rejection: the message leads with the shard-local
         session id; rewrite it to the global id for the owner *)
      match leading_int msg with
      | Some local -> (
          match Hashtbl.find_opt sh.locals local with
          | None -> ()
          | Some g -> (
              match owner_conn t g with
              | Some c ->
                  let rest =
                    match String.index_opt msg ' ' with
                    | Some i ->
                        String.sub msg i (String.length msg - i)
                    | None -> ""
                  in
                  error t c 2 (string_of_int g ^ rest)
              | None -> ()))
      | None -> fatal "shard %s: malformed backpressure message" sh.endpoint)
  | f ->
      fatal "shard %s: unexpected frame %s" sh.endpoint
        (Fmt.to_to_string Wire.pp (Wire.Host f))

(* One decode pass over the frames buffered from the shard.  [Delta]s
   take the raw fast path; anything else is decoded and — when [stop]
   is given — offered to it first: a [Some] verdict ends the pass (the
   reply of a control exchange), a [None] routes the frame as ordinary
   traffic. *)
let drain_shard_frames (t : t) (sh : shard) ?stop () =
  let result = ref None in
  let raw data (r : Wire.raw) =
    r.Wire.r_tag = 0x82
    && begin
         route_raw_delta t sh data r;
         true
       end
  in
  let decoded = function
    | Wire.Client _ -> fatal "shard %s: client-tagged frame" sh.endpoint
    | Wire.Host f ->
        (match Option.bind stop (fun matcher -> matcher f) with
        | Some v -> result := Some v
        | None -> route_shard_frame t sh f);
        !result = None
  in
  (match Conn.frames ~raw sh.conn decoded with
  | Some m -> fatal "shard %s: corrupt stream: %s" sh.endpoint m
  | None -> ());
  !result

(* Synchronous control exchange: send [req], then pump frames off this
   shard — routing unrelated traffic — until [matcher] recognises the
   reply.  The matcher must return [None] for backpressure [Error]s
   (they can interleave) and [Some] for its reply, including error
   replies; [Delta]s never reach it (raw fast path). *)
let rpc (t : t) (sh : shard) (req : Wire.client_frame)
    (matcher : Wire.host_frame -> 'a option) : 'a =
  t.d_frames_out <- t.d_frames_out + 1;
  shard_io sh (fun () ->
      Conn.rpc ~pump:t.pump sh.conn (Wire.Client req) (fun () ->
          drain_shard_frames t sh ~stop:matcher ()))

(* Fleet-wide sweep: the same request to {e every} shard up front, then
   gather the replies — the sweep costs one round-trip wall-clock
   instead of one per shard, which is what makes fleet observation
   scale when the shards are real processes answering in parallel. *)
let broadcast_rpc (t : t) (req : Wire.client_frame)
    (matcher : shard -> Wire.host_frame -> 'a option) : 'a array =
  Array.iter
    (fun sh ->
      send_shard t sh req;
      shard_io sh (fun () -> Conn.push ~pump:t.pump sh.conn))
    t.shards;
  Array.map
    (fun sh ->
      shard_io sh (fun () ->
          Conn.await ~pump:t.pump [ sh.conn ] (fun () ->
              drain_shard_frames t sh ~stop:(matcher sh) ())))
    t.shards

(* ------------------------------------------------------------------ *)
(* Fleet-wide observation                                              *)
(* ------------------------------------------------------------------ *)

(* Every resident session's canonical observation, tagged with its
   global id, ascending.  One broadcast sweep: all shards observe
   concurrently. *)
let observe_fleet (t : t) : (int * string) list =
  let per_shard =
    broadcast_rpc t Wire.Observe (fun sh -> function
      | Wire.Observed { sessions } -> Some sessions
      | Wire.Error { code; msg } ->
          fatal "shard %s: observe: error %d: %s" sh.endpoint code msg
      | _ -> None)
  in
  let all =
    Array.to_list
      (Array.mapi
         (fun i sessions ->
           let sh = t.shards.(i) in
           List.map
             (fun (local, obs) ->
               match Hashtbl.find_opt sh.locals local with
               | Some g -> (g, obs)
               | None ->
                   fatal "shard %s: unknown local session %d" sh.endpoint local)
             sessions)
         per_shard)
    |> List.concat
  in
  List.sort (fun (a, _) (b, _) -> compare a b) all

(* Byte-compatible with {!Live_host.Registry.digest}: same per-session
   header, same id order (global ids are dense and spawn-ordered, like
   a single registry's). *)
let digest_of_observations (obs : (int * string) list) : string =
  let b = Buffer.create 4096 in
  List.iter
    (fun (g, o) ->
      Buffer.add_string b (Printf.sprintf "== session %d ==\n" g);
      Buffer.add_string b o)
    obs;
  Digest.to_hex (Digest.string (Buffer.contents b))

let fleet_digest (t : t) : string = digest_of_observations (observe_fleet t)

let shard_exports (t : t) : Host_metrics.exported list =
  broadcast_rpc t Wire.Stats_data (fun sh -> function
    | Wire.Metrics { text } -> (
        match Host_metrics.import text with
        | Ok x -> Some x
        | Error m -> fatal "shard %s: bad metrics export: %s" sh.endpoint m)
    | Wire.Error { code; msg } ->
        fatal "shard %s: stats: error %d: %s" sh.endpoint code msg
    | _ -> None)
  |> Array.to_list

(* The exact union of the shard exports, re-exported in the same
   format — raw counters and buckets, not precomputed quantiles. *)
let merged_export (exports : Host_metrics.exported list) : string =
  let m =
    Host_metrics.merge_all
      (List.map (fun x -> x.Host_metrics.x_metrics) exports)
  in
  let sessions =
    List.fold_left (fun acc x -> acc + x.Host_metrics.x_sessions) 0 exports
  in
  let pending =
    List.fold_left (fun acc x -> acc + x.Host_metrics.x_pending) 0 exports
  in
  let cache =
    if List.for_all (fun x -> x.Host_metrics.x_cache = None) exports then None
    else
      Some
        (List.fold_left
           (fun (h, ms) x ->
             let xh, xm = Option.value x.Host_metrics.x_cache ~default:(0, 0) in
             (h + xh, ms + xm))
           (0, 0) exports)
  in
  Host_metrics.export m ~sessions ~pending ~cache

(* ------------------------------------------------------------------ *)
(* Two-phase UPDATE                                                    *)
(* ------------------------------------------------------------------ *)

let ack_or_error (what : string) (sh : shard) : Wire.host_frame -> (string, string) result option
    = function
  | Wire.Ack { info } -> Some (Ok info)
  | Wire.Error { code = 6; msg } -> Some (Error msg)
  | Wire.Error { code; msg } ->
      fatal "shard %s: %s: error %d: %s" sh.endpoint what code msg
  | _ -> None

(* Prepare on every shard; if any refuses, abort the ones already
   prepared and report failure — all-or-nothing.  Otherwise commit
   everywhere.  No client frame is read while this runs, so the fleet
   is never observably mixed-epoch. *)
let update (t : t) (program : string) : (string, string) result =
  let txn = t.next_txn in
  t.next_txn <- txn + 1;
  let prepared = ref [] in
  let failure = ref None in
  Array.iter
    (fun sh ->
      if !failure = None then
        match rpc t sh (Wire.Prepare { txn; program }) (ack_or_error "prepare" sh) with
        | Ok _ -> prepared := sh :: !prepared
        | Error m -> failure := Some (sh.endpoint, m))
    t.shards;
  match !failure with
  | Some (ep, m) ->
      List.iter
        (fun sh ->
          match rpc t sh (Wire.Abort { txn }) (ack_or_error "abort" sh) with
          | Ok _ -> ()
          | Error m -> fatal "shard %s: abort refused: %s" sh.endpoint m)
        !prepared;
      t.d_updates_rejected <- t.d_updates_rejected + 1;
      Error (Printf.sprintf "prepare failed on %s: %s (fleet unchanged)" ep m)
  | None ->
      Array.iter
        (fun sh ->
          match rpc t sh (Wire.Commit { txn }) (ack_or_error "commit" sh) with
          | Ok _ -> ()
          | Error m ->
              (* a commit refusal after every shard prepared breaks the
                 protocol's promise; there is no good recovery *)
              fatal "shard %s: commit refused: %s" sh.endpoint m)
        t.shards;
      t.d_updates <- t.d_updates + 1;
      Ok
        (Printf.sprintf "txn %d committed on %d shards" txn
           (Array.length t.shards))

(* ------------------------------------------------------------------ *)
(* Live rebalance                                                      *)
(* ------------------------------------------------------------------ *)

let shard_load (t : t) : int array =
  Array.map (fun sh -> Hashtbl.length sh.locals) t.shards

(* Move one session: the lowest global id on the fullest shard goes to
   the emptiest, via detach -> snapshot -> resume.  The global id is
   unchanged; only the placement entry moves.  Returns whether the
   migrated snapshot carried pending events (in which case the fleet
   was not quiescent and the digest check downgrades to advisory). *)
let move_one (t : t) ~(src : shard) ~(dst : shard) : bool =
  let g, local =
    Hashtbl.fold
      (fun local g acc ->
        match acc with
        | Some (g0, _) when g0 <= g -> acc
        | _ -> Some (g, local))
      src.locals None
    |> function
    | Some x -> x
    | None -> fatal "rebalance: shard %s is empty" src.endpoint
  in
  let snapshot =
    rpc t src (Wire.Detach { session = local }) (function
      | Wire.Detached { session; snapshot } when session = local ->
          Some snapshot
      | Wire.Error { code; msg } ->
          fatal "shard %s: detach %d: error %d: %s" src.endpoint local code msg
      | _ -> None)
  in
  Hashtbl.remove src.locals local;
  let carried_pending =
    match Snapshot.of_string snapshot with
    | Ok snap -> snap.Snapshot.pending <> []
    | Error m -> fatal "rebalance: bad snapshot for %d: %s" g m
  in
  let new_local =
    rpc t dst (Wire.Resume { snapshot }) (function
      | Wire.Attach { session; width = _; frame = _ } -> Some session
      | Wire.Error { code; msg } ->
          fatal "shard %s: resume %d: error %d: %s" dst.endpoint g code msg
      | _ -> None)
  in
  Hashtbl.replace dst.locals new_local g;
  (match Hashtbl.find_opt t.sessions g with
  | Some p ->
      p.p_shard <- dst.sx;
      p.p_local <- new_local
  | None -> fatal "rebalance: no placement for %d" g);
  t.d_moved <- t.d_moved + 1;
  carried_pending

let rebalance (t : t) (count : int) : (string, string) result =
  t.d_rebalances <- t.d_rebalances + 1;
  if Array.length t.shards < 2 then Ok "moved 0 sessions (single shard)"
  else begin
    let before = observe_fleet t in
    let exports = shard_exports t in
    let quiescent =
      List.for_all (fun x -> x.Host_metrics.x_pending = 0) exports
    in
    let moved = ref 0 in
    let carried = ref false in
    (try
       for _ = 1 to count do
         let load = shard_load t in
         let argbest cmp =
           let best = ref 0 in
           Array.iteri (fun i _ -> if cmp load.(i) load.(!best) then best := i)
             load;
           !best
         in
         let src = argbest ( > ) and dst = argbest ( < ) in
         if src <> dst && load.(src) > 0 then begin
           if move_one t ~src:t.shards.(src) ~dst:t.shards.(dst) then
             carried := true;
           incr moved
         end
         else raise Exit
       done
     with Exit -> ());
    let after = observe_fleet t in
    let strict = quiescent && not !carried in
    let db = digest_of_observations before
    and da = digest_of_observations after in
    if strict then begin
      t.d_digest_checks <- t.d_digest_checks + 1;
      if not (String.equal db da) then begin
        t.d_digest_failures <- t.d_digest_failures + 1;
        Error
          (Printf.sprintf "digest mismatch after rebalance: %s -> %s" db da)
      end
      else
        Ok
          (Printf.sprintf "moved %d sessions, digest %s held" !moved da)
    end
    else
      Ok
        (Printf.sprintf
           "moved %d sessions (fleet not quiescent; digest advisory %s -> %s)"
           !moved db da)
  end

(* ------------------------------------------------------------------ *)
(* Aggregated stats                                                    *)
(* ------------------------------------------------------------------ *)

let aggregated_metrics (t : t) : string =
  let exports = shard_exports t in
  let merged = Host_metrics.merge_exported exports in
  let b = Buffer.create 1024 in
  Buffer.add_string b (Host_metrics.to_string merged);
  Buffer.add_string b
    (Printf.sprintf "director: %d shards, %d sessions\n"
       (Array.length t.shards) (Hashtbl.length t.sessions));
  Array.iter
    (fun sh ->
      Buffer.add_string b
        (Printf.sprintf "  shard %-24s %6d sessions\n" sh.endpoint
           (Hashtbl.length sh.locals)))
    t.shards;
  Buffer.add_string b
    (Printf.sprintf
       "  updates: %d committed, %d rejected; rebalance: %d runs, %d moved\n"
       t.d_updates t.d_updates_rejected t.d_rebalances t.d_moved);
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Client frame handling                                               *)
(* ------------------------------------------------------------------ *)

let spawn_one (t : t) (c : Conn.t) (client : string) : unit =
  let g = t.next_global in
  let sh = t.shards.(place t g) in
  let reply =
    rpc t sh (Wire.Hello { client; sessions = 1 }) (function
      | Wire.Attach { session; width; frame } -> Some (Ok (session, width, frame))
      | Wire.Error { code = (3 | 4 | 5) as code; msg } -> Some (Error (code, msg))
      | _ -> None)
  in
  match reply with
  | Error (code, msg) -> error t c code msg
  | Ok (local, width, frame) ->
      t.next_global <- g + 1;
      Hashtbl.replace sh.locals local g;
      Hashtbl.replace t.sessions g
        { p_shard = sh.sx; p_local = local; p_owner = Some (Conn.fd c) };
      send_client t c (Wire.Host (Wire.Attach { session = g; width; frame }))

let handle_client_frame (t : t) (c : Conn.t) (f : Wire.client_frame) : unit =
  match f with
  | Wire.Hello { client; sessions } ->
      if sessions < 1 then violation t c "Hello: sessions must be >= 1"
      else
        for _ = 1 to sessions do
          spawn_one t c client
        done
  | Wire.Event _ ->
      (* {!try_fast_event} takes every Event the decoder accepts
         ({!Wire.event_payload_ok} agrees with {!Wire.decode}) *)
      assert false
  | Wire.Detach { session = g } -> (
      match Hashtbl.find_opt t.sessions g with
      | Some p when p.p_owner = Some (Conn.fd c) ->
          let sh = t.shards.(p.p_shard) in
          let snapshot =
            rpc t sh (Wire.Detach { session = p.p_local }) (function
              | Wire.Detached { session; snapshot } when session = p.p_local ->
                  Some snapshot
              | Wire.Error { code; msg } ->
                  fatal "shard %s: detach: error %d: %s" sh.endpoint code msg
              | _ -> None)
          in
          Hashtbl.remove sh.locals p.p_local;
          Hashtbl.remove t.sessions g;
          send_client t c (Wire.Host (Wire.Detached { session = g; snapshot }))
      | _ -> error t c 5 (string_of_int g))
  | Wire.Resume { snapshot } -> (
      let g = t.next_global in
      let sh = t.shards.(place t g) in
      let reply =
        rpc t sh (Wire.Resume { snapshot }) (function
          | Wire.Attach { session; width; frame } ->
              Some (Ok (session, width, frame))
          | Wire.Error { code = (3 | 4) as code; msg } -> Some (Error (code, msg))
          | _ -> None)
      in
      match reply with
      | Error (code, msg) -> error t c code msg
      | Ok (local, width, frame) ->
          t.next_global <- g + 1;
          Hashtbl.replace sh.locals local g;
          Hashtbl.replace t.sessions g
            { p_shard = sh.sx; p_local = local; p_owner = Some (Conn.fd c) };
          send_client t c
            (Wire.Host (Wire.Attach { session = g; width; frame })))
  | Wire.Stats ->
      send_client t c (Wire.Host (Wire.Metrics { text = aggregated_metrics t }))
  | Wire.Stats_data ->
      (* machine-readable aggregate: re-export the merged raw counters,
         so a director composes (a director of directors merges the
         same way a director of shards does) *)
      send_client t c
        (Wire.Host (Wire.Metrics { text = merged_export (shard_exports t) }))
  | Wire.Update { program } -> (
      match update t program with
      | Ok info -> send_client t c (Wire.Host (Wire.Ack { info }))
      | Error msg -> error t c 6 msg)
  | Wire.Rebalance { count } ->
      if count < 0 then violation t c "Rebalance: negative count"
      else (
        match rebalance t count with
        | Ok info -> send_client t c (Wire.Host (Wire.Ack { info }))
        | Error msg -> error t c 6 msg)
  | Wire.Observe ->
      send_client t c (Wire.Host (Wire.Observed { sessions = observe_fleet t }))
  | Wire.Prepare _ | Wire.Commit _ | Wire.Abort _ ->
      violation t c "shard transaction frame at the director"
  | Wire.Bye ->
      disown t c;
      Conn.close_after_flush c

(* ------------------------------------------------------------------ *)
(* The select loop                                                     *)
(* ------------------------------------------------------------------ *)

(* A client [Event] whose bytes validate completely takes the raw fast
   path: relayed into the owning shard's staging buffer with only the
   session id rewritten global → local, never decoded.  Returns whether
   it took the frame.  Anything else — other tags, an event that fails
   byte validation (the decoder will call it Corrupt) — declines into
   the decode path, so no unvalidated client byte ever reaches a shard
   stream. *)
let try_fast_event (t : t) (c : Conn.t) (data : string) (r : Wire.raw) : bool =
  r.Wire.r_tag = 0x02
  && Wire.event_payload_ok data r
  && begin
       t.d_frames_in <- t.d_frames_in + 1;
       (match Hashtbl.find_opt t.sessions r.Wire.r_session with
       | Some p when p.p_owner = Some (Conn.fd c) ->
           let sh = t.shards.(p.p_shard) in
           Conn.relay sh.conn data r ~session:p.p_local;
           t.d_frames_out <- t.d_frames_out + 1
       | _ -> error t c 5 (string_of_int r.Wire.r_session));
       true
     end

let drain_client (t : t) (c : Conn.t) : unit =
  let decoded = function
    | Wire.Client f ->
        t.d_frames_in <- t.d_frames_in + 1;
        handle_client_frame t c f;
        true
    | Wire.Host _ ->
        violation t c "host-tagged frame from a client";
        true
  in
  match Conn.frames ~raw:(try_fast_event t c) c decoded with
  | Some m -> violation t c m
  | None -> ()

let step ?(timeout = 0.05) (t : t) : bool =
  if t.stopped then false
  else begin
    let peers =
      Hashtbl.fold
        (fun _ c acc -> c :: acc)
        t.conns
        (Array.to_list (Array.map (fun sh -> sh.conn) t.shards))
    in
    let incoming, readable = Conn.select ~listener:t.listener peers timeout in
    let worked = ref false in
    if incoming then
      List.iter
        (fun c ->
          Hashtbl.replace t.conns (Conn.fd c) c;
          t.d_accepted <- t.d_accepted + 1;
          worked := true)
        (Conn.accept t.listener);
    (* shard traffic first: deltas route into client staging buffers.
       The drain runs whether or not the socket is readable — an rpc
       may have left complete frames (repaint deltas that rode in
       behind its reply) sitting in the buffer with nothing new on the
       wire. *)
    Array.iter
      (fun sh ->
        if List.mem (Conn.fd sh.conn) readable then
          shard_io sh (fun () -> Conn.read sh.conn);
        if Conn.buffered sh.conn then begin
          worked := true;
          ignore (drain_shard_frames t sh ())
        end)
      t.shards;
    (* client frames, which may fan control exchanges out to shards *)
    List.iter
      (fun fd ->
        match Hashtbl.find_opt t.conns fd with
        | None -> ()
        | Some c -> (
            worked := true;
            match Conn.read c with
            | () -> drain_client t c
            | exception Conn.Failed _ -> drop_conn t c))
      readable;
    (* egress both ways *)
    Array.iter (fun sh -> shard_io sh (fun () -> Conn.flush sh.conn)) t.shards;
    Hashtbl.fold (fun _ c dead -> if Conn.flush_live c then dead else c :: dead)
      t.conns []
    |> List.iter (drop_conn t);
    !worked
  end

let run ~(until : unit -> bool) (t : t) : unit =
  while not (until ()) && not t.stopped do
    ignore (step t)
  done

type stats = {
  shards : int;
  sessions : int;
  per_shard : (string * int) list;
  accepted : int;
  frames_in : int;
  frames_out : int;
  updates_committed : int;
  updates_rejected : int;
  rebalances : int;
  sessions_moved : int;
  digest_checks : int;
  digest_failures : int;
  corrupt : int;
}

let stats (t : t) : stats =
  {
    shards = Array.length t.shards;
    sessions = Hashtbl.length t.sessions;
    per_shard =
      Array.to_list t.shards
      |> List.map (fun sh -> (sh.endpoint, Hashtbl.length sh.locals));
    accepted = t.d_accepted;
    frames_in = t.d_frames_in;
    frames_out = t.d_frames_out;
    updates_committed = t.d_updates;
    updates_rejected = t.d_updates_rejected;
    rebalances = t.d_rebalances;
    sessions_moved = t.d_moved;
    digest_checks = t.d_digest_checks;
    digest_failures = t.d_digest_failures;
    corrupt = t.d_corrupt;
  }

let stop (t : t) : unit =
  if not t.stopped then begin
    t.stopped <- true;
    Array.iter (fun sh -> Conn.close sh.conn) t.shards;
    Hashtbl.iter (fun _ c -> Conn.close c) t.conns;
    Hashtbl.reset t.conns;
    Conn.close_listener t.listener
  end
