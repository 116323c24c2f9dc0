(** The session fleet (see the interface).  Sessions live in a hash
    table keyed by dense ids; spawn order is kept separately because
    the scheduler's round-robin ring and the broadcast fan-out must
    both be deterministic, and so is the set of sessions with pending
    input, so a tick finds them without walking the fleet. *)

module Session = Live_runtime.Session
module Machine = Live_core.Machine

type id = int

type uevent = Tap of { x : int; y : int } | Back

let pp_uevent ppf = function
  | Tap { x; y } -> Fmt.pf ppf "tap(%d,%d)" x y
  | Back -> Fmt.string ppf "back"

type config = {
  width : int;
  fuel : int option;
  cache : bool;
  evaluator : Machine.evaluator;
      (** expression engine for every session; [Compiled] shares one
          compilation fleet-wide (see {!Live_core.Compile_eval}) *)
  queue_capacity : int;
  queue_policy : Backpressure.policy;
  admission_limit : int option;
}

let default_config =
  {
    width = 48;
    fuel = None;
    cache = false;
    evaluator = Machine.Compiled;
    queue_capacity = 64;
    queue_policy = Backpressure.Drop_oldest;
    admission_limit = None;
  }

type entry = {
  session : Session.t;
  ingress : uevent Backpressure.t;
  (* per-session ingress ledger, for cohort-level accounting during
     staged rollouts: e_in = e_taken + e_dropped + e_rejected + queued *)
  mutable e_in : int;
  mutable e_taken : int;
  mutable e_dropped : int;
  mutable e_rejected : int;
  mutable e_ready : bool;  (** listed in [t.ready] *)
}

(** A code epoch: one program and everything derived from it once for
    all the sessions running it. *)
type epoch = {
  eid : int;
  eprogram : Live_core.Program.t;
  compiled : Live_core.Compile_eval.t option;
      (** its compilation, under [Compiled]; holding it keeps it (and
          the site ids its render entries are keyed by) alive *)
  tables : Live_core.Render_cache.tables option;
      (** the subtree tables of every session on it, with [cache] *)
}

type t = {
  cfg : config;
  mutable program_checked : bool;
      (** whether the installed program is known to satisfy [C |- C]
          — true once a broadcast's typecheck accepted it; the boot
          program is not checked ({!Live_core.Machine.boot} does not run
          {!Live_core.Machine.check_program}), so this starts false and
          incremental typechecking falls back to scratch on the first
          broadcast. *)
  entries : (id, entry) Hashtbl.t;
  mutable order : id array;
      (** spawn order, oldest first, in [order.(0 .. size - 1)]; ids
          rise with spawn order, so this is ascending *)
  mutable ready : id list;
      (** every id with pending input, each once (its [e_ready] flag),
          plus ids emptied or killed since the last {!ready} pruned *)
  mutable next_id : id;
  mutable epochs : epoch list;
      (** live epochs, newest first.  One entry in steady state, the
          installed one; two while a rollout is open (target, then the
          installed base).  Epoch ids rise by one per committed
          transaction. *)
  pending_total : int Atomic.t;
      (** cached sum of ingress lengths, incremented by [offer] and
          decremented by [take].  Atomic so the count stays exact even
          if [offer] and [take] ever run on different domains; the
          rest of the registry is written only by the domain that
          offers and ticks. *)
  metrics : Host_metrics.t;
}

(* An epoch's compilation and tables: derived from its parent's when
   the edit transaction hands down a diff (only the dirty definitions
   are recompiled, and only their entries dropped), from scratch
   otherwise. *)
let make_epoch (cfg : config) ?(base : epoch option)
    ?(diff : Live_core.Program_diff.t option) (eid : int)
    (program : Live_core.Program.t) : epoch =
  let compiled =
    match cfg.evaluator with
    | Machine.Subst -> None
    | Machine.Compiled ->
        Some
          (match (diff, base) with
          | Some d, Some { compiled = Some ct; _ } ->
              Live_core.Compile_eval.derive ~diff:d ct program
          | _ -> Live_core.Compile_eval.get program)
  in
  let tables =
    if not cfg.cache then None
    else
      Some
        (match (diff, base) with
        | Some d, Some { tables = Some bt; _ } ->
            let keep_csite =
              match compiled with
              | Some ct -> Live_core.Compile_eval.site_live ct
              | None -> fun _ -> true (* no compiled entries exist *)
            in
            Live_core.Render_cache.retarget_tables bt ~diff:d ~keep_csite
              program
        | _ -> Live_core.Render_cache.create_tables program)
  in
  { eid; eprogram = program; compiled; tables }

let create ?(config = default_config) (program : Live_core.Program.t) : t =
  {
    cfg = config;
    program_checked = false;
    entries = Hashtbl.create 64;
    order = [||];
    ready = [];
    next_id = 0;
    epochs = [ make_epoch config 0 program ];
    pending_total = Atomic.make 0;
    metrics = Host_metrics.create ();
  }

let installed (t : t) : epoch =
  match t.epochs with [ e ] | [ _; e ] -> e | _ -> assert false

let rollout_open (t : t) : bool = List.compare_length_with t.epochs 1 > 0

let pin (e : epoch) (s : Session.t) : unit = Session.pin s ~epoch:e.eid e.tables

(* Enroll a stable session under a fresh id, pinned to the current
   epoch; the append to [order] is amortised O(1). *)
let insert (t : t) (session : Session.t) : id =
  let id = t.next_id in
  t.next_id <- id + 1;
  pin (installed t) session;
  let n = Hashtbl.length t.entries in
  if n = Array.length t.order then begin
    let grown = Array.make (max 16 (2 * n)) 0 in
    Array.blit t.order 0 grown 0 n;
    t.order <- grown
  end;
  t.order.(n) <- id;
  Hashtbl.replace t.entries id
    {
      session;
      ingress =
        Backpressure.create ~capacity:t.cfg.queue_capacity
          ~policy:t.cfg.queue_policy;
      e_in = 0;
      e_taken = 0;
      e_dropped = 0;
      e_rejected = 0;
      e_ready = false;
    };
  t.metrics.Host_metrics.sessions_spawned <-
    t.metrics.Host_metrics.sessions_spawned + 1;
  id

let spawn (t : t) : (id, Machine.error) result =
  Result.map (insert t)
    (Session.create ~width:t.cfg.width ?fuel:t.cfg.fuel ~cache:t.cfg.cache
       ?tables:(installed t).tables ~evaluator:t.cfg.evaluator
       (installed t).eprogram)

let adopt (t : t) (session : Session.t) : id =
  if rollout_open t then
    invalid_arg "Registry.adopt: an edit transaction is open";
  insert t session

let spawn_many (t : t) (n : int) : (id list, Machine.error) result =
  let rec go k acc =
    if k <= 0 then Ok (List.rev acc)
    else match spawn t with Error e -> Error e | Ok id -> go (k - 1) (id :: acc)
  in
  go n []

let kill (t : t) (id : id) : bool =
  match Hashtbl.find_opt t.entries id with
  | None -> false
  | Some e ->
      let orphaned = Backpressure.clear e.ingress in
      ignore (Atomic.fetch_and_add t.pending_total (-orphaned));
      t.metrics.Host_metrics.events_dropped <-
        t.metrics.Host_metrics.events_dropped + orphaned;
      t.metrics.Host_metrics.sessions_killed <-
        t.metrics.Host_metrics.sessions_killed + 1;
      let n = Hashtbl.length t.entries in
      Hashtbl.remove t.entries id;
      let j = ref 0 in
      for i = 0 to n - 1 do
        if t.order.(i) <> id then begin
          t.order.(!j) <- t.order.(i);
          incr j
        end
      done;
      true

let session (t : t) (id : id) : Session.t option =
  Option.map (fun e -> e.session) (Hashtbl.find_opt t.entries id)

let size (t : t) : int = Hashtbl.length t.entries

let ids (t : t) : id list =
  let order = t.order in
  List.init (size t) (fun i -> order.(i))

let id_at (t : t) (k : int) : id =
  if k < 0 || k >= size t then invalid_arg "Registry.id_at";
  t.order.(k)

let program (t : t) = (installed t).eprogram
let program_checked (t : t) = t.program_checked
let config (t : t) = t.cfg
let metrics (t : t) = t.metrics

let repin_all (t : t) (e : epoch) : unit =
  Hashtbl.iter (fun _ entry -> pin e entry.session) t.entries

(* ------------------------------------------------------------------ *)
(* Code epochs (edit transactions)                                     *)
(* ------------------------------------------------------------------ *)

let current_epoch (t : t) : int = (installed t).eid
let live_epochs (t : t) : (int * Live_core.Program.t) list =
  List.map (fun e -> (e.eid, e.eprogram)) t.epochs

let find_epoch (t : t) (eid : int) : epoch option =
  List.find_opt (fun e -> e.eid = eid) t.epochs

let session_epoch (t : t) (id : id) : int option =
  Option.map (fun e -> Session.epoch e.session) (Hashtbl.find_opt t.entries id)

let pin_session (t : t) (id : id) (epoch : int) : unit =
  match Hashtbl.find_opt t.entries id with
  | None -> ()
  | Some entry -> (
      match find_epoch t epoch with
      | None -> invalid_arg "Registry.pin_session: epoch not live"
      | Some e -> pin e entry.session)

(** Open a rollout: register [target] as a second live epoch, compiled
    and with its subtree tables built — from the installed epoch's,
    scoped by [diff], when the transaction has one.  The installed
    program, [current_epoch] and every session pin are untouched —
    migrating sessions is {!Live_host.Broadcast}'s job. *)
let open_rollout ?diff (t : t) (target : Live_core.Program.t) : int =
  if rollout_open t then
    invalid_arg "Registry.open_rollout: a rollout is already open";
  let base = installed t in
  let eid = base.eid + 1 in
  t.epochs <- [ make_epoch t.cfg ~base ?diff eid target; base ];
  eid

(** Close the open rollout by installing its target epoch fleet-wide —
    the only way a program is installed: the target becomes the
    program new sessions boot (typechecked when the transaction was
    prepared), the base epoch is retired, and every session is pinned
    to the new epoch — the caller has already migrated their states. *)
let promote_rollout (t : t) : unit =
  match t.epochs with
  | [ target; _ ] ->
      t.program_checked <- true;
      t.epochs <- [ target ];
      repin_all t target
  | _ -> invalid_arg "Registry.promote_rollout: no rollout open"

(** Close the open rollout by retiring its target epoch: the base
    epoch stays installed and every session is pinned back to it — the
    caller has already rewound the canaries. *)
let rollback_rollout (t : t) : unit =
  match t.epochs with
  | [ _; base ] ->
      t.epochs <- [ base ];
      repin_all t base
  | _ -> invalid_arg "Registry.rollback_rollout: no rollout open"

(** Epoch consistency, fleet-wide: every session's pin names a live
    epoch, and its state's code is physically that epoch's program —
    "interleaved traffic never crosses epochs" is checkable at any
    quiescent point. *)
let check_epochs (t : t) : (id * string) list =
  List.filter_map
    (fun id ->
      match Hashtbl.find_opt t.entries id with
      | None -> None
      | Some e -> (
          let pin = Session.epoch e.session in
          match find_epoch t pin with
          | None -> Some (id, Printf.sprintf "pinned to dead epoch %d" pin)
          | Some ep ->
              if (Session.state e.session).Live_core.State.code == ep.eprogram
              then None
              else
                Some
                  ( id,
                    Printf.sprintf "code is not epoch %d's program" pin )))
    (ids t)

(* ------------------------------------------------------------------ *)
(* Ingress                                                             *)
(* ------------------------------------------------------------------ *)

let offer (t : t) (id : id) (ev : uevent) : Backpressure.outcome =
  let m = t.metrics in
  m.Host_metrics.events_in <- m.Host_metrics.events_in + 1;
  let admission_full =
    match t.cfg.admission_limit with
    | Some limit -> Atomic.get t.pending_total >= limit
    | None -> false
  in
  match Hashtbl.find_opt t.entries id with
  | None ->
      m.Host_metrics.events_rejected <- m.Host_metrics.events_rejected + 1;
      Backpressure.Rejected
  | Some e when admission_full ->
      e.e_in <- e.e_in + 1;
      e.e_rejected <- e.e_rejected + 1;
      m.Host_metrics.events_rejected <- m.Host_metrics.events_rejected + 1;
      Backpressure.Rejected
  | Some e -> (
      e.e_in <- e.e_in + 1;
      match Backpressure.offer e.ingress ev with
      | Backpressure.Accepted ->
          ignore (Atomic.fetch_and_add t.pending_total 1);
          if not e.e_ready then begin
            e.e_ready <- true;
            t.ready <- id :: t.ready
          end;
          Backpressure.Accepted
      | Backpressure.Dropped_oldest ->
          (* one in, one out: total pending unchanged *)
          e.e_dropped <- e.e_dropped + 1;
          m.Host_metrics.events_dropped <- m.Host_metrics.events_dropped + 1;
          Backpressure.Dropped_oldest
      | Backpressure.Rejected ->
          e.e_rejected <- e.e_rejected + 1;
          m.Host_metrics.events_rejected <- m.Host_metrics.events_rejected + 1;
          Backpressure.Rejected)

let pending (t : t) (id : id) : int =
  match Hashtbl.find_opt t.entries id with
  | None -> 0
  | Some e -> Backpressure.length e.ingress

let total_pending (t : t) : int = Atomic.get t.pending_total

let take (t : t) (id : id) : uevent option =
  match Hashtbl.find_opt t.entries id with
  | None -> None
  | Some e -> (
      match Backpressure.take e.ingress with
      | None -> None
      | Some ev ->
          e.e_taken <- e.e_taken + 1;
          ignore (Atomic.fetch_and_add t.pending_total (-1));
          Some ev)

(* Prune lazily: an id leaves the list here, not when [take], [kill] or
   a Detach drain empties its queue, so those need no bookkeeping. *)
let ready (t : t) : id list =
  let live =
    List.filter
      (fun id ->
        match Hashtbl.find_opt t.entries id with
        | None -> false
        | Some e ->
            let pending = not (Backpressure.is_empty e.ingress) in
            if not pending then e.e_ready <- false;
            pending)
      t.ready
  in
  t.ready <- List.sort Int.compare live;
  t.ready

(* ------------------------------------------------------------------ *)
(* Invariants and snapshots                                            *)
(* ------------------------------------------------------------------ *)

(** The oracle's structural invariants, fleet-wide: every session's
    state types under Fig. 11, is stable, and shows a valid display.
    The host adds nothing a single session would not already promise —
    which is exactly the point: render-effect isolation means fleet
    membership cannot corrupt a session. *)
let check_invariants (t : t) : (id * string) list =
  List.filter_map
    (fun id ->
      match Hashtbl.find_opt t.entries id with
      | None -> None
      | Some e -> (
          let st = Session.state e.session in
          match Live_core.State_typing.check_state st with
          | Error m -> Some (id, "ill-typed state: " ^ m)
          | Ok () ->
              if not (Live_core.State.is_stable st) then
                Some (id, "state not stable")
              else if not (Live_core.State.display_valid st) then
                Some (id, "display invalid")
              else None))
    (ids t)

let cache_totals (t : t) : (int * int) option =
  List.fold_left
    (fun acc id ->
      match Hashtbl.find_opt t.entries id with
      | None -> acc
      | Some e -> (
          match Session.render_cache_stats e.session with
          | None -> acc
          | Some s ->
              let h, m = Option.value acc ~default:(0, 0) in
              Some
                ( h + s.Live_core.Render_cache.hits,
                  m + s.Live_core.Render_cache.misses )))
    None (ids t)

let snapshot (t : t) : Host_metrics.snapshot =
  Host_metrics.snapshot t.metrics ~sessions:(size t)
    ~pending:(Atomic.get t.pending_total) ~cache:(cache_totals t)

let export_metrics (t : t) : string =
  Host_metrics.export t.metrics ~sessions:(size t)
    ~pending:(Atomic.get t.pending_total) ~cache:(cache_totals t)

(** Canonical digest of the fleet's observable state — every session's
    store (sorted), page stack and painted pixels, in id order, hashed
    with MD5.  Two fleets that processed the same per-session event
    sequences digest identically whatever the cross-session
    interleaving was ([host_bench --digest] under either [--policy],
    and the round-robin ≡ hottest-first property in
    [test/test_host.ml]). *)
let observe_session (s : Session.t) : string =
  let st = Session.state s in
  let store =
    Live_core.Store.bindings st.Live_core.State.store
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    |> List.map (fun (g, v) ->
           Printf.sprintf "%s = %s" g (Live_core.Pretty.value_to_string v))
    |> String.concat "\n"
  in
  let stack =
    st.Live_core.State.stack
    |> List.map (fun (p, v) ->
           Printf.sprintf "%s(%s)" p (Live_core.Pretty.value_to_string v))
    |> String.concat " ; "
  in
  store ^ "\n--\n" ^ stack ^ "\n--\n" ^ Session.screenshot s

let digest_of (observations : (id * string) list) : string =
  let b = Buffer.create 4096 in
  List.iter
    (fun (id, o) ->
      Buffer.add_string b (Printf.sprintf "== session %d ==\n" id);
      Buffer.add_string b o)
    observations;
  Digest.to_hex (Digest.string (Buffer.contents b))

let digest_ids (t : t) (ids : id list) : string =
  digest_of
    (List.filter_map
       (fun id ->
         Option.map
           (fun e -> (id, observe_session e.session))
           (Hashtbl.find_opt t.entries id))
       ids)

let digest (t : t) : string = digest_ids t (ids t)

(** {!digest} restricted to a cohort.  Iterates {!ids} (not the
    argument), so the same sessions always digest in the same order
    whatever order the cohort list is in. *)
let digest_cohort (t : t) (cohort : id list) : string =
  let member = Hashtbl.create (List.length cohort * 2) in
  List.iter (fun id -> Hashtbl.replace member id ()) cohort;
  digest_ids t (List.filter (Hashtbl.mem member) (ids t))

(* ------------------------------------------------------------------ *)
(* Cohort accounting                                                   *)
(* ------------------------------------------------------------------ *)

type cohort_accounting = {
  ca_in : int;
  ca_taken : int;
  ca_dropped : int;
  ca_rejected : int;
  ca_pending : int;
}

let cohort_accounting (t : t) (cohort : id list) : cohort_accounting =
  List.fold_left
    (fun acc id ->
      match Hashtbl.find_opt t.entries id with
      | None -> acc
      | Some e ->
          {
            ca_in = acc.ca_in + e.e_in;
            ca_taken = acc.ca_taken + e.e_taken;
            ca_dropped = acc.ca_dropped + e.e_dropped;
            ca_rejected = acc.ca_rejected + e.e_rejected;
            ca_pending = acc.ca_pending + Backpressure.length e.ingress;
          })
    { ca_in = 0; ca_taken = 0; ca_dropped = 0; ca_rejected = 0; ca_pending = 0 }
    (List.sort_uniq compare cohort)

let cohort_accounting_ok (a : cohort_accounting) : bool =
  a.ca_in = a.ca_taken + a.ca_dropped + a.ca_rejected + a.ca_pending
