(** The shard director ([lib/net/director]): a directed N-shard fleet
    must be observationally {e identical} to a single-process fleet —

    - {b parity}: the same seeded client trace replayed against a
      2-shard directed fleet and against one [Server] ends with
      byte-identical fleet digests, including a mid-trace fleet-wide
      UPDATE (committed on even seeds; {e refused} atomically on odd
      seeds via an injected prepare failure) and a mid-trace live
      rebalance on the directed side only;
    - {b scatter}: [Hello], [Prepare] and [Commit] reach every shard
      before any shard answers (two fake shards that reply only once
      both hold the request);
    - {b atomicity}: when either shard cannot prepare, two-phase UPDATE
      leaves {e every} shard on the old program, and a subsequent clean
      UPDATE moves every shard to the new one; on one connection the
      Update's Ack splits old-program Deltas from new-program ones; a
      fleet whose boot fails refuses a [Hello] whole;
    - {b rebalance}: sessions migrate between shards under an open
      client connection, the before/after fleet digest holds, and the
      moved sessions keep answering events at their global ids;
    - {b hostile clients and signals}: a protocol violation closes only
      the offending connection, and a SIGALRM storm leaves a directed
      run's digest equal to the single process's. *)

open Helpers
module Wire = Live_net.Wire
module Snapshot = Live_net.Snapshot
module Client = Live_net.Client
module Director = Live_net.Director
module Conn = Live_net.Conn
module Scenario = Live_net.Scenario
module H = Live_host
module Prng = Live_core.Prng

let app version : Live_core.Program.t =
  (Live_workloads.Synthetic.compile_exn
     (Live_workloads.Synthetic.host_app ~rows:4 ~version ()))
    .Live_surface.Compile.core

let prog_str p = Snapshot.program_to_string p

let config =
  { H.Registry.default_config with H.Registry.width = 32; queue_capacity = 16 }

(* ------------------------------------------------------------------ *)
(* An in-process directed fleet                                        *)
(* ------------------------------------------------------------------ *)

let mk_fleet ~n_shards program : Scenario.t =
  Scenario.start ~config (Scenario.Directed n_shards) program

let director f = Option.get (Scenario.director f)
let shard f i = List.nth (Scenario.registries f) i

(* ------------------------------------------------------------------ *)
(* An admin connection to the director                                 *)
(*                                                                     *)
(* Owns no sessions (unless it says Hello), so by default the only     *)
(* frames on this socket are replies to its own requests.              *)
(* ------------------------------------------------------------------ *)

let admin_send ~(pump : unit -> unit) (a : Conn.t) (f : Wire.client_frame) :
    unit =
  Conn.send a (Wire.Client f);
  Conn.push ~pump a

let admin_recv ~(pump : unit -> unit) (a : Conn.t) : Wire.host_frame =
  Conn.await ~pump [ a ] (fun () -> Conn.next a)

let admin_rpc ~pump a f =
  admin_send ~pump a f;
  admin_recv ~pump a

(* A tap on session [g] is answered by a Delta for [g]. *)
let tap_answered ~pump a g =
  admin_send ~pump a
    (Wire.Event { session = g; ev = Wire.Ev_tap { x = 1; y = 1 } });
  let rec await () =
    match admin_recv ~pump a with
    | Wire.Delta { session; _ } when session = g -> ()
    | Wire.Delta _ -> await ()
    | fr ->
        Alcotest.failf "expected Delta for %d, got %s" g
          (Fmt.str "%a" Wire.pp (Wire.Host fr))
  in
  await ()

let expect_ack ~pump a f : string =
  match admin_rpc ~pump a f with
  | Wire.Ack { info } -> info
  | Wire.Error { code; msg } -> Alcotest.failf "error %d: %s" code msg
  | f -> Alcotest.failf "unexpected reply %s" (Fmt.str "%a" Wire.pp (Wire.Host f))

let expect_refusal ~pump a f : string =
  match admin_rpc ~pump a f with
  | Wire.Error { code = 6; msg } -> msg
  | Wire.Ack { info } -> Alcotest.failf "unexpected Ack %S" info
  | f -> Alcotest.failf "unexpected reply %s" (Fmt.str "%a" Wire.pp (Wire.Host f))

(* ------------------------------------------------------------------ *)
(* Parity: directed fleet == single process, on the same trace         *)
(* ------------------------------------------------------------------ *)

let mk_gen seed sessions =
  let rngs =
    Array.init sessions (fun s -> Prng.create (Prng.derive seed s))
  in
  fun ~slot ~round:_ ->
    let rng = rngs.(slot) in
    if Prng.int rng 10 = 0 then Wire.Ev_back
    else Wire.Ev_tap { x = Prng.int rng 32; y = Prng.int rng 7 }

let run_single ~seed ~sessions ~conns ~rounds ~update_round ~do_update :
    string =
  let f = Scenario.start ~config Scenario.Single (app 0) in
  Fun.protect ~finally:(fun () -> Scenario.stop f) @@ fun () ->
  let on_round r =
    if r = update_round && do_update then
      match Scenario.rpc f (Wire.Update { program = prog_str (app 1) }) with
      | Wire.Ack _ -> ()
      | fr ->
          Alcotest.failf "single update: %s"
            (Fmt.str "%a" Wire.pp (Wire.Host fr))
  in
  (match
     Client.run ~socket:(Scenario.socket f) ~conns ~sessions ~rounds
       ~gen:(mk_gen seed sessions) ~detach_every:3 ~on_round
       ~pump:(Scenario.pump f) ()
   with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "single client: %s" m);
  H.Registry.digest (List.hd (Scenario.registries f))

let run_directed ~seed ~n_shards ~sessions ~conns ~rounds ~update_round
    ~fail_update ~rebalance_round : string =
  let f = mk_fleet ~n_shards (app 0) in
  Fun.protect ~finally:(fun () -> Scenario.stop f) @@ fun () ->
  let pump = Scenario.pump f in
  let admin = Conn.connect (Scenario.socket f) in
  Fun.protect ~finally:(fun () -> Conn.close admin) @@ fun () ->
  let on_round r =
    if r = update_round then
      if fail_update then begin
        (* hold shard 1's rollout slot so its Prepare refuses: the
           two-phase must abort shard 0 and leave the fleet untouched *)
        let reg1 = shard f 1 in
        match H.Rollout.begin_ ~seed:991 reg1 (app 2) with
        | Error e ->
            Alcotest.failf "inject: %s" (Live_core.Machine.error_to_string e)
        | Ok inj ->
            let msg =
              expect_refusal ~pump admin
                (Wire.Update { program = prog_str (app 1) })
            in
            Alcotest.(check bool) "refusal names the all-or-nothing" true
              (String.length msg > 0);
            ignore (H.Rollout.rollback inj)
      end
      else
        ignore
          (expect_ack ~pump admin (Wire.Update { program = prog_str (app 1) }))
    else if r = rebalance_round then
      ignore (expect_ack ~pump admin (Wire.Rebalance { count = 2 }))
  in
  (match
     Client.run ~socket:(Scenario.socket f) ~conns ~sessions ~rounds
       ~gen:(mk_gen seed sessions) ~detach_every:3 ~on_round ~pump ()
   with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "directed client: %s" m);
  let st = Director.stats (director f) in
  Alcotest.(check int) "no strict digest failures" 0 st.Director.digest_failures;
  if not fail_update then
    Alcotest.(check int) "update committed" 1 st.Director.updates_committed
  else begin
    Alcotest.(check int) "update rejected" 1 st.Director.updates_rejected;
    Alcotest.(check int) "nothing committed" 0 st.Director.updates_committed
  end;
  Director.fleet_digest (director f)

let prop_director_parity =
  qcheck ~count:5 "directed fleet digests like a single process"
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let sessions = 6 and conns = 2 and rounds = 8 in
      let update_round = 4 and rebalance_round = 6 in
      let fail_update = seed mod 2 = 1 in
      let directed =
        run_directed ~seed ~n_shards:2 ~sessions ~conns ~rounds ~update_round
          ~fail_update ~rebalance_round
      in
      let single =
        run_single ~seed ~sessions ~conns ~rounds ~update_round
          ~do_update:(not fail_update)
      in
      if not (String.equal directed single) then
        QCheck2.Test.fail_reportf
          "seed %d: directed %s <> single %s (update %s)" seed directed single
          (if fail_update then "aborted" else "committed");
      true)

(* ------------------------------------------------------------------ *)
(* The director talks to every shard at once                           *)
(* ------------------------------------------------------------------ *)

(* A fake shard: a listening socket whose requests the test answers
   itself, from the director's pump. *)
type fake = {
  name : string;
  listener : Conn.listener;
  mutable conn : Conn.t option;
  mutable held : Wire.client_frame list;  (** unanswered, oldest first *)
  mutable next_local : int;
}

let kind : Wire.client_frame -> string = function
  | Wire.Hello _ -> "Hello"
  | Wire.Prepare _ -> "Prepare"
  | Wire.Commit _ -> "Commit"
  | f -> Fmt.str "%a" Wire.pp (Wire.Client f)

let answer (fk : fake) (c : Conn.t) (req : Wire.client_frame) : unit =
  (match req with
  | Wire.Hello { sessions; _ } ->
      for _ = 1 to sessions do
        let session = fk.next_local in
        fk.next_local <- session + 1;
        Conn.send c
          (Wire.Host
             (Wire.Attach
                { session; width = 8; frame = Printf.sprintf "%s %d\n" fk.name session }))
      done
  | Wire.Prepare _ | Wire.Commit _ ->
      Conn.send c (Wire.Host (Wire.Ack { info = fk.name ^ " " ^ kind req }))
  | f -> Alcotest.failf "fake %s: unexpected %s" fk.name (kind f));
  Conn.flush c

(* The fakes' pump: take in what the director sent, and answer the
   oldest requests only once both fakes hold one of the same kind.  A
   director that waits on one shard before asking the next never gets
   there; 200 pumps with only one side asked fail the test. *)
let fake_pump (fakes : fake array) : unit -> unit =
  let lopsided = ref 0 in
  fun () ->
    Array.iter
      (fun fk ->
        if fk.conn = None then
          fk.conn <- (match Conn.accept fk.listener with c :: _ -> Some c | [] -> None);
        Option.iter
          (fun c ->
            Conn.read c;
            ignore
              (Conn.frames c (function
                | Wire.Client f ->
                    fk.held <- fk.held @ [ f ];
                    true
                | Wire.Host _ -> Alcotest.failf "fake %s: host-tagged frame" fk.name)))
          fk.conn)
      fakes;
    match Array.map (fun fk -> (fk, fk.held, fk.conn)) fakes with
    | [| (a, ra :: resta, Some ca); (b, rb :: restb, Some cb) |] when kind ra = kind rb ->
        lopsided := 0;
        a.held <- resta;
        b.held <- restb;
        answer a ca ra;
        answer b cb rb
    | [| (a, r :: _, _); (b, [], _) |] | [| (b, [], _); (a, r :: _, _) |] ->
        incr lopsided;
        if !lopsided > 200 then
          Alcotest.failf
            "fake shard %s holds a %s that fake shard %s never received: the \
             director waits on one shard before asking the next"
            a.name (kind r) b.name
    | _ -> ()

(* A director over two fakes, and a client connection to it.  Fixed
   relative socket names: rendezvous placement hashes them, so a Hello
   splits the same way on every run. *)
let with_fakes (f : pump:(unit -> unit) -> Director.t -> Conn.t -> unit) : unit =
  let fakes =
    Array.map
      (fun name ->
        { name; listener = Conn.listen name; conn = None; held = []; next_local = 0 })
      [| "director_fake_0.sock"; "director_fake_1.sock" |]
  in
  let d =
    Director.create ~pump:(fake_pump fakes) ~socket:"director_fake_d.sock"
      ~shards:(Array.to_list (Array.map (fun fk -> fk.name) fakes))
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      Director.stop d;
      Array.iter
        (fun fk ->
          Option.iter Conn.close fk.conn;
          Conn.close_listener fk.listener)
        fakes)
  @@ fun () ->
  let a = Conn.connect "director_fake_d.sock" in
  Fun.protect ~finally:(fun () -> Conn.close a) @@ fun () ->
  f ~pump:(fun () -> ignore (Director.step ~timeout:0. d)) d a

let test_hello_scatters () =
  with_fakes @@ fun ~pump d a ->
  let n = 16 in
  admin_send ~pump a (Wire.Hello { client = "scatter"; sessions = n });
  for g = 0 to n - 1 do
    match admin_recv ~pump a with
    | Wire.Attach { session; _ } -> Alcotest.(check int) "Attach in id order" g session
    | fr -> Alcotest.failf "expected Attach, got %s" (Fmt.str "%a" Wire.pp (Wire.Host fr))
  done;
  let loads = List.map snd (Director.stats d).Director.per_shard in
  Alcotest.(check bool) "both fakes host sessions" true (List.for_all (fun l -> l > 0) loads);
  Alcotest.(check int) "every session placed" n (List.fold_left ( + ) 0 loads)

let test_update_scatters () =
  with_fakes @@ fun ~pump _ a ->
  let info = expect_ack ~pump a (Wire.Update { program = prog_str (app 1) }) in
  Alcotest.(check string) "committed on both" "txn 1 committed on 2 shards" info

(* ------------------------------------------------------------------ *)
(* Two-phase atomicity, deterministically                              *)
(* ------------------------------------------------------------------ *)

(* Shard [refusing] cannot prepare: an injected rollout holds its slot.
   Whichever shard refuses, the other one prepares and is aborted. *)
let test_update_atomicity ~refusing () =
  let f = mk_fleet ~n_shards:2 (app 0) in
  Fun.protect ~finally:(fun () -> Scenario.stop f) @@ fun () ->
  let admin = Conn.connect (Scenario.socket f) in
  Fun.protect ~finally:(fun () -> Conn.close admin) @@ fun () ->
  let pump = Scenario.pump f in
  (* a resident fleet, owned by this connection *)
  admin_send ~pump admin (Wire.Hello { client = "atom"; sessions = 4 });
  for _ = 1 to 4 do
    match admin_recv ~pump admin with
    | Wire.Attach _ -> ()
    | fr -> Alcotest.failf "expected Attach, got %s" (Fmt.str "%a" Wire.pp (Wire.Host fr))
  done;
  let regs = [ shard f 0; shard f 1 ] in
  let v0 = prog_str (app 0) and v1 = prog_str (app 1) in
  let inj =
    match H.Rollout.begin_ ~seed:991 (shard f refusing) (app 2) with
    | Ok r -> r
    | Error e ->
        Alcotest.failf "inject: %s" (Live_core.Machine.error_to_string e)
  in
  let msg =
    expect_refusal ~pump admin (Wire.Update { program = v1 })
  in
  Alcotest.(check bool) "refusal names the refusing shard" true
    (contains msg
       (fst (List.nth (Director.stats (director f)).Director.per_shard refusing)));
  ignore (H.Rollout.rollback inj);
  (* all-or-nothing: the other shard prepared and was aborted; both
     shards are still on the boot program, no rollout left open *)
  List.iteri
    (fun i reg ->
      let name what = Printf.sprintf "shard %d %s" i what in
      Alcotest.(check bool) (name "rollout closed") false (H.Registry.rollout_open reg);
      Alcotest.(check string) (name "on old program") v0 (prog_str (H.Registry.program reg));
      Alcotest.(check int) (name "epoch unchanged") 0 (H.Registry.current_epoch reg))
    regs;
  (* the fleet is not wedged: a clean UPDATE commits everywhere *)
  let info = expect_ack ~pump admin (Wire.Update { program = v1 }) in
  Alcotest.(check bool) "ack names the txn" true
    (String.length info > 0);
  List.iteri
    (fun i reg ->
      Alcotest.(check string) (Printf.sprintf "shard %d on new program" i) v1
        (prog_str (H.Registry.program reg)))
    regs;
  let st = Director.stats (director f) in
  Alcotest.(check int) "one rejected" 1 st.Director.updates_rejected;
  Alcotest.(check int) "one committed" 1 st.Director.updates_committed;
  Alcotest.(check int) "both transactions timed" 2 st.Director.txns;
  Alcotest.(check bool) "2PC p99 >= p50 > 0" true
    (st.Director.txn_p99_ms >= st.Director.txn_p50_ms && st.Director.txn_p50_ms > 0.)

(* A shard's two-phase commit runs the same transaction as a flat
   Update, so it records the same update metrics: one typecheck
   (incremental or scratch), the diff's time, and no staged rollout. *)
let test_update_metrics_per_shard () =
  let f = mk_fleet ~n_shards:2 (app 0) in
  Fun.protect ~finally:(fun () -> Scenario.stop f) @@ fun () ->
  let admin = Conn.connect (Scenario.socket f) in
  Fun.protect ~finally:(fun () -> Conn.close admin) @@ fun () ->
  let pump = Scenario.pump f in
  ignore (expect_ack ~pump admin (Wire.Update { program = prog_str (app 1) }));
  List.iteri
    (fun i reg ->
      let m = H.Registry.metrics reg in
      let name what = Printf.sprintf "shard %d %s" i what in
      Alcotest.(check int) (name "typechecks counted") 1
        (m.H.Host_metrics.broadcasts_incremental
        + m.H.Host_metrics.broadcasts_scratch);
      Alcotest.(check bool) (name "diff timed") true
        (m.H.Host_metrics.diff_last_ns > 0.);
      Alcotest.(check int) (name "no staged rollout") 0
        m.H.Host_metrics.rollouts_begun)
    (Scenario.registries f)

(* One connection owns sessions on both shards and has a tap in flight
   on each when it sends an Update.  As on a single [Server], its
   frames before the Update meet the old program and its frames after
   the Ack the new one: every Delta ahead of the Ack shows the old
   banner, the first Delta behind it the new one, and a later tap is
   answered under the new program. *)
let test_update_orders_one_connection () =
  let f = mk_fleet ~n_shards:2 (app 0) in
  Fun.protect ~finally:(fun () -> Scenario.stop f) @@ fun () ->
  let a = Conn.connect (Scenario.socket f) in
  Fun.protect ~finally:(fun () -> Conn.close a) @@ fun () ->
  let pump = Scenario.pump f in
  let screens = Hashtbl.create 16 in
  (* placement hashes socket paths that embed the pid: spawn until
     both shards hold sessions *)
  let both () =
    List.for_all (fun (_, l) -> l > 0) (Director.stats (director f)).Director.per_shard
  in
  while Hashtbl.length screens < 8 || not (both ()) do
    admin_send ~pump a (Wire.Hello { client = "order"; sessions = 4 });
    for _ = 1 to 4 do
      match admin_recv ~pump a with
      | Wire.Attach { session; frame; _ } ->
          Hashtbl.replace screens session (Wire.rows_of_text frame)
      | fr -> Alcotest.failf "expected Attach, got %s" (Fmt.str "%a" Wire.pp (Wire.Host fr))
    done
  done;
  let n = Hashtbl.length screens in
  let banner g =
    Hashtbl.find screens g |> Array.to_list
    |> List.find_opt (fun r -> contains r "fleet app v")
    |> Option.value ~default:"(no banner)"
  in
  let shows v g = contains (banner g) (Printf.sprintf "fleet app v%d" v) in
  (* tap where session [g]'s first counter row is drawn *)
  let tap g =
    let rows = Hashtbl.find screens g in
    let y = ref 0 in
    Array.iteri (fun i r -> if contains r "row 0" then y := i) rows;
    Conn.send a (Wire.Client (Wire.Event { session = g; ev = Wire.Ev_tap { x = 2; y = !y } }))
  in
  let next_delta () =
    match admin_recv ~pump a with
    | Wire.Delta { session; height; rows; _ } ->
        Hashtbl.replace screens session
          (Wire.apply_delta (Hashtbl.find screens session) ~height ~rows);
        `Delta session
    | Wire.Ack _ -> `Ack
    | fr -> Alcotest.failf "unexpected %s" (Fmt.str "%a" Wire.pp (Wire.Host fr))
  in
  for g = 0 to n - 1 do tap g done;
  Conn.send a (Wire.Client (Wire.Update { program = prog_str (app 1) }));
  Conn.push ~pump a;
  let rec before_ack () =
    match next_delta () with
    | `Delta g ->
        if not (shows 0 g) then
          Alcotest.failf "session %d: a Delta ahead of the Ack shows %S" g (banner g);
        before_ack ()
    | `Ack -> ()
  in
  before_ack ();
  let repainted = Hashtbl.create n in
  while Hashtbl.length repainted < n do
    match next_delta () with
    | `Delta g when not (Hashtbl.mem repainted g) ->
        Hashtbl.add repainted g ();
        if not (shows 1 g) then
          Alcotest.failf "session %d: the first Delta behind the Ack shows %S" g (banner g)
    | `Delta _ -> ()
    | `Ack -> Alcotest.fail "a second Ack"
  done;
  for g = 0 to n - 1 do
    let taps_row () = Array.to_list (Hashtbl.find screens g) |> List.find (fun r -> contains r "taps ") in
    let before = taps_row () in
    tap g;
    Conn.push ~pump a;
    (match next_delta () with
    | `Delta g' -> Alcotest.(check int) "the tap's Delta" g g'
    | `Ack -> Alcotest.fail "an Ack for a tap");
    Alcotest.(check bool) (Printf.sprintf "session %d: tap applied" g) true (taps_row () <> before);
    Alcotest.(check bool) (Printf.sprintf "session %d: new program" g) true (shows 1 g)
  done

(* Every shard refuses to boot a session (one step of fuel): a Hello
   for [n] sessions gets [n] Error 4 frames, no Attach, and leaves the
   director holding nothing. *)
let test_hello_boot_failure () =
  let config = { config with H.Registry.fuel = Some 1 } in
  let f = Scenario.start ~config (Scenario.Directed 2) (app 0) in
  Fun.protect ~finally:(fun () -> Scenario.stop f) @@ fun () ->
  let a = Conn.connect (Scenario.socket f) in
  Fun.protect ~finally:(fun () -> Conn.close a) @@ fun () ->
  let pump = Scenario.pump f in
  let n = 6 in
  admin_send ~pump a (Wire.Hello { client = "boot"; sessions = n });
  for _ = 1 to n do
    match admin_recv ~pump a with
    | Wire.Error { code; _ } -> Alcotest.(check int) "boot refused" 4 code
    | fr -> Alcotest.failf "expected Error 4, got %s" (Fmt.str "%a" Wire.pp (Wire.Host fr))
  done;
  for _ = 1 to 20 do ignore (Conn.poll ~pump [ a ] 0.001) done;
  Alcotest.(check bool) "nothing after the refusals" true (Conn.next a = None);
  Alcotest.(check int) "no session held" 0 (Director.stats (director f)).Director.sessions

(* A Resume carrying the retired version-1 text is refused by the shard
   it is placed on; the director relays the Error and serves on. *)
let test_director_refuses_v1_resume () =
  let f = mk_fleet ~n_shards:2 (app 0) in
  Fun.protect ~finally:(fun () -> Scenario.stop f) @@ fun () ->
  let pp fr = Fmt.str "%a" Wire.pp (Wire.Host fr) in
  (match Scenario.rpc f (Wire.Resume { snapshot = v1_snapshot_text (app 0) }) with
  | Wire.Error { code; msg } ->
      Alcotest.(check int) "refused as a bad snapshot" 3 code;
      check_contains "the error names the version" msg "version 1"
  | fr -> Alcotest.failf "expected Error 3, got %s" (pp fr));
  (match Scenario.rpc f Wire.Stats with
  | Wire.Metrics _ -> ()
  | fr -> Alcotest.failf "expected Metrics, got %s" (pp fr));
  Alcotest.(check int) "no session held" 0
    (Director.stats (director f)).Director.sessions

(* ------------------------------------------------------------------ *)
(* Rebalance: byte-identical migration under a live connection         *)
(* ------------------------------------------------------------------ *)

let test_rebalance_migration () =
  let f = mk_fleet ~n_shards:2 (app 0) in
  Fun.protect ~finally:(fun () -> Scenario.stop f) @@ fun () ->
  let admin = Conn.connect (Scenario.socket f) in
  Fun.protect ~finally:(fun () -> Conn.close admin) @@ fun () ->
  let pump = Scenario.pump f in
  let spawn n =
    admin_send ~pump admin (Wire.Hello { client = "reb"; sessions = n });
    for _ = 1 to n do
      match admin_recv ~pump admin with
      | Wire.Attach _ -> ()
      | fr ->
          Alcotest.failf "expected Attach, got %s"
            (Fmt.str "%a" Wire.pp (Wire.Host fr))
    done
  in
  spawn 6;
  (* Placement hashes the shard socket paths, which embed the pid, so the
     6 sessions may land balanced (3/3) — in which case a rebalance
     correctly moves nothing.  Top up by one: an odd fleet over 2 shards
     can never be balanced, so the rebalance below must migrate. *)
  let balanced () =
    match List.map snd (Director.stats (director f)).Director.per_shard with
    | l :: rest -> List.for_all (Int.equal l) rest
    | [] -> false
  in
  let sessions = ref 6 in
  if balanced () then begin
    spawn 1;
    incr sessions
  end;
  let sessions = !sessions in
  let observe () =
    match admin_rpc ~pump admin Wire.Observe with
    | Wire.Observed { sessions } -> sessions
    | fr -> Alcotest.failf "expected Observed, got %s" (Fmt.str "%a" Wire.pp (Wire.Host fr))
  in
  let before = observe () in
  Alcotest.(check int) "all sessions observed" sessions (List.length before);
  let info = expect_ack ~pump admin (Wire.Rebalance { count = 3 }) in
  let st = Director.stats (director f) in
  Alcotest.(check bool)
    (Printf.sprintf "sessions moved (%s)" info)
    true
    (st.Director.sessions_moved > 0);
  Alcotest.(check int) "strict digest check ran" 1 st.Director.digest_checks;
  Alcotest.(check int) "no digest failures" 0 st.Director.digest_failures;
  let after = observe () in
  Alcotest.(check (list (pair int string))) "observations byte-identical"
    before after;
  (* both shards now hold part of the fleet *)
  let loads = List.map snd st.Director.per_shard in
  Alcotest.(check bool) "no shard is empty" true
    (List.for_all (fun l -> l > 0) loads);
  Alcotest.(check int) "no session lost" sessions
    (List.fold_left ( + ) 0 loads);
  (* migrated sessions still answer events at their global ids *)
  List.iter (fun (g, _) -> tap_answered ~pump admin g) after

(* ------------------------------------------------------------------ *)
(* Protocol violations and signal storms                               *)
(* ------------------------------------------------------------------ *)

(* Pump until the director hangs up on this connection ({!Conn.poll}
   fails only when a read does, never on a timeout). *)
let expect_closed ~(pump : unit -> unit) (a : Conn.t) : unit =
  let rec go n =
    if n = 0 then Alcotest.fail "the director kept the connection open";
    match Conn.poll ~pump [ a ] 0.001 with
    | exception Conn.Failed _ -> ()
    | _ -> go (n - 1)
  in
  go 1000

let attach_one ~pump a client : int =
  admin_send ~pump a (Wire.Hello { client; sessions = 1 });
  match admin_recv ~pump a with
  | Wire.Attach { session; _ } -> session
  | fr ->
      Alcotest.failf "expected Attach, got %s" (Fmt.str "%a" Wire.pp (Wire.Host fr))

(* A client that sends a host-tagged frame, or an Event whose payload
   no decoder accepts, gets Error 1 and is closed — even for a session
   it owns, the malformed bytes never reach a shard stream.  Another
   connection's sessions keep answering. *)
let test_director_rejects_violations () =
  let f = mk_fleet ~n_shards:2 (app 0) in
  Fun.protect ~finally:(fun () -> Scenario.stop f) @@ fun () ->
  let pump = Scenario.pump f in
  let good = Conn.connect (Scenario.socket f) in
  Fun.protect ~finally:(fun () -> Conn.close good) @@ fun () ->
  let ids = List.init 2 (fun _ -> attach_one ~pump good "good") in
  let host_tagged bad _ =
    Conn.send bad (Wire.Host (Wire.Metrics { text = "nope" }))
  in
  let bad_event bad g =
    (* kind byte (frame offset 10) 7: the envelope peeks fine, the
       payload is garbage *)
    let b =
      Bytes.of_string
        (Wire.encode (Wire.Client (Wire.Event { session = g; ev = Wire.Ev_back })))
    in
    Bytes.set b 10 '\007';
    let b = Bytes.to_string b in
    match Wire.peek b with
    | Wire.Raw r -> Conn.relay bad b r ~session:g
    | _ -> Alcotest.fail "the malformed event must pass the envelope check"
  in
  List.iter
    (fun stage_bad ->
      let bad = Conn.connect (Scenario.socket f) in
      Fun.protect ~finally:(fun () -> Conn.close bad) @@ fun () ->
      let g = attach_one ~pump bad "bad" in
      stage_bad bad g;
      Conn.push ~pump bad;
      (match admin_recv ~pump bad with
      | Wire.Error { code; _ } -> Alcotest.(check int) "protocol violation" 1 code
      | fr ->
          Alcotest.failf "expected Error 1, got %s"
            (Fmt.str "%a" Wire.pp (Wire.Host fr)));
      expect_closed ~pump bad)
    [ host_tagged; bad_event ];
  Alcotest.(check int) "both violations counted" 2
    (Director.stats (director f)).Director.corrupt;
  List.iter (tap_answered ~pump good) ids

(* A 5 ms interval timer storms a directed run — client, director,
   shard rpcs, a two-phase UPDATE and a rebalance — with SIGALRM.  The
   fleet must come out exactly as if no signal ever fired. *)
let test_director_eintr_storm () =
  let seed = 12 and sessions = 6 and conns = 2 and rounds = 8 in
  let directed =
    let prev = Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> ())) in
    Fun.protect
      ~finally:(fun () ->
        ignore
          (Unix.setitimer Unix.ITIMER_REAL { Unix.it_value = 0.; it_interval = 0. });
        ignore (Sys.signal Sys.sigalrm prev))
    @@ fun () ->
    ignore
      (Unix.setitimer Unix.ITIMER_REAL
         { Unix.it_value = 0.005; it_interval = 0.005 });
    run_directed ~seed ~n_shards:2 ~sessions ~conns ~rounds ~update_round:4
      ~fail_update:false ~rebalance_round:6
  in
  let single =
    run_single ~seed ~sessions ~conns ~rounds ~update_round:4 ~do_update:true
  in
  Alcotest.(check string) "directed digest under a signal storm" single directed

let suite =
  [
    prop_director_parity;
    Alcotest.test_case "a Hello reaches every shard at once" `Quick
      test_hello_scatters;
    Alcotest.test_case "Prepare and Commit reach every shard at once" `Quick
      test_update_scatters;
    Alcotest.test_case "two-phase UPDATE is all-or-nothing (shard 1 refuses)"
      `Quick (test_update_atomicity ~refusing:1);
    Alcotest.test_case "two-phase UPDATE is all-or-nothing (shard 0 refuses)"
      `Quick (test_update_atomicity ~refusing:0);
    Alcotest.test_case "a directed Update records each shard's update metrics"
      `Quick test_update_metrics_per_shard;
    Alcotest.test_case "an Update's Ack splits one connection's Deltas" `Quick
      test_update_orders_one_connection;
    Alcotest.test_case "a fleet that cannot boot refuses a Hello whole" `Quick
      test_hello_boot_failure;
    Alcotest.test_case "a version-1 Resume is refused and the director serves on"
      `Quick test_director_refuses_v1_resume;
    Alcotest.test_case "rebalance migrates byte-identically" `Quick
      test_rebalance_migration;
    Alcotest.test_case "protocol violations close only the offender" `Quick
      test_director_rejects_violations;
    Alcotest.test_case "signal storm leaves a directed run intact" `Quick
      test_director_eintr_storm;
  ]
