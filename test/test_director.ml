(** The shard director ([lib/net/director]): a directed N-shard fleet
    must be observationally {e identical} to a single-process fleet —

    - {b parity}: the same seeded client trace replayed against a
      2-shard directed fleet and against one [Server] ends with
      byte-identical fleet digests, including a mid-trace fleet-wide
      UPDATE (committed on even seeds; {e refused} atomically on odd
      seeds via an injected prepare failure) and a mid-trace live
      rebalance on the directed side only;
    - {b atomicity}: when one shard cannot prepare, two-phase UPDATE
      leaves {e every} shard on the old program, and a subsequent clean
      UPDATE moves every shard to the new one;
    - {b rebalance}: sessions migrate between shards under an open
      client connection, the before/after fleet digest holds, and the
      moved sessions keep answering events at their global ids;
    - {b hostile clients and signals}: a protocol violation closes only
      the offending connection, and a SIGALRM storm leaves a directed
      run's digest equal to the single process's. *)

open Helpers
module Wire = Live_net.Wire
module Snapshot = Live_net.Snapshot
module Server = Live_net.Server
module Client = Live_net.Client
module Director = Live_net.Director
module Conn = Live_net.Conn
module H = Live_host
module Prng = Live_conformance.Prng

let app version : Live_core.Program.t =
  (Live_workloads.Synthetic.compile_exn
     (Live_workloads.Synthetic.host_app ~rows:4 ~version ()))
    .Live_surface.Compile.core

let prog_str p = Snapshot.program_to_string p

let config =
  { H.Registry.default_config with H.Registry.width = 32; queue_capacity = 16 }

let sock tag i =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "live-dir-%s-%d-%d.sock" tag i (Unix.getpid ()))

(* ------------------------------------------------------------------ *)
(* An in-process directed fleet                                        *)
(* ------------------------------------------------------------------ *)

type fleet = {
  shards : Server.t array;
  dir : Director.t;
  dpath : string;
  pump : unit -> unit;  (** step every shard and the director once *)
}

let mk_fleet ~tag ~n_shards program : fleet =
  let shards =
    Array.init n_shards (fun i ->
        Server.create ~config ~socket:(sock tag i) program)
  in
  let pump_shards () =
    Array.iter (fun s -> ignore (Server.step ~timeout:0. s)) shards
  in
  let dpath = sock tag 999 in
  let dir =
    Director.create ~pump:pump_shards ~socket:dpath
      ~shards:(List.init n_shards (sock tag))
      ()
  in
  let pump () =
    pump_shards ();
    ignore (Director.step ~timeout:0. dir)
  in
  { shards; dir; dpath; pump }

let stop_fleet (f : fleet) : unit =
  Director.stop f.dir;
  Array.iter Server.stop f.shards

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
  let socket = sock (Printf.sprintf "single-%d" seed) 0 in
  let srv = Server.create ~config ~socket (app 0) in
  Fun.protect ~finally:(fun () -> Server.stop srv) @@ fun () ->
  let reg = Server.registry srv in
  let on_round r =
    if r = update_round && do_update then begin
      (match H.Broadcast.update reg (app 1) with
      | Ok _ -> ()
      | Error e ->
          Alcotest.failf "single update: %s"
            (Live_core.Machine.error_to_string e));
      Server.mark_all_dirty srv
    end
  in
  (match
     Client.run ~socket ~conns ~sessions ~rounds ~gen:(mk_gen seed sessions)
       ~detach_every:3 ~on_round
       ~pump:(fun () -> ignore (Server.step ~timeout:0. srv))
       ()
   with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "single client: %s" m);
  H.Registry.digest reg

let run_directed ~seed ~n_shards ~sessions ~conns ~rounds ~update_round
    ~fail_update ~rebalance_round : string =
  let f = mk_fleet ~tag:(Printf.sprintf "par-%d" seed) ~n_shards (app 0) in
  Fun.protect ~finally:(fun () -> stop_fleet f) @@ fun () ->
  let admin = Conn.connect f.dpath in
  Fun.protect ~finally:(fun () -> Conn.close admin) @@ fun () ->
  let on_round r =
    if r = update_round then
      if fail_update then begin
        (* hold shard 1's rollout slot so its Prepare refuses: the
           two-phase must abort shard 0 and leave the fleet untouched *)
        let reg1 = Server.registry f.shards.(1) in
        match H.Rollout.begin_ ~seed:991 reg1 (app 2) with
        | Error e ->
            Alcotest.failf "inject: %s" (Live_core.Machine.error_to_string e)
        | Ok inj ->
            let msg =
              expect_refusal ~pump:f.pump admin
                (Wire.Update { program = prog_str (app 1) })
            in
            Alcotest.(check bool) "refusal names the all-or-nothing" true
              (String.length msg > 0);
            ignore (H.Rollout.rollback inj)
      end
      else
        ignore
          (expect_ack ~pump:f.pump admin
             (Wire.Update { program = prog_str (app 1) }))
    else if r = rebalance_round then
      ignore (expect_ack ~pump:f.pump admin (Wire.Rebalance { count = 2 }))
  in
  (match
     Client.run ~socket:f.dpath ~conns ~sessions ~rounds
       ~gen:(mk_gen seed sessions) ~detach_every:3 ~on_round ~pump:f.pump ()
   with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "directed client: %s" m);
  let st = Director.stats f.dir in
  Alcotest.(check int) "no strict digest failures" 0 st.Director.digest_failures;
  if not fail_update then
    Alcotest.(check int) "update committed" 1 st.Director.updates_committed
  else begin
    Alcotest.(check int) "update rejected" 1 st.Director.updates_rejected;
    Alcotest.(check int) "nothing committed" 0 st.Director.updates_committed
  end;
  Director.fleet_digest f.dir

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
(* Two-phase atomicity, deterministically                              *)
(* ------------------------------------------------------------------ *)

let test_update_atomicity () =
  let f = mk_fleet ~tag:"atom" ~n_shards:2 (app 0) in
  Fun.protect ~finally:(fun () -> stop_fleet f) @@ fun () ->
  let admin = Conn.connect f.dpath in
  Fun.protect ~finally:(fun () -> Conn.close admin) @@ fun () ->
  let pump = f.pump in
  (* a resident fleet, owned by this connection *)
  admin_send ~pump admin (Wire.Hello { client = "atom"; sessions = 4 });
  for _ = 1 to 4 do
    match admin_recv ~pump admin with
    | Wire.Attach _ -> ()
    | fr -> Alcotest.failf "expected Attach, got %s" (Fmt.str "%a" Wire.pp (Wire.Host fr))
  done;
  let reg0 = Server.registry f.shards.(0)
  and reg1 = Server.registry f.shards.(1) in
  let v0 = prog_str (app 0) and v1 = prog_str (app 1) in
  (* shard 1 cannot prepare: an injected rollout holds its slot *)
  let inj =
    match H.Rollout.begin_ ~seed:991 reg1 (app 2) with
    | Ok r -> r
    | Error e ->
        Alcotest.failf "inject: %s" (Live_core.Machine.error_to_string e)
  in
  let msg =
    expect_refusal ~pump admin (Wire.Update { program = v1 })
  in
  Alcotest.(check bool) "refusal reports fleet unchanged" true
    (String.length msg > 0);
  ignore (H.Rollout.rollback inj);
  (* all-or-nothing: shard 0 prepared and was aborted; both shards are
     still on the boot program, no rollout left open anywhere *)
  Alcotest.(check bool) "shard 0 rollout closed" false
    (H.Registry.rollout_open reg0);
  Alcotest.(check bool) "shard 1 rollout closed" false
    (H.Registry.rollout_open reg1);
  Alcotest.(check string) "shard 0 on old program" v0
    (prog_str (H.Registry.program reg0));
  Alcotest.(check string) "shard 1 on old program" v0
    (prog_str (H.Registry.program reg1));
  Alcotest.(check int) "shard 0 epoch unchanged" 0
    (H.Registry.current_epoch reg0);
  Alcotest.(check int) "shard 1 epoch unchanged" 0
    (H.Registry.current_epoch reg1);
  (* the fleet is not wedged: a clean UPDATE commits everywhere *)
  let info = expect_ack ~pump admin (Wire.Update { program = v1 }) in
  Alcotest.(check bool) "ack names the txn" true
    (String.length info > 0);
  Alcotest.(check string) "shard 0 on new program" v1
    (prog_str (H.Registry.program reg0));
  Alcotest.(check string) "shard 1 on new program" v1
    (prog_str (H.Registry.program reg1));
  let st = Director.stats f.dir in
  Alcotest.(check int) "one rejected" 1 st.Director.updates_rejected;
  Alcotest.(check int) "one committed" 1 st.Director.updates_committed

(* ------------------------------------------------------------------ *)
(* Rebalance: byte-identical migration under a live connection         *)
(* ------------------------------------------------------------------ *)

let test_rebalance_migration () =
  let f = mk_fleet ~tag:"reb" ~n_shards:2 (app 0) in
  Fun.protect ~finally:(fun () -> stop_fleet f) @@ fun () ->
  let admin = Conn.connect f.dpath in
  Fun.protect ~finally:(fun () -> Conn.close admin) @@ fun () ->
  let pump = f.pump in
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
    match List.map snd (Director.stats f.dir).Director.per_shard with
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
  let st = Director.stats f.dir in
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
  let f = mk_fleet ~tag:"viol" ~n_shards:2 (app 0) in
  Fun.protect ~finally:(fun () -> stop_fleet f) @@ fun () ->
  let pump = f.pump in
  let good = Conn.connect f.dpath in
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
      let bad = Conn.connect f.dpath in
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
    (Director.stats f.dir).Director.corrupt;
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
    Alcotest.test_case "two-phase UPDATE is all-or-nothing" `Quick
      test_update_atomicity;
    Alcotest.test_case "rebalance migrates byte-identically" `Quick
      test_rebalance_migration;
    Alcotest.test_case "protocol violations close only the offender" `Quick
      test_director_rejects_violations;
    Alcotest.test_case "signal storm leaves a directed run intact" `Quick
      test_director_eintr_storm;
  ]
