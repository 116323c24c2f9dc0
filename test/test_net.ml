(** The networked host ([lib/net]): wire-codec totality and
    canonicity, snapshot persistence, and the end-to-end
    detach/resume soundness statement —

    - {b codec}: [decode (encode f)] returns [f] exactly, re-encoding
      is byte-identical (qcheck over the whole frame grammar), every
      truncation of a valid frame is [Need_more] and arbitrary garbage
      is [Corrupt] or a valid decode — never an exception; the on-disk
      format (version byte included) is pinned by a golden file;
    - {b snapshot}: [of_string (to_string s)] re-prints
      byte-identically, and a malformed text is an [Error], never an
      exception;
    - {b persistence}: detach + restore is observationally invisible —
      a session snapshotted mid-trace and resumed finishes the trace
      byte-identical to one that never detached, under both expression
      engines (the ISSUE's digest-equality acceptance statement);
    - {b server}: a real Unix-socket fleet driven by the lockstep
      client agrees state-for-state with a direct in-process fleet
      replaying the same seeded trace (transport invariance), with
      detach/resume and a mid-run broadcast in the loop;
    - {b conn}: over a real socket, a frame arriving byte by byte
      decodes once, coalesced frames decode in order, a hang-up
      mid-frame is end of stream, and [rpc] returns while its pump
      drives an in-process server. *)

open Helpers
module Wire = Live_net.Wire
module Snapshot = Live_net.Snapshot
module H = Live_host
module Session = Live_runtime.Session
module Prng = Live_conformance.Prng

let app version : Live_core.Program.t =
  (Live_workloads.Synthetic.compile_exn
     (Live_workloads.Synthetic.host_app ~rows:4 ~version ()))
    .Live_surface.Compile.core

(* ------------------------------------------------------------------ *)
(* Wire codec                                                          *)
(* ------------------------------------------------------------------ *)

module Gen_frame = struct
  open QCheck2.Gen

  let small_id = int_bound 100_000
  let small_str = string_size ~gen:printable (int_range 0 40)

  let event =
    oneof
      [
        (let* x = int_bound 1000 in
         let* y = int_bound 1000 in
         pure (Wire.Ev_tap { x; y }));
        pure Wire.Ev_back;
      ]

  let client_frame =
    oneof
      [
        (let* client = small_str in
         let* sessions = int_range 1 64 in
         pure (Wire.Hello { client; sessions }));
        (let* session = small_id in
         let* ev = event in
         pure (Wire.Event { session; ev }));
        (small_id >|= fun session -> Wire.Detach { session });
        (small_str >|= fun snapshot -> Wire.Resume { snapshot });
        pure Wire.Stats;
        pure Wire.Bye;
        (small_str >|= fun program -> Wire.Update { program });
        (let* txn = small_id in
         let* program = small_str in
         pure (Wire.Prepare { txn; program }));
        (small_id >|= fun txn -> Wire.Commit { txn });
        (small_id >|= fun txn -> Wire.Abort { txn });
        pure Wire.Observe;
        (small_id >|= fun count -> Wire.Rebalance { count });
        pure Wire.Stats_data;
      ]

  let host_frame =
    oneof
      [
        (let* session = small_id in
         let* width = int_range 1 256 in
         let* frame = small_str in
         pure (Wire.Attach { session; width; frame }));
        (let* session = small_id in
         let* height = int_range 0 64 in
         let* acks = int_bound 64 in
         let* rows =
           list_size (int_range 0 8)
             (let* i = int_bound 63 in
              let* s = small_str in
              pure (i, s))
         in
         pure (Wire.Delta { session; height; acks; rows }));
        (let* session = small_id in
         let* snapshot = small_str in
         pure (Wire.Detached { session; snapshot }));
        (let* code = int_range 1 6 in
         let* msg = small_str in
         pure (Wire.Error { code; msg }));
        (small_str >|= fun text -> Wire.Metrics { text });
        (small_str >|= fun info -> Wire.Ack { info });
        (let* sessions =
           list_size (int_range 0 6)
             (let* id = small_id in
              let* obs = small_str in
              pure (id, obs))
         in
         pure (Wire.Observed { sessions }));
      ]

  let frame =
    oneof
      [
        (client_frame >|= fun f -> Wire.Client f);
        (host_frame >|= fun f -> Wire.Host f);
      ]
end

let prop_roundtrip =
  qcheck ~count:500 "wire: decode (encode f) = f, re-encode byte-identical"
    Gen_frame.frame (fun f ->
      let bytes = Wire.encode f in
      match Wire.decode bytes with
      | Wire.Frame (f', consumed) ->
          if not (Wire.equal f f') then
            QCheck2.Test.fail_reportf "decode mismatch: %a <> %a" Wire.pp f
              Wire.pp f';
          if consumed <> String.length bytes then
            QCheck2.Test.fail_reportf "consumed %d of %d bytes" consumed
              (String.length bytes);
          if Wire.encode f' <> bytes then
            QCheck2.Test.fail_reportf "re-encode not byte-identical for %a"
              Wire.pp f;
          true
      | Wire.Need_more -> QCheck2.Test.fail_reportf "Need_more on a full frame"
      | Wire.Corrupt m -> QCheck2.Test.fail_reportf "Corrupt: %s" m)

let prop_truncation =
  qcheck ~count:200 "wire: every truncation is Need_more, never an exception"
    Gen_frame.frame (fun f ->
      let bytes = Wire.encode f in
      for k = 0 to String.length bytes - 1 do
        match Wire.decode (String.sub bytes 0 k) with
        | Wire.Need_more -> ()
        | Wire.Frame _ ->
            QCheck2.Test.fail_reportf "truncation to %d bytes decoded" k
        | Wire.Corrupt m ->
            QCheck2.Test.fail_reportf "truncation to %d bytes Corrupt: %s" k m
      done;
      true)

let prop_garbage =
  qcheck ~count:500 "wire: arbitrary bytes never raise"
    QCheck2.Gen.(string_size ~gen:char (int_range 0 64))
    (fun s ->
      (match Wire.decode s with
      | Wire.Frame _ | Wire.Need_more | Wire.Corrupt _ -> ());
      true)

(* A valid frame whose body is then corrupted in one byte: must never
   raise, and a corrupted version byte must be Corrupt. *)
let prop_bitflip =
  qcheck ~count:200 "wire: single corrupted body byte never raises"
    QCheck2.Gen.(pair Gen_frame.frame (int_bound 1_000_000))
    (fun (f, salt) ->
      let bytes = Bytes.of_string (Wire.encode f) in
      if Bytes.length bytes > 4 then begin
        let pos = 4 + (salt mod (Bytes.length bytes - 4)) in
        Bytes.set bytes pos
          (Char.chr (Char.code (Bytes.get bytes pos) lxor 0xFF));
        match Wire.decode (Bytes.to_string bytes) with
        | Wire.Frame _ | Wire.Need_more | Wire.Corrupt _ -> ()
      end;
      true)

(* -- the raw relay fast path --------------------------------------- *)

(* The session substitution [relay_rewrite] claims to perform, spelled
   in the typed world: the five session-addressed frames with the id
   replaced, [None] for every other tag. *)
let with_session (f : Wire.frame) (session : int) : Wire.frame option =
  match f with
  | Wire.Client (Wire.Event e) ->
      Some (Wire.Client (Wire.Event { e with session }))
  | Wire.Client (Wire.Detach _) -> Some (Wire.Client (Wire.Detach { session }))
  | Wire.Host (Wire.Attach a) -> Some (Wire.Host (Wire.Attach { a with session }))
  | Wire.Host (Wire.Delta d) -> Some (Wire.Host (Wire.Delta { d with session }))
  | Wire.Host (Wire.Detached d) ->
      Some (Wire.Host (Wire.Detached { d with session }))
  | _ -> None

let prop_relay_rewrite =
  qcheck ~count:500
    "wire: relay_rewrite ≡ decode; substitute id; re-encode (byte-identical)"
    QCheck2.Gen.(pair Gen_frame.frame Gen_frame.small_id)
    (fun (f, session) ->
      let bytes = Wire.encode f in
      match Wire.peek bytes with
      | Wire.Raw_need_more | Wire.Raw_corrupt _ ->
          QCheck2.Test.fail_reportf "peek rejected a valid frame %a" Wire.pp f
      | Wire.Raw r ->
          if r.Wire.r_off <> 0 || r.Wire.r_total <> String.length bytes then
            QCheck2.Test.fail_reportf "peek misframed %a" Wire.pp f;
          (* the blind passthrough is byte-identical *)
          let out = Buffer.create 64 in
          Wire.relay out bytes r;
          if Buffer.contents out <> bytes then
            QCheck2.Test.fail_reportf "relay not byte-identical for %a" Wire.pp
              f;
          (match with_session f r.Wire.r_session with
          | Some f' when Wire.session_addressed r.Wire.r_tag ->
              (* peek read the id the typed view holds *)
              if not (Wire.equal f f') then
                QCheck2.Test.fail_reportf "peek read session %d out of %a"
                  r.Wire.r_session Wire.pp f
          | Some _ ->
              QCheck2.Test.fail_reportf
                "tag 0x%02x addressed in the typed world but not for peek"
                r.Wire.r_tag
          | None ->
              if Wire.session_addressed r.Wire.r_tag then
                QCheck2.Test.fail_reportf
                  "tag 0x%02x session-addressed for peek but not in the typed \
                   world"
                  r.Wire.r_tag);
          (match with_session f session with
          | None -> ()
          | Some f' ->
              let out = Buffer.create 64 in
              Wire.relay_rewrite out bytes r ~session;
              if Buffer.contents out <> Wire.encode f' then
                QCheck2.Test.fail_reportf
                  "relay_rewrite to %d differs from re-encode for %a" session
                  Wire.pp f);
          true)

let describe_decoded = function
  | Wire.Frame _ -> "Frame"
  | Wire.Need_more -> "Need_more"
  | Wire.Corrupt m -> "Corrupt: " ^ m

let prop_peek_agreement =
  qcheck ~count:300
    "wire: peek agrees with decode on framing (truncation, corruption)"
    QCheck2.Gen.(pair Gen_frame.frame (int_bound 1_000_000))
    (fun (f, salt) ->
      let bytes = Wire.encode f in
      for k = 0 to String.length bytes - 1 do
        match Wire.peek (String.sub bytes 0 k) with
        | Wire.Raw_need_more -> ()
        | Wire.Raw r ->
            QCheck2.Test.fail_reportf
              "peek framed a %d-byte truncation as %d bytes" k r.Wire.r_total
        | Wire.Raw_corrupt m ->
            QCheck2.Test.fail_reportf "peek corrupt on truncation to %d: %s" k
              m
      done;
      (* peek is envelope-strict but payload-blind: [Raw] may still
         decode [Corrupt], but a peek verdict of need-more/corrupt must
         agree with the decoder *)
      let b = Bytes.of_string bytes in
      let pos = salt mod Bytes.length b in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0xFF));
      let s = Bytes.to_string b in
      (match (Wire.peek s, Wire.decode s) with
      | Wire.Raw_corrupt _, Wire.Corrupt _ -> ()
      | (Wire.Raw_corrupt m, v) ->
          QCheck2.Test.fail_reportf "peek Corrupt (%s) but decode %s" m
            (describe_decoded v)
      | Wire.Raw_need_more, Wire.Need_more -> ()
      | (Wire.Raw_need_more, v) ->
          QCheck2.Test.fail_reportf "peek Need_more but decode %s"
            (describe_decoded v)
      | Wire.Raw _, _ -> ());
      true)

let prop_event_payload_ok =
  qcheck ~count:500
    "wire: event_payload_ok accepts exactly what decode accepts"
    QCheck2.Gen.(pair Gen_frame.frame (int_bound 1_000_000))
    (fun (f, salt) ->
      let check s =
        match Wire.peek s with
        | Wire.Raw r when r.Wire.r_tag = 0x02 ->
            let ok = Wire.event_payload_ok s r in
            let accepts =
              match Wire.decode s with
              | Wire.Frame (Wire.Client (Wire.Event _), _) -> true
              | _ -> false
            in
            if ok <> accepts then
              QCheck2.Test.fail_reportf
                "event_payload_ok %b but the decoder says %b" ok accepts
        | _ -> ()
      in
      let bytes = Wire.encode f in
      check bytes;
      let b = Bytes.of_string bytes in
      let pos = salt mod Bytes.length b in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0xFF));
      check (Bytes.to_string b);
      true)

(* The golden corpus: one frame of every tag, encoded and hex-dumped.
   Catching an unintentional format change is the whole point: if this
   test fails, either revert the codec change or bump {!Wire.version}
   AND regenerate the file. *)
let golden_frames : Wire.frame list =
  [
    Wire.Client (Wire.Hello { client = "live-load"; sessions = 3 });
    Wire.Client (Wire.Event { session = 7; ev = Wire.Ev_tap { x = 11; y = 2 } });
    Wire.Client (Wire.Event { session = 8; ev = Wire.Ev_back });
    Wire.Client (Wire.Detach { session = 9 });
    Wire.Client (Wire.Resume { snapshot = "(snapshot)" });
    Wire.Client Wire.Stats;
    Wire.Client Wire.Bye;
    Wire.Host (Wire.Attach { session = 7; width = 32; frame = "a\nb\n" });
    Wire.Host
      (Wire.Delta
         { session = 7; height = 4; acks = 2; rows = [ (0, "x"); (3, "yz") ] });
    Wire.Host (Wire.Detached { session = 9; snapshot = "(snapshot)" });
    Wire.Host (Wire.Error { code = 2; msg = "7 rejected by backpressure" });
    Wire.Host (Wire.Metrics { text = "host metrics\n" });
    Wire.Client (Wire.Update { program = "(program)" });
    Wire.Client (Wire.Prepare { txn = 4; program = "(program)" });
    Wire.Client (Wire.Commit { txn = 4 });
    Wire.Client (Wire.Abort { txn = 4 });
    Wire.Client Wire.Observe;
    Wire.Client (Wire.Rebalance { count = 2 });
    Wire.Client Wire.Stats_data;
    Wire.Host (Wire.Ack { info = "prepared txn 4 (epoch 1)" });
    Wire.Host
      (Wire.Observed { sessions = [ (0, "g = 1\n--\n"); (2, "g = 2\n--\n") ] });
  ]

let hex (s : string) : string =
  String.concat "" (List.map (Printf.sprintf "%02x") (List.init (String.length s) (fun i -> Char.code s.[i])))

let golden_text () : string =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "# wire format v%d — regenerate only on a version bump\n"
       Wire.version);
  List.iter
    (fun f ->
      Buffer.add_string buf (Fmt.str "%a\n" Wire.pp f);
      Buffer.add_string buf (hex (Wire.encode f));
      Buffer.add_char buf '\n')
    golden_frames;
  Buffer.contents buf

let golden_path name =
  let rel = Filename.concat "traces" name in
  if Sys.file_exists rel then rel else Filename.concat "test" rel

let test_wire_golden () =
  let path = golden_path "wire_v3.golden" in
  if Sys.getenv_opt "WIRE_GOLDEN_REGEN" = Some "1" then begin
    let oc = open_out_bin path in
    output_string oc (golden_text ());
    close_out oc
  end;
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let want = really_input_string ic n in
  close_in ic;
  Alcotest.(check string) "pinned wire format" want (golden_text ())

(* ------------------------------------------------------------------ *)
(* Snapshot text                                                       *)
(* ------------------------------------------------------------------ *)

let mk_session ?(evaluator = Live_core.Machine.Compiled) ?(cache = false) () :
    Session.t =
  match Session.create ~width:32 ~cache ~evaluator (app 0) with
  | Ok s -> s
  | Error e -> Alcotest.failf "boot: %s" (Live_core.Machine.error_to_string e)

let drive (s : Session.t) (rng : Prng.t) (n : int) : unit =
  for _ = 1 to n do
    if Prng.int rng 10 = 0 then ignore (Session.back s)
    else ignore (Session.tap s ~x:(Prng.int rng 32) ~y:(Prng.int rng 7))
  done

let test_snapshot_roundtrip () =
  let s = mk_session () in
  drive s (Prng.create 7) 20;
  let snap =
    Snapshot.of_session ~pending:[ Wire.Ev_tap { x = 1; y = 2 }; Wire.Ev_back ]
      s
  in
  let text = Snapshot.to_string snap in
  match Snapshot.of_string text with
  | Error m -> Alcotest.failf "of_string: %s" m
  | Ok snap' ->
      Alcotest.(check string) "re-print byte-identical" text
        (Snapshot.to_string snap');
      Alcotest.(check bool) "program survives" true
        (Snapshot.program_equal snap.Snapshot.program snap'.Snapshot.program)

let test_snapshot_malformed () =
  let s = mk_session () in
  let text = Snapshot.to_string (Snapshot.of_session s) in
  let cases =
    [
      "";
      "(";
      "()";
      "(snapshot)";
      "(snapshot (version 99))";
      String.sub text 0 (String.length text / 2);
      text ^ "garbage";
      Helpers.replace text "(version 1)" "(version 2)";
    ]
  in
  List.iter
    (fun c ->
      match Snapshot.of_string c with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "malformed snapshot accepted: %S" c)
    cases

(* ------------------------------------------------------------------ *)
(* Restore ≡ never detached                                            *)
(* ------------------------------------------------------------------ *)

(* One seeded interaction, detached and resumed at the midpoint; the
   control session plays the same events straight through.  Both must
   finish byte-identical — store, stack, trace, pixels. *)
let check_restore_invisible ~(evaluator : Live_core.Machine.evaluator)
    ~(cache : bool) (seed : int) =
  let control = mk_session ~evaluator ~cache () in
  let subject = mk_session ~evaluator ~cache () in
  let rng_c = Prng.create (Prng.derive seed 1) in
  let rng_s = Prng.create (Prng.derive seed 1) in
  drive control rng_c 15;
  drive subject rng_s 15;
  (* detach: capture, throw the live session away, restore *)
  let snap = Snapshot.of_session subject in
  let text = Snapshot.to_string snap in
  let subject' =
    match Snapshot.of_string text with
    | Error m -> Alcotest.failf "of_string: %s" m
    | Ok snap' -> (
        match Snapshot.restore snap' with
        | Error m -> Alcotest.failf "restore: %s" m
        | Ok s -> s)
  in
  drive control rng_c 15;
  drive subject' rng_s 15;
  Alcotest.(check string)
    (Printf.sprintf "observable state (seed %d)" seed)
    (H.Registry.observe_session control)
    (H.Registry.observe_session subject');
  Alcotest.(check string)
    (Printf.sprintf "pixels (seed %d)" seed)
    (Session.screenshot control)
    (Session.screenshot subject')

let test_restore_invisible_subst () =
  List.iter
    (check_restore_invisible ~evaluator:Live_core.Machine.Subst ~cache:false)
    [ 1; 2; 3 ]

let test_restore_invisible_compiled () =
  List.iter
    (check_restore_invisible ~evaluator:Live_core.Machine.Compiled ~cache:true)
    [ 1; 2; 3 ]

(* Cross-engine restore: a snapshot written by the substitution engine
   restores under the compiled engine's host (the evaluator rides in
   the snapshot — restore honours it). *)
let test_restore_carries_evaluator () =
  let s = mk_session ~evaluator:Live_core.Machine.Subst () in
  drive s (Prng.create 11) 10;
  let snap = Snapshot.of_session s in
  match Snapshot.restore snap with
  | Error m -> Alcotest.failf "restore: %s" m
  | Ok s' ->
      Alcotest.(check bool) "evaluator preserved" true
        (Session.evaluator s' = Live_core.Machine.Subst);
      Alcotest.(check string) "state preserved"
        (H.Registry.observe_session s)
        (H.Registry.observe_session s')

(* save/load: the file round-trip, including the atomic write path. *)
let test_snapshot_save_load () =
  let s = mk_session () in
  drive s (Prng.create 13) 10;
  let snap = Snapshot.of_session s in
  let path = Filename.temp_file "live-snap" ".sexp" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Snapshot.save path snap;
      match Snapshot.load path with
      | Error m -> Alcotest.failf "load: %s" m
      | Ok snap' ->
          Alcotest.(check string) "file round-trip"
            (Snapshot.to_string snap)
            (Snapshot.to_string snap'))

(* ------------------------------------------------------------------ *)
(* Delta helpers                                                       *)
(* ------------------------------------------------------------------ *)

let prop_delta =
  qcheck ~count:300 "wire: apply_delta ∘ delta_of_frames = id"
    QCheck2.Gen.(
      pair
        (array_size (int_range 0 12)
           (string_size ~gen:printable (int_range 0 8)))
        (array_size (int_range 0 12)
           (string_size ~gen:printable (int_range 0 8))))
    (fun (prev, next) ->
      let rows = Wire.delta_of_frames ~prev next in
      let got = Wire.apply_delta prev ~height:(Array.length next) ~rows in
      got = next)

(* ------------------------------------------------------------------ *)
(* The server, end to end over a real socket                           *)
(* ------------------------------------------------------------------ *)

let test_server_e2e () =
  let module Server = Live_net.Server in
  let module Client = Live_net.Client in
  let sessions = 8 and conns = 3 and rounds = 12 and seed = 42 in
  let socket =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "live-test-net-%d.sock" (Unix.getpid ()))
  in
  let config =
    {
      H.Registry.default_config with
      H.Registry.width = 32;
      queue_capacity = 16;
    }
  in
  let srv = Server.create ~config ~socket (app 0) in
  Fun.protect ~finally:(fun () -> Server.stop srv) @@ fun () ->
  let reg = Server.registry srv in
  let rngs =
    Array.init sessions (fun s -> Prng.create (Prng.derive seed s))
  in
  let gen ~slot ~round:_ =
    let rng = rngs.(slot) in
    if Prng.int rng 10 = 0 then Wire.Ev_back
    else Wire.Ev_tap { x = Prng.int rng 32; y = Prng.int rng 7 }
  in
  let broadcast_round = rounds / 2 in
  let on_round r =
    if r = broadcast_round then begin
      (match H.Broadcast.update reg (app 1) with
      | Ok _ -> ()
      | Error e ->
          Alcotest.failf "broadcast: %s" (Live_core.Machine.error_to_string e));
      Server.mark_all_dirty srv
    end
  in
  let report =
    match
      Client.run ~socket ~conns ~sessions ~rounds ~gen ~detach_every:4
        ~on_round
        ~pump:(fun () -> ignore (Server.step ~timeout:0. srv))
        ()
    with
    | Ok r -> r
    | Error m -> Alcotest.failf "client: %s" m
  in
  Alcotest.(check int) "every event answered" (sessions * rounds)
    (H.Host_metrics.hist_count report.Client.latency
    + report.Client.rejected);
  Alcotest.(check bool) "detach/resume exercised" true
    (report.Client.detaches > 0 && report.Client.detaches = report.Client.resumes);
  (* reconstructed frames = server screenshots *)
  List.iteri
    (fun slot id ->
      match H.Registry.session reg id with
      | None -> Alcotest.failf "slot %d session %d missing" slot id
      | Some s ->
          Alcotest.(check (array string))
            (Printf.sprintf "slot %d frame" slot)
            (Wire.rows_of_text (Session.screenshot s))
            report.Client.frames.(slot))
    report.Client.session_ids;
  (* transport invariance: direct in-process replay, same seeds *)
  let sreg = H.Registry.create ~config (app 0) in
  (match H.Registry.spawn_many sreg sessions with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "spawn: %s" (Live_core.Machine.error_to_string e));
  let sched = H.Scheduler.create sreg in
  let srngs =
    Array.init sessions (fun s -> Prng.create (Prng.derive seed s))
  in
  for round = 0 to rounds - 1 do
    Array.iteri
      (fun s rng ->
        let ev =
          if Prng.int rng 10 = 0 then H.Registry.Back
          else
            H.Registry.Tap { x = Prng.int rng 32; y = Prng.int rng 7 }
        in
        ignore (H.Registry.offer sreg s ev))
      srngs;
    (match H.Scheduler.drain sched with
    | Ok _ -> ()
    | Error m -> Alcotest.fail m);
    if round = broadcast_round then
      match H.Broadcast.update sreg (app 1) with
      | Ok _ -> ()
      | Error e ->
          Alcotest.failf "shadow broadcast: %s"
            (Live_core.Machine.error_to_string e)
  done;
  List.iteri
    (fun slot id ->
      let net = Option.get (H.Registry.session reg id) in
      let direct = Option.get (H.Registry.session sreg slot) in
      Alcotest.(check string)
        (Printf.sprintf "slot %d transport invariance" slot)
        (H.Registry.observe_session direct)
        (H.Registry.observe_session net))
    report.Client.session_ids;
  (* the fleet survives the client: Bye does not kill sessions *)
  Alcotest.(check int) "sessions survive Bye" sessions (H.Registry.size reg);
  match H.Registry.check_invariants reg with
  | [] -> ()
  | vs ->
      Alcotest.failf "invariants: %s"
        (String.concat "; "
           (List.map (fun (id, m) -> Printf.sprintf "#%d: %s" id m) vs))

(* Pipelining is invisible: the same seeded trace driven with
   window = 4 (credits in flight, barriers only at the broadcast
   round) must leave every session byte-identical to the lockstep
   window = 1 run — the server applies each session's events in FIFO
   order whatever the credit schedule.  Capacity is sized so neither
   run sheds events; both must answer all of them. *)
let test_pipelined_client () =
  let module Server = Live_net.Server in
  let module Client = Live_net.Client in
  let sessions = 6 and conns = 2 and rounds = 10 and seed = 7 in
  let config =
    {
      H.Registry.default_config with
      H.Registry.width = 32;
      queue_capacity = 64;
    }
  in
  let broadcast_round = rounds / 2 in
  let run_with ~window ~tag =
    let socket =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "live-test-net-pipe-%s-%d.sock" tag (Unix.getpid ()))
    in
    let srv = Server.create ~config ~socket (app 0) in
    Fun.protect ~finally:(fun () -> Server.stop srv) @@ fun () ->
    let reg = Server.registry srv in
    let rngs =
      Array.init sessions (fun s -> Prng.create (Prng.derive seed s))
    in
    let gen ~slot ~round:_ =
      let rng = rngs.(slot) in
      if Prng.int rng 10 = 0 then Wire.Ev_back
      else Wire.Ev_tap { x = Prng.int rng 32; y = Prng.int rng 7 }
    in
    let on_round r =
      if r = broadcast_round then begin
        (match H.Broadcast.update reg (app 1) with
        | Ok _ -> ()
        | Error e ->
            Alcotest.failf "broadcast (%s): %s" tag
              (Live_core.Machine.error_to_string e));
        Server.mark_all_dirty srv
      end
    in
    let report =
      match
        Client.run ~socket ~conns ~sessions ~rounds ~gen ~window
          ~barrier:(fun r -> r = broadcast_round)
          ~on_round
          ~pump:(fun () -> ignore (Server.step ~timeout:0. srv))
          ()
      with
      | Ok r -> r
      | Error m -> Alcotest.failf "client (%s): %s" tag m
    in
    Alcotest.(check int)
      (Printf.sprintf "every event answered (%s)" tag)
      (sessions * rounds)
      (H.Host_metrics.hist_count report.Client.latency);
    Alcotest.(check int)
      (Printf.sprintf "nothing shed (%s)" tag)
      0 report.Client.rejected;
    let observations =
      List.map
        (fun id ->
          match H.Registry.session reg id with
          | None -> Alcotest.failf "session %d missing (%s)" id tag
          | Some _ -> H.Registry.observe_session (Option.get (H.Registry.session reg id)))
        report.Client.session_ids
    in
    (H.Registry.digest reg, observations, report.Client.frames)
  in
  let d1, obs1, frames1 = run_with ~window:1 ~tag:"w1" in
  let d4, obs4, frames4 = run_with ~window:4 ~tag:"w4" in
  Alcotest.(check string) "pipelining preserves the fleet digest" d1 d4;
  List.iteri
    (fun slot (a, b) ->
      Alcotest.(check string)
        (Printf.sprintf "slot %d state invariant under pipelining" slot)
        a b)
    (List.combine obs1 obs4);
  Array.iteri
    (fun slot rows ->
      Alcotest.(check (array string))
        (Printf.sprintf "slot %d client frame invariant under pipelining" slot)
        rows frames4.(slot))
    frames1

(* A host-tagged frame from a client is a protocol violation: Error 1
   and the connection closes — and the server survives. *)
let test_server_rejects_garbage () =
  let module Server = Live_net.Server in
  let socket =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "live-test-net-g-%d.sock" (Unix.getpid ()))
  in
  let srv = Server.create ~socket (app 0) in
  Fun.protect ~finally:(fun () -> Server.stop srv) @@ fun () ->
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  let bad = Wire.encode (Wire.Host (Wire.Metrics { text = "nope" })) in
  ignore (Unix.write_substring fd bad 0 (String.length bad));
  (* pump the server until the reply arrives *)
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 4096 in
  Unix.set_nonblock fd;
  let deadline = 200 in
  let rec wait n =
    if n = 0 then Alcotest.fail "no Error reply";
    ignore (Server.step ~timeout:0.01 srv);
    (match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | k -> Buffer.add_subbytes buf chunk 0 k
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ());
    match Wire.decode (Buffer.contents buf) with
    | Wire.Frame (Wire.Host (Wire.Error { code; _ }), _) ->
        Alcotest.(check int) "protocol violation code" 1 code
    | Wire.Frame (f, _) ->
        Alcotest.failf "unexpected reply %s" (Fmt.str "%a" Wire.pp f)
    | Wire.Need_more | Wire.Corrupt _ -> wait (n - 1)
  in
  wait deadline

(* ------------------------------------------------------------------ *)
(* Signal hardening: EINTR must not surface as idleness or errors      *)
(* ------------------------------------------------------------------ *)

(* A one-shot SIGALRM lands while the server is blocked in select with
   a connected-but-silent client.  The old loop treated the EINTR as
   "nothing happened" and returned after ~30 ms; the hardened loop
   retries the select and blocks out the full timeout — and the
   connection is still perfectly usable afterwards. *)
let test_server_select_eintr () =
  let module Server = Live_net.Server in
  let socket =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "live-test-net-eintr-%d.sock" (Unix.getpid ()))
  in
  let srv = Server.create ~socket (app 0) in
  Fun.protect ~finally:(fun () -> Server.stop srv) @@ fun () ->
  let prev = Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> ())) in
  Fun.protect ~finally:(fun () -> ignore (Sys.signal Sys.sigalrm prev))
  @@ fun () ->
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  (* let the server accept the connection *)
  for _ = 1 to 5 do
    ignore (Server.step ~timeout:0.01 srv)
  done;
  (* one-shot timer: fires once at 30 ms, well inside the 200 ms select *)
  let old_timer =
    Unix.setitimer Unix.ITIMER_REAL
      { Unix.it_value = 0.03; it_interval = 0. }
  in
  ignore old_timer;
  let t0 = Unix.gettimeofday () in
  ignore (Server.step ~timeout:0.2 srv);
  let elapsed = Unix.gettimeofday () -. t0 in
  ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_value = 0.; it_interval = 0. });
  Alcotest.(check bool)
    (Printf.sprintf "select retried after EINTR (%.0f ms)" (elapsed *. 1000.))
    true (elapsed >= 0.15);
  (* the interrupted connection still works: a Stats round-trip *)
  let req = Wire.encode (Wire.Client Wire.Stats) in
  ignore (Unix.write_substring fd req 0 (String.length req));
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 4096 in
  Unix.set_nonblock fd;
  let rec wait n =
    if n = 0 then Alcotest.fail "no Metrics reply after EINTR";
    ignore (Server.step ~timeout:0.01 srv);
    (match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | k -> Buffer.add_subbytes buf chunk 0 k
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ());
    match Wire.decode (Buffer.contents buf) with
    | Wire.Frame (Wire.Host (Wire.Metrics _), _) -> ()
    | Wire.Frame (f, _) ->
        Alcotest.failf "unexpected reply %s" (Fmt.str "%a" Wire.pp f)
    | Wire.Need_more | Wire.Corrupt _ -> wait (n - 1)
  in
  wait 200

(* A 5 ms interval timer storms the whole client/server exchange with
   signals: every read, write and select gets interrupted repeatedly.
   The session must come out exactly as if no signal ever fired. *)
let test_server_eintr_storm () =
  let module Server = Live_net.Server in
  let module Client = Live_net.Client in
  let socket =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "live-test-net-storm-%d.sock" (Unix.getpid ()))
  in
  let srv = Server.create ~socket (app 0) in
  Fun.protect ~finally:(fun () -> Server.stop srv) @@ fun () ->
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
  let sessions = 4 and rounds = 20 and seed = 7 in
  let rngs =
    Array.init sessions (fun s -> Prng.create (Prng.derive seed s))
  in
  let gen ~slot ~round:_ =
    let rng = rngs.(slot) in
    if Prng.int rng 10 = 0 then Wire.Ev_back
    else Wire.Ev_tap { x = Prng.int rng 32; y = Prng.int rng 7 }
  in
  let report =
    match
      Client.run ~socket ~conns:2 ~sessions ~rounds ~gen ~detach_every:6
        ~pump:(fun () -> ignore (Server.step ~timeout:0. srv))
        ()
    with
    | Ok r -> r
    | Error m -> Alcotest.failf "client under signal storm: %s" m
  in
  Alcotest.(check int) "every event answered under storm"
    (sessions * rounds)
    (H.Host_metrics.hist_count report.Client.latency
    + report.Client.rejected);
  Alcotest.(check int) "fleet intact" sessions
    (H.Registry.size (Server.registry srv))

(* ------------------------------------------------------------------ *)
(* Conn over a real socket                                             *)
(* ------------------------------------------------------------------ *)

module Conn = Live_net.Conn

let frame_t = Alcotest.testable Wire.pp Wire.equal

(* A {!Conn} accepted from a listener, facing a raw socket the test
   writes bytes on. *)
let with_raw_peer (tag : string) (f : Unix.file_descr -> Conn.t -> unit) : unit =
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "live-test-conn-%s-%d.sock" tag (Unix.getpid ()))
  in
  let l = Conn.listen path in
  Fun.protect ~finally:(fun () -> Conn.close_listener l) @@ fun () ->
  let raw = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect raw (Unix.ADDR_UNIX path);
  let c =
    match Conn.accept l with
    | [ c ] -> c
    | cs -> Alcotest.failf "accepted %d connections, expected 1" (List.length cs)
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close raw with Unix.Unix_error _ -> ());
      Conn.close c)
    (fun () -> f raw c)

let write_raw (fd : Unix.file_descr) (s : string) : unit =
  Alcotest.(check int) "whole write" (String.length s)
    (Unix.write_substring fd s 0 (String.length s))

(* Wait for input, then decode everything complete. *)
let receive (c : Conn.t) : Wire.frame list =
  ignore (Conn.poll [ c ] 1.0);
  let got = ref [] in
  (match Conn.frames c (fun f -> got := f :: !got; true) with
  | Some m -> Alcotest.failf "corrupt: %s" m
  | None -> ());
  List.rev !got

let test_conn_byte_at_a_time () =
  with_raw_peer "bytes" @@ fun raw c ->
  let f = Wire.Client (Wire.Hello { client = "one byte at a time"; sessions = 3 }) in
  let bytes = Wire.encode f in
  let last = String.length bytes - 1 in
  String.iteri
    (fun i ch ->
      write_raw raw (String.make 1 ch);
      Alcotest.(check (list frame_t))
        (Printf.sprintf "after byte %d of %d" (i + 1) (last + 1))
        (if i = last then [ f ] else [])
        (receive c))
    bytes

let test_conn_two_frames_one_write () =
  with_raw_peer "two" @@ fun raw c ->
  let f1 = Wire.Client (Wire.Event { session = 4; ev = Wire.Ev_tap { x = 1; y = 2 } })
  and f2 = Wire.Client (Wire.Detach { session = 4 }) in
  write_raw raw (Wire.encode f1 ^ Wire.encode f2);
  Alcotest.(check (list frame_t)) "both, in order" [ f1; f2 ] (receive c)

let test_conn_close_mid_frame () =
  with_raw_peer "eof" @@ fun raw c ->
  let bytes = Wire.encode (Wire.Client (Wire.Resume { snapshot = "cut short" })) in
  write_raw raw (String.sub bytes 0 (String.length bytes / 2));
  Unix.close raw;
  let rec until_eof n =
    if n = 0 then Alcotest.fail "no end of stream";
    match receive c with
    | exception Conn.Failed _ -> ()
    | got ->
        Alcotest.(check (list frame_t)) "half a frame decodes to nothing" [] got;
        until_eof (n - 1)
  in
  until_eof 10

let test_conn_rpc_pumps_server () =
  let module Server = Live_net.Server in
  let socket =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "live-test-conn-rpc-%d.sock" (Unix.getpid ()))
  in
  let srv = Server.create ~socket (app 0) in
  Fun.protect ~finally:(fun () -> Server.stop srv) @@ fun () ->
  let c = Conn.connect socket in
  Fun.protect ~finally:(fun () -> Conn.close c) @@ fun () ->
  let pump () = ignore (Server.step ~timeout:0. srv) in
  let rpc f = Conn.rpc ~pump c (Wire.Client f) (fun () -> Conn.next c) in
  (match rpc (Wire.Hello { client = "rpc"; sessions = 1 }) with
  | Wire.Attach { session; _ } -> Alcotest.(check int) "first session" 0 session
  | f -> Alcotest.failf "expected Attach, got %s" (Fmt.str "%a" Wire.pp (Wire.Host f)));
  match rpc Wire.Stats with
  | Wire.Metrics _ -> ()
  | f -> Alcotest.failf "expected Metrics, got %s" (Fmt.str "%a" Wire.pp (Wire.Host f))

(* ------------------------------------------------------------------ *)
(* The host-net oracle configuration                                   *)
(* ------------------------------------------------------------------ *)

(* Every step of a fuzzed trace followed by a full snapshot → wire →
   parse → restore → adopt cycle must stay byte-identical to the
   reference machine. *)
let prop_host_net_oracle =
  qcheck ~count:15 "oracle: host-net agrees with the machine"
    QCheck2.Gen.(int_bound 1_000_000_000)
    (fun seed ->
      let open Live_conformance in
      let trace = Engine.gen_trace ~n_events:8 ~seed () in
      match Oracle.run ~configs:[ "machine"; "host-net" ] trace with
      | Oracle.Agreed -> true
      | Oracle.Boot_failed _ -> true (* not this property's concern *)
      | Oracle.Diverged d ->
          QCheck2.Test.fail_reportf "seed %d: %s" seed
            (Fmt.str "%a" Oracle.pp_divergence d))

let suite =
  [
    prop_roundtrip;
    prop_truncation;
    prop_garbage;
    prop_bitflip;
    prop_relay_rewrite;
    prop_peek_agreement;
    prop_event_payload_ok;
    prop_delta;
    Alcotest.test_case "wire golden file" `Quick test_wire_golden;
    Alcotest.test_case "snapshot round-trip" `Quick test_snapshot_roundtrip;
    Alcotest.test_case "snapshot rejects malformed" `Quick
      test_snapshot_malformed;
    Alcotest.test_case "restore invisible (subst)" `Quick
      test_restore_invisible_subst;
    Alcotest.test_case "restore invisible (compiled+cache)" `Quick
      test_restore_invisible_compiled;
    Alcotest.test_case "restore carries evaluator" `Quick
      test_restore_carries_evaluator;
    Alcotest.test_case "snapshot save/load" `Quick test_snapshot_save_load;
    Alcotest.test_case "server e2e over a real socket" `Quick test_server_e2e;
    Alcotest.test_case "pipelined client is state-invariant" `Quick
      test_pipelined_client;
    Alcotest.test_case "server rejects protocol violations" `Quick
      test_server_rejects_garbage;
    Alcotest.test_case "select retries on EINTR" `Quick
      test_server_select_eintr;
    Alcotest.test_case "signal storm leaves traffic intact" `Quick
      test_server_eintr_storm;
    Alcotest.test_case "conn: a frame written bytewise decodes once" `Quick
      test_conn_byte_at_a_time;
    Alcotest.test_case "conn: two frames in one write decode in order" `Quick
      test_conn_two_frames_one_write;
    Alcotest.test_case "conn: a peer closing mid-frame is end of stream" `Quick
      test_conn_close_mid_frame;
    Alcotest.test_case "conn: rpc returns while its pump drives a server" `Quick
      test_conn_rpc_pumps_server;
    prop_host_net_oracle;
  ]
