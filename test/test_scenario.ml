(** The wire fleet runner ([lib/net/scenario]): one seeded spec on a
    single server and on a directed 2-shard fleet ends on the same
    served digest with a clean check, and the check is not vacuous — an
    event the client never sent, or a client frame that went wrong, is
    named by its slot. *)

module Scenario = Live_net.Scenario
module H = Live_host
module Prng = Live_core.Prng

let app version : Live_core.Program.t =
  (Live_workloads.Synthetic.compile_exn
     (Live_workloads.Synthetic.host_app ~rows:4 ~version ()))
    .Live_surface.Compile.core

let spec ~rebalances : Scenario.spec =
  {
    Scenario.config =
      { H.Registry.default_config with H.Registry.width = 32 };
    batch = 8;
    program = app;
    sessions = 6;
    conns = 2;
    rounds = 10;
    window = 1;
    seed = 7;
    draw =
      (fun rng ->
        if Prng.int rng 10 = 0 then H.Registry.Back
        else H.Registry.Tap { x = Prng.int rng 32; y = Prng.int rng 7 });
    updates = [ 4 ];
    rebalances;
    moves = 2;
    detach_every = 3;
  }

(* Start the topology, run the spec, hand the live fleet and the run to
   [k], stop. *)
let with_run topology (spec : Scenario.spec) k =
  let fleet =
    Scenario.start ~config:spec.config ~batch:spec.batch topology
      (spec.program 0)
  in
  Fun.protect ~finally:(fun () -> Scenario.stop fleet) @@ fun () ->
  match Scenario.run fleet spec with
  | Ok o -> k fleet o
  | Error m -> Alcotest.failf "run: %s" m

let test_topologies_agree () =
  let single = spec ~rebalances:[] and directed = spec ~rebalances:[ 6 ] in
  let shadow = Scenario.shadow single in
  let verdict topology spec =
    with_run topology spec @@ fun fleet o ->
    Alcotest.(check int) "every detach resumed" 3 o.Scenario.report.resumes;
    Scenario.check fleet ~shadow o
  in
  let s = verdict Scenario.Single single in
  let d = verdict (Scenario.Directed 2) directed in
  Alcotest.(check (list string)) "single: no problems" [] s.Scenario.problems;
  Alcotest.(check (list string)) "directed: no problems" [] d.Scenario.problems;
  Alcotest.(check string) "same served digest" s.Scenario.digest
    d.Scenario.digest

let test_check_catches_faults () =
  let spec = spec ~rebalances:[] in
  let shadow = Scenario.shadow spec in
  with_run Scenario.Single spec @@ fun fleet o ->
  let problems o = (Scenario.check fleet ~shadow o).Scenario.problems in
  Alcotest.(check (list string)) "clean before the faults" [] (problems o);
  (* a client frame that went wrong *)
  let frames = Array.copy o.Scenario.report.frames in
  frames.(4) <- Array.map (fun _ -> "garbage") frames.(4);
  Alcotest.(check (list string))
    "a corrupt frame is named by its slot"
    [ "slot 4: the client's frame differs from the served pixels" ]
    (problems { o with report = { o.report with frames } });
  (* an event the client never sent: a tap on row 0's counter, offered
     straight into the served registry and served by the next step *)
  let id = List.nth o.report.session_ids 1 in
  let reg = List.hd (Scenario.registries fleet) in
  ignore (H.Registry.offer reg id (H.Registry.Tap { x = 1; y = 1 }));
  Scenario.pump fleet ();
  Alcotest.(check (list string))
    "a stray event is named by its slot"
    [
      Printf.sprintf "slot 1: session %d differs from its replay" id;
      "slot 1: the client's frame differs from the served pixels";
    ]
    (problems o)

let suite =
  [
    Alcotest.test_case "single and directed runs agree with the replay" `Quick
      test_topologies_agree;
    Alcotest.test_case "the check names the slot that went wrong" `Quick
      test_check_catches_faults;
  ]
