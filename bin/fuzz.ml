(** The conformance fuzzer CLI (see [lib/conformance] and DESIGN.md):
    generate seeded traces, replay each through every semantic
    configuration, diff after every step, and shrink the first
    divergence to a minimal witness.

    Exit status: 0 when every trace agreed, 1 on a divergence (after
    printing the shrunk trace and the reproduction seed), 2 on usage
    errors.

    {v
    fuzz --iters 500 --seed 42          # a campaign
    fuzz --replay-seed 123456789        # reproduce one generated trace
    fuzz --replay failing.trace         # re-run a saved/golden trace
    fuzz --sabotage cache-no-flush ...  # prove the oracle catches a broken cache
    v} *)

open Live_conformance

let usage () =
  prerr_endline
    {|usage: fuzz [options]
  --iters N         traces to generate and check (default 100)
  --seed N          master campaign seed (default: from the date, YYYYMMDD)
  --events N        max events per trace (default 24)
  --configs a,b,c   configurations to compare (default: all; first is reference)
  --sabotage S      deliberately break an invariant (cache-no-flush)
  --replay-seed N   regenerate one derived-seed trace and run the oracle
  --replay FILE     run the oracle on a serialized trace file
  --save FILE       write the shrunk failing trace to FILE
  --quiet           no per-iteration progress|};
  exit 2

let () =
  let iters = ref 100 in
  let seed = ref None in
  let events = ref None in
  let configs = ref None in
  let sabotage = ref None in
  let replay_seed = ref None in
  let replay_file = ref None in
  let save = ref None in
  let quiet = ref false in
  let rec parse = function
    | [] -> ()
    | "--iters" :: v :: rest ->
        iters := int_of_string v;
        parse rest
    | "--seed" :: v :: rest ->
        seed := Some (int_of_string v);
        parse rest
    | "--events" :: v :: rest ->
        events := Some (int_of_string v);
        parse rest
    | "--configs" :: v :: rest ->
        let names = String.split_on_char ',' v in
        List.iter
          (fun n ->
            if not (List.mem n Oracle.all_configs) then begin
              Printf.eprintf "unknown configuration %S (known: %s)\n" n
                (String.concat "," Oracle.all_configs);
              usage ()
            end)
          names;
        configs := Some names;
        parse rest
    | "--sabotage" :: "cache-no-flush" :: rest ->
        sabotage := Some Oracle.Cache_no_flush;
        parse rest
    | "--sabotage" :: other :: _ ->
        Printf.eprintf "unknown sabotage %S\n" other;
        usage ()
    | "--replay-seed" :: v :: rest ->
        replay_seed := Some (int_of_string v);
        parse rest
    | "--replay" :: v :: rest ->
        replay_file := Some v;
        parse rest
    | "--save" :: v :: rest ->
        save := Some v;
        parse rest
    | "--quiet" :: rest ->
        quiet := true;
        parse rest
    | other :: _ ->
        Printf.eprintf "unknown option %S\n" other;
        usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv))
   with Failure _ -> usage ());
  let seed =
    match !seed with
    | Some s -> s
    | None ->
        (* a fresh deterministic seed per day — the CI smoke job's
           "from-date" mode *)
        let tm = Unix.gmtime (Unix.time ()) in
        ((tm.Unix.tm_year + 1900) * 10000)
        + ((tm.Unix.tm_mon + 1) * 100)
        + tm.Unix.tm_mday
  in
  let report_divergence ?(trace_seed = 0) (trace : Ctrace.t)
      (d : Oracle.divergence) ~(shrunk : Ctrace.t)
      ~(shrunk_d : Oracle.divergence) =
    Printf.printf "\nDIVERGENCE (master seed %d, reproduction seed %d)\n" seed
      trace_seed;
    Printf.printf "  original: %d events; %s\n"
      (List.length trace.Ctrace.events)
      (Fmt.str "%a" Oracle.pp_divergence d);
    Printf.printf "\nshrunk to %d events:\n%s\n"
      (List.length shrunk.Ctrace.events)
      (Fmt.str "%a" Oracle.pp_divergence shrunk_d);
    Printf.printf "\n--- shrunk trace ---\n%s--- end trace ---\n"
      (Ctrace.to_string shrunk);
    Printf.printf "\nreproduce with: fuzz --replay-seed %d%s\n" trace_seed
      (match !sabotage with
      | Some Oracle.Cache_no_flush -> " --sabotage cache-no-flush"
      | None -> "");
    Option.iter
      (fun path ->
        Ctrace.save path shrunk;
        Printf.printf "shrunk trace written to %s\n" path)
      !save
  in
  match (!replay_file, !replay_seed) with
  | Some path, _ -> (
      match Ctrace.load path with
      | Error m ->
          Printf.eprintf "cannot load %s: %s\n" path m;
          exit 2
      | Ok trace -> (
          match
            Oracle.run ?configs:!configs ?sabotage:!sabotage trace
          with
          | Oracle.Agreed ->
              Printf.printf "%s: %d events, all configurations agree\n" path
                (List.length trace.Ctrace.events);
              exit 0
          | Oracle.Boot_failed m ->
              Printf.printf "%s: boot failed: %s\n" path m;
              exit 1
          | Oracle.Diverged d ->
              let shrunk, shrunk_d =
                Shrink.shrink ?configs:!configs ?sabotage:!sabotage trace d
              in
              report_divergence trace d ~shrunk ~shrunk_d;
              exit 1))
  | None, Some tseed -> (
      let trace, outcome =
        Engine.replay_seed ?n_events:!events ?configs:!configs
          ?sabotage:!sabotage tseed
      in
      match outcome with
      | Oracle.Agreed ->
          Printf.printf "seed %d: %d events, all configurations agree\n" tseed
            (List.length trace.Ctrace.events);
          exit 0
      | Oracle.Boot_failed m ->
          Printf.printf "seed %d: boot failed: %s\n" tseed m;
          exit 1
      | Oracle.Diverged d ->
          let shrunk, shrunk_d =
            Shrink.shrink ?configs:!configs ?sabotage:!sabotage trace d
          in
          report_divergence ~trace_seed:tseed trace d ~shrunk ~shrunk_d;
          exit 1)
  | None, None ->
      let t0 = Unix.gettimeofday () in
      let on_progress k =
        if (not !quiet) && k > 0 && k mod 50 = 0 then begin
          Printf.printf "  ... %d traces checked\n" k;
          flush stdout
        end
      in
      Printf.printf
        "conformance fuzz: %d traces, master seed %d, configurations: %s\n"
        !iters seed
        (String.concat ", "
           (Option.value !configs ~default:Oracle.all_configs));
      flush stdout;
      let report =
        Engine.run_campaign ~iters:!iters ?n_events:!events
          ?configs:!configs ?sabotage:!sabotage ~on_progress ~seed ()
      in
      let dt = Unix.gettimeofday () -. t0 in
      (match report.Engine.failure with
      | None ->
          Printf.printf
            "OK: %d traces (%d events) across %d configurations, zero \
             divergences (%.1f traces/s)\n"
            report.Engine.iters_run report.Engine.events_run
            (List.length (Option.value !configs ~default:Oracle.all_configs))
            (float_of_int report.Engine.iters_run /. dt);
          exit 0
      | Some f ->
          Printf.printf "iteration %d diverged after %.1fs\n" f.Engine.iter dt;
          report_divergence ~trace_seed:f.Engine.trace_seed f.Engine.trace
            f.Engine.divergence ~shrunk:f.Engine.shrunk
            ~shrunk_d:f.Engine.shrunk_divergence;
          exit 1)
