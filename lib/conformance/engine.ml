module Prng = Live_core.Prng

let default_events = 24

let gen_trace ?(n_events = default_events) ?(mutants = 2) ~(seed : int) () :
    Ctrace.t =
  let rng = Prng.create seed in
  let base = Mutate.base_pool () in
  (* grow the pool with seeded fixup-aware mutants of random bases *)
  let extra = ref [] in
  for _ = 1 to mutants do
    match Mutate.mutate rng (Prng.pick rng base) with
    | Some src -> extra := src :: !extra
    | None -> ()
  done;
  (* ... and one transaction-sized change set (2–4 stacked edits), so
     Begin_txn events can stage the edit class rollouts exist for *)
  (match Mutate.transaction rng (Prng.pick rng base) with
  | Some src -> extra := src :: !extra
  | None -> ());
  let pool = Array.append base (Array.of_list (List.rev !extra)) in
  (* any pool entry may boot the trace; slot 0 is the boot slot *)
  let b = Prng.int rng (Array.length pool) in
  let tmp = pool.(0) in
  pool.(0) <- pool.(b);
  pool.(b) <- tmp;
  let n = 1 + Prng.int rng (max 1 n_events) in
  let rec gen acc k =
    if k <= 0 then List.rev acc
    else
      let w = Prng.int rng 22 in
      if w < 8 then
        gen
          (Ctrace.Tap { x = Prng.int rng 46; y = Prng.int rng 40 } :: acc)
          (k - 1)
      else if w < 10 then gen (Ctrace.Back :: acc) (k - 1)
      else if w < 13 then
        gen (Ctrace.Update (Prng.int rng (Array.length pool)) :: acc) (k - 1)
      else if w < 14 then begin
        (* an UPDATE storm: consecutive code swaps with no interaction
           in between — the mid-trace stress for the fixup path *)
        let burst = 2 + Prng.int rng 3 in
        let acc = ref acc in
        for _ = 1 to burst do
          acc := Ctrace.Update (Prng.int rng (Array.length pool)) :: !acc
        done;
        gen !acc (k - 1)
      end
      else if w < 15 then gen (Ctrace.Broken_update :: acc) (k - 1)
      else if w < 16 then gen (Ctrace.Render :: acc) (k - 1)
      else if w < 17 then gen (Ctrace.Flush_cache :: acc) (k - 1)
      else if w < 18 then gen (Ctrace.Drop_next :: acc) (k - 1)
      else if w < 19 then gen (Ctrace.Dup_next :: acc) (k - 1)
      else begin
        (* a staged-rollout block: stage a change set, canary it under
           a little interleaved traffic, then resolve it the way it
           was opened to — the full edit-transaction lifecycle in one
           generated unit (the shrinker may still tear it apart, which
           the oracle's resolution rule handles) *)
        let promote = Prng.bool rng in
        let prog = Prng.int rng (Array.length pool) in
        let acc = ref (Ctrace.Begin_txn { prog; promote } :: acc) in
        let traffic () =
          for _ = 1 to Prng.int rng 3 do
            acc :=
              Ctrace.Tap { x = Prng.int rng 46; y = Prng.int rng 40 } :: !acc
          done
        in
        traffic ();
        acc := Ctrace.Canary :: !acc;
        traffic ();
        acc := (if promote then Ctrace.Promote else Ctrace.Rollback) :: !acc;
        gen !acc (k - 1)
      end
  in
  { Ctrace.seed; pool; events = gen [] n }

type failure = {
  iter : int;
  trace_seed : int;
  trace : Ctrace.t;
  divergence : Oracle.divergence;
  shrunk : Ctrace.t;
  shrunk_divergence : Oracle.divergence;
}

type report = {
  iters_run : int;
  events_run : int;
  failure : failure option;
}

let run_campaign ?(iters = 100) ?n_events ?width ?configs ?sabotage
    ?shrink_budget ?(on_progress = fun _ -> ()) ~(seed : int) () : report =
  let events_run = ref 0 in
  let rec go k =
    if k >= iters then { iters_run = iters; events_run = !events_run; failure = None }
    else begin
      on_progress k;
      let trace_seed = Prng.derive seed k in
      let trace = gen_trace ?n_events ~seed:trace_seed () in
      events_run := !events_run + List.length trace.Ctrace.events;
      match Oracle.run ?width ?configs ?sabotage trace with
      | Oracle.Agreed -> go (k + 1)
      | Oracle.Boot_failed _ ->
          (* the generator only emits compiling boot programs; treat a
             failure to boot as a skipped iteration *)
          go (k + 1)
      | Oracle.Diverged d ->
          let shrunk, shrunk_d =
            Shrink.shrink ?budget:shrink_budget ?width ?configs ?sabotage
              trace d
          in
          {
            iters_run = k + 1;
            events_run = !events_run;
            failure =
              Some
                {
                  iter = k;
                  trace_seed;
                  trace;
                  divergence = d;
                  shrunk;
                  shrunk_divergence = shrunk_d;
                };
          }
    end
  in
  go 0

let replay_seed ?n_events ?width ?configs ?sabotage (trace_seed : int) :
    Ctrace.t * Oracle.outcome =
  let trace = gen_trace ?n_events ~seed:trace_seed () in
  (trace, Oracle.run ?width ?configs ?sabotage trace)
