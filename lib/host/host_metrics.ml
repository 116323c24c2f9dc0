(** Fleet-wide counters and latency histograms (see the interface for
    the accounting identity the soak job enforces). *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* ------------------------------------------------------------------ *)
(* Histograms                                                          *)
(* ------------------------------------------------------------------ *)

(** Thirty-two buckets per decade of nanoseconds across 13 decades
    (1 ns to ~10000 s) — constant-time recording, and a quantile is
    read off the cumulative bucket walk.  Exact min/max are kept so the
    clamped quantiles never overshoot the observed range.  The
    per-decade resolution matters: at 8/decade a bucket spans 1.33×,
    which collapsed p50 and p99 to the same value whenever a fleet's
    latency spread fit one bucket (the B15 saturation bug); at
    32/decade a bucket spans 1.075×. *)
let buckets_per_decade = 32

let n_buckets = 13 * buckets_per_decade

type histogram = {
  mutable count : int;
  mutable sum : float;
  mutable vmin : float;
  mutable vmax : float;
  buckets : int array;
}

let histogram () =
  {
    count = 0;
    sum = 0.;
    vmin = infinity;
    vmax = neg_infinity;
    buckets = Array.make n_buckets 0;
  }

let bucket_of (v : float) : int =
  if v <= 1. then 0
  else
    min (n_buckets - 1)
      (int_of_float (float_of_int buckets_per_decade *. log10 v))

let record (h : histogram) (v : float) =
  let v = if v < 0. then 0. else v in
  h.count <- h.count + 1;
  h.sum <- h.sum +. v;
  if v < h.vmin then h.vmin <- v;
  if v > h.vmax then h.vmax <- v;
  let b = bucket_of v in
  h.buckets.(b) <- h.buckets.(b) + 1

let hist_count (h : histogram) = h.count

(** Bucket-wise union: counts, sums and extrema add exactly, so every
    quantile of the union is computed from the same log-bucket data the
    two inputs held — merging per-shard histograms loses nothing a
    single shared histogram would have kept (quantile-safe). *)
let union_histogram (a : histogram) (b : histogram) : histogram =
  {
    count = a.count + b.count;
    sum = a.sum +. b.sum;
    vmin = Float.min a.vmin b.vmin;
    vmax = Float.max a.vmax b.vmax;
    buckets = Array.init n_buckets (fun i -> a.buckets.(i) + b.buckets.(i));
  }

let quantile (h : histogram) (q : float) : float =
  if h.count = 0 then 0.
  else begin
    let q = Float.max 0. (Float.min 1. q) in
    let rank = max 1 (int_of_float (Float.round (q *. float_of_int h.count))) in
    let rec walk i cum =
      if i >= n_buckets then h.vmax
      else
        let cum = cum + h.buckets.(i) in
        if cum >= rank then
          (* the bucket's geometric centre *)
          Float.pow 10.
            ((float_of_int i +. 0.5) /. float_of_int buckets_per_decade)
        else walk (i + 1) cum
    in
    Float.max h.vmin (Float.min h.vmax (walk 0 0))
  end

(* ------------------------------------------------------------------ *)
(* Counters                                                            *)
(* ------------------------------------------------------------------ *)

type t = {
  mutable events_in : int;
  mutable events_processed : int;
  mutable events_dropped : int;
  mutable events_rejected : int;
  mutable taps_hit : int;
  mutable taps_missed : int;
  mutable ticks : int;
  mutable repaints : int;
  mutable coalesced_renders : int;
  mutable updates_applied : int;
  mutable updates_rejected : int;
  mutable sessions_spawned : int;
  mutable sessions_killed : int;
  mutable fanout_last_ns : float;
  mutable typecheck_last_ns : float;
  mutable diff_last_ns : float;
  mutable compile_last_ns : float;
  mutable dirty_defs_last : int;
  mutable recheck_defs_last : int;
  mutable broadcasts_incremental : int;
  mutable broadcasts_scratch : int;
  mutable rollouts_begun : int;
  mutable rollouts_promoted : int;
  mutable rollouts_rolled_back : int;
  mutable canary_sessions_last : int;
  tick_latency : histogram;
  update_fanout : histogram;
  update_typecheck : histogram;
}

let create () =
  {
    events_in = 0;
    events_processed = 0;
    events_dropped = 0;
    events_rejected = 0;
    taps_hit = 0;
    taps_missed = 0;
    ticks = 0;
    repaints = 0;
    coalesced_renders = 0;
    updates_applied = 0;
    updates_rejected = 0;
    sessions_spawned = 0;
    sessions_killed = 0;
    fanout_last_ns = 0.;
    typecheck_last_ns = 0.;
    diff_last_ns = 0.;
    compile_last_ns = 0.;
    dirty_defs_last = 0;
    recheck_defs_last = 0;
    broadcasts_incremental = 0;
    broadcasts_scratch = 0;
    rollouts_begun = 0;
    rollouts_promoted = 0;
    rollouts_rolled_back = 0;
    canary_sessions_last = 0;
    tick_latency = histogram ();
    update_fanout = histogram ();
    update_typecheck = histogram ();
  }

(** Sum of two metric instances, as a fresh instance (the inputs keep
    counting).  This is how the director turns its shards' exported
    instances into fleet totals: every counter adds, both histograms
    union bucket-wise, and [fanout_last_ns] takes the non-zero side.

    Because addition is exact, the accounting identity is preserved:
    if [in_a = processed_a + dropped_a + rejected_a + pending_a] and
    likewise for [b], the merged snapshot satisfies it with the summed
    pending.  [test/test_host.ml] checks this as a unit test. *)
let merge (a : t) (b : t) : t =
  {
    events_in = a.events_in + b.events_in;
    events_processed = a.events_processed + b.events_processed;
    events_dropped = a.events_dropped + b.events_dropped;
    events_rejected = a.events_rejected + b.events_rejected;
    taps_hit = a.taps_hit + b.taps_hit;
    taps_missed = a.taps_missed + b.taps_missed;
    ticks = a.ticks + b.ticks;
    repaints = a.repaints + b.repaints;
    coalesced_renders = a.coalesced_renders + b.coalesced_renders;
    updates_applied = a.updates_applied + b.updates_applied;
    updates_rejected = a.updates_rejected + b.updates_rejected;
    sessions_spawned = a.sessions_spawned + b.sessions_spawned;
    sessions_killed = a.sessions_killed + b.sessions_killed;
    fanout_last_ns =
      (if b.fanout_last_ns <> 0. then b.fanout_last_ns else a.fanout_last_ns);
    typecheck_last_ns =
      (if b.typecheck_last_ns <> 0. then b.typecheck_last_ns
       else a.typecheck_last_ns);
    diff_last_ns =
      (if b.diff_last_ns <> 0. then b.diff_last_ns else a.diff_last_ns);
    compile_last_ns =
      (if b.compile_last_ns <> 0. then b.compile_last_ns else a.compile_last_ns);
    dirty_defs_last =
      (if b.broadcasts_incremental + b.broadcasts_scratch > 0 then
         b.dirty_defs_last
       else a.dirty_defs_last);
    recheck_defs_last =
      (if b.broadcasts_incremental + b.broadcasts_scratch > 0 then
         b.recheck_defs_last
       else a.recheck_defs_last);
    broadcasts_incremental = a.broadcasts_incremental + b.broadcasts_incremental;
    broadcasts_scratch = a.broadcasts_scratch + b.broadcasts_scratch;
    rollouts_begun = a.rollouts_begun + b.rollouts_begun;
    rollouts_promoted = a.rollouts_promoted + b.rollouts_promoted;
    rollouts_rolled_back = a.rollouts_rolled_back + b.rollouts_rolled_back;
    canary_sessions_last =
      (if b.rollouts_begun > 0 then b.canary_sessions_last
       else a.canary_sessions_last);
    tick_latency = union_histogram a.tick_latency b.tick_latency;
    update_fanout = union_histogram a.update_fanout b.update_fanout;
    update_typecheck = union_histogram a.update_typecheck b.update_typecheck;
  }

let merge_all (ms : t list) : t = List.fold_left merge (create ()) ms

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)
(* ------------------------------------------------------------------ *)

type snapshot = {
  sessions : int;
  s_events_in : int;
  s_events_processed : int;
  s_events_dropped : int;
  s_events_rejected : int;
  s_pending : int;
  s_taps_hit : int;
  s_taps_missed : int;
  s_ticks : int;
  s_repaints : int;
  s_coalesced_renders : int;
  s_updates_applied : int;
  s_updates_rejected : int;
  s_sessions_spawned : int;
  s_sessions_killed : int;
  cache_hits : int;
  cache_misses : int;
  cache_hit_rate : float;
  tick_p50_ns : float;
  tick_p99_ns : float;
  fanout_p50_ns : float;
  fanout_p99_ns : float;
  fanout_last_ns : float;
  s_typecheck_last_ns : float;
  s_diff_last_ns : float;
  s_compile_last_ns : float;
  s_typecheck_p50_ns : float;
  s_typecheck_p99_ns : float;
  s_dirty_defs_last : int;
  s_recheck_defs_last : int;
  s_broadcasts_incremental : int;
  s_broadcasts_scratch : int;
  s_rollouts_begun : int;
  s_rollouts_promoted : int;
  s_rollouts_rolled_back : int;
  s_canary_sessions_last : int;
}

let snapshot (m : t) ~(sessions : int) ~(pending : int)
    ~(cache : (int * int) option) : snapshot =
  let cache_hits, cache_misses = Option.value cache ~default:(0, 0) in
  let cache_hit_rate =
    match cache with
    | Some (h, ms) when h + ms > 0 -> float_of_int h /. float_of_int (h + ms)
    | _ -> Float.nan
  in
  {
    sessions;
    s_events_in = m.events_in;
    s_events_processed = m.events_processed;
    s_events_dropped = m.events_dropped;
    s_events_rejected = m.events_rejected;
    s_pending = pending;
    s_taps_hit = m.taps_hit;
    s_taps_missed = m.taps_missed;
    s_ticks = m.ticks;
    s_repaints = m.repaints;
    s_coalesced_renders = m.coalesced_renders;
    s_updates_applied = m.updates_applied;
    s_updates_rejected = m.updates_rejected;
    s_sessions_spawned = m.sessions_spawned;
    s_sessions_killed = m.sessions_killed;
    cache_hits;
    cache_misses;
    cache_hit_rate;
    tick_p50_ns = quantile m.tick_latency 0.5;
    tick_p99_ns = quantile m.tick_latency 0.99;
    fanout_p50_ns = quantile m.update_fanout 0.5;
    fanout_p99_ns = quantile m.update_fanout 0.99;
    fanout_last_ns = m.fanout_last_ns;
    s_typecheck_last_ns = m.typecheck_last_ns;
    s_diff_last_ns = m.diff_last_ns;
    s_compile_last_ns = m.compile_last_ns;
    s_typecheck_p50_ns = quantile m.update_typecheck 0.5;
    s_typecheck_p99_ns = quantile m.update_typecheck 0.99;
    s_dirty_defs_last = m.dirty_defs_last;
    s_recheck_defs_last = m.recheck_defs_last;
    s_broadcasts_incremental = m.broadcasts_incremental;
    s_broadcasts_scratch = m.broadcasts_scratch;
    s_rollouts_begun = m.rollouts_begun;
    s_rollouts_promoted = m.rollouts_promoted;
    s_rollouts_rolled_back = m.rollouts_rolled_back;
    s_canary_sessions_last = m.canary_sessions_last;
  }

let accounting_ok (s : snapshot) : bool =
  s.s_events_in
  = s.s_events_processed + s.s_events_dropped + s.s_events_rejected
    + s.s_pending

let pp_ns (ns : float) : string =
  if Float.is_nan ns then "n/a"
  else if ns < 1e3 then Printf.sprintf "%.0f ns" ns
  else if ns < 1e6 then Printf.sprintf "%.1f us" (ns /. 1e3)
  else if ns < 1e9 then Printf.sprintf "%.2f ms" (ns /. 1e6)
  else Printf.sprintf "%.2f s" (ns /. 1e9)

(* ------------------------------------------------------------------ *)
(* Machine-readable export (cross-process aggregation)                 *)
(* ------------------------------------------------------------------ *)

type exported = {
  x_metrics : t;
  x_sessions : int;
  x_pending : int;
  x_cache : (int * int) option;
}

(* Raw counters and histogram buckets — not the snapshot — cross the
   wire, so the director can [merge_all] exactly and recompute
   quantiles over the union; precomputed per-shard quantiles could not
   be combined quantile-safely. *)
let export (m : t) ~(sessions : int) ~(pending : int)
    ~(cache : (int * int) option) : string =
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun l -> Buffer.add_string b (l ^ "\n")) fmt in
  line "metrics 2";
  line "sessions %d" sessions;
  line "pending %d" pending;
  (match cache with
  | None -> line "cache none"
  | Some (h, ms) -> line "cache %d %d" h ms);
  line "events_in %d" m.events_in;
  line "events_processed %d" m.events_processed;
  line "events_dropped %d" m.events_dropped;
  line "events_rejected %d" m.events_rejected;
  line "taps_hit %d" m.taps_hit;
  line "taps_missed %d" m.taps_missed;
  line "ticks %d" m.ticks;
  line "repaints %d" m.repaints;
  line "coalesced_renders %d" m.coalesced_renders;
  line "updates_applied %d" m.updates_applied;
  line "updates_rejected %d" m.updates_rejected;
  line "sessions_spawned %d" m.sessions_spawned;
  line "sessions_killed %d" m.sessions_killed;
  line "fanout_last_ns %h" m.fanout_last_ns;
  line "typecheck_last_ns %h" m.typecheck_last_ns;
  line "diff_last_ns %h" m.diff_last_ns;
  line "compile_last_ns %h" m.compile_last_ns;
  line "dirty_defs_last %d" m.dirty_defs_last;
  line "recheck_defs_last %d" m.recheck_defs_last;
  line "broadcasts_incremental %d" m.broadcasts_incremental;
  line "broadcasts_scratch %d" m.broadcasts_scratch;
  line "rollouts_begun %d" m.rollouts_begun;
  line "rollouts_promoted %d" m.rollouts_promoted;
  line "rollouts_rolled_back %d" m.rollouts_rolled_back;
  line "canary_sessions_last %d" m.canary_sessions_last;
  let hist name (h : histogram) =
    Buffer.add_string b
      (Printf.sprintf "hist %s %d %h %h %h" name h.count h.sum h.vmin h.vmax);
    Array.iteri
      (fun i c ->
        if c > 0 then Buffer.add_string b (Printf.sprintf " %d:%d" i c))
      h.buckets;
    Buffer.add_char b '\n'
  in
  hist "tick_latency" m.tick_latency;
  hist "update_fanout" m.update_fanout;
  hist "update_typecheck" m.update_typecheck;
  Buffer.contents b

let import (text : string) : (exported, string) result =
  let fail m = Error m in
  let lines =
    String.split_on_char '\n' text |> List.filter (fun l -> l <> "")
  in
  match lines with
  | "metrics 2" :: rest -> (
      let m = create () in
      let sessions = ref 0 and pending = ref 0 in
      let cache = ref None in
      let bad = ref None in
      let int_field v k =
        match int_of_string_opt v with
        | Some n -> k n
        | None -> bad := Some (Printf.sprintf "malformed integer %S" v)
      in
      let float_field v k =
        match float_of_string_opt v with
        | Some f -> k f
        | None -> bad := Some (Printf.sprintf "malformed float %S" v)
      in
      let parse_hist (h : histogram) = function
        | count :: sum :: vmin :: vmax :: buckets ->
            int_field count (fun n -> h.count <- n);
            float_field sum (fun f -> h.sum <- f);
            float_field vmin (fun f -> h.vmin <- f);
            float_field vmax (fun f -> h.vmax <- f);
            List.iter
              (fun pair ->
                match String.index_opt pair ':' with
                | Some i -> (
                    let bi = String.sub pair 0 i in
                    let bc =
                      String.sub pair (i + 1) (String.length pair - i - 1)
                    in
                    match (int_of_string_opt bi, int_of_string_opt bc) with
                    | Some bi, Some bc when bi >= 0 && bi < n_buckets ->
                        h.buckets.(bi) <- bc
                    | _ -> bad := Some (Printf.sprintf "malformed bucket %S" pair)
                    )
                | None -> bad := Some (Printf.sprintf "malformed bucket %S" pair))
              buckets
        | _ -> bad := Some "truncated histogram line"
      in
      List.iter
        (fun line ->
          match String.split_on_char ' ' line with
          | [ "sessions"; v ] -> int_field v (fun n -> sessions := n)
          | [ "pending"; v ] -> int_field v (fun n -> pending := n)
          | [ "cache"; "none" ] -> cache := None
          | [ "cache"; h; ms ] ->
              int_field h (fun hv ->
                  int_field ms (fun mv -> cache := Some (hv, mv)))
          | [ "events_in"; v ] -> int_field v (fun n -> m.events_in <- n)
          | [ "events_processed"; v ] ->
              int_field v (fun n -> m.events_processed <- n)
          | [ "events_dropped"; v ] ->
              int_field v (fun n -> m.events_dropped <- n)
          | [ "events_rejected"; v ] ->
              int_field v (fun n -> m.events_rejected <- n)
          | [ "taps_hit"; v ] -> int_field v (fun n -> m.taps_hit <- n)
          | [ "taps_missed"; v ] -> int_field v (fun n -> m.taps_missed <- n)
          | [ "ticks"; v ] -> int_field v (fun n -> m.ticks <- n)
          | [ "repaints"; v ] -> int_field v (fun n -> m.repaints <- n)
          | [ "coalesced_renders"; v ] ->
              int_field v (fun n -> m.coalesced_renders <- n)
          | [ "updates_applied"; v ] ->
              int_field v (fun n -> m.updates_applied <- n)
          | [ "updates_rejected"; v ] ->
              int_field v (fun n -> m.updates_rejected <- n)
          | [ "sessions_spawned"; v ] ->
              int_field v (fun n -> m.sessions_spawned <- n)
          | [ "sessions_killed"; v ] ->
              int_field v (fun n -> m.sessions_killed <- n)
          | [ "fanout_last_ns"; v ] ->
              float_field v (fun f -> m.fanout_last_ns <- f)
          | [ "typecheck_last_ns"; v ] ->
              float_field v (fun f -> m.typecheck_last_ns <- f)
          | [ "diff_last_ns"; v ] -> float_field v (fun f -> m.diff_last_ns <- f)
          | [ "compile_last_ns"; v ] ->
              float_field v (fun f -> m.compile_last_ns <- f)
          | [ "dirty_defs_last"; v ] ->
              int_field v (fun n -> m.dirty_defs_last <- n)
          | [ "recheck_defs_last"; v ] ->
              int_field v (fun n -> m.recheck_defs_last <- n)
          | [ "broadcasts_incremental"; v ] ->
              int_field v (fun n -> m.broadcasts_incremental <- n)
          | [ "broadcasts_scratch"; v ] ->
              int_field v (fun n -> m.broadcasts_scratch <- n)
          | [ "rollouts_begun"; v ] -> int_field v (fun n -> m.rollouts_begun <- n)
          | [ "rollouts_promoted"; v ] ->
              int_field v (fun n -> m.rollouts_promoted <- n)
          | [ "rollouts_rolled_back"; v ] ->
              int_field v (fun n -> m.rollouts_rolled_back <- n)
          | [ "canary_sessions_last"; v ] ->
              int_field v (fun n -> m.canary_sessions_last <- n)
          | "hist" :: "tick_latency" :: rest -> parse_hist m.tick_latency rest
          | "hist" :: "update_fanout" :: rest -> parse_hist m.update_fanout rest
          | "hist" :: "update_typecheck" :: rest ->
              parse_hist m.update_typecheck rest
          | _ -> bad := Some (Printf.sprintf "unknown metrics line %S" line))
        rest;
      match !bad with
      | Some m -> fail m
      | None ->
          Ok
            {
              x_metrics = m;
              x_sessions = !sessions;
              x_pending = !pending;
              x_cache = !cache;
            })
  | _ -> fail "not a metrics export"

let merge_exported (xs : exported list) : snapshot =
  let m = merge_all (List.map (fun x -> x.x_metrics) xs) in
  let sessions = List.fold_left (fun acc x -> acc + x.x_sessions) 0 xs in
  let pending = List.fold_left (fun acc x -> acc + x.x_pending) 0 xs in
  let cache =
    if List.for_all (fun x -> x.x_cache = None) xs then None
    else
      Some
        (List.fold_left
           (fun (h, ms) x ->
             let xh, xm = Option.value x.x_cache ~default:(0, 0) in
             (h + xh, ms + xm))
           (0, 0) xs)
  in
  snapshot m ~sessions ~pending ~cache

let to_string (s : snapshot) : string =
  let b = Buffer.create 512 in
  let line fmt = Printf.ksprintf (fun l -> Buffer.add_string b (l ^ "\n")) fmt in
  line "host metrics";
  line "  sessions          %6d  (spawned %d, killed %d)" s.sessions
    s.s_sessions_spawned s.s_sessions_killed;
  line "  events in         %6d  processed %d  dropped %d  rejected %d  pending %d"
    s.s_events_in s.s_events_processed s.s_events_dropped s.s_events_rejected
    s.s_pending;
  line "  taps              %6d  hit / %d missed" s.s_taps_hit s.s_taps_missed;
  line "  scheduler         %6d  ticks; latency p50 %s, p99 %s" s.s_ticks
    (pp_ns s.tick_p50_ns) (pp_ns s.tick_p99_ns);
  line "  renders           %6d  repaints, %d coalesced" s.s_repaints
    s.s_coalesced_renders;
  (if s.cache_hits + s.cache_misses > 0 then
     line "  render cache      %6d  hits / %d misses (%.1f%% hit rate)"
       s.cache_hits s.cache_misses (100. *. s.cache_hit_rate)
   else line "  render cache         off");
  line "  broadcast         %6d  applied, %d rejected" s.s_updates_applied
    s.s_updates_rejected;
  line "  update fan-out    p50 %s, p99 %s, last %s" (pp_ns s.fanout_p50_ns)
    (pp_ns s.fanout_p99_ns) (pp_ns s.fanout_last_ns);
  (if s.s_broadcasts_incremental + s.s_broadcasts_scratch > 0 then begin
     line "  typecheck         p50 %s, p99 %s, last %s (%d incremental, %d scratch)"
       (pp_ns s.s_typecheck_p50_ns) (pp_ns s.s_typecheck_p99_ns)
       (pp_ns s.s_typecheck_last_ns) s.s_broadcasts_incremental
       s.s_broadcasts_scratch;
     line "  last edit         %d dirty defs, %d rechecked; diff %s, compile %s"
       s.s_dirty_defs_last s.s_recheck_defs_last (pp_ns s.s_diff_last_ns)
       (pp_ns s.s_compile_last_ns)
   end);
  (if s.s_rollouts_begun > 0 then
     line "  rollouts          %6d  begun: %d promoted, %d rolled back (last canary %d sessions)"
       s.s_rollouts_begun s.s_rollouts_promoted s.s_rollouts_rolled_back
       s.s_canary_sessions_last);
  line "  accounting        %s"
    (if accounting_ok s then "ok (in = processed + dropped + rejected + pending)"
     else "MISMATCH");
  Buffer.contents b
