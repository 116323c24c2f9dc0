(** The batching scheduler (see the interface for the coalescing
    argument). *)

module Session = Live_runtime.Session
module Machine = Live_core.Machine

type policy = Round_robin | Hottest_first

let policy_to_string = function
  | Round_robin -> "round-robin"
  | Hottest_first -> "hottest-first"

let policy_of_string = function
  | "round-robin" -> Some Round_robin
  | "hottest-first" -> Some Hottest_first
  | _ -> None

type t = {
  reg : Registry.t;
  policy : policy;
  batch : int;
  mutable cursor : int;  (** round-robin rotation *)
}

let create ?(policy = Round_robin) ?(batch = 8) (reg : Registry.t) : t =
  { reg; policy; batch = max 1 batch; cursor = 0 }

type tick_report = {
  processed : int;
  sessions_served : int;
  repaints : int;
  coalesced : int;
  taps_hit : int;
  taps_missed : int;
  errors : (Registry.id * Machine.error) list;
  latency_ns : float;
}

(** The service order for this tick, over the sessions with pending
    input only.  Round-robin rotates the spawn ring by one each tick:
    ids rise in spawn order, so the ring rotated by [k] is the ready
    ids from the [k]-th live id on, then the rest.  Hottest-first sorts
    by pending backlog (ties by id, so the order is deterministic). *)
let service_order (t : t) : Registry.id list =
  let ready = Registry.ready t.reg in
  match t.policy with
  | Round_robin ->
      let n = Registry.size t.reg in
      if n = 0 then []
      else begin
        let pivot = Registry.id_at t.reg (t.cursor mod n) in
        t.cursor <- t.cursor + 1;
        let later, earlier = List.partition (fun id -> id >= pivot) ready in
        later @ earlier
      end
  | Hottest_first ->
      List.stable_sort
        (fun a b ->
          match compare (Registry.pending t.reg b) (Registry.pending t.reg a) with
          | 0 -> compare a b
          | c -> c)
        ready

let tick (t : t) : tick_report =
  let t0 = Host_metrics.now () in
  let m = Registry.metrics t.reg in
  let processed = ref 0 in
  let served = ref 0 in
  let taps_hit = ref 0 in
  let taps_missed = ref 0 in
  let errors = ref [] in
  List.iter
    (fun id ->
      match Registry.session t.reg id with
      | None -> ()
      | Some s ->
          let n = ref 0 in
          let continue = ref true in
          while !continue && !n < t.batch do
            match Registry.take t.reg id with
            | None -> continue := false
            | Some ev -> (
                incr n;
                match ev with
                | Registry.Tap { x; y } -> (
                    match Session.tap s ~x ~y with
                    | Ok Session.Tapped -> incr taps_hit
                    | Ok Session.No_handler -> incr taps_missed
                    | Error e -> errors := (id, e) :: !errors)
                | Registry.Back -> (
                    match Session.back s with
                    | Ok () -> ()
                    | Error e -> errors := (id, e) :: !errors))
          done;
          if !n > 0 then begin
            (* the batch's single frame: paint once however many
               events the session just absorbed *)
            Session.paint s;
            processed := !processed + !n;
            incr served
          end)
    (service_order t);
  let latency_ns = (Host_metrics.now () -. t0) *. 1e9 in
  m.Host_metrics.ticks <- m.Host_metrics.ticks + 1;
  m.Host_metrics.events_processed <-
    m.Host_metrics.events_processed + !processed;
  m.Host_metrics.taps_hit <- m.Host_metrics.taps_hit + !taps_hit;
  m.Host_metrics.taps_missed <- m.Host_metrics.taps_missed + !taps_missed;
  m.Host_metrics.repaints <- m.Host_metrics.repaints + !served;
  m.Host_metrics.coalesced_renders <-
    m.Host_metrics.coalesced_renders + (!processed - !served);
  Host_metrics.record m.Host_metrics.tick_latency latency_ns;
  {
    processed = !processed;
    sessions_served = !served;
    repaints = !served;
    coalesced = !processed - !served;
    taps_hit = !taps_hit;
    taps_missed = !taps_missed;
    errors = List.rev !errors;
    latency_ns;
  }

let drain ?(max_ticks = 1_000_000) (t : t) : (int, string) result =
  let rec go k total =
    if Registry.total_pending t.reg = 0 then Ok total
    else if k <= 0 then
      Error
        (Printf.sprintf "drain: %d events still pending after %d ticks"
           (Registry.total_pending t.reg) max_ticks)
    else
      let r = tick t in
      if r.processed = 0 && Registry.total_pending t.reg > 0 then
        Error "drain: pending events but a tick processed nothing"
      else go (k - 1) (total + r.processed)
  in
  go max_ticks 0
