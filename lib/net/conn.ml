(** One nonblocking wire peer (see the interface). *)

exception Failed of string

let reply_timeout = 60.
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

type listener = { lfd : Unix.file_descr; path : string }

type t = {
  fd : Unix.file_descr;
  inbuf : Buffer.t;
  mutable pending : string;
      (** the write in flight; bytes before [off] are sent *)
  mutable off : int;
  staging : Buffer.t;  (** frames staged since the last promote *)
  scratch : Buffer.t;  (** body scratch for {!Wire.encode_into} *)
  mutable closing : bool;
  mutable bytes_in : int;
  mutable bytes_out : int;
}

let of_fd (fd : Unix.file_descr) : t =
  (* a peer hanging up mid-write must surface as EPIPE on that write,
     not kill the process *)
  if Sys.os_type = "Unix" then Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Unix.set_nonblock fd;
  {
    fd;
    inbuf = Buffer.create 4096;
    pending = "";
    off = 0;
    staging = Buffer.create 4096;
    scratch = Buffer.create 256;
    closing = false;
    bytes_in = 0;
    bytes_out = 0;
  }

let fd (c : t) = c.fd
let close (c : t) = try Unix.close c.fd with Unix.Unix_error _ -> ()
let closing (c : t) = c.closing
let bytes_in (c : t) = c.bytes_in
let bytes_out (c : t) = c.bytes_out
let buffered (c : t) = Buffer.length c.inbuf > 0

let has_output (c : t) : bool =
  String.length c.pending > c.off || Buffer.length c.staging > 0

(* ------------------------------------------------------------------ *)
(* Set-up                                                              *)
(* ------------------------------------------------------------------ *)

let listen (path : string) : listener =
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let lfd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_nonblock lfd;
  (try
     Unix.bind lfd (Unix.ADDR_UNIX path);
     Unix.listen lfd 64
   with e ->
     Unix.close lfd;
     raise e);
  { lfd; path }

let close_listener (l : listener) : unit =
  (try Unix.close l.lfd with Unix.Unix_error _ -> ());
  try Unix.unlink l.path with Unix.Unix_error _ -> ()

let rec accept (l : listener) : t list =
  match Unix.accept ~cloexec:true l.lfd with
  | fd, _ ->
      let c = of_fd fd in
      c :: accept l
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept l
  | exception Unix.Unix_error _ -> []

let connect ?(timeout = 0.) (path : string) : t =
  let deadline = now () +. timeout in
  let rec attempt () =
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> of_fd fd
    | exception (Unix.Unix_error _ as e) ->
        Unix.close fd;
        if now () < deadline then begin
          Unix.sleepf 0.05;
          attempt ()
        end
        else raise e
  in
  attempt ()

(* ------------------------------------------------------------------ *)
(* Input                                                               *)
(* ------------------------------------------------------------------ *)

let chunk = Bytes.create 65536

let rec read (c : t) : unit =
  match Unix.read c.fd chunk 0 (Bytes.length chunk) with
  | 0 -> raise (Failed "connection closed")
  | n ->
      c.bytes_in <- c.bytes_in + n;
      Buffer.add_subbytes c.inbuf chunk 0 n;
      if n = Bytes.length chunk then read c
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> read c
  | exception Unix.Unix_error (e, _, _) ->
      raise (Failed ("read: " ^ Unix.error_message e))

(* [Buffer.contents] once per pass, not once per frame; the undecoded
   tail is kept, and a closing connection's input is dropped. *)
let frames ?raw (c : t) (handle : Wire.frame -> bool) : string option =
  if Buffer.length c.inbuf = 0 then None
  else begin
    let data = Buffer.contents c.inbuf in
    let len = String.length data in
    let taken off =
      match raw with
      | None -> None
      | Some take -> (
          match Wire.peek ~off data with
          | Wire.Raw r when take data r -> Some r.Wire.r_total
          | _ -> None)
    in
    let rec go off =
      if off >= len || c.closing then (off, None)
      else
        match taken off with
        | Some n -> go (off + n)
        | None -> (
            match Wire.decode ~off data with
            | Wire.Frame (f, n) ->
                if handle f then go (off + n) else (off + n, None)
            | Wire.Need_more -> (off, None)
            | Wire.Corrupt m -> (off, Some m))
    in
    let off, corrupt = go 0 in
    if c.closing || off = len then Buffer.clear c.inbuf
    else if off > 0 then begin
      Buffer.clear c.inbuf;
      Buffer.add_substring c.inbuf data off (len - off)
    end;
    corrupt
  end

let next (c : t) : Wire.host_frame option =
  let got = ref None in
  (match frames c (fun f -> got := Some f; false) with
  | Some m -> raise (Failed ("corrupt stream: " ^ m))
  | None -> ());
  match !got with
  | Some (Wire.Host f) -> Some f
  | Some (Wire.Client _) -> raise (Failed "client-tagged frame from a host")
  | None -> None

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

let send (c : t) (f : Wire.frame) : unit =
  Wire.encode_into ~scratch:c.scratch c.staging f

let relay (c : t) (data : string) (r : Wire.raw) ~(session : int) : unit =
  Wire.relay_rewrite c.staging data r ~session

(* When the write in flight completes, the whole staging buffer — every
   frame sent since the last promote — becomes the next write: one
   syscall per tick per connection in the common case. *)
let rec flush (c : t) : unit =
  let remaining = String.length c.pending - c.off in
  if remaining = 0 then begin
    if Buffer.length c.staging > 0 then begin
      c.pending <- Buffer.contents c.staging;
      Buffer.clear c.staging;
      c.off <- 0;
      flush c
    end
  end
  else
    match Unix.write_substring c.fd c.pending c.off remaining with
    | n ->
        c.bytes_out <- c.bytes_out + n;
        c.off <- c.off + n;
        if n = remaining then flush c
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> flush c
    | exception Unix.Unix_error (e, _, _) ->
        raise (Failed ("write: " ^ Unix.error_message e))

let close_after_flush (c : t) : unit = c.closing <- true

let flush_live (c : t) : bool =
  match flush c with
  | () -> (not c.closing) || has_output c
  | exception Failed _ -> false

(* ------------------------------------------------------------------ *)
(* Waiting                                                             *)
(* ------------------------------------------------------------------ *)

let select ?listener (conns : t list) (timeout : float) :
    bool * Unix.file_descr list =
  let reads =
    List.filter_map (fun c -> if c.closing then None else Some c.fd) conns
  in
  let reads = match listener with Some l -> l.lfd :: reads | None -> reads in
  let writes =
    List.filter_map (fun c -> if has_output c then Some c.fd else None) conns
  in
  let deadline = now () +. timeout in
  (* an interrupted select is retried for the time it has left, never
     mistaken for an idle tick *)
  let rec wait timeout =
    match Unix.select reads writes [] timeout with
    | readable, _, _ -> readable
    | exception Unix.Unix_error (Unix.EINTR, _, _) ->
        wait (Float.max 0. (deadline -. now ()))
  in
  let readable = wait timeout in
  match listener with
  | Some l when List.mem l.lfd readable ->
      (true, List.filter (fun fd -> fd <> l.lfd) readable)
  | _ -> (false, readable)

let poll ?(pump = ignore) (conns : t list) (timeout : float) : bool =
  pump ();
  let _, readable = select conns timeout in
  List.iter (fun c -> if List.mem c.fd readable then read c) conns;
  readable <> []

(* The first poll does not sleep: a request relayed through in-process
   peers (client -> director -> shard and back) needs a second pump
   before its reply can arrive. *)
let await ?pump (conns : t list) (check : unit -> 'a option) : 'a =
  let moved () =
    List.fold_left (fun n c -> n + c.bytes_in + c.bytes_out) 0 conns
  in
  let rec go wait seen deadline =
    match check () with
    | Some v -> v
    | None ->
        if now () > deadline then
          raise (Failed (Printf.sprintf "no reply within %.0f s" reply_timeout));
        ignore (poll ?pump conns wait);
        let m = moved () in
        go 0.001 m (if m <> seen then now () +. reply_timeout else deadline)
  in
  go 0. (moved ()) (now () +. reply_timeout)

let push ?pump (c : t) : unit =
  await ?pump [ c ] (fun () ->
      flush c;
      if has_output c then None else Some ())

let rpc ?pump (c : t) (req : Wire.frame) (check : unit -> 'a option) : 'a =
  send c req;
  push ?pump c;
  await ?pump [ c ] check
