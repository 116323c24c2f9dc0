(** Binary wire codec (see the interface).  The writer side is a
    plain [Buffer]; the reader side is a cursor over a string with
    every read bounds-checked through one internal exception that
    {!decode} catches — so malformed bytes can only ever produce
    {!Corrupt}, never an escape. *)

let version = 3
let max_frame = 16 * 1024 * 1024

type event = Ev_tap of { x : int; y : int } | Ev_back

type client_frame =
  | Hello of { client : string; sessions : int }
  | Event of { session : int; ev : event }
  | Detach of { session : int }
  | Resume of { snapshot : string }
  | Stats
  | Bye
  | Update of { program : string }
  | Prepare of { txn : int; program : string }
  | Commit of { txn : int }
  | Abort of { txn : int }
  | Observe
  | Rebalance of { count : int }
  | Stats_data

type host_frame =
  | Attach of { session : int; width : int; frame : string }
  | Delta of {
      session : int;
      height : int;
      acks : int;
      rows : (int * string) list;
    }
  | Detached of { session : int; snapshot : string }
  | Error of { code : int; msg : string }
  | Metrics of { text : string }
  | Ack of { info : string }
  | Observed of { sessions : (int * string) list }

type frame = Client of client_frame | Host of host_frame

let equal (a : frame) (b : frame) = a = b

let pp_event ppf = function
  | Ev_tap { x; y } -> Fmt.pf ppf "tap(%d,%d)" x y
  | Ev_back -> Fmt.string ppf "back"

let pp ppf = function
  | Client (Hello { client; sessions }) ->
      Fmt.pf ppf "Hello(%S, sessions=%d)" client sessions
  | Client (Event { session; ev }) ->
      Fmt.pf ppf "Event(#%d, %a)" session pp_event ev
  | Client (Detach { session }) -> Fmt.pf ppf "Detach(#%d)" session
  | Client (Resume { snapshot }) ->
      Fmt.pf ppf "Resume(%d bytes)" (String.length snapshot)
  | Client Stats -> Fmt.string ppf "Stats"
  | Client Bye -> Fmt.string ppf "Bye"
  | Client (Update { program }) ->
      Fmt.pf ppf "Update(%d bytes)" (String.length program)
  | Client (Prepare { txn; program }) ->
      Fmt.pf ppf "Prepare(txn=%d, %d bytes)" txn (String.length program)
  | Client (Commit { txn }) -> Fmt.pf ppf "Commit(txn=%d)" txn
  | Client (Abort { txn }) -> Fmt.pf ppf "Abort(txn=%d)" txn
  | Client Observe -> Fmt.string ppf "Observe"
  | Client (Rebalance { count }) -> Fmt.pf ppf "Rebalance(count=%d)" count
  | Client Stats_data -> Fmt.string ppf "Stats_data"
  | Host (Attach { session; width; frame }) ->
      Fmt.pf ppf "Attach(#%d, width=%d, %d bytes)" session width
        (String.length frame)
  | Host (Delta { session; height; acks; rows }) ->
      Fmt.pf ppf "Delta(#%d, height=%d, acks=%d, %d rows)" session height acks
        (List.length rows)
  | Host (Detached { session; snapshot }) ->
      Fmt.pf ppf "Detached(#%d, %d bytes)" session (String.length snapshot)
  | Host (Error { code; msg }) -> Fmt.pf ppf "Error(%d, %S)" code msg
  | Host (Metrics { text }) -> Fmt.pf ppf "Metrics(%d bytes)" (String.length text)
  | Host (Ack { info }) -> Fmt.pf ppf "Ack(%S)" info
  | Host (Observed { sessions }) ->
      Fmt.pf ppf "Observed(%d sessions)" (List.length sessions)

(* ------------------------------------------------------------------ *)
(* Writing                                                             *)
(* ------------------------------------------------------------------ *)

let put_u8 (b : Buffer.t) (v : int) =
  if v < 0 || v > 0xFF then invalid_arg "Wire: u8 out of range";
  Buffer.add_char b (Char.chr v)

let put_u32 (b : Buffer.t) (v : int) =
  if v < 0 || v > 0x3FFFFFFF then invalid_arg "Wire: u32 out of range";
  Buffer.add_char b (Char.chr ((v lsr 24) land 0xFF));
  Buffer.add_char b (Char.chr ((v lsr 16) land 0xFF));
  Buffer.add_char b (Char.chr ((v lsr 8) land 0xFF));
  Buffer.add_char b (Char.chr (v land 0xFF))

let put_str (b : Buffer.t) (s : string) =
  if String.length s > max_frame then invalid_arg "Wire: string too long";
  put_u32 b (String.length s);
  Buffer.add_string b s

let put_ev (b : Buffer.t) = function
  | Ev_tap { x; y } ->
      put_u8 b 0;
      put_u32 b x;
      put_u32 b y
  | Ev_back -> put_u8 b 1

(* Tags: client frames in 0x01-0x7F, host frames in 0x81-0xFF, so a
   peer speaking the wrong direction is caught at the tag. *)
let put_body (b : Buffer.t) = function
  | Client (Hello { client; sessions }) ->
      put_u8 b 0x01;
      put_str b client;
      put_u32 b sessions
  | Client (Event { session; ev }) ->
      put_u8 b 0x02;
      put_u32 b session;
      put_ev b ev
  | Client (Detach { session }) ->
      put_u8 b 0x03;
      put_u32 b session
  | Client (Resume { snapshot }) ->
      put_u8 b 0x04;
      put_str b snapshot
  | Client Stats -> put_u8 b 0x05
  | Client Bye -> put_u8 b 0x06
  | Client (Update { program }) ->
      put_u8 b 0x07;
      put_str b program
  | Client (Prepare { txn; program }) ->
      put_u8 b 0x08;
      put_u32 b txn;
      put_str b program
  | Client (Commit { txn }) ->
      put_u8 b 0x09;
      put_u32 b txn
  | Client (Abort { txn }) ->
      put_u8 b 0x0A;
      put_u32 b txn
  | Client Observe -> put_u8 b 0x0B
  | Client (Rebalance { count }) ->
      put_u8 b 0x0C;
      put_u32 b count
  | Client Stats_data -> put_u8 b 0x0D
  | Host (Attach { session; width; frame }) ->
      put_u8 b 0x81;
      put_u32 b session;
      put_u32 b width;
      put_str b frame
  | Host (Delta { session; height; acks; rows }) ->
      put_u8 b 0x82;
      put_u32 b session;
      put_u32 b height;
      put_u32 b acks;
      put_u32 b (List.length rows);
      List.iter
        (fun (i, s) ->
          put_u32 b i;
          put_str b s)
        rows
  | Host (Detached { session; snapshot }) ->
      put_u8 b 0x83;
      put_u32 b session;
      put_str b snapshot
  | Host (Error { code; msg }) ->
      put_u8 b 0x84;
      put_u32 b code;
      put_str b msg
  | Host (Metrics { text }) ->
      put_u8 b 0x85;
      put_str b text
  | Host (Ack { info }) ->
      put_u8 b 0x86;
      put_str b info
  | Host (Observed { sessions }) ->
      put_u8 b 0x87;
      put_u32 b (List.length sessions);
      List.iter
        (fun (id, obs) ->
          put_u32 b id;
          put_str b obs)
        sessions

let encode_into ~(scratch : Buffer.t) (dst : Buffer.t) (f : frame) : unit =
  Buffer.clear scratch;
  put_u8 scratch version;
  put_body scratch f;
  let n = Buffer.length scratch in
  if n > max_frame then invalid_arg "Wire.encode: frame too large";
  put_u32 dst n;
  Buffer.add_buffer dst scratch

let encode (f : frame) : string =
  let scratch = Buffer.create 64 in
  let out = Buffer.create 68 in
  encode_into ~scratch out f;
  Buffer.contents out

(* ------------------------------------------------------------------ *)
(* Reading                                                             *)
(* ------------------------------------------------------------------ *)

exception Bad of string

type cursor = { buf : string; mutable pos : int; limit : int }

let need (c : cursor) (n : int) =
  if n < 0 || c.limit - c.pos < n then raise (Bad "truncated payload")

let get_u8 (c : cursor) : int =
  need c 1;
  let v = Char.code c.buf.[c.pos] in
  c.pos <- c.pos + 1;
  v

let get_u32 (c : cursor) : int =
  need c 4;
  let b i = Char.code c.buf.[c.pos + i] in
  let v = (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3 in
  c.pos <- c.pos + 4;
  if v > 0x3FFFFFFF then raise (Bad "u32 out of range");
  v

let get_str (c : cursor) : string =
  let n = get_u32 c in
  need c n;
  let s = String.sub c.buf c.pos n in
  c.pos <- c.pos + n;
  s

let get_ev (c : cursor) : event =
  match get_u8 c with
  | 0 ->
      let x = get_u32 c in
      let y = get_u32 c in
      Ev_tap { x; y }
  | 1 -> Ev_back
  | t -> raise (Bad (Printf.sprintf "unknown event kind 0x%02x" t))

let get_body (c : cursor) : frame =
  match get_u8 c with
  | 0x01 ->
      let client = get_str c in
      let sessions = get_u32 c in
      Client (Hello { client; sessions })
  | 0x02 ->
      let session = get_u32 c in
      let ev = get_ev c in
      Client (Event { session; ev })
  | 0x03 -> Client (Detach { session = get_u32 c })
  | 0x04 -> Client (Resume { snapshot = get_str c })
  | 0x05 -> Client Stats
  | 0x06 -> Client Bye
  | 0x07 -> Client (Update { program = get_str c })
  | 0x08 ->
      let txn = get_u32 c in
      let program = get_str c in
      Client (Prepare { txn; program })
  | 0x09 -> Client (Commit { txn = get_u32 c })
  | 0x0A -> Client (Abort { txn = get_u32 c })
  | 0x0B -> Client Observe
  | 0x0C -> Client (Rebalance { count = get_u32 c })
  | 0x0D -> Client Stats_data
  | 0x81 ->
      let session = get_u32 c in
      let width = get_u32 c in
      let frame = get_str c in
      Host (Attach { session; width; frame })
  | 0x82 ->
      let session = get_u32 c in
      let height = get_u32 c in
      let acks = get_u32 c in
      let n = get_u32 c in
      (* each row costs at least 8 bytes on the wire; a count beyond
         that bound cannot be honest *)
      if n > (c.limit - c.pos) / 8 + 1 then raise (Bad "row count too large");
      let rows =
        List.init n (fun _ ->
            let i = get_u32 c in
            let s = get_str c in
            (i, s))
      in
      Host (Delta { session; height; acks; rows })
  | 0x83 ->
      let session = get_u32 c in
      let snapshot = get_str c in
      Host (Detached { session; snapshot })
  | 0x84 ->
      let code = get_u32 c in
      let msg = get_str c in
      Host (Error { code; msg })
  | 0x85 -> Host (Metrics { text = get_str c })
  | 0x86 -> Host (Ack { info = get_str c })
  | 0x87 ->
      let n = get_u32 c in
      (* each entry costs at least 8 bytes on the wire *)
      if n > (c.limit - c.pos) / 8 + 1 then
        raise (Bad "session count too large");
      let sessions =
        List.init n (fun _ ->
            let id = get_u32 c in
            let obs = get_str c in
            (id, obs))
      in
      Host (Observed { sessions })
  | t -> raise (Bad (Printf.sprintf "unknown frame tag 0x%02x" t))

type decoded = Frame of frame * int | Need_more | Corrupt of string

let decode ?(off = 0) (buf : string) : decoded =
  let len = String.length buf in
  if off < 0 || off > len then Corrupt "offset out of bounds"
  else if len - off < 4 then Need_more
  else
    let b i = Char.code buf.[off + i] in
    let n = (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3 in
    if n < 2 then Corrupt "frame body too short"
    else if n > max_frame then Corrupt "frame length exceeds max_frame"
    else if len - off - 4 < n then Need_more
    else
      try
        let c = { buf; pos = off + 4; limit = off + 4 + n } in
        let v = get_u8 c in
        if v <> version then
          Corrupt (Printf.sprintf "unsupported protocol version %d" v)
        else
          let f = get_body c in
          if c.pos <> c.limit then Corrupt "trailing bytes in frame body"
          else Frame (f, n + 4)
      with Bad m -> Corrupt m

(* ------------------------------------------------------------------ *)
(* Raw relay                                                           *)
(* ------------------------------------------------------------------ *)

type raw = { r_off : int; r_total : int; r_tag : int; r_session : int }
type peeked = Raw of raw | Raw_need_more | Raw_corrupt of string

(* Tags whose payload begins with a session id (body offset 2, i.e.
   frame offset 6): Event, Detach, Attach, Delta, Detached. *)
let session_addressed = function
  | 0x02 | 0x03 | 0x81 | 0x82 | 0x83 -> true
  | _ -> false

let peek ?(off = 0) (buf : string) : peeked =
  let len = String.length buf in
  if off < 0 || off > len then Raw_corrupt "offset out of bounds"
  else if len - off < 4 then Raw_need_more
  else
    let b i = Char.code buf.[off + i] in
    let n = (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3 in
    if n < 2 then Raw_corrupt "frame body too short"
    else if n > max_frame then Raw_corrupt "frame length exceeds max_frame"
    else if len - off - 4 < n then Raw_need_more
    else if b 4 <> version then
      Raw_corrupt (Printf.sprintf "unsupported protocol version %d" (b 4))
    else
      let tag = b 5 in
      if not (session_addressed tag) then
        Raw { r_off = off; r_total = n + 4; r_tag = tag; r_session = -1 }
      else if n < 6 then Raw_corrupt "truncated payload"
      else
        let s = (b 6 lsl 24) lor (b 7 lsl 16) lor (b 8 lsl 8) lor b 9 in
        if s > 0x3FFFFFFF then Raw_corrupt "u32 out of range"
        else Raw { r_off = off; r_total = n + 4; r_tag = tag; r_session = s }

let relay (dst : Buffer.t) (buf : string) (r : raw) : unit =
  Buffer.add_substring dst buf r.r_off r.r_total

let relay_rewrite (dst : Buffer.t) (buf : string) (r : raw) ~(session : int) :
    unit =
  if not (session_addressed r.r_tag) then
    invalid_arg "Wire.relay_rewrite: tag has no session field";
  (* prefix (4) + version + tag, then the fresh id, then the rest *)
  Buffer.add_substring dst buf r.r_off 6;
  put_u32 dst session;
  Buffer.add_substring dst buf (r.r_off + 10) (r.r_total - 10)

let event_payload_ok (buf : string) (r : raw) : bool =
  r.r_tag = 0x02
  &&
  let b i = Char.code buf.[r.r_off + i] in
  match r.r_total with
  | 11 -> b 10 = 1 (* Ev_back *)
  | 19 -> b 10 = 0 && b 11 land 0xC0 = 0 && b 15 land 0xC0 = 0 (* Ev_tap *)
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Deltas                                                              *)
(* ------------------------------------------------------------------ *)

let rows_of_text (s : string) : string array =
  let parts = String.split_on_char '\n' s in
  let parts =
    match List.rev parts with "" :: rest -> List.rev rest | _ -> parts
  in
  Array.of_list parts

let text_of_rows (rows : string array) : string =
  String.concat "" (Array.fold_right (fun r acc -> r :: "\n" :: acc) rows [])

(* A row the framebuffer left unwritten is the previous frame's string
   itself, so [==] settles most rows without reading them. *)
let delta_of_frames ~(prev : string array) (next : string array) :
    (int * string) list =
  let old i = if i < Array.length prev then prev.(i) else "" in
  let rows = ref [] in
  for i = Array.length next - 1 downto 0 do
    let o = old i in
    if not (next.(i) == o || String.equal next.(i) o) then
      rows := (i, next.(i)) :: !rows
  done;
  !rows

let apply_delta (prev : string array) ~(height : int)
    ~(rows : (int * string) list) : string array =
  let height = max 0 height in
  let out =
    Array.init height (fun i -> if i < Array.length prev then prev.(i) else "")
  in
  List.iter (fun (i, s) -> if i >= 0 && i < height then out.(i) <- s) rows;
  out
