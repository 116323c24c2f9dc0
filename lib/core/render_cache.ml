(** Dependency-tracked memoization of render evaluation.

    The paper's type-and-effect discipline is what makes this sound:
    render code has effect [r], so it may {e read} globals but never
    write them, never touch the event queue, and never capture mutable
    state (Sec. 4.1's model-view separation).  Evaluation is
    substitution-based, so by the time a [boxed] subexpression is
    evaluated it is {e closed}: the box subtree and value it produces
    are a pure function of

    - the subexpression itself (argument values are substituted in),
    - the code [C] (function bodies reached through [Fn]), and
    - the values of the globals it reads (rule EP-GLOBAL-1/2).

    Nothing in that list belongs to a session.  Hence a subtree entry
    recorded by one session may be replayed by any session running
    the same code, whenever its store gives every global the entry
    read the value the entry observed: the subtree tables are shared
    by every session on a code epoch ({!tables}), while each session
    keeps its own {!t} — a handle holding its display entries, its
    counters, and the tables it renders against.

    Two layers:

    - {b subtree entries}, consulted at every [boxed] expression (by
      {!Compile_eval} under a compile-time site id plus the captured
      environment values, by {!Eval} under the closed subexpression):
      a hit splices the cached {!Boxcontent.item} into the parent box
      without evaluating the subtree;
    - {b the display entry}, consulted by [Machine.render] before
      evaluating at all: if the same page is re-rendered with the same
      argument and none of the globals the {e previous} render read
      changed, the previous box tree is revalidated for free (a THUNK
      that did not touch rendered state costs no render work).  It is
      the session's previous render, so it stays per session.

    {b Code.}  Tables and display entries record the code they were
    filled under, compared by physical identity (every UPDATE installs
    a fresh {!Program.t}).  A lookup under any other code never
    replays an entry; {!ensure_code} drops a handle's stale display
    entries and moves it off tables of other code onto fresh ones,
    leaving those to whoever else renders against them.  A code change
    with a {!Program_diff} keeps what the diff proves clean instead:
    tables are retargeted into a filtered copy ({!retarget_tables}) —
    once per epoch for an epoch's, by {!retarget} for a handle's own —
    and display entries per handle ({!retarget}).

    {b The index.}  Entries live in slots, one per key (site and
    captured values, or source id and subexpression).  A slot keeps up
    to [variants_per_key] entries that differ in the values they
    read — sessions in different states render the same key with
    different reads — newest first, with each entry's hash of its read
    values alongside.  A lookup reads each global of the slot's read
    set from the store once, hashes those values and compares
    integers, so it touches only the entries whose hash is the
    store's; a slot whose entries read different globals is scanned
    entry by entry instead.

    {b The bound.}  Tables hold two generations of at most
    [generation] entries each.  A slot the young generation lacks is
    moved out of the old one when it is looked up or extended; when
    the young generation would overflow it becomes the old one and the
    old one is dropped.  So the tables never exceed [bound] entries
    and keep what was used since the last swap. *)

type reads = (Ident.global * Ast.value) list
(** The read set of one evaluation: each global read, with the value
    observed.  Render mode cannot write the store, so within a single
    render every global has one stable value and each appears once. *)

type entry = {
  globals : Ident.global array;
      (** the globals read, in read order; physically shared by the
          entries of a slot that read the same globals *)
  vals : Ast.value array;  (** the value observed for each *)
  value : Ast.value;  (** the value the subexpression produced *)
  item : Boxcontent.item;  (** the [Box] item it appended to its parent *)
}

type key =
  | Site of { h : int; site : int; args : Ast.value list }
      (** a compiled [boxed] site and the values of the environment
          slots it captures *)
  | Expr of { h : int; id : int; expr : Ast.expr }
      (** a source id (-1 for none) and the closed subexpression *)

let equal_args (a : Ast.value list) (b : Ast.value list) : bool =
  a == b || try List.for_all2 Ast.equal_value a b with Invalid_argument _ -> false

module Keytbl = Hashtbl.Make (struct
  type t = key

  let hash = function Site { h; _ } | Expr { h; _ } -> h

  let equal a b =
    match (a, b) with
    | Site a, Site b -> a.h = b.h && a.site = b.site && equal_args a.args b.args
    | Expr a, Expr b -> a.h = b.h && a.id = b.id && Ast.equal_expr a.expr b.expr
    | Site _, Expr _ | Expr _, Site _ -> false
end)

(** The entries of one key: a ring, newest at [newest], grown on
    demand up to [variants_per_key] and then overwriting its oldest.
    [hashes] holds each entry's hash of its read values, so a lookup
    compares integers in one array and touches only the entries whose
    hash is the store's. *)
type slot = {
  mutable ring : entry array;
  mutable hashes : int array;
  mutable newest : int;
  mutable n : int;
  shape : Ident.global array;  (** the globals its first entry read *)
  mutable mixed : bool;  (** some entry read other globals *)
}

type gen = { slots : slot Keytbl.t; mutable count : int  (** entries *) }

type tables = {
  mutable code : Program.t option;
      (** the code every entry was recorded under, compared by
          physical identity; [None] until a handle's own tables are
          first bound *)
  mutable young : gen;
  mutable old : gen;
  mutable swaps : int;
  (* one lookup's lazily read values of one read set (see [matches]) *)
  mutable memo_shape : Ident.global array;
  mutable memo : Ast.value array;
  mutable memo_n : int;
}

type display_entry = {
  page : Ident.page;
  arg : Ast.value;
  box : Boxcontent.t;
  display_reads : reads;
}

type stats = {
  hits : int;  (** subtree entries spliced without evaluation *)
  misses : int;  (** subtree evaluations that populated an entry *)
  revalidations : int;  (** whole displays revalidated without evaluation *)
  flushes : int;  (** wholesale invalidations (code changes) *)
  retargets : int;  (** scoped invalidations (diffed code changes) *)
  evictions : int;  (** entries dropped by scoped invalidation *)
}

type t = {
  mutable tables : tables;
  displays : (Ident.page, display_entry) Hashtbl.t;
  mutable dcode : Program.t option;
      (** the code the display entries were recorded under *)
  mutable sabotage_no_flush : bool;
      (** test-only: code changes and rebinds keep every entry, and
          lookups skip the code check — deliberately breaking
          live-update soundness so the conformance fuzzer can prove it
          would catch the bug *)
  mutable hits : int;
  mutable misses : int;
  mutable revalidations : int;
  mutable flushes : int;
  mutable retargets : int;
  mutable evictions : int;
}

let generation = 8192
let variants_per_key = 64
let bound = 2 * generation

let new_gen () = { slots = Keytbl.create 64; count = 0 }

let make_tables (code : Program.t option) : tables =
  {
    code;
    young = new_gen ();
    old = new_gen ();
    swaps = 0;
    memo_shape = [||];
    memo = Array.make 8 Ast.vunit;
    memo_n = 0;
  }

let create_tables (prog : Program.t) : tables = make_tables (Some prog)

let share (tables : tables) : t =
  {
    tables;
    displays = Hashtbl.create 4;
    dcode = None;
    sabotage_no_flush = false;
    hits = 0;
    misses = 0;
    revalidations = 0;
    flushes = 0;
    retargets = 0;
    evictions = 0;
  }

let create () : t = share (make_tables None)

let stats (c : t) : stats =
  {
    hits = c.hits;
    misses = c.misses;
    revalidations = c.revalidations;
    flushes = c.flushes;
    retargets = c.retargets;
    evictions = c.evictions;
  }

let size (c : t) = c.tables.young.count + c.tables.old.count
let swaps (c : t) = c.tables.swaps

let flush (c : t) : unit =
  Hashtbl.reset c.displays;
  c.dcode <- None;
  c.tables.young <- new_gen ();
  c.tables.old <- new_gen ();
  c.flushes <- c.flushes + 1

let drop_displays (c : t) : unit =
  Hashtbl.reset c.displays;
  c.dcode <- None

let bind (c : t) (tables : tables) : unit =
  if not c.sabotage_no_flush then c.tables <- tables

(** Bind the handle to the given code.  Called at the start of every
    cached RENDER, so a code swap can never replay stale entries even
    if the caller forgets to retarget: display entries of other code
    are dropped, and tables of other code are left to whoever else
    renders against them — the handle moves to fresh tables. *)
let ensure_code (c : t) (prog : Program.t) : unit =
  if not c.sabotage_no_flush then begin
    let stale_displays =
      match c.dcode with Some p -> p != prog | None -> false
    in
    let stale_tables =
      match c.tables.code with Some p -> p != prog | None -> false
    in
    if stale_displays || stale_tables then c.flushes <- c.flushes + 1;
    if stale_displays then Hashtbl.reset c.displays;
    if stale_tables then c.tables <- create_tables prog
  end;
  c.dcode <- Some prog;
  if Option.is_none c.tables.code then c.tables.code <- Some prog

(* ------------------------------------------------------------------ *)
(* Generations                                                         *)
(* ------------------------------------------------------------------ *)

(* The young generation becomes the old one, and the old one goes. *)
let swap (tb : tables) : unit =
  tb.old <- tb.young;
  tb.young <- new_gen ();
  tb.swaps <- tb.swaps + 1

(* Make room for [incoming] more entries in the young generation. *)
let make_room (tb : tables) (incoming : int) : unit =
  if tb.young.count + incoming > generation then swap tb

let add_young (tb : tables) (key : key) (s : slot) : unit =
  make_room tb s.n;
  Keytbl.replace tb.young.slots key s;
  tb.young.count <- tb.young.count + s.n

(* The key's slot, in the young generation: moved out of the old one
   if only that has it. *)
let young_slot (tb : tables) (key : key) : slot option =
  match Keytbl.find_opt tb.young.slots key with
  | Some _ as found -> found
  | None -> (
      match Keytbl.find_opt tb.old.slots key with
      | None -> None
      | Some s as found ->
          Keytbl.remove tb.old.slots key;
          tb.old.count <- tb.old.count - s.n;
          add_young tb key s;
          found)

(* ------------------------------------------------------------------ *)
(* Lookup                                                              *)
(* ------------------------------------------------------------------ *)

(** Every recorded read observes the same value in [store]?  Reads are
    validated with {!Store.read} (not raw lookup) so a global whose
    assigned value was dropped back to its initial value still
    validates iff the observed value matches. *)
let reads_valid (prog : Program.t) (store : Store.t) (reads : reads) : bool =
  List.for_all
    (fun (g, v0) ->
      match Store.read prog g store with
      | Some v -> Ast.equal_value v0 v
      | None -> false)
    reads

(* An undefined global: compared by physical identity only. *)
let absent = Ast.VStr "<undefined global>"

(* The current value of global [j] of [shape], read from the store at
   most once per lookup: entries are compared left to right and stop at
   the first mismatch, so the reads of one shape fill [memo] in order. *)
let current (tb : tables) (prog : Program.t) (store : Store.t)
    (shape : Ident.global array) (j : int) : Ast.value =
  if tb.memo_shape != shape then begin
    tb.memo_shape <- shape;
    tb.memo_n <- 0
  end;
  if j < tb.memo_n then tb.memo.(j)
  else begin
    if j >= Array.length tb.memo then begin
      let grown = Array.make (2 * (j + 1)) Ast.vunit in
      Array.blit tb.memo 0 grown 0 tb.memo_n;
      tb.memo <- grown
    end;
    let v =
      match Store.read prog shape.(j) store with Some v -> v | None -> absent
    in
    tb.memo.(j) <- v;
    tb.memo_n <- j + 1;
    v
  end

(* [e]'s reads from the [j]-th on observe the current values.  Like
   [scan] below, a top-level function: a lookup scans up to
   [variants_per_key] entries, and a local closure per entry would
   allocate. *)
let rec matches (tb : tables) (prog : Program.t) (store : Store.t)
    (e : entry) (j : int) : bool =
  j >= Array.length e.vals
  ||
  let cur = current tb prog store e.globals j in
  let v = e.vals.(j) in
  cur != absent
  && (v == cur || Ast.equal_value v cur)
  && matches tb prog store e (j + 1)

(* The newest of the slot's entries from the [i]-th newest on that
   matches the store. *)
let rec scan (tb : tables) (prog : Program.t) (store : Store.t) (s : slot)
    (i : int) : entry option =
  if i >= s.n then None
  else
    let cap = Array.length s.ring in
    let e = s.ring.((s.newest - i + cap) mod cap) in
    if matches tb prog store e 0 then Some e else scan tb prog store s (i + 1)

(* A hash consistent with [Ast.equal_value]; numbers, the common read,
   without a call into the runtime ([Float.equal] identifies -0 with 0,
   and every NaN with every other). *)
let hash_value : Ast.value -> int = function
  | Ast.VNum f ->
      if f = 0. then 0
      else if Float.is_nan f then 1
      else Int64.to_int (Int64.bits_of_float f)
  | v -> Hashtbl.hash v

let hash_vals (vals : Ast.value array) : int =
  Array.fold_left (fun h v -> (h * 31) + hash_value v) 7 vals

(* The hash of the store's values of [shape], [None] if one of its
   globals is undefined (then no entry reading it matches). *)
let current_hash (tb : tables) (prog : Program.t) (store : Store.t)
    (shape : Ident.global array) : int option =
  let rec go h j =
    if j >= Array.length shape then Some h
    else
      let v = current tb prog store shape j in
      if v == absent then None else go ((h * 31) + hash_value v) (j + 1)
  in
  go 7 0

(* [scan] over the entries whose value hash is [h]. *)
let rec scan_hashed (tb : tables) (prog : Program.t) (store : Store.t)
    (s : slot) (h : int) (i : int) : entry option =
  if i >= s.n then None
  else
    let cap = Array.length s.ring in
    let k = (s.newest - i + cap) mod cap in
    if s.hashes.(k) = h && matches tb prog store s.ring.(k) 0 then
      Some s.ring.(k)
    else scan_hashed tb prog store s h (i + 1)

let code_ok (c : t) (prog : Program.t) : bool =
  c.sabotage_no_flush
  || match c.tables.code with Some p -> p == prog | None -> false

(** A replayable entry for [key]: every recorded read unchanged in
    [store].  Counts a hit or a miss. *)
let find (c : t) (key : key) ~(prog : Program.t) ~(store : Store.t) :
    entry option =
  let tb = c.tables in
  let found =
    if not (code_ok c prog) then None
    else
      match young_slot tb key with
      | None -> None
      | Some s -> (
          tb.memo_n <- 0;
          if s.mixed then scan tb prog store s 0
          else
            match current_hash tb prog store s.shape with
            | None -> None
            | Some h -> scan_hashed tb prog store s h 0)
  in
  (match found with
  | Some _ -> c.hits <- c.hits + 1
  | None -> c.misses <- c.misses + 1);
  found

(* ------------------------------------------------------------------ *)
(* Insertion                                                           *)
(* ------------------------------------------------------------------ *)

let same_shape (shape : Ident.global array) (reads : reads) : bool =
  let n = Array.length shape in
  let rec go j = function
    | [] -> j = n
    | (g, _) :: rest -> j < n && String.equal shape.(j) g && go (j + 1) rest
  in
  go 0 reads

let entry_of (reads : reads) ~globals ~value ~item : entry =
  { globals; vals = Array.of_list (List.map snd reads); value; item }

let new_slot (reads : reads) ~value ~item : slot =
  let e = entry_of reads ~globals:(Array.of_list (List.map fst reads)) ~value ~item in
  { ring = [| e |]; hashes = [| hash_vals e.vals |]; newest = 0; n = 1;
    shape = e.globals; mixed = false }

(* Push [e] as the slot's newest entry, growing the ring while it is
   below the per-key cap and overwriting the oldest once it is full;
   returns whether the slot gained an entry. *)
let push (s : slot) (e : entry) : bool =
  let h = hash_vals e.vals in
  let cap = Array.length s.ring in
  if s.n < cap then begin
    s.newest <- (s.newest + 1) mod cap;
    s.ring.(s.newest) <- e;
    s.hashes.(s.newest) <- h;
    s.n <- s.n + 1;
    true
  end
  else if cap < variants_per_key then begin
    let size = min variants_per_key (2 * cap) in
    let ring = Array.make size e and hashes = Array.make size h in
    for i = 0 to s.n - 1 do
      let k = (s.newest + 1 + i) mod cap in
      ring.(i) <- s.ring.(k);
      hashes.(i) <- s.hashes.(k)
    done;
    s.ring <- ring;
    s.hashes <- hashes;
    s.newest <- s.n;
    s.n <- s.n + 1;
    true
  end
  else begin
    s.newest <- (s.newest + 1) mod cap;
    s.ring.(s.newest) <- e;
    s.hashes.(s.newest) <- h;
    false
  end

let add (c : t) (key : key) ~(prog : Program.t) ~(value : Ast.value)
    ~(item : Boxcontent.item) ~(reads : reads) : unit =
  if code_ok c prog then begin
    let tb = c.tables in
    match young_slot tb key with
    | None -> add_young tb key (new_slot reads ~value ~item)
    | Some s ->
        (* entries reading the slot's globals share its shape array *)
        let globals =
          if same_shape s.shape reads then s.shape
          else begin
            s.mixed <- true;
            Array.of_list (List.map fst reads)
          end
        in
        let e = entry_of reads ~globals ~value ~item in
        if s.n < variants_per_key && tb.young.count >= generation then begin
          (* the slot grows but the young generation is full: it
             becomes the old one, and this key moves on into the new
             young one *)
          swap tb;
          ignore (young_slot tb key)
        end;
        if push s e then tb.young.count <- tb.young.count + 1
  end

(* ------------------------------------------------------------------ *)
(* Keys                                                                *)
(* ------------------------------------------------------------------ *)

let hash_args (args : Ast.value list) : int =
  List.fold_left (fun h v -> (h * 31) + Ast.hash_value v) 17 args

let site_key ~(site : int) ~(args : Ast.value list) : key =
  Site { h = (hash_args args * 65599) + site; site; args }

let subtree_key (id : Srcid.t option) (expr : Ast.expr) : key =
  let id = match id with Some i -> Srcid.to_int i | None -> -1 in
  Expr { h = (Ast.hash_expr expr * 65599) + id; id; expr }

(* ------------------------------------------------------------------ *)
(* Code changes                                                        *)
(* ------------------------------------------------------------------ *)

let keep_key ~(diff : Program_diff.t) ~(keep_csite : int -> bool) = function
  | Site { site; _ } -> keep_csite site
  | Expr { expr; _ } -> Program_diff.expr_clean diff expr

(* A generation's surviving slots, copied (the base tables keep
   serving their own sessions). *)
let filter_gen (g : gen) ~keep : gen =
  let kept = new_gen () in
  Keytbl.iter
    (fun k s ->
      if keep k then begin
        Keytbl.replace kept.slots k
          { s with ring = Array.copy s.ring; hashes = Array.copy s.hashes };
        kept.count <- kept.count + s.n
      end)
    g.slots;
  kept

(** Scoped invalidation of subtree tables on a code swap, into a
    filtered copy: once per epoch for an epoch's tables, once per
    handle for a handle's own.  A compiled-subtree slot survives iff
    [keep_csite] accepts its site id: site ids are compilation-scoped,
    and the caller passes the liveness predicate of the {e new}
    compilation ({!Compile_eval.site_live}), which inherited the ids of
    reused (clean) definitions and stamped fresh ids for recompiled
    ones.  An expression slot survives iff every definition its
    (closed) expression references is transitively clean
    ({!Program_diff.expr_clean}).  Reads are still re-validated on
    every hit, against the {e new} program's store semantics, so a
    changed initial value misses as it must. *)
let retarget_tables (base : tables) ~(diff : Program_diff.t)
    ~(keep_csite : int -> bool) (new_prog : Program.t) : tables =
  let tb = create_tables new_prog in
  (match base.code with
  | Some p
    when p == Program_diff.old_program diff
         && new_prog == Program_diff.new_program diff ->
      let keep = keep_key ~diff ~keep_csite in
      tb.young <- filter_gen base.young ~keep;
      tb.old <- filter_gen base.old ~keep
  | _ -> ());
  tb

(** Scoped invalidation of one handle on a code swap: display entries
    survive iff their page is transitively clean — re-rendering it
    evaluates only unchanged definitions, so under the same argument
    and reads it reproduces the cached box tree byte for byte; tables
    still bound to the diff's old program (a handle's own) are
    replaced by their {!retarget_tables} copy, forcing [keep_csite]
    only then.  A handle the registry already rebound to the new
    epoch's tables has nothing more to do there.  Whatever is not
    bound to the diff's old program is left for {!ensure_code} — never
    wrong, just slower. *)
let retarget (c : t) ~(diff : Program_diff.t)
    ~(keep_csite : (int -> bool) Lazy.t) (new_prog : Program.t) : unit =
  let spans p =
    p == Program_diff.old_program diff
    && new_prog == Program_diff.new_program diff
  in
  if not c.sabotage_no_flush then begin
    (match c.dcode with
    | Some p when spans p ->
        let doomed =
          Hashtbl.fold
            (fun page _ acc ->
              if Program_diff.is_dirty diff page then page :: acc else acc)
            c.displays []
        in
        List.iter (Hashtbl.remove c.displays) doomed;
        c.evictions <- c.evictions + List.length doomed;
        c.dcode <- Some new_prog;
        c.retargets <- c.retargets + 1
    | _ -> ());
    match c.tables.code with
    | Some p when spans p ->
        let before = size c in
        c.tables <-
          retarget_tables c.tables ~diff ~keep_csite:(Lazy.force keep_csite)
            new_prog;
        c.evictions <- c.evictions + before - size c
    | _ -> ()
  end

(** Break the flush-on-UPDATE invariant on purpose.  Exists only so
    the conformance fuzzer can demonstrate sensitivity: with the flag
    set, stale entries survive a code swap and the differential oracle
    must report the divergence (see [test/test_conformance.ml]). *)
let set_sabotage_no_flush (c : t) (b : bool) : unit =
  c.sabotage_no_flush <- b

(* ------------------------------------------------------------------ *)
(* The whole-display fast path                                         *)
(* ------------------------------------------------------------------ *)

(** Revalidate the previous render of [page]: same argument, no read
    global changed.  [ensure_code] must have been called first, so the
    code is known identical. *)
let find_display (c : t) ~(page : Ident.page) ~(arg : Ast.value)
    ~(prog : Program.t) ~(store : Store.t) : Boxcontent.t option =
  match Hashtbl.find_opt c.displays page with
  | Some d
    when Ast.equal_value d.arg arg
         && reads_valid prog store d.display_reads ->
      c.revalidations <- c.revalidations + 1;
      Some d.box
  | Some _ | None -> None

let add_display (c : t) ~(page : Ident.page) ~(arg : Ast.value)
    ~(reads : reads) (box : Boxcontent.t) : unit =
  Hashtbl.replace c.displays page { page; arg; box; display_reads = reads }

let pp_stats ppf (s : stats) =
  Fmt.pf ppf "hits=%d misses=%d revalidations=%d flushes=%d retargets=%d evictions=%d"
    s.hits s.misses s.revalidations s.flushes s.retargets s.evictions
