module T = Ssp_telemetry.Telemetry

type t = {
  sets : int;
  set_mask : int;
      (* [sets - 1] when [sets] is a power of two (the common geometry),
         letting set selection be a single [land]; [-1] otherwise, falling
         back to [mod] so odd set counts keep their exact behavior *)
  ways : int;
  line_bits : int;
  tags : int array;  (* sets * ways, -1 = invalid; line numbers *)
  lru : int array;  (* higher = more recent *)
  mutable clock : int;
  mutable misses : int;
  tel : (T.counter * T.counter) option;  (* hits, misses *)
}

let create ?name (g : Ssp_machine.Config.cache_geom) =
  let line_bits =
    int_of_float (Float.round (Float.log2 (float_of_int g.line_bytes)))
  in
  let lines = g.size_bytes / g.line_bytes in
  let sets = Int.max 1 (lines / g.ways) in
  {
    sets;
    set_mask = (if sets land (sets - 1) = 0 then sets - 1 else -1);
    ways = g.ways;
    line_bits;
    tags = Array.make (sets * g.ways) (-1);
    lru = Array.make (sets * g.ways) 0;
    clock = 0;
    misses = 0;
    tel =
      (match name with
      | Some n -> Some (T.counter (n ^ ".hits"), T.counter (n ^ ".misses"))
      | None -> None);
  }

(* Addresses are native ints; the simulated address space is 62-bit. *)
let line_of t a = (a land max_int) lsr t.line_bits

let set_of t line =
  if t.set_mask >= 0 then line land t.set_mask else line mod t.sets

(* Index of the way holding [addr]'s line, or -1 on a miss. A top-level
   scan with explicit parameters: the probe loop allocates nothing (this
   runs once or more per simulated cycle, and a local closure would
   allocate per call). The annotations keep [=] at [int]: let-generalized
   over ['a array], it would call the runtime's polymorphic equality once
   per way probed. *)
let rec scan_ways (tags : int array) (line : int) lim i =
  if i >= lim then -1
  else if Array.unsafe_get tags i = line then i
  else scan_ways tags line lim (i + 1)

let find_idx t addr =
  let line = line_of t addr in
  let s = set_of t line in
  let base = s * t.ways in
  scan_ways t.tags line (base + t.ways) base

let probe t addr = find_idx t addr >= 0

(* One pass over [line]'s set: the way holding it, or else the first of
   the least recently used ways, the victim a fill replaces. The caller
   tells the two apart by the way's tag. *)
let[@inline] hit_or_victim t line =
  let base = set_of t line * t.ways in
  let lim = base + t.ways in
  let tags = t.tags and lru = t.lru in
  let found = ref (-1) in
  let victim = ref base in
  let vlru = ref max_int in
  let i = ref base in
  while !found < 0 && !i < lim do
    if Array.unsafe_get tags !i = line then found := !i
    else begin
      let l = Array.unsafe_get lru !i in
      if l < !vlru then begin
        vlru := l;
        victim := !i
      end;
      incr i
    end
  done;
  if !found >= 0 then !found else !victim

let install t addr =
  let line = line_of t addr in
  let w = hit_or_victim t line in
  t.clock <- t.clock + 1;
  t.tags.(w) <- line;
  t.lru.(w) <- t.clock

let access t addr =
  let i = find_idx t addr in
  if i >= 0 then begin
    t.clock <- t.clock + 1;
    t.lru.(i) <- t.clock;
    (match t.tel with Some (h, _) -> T.incr h | None -> ());
    true
  end
  else begin
    t.misses <- t.misses + 1;
    (match t.tel with Some (_, m) -> T.incr m | None -> ());
    false
  end

(* [access] and, on a miss, [install] in one set scan — the functional-
   warming hot path. State effects match access-then-install exactly up to
   LRU clock values (a hit is touched once instead of twice; relative
   recency order, tags, and hit/miss counts are identical). *)
let warm_access t a =
  let line = line_of t a in
  let w = hit_or_victim t line in
  t.clock <- t.clock + 1;
  t.lru.(w) <- t.clock;
  if t.tags.(w) = line then begin
    (match t.tel with Some (h, _) -> T.incr h | None -> ());
    true
  end
  else begin
    t.misses <- t.misses + 1;
    (match t.tel with Some (_, m) -> T.incr m | None -> ());
    t.tags.(w) <- line;
    false
  end

(* Copies of the tag and recency arrays, set-major, for tests. *)
let state t = (Array.copy t.tags, Array.copy t.lru)

let line_addr t addr = line_of t addr lsl t.line_bits

let line_bits t = t.line_bits

let stats_misses t = t.misses
