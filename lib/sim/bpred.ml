type t = {
  counters : int array;  (* 2-bit saturating *)
  mask : int;
  history : int array;  (* per thread *)
  btb_tags : int array;  (* sets * ways, -1 invalid *)
  btb_lru : int array;
  btb_sets : int;
  btb_set_mask : int;
      (* [btb_sets - 1] when a power of two (set select is a [land]);
         [-1] otherwise, falling back to [mod] *)
  btb_ways : int;
  mutable clock : int;
}

let create (cfg : Ssp_machine.Config.t) =
  let n = cfg.gshare_entries in
  let sets = cfg.btb_entries / cfg.btb_ways in
  {
    counters = Array.make n 2;
    mask = n - 1;
    history = Array.make cfg.n_contexts 0;
    btb_tags = Array.make (sets * cfg.btb_ways) (-1);
    btb_lru = Array.make (sets * cfg.btb_ways) 0;
    btb_sets = sets;
    btb_set_mask = (if sets > 0 && sets land (sets - 1) = 0 then sets - 1 else -1);
    btb_ways = cfg.btb_ways;
    clock = 0;
  }

let index t ~thread ~pc = (pc lxor t.history.(thread)) land t.mask

let predict t ~thread ~pc = t.counters.(index t ~thread ~pc) >= 2

let update t ~thread ~pc ~taken =
  let i = index t ~thread ~pc in
  let c = t.counters.(i) in
  t.counters.(i) <- (if taken then Int.min 3 (c + 1) else Int.max 0 (c - 1));
  t.history.(thread) <- ((t.history.(thread) lsl 1) lor Bool.to_int taken) land t.mask

(* Way index holding [pc], or -1: an int result and explicit parameters
   keep the per-branch hot path allocation-free (a local closure would
   allocate per lookup), and the annotations keep [=] at [int]. *)
let rec scan_btb (tags : int array) base (pc : int) ways w =
  if w >= ways then -1
  else if tags.(base + w) = pc then base + w
  else scan_btb tags base pc ways (w + 1)

let btb_set t ~pc =
  if t.btb_set_mask >= 0 then pc land t.btb_set_mask else pc mod t.btb_sets

let btb_find t ~pc =
  let base = btb_set t ~pc * t.btb_ways in
  scan_btb t.btb_tags base pc t.btb_ways 0

let btb_lookup t ~pc =
  let i = btb_find t ~pc in
  if i >= 0 then begin
    t.clock <- t.clock + 1;
    t.btb_lru.(i) <- t.clock;
    true
  end
  else false

let btb_insert t ~pc =
  if btb_find t ~pc < 0 then begin
    let base = btb_set t ~pc * t.btb_ways in
    let victim = ref base in
    for w = 1 to t.btb_ways - 1 do
      if t.btb_lru.(base + w) < t.btb_lru.(!victim) then victim := base + w
    done;
    t.clock <- t.clock + 1;
    t.btb_tags.(!victim) <- pc;
    t.btb_lru.(!victim) <- t.clock
  end
