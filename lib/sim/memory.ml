(* Pages live in an int-keyed table behind a direct-mapped cache of
   [cache_slots] pages indexed by the low bits of the page id: the heap and
   stack pages a kernel alternates between sit in different slots, so the
   per-access lookup is an int compare and two array loads — no generic
   hashing, no polymorphic compare, no write barrier. *)

let page_bits = 16
let page_size = 1 lsl page_bits
let cache_slots = 64

module Pages = Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b
  let hash (a : int) = a
end)

type t = {
  pages : Bytes.t Pages.t;
  ids : int array;  (** cached page id per slot; -1 = empty *)
  cached : Bytes.t array;
  mutable brk : int64;  (** next free heap address *)
}

let create () =
  {
    pages = Pages.create 256;
    ids = Array.make cache_slots (-1);
    cached = Array.make cache_slots Bytes.empty;
    brk = Ssp_ir.Prog.heap_base;
  }

let miss t id slot =
  let p =
    match Pages.find_opt t.pages id with
    | Some p -> p
    | None ->
      let p = Bytes.make page_size '\000' in
      Pages.replace t.pages id p;
      p
  in
  t.ids.(slot) <- id;
  t.cached.(slot) <- p;
  p

let page t id =
  let slot = id land (cache_slots - 1) in
  if Array.unsafe_get t.ids slot = id then Array.unsafe_get t.cached slot
  else miss t id slot

(* Addresses are native ints: the address space is 62-bit, so every
   access masks with [land max_int]. The decoded load and store arms move
   a value between a page and a register slot ([Thread.regs] layout)
   directly, so the value is never boxed; [read]/[write] go through a
   scratch slot. *)
let read_to t a bytes regs off =
  let a = a land max_int in
  let o = a land (page_size - 1) in
  if o + bytes <= page_size then begin
    let p = page t (a lsr page_bits) in
    match bytes with
    | 1 ->
      Thread.set64u regs off (Int64.of_int (Char.code (Bytes.unsafe_get p o)))
    | 2 -> Thread.set64u regs off (Int64.of_int (Bytes.get_uint16_le p o))
    | 4 ->
      Thread.set64u regs off
        (Int64.logand (Int64.of_int32 (Bytes.get_int32_le p o)) 0xffffffffL)
    | 8 -> Thread.set64u regs off (Bytes.get_int64_le p o)
    | _ -> invalid_arg "Memory.read: width"
  end
  else begin
    (* Page-crossing access: assemble byte by byte. *)
    let rec go i acc =
      if i < 0 then acc
      else
        let b = a + i in
        let p = page t (b lsr page_bits) in
        let v = Char.code (Bytes.unsafe_get p (b land (page_size - 1))) in
        go (i - 1) Int64.(logor (shift_left acc 8) (of_int v))
    in
    Thread.set64u regs off (go (bytes - 1) 0L)
  end

let write_from t a bytes regs off =
  let a = a land max_int in
  let o = a land (page_size - 1) in
  let v = Thread.get64u regs off in
  if o + bytes <= page_size then begin
    let p = page t (a lsr page_bits) in
    match bytes with
    | 1 -> Bytes.unsafe_set p o (Char.unsafe_chr (Int64.to_int v land 0xff))
    | 2 -> Bytes.set_uint16_le p o (Int64.to_int v land 0xffff)
    | 4 -> Bytes.set_int32_le p o (Int64.to_int32 v)
    | 8 -> Bytes.set_int64_le p o v
    | _ -> invalid_arg "Memory.write: width"
  end
  else
    for i = 0 to bytes - 1 do
      let b = a + i in
      let p = page t (b lsr page_bits) in
      Bytes.unsafe_set p
        (b land (page_size - 1))
        (Char.unsafe_chr (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xff))
    done

let read t a bytes =
  let slot = Bytes.create 8 in
  read_to t a bytes slot 0;
  Thread.get64u slot 0

let write t a bytes v =
  let slot = Bytes.create 8 in
  Thread.set64u slot 0 v;
  write_from t a bytes slot 0

let alloc t size =
  let size = Int64.logand (Int64.add size 7L) (Int64.lognot 7L) in
  let base = t.brk in
  t.brk <- Int64.add t.brk size;
  base

let heap_used t = Int64.sub t.brk Ssp_ir.Prog.heap_base
