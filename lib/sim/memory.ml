let page_bits = 16
let page_size = 1 lsl page_bits

type t = {
  pages : (int, Bytes.t) Hashtbl.t;
  mutable brk : int64;  (** next free heap address *)
  mutable last_id : int;  (** 1-entry page cache *)
  mutable last_page : Bytes.t;
}

let create () =
  let p0 = Bytes.make page_size '\000' in
  let pages = Hashtbl.create 256 in
  Hashtbl.replace pages 0 p0;
  { pages; brk = Ssp_ir.Prog.heap_base; last_id = 0; last_page = p0 }

let page t id =
  if id = t.last_id then t.last_page
  else begin
    let p =
      match Hashtbl.find_opt t.pages id with
      | Some p -> p
      | None ->
        let p = Bytes.make page_size '\000' in
        Hashtbl.replace t.pages id p;
        p
    in
    t.last_id <- id;
    t.last_page <- p;
    p
  end

(* Addresses are native ints: the address space is 62-bit, so every
   access masks with [land max_int]. *)
let read t a bytes =
  let a = a land max_int in
  let off = a land (page_size - 1) in
  if off + bytes <= page_size then begin
    let p = page t (a lsr page_bits) in
    match bytes with
    | 1 -> Int64.of_int (Char.code (Bytes.unsafe_get p off))
    | 2 -> Int64.of_int (Bytes.get_uint16_le p off)
    | 4 -> Int64.logand (Int64.of_int32 (Bytes.get_int32_le p off)) 0xffffffffL
    | 8 -> Bytes.get_int64_le p off
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
    go (bytes - 1) 0L
  end

let write t a bytes v =
  let a = a land max_int in
  let off = a land (page_size - 1) in
  if off + bytes <= page_size then begin
    let p = page t (a lsr page_bits) in
    match bytes with
    | 1 -> Bytes.unsafe_set p off (Char.unsafe_chr (Int64.to_int v land 0xff))
    | 2 -> Bytes.set_uint16_le p off (Int64.to_int v land 0xffff)
    | 4 -> Bytes.set_int32_le p off (Int64.to_int32 v)
    | 8 -> Bytes.set_int64_le p off v
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

let alloc t size =
  let size = Int64.logand (Int64.add size 7L) (Int64.lognot 7L) in
  let base = t.brk in
  t.brk <- Int64.add t.brk size;
  base

let heap_used t = Int64.sub t.brk Ssp_ir.Prog.heap_base
