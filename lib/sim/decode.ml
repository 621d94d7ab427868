(* Predecoded flat instruction stream, executed by every engine through
   [Funcsim.step]: the functional interpreter and both cycle cores.

   The boxed {!Ssp_isa.Op.t} representation costs the hot loop a chain of
   dependent heap loads per instruction (blocks array -> block record ->
   ops array -> constructor block -> argument fields). Decoding the program
   once into one flat [int array], indexed by pc id, turns the fetch into
   one array read and the dispatch into an integer switch; a target is a
   pc id, so a thread's position is one int and fall-through is [pc + 1].

   Word layout (63-bit OCaml int):

     bits  0..5   opcode
     bits  6..12  d   (destination register, or store source)
     bits 13..19  a   (first source / base register)
     bits 20..26  b   (second source register; for [call] and [icall],
                       the caller's saved-register count, see [decode];
                       for a wide memory op, its width in bytes)
     bits 27..62  imm (signed: memory offset, pc id of a branch, chk.c,
                       call or spawn target, live-in buffer slot, or
                       index into [imms] for 64-bit immediates and wide
                       memory offsets)

   Opcode map — {!Funcsim.step} matches these as literal patterns, so the
   two files must change together (a test pins the arms against a
   reference evaluator written from the ISA's definition):

      0 nop            1 movi d,imms[imm]   2 mov d,a
      3..12  alu  d,a,b     (add sub mul div rem and or xor shl shr)
     13..22  alui d,a,imms[imm]              (same order)
     23..28  cmp  d,a,b     (eq ne lt le gt ge)
     29..34  cmpi d,a,imms[imm]              (same order)
     35..38  load  d,[a+imm]   (widths 1 2 4 8)
     39..42  store [a+imm],d   (widths 1 2 4 8; source in d field)
     43 lfetch [a+imm]    44 br imm       45 brnz a,imm   46 brz a,imm
     47 call imm,b        48 ret          49 halt         50 kill
     51 chk imm           52 rand d       53 icall a,b    54 spawn imm
     55 lib.st imm,a      56 lib.ld d,imm 57 alloc d,a    58 print a
     59 load  d,[a+imms[imm]], b bytes   (wide offset)
     60 store [a+imms[imm]],d, b bytes  (wide offset)
     61 lfetch [a+imms[imm]]            (wide offset)

   A memory offset outside the imm field's [-2^35, 2^35) takes the wide
   form. A live-in slot outside [0, Thread.lib_slots) decodes as -1, so
   [lib.st] writes nothing and [lib.ld] reads 0. *)

type t = {
  code : int array;  (* pc id -> packed word *)
  imms : int64 array;  (* 64-bit immediate pool, shared by the program *)
}

let imm_bits = 36
let imm_mask = (1 lsl imm_bits) - 1

(* A memory offset the signed imm field holds exactly. *)
let fits off = off >= -(1 lsl (imm_bits - 1)) && off < 1 lsl (imm_bits - 1)

let enc ?(d = 0) ?(a = 0) ?(b = 0) ?(imm = 0) opc =
  opc lor (d lsl 6) lor (a lsl 13) lor (b lsl 20)
  lor ((imm land imm_mask) lsl 27)

let alu_code : Ssp_isa.Op.alu -> int = function
  | Add -> 0
  | Sub -> 1
  | Mul -> 2
  | Div -> 3
  | Rem -> 4
  | And -> 5
  | Or -> 6
  | Xor -> 7
  | Shl -> 8
  | Shr -> 9

let cmp_code : Ssp_isa.Op.cmp -> int = function
  | Eq -> 0
  | Ne -> 1
  | Lt -> 2
  | Le -> 3
  | Gt -> 4
  | Ge -> 5

let width_code : Ssp_isa.Op.width -> int = function
  | W1 -> 0
  | W2 -> 1
  | W4 -> 2
  | W8 -> 3

(* How many stacked registers (from [Reg.first_stacked]) the function's
   code mentions: every register it can read or write is below that
   prefix, so a call made FROM it only needs to save/restore that many —
   the rest can never be observed by the code that resumes after the
   return. At most [Reg.count - Reg.first_stacked] = 96, so it fits the
   call word's 7-bit b field. *)
let n_save (f : Ssp_ir.Prog.func) =
  let max_reg = ref 0 in
  Array.iter
    (fun (b : Ssp_ir.Prog.block) ->
      Array.iter
        (fun op ->
          List.iter
            (fun r -> if r > !max_reg then max_reg := r)
            (Ssp_isa.Op.defs op @ Ssp_isa.Op.uses op))
        b.ops)
    f.blocks;
  Int.max 0 (!max_reg - Ssp_isa.Reg.first_stacked + 1)

(* The pc id [t] of a target, which [decode]'s callbacks give as -1 when
   it does not resolve: then the op's function [f] and the target are
   named before anything runs. *)
let resolved (f : Ssp_ir.Prog.func) what name t =
  if t < 0 then
    invalid_arg
      (Printf.sprintf "Layout.of_prog: function %s: unresolved %s %s" f.name
         what name);
  t

(* A live-in buffer slot, or -1 outside the buffer. *)
let slot k = if k >= 0 && k < Thread.lib_slots then k else -1

(* The ops in pc order, [fn_of] giving each one's index in [funcs].
   [block_pc fn l] is the pc id of label [l]'s block in the function named
   [fn] and [entry_pc fn] that of its entry, or -1 when unresolved. *)
let decode ~block_pc ~entry_pc (funcs : Ssp_ir.Prog.func array) fn_of ops =
  let imms = ref [] and n_imm = ref 0 in
  let imm64 v =
    let k = !n_imm in
    imms := v :: !imms;
    incr n_imm;
    k
  in
  let wide off = imm64 (Int64.of_int off) in
  let label (f : Ssp_ir.Prog.func) l =
    resolved f "label" l (block_pc f.name l)
  in
  let word (f : Ssp_ir.Prog.func) n_save (op : Ssp_isa.Op.t) =
    match op with
    | Nop -> enc 0
    | Movi (d, i) -> enc 1 ~d ~imm:(imm64 i)
    | Mov (d, s) -> enc 2 ~d ~a:s
    | Alu (o, d, a, b) -> enc (3 + alu_code o) ~d ~a ~b
    | Alui (o, d, a, i) -> enc (13 + alu_code o) ~d ~a ~imm:(imm64 i)
    | Cmp (o, d, a, b) -> enc (23 + cmp_code o) ~d ~a ~b
    | Cmpi (o, d, a, i) -> enc (29 + cmp_code o) ~d ~a ~imm:(imm64 i)
    | Load (w, d, b, off) when fits off ->
      enc (35 + width_code w) ~d ~a:b ~imm:off
    | Store (w, s, b, off) when fits off ->
      enc (39 + width_code w) ~d:s ~a:b ~imm:off
    | Lfetch (b, off) when fits off -> enc 43 ~a:b ~imm:off
    | Br l -> enc 44 ~imm:(label f l)
    | Brnz (s, l) -> enc 45 ~a:s ~imm:(label f l)
    | Brz (s, l) -> enc 46 ~a:s ~imm:(label f l)
    | Call (callee, _) ->
      enc 47 ~b:n_save ~imm:(resolved f "callee" callee (entry_pc callee))
    | Ret -> enc 48
    | Halt -> enc 49
    | Kill -> enc 50
    | Chk_c l -> enc 51 ~imm:(label f l)
    | Rand d -> enc 52 ~d
    | Icall (r, _) -> enc 53 ~a:r ~b:n_save
    | Spawn (fn, l) ->
      enc 54 ~imm:(resolved f "spawn target" (fn ^ "#" ^ l) (block_pc fn l))
    | Lib_st (k, s) -> enc 55 ~a:s ~imm:(slot k)
    | Lib_ld (d, k) -> enc 56 ~d ~imm:(slot k)
    | Alloc (d, s) -> enc 57 ~d ~a:s
    | Print s -> enc 58 ~a:s
    | Load (w, d, b, off) ->
      enc 59 ~d ~a:b ~b:(Ssp_isa.Op.width_bytes w) ~imm:(wide off)
    | Store (w, s, b, off) ->
      enc 60 ~d:s ~a:b ~b:(Ssp_isa.Op.width_bytes w) ~imm:(wide off)
    | Lfetch (b, off) -> enc 61 ~a:b ~imm:(wide off)
  in
  let saves = Array.map n_save funcs in
  let code =
    Array.mapi
      (fun pc op ->
        let fi = fn_of.(pc) in
        word funcs.(fi) saves.(fi) op)
      ops
  in
  { code; imms = Array.of_list (List.rev !imms) }
