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
     bits 20..26  b   (second source register; for [call], the caller's
                       saved-register count, see [decode])
     bits 27..62  imm (signed: memory offset, pc id of a branch, chk.c or
                       call target, or index into [imms] for 64-bit
                       immediates)

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
     51 chk imm           52 rand d       53 slow

   [slow] marks the rare ops the step executes through {!Exec.step_op}
   on the boxed form (icall, spawn, lib.st/ld, alloc,
   print; a memory offset outside the imm field's [-2^35, 2^35); and any
   op whose static target did not resolve, preserving the original
   execution-time error behavior). *)

type t = {
  code : int array;  (* pc id -> packed word *)
  imms : int64 array;  (* 64-bit immediate pool, shared by the program *)
}

let imm_bits = 36
let imm_mask = (1 lsl imm_bits) - 1
let opc_slow = 53

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

(* The functions in pc order. [block_pc f l] is the pc id of label [l]'s
   block in [f] and [entry_pc name] that of the named function's entry, or
   -1 when unresolved (the op then decodes as [slow] and fails at
   execution time exactly as the boxed interpreter would). *)
let decode ~block_pc ~entry_pc (funcs : Ssp_ir.Prog.func list) =
  let imms = ref [] and n_imm = ref 0 in
  let imm64 v =
    let k = !n_imm in
    imms := v :: !imms;
    incr n_imm;
    k
  in
  let word f n_save (op : Ssp_isa.Op.t) =
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
    | Br l ->
      let t = block_pc f l in
      if t < 0 then enc opc_slow else enc 44 ~imm:t
    | Brnz (s, l) ->
      let t = block_pc f l in
      if t < 0 then enc opc_slow else enc 45 ~a:s ~imm:t
    | Brz (s, l) ->
      let t = block_pc f l in
      if t < 0 then enc opc_slow else enc 46 ~a:s ~imm:t
    | Call (callee, _) ->
      let t = entry_pc callee in
      if t < 0 then enc opc_slow else enc 47 ~b:n_save ~imm:t
    | Ret -> enc 48
    | Halt -> enc 49
    | Kill -> enc 50
    | Chk_c l ->
      let t = block_pc f l in
      if t < 0 then enc opc_slow else enc 51 ~imm:t
    | Rand d -> enc 52 ~d
    | Icall _ | Spawn _ | Lib_st _ | Lib_ld _ | Alloc _ | Print _ | Load _
    | Store _ | Lfetch _ ->
      enc opc_slow
  in
  let code =
    List.concat_map
      (fun (f : Ssp_ir.Prog.func) ->
        let k = n_save f in
        List.concat_map
          (fun (b : Ssp_ir.Prog.block) ->
            List.map (word f k) (Array.to_list b.ops))
          (Array.to_list f.blocks))
      funcs
  in
  { code = Array.of_list code; imms = Array.of_list (List.rev !imms) }
