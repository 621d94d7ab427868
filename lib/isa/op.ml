type label = string
type alu = Add | Sub | Mul | Div | Rem | And | Or | Xor | Shl | Shr
type cmp = Eq | Ne | Lt | Le | Gt | Ge
type width = W1 | W2 | W4 | W8

type t =
  | Nop
  | Movi of Reg.t * int64
  | Mov of Reg.t * Reg.t
  | Alu of alu * Reg.t * Reg.t * Reg.t
  | Alui of alu * Reg.t * Reg.t * int64
  | Cmp of cmp * Reg.t * Reg.t * Reg.t
  | Cmpi of cmp * Reg.t * Reg.t * int64
  | Load of width * Reg.t * Reg.t * int
  | Store of width * Reg.t * Reg.t * int
  | Lfetch of Reg.t * int
  | Br of label
  | Brnz of Reg.t * label
  | Brz of Reg.t * label
  | Call of string * int
  | Icall of Reg.t * int
  | Ret
  | Halt
  | Chk_c of label
  | Spawn of string * label
  | Kill
  | Lib_st of int * Reg.t
  | Lib_ld of Reg.t * int
  | Alloc of Reg.t * Reg.t
  | Print of Reg.t
  | Rand of Reg.t

let width_bytes = function W1 -> 1 | W2 -> 2 | W4 -> 4 | W8 -> 8

(* r0 is hardwired to zero: a write to it defines nothing. *)
let def1 d = if d = Reg.zero then [] else [ d ]

let clobbered_by_call =
  (* Calls clobber the static argument partition r8..r15. *)
  List.init Reg.max_args (fun i -> Reg.arg i)

let defs = function
  | Nop | Lfetch _ | Br _ | Brnz _ | Brz _ | Ret | Halt | Chk_c _ | Spawn _
  | Kill | Store _ | Lib_st _ | Print _ ->
    []
  | Movi (d, _)
  | Mov (d, _)
  | Alu (_, d, _, _)
  | Alui (_, d, _, _)
  | Cmp (_, d, _, _)
  | Cmpi (_, d, _, _)
  | Load (_, d, _, _)
  | Lib_ld (d, _)
  | Alloc (d, _)
  | Rand d ->
    def1 d
  | Call (_, _) | Icall (_, _) -> clobbered_by_call

let use1 s = if s = Reg.zero then [] else [ s ]
let use2 a b = use1 a @ use1 b

let args_of_arity n = List.init (min n Reg.max_args) (fun i -> Reg.arg i)

let uses = function
  | Nop | Movi _ | Br _ | Halt | Chk_c _ | Spawn _ | Kill | Lib_ld _ -> []
  | Mov (_, s) | Brnz (s, _) | Brz (s, _) | Lib_st (_, s) | Alloc (_, s)
  | Print s ->
    use1 s
  | Rand _ -> []
  | Alu (_, _, a, b) | Cmp (_, _, a, b) -> use2 a b
  | Alui (_, _, a, _) | Cmpi (_, _, a, _) -> use1 a
  | Load (_, _, b, _) | Lfetch (b, _) -> use1 b
  | Store (_, s, b, _) -> use2 s b
  | Call (_, n) -> args_of_arity n
  | Icall (r, n) -> use1 r @ args_of_arity n
  | Ret -> [ Reg.ret ]

let is_control = function
  | Br _ | Brnz _ | Brz _ | Call _ | Icall _ | Ret | Halt | Chk_c _ | Spawn _
  | Kill ->
    true
  | Nop | Movi _ | Mov _ | Alu _ | Alui _ | Cmp _ | Cmpi _ | Load _ | Store _
  | Lfetch _ | Lib_st _ | Lib_ld _ | Alloc _ | Print _ | Rand _ ->
    false

let is_terminator = function
  | Br _ | Ret | Halt | Kill -> true
  | Nop | Movi _ | Mov _ | Alu _ | Alui _ | Cmp _ | Cmpi _ | Load _ | Store _
  | Lfetch _ | Brnz _ | Brz _ | Call _ | Icall _ | Chk_c _ | Spawn _ | Lib_st _
  | Lib_ld _ | Alloc _ | Print _ | Rand _ ->
    false

let is_load = function
  | Load _ -> true
  | _ -> false

let branch_targets = function
  | Br l | Brnz (_, l) | Brz (_, l) -> [ l ]
  | Chk_c _ -> [] (* recovery stubs are not normal control flow *)
  | _ -> []

let alu_eval op a b =
  match op with
  | Add -> Int64.add a b
  | Sub -> Int64.sub a b
  | Mul -> Int64.mul a b
  | Div -> if Int64.equal b 0L then 0L else Int64.div a b
  | Rem -> if Int64.equal b 0L then 0L else Int64.rem a b
  | And -> Int64.logand a b
  | Or -> Int64.logor a b
  | Xor -> Int64.logxor a b
  | Shl -> Int64.shift_left a (Int64.to_int b land 63)
  | Shr -> Int64.shift_right a (Int64.to_int b land 63)

let cmp_eval op a b =
  match op with
  | Eq -> Int64.equal a b
  | Ne -> not (Int64.equal a b)
  | Lt -> Int64.compare a b < 0
  | Le -> Int64.compare a b <= 0
  | Gt -> Int64.compare a b > 0
  | Ge -> Int64.compare a b >= 0

let alu_name = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Div -> "div"
  | Rem -> "rem"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"
  | Shl -> "shl"
  | Shr -> "shr"

let cmp_name = function
  | Eq -> "eq"
  | Ne -> "ne"
  | Lt -> "lt"
  | Le -> "le"
  | Gt -> "gt"
  | Ge -> "ge"

let width_name = function W1 -> "1" | W2 -> "2" | W4 -> "4" | W8 -> "8"

(* The one instruction printer: [Asm.to_string] appends every op of a
   program to one buffer, and [pp] and [to_string] emit the same text. *)
let str = Buffer.add_string

(* The text of [string_of_int] and [Int64.to_string], appended digit by
   digit: those two go through the runtime's [snprintf], and every
   request prints its program to hash it. [add_digits] takes [n <= 0],
   so [min_int] needs no case of its own. *)
let rec add_digits b n =
  if n <= -10 then add_digits b (n / 10);
  Buffer.add_char b (Char.unsafe_chr (48 - (n mod 10)))

let num b n =
  if n < 0 then begin
    Buffer.add_char b '-';
    add_digits b n
  end
  else add_digits b (-n)

(* Beyond the int range the quotient by 10 still fits, and has the sign
   of [i]. *)
let imm b i =
  let n = Int64.to_int i in
  if Int64.equal (Int64.of_int n) i then num b n
  else begin
    let q = Int64.to_int (Int64.div i 10L) in
    let r = Int64.to_int (Int64.rem i 10L) in
    if q < 0 then Buffer.add_char b '-';
    add_digits b (if q < 0 then q else -q);
    Buffer.add_char b (Char.unsafe_chr (48 + abs r))
  end

let reg b r =
  Buffer.add_char b 'r';
  num b r

(* ", rN": every operand after the first. *)
let next_reg b r =
  str b ", ";
  reg b r

(* "[rB+off]": the offset always carries its sign. *)
let mem b base off =
  str b "[";
  reg b base;
  if off >= 0 then str b "+";
  num b off;
  str b "]"

let add_to_buffer b op =
  match op with
  | Nop -> str b "nop"
  | Movi (d, i) -> str b "movi "; reg b d; str b ", "; imm b i
  | Mov (d, x) -> str b "mov "; reg b d; next_reg b x
  | Alu (o, d, x, y) ->
    str b (alu_name o); str b " "; reg b d; next_reg b x; next_reg b y
  | Alui (o, d, x, i) ->
    str b (alu_name o); str b "i "; reg b d; next_reg b x; str b ", "; imm b i
  | Cmp (o, d, x, y) ->
    str b "cmp."; str b (cmp_name o); str b " "; reg b d; next_reg b x;
    next_reg b y
  | Cmpi (o, d, x, i) ->
    str b "cmpi."; str b (cmp_name o); str b " "; reg b d; next_reg b x;
    str b ", "; imm b i
  | Load (w, d, base, off) ->
    str b "ld"; str b (width_name w); str b " "; reg b d; str b ", ";
    mem b base off
  | Store (w, x, base, off) ->
    str b "st"; str b (width_name w); str b " "; mem b base off; next_reg b x
  | Lfetch (base, off) -> str b "lfetch "; mem b base off
  | Br l -> str b "br "; str b l
  | Brnz (x, l) -> str b "brnz "; reg b x; str b ", "; str b l
  | Brz (x, l) -> str b "brz "; reg b x; str b ", "; str b l
  | Call (f, n) -> str b "call "; str b f; str b "/"; num b n
  | Icall (x, n) -> str b "icall "; reg b x; str b "/"; num b n
  | Ret -> str b "ret"
  | Halt -> str b "halt"
  | Chk_c l -> str b "chk.c "; str b l
  | Spawn (f, l) -> str b "spawn "; str b f; str b ":"; str b l
  | Kill -> str b "kill"
  | Lib_st (slot, x) -> str b "lib.st #"; num b slot; next_reg b x
  | Lib_ld (d, slot) -> str b "lib.ld "; reg b d; str b ", #"; num b slot
  | Alloc (d, x) -> str b "alloc "; reg b d; next_reg b x
  | Print x -> str b "print "; reg b x
  | Rand d -> str b "rand "; reg b d

let to_string op =
  let b = Buffer.create 32 in
  add_to_buffer b op;
  Buffer.contents b

let pp ppf op = Format.pp_print_string ppf (to_string op)
