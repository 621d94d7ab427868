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

let pp ppf op =
  let r = Reg.pp in
  match op with
  | Nop -> Format.fprintf ppf "nop"
  | Movi (d, i) -> Format.fprintf ppf "movi %a, %Ld" r d i
  | Mov (d, s) -> Format.fprintf ppf "mov %a, %a" r d r s
  | Alu (o, d, a, b) ->
    Format.fprintf ppf "%s %a, %a, %a" (alu_name o) r d r a r b
  | Alui (o, d, a, i) ->
    Format.fprintf ppf "%si %a, %a, %Ld" (alu_name o) r d r a i
  | Cmp (o, d, a, b) ->
    Format.fprintf ppf "cmp.%s %a, %a, %a" (cmp_name o) r d r a r b
  | Cmpi (o, d, a, i) ->
    Format.fprintf ppf "cmpi.%s %a, %a, %Ld" (cmp_name o) r d r a i
  | Load (w, d, b, off) ->
    Format.fprintf ppf "ld%s %a, [%a%+d]" (width_name w) r d r b off
  | Store (w, s, b, off) ->
    Format.fprintf ppf "st%s [%a%+d], %a" (width_name w) r b off r s
  | Lfetch (b, off) -> Format.fprintf ppf "lfetch [%a%+d]" r b off
  | Br l -> Format.fprintf ppf "br %s" l
  | Brnz (s, l) -> Format.fprintf ppf "brnz %a, %s" r s l
  | Brz (s, l) -> Format.fprintf ppf "brz %a, %s" r s l
  | Call (f, n) -> Format.fprintf ppf "call %s/%d" f n
  | Icall (s, n) -> Format.fprintf ppf "icall %a/%d" r s n
  | Ret -> Format.fprintf ppf "ret"
  | Halt -> Format.fprintf ppf "halt"
  | Chk_c l -> Format.fprintf ppf "chk.c %s" l
  | Spawn (f, l) -> Format.fprintf ppf "spawn %s:%s" f l
  | Kill -> Format.fprintf ppf "kill"
  | Lib_st (slot, s) -> Format.fprintf ppf "lib.st #%d, %a" slot r s
  | Lib_ld (d, slot) -> Format.fprintf ppf "lib.ld %a, #%d" r d slot
  | Alloc (d, s) -> Format.fprintf ppf "alloc %a, %a" r d r s
  | Print s -> Format.fprintf ppf "print %a" r s
  | Rand d -> Format.fprintf ppf "rand %a" r d

let to_string op = Format.asprintf "%a" pp op
