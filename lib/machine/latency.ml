open Ssp_isa

let of_op = function
  | Op.Nop | Op.Movi _ | Op.Mov _ | Op.Cmp _ | Op.Cmpi _ -> 1
  | Op.Alu (op, _, _, _) | Op.Alui (op, _, _, _) -> (
    match op with
    | Op.Mul -> 3
    | Op.Div | Op.Rem -> 12
    | Op.Add | Op.Sub | Op.And | Op.Or | Op.Xor | Op.Shl | Op.Shr -> 1)
  | Op.Load _ -> 0 (* determined by the cache access *)
  | Op.Store _ | Op.Lfetch _ -> 1
  | Op.Br _ | Op.Brnz _ | Op.Brz _ -> 1
  | Op.Call _ | Op.Icall _ | Op.Ret -> 2
  | Op.Halt | Op.Kill -> 1
  | Op.Chk_c _ -> 1
  | Op.Spawn _ -> 1 (* plus Config.spawn_latency charged by the machine *)
  | Op.Lib_st _ | Op.Lib_ld _ -> 2
  | Op.Alloc _ -> 2
  | Op.Print _ -> 1
  | Op.Rand _ -> 1
