exception Error of string * Ast.pos

let err pos fmt = Format.kasprintf (fun m -> raise (Error (m, pos))) fmt

type env = {
  structs : (string, (string * Ast.ty * int) list) Hashtbl.t;
  globals : (string, Ast.global_def * int) Hashtbl.t;  (* def, byte offset *)
  funcs : (string, Ast.func_def) Hashtbl.t;
  mutable data_bytes : int;
}

let word = 8
let no_pos = { Ast.line = 0; col = 0 }

(* Collects structs, globals and functions; rejects duplicates, unknown
   field types, and parameter counts beyond the 8 argument registers. *)
let build_env (p : Ast.program) =
  let env =
    {
      structs = Hashtbl.create 16;
      globals = Hashtbl.create 16;
      funcs = Hashtbl.create 16;
      data_bytes = 0;
    }
  in
  List.iter
    (fun (s : Ast.struct_def) ->
      if Hashtbl.mem env.structs s.sname then
        err no_pos "duplicate struct %s" s.sname;
      let fields =
        List.mapi (fun i (name, ty) -> (name, ty, i * word)) s.fields
      in
      (* Reject duplicate field names. *)
      List.iteri
        (fun i (n, _, _) ->
          List.iteri
            (fun j (n', _, _) ->
              if i < j && String.equal n n' then
                err no_pos "struct %s: duplicate field %s" s.sname n)
            fields)
        fields;
      Hashtbl.replace env.structs s.sname fields)
    p.structs;
  List.iter
    (fun (g : Ast.global_def) ->
      if Hashtbl.mem env.globals g.gname then
        err no_pos "duplicate global %s" g.gname;
      Hashtbl.replace env.globals g.gname (g, env.data_bytes);
      env.data_bytes <- env.data_bytes + (word * Int.max 1 g.gsize))
    p.globals;
  List.iter
    (fun (f : Ast.func_def) ->
      if Hashtbl.mem env.funcs f.fname then
        err f.fpos "duplicate function %s" f.fname;
      if List.length f.params > Ssp_isa.Reg.max_args then
        err f.fpos "function %s: more than %d parameters" f.fname
          Ssp_isa.Reg.max_args;
      Hashtbl.replace env.funcs f.fname f)
    p.funcs;
  env

let sizeof_struct env s =
  match Hashtbl.find_opt env.structs s with
  | Some fields -> word * List.length fields
  | None -> invalid_arg (Printf.sprintf "sizeof_struct: unknown struct %s" s)

let field_offset env s f =
  match Hashtbl.find_opt env.structs s with
  | None -> raise Not_found
  | Some fields ->
    let rec go = function
      | [] -> raise Not_found
      | (name, ty, off) :: rest ->
        if String.equal name f then (off, ty) else go rest
    in
    go fields

let elem_size env = function
  | Ast.Tptr (Ast.Tstruct s) -> sizeof_struct env s
  | Ast.Tptr _ -> word
  | t ->
    invalid_arg
      (Format.asprintf "elem_size: not a pointer type (%a)" Ast.pp_ty t)

let find_func env name = Hashtbl.find_opt env.funcs name
let find_global env name = Option.map fst (Hashtbl.find_opt env.globals name)

let global_offset env name =
  match Hashtbl.find_opt env.globals name with
  | Some (_, off) -> off
  | None -> invalid_arg (Printf.sprintf "global_offset: unknown global %s" name)

let data_segment_bytes env = env.data_bytes

(* Assignment/comparison compatibility. *)
let rec compatible a b =
  match (a, b) with
  | Ast.Tint, Ast.Tint -> true
  | Ast.Tfnptr, Ast.Tfnptr -> true
  | Ast.Tnull, (Ast.Tptr _ | Ast.Tnull | Ast.Tfnptr) -> true
  | (Ast.Tptr _ | Ast.Tfnptr), Ast.Tnull -> true
  | Ast.Tptr x, Ast.Tptr y -> compatible_pointee x y
  | _ -> false

and compatible_pointee x y =
  match (x, y) with
  | Ast.Tstruct a, Ast.Tstruct b -> String.equal a b
  | _ -> compatible x y

let is_intrinsic = function "print_int" | "rand" -> true | _ -> false

let rec type_of_expr env ~vars (e : Ast.expr) =
  let pos = e.pos in
  match e.desc with
  | Ast.Int _ -> Ast.Tint
  | Ast.Null -> Ast.Tnull
  | Ast.Var name -> (
    match vars name with
    | Some t -> t
    | None -> (
      match find_global env name with
      | Some g ->
        if g.Ast.gsize > 1 then Ast.Tptr g.Ast.gty (* arrays decay *)
        else g.Ast.gty
      | None -> err pos "unbound variable %s" name))
  | Ast.Unary (Ast.Neg, a) | Ast.Unary (Ast.Not, a) ->
    let t = type_of_expr env ~vars a in
    if t <> Ast.Tint then err pos "unary operator expects int, got %a" Ast.pp_ty t;
    Ast.Tint
  | Ast.Binary (op, a, b) -> (
    let ta = type_of_expr env ~vars a in
    let tb = type_of_expr env ~vars b in
    match op with
    | Ast.Add | Ast.Sub -> (
      match (ta, tb) with
      | Ast.Tint, Ast.Tint -> Ast.Tint
      | Ast.Tptr _, Ast.Tint -> ta
      | Ast.Tint, Ast.Tptr _ when op = Ast.Add -> tb
      | _ ->
        err pos "cannot apply %s to %a and %a"
          (if op = Ast.Add then "+" else "-")
          Ast.pp_ty ta Ast.pp_ty tb)
    | Ast.Mul | Ast.Div | Ast.Rem | Ast.Band | Ast.Bor | Ast.Bxor | Ast.Shl
    | Ast.Shr ->
      if ta <> Ast.Tint || tb <> Ast.Tint then
        err pos "arithmetic expects int operands";
      Ast.Tint
    | Ast.Eq | Ast.Ne | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge ->
      if not (compatible ta tb) then
        err pos "cannot compare %a with %a" Ast.pp_ty ta Ast.pp_ty tb;
      Ast.Tint
    | Ast.Land | Ast.Lor ->
      if ta <> Ast.Tint || tb <> Ast.Tint then
        err pos "logical operators expect int";
      Ast.Tint)
  | Ast.Field (b, f) -> (
    match type_of_expr env ~vars b with
    | Ast.Tptr (Ast.Tstruct s) -> (
      match field_offset env s f with
      | _, ty -> ty
      | exception Not_found -> err pos "struct %s has no field %s" s f)
    | t -> err pos "-> applied to non-struct-pointer %a" Ast.pp_ty t)
  | Ast.Index (b, i) -> (
    let ti = type_of_expr env ~vars i in
    if ti <> Ast.Tint then err pos "array index must be int";
    match type_of_expr env ~vars b with
    | Ast.Tptr (Ast.Tstruct s) ->
      err pos
        "indexing an array of struct %s yields a struct value; use pointer \
         arithmetic and -> instead"
        s
    | Ast.Tptr t -> t
    | t -> err pos "indexing a non-pointer %a" Ast.pp_ty t)
  | Ast.Deref b -> (
    match type_of_expr env ~vars b with
    | Ast.Tptr (Ast.Tstruct s) -> err pos "cannot load struct %s by value" s
    | Ast.Tptr t -> t
    | t -> err pos "dereferencing a non-pointer %a" Ast.pp_ty t)
  | Ast.Addr_of_func name | Ast.Addr_of_global name -> (
    match find_func env name with
    | Some _ -> Ast.Tfnptr
    | None -> (
      match find_global env name with
      | Some g -> Ast.Tptr g.Ast.gty
      | None -> err pos "&%s: no such function or global" name))
  | Ast.Call ("print_int", args) -> (
    match args with
    | [ a ] ->
      let t = type_of_expr env ~vars a in
      if not (compatible t Ast.Tint) then err pos "print_int expects an int";
      err pos "print_int has no value; use it as a statement"
    | _ -> err pos "print_int expects one argument")
  | Ast.Call ("rand", args) ->
    if args <> [] then err pos "rand expects no arguments";
    Ast.Tint
  | Ast.Call (name, args) -> (
    (* A variable of type fnptr shadows a function of the same name. *)
    match vars name with
    | Some Ast.Tfnptr ->
      type_of_expr env ~vars
        { e with desc = Ast.Call_ptr ({ e with desc = Ast.Var name }, args) }
    | Some t -> err pos "calling %s of non-function type %a" name Ast.pp_ty t
    | None -> (
      match find_func env name with
      | None -> err pos "call to undefined function %s" name
      | Some f ->
        if List.length args <> List.length f.Ast.params then
          err pos "%s expects %d arguments, got %d" name
            (List.length f.Ast.params) (List.length args);
        List.iter2
          (fun arg (pname, pty) ->
            let t = type_of_expr env ~vars arg in
            if not (compatible t pty) then
              err pos "argument %s of %s: expected %a, got %a" pname name
                Ast.pp_ty pty Ast.pp_ty t)
          args f.Ast.params;
        (match f.Ast.ret with
        | Some t -> t
        | None -> err pos "void call %s used as a value" name)))
  | Ast.Call_ptr (fe, args) ->
    let tf = type_of_expr env ~vars fe in
    if tf <> Ast.Tfnptr then err pos "indirect call through non-fnptr";
    List.iter (fun a -> ignore (type_of_expr env ~vars a)) args;
    (* Indirect calls are unchecked beyond arity bounds; they return int. *)
    if List.length args > Ssp_isa.Reg.max_args then
      err pos "too many arguments in indirect call";
    Ast.Tint
  | Ast.New s ->
    if not (Hashtbl.mem env.structs s) then err pos "new of unknown struct %s" s;
    Ast.Tptr (Ast.Tstruct s)
  | Ast.New_array (t, n) ->
    let tn = type_of_expr env ~vars n in
    if tn <> Ast.Tint then err pos "newarray length must be int";
    Ast.Tptr t
  | Ast.Sizeof s ->
    if not (Hashtbl.mem env.structs s) then err pos "sizeof unknown struct %s" s;
    Ast.Tint

type scope = { mutable vars : (string * Ast.ty) list }

let rec check_stmt env fdef scope ~in_loop (s : Ast.stmt) =
  let pos = s.spos in
  let vars name = List.assoc_opt name scope.vars in
  match s.sdesc with
  | Ast.Decl (t, name, init) ->
    if List.mem_assoc name scope.vars then
      err pos "redeclaration of %s (shadowing is not supported)" name;
    (match init with
    | None -> ()
    | Some e ->
      let te = type_of_expr env ~vars e in
      if not (compatible t te) then
        err pos "initializing %s : %a with %a" name Ast.pp_ty t Ast.pp_ty te);
    scope.vars <- (name, t) :: scope.vars
  | Ast.Assign (lv, e) ->
    let tl =
      match lv with
      | Ast.Lvar name -> (
        match vars name with
        | Some t -> t
        | None -> (
          match find_global env name with
          | Some g when g.Ast.gsize = 1 -> g.Ast.gty
          | Some _ -> err pos "cannot assign to array %s" name
          | None -> err pos "unbound variable %s" name))
      | Ast.Lfield (b, f) ->
        type_of_expr env ~vars { Ast.desc = Ast.Field (b, f); pos }
      | Ast.Lindex (b, i) ->
        type_of_expr env ~vars { Ast.desc = Ast.Index (b, i); pos }
      | Ast.Lderef b -> type_of_expr env ~vars { Ast.desc = Ast.Deref b; pos }
    in
    let te = type_of_expr env ~vars e in
    if not (compatible tl te) then
      err pos "assigning %a into %a" Ast.pp_ty te Ast.pp_ty tl
  | Ast.If (c, a, b) ->
    let tc = type_of_expr env ~vars c in
    if tc <> Ast.Tint then err pos "if condition must be int";
    check_block env fdef scope ~in_loop a;
    check_block env fdef scope ~in_loop b
  | Ast.While (c, body) ->
    let tc = type_of_expr env ~vars c in
    if tc <> Ast.Tint then err pos "while condition must be int";
    check_block env fdef scope ~in_loop:true body
  | Ast.For (init, c, step, body) ->
    let saved = scope.vars in
    Option.iter (check_stmt env fdef scope ~in_loop) init;
    let vars name = List.assoc_opt name scope.vars in
    let tc = type_of_expr env ~vars c in
    if tc <> Ast.Tint then err pos "for condition must be int";
    check_block env fdef scope ~in_loop:true body;
    Option.iter (check_stmt env fdef scope ~in_loop:true) step;
    scope.vars <- saved
  | Ast.Return None ->
    if fdef.Ast.ret <> None then err pos "missing return value"
  | Ast.Return (Some e) -> (
    let te = type_of_expr env ~vars e in
    match fdef.Ast.ret with
    | None -> err pos "returning a value from void function"
    | Some t ->
      if not (compatible t te) then
        err pos "return type mismatch: expected %a, got %a" Ast.pp_ty t
          Ast.pp_ty te)
  | Ast.Break | Ast.Continue ->
    if not in_loop then err pos "break/continue outside a loop"
  | Ast.Expr e -> (
    (* Statement position permits void calls and discards values. *)
    match e.Ast.desc with
    | Ast.Call ("print_int", [ a ]) ->
      let t = type_of_expr env ~vars a in
      if not (compatible t Ast.Tint) then err pos "print_int expects an int"
    | Ast.Call (name, args) when not (is_intrinsic name) -> (
      match (vars name, find_func env name) with
      | Some Ast.Tfnptr, _ -> ignore (type_of_expr env ~vars e)
      | _, Some f when f.Ast.ret = None ->
        if List.length args <> List.length f.Ast.params then
          err pos "%s expects %d arguments" name (List.length f.Ast.params);
        List.iter2
          (fun arg (_, pty) ->
            let t = type_of_expr env ~vars arg in
            if not (compatible t pty) then err pos "argument type mismatch")
          args f.Ast.params
      | _ -> ignore (type_of_expr env ~vars e))
    | _ -> ignore (type_of_expr env ~vars e))
  | Ast.Block body -> check_block env fdef scope ~in_loop body

and check_block env fdef scope ~in_loop body =
  let saved = scope.vars in
  List.iter (check_stmt env fdef scope ~in_loop) body;
  scope.vars <- saved

let check_program p =
  let env = build_env p in
  List.iter
    (fun (f : Ast.func_def) ->
      let scope = { vars = List.map (fun (n, t) -> (n, t)) f.params } in
      check_block env f scope ~in_loop:false f.body)
    p.Ast.funcs;
  (match Hashtbl.find_opt env.funcs "main" with
  | Some _ -> ()
  | None -> err no_pos "no main function");
  env
