exception Error of string * Ast.pos

type state = { mutable toks : Lexer.lexed list }

let peek st =
  match st.toks with
  | [] -> { Lexer.tok = Lexer.EOF; pos = { Ast.line = 0; col = 0 } }
  | t :: _ -> t

let advance st = match st.toks with [] -> () | _ :: tl -> st.toks <- tl

let next st =
  let t = peek st in
  advance st;
  t

let fail st fmt =
  let p = (peek st).Lexer.pos in
  Format.kasprintf (fun m -> raise (Error (m, p))) fmt

let expect_punct st s =
  match (peek st).Lexer.tok with
  | Lexer.PUNCT p when String.equal p s -> advance st
  | t -> fail st "expected '%s', found %a" s Lexer.pp_token t

let expect_kw st s =
  match (peek st).Lexer.tok with
  | Lexer.KW k when String.equal k s -> advance st
  | t -> fail st "expected keyword %s, found %a" s Lexer.pp_token t

let expect_ident st =
  match (peek st).Lexer.tok with
  | Lexer.IDENT s ->
    advance st;
    s
  | t -> fail st "expected identifier, found %a" Lexer.pp_token t

let is_punct st s =
  match (peek st).Lexer.tok with
  | Lexer.PUNCT p -> String.equal p s
  | _ -> false

let is_kw st s =
  match (peek st).Lexer.tok with
  | Lexer.KW k -> String.equal k s
  | _ -> false

(* A type starts with "int", "fnptr" or a struct name followed by '*'.
   Whether an IDENT starts a type needs the struct environment; the parser
   collects struct names as it sees their definitions. *)
let parse_base_ty st structs =
  match (peek st).Lexer.tok with
  | Lexer.KW "int" ->
    advance st;
    Ast.Tint
  | Lexer.KW "fnptr" ->
    advance st;
    Ast.Tfnptr
  | Lexer.IDENT s when Hashtbl.mem structs s ->
    advance st;
    Ast.Tstruct s
  | t -> fail st "expected a type, found %a" Lexer.pp_token t

(* [newarray(pair, n)] names a bare struct as element type; everywhere else
   a struct is only legal under at least one [*]. *)
let parse_ty_allow_struct st structs =
  let base = parse_base_ty st structs in
  let rec stars t =
    if is_punct st "*" then begin
      advance st;
      stars (Ast.Tptr t)
    end
    else t
  in
  stars base

let parse_ty st structs =
  let t = parse_ty_allow_struct st structs in
  (match t with
  | Ast.Tstruct s ->
    fail st "struct %s can only be used through a pointer" s
  | _ -> ());
  t

let starts_type st structs =
  match (peek st).Lexer.tok with
  | Lexer.KW ("int" | "fnptr") -> true
  | Lexer.IDENT s -> (
    (* A struct name starts a type only when followed by '*'. *)
    Hashtbl.mem structs s
    &&
    match st.toks with
    | _ :: { Lexer.tok = Lexer.PUNCT "*"; _ } :: _ -> true
    | _ -> false)
  | _ -> false

let rec parse_expr st structs = parse_lor st structs

and parse_lor st structs =
  let rec go acc =
    if is_punct st "||" then begin
      let p = (peek st).Lexer.pos in
      advance st;
      let rhs = parse_land st structs in
      go { Ast.desc = Ast.Binary (Ast.Lor, acc, rhs); pos = p }
    end
    else acc
  in
  go (parse_land st structs)

and parse_land st structs =
  let rec go acc =
    if is_punct st "&&" then begin
      let p = (peek st).Lexer.pos in
      advance st;
      let rhs = parse_bits st structs in
      go { Ast.desc = Ast.Binary (Ast.Land, acc, rhs); pos = p }
    end
    else acc
  in
  go (parse_bits st structs)

and parse_bits st structs =
  let op_of = function
    | "&" -> Some Ast.Band
    | "|" -> Some Ast.Bor
    | "^" -> Some Ast.Bxor
    | _ -> None
  in
  let rec go acc =
    match (peek st).Lexer.tok with
    | Lexer.PUNCT s -> (
      match op_of s with
      | Some op ->
        let p = (peek st).Lexer.pos in
        advance st;
        let rhs = parse_cmp st structs in
        go { Ast.desc = Ast.Binary (op, acc, rhs); pos = p }
      | None -> acc)
    | _ -> acc
  in
  go (parse_cmp st structs)

and parse_cmp st structs =
  let op_of = function
    | "==" -> Some Ast.Eq
    | "!=" -> Some Ast.Ne
    | "<" -> Some Ast.Lt
    | "<=" -> Some Ast.Le
    | ">" -> Some Ast.Gt
    | ">=" -> Some Ast.Ge
    | _ -> None
  in
  let rec go acc =
    match (peek st).Lexer.tok with
    | Lexer.PUNCT s -> (
      match op_of s with
      | Some op ->
        let p = (peek st).Lexer.pos in
        advance st;
        let rhs = parse_shift st structs in
        go { Ast.desc = Ast.Binary (op, acc, rhs); pos = p }
      | None -> acc)
    | _ -> acc
  in
  go (parse_shift st structs)

and parse_shift st structs =
  let op_of = function
    | "<<" -> Some Ast.Shl
    | ">>" -> Some Ast.Shr
    | _ -> None
  in
  let rec go acc =
    match (peek st).Lexer.tok with
    | Lexer.PUNCT s -> (
      match op_of s with
      | Some op ->
        let p = (peek st).Lexer.pos in
        advance st;
        let rhs = parse_add st structs in
        go { Ast.desc = Ast.Binary (op, acc, rhs); pos = p }
      | None -> acc)
    | _ -> acc
  in
  go (parse_add st structs)

and parse_add st structs =
  let op_of = function
    | "+" -> Some Ast.Add
    | "-" -> Some Ast.Sub
    | _ -> None
  in
  let rec go acc =
    match (peek st).Lexer.tok with
    | Lexer.PUNCT s -> (
      match op_of s with
      | Some op ->
        let p = (peek st).Lexer.pos in
        advance st;
        let rhs = parse_mul st structs in
        go { Ast.desc = Ast.Binary (op, acc, rhs); pos = p }
      | None -> acc)
    | _ -> acc
  in
  go (parse_mul st structs)

and parse_mul st structs =
  let op_of = function
    | "*" -> Some Ast.Mul
    | "/" -> Some Ast.Div
    | "%" -> Some Ast.Rem
    | _ -> None
  in
  let rec go acc =
    match (peek st).Lexer.tok with
    | Lexer.PUNCT s -> (
      match op_of s with
      | Some op ->
        let p = (peek st).Lexer.pos in
        advance st;
        let rhs = parse_unary st structs in
        go { Ast.desc = Ast.Binary (op, acc, rhs); pos = p }
      | None -> acc)
    | _ -> acc
  in
  go (parse_unary st structs)

and parse_unary st structs =
  let p = (peek st).Lexer.pos in
  match (peek st).Lexer.tok with
  | Lexer.PUNCT "-" ->
    advance st;
    { Ast.desc = Ast.Unary (Ast.Neg, parse_unary st structs); pos = p }
  | Lexer.PUNCT "!" ->
    advance st;
    { Ast.desc = Ast.Unary (Ast.Not, parse_unary st structs); pos = p }
  | Lexer.PUNCT "*" ->
    advance st;
    { Ast.desc = Ast.Deref (parse_unary st structs); pos = p }
  | Lexer.PUNCT "&" ->
    advance st;
    let name = expect_ident st in
    (* Resolution between function and global happens in the typechecker;
       syntactically both are [&name]. *)
    { Ast.desc = Ast.Addr_of_func name; pos = p }
  | _ -> parse_postfix st structs

and parse_postfix st structs =
  let e = parse_primary st structs in
  let rec go e =
    let p = (peek st).Lexer.pos in
    if is_punct st "->" then begin
      advance st;
      let f = expect_ident st in
      go { Ast.desc = Ast.Field (e, f); pos = p }
    end
    else if is_punct st "[" then begin
      advance st;
      let idx = parse_expr st structs in
      expect_punct st "]";
      go { Ast.desc = Ast.Index (e, idx); pos = p }
    end
    else e
  in
  go e

and parse_args st structs =
  expect_punct st "(";
  if is_punct st ")" then begin
    advance st;
    []
  end
  else begin
    let rec go acc =
      let e = parse_expr st structs in
      if is_punct st "," then begin
        advance st;
        go (e :: acc)
      end
      else begin
        expect_punct st ")";
        List.rev (e :: acc)
      end
    in
    go []
  end

and parse_primary st structs =
  let { Lexer.tok; pos = p } = peek st in
  match tok with
  | Lexer.INT i ->
    advance st;
    { Ast.desc = Ast.Int i; pos = p }
  | Lexer.KW "null" ->
    advance st;
    { Ast.desc = Ast.Null; pos = p }
  | Lexer.KW "new" ->
    advance st;
    let s = expect_ident st in
    { Ast.desc = Ast.New s; pos = p }
  | Lexer.KW "newarray" ->
    advance st;
    expect_punct st "(";
    let t = parse_ty_allow_struct st structs in
    expect_punct st ",";
    let n = parse_expr st structs in
    expect_punct st ")";
    { Ast.desc = Ast.New_array (t, n); pos = p }
  | Lexer.KW "sizeof" ->
    advance st;
    expect_punct st "(";
    let s = expect_ident st in
    expect_punct st ")";
    { Ast.desc = Ast.Sizeof s; pos = p }
  | Lexer.IDENT name -> (
    advance st;
    if is_punct st "(" then
      let args = parse_args st structs in
      { Ast.desc = Ast.Call (name, args); pos = p }
    else { Ast.desc = Ast.Var name; pos = p })
  | Lexer.PUNCT "(" ->
    advance st;
    let e = parse_expr st structs in
    expect_punct st ")";
    e
  | t -> fail st "expected an expression, found %a" Lexer.pp_token t

let rec parse_stmt st structs =
  let { Lexer.tok; pos = p } = peek st in
  let mk sdesc = { Ast.sdesc; spos = p } in
  match tok with
  | Lexer.PUNCT "{" ->
    advance st;
    let body = parse_stmts st structs in
    expect_punct st "}";
    mk (Ast.Block body)
  | Lexer.KW "if" ->
    advance st;
    expect_punct st "(";
    let c = parse_expr st structs in
    expect_punct st ")";
    let then_ = parse_stmt_block st structs in
    let else_ =
      if is_kw st "else" then begin
        advance st;
        parse_stmt_block st structs
      end
      else []
    in
    mk (Ast.If (c, then_, else_))
  | Lexer.KW "while" ->
    advance st;
    expect_punct st "(";
    let c = parse_expr st structs in
    expect_punct st ")";
    let body = parse_stmt_block st structs in
    mk (Ast.While (c, body))
  | Lexer.KW "for" ->
    advance st;
    expect_punct st "(";
    let init =
      if is_punct st ";" then None else Some (parse_simple_stmt st structs)
    in
    expect_punct st ";";
    let cond = parse_expr st structs in
    expect_punct st ";";
    let step =
      if is_punct st ")" then None else Some (parse_simple_stmt st structs)
    in
    expect_punct st ")";
    let body = parse_stmt_block st structs in
    mk (Ast.For (init, cond, step, body))
  | Lexer.KW "return" ->
    advance st;
    if is_punct st ";" then begin
      advance st;
      mk (Ast.Return None)
    end
    else begin
      let e = parse_expr st structs in
      expect_punct st ";";
      mk (Ast.Return (Some e))
    end
  | Lexer.KW "break" ->
    advance st;
    expect_punct st ";";
    mk Ast.Break
  | Lexer.KW "continue" ->
    advance st;
    expect_punct st ";";
    mk Ast.Continue
  | _ ->
    let s = parse_simple_stmt st structs in
    expect_punct st ";";
    s

(* A declaration, assignment or expression statement — without the trailing
   semicolon (shared with for-headers). *)
and parse_simple_stmt st structs =
  let p = (peek st).Lexer.pos in
  let mk sdesc = { Ast.sdesc; spos = p } in
  if starts_type st structs then begin
    let t = parse_ty st structs in
    let name = expect_ident st in
    if is_punct st "=" then begin
      advance st;
      let e = parse_expr st structs in
      mk (Ast.Decl (t, name, Some e))
    end
    else mk (Ast.Decl (t, name, None))
  end
  else begin
    let e = parse_expr st structs in
    if is_punct st "=" then begin
      advance st;
      let rhs = parse_expr st structs in
      let lv =
        match e.Ast.desc with
        | Ast.Var v -> Ast.Lvar v
        | Ast.Field (b, f) -> Ast.Lfield (b, f)
        | Ast.Index (b, i) -> Ast.Lindex (b, i)
        | Ast.Deref b -> Ast.Lderef b
        | _ -> raise (Error ("invalid assignment target", p))
      in
      mk (Ast.Assign (lv, rhs))
    end
    else mk (Ast.Expr e)
  end

and parse_stmt_block st structs =
  if is_punct st "{" then begin
    advance st;
    let body = parse_stmts st structs in
    expect_punct st "}";
    body
  end
  else [ parse_stmt st structs ]

and parse_stmts st structs =
  let rec go acc =
    if is_punct st "}" then List.rev acc
    else go (parse_stmt st structs :: acc)
  in
  go []

let parse_struct st structs =
  expect_kw st "struct";
  let sname = expect_ident st in
  Hashtbl.replace structs sname ();
  expect_punct st "{";
  let rec fields acc =
    if is_punct st "}" then begin
      advance st;
      List.rev acc
    end
    else begin
      let t = parse_ty st structs in
      let name = expect_ident st in
      expect_punct st ";";
      fields ((name, t) :: acc)
    end
  in
  let fields = fields [] in
  if is_punct st ";" then advance st;
  { Ast.sname; fields }

let parse_program src =
  let st = { toks = Lexer.tokenize src } in
  let structs = Hashtbl.create 16 in
  let sdefs = ref [] and globals = ref [] and funcs = ref [] in
  let rec go () =
    match (peek st).Lexer.tok with
    | Lexer.EOF -> ()
    | Lexer.KW "struct" ->
      sdefs := parse_struct st structs :: !sdefs;
      go ()
    | _ ->
      let p = (peek st).Lexer.pos in
      let ret =
        if is_kw st "void" then begin
          advance st;
          None
        end
        else Some (parse_ty st structs)
      in
      let name = expect_ident st in
      if is_punct st "(" then begin
        (* function *)
        advance st;
        let params =
          if is_punct st ")" then begin
            advance st;
            []
          end
          else begin
            let rec go acc =
              let t = parse_ty st structs in
              let n = expect_ident st in
              if is_punct st "," then begin
                advance st;
                go ((n, t) :: acc)
              end
              else begin
                expect_punct st ")";
                List.rev ((n, t) :: acc)
              end
            in
            go []
          end
        in
        expect_punct st "{";
        let body = parse_stmts st structs in
        expect_punct st "}";
        funcs := { Ast.fname = name; params; ret; body; fpos = p } :: !funcs
      end
      else begin
        (* global *)
        let gty = match ret with Some t -> t | None -> fail st "void global" in
        let gsize =
          if is_punct st "[" then begin
            advance st;
            match (next st).Lexer.tok with
            | Lexer.INT n ->
              expect_punct st "]";
              Int64.to_int n
            | t -> fail st "expected array size, found %a" Lexer.pp_token t
          end
          else 1
        in
        expect_punct st ";";
        globals := { Ast.gname = name; gty; gsize } :: !globals
      end;
      go ()
  in
  go ();
  {
    Ast.structs = List.rev !sdefs;
    globals = List.rev !globals;
    funcs = List.rev !funcs;
  }

let parse = parse_program
