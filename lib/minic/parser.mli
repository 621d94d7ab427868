(** Recursive-descent parser for mini-C.

    Grammar sketch (precedence climbing for expressions, lowest first:
    [||], [&&], bitwise, comparison, shift, additive, multiplicative,
    unary, postfix):

    {v
    program   ::= (struct_def | global | func)*
    struct_def::= "struct" IDENT "{" (type IDENT ";")* "}" [";"]
    global    ::= type IDENT ("[" INT "]")? ";"
    func      ::= (type | "void") IDENT "(" params ")" block
    stmt      ::= decl | assign | if | while | for | return
                | "break" ";" | "continue" ";" | expr ";" | block
    v}

    Types are [int], [fnptr], [IDENT] (a struct name — only usable under
    [*]) followed by any number of [*]. *)

exception Error of string * Ast.pos

val parse : string -> Ast.program
(** Raises {!Error} (or {!Lexer.Error}) on malformed input. *)
