type token =
  | INT of int64
  | IDENT of string
  | KW of string
  | PUNCT of string
  | EOF

type lexed = { tok : token; pos : Ast.pos }

exception Error of string * Ast.pos

let is_keyword = function
  | "int" | "struct" | "fnptr" | "if" | "else" | "while" | "for" | "return"
  | "break" | "continue" | "new" | "newarray" | "null" | "sizeof" | "void" ->
    true
  | _ -> false

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'

(* The two-character operators, and [""] for any other pair. *)
let two_char c c2 =
  match (c, c2) with
  | '=', '=' -> "=="
  | '!', '=' -> "!="
  | '<', '=' -> "<="
  | '>', '=' -> ">="
  | '&', '&' -> "&&"
  | '|', '|' -> "||"
  | '<', '<' -> "<<"
  | '>', '>' -> ">>"
  | '-', '>' -> "->"
  | _ -> ""

(* Every test reads a character at a known index, so nothing is
   allocated per character and every comparison is at [char]. *)
let tokenize src =
  let n = String.length src in
  let line = ref 1 and col = ref 1 in
  let i = ref 0 in
  let out = ref [] in
  let pos () = { Ast.line = !line; col = !col } in
  let advance () =
    if !i < n then begin
      if src.[!i] = '\n' then begin
        incr line;
        col := 1
      end
      else incr col;
      incr i
    end
  in
  (* Whether the character [k] past the cursor exists and is [c]. *)
  let at k c = !i + k < n && src.[!i + k] = c in
  let emit tok p = out := { tok; pos = p } :: !out in
  let rec skip_ws () =
    if !i < n then
      match src.[!i] with
      | ' ' | '\t' | '\r' | '\n' ->
        advance ();
        skip_ws ()
      | '/' when at 1 '/' ->
        while !i < n && src.[!i] <> '\n' do
          advance ()
        done;
        skip_ws ()
      | '/' when at 1 '*' ->
        let p = pos () in
        advance ();
        advance ();
        let rec close () =
          if !i >= n then raise (Error ("unterminated comment", p))
          else if at 0 '*' && at 1 '/' then begin
            advance ();
            advance ()
          end
          else begin
            advance ();
            close ()
          end
        in
        close ();
        skip_ws ()
      | _ -> ()
  in
  while
    skip_ws ();
    !i < n
  do
    let p = pos () in
    let c = src.[!i] in
    if is_digit c then begin
      let start = !i in
      while !i < n && is_digit src.[!i] do
        advance ()
      done;
      let s = String.sub src start (!i - start) in
      match Int64.of_string_opt s with
      | Some v -> emit (INT v) p
      | None ->
        raise (Error (Printf.sprintf "integer literal %s out of range" s, p))
    end
    else if is_ident_start c then begin
      let start = !i in
      while !i < n && is_ident_char src.[!i] do
        advance ()
      done;
      let s = String.sub src start (!i - start) in
      emit (if is_keyword s then KW s else IDENT s) p
    end
    else begin
      let pair = if !i + 1 < n then two_char c src.[!i + 1] else "" in
      if String.length pair = 2 then begin
        advance ();
        advance ();
        emit (PUNCT pair) p
      end
      else
        match c with
        | '+' | '-' | '*' | '/' | '%' | '&' | '|' | '^' | '<' | '>' | '='
        | '!' | '(' | ')' | '{' | '}' | '[' | ']' | ';' | ',' | '.' ->
          advance ();
          emit (PUNCT (String.make 1 c)) p
        | _ -> raise (Error (Printf.sprintf "unexpected character %C" c, p))
    end
  done;
  emit EOF (pos ());
  List.rev !out

let pp_token ppf = function
  | INT i -> Format.fprintf ppf "%Ld" i
  | IDENT s -> Format.fprintf ppf "identifier %s" s
  | KW s -> Format.fprintf ppf "keyword %s" s
  | PUNCT s -> Format.fprintf ppf "'%s'" s
  | EOF -> Format.fprintf ppf "end of input"
