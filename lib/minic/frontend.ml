module T = Ssp_telemetry.Telemetry

exception Error of string

let render msg (pos : Ast.pos) =
  Printf.sprintf "%d:%d: %s" pos.Ast.line pos.Ast.col msg

let compile src =
  T.with_span "frontend" @@ fun () ->
  try
    let ast = T.with_span "frontend.parse" (fun () -> Parser.parse src) in
    let env =
      T.with_span "frontend.typecheck" (fun () -> Typecheck.check_program ast)
    in
    let prog = T.with_span "frontend.lower" (fun () -> Lower.program env ast) in
    T.with_span "frontend.validate" (fun () ->
        match Ssp_ir.Validate.check prog with
        | Ok () -> ()
        | Error es ->
          let msg =
            String.concat "; "
              (List.map
                 (fun e -> Format.asprintf "%a" Ssp_ir.Validate.pp_error e)
                 es)
          in
          raise (Error ("lowered program invalid: " ^ msg)));
    if T.is_enabled () then begin
      let funcs = Ssp_ir.Prog.funcs_in_order prog in
      T.count "frontend.functions" (List.length funcs);
      T.count "frontend.blocks"
        (List.fold_left
           (fun acc (f : Ssp_ir.Prog.func) -> acc + Array.length f.blocks)
           0 funcs)
    end;
    prog
  with
  | Lexer.Error (m, p) -> raise (Error (render ("lexical error: " ^ m) p))
  | Parser.Error (m, p) -> raise (Error (render ("syntax error: " ^ m) p))
  | Typecheck.Error (m, p) -> raise (Error (render ("type error: " ^ m) p))
  | Lower.Error (m, p) -> raise (Error (render ("lowering error: " ^ m) p))
