let run ?attrib ?sampling config prog =
  match config.Ssp_machine.Config.pipeline with
  | Ssp_machine.Config.In_order -> Inorder.run ?attrib ?sampling config prog
  | Ssp_machine.Config.Out_of_order -> Ooo.run ?attrib ?sampling config prog
