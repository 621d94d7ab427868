open Ssp_isa

(* mcf: the automatic pipeline with four iterations per chaining thread. *)
let adapt_mcf ~config prog profile =
  let auto = Adapt.run ~config prog profile in
  let choices =
    List.map
      (fun (c : Select.choice) ->
        match c.Select.model with
        | Select.Chaining -> { c with Select.unroll = 4 }
        | Select.Basic -> { c with Select.unroll = 2 })
      auto.Adapt.choices
  in
  Adapt.apply_choices prog ~config choices auto.Adapt.delinquent

(* health: the automatic adaptation plus a hand-written interprocedural
   slice with one recursion level inlined. Offsets follow the village /
   patient layout of the workload source (8-byte fields):
   village = { child0; child1; child2; child3; list; seed; npatients }
   patient = { time; units; severity; next } *)
let health_child_offsets = [ 0; 8; 16; 24 ]
let health_list_offset = 32
let health_patient_next = 24

let adapt_health ~config prog profile =
  let auto = Adapt.run ~config prog profile in
  let adapted = auto.Adapt.prog in
  if not (Hashtbl.mem adapted.Ssp_ir.Prog.funcs "simulate") then None
  else begin
    (* Call sites are located in the already-adapted binary: the automatic
       pass moved instruction positions when it split trigger blocks. *)
    let callgraph = Ssp_analysis.Callgraph.compute adapted in
    let sites = Ssp_analysis.Callgraph.callers callgraph "simulate" in
    if sites = [] then None
    else begin
      (* Registers of the fresh speculative context. *)
      let v = 32 and l = 33 and p1 = 34 and p2 = 35 in
      let c k = 40 + k and cl k = 48 + k and cn k = 56 + k in
      let body =
        ref
          [
            Op.Lib_ld (v, 0);
            (* this village's patient list: walk two nodes ahead *)
            Op.Load (Op.W8, l, v, health_list_offset);
            Op.Lfetch (l, 0);
            Op.Load (Op.W8, p1, l, health_patient_next);
            Op.Lfetch (p1, 0);
            Op.Load (Op.W8, p2, p1, health_patient_next);
            Op.Lfetch (p2, 0);
          ]
      in
      (* children and, one recursion level deep, their lists *)
      List.iteri
        (fun k off ->
          body :=
            !body
            @ [
                Op.Load (Op.W8, c k, v, off);
                Op.Lfetch (c k, 0);
                Op.Load (Op.W8, cl k, c k, health_list_offset);
                Op.Lfetch (cl k, 0);
                Op.Load (Op.W8, cn k, cl k, health_patient_next);
                Op.Lfetch (cn k, 0);
              ])
        health_child_offsets;
      body := !body @ [ Op.Kill ];
      let l_slice =
        Codegen.append_raw_block adapted ~fn:"simulate" ~stem:"hand_slice"
          !body
      in
      (* Trigger at every call site: the actual v is in r8 right before the
         call. Insert per block from the highest position down. *)
      let sorted =
        List.sort
          (fun ((a : Ssp_ir.Iref.t), _) ((b : Ssp_ir.Iref.t), _) ->
            Ssp_ir.Iref.compare b a)
          sites
      in
      List.iter
        (fun ((site : Ssp_ir.Iref.t), _) ->
          Codegen.insert_chk adapted ~fn:site.Ssp_ir.Iref.fn
            ~blk:site.Ssp_ir.Iref.blk ~pos:site.Ssp_ir.Iref.ins
            ~stub_ops:
              [ Op.Lib_st (0, Reg.arg 0); Op.Spawn ("simulate", l_slice) ])
        sorted;
      (match Ssp_ir.Validate.check adapted with
      | Ok () -> ()
      | Error (e :: _) ->
        Ssp_ir.Error.raise_error ~pass:"hand"
          ?instr:(Option.map Ssp_ir.Iref.to_string e.Ssp_ir.Validate.where)
          ("adapt_health produced an invalid rewrite: "
          ^ e.Ssp_ir.Validate.message)
      | Error [] ->
        Ssp_ir.Error.raise_error ~pass:"hand"
          "adapt_health produced an invalid rewrite");
      Some auto
    end
  end

let adapt ~workload ~config prog profile =
  match workload with
  | "mcf" -> Some (adapt_mcf ~config prog profile)
  | "health" -> adapt_health ~config prog profile
  | _ -> None
