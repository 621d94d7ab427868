type region = Proc of string | Loop of string * int

type per_func = {
  cfg : Cfg.t;
  loops : Loops.t;
  loop_members : (int, Bytes.t) Hashtbl.t;
      (* loop id -> block-membership bitset ('\001' = in body), built
         eagerly so region-membership tests are O(1) and read-only *)
  mutable reach : Reaching.t option;
}

type t = { prog : Ssp_ir.Prog.t; by_func : (string, per_func) Hashtbl.t }

let prog t = t.prog

let compute (prog : Ssp_ir.Prog.t) =
  let by_func = Hashtbl.create 16 in
  List.iter
    (fun (f : Ssp_ir.Prog.func) ->
      let cfg = Cfg.of_func f in
      let dom = Dom.compute cfg.Cfg.graph ~entry:0 in
      let loops = Loops.compute cfg dom in
      let loop_members = Hashtbl.create 8 in
      List.iter
        (fun (l : Loops.loop) ->
          let m = Bytes.make (Cfg.n_blocks cfg) '\000' in
          List.iter (fun b -> Bytes.set m b '\001') l.Loops.body;
          Hashtbl.replace loop_members l.Loops.id m)
        (Loops.all loops);
      Hashtbl.replace by_func f.name
        { cfg; loops; loop_members; reach = None })
    (Ssp_ir.Prog.funcs_in_order prog);
  { prog; by_func }

let pf t fn =
  match Hashtbl.find_opt t.by_func fn with
  | Some x -> x
  | None -> invalid_arg (Printf.sprintf "Regions: unknown function %s" fn)

let cfg_of t fn = (pf t fn).cfg
let loops_of t fn = (pf t fn).loops

let reaching_of t fn =
  let p = pf t fn in
  match p.reach with
  | Some r -> r
  | None ->
    let r = Reaching.compute p.cfg in
    p.reach <- Some r;
    r

(* After [freeze] the structure is never written again, so it can be
   shared read-only across domains. *)
let freeze t = Hashtbl.iter (fun fn _ -> ignore (reaching_of t fn)) t.by_func

let innermost_at t (i : Ssp_ir.Iref.t) =
  let p = pf t i.fn in
  match Loops.innermost_at p.loops i.blk with
  | Some l -> Loop (i.fn, l.Loops.id)
  | None -> Proc i.fn

let parent t = function
  | Proc _ -> None
  | Loop (fn, id) -> (
    let p = pf t fn in
    let l = Loops.find p.loops id in
    match l.Loops.parent with
    | Some pid -> Some (Loop (fn, pid))
    | None -> Some (Proc fn))

let func_of = function Proc fn -> fn | Loop (fn, _) -> fn

let blocks_of t = function
  | Proc fn ->
    let p = pf t fn in
    List.init (Cfg.n_blocks p.cfg) Fun.id
  | Loop (fn, id) ->
    let p = pf t fn in
    (Loops.find p.loops id).Loops.body

let loop_of t = function
  | Proc _ -> None
  | Loop (fn, id) -> Some (Loops.find (pf t fn).loops id)

let in_region t region blk =
  match region with
  | Proc fn -> blk >= 0 && blk < Cfg.n_blocks (pf t fn).cfg
  | Loop (fn, id) ->
    let m = Hashtbl.find (pf t fn).loop_members id in
    blk >= 0 && blk < Bytes.length m && Bytes.get m blk = '\001'

let depth t = function
  | Proc _ -> 0
  | Loop (fn, id) -> (Loops.find (pf t fn).loops id).Loops.depth

let pp ppf = function
  | Proc fn -> Format.fprintf ppf "proc(%s)" fn
  | Loop (fn, id) -> Format.fprintf ppf "loop(%s,%d)" fn id
