open Ssp_isa
module T = Ssp_telemetry.Telemetry

type load = {
  iref : Ssp_ir.Iref.t;
  addr_reg : Reg.t;
  offset : int;
  miss_cycles : int;
  accesses : int;
  miss_ratio : float;
}

type t = { loads : load list; covered : float; total_miss_cycles : int }

let identify ?(coverage = 0.9) (prog : Ssp_ir.Prog.t)
    (profile : Ssp_profiling.Profile.t) =
  T.with_span "delinquent" @@ fun () ->
  let candidates = ref [] in
  Ssp_ir.Prog.iter_instrs prog (fun iref op ->
      match op with
      | Op.Load (_, _, base, offset) -> (
        match Ssp_profiling.Profile.load_stats profile iref with
        | Some s when s.Ssp_profiling.Profile.miss_cycles > 0 ->
          let misses =
            s.Ssp_profiling.Profile.accesses - s.Ssp_profiling.Profile.l1_hits
          in
          candidates :=
            {
              iref;
              addr_reg = base;
              offset;
              miss_cycles = s.Ssp_profiling.Profile.miss_cycles;
              accesses = s.Ssp_profiling.Profile.accesses;
              miss_ratio =
                (if s.Ssp_profiling.Profile.accesses = 0 then 0.0
                 else
                   float_of_int misses
                   /. float_of_int s.Ssp_profiling.Profile.accesses);
            }
            :: !candidates
        | Some _ | None -> ())
      | _ -> ());
  let sorted =
    List.sort (fun a b -> compare b.miss_cycles a.miss_cycles) !candidates
  in
  let total = List.fold_left (fun acc l -> acc + l.miss_cycles) 0 sorted in
  let threshold = float_of_int total *. coverage in
  let rec take acc sum = function
    | [] -> List.rev acc
    | l :: rest ->
      if float_of_int sum >= threshold then List.rev acc
      else take (l :: acc) (sum + l.miss_cycles) rest
  in
  let picked = take [] 0 sorted in
  (* Drop noise: loads contributing under 1% of total miss cycles. *)
  let picked =
    List.filter
      (fun l -> float_of_int l.miss_cycles >= 0.01 *. float_of_int total)
      picked
  in
  let covered_cycles =
    List.fold_left (fun acc l -> acc + l.miss_cycles) 0 picked
  in
  if T.is_enabled () then begin
    T.count "delinquent.candidates" (List.length sorted);
    T.count "delinquent.selected" (List.length picked);
    List.iter (fun l -> T.record_hist "delinquent.miss_ratio" l.miss_ratio) picked
  end;
  {
    loads = picked;
    covered =
      (if total = 0 then 0.0
       else float_of_int covered_cycles /. float_of_int total);
    total_miss_cycles = total;
  }

let set t =
  List.fold_left
    (fun acc l -> Ssp_ir.Iref.Set.add l.iref acc)
    Ssp_ir.Iref.Set.empty t.loads

let pp ppf t =
  Format.fprintf ppf
    "@[<v>%d delinquent loads covering %.1f%% of %d miss cycles:@,"
    (List.length t.loads) (100.0 *. t.covered) t.total_miss_cycles;
  List.iter
    (fun l ->
      Format.fprintf ppf "  %a  [%a%+d]  miss_cycles=%d accesses=%d miss=%.1f%%@,"
        Ssp_ir.Iref.pp l.iref Reg.pp l.addr_reg l.offset l.miss_cycles
        l.accesses (100.0 *. l.miss_ratio))
    t.loads;
  Format.fprintf ppf "@]"
