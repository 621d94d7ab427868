(* Admission control and multi-tenant fairness for the serve loop.

   Work requests are queued per tenant; each serve round drains at most
   [max] of them, round-robin over the active tenants, one request per
   tenant per visit. A tenant that floods the daemon fills only its own
   queue and gets the same per-round share as everyone else — a hot
   tenant cannot starve the fleet, only itself. The caller bounds the
   total backlog and converts overflow into retry-after rejections
   before anything reaches these queues. *)

type 'a t = {
  queues : (string, 'a Queue.t) Hashtbl.t;
  rotation : string Queue.t; (* active tenants, next-to-serve first *)
  mutable backlog : int;
}

let create () =
  { queues = Hashtbl.create 8; rotation = Queue.create (); backlog = 0 }

let backlog t = t.backlog

let enqueue t ~tenant item =
  let q =
    match Hashtbl.find_opt t.queues tenant with
    | Some q -> q
    | None ->
      let q = Queue.create () in
      Hashtbl.replace t.queues tenant q;
      Queue.push tenant t.rotation;
      q
  in
  Queue.push item q;
  t.backlog <- t.backlog + 1

(* Up to [max] items, one per visited tenant. Tenants drained empty
   leave the rotation; the rest rotate to the back, so the next round
   resumes where this one stopped. *)
let select t ~max =
  let out = ref [] in
  let n = ref 0 in
  while !n < max && t.backlog > 0 do
    let tenant = Queue.pop t.rotation in
    let q = Hashtbl.find t.queues tenant in
    out := (tenant, Queue.pop q) :: !out;
    incr n;
    t.backlog <- t.backlog - 1;
    if Queue.is_empty q then Hashtbl.remove t.queues tenant
    else Queue.push tenant t.rotation
  done;
  List.rev !out

(* Drain everything (shutdown paths: every queued request still gets a
   structured reply instead of silence). *)
let drain t =
  let out = ref [] in
  Hashtbl.iter
    (fun tenant q -> Queue.iter (fun item -> out := (tenant, item) :: !out) q)
    t.queues;
  Hashtbl.reset t.queues;
  Queue.clear t.rotation;
  t.backlog <- 0;
  List.rev !out
