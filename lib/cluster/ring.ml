(* Consistent-hash ring with virtual nodes.

   Every shard contributes [vnodes] points on a 64-bit circle; a key is
   served by the first point at or clockwise after its own hash. The
   placement depends only on the node names through MD5, so every
   process that builds a ring from the same membership computes the same
   key -> shard map — the property the router, clients and offline tools
   all rely on. Adding or removing one shard moves only the keys whose
   owning arc changed (about 1/N of them); everything else stays put,
   which is what keeps the per-shard warm caches hot across membership
   changes. *)

type t = {
  points : (int64 * string) array; (* sorted ascending, unsigned *)
  nodes : string list; (* sorted, distinct *)
}

(* First 8 bytes of the MD5 as the position on the circle. MD5 is
   overkill cryptographically but it is the digest the store already
   standardizes on, it is seedless (deterministic across processes), and
   its diffusion is more than enough for balance. *)
let hash_key key = String.get_int64_be (Digest.string key) 0
let point_of node i = hash_key (Printf.sprintf "%s\x00vnode:%d" node i)

let compare_points (a, na) (b, nb) =
  match Int64.unsigned_compare a b with
  | 0 -> String.compare na nb
  | c -> c

(* Points per node. A constant, not a setting: processes that counted
   differently would place keys differently. *)
let vnodes = 128

let create nodes =
  let nodes = List.sort_uniq String.compare nodes in
  let points =
    List.concat_map
      (fun n -> List.init vnodes (fun i -> (point_of n i, n)))
      nodes
    |> Array.of_list
  in
  Array.sort compare_points points;
  { points; nodes }

let nodes t = t.nodes
let is_empty t = t.nodes = []
let add t node = create (node :: t.nodes)

let remove t node =
  create (List.filter (fun n -> not (String.equal n node)) t.nodes)

(* Index of the first point at or clockwise after [h] (wrapping). *)
let owner_index t h =
  let n = Array.length t.points in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let p, _ = t.points.(mid) in
    if Int64.unsigned_compare p h < 0 then lo := mid + 1 else hi := mid
  done;
  if !lo = n then 0 else !lo

let lookup t key =
  if is_empty t then None
  else
    let _, node = t.points.(owner_index t (hash_key key)) in
    Some node

(* All distinct nodes in ring order starting at the key's owner: the
   failover walk. The first element is [lookup]'s answer; a request that
   cannot reach it retries down this list, so every key has a stable,
   process-independent failover sequence. *)
let successors t key =
  if is_empty t then []
  else begin
    let n = Array.length t.points in
    let start = owner_index t (hash_key key) in
    let seen = Hashtbl.create 8 in
    let out = ref [] in
    let i = ref 0 in
    while !i < n && Hashtbl.length seen < List.length t.nodes do
      let _, node = t.points.((start + !i) mod n) in
      if not (Hashtbl.mem seen node) then begin
        Hashtbl.add seen node ();
        out := node :: !out
      end;
      incr i
    done;
    List.rev !out
  end
