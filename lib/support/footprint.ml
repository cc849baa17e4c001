(* The closed vocabulary of shared resources a pool task may touch.

   A [resource] is a *declared* region (a whole object or a contiguous
   row/block range of one); a [key] is an *observed* access point at the
   granularity the instrumentation hooks record (one row, one block, one
   object). Declarations are ranges so a scan chunk can claim a
   contiguous block interval in O(1) space; observations are points so
   the dynamic checker can test containment without enumerating.

   Objects are identified by process-unique integer ids drawn from
   {!fresh_uid}; every hooked structure (Bitset, Bit_matrix, Igraph,
   Edge_cache, a Liveness solution) stamps one at creation. The id
   namespace is shared across kinds — an id names one object, whatever
   its type — which is what lets ownership tracking (who created an
   object) live in one table. *)

type resource =
  | Bitset of int (* the whole set *)
  | Bit_matrix_rows of { id : int; lo : int; hi : int }
  | Igraph_rows of { id : int; lo : int; hi : int }
  | Edge_cache_blocks of { id : int; lo : int; hi : int }
  | Liveness of int (* the whole solution: live-in/out arrays + scratch *)
  | Telemetry (* the process sink; mutex-protected, so never a conflict *)

type key =
  | K_bitset of int
  | K_bit_matrix_row of int * int (* id, row; row = -1 for whole object *)
  | K_igraph_row of int * int (* id, row *)
  | K_edge_cache_block of int * int (* id, block *)
  | K_liveness of int
  | K_telemetry

type t = {
  reads : resource list;
  writes : resource list;
}

let empty = { reads = []; writes = [] }

let uid_counter = Atomic.make 0

let fresh_uid () = Atomic.fetch_and_add uid_counter 1

let uid_of_key = function
  | K_bitset id
  | K_bit_matrix_row (id, _)
  | K_igraph_row (id, _)
  | K_edge_cache_block (id, _)
  | K_liveness id -> Some id
  | K_telemetry -> None

(* [Telemetry] is self-synchronized (every emission runs under the
   sink's mutex), so two tasks writing it is not a conflict — it stays
   in the vocabulary only so footprints can declare it and conformance
   can check the declaration. *)
let synchronized = function
  | Telemetry -> true
  | Bitset _ | Bit_matrix_rows _ | Igraph_rows _ | Edge_cache_blocks _
  | Liveness _ -> false

let ranges_meet lo1 hi1 lo2 hi2 = lo1 <= hi2 && lo2 <= hi1

let overlap a b =
  match a, b with
  | Telemetry, _ | _, Telemetry -> false
  | Bitset i, Bitset j -> i = j
  | Liveness i, Liveness j -> i = j
  | Bit_matrix_rows a, Bit_matrix_rows b ->
    a.id = b.id && ranges_meet a.lo a.hi b.lo b.hi
  | Igraph_rows a, Igraph_rows b ->
    a.id = b.id && ranges_meet a.lo a.hi b.lo b.hi
  | Edge_cache_blocks a, Edge_cache_blocks b ->
    a.id = b.id && ranges_meet a.lo a.hi b.lo b.hi
  | (Bitset _ | Liveness _ | Bit_matrix_rows _ | Igraph_rows _
    | Edge_cache_blocks _), _ -> false

(* A whole-object observation (row = -1: a resize/reset touching every
   row) is only covered by a full-range declaration. *)
let covers r k =
  match r, k with
  | Bitset i, K_bitset j -> i = j
  | Liveness i, K_liveness j -> i = j
  | Telemetry, K_telemetry -> true
  | Bit_matrix_rows a, K_bit_matrix_row (id, row) ->
    a.id = id && (if row < 0 then a.lo = 0 && a.hi = max_int
                  else a.lo <= row && row <= a.hi)
  | Igraph_rows a, K_igraph_row (id, row) ->
    a.id = id && (if row < 0 then a.lo = 0 && a.hi = max_int
                  else a.lo <= row && row <= a.hi)
  | Edge_cache_blocks a, K_edge_cache_block (id, blk) ->
    a.id = id && a.lo <= blk && blk <= a.hi
  | (Bitset _ | Liveness _ | Telemetry | Bit_matrix_rows _
    | Igraph_rows _ | Edge_cache_blocks _), _ -> false

let covered_by resources k = List.exists (fun r -> covers r k) resources

(* First (write of [a]) × (read ∪ write of [b]) overlap, if any. The
   caller checks both orders; synchronized resources never conflict. *)
let conflict a b =
  let hit wa =
    if synchronized wa then None
    else
      match List.find_opt (fun r -> overlap wa r) (b.writes @ b.reads) with
      | Some rb -> Some (wa, rb)
      | None -> None
  in
  List.find_map hit a.writes

let range_to_string what id lo hi =
  if lo = 0 && hi = max_int then Printf.sprintf "%s#%d[*]" what id
  else Printf.sprintf "%s#%d[%d..%d]" what id lo hi

let resource_to_string = function
  | Bitset id -> Printf.sprintf "bitset#%d" id
  | Bit_matrix_rows { id; lo; hi } -> range_to_string "bit-matrix" id lo hi
  | Igraph_rows { id; lo; hi } -> range_to_string "igraph" id lo hi
  | Edge_cache_blocks { id; lo; hi } -> range_to_string "edge-cache" id lo hi
  | Liveness id -> Printf.sprintf "liveness#%d" id
  | Telemetry -> "telemetry"

let key_to_string = function
  | K_bitset id -> Printf.sprintf "bitset#%d" id
  | K_bit_matrix_row (id, row) ->
    if row < 0 then Printf.sprintf "bit-matrix#%d[*]" id
    else Printf.sprintf "bit-matrix#%d[%d]" id row
  | K_igraph_row (id, row) -> Printf.sprintf "igraph#%d[%d]" id row
  | K_edge_cache_block (id, b) -> Printf.sprintf "edge-cache#%d[%d]" id b
  | K_liveness id -> Printf.sprintf "liveness#%d" id
  | K_telemetry -> "telemetry"
