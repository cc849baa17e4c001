(** Declared effect footprints for pool tasks.

    A footprint is a pair of read/write sets over a closed variant of the
    allocator's shared resources: whole bitsets, [Bit_matrix] /
    [Igraph] row ranges, [Edge_cache] block ranges, a whole liveness
    solution, the telemetry sink. Tasks submitted to {!Pool.run} declare
    one; the static checker ({!Ra_check.Effects}) rejects batches whose
    write sets overlap another task's read∪write set, and the dynamic
    race detector ({!Ra_check.Race}) verifies observed accesses stay
    inside the declaration. The pool carries them in its task metas,
    which is why they live here and not in the checker. *)

(** A declared region: a whole object or a contiguous range of one.
    Objects are named by process-unique ids from {!fresh_uid}. *)
type resource =
  | Bitset of int
  | Bit_matrix_rows of { id : int; lo : int; hi : int }
  | Igraph_rows of { id : int; lo : int; hi : int }
  | Edge_cache_blocks of { id : int; lo : int; hi : int }
  | Liveness of int
  | Telemetry

(** An observed access point, as the instrumentation hooks record it.
    Row [-1] means "the whole object" (a resize or bulk reset). *)
type key =
  | K_bitset of int
  | K_bit_matrix_row of int * int
  | K_igraph_row of int * int
  | K_edge_cache_block of int * int
  | K_liveness of int
  | K_telemetry

type t = {
  reads : resource list;
  writes : resource list;
}

val empty : t

(** A fresh process-unique object id. The namespace is shared by every
    hooked structure kind. *)
val fresh_uid : unit -> int

val uid_of_key : key -> int option

(** Mutex-protected resources (the telemetry sink) never conflict. *)
val synchronized : resource -> bool

val overlap : resource -> resource -> bool

(** Does declared region [r] contain observed access [k]? *)
val covers : resource -> key -> bool

val covered_by : resource list -> key -> bool

(** [conflict a b] is the first (write of [a], read∪write of [b])
    overlapping pair, if any. Not symmetric: check both orders. *)
val conflict : t -> t -> (resource * resource) option

val resource_to_string : resource -> string
val key_to_string : key -> string
