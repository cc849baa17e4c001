(** Live-variable analysis at instruction granularity.

    The analysis is parameterized by a {!numbering} so the same solver
    serves two clients: virtual registers (tests, verification) and webs
    (interference-graph construction after live ranges are built). *)

type numbering = {
  universe : int;
  defs_of : int -> int list; (* instruction index -> defined ids *)
  uses_of : int -> int list; (* instruction index -> used ids *)
}

type t

(** Dense numbering of a procedure's virtual registers:
    int class first, then float class offset by the int-class count. *)
val vreg_numbering : Ra_ir.Proc.t -> numbering

(** Index of a register under {!vreg_numbering}. *)
val vreg_index : Ra_ir.Proc.t -> Ra_ir.Reg.t -> int

val compute : cfg:Ra_ir.Cfg.t -> numbering -> t

(** [update ~old ~cfg numbering ~remap ~dirty_blocks] re-solves the
    analysis after a code edit that preserved the block structure (spill
    insertion widens blocks but adds no edge, label or branch). [cfg] must
    have the same blocks and edges as [old]'s; [remap] translates an id of
    [old]'s universe into the new universe, or [-1] for an id the edit
    retired (a spilled web); [dirty_blocks] are the blocks whose
    instructions changed. Facts for surviving ids carry over exactly;
    gen/kill are recomputed for dirty blocks only, and a worklist seeded
    with them runs the solution to the same least fixpoint a from-scratch
    {!compute} reaches. *)
val update :
  old:t ->
  cfg:Ra_ir.Cfg.t ->
  numbering ->
  remap:(int -> int) ->
  dirty_blocks:int list ->
  t

(** [refresh ~old ~cfg numbering ~dirty_blocks] re-solves the
    analysis after a change of numbering over the *same* universe and
    block structure (coalescing renames web ids to their merged-class
    representatives). [dirty_blocks] must include every block whose
    rep-mapped def/use lists changed — i.e. every block containing an
    occurrence of a web whose representative changed. Clean blocks share
    their gen/kill sets with [old] (never copied, never mutated); dirty
    blocks are recomputed; the dataflow solve runs in full from empty
    sets, since the old solution can sit *above* the new least fixpoint
    (merged classes kill more) and cannot seed a grow-only worklist. *)
val refresh :
  old:t ->
  cfg:Ra_ir.Cfg.t ->
  numbering ->
  dirty_blocks:int list ->
  t

(** Size of the id universe the analysis was solved over. *)
val universe : t -> int

(** The solution's race-check identity: the live-in/out sets and the
    iteration scratch are all tagged with one [Footprint.K_liveness]
    key under this uid, so a parallel scan task declares its whole read
    side as a single [Footprint.Liveness (uid live)] resource. *)
val uid : t -> int

(** The dirty-block set the solution was derived with: for a result of
    {!update} or {!refresh}, the blocks whose gen/kill were recomputed
    (ascending, deduplicated); [[]] for a from-scratch {!compute}. The
    solver used to consume this set internally — it is exposed so the
    incremental interference-graph construction (the Build edge cache)
    can rescan exactly the blocks the liveness re-solve did, instead of
    recomputing or re-plumbing the set. *)
val dirty_blocks : t -> int list

(** Live-in/out of a whole block. Do not mutate the returned sets. *)
val block_live_in : t -> int -> Ra_support.Bitset.t
val block_live_out : t -> int -> Ra_support.Bitset.t

(** [iter_block_backward t b ~f] walks block [b]'s instructions from last to
    first, calling [f idx ~live_after] with the live set *after* each
    instruction. The set is a scratch buffer reused between calls: inspect
    it inside [f], do not retain it. By default the buffer is owned by [t],
    so concurrent walks of different blocks must each pass their own
    [scratch] (reset and resized by the call). *)
val iter_block_backward :
  ?scratch:Ra_support.Bitset.t ->
  t ->
  int ->
  f:(int -> live_after:Ra_support.Bitset.t -> unit) ->
  unit

(** Per-instruction live-after set, computed fresh (convenient, O(block)). *)
val live_after : t -> int -> Ra_support.Bitset.t

(** Ids live on entry to the procedure (useful to detect uninitialized
    reads: a non-argument id live-in at entry). *)
val entry_live_in : t -> Ra_support.Bitset.t
