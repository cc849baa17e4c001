(** The Figure-4 driver as an explicit typed pass pipeline:

    {v
    lint → [ build → color-int → color-flt → spill-elect → spill-insert ]*
         → rewrite → verify
    v}

    Each bracketed pass repeats until both class graphs color; every
    stage is a named module below reporting into the shared
    {!Ra_support.Telemetry} tree under its {!Ra_support.Phase.t} — one
    instrumentation point per stage feeds the paper's CPU accounting
    (the per-pass {!pass_record} times), the structured trace, and the
    [RA_DEBUG] dump (a telemetry subscriber).

    {!Allocator.allocate} is a thin wrapper over {!run}; the pipeline is
    exposed separately so drivers and tests can reach the stages and the
    typed pass results without the option-heavy convenience layer. *)

type pass_record = {
  pass_index : int; (* 1-based *)
  webs_initial : int; (* webs found by renumbering, before coalescing *)
  webs_coalesced : int;
    (* moves coalesced away this pass. Classic heuristics: aggressively
       during Build. Irc: the Briggs-gated merges of the conservative
       Build fixpoint PLUS the worklist drive's conservative merges —
       an irc pass can contribute both kinds (telemetry splits them:
       [coalesce.*] from Build, [irc.*] from the engine) *)
  nodes_int : int; (* non-precolored nodes in each class graph *)
  nodes_flt : int;
  edges_int : int;
  edges_flt : int;
  spilled : int; (* live ranges spilled on this pass *)
  spill_cost : float; (* their total estimated spill cost *)
  build_rounds : int; (* edge-scan rounds (1 + coalescing re-rounds) *)
  cache_hits : int; (* blocks replayed from the edge cache, all rounds *)
  cache_misses : int; (* blocks rescanned (equals blocks x rounds uncached) *)
  build_time : float; (* seconds *)
  coalesce_time : float;
    (* irc's worklist drive (simplify interleaved with conservative
       coalescing); 0 elsewhere — the aggressive pre-pass's merge scans
       are part of Build's accounting, matching the paper's *)
  simplify_time : float;
  color_time : float;
  spill_time : float;
}

type outcome = {
  proc : Ra_ir.Proc.t; (* rewritten onto physical registers *)
  passes : pass_record list; (* first pass first *)
  live_ranges : int; (* webs on the first pass (paper's Live Ranges) *)
  total_spilled : int;
  total_spill_cost : float;
  moves_removed : int; (* copies deleted by coalescing/same-color *)
}

exception Allocation_failure of string

type config = {
  coalesce : bool;
  max_passes : int;
  spill_base : float;
  rematerialize : bool;
  verify : bool;
}

(** The pass chain in execution order, with one-line descriptions —
    the structure {!run} executes, for docs and tooling. *)
val stages : (Ra_support.Phase.t * string) list

(** Expand a spill decision (node ids of one class graph) into groups of
    member web ids sharing a slot. Deterministic by construction: groups
    are ordered by ascending representative web id, never by
    hash-bucket layout. Exposed for the determinism regression test. *)
val spill_groups : Build.t -> Ra_ir.Reg.cls -> int list -> int list list

(** A procedure's first-pass Build (graphs, webs, spill costs), built
    once and consumed as pass 1 by every {!run} given it as [first]. *)
type shared_build

(** [build_shared config machine ~tele heuristic proc] lints [proc] (when
    [config.verify]), builds its first pass in [heuristic]'s coalesce
    mode, computes spill costs and fully compresses the alias forest, so
    that consumers only ever read it. [pool] shards the block scan;
    [edge_cache] (default on) gives the build a private cache for its
    coalescing rounds. The result serves every heuristic with the same
    coalesce mode — Chaitin, Briggs and Matula — but never irc, whose
    conservative merges write the alias forest: an irc allocation needs
    a build of its own. *)
val build_shared :
  config ->
  Machine.t ->
  tele:Ra_support.Telemetry.t ->
  ?pool:Ra_support.Pool.t ->
  ?edge_cache:bool ->
  Heuristic.t ->
  Ra_ir.Proc.t ->
  shared_build

(** Run the pipeline on a *copy* of the procedure (the input is
    untouched) over the given context's buffers, reporting into the
    context's telemetry sink. Raises {!Allocation_failure} as
    documented on {!Allocator.allocate}.

    [first], from {!build_shared} on the same procedure and config,
    serves pass 1 instead of a fresh Build and is planted with
    {!Context.adopt_prev}, so a spill pass patches it incrementally. The
    outcome is bit-identical to a run without it. Raises
    [Invalid_argument] when [first] was built in another coalesce mode
    than [heuristic] needs.

    For {!Heuristic.Irc} with [config.coalesce] on, an allocation that
    spilled is re-run with coalescing off (one extra sequential
    allocation, counted as [irc.fallback_runs] on the telemetry sink)
    and the no-coalesce outcome is kept when it spilled strictly fewer
    webs ([irc.fallback_kept]) — conservative coalescing never costs
    spills, whole-allocation, not merely per pass. *)
val run :
  ?first:shared_build ->
  config -> context:Context.t -> Machine.t -> Heuristic.t -> Ra_ir.Proc.t ->
  outcome
