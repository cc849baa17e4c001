(** A reusable pool of worker domains for data-parallel loops.

    Hand-rolled on [Domain] + [Mutex]/[Condition]: a pool of [jobs - 1]
    worker domains drains a queue of batches, where a batch is an indexed
    loop [f 0 .. f (n-1)] whose iterations may run in any order on any
    domain. The submitting caller participates in draining its own batch,
    so a task running on a worker may itself submit a nested batch without
    deadlock — the nested batch is drained by the domains that reach it,
    the submitter included.

    Determinism is the client's problem by construction: tasks must write
    to disjoint (per-index) state, and any order-sensitive combination of
    their results must happen after {!run} returns, in index order. The
    interference-graph builder stages per-worker edge buffers and replays
    them in block order for exactly this reason. Batches can make that
    contract *checkable* by declaring per-task effect {!task_meta}s: a
    statically validated footprint at dispatch time, and the evidence the
    [RA_RACE_CHECK] dynamic detector holds observed accesses against. *)

type t

(** A task's declared identity and effects. [tm_name] names the task in
    conflict diagnostics; [tm_footprint] is checked at dispatch time by
    the installed {!set_validator} (write sets must be disjoint from
    every other task's read∪write set) and at analysis time against the
    accesses the task actually performed. *)
type task_meta = {
  tm_name : string;
  tm_footprint : Footprint.t;
}

(** [create ~jobs] spawns [jobs - 1] worker domains ([jobs >= 1]).
    A pool with [jobs = 1] runs every batch inline in the caller. *)
val create : jobs:int -> t

(** The parallelism width the pool was created with. *)
val jobs : t -> int

(** [run t ~n f] executes [f 0 .. f (n - 1)], each exactly once, possibly
    concurrently, and returns when all have finished. If any task raises,
    the remaining unstarted iterations are abandoned and the first
    exception (by completion order) is re-raised in the caller with its
    backtrace. Re-entrant: [f] may call [run] on the same pool.

    [meta], when given, maps each index to its {!task_meta}; batches with
    [n > 1] are passed through the installed footprint validator before
    any task starts, and the metas are recorded with the [Race_log]
    submit event when the race check is on. *)
val run : t -> ?meta:(int -> task_meta) -> n:int -> (int -> unit) -> unit

(** [map_list t f xs] = [List.map f xs] with the applications distributed
    over the pool; the result keeps list order. [meta] as in {!run}. *)
val map_list : t -> ?meta:('a -> task_meta) -> ('a -> 'b) -> 'a list -> 'b list

(** Joins the workers. Further {!run}s raise [Invalid_argument]; idempotent.
    Optional — an exiting process abandons blocked workers safely. *)
val shutdown : t -> unit

(** Attach a telemetry sink: every subsequently dispatched task bumps
    [pool.tasks], [pool.tasks.d<domain>] and [pool.queue_wait_us]
    (µs between batch submit and the task leaving the queue). The same
    dispatch points emit the race detector's synchronization events, so
    scheduling diagnosis and race checking share one instrumentation
    seam. Pass {!Telemetry.null} to detach. *)
val set_telemetry : t -> Telemetry.t -> unit

(** [set_validator f] installs the process-wide dispatch-time footprint
    checker: [f metas] is called before any task of a meta-carrying
    batch starts and should raise to reject the batch. Installed by
    [Ra_check.Effects.install]; the default is a no-op. *)
val set_validator : (task_meta array -> unit) -> unit

(** Parallelism width requested by the environment: [RA_JOBS] when set to
    a positive integer, else [Domain.recommended_domain_count ()], clamped
    to [1, 64]. Overridden by {!set_default_jobs}. *)
val default_jobs : unit -> int

(** [set_default_jobs j] makes {!default_jobs} answer [j] (clamped to
    [1, 64]) — for drivers with a [--jobs] flag. Call it before the first
    {!global}, which fixes the shared pool's width. *)
val set_default_jobs : int -> unit

(** The process-wide shared pool, created on first use with
    [jobs = default_jobs ()]. Never shut down. *)
val global : unit -> t
