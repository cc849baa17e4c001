(** Static parallel-effect analysis over declared task footprints.

    A batch of tasks is rejected when any task's declared write set
    overlaps another task's declared read ∪ write set (Bernstein's
    condition over the {!Ra_support.Footprint} vocabulary). Runs at
    dispatch time, before any task starts, on every meta-carrying batch
    — including batches a width-1 pool runs inline, so sequential tests
    catch inconsistent declarations too. *)

(** Raised by the installed validator on the first overlapping pair; the
    diagnostic names both tasks and the overlapping resources. *)
exception Conflict of Diagnostic.t

(** All pairwise conflicts of the batch, as [task-footprint-overlap]
    diagnostics (empty: the batch is disjoint and safe to run). *)
val check : Ra_support.Pool.task_meta array -> Diagnostic.t list

(** Like {!check} but raises {!Conflict} on the first overlap — the
    shape {!Ra_support.Pool.set_validator} expects. *)
val validate : Ra_support.Pool.task_meta array -> unit

(** Install {!validate} as the process-wide pool dispatch validator.
    Idempotent; called by [Context.create]. *)
val install : unit -> unit
