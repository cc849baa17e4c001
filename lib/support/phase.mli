(** The closed set of allocator phase names.

    Every timed or traced unit of allocator work is one of these
    constructors — the per-pass {!Timer}, the {!Telemetry} span tree and
    the pipeline's pass records all share them, so a phase name that the
    compiler has not seen cannot exist (no stringly-typed phases). *)

type t =
  | Alloc  (** one whole-procedure allocation *)
  | Pass  (** one Build–Color–Spill pass *)
  | Lint  (** structural IR lint (input or output) *)
  | Build  (** graph construction, costs included (the paper's Build) *)
  | Liveness  (** liveness solve / refresh / cross-pass update *)
  | Coalesce  (** the copy-coalescing scan of a fixpoint round *)
  | Scan  (** a per-block edge scan (domain-tagged when pooled) *)
  | Simplify  (** the paper's Simplify *)
  | Color  (** the paper's Select *)
  | Spill_elect  (** expanding spill decisions into web groups *)
  | Spill_insert  (** spill-code insertion (the paper's Spill) *)
  | Rewrite  (** rewriting virtual registers onto their colors *)
  | Verify  (** translation-validation cross-checks *)
  | Task  (** one DAG-scheduler task execution (domain-tagged) *)

(** Stable lowercase name, e.g. ["spill-insert"]. *)
val name : t -> string

val of_name : string -> t option

(** Every phase, in declaration order. *)
val all : t list

(** Number of phases — [index] is dense in [0, count). *)
val count : int

(** Dense index of a phase, for array-keyed accumulators. *)
val index : t -> int
