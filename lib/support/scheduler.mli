(** The pool {!Ra_core.Batch.allocate_matrix} runs on, under its former
    name. The benchmark harness still creates and shuts down its matrix
    pool through this module and passes it as [~scheduler]; the alias
    exists only until the next benchmark change renames that argument
    to [?pool] and drops this module. *)

type t = Pool.t

(** {!Pool.create}. *)
val create : jobs:int -> t

(** {!Pool.shutdown}. *)
val shutdown : t -> unit
