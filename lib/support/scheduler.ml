(* A [Pool] under its former name, kept only for the benchmark harness
   until its next change (see the interface). *)

type t = Pool.t

let create = Pool.create
let shutdown = Pool.shutdown
