(* Static parallel-effect analysis: footprint disjointness at dispatch.

   A batch is safe to run concurrently when every task's write set is
   disjoint from every other task's read ∪ write set — the standard
   Bernstein condition over the closed resource vocabulary of
   [Footprint]. The check is O(n² · footprint size) on the *declared*
   ranges, so a batch of contiguous chunk claims validates in microseconds
   at dispatch time, before any task starts; the dynamic detector
   ([Race]) then holds the tasks' observed accesses against the same
   declarations.

   The pool cannot depend on this layer, so it exposes a validator hook
   ([Pool.set_validator]) that {!install} fills. *)

open Ra_support

exception Conflict of Diagnostic.t

let pair_conflict (a : Pool.task_meta) (b : Pool.task_meta) =
  match Footprint.conflict a.tm_footprint b.tm_footprint with
  | Some (w, r) -> Some (a, w, b, r)
  | None ->
    (match Footprint.conflict b.tm_footprint a.tm_footprint with
     | Some (w, r) -> Some (b, w, a, r)
     | None -> None)

let diagnostic (writer : Pool.task_meta) w (other : Pool.task_meta) r =
  Diagnostic.error ~check:"task-footprint-overlap" ~proc:"<pool>"
    "tasks %S and %S may run concurrently, but %S writes %s which overlaps \
     %s touched by %S"
    writer.Pool.tm_name other.Pool.tm_name writer.Pool.tm_name
    (Footprint.resource_to_string w)
    (Footprint.resource_to_string r)
    other.Pool.tm_name

let check metas =
  let rev = ref [] in
  let n = Array.length metas in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      match pair_conflict metas.(i) metas.(j) with
      | Some (writer, w, other, r) -> rev := diagnostic writer w other r :: !rev
      | None -> ()
    done
  done;
  List.rev !rev

let validate metas =
  let rec first i j =
    if i >= Array.length metas then ()
    else if j >= Array.length metas then first (i + 1) (i + 2)
    else
      match pair_conflict metas.(i) metas.(j) with
      | Some (writer, w, other, r) ->
        raise (Conflict (diagnostic writer w other r))
      | None -> first i (j + 1)
  in
  first 0 1

let install () = Pool.set_validator validate
