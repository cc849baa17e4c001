(* Shared helpers for the figure-reproduction harness. *)

open Ra_core

let old_heuristic = Heuristic.Chaitin
let new_heuristic = Heuristic.Briggs
let irc_heuristic = Heuristic.Irc

type alloc_pair = {
  routine : string;
  old_result : Allocator.result;
  new_result : Allocator.result;
  irc_result : Allocator.result;
}

(* Allocate every routine of a program with the comparison heuristics
   (Chaitin, Briggs and the iterated-coalescing worklist) as one
   heuristic comparison matrix ({!Batch.allocate_matrix}), where Chaitin
   and Briggs share each routine's first-pass graph build. *)
let allocate_program ?(machine = Machine.rt_pc) (p : Ra_programs.Suite.program)
    =
  let procs = Ra_programs.Suite.compile p in
  match
    Batch.allocate_matrix machine
      [ old_heuristic; new_heuristic; irc_heuristic ]
      procs
  with
  | [ olds; news; ircs ] ->
    List.map2
      (fun (proc : Ra_ir.Proc.t) (old_result, (new_result, irc_result)) ->
        { routine = proc.Ra_ir.Proc.name; old_result; new_result; irc_result })
      procs (List.combine olds (List.combine news ircs))
  | _ -> assert false

(* Run a program's driver on the given allocated procedure set. *)
let run_allocated ?(machine = Machine.rt_pc) ?context heuristic
    (p : Ra_programs.Suite.program) =
  let ctx =
    match context with Some c -> c | None -> Context.create machine
  in
  let procs = Ra_programs.Suite.compile p in
  let allocated =
    List.map
      (fun proc ->
        (Allocator.allocate ~context:ctx machine heuristic proc)
          .Allocator.proc)
      procs
  in
  Ra_vm.Exec.run ~fuel:p.Ra_programs.Suite.fuel ~procs:allocated
    ~entry:p.Ra_programs.Suite.driver ~args:p.Ra_programs.Suite.driver_args ()

let pct old_v new_v =
  if old_v <= 0.0 then 0.0 else 100.0 *. (old_v -. new_v) /. old_v

let pct_int old_v new_v = pct (float_of_int old_v) (float_of_int new_v)

let fmt_pct p = Printf.sprintf "%.0f" (Float.max 0.0 p)

(* thousands separator, as the paper prints 596,713 *)
let commas n =
  let s = Printf.sprintf "%.0f" (Float.abs n) in
  let b = Buffer.create 16 in
  let len = String.length s in
  String.iteri
    (fun i c ->
      if i > 0 && (len - i) mod 3 = 0 then Buffer.add_char b ',';
      Buffer.add_char b c)
    s;
  (if n < 0.0 then "-" else "") ^ Buffer.contents b

let section title =
  let bar = String.make (String.length title) '=' in
  Printf.printf "\n%s\n%s\n\n" title bar
