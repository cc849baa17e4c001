open Ra_ir
open Ra_analysis

let removable (ins : Instr.t) =
  match ins with
  | Instr.Li _ | Instr.Lf _ | Instr.Mov _ | Instr.Unop _ | Instr.Binop _
  | Instr.Dim _ | Instr.Load _ | Instr.Alloc _ -> true
  | Instr.Label _ | Instr.Store _ | Instr.Br _ | Instr.Cbr _ | Instr.Call _
  | Instr.Ret _ | Instr.Spill_st _ | Instr.Spill_ld _ -> false

let sweep_once (proc : Proc.t) : int =
  let cfg = Cfg.build proc.code in
  let live = Liveness.compute ~cfg (Liveness.vreg_numbering proc) in
  let index = Liveness.vreg_index proc in
  let dead = Hashtbl.create 16 in
  for b = 0 to Cfg.n_blocks cfg - 1 do
    Liveness.iter_block_backward live b ~f:(fun i ~live_after ->
      let node = proc.code.(i) in
      if removable node.ins then
        match Instr.defs node.ins with
        | [ d ] ->
          if not (Ra_support.Bitset.mem live_after (index d)) then
            Hashtbl.replace dead i ()
        | [] | _ :: _ :: _ -> ())
  done;
  if Hashtbl.length dead = 0 then 0
  else begin
    let out = ref [] in
    for i = Array.length proc.code - 1 downto 0 do
      if not (Hashtbl.mem dead i) then out := proc.code.(i) :: !out
    done;
    proc.code <- Array.of_list !out;
    Hashtbl.length dead
  end

let run proc =
  let total = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    let removed = sweep_once proc in
    total := !total + removed;
    if removed = 0 then continue_ := false
  done;
  !total
