open Ra_support

type numbering = {
  universe : int;
  defs_of : int -> int list;
  uses_of : int -> int list;
}

type t = {
  numbering : numbering;
  cfg : Ra_ir.Cfg.t;
  gen : Bitset.t array; (* upward-exposed uses, per block *)
  kill : Bitset.t array; (* defs, per block *)
  result : Dataflow.result;
  scratch : Bitset.t;
  uid : int;
    (* the solution's identity in the race checker's resource vocabulary:
       the live-in/out arrays and the walk scratch are tagged with one
       [K_liveness uid] key, so a scan task's whole read side is one
       declared [Footprint.Liveness] resource *)
  dirty : int list;
    (* blocks whose gen/kill this solution recomputed relative to the
       [old] it was derived from (ascending, deduplicated); [] for a
       from-scratch [compute]. Exposed via [dirty_blocks] so downstream
       incremental consumers — the interference edge cache — rescan
       exactly the set of blocks the solver did. *)
}

let vreg_index (proc : Ra_ir.Proc.t) (r : Ra_ir.Reg.t) =
  match r.cls with
  | Ra_ir.Reg.Int_reg -> r.id
  | Ra_ir.Reg.Flt_reg -> proc.next_int + r.id

let vreg_numbering (proc : Ra_ir.Proc.t) =
  let code = proc.code in
  let index = vreg_index proc in
  { universe = proc.next_int + proc.next_flt;
    defs_of = (fun i -> List.map index (Ra_ir.Instr.defs (code.(i)).ins));
    uses_of = (fun i -> List.map index (Ra_ir.Instr.uses (code.(i)).ins)) }

(* Upward-exposed uses and defs of one block, into cleared sets. *)
let block_gen_kill numbering (b : Ra_ir.Cfg.block) ~gen ~kill =
  for i = b.first to b.last do
    List.iter
      (fun u -> if not (Bitset.mem kill u) then Bitset.add gen u)
      (numbering.uses_of i);
    List.iter (fun d -> Bitset.add kill d) (numbering.defs_of i)
  done


(* Tag the shared faces of a solution — the live-in/out arrays and the
   iteration scratch, exactly what parallel scan tasks touch — with one
   coarse race-check key. gen/kill stay under their own identities: only
   the sequential solver reads them. *)
let stamp ~result ~scratch =
  let uid = Footprint.fresh_uid () in
  if !Race_log.on then Race_log.created uid;
  let key = Footprint.K_liveness uid in
  Array.iter (fun s -> Bitset.set_key s key) result.Dataflow.live_in;
  Array.iter (fun s -> Bitset.set_key s key) result.Dataflow.live_out;
  Bitset.set_key scratch key;
  uid

let compute ~cfg numbering =
  let n = Ra_ir.Cfg.n_blocks cfg in
  let universe = numbering.universe in
  let gen = Array.init n (fun _ -> Bitset.create universe) in
  let kill = Array.init n (fun _ -> Bitset.create universe) in
  Array.iter
    (fun (b : Ra_ir.Cfg.block) ->
      block_gen_kill numbering b ~gen:gen.(b.bindex) ~kill:kill.(b.bindex))
    cfg.blocks;
  let result =
    Dataflow.solve ~cfg ~universe ~gen ~kill ~direction:Dataflow.Backward ()
  in
  let scratch = Bitset.create universe in
  let uid = stamp ~result ~scratch in
  { numbering; cfg; gen; kill; result; scratch; uid; dirty = [] }

(* Incremental re-solve after a code edit that preserved the block
   structure (spill insertion). The previous solution carries over
   exactly for every id that survives the edit:

   - a surviving id's occurrences are untouched outside dirty blocks, so
     clean blocks keep their gen/kill/live facts for it verbatim (modulo
     the renumbering [remap]);
   - a retired id (a spilled web) is dropped from every set by [remap]
     returning [-1], so no stale bit can sustain itself around a loop;
   - a brand-new id (a spill temporary) is born and dies between two
     adjacent instructions of a dirty block and never crosses a block
     boundary.

   The remapped old solution is therefore a sound starting point at or
   below the new least fixpoint, and a worklist seeded with the dirty
   blocks (the only blocks whose transfer functions changed) suffices to
   reach it. Under RA_VERIFY the allocator cross-checks this against a
   from-scratch [compute]. *)
let update ~old ~cfg numbering ~remap ~dirty_blocks =
  let n = Ra_ir.Cfg.n_blocks cfg in
  let universe = numbering.universe in
  if Ra_ir.Cfg.n_blocks old.cfg <> n then
    invalid_arg "Liveness.update: block structure changed";
  let remap_set src =
    let dst = Bitset.create universe in
    Bitset.iter
      (fun i ->
        let j = remap i in
        if j >= 0 then Bitset.add dst j)
      src;
    dst
  in
  let dirty = Array.make n false in
  List.iter
    (fun b ->
      if b < 0 || b >= n then invalid_arg "Liveness.update: dirty block";
      dirty.(b) <- true)
    dirty_blocks;
  let gen =
    Array.init n (fun b ->
      if dirty.(b) then Bitset.create universe else remap_set old.gen.(b))
  in
  let kill =
    Array.init n (fun b ->
      if dirty.(b) then Bitset.create universe else remap_set old.kill.(b))
  in
  Array.iter
    (fun (b : Ra_ir.Cfg.block) ->
      if dirty.(b.bindex) then
        block_gen_kill numbering b ~gen:gen.(b.bindex) ~kill:kill.(b.bindex))
    cfg.blocks;
  let live_in =
    Array.init n (fun b -> remap_set old.result.Dataflow.live_in.(b))
  in
  let live_out =
    Array.init n (fun b -> remap_set old.result.Dataflow.live_out.(b))
  in
  let scratch = Bitset.create universe in
  let on_work = Array.make n false in
  let work = Queue.create () in
  let push b =
    if not on_work.(b) then begin
      on_work.(b) <- true;
      Queue.add b work
    end
  in
  let dirty_blocks = List.sort_uniq Int.compare dirty_blocks in
  List.iter push dirty_blocks;
  while not (Queue.is_empty work) do
    let b = Queue.pop work in
    on_work.(b) <- false;
    let block = cfg.Ra_ir.Cfg.blocks.(b) in
    List.iter
      (fun s -> ignore (Bitset.union_into ~into:live_out.(b) live_in.(s)))
      block.Ra_ir.Cfg.succs;
    ignore (Bitset.assign ~into:scratch live_out.(b));
    ignore (Bitset.diff_into ~into:scratch kill.(b));
    ignore (Bitset.union_into ~into:scratch gen.(b));
    if Bitset.assign ~into:live_in.(b) scratch then
      List.iter push block.Ra_ir.Cfg.preds
  done;
  let result = { Dataflow.live_in; live_out } in
  let scratch = Bitset.create universe in
  let uid = stamp ~result ~scratch in
  { numbering; cfg; gen; kill; result; scratch; uid; dirty = dirty_blocks }

(* Re-solve after a change of numbering that kept the universe and the
   block structure (coalescing: web ids are renamed to their new class
   representatives). Unlike [update], the old solution is of no use as a
   starting point — merging classes strengthens kills, so live sets can
   *shrink*, and a worklist that only grows sets from an over-approximate
   seed would never come back down. What does carry over is the expensive
   part: a clean block's gen/kill sets are the rep-mapped def/use lists of
   its instructions, so any block none of whose webs changed
   representative keeps them verbatim. We share those bitsets with [old]
   (they are never mutated after construction; [Dataflow.solve] only
   reads them), recompute gen/kill for the dirty blocks, and run a full
   solve from empty sets — reaching the exact least fixpoint a
   from-scratch [compute] would. *)
let refresh ~old ~cfg numbering ~dirty_blocks =
  let n = Ra_ir.Cfg.n_blocks cfg in
  let universe = numbering.universe in
  if old.numbering.universe <> universe then
    invalid_arg "Liveness.refresh: universe changed";
  if Ra_ir.Cfg.n_blocks old.cfg <> n then
    invalid_arg "Liveness.refresh: block structure changed";
  let dirty = Array.make n false in
  List.iter
    (fun b ->
      if b < 0 || b >= n then invalid_arg "Liveness.refresh: dirty block";
      dirty.(b) <- true)
    dirty_blocks;
  let gen =
    Array.init n (fun b ->
      if dirty.(b) then Bitset.create universe else old.gen.(b))
  in
  let kill =
    Array.init n (fun b ->
      if dirty.(b) then Bitset.create universe else old.kill.(b))
  in
  Array.iter
    (fun (b : Ra_ir.Cfg.block) ->
      if dirty.(b.bindex) then
        block_gen_kill numbering b ~gen:gen.(b.bindex) ~kill:kill.(b.bindex))
    cfg.blocks;
  let result =
    Dataflow.solve ~cfg ~universe ~gen ~kill ~direction:Dataflow.Backward ()
  in
  let scratch = Bitset.create universe in
  let uid = stamp ~result ~scratch in
  { numbering; cfg; gen; kill; result; scratch; uid;
    dirty = List.sort_uniq Int.compare dirty_blocks }

let universe t = t.numbering.universe

let uid t = t.uid

let dirty_blocks t = t.dirty

let block_live_in t b = t.result.Dataflow.live_in.(b)
let block_live_out t b = t.result.Dataflow.live_out.(b)

let iter_block_backward ?scratch t b ~f =
  let block = t.cfg.blocks.(b) in
  let live =
    match scratch with
    | None -> t.scratch
    | Some s ->
      Bitset.reset s t.numbering.universe;
      s
  in
  ignore (Bitset.assign ~into:live (block_live_out t b));
  for i = block.last downto block.first do
    f i ~live_after:live;
    List.iter (Bitset.remove live) (t.numbering.defs_of i);
    List.iter (Bitset.add live) (t.numbering.uses_of i)
  done

let live_after t idx =
  let b = t.cfg.block_of_instr.(idx) in
  let out = ref (Bitset.create t.numbering.universe) in
  iter_block_backward t b ~f:(fun i ~live_after ->
    if i = idx then out := Bitset.copy live_after);
  !out

let entry_live_in t = block_live_in t 0
