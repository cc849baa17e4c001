open Ra_support
open Ra_ir
open Ra_analysis

type regfile = {
  k_int : int;
  k_flt : int;
  caller_save_int : int list;
  caller_save_flt : int list;
}

let err = Diagnostic.error

let k_of regfile = function
  | Reg.Int_reg -> regfile.k_int
  | Reg.Flt_reg -> regfile.k_flt

let caller_save_of regfile = function
  | Reg.Int_reg -> regfile.caller_save_int
  | Reg.Flt_reg -> regfile.caller_save_flt

(* ---- output checks ----

   These run on the allocated procedure alone, over *storage locations*:
   the machine's physical registers followed by the frame's spill slots.
   A location-granular forward may-analysis of "possibly uninitialized"
   gives both disciplines at once: a register read must be preceded by a
   write on every path from entry (a dropped reload leaves one exposed),
   and a [Spill_ld] must be preceded by a [Spill_st] of its slot on every
   path (arguments the allocator stack-passed count as stored on entry,
   argument registers count as written on entry). Caller-save clobbers are
   checked against a liveness recomputation: no caller-save register may
   carry a value across a call. *)

let run ~regfile (proc : Proc.t) : Diagnostic.t list =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  if not proc.allocated then
    [ err ~check:"not-allocated" ~proc:proc.name
        "procedure has not been register-allocated" ]
  else if Array.length proc.code = 0 then
    [ err ~check:"empty-proc" ~proc:proc.name "procedure has no code" ]
  else begin
    match Cfg.build proc.code with
    | exception Invalid_argument msg ->
      [ err ~check:"cfg-build" ~proc:proc.name "%s" msg ]
    | cfg ->
      let code = proc.code in
      let ns = proc.spill_slots in
      (* location numbering: int registers, float registers, spill slots;
         sized to cover out-of-range register ids so the analysis survives
         (and reports) corrupt code instead of crashing on it *)
      let max_int_id = ref regfile.k_int and max_flt_id = ref regfile.k_flt in
      let consider (r : Reg.t) =
        match r.cls with
        | Reg.Int_reg -> max_int_id := max !max_int_id (r.id + 1)
        | Reg.Flt_reg -> max_flt_id := max !max_flt_id (r.id + 1)
      in
      Array.iter
        (fun (node : Proc.node) ->
          List.iter consider (Instr.defs node.ins);
          List.iter consider (Instr.uses node.ins))
        code;
      List.iter consider proc.args;
      let ni = !max_int_id and nf = !max_flt_id in
      let n_locs = ni + nf + ns in
      let loc_of_reg (r : Reg.t) =
        match r.cls with
        | Reg.Int_reg -> r.id
        | Reg.Flt_reg -> ni + r.id
      in
      let loc_of_slot s = ni + nf + s in
      let loc_name loc =
        if loc < ni then Reg.phys_string (Reg.int loc)
        else if loc < ni + nf then Reg.phys_string (Reg.flt (loc - ni))
        else Printf.sprintf "slot%d" (loc - ni - nf)
      in
      (* every register occurrence names a machine register; every slot
         occurrence names a frame slot *)
      Array.iteri
        (fun i (node : Proc.node) ->
          let check_reg what (r : Reg.t) =
            let k = k_of regfile r.cls in
            if r.id < 0 || r.id >= k then
              add
                (err ~check:"reg-range" ~proc:proc.name ~instr:i
                   "%s %s is not one of the machine's %d %s registers" what
                   (Reg.phys_string r) k (Reg.cls_name r.cls))
          in
          List.iter (check_reg "defined register") (Instr.defs node.ins);
          List.iter (check_reg "used register") (Instr.uses node.ins);
          let check_slot = function
            | Some s when s < 0 || s >= ns ->
              add
                (err ~check:"slot-range" ~proc:proc.name ~instr:i
                   "spill slot %d outside the %d slots of the frame" s ns)
            | Some _ | None -> ()
          in
          check_slot (Instr.def_slot node.ins);
          check_slot (Instr.use_slot node.ins))
        code;
      (* occurrence lists over locations (out-of-range slots already
         reported; drop them from the analysis) *)
      let slot_loc = function
        | Some s when s >= 0 && s < ns -> [ loc_of_slot s ]
        | Some _ | None -> []
      in
      let def_locs i =
        let ins = (code.(i)).Proc.ins in
        List.map loc_of_reg (Instr.defs ins) @ slot_loc (Instr.def_slot ins)
      in
      let use_locs i =
        let ins = (code.(i)).Proc.ins in
        List.map loc_of_reg (Instr.uses ins) @ slot_loc (Instr.use_slot ins)
      in
      (* locations holding a value on entry: argument registers (arguments
         parked above the register file are unused placeholders, not
         values) and stack-passed argument slots *)
      let entry_defined = Bitset.create (max n_locs 1) in
      let seen_arg = Hashtbl.create 8 in
      List.iter
        (fun (a : Reg.t) ->
          if a.id >= 0 && a.id < k_of regfile a.cls then begin
            let loc = loc_of_reg a in
            if Hashtbl.mem seen_arg loc then
              add
                (err ~check:"entry-aliasing" ~proc:proc.name
                   "two arguments arrive in the same register %s"
                   (loc_name loc))
            else Hashtbl.replace seen_arg loc ();
            Bitset.add entry_defined loc
          end)
        proc.args;
      let seen_slot = Hashtbl.create 8 in
      List.iter
        (fun (pos, slot) ->
          if slot >= 0 && slot < ns then begin
            if Hashtbl.mem seen_slot slot then
              add
                (err ~check:"entry-aliasing" ~proc:proc.name
                   "two stack-passed arguments share slot%d (argument %d)"
                   slot pos)
            else Hashtbl.replace seen_slot slot ();
            Bitset.add entry_defined (loc_of_slot slot)
          end)
        proc.arg_spills;
      (* forward may-analysis of possibly-uninitialized locations *)
      let nb = Cfg.n_blocks cfg in
      let universe = max n_locs 1 in
      let gen = Array.init nb (fun _ -> Bitset.create universe) in
      let kill = Array.init nb (fun _ -> Bitset.create universe) in
      Array.iter
        (fun (b : Cfg.block) ->
          let k = kill.(b.bindex) in
          for i = b.first to b.last do
            List.iter (Bitset.add k) (def_locs i)
          done)
        cfg.blocks;
      let entry_fact = Bitset.create universe in
      for l = 0 to n_locs - 1 do
        if not (Bitset.mem entry_defined l) then Bitset.add entry_fact l
      done;
      let sol =
        Dataflow.solve ~cfg ~universe ~gen ~kill ~direction:Dataflow.Forward
          ~entry_fact ()
      in
      Array.iter
        (fun (b : Cfg.block) ->
          let undef = Bitset.copy sol.Dataflow.live_in.(b.bindex) in
          for i = b.first to b.last do
            List.iter
              (fun u ->
                if Bitset.mem undef u then
                  add
                    (err ~check:"undefined-read" ~proc:proc.name
                       ~block:b.bindex ~instr:i
                       "%s may be read before it is written along some path \
                        from entry"
                       (loc_name u)))
              (use_locs i);
            List.iter (Bitset.remove undef) (def_locs i)
          done)
        cfg.blocks;
      (* no caller-save register carries a value across a call: recompute
         liveness over locations on the allocated code *)
      let caller_save = Array.make universe false in
      List.iter
        (fun id -> if id >= 0 && id < ni then caller_save.(id) <- true)
        regfile.caller_save_int;
      List.iter
        (fun id -> if id >= 0 && id < nf then caller_save.(ni + id) <- true)
        regfile.caller_save_flt;
      let numbering =
        { Liveness.universe; defs_of = def_locs; uses_of = use_locs }
      in
      let live = Liveness.compute ~cfg numbering in
      for b = 0 to nb - 1 do
        Liveness.iter_block_backward live b ~f:(fun i ~live_after ->
          match (code.(i)).Proc.ins with
          | Instr.Call _ ->
            let defined_here = def_locs i in
            Bitset.iter
              (fun loc ->
                if caller_save.(loc) && not (List.mem loc defined_here) then
                  add
                    (err ~check:"caller-save-across-call" ~proc:proc.name
                       ~block:b ~instr:i
                       "caller-save register %s is live across this call"
                       (loc_name loc)))
              live_after
          | _ -> ())
      done;
      List.rev !diags
  end

(* ---- assignment check ----

   Validates a web -> physical-register assignment against the
   pre-rewrite procedure using nothing but a from-scratch liveness
   recomputation: no interference graph, no adjacency lists, no degree
   bookkeeping — so a bug anywhere in Build/Igraph/coalescing/the
   heuristics shows up as a diagnostic here instead of silently wrong
   code. (Validating the rewritten output alone cannot see value
   clobbering: any def-use-consistent code is a plausible allocation of
   itself, which is why this check runs before the rewrite.) *)

let check_assignment ~regfile (proc : Proc.t) (cfg : Cfg.t) (webs : Webs.t)
    ~(alias : Union_find.t) ~(color : int -> int) : Diagnostic.t list =
  let diags = ref [] in
  let add d = diags := d :: !diags in
  let find = Union_find.find alias in
  let n_webs = Webs.n_webs webs in
  let cls_of w = (Webs.web webs w).Webs.cls in
  let vreg_of w = Reg.to_string (Webs.web webs w).Webs.vreg in
  let phys cls c = Reg.phys_string { Reg.id = c; cls } in
  for w = 0 to n_webs - 1 do
    if find w = w then begin
      let c = color w and cls = cls_of w in
      if c < 0 || c >= k_of regfile cls then
        add
          (err ~check:"color-range" ~proc:proc.name
             "web %d (%s) assigned %s outside the machine's %d %s registers"
             w (vreg_of w) (phys cls c) (k_of regfile cls) (Reg.cls_name cls))
    end
  done;
  (* representative-level liveness, recomputed from scratch *)
  let base = Webs.numbering webs in
  let numbering =
    { Liveness.universe = max n_webs 1;
      defs_of =
        (fun i -> List.sort_uniq compare (List.map find (base.Liveness.defs_of i)));
      uses_of =
        (fun i -> List.sort_uniq compare (List.map find (base.Liveness.uses_of i))) }
  in
  let live = Liveness.compute ~cfg numbering in
  for b = 0 to Cfg.n_blocks cfg - 1 do
    Liveness.iter_block_backward live b ~f:(fun i ~live_after ->
      let ins = (proc.code.(i)).Proc.ins in
      (* a copy's source may share the destination's register: they hold
         the same value and the rewrite deletes the move *)
      let excluded =
        match Instr.move_of ins with
        | Some (_, s) -> Some (find (Webs.use_web webs i s))
        | None -> None
      in
      List.iter
        (fun d ->
          let cd = color d and cls = cls_of d in
          Bitset.iter
            (fun w ->
              if
                w <> d && Some w <> excluded && cls_of w = cls
                && color w = cd
              then
                add
                  (err ~check:"interference" ~proc:proc.name ~block:b ~instr:i
                     "webs %d (%s) and %d (%s) are simultaneously live but \
                      both assigned %s"
                     d (vreg_of d) w (vreg_of w) (phys cls cd)))
            live_after)
        (numbering.Liveness.defs_of i);
      match ins with
      | Instr.Call { ret; _ } ->
        let ret_rep = Option.map (fun r -> find (Webs.def_web webs i r)) ret in
        Bitset.iter
          (fun w ->
            if
              Some w <> ret_rep
              && List.mem (color w) (caller_save_of regfile (cls_of w))
            then
              add
                (err ~check:"caller-save" ~proc:proc.name ~block:b ~instr:i
                   "web %d (%s) lives across this call in caller-save %s" w
                   (vreg_of w)
                   (phys (cls_of w) (color w))))
          live_after
      | _ -> ())
  done;
  (* webs live into the entry block materialize simultaneously (arguments
     arriving in registers), so same-class pairs need distinct registers *)
  let seen = Hashtbl.create 16 in
  Bitset.iter
    (fun w ->
      let key = cls_of w, color w in
      match Hashtbl.find_opt seen key with
      | Some w0 ->
        add
          (err ~check:"interference" ~proc:proc.name ~block:0
             "entry-live webs %d (%s) and %d (%s) both assigned %s" w0
             (vreg_of w0) w (vreg_of w)
             (phys (cls_of w) (color w)))
      | None -> Hashtbl.replace seen key w)
    (Liveness.block_live_in live 0);
  List.rev !diags
