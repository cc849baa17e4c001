open Ra_support
open Ra_ir
open Ra_analysis

exception Divergence of string

let div fmt = Format.kasprintf (fun m -> raise (Divergence m)) fmt

type t = {
  webs : Webs.t;
  alias : Union_find.t;
  int_graph : Igraph.t;
  flt_graph : Igraph.t;
  node_of_web : int array;
  web_of_node_int : int array;
  web_of_node_flt : int array;
  moves_coalesced : int;
  base_live : Liveness.t;
  rounds : int;
  cache_hits : int;
  cache_misses : int;
  moves_int : (int * int) array;
  moves_flt : (int * int) array;
}

type coalesce_mode =
  | Aggressive
  | Conservative
  | Off

let cls_of_web (webs : Webs.t) w = (Webs.web webs w).cls

(* ---- encoded scan events ----

   The per-block scan hands every interference to its emitter as a pair
   of *encoded endpoints*: a web id [w >= 0] (always a representative
   under the aliasing the scan ran with), or a physical register [p]
   encoded as [-1 - p] (call clobbers pair physical registers with live
   webs). Web-granular events are what the edge cache stores — node ids
   are renumbered every coalescing round, web ids survive the round (and,
   renamed through [Webs.rebuild]'s canonical map, the spill pass). *)

let enc_phys p = -1 - p

(* ---- the per-block edge cache ----

   For each CFG block, the cache records the encoded pair sequence the
   scan emitted there: per class, the raw emission stream in scan order
   (within-block duplicates and all — [Igraph.add_edge]'s global
   first-occurrence dedup collapses them on replay, so storing the
   stream undeduplicated trades a little memory for a scan with no
   per-pair bookkeeping beyond the push). Two layers per block:

   - [base]: the block's pairs under the *identity* aliasing (coalescing
     round 0). This is the layer that survives spill passes — renamed
     through [Webs.rebuild]'s old-to-new map by {!Edge_cache.remap}, with
     pairs touching a retired (spilled) web dropped, and the blocks that
     received spill code invalidated.
   - [round]: the block's pairs as of its latest rescan in a coalescing
     round >= 1, under that round's representatives. Valid only within
     the pass (a new pass restarts from the identity aliasing); replay
     remaps the stored ids through the *current* rep snapshot, which is
     exact because representatives compose.

   Replay walks every block in block order and pushes the remapped pairs
   through [Igraph.add_edge], whose global first-occurrence dedup then
   reproduces exactly the adjacency insertion order of a from-scratch
   scan (see the exactness argument at [build_graphs]). *)

module Edge_cache = struct
  type layer = {
    mutable lp_int : int array; (* flat encoded (a, b) pairs, scan order *)
    mutable ln_int : int;
    mutable lp_flt : int array;
    mutable ln_flt : int;
  }

  let fresh_layer () =
    { lp_int = [||]; ln_int = 0; lp_flt = [||]; ln_flt = 0 }

  type entry = {
    e_base : layer;
    e_round : layer;
    mutable base_valid : bool;
    mutable round_valid : bool;
  }

  let fresh_entry () =
    { e_base = fresh_layer ();
      e_round = fresh_layer ();
      base_valid = false;
      round_valid = false }

  type t = {
    mutable entries : entry array;
    mutable cached_blocks : int; (* entries in use: the proc's block count *)
    mutable lives : Bitset.t array;
      (* rescan liveness scratch, one per pool worker; [lives.(0)] also
         serves the sequential rescan *)
    (* per-build counters, reset at each Build.build *)
    mutable hits : int; (* blocks replayed without a rescan *)
    mutable misses : int; (* blocks rescanned *)
    uid : int;
  }

  let create () =
    let uid = Footprint.fresh_uid () in
    if !Race_log.on then Race_log.created uid;
    { entries = [||];
      cached_blocks = 0;
      lives = [| Bitset.create 0 |];
      hits = 0;
      misses = 0;
      uid }

  (* Race-check hooks at block-slot granularity: one key per cached
     block, covering its entry's layers and validity flags together. A
     rescan task declares the contiguous slot range of its chunk as an
     [Footprint.Edge_cache_blocks] resource. *)
  let log_block_write t b =
    if !Race_log.on then
      Race_log.write (Footprint.K_edge_cache_block (t.uid, b))

  let log_block_read t b =
    if !Race_log.on then
      Race_log.read (Footprint.K_edge_cache_block (t.uid, b))

  let ensure_lives t n =
    if Array.length t.lives < n then begin
      let old = t.lives in
      t.lives <-
        Array.init n (fun j ->
          if j < Array.length old then old.(j) else Bitset.create 0)
    end

  let hits t = t.hits
  let misses t = t.misses
  let uid t = t.uid
  let reset_stats t =
    t.hits <- 0;
    t.misses <- 0

  let invalidate_entry e =
    e.base_valid <- false;
    e.round_valid <- false

  let clear t =
    for b = 0 to t.cached_blocks - 1 do
      log_block_write t b;
      invalidate_entry t.entries.(b)
    done;
    t.cached_blocks <- 0

  (* Retarget at a procedure's block count. A size change means a
     different procedure (or a restructured one): nothing carries over. *)
  let prepare t ~n_blocks =
    if n_blocks <> t.cached_blocks then begin
      clear t;
      if Array.length t.entries < n_blocks then begin
        let old = t.entries in
        t.entries <-
          Array.init n_blocks (fun b ->
            if b < Array.length old then old.(b) else fresh_entry ())
      end;
      for b = 0 to n_blocks - 1 do
        log_block_write t b;
        invalidate_entry t.entries.(b)
      done;
      t.cached_blocks <- n_blocks
    end

  let invalidate_blocks t bs =
    List.iter
      (fun b ->
        if b >= 0 && b < t.cached_blocks then begin
          log_block_write t b;
          invalidate_entry t.entries.(b)
        end)
      bs

  let push layer cls a b =
    match cls with
    | Reg.Int_reg ->
      let cap = Array.length layer.lp_int in
      if (2 * layer.ln_int) + 2 > cap then begin
        let grown = Array.make (max 64 (2 * cap)) 0 in
        Array.blit layer.lp_int 0 grown 0 (2 * layer.ln_int);
        layer.lp_int <- grown
      end;
      Array.unsafe_set layer.lp_int (2 * layer.ln_int) a;
      Array.unsafe_set layer.lp_int ((2 * layer.ln_int) + 1) b;
      layer.ln_int <- layer.ln_int + 1
    | Reg.Flt_reg ->
      let cap = Array.length layer.lp_flt in
      if (2 * layer.ln_flt) + 2 > cap then begin
        let grown = Array.make (max 64 (2 * cap)) 0 in
        Array.blit layer.lp_flt 0 grown 0 (2 * layer.ln_flt);
        layer.lp_flt <- grown
      end;
      Array.unsafe_set layer.lp_flt (2 * layer.ln_flt) a;
      Array.unsafe_set layer.lp_flt ((2 * layer.ln_flt) + 1) b;
      layer.ln_flt <- layer.ln_flt + 1

  (* Rename one layer's web endpoints through [old_to_new], dropping any
     pair with a retired endpoint, compacting in place. Physical-register
     endpoints (< 0) pass through unchanged. *)
  let remap_pairs pairs n ~old_to_new =
    let m = ref 0 in
    for p = 0 to n - 1 do
      let a = Array.unsafe_get pairs (2 * p)
      and b = Array.unsafe_get pairs ((2 * p) + 1) in
      (* physical endpoints (< 0) pass through — note phys reg 0 encodes
         to -1, so the retired test must only ever see web endpoints *)
      let a' = if a < 0 then a else Array.unsafe_get old_to_new a in
      let b' = if b < 0 then b else Array.unsafe_get old_to_new b in
      if (a < 0 || a' >= 0) && (b < 0 || b' >= 0) then begin
        Array.unsafe_set pairs (2 * !m) a';
        Array.unsafe_set pairs ((2 * !m) + 1) b';
        incr m
      end
    done;
    !m

  (* Cross-pass invalidation: the blocks that received spill code (the
     same dirty set the liveness update re-solved from) are rescanned;
     every other block's base layer survives, renamed through the
     canonical renumbering [Webs.rebuild] produced. Round layers are
     discarded wholesale — they are granular to the *last* pass's
     aliasing, and the next pass restarts from the identity. *)
  let remap t ~old_to_new ~dirty_blocks =
    invalidate_blocks t dirty_blocks;
    for b = 0 to t.cached_blocks - 1 do
      let e = t.entries.(b) in
      log_block_write t b;
      e.round_valid <- false;
      if e.base_valid then begin
        e.e_base.ln_int <-
          remap_pairs e.e_base.lp_int e.e_base.ln_int ~old_to_new;
        e.e_base.ln_flt <-
          remap_pairs e.e_base.lp_flt e.e_base.ln_flt ~old_to_new
      end
    done

  (* Test hook: make one valid base entry stale by appending an edge
     between two precolored nodes — a pair no scan ever stages — so a
     verified cache-backed build must raise [Divergence]. *)
  let poison t =
    let found = ref false in
    for b = 0 to t.cached_blocks - 1 do
      let e = t.entries.(b) in
      if (not !found) && e.base_valid then begin
        push e.e_base Reg.Int_reg (enc_phys 0) (enc_phys 1);
        found := true
      end
    done;
    !found
end

(* Test hook for the race detector: when set, every parallel cached
   rescan task additionally invalidates the first block of the *next*
   chunk — plain boolean stores, memory-safe and output-preserving (an
   invalidated entry keeps its just-scanned layer and is merely
   rescanned next round), but a logically concurrent write into a
   sibling task's declared slot range. The detector must report it both
   as a write/write race and as a footprint violation, under any
   schedule. *)
let seeded_cache_race = ref false

(* Which layer a cache-backed scan writes: round 0 of a pass refreshes
   invalid [base] entries (identity aliasing); later coalescing rounds
   rescan the rep-dirty blocks into their [round] layer. *)
type cache_round =
  | Round0
  | Later of int list (* rep-dirty blocks, ascending *)

(* Cut [n_items] weighted items into [n_chunks] contiguous ranges of
   roughly equal total weight. [starts.(c)] is chunk [c]'s first item;
   every chunk is non-empty. [n_chunks] is clamped to the item count (and
   to at least 1), so callers may pass any pool width — the returned
   array has [effective_chunks + 1] entries. *)
let chunk_weights ~weights ~n_chunks =
  let n_items = Array.length weights in
  let n_chunks = max 1 (min n_chunks n_items) in
  let cum = Array.make (n_items + 1) 0 in
  for i = 0 to n_items - 1 do
    cum.(i + 1) <- cum.(i) + weights.(i)
  done;
  let total = cum.(n_items) in
  let starts = Array.make (n_chunks + 1) 0 in
  starts.(n_chunks) <- n_items;
  let i = ref 0 in
  for c = 1 to n_chunks - 1 do
    let target = c * total / n_chunks in
    while !i < n_items && cum.(!i) < target do
      incr i
    done;
    let lo = starts.(c - 1) + 1 in
    let hi = n_items - (n_chunks - c) in
    starts.(c) <- max lo (min !i hi);
    i := starts.(c)
  done;
  starts

(* Build the two class graphs for the current aliasing. [rep] is a
   snapshot of the alias representatives ([rep.(w) = Union_find.find w]),
   precomputed so the scan never touches the path-compressing union-find;
   [numbering] maps instructions to representatives through it; [live] is
   the liveness solution under that numbering.

   Without [cache] this is the reference scan: one sequential walk over
   every block in block order, each interference handed straight to
   [Igraph.add_edge]. It is what every cache-backed build is defined by,
   and what [verify] compares them against.

   With [cache] the scan is incremental: only blocks without a valid
   cache entry for this round (spill-dirtied blocks at round 0, blocks
   holding a site of a web whose representative just moved at rounds
   >= 1) are rescanned into their per-block entries — sequentially, or
   sharded across [pool] when it is wider than 1, each worker writing
   only its own blocks' entries; every block is then replayed in block
   order through [add_edge], stored web ids remapped through the current
   [rep] snapshot. Exactness for clean blocks: a coalescing merge only renames
   entries in their live sets (merging webs that interfere is impossible,
   and the move-source exclusion cases land in dirty blocks), and a
   spill edit only renames or retires them — so the remapped image of a
   clean block's cached pairs is, pair for pair and in order, what a
   rescan would stage. Global first occurrences, and therefore adjacency
   insertion order, match the from-scratch scan exactly; [RA_VERIFY]
   cross-checks this every round. *)
let build_graphs machine (proc : Proc.t) (cfg : Cfg.t) (webs : Webs.t)
    ~(rep : int array) ~numbering ~(live : Liveness.t) ~scratch ~pool ~cache
    ~tele =
  let n_webs = Webs.n_webs webs in
  (* dense node numbering per class, representatives only *)
  let node_of_web = Array.make (max n_webs 1) (-1) in
  let k_int = Machine.regs machine Reg.Int_reg in
  let k_flt = Machine.regs machine Reg.Flt_reg in
  let rev_int = ref [] and rev_flt = ref [] in
  let n_int = ref 0 and n_flt = ref 0 in
  for w = 0 to n_webs - 1 do
    if rep.(w) = w then begin
      match cls_of_web webs w with
      | Reg.Int_reg ->
        node_of_web.(w) <- k_int + !n_int;
        rev_int := w :: !rev_int;
        incr n_int
      | Reg.Flt_reg ->
        node_of_web.(w) <- k_flt + !n_flt;
        rev_flt := w :: !rev_flt;
        incr n_flt
    end
  done;
  let web_of_node_int = Array.of_list (List.rev !rev_int) in
  let web_of_node_flt = Array.of_list (List.rev !rev_flt) in
  let int_graph, flt_graph =
    match scratch with
    | Some (ig, fg) ->
      Igraph.reset ig ~n_nodes:(k_int + !n_int) ~n_precolored:k_int;
      Igraph.reset fg ~n_nodes:(k_flt + !n_flt) ~n_precolored:k_flt;
      ig, fg
    | None ->
      Igraph.create ~n_nodes:(k_int + !n_int) ~n_precolored:k_int,
      Igraph.create ~n_nodes:(k_flt + !n_flt) ~n_precolored:k_flt
  in
  let graph_of = function
    | Reg.Int_reg -> int_graph
    | Reg.Flt_reg -> flt_graph
  in
  (* Scan blocks [lo, hi] backward against [live], handing every
     interference to [emit cls a b] — encoded endpoints — in
     deterministic scan order. Read-only on all shared state:
     [live_scratch], when given, carries the walk's live set (workers
     each pass their own). *)
  let scan_blocks ~emit ~live_scratch lo hi =
    let add_def_edges def_rep ~excluding ~live_after =
      let cls = cls_of_web webs def_rep in
      Bitset.iter
        (fun l ->
          if l <> def_rep && Some l <> excluding && cls_of_web webs l = cls
          then emit cls def_rep l)
        live_after
    in
    let add_clobber_edges ~ret_rep ~live_after =
      let clobber cls =
        let saves = Machine.caller_save machine cls in
        Bitset.iter
          (fun l ->
            if Some l <> ret_rep && cls_of_web webs l = cls then
              List.iter (fun p -> emit cls (enc_phys p) l) saves)
          live_after
      in
      clobber Reg.Int_reg;
      clobber Reg.Flt_reg
    in
    for b = lo to hi do
      Liveness.iter_block_backward ?scratch:live_scratch live b
        ~f:(fun i ~live_after ->
          let node = proc.code.(i) in
          (match Instr.move_of node.ins with
           | Some (dreg, sreg) ->
             let d = rep.(Webs.def_web webs i dreg) in
             let s = rep.(Webs.use_web webs i sreg) in
             add_def_edges d ~excluding:(Some s) ~live_after
           | None ->
             List.iter
               (fun d -> add_def_edges d ~excluding:None ~live_after)
               (numbering.Liveness.defs_of i));
          match node.ins with
          | Instr.Call { ret; _ } ->
            let ret_rep =
              Option.map (fun r -> rep.(Webs.def_web webs i r)) ret
            in
            add_clobber_edges ~ret_rep ~live_after
          | Instr.Label _ | Instr.Li _ | Instr.Lf _ | Instr.Mov _
          | Instr.Unop _ | Instr.Binop _ | Instr.Load _ | Instr.Store _
          | Instr.Alloc _ | Instr.Dim _ | Instr.Br _ | Instr.Cbr _
          | Instr.Ret _ | Instr.Spill_st _ | Instr.Spill_ld _ -> ())
    done
  in
  let n_blocks = Cfg.n_blocks cfg in
  (match cache with
   | Some (ec, round) ->
     let open Edge_cache in
     prepare ec ~n_blocks;
     let rescan =
       match round with
       | Round0 ->
         (* a pass starts at the identity aliasing: drop last pass's
            rep-granular round layers, rescan whatever base entries the
            context invalidated (all of them on a scratch pass) *)
         let acc = ref [] in
         for b = n_blocks - 1 downto 0 do
           let e = ec.entries.(b) in
           e.round_valid <- false;
           if not e.base_valid then acc := b :: !acc
         done;
         !acc
       | Later dirty -> dirty
     in
     let n_rescan = List.length rescan in
     ec.misses <- ec.misses + n_rescan;
     ec.hits <- ec.hits + (n_blocks - n_rescan);
     let fresh_layer_of b =
       let e = ec.entries.(b) in
       let layer =
         match round with Round0 -> e.e_base | Later _ -> e.e_round
       in
       layer.ln_int <- 0;
       layer.ln_flt <- 0;
       layer
     in
     let mark_valid b =
       let e = ec.entries.(b) in
       match round with
       | Round0 -> e.base_valid <- true
       | Later _ -> e.round_valid <- true
     in
     (* replay one block through add_edge's global first-occurrence
        dedup; stored web endpoints go through the current rep snapshot
        (representatives compose across rounds) *)
     let replay_node x =
       if x >= 0 then
         Array.unsafe_get node_of_web (Array.unsafe_get rep x)
       else -1 - x
     in
     let replay_pairs graph pairs n =
       for p = 0 to n - 1 do
         Igraph.add_edge graph
           (replay_node (Array.unsafe_get pairs (2 * p)))
           (replay_node (Array.unsafe_get pairs ((2 * p) + 1)))
       done
     in
     let replay_block b =
       log_block_read ec b;
       let e = ec.entries.(b) in
       let layer = if e.round_valid then e.e_round else e.e_base in
       replay_pairs int_graph layer.lp_int layer.ln_int;
       replay_pairs flt_graph layer.lp_flt layer.ln_flt
     in
     (match pool with
      | Some p when Pool.jobs p > 1 && n_rescan > 1 ->
        (* workers rescan only the dirty blocks of their chunk; each
           writes its blocks' private cache entries, nothing shared.
           The merge then replays every block in block order. *)
        let blocks = Array.of_list rescan in
        let weights =
          Array.map
            (fun b ->
              let blk = cfg.blocks.(b) in
              blk.Cfg.last - blk.Cfg.first + 1)
            blocks
        in
        let starts = chunk_weights ~weights ~n_chunks:(Pool.jobs p) in
        let n_chunks = Array.length starts - 1 in
        ensure_lives ec n_chunks;
        let meta j =
          { Pool.tm_name =
              Printf.sprintf "scan:%s:chunk%d" proc.name j;
            tm_footprint =
              { Footprint.reads = [ Footprint.Liveness (Liveness.uid live) ];
                writes =
                  [ Footprint.Bitset (Bitset.uid ec.lives.(j));
                    Footprint.Edge_cache_blocks
                      { id = ec.uid;
                        lo = blocks.(starts.(j));
                        hi = blocks.(starts.(j + 1) - 1) };
                    Footprint.Telemetry ] } }
        in
        Pool.run p ~meta ~n:n_chunks (fun j ->
          (* span emitted from the worker: carries the worker domain's
             id, so the trace shows the rescans as per-domain tracks *)
          Telemetry.span tele Phase.Scan
            ~args:(fun () ->
              [ "proc", proc.name;
                "chunk", string_of_int j;
                "blocks", string_of_int (starts.(j + 1) - starts.(j)) ])
            (fun () ->
              for idx = starts.(j) to starts.(j + 1) - 1 do
                let b = blocks.(idx) in
                log_block_write ec b;
                let layer = fresh_layer_of b in
                scan_blocks ~live_scratch:(Some ec.lives.(j))
                  ~emit:(fun cls a b -> push layer cls a b)
                  b b;
                mark_valid b
              done;
              if !seeded_cache_race && j + 1 < n_chunks then
                invalidate_blocks ec [ blocks.(starts.(j + 1)) ]));
        for b = 0 to n_blocks - 1 do
          replay_block b
        done
      | Some _ | None ->
        (* stage, then replay — even sequentially. Scanning into the
           compact layer arrays first and streaming them into the graphs
           afterward beats emitting into the graphs mid-scan: the walk's
           working set (live sets, webs) and the graphs' matrices stop
           evicting each other. *)
        Telemetry.span tele Phase.Scan
          ~args:(fun () ->
            [ "proc", proc.name; "blocks", string_of_int n_rescan ])
          (fun () ->
            List.iter
              (fun b ->
                log_block_write ec b;
                let layer = fresh_layer_of b in
                scan_blocks ~live_scratch:(Some ec.lives.(0))
                  ~emit:(fun cls a b -> push layer cls a b)
                  b b;
                mark_valid b)
              rescan);
        for b = 0 to n_blocks - 1 do
          replay_block b
        done)
   | None ->
     (* the reference scan: emit straight into the graphs *)
     let node_of_enc x = if x >= 0 then node_of_web.(x) else -1 - x in
     Telemetry.span tele Phase.Scan
       ~args:(fun () ->
         [ "proc", proc.name; "blocks", string_of_int n_blocks ])
       (fun () ->
         scan_blocks
           ~emit:(fun cls a b ->
             Igraph.add_edge (graph_of cls) (node_of_enc a) (node_of_enc b))
           ~live_scratch:None 0 (n_blocks - 1)));
  (* webs live into the entry block are defined simultaneously at entry *)
  let entry_in = Liveness.block_live_in live 0 in
  Bitset.iter
    (fun a ->
      Bitset.iter
        (fun b ->
          if a < b && cls_of_web webs a = cls_of_web webs b then
            Igraph.add_edge
              (graph_of (cls_of_web webs a))
              node_of_web.(a) node_of_web.(b))
        entry_in)
    entry_in;
  int_graph, flt_graph, node_of_web, web_of_node_int, web_of_node_flt

(* Briggs' conservative test against the *current round's* graph: the
   merged node has fewer than [k] neighbors of significant degree, so
   the merge keeps a simplifiable graph simplifiable. Degrees are the
   precise post-merge ones — a neighbor shared by both endpoints loses
   an edge when they fuse, so it is counted at [degree - 1]. Precolored
   neighbors are always significant. Because the fixpoint rebuilds the
   graph after every merge round, each round's test sees exact degrees
   and exact (copy-shrunk) interference, which is what lets the
   build-time pass coalesce pairs the static in-Simplify tests must
   refuse. *)
let briggs_safe (g : Igraph.t) ~k nd ns =
  let np = Igraph.n_precolored g in
  let seen = Hashtbl.create 16 in
  let significant = ref 0 in
  let count other t =
    if not (Hashtbl.mem seen t) then begin
      Hashtbl.add seen t ();
      if t < np then incr significant
      else begin
        let d = Igraph.degree g t in
        let d = if Igraph.interferes g t other then d - 1 else d in
        if d >= k then incr significant
      end
    end
  in
  Igraph.iter_neighbors g nd ~f:(count ns);
  (* a second-list neighbor already seen was shared and discounted
     above; an unseen one cannot be adjacent to [nd] *)
  Igraph.iter_neighbors g ns ~f:(fun t ->
    if not (Hashtbl.mem seen t) then begin
      Hashtbl.add seen t ();
      if t < np || Igraph.degree g t >= k then incr significant
    end);
  !significant < k

let find_coalescable machine (proc : Proc.t) (webs : Webs.t) alias
    node_of_web (int_graph : Igraph.t) (flt_graph : Igraph.t) ~conservative
    ~touched =
  let find = Union_find.find alias in
  let merged = ref 0 in
  (* The graph describes the aliasing we entered the scan with, so within
     one scan each representative may take part in at most one merge;
     moves touching an already-merged class wait for the next rebuild. *)
  Bitset.reset touched (max (Webs.n_webs webs) 1);
  Array.iteri
    (fun i (node : Proc.node) ->
      match Instr.move_of node.ins with
      | None -> ()
      | Some (dreg, sreg) ->
        let wd = find (Webs.def_web webs i dreg) in
        let ws = find (Webs.use_web webs i sreg) in
        if wd <> ws && (not (Bitset.mem touched wd))
           && not (Bitset.mem touched ws)
        then begin
          let spill_temp w = (Webs.web webs w).Webs.spill_temp in
          if (not (spill_temp wd)) && not (spill_temp ws) then begin
            let cls = cls_of_web webs wd in
            let g =
              match cls with
              | Reg.Int_reg -> int_graph
              | Reg.Flt_reg -> flt_graph
            in
            let nd = node_of_web.(wd) and ns = node_of_web.(ws) in
            if
              (not (Igraph.interferes g nd ns))
              && ((not conservative)
                  || briggs_safe g ~k:(Machine.regs machine cls) nd ns)
            then begin
              ignore (Union_find.union alias wd ws);
              Bitset.add touched wd;
              Bitset.add touched ws;
              incr merged
            end
          end
        end)
    proc.code;
  !merged

let build machine (proc : Proc.t) cfg ~webs ?coalesce_mode:(mode = Aggressive)
    ?live0 ?scratch ?pool ?touched ?cache ?(verify = false)
    ?(tele = Telemetry.null) () : t =
  (match pool, cache with
   | Some _, None -> invalid_arg "Build.build: a pool needs a cache"
   | (Some _ | None), _ -> ());
  let n_webs = Webs.n_webs webs in
  let alias = Union_find.create (max n_webs 1) in
  let base = Webs.numbering webs in
  (* Iteration 0 runs with the identity aliasing, where the representative
     numbering coincides with the plain web numbering — so a caller who
     already holds the web-granularity liveness (the allocation context,
     carrying it across spill passes via [Liveness.update]) can pass it as
     [live0] and skip the from-scratch solve. Later iterations refresh it:
     coalescing changes the transfer functions (a merged class's gen can
     shrink), but only in the blocks that mention a web whose
     representative moved, so [Liveness.refresh] recomputes gen/kill for
     those blocks alone and re-solves. *)
  let base_live =
    match live0 with
    | Some l -> l
    | None ->
      Telemetry.span tele Phase.Liveness (fun () ->
        Liveness.compute ~cfg base)
  in
  let touched =
    match touched with Some b -> b | None -> Bitset.create 0
  in
  (match cache with Some ec -> Edge_cache.reset_stats ec | None -> ());
  let rep_numbering rep =
    { Liveness.universe = n_webs;
      defs_of =
        (fun i ->
          List.sort_uniq Int.compare
            (List.map (fun w -> rep.(w)) (base.Liveness.defs_of i)));
      uses_of =
        (fun i ->
          List.sort_uniq Int.compare
            (List.map (fun w -> rep.(w)) (base.Liveness.uses_of i))) }
  in
  (* Blocks whose rep-mapped def/use lists changed since the previous
     round: exactly the blocks containing a def or use site of a web
     whose representative moved. gen/kill of every other block is
     untouched by the merge. *)
  let dirty_blocks ~prev_rep ~rep =
    let mark = Array.make (Cfg.n_blocks cfg) false in
    for w = 0 to n_webs - 1 do
      if prev_rep.(w) <> rep.(w) then begin
        let web = Webs.web webs w in
        let mark_site i = mark.(cfg.Cfg.block_of_instr.(i)) <- true in
        List.iter mark_site web.Webs.def_sites;
        List.iter mark_site web.Webs.use_sites
      end
    done;
    let out = ref [] in
    for b = Cfg.n_blocks cfg - 1 downto 0 do
      if mark.(b) then out := b :: !out
    done;
    !out
  in
  (* The edge cache must rescan a *superset* of the liveness-dirty set: a
     block whose gen/kill survived a merge untouched can still see its
     scan output change, because a web merged into an *unchanged*
     representative renames entries of the block's live sets — shifting
     the emission order within a live-set walk (Bitset iteration follows
     the new numeric order), or newly hitting the move-source /
     call-result exclusion. Either effect needs a re-aliased web
     (equivalently, its previous-round representative) live in the block
     or holding a site there, so rescanning exactly those blocks keeps
     the replay bit-identical. *)
  let cache_dirty_blocks ~prev_rep ~rep ~prev_live ~site_dirty =
    let n_blocks = Cfg.n_blocks cfg in
    let mark = Array.make n_blocks false in
    List.iter (fun b -> mark.(b) <- true) site_dirty;
    let changed = ref [] in
    for w = n_webs - 1 downto 0 do
      if prev_rep.(w) <> rep.(w) then changed := prev_rep.(w) :: !changed
    done;
    (match List.sort_uniq Int.compare !changed with
     | [] -> ()
     | changed ->
       for b = 0 to n_blocks - 1 do
         if not mark.(b) then
           if
             List.exists
               (fun r ->
                 Bitset.mem (Liveness.block_live_in prev_live b) r
                 || Bitset.mem (Liveness.block_live_out prev_live b) r)
               changed
           then mark.(b) <- true
       done);
    let out = ref [] in
    for b = n_blocks - 1 downto 0 do
      if mark.(b) then out := b :: !out
    done;
    !out
  in
  let check_same_live ~refreshed ~reference =
    for b = 0 to Cfg.n_blocks cfg - 1 do
      if
        not
          (Bitset.equal
             (Liveness.block_live_in refreshed b)
             (Liveness.block_live_in reference b))
      then
        div "%s: refreshed live-in of block %d differs from a full solve"
          proc.name b;
      if
        not
          (Bitset.equal
             (Liveness.block_live_out refreshed b)
             (Liveness.block_live_out reference b))
      then
        div "%s: refreshed live-out of block %d differs from a full solve"
          proc.name b
    done
  in
  let check_same_graph name gc gs =
    Option.iter
      (div "%s: %s in the reference scan" name)
      (Igraph.diff gc gs)
  in
  let rec fixpoint total ~first ~rounds ~prev_rep ~prev_live =
    let rep = Array.init (max n_webs 1) (Union_find.find alias) in
    let numbering = rep_numbering rep in
    let live, cache_dirty =
      if first then base_live, []
      else begin
        let dirty = dirty_blocks ~prev_rep ~rep in
        let refreshed =
          Telemetry.span tele Phase.Liveness (fun () ->
            Liveness.refresh ~old:prev_live ~cfg numbering
              ~dirty_blocks:dirty)
        in
        if verify then
          Telemetry.span tele Phase.Verify (fun () ->
            check_same_live ~refreshed
              ~reference:(Liveness.compute ~cfg numbering));
        let cache_dirty =
          match cache with
          | None -> []
          | Some _ ->
            cache_dirty_blocks ~prev_rep ~rep ~prev_live ~site_dirty:dirty
        in
        refreshed, cache_dirty
      end
    in
    let round_cache =
      match cache with
      | None -> None
      | Some ec -> Some (ec, if first then Round0 else Later cache_dirty)
    in
    let ig, fg, now, wni, wnf =
      build_graphs machine proc cfg webs ~rep ~numbering ~live ~scratch ~pool
        ~cache:round_cache ~tele
    in
    if verify && cache <> None then
      Telemetry.span tele Phase.Verify (fun () ->
        (* reference scan into fresh graphs, sequentially and uncached;
           the cache-backed result (pooled or not) must be
           indistinguishable from it, down to adjacency order. The
           reference scan reports nowhere — its spans would pollute the
           Scan totals. *)
        let ig_s, fg_s, _, _, _ =
          build_graphs machine proc cfg webs ~rep ~numbering ~live
            ~scratch:None ~pool:None ~cache:None
            ~tele:Telemetry.null
        in
        check_same_graph (proc.name ^ ": int graph") ig ig_s;
        check_same_graph (proc.name ^ ": flt graph") fg fg_s);
    if mode = Off then ig, fg, now, wni, wnf, total, rounds
    else begin
      (* [Conservative] runs the same rebuild-between-rounds fixpoint
         but gates every merge on the Briggs test, so the pre-pass only
         takes the merges the worklist drive could never regret; the
         moves it leaves behind become the staged IRC worklist below. *)
      let merged =
        Telemetry.span tele Phase.Coalesce (fun () ->
          find_coalescable machine proc webs alias now ig fg
            ~conservative:(mode = Conservative) ~touched)
      in
      if merged = 0 then ig, fg, now, wni, wnf, total, rounds
      else
        fixpoint (total + merged) ~first:false ~rounds:(rounds + 1)
          ~prev_rep:rep ~prev_live:live
    end
  in
  let int_graph, flt_graph, node_of_web, web_of_node_int, web_of_node_flt,
      moves_coalesced, rounds =
    fixpoint 0 ~first:true ~rounds:1 ~prev_rep:[||] ~prev_live:base_live
  in
  (* The distinct move pairs still live under the final aliasing, as
     node-id pairs per class. [Conservative] *stages* them — they become
     the IRC worklist, coalescing deferred to the Simplify-interleaved
     conservative tests — and every staged pair is deduplicated on its
     normalized rep pair, with spill-temp endpoints excluded exactly as
     the aggressive scan excludes them. For [Aggressive] the same scan
     only feeds the [coalesce.moves_remaining] counter (what the
     fixpoint left behind), making the two paths comparable in traces. *)
  let stage_remaining_moves () =
    let find = Union_find.find alias in
    let spill_temp w = (Webs.web webs w).Webs.spill_temp in
    let seen = Hashtbl.create 64 in
    let rev_int = ref [] and rev_flt = ref [] in
    Array.iteri
      (fun i (node : Proc.node) ->
        match Instr.move_of node.ins with
        | None -> ()
        | Some (dreg, sreg) ->
          let wd = find (Webs.def_web webs i dreg) in
          let ws = find (Webs.use_web webs i sreg) in
          if wd <> ws && (not (spill_temp wd)) && not (spill_temp ws)
          then begin
            let key = if wd < ws then (wd, ws) else (ws, wd) in
            if not (Hashtbl.mem seen key) then begin
              Hashtbl.add seen key ();
              match cls_of_web webs wd with
              | Reg.Int_reg ->
                rev_int := (node_of_web.(wd), node_of_web.(ws)) :: !rev_int
              | Reg.Flt_reg ->
                rev_flt := (node_of_web.(wd), node_of_web.(ws)) :: !rev_flt
            end
          end)
      proc.code;
    Array.of_list (List.rev !rev_int), Array.of_list (List.rev !rev_flt)
  in
  let moves_int, moves_flt =
    match mode with
    | Conservative -> stage_remaining_moves ()
    | Aggressive | Off -> [||], [||]
  in
  (match mode with
   | Off -> ()
   | Conservative ->
     Telemetry.counter tele "coalesce.rounds" rounds;
     Telemetry.counter tele "coalesce.moves_remaining"
       (Array.length moves_int + Array.length moves_flt)
   | Aggressive ->
     if Telemetry.enabled tele then begin
       (* the counting scan is only worth running when someone listens *)
       let mi, mf = stage_remaining_moves () in
       Telemetry.counter tele "coalesce.rounds" rounds;
       Telemetry.counter tele "coalesce.moves_remaining"
         (Array.length mi + Array.length mf)
     end);
  let cache_hits, cache_misses =
    match cache with
    | Some ec -> Edge_cache.hits ec, Edge_cache.misses ec
    | None -> 0, 0
  in
  { webs; alias; int_graph; flt_graph; node_of_web;
    web_of_node_int; web_of_node_flt; moves_coalesced; base_live;
    rounds; cache_hits; cache_misses; moves_int; moves_flt }

let graph_of_class t = function
  | Reg.Int_reg -> t.int_graph
  | Reg.Flt_reg -> t.flt_graph

let web_of_node t cls node =
  let g = graph_of_class t cls in
  let k = Igraph.n_precolored g in
  if node < k then invalid_arg "Build.web_of_node: precolored node";
  match cls with
  | Reg.Int_reg -> t.web_of_node_int.(node - k)
  | Reg.Flt_reg -> t.web_of_node_flt.(node - k)

let node_of t w = t.node_of_web.(Union_find.find t.alias w)

let rep_costs ?(base = Spill_costs.default_base) t proc =
  Spill_costs.rep_costs ~base proc t.webs ~alias:t.alias

let node_costs ?(base = Spill_costs.default_base) ?rep_costs:shared t proc cls
    =
  let g = graph_of_class t cls in
  let k = Igraph.n_precolored g in
  let rep_costs =
    match shared with
    | Some c -> c
    | None -> Spill_costs.rep_costs ~base proc t.webs ~alias:t.alias
  in
  Array.init (Igraph.n_nodes g) (fun n ->
    if n < k then infinity
    else rep_costs.(web_of_node t cls n))
