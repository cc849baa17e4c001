open Ra_support
open Ra_ir
open Ra_analysis

exception Divergence of string

type stats = {
  mutable incremental_builds : int;
  mutable scratch_builds : int;
  mutable verified_builds : int;
}

type prev = {
  p_cfg : Cfg.t;
  p_built : Build.t;
}

type t = {
  machine : Machine.t;
  incremental : bool;
  verify : bool;
  tele : Telemetry.t;
  pool : Pool.t option;
  acache : Analysis_cache.t;
  par : Build.par_scratch;
  touched : Bitset.t;
  scratch_int : Igraph.t;
  scratch_flt : Igraph.t;
  buckets : Degree_buckets.t;
  edge_cache : Build.Edge_cache.t option;
  stats : stats;
  mutable prev : prev option;
}

let incremental_default =
  match Sys.getenv_opt "RA_INCREMENTAL" with
  | Some "0" -> false
  | None | Some _ -> true

let verify_default =
  match Sys.getenv_opt "RA_VERIFY" with
  | None | Some "" | Some "0" -> false
  | Some _ -> true

let edge_cache_default =
  match Sys.getenv_opt "RA_EDGE_CACHE" with
  | Some "0" -> false
  | None | Some _ -> true

let create ?(incremental = incremental_default) ?(verify = verify_default)
    ?(edge_cache = edge_cache_default) ?tele ?jobs ?pool machine =
  (* every context installs the dispatch-time footprint validator, so
     any meta-carrying batch submitted through allocation is statically
     checked for write-set disjointness (idempotent, one ref store) *)
  Ra_check.Effects.install ();
  let tele = match tele with Some t -> t | None -> Telemetry.ambient () in
  let pool =
    match pool with
    | Some p -> if Pool.jobs p > 1 then Some p else None
    | None ->
      let j = match jobs with Some j -> j | None -> Pool.default_jobs () in
      if j > 1 then begin
        (* the shared pool, so contexts never spawn domains of their own;
           its width is fixed by RA_JOBS / the core count at first use *)
        let g = Pool.global () in
        if Pool.jobs g > 1 then Some g else None
      end
      else None
  in
  (* scheduling counters (pool.tasks, pool.queue_wait_us, ...) land in
     this context's sink; with several sinks alive the last one wins *)
  (match pool with
   | Some p when Telemetry.enabled tele -> Pool.set_telemetry p tele
   | Some _ | None -> ());
  { machine;
    incremental;
    verify;
    tele;
    pool;
    acache = Analysis_cache.create ();
    par = Build.par_scratch ();
    touched = Bitset.create 0;
    scratch_int = Igraph.create ~n_nodes:0 ~n_precolored:0;
    scratch_flt = Igraph.create ~n_nodes:0 ~n_precolored:0;
    buckets = Degree_buckets.create ~max_degree:1;
    edge_cache = (if edge_cache then Some (Build.Edge_cache.create ()) else None);
    stats = { incremental_builds = 0; scratch_builds = 0; verified_builds = 0 };
    prev = None }

let machine t = t.machine
let telemetry t = t.tele
let incremental_enabled t = t.incremental
let pool t = t.pool
let analysis_cache t = t.acache
let jobs t = match t.pool with Some p -> Pool.jobs p | None -> 1
let buckets t = t.buckets
let stats t = t.stats
let edge_cache_enabled t = t.edge_cache <> None

let begin_proc t =
  t.prev <- None;
  Option.iter Build.Edge_cache.clear t.edge_cache

(* The shared first pass's seam: an allocation whose first pass was
   served by a shared build (one Build for several heuristics) plants
   that build as this context's previous pass, so the next spill pass patches
   it exactly as if the context had built it itself. *)
let adopt_prev t ~cfg ~built =
  if t.incremental then t.prev <- Some { p_cfg = cfg; p_built = built }

let div fmt = Format.kasprintf (fun m -> raise (Divergence m)) fmt

(* ---- the incremental == from-scratch cross-check (RA_VERIFY) ---- *)

let check_graph name (gi : Igraph.t) (gs : Igraph.t) =
  if Igraph.n_nodes gi <> Igraph.n_nodes gs then
    div "%s: %d nodes incrementally vs %d from scratch" name
      (Igraph.n_nodes gi) (Igraph.n_nodes gs);
  if Igraph.n_precolored gi <> Igraph.n_precolored gs then
    div "%s: precolored count differs" name;
  if Igraph.n_edges gi <> Igraph.n_edges gs then
    div "%s: %d edges incrementally vs %d from scratch" name
      (Igraph.n_edges gi) (Igraph.n_edges gs);
  for n = 0 to Igraph.n_nodes gi - 1 do
    (* adjacency must match as *lists*: simplify's worklist seeding is
       sensitive to neighbor insertion order, not just the edge set *)
    if Igraph.neighbors gi n <> Igraph.neighbors gs n then
      div "%s: adjacency of node %d differs" name n
  done

let check_equal proc_name ~(cfg_i : Cfg.t) ~(built_i : Build.t)
    ~(cfg_s : Cfg.t) ~(built_s : Build.t) =
  let ctxt = Printf.sprintf "incremental divergence in %s" proc_name in
  if cfg_i <> cfg_s then div "%s: cfg" ctxt;
  let webs_i = built_i.Build.webs and webs_s = built_s.Build.webs in
  if Webs.n_webs webs_i <> Webs.n_webs webs_s then
    div "%s: %d webs incrementally vs %d from scratch" ctxt
      (Webs.n_webs webs_i) (Webs.n_webs webs_s);
  if Webs.webs webs_i <> Webs.webs webs_s then div "%s: webs" ctxt;
  let n = Webs.n_webs webs_i in
  for w = 0 to n - 1 do
    if
      Union_find.find built_i.Build.alias w
      <> Union_find.find built_s.Build.alias w
    then div "%s: alias of web %d" ctxt w
  done;
  if built_i.Build.moves_coalesced <> built_s.Build.moves_coalesced then
    div "%s: moves coalesced" ctxt;
  if built_i.Build.node_of_web <> built_s.Build.node_of_web then
    div "%s: node_of_web" ctxt;
  if built_i.Build.web_of_node_int <> built_s.Build.web_of_node_int then
    div "%s: web_of_node (int)" ctxt;
  if built_i.Build.web_of_node_flt <> built_s.Build.web_of_node_flt then
    div "%s: web_of_node (flt)" ctxt;
  check_graph (ctxt ^ ": int graph") built_i.Build.int_graph
    built_s.Build.int_graph;
  check_graph (ctxt ^ ": flt graph") built_i.Build.flt_graph
    built_s.Build.flt_graph;
  let li = built_i.Build.base_live and ls = built_s.Build.base_live in
  for b = 0 to Cfg.n_blocks cfg_i - 1 do
    if
      not
        (Bitset.equal (Liveness.block_live_in li b) (Liveness.block_live_in ls b))
    then div "%s: live-in of block %d" ctxt b;
    if
      not
        (Bitset.equal (Liveness.block_live_out li b)
           (Liveness.block_live_out ls b))
    then div "%s: live-out of block %d" ctxt b
  done

(* ---- pass construction ---- *)

(* [reference] builds are the from-scratch side of a verify cross-check:
   they run sequentially into fresh buffers so they share nothing with
   the build under test. *)
let scratch_build ?(reference = false) t (proc : Proc.t) ~is_spill_vreg
    ~mode ~scratch =
  let cfg = Cfg.build proc.code in
  let webs = Webs.build proc cfg ~is_spill_vreg in
  let built =
    if reference then
      Build.build t.machine proc cfg ~webs ~coalesce_mode:mode ()
    else begin
      (* A scratch pass starts from a web numbering the cache knows
         nothing about (no remap ran), so whatever it holds is stale:
         drop it. Round 0 rescans everything; the cache still pays off
         within the pass, on the coalescing rounds. *)
      Option.iter Build.Edge_cache.clear t.edge_cache;
      Build.build t.machine proc cfg ~webs ~coalesce_mode:mode ?scratch
        ?pool:t.pool ~par:t.par ~touched:t.touched ?cache:t.edge_cache
        ~verify:t.verify ~tele:t.tele ()
    end
  in
  cfg, webs, built

let incremental_build t (proc : Proc.t) prev (sp : Spill.result) ~mode =
  let cfg =
    Cfg.patch_insertions prev.p_cfg ~inserted_before:sp.Spill.inserted_before
      ~inserted_after:sp.Spill.inserted_after
  in
  (* the patch preserves block topology, so dominators/loops cached on
     the previous pass's CFG carry over to the patched one as-is *)
  Analysis_cache.adopt t.acache ~prev:prev.p_cfg ~next:cfg ~verify:t.verify;
  let webs, old_to_new =
    Webs.rebuild proc ~old:prev.p_built.Build.webs sp.Spill.edit
  in
  let dirty_blocks =
    List.map
      (fun i -> prev.p_cfg.Cfg.block_of_instr.(i))
      sp.Spill.dirty_instrs
    |> List.sort_uniq Int.compare
  in
  let live0 =
    Telemetry.span t.tele Phase.Liveness (fun () ->
      Liveness.update ~old:prev.p_built.Build.base_live ~code:proc.code ~cfg
        (Webs.numbering webs)
        ~remap:(fun w -> old_to_new.(w))
        ~dirty_blocks)
  in
  (* The edge cache survives the pass boundary the same way liveness
     does: rename surviving web ids through the canonical renumbering
     and invalidate exactly the blocks that received spill code. *)
  Option.iter
    (fun ec -> Build.Edge_cache.remap ec ~old_to_new ~dirty_blocks)
    t.edge_cache;
  let built =
    Build.build t.machine proc cfg ~webs ~coalesce_mode:mode ~live0
      ~scratch:(t.scratch_int, t.scratch_flt) ?pool:t.pool ~par:t.par
      ~touched:t.touched ?cache:t.edge_cache ~verify:t.verify ~tele:t.tele ()
  in
  cfg, webs, built

let build_pass t (proc : Proc.t) ~is_spill_vreg ~mode ~edit =
  let cfg, webs, built =
    match edit, t.prev with
    | Some sp, Some prev when t.incremental ->
      let ((cfg_i, _, built_i) as res) =
        incremental_build t proc prev sp ~mode
      in
      t.stats.incremental_builds <- t.stats.incremental_builds + 1;
      if t.verify then
        Telemetry.span t.tele Phase.Verify (fun () ->
          (* reference build into fresh buffers, sequentially; the
             incremental result must be indistinguishable from it, down
             to adjacency order *)
          let cfg_s, _, built_s =
            scratch_build ~reference:true t proc ~is_spill_vreg ~mode
              ~scratch:None
          in
          check_equal proc.Proc.name ~cfg_i ~built_i ~cfg_s ~built_s;
          t.stats.verified_builds <- t.stats.verified_builds + 1);
      res
    | _, _ ->
      let res =
        scratch_build t proc ~is_spill_vreg ~mode
          ~scratch:(Some (t.scratch_int, t.scratch_flt))
      in
      t.stats.scratch_builds <- t.stats.scratch_builds + 1;
      res
  in
  if t.incremental then t.prev <- Some { p_cfg = cfg; p_built = built };
  cfg, webs, built
