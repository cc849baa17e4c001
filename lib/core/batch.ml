open Ra_ir

let default_pool () =
  if Ra_support.Pool.default_jobs () > 1 then Some (Ra_support.Pool.global ())
  else None

let map_procs ?pool ?context machine ~f (procs : Proc.t list) =
  let pool = match pool with Some p -> p | None -> default_pool () in
  let several = match procs with _ :: _ :: _ -> true | [] | [ _ ] -> false in
  match context, pool with
  | Some ctx, _ ->
    (* an explicit context wins: the caller wants its warm buffers (and
       its stats) across the whole batch, so the batch runs sequentially
       over it — the context's own pool still parallelizes each build *)
    List.map (f ctx) procs
  | None, Some pool when Ra_support.Pool.jobs pool > 1 && several ->
    (* Procedure-level dispatch: each routine is one pool task with a
       context of its own (contexts are single-threaded); the result
       list keeps routine order. Build-stage block scans stay at
       [jobs:1] — nesting block-sharded builds inside procedure tasks
       would queue [jobs × jobs] tasks on the same pool for no extra
       width. Each task's context, graphs and cache are its own
       creations; the one shared resource it touches is the telemetry
       sink. *)
    Ra_support.Pool.map_list pool
      ~meta:(fun proc ->
        { Ra_support.Pool.tm_name = "alloc:" ^ proc.Proc.name;
          tm_footprint =
            { Ra_support.Footprint.reads = [];
              writes = [ Ra_support.Footprint.Telemetry ] } })
      (fun proc ->
        f (Context.create ~jobs:1 machine) proc)
      procs
  | None, (Some _ | None) ->
    (* zero or one routine (or a width-1 pool): spend the pool on
       block-sharded graph construction inside one context instead *)
    let ctx = Context.create ?pool machine in
    List.map (f ctx) procs

let allocate_all ?pool ?context ?verify machine heuristic procs =
  map_procs ?pool ?context machine procs ~f:(fun ctx proc ->
    Allocator.allocate ?verify ~context:ctx machine heuristic proc)

let verify_default =
  match Sys.getenv_opt "RA_VERIFY" with
  | None | Some "" | Some "0" -> false
  | Some _ -> true

let result_of heuristic machine (o : Pipeline.outcome) : Allocator.result =
  { Allocator.proc = o.Pipeline.proc;
    heuristic;
    machine;
    passes = o.Pipeline.passes;
    live_ranges = o.Pipeline.live_ranges;
    total_spilled = o.Pipeline.total_spilled;
    total_spill_cost = o.Pipeline.total_spill_cost;
    moves_removed = o.Pipeline.moves_removed }

let allocate_matrix ?(coalesce = true) ?(max_passes = 32)
    ?(spill_base = Spill_costs.default_base) ?(rematerialize = true)
    ?(verify = verify_default) ?scheduler ?tele machine
    heuristics (procs : Proc.t list) : Allocator.result list list =
  let open Ra_support in
  let cfgn =
    { Pipeline.coalesce; max_passes; spill_base; rematerialize; verify }
  in
  let pool = match scheduler with Some p -> p | None -> Pool.global () in
  let tele = match tele with Some t -> t | None -> Telemetry.ambient () in
  if Telemetry.enabled tele then Pool.set_telemetry pool tele;
  (* a group's shared build shards its block scan on the same pool *)
  let bpool = if Pool.jobs pool > 1 then Some pool else None in
  (* Group the heuristics (with their column) by the first-pass Build
     they need: Chaitin, Briggs and Matula share one; each irc cell
     builds its own, because its conservative merges write the build's
     alias forest. Matula leads its group: its cost-blind order spills
     the most, so its cell is the longest, and starting it first keeps
     it off the tail of the schedule. *)
  let shared, own =
    List.partition
      (fun (_, h) -> h <> Heuristic.Irc)
      (List.mapi (fun j h -> j, h) heuristics)
  in
  let shared =
    let matula, rest =
      List.partition (fun (_, h) -> h = Heuristic.Matula) shared
    in
    matula @ rest
  in
  let groups =
    (if shared = [] then [] else [ shared ]) @ List.map (fun c -> [ c ]) own
  in
  let procs = Array.of_list procs in
  let cells =
    Array.make_matrix (List.length heuristics) (Array.length procs) None
  in
  (* Largest routine first: batch order is dispatch order, so starting
     the longest routines first keeps them off the tail of the schedule
     — the classic LPT bound. Results land in their procedure's slot. *)
  let by_size =
    List.stable_sort
      (fun a b ->
        compare
          (Array.length procs.(b).Proc.code)
          (Array.length procs.(a).Proc.code))
      (List.init (Array.length procs) Fun.id)
  in
  let tasks =
    Array.of_list
      (List.concat_map (fun i -> List.map (fun g -> i, g) groups) by_size)
  in
  (* One pool task per (procedure, group): build once, then fan the
     group's heuristics out as a nested batch. The cells declare no
     footprint: they only read the group's build, which the batch's
     submit edge orders before them, and everything they write is
     their own creation. *)
  Pool.run pool ~n:(Array.length tasks)
    ~meta:(fun t ->
      let i, group = tasks.(t) in
      { Pool.tm_name =
          Printf.sprintf "alloc:%s:%s" procs.(i).Proc.name
            (String.concat "+"
               (List.map (fun (_, h) -> Heuristic.name h) group));
        tm_footprint =
          { Footprint.reads = []; writes = [ Footprint.Telemetry ] } })
    (fun t ->
      let i, group = tasks.(t) in
      let proc = procs.(i) in
      let first =
        Pipeline.build_shared cfgn machine ~tele ?pool:bpool
          (snd (List.hd group)) proc
      in
      let group = Array.of_list group in
      Pool.run pool ~n:(Array.length group) (fun k ->
        let j, h = group.(k) in
        (* contexts are single-threaded: one per cell, its later passes'
           builds sequential — the matrix owns the domains *)
        let context =
          Context.create ~verify ~jobs:1 ~tele machine
        in
        cells.(j).(i) <-
          Some
            (result_of h machine
               (Pipeline.run ~first cfgn ~context machine h proc))));
  Array.to_list
    (Array.map
       (fun row -> Array.to_list (Array.map Option.get row))
       cells)
