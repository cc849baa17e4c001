(* Tests for the parallel-effect analysis (Ra_check.Effects) and the
   dynamic race detector (Ra_check.Race): footprint algebra unit tests,
   dispatch-time rejection of overlapping batches, happens-before
   ordering through the pool's submit/join edges, footprint conformance
   with the created-object exemption, pool scheduling counters, the
   seeded edge-cache race the detector must catch, and suite-scale
   race-cleanliness sweeps (ramped up when RA_RACE_CHECK is set).

   Threads are task executions, so a logically-concurrent conflict is
   reported even when one worker happens to serialize the tasks — every
   assertion here is schedule-independent. *)

open Ra_support
open Ra_check
open Ra_core

let qtest = QCheck_alcotest.to_alcotest

let heavy = Race.enabled_from_env ()

let with_pool ~jobs f =
  let pool = Pool.create ~jobs in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

let fp ?(reads = []) ?(writes = []) () = { Footprint.reads; writes }

let meta name footprint = { Pool.tm_name = name; tm_footprint = footprint }

let error_report diags =
  String.concat "\n" (List.map Diagnostic.to_string (Diagnostic.errors diags))

let check_no_errors what diags =
  Alcotest.(check string) what "" (error_report diags)

let has_check name diags =
  List.exists
    (fun d -> Diagnostic.is_error d && d.Diagnostic.check = name)
    diags

let contains_sub haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1))
  in
  go 0

(* ---- footprint algebra ---- *)

let footprint_overlap () =
  let rows id lo hi = Footprint.Bit_matrix_rows { id; lo; hi } in
  Alcotest.(check bool) "same id, meeting ranges" true
    (Footprint.overlap (rows 1 0 4) (rows 1 4 9));
  Alcotest.(check bool) "same id, disjoint ranges" false
    (Footprint.overlap (rows 1 0 4) (rows 1 5 9));
  Alcotest.(check bool) "different ids" false
    (Footprint.overlap (rows 1 0 9) (rows 2 0 9));
  Alcotest.(check bool) "bitsets by id" true
    (Footprint.overlap (Footprint.Bitset 7) (Footprint.Bitset 7));
  Alcotest.(check bool) "telemetry never overlaps" false
    (Footprint.overlap Footprint.Telemetry Footprint.Telemetry)

let footprint_covers () =
  let r = Footprint.Edge_cache_blocks { id = 3; lo = 2; hi = 5 } in
  Alcotest.(check bool) "block in range" true
    (Footprint.covers r (Footprint.K_edge_cache_block (3, 4)));
  Alcotest.(check bool) "block out of range" false
    (Footprint.covers r (Footprint.K_edge_cache_block (3, 6)));
  Alcotest.(check bool) "wrong object" false
    (Footprint.covers r (Footprint.K_edge_cache_block (4, 4)));
  (* a whole-object observation (row -1: reset/resize) is only covered
     by a full-range claim *)
  let partial = Footprint.Bit_matrix_rows { id = 9; lo = 0; hi = 100 } in
  let full = Footprint.Bit_matrix_rows { id = 9; lo = 0; hi = max_int } in
  Alcotest.(check bool) "partial range misses row -1" false
    (Footprint.covers partial (Footprint.K_bit_matrix_row (9, -1)));
  Alcotest.(check bool) "full range covers row -1" true
    (Footprint.covers full (Footprint.K_bit_matrix_row (9, -1)))

let footprint_conflict () =
  let a = fp ~writes:[ Footprint.Bitset 1; Footprint.Telemetry ] () in
  let b = fp ~reads:[ Footprint.Bitset 1 ] () in
  let c = fp ~reads:[ Footprint.Bitset 2 ] ~writes:[ Footprint.Telemetry ] () in
  Alcotest.(check bool) "write vs read conflicts" true
    (Footprint.conflict a b <> None);
  Alcotest.(check bool) "disjoint does not" (* telemetry is synchronized *)
    true
    (Footprint.conflict a c = None && Footprint.conflict c a = None)

(* ---- static disjointness at dispatch ---- *)

let effects_accepts_disjoint () =
  let metas =
    Array.init 4 (fun i ->
      meta
        (Printf.sprintf "chunk%d" i)
        (fp
           ~reads:[ Footprint.Liveness 99 ]
           ~writes:
             [ Footprint.Edge_cache_blocks { id = 7; lo = 10 * i; hi = (10 * i) + 9 };
               Footprint.Telemetry ]
           ()))
  in
  Alcotest.(check int) "no conflicts" 0 (List.length (Effects.check metas));
  Effects.validate metas (* must not raise *)

let effects_rejects_overlap () =
  let metas =
    [| meta "left" (fp ~writes:[ Footprint.Igraph_rows { id = 5; lo = 0; hi = 10 } ] ());
       meta "right" (fp ~reads:[ Footprint.Igraph_rows { id = 5; lo = 10; hi = 20 } ] ())
    |]
  in
  match Effects.validate metas with
  | () -> Alcotest.fail "overlapping batch accepted"
  | exception Effects.Conflict d ->
    let m = d.Diagnostic.message in
    Alcotest.(check bool) "names both tasks and the resource" true
      (d.Diagnostic.check = "task-footprint-overlap"
      && contains_sub m "left" && contains_sub m "right"
      && contains_sub m "igraph#5")

let pool_dispatch_validates () =
  Effects.install ();
  (* the validator runs even on batches a width-1 pool executes inline:
     an inconsistent declaration should fail in sequential tests too *)
  with_pool ~jobs:1 (fun pool ->
    let m _ = meta "w" (fp ~writes:[ Footprint.Bitset 3 ] ()) in
    match Pool.run pool ~meta:m ~n:2 (fun _ -> ()) with
    | () -> Alcotest.fail "overlapping batch dispatched"
    | exception Effects.Conflict _ -> ())

(* ---- dynamic detection through the real pool ---- *)

let race_between_sibling_tasks () =
  with_pool ~jobs:2 (fun pool ->
    let shared = Bitset.create 64 in
    let _, diags =
      Race.with_check (fun () ->
        Pool.run pool ~n:2 (fun i -> Bitset.add shared i))
    in
    Alcotest.(check bool) "write/write race reported" true
      (has_check "data-race" diags))

let sequential_batches_are_ordered () =
  with_pool ~jobs:2 (fun pool ->
    let shared = Bitset.create 64 in
    let _, diags =
      Race.with_check (fun () ->
        (* same location written by a task in each batch, but the join
           of the first batch orders it before the second: the
           surrogate edge must carry the happens-before across dead
           task threads (n = 2 keeps both batches on the pooled path) *)
        Pool.run pool ~n:2 (fun i -> if i = 0 then Bitset.add shared 1);
        Pool.run pool ~n:2 (fun i -> if i = 0 then Bitset.add shared 2))
    in
    check_no_errors "joined batches do not race" diags)

let disjoint_tasks_are_clean () =
  with_pool ~jobs:4 (fun pool ->
    let sets = Array.init 8 (fun _ -> Bitset.create 32) in
    let m i =
      meta
        (Printf.sprintf "t%d" i)
        (fp ~writes:[ Footprint.Bitset (Bitset.uid sets.(i)) ] ())
    in
    let _, diags =
      Race.with_check (fun () ->
        Pool.run pool ~meta:m ~n:8 (fun i -> Bitset.add sets.(i) i))
    in
    check_no_errors "disjoint declared writes are clean" diags)

let conformance_violation_detected () =
  with_pool ~jobs:2 (fun pool ->
    (* each task declares its own bitset (so the batch passes the static
       disjointness check), but task 0 also strays into an undeclared
       one: only the dynamic conformance check can see that *)
    let declared = Array.init 2 (fun _ -> Bitset.create 32) in
    let undeclared = Bitset.create 32 in
    let m i =
      meta
        (Printf.sprintf "t%d" i)
        (fp ~writes:[ Footprint.Bitset (Bitset.uid declared.(i)) ] ())
    in
    let _, diags =
      Race.with_check (fun () ->
        Pool.run pool ~meta:m ~n:2 (fun i ->
          Bitset.add declared.(i) i;
          if i = 0 then Bitset.add undeclared 1))
    in
    Alcotest.(check bool) "undeclared write reported" true
      (has_check "footprint-conformance" diags))

let created_objects_exempt () =
  with_pool ~jobs:2 (fun pool ->
    let m i =
      meta (Printf.sprintf "t%d" i) (fp ()) (* declares nothing *)
    in
    let _, diags =
      Race.with_check (fun () ->
        Pool.run pool ~meta:m ~n:2 (fun i ->
          (* a task's private allocations need no declaration *)
          let own = Bitset.create 16 in
          Bitset.add own i))
    in
    check_no_errors "task-created objects exempt from conformance" diags)

(* ---- pool scheduling counters ---- *)

let pool_counters () =
  with_pool ~jobs:3 (fun pool ->
    let tele = Telemetry.create () in
    Pool.set_telemetry pool tele;
    Pool.run pool ~n:8 (fun _ -> ());
    Alcotest.(check int) "pool.tasks" 8
      (Telemetry.counter_total tele "pool.tasks");
    let totals = Telemetry.counter_totals tele in
    let is_prefix p s =
      String.length s >= String.length p
      && String.sub s 0 (String.length p) = p
    in
    Alcotest.(check bool) "per-domain task counters present" true
      (List.exists (fun (k, _) -> is_prefix "pool.tasks.d" k) totals);
    Alcotest.(check int) "per-domain counts sum to the batch" 8
      (List.fold_left
         (fun acc (k, v) ->
           if is_prefix "pool.tasks.d" k then acc + v else acc)
         0 totals);
    Alcotest.(check bool) "queue wait accounted" true
      (List.mem_assoc "pool.queue_wait_us" totals))

(* ---- allocation-scale checks ---- *)

let machine = Machine.rt_pc

let allocate_all_checked ?(coalesce = true) ?verify ~jobs ~edge_cache
    ~heuristic program =
  with_pool ~jobs (fun pool ->
    let procs = Ra_programs.Suite.compile program in
    let ctx = Context.create ?verify ~edge_cache ~pool machine in
    let _, diags =
      Race.with_check (fun () ->
        List.iter
          (fun p ->
            (* the cost-blind Matula ablation can legitimately fail to
               converge on the big routines without coalescing; the
               sweep asserts race-cleanliness of whatever ran, not
               allocatability of every combo *)
            try
              ignore
                (Allocator.allocate ~coalesce ~context:ctx machine heuristic p)
            with Pipeline.Allocation_failure _ -> ())
          procs)
    in
    diags)

(* The seeded run's context pins [~verify:false]: under RA_VERIFY the
   build's own cross-check would raise [Build.Divergence] before the
   detector could report, and this test is about the detector. The
   verified run is asserted separately, so that coverage stays pinned. *)
let seeded_cache_race_is_caught () =
  Build.seeded_cache_race := true;
  Fun.protect
    ~finally:(fun () -> Build.seeded_cache_race := false)
    (fun () ->
      let diags =
        allocate_all_checked ~verify:false ~jobs:4 ~edge_cache:true
          ~heuristic:Heuristic.Briggs Ra_programs.Suite.quicksort
      in
      Alcotest.(check bool) "seeded race reported as a data race" true
        (has_check "data-race" diags);
      Alcotest.(check bool) "and as a footprint violation" true
        (has_check "footprint-conformance" diags);
      Alcotest.(check bool) "finding names an edge-cache slot" true
        (List.exists
           (fun d ->
             Diagnostic.is_error d
             && contains_sub d.Diagnostic.message "edge-cache")
           diags);
      Alcotest.(check bool) "the verified run raises Build.Divergence" true
        (match
           allocate_all_checked ~verify:true ~jobs:4 ~edge_cache:true
             ~heuristic:Heuristic.Briggs Ra_programs.Suite.quicksort
         with
         | _ -> false
         | exception Build.Divergence _ -> true))

let suite_sweep () =
  let programs =
    if heavy then Ra_programs.Suite.all else [ Ra_programs.Suite.quicksort ]
  in
  let heuristics =
    if heavy then [ Heuristic.Chaitin; Heuristic.Briggs; Heuristic.Matula ]
    else [ Heuristic.Briggs ]
  in
  let coalesces = if heavy then [ true; false ] else [ true ] in
  List.iter
    (fun program ->
      List.iter
        (fun heuristic ->
          List.iter
            (fun coalesce ->
              List.iter
                (fun edge_cache ->
                  check_no_errors
                    (Printf.sprintf "%s race-clean (cache %b, coalesce %b)"
                       program.Ra_programs.Suite.pname edge_cache coalesce)
                    (allocate_all_checked ~coalesce ~jobs:4 ~edge_cache
                       ~heuristic program))
                [ true; false ])
            coalesces)
        heuristics)
    programs

let suite_sweep_widths () =
  (* the jobs dimension of the acceptance matrix; heavy mode covers all
     programs at widths 2 and 8, light mode just quicksort *)
  let programs =
    if heavy then Ra_programs.Suite.all else [ Ra_programs.Suite.quicksort ]
  in
  List.iter
    (fun program ->
      List.iter
        (fun jobs ->
          check_no_errors
            (Printf.sprintf "%s race-clean at jobs %d"
               program.Ra_programs.Suite.pname jobs)
            (allocate_all_checked ~jobs ~edge_cache:true
               ~heuristic:Heuristic.Briggs program))
        [ 2; 8 ])
    programs

let procedure_dispatch_clean () =
  with_pool ~jobs:4 (fun pool ->
    let procs = Ra_programs.Suite.compile Ra_programs.Suite.quicksort in
    let _, diags =
      Race.with_check (fun () ->
        ignore
          (Batch.allocate_all ~pool:(Some pool) machine Heuristic.Briggs
             procs))
    in
    check_no_errors "procedure-level dispatch race-clean" diags)

(* The matrix shares each routine's first-pass build among concurrently
   allocated cells, which must only ever read it. *)
let matrix_shared_builds_clean () =
  with_pool ~jobs:4 (fun pool ->
    let procs = Ra_programs.Suite.compile Ra_programs.Suite.quicksort in
    let _, diags =
      Race.with_check (fun () ->
        ignore
          (Batch.allocate_matrix ~scheduler:pool machine
             Heuristic.[ Chaitin; Briggs; Matula; Irc ]
             procs))
    in
    check_no_errors "matrix with shared first-pass builds race-clean" diags)

let prop_random_programs_race_clean =
  QCheck.Test.make
    ~name:"random programs allocate race-clean and footprint-conformant"
    ~count:(if heavy then 15 else 5)
    QCheck.(
      quad (int_bound 1000000) (int_range 5 30) (int_range 2 8) bool)
    (fun (seed, size, jobs, edge_cache) ->
      let src = Progen.generate ~seed ~size in
      let procs = Ra_ir.Codegen.compile_source src in
      with_pool ~jobs (fun pool ->
        let ctx = Context.create ~edge_cache ~pool machine in
        let _, diags =
          Race.with_check (fun () ->
            List.iter
              (fun p ->
                ignore
                  (Allocator.allocate ~context:ctx machine Heuristic.Briggs p))
              procs)
        in
        if Diagnostic.has_errors diags then
          QCheck.Test.fail_reportf "race check found:\n%s" (error_report diags);
        true))

let suites =
  [ ( "check.effects",
      [ Alcotest.test_case "footprint overlap" `Quick footprint_overlap;
        Alcotest.test_case "footprint covers" `Quick footprint_covers;
        Alcotest.test_case "footprint conflict" `Quick footprint_conflict;
        Alcotest.test_case "accepts disjoint batch" `Quick
          effects_accepts_disjoint;
        Alcotest.test_case "rejects overlapping batch" `Quick
          effects_rejects_overlap;
        Alcotest.test_case "pool dispatch validates" `Quick
          pool_dispatch_validates ] );
    ( "check.race",
      [ Alcotest.test_case "sibling tasks race" `Quick
          race_between_sibling_tasks;
        Alcotest.test_case "joined batches ordered" `Quick
          sequential_batches_are_ordered;
        Alcotest.test_case "disjoint tasks clean" `Quick
          disjoint_tasks_are_clean;
        Alcotest.test_case "conformance violation" `Quick
          conformance_violation_detected;
        Alcotest.test_case "created objects exempt" `Quick
          created_objects_exempt;
        Alcotest.test_case "pool counters" `Quick pool_counters;
        Alcotest.test_case "seeded edge-cache race is caught" `Quick
          seeded_cache_race_is_caught;
        Alcotest.test_case "suite sweep race-clean" `Slow suite_sweep;
        Alcotest.test_case "suite sweep across widths" `Slow
          suite_sweep_widths;
        Alcotest.test_case "procedure dispatch race-clean" `Quick
          procedure_dispatch_clean;
        Alcotest.test_case "matrix shared builds race-clean" `Quick
          matrix_shared_builds_clean;
        qtest prop_random_programs_race_clean ] ) ]
