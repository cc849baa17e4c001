(* The benchmark executable: one workload, one run.

     main.exe --workload NAME --seed N --seconds S --trace 0|1 --width W
              [--commit ID]
     main.exe --kernel

   A closed loop with one client: the next op is submitted only after the
   previous one returned. With --trace 0 the run measures the end-to-end
   metrics; with --trace 1 it runs untraced for half the time and traced
   for the other half, and reports the per-layer metrics and the tracing
   overhead. The last line of standard output is the result object.
   With --kernel it prints the host-speed kernel's seconds and exits; the
   benchmark runs itself that way for each speed sample. *)

open Common

let min_ops = 100 (* so at least 10 samples lie beyond the 90th percentile *)
let phase_cap_s = 120. (* a phase never runs longer, whatever --seconds says *)
let setup_reps = 7 (* set-ups per run; setup_s is their median *)
let spin_s = 2. (* busy warm-up of every core before the first set-up *)

(* Keeps [width] cores busy for [spin_s] seconds, then joins the domains
   it started. A virtual host that has been idle runs the first process
   after the pause slowly, at thread wake-ups more than at arithmetic: on
   a 2-core VM its set-ups took twice as long, and two seconds of both
   cores busy beforehand removed the difference. *)
let spin ~width =
  let deadline = now () +. spin_s in
  let work () =
    let x = ref 0 in
    while now () < deadline do
      for i = 1 to 10_000 do
        x := Sys.opaque_identity (!x + i)
      done
    done
  in
  let others = List.init (max 0 (width - 1)) (fun _ -> Domain.spawn work) in
  work ();
  List.iter Domain.join others

type phase = {
  tally : tally;
  first_quality : quality option;
  unstable : string option; (* quality counts that changed between sweeps *)
  speeds : float list; (* host-speed samples, taken between sweeps *)
  scaled_rates : float list; (* each sweep's ops per second, at reference speed *)
  scaled_lat : float list; (* each op's seconds, at reference speed *)
}

(* Sweeps until [seconds] of timed wall time and [min_ops] ops are done;
   always at least one whole sweep. A sweep is taken to run at the mean
   of the host speeds sampled just before and just after it. *)
let run_phase (instance : Workloads.instance) ~traced ~seconds ~min_ops =
  let t = new_tally () in
  let started = now () in
  let first = ref None and unstable = ref None in
  let before = ref (host_speed ()) in
  let speeds = ref [ !before ] and scaled_rates = ref [] and scaled_lat = ref [] in
  while
    t.sweeps = 0
    || ((t.wall < seconds || t.ops < min_ops) && now () -. started < phase_cap_s)
  do
    let wall0 = t.wall and ops0 = t.ops in
    let q = instance.sweep ~traced t in
    let after = host_speed () in
    let speed = (!before +. after) /. 2. in
    before := after;
    speeds := after :: !speeds;
    t.sweeps <- t.sweeps + 1;
    let rate = ratio (float (t.ops - ops0)) (t.wall -. wall0) in
    t.sweep_rates <- rate :: t.sweep_rates;
    scaled_rates := (rate /. speed) :: !scaled_rates;
    (* this sweep's ops are the newest entries of [t.lat] *)
    List.iteri
      (fun i dt -> if i < t.ops - ops0 then scaled_lat := (dt *. speed) :: !scaled_lat)
      t.lat;
    match !first with
    | None -> first := Some q
    | Some q0 ->
      if (not (quality_equal q0 q)) && !unstable = None then
        unstable :=
          Some
            (Printf.sprintf "code-quality counts differ between sweeps: %s vs %s"
               (string_of_quality q0) (string_of_quality q))
  done;
  { tally = t; first_quality = !first; unstable = !unstable; speeds = !speeds;
    scaled_rates = !scaled_rates; scaled_lat = !scaled_lat }

(* Ops per second of sweep wall time, in the median sweep: every sweep
   submits the same ops, and the median keeps one sweep that a busy host
   slowed from moving the run's figure. *)
let ops_per_s t = median t.sweep_rates

type metric = { name : string; value : float; unit : string }

let m name unit value = { name; value; unit }

(* The end-to-end metrics, with timings at reference host speed
   ([Common.host_speed]) when [scaled], else as measured. *)
let end_to_end ~scaled ~setup_s ~peak ph =
  let t = ph.tally in
  let rates, lat =
    if scaled then ph.scaled_rates, ph.scaled_lat else t.sweep_rates, t.lat
  in
  let lat = sorted_array lat in
  let q = Option.get ph.first_quality in
  [ m "setup_s" "s" setup_s;
    m "ops_per_s" "1/s" (median rates);
    m "op_p50_ms" "ms" (1000. *. percentile lat 0.5);
    m "op_p90_ms" "ms" (1000. *. percentile lat 0.9);
    m "passed_share" "ratio" (1. -. ratio (float t.failed) (float t.attempted));
    m "spilled_webs" "count" (float q.spilled);
    m "spill_cost" "cost" q.cost;
    m "peak_rss_mb" "MB" peak ]

let per_layer ~speed ~untraced ph l =
  let t = ph.tally in
  let q = Option.get ph.first_quality in
  let sweeps = float t.sweeps in
  let per_sweep name = get l name /. sweeps in
  let s name = m name "s" (per_sweep name) in
  let c name = m name "count" (per_sweep name) in
  let vm_s = get l "vm.s" in
  [ s "frontend.lex_s"; s "frontend.parse_s"; s "frontend.typecheck_s";
    c "frontend.tokens"; s "ir.codegen_s"; c "ir.instrs"; s "opt.s";
    c "opt.instrs_after"; c "opt.cse_rewrites"; c "opt.hoisted";
    c "opt.dead_removed";
    s "build.cpu_s";
    m "build.span_s" "s" (per_sweep "span.build_us" /. 1e6);
    m "build.scan_s" "s" (per_sweep "span.scan_us" /. 1e6);
    m "build.liveness_s" "s" (per_sweep "span.build_liveness_us" /. 1e6);
    m "build.coalesce_s" "s" (per_sweep "span.build_coalesce_us" /. 1e6);
    m "build.self_s" "s" (per_sweep "span.build_self_us" /. 1e6);
    m "build.rounds_per_pass" "ratio" (ratio (get l "build.rounds") (get l "passes"));
    c "build.edges";
    m "build.cache_hit_ratio" "ratio"
      (ratio (get l "build.cache_hits")
         (get l "build.cache_hits" +. get l "build.cache_misses"));
    s "simplify.cpu_s"; s "color.cpu_s"; s "irc.coalesce_cpu_s";
    c "irc.fallback_runs"; c "irc.fallback_kept"; c "par_color.engaged";
    m "par_color.recolored_ratio" "ratio"
      (ratio (get l "par_color.recolored") (get l "par_color.candidates"));
    c "par_simplify.engaged";
    m "par_simplify.repaired_ratio" "ratio"
      (ratio (get l "par_simplify.repaired")
         (get l "par_simplify.peeled" +. get l "par_simplify.repaired"));
    s "color.run_s";
    s "spill.cpu_s";
    m "spill.passes_per_op" "ratio" (ratio (get l "passes") (float t.ops));
    m "alloc.failed_s" "s" (t.failed_s /. sweeps);
    c "sched.tasks"; c "sched.steals";
    m "pool.queue_wait_us" "us" (per_sweep "pool.queue_wait_us");
    m "gc.minor_words_per_op" "words" (ratio (get l "gc.minor_words") (float t.ops));
    m "gc.major_words_per_op" "words" (ratio (get l "gc.major_words") (float t.ops));
    m "gc.top_heap_mb" "MB" (top_heap_mb ());
    m "vm.s" "s" vm_s;
    m "vm.instructions" "count" (get l "vm.instructions");
    m "vm.instr_per_s" "1/s" (ratio (get l "vm.instructions") vm_s);
    m "failed_share" "ratio" (ratio (float t.failed) (float t.attempted));
    m "spill_cost_inf_cells" "count" (float q.inf_cells);
    m "cycles" "count" (float q.cycles);
    m "code_bytes" "bytes" (float q.bytes);
    m "traced.ops_per_s" "1/s" (ops_per_s t);
    m "host.speed" "ratio" speed;
    m "trace.overhead" "ratio" (ratio (ops_per_s untraced.tally) (ops_per_s t)) ]

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1 --width W \
     [--commit ID]\n       main.exe --kernel";
  exit 2

let () =
  if Array.length Sys.argv = 2 && Sys.argv.(1) = "--kernel" then begin
    Printf.printf "%.17g\n" (kernel_seconds ());
    exit 0
  end;
  let args = Hashtbl.create 8 in
  let rec parse = function
    | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
      Hashtbl.replace args (String.sub key 2 (String.length key - 2)) value;
      parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let arg name = match Hashtbl.find_opt args name with Some v -> v | None -> usage () in
  let int_arg name = match int_of_string_opt (arg name) with Some v -> v | None -> usage () in
  let workload =
    match List.find_opt (fun (w : Workloads.t) -> w.name = arg "workload") Workloads.all with
    | Some w -> w
    | None ->
      Printf.eprintf "unknown workload %S (known: %s)\n" (arg "workload")
        (String.concat ", " (List.map (fun (w : Workloads.t) -> w.name) Workloads.all));
      exit 2
  in
  let seed = int_arg "seed" and width = int_arg "width" in
  let seconds =
    match float_of_string_opt (arg "seconds") with Some s when s > 0. -> s | _ -> usage ()
  in
  let trace = match arg "trace" with "0" -> false | "1" -> true | _ -> usage () in
  let commit = Option.value ~default:"unknown" (Hashtbl.find_opt args "commit") in
  (* the allocator's width, set explicitly; nothing else is configured *)
  Ra_support.Pool.set_default_jobs width;
  (* Set-up, repeated: each repetition generates the inputs, starts the
     scheduler and warms up; the last one's instance is kept. Host-speed
     samples are taken between set-ups, and each set-up is taken to run
     at the mean of the samples just before and just after it. *)
  spin ~width;
  let setups = ref [] and instance = ref None in
  let before = ref (host_speed ()) in
  let setup_speeds = ref [ !before ] in
  for _ = 1 to setup_reps do
    Option.iter (fun (s : Workloads.instance) -> s.close ()) !instance;
    instance := None;
    Gc.compact ();
    let t0 = now () in
    let rng = Ra_support.Lcg.create ~seed in
    instance := Some (workload.setup ~rng ~width);
    let dt = now () -. t0 in
    let after = host_speed () in
    setups := (dt, (!before +. after) /. 2.) :: !setups;
    setup_speeds := after :: !setup_speeds;
    before := after
  done;
  let instance = Option.get !instance in
  let setup_s = median (List.map fst !setups)
  and scaled_setup_s = median (List.map (fun (dt, speed) -> dt *. speed) !setups) in
  let untraced =
    run_phase instance ~traced:None
      ~seconds:(if trace then seconds /. 2. else seconds)
      ~min_ops:(if trace then 1 else min_ops)
  in
  let speed = median (!setup_speeds @ untraced.speeds) in
  let peak = peak_rss_mb () in
  let phases, metrics =
    if not trace then
      [ untraced ], end_to_end ~scaled:true ~setup_s:scaled_setup_s ~peak untraced
    else begin
      instance.fresh_checks ();
      let l = new_layers () in
      let traced = run_phase instance ~traced:(Some l) ~seconds:(seconds /. 2.) ~min_ops:1 in
      [ untraced; traced ], per_layer ~speed ~untraced traced l
    end
  in
  instance.close ();
  let attempted = List.fold_left (fun a p -> a + p.tally.attempted) 0 phases in
  let failed = List.fold_left (fun a p -> a + p.tally.failed) 0 phases in
  let wrong = List.fold_left (fun a p -> a + p.tally.wrong) 0 phases in
  let unstable = List.filter_map (fun p -> p.unstable) phases in
  (* the same inputs give the same counts in every phase *)
  let unstable =
    match List.filter_map (fun p -> p.first_quality) phases with
    | q0 :: rest when List.exists (fun q -> not (quality_equal q0 q)) rest ->
      "code-quality counts differ between the untraced and traced phases" :: unstable
    | _ -> unstable
  in
  let correct = wrong = 0 && unstable = [] in
  let main = List.hd (List.rev phases) in
  let n_lat = List.length untraced.tally.lat in
  Printf.printf "provenance %s\n"
    (json_object
       [ "workload", json_string workload.name;
         "seed", string_of_int seed;
         "seconds", json_float seconds;
         "trace", string_of_int (if trace then 1 else 0);
         "host", json_string (Unix.gethostname ());
         "width", string_of_int width;
         "recommended_domains", string_of_int (Domain.recommended_domain_count ());
         "ocaml", json_string Sys.ocaml_version;
         "commit", json_string commit;
         "setup_reps", string_of_int setup_reps;
         "warm_up_spin_s", json_float spin_s;
         "load", json_string "closed loop, one client";
         "params",
         json_object (List.map (fun (k, v) -> k, json_string v) workload.params) ]);
  List.iter
    (fun p ->
      Printf.printf "phase: %d sweeps, %d ops, %.3f s timed, %d/%d cells failed\n"
        p.tally.sweeps p.tally.ops p.tally.wall p.tally.failed p.tally.attempted)
    phases;
  Printf.printf "latency samples: %d, beyond p90: %d\n" n_lat (beyond n_lat 0.9);
  Option.iter
    (fun q -> Printf.printf "quality per sweep: %s\n" (string_of_quality q))
    main.first_quality;
  let failures = Hashtbl.create 8 in
  List.iter
    (fun p ->
      Hashtbl.iter
        (fun msg n ->
          Hashtbl.replace failures msg
            (n + Option.value ~default:0 (Hashtbl.find_opt failures msg)))
        p.tally.failures)
    phases;
  Hashtbl.iter (fun msg n -> Printf.printf "failed (%d cells): %s\n" n msg) failures;
  List.iter (fun msg -> Printf.printf "incorrect: %s\n" msg) unstable;
  if not trace then
    Printf.printf "measured %s\n"
      (json_object
         (("host_speed", json_float speed)
          :: List.map
               (fun x -> x.name, json_float x.value)
               (end_to_end ~scaled:false ~setup_s ~peak untraced)));
  List.iter (fun x -> Printf.printf "%-28s %.6g %s\n" x.name x.value x.unit) metrics;
  print_endline
    (json_object
       [ "correct", string_of_bool correct;
         "attempted", string_of_int attempted;
         "failed", string_of_int failed;
         "metrics",
         json_object
           (List.map
              (fun x ->
                x.name, json_object [ "value", json_float x.value; "unit", json_string x.unit ])
              metrics) ])
