(* The three workloads. Each one sets up its inputs once, then runs
   sweeps: one sweep submits every op of the workload once, in an order
   drawn from the run's seed, times each op from outside, and afterwards
   (outside the timed window) checks every output and totals the sweep's
   code-quality counts. *)

open Ra_support
open Common
module Suite = Ra_programs.Suite
module Proc = Ra_ir.Proc
module H = Ra_core.Heuristic
module Alloc = Ra_core.Allocator

let machine = Ra_core.Machine.rt_pc

type instance = {
  sweep : traced:layers option -> tally -> quality;
  (* forget cached output checks, so a new phase runs the VM again *)
  fresh_checks : unit -> unit;
  close : unit -> unit;
}

type t = {
  name : string;
  params : (string * string) list; (* recorded with every result *)
  setup : rng:Lcg.t -> width:int -> instance;
}

let time f =
  let t0 = now () in
  let r = f () in
  r, now () -. t0

let shuffled rng l =
  let a = Array.of_list l in
  Lcg.shuffle rng a;
  Array.to_list a

let short msg =
  let msg = String.map (function '\n' -> ' ' | c -> c) msg in
  if String.length msg <= 160 then msg else String.sub msg 0 157 ^ "..."

(* ---- real programs: paper-suite and synth-large ---- *)

(* What a VM run shows the outside world: the printed result and output
   lines, or the exception. Values compare by printed form, so a NaN
   result equals itself. *)
let observe (p : Suite.program) procs args =
  match Ra_vm.Exec.run ~fuel:p.fuel ~procs ~entry:p.driver ~args () with
  | o ->
    let result =
      match o.result with Some v -> Ra_vm.Value.to_string v | None -> "-"
    in
    String.concat "\n" (result :: o.output), o.cycles, o.instructions
  | exception e -> "raised " ^ Printexc.to_string e, 0, 0

let arg_sets (p : Suite.program) =
  if p.test_args = p.driver_args then [ "driver_args", p.driver_args ]
  else [ "driver_args", p.driver_args; "test_args", p.test_args ]

(* Parse, typecheck, generate and optimize [p] — [Suite.compile]. Traced,
   the same stages run one by one under outside timers. The parser lexes
   its own input, so the parse time includes a lexing pass; the lexing
   time comes from a separate tokenize call over the same source. *)
let compile ~traced (p : Suite.program) =
  match traced with
  | None -> Suite.compile p
  | Some l ->
    let toks, lex_s = time (fun () -> Ra_frontend.Lexer.tokenize p.source) in
    add l "frontend.lex_s" lex_s;
    add l "frontend.tokens" (float (Array.length toks));
    let ast, parse_s =
      time (fun () -> Ra_frontend.Parser.parse_program p.source)
    in
    add l "frontend.parse_s" parse_s;
    let tast, dt =
      time (fun () -> Ra_frontend.Typecheck.check_program ast)
    in
    add l "frontend.typecheck_s" dt;
    let procs, dt = time (fun () -> Ra_ir.Codegen.gen_program tast) in
    add l "ir.codegen_s" dt;
    List.iter (fun pr -> add l "ir.instrs" (float (Proc.instr_count pr))) procs;
    let (), dt =
      time (fun () ->
        List.iter
          (fun pr ->
            let s = Ra_opt.Opt.optimize pr in
            add l "opt.cse_rewrites" (float s.Ra_opt.Opt.cse_rewrites);
            add l "opt.hoisted" (float s.Ra_opt.Opt.hoisted);
            add l "opt.dead_removed" (float s.Ra_opt.Opt.dead_removed))
          procs)
    in
    add l "opt.s" dt;
    List.iter
      (fun pr -> add l "opt.instrs_after" (float (Proc.instr_count pr)))
      procs;
    procs

(* One op: [proc] under every heuristic in one [allocate_matrix] call.
   The matrix raises as a whole when any cell raises; then each heuristic
   is allocated on its own, so the failing cell is named and the others
   are still measured. Wall time of every call that raised goes to
   [failed_s]. *)
let allocate_cells ~sched ?tele t heuristics proc =
  let matrix hs =
    Ra_core.Batch.allocate_matrix ~scheduler:sched ?tele machine hs [ proc ]
  in
  let t0 = now () in
  match matrix heuristics with
  | cols -> List.map (fun col -> Ok (List.hd col)) cols
  | exception _ ->
    t.failed_s <- t.failed_s +. (now () -. t0);
    List.map
      (fun h ->
        let t1 = now () in
        match matrix [ h ] with
        | cols -> Ok (List.hd (List.hd cols))
        | exception e ->
          t.failed_s <- t.failed_s +. (now () -. t1);
          Error (Printexc.to_string e))
      heuristics

(* Per-layer numbers an allocation result carries: its pass records
   (processor seconds, as the allocator's timers measure them) and
   counts. *)
let absorb_result l (r : Alloc.result) =
  List.iter
    (fun (p : Alloc.pass_record) ->
      add l "build.cpu_s" p.build_time;
      add l "irc.coalesce_cpu_s" p.coalesce_time;
      add l "simplify.cpu_s" p.simplify_time;
      add l "color.cpu_s" p.color_time;
      add l "spill.cpu_s" p.spill_time;
      add l "passes" 1.;
      add l "build.rounds" (float p.build_rounds);
      add l "build.edges" (float (p.edges_int + p.edges_flt));
      add l "build.cache_hits" (float p.cache_hits);
      add l "build.cache_misses" (float p.cache_misses))
    r.passes

type check = {
  fingerprint : Digest.t;
  mismatch : string option;
  cyc : int;
}

let program_workload ~name ~params ~heuristics ~programs ~warm_up =
  let setup ~rng ~width =
    let programs = programs () in
    let sched = Scheduler.create ~jobs:width in
    warm_up sched;
    (* the unallocated program's VM observations, per program and args *)
    let reference = Hashtbl.create 8 in
    let reference_of (p : Suite.program) =
      match Hashtbl.find_opt reference p.pname with
      | Some r -> r
      | None ->
        let procs = Suite.compile p in
        let r =
          List.map
            (fun (label, args) ->
              let obs, _, _ = observe p procs args in
              label, args, obs)
            (arg_sets p)
        in
        Hashtbl.replace reference p.pname r;
        r
    in
    let checks = Hashtbl.create 32 in
    (* Run the allocated program at every argument set and compare with
       the unallocated one. Cached by the allocated code's digest: the VM
       is deterministic, so identical code needs no second run. *)
    let check ~traced (p : Suite.program) hname procs =
      let fingerprint =
        Digest.string (String.concat "\n" (List.map Proc.to_string procs))
      in
      match Hashtbl.find_opt checks (p.pname, hname) with
      | Some c when Digest.equal c.fingerprint fingerprint -> c
      | _ ->
        let mismatch = ref None and cyc = ref 0 in
        List.iter
          (fun (label, args, expected) ->
            let (obs, cycles, instrs), dt =
              time (fun () -> observe p procs args)
            in
            Option.iter
              (fun l ->
                add l "vm.s" dt;
                add l "vm.instructions" (float instrs))
              traced;
            if label = "driver_args" then cyc := cycles;
            if obs <> expected && !mismatch = None then
              mismatch :=
                Some
                  (Printf.sprintf "%s x %s: output at %s differs (%s, expected %s)"
                     p.pname hname label (short obs) (short expected)))
          (reference_of p);
        let c = { fingerprint; mismatch = !mismatch; cyc = !cyc } in
        Hashtbl.replace checks (p.pname, hname) c;
        c
    in
    let n_h = List.length heuristics in
    let sweep ~traced t =
      let per_program = Hashtbl.create 8 in
      List.iter
        (fun (p : Suite.program) ->
          let procs = Array.of_list (timed t (fun () -> compile ~traced p)) in
          let cells = Array.make (Array.length procs) [] in
          List.iter
            (fun i ->
              let tele = Option.map (fun _ -> Telemetry.create ()) traced in
              let alloc () = allocate_cells ~sched ?tele t heuristics procs.(i) in
              let row =
                match traced with
                | None -> op t alloc
                | Some l -> gc_around l (fun () -> op t alloc)
              in
              t.attempted <- t.attempted + n_h;
              cells.(i) <- row;
              List.iter2
                (fun h cell ->
                  match cell with
                  | Ok _ -> ()
                  | Error msg ->
                    note_failure t ~cells:1
                      (Printf.sprintf "%s/%s x %s: raised %s" p.pname
                         procs.(i).Proc.name (H.name h) (short msg)))
                heuristics row;
              match traced, tele with
              | Some l, Some tele ->
                let engaged_before = get l "par_color.engaged" in
                absorb_sink l tele;
                let oks = List.filter_map Result.to_option row in
                List.iter (absorb_result l) oks;
                (* Heuristic.run's wall time inside the allocator: the
                   Simplify and Color spans it emits *)
                add l "color.run_s" (span_seconds tele Phase.[ Simplify; Color ]);
                if get l "par_color.engaged" > engaged_before then
                  List.iter
                    (fun (r : Alloc.result) ->
                      List.iter
                        (fun (p : Alloc.pass_record) ->
                          add l "par_color.candidates"
                            (float (p.nodes_int + p.nodes_flt)))
                        r.passes)
                    oks
              | _ -> ())
            (shuffled rng (List.init (Array.length procs) Fun.id));
          (* outside the timed window: run and check every program *)
          List.iteri
            (fun j h ->
              let hname = H.name h in
              let results = Array.map (fun row -> List.nth row j) cells in
              let allocated =
                Array.to_list
                  (Array.mapi
                     (fun i -> function
                       | Ok (r : Alloc.result) -> r.proc
                       (* a cell that raised runs unallocated, so the
                          routine's other cells are still checked *)
                       | Error _ -> procs.(i))
                     results)
              in
              let oks = List.filter_map Result.to_option (Array.to_list results) in
              let complete = List.length oks = Array.length results in
              let c = check ~traced p hname allocated in
              Option.iter
                (fun msg -> note_failure t ~wrong:true ~cells:(List.length oks) msg)
                c.mismatch;
              let q =
                List.fold_left
                  (fun acc (r : Alloc.result) ->
                    sum_quality acc
                      { (cell_cost r.total_spill_cost) with
                        spilled = r.total_spilled;
                        bytes = Proc.object_size r.proc })
                  { no_quality with cycles = (if complete then c.cyc else 0) }
                  oks
              in
              Hashtbl.replace per_program (p.pname, j) q)
            heuristics)
        (shuffled rng programs);
      (* canonical order: programs as listed, heuristics as listed *)
      List.fold_left
        (fun acc (p : Suite.program) ->
          List.fold_left
            (fun acc j ->
              sum_quality acc (Hashtbl.find per_program (p.pname, j)))
            acc
            (List.init n_h Fun.id))
        no_quality programs
    in
    { sweep;
      fresh_checks = (fun () -> Hashtbl.reset checks);
      close = (fun () -> Scheduler.shutdown sched) }
  in
  { name; params; setup }

(* Warm-up: one small program through the whole matrix, so lazy state
   (domains, code paths, the GC's heap) is settled before timing. *)
let warm_up_with (p : Suite.program) heuristics sched =
  ignore
    (Ra_core.Batch.allocate_matrix ~scheduler:sched machine heuristics
       (Suite.compile p))

let all_heuristics = H.[ Chaitin; Briggs; Matula; Irc ]

let paper_suite =
  program_workload ~name:"paper-suite"
    ~params:
      [ "programs", String.concat "," (List.map (fun (p : Suite.program) -> p.pname) Suite.all);
        "heuristics", String.concat "," (List.map H.name all_heuristics);
        "machine", "rt_pc (16 int + 8 float registers)" ]
    ~heuristics:all_heuristics
    ~programs:(fun () -> Suite.all)
    ~warm_up:(warm_up_with (Suite.find "LINPACK") all_heuristics)

(* The synthetic unit is fixed by its generator parameters, so every run
   allocates the same code; the run's seed sets the submission order. *)
let synth_seed = 11
let synth_size = 60
let synth_routines = 6

let synth_program () : Suite.program =
  let source =
    Ra_programs.Synth.many ~seed:synth_seed ~size:synth_size
      ~routines:synth_routines
  in
  { pname = "SYNTH";
    source;
    routines = List.init synth_routines (Printf.sprintf "synth%d");
    driver = "main";
    driver_args = [];
    test_args = [];
    fuel = 100_000_000 }

let synth_large =
  program_workload ~name:"synth-large"
    ~params:
      [ "generator", "Ra_programs.Synth.many";
        "generator_seed", string_of_int synth_seed;
        "size", string_of_int synth_size;
        "routines", string_of_int synth_routines;
        "heuristics", "briggs";
        "machine", "rt_pc (16 int + 8 float registers)" ]
    ~heuristics:[ H.Briggs ]
    ~programs:(fun () -> [ synth_program () ])
    ~warm_up:(fun sched ->
      (* one of the unit's large routines *)
      let procs = Suite.compile (synth_program ()) in
      ignore
        (Ra_core.Batch.allocate_matrix ~scheduler:sched machine [ H.Briggs ]
           (List.filter (fun (p : Proc.t) -> p.name = "synth0") procs)))

(* ---- synthetic interference graphs: synth-graph ---- *)

let graph_k = 16
let graph_nodes = 20_000
let graph_seed = 11

type graph_input = {
  gname : string;
  sg : Ra_core.Synth_graph.t;
  g : Ra_core.Igraph.t;
  costs : float array;
}

(* Every non-precolored node gets a seeded spill cost in [1, 1000];
   precolored nodes can never spill. *)
let make_graph ~gname ~gen ~avg_degree ~seed =
  let sg =
    gen ~seed ~n_nodes:graph_nodes ~n_precolored:graph_k ~avg_degree
  in
  let rng = Lcg.create ~seed:(seed + 1) in
  let costs =
    Array.init graph_nodes (fun i ->
      if i < graph_k then infinity else float (Lcg.int_in rng ~lo:1 ~hi:1000))
  in
  { gname; sg; g = Ra_core.Synth_graph.to_igraph sg; costs }

(* The coloring must be proper: every color below k, precolored nodes
   keep their own color, adjacent nodes differ (checked against the CSR
   adjacency, not the igraph the heuristic read); a spill names only
   distinct non-precolored nodes. Returns the cell's quality counts. *)
let validate gi outcome =
  let module S = Ra_core.Synth_graph in
  let n = S.n_nodes gi.sg and npre = S.n_precolored gi.sg in
  match outcome with
  | H.Colored colors ->
    if Array.length colors <> n then Error "color array has the wrong length"
    else begin
      let color u =
        match colors.(u) with None when u < npre -> Some u | c -> c
      in
      let bad = ref None in
      let fail msg = if !bad = None then bad := Some msg in
      for u = 0 to n - 1 do
        match color u with
        | None -> fail (Printf.sprintf "node %d left uncolored" u)
        | Some c when c < 0 || c >= graph_k ->
          fail (Printf.sprintf "node %d got color %d, k = %d" u c graph_k)
        | Some c when u < npre && c <> u ->
          fail (Printf.sprintf "precolored node %d recolored %d" u c)
        | Some c ->
          S.iter_neighbors gi.sg u ~f:(fun v ->
            if v > u && color v = Some c then
              fail (Printf.sprintf "adjacent nodes %d and %d share color %d" u v c))
      done;
      match !bad with Some msg -> Error msg | None -> Ok no_quality
    end
  | H.Spill nodes ->
    let seen = Hashtbl.create 64 in
    let bad =
      List.find_opt
        (fun u ->
          let dup = Hashtbl.mem seen u in
          Hashtbl.replace seen u ();
          dup || u < npre || u >= n)
        nodes
    in
    (match bad, nodes with
     | Some u, _ -> Error (Printf.sprintf "spill names node %d (precolored, out of range or repeated)" u)
     | None, [] -> Error "spill outcome names no node"
     | None, _ ->
       Ok
         { no_quality with
           spilled = List.length nodes;
           cost = List.fold_left (fun a u -> a +. gi.costs.(u)) 0. nodes })

let graph_heuristics = H.[ Chaitin; Briggs; Matula ]

let synth_graph =
  let kinds =
    [ "power-law", Ra_core.Synth_graph.power_law, 32;
      "geometric", Ra_core.Synth_graph.geometric, 24 ]
  in
  let setup ~rng ~width:_ =
    let graphs =
      List.map
        (fun (gname, gen, avg_degree) ->
          make_graph ~gname ~gen ~avg_degree ~seed:graph_seed)
        kinds
    in
    (* a pool like [Batch.default_pool ()], but started by this set-up
       and shut down by [close], so every set-up counts pool start-up *)
    let pool =
      if Pool.default_jobs () > 1 then Some (Pool.create ~jobs:(Pool.default_jobs ()))
      else None
    in
    let cells =
      List.concat_map (fun gi -> List.map (fun h -> gi, h) graph_heuristics) graphs
    in
    (* warm-up: the cheapest cell *)
    (let gi = List.nth graphs 1 in
     ignore (H.run ?pool H.Matula gi.g ~k:graph_k ~costs:gi.costs));
    let sweep ~traced t =
      let per_cell = Hashtbl.create 8 in
      List.iter
        (fun (gi, h) ->
          let tele = Option.map (fun _ -> Telemetry.create ()) traced in
          let timer = Option.map (fun _ -> Timer.create ()) traced in
          Option.iter
            (fun tele -> Option.iter (fun p -> Pool.set_telemetry p tele) pool)
            tele;
          let run () =
            match H.run ?timer ?tele ?pool h gi.g ~k:graph_k ~costs:gi.costs with
            | o -> Ok o
            | exception e -> Error (Printexc.to_string e)
          in
          let before = t.wall in
          let outcome =
            match traced with
            | None -> op t run
            | Some l -> gc_around l (fun () -> op t run)
          in
          let dt = t.wall -. before in
          t.attempted <- t.attempted + 1;
          let cell = Printf.sprintf "%s x %s" gi.gname (H.name h) in
          (match outcome with
           | Error msg ->
             t.failed_s <- t.failed_s +. dt;
             note_failure t ~cells:1 (cell ^ ": raised " ^ short msg)
           | Ok o ->
             (match validate gi o with
              | Ok q -> Hashtbl.replace per_cell cell q
              | Error msg -> note_failure t ~wrong:true ~cells:1 (cell ^ ": " ^ msg)));
          match traced, tele, timer with
          | Some l, Some tele, Some timer ->
            Option.iter (fun p -> Pool.set_telemetry p Telemetry.null) pool;
            add l "color.run_s" dt;
            add l "simplify.cpu_s" (Timer.elapsed timer ~phase:Phase.Simplify);
            add l "color.cpu_s" (Timer.elapsed timer ~phase:Phase.Color);
            let engaged_before = get l "par_color.engaged" in
            absorb_sink l tele;
            if get l "par_color.engaged" > engaged_before then
              add l "par_color.candidates" (float (graph_nodes - graph_k))
          | _ -> ())
        (shuffled rng cells);
      List.fold_left
        (fun acc (gi, h) ->
          match Hashtbl.find_opt per_cell (Printf.sprintf "%s x %s" gi.gname (H.name h)) with
          | Some q -> sum_quality acc q
          | None -> acc)
        no_quality cells
    in
    { sweep; fresh_checks = ignore; close = (fun () -> Option.iter Pool.shutdown pool) }
  in
  { name = "synth-graph";
    params =
      [ "generator", "Ra_core.Synth_graph";
        "generator_seed", string_of_int graph_seed;
        "nodes", string_of_int graph_nodes;
        "k", string_of_int graph_k;
        "graphs",
        String.concat ","
          (List.map (fun (n, _, d) -> Printf.sprintf "%s(avg_degree=%d)" n d) kinds);
        "heuristics", String.concat "," (List.map H.name graph_heuristics);
        "costs", "uniform integers in [1, 1000], precolored infinite" ];
    setup }

let all = [ paper_suite; synth_large; synth_graph ]
