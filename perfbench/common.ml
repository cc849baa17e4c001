(* Shared pieces of the benchmark: the per-run tally of ops and cells,
   order statistics, per-layer accumulators, the span analysis that turns
   a telemetry sink into layer times, and a minimal JSON writer. *)

open Ra_support

let now = Unix.gettimeofday

(* ---- ops and cells ---- *)

(* One timed phase of a run. An op is one closed-loop submission (one
   allocation call, or one coloring call); a cell is one (input,
   heuristic) pair inside an op and is the unit of failure accounting. *)
type tally = {
  mutable lat : float list; (* per-op wall seconds *)
  mutable wall : float; (* timed sweep wall seconds *)
  mutable sweep_rates : float list; (* ops per second of each whole sweep *)
  mutable ops : int;
  mutable sweeps : int;
  mutable attempted : int; (* cells *)
  mutable failed : int; (* cells that raised or produced wrong output *)
  mutable failed_s : float; (* wall seconds spent in cells that raised *)
  mutable wrong : int; (* failures that are wrong output, not exceptions *)
  failures : (string, int) Hashtbl.t; (* failure description -> count *)
}

let new_tally () =
  { lat = []; wall = 0.; sweep_rates = []; ops = 0; sweeps = 0; attempted = 0; failed = 0;
    failed_s = 0.; wrong = 0; failures = Hashtbl.create 8 }

let note_failure t ?(wrong = false) ~cells msg =
  t.failed <- t.failed + cells;
  if wrong then t.wrong <- t.wrong + cells;
  Hashtbl.replace t.failures msg
    (cells + Option.value ~default:0 (Hashtbl.find_opt t.failures msg))

(* [timed t f] runs [f] inside the timed window of [t]. *)
let timed t f =
  let t0 = now () in
  let r = f () in
  t.wall <- t.wall +. (now () -. t0);
  r

(* [op t f] runs one op inside the timed window and records its latency. *)
let op t f =
  let t0 = now () in
  let r = f () in
  let dt = now () -. t0 in
  t.wall <- t.wall +. dt;
  t.lat <- dt :: t.lat;
  t.ops <- t.ops + 1;
  r

(* ---- order statistics ---- *)

let sorted_array l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile of a sorted array: the smallest sample with at
   least [q] of the samples at or below it. *)
let percentile a q =
  let n = Array.length a in
  if n = 0 then 0.
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float n)) - 1)))

(* Samples strictly beyond the nearest-rank [q] percentile. *)
let beyond n q = n - int_of_float (Float.ceil (q *. float n))

let median l = percentile (sorted_array l) 0.5

(* ---- host speed ---- *)

(* A single cycle through 2^20 slots (8 MiB), larger than the caches.
   It lives outside the OCaml heap, so the GC neither scans nor counts
   it. *)
let chase_table =
  lazy
    (let n = 1 lsl 20 in
     let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n in
     for i = 0 to n - 1 do
       a.{i} <- i
     done;
     (* Sattolo's shuffle: one cycle through every slot *)
     let state = ref 54321 in
     for i = n - 1 downto 1 do
       state := (!state * 1103515245 + 12345) land 0x3fffffff;
       let j = !state mod i in
       let x = a.{i} in
       a.{i} <- a.{j};
       a.{j} <- x
     done;
     a)

(* A fixed kernel of the allocator's kind of work: cons-list adjacency,
   a hash table of pairs, a greedy coloring over int arrays, minor-heap
   allocation, and a pointer chase through [chase_table], since the
   allocator's heap walks slow down under memory contention more than its
   arithmetic does. It calls no repository code. *)
let kernel () =
  let n = 4000 and degree = 8 in
  let state = ref 12345 in
  let next bound =
    state := (!state * 1103515245 + 12345) land 0x3fffffff;
    !state mod bound
  in
  let adj = Array.make n [] in
  for u = 0 to n - 1 do
    for _ = 1 to degree do
      let v = next n in
      if v <> u then begin
        adj.(u) <- v :: adj.(u);
        adj.(v) <- u :: adj.(v)
      end
    done
  done;
  let pairs = Hashtbl.create (n * degree) in
  Array.iteri
    (fun u l -> List.iter (fun v -> Hashtbl.replace pairs (min u v, max u v) ()) l)
    adj;
  let color = Array.make n (-1) and used = Array.make n (-1) in
  for u = 0 to n - 1 do
    List.iter (fun v -> if color.(v) >= 0 then used.(color.(v)) <- u) adj.(u);
    let c = ref 0 in
    while used.(!c) = u do incr c done;
    color.(u) <- !c
  done;
  let table = Lazy.force chase_table in
  let i = ref 0 in
  for _ = 1 to 150_000 do
    i := table.{!i}
  done;
  Hashtbl.length pairs + Array.fold_left max 0 color + !i

(* The kernel's seconds, the median of five timed runs. This is what
   [main.exe --kernel] prints. *)
let kernel_seconds () =
  ignore (Lazy.force chase_table);
  let run () =
    let t0 = now () in
    ignore (Sys.opaque_identity (kernel ()));
    now () -. t0
  in
  median (List.init 5 (fun _ -> run ()))

(* The kernel's time at the reference speed. Every end-to-end timing is
   scaled by the host speed, so runs made while the host is slowed by its
   neighbors compare with runs made while it is not. *)
let reference_kernel_s = 0.045

(* The host speed is (reference / kernel time) ^ [sensitivity]: the
   allocator's timings follow the kernel's less than one to one. Over
   twenty runs per workload on a 2-core VM whose kernel speed ranged
   1.0-2.65x, the log-log slope of each workload's raw timings on the
   kernel speed was 0.66-0.91 for the op timings and 0.78-1.13 for
   setup_s, with correlations of 0.72-0.99; at 1 the scaling
   over-corrected by up to 18% between two sets of runs. *)
let sensitivity = 0.8

(* One speed sample. The kernel runs in a child process of this
   executable, which shares neither the allocator's heap nor its
   domains, so nothing the allocator leaves behind (garbage, retained
   heap, live pool domains) can move the sample; only the host can. *)
let host_speed () =
  let r, w = Unix.pipe ~cloexec:true () in
  let exe = Sys.executable_name in
  let pid = Unix.create_process exe [| exe; "--kernel" |] Unix.stdin w Unix.stderr in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let line = try input_line ic with End_of_file -> "" in
  close_in ic;
  match snd (Unix.waitpid [] pid), float_of_string_opt (String.trim line) with
  | Unix.WEXITED 0, Some s when s > 0. -> (reference_kernel_s /. s) ** sensitivity
  | _ -> failwith "the speed-kernel process failed"

(* ---- code-quality counts ---- *)

(* Summed over the cells of one sweep, in a canonical cell order so the
   float sum does not depend on the seed's submission order. *)
type quality = {
  spilled : int;
  cost : float; (* finite spill costs only *)
  inf_cells : int; (* cells whose spills include a never-spill web *)
  cycles : int;
  bytes : int;
}

let no_quality = { spilled = 0; cost = 0.; inf_cells = 0; cycles = 0; bytes = 0 }

let sum_quality a b =
  { spilled = a.spilled + b.spilled;
    cost = a.cost +. b.cost;
    inf_cells = a.inf_cells + b.inf_cells;
    cycles = a.cycles + b.cycles;
    bytes = a.bytes + b.bytes }

(* A cell's spill cost: infinite when it spilled a never-spill web (the
   cost-blind heuristics do), which is counted apart so the sum stays a
   number. *)
let cell_cost c =
  if Float.is_finite c then { no_quality with cost = c }
  else { no_quality with inf_cells = 1 }

let quality_equal a b =
  a.spilled = b.spilled && a.inf_cells = b.inf_cells && a.cycles = b.cycles
  && a.bytes = b.bytes
  && Int64.equal (Int64.bits_of_float a.cost) (Int64.bits_of_float b.cost)

let string_of_quality q =
  Printf.sprintf "spilled=%d cost=%.17g inf_cost_cells=%d cycles=%d bytes=%d"
    q.spilled q.cost q.inf_cells q.cycles q.bytes

(* ---- per-layer accumulators ---- *)

(* Named running sums; the traced phase divides them by its sweep count. *)
type layers = (string, float) Hashtbl.t

let new_layers () : layers = Hashtbl.create 64

let add (l : layers) name v =
  Hashtbl.replace l name (v +. Option.value ~default:0. (Hashtbl.find_opt l name))

let get (l : layers) name = Option.value ~default:0. (Hashtbl.find_opt l name)

let ratio a b = if b > 0. then a /. b else 0.

(* [gc_around l f] runs [f] and adds the minor/major words it allocated
   (as [Gc.quick_stat] reports them) to [l]. *)
let gc_around l f =
  let s0 = Gc.quick_stat () in
  let r = f () in
  let s1 = Gc.quick_stat () in
  add l "gc.minor_words" (s1.Gc.minor_words -. s0.Gc.minor_words);
  add l "gc.major_words" (s1.Gc.major_words -. s0.Gc.major_words);
  r

(* Total length of the union of [(start, stop)] intervals. *)
let union_length intervals =
  let sorted = List.sort (fun (a, _) (b, _) -> Float.compare a b) intervals in
  let total, last =
    List.fold_left
      (fun (total, cur) (s, e) ->
        match cur with
        | None -> total, Some (s, e)
        | Some (cs, ce) when s <= ce -> total, Some (cs, Float.max ce e)
        | Some (cs, ce) -> total +. (ce -. cs), Some (s, e))
      (0., None) sorted
  in
  match last with None -> total | Some (s, e) -> total +. (e -. s)

(* Fold one op's telemetry sink into [l]: every counter total under its
   own name, and the Build span analysis. Span times are wall seconds
   summed over spans. A Build span's children are the spans of the same
   domain one level deeper inside its interval (spans carry no parent
   id, so a scan chunk another domain runs for it is not counted as its
   child); its self time is its duration minus the union of those
   children. *)
let absorb_sink l tele =
  List.iter
    (fun (name, v) -> add l name (float v))
    (Telemetry.counter_totals tele);
  let spans =
    List.filter
      (fun (e : Telemetry.event) -> e.kind = Telemetry.Span)
      (Telemetry.events tele)
  in
  let build = Phase.name Phase.Build
  and scan = Phase.name Phase.Scan
  and liveness = Phase.name Phase.Liveness
  and coalesce = Phase.name Phase.Coalesce in
  let stop (e : Telemetry.event) = e.start_us +. e.dur_us in
  List.iter
    (fun (e : Telemetry.event) ->
      if e.name = scan then add l "span.scan_us" e.dur_us;
      if e.name = build then begin
        add l "span.build_us" e.dur_us;
        let inside (c : Telemetry.event) =
          c.domain = e.domain && c.depth > e.depth && c.start_us >= e.start_us
          && stop c <= stop e
        in
        let children = ref [] in
        List.iter
          (fun (c : Telemetry.event) ->
            if inside c then begin
              if c.depth = e.depth + 1 then
                children := (c.start_us, stop c) :: !children;
              if c.name = liveness then add l "span.build_liveness_us" c.dur_us;
              if c.name = coalesce then add l "span.build_coalesce_us" c.dur_us
            end)
          spans;
        add l "span.build_self_us" (e.dur_us -. union_length !children)
      end)
    spans

(* Wall seconds summed over the sink's spans of the given phases. *)
let span_seconds tele phases =
  let names = List.map Phase.name phases in
  List.fold_left
    (fun acc (e : Telemetry.event) ->
      if e.kind = Telemetry.Span && List.mem e.name names then acc +. e.dur_us
      else acc)
    0. (Telemetry.events tele)
  /. 1e6

(* ---- process facts ---- *)

let top_heap_mb () =
  float ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.

(* Peak resident set in MiB: [VmHWM] where the kernel reports it, else
   the OCaml heap's high-water mark. *)
let peak_rss_mb () =
  let from_proc =
    try
      let ic = open_in "/proc/self/status" in
      let rec scan () =
        match input_line ic with
        | line ->
          (match Scanf.sscanf_opt line "VmHWM: %d kB" (fun kb -> kb) with
           | Some kb -> Some kb
           | None -> scan ())
        | exception End_of_file -> None
      in
      let r = scan () in
      close_in ic;
      r
    with Sys_error _ -> None
  in
  match from_proc with Some kb -> float kb /. 1024. | None -> top_heap_mb ()


(* ---- JSON ---- *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Every digit the float carries; JSON has no NaN or infinity. *)
let json_float f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else if Float.is_finite f then Printf.sprintf "%.17g" f
  else "null"

let json_object fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields)
  ^ "}"
