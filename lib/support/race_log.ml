(* The global access/synchronization event log behind RA_RACE_CHECK.

   Disabled (the default) the whole machinery is one ref load per hook
   site: every call site guards itself with [if !Race_log.on then ...]
   *before* allocating its key, so nothing is boxed, appended, or even
   branched past that single load. Enabled, hooks append to one
   mutex-protected event list that the analyzer (Ra_check.Race) replays
   after the run.

   Logical threads. Happens-before is between *task executions*, not
   domains: a worker domain runs many tasks, and the submitter helps
   drain its own batch, so the unit that owns an access is the task (or
   the per-domain root context outside any task). Each domain keeps a
   stack of thread frames in domain-local storage; [task_start] pushes a
   fresh frame, [task_end] pops it, and the bottom frame is the domain's
   root thread, created lazily.

   Deduplication. A thread's vector clock only advances at sync points
   (its own batch submits and joins), so between two sync points every
   access a thread makes to one key is equivalent for the analysis. Each
   frame carries a per-segment table mapping key -> strongest access
   kind logged (write subsumes read); the table resets at the frame's
   sync points and on a new logging epoch, bounding the event list by
   distinct (segment, key) pairs instead of raw access counts.

   Event ordering. The list order is a linearization consistent with
   both program order and sync order: a batch's submit event is appended
   before the batch is enqueued, each task's start precedes its accesses,
   its end is appended before the pool observes the task finished, and
   the join is appended only after every task's end. The analyzer may
   therefore fold the list left to right. *)

type task_info = {
  t_name : string;
  t_footprint : Footprint.t option; (* None: unchecked (no declaration) *)
}

type event =
  | Batch_submit of { batch : int; submitter : int; tasks : task_info array }
  | Task_start of { batch : int; index : int; thread : int }
  | Task_end of { batch : int; index : int; thread : int }
  | Batch_join of { batch : int; submitter : int }
  | Created of { thread : int; uid : int }
  | Access of { thread : int; key : Footprint.key; write : bool }

(* Read directly (unsynchronized) by every hook; written only while the
   process is quiescent (drivers and tests enable/disable around a
   parallel region). A stale read can only lose an event at the very
   edge of a scope, never corrupt state. *)
let on = ref false

let mutex = Mutex.create ()
let rev_events : event list ref = ref []
let next_batch = ref 0
let next_thread = Atomic.make 0

(* Bumped by [clear]/[enable] so frames from an earlier scope drop their
   dedup tables (we cannot reach other domains' DLS from here). *)
let epoch = Atomic.make 0

type frame = {
  f_thread : int;
  mutable f_epoch : int;
  dedup : (Footprint.key, bool) Hashtbl.t; (* key -> wrote? *)
}

let fresh_frame () =
  { f_thread = Atomic.fetch_and_add next_thread 1;
    f_epoch = Atomic.get epoch;
    dedup = Hashtbl.create 64 }

let stack_key : frame list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let current () =
  let stack = Domain.DLS.get stack_key in
  match !stack with
  | f :: _ -> f
  | [] ->
    let f = fresh_frame () in
    stack := [ f ];
    f

let refresh f =
  let e = Atomic.get epoch in
  if f.f_epoch <> e then begin
    Hashtbl.reset f.dedup;
    f.f_epoch <- e
  end

let append ev =
  Mutex.lock mutex;
  rev_events := ev :: !rev_events;
  Mutex.unlock mutex

let enable () =
  Mutex.lock mutex;
  rev_events := [];
  Atomic.incr epoch;
  on := true;
  Mutex.unlock mutex

let disable () = on := false

let clear () =
  Mutex.lock mutex;
  rev_events := [];
  Atomic.incr epoch;
  Mutex.unlock mutex

let events () =
  Mutex.lock mutex;
  let l = List.rev !rev_events in
  Mutex.unlock mutex;
  l

(* ---- access hooks (call sites guard on [!on] themselves) ---- *)

let read key =
  let f = current () in
  refresh f;
  match Hashtbl.find_opt f.dedup key with
  | Some _ -> () (* a logged read or write already covers a read *)
  | None ->
    Hashtbl.add f.dedup key false;
    append (Access { thread = f.f_thread; key; write = false })

let write key =
  let f = current () in
  refresh f;
  match Hashtbl.find_opt f.dedup key with
  | Some true -> ()
  | Some false | None ->
    Hashtbl.replace f.dedup key true;
    append (Access { thread = f.f_thread; key; write = true })

let created uid =
  let f = current () in
  append (Created { thread = f.f_thread; uid })

(* ---- synchronization events (called by Pool) ---- *)

(* The caller's clock ticks at its own submits and joins, so the
   per-segment dedup no longer covers the next segment's accesses. *)
let sync_point f =
  refresh f;
  Hashtbl.reset f.dedup

let batch_submit ~tasks =
  let f = current () in
  sync_point f;
  Mutex.lock mutex;
  let id = !next_batch in
  next_batch := id + 1;
  rev_events :=
    Batch_submit { batch = id; submitter = f.f_thread; tasks } :: !rev_events;
  Mutex.unlock mutex;
  id

let task_start ~batch ~index =
  let stack = Domain.DLS.get stack_key in
  (match !stack with
   | [] -> stack := [ fresh_frame () ] (* materialize the root below us *)
   | _ :: _ -> ());
  let f = fresh_frame () in
  stack := f :: !stack;
  append (Task_start { batch; index; thread = f.f_thread })

let task_end ~batch ~index =
  let stack = Domain.DLS.get stack_key in
  match !stack with
  | f :: rest ->
    stack := rest;
    append (Task_end { batch; index; thread = f.f_thread })
  | [] -> invalid_arg "Race_log.task_end: no active task frame"

let batch_join ~batch =
  let f = current () in
  sync_point f;
  append (Batch_join { batch; submitter = f.f_thread })
