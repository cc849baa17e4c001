open Ra_support

type spill_policy =
  | Spill_during_simplify
  | Defer_to_select

type simplify_result = {
  order : int list;
  marked : int list;
}

let simplify (g : Igraph.t) ~k ~costs ~policy : simplify_result =
  let n = Igraph.n_nodes g in
  if Array.length costs <> n then invalid_arg "Coloring.simplify: costs arity";
  let removed = Array.make n false in
  let deg = Array.init n (fun i -> Igraph.degree g i) in
  (* Worklist of low-degree (< k) nodes: seeded in descending id order so
     pops ascend; both heuristics share this exact order. *)
  let low = ref [] in
  let in_low = Array.make n false in
  let remaining = ref 0 in
  for i = n - 1 downto Igraph.n_precolored g do
    incr remaining;
    if deg.(i) < k then begin
      low := i :: !low;
      in_low.(i) <- true
    end
  done;
  let rev_order = ref [] in
  let rev_marked = ref [] in
  let remove node =
    removed.(node) <- true;
    decr remaining;
    Igraph.iter_neighbors g node ~f:(fun nb ->
      if not (removed.(nb)) && not (Igraph.is_precolored g nb) then begin
        deg.(nb) <- deg.(nb) - 1;
        if deg.(nb) < k && not in_low.(nb) then begin
          low := nb :: !low;
          in_low.(nb) <- true
        end
      end)
  in
  let pick_spill_candidate () =
    (* minimum cost/degree ratio; ties by lowest id; infinite-cost nodes
       only when nothing else remains *)
    let best = ref (-1) in
    let best_ratio = ref infinity in
    let best_infinite = ref (-1) in
    for i = Igraph.n_precolored g to n - 1 do
      if not removed.(i) then
        if costs.(i) = infinity then begin
          if !best_infinite < 0 then best_infinite := i
        end
        else begin
          let ratio = costs.(i) /. float_of_int (max deg.(i) 1) in
          if ratio < !best_ratio then begin
            best_ratio := ratio;
            best := i
          end
        end
    done;
    if !best >= 0 then !best
    else begin
      match policy with
      | Spill_during_simplify ->
        failwith "Coloring.simplify: unspillable nodes form an uncolorable core"
      | Defer_to_select -> !best_infinite
    end
  in
  let rec loop () =
    match !low with
    | node :: rest ->
      low := rest;
      in_low.(node) <- false;
      if not removed.(node) then begin
        rev_order := node :: !rev_order;
        remove node
      end;
      loop ()
    | [] ->
      if !remaining > 0 then begin
        let node = pick_spill_candidate () in
        (match policy with
         | Spill_during_simplify -> rev_marked := node :: !rev_marked
         | Defer_to_select -> rev_order := node :: !rev_order);
        remove node;
        loop ()
      end
  in
  loop ();
  { order = List.rev !rev_order; marked = List.rev !rev_marked }

type select_result = {
  colors : int option array;
  uncolored : int list;
}

let select (g : Igraph.t) ~k ~order : select_result =
  let n = Igraph.n_nodes g in
  (* [-1] = no color (never reinserted, or blocked) *)
  let colors = Array.make n (-1) in
  for p = 0 to Igraph.n_precolored g - 1 do
    colors.(p) <- p
  done;
  let uncolored = ref [] in
  (* [in_use.(c) = stamp] marks color [c] taken around the current node;
     a fresh stamp per node stands in for a second, resetting sweep *)
  let in_use = Array.make (max k 1) 0 in
  let stamp = ref 0 in
  let color_node node =
    incr stamp;
    let s = !stamp in
    Igraph.iter_neighbors g node ~f:(fun nb ->
      let c = colors.(nb) in
      if c >= 0 && c < k then in_use.(c) <- s);
    let c = ref 0 in
    while !c < k && in_use.(!c) = s do
      incr c
    done;
    if !c < k then colors.(node) <- !c else uncolored := node :: !uncolored
  in
  (* reinsert in reverse removal order *)
  List.iter color_node (List.rev order);
  { colors = Array.map (fun c -> if c >= 0 then Some c else None) colors;
    uncolored = List.rev !uncolored }

let smallest_last_order ?buckets (g : Igraph.t) : int list =
  let n = Igraph.n_nodes g in
  let max_degree = max 1 (n - 1) in
  let buckets =
    match buckets with
    | Some b ->
      Degree_buckets.reset b ~max_degree;
      b
    | None -> Degree_buckets.create ~max_degree
  in
  let removed = Array.make n false in
  for i = Igraph.n_precolored g to n - 1 do
    Degree_buckets.add buckets i (Igraph.degree g i)
  done;
  let rev_order = ref [] in
  let rec drain hint =
    match Degree_buckets.pop_min buckets ~hint with
    | None -> ()
    | Some (node, d) ->
      removed.(node) <- true;
      rev_order := node :: !rev_order;
      Igraph.iter_neighbors g node ~f:(fun nb ->
        if (not removed.(nb)) && Degree_buckets.mem buckets nb then
          Degree_buckets.decrease buckets nb);
      (* the paper's observation: restart the search at N[d-1] *)
      drain (d - 1)
  in
  drain 0;
  List.rev !rev_order
