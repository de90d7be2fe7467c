module Serve = Asf_serve.Serve
module Findings = Asf_analyze.Findings

(* ------------------------------------------------------------------ *)
(* Rendering                                                            *)
(* ------------------------------------------------------------------ *)

let op_name (op : Serve.op) =
  match op with
  | Read k -> Printf.sprintf "read(%d)" k
  | Update (k, v) -> Printf.sprintf "update(%d,%d)" k v
  | Insert (k, v) -> Printf.sprintf "insert(%d,%d)" k v
  | Scan (k, len) -> Printf.sprintf "scan(%d,%d)" k len
  | Rmw k -> Printf.sprintf "rmw(%d)" k
  | Order { src; dst; amount } -> Printf.sprintf "order(%d->%d,%d)" src dst amount
  | Settle idx -> Printf.sprintf "settle(%d)" idx
  | Audit -> "audit"

let obs_name (obs : Serve.obs) =
  let opt = function None -> "-" | Some v -> string_of_int v in
  match obs with
  | O_unit -> "()"
  | O_val v -> opt v
  | O_vals vs -> "[" ^ String.concat "," (List.map opt vs) ^ "]"
  | O_flag b -> if b then "t" else "f"
  | O_rmw v -> Printf.sprintf "old:%d" v

let render_event (e : Serve.event) =
  let outcome =
    match e.ev_outcome with
    | Ev_done { obs; commit } ->
        Printf.sprintf "-> %s @%d..%d commit=%d" (obs_name obs) e.ev_invoke
          e.ev_respond commit
    | Ev_timeout -> Printf.sprintf "-> timeout @%d..%d" e.ev_invoke e.ev_respond
    | Ev_shed -> Printf.sprintf "-> shed @%d" e.ev_invoke
  in
  Printf.sprintf "#%d %s %s" e.ev_id (op_name e.ev_op) outcome

(* ------------------------------------------------------------------ *)
(* Sequential specifications                                            *)
(* ------------------------------------------------------------------ *)

(* A model state is purely functional: [step] returns the specification's
   observation for the operation in that state plus the successor state,
   and [add_canon] appends an injective rendering of the state to a memo
   key. *)
type mstate =
  | Kv_m of (int * int) list  (** assoc sorted by key *)
  | Ledger_m of { bal : int array; head : int; slot_cap : int }

let add_canon b = function
  | Kv_m assoc ->
      List.iter
        (fun (k, v) ->
          Buffer.add_string b (string_of_int k);
          Buffer.add_char b '=';
          Buffer.add_string b (string_of_int v);
          Buffer.add_char b ';')
        assoc
  | Ledger_m { bal; head; _ } ->
      Buffer.add_string b (string_of_int head);
      Array.iter
        (fun v ->
          Buffer.add_char b ';';
          Buffer.add_string b (string_of_int v))
        bal

(* Sorted-assoc upsert (mirrors Thashmap.put: insert-or-replace). *)
let rec put k v = function
  | [] -> [ (k, v) ]
  | (k', _) :: tl when k' = k -> (k, v) :: tl
  | (k', _) as hd :: tl -> if k < k' then (k, v) :: hd :: tl else hd :: put k v tl

let step st (op : Serve.op) : Serve.obs * mstate =
  match (st, op) with
  | Kv_m assoc, Read k -> (O_val (List.assoc_opt k assoc), st)
  | Kv_m assoc, Update (k, v) -> (O_unit, Kv_m (put k v assoc))
  | Kv_m assoc, Insert (k, v) ->
      let fresh = not (List.mem_assoc k assoc) in
      (O_flag fresh, if fresh then Kv_m (put k v assoc) else st)
  | Kv_m assoc, Scan (k, len) ->
      (O_vals (List.init (max 0 len) (fun i -> List.assoc_opt (k + i) assoc)), st)
  | Kv_m assoc, Rmw k ->
      let old = Option.value (List.assoc_opt k assoc) ~default:0 in
      (O_rmw old, Kv_m (put k (old + 1) assoc))
  | Ledger_m l, Order { src; dst; amount } ->
      let appended = l.head < l.slot_cap in
      let bal = Array.copy l.bal in
      bal.(src) <- bal.(src) - amount;
      bal.(dst) <- bal.(dst) + amount;
      ( O_flag appended,
        Ledger_m { l with bal; head = (if appended then l.head + 1 else l.head) } )
  | Ledger_m l, Settle _ ->
      (* Settlement marks are never read back by any request, so the only
         observable part is whether an order existed to settle. *)
      (O_flag (l.head > 0), st)
  | Ledger_m l, Audit ->
      let total = Array.fold_left ( + ) 0 l.bal in
      (O_flag (total = Array.length l.bal * Serve.initial_balance), st)
  | Kv_m _, (Order _ | Settle _ | Audit)
  | Ledger_m _, (Read _ | Update _ | Insert _ | Scan _ | Rmw _) ->
      invalid_arg "Txlin: operation does not belong to this service"

(* ------------------------------------------------------------------ *)
(* Per-key independence (the locality pruning)                          *)
(* ------------------------------------------------------------------ *)

(* KV requests touch explicit key sets and nothing else, so the history
   is linearizable iff each connected component of the "touched together"
   relation is (linearizability is local). A scan spans [k, k+len),
   merging every group it crosses; the ledger's orders/audits all share
   the account array and the log head, so ledger histories are one
   group. *)

let key_span (op : Serve.op) =
  match op with
  | Read k | Update (k, _) | Insert (k, _) | Rmw k -> (k, k)
  | Scan (k, len) -> (k, k + max 1 len - 1)
  | Order _ | Settle _ | Audit -> (0, 0)

(* Union-find over the touched keys, Hashtbl-backed (keys are sparse). *)
let uf_find parent k =
  let rec go k =
    match Hashtbl.find_opt parent k with
    | None | Some (-1) -> k
    | Some p ->
        let r = go p in
        Hashtbl.replace parent k r;
        r
  in
  go k

let uf_union parent a b =
  let ra = uf_find parent a and rb = uf_find parent b in
  if ra <> rb then Hashtbl.replace parent ra rb

(* ------------------------------------------------------------------ *)
(* The linearization-point search (WGL over the AsyncSpec construction)  *)
(* ------------------------------------------------------------------ *)

(* The pending-request / pending-response multisets of the AsyncSpec
   construction appear here as the remaining set: a remaining event
   whose invoke has passed is a pending request, one whose
   linearization point has been chosen moves to the (implicit) response
   multiset and is removed when its response is consumed. Concretely the
   search picks, at every step, one remaining event [o] that is minimal
   in real time — no other remaining event responded strictly before
   [o]'s invocation — whose specification observation in the current
   model state matches what the client recorded, and recurses.

   Completed events are tried in commit-cycle order: the final attempt's
   commit lies inside the event's [invoke, respond] window, and on
   correct hardware replaying commits in order satisfies the spec, so
   the first candidate always works and a clean history visits one node
   per event. On lying hardware the search backtracks; memoization over
   (remaining-set, model-state) and the [budget] bound the blow-up.

   Each node does constant host work on that clean path, apart from one
   logarithmic tree update. The events sit in an array in commit order;
   the remaining set is a [removed] flag per event plus the index of the
   first remaining one (the frontier; [n] once none remain), both undone
   after each recursive call. The real-time bound [min_resp] is the root
   of a min segment tree over respond cycles whose removed leaves hold
   [max_int]: events leave out of order once the search backtracks, so a
   suffix minimum would not be exact. The memo only ever holds failed
   nodes, so its key — the exact remaining ids plus the canonical model
   state, never a hash that could collide and prune a live branch — is
   built only for a lookup once the memo is non-empty, or for the insert
   when a node fails. *)

type tri = Lin | Nonlin | Unknown

exception Out_of_budget

let ev_obs (e : Serve.event) =
  match e.ev_outcome with
  | Ev_done { obs; _ } -> obs
  | Ev_timeout | Ev_shed -> invalid_arg "Txlin: obligation has no observation"

let ev_commit (e : Serve.event) =
  match e.ev_outcome with Ev_done { commit; _ } -> commit | _ -> max_int

(* [events] must be sorted by commit cycle and carry distinct ids.
   [states] counts explored search nodes across calls (shared budget);
   [memo_hits] counts nodes pruned by the memo. *)
let search ~budget ~states ~memo_hits ~init events : tri =
  let evs = Array.of_list events in
  let n = Array.length evs in
  let obs = Array.map ev_obs evs in
  let removed = Array.make n false in
  let leaves =
    let rec pow2 p = if p >= n then p else pow2 (2 * p) in
    pow2 1
  in
  let tree = Array.make (2 * leaves) max_int in
  Array.iteri (fun i (e : Serve.event) -> tree.(leaves + i) <- e.ev_respond) evs;
  for j = leaves - 1 downto 1 do
    tree.(j) <- min tree.(2 * j) tree.((2 * j) + 1)
  done;
  let set_leaf i v =
    let j = ref (leaves + i) in
    tree.(!j) <- v;
    while !j > 1 do
      j := !j / 2;
      tree.(!j) <- min tree.(2 * !j) tree.((2 * !j) + 1)
    done
  in
  let rec next_live i = if i < n && removed.(i) then next_live (i + 1) else i in
  let memo : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  let key frontier st =
    let b = Buffer.create 64 in
    for i = frontier to n - 1 do
      if not removed.(i) then begin
        Buffer.add_string b (string_of_int evs.(i).ev_id);
        Buffer.add_char b ','
      end
    done;
    Buffer.add_char b '|';
    add_canon b st;
    Buffer.contents b
  in
  let rec dfs frontier st =
    incr states;
    if !states > budget then raise Out_of_budget;
    if frontier = n then true
    else
      let k = if Hashtbl.length memo = 0 then None else Some (key frontier st) in
      match k with
      | Some k when Hashtbl.mem memo k ->
          incr memo_hits;
          false
      | _ ->
          let min_resp = tree.(1) in
          let rec try_from i =
            i < n
            && (((not removed.(i))
                && evs.(i).ev_invoke <= min_resp
                && take frontier st i)
               || try_from (i + 1))
          in
          let ok = try_from frontier in
          if not ok then
            Hashtbl.add memo
              (match k with Some k -> k | None -> key frontier st)
              ();
          ok
  and take frontier st i =
    let o, st' = step st evs.(i).ev_op in
    o = obs.(i)
    && begin
         removed.(i) <- true;
         set_leaf i max_int;
         let ok = dfs (if i = frontier then next_live (i + 1) else frontier) st' in
         removed.(i) <- false;
         set_leaf i evs.(i).ev_respond;
         ok
       end
  in
  match dfs 0 init with
  | true -> Lin
  | false -> Nonlin
  | exception Out_of_budget -> Unknown

(* Greedy 1-minimal shrink: repeatedly drop any single event whose
   removal keeps the history conclusively non-linearizable. The result
   still fails the search, which is what the shrink property test pins. *)
let shrink ~budget ~init events =
  let still_bad evs =
    search ~budget ~states:(ref 0) ~memo_hits:(ref 0) ~init evs = Nonlin
  in
  let rec go evs =
    let n = List.length evs in
    let rec try_drop i =
      if i >= n then evs
      else
        let cand = List.filteri (fun j _ -> j <> i) evs in
        if still_bad cand then go cand else try_drop (i + 1)
    in
    try_drop 0
  in
  go events

(* ------------------------------------------------------------------ *)
(* Verdicts                                                             *)
(* ------------------------------------------------------------------ *)

type verdict = {
  v_service : string;
  v_obligations : int;
  v_absent : int;
  v_groups : int;
  v_states : int;
  v_memo_hits : int;
  v_ok : bool;
  v_inconclusive : bool;
  v_witness : Serve.event list;
  v_detail : string;
}

let default_budget = 500_000

let check ?(budget = default_budget) ~service ~records ~accounts
    (events : Serve.event array) : verdict =
  let completed, absent =
    Array.fold_right
      (fun (e : Serve.event) (c, a) ->
        match e.ev_outcome with
        | Ev_done _ -> (e :: c, a)
        | Ev_timeout | Ev_shed -> (c, a + 1))
      events ([], 0)
  in
  (* The run sizes the order log over *all scheduled* orders — shed and
     timed-out ones included — so the spec's log capacity must count
     every order obligation, not just the completed ones. *)
  let slot_cap =
    Array.fold_left
      (fun acc (e : Serve.event) ->
        match e.ev_op with Order _ -> acc + 1 | _ -> acc)
      0 events
  in
  let by_commit evs =
    List.sort
      (fun (a : Serve.event) b ->
        compare (ev_commit a, a.ev_id) (ev_commit b, b.ev_id))
      evs
  in
  (* Partition the completed events into independent groups, each with
     its own initial model state. *)
  let groups =
    match service with
    | Serve.Ledger ->
        [ ( by_commit completed,
            Ledger_m { bal = Array.make accounts Serve.initial_balance; head = 0; slot_cap } ) ]
    | Serve.Kv _ ->
        let parent = Hashtbl.create 64 in
        List.iter
          (fun (e : Serve.event) ->
            let lo, hi = key_span e.ev_op in
            for k = lo + 1 to hi do
              uf_union parent lo k
            done)
          completed;
        let tbl = Hashtbl.create 64 in
        List.iter
          (fun (e : Serve.event) ->
            let lo, _ = key_span e.ev_op in
            let root = uf_find parent lo in
            Hashtbl.replace tbl root
              (e :: (Option.value (Hashtbl.find_opt tbl root) ~default:[])))
          completed;
        Hashtbl.fold
          (fun root evs acc ->
            let keys =
              List.sort_uniq compare
                (List.concat_map
                   (fun (e : Serve.event) ->
                     let lo, hi = key_span e.ev_op in
                     List.init (hi - lo + 1) (fun i -> lo + i))
                   evs)
            in
            let init =
              Kv_m (List.filter_map (fun k -> if k < records then Some (k, k + 1) else None) keys)
            in
            (root, by_commit evs, init) :: acc)
          tbl []
        |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
        |> List.map (fun (_, evs, init) -> (evs, init))
  in
  let states = ref 0 and memo_hits = ref 0 in
  let bad = ref [] (* (events, init) of violating groups *)
  and unknown = ref 0 in
  List.iter
    (fun (evs, init) ->
      if !bad = [] then
        match search ~budget ~states ~memo_hits ~init evs with
        | Lin -> ()
        | Nonlin -> bad := [ (evs, init) ]
        | Unknown -> incr unknown)
    groups;
  let witness =
    match !bad with
    | [] -> []
    | (evs, init) :: _ -> shrink ~budget ~init evs
  in
  let ok = !bad = [] && !unknown = 0 in
  let detail =
    if !bad <> [] then
      Printf.sprintf
        "non-linearizable: no order over %d committed request(s) explains the \
         observations; minimal violating history (%d event(s)): %s"
        (List.length (fst (List.hd !bad)))
        (List.length witness)
        (String.concat " | " (List.map render_event witness))
    else if !unknown > 0 then
      Printf.sprintf
        "inconclusive: %d group(s) exceeded the %d-state search budget"
        !unknown budget
    else
      Printf.sprintf
        "linearizable: %d committed + %d absent obligation(s), %d group(s), %d state(s)"
        (List.length completed) absent (List.length groups) !states
  in
  {
    v_service = Serve.service_name service;
    v_obligations = List.length completed;
    v_absent = absent;
    v_groups = List.length groups;
    v_states = !states;
    v_memo_hits = !memo_hits;
    v_ok = ok;
    v_inconclusive = !unknown > 0;
    v_witness = witness;
    v_detail = detail;
  }

let check_result ?budget (cfg : Serve.cfg) (r : Serve.result) =
  check ?budget ~service:cfg.service ~records:cfg.records ~accounts:cfg.accounts
    r.r_events

(* ------------------------------------------------------------------ *)
(* Findings                                                             *)
(* ------------------------------------------------------------------ *)

let findings ~workload v =
  if v.v_ok then []
  else if v.v_inconclusive then
    [
      Findings.make ~source:Findings.Runtime ~severity:"advisory"
        ~kind:"lin-inconclusive" ~workload ~count:v.v_groups ~detail:v.v_detail ();
    ]
  else
    [
      Findings.make ~source:Findings.Runtime ~severity:"violation"
        ~kind:"non-linearizable" ~workload
        ~count:(List.length v.v_witness)
        ~detail:v.v_detail ();
    ]

let partition_finding ~workload (r : Serve.result) =
  if r.r_partition_ok then None
  else
    Some
      (Findings.make ~source:Findings.Runtime ~severity:"violation"
         ~kind:"partition" ~workload
         ~count:(abs (r.r_arrivals - (r.r_completed + r.r_shed + r.r_timeout)))
         ~detail:
           (Printf.sprintf
              "outcome partition violated: completed %d + shed %d + timeout %d \
               <> arrivals %d"
              r.r_completed r.r_shed r.r_timeout r.r_arrivals)
         ())
