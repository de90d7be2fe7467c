(* Host-time spans around the benchmark's calls into the simulator's
   public functions, for the traced run only.

   A span records its name, start, end and parent, plus the deltas of
   counters read at the same boundaries: simulated cycles retired on the
   calling domain, and the GC's words and collections. Spans are kept in memory
   and written out when the run ends. GC phases come from the runtime's
   own event ring ([Runtime_events]), polled at every span boundary.

   Spans are only ever opened on the host side, around whole calls such as
   [Stamp.run_scaled] or [Txlin.check_result]. A span inside a simulated
   thread would be wrong: [Engine.elapse] suspends the caller mid-call, so
   the span would also cover other simulated threads' work. The layer
   microbenchmarks ({!Micro}) cover the layers below those calls. *)

module Engine = Asf_engine.Engine

type t = {
  id : int;
  name : string;
  parent : int;  (** [-1] for a root span *)
  t0 : float;
  t1 : float;
  cycles : int;  (** simulated cycles retired on this domain meanwhile *)
  minor_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
}

let now = Unix.gettimeofday

let enabled = ref false

let finished : t list ref = ref []

let stack : int list ref = ref []

let next_id = ref 0

(* Runtime_events bookkeeping: per-ring nesting depth and the timestamp
   of the outermost open phase, so nested phases are not counted twice.
   Phases inside an explicit collection are left out: the only explicit
   collections are the benchmark's own, between cells. *)
let cursor = ref None

let max_rings = 128

let depth = Array.make max_rings 0

let opened = Array.make max_rings 0L

let explicit = Array.make max_rings false

let is_explicit = function
  | Runtime_events.EV_EXPLICIT_GC_SET | EV_EXPLICIT_GC_STAT | EV_EXPLICIT_GC_MINOR
  | EV_EXPLICIT_GC_MAJOR | EV_EXPLICIT_GC_FULL_MAJOR | EV_EXPLICIT_GC_COMPACT
  | EV_EXPLICIT_GC_MAJOR_SLICE ->
      true
  | _ -> false

let gc_pause_ns = ref 0L

let lost_events = ref 0

let callbacks =
  Runtime_events.Callbacks.create
    ~runtime_begin:(fun ring ts phase ->
      if ring < max_rings then begin
        if depth.(ring) = 0 then begin
          opened.(ring) <- Runtime_events.Timestamp.to_int64 ts;
          explicit.(ring) <- is_explicit phase
        end;
        depth.(ring) <- depth.(ring) + 1
      end)
    ~runtime_end:(fun ring ts _phase ->
      if ring < max_rings && depth.(ring) > 0 then begin
        depth.(ring) <- depth.(ring) - 1;
        if depth.(ring) = 0 && not explicit.(ring) then
          gc_pause_ns :=
            Int64.add !gc_pause_ns
              (Int64.sub (Runtime_events.Timestamp.to_int64 ts) opened.(ring))
      end)
    ~lost_events:(fun _ring n -> lost_events := !lost_events + n)
    ()

let poll () =
  match !cursor with
  | Some c -> ignore (Runtime_events.read_poll c callbacks None)
  | None -> ()

(* Turn tracing on. The runtime writes its event ring to a file in
   [OCAML_RUNTIME_EVENTS_DIR] (the working directory by default) and
   removes it at exit. *)
let start () =
  if !cursor = None then begin
    Runtime_events.start ();
    cursor := Some (Runtime_events.create_cursor None)
  end;
  enabled := true

let stop () =
  poll ();
  enabled := false

let gc_pause_s () = Int64.to_float !gc_pause_ns /. 1e9

let with_ name f =
  if not !enabled then f ()
  else begin
    poll ();
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := id :: !stack;
    let c0 = Engine.cycles_retired () in
    let g0 = Gc.quick_stat () in
    let t0 = now () in
    let close () =
      let t1 = now () in
      let g1 = Gc.quick_stat () in
      stack := List.tl !stack;
      finished :=
        {
          id;
          name;
          parent;
          t0;
          t1;
          cycles = Engine.cycles_retired () - c0;
          minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
          major_words = g1.Gc.major_words -. g0.Gc.major_words;
          minor_collections = g1.Gc.minor_collections - g0.Gc.minor_collections;
          major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
        }
        :: !finished;
      poll ()
    in
    match f () with
    | v ->
        close ();
        v
    | exception e ->
        close ();
        raise e
  end

let all () = List.rev !finished

(* Total and self host time per span name. A span's self time is its
   duration minus the time its direct children cover. *)
let totals spans =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          ((s.t1 -. s.t0)
          +. Option.value ~default:0. (Hashtbl.find_opt child s.parent)))
    spans;
  let by_name = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let dur = s.t1 -. s.t0 in
      let self = dur -. Option.value ~default:0. (Hashtbl.find_opt child s.id) in
      let tot, slf =
        Option.value ~default:(0., 0.) (Hashtbl.find_opt by_name s.name)
      in
      Hashtbl.replace by_name s.name (tot +. dur, slf +. self))
    spans;
  by_name

let write_csv path spans =
  let oc = open_out path in
  output_string oc
    "id,parent,name,start_s,end_s,sim_cycles,minor_words,major_words,\
     minor_collections,major_collections\n";
  let base = List.fold_left (fun a s -> Float.min a s.t0) infinity spans in
  List.iter
    (fun s ->
      Printf.fprintf oc "%d,%d,%s,%.6f,%.6f,%d,%.0f,%.0f,%d,%d\n" s.id s.parent
        s.name (s.t0 -. base) (s.t1 -. base) s.cycles s.minor_words s.major_words
        s.minor_collections s.major_collections)
    spans;
  close_out oc
