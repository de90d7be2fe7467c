(* Running a workload's cells and checking every result.

   A cell passes when its own self-check passes and its digest equals the
   reference: the stored one for the seed on its first pass, and its own
   first-pass digest on every later pass. A digest miss fails every
   operation of the cell. *)

module W = Workload
module Parallel = Asf_parallel.Parallel

(* [<dir>/<workload>.txt] holds lines "<seed> <cell> <digest>". *)
let load_refs ~dir ~workload ~seed =
  let path = Filename.concat dir (workload ^ ".txt") in
  let tbl = Hashtbl.create 64 in
  if Sys.file_exists path then begin
    let ic = open_in path in
    (try
       while true do
         match String.split_on_char ' ' (String.trim (input_line ic)) with
         | [ s; cell; d ] when int_of_string_opt s = Some seed ->
             Hashtbl.replace tbl cell d
         | _ -> ()
       done
     with End_of_file -> ());
    close_in ic
  end;
  tbl

(* Host-speed calibration. The host's memory system is shared with other
   tenants, and the speed of allocation-heavy code swings by a fifth
   within seconds while pure arithmetic stays within 4%. So a fixed kernel
   of the benchmark's own is timed just before every cell, and each cell
   time is rescaled to the speed at which the kernel takes
   [reference_kernel_s]. The kernel does what the simulator's runtime does
   most: it allocates short-lived blocks, some of which survive a minor
   collection and are promoted. Of the kernels tried (hash-table updates,
   random reads of boxed values in the major heap, a pointer chase
   outside the heap, pure arithmetic), this one tracked the cells best:
   over the passes of one 40 s run it cut the spread of pass times from
   7-15% to 2-5% on paper-8c, serve-lin and scale-256c. It calls nothing
   in the simulator, so a change to the simulator cannot move it. *)
let kernel_keep = Array.make 4096 []

let kernel () =
  let t0 = Span.now () in
  for i = 1 to 150_000 do
    kernel_keep.(i land 4095) <- [ i; i ]
  done;
  Span.now () -. t0

let reference_kernel_s = 0.0015

type t = {
  cells : W.cell array;
  refs : (string, string) Hashtbl.t;
  times : float list array;  (** host seconds per pass, newest first *)
  kernel_times : float list array;  (** the kernel's time before each *)
  first : W.outcome option array;
  mutable attempted : int;
  mutable failed : int;
  mutable unserved : int;
  mutable mismatches : string list;
}

let create ?(refs = Hashtbl.create 1) cells =
  let cells = Array.of_list cells in
  let n = Array.length cells in
  {
    cells;
    refs;
    times = Array.make n [];
    kernel_times = Array.make n [];
    first = Array.make n None;
    attempted = 0;
    failed = 0;
    unserved = 0;
    mismatches = [];
  }

(* Every cell starts from a collected heap, so neither its time nor the
   heap's high-water mark depends on garbage left by the cell before. *)
let run_cell r k =
  let c = r.cells.(k) in
  Gc.full_major ();
  r.kernel_times.(k) <- kernel () :: r.kernel_times.(k);
  let t0 = Span.now () in
  let o = Span.with_ c.W.name c.W.run in
  r.times.(k) <- (Span.now () -. t0) :: r.times.(k);
  (* With references for the seed, a cell that has none is a miss too:
     the references were made for other cells. *)
  let miss =
    match r.first.(k) with
    | Some prev -> prev.W.digest <> o.W.digest
    | None ->
        Hashtbl.length r.refs > 0
        && Hashtbl.find_opt r.refs c.W.name <> Some o.W.digest
  in
  if miss then r.mismatches <- c.W.name :: r.mismatches;
  if r.first.(k) = None then r.first.(k) <- Some o;
  r.attempted <- r.attempted + o.W.attempted;
  r.failed <- r.failed + (if miss then o.W.attempted else o.W.failed);
  r.unserved <- r.unserved + o.W.unserved

let pass r = Array.iteri (fun k _ -> run_cell r k) r.cells

(* The major heap's high-water mark during [f ()], in words: the larger of
   its size at the end of every major cycle meanwhile and at the end. *)
let heap_peak f =
  let peak = ref 0 in
  let sample () = peak := max !peak (Gc.quick_stat ()).Gc.heap_words in
  let alarm = Gc.create_alarm sample in
  Fun.protect ~finally:(fun () -> Gc.delete_alarm alarm; sample ()) f;
  !peak

(* The warm-up pass: it checks every cell against the reference digests
   and lets lazy initialisation finish, and its times are dropped. It runs
   on one domain, so its heap figures are a fixed amount of work per seed.

   Returns the mean over cells of each cell's heap high-water mark, in
   bytes, each cell starting from a collected heap. The high-water mark of
   the whole process is not steady: it is set by the one cell whose
   transient peak happens to straddle a major GC cycle, and one more
   allocation anywhere can move it by a third. *)
let warm_up r =
  let jobs = Parallel.jobs () in
  Parallel.set_jobs 1;
  let peaks = Array.mapi (fun k _ -> float_of_int (heap_peak (fun () -> run_cell r k))) r.cells in
  Parallel.set_jobs jobs;
  Array.fill r.times 0 (Array.length r.cells) [];
  Array.fill r.kernel_times 0 (Array.length r.cells) [];
  Array.fold_left ( +. ) 0. peaks /. float_of_int (Array.length peaks)
  *. float_of_int (Sys.word_size / 8)

(* Round robin for [seconds] of timed cells, ending on a whole pass. *)
let timed ~seconds r =
  let n = Array.length r.cells in
  let t_end = Span.now () +. seconds in
  let i = ref 0 in
  while !i mod n <> 0 || !i = 0 || Span.now () < t_end do
    run_cell r (!i mod n);
    incr i
  done

let outcomes r = Array.to_list (Array.map Option.get r.first)

(* A cell's host times rescaled to the reference speed. *)
let scaled r k =
  List.map2 (fun t kt -> t *. reference_kernel_s /. kt) r.times.(k) r.kernel_times.(k)

let pass_cycles r = float_of_int (List.fold_left (fun a o -> a + o.W.cycles) 0 (outcomes r))

(* Simulated cycles of one pass over the sum of per-cell median host
   times, at the reference speed. *)
let rate r =
  pass_cycles r /. Array.fold_left ( +. ) 0. (Array.mapi (fun k _ -> Micro.median (scaled r k)) r.times)

(* The same without the rescaling, as the host measured it. *)
let raw_rate r = pass_cycles r /. Array.fold_left (fun a ts -> a +. Micro.median ts) 0. r.times

let kernel_median_s r = Micro.median (List.concat (Array.to_list r.kernel_times))

(* Host seconds of the latest pass, at the reference speed. *)
let last_pass_s r =
  Array.fold_left ( +. ) 0. (Array.mapi (fun k _ -> List.hd (scaled r k)) r.times)

let correct r = r.mismatches = [] && Array.for_all Option.is_some r.first

let failed_share r = float_of_int r.failed /. float_of_int (max 1 r.attempted)

(* Operations neither failed nor turned away (shed or timed out) over
   attempted ones: 1 on workloads without serve runs. *)
let served_share r =
  1. -. (float_of_int (r.failed + r.unserved) /. float_of_int (max 1 r.attempted))

(* Fold [other]'s checks into [r] (a second run over the same cells). *)
let absorb r other =
  r.mismatches <- other.mismatches @ r.mismatches;
  r.failed <- r.failed + other.failed;
  r.unserved <- r.unserved + other.unserved;
  r.attempted <- r.attempted + other.attempted

let report r =
  Array.iteri
    (fun k c ->
      let o = Option.get r.first.(k) in
      Printf.eprintf "  %-34s %8.4f s  %12d cyc  %s  %d/%d failed\n" c.W.name
        (Micro.median r.times.(k)) o.W.cycles o.W.digest o.W.failed o.W.attempted)
    r.cells;
  List.iter (Printf.eprintf "digest mismatch: %s\n") (List.rev r.mismatches);
  Printf.eprintf "%!"
