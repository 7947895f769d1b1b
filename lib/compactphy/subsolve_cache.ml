open Import
module J = Obs.Json

let src =
  Logs.Src.create "compactphy.subsolve_cache"
    ~doc:"Content-addressed sub-solve cache"

module Log = (val Logs.src_log src : Logs.LOG)

(* Bump on any change to the key fingerprint or the on-disk entry
   layout: the version participates in the digest, so old stores are
   simply never hit again rather than misread. *)
let format_version = 1

let default_capacity = 512

(* Process-wide cache metrics (Obs.Metrics.default). *)
module M = struct
  let hits = Obs.Metrics.counter "cache.hits"
  let misses = Obs.Metrics.counter "cache.misses"
  let stores = Obs.Metrics.counter "cache.stores"
  let evictions = Obs.Metrics.counter "cache.evictions"
  let disk_evictions = Obs.Metrics.counter "cache.disk_evictions"
  let corrupt = Obs.Metrics.counter "cache.corrupt"
  let hit_rate = Obs.Metrics.gauge "cache.hit_rate"
end

(* --- keys ---

   The content address of a sub-solve: the block matrix relabelled to
   its canonical (maxmin) leaf order, digested together with every
   solver option that can change the returned tree or its search
   trajectory, plus the cache format version.  Canonicalising through
   {!Permutation.maxmin} makes the digest invariant under leaf
   relabelling — the same sub-problem reached through two different
   decompositions shares one entry — while the permutation kept on the
   key maps the stored canonical tree back to the requester's labels.

   [max_expanded] (and the whole run budget) is deliberately absent:
   only certified results are admitted, and a certified result is the
   same whatever budget the search finished under. *)

type key = {
  k_digest : string;
  k_n : int;
  k_perm : int array;  (* canonical rank -> requester's label *)
}

let digest k = k.k_digest
let size k = k.k_n

let hex x = Printf.sprintf "%h" x

let fingerprint (options : Solver.options) cm =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "subsolve-v%d" format_version);
  let field key v = Buffer.add_string buf ("|" ^ key ^ "=" ^ v) in
  let enum key table v = field key (Obs.Json.enum_name table v) in
  enum "lb" Solver.lb_names options.Solver.lb;
  enum "relation33" Solver.mode33_names options.Solver.relation33;
  enum "initial_ub" Solver.initial_ub_names options.Solver.initial_ub;
  enum "search" Strategy.exploration_names options.Solver.search;
  enum "branching" Strategy.branching_names options.Solver.branching;
  field "gap" (hex options.Solver.gap);
  field "collect_all" (string_of_bool options.Solver.collect_all);
  enum "kernel" Kernel.kind_names options.Solver.kernel;
  Buffer.add_string buf (Printf.sprintf "|n=%d" (Dist_matrix.size cm));
  Dist_matrix.iter_pairs
    (fun i j d -> Buffer.add_string buf (Printf.sprintf ";%d,%d:%h" i j d))
    cm;
  Buffer.contents buf

let key ~(options : Solver.options) m =
  (* [maxmin] seats the farthest pair at positions 0 and 1 in original
     index order — a label-dependent choice even when all distances are
     distinct.  Both orientations are valid maxmin permutations of the
     same content (later positions depend only on the placed {e set}),
     so canonicalise by content: fingerprint both and keep the
     lexicographically smaller one.  With distinct pairwise distances
     that makes the digest a pure function of the matrix content; under
     genuine ties deeper in the order the digest can still depend on
     labels — sound (a different digest is only a missed share), just
     not maximally deduplicated. *)
  let orientations =
    let p = Permutation.maxmin m in
    let a = Permutation.to_array p in
    if Array.length a < 2 then [ p ]
    else begin
      let b = Array.copy a in
      let t = b.(0) in
      b.(0) <- b.(1);
      b.(1) <- t;
      [ p; Permutation.of_array b ]
    end
  in
  let fp, p =
    match
      List.map
        (fun p -> (fingerprint options (Permutation.apply m p), p))
        orientations
    with
    | [] -> assert false
    | first :: rest ->
        List.fold_left
          (fun (bf, bp) (f, p) ->
            if String.compare f bf < 0 then (f, p) else (bf, bp))
          first rest
  in
  {
    k_digest = Digest.to_hex (Digest.string fp);
    k_n = Dist_matrix.size m;
    k_perm = Permutation.to_array p;
  }

(* Relabel between the requester's leaf labels and canonical ranks.
   The stored tree lives in canonical labels, so one entry serves every
   relabelling of the same sub-problem. *)
let to_canonical k tree =
  let inv = Permutation.to_array (Permutation.inverse (Permutation.of_array k.k_perm)) in
  Utree.relabel (fun l -> inv.(l)) tree

let of_canonical k tree = Utree.relabel (fun r -> k.k_perm.(r)) tree

(* The stats envelope is replayed on hits, so a warm run's manifest is
   bit-identical to the cold run that populated the entry; copies keep
   the cached record immune to downstream aggregation. *)
let copy_stats s =
  let c = Stats.create () in
  Stats.add c s;
  c

(* --- the cache --- *)

type counters = {
  hits : int;
  misses : int;
  stores : int;
  evictions : int;
  disk_evictions : int;
  corrupt : int;
}

type t = {
  dir : string option;
  capacity : int;
  max_bytes : int option;  (* disk-store byte budget; None = unbounded *)
  lock : Mutex.t;
  table : (string, Executor.solved) Hashtbl.t;  (* canonical labels *)
  stamp : (string, int) Hashtbl.t;  (* LRU clock per digest *)
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
  mutable stores : int;
  mutable evictions : int;
  mutable disk_evictions : int;
  mutable corrupt : int;
}

let with_lock lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let counters t : counters =
  with_lock t.lock (fun () ->
      {
        hits = t.hits;
        misses = t.misses;
        stores = t.stores;
        evictions = t.evictions;
        disk_evictions = t.disk_evictions;
        corrupt = t.corrupt;
      })

let hit_rate (c : counters) =
  let total = c.hits + c.misses in
  if total = 0 then 0. else float_of_int c.hits /. float_of_int total

let counters_json (c : counters) =
  J.Obj
    [
      ("hits", J.Int c.hits);
      ("misses", J.Int c.misses);
      ("stores", J.Int c.stores);
      ("evictions", J.Int c.evictions);
      ("disk_evictions", J.Int c.disk_evictions);
      ("corrupt", J.Int c.corrupt);
      ("hit_rate", J.Float (hit_rate c));
    ]

let rec mkdir_p dir =
  if dir = "" || dir = "." || dir = "/" || Sys.file_exists dir then ()
  else begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let create ?dir ?(capacity = default_capacity) ?max_bytes () =
  if capacity < 1 then
    invalid_arg
      (Printf.sprintf "Subsolve_cache.create: capacity = %d (must be >= 1)"
         capacity);
  (match max_bytes with
  | Some b when b < 1 ->
      invalid_arg
        (Printf.sprintf "Subsolve_cache.create: max_bytes = %d (must be >= 1)"
           b)
  | Some _ | None -> ());
  Option.iter mkdir_p dir;
  {
    dir;
    capacity;
    max_bytes;
    lock = Mutex.create ();
    table = Hashtbl.create 64;
    stamp = Hashtbl.create 64;
    clock = 0;
    hits = 0;
    misses = 0;
    stores = 0;
    evictions = 0;
    disk_evictions = 0;
    corrupt = 0;
  }

let entry_path t k =
  Option.map
    (fun dir -> Filename.concat dir ("ss-" ^ k.k_digest ^ ".json"))
    t.dir

(* --- bookkeeping (call under the lock) --- *)

let touch t digest =
  t.clock <- t.clock + 1;
  Hashtbl.replace t.stamp digest t.clock

let evict_to_capacity t =
  while Hashtbl.length t.table > t.capacity do
    let victim =
      Hashtbl.fold
        (fun d s acc ->
          match acc with
          | Some (_, best) when best <= s -> acc
          | _ -> Some (d, s))
        t.stamp None
    in
    match victim with
    | None -> Hashtbl.reset t.table (* unreachable: stamp tracks table *)
    | Some (d, _) ->
        Hashtbl.remove t.table d;
        Hashtbl.remove t.stamp d;
        t.evictions <- t.evictions + 1;
        Obs.Metrics.incr M.evictions
  done

let insert_mem t digest sv =
  if not (Hashtbl.mem t.table digest) then begin
    Hashtbl.replace t.table digest sv;
    touch t digest;
    evict_to_capacity t
  end

let note_hit t =
  t.hits <- t.hits + 1;
  Obs.Metrics.incr M.hits;
  Obs.Metrics.set M.hit_rate
    (float_of_int t.hits /. float_of_int (t.hits + t.misses))

let note_miss t =
  t.misses <- t.misses + 1;
  Obs.Metrics.incr M.misses;
  Obs.Metrics.set M.hit_rate
    (float_of_int t.hits /. float_of_int (t.hits + t.misses))

let note_corrupt t path reason =
  t.corrupt <- t.corrupt + 1;
  Obs.Metrics.incr M.corrupt;
  Log.warn (fun m -> m "rejecting cache entry %s: %s" path reason);
  (* Drop the bad blob so the fresh solve can re-store a clean one. *)
  try Sys.remove path with Sys_error _ -> ()

(* --- the on-disk store ---

   One file per entry, named by the digest.  The solved payload is the
   wire codec's hex-float JSON rendered to a string and embedded (with
   its own MD5) in a small envelope, so a truncated or bit-flipped file
   is caught either by the outer parse or by the digest check — never
   silently replayed.  Writes go to a pid-suffixed temp file first and
   rename into place, so a crash mid-write leaves no partial entry
   under the real name and concurrent processes sharing a directory
   never observe each other's half-written blobs. *)

(* LRU-by-mtime disk eviction (call under the lock).  Every admit
   re-scans the [ss-*.json] blobs and deletes oldest-mtime entries until
   the directory fits [max_bytes]; disk {e hits} refresh the blob's
   mtime ([Unix.utimes path 0. 0.] = "now"), so recently replayed
   entries survive.  The scan is O(entries) per admit, which is noise
   next to the solve that produced the entry.  Ties (filesystems with
   coarse mtimes) break by name, so eviction order is deterministic. *)
let is_entry name =
  String.length name > 8
  && String.sub name 0 3 = "ss-"
  && Filename.check_suffix name ".json"

let enforce_disk_bound t =
  match (t.dir, t.max_bytes) with
  | None, _ | _, None -> ()
  | Some dir, Some max_bytes -> (
      try
        let entries =
          Array.to_list (Sys.readdir dir)
          |> List.filter is_entry
          |> List.filter_map (fun name ->
                 let path = Filename.concat dir name in
                 match Unix.stat path with
                 | exception Unix.Unix_error _ -> None
                 | st when st.Unix.st_kind = Unix.S_REG ->
                     Some (st.Unix.st_mtime, name, path, st.Unix.st_size)
                 | _ -> None)
          |> List.sort compare (* oldest mtime first, then name *)
        in
        let total =
          List.fold_left (fun acc (_, _, _, size) -> acc + size) 0 entries
        in
        let excess = ref (total - max_bytes) in
        List.iter
          (fun (_, _, path, size) ->
            if !excess > 0 then begin
              (try Sys.remove path with Sys_error _ -> ());
              excess := !excess - size;
              t.disk_evictions <- t.disk_evictions + 1;
              Obs.Metrics.incr M.disk_evictions;
              Log.debug (fun m -> m "disk eviction: %s (%d bytes)" path size)
            end)
          entries
      with Sys_error _ -> ())

let disk_store t k (sv : Executor.solved) =
  match entry_path t k with
  | None -> ()
  | Some path -> (
      try
        let payload = J.to_string (Wire.solved_to_json sv) in
        let doc =
          J.Obj
            [
              ("format", J.String "compactphy-subsolve");
              ("version", J.Int format_version);
              ("key", J.String k.k_digest);
              ("n", J.Int k.k_n);
              ("payload_md5", J.String (Digest.to_hex (Digest.string payload)));
              ("solved", J.String payload);
            ]
        in
        let tmp =
          Printf.sprintf "%s.tmp.%d" path (Unix.getpid ())
        in
        J.write_file tmp doc;
        Sys.rename tmp path;
        enforce_disk_bound t
      with e ->
        Log.warn (fun m ->
            m "cache write failed for %s: %s" path (Printexc.to_string e)))

let disk_load t k =
  match entry_path t k with
  | None -> None
  | Some path ->
      if not (Sys.file_exists path) then None
      else begin
        let reject reason =
          note_corrupt t path reason;
          None
        in
        match J.read_file path with
        | Error e -> reject e
        | Ok doc -> (
            let str name = Option.bind (J.member name doc) J.to_string_opt in
            let int name = Option.bind (J.member name doc) J.to_int_opt in
            match
              (str "format", int "version", str "key", str "payload_md5",
               str "solved")
            with
            | Some "compactphy-subsolve", Some v, Some key', Some md5,
              Some payload
              when v = format_version && key' = k.k_digest ->
                if Digest.to_hex (Digest.string payload) <> md5 then
                  reject "payload digest mismatch"
                else begin
                  match J.of_string payload with
                  | Error e -> reject ("payload: " ^ e)
                  | Ok pj -> (
                      match Wire.solved_of_json pj with
                      | Error e -> reject ("payload: " ^ e)
                      | Ok sv ->
                          if sv.Executor.s_status <> Budget.Exact
                             || sv.Executor.s_frontier <> []
                          then reject "entry is not a certified result"
                          else begin
                            (* Refresh the blob's mtime so LRU-by-mtime
                               disk eviction spares recently hit
                               entries. *)
                            (try Unix.utimes path 0. 0.
                             with Unix.Unix_error _ -> ());
                            Some sv
                          end)
                end
            | _ -> reject "bad or mismatched envelope")
      end

(* --- lookup / store --- *)

let find t k =
  let out sv =
    Some
      {
        sv with
        Executor.s_stats = copy_stats sv.Executor.s_stats;
        s_tree = of_canonical k sv.Executor.s_tree;
        s_from_cache = true;
      }
  in
  with_lock t.lock (fun () ->
      match Hashtbl.find_opt t.table k.k_digest with
      | Some sv ->
          touch t k.k_digest;
          note_hit t;
          out sv
      | None -> (
          match disk_load t k with
          | Some sv ->
              insert_mem t k.k_digest sv;
              note_hit t;
              out sv
          | None ->
              note_miss t;
              None))

let store t k (sv : Executor.solved) =
  (* Executor.cache_store already gates; re-check here so direct users
     of the module get the same invariant: nothing non-certified, and
     nothing replayed, is ever admitted. *)
  if sv.Executor.s_status = Budget.Exact && not sv.Executor.s_from_cache then begin
    let canonical =
      {
        sv with
        Executor.s_stats = copy_stats sv.Executor.s_stats;
        s_tree = to_canonical k sv.Executor.s_tree;
        s_frontier = [];
        s_from_cache = false;
      }
    in
    with_lock t.lock (fun () ->
        if not (Hashtbl.mem t.table k.k_digest) then begin
          insert_mem t k.k_digest canonical;
          t.stores <- t.stores + 1;
          Obs.Metrics.incr M.stores;
          disk_store t k canonical
        end)
  end

(* --- process-wide wiring --- *)

let hook t =
  {
    Executor.c_lookup =
      (fun (job : Executor.job) ->
        find t (key ~options:job.Executor.j_options job.Executor.j_matrix));
    c_store =
      (fun (job : Executor.job) sv ->
        store t (key ~options:job.Executor.j_options job.Executor.j_matrix) sv);
  }

let installed_ref : t option Atomic.t = Atomic.make None

let install t =
  Atomic.set installed_ref (Some t);
  Executor.set_cache_hook (Some (hook t))

let uninstall () =
  Atomic.set installed_ref None;
  Executor.set_cache_hook None

let installed () = Atomic.get installed_ref

(* One shared instance per store directory (plus one memory-only), so
   every run — and every request of a serve daemon — warming the same
   directory also shares the in-memory LRU. *)
let instances : (string, t) Hashtbl.t = Hashtbl.create 4
let instances_lock = Mutex.create ()

let get_or_create ?dir ?capacity ?max_bytes () =
  with_lock instances_lock (fun () ->
      let k = match dir with Some d -> "dir:" ^ d | None -> "mem" in
      match Hashtbl.find_opt instances k with
      | Some t -> t
      | None ->
          let t = create ?dir ?capacity ?max_bytes () in
          Hashtbl.add instances k t;
          t)
