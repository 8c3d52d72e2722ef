(* Measurement helpers shared by every experiment of the bench harness:
   wall clocks, order statistics, interleaved repetitions with a
   reproducibility check, and the BENCH_*.json writer. *)

module J = Noc_synthesis.Report.Json

let wall f =
  let t0 = Noc_exec.Metrics.now_ns () in
  let r = f () in
  (Int64.to_float (Int64.sub (Noc_exec.Metrics.now_ns ()) t0) /. 1e9, r)

(* The upper median of a non-empty list. *)
let median xs =
  let sorted = List.sort compare xs in
  List.nth sorted (List.length sorted / 2)

(* Nearest-rank percentile [p] (0-100) of a non-empty list. *)
let percentile p xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  a.(min (n - 1) (int_of_float ((p /. 100.0 *. float_of_int (n - 1)) +. 0.5)))

type 'r side = {
  best_s : float;  (* the fastest rep: the noise filter for sub-second runs *)
  first : 'r;  (* the first rep's result *)
  reproducible : bool;  (* every rep's signature equals the first rep's *)
  times : float list;  (* every rep's seconds, in round order *)
}

(* Run [sides] (thunks returning (seconds, result)) in rounds, one rep of
   each side per round in array order, until at least [min_rounds] rounds
   and then until [max_rounds] rounds or [budget_s] seconds of measured
   time.  Interleaving keeps slow clock-frequency drift from biasing one
   side, and a per-round ratio of two sides ([median_ratio]) is immune to
   it.  Each side also checks that every rep reproduces its first rep's
   [signature]. *)
let interleaved ~min_rounds ~max_rounds ~budget_s ~signature sides =
  let k = Array.length sides in
  let best = Array.make k infinity and times = Array.make k [] in
  let first = Array.make k None and same = Array.make k true in
  let spent = ref 0.0 and rounds = ref 0 in
  while !rounds < min_rounds || (!rounds < max_rounds && !spent < budget_s) do
    Array.iteri
      (fun i run ->
        let t, r = run () in
        best.(i) <- Float.min best.(i) t;
        times.(i) <- t :: times.(i);
        spent := !spent +. t;
        match first.(i) with
        | None -> first.(i) <- Some (r, signature r)
        | Some (_, s) -> if signature r <> s then same.(i) <- false)
      sides;
    incr rounds
  done;
  Array.init k (fun i ->
      {
        best_s = best.(i);
        first = fst (Option.get first.(i));
        reproducible = same.(i);
        times = List.rev times.(i);
      })

(* Median over rounds of [a]'s time divided by [b]'s. *)
let median_ratio a b = median (List.map2 ( /. ) a.times b.times)

(* The process-wide Metrics counters whose names start with one of
   [prefixes], as a JSON object. *)
let counters prefixes =
  J.Obj
    (List.filter_map
       (fun (k, v) ->
         if List.exists (fun p -> String.starts_with ~prefix:p k) prefixes then
           Some (k, J.Int v)
         else None)
       (Noc_exec.Metrics.counters ()))

(* Write [fields] as a [kind] document to [file], stamped with the host
   that measured them: a figure read without its machine says little. *)
let write_json file ~kind fields =
  let host =
    J.Obj
      [
        ("name", J.String (Unix.gethostname ()));
        ("recommended_domains", J.Int (Domain.recommended_domain_count ()));
        ("ocaml_version", J.String Sys.ocaml_version);
      ]
  in
  let oc = open_out file in
  output_string oc (J.to_string (J.document ~kind (("host", host) :: fields)));
  output_char oc '\n';
  close_out oc;
  Printf.printf "\nwrote %s\n" file

let temp_dir prefix =
  let d = Filename.temp_file prefix "" in
  Sys.remove d;
  Unix.mkdir d 0o700;
  d

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path
