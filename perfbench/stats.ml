(* Order statistics over float samples. *)

let sorted xs = List.sort Float.compare xs

(* Linear interpolation between closest ranks (the "inclusive" method). *)
let quantile q xs =
  match sorted xs with
  | [] -> invalid_arg "Stats.quantile: no samples"
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    a.(lo) +. ((a.(hi) -. a.(lo)) *. frac)

let median xs = quantile 0.5 xs

let sum xs = List.fold_left ( +. ) 0.0 xs

let mean = function
  | [] -> 0.0
  | xs -> sum xs /. float_of_int (List.length xs)

(* Share of [part] in [whole], 0 when nothing was attempted. *)
let ratio part whole =
  if whole = 0 then 0.0 else float_of_int part /. float_of_int whole
