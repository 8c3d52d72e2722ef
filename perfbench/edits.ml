(* The edit session: one base [Synth.run] on d48, then a chain of
   single-delta [Synth.rerun] calls, each against the previous result. *)

module Synth = Noc_synthesis.Synth
module Config = Noc_synthesis.Config
module Delta = Noc_spec.Delta
module Memo = Noc_cache.Memo

let config = Config.default

(* The first round checks every edit and records its digest; later
   rounds must reproduce them.  The from-scratch runs a dirty edit is
   compared with wait in [pending] until the measured rounds are over. *)
type memory = {
  mutable digests : string array option;
  mutable pending : (int * Noc_spec.Soc_spec.t * Noc_spec.Vi.t * string) list;
}

let memory () = { digests = None; pending = [] }

(* [rerun] is [invalidate] then [run]; the traced form times the halves
   (and the dirty-set computation) separately. *)
let rerun ~traced ~options ~prev ~delta (soc, vi) =
  if not traced then Synth.rerun ~options ~prev ~delta config soc vi
  else begin
    Spans.within "spec.delta" (fun () -> ignore (Delta.dirty_chain (soc, vi) delta));
    let soc', vi' =
      Spans.within "synthesis.invalidate" (fun () ->
          Synth.invalidate ~options ~prev ~delta config soc vi)
    in
    ( (soc', vi'),
      Spans.within "synthesis.run" (fun () -> Synth.run ~options config soc' vi') )
  end

(* [tick] runs after every [tick_every] edits. *)
let tick_every = 4

(* One domain throughout, as a designer's interactive loop runs. *)
let options = { Synth.Options.default with Synth.Options.domains = Some 1 }

(* An exception fails its operation and ends the chain: the edits after
   it apply to a spec that was never made, so they count as failed too,
   and every round attempts the same operations. *)
let round acc mem ~traced ~tick (inputs : Inputs.t) =
  Memo.clear_all ();
  let base_spec = inputs.Inputs.edit_base in
  let n = List.length inputs.Inputs.edits in
  let check = mem.digests = None in
  let digests = Array.make n "" in
  let give_up k what ex =
    Acc.fail acc;
    Acc.problem acc "%s raised %s" what (Printexc.to_string ex);
    for _ = k + 1 to n - 1 do
      Acc.attempt acc;
      Acc.fail acc
    done
  in
  let rec go k prev spec = function
    | [] -> ()
    | (e : Inputs.edit) :: rest -> (
      Acc.attempt acc;
      let what () =
        Printf.sprintf "edit %d (%s)" k (Format.asprintf "%a" Delta.pp e.Inputs.delta)
      in
      match
        Spans.within (if e.Inputs.clean then "edit.clean" else "edit.dirty")
          (fun () ->
            Acc.timed (fun () ->
                rerun ~traced ~options ~prev ~delta:[ e.Inputs.delta ] spec))
      with
      | exception ex -> give_up k (what ()) ex
      | ((soc', vi'), r), ms ->
        Acc.add_item acc
          (if e.Inputs.clean then "edit_clean_ms" else "edit_dirty_ms")
          (string_of_int k) ms;
        let d = Acc.digest r in
        digests.(k) <- d;
        if check then begin
          if e.Inputs.clean then
            Acc.expect acc (d = Acc.digest prev)
              "%s: digest differs from the previous result" (what ())
          else mem.pending <- (k, soc', vi', d) :: mem.pending;
          Acc.guard acc (what () ^ " checker") (fun () ->
              match Checker.check_point config soc' vi' (Synth.best_power r) with
              | [] -> ()
              | (rule, why) :: _ ->
                Acc.problem acc "edit %d best point: checker (%s): %s" k
                  (Checker.rule_name rule) why)
        end;
        if (k + 1) mod tick_every = 0 then tick ();
        go (k + 1) r (soc', vi') rest)
  in
  Acc.attempt acc;
  (match Synth.run ~options config (fst base_spec) (snd base_spec) with
  | exception ex -> give_up (-1) "edit base" ex
  | base -> go 0 base base_spec inputs.Inputs.edits);
  match mem.digests with
  | None -> mem.digests <- Some digests
  | Some first ->
    Acc.expect acc (first = digests) "edit chain results changed between rounds"

(* Each dirty edit's result must equal an uncached from-scratch sweep of
   the edited spec. *)
let finish acc mem =
  List.iter
    (fun (k, soc, vi, d) ->
      Acc.guard acc (Printf.sprintf "dirty edit %d reference sweep" k) (fun () ->
          let r =
            Synth.run
              ~options:{ options with Synth.Options.cache = false }
              config soc vi
          in
          Acc.expect acc (Acc.digest r = d)
            "dirty edit %d: digest differs from a from-scratch run" k))
    (List.rev mem.pending)
