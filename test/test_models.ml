(* Tests for the 65 nm component models: unit conversions, timing/arity
   trade-off, voltage scaling and the power-report algebra. *)

module Tech = Noc_models.Tech
module Units = Noc_models.Units
module Switch = Noc_models.Switch_model
module Link = Noc_models.Link_model
module Ni = Noc_models.Ni_model
module Sync = Noc_models.Sync_model
module Power = Noc_models.Power

let tech = Tech.default_65nm
let checkf tol = Alcotest.(check (float tol))
let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let switch_cfg ?(inputs = 5) ?(outputs = 5) ?(flit_bits = 32)
    ?(buffer_depth = 4) () =
  { Switch.inputs; outputs; flit_bits; buffer_depth }

(* ---------- Units ---------- *)

let test_units_flit_rate () =
  (* 400 MB/s over 32-bit flits = 4 bytes/flit = 100 Mflit/s *)
  checkf 1.0 "flit rate" 1e8
    (Units.flits_per_second ~bw_mbps:400.0 ~flit_bits:32);
  (* doubling width halves the rate *)
  checkf 1.0 "wide flit rate" 5e7
    (Units.flits_per_second ~bw_mbps:400.0 ~flit_bits:64)

let test_units_power () =
  (* 10 pJ at 1 GHz = 10 mW *)
  checkf 1e-9 "power" 10.0
    (Units.power_mw_of_energy ~energy_pj:10.0 ~events_per_second:1e9)

let test_units_bandwidth_inverse () =
  let bw = Units.bandwidth_mbps_of_frequency ~freq_mhz:500.0 ~flit_bits:32 in
  checkf 1e-6 "500MHz x 32bit = 2000 MB/s" 2000.0 bw;
  checkf 1e-6 "inverse" 500.0
    (Units.frequency_mhz_for_bandwidth ~bw_mbps:bw ~flit_bits:32)

let test_units_errors () =
  (match Units.flits_per_second ~bw_mbps:1.0 ~flit_bits:0 with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "flit_bits=0 must raise");
  match Units.flits_per_second ~bw_mbps:(-1.0) ~flit_bits:32 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative bandwidth must raise"

(* ---------- Switch timing ---------- *)

let prop_fmax_decreasing =
  QCheck.Test.make ~name:"switch f_max strictly decreases with arity" ~count:60
    QCheck.(int_range 2 62)
    (fun arity ->
      Switch.f_max_mhz tech ~arity > Switch.f_max_mhz tech ~arity:(arity + 1))

let test_fmax_calibration () =
  (* a 5x5 xpipes-class switch at 65nm runs around 900 MHz *)
  let f5 = Switch.f_max_mhz tech ~arity:5 in
  checkb "5x5 near 900 MHz" true (f5 > 800.0 && f5 < 1000.0);
  let f16 = Switch.f_max_mhz tech ~arity:16 in
  checkb "16x16 below 550 MHz" true (f16 < 550.0)

let prop_max_arity_inverse =
  QCheck.Test.make
    ~name:"max_arity_for_frequency is the inverse of f_max" ~count:60
    QCheck.(float_range 100.0 1100.0)
    (fun freq ->
      match Switch.max_arity_for_frequency tech ~freq_mhz:freq with
      | None -> Switch.f_max_mhz tech ~arity:2 < freq
      | Some a ->
        Switch.f_max_mhz tech ~arity:a >= freq
        && (a >= 64 || Switch.f_max_mhz tech ~arity:(a + 1) < freq))

(* ---------- Voltage scaling ---------- *)

let test_vdd_clamped () =
  checkf 1e-9 "slow logic at vdd_min" tech.Tech.vdd_min
    (Tech.vdd_for_frequency tech ~freq_mhz:50.0);
  checkf 1e-9 "full speed at nominal" tech.Tech.vdd_nominal
    (Tech.vdd_for_frequency tech ~freq_mhz:2000.0)

let prop_vdd_monotone =
  QCheck.Test.make ~name:"vdd monotone in frequency" ~count:60
    QCheck.(pair (float_range 1.0 1500.0) (float_range 1.0 1500.0))
    (fun (f1, f2) ->
      let lo = Float.min f1 f2 and hi = Float.max f1 f2 in
      Tech.vdd_for_frequency tech ~freq_mhz:lo
      <= Tech.vdd_for_frequency tech ~freq_mhz:hi +. 1e-12)

let test_energy_scale () =
  checkf 1e-9 "nominal scale is 1" 1.0 (Tech.energy_scale tech ~vdd:tech.Tech.vdd_nominal);
  checkf 1e-9 "quadratic" 0.25 (Tech.energy_scale tech ~vdd:(tech.Tech.vdd_nominal /. 2.0))

(* ---------- Switch power/area ---------- *)

let test_switch_energy_monotone () =
  let e5 = Switch.energy_per_flit_pj tech (switch_cfg ()) ~vdd:1.0 in
  let e10 =
    Switch.energy_per_flit_pj tech (switch_cfg ~inputs:10 ~outputs:10 ())
      ~vdd:1.0
  in
  checkb "bigger switch costs more per flit" true (e10 > e5);
  let e5_wide =
    Switch.energy_per_flit_pj tech (switch_cfg ~flit_bits:64 ()) ~vdd:1.0
  in
  checkf 1e-9 "energy linear in width" (2.0 *. e5) e5_wide

let test_switch_leakage_follows_area () =
  let cfg = switch_cfg () in
  checkf 1e-9 "leakage = area x density"
    (Switch.area_mm2 cfg *. tech.Tech.leakage_mw_per_mm2)
    (Switch.leakage_mw tech cfg ~vdd:1.0)

let test_switch_clock_power () =
  let cfg = switch_cfg () in
  let p400 = Switch.clock_power_mw tech cfg ~vdd:1.0 ~freq_mhz:400.0 in
  let p800 = Switch.clock_power_mw tech cfg ~vdd:1.0 ~freq_mhz:800.0 in
  checkf 1e-9 "clock power linear in frequency" (2.0 *. p400) p800;
  let p_low = Switch.clock_power_mw tech cfg ~vdd:0.7 ~freq_mhz:400.0 in
  checkf 1e-9 "clock power quadratic in vdd" (0.49 *. p400) p_low

let test_switch_dynamic_power () =
  let cfg = switch_cfg () in
  let e = Switch.energy_per_flit_pj tech cfg ~vdd:1.0 in
  checkf 1e-9 "dynamic power from rate" (e *. 1e8 *. 1e-9)
    (Switch.dynamic_power_mw tech cfg ~vdd:1.0 ~flits_per_second:1e8)

let test_switch_config_errors () =
  (match Switch.area_mm2 (switch_cfg ~inputs:0 ()) with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "0 inputs must raise");
  match Switch.f_max_mhz tech ~arity:1 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "arity 1 must raise"

(* ---------- Link ---------- *)

let test_link_energy_linear_in_length () =
  let e1 = Link.energy_per_flit_pj tech ~length_mm:1.0 ~flit_bits:32 ~vdd:1.0 in
  let e3 = Link.energy_per_flit_pj tech ~length_mm:3.0 ~flit_bits:32 ~vdd:1.0 in
  checkf 1e-9 "3x length = 3x energy" (3.0 *. e1) e3

let test_link_timing () =
  let max_len = Tech.max_unpipelined_mm tech ~freq_mhz:500.0 in
  checkb "positive budget" true (max_len > 0.0);
  checkb "fits just under" true
    (Link.fits_in_cycle tech ~length_mm:(max_len -. 0.01) ~freq_mhz:500.0);
  checkb "misses just over" false
    (Link.fits_in_cycle tech ~length_mm:(max_len +. 0.01) ~freq_mhz:500.0);
  checkf 1e-9 "delay" (tech.Tech.wire_delay_ns_per_mm *. 2.5)
    (Link.delay_ns tech ~length_mm:2.5)

(* ---------- NI and converter ---------- *)

let test_ni_model () =
  checkb "ni area positive" true (Ni.area_mm2 ~flit_bits:32 > 0.0);
  checkf 1e-9 "ni leakage = area x density"
    (Ni.area_mm2 ~flit_bits:32 *. tech.Tech.leakage_mw_per_mm2)
    (Ni.leakage_mw tech ~flit_bits:32 ~vdd:1.0);
  checki "ni latency" 2 Ni.latency_cycles

let test_sync_model () =
  checki "crossing penalty is the paper's 4 cycles" 4
    Sync.crossing_latency_cycles;
  checkb "sync area grows with depth" true
    (Sync.area_mm2 ~flit_bits:32 ~depth:8 > Sync.area_mm2 ~flit_bits:32 ~depth:4);
  let e_lo = Sync.energy_per_flit_pj tech ~flit_bits:32 ~vdd:0.7 in
  let e_hi = Sync.energy_per_flit_pj tech ~flit_bits:32 ~vdd:1.0 in
  checkb "converter energy scales with vdd" true (e_lo < e_hi)

(* ---------- Power report algebra ---------- *)

let sample =
  {
    Power.switch_dynamic_mw = 10.0;
    switch_leakage_mw = 1.0;
    link_dynamic_mw = 2.0;
    link_leakage_mw = 0.75;
    ni_dynamic_mw = 3.0;
    ni_leakage_mw = 0.5;
    sync_dynamic_mw = 1.5;
    sync_leakage_mw = 0.25;
  }

let test_power_algebra () =
  checkf 1e-9 "dynamic" 16.5 (Power.dynamic_mw sample);
  checkf 1e-9 "leakage" 2.5 (Power.leakage_mw sample);
  checkf 1e-9 "total" 19.0 (Power.total_mw sample);
  let doubled = Power.add sample sample in
  checkf 1e-9 "add" (2.0 *. Power.total_mw sample) (Power.total_mw doubled);
  checkf 1e-9 "scale" (Power.total_mw doubled)
    (Power.total_mw (Power.scale 2.0 sample));
  checkf 1e-9 "sum" (3.0 *. Power.total_mw sample)
    (Power.total_mw (Power.sum [ sample; sample; sample ]));
  checkf 1e-9 "zero" 0.0 (Power.total_mw Power.zero)

let prop_power_add_commutes =
  let gen =
    QCheck.Gen.(
      map
        (fun (a, b, c, d) ->
          {
            Power.switch_dynamic_mw = a;
            switch_leakage_mw = b;
            link_dynamic_mw = c;
            link_leakage_mw = d /. 3.0;
            ni_dynamic_mw = d;
            ni_leakage_mw = a /. 2.0;
            sync_dynamic_mw = b /. 2.0;
            sync_leakage_mw = c /. 2.0;
          })
        (quad (float_bound_inclusive 100.0) (float_bound_inclusive 100.0)
           (float_bound_inclusive 100.0) (float_bound_inclusive 100.0)))
  in
  QCheck.Test.make ~name:"power add commutes and totals add" ~count:60
    (QCheck.make (QCheck.Gen.pair gen gen))
    (fun (a, b) ->
      let ab = Power.add a b and ba = Power.add b a in
      Float.abs (Power.total_mw ab -. Power.total_mw ba) < 1e-9
      && Float.abs
           (Power.total_mw ab -. (Power.total_mw a +. Power.total_mw b))
         < 1e-9)

let () =
  let qt = QCheck_alcotest.to_alcotest ~speed_level:`Quick in
  Alcotest.run "noc_models"
    [
      ( "units",
        [
          Alcotest.test_case "flit rate" `Quick test_units_flit_rate;
          Alcotest.test_case "power conversion" `Quick test_units_power;
          Alcotest.test_case "bandwidth inverse" `Quick
            test_units_bandwidth_inverse;
          Alcotest.test_case "errors" `Quick test_units_errors;
        ] );
      ( "switch timing",
        [
          qt prop_fmax_decreasing;
          Alcotest.test_case "calibration" `Quick test_fmax_calibration;
          qt prop_max_arity_inverse;
        ] );
      ( "voltage",
        [
          Alcotest.test_case "clamping" `Quick test_vdd_clamped;
          qt prop_vdd_monotone;
          Alcotest.test_case "energy scale" `Quick test_energy_scale;
        ] );
      ( "switch power",
        [
          Alcotest.test_case "energy monotone" `Quick
            test_switch_energy_monotone;
          Alcotest.test_case "leakage from area" `Quick
            test_switch_leakage_follows_area;
          Alcotest.test_case "clock power" `Quick test_switch_clock_power;
          Alcotest.test_case "dynamic power" `Quick test_switch_dynamic_power;
          Alcotest.test_case "config errors" `Quick test_switch_config_errors;
        ] );
      ( "link",
        [
          Alcotest.test_case "energy linear in length" `Quick
            test_link_energy_linear_in_length;
          Alcotest.test_case "single-cycle timing" `Quick test_link_timing;
        ] );
      ( "ni and converter",
        [
          Alcotest.test_case "ni" `Quick test_ni_model;
          Alcotest.test_case "bi-sync converter" `Quick test_sync_model;
        ] );
      ( "power report",
        [
          Alcotest.test_case "algebra" `Quick test_power_algebra;
          qt prop_power_add_commutes;
        ] );
    ]
