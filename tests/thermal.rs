//! Workspace-level integration tests of the thermal subsystem: the
//! temperature sweep acceptance behaviour, the runtime manager's thermal
//! switching, and the simulator's scenario playback.

use onoc_ecc::ecc::EccScheme;
use onoc_ecc::link::{LinkManager, NanophotonicLink, TrafficClass};
use onoc_ecc::sim::traffic::TrafficPattern;
use onoc_ecc::sim::{DecisionPolicy, ScenarioBuilder};
use onoc_ecc::thermal::{RingThermalModel, ThermalEnvironment, ThermalTuner};
use onoc_ecc::units::{Celsius, KelvinDelta};

fn sweep_temperatures() -> Vec<Celsius> {
    (25..=85)
        .step_by(10)
        .map(|t| Celsius::new(f64::from(t)))
        .collect()
}

#[test]
fn total_power_per_scheme_is_monotone_non_decreasing_in_temperature() {
    let link = NanophotonicLink::paper_link();
    for scheme in EccScheme::paper_schemes() {
        let mut last = 0.0;
        let mut feasible_count = 0;
        for t in sweep_temperatures() {
            if let Ok(p) = link.operating_point_at(scheme, 1e-11, t) {
                let total = p.channel_power.value();
                assert!(
                    total >= last,
                    "{scheme}: channel power fell from {last} to {total} at {t}"
                );
                last = total;
                feasible_count += 1;
            }
        }
        assert!(feasible_count >= 3, "{scheme} feasible at too few points");
    }
}

#[test]
fn uncoded_is_feasible_at_25c_and_infeasible_at_85c_where_hamming_survives() {
    let link = NanophotonicLink::paper_link();
    assert!(link
        .operating_point_at(EccScheme::Uncoded, 1e-11, Celsius::new(25.0))
        .is_ok());
    assert!(link
        .operating_point_at(EccScheme::Uncoded, 1e-11, Celsius::new(85.0))
        .is_err());
    for scheme in [EccScheme::Hamming74, EccScheme::Hamming7164] {
        let p = link
            .operating_point_at(scheme, 1e-11, Celsius::new(85.0))
            .unwrap();
        assert!(p.power.tuning.value() > 0.0, "{scheme} must pay for tuning");
        assert!(p.laser.laser_output_power.value() <= 700.0);
    }
}

#[test]
fn runtime_manager_switches_latency_first_from_uncoded_to_hamming() {
    let manager = LinkManager::paper_manager();
    let mut schemes = Vec::new();
    for t in sweep_temperatures() {
        schemes.push(
            manager
                .configure_at(TrafficClass::LatencyFirst, t)
                .map(|d| d.point.scheme()),
        );
    }
    // Cool end rides uncoded, hot end rides H(71,64), never unservable.
    assert_eq!(schemes.first().unwrap(), &Some(EccScheme::Uncoded));
    assert_eq!(schemes.last().unwrap(), &Some(EccScheme::Hamming7164));
    assert!(schemes.iter().all(Option::is_some));
    // The switch is monotone: once coded, it stays coded as T rises.
    let first_coded = schemes
        .iter()
        .position(|s| *s == Some(EccScheme::Hamming7164))
        .unwrap();
    assert!(schemes[first_coded..]
        .iter()
        .all(|s| *s == Some(EccScheme::Hamming7164)));
}

#[test]
fn tuning_power_grows_with_temperature_and_respects_the_heater_model() {
    let link = NanophotonicLink::paper_link();
    let tuner = ThermalTuner::paper_heater();
    let rings = RingThermalModel::paper_silicon();
    let mut last_tuning = 0.0;
    for t in sweep_temperatures() {
        let p = link
            .operating_point_at(EccScheme::Hamming7164, 1e-11, t)
            .unwrap();
        let tuning = p.power.tuning.value();
        assert!(tuning >= last_tuning, "tuning power fell at {t}");
        last_tuning = tuning;
        // The per-lane figure decomposes into the heater model exactly:
        // 12 rings × (power per kelvin × compensated excursion).
        let compensation = tuner.compensate(rings.delta_at(t));
        let expected_mw = compensation.heater_power_per_ring.value() * 12.0 * 1e-3;
        assert!(
            (tuning - expected_mw).abs() < 1e-9,
            "tuning decomposition at {t}"
        );
    }
}

#[test]
fn drift_model_invariants_hold_over_the_sweep() {
    let rings = RingThermalModel::paper_silicon();
    let tuner = ThermalTuner::paper_heater();
    assert!(rings.drift_at(Celsius::new(25.0)).is_zero());
    let mut last_drift = 0.0;
    let mut last_power = 0.0;
    for dt in 1..=60 {
        let t = Celsius::new(25.0 + f64::from(dt));
        let drift = rings.drift_at(t).abs().nanometers();
        assert!(drift > last_drift, "drift magnitude must grow with ΔT");
        last_drift = drift;
        let c = tuner.compensate(KelvinDelta::new(f64::from(dt)));
        assert!(c.heater_power_per_ring.value() >= last_power);
        last_power = c.heater_power_per_ring.value();
        assert!(c.residual.abs().value() < f64::from(dt).abs() + 1e-12);
    }
}

#[test]
fn transient_scenario_switches_schemes_mid_run() {
    // (ONIs, messages per source, mean inter-arrival ns, time constant ns,
    // seed, whether every destination must end coded).
    for (oni_count, messages, inter_arrival_ns, time_constant_ns, seed, all_coded) in [
        (8, 10, 25.0, 100.0, 21, false),
        (12, 8, 20.0, 200.0, 3, true),
    ] {
        let report = ScenarioBuilder::new()
            .oni_count(oni_count)
            .pattern(TrafficPattern::UniformRandom {
                messages_per_node: messages,
            })
            .class(TrafficClass::LatencyFirst)
            .words_per_message(8)
            .mean_inter_arrival_ns(inter_arrival_ns)
            .nominal_ber(1e-11)
            .seed(seed)
            .prescribed(ThermalEnvironment::Transient {
                start: Celsius::new(25.0),
                target: Celsius::new(85.0),
                time_constant_ns,
            })
            .policy(DecisionPolicy::per_message())
            .build()
            .unwrap()
            .run();
        assert!(report.reconfigured_messages > 0, "the heat-up must bite");
        assert!(
            report.reconfigured_messages < report.stats.delivered_messages,
            "some early messages should still ride the uncoded path"
        );
        // Most destinations take their last message hot (coded); a
        // destination whose traffic all landed early may legitimately finish
        // uncoded, unless the run outlasts the transient everywhere.
        let active = report.active_onis().count();
        let coded = report
            .active_onis()
            .filter(|o| o.scheme == EccScheme::Hamming7164)
            .count();
        assert!(
            2 * coded > active,
            "seed {seed}: only {coded}/{active} destinations ended coded"
        );
        if all_coded {
            assert_eq!(
                coded, active,
                "seed {seed}: every channel ends hot and coded"
            );
        }
        assert_eq!(
            report.stats.delivered_messages,
            report.stats.injected_messages
        );
    }
}
