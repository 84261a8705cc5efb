//! Workspace-level integration tests of the closed thermo-electrical loop:
//! activity-driven heating, the epoch engine's hysteresis, and the memoized
//! operating-point cache that keeps the loop affordable.

use onoc_ecc::ecc::EccScheme;
use onoc_ecc::link::{ThermalLinkStack, TrafficClass};
use onoc_ecc::sim::traffic::TrafficPattern;
use onoc_ecc::sim::{DecisionPolicy, RingVariationConfig, RunReport, ScenarioBuilder};
use onoc_ecc::thermal::{BankTuningMode, RcNetworkParameters};
use onoc_ecc::units::Microwatts;

/// 8 self-heating ONIs over the paper package under the default epoch-gated
/// policy, each source sending `messages` 16-word messages.
fn uniform_builder(class: TrafficClass, seed: u64, messages: u64) -> ScenarioBuilder {
    ScenarioBuilder::new()
        .oni_count(8)
        .pattern(TrafficPattern::UniformRandom {
            messages_per_node: messages,
        })
        .class(class)
        .words_per_message(16)
        .mean_inter_arrival_ns(8.0)
        .nominal_ber(1e-11)
        .seed(seed)
        .activity_coupled(RcNetworkParameters::paper_package())
        .policy(DecisionPolicy::epoch_gated())
}

fn uniform_run(class: TrafficClass, seed: u64, messages: u64) -> RunReport {
    uniform_builder(class, seed, messages)
        .build()
        .unwrap()
        .run()
}

fn peak(report: &RunReport) -> f64 {
    report
        .per_oni
        .iter()
        .map(|o| o.peak_temperature_c)
        .fold(f64::NEG_INFINITY, f64::max)
}

#[test]
fn feedback_reaches_a_steady_state_on_uniform_traffic() {
    for (seed, messages) in [(3, 150), (11, 150), (29, 150), (5, 120)] {
        let report = uniform_run(TrafficClass::LatencyFirst, seed, messages);
        // Everything is delivered and the temperatures stay bounded.
        assert_eq!(
            report.stats.delivered_messages,
            report.stats.injected_messages
        );
        for oni in &report.per_oni {
            assert!(
                oni.peak_temperature_c > 25.0 && oni.peak_temperature_c < 100.0,
                "seed {seed}: ONI {} peaked at {}",
                oni.oni,
                oni.peak_temperature_c
            );
            assert!(oni.final_temperature_c > 25.0);
            // No oscillation: at most the single uncoded → coded switch.
            assert!(
                oni.scheme_switches <= 1,
                "seed {seed}: ONI {} flapped ({} switches)",
                oni.oni,
                oni.scheme_switches
            );
        }
        // The last quarter of the trajectory is quiescent: the temperature
        // envelope moves by well under a kelvin and the coded-ONI count is
        // frozen — a steady state, not a limit cycle.
        let tail = &report.trajectory[report.trajectory.len() * 3 / 4..];
        let max_t: Vec<f64> = tail.iter().map(|s| s.max_temperature_c).collect();
        let spread = max_t.iter().copied().fold(f64::NEG_INFINITY, f64::max)
            - max_t.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(spread < 1.0, "seed {seed}: tail still moving by {spread} K");
        assert!(tail
            .windows(2)
            .all(|w| w[0].reconfigured_onis == w[1].reconfigured_onis));
    }
}

#[test]
fn self_heating_forces_the_coded_path_without_any_prescribed_trace() {
    for (seed, messages) in [(7, 150), (5, 120)] {
        let scenario = uniform_builder(TrafficClass::LatencyFirst, seed, messages)
            .build()
            .unwrap();
        let injected = scenario.message_count() as u64;
        let report = scenario.run();
        assert_eq!(report.stats.delivered_messages, injected);
        assert_eq!(report.baseline_scheme, EccScheme::Uncoded);
        assert!(report.epochs > 10);
        // No prescribed trace anywhere — the uncoded laser's own dissipation
        // must carry the channels past the uncoded link's collapse.
        assert!(report.total_switches() > 0);
        assert!(report
            .switch_log
            .iter()
            .all(|s| s.from == EccScheme::Uncoded && s.to == EccScheme::Hamming7164));
        assert!(report
            .per_oni
            .iter()
            .all(|o| o.scheme == EccScheme::Hamming7164));
        // The switch sheds laser power: the package ends cooler than its
        // peak, yet every channel holds the coded path via hysteresis.
        let peak = report
            .trajectory
            .iter()
            .map(|s| s.max_temperature_c)
            .fold(f64::NEG_INFINITY, f64::max);
        let last = report.trajectory.last().unwrap();
        assert!(
            last.max_temperature_c < peak - 1.0,
            "seed {seed}: no cool-down: peak {peak}, final {}",
            last.max_temperature_c
        );
        assert_eq!(last.reconfigured_onis, report.config.oni_count);
    }
}

#[test]
fn the_cache_keeps_many_epoch_runs_affordable() {
    for (seed, messages) in [(13, 150), (5, 120)] {
        let report = uniform_run(TrafficClass::LatencyFirst, seed, messages);
        let cache = report.solver_cache;
        assert!(report.decisions > 0);
        // The manager asks up to three schemes per re-decision, yet the
        // solver runs only once per distinct (scheme, BER, temperature
        // bucket).
        assert!(cache.hits > 0, "re-asks must hit the cache");
        assert!(
            cache.misses < (report.decisions + 1) * 3,
            "misses {} vs {} queries",
            cache.misses,
            (report.decisions + 1) * 3
        );
        assert!(cache.total() > cache.misses * 2, "{cache:?}");
        assert!(cache.hit_rate() > 0.5, "{cache:?}");
    }
}

#[test]
fn bulk_traffic_is_thermally_self_limiting() {
    // Bulk starts on the coded point: less power in, a cooler package, and
    // the loop never needs to switch anything.
    for messages in [150, 120] {
        let report = uniform_run(TrafficClass::Bulk, 5, messages);
        assert_eq!(report.baseline_scheme, EccScheme::Hamming7164);
        assert_eq!(report.total_switches(), 0);
        assert!(report.per_oni.iter().all(|o| o.peak_temperature_c < 60.0));
        let hot = uniform_run(TrafficClass::LatencyFirst, 5, messages);
        assert!(peak(&report) < peak(&hot));
    }
}

#[test]
fn zero_sigma_fleet_reproduces_the_homogeneous_run_bit_identically() {
    let homogeneous = uniform_run(TrafficClass::LatencyFirst, 5, 120);
    let trivially_varied = uniform_builder(TrafficClass::LatencyFirst, 5, 120)
        .variation(RingVariationConfig {
            sigma_nm: 0.0,
            seed: 1234,
            mode: BankTuningMode::PureHeater,
        })
        .build()
        .unwrap()
        .run();
    // Per-ONI managers with σ = 0 chips take bit-identical decisions; only
    // the aggregated cache counters and the config itself differ.
    assert_eq!(homogeneous.stats, trivially_varied.stats);
    assert_eq!(homogeneous.per_oni, trivially_varied.per_oni);
    assert_eq!(homogeneous.switch_log, trivially_varied.switch_log);
    assert_eq!(homogeneous.trajectory, trivially_varied.trajectory);
    assert_eq!(
        homogeneous.baseline_scheme,
        trivially_varied.baseline_scheme
    );
}

#[test]
fn barrel_shift_fleet_spends_less_tuning_power_than_pure_heater() {
    // Bulk traffic stays on H(71,64) throughout, so the two runs differ
    // only in how the heaters fight the self-heating drift — no scheme
    // switches to confound the comparison.
    let run = |mode: BankTuningMode| {
        uniform_builder(TrafficClass::Bulk, 5, 120)
            .variation(RingVariationConfig {
                sigma_nm: 0.04,
                seed: 7,
                mode,
            })
            .build()
            .unwrap()
            .run()
    };
    let pure = run(BankTuningMode::PureHeater);
    let barrel = run(BankTuningMode::full_barrel_shift(16));
    assert_eq!(pure.total_switches(), 0);
    assert_eq!(barrel.total_switches(), 0);
    // Cheaper tuning at the same scheme means less dissipated energy and
    // a cooler fleet.
    assert!(barrel.stats.energy_pj <= pure.stats.energy_pj);
    assert!(peak(&barrel) <= peak(&pure) + 1e-9);
}

#[test]
fn invalid_feedback_configurations_are_rejected() {
    let rejects = |builder: ScenarioBuilder, needle: &str| {
        let err = builder.build().unwrap_err();
        assert!(err.to_string().contains(needle), "{needle}: {err}");
    };
    let base = || uniform_builder(TrafficClass::LatencyFirst, 5, 120);
    let policy = |epoch_ns: f64, quantization_k: f64, hysteresis_k: f64| {
        base().policy(DecisionPolicy::EpochGated {
            epoch_ns,
            quantization_k,
            hysteresis_k,
            revert_hysteresis_k: 10.0,
        })
    };
    rejects(policy(0.0, 0.5, 1.5), "epoch");
    rejects(policy(25.0, f64::NAN, 1.5), "quantization");
    rejects(policy(25.0, 0.5, -1.0), "hysteresis");
    rejects(
        base().activity_coupled(RcNetworkParameters {
            heat_capacity_pj_per_k: 0.0,
            ..RcNetworkParameters::paper_package()
        }),
        "heat capacity",
    );
    rejects(base().mean_inter_arrival_ns(-1.0), "inter-arrival");

    // Invalid fleet variation and link stacks.
    let variation = |sigma_nm: f64, mode: BankTuningMode| {
        base().variation(RingVariationConfig {
            sigma_nm,
            seed: 0,
            mode,
        })
    };
    rejects(variation(-0.01, BankTuningMode::PureHeater), "sigma");
    assert!(variation(f64::NAN, BankTuningMode::PureHeater)
        .build()
        .is_err());
    rejects(
        variation(0.04, BankTuningMode::BarrelShift { max_shift: 0 }),
        "barrel-shift",
    );
    let mut stack = ThermalLinkStack::paper_default();
    stack.rings.drift_nm_per_kelvin = f64::NAN;
    rejects(base().stack(stack), "drift slope");
    let mut stack = ThermalLinkStack::paper_default();
    stack.tuner.max_power_per_ring = Microwatts::new(1.0) * f64::INFINITY;
    rejects(base().stack(stack), "saturation");
}
