//! Workspace-level tests of the per-message engine: one operating-point
//! decision per message, taken at injection time, over the fixed ambient or
//! a prescribed thermal environment.

use onoc_ecc::ecc::EccScheme;
use onoc_ecc::link::TrafficClass;
use onoc_ecc::sim::traffic::TrafficPattern;
use onoc_ecc::sim::{DecisionPolicy, RunReport, ScenarioBuilder, SimulationError};
use onoc_ecc::thermal::ThermalEnvironment;
use onoc_ecc::units::Celsius;

/// The small fixed-ambient scenario most tests start from: 6 ONIs of bulk
/// traffic, 15 messages of 8 words per source.
fn quick() -> ScenarioBuilder {
    ScenarioBuilder::new()
        .oni_count(6)
        .pattern(TrafficPattern::UniformRandom {
            messages_per_node: 15,
        })
        .class(TrafficClass::Bulk)
        .words_per_message(8)
        .mean_inter_arrival_ns(2.0)
        .deadline_slack_ns(None)
        .nominal_ber(1e-11)
        .seed(3)
}

/// 12 ONIs of latency-first traffic over a prescribed environment, with
/// 0.5 K decision buckets.
fn thermal(environment: ThermalEnvironment) -> ScenarioBuilder {
    quick()
        .oni_count(12)
        .class(TrafficClass::LatencyFirst)
        .pattern(TrafficPattern::UniformRandom {
            messages_per_node: 8,
        })
        .prescribed(environment)
        .policy(DecisionPolicy::per_message())
}

fn run(builder: ScenarioBuilder) -> RunReport {
    builder.build().unwrap().run()
}

fn hotspot(center: usize, decay_per_hop: f64) -> ThermalEnvironment {
    ThermalEnvironment::Hotspot {
        base: Celsius::new(30.0),
        peak: Celsius::new(85.0),
        center,
        decay_per_hop,
    }
}

fn transient(time_constant_ns: f64) -> ThermalEnvironment {
    ThermalEnvironment::Transient {
        start: Celsius::new(25.0),
        target: Celsius::new(85.0),
        time_constant_ns,
    }
}

#[test]
fn all_injected_messages_are_delivered() {
    let scenario = quick().build().unwrap();
    let injected = scenario.message_count() as u64;
    let report = scenario.run();
    assert_eq!(report.stats.injected_messages, injected);
    assert_eq!(report.stats.delivered_messages, injected);
    assert_eq!(report.stats.delivered_bits, injected * 8 * 64);
    assert!(report.stats.makespan_ns > 0.0);
    assert!(report.stats.mean_latency_ns() > 0.0);
}

#[test]
fn bulk_traffic_runs_on_h7164() {
    let report = run(quick());
    assert_eq!(report.baseline_scheme, EccScheme::Hamming7164);
    assert!(report.baseline_channel_power_mw > 50.0 && report.baseline_channel_power_mw < 300.0);
}

#[test]
fn real_time_traffic_is_faster_but_hungrier() {
    let bulk = run(quick());
    let rt = run(quick().class(TrafficClass::RealTime));
    assert_eq!(rt.baseline_scheme, EccScheme::Uncoded);
    assert!(rt.stats.mean_latency_ns() < bulk.stats.mean_latency_ns());
    assert!(rt.baseline_channel_power_mw > bulk.baseline_channel_power_mw);
    assert!(rt.stats.energy_per_bit_pj() > 0.0);
}

#[test]
fn hotspot_congestion_increases_latency() {
    let uniform = run(quick());
    let hotspot = run(quick().pattern(TrafficPattern::Hotspot {
        destination: 0,
        messages_per_node: 15,
    }));
    assert!(hotspot.stats.mean_latency_ns() > uniform.stats.mean_latency_ns());
}

#[test]
fn deadlines_are_tracked() {
    let report = run(quick()
        .class(TrafficClass::RealTime)
        .pattern(TrafficPattern::Hotspot {
            destination: 1,
            messages_per_node: 30,
        })
        .deadline_slack_ns(Some(10.0))
        .mean_inter_arrival_ns(0.5));
    // A congested hotspot with tight deadlines must miss some of them.
    assert!(report.stats.deadline_misses > 0);
    assert!(report.stats.deadline_miss_rate() <= 1.0);
}

#[test]
fn runs_are_reproducible() {
    for builder in [quick(), thermal(hotspot(3, 0.5))] {
        let a = run(builder.clone());
        let b = run(builder);
        assert_eq!(a, b);
    }
}

#[test]
fn residual_errors_are_rare_at_strict_ber() {
    let report = run(quick());
    // At BER 1e-11 the expected number of corrupted words over this run
    // is far below one.
    assert_eq!(report.stats.corrupted_bits, 0);
    assert!((report.stats.observed_ber() - 0.0).abs() < 1e-12);
}

#[test]
fn relaxed_ber_multimedia_run_still_delivers_everything() {
    let report = run(quick().class(TrafficClass::Multimedia).nominal_ber(1e-6));
    assert_eq!(
        report.stats.delivered_messages,
        report.stats.injected_messages
    );
}

#[test]
fn invalid_configurations_are_rejected() {
    let reason = |builder: ScenarioBuilder| match builder.build().unwrap_err() {
        SimulationError::InvalidConfiguration { reason } => reason,
        other => panic!("expected a configuration error, got {other}"),
    };
    reason(quick().oni_count(1));
    reason(quick().words_per_message(0));
    reason(quick().nominal_ber(0.7));
    for bad_inter_arrival in [0.0, -3.0, f64::NAN, f64::INFINITY] {
        let reason = reason(quick().mean_inter_arrival_ns(bad_inter_arrival));
        assert!(reason.contains("inter-arrival"), "{bad_inter_arrival}");
    }
    for bad_slack in [f64::NAN, -1.0, f64::INFINITY, f64::NEG_INFINITY] {
        let reason = reason(quick().deadline_slack_ns(Some(bad_slack)));
        assert!(reason.contains("deadline slack"), "{bad_slack}: {reason}");
    }
    // A zero slack is a legal (if harsh) deadline.
    assert!(quick().deadline_slack_ns(Some(0.0)).build().is_ok());
    // Invalid prescribed environments and decision grids.
    assert!(reason(thermal(hotspot(0, 1.0))).contains("decay"));
    assert!(reason(thermal(transient(0.0))).contains("time constant"));
    let zero_step =
        thermal(ThermalEnvironment::paper_ambient()).policy(DecisionPolicy::PerMessage {
            quantization_k: 0.0,
        });
    assert!(reason(zero_step).contains("quantization"));
}

#[test]
fn observed_ber_tracks_the_decoded_ber_at_a_relaxed_target() {
    // A deliberately loose BER target makes residual errors frequent
    // enough to measure: the sampled corrupted-bit count must land near
    // `decoded_ber × delivered_bits`, pinning both the per-word error
    // draw and the conditional bits-per-bad-word sampling.
    let report = run(quick()
        .oni_count(8)
        .pattern(TrafficPattern::UniformRandom {
            messages_per_node: 60,
        })
        .words_per_message(32)
        .nominal_ber(1e-3));
    let expected_ber = report.baseline_decoded_ber;
    assert!(expected_ber >= 1e-3, "decoded BER meets the nominal target");
    let observed = report.stats.observed_ber();
    assert!(
        observed > expected_ber * 0.7 && observed < expected_ber * 1.3,
        "observed {observed:e} vs decoded {expected_ber:e}"
    );
    // Bits are counted per corrupted word (≥ 1 each), so the bit count
    // can never undercut the word count.
    assert!(report.stats.corrupted_bits >= report.stats.corrupted_words);
    assert!(report.stats.corrupted_words > 0);
    let wer = report.stats.observed_word_error_rate();
    let expected_wer = 1.0 - (1.0 - expected_ber).powi(64);
    assert!(
        wer > expected_wer * 0.7 && wer < expected_wer * 1.3,
        "word error rate {wer} vs {expected_wer}"
    );
}

#[test]
fn infeasible_class_is_reported() {
    // Real-time traffic (CT = 1.0 → uncoded only) at an unreachable BER,
    // and on a uniformly hot chip where the uncoded link has collapsed.
    for builder in [
        quick().class(TrafficClass::RealTime).nominal_ber(1e-12),
        thermal(ThermalEnvironment::Uniform {
            temperature: Celsius::new(85.0),
        })
        .class(TrafficClass::RealTime),
    ] {
        let err = builder.build().unwrap_err();
        assert!(matches!(
            err,
            SimulationError::NoFeasibleConfiguration { .. }
        ));
        assert!(err.to_string().contains("RealTime"));
    }
}

#[test]
fn idle_channels_are_not_free_but_an_empty_run_is() {
    // Zero traffic: zero makespan, zero residency, zero energy.
    let empty = run(quick().pattern(TrafficPattern::UniformRandom {
        messages_per_node: 0,
    }));
    assert_eq!(empty.stats.makespan_ns, 0.0);
    assert_eq!(empty.stats.energy_pj, 0.0);
    // A single message still charges every idle channel's static power
    // over the (non-zero) makespan: energy per bit rises at low load.
    let sparse = run(quick().pattern(TrafficPattern::Streaming {
        source: 0,
        destination: 1,
        bursts: 1,
        burst_messages: 1,
    }));
    let busy = run(quick());
    assert!(sparse.stats.energy_per_bit_pj() > busy.stats.energy_per_bit_pj());
}

#[test]
fn ambient_thermal_scenario_matches_the_baseline_run() {
    let plain = run(quick()
        .oni_count(12)
        .class(TrafficClass::LatencyFirst)
        .pattern(TrafficPattern::UniformRandom {
            messages_per_node: 8,
        }));
    let ambient = run(thermal(ThermalEnvironment::paper_ambient()));
    assert_eq!(plain.stats, ambient.stats);
    assert_eq!(ambient.reconfigured_messages, 0);
    assert!(ambient
        .active_onis()
        .all(|o| o.scheme == EccScheme::Uncoded));
}

#[test]
fn hotspot_scenario_splits_the_interconnect_between_schemes() {
    let report = run(thermal(hotspot(0, 0.35)));
    assert_eq!(
        report.baseline_scheme,
        EccScheme::Uncoded,
        "baseline stays uncoded"
    );
    let schemes: std::collections::BTreeSet<_> = report.active_onis().map(|o| o.scheme).collect();
    assert_eq!(schemes.len(), 2);
    assert!(report.reconfigured_messages > 0);
    let hot = report.active_onis().find(|o| o.oni == 0).unwrap();
    assert_eq!(hot.scheme, EccScheme::Hamming7164);
    assert!(hot.tuning_power_mw_per_lane > 0.0);
    let far = report.active_onis().find(|o| o.oni == 6).unwrap();
    assert_eq!(far.scheme, EccScheme::Uncoded);
    assert!(far.final_temperature_c < hot.final_temperature_c);
}
