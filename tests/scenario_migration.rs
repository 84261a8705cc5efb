//! Golden pins for the unified scenario surface, and its builder contract.
//!
//! The six goldens at the bottom of this file were captured from
//! `ScenarioBuilder` runs while the pre-builder entry points still existed
//! and were asserted bit-identical to them in the same tree: four
//! per-message runs of the old `Simulation` (fixed ambient, and prescribed
//! ambient, hotspot and transient environments) and two runs of the old
//! closed-loop `FeedbackSimulation` (homogeneous and with per-ONI
//! fabrication variation).  Each pins the report digest plus the two fields
//! the digest leaves out, the baseline scheme and the solver-cache counters.
//! The builder itself must also be insensitive to the order its fields are
//! set in.

use onoc_ecc::ecc::EccScheme;
use onoc_ecc::link::{CacheCounters, SharedOpCache, TrafficClass};
use onoc_ecc::sim::traffic::TrafficPattern;
use onoc_ecc::sim::{DecisionPolicy, RingVariationConfig, RunReport, ScenarioBuilder};
use onoc_ecc::thermal::{BankTuningMode, RcNetworkParameters, ThermalEnvironment};
use onoc_ecc::units::Celsius;
use proptest::prelude::*;

mod common;
use common::digest;

/// What a golden pins about one builder run: the report digest plus the two
/// fields the digest leaves out.
struct Golden {
    digest: u64,
    baseline_scheme: EccScheme,
    solver_cache: CacheCounters,
}

fn assert_golden(report: &RunReport, golden: &Golden) {
    assert_eq!(
        digest(report),
        golden.digest,
        "report digest 0x{:016X}",
        digest(report)
    );
    assert_eq!(report.baseline_scheme, golden.baseline_scheme);
    assert_eq!(report.solver_cache, golden.solver_cache);
}

/// The per-message scenario of the first four goldens: 8 ONIs of
/// latency-first traffic with deadlines, optionally over a prescribed
/// thermal environment at 0.5 K decision buckets.
fn per_message_run(environment: Option<ThermalEnvironment>) -> RunReport {
    let mut builder = ScenarioBuilder::new()
        .oni_count(8)
        .pattern(TrafficPattern::UniformRandom {
            messages_per_node: 20,
        })
        .class(TrafficClass::LatencyFirst)
        .words_per_message(8)
        .mean_inter_arrival_ns(4.0)
        .deadline_slack_ns(Some(80.0))
        .nominal_ber(1e-11)
        .seed(31);
    if let Some(environment) = environment {
        builder = builder
            .prescribed(environment)
            .policy(DecisionPolicy::per_message());
    }
    builder.build().unwrap().run()
}

/// The epoch-gated scenario of the last two goldens: 6 self-heating ONIs of
/// latency-first traffic over the paper package, optionally with per-ONI
/// fabrication variation.
fn feedback_builder(variation: Option<RingVariationConfig>) -> ScenarioBuilder {
    let builder = ScenarioBuilder::new()
        .oni_count(6)
        .pattern(TrafficPattern::UniformRandom {
            messages_per_node: 80,
        })
        .class(TrafficClass::LatencyFirst)
        .words_per_message(16)
        .mean_inter_arrival_ns(8.0)
        .nominal_ber(1e-11)
        .seed(5)
        .activity_coupled(RcNetworkParameters::paper_package())
        .policy(DecisionPolicy::epoch_gated());
    match variation {
        Some(variation) => builder.variation(variation),
        None => builder,
    }
}

fn hotspot() -> ThermalEnvironment {
    ThermalEnvironment::Hotspot {
        base: Celsius::new(30.0),
        peak: Celsius::new(85.0),
        center: 2,
        decay_per_hop: 0.4,
    }
}

fn transient() -> ThermalEnvironment {
    ThermalEnvironment::Transient {
        start: Celsius::new(25.0),
        target: Celsius::new(85.0),
        time_constant_ns: 150.0,
    }
}

const VARIATION: RingVariationConfig = RingVariationConfig {
    sigma_nm: 0.040,
    seed: 11,
    mode: BankTuningMode::PureHeater,
};

#[test]
fn plain_simulation_is_bit_identical_through_the_builder() {
    assert_golden(&per_message_run(None), &GOLDEN_PLAIN);
}

#[test]
fn ambient_thermal_scenario_is_bit_identical_through_the_builder() {
    assert_golden(
        &per_message_run(Some(ThermalEnvironment::paper_ambient())),
        &GOLDEN_AMBIENT,
    );
}

#[test]
fn hotspot_scenario_is_bit_identical_through_the_builder() {
    assert_golden(&per_message_run(Some(hotspot())), &GOLDEN_HOTSPOT);
}

#[test]
fn transient_scenario_is_bit_identical_through_the_builder() {
    assert_golden(&per_message_run(Some(transient())), &GOLDEN_TRANSIENT);
}

#[test]
fn homogeneous_feedback_is_bit_identical_through_the_builder() {
    assert_golden(
        &feedback_builder(None).build().unwrap().run(),
        &GOLDEN_FEEDBACK,
    );
}

#[test]
fn heterogeneous_feedback_is_bit_identical_through_the_builder() {
    assert_golden(
        &feedback_builder(Some(VARIATION)).build().unwrap().run(),
        &GOLDEN_FEEDBACK_VARIED,
    );
}

#[test]
fn solver_cache_counts_only_its_own_scenario_over_a_shared_cache() {
    // Two scenarios in a row over one injected cache: the first solves
    // every point, the second finds them all cached.  Each report counts
    // its own lookups, not the cache's lifetime totals.
    let cache = SharedOpCache::new();
    let run = || {
        feedback_builder(None)
            .shared_cache(cache.clone())
            .build()
            .unwrap()
            .run()
    };
    let cold = run();
    let warm = run();
    assert_eq!(digest(&cold), GOLDEN_FEEDBACK.digest);
    assert_eq!(digest(&warm), GOLDEN_FEEDBACK.digest);
    assert!(cold.solver_cache.misses > 0);
    assert_eq!(warm.solver_cache.misses, 0, "{}", warm.solver_cache);
    assert_eq!(warm.solver_cache.hits, cold.solver_cache.total());
    assert_eq!(warm.solver_cache.entries, cold.solver_cache.entries);
    assert_eq!(cache.counters().misses, cold.solver_cache.misses);
}

#[test]
fn sharded_reasks_are_bit_identical_to_the_serial_loop() {
    // Heterogeneous fleets shard their per-ONI epoch re-asks across
    // threads; the ordered merge must keep the whole report (including the
    // aggregated cache counters) bit-identical at every thread count.
    let run = |threads: usize| {
        feedback_builder(Some(VARIATION))
            .threads(threads)
            .build()
            .unwrap()
            .run()
    };
    let serial = run(1);
    for threads in [2, 4, 8] {
        let sharded = run(threads);
        // The configs differ only in the thread budget, which must never
        // leak into the physics.
        assert_eq!(serial.stats, sharded.stats, "{threads} threads");
        assert_eq!(serial.per_oni, sharded.per_oni, "{threads} threads");
        assert_eq!(serial.switch_log, sharded.switch_log, "{threads} threads");
        assert_eq!(serial.trajectory, sharded.trajectory, "{threads} threads");
        assert_eq!(
            serial.solver_cache, sharded.solver_cache,
            "{threads} threads"
        );
        assert_eq!(serial.decisions, sharded.decisions, "{threads} threads");
    }
}

#[test]
fn epoch_gated_policy_now_drives_prescribed_models_too() {
    // A combination neither pre-builder entry point could express: the feedback
    // engine's hysteresis machinery over a *prescribed* transient trace.
    let report = ScenarioBuilder::new()
        .oni_count(6)
        .pattern(TrafficPattern::UniformRandom {
            messages_per_node: 60,
        })
        .class(TrafficClass::LatencyFirst)
        .words_per_message(16)
        .mean_inter_arrival_ns(6.0)
        .seed(9)
        .prescribed(ThermalEnvironment::Transient {
            start: Celsius::new(25.0),
            target: Celsius::new(85.0),
            time_constant_ns: 500.0,
        })
        .policy(DecisionPolicy::epoch_gated())
        .build()
        .unwrap()
        .run();
    assert_eq!(report.baseline_scheme, EccScheme::Uncoded);
    assert!(report.epochs > 0);
    assert!(
        report.total_switches() > 0,
        "the prescribed heat-up must force epoch-gated switches"
    );
    assert!(report
        .per_oni
        .iter()
        .all(|o| o.scheme == EccScheme::Hamming7164));
}

#[test]
fn switch_log_epoch_indices_are_pinned() {
    // Golden pin of the switch-log epoch field.  The epoch-gated engine
    // stamps every switch with the index of the epoch whose boundary took
    // the decision — including over a *prescribed* transient, the
    // combination whose entries used to omit it.
    let epoch_gated = ScenarioBuilder::new()
        .oni_count(6)
        .pattern(TrafficPattern::UniformRandom {
            messages_per_node: 60,
        })
        .class(TrafficClass::LatencyFirst)
        .words_per_message(16)
        .mean_inter_arrival_ns(6.0)
        .seed(9)
        .prescribed(ThermalEnvironment::Transient {
            start: Celsius::new(25.0),
            target: Celsius::new(85.0),
            time_constant_ns: 500.0,
        })
        .policy(DecisionPolicy::epoch_gated())
        .build()
        .unwrap()
        .run();
    assert!(epoch_gated.total_switches() > 0, "the heat-up must switch");
    let mut last_epoch = 0;
    for switch in &epoch_gated.switch_log {
        let epoch = switch
            .epoch
            .expect("every epoch-gated switch carries its epoch index");
        // The index points at the trajectory sample of the very boundary
        // the decision was taken on.
        let sample = epoch_gated.trajectory[usize::try_from(epoch).unwrap()];
        assert_eq!(sample.time_ns.to_bits(), switch.time_ns.to_bits());
        assert!(epoch >= last_epoch, "epochs are logged in order");
        last_epoch = epoch;
    }
    // Golden values for this exact configuration: all six channels escape
    // the uncoded path at the boundary of epoch 12 (t = 325 ns).
    assert_eq!(epoch_gated.total_switches(), 6);
    assert!(epoch_gated.switch_log.iter().all(|s| s.epoch == Some(12)));
    assert!(epoch_gated
        .switch_log
        .iter()
        .all(|s| (s.time_ns - 325.0).abs() < 1e-9));

    // The per-message engine steps no epochs: its entries carry `None`,
    // uniformly, instead of omitting the field.
    let per_message = ScenarioBuilder::new()
        .oni_count(6)
        .pattern(TrafficPattern::UniformRandom {
            messages_per_node: 60,
        })
        .class(TrafficClass::LatencyFirst)
        .words_per_message(16)
        .mean_inter_arrival_ns(6.0)
        .seed(9)
        .prescribed(ThermalEnvironment::Transient {
            start: Celsius::new(25.0),
            target: Celsius::new(85.0),
            time_constant_ns: 500.0,
        })
        .policy(DecisionPolicy::PerMessage {
            quantization_k: 0.5,
        })
        .build()
        .unwrap()
        .run();
    assert_eq!(per_message.epochs, 0);
    assert!(per_message.total_switches() > 0);
    assert!(per_message.switch_log.iter().all(|s| s.epoch.is_none()));
}

#[test]
fn builder_rejects_invalid_cache_resolutions() {
    for bad in [0.0, -2.0, f64::NAN, f64::INFINITY] {
        let err = ScenarioBuilder::new()
            .cache_resolution(bad)
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("cache resolution"), "{bad}: {err}");
    }
    // A valid override still builds and runs.
    let report = ScenarioBuilder::new()
        .oni_count(4)
        .pattern(TrafficPattern::UniformRandom {
            messages_per_node: 5,
        })
        .cache_resolution(4.0)
        .build()
        .unwrap()
        .run();
    assert_eq!(
        report.stats.delivered_messages,
        report.stats.injected_messages
    );
}

#[test]
fn builder_rejects_per_message_policy_over_coupled_models() {
    let err = ScenarioBuilder::new()
        .activity_coupled(RcNetworkParameters::paper_package())
        .policy(DecisionPolicy::per_message())
        .build()
        .unwrap_err();
    assert!(err.to_string().contains("epoch-gated"), "{err}");
}

#[test]
fn builder_rejects_per_message_policy_over_heterogeneous_fleets() {
    // The per-message engine keeps one fleet-wide baseline for static-power
    // residency and switch bookkeeping; mixing it with per-ONI chip
    // instances would mis-account idle energy and log phantom switches, so
    // the combination is rejected up front.  The epoch-gated policy carries
    // per-ONI baselines and accepts the same fleet.
    let variation = RingVariationConfig {
        sigma_nm: 0.08,
        seed: 7,
        mode: BankTuningMode::PureHeater,
    };
    let err = ScenarioBuilder::new()
        .variation(variation)
        .policy(DecisionPolicy::per_message())
        .build()
        .unwrap_err();
    assert!(err.to_string().contains("epoch-gated"), "{err}");
    // Implicit per-message (prescribed default policy) is rejected too.
    let err = ScenarioBuilder::new()
        .variation(variation)
        .build()
        .unwrap_err();
    assert!(err.to_string().contains("epoch-gated"), "{err}");
    // The same fleet under the epoch-gated policy builds fine.
    assert!(ScenarioBuilder::new()
        .variation(variation)
        .activity_coupled(RcNetworkParameters::paper_package())
        .policy(DecisionPolicy::epoch_gated())
        .build()
        .is_ok());
}

proptest! {
    /// The builder's setters commute: any two application orders of the same
    /// field values produce identical configurations and identical reports.
    #[test]
    fn builder_field_order_never_changes_the_report(
        seed in 0u64..500,
        oni_count in 3usize..7,
        words in 1u64..9,
        messages in 1u64..12,
        class_index in 0usize..3,
    ) {
        let class = [TrafficClass::LatencyFirst, TrafficClass::Bulk, TrafficClass::Multimedia]
            [class_index];
        let pattern = TrafficPattern::UniformRandom { messages_per_node: messages };
        let network = RcNetworkParameters::paper_package();
        let forward = ScenarioBuilder::new()
            .oni_count(oni_count)
            .pattern(pattern)
            .class(class)
            .words_per_message(words)
            .seed(seed)
            .activity_coupled(network)
            .policy(DecisionPolicy::epoch_gated());
        let reversed = ScenarioBuilder::new()
            .policy(DecisionPolicy::epoch_gated())
            .activity_coupled(network)
            .seed(seed)
            .words_per_message(words)
            .class(class)
            .pattern(pattern)
            .oni_count(oni_count);
        prop_assert_eq!(forward.config(), reversed.config());
        let a = forward.build().unwrap().run();
        let b = reversed.build().unwrap().run();
        prop_assert_eq!(a, b);
    }
}

// Captured from the builder while the equivalent `Simulation` and
// `FeedbackSimulation` runs were asserted bit-identical to it.
const GOLDEN_PLAIN: Golden = Golden {
    digest: 0xC3A6_B8C9_6072_5934,
    baseline_scheme: EccScheme::Uncoded,
    solver_cache: CacheCounters {
        hits: 3,
        misses: 3,
        entries: 3,
    },
};
const GOLDEN_AMBIENT: Golden = Golden {
    digest: 0xC3A6_B8C9_6072_5934,
    baseline_scheme: EccScheme::Uncoded,
    solver_cache: CacheCounters {
        hits: 3,
        misses: 3,
        entries: 3,
    },
};
const GOLDEN_HOTSPOT: Golden = Golden {
    digest: 0x02C3_4424_3230_62B3,
    baseline_scheme: EccScheme::Uncoded,
    solver_cache: CacheCounters {
        hits: 0,
        misses: 18,
        entries: 18,
    },
};
const GOLDEN_TRANSIENT: Golden = Golden {
    digest: 0x9B27_7AF7_3361_1C77,
    baseline_scheme: EccScheme::Uncoded,
    solver_cache: CacheCounters {
        hits: 3,
        misses: 153,
        entries: 153,
    },
};
const GOLDEN_FEEDBACK: Golden = Golden {
    digest: 0x0234_9C43_D260_B607,
    baseline_scheme: EccScheme::Uncoded,
    solver_cache: CacheCounters {
        hits: 147,
        misses: 99,
        entries: 99,
    },
};
const GOLDEN_FEEDBACK_VARIED: Golden = Golden {
    digest: 0x9462_22AC_267F_1399,
    baseline_scheme: EccScheme::Uncoded,
    solver_cache: CacheCounters {
        hits: 0,
        misses: 267,
        entries: 267,
    },
};
