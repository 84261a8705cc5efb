//! Regression pins for the D001 (determinism / cache-safety) collection
//! audit: the simulator's per-message bookkeeping moved from
//! `std::collections::HashMap`/`HashSet` to ordered collections
//! (`BTreeMap`/`BTreeSet`) so no randomized iteration order can ever reach a
//! `RunReport`, the switch log, or a telemetry stream.  The digests below
//! were captured from the pre-conversion (HashMap) engine; the conversion
//! must be bit-identical, and these goldens keep it that way.

use onoc_ecc::ecc::EccScheme;
use onoc_ecc::link::TrafficClass;
use onoc_ecc::sim::traffic::TrafficPattern;
use onoc_ecc::sim::{DecisionPolicy, RingVariationConfig, RunReport, ScenarioBuilder};
use onoc_ecc::thermal::{BankTuningMode, RcNetworkParameters, ThermalEnvironment, WorkloadTrace};
use onoc_ecc::units::Celsius;

mod common;
use common::digest;

/// Per-message policy over a prescribed hotspot: exercises the message /
/// decision-assignment maps and the per-destination arbiter and busy maps.
fn per_message_report() -> RunReport {
    ScenarioBuilder::new()
        .oni_count(8)
        .pattern(TrafficPattern::UniformRandom {
            messages_per_node: 40,
        })
        .class(TrafficClass::LatencyFirst)
        .words_per_message(16)
        .mean_inter_arrival_ns(6.0)
        .seed(23)
        .prescribed(ThermalEnvironment::Hotspot {
            base: Celsius::new(30.0),
            peak: Celsius::new(70.0),
            center: 2,
            decay_per_hop: 0.5,
        })
        .build()
        .expect("valid per-message scenario")
        .run()
}

/// Epoch-gated policy over a workload-heated fleet with per-ONI fabrication
/// variation: exercises the arbiter map and the sharded re-ask path.
fn epoch_gated_report() -> RunReport {
    ScenarioBuilder::new()
        .oni_count(8)
        .pattern(TrafficPattern::UniformRandom {
            messages_per_node: 60,
        })
        .class(TrafficClass::LatencyFirst)
        .words_per_message(16)
        .mean_inter_arrival_ns(8.0)
        .seed(31)
        .workload_heated(
            RcNetworkParameters {
                ambient: Celsius::new(25.0),
                heat_capacity_pj_per_k: 2000.0,
                ambient_resistance_k_per_mw: 0.06,
                coupling_resistance_k_per_mw: 1.5,
            },
            WorkloadTrace::hot_cluster(8, 3, 250.0, 0.45),
        )
        .variation(RingVariationConfig {
            sigma_nm: 0.04,
            seed: 7,
            mode: BankTuningMode::PureHeater,
        })
        .policy(DecisionPolicy::epoch_gated())
        .build()
        .expect("valid epoch-gated scenario")
        .run()
}

#[test]
fn per_message_report_is_pinned_across_the_collection_swap() {
    let report = per_message_report();
    println!("per-message digest = 0x{:016X}", digest(&report));
    println!(
        "delivered = {}, switches = {}, energy = {}",
        report.stats.delivered_messages,
        report.total_switches(),
        report.stats.energy_pj
    );
    assert_eq!(report.stats.delivered_messages, 8 * 40);
    assert_eq!(digest(&report), GOLDEN_PER_MESSAGE);
}

#[test]
fn epoch_gated_report_is_pinned_across_the_collection_swap() {
    let report = epoch_gated_report();
    println!("epoch-gated digest = 0x{:016X}", digest(&report));
    println!(
        "delivered = {}, switches = {}, epochs = {}",
        report.stats.delivered_messages,
        report.total_switches(),
        report.epochs
    );
    assert_eq!(report.stats.delivered_messages, 8 * 60);
    assert!(report.total_switches() > 0, "cluster must split the ring");
    assert_eq!(digest(&report), GOLDEN_EPOCH_GATED);
}

#[test]
fn reports_are_bit_identical_across_reruns_and_thread_counts() {
    let a = epoch_gated_report();
    let b = epoch_gated_report();
    assert_eq!(a, b, "same config must reproduce bit-identically");
    let threaded = {
        let mut r = ScenarioBuilder::from_config(a.config.clone());
        r = r.threads(4);
        r.build().expect("valid threaded scenario").run()
    };
    let mut normalized = threaded.clone();
    normalized.config.threads = a.config.threads;
    assert_eq!(a, normalized, "thread budget must not change the report");
}

#[test]
fn distinct_final_schemes_sees_the_split() {
    let report = epoch_gated_report();
    assert_eq!(report.distinct_final_schemes(), 2);
    assert!(report
        .per_oni
        .iter()
        .any(|o| o.scheme == EccScheme::Hamming7164));
}

// Captured from the pre-conversion (HashMap-based) engine; see module docs.
const GOLDEN_PER_MESSAGE: u64 = 0xB47B_376D_9EB7_A8BD;
// Re-captured when the epoch engine moved to destination-sharded playback:
// completions took schedule-independent sequence numbers and error
// injection moved to per-message RNG streams, so the digest changed once,
// deliberately.  It still pins every ordering-sensitive field against
// future collection or scheduling regressions.
const GOLDEN_EPOCH_GATED: u64 = 0x788F_90DA_5492_1855;
