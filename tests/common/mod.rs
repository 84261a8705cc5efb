//! Helpers shared by the root integration tests.

use onoc_ecc::sim::RunReport;
use onoc_ecc::thermal::bank::{fnv1a_seed, fnv1a_u64};

/// FNV-1a digest over every order-sensitive field of a report: aggregate
/// stats, the per-ONI table, the time-ordered switch log and the epoch
/// trajectory.  Any reordering introduced by a collection swap changes it.
/// It leaves out the configuration, `baseline_scheme` and `solver_cache`.
pub fn digest(report: &RunReport) -> u64 {
    let mix_u64 = |h: &mut u64, v: u64| *h = fnv1a_u64(*h, v);
    let mut h = fnv1a_seed();
    for v in [
        report.stats.injected_messages,
        report.stats.delivered_messages,
        report.stats.delivered_bits,
        report.stats.corrupted_words,
        report.stats.corrupted_bits,
        report.stats.corrected_words,
        report.stats.deadline_misses,
        report.epochs,
        report.decisions,
        report.infeasible_requests,
        report.reconfigured_messages,
    ] {
        mix_u64(&mut h, v);
    }
    for v in [
        report.stats.makespan_ns,
        report.stats.channel_busy_ns,
        report.stats.total_latency_ns,
        report.stats.max_latency_ns,
        report.stats.energy_pj,
        report.stats.static_energy_pj,
        report.baseline_channel_power_mw,
        report.baseline_decoded_ber,
    ] {
        mix_u64(&mut h, v.to_bits());
    }
    for oni in &report.per_oni {
        mix_u64(&mut h, oni.oni as u64);
        mix_u64(&mut h, oni.delivered_messages);
        mix_u64(&mut h, oni.final_temperature_c.to_bits());
        mix_u64(&mut h, oni.peak_temperature_c.to_bits());
        mix_u64(&mut h, oni.scheme as u64);
        mix_u64(&mut h, oni.channel_power_mw.to_bits());
        mix_u64(&mut h, oni.tuning_power_mw_per_lane.to_bits());
        mix_u64(&mut h, oni.scheme_switches);
        mix_u64(&mut h, oni.decisions);
        mix_u64(&mut h, oni.infeasible_requests);
        mix_u64(&mut h, oni.static_energy_pj.to_bits());
        mix_u64(&mut h, oni.dynamic_energy_pj.to_bits());
    }
    for s in &report.switch_log {
        mix_u64(&mut h, s.time_ns.to_bits());
        mix_u64(&mut h, s.oni as u64);
        mix_u64(&mut h, s.from as u64);
        mix_u64(&mut h, s.to as u64);
        mix_u64(&mut h, s.temperature_c.to_bits());
        mix_u64(&mut h, s.epoch.map_or(u64::MAX, |e| e));
    }
    for t in &report.trajectory {
        mix_u64(&mut h, t.time_ns.to_bits());
        mix_u64(&mut h, t.min_temperature_c.to_bits());
        mix_u64(&mut h, t.max_temperature_c.to_bits());
        mix_u64(&mut h, t.reconfigured_onis as u64);
    }
    h
}
