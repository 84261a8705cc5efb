//! Output checks, made from outside the simulator on every run.
//!
//! Each check counts once towards `attempted`; a failed check counts towards
//! `failed` and is described on standard error.

use onoc_link::CacheCounters;
use onoc_sim::RunReport;

use crate::workloads::{Kind, Size};

/// The seed the pinned physics digests were taken at.
pub const DEFAULT_SEED: u64 = 1;

/// Relative tolerance of the per-ONI energy sums: the fleet totals are
/// accumulated in another order than the per-ONI entries.
const ENERGY_SUM_TOLERANCE: f64 = 1e-9;

/// Physics digests (see [`digest`]) of the first cold run of every workload
/// at [`DEFAULT_SEED`].  A change to these values is a change to the
/// simulated physics.
const PINNED_DIGESTS: [(Kind, Size, u64); 8] = [
    (Kind::FleetSolverBound, Size::Full, 0xfd0b_374e_f5a3_c769),
    (Kind::FleetSolverBound, Size::Toy, 0xd790_003f_89c9_b154),
    (Kind::FleetPlaybackBound, Size::Full, 0x8ace_7d65_3451_86be),
    (Kind::FleetPlaybackBound, Size::Toy, 0xfc59_02c8_ecc2_f8d6),
    (Kind::VariationBarrel, Size::Full, 0x90e7_ce93_1bfd_4b87),
    (Kind::VariationBarrel, Size::Toy, 0x7dee_121b_cae2_2fd2),
    (Kind::PerMessageHotspot, Size::Full, 0xa135_567e_3588_a631),
    (Kind::PerMessageHotspot, Size::Toy, 0x29f7_3197_2108_0761),
];

/// Tally of the checks made in one benchmark run.
#[derive(Debug, Default)]
pub struct Checks {
    attempted: u64,
    failed: u64,
}

impl Checks {
    /// Records one check; `what` describes it on failure.
    pub fn check(&mut self, passed: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !passed {
            self.failed += 1;
            eprintln!("perfbench: check failed: {}", what());
        }
    }

    /// Checks made.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Checks failed.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Share of the checks that passed.
    #[allow(clippy::cast_precision_loss)]
    pub fn passed_frac(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        (self.attempted - self.failed) as f64 / self.attempted as f64
    }

    /// The accounting checks every completed run must pass.
    pub fn report(&mut self, report: &RunReport, expected_messages: usize) {
        let stats = &report.stats;
        self.check(stats.injected_messages == expected_messages as u64, || {
            format!(
                "injected {} messages, the scenario generated {expected_messages}",
                stats.injected_messages
            )
        });
        self.check(stats.delivered_messages == stats.injected_messages, || {
            format!(
                "delivered {} of {} injected messages",
                stats.delivered_messages, stats.injected_messages
            )
        });
        let oni = &report.per_oni;
        let sum = |field: fn(&onoc_sim::OniReport) -> u64| oni.iter().map(field).sum::<u64>();
        for (name, per_oni, total) in [
            (
                "delivered messages",
                sum(|o| o.delivered_messages),
                stats.delivered_messages,
            ),
            ("decisions", sum(|o| o.decisions), report.decisions),
            (
                "infeasible requests",
                sum(|o| o.infeasible_requests),
                report.infeasible_requests,
            ),
            (
                "scheme switches",
                sum(|o| o.scheme_switches),
                report.total_switches(),
            ),
        ] {
            self.check(per_oni == total, || {
                format!("per-ONI {name} sum to {per_oni}, the fleet total is {total}")
            });
        }
        let static_pj: f64 = oni.iter().map(|o| o.static_energy_pj).sum();
        let total_pj: f64 = oni
            .iter()
            .map(|o| o.static_energy_pj + o.dynamic_energy_pj)
            .sum();
        for (name, per_oni, total) in [
            ("static energy", static_pj, stats.static_energy_pj),
            ("energy", total_pj, stats.energy_pj),
        ] {
            let close = (per_oni - total).abs() <= ENERGY_SUM_TOLERANCE * total.abs().max(1.0);
            self.check(close, || {
                format!("per-ONI {name} sums to {per_oni} pJ, the fleet total is {total} pJ")
            });
        }
        let energies = [stats.energy_pj, stats.static_energy_pj].into_iter().chain(
            oni.iter()
                .flat_map(|o| [o.static_energy_pj, o.dynamic_energy_pj]),
        );
        let bad = energies.filter(|e| !(e.is_finite() && *e >= 0.0)).count();
        self.check(bad == 0, || {
            format!("{bad} energies are negative or not finite")
        });
    }

    /// Checks that `other` reproduces `reference`'s physics bit-for-bit.
    pub fn same_physics(&mut self, reference: &RunReport, other: &RunReport, what: &str) {
        self.check(physics(reference) == physics(other), || {
            format!("{what} diverges from the cold run's physics")
        });
    }

    /// Checks the cold run's physics digest against the pinned value, when
    /// the run is at [`DEFAULT_SEED`].
    pub fn pinned_digest(&mut self, kind: Kind, size: Size, seed: u64, report: &RunReport) {
        if seed != DEFAULT_SEED {
            return;
        }
        let digest = digest(report);
        let pinned = PINNED_DIGESTS
            .iter()
            .find(|(k, s, _)| *k == kind && *s == size)
            .map(|(_, _, d)| *d);
        self.check(pinned == Some(digest), || {
            format!(
                "{} ({}) physics digest is {digest:#018x}, pinned {pinned:#018x?}",
                kind.name(),
                size.name()
            )
        });
    }
}

/// The report with everything that is not simulated physics set aside: the
/// thread budget and the solver-cache counters, which over an injected
/// cache accumulate across runs.
pub fn physics(report: &RunReport) -> RunReport {
    let mut physics = report.clone();
    physics.config.threads = 0;
    physics.solver_cache = CacheCounters::default();
    physics
}

/// FNV-1a over the simulated outcome of a run: every traffic statistic,
/// the fleet totals, and every per-ONI entry, scheme switch and epoch
/// sample, floats by their bits.  Fields are named one by one, so a field
/// later added to the report does not move the digest; any change to the
/// bits of these does.
pub fn digest(report: &RunReport) -> u64 {
    let mut hash = Fnv::default();
    let s = &report.stats;
    for value in [
        s.injected_messages,
        s.delivered_messages,
        s.hops_traversed,
        s.delivered_bits,
        s.corrupted_bits,
        s.corrupted_words,
        s.corrected_words,
        s.deadline_misses,
        report.epochs,
        report.decisions,
        report.infeasible_requests,
        report.reconfigured_messages,
    ] {
        hash.u64(value);
    }
    for value in [
        s.total_latency_ns,
        s.max_latency_ns,
        s.channel_busy_ns,
        s.energy_pj,
        s.static_energy_pj,
        s.makespan_ns,
        report.baseline_channel_power_mw,
        report.baseline_decoded_ber,
    ] {
        hash.f64(value);
    }
    hash.str(report.baseline_scheme.label());
    for o in &report.per_oni {
        for value in [
            o.oni as u64,
            o.delivered_messages,
            o.scheme_switches,
            o.decisions,
            o.infeasible_requests,
        ] {
            hash.u64(value);
        }
        for value in [
            o.final_temperature_c,
            o.peak_temperature_c,
            o.channel_power_mw,
            o.tuning_power_mw_per_lane,
            o.static_energy_pj,
            o.dynamic_energy_pj,
        ] {
            hash.f64(value);
        }
        hash.str(o.scheme.label());
    }
    for switch in &report.switch_log {
        hash.f64(switch.time_ns);
        hash.u64(switch.oni as u64);
        hash.str(switch.from.label());
        hash.str(switch.to.label());
        hash.f64(switch.temperature_c);
        hash.u64(switch.epoch.unwrap_or(u64::MAX));
    }
    for sample in &report.trajectory {
        hash.f64(sample.time_ns);
        hash.f64(sample.min_temperature_c);
        hash.f64(sample.max_temperature_c);
        hash.u64(sample.reconfigured_onis as u64);
    }
    hash.0
}

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, value: u64) {
        self.bytes(&value.to_le_bytes());
    }

    fn f64(&mut self, value: f64) {
        self.u64(value.to_bits());
    }

    fn str(&mut self, value: &str) {
        self.u64(value.len() as u64);
        self.bytes(value.as_bytes());
    }
}

/// Solver-cache traffic between two snapshots of one cache's counters.
pub fn delta(before: CacheCounters, after: CacheCounters) -> CacheCounters {
    CacheCounters {
        hits: after.hits.saturating_sub(before.hits),
        misses: after.misses.saturating_sub(before.misses),
        entries: after.entries.saturating_sub(before.entries),
    }
}
