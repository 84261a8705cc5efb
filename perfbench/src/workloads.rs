//! The four benchmark workloads.
//!
//! Every configuration is spelled out here rather than taken from
//! `onoc_bench::perf`: the two fleet workloads mirror the parameters of
//! `perf::scale_out_builder`, and `variation_barrel` / `per_message_hotspot`
//! mirror the `epoch-variation-barrel` and `per-message-hotspot` cases of
//! `perf::scenario_matrix_with`.  An edit to the perf harness therefore
//! cannot move the benchmark.

use onoc_link::{SharedOpCache, TrafficClass};
use onoc_sim::traffic::TrafficPattern;
use onoc_sim::{DecisionPolicy, DesignAssignmentConfig, RingVariationConfig, ScenarioBuilder};
use onoc_thermal::bank::splitmix64_mix;
use onoc_thermal::{BankTuningMode, RcNetworkParameters, ThermalEnvironment, WorkloadTrace};
use onoc_units::Celsius;

/// Thread budget of every workload (the benchmark host has two cores).
pub const THREADS: usize = 2;

/// Peak per-ONI workload heat of the fleet ramp, in mW (as in
/// `perf::SCALE_OUT_MAX_WORKLOAD_MW`).
const FLEET_MAX_WORKLOAD_MW: f64 = 300.0;

/// Fine decision buckets: almost every re-ask is a new cache key.
const SOLVER_BOUND_QUANTIZATION_K: f64 = 0.003;

/// Coarse decision buckets: a thousand keys serve every re-ask.
const PLAYBACK_BOUND_QUANTIZATION_K: f64 = 0.25;

/// Which workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Homogeneous workload-heated fleet, 0.003 K buckets.
    FleetSolverBound,
    /// The same fleet shape with 0.25 K buckets.
    FleetPlaybackBound,
    /// Activity-coupled fleet with per-ONI variation, barrel-shift tuning and
    /// design-time assignment.
    VariationBarrel,
    /// The paper's per-message engine under a static hotspot.
    PerMessageHotspot,
}

impl Kind {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Kind; 4] = [
        Kind::FleetSolverBound,
        Kind::FleetPlaybackBound,
        Kind::VariationBarrel,
        Kind::PerMessageHotspot,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Kind::FleetSolverBound => "fleet_solver_bound",
            Kind::FleetPlaybackBound => "fleet_playback_bound",
            Kind::VariationBarrel => "variation_barrel",
            Kind::PerMessageHotspot => "per_message_hotspot",
        }
    }

    /// Members of the seed ensemble every end-to-end run plays in full; the
    /// simulated metrics pool them.  Sized so the ensemble fits a run of
    /// the benchmark's measuring time while averaging out the seed-to-seed
    /// spread of a small workload's latency tail.
    pub fn ensemble_size(self) -> usize {
        match self {
            Kind::FleetSolverBound => 6,
            Kind::FleetPlaybackBound => 2,
            Kind::VariationBarrel => 40,
            Kind::PerMessageHotspot => 5,
        }
    }

    /// Parses a command-line workload name.
    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|kind| kind.name() == name)
    }
}

/// How large a workload runs: the measured size, or a toy size for the
/// benchmark's own smoke test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The size the benchmark measures.
    Full,
    /// A seconds-scale run of the same configuration.
    Toy,
}

impl Size {
    /// Parses `full` or `toy`.
    pub fn from_name(name: &str) -> Option<Size> {
        match name {
            "full" => Some(Size::Full),
            "toy" => Some(Size::Toy),
            _ => None,
        }
    }

    /// The size's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Size::Full => "full",
            Size::Toy => "toy",
        }
    }
}

/// One workload at one size and seed.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Which workload.
    pub kind: Kind,
    /// Fleet size.
    pub oni_count: usize,
    /// Messages each ONI injects.
    pub messages_per_node: u64,
    /// The benchmark seed; traffic, variation and assignment seeds derive
    /// from it.
    pub seed: u64,
}

impl Workload {
    /// The workload `kind` at `size`, seeded by `seed`.
    pub fn new(kind: Kind, size: Size, seed: u64) -> Self {
        let (oni_count, messages_per_node) = match (kind, size) {
            (Kind::FleetSolverBound, Size::Full) => (16, 200),
            (Kind::FleetSolverBound, Size::Toy) => (4, 20),
            (Kind::FleetPlaybackBound, Size::Full) => (5000, 400),
            (Kind::FleetPlaybackBound, Size::Toy) => (64, 20),
            (Kind::VariationBarrel, Size::Full) => (12, 60),
            (Kind::VariationBarrel, Size::Toy) => (4, 10),
            (Kind::PerMessageHotspot, Size::Full) => (12, 80_000),
            (Kind::PerMessageHotspot, Size::Toy) => (12, 200),
        };
        Self {
            kind,
            oni_count,
            messages_per_node,
            seed,
        }
    }

    /// Member `index` of the workload's seed ensemble: member 0 is the
    /// workload itself, later members run on seeds derived from it.
    pub fn member(&self, index: usize) -> Self {
        let seed = if index == 0 {
            self.seed
        } else {
            splitmix64_mix(self.seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        };
        Self { seed, ..*self }
    }

    /// Seed of the traffic generator.
    fn traffic_seed(&self) -> u64 {
        splitmix64_mix(self.seed ^ 0x7452_4146_4649_4300)
    }

    /// Seed of the per-ONI fabrication variation.
    fn variation_seed(&self) -> u64 {
        splitmix64_mix(self.seed ^ 0x5641_5249_4154_494F)
    }

    /// Seed of the design-time wavelength assigner.
    fn assignment_seed(&self) -> u64 {
        splitmix64_mix(self.seed ^ 0x4153_5349_474E_0000)
    }

    /// Decision-bucket width of the fleet workloads, in kelvin.
    fn fleet_quantization_k(&self) -> Option<f64> {
        match self.kind {
            Kind::FleetSolverBound => Some(SOLVER_BOUND_QUANTIZATION_K),
            Kind::FleetPlaybackBound => Some(PLAYBACK_BOUND_QUANTIZATION_K),
            Kind::VariationBarrel | Kind::PerMessageHotspot => None,
        }
    }

    /// The scenario, without any cache or recorder attached.
    pub fn builder(&self) -> ScenarioBuilder {
        match self.fleet_quantization_k() {
            Some(quantization_k) => self.fleet_builder(quantization_k),
            None => self.matrix_builder(),
        }
    }

    /// An empty operating-point cache on the grid the workload's fleet uses.
    ///
    /// # Errors
    ///
    /// The cache's own error for a degenerate resolution.
    pub fn fresh_cache(&self) -> Result<SharedOpCache, String> {
        match self.fleet_quantization_k() {
            Some(quantization_k) => {
                SharedOpCache::with_resolution(1.0 / quantization_k).map_err(|e| e.to_string())
            }
            None => Ok(SharedOpCache::new()),
        }
    }

    /// The homogeneous workload-heated fleet of `perf::scale_out_builder`: a
    /// linear per-ONI heat ramp from 0 to 300 mW spreads the fleet across a
    /// 30 K band; the cache grid equals the decision grid.
    #[allow(clippy::cast_precision_loss)]
    fn fleet_builder(&self, quantization_k: f64) -> ScenarioBuilder {
        let n = self.oni_count;
        let top = n.saturating_sub(1).max(1) as f64;
        let traces = (0..n)
            .map(|oni| WorkloadTrace::constant(FLEET_MAX_WORKLOAD_MW * oni as f64 / top))
            .collect();
        ScenarioBuilder::new()
            .oni_count(n)
            .pattern(TrafficPattern::UniformRandom {
                messages_per_node: self.messages_per_node,
            })
            .class(TrafficClass::LatencyFirst)
            .words_per_message(1)
            .mean_inter_arrival_ns(5.0)
            .nominal_ber(1e-11)
            .seed(self.traffic_seed())
            .workload_heated(RcNetworkParameters::paper_package(), traces)
            .policy(DecisionPolicy::EpochGated {
                epoch_ns: 25.0,
                quantization_k,
                hysteresis_k: 0.0,
                revert_hysteresis_k: 10.0,
            })
            .cache_resolution(1.0 / quantization_k)
            .threads(THREADS)
    }

    /// The scenario-matrix cases: the matrix's base traffic plus either
    /// the variation/barrel/assignment fleet or the per-message hotspot.
    fn matrix_builder(&self) -> ScenarioBuilder {
        let base = ScenarioBuilder::new()
            .oni_count(self.oni_count)
            .pattern(TrafficPattern::UniformRandom {
                messages_per_node: self.messages_per_node,
            })
            .class(TrafficClass::LatencyFirst)
            .words_per_message(16)
            .mean_inter_arrival_ns(10.0)
            .nominal_ber(1e-11)
            .seed(self.traffic_seed())
            .threads(THREADS);
        if self.kind == Kind::VariationBarrel {
            base.activity_coupled(RcNetworkParameters::paper_package())
                .policy(DecisionPolicy::epoch_gated())
                .variation(RingVariationConfig {
                    sigma_nm: 0.040,
                    seed: self.variation_seed(),
                    mode: BankTuningMode::full_barrel_shift(16),
                })
                .design_assignment(DesignAssignmentConfig::greedy_refine(
                    self.assignment_seed(),
                ))
        } else {
            base.prescribed(ThermalEnvironment::Hotspot {
                base: Celsius::new(25.0),
                peak: Celsius::new(55.0),
                center: 0,
                decay_per_hop: 0.5,
            })
        }
    }
}
