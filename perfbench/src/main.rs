//! The simulator benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1> [--size full|toy]
//! ```
//!
//! Repeats cold runs of one workload (`ScenarioBuilder::build` then
//! `Scenario::run`, each over a fresh shared operating-point cache) until
//! `--seconds` of measured host time have passed, checks every report from
//! outside, and prints one JSON object as its last line of standard output:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`.  See README.md for the workloads and metrics.

mod checks;
mod clock;
mod layers;
mod stats;
mod workloads;

use std::sync::Arc;

use onoc_link::{CacheCounters, SharedOpCache};
use onoc_sim::{RunReport, ScenarioBuilder};
use onoc_telemetry::{MetricsRegistry, RecorderHandle, RegistryRecorder, WallClockRegistry};
use onoc_thermal::WavelengthAssignment;

use checks::{delta, Checks, DEFAULT_SEED};
use clock::time;
use stats::median;
use workloads::{Kind, Size, Workload};

/// Registry counters the traced run reports as `telemetry.<counter>`.
const TELEMETRY_COUNTERS: [&str; 10] = [
    "solver.invocations",
    "solver.infeasible",
    "cache.hits",
    "cache.misses",
    "manager.decisions",
    "manager.infeasible",
    "scheme.switches",
    "epochs.advanced",
    "assignment.steps",
    "assignment.steps_accepted",
];

/// Named metrics in emission order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Appends metric `name` with `value` in `unit`.
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    /// Renders `{"name": {"value": v, "unit": "u"}, ...}`.
    fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    number(*value)
                )
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// A JSON number with every digit of `value` (non-finite values, which JSON
/// cannot carry, render as `null`).
fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "null".to_string()
    }
}

/// Parsed command line.
struct Args {
    workload: Workload,
    size: Size,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut size = Size::Full;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::from_name(&value).ok_or_else(|| bad("unknown workload"))?);
            }
            "--seed" => seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad("expected a number"))?;
                if !(seconds > 0.0 && f64::is_finite(seconds)) {
                    return Err(bad("expected a positive number"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                };
            }
            "--size" => {
                size = Size::from_name(&value).ok_or_else(|| bad("expected full or toy"))?
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let kind = kind.ok_or("--workload is required")?;
    Ok(Args {
        workload: Workload::new(kind, size, seed),
        size,
        seconds,
        trace,
    })
}

/// One timed build and run of the workload over `cache`.
struct Run {
    report: RunReport,
    /// Messages the scenario generated.
    messages: usize,
    setup_s: f64,
    run_s: f64,
    /// Solver-cache traffic of this build and run alone.
    solves: CacheCounters,
    /// The fleet's design-time wavelength assignments (phase 0).
    assignments: Vec<WavelengthAssignment>,
}

impl Run {
    fn total_s(&self) -> f64 {
        self.setup_s + self.run_s
    }
}

/// Builds and runs `builder` over `cache`, timing both phases.
fn run_once(builder: ScenarioBuilder, cache: &SharedOpCache) -> Result<Run, String> {
    let before = cache.counters();
    let (scenario, setup_s) = time(|| builder.shared_cache(cache.clone()).build());
    let scenario = scenario.map_err(|e| format!("scenario failed to build: {e}"))?;
    let messages = scenario.message_count();
    let assignments = scenario.assignments().to_vec();
    let (report, run_s) = time(move || scenario.run());
    Ok(Run {
        report,
        messages,
        setup_s,
        run_s,
        solves: delta(before, cache.counters()),
        assignments,
    })
}

/// Checks a warm re-run over the cold run's cache: same physics, no solves.
fn check_warm(checks: &mut Checks, cold: &Run, warm: &Run) {
    checks.same_physics(&cold.report, &warm.report, "the warm re-run");
    checks.check(warm.solves.misses == 0, || {
        format!(
            "the warm re-run solved {} operating points over a filled cache",
            warm.solves.misses
        )
    });
}

/// Checks the cold run's cache accounting: every miss filled one entry.
fn check_cold_solves(checks: &mut Checks, cold: &Run) {
    checks.check(cold.solves.misses == cold.solves.entries as u64, || {
        format!(
            "a cold run over an empty cache made {} misses but filled {} entries",
            cold.solves.misses, cold.solves.entries
        )
    });
}

/// Peak resident memory of this process (VmHWM), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// `--trace 0`: cold runs until `seconds` of host time, each on its own
/// seed of the workload's ensemble; reports the end-to-end metrics.
///
/// The simulated metrics pool the ensemble's first
/// [`Kind::ensemble_size`] members, which always run, so they are a
/// deterministic function of the seed; the host-time metrics are medians
/// over every cold run.
#[allow(clippy::cast_precision_loss)]
fn end_to_end(args: &Args, checks: &mut Checks) -> Result<Metrics, String> {
    let ensemble = args.workload.kind.ensemble_size();
    let mut setup = Vec::new();
    let mut throughput = Vec::new();
    let mut measured = 0.0;
    let (mut energy_pj, mut bits, mut latency_ns, mut delivered) = (0.0, 0u64, 0.0, 0u64);
    let mut max_latency = Vec::new();
    while measured < args.seconds || setup.len() < ensemble {
        let workload = args.workload.member(setup.len());
        let cold = run_once(workload.builder(), &workload.fresh_cache()?)?;
        checks.report(&cold.report, cold.messages);
        check_cold_solves(checks, &cold);
        if setup.is_empty() {
            checks.pinned_digest(workload.kind, args.size, workload.seed, &cold.report);
        }
        let stats = &cold.report.stats;
        if setup.len() < ensemble {
            energy_pj += stats.energy_pj;
            bits += stats.delivered_bits;
            latency_ns += stats.total_latency_ns;
            delivered += stats.delivered_messages;
            max_latency.push(stats.max_latency_ns);
        }
        measured += cold.total_s();
        eprintln!(
            "perfbench: cold run {} (seed {}): setup {:.4} s, run {:.4} s",
            setup.len() + 1,
            workload.seed,
            cold.setup_s,
            cold.run_s
        );
        setup.push(cold.setup_s);
        throughput.push(stats.delivered_messages as f64 / cold.run_s.max(1e-6));
    }

    let mut metrics = Metrics::default();
    metrics.push("setup_s", median(&setup), "s");
    metrics.push("msgs_per_s", median(&throughput), "msg/s");
    metrics.push("peak_rss_mb", peak_rss_mb()?, "MB");
    metrics.push("checks_passed_frac", checks.passed_frac(), "ratio");
    metrics.push("sim_energy_pj_per_bit", energy_pj / bits as f64, "pJ/bit");
    metrics.push("sim_latency_mean_ns", latency_ns / delivered as f64, "ns");
    metrics.push("sim_latency_max_ns", median(&max_latency), "ns");
    Ok(metrics)
}

/// `--trace 1`: cold / warm / traced-cold triples of the workload's own
/// seed until `seconds` of host time, then the per-layer probes over the
/// last cold run's cache.
#[allow(clippy::cast_precision_loss)]
fn traced(args: &Args, checks: &mut Checks) -> Result<Metrics, String> {
    let workload = &args.workload;
    let mut cold_s = Vec::new();
    let mut warm_s = Vec::new();
    let mut overhead = Vec::new();
    let mut measured = 0.0;
    let mut last = None;
    while measured < args.seconds || last.is_none() {
        let cache = workload.fresh_cache()?;
        let cold = run_once(workload.builder(), &cache)?;
        checks.report(&cold.report, cold.messages);
        check_cold_solves(checks, &cold);
        if last.is_none() {
            checks.pinned_digest(workload.kind, args.size, workload.seed, &cold.report);
        }
        let warm = run_once(workload.builder(), &cache)?;
        check_warm(checks, &cold, &warm);
        if cold_s.is_empty() {
            // Over an injected cache the report's counters are the cache's
            // lifetime totals, not this run's: hence the deltas above.
            eprintln!(
                "perfbench: warm re-run: RunReport::solver_cache reads {} misses, \
                 the cache solved {} in this run",
                warm.report.solver_cache.misses, warm.solves.misses
            );
        }

        let registry = Arc::new(MetricsRegistry::new());
        let recorder = RecorderHandle::new(Arc::new(RegistryRecorder::new(
            Arc::clone(&registry),
            Arc::new(WallClockRegistry::new()),
        )));
        let traced = run_once(
            workload.builder().telemetry(recorder),
            &workload.fresh_cache()?,
        )?;
        checks.same_physics(&cold.report, &traced.report, "the traced run");

        measured += cold.total_s() + warm.total_s() + traced.total_s();
        eprintln!(
            "perfbench: triple {}: cold run {:.4} s, warm run {:.4} s, traced run {:.4} s",
            cold_s.len() + 1,
            cold.run_s,
            warm.run_s,
            traced.run_s
        );
        cold_s.push(cold.run_s);
        warm_s.push(warm.run_s);
        overhead.push((traced.total_s() - cold.total_s()) / cold.total_s());
        last = Some((cold, cache, registry));
    }
    let Some((cold, cache, registry)) = last else {
        unreachable!("the loop runs at least once");
    };

    let mut metrics = Metrics::default();
    let report = &cold.report;
    let run_cold = median(&cold_s);
    let run_warm = median(&warm_s);
    let messages = report.stats.delivered_messages as f64;
    metrics.push("sim.run_cold_s", run_cold, "s");
    metrics.push("sim.run_warm_s", run_warm, "s");
    metrics.push(
        "sim.solver_share",
        (run_cold - run_warm) / run_cold,
        "ratio",
    );
    metrics.push(
        "sim.warm_ns_per_msg",
        run_warm * 1e9 / messages.max(1.0),
        "ns",
    );
    metrics.push("sim.messages", messages, "count");
    metrics.push("sim.epochs", report.epochs as f64, "count");
    metrics.push("sim.decisions", report.decisions as f64, "count");
    metrics.push("sim.infeasible", report.infeasible_requests as f64, "count");

    let solves = cold.solves;
    metrics.push("link.cache.lookups", solves.total() as f64, "count");
    metrics.push("link.cache.misses", solves.misses as f64, "count");
    metrics.push("link.cache.entries", solves.entries as f64, "count");
    metrics.push("link.cache.hit_rate", solves.hit_rate(), "ratio");

    let config = workload.builder().config().clone();
    layers::probe(
        &config,
        &cache,
        &cold.assignments,
        report,
        checks,
        &mut metrics,
    )?;

    metrics.push("telemetry.overhead_frac", median(&overhead), "ratio");
    let counters = registry.snapshot();
    for name in TELEMETRY_COUNTERS {
        let count = counters.counters.get(name).copied().unwrap_or(0);
        metrics.push(format!("telemetry.{name}"), count as f64, "count");
    }
    Ok(metrics)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut checks = Checks::default();
    let measured = if args.trace {
        traced(&args, &mut checks)
    } else {
        end_to_end(&args, &mut checks)
    };
    let metrics = match measured {
        Ok(metrics) => metrics,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        checks.failed() == 0,
        checks.attempted(),
        checks.failed(),
        metrics.to_json()
    );
}
