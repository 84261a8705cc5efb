//! Per-layer probes of the traced run.
//!
//! After a cold run fills the workload's shared operating-point cache, every
//! distinct solved key is replayed from outside the simulator through the
//! public functions of each layer: `onoc-link` (cache hit path, full
//! operating point), `onoc-photonics` (thermal solve, laser solve, worst-case
//! wavelength, crosstalk, path transmission), `onoc-ber` / `onoc-ecc-codes`
//! (BER inversion) and `onoc-thermal` (bank compensation, RC step, design
//! assignment).  The replayed inputs are exactly the ones the run solved.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::{Mutex, PoisonError};

use onoc_ecc_codes::EccScheme;
use onoc_link::{NanophotonicLink, OpCacheKey, OperatingPoint, SharedOpCache};
use onoc_photonics::LaserPowerSolver;
use onoc_sim::{RunReport, ScenarioConfig};
use onoc_telemetry::Json;
use onoc_thermal::{ActivityCoupledEnvironment, RcNetworkParameters, WavelengthAssignment};
use onoc_units::Celsius;

use crate::checks::Checks;
use crate::clock::{overhead_s, per_call_us, time};
use crate::stats::{median, percentile};
use crate::Metrics;

/// Keys sampled for the per-call photonics, BER and bank probes (the full
/// operating-point replay covers every key).
const SAMPLED_KEYS: usize = 256;

/// Shortest timed batch of a per-call probe, in seconds.
const MIN_BATCH_S: f64 = 0.05;

/// RC steps per probe pass.
const RC_STEPS_PER_PASS: usize = 100;

/// One cached operating-point query, ready to replay.
struct Replay<'a> {
    key: OpCacheKey,
    link: &'a NanophotonicLink,
    temperature: Celsius,
    target_ber: f64,
    cached: Result<OperatingPoint, onoc_link::LinkError>,
}

/// Runs every layer probe against the cache a cold run of `config` filled,
/// pushing the `link.*`, `photonics.*`, `ber.*`, `ecc.*` and `thermal.*`
/// metrics.
///
/// # Errors
///
/// A cache snapshot the probe cannot read back.
pub fn probe(
    config: &ScenarioConfig,
    cache: &SharedOpCache,
    assignments: &[WavelengthAssignment],
    report: &RunReport,
    checks: &mut Checks,
    metrics: &mut Metrics,
) -> Result<(), String> {
    let links = fleet_links(config, assignments)?;
    let keys = cached_keys(cache)?;
    let mut replays = Vec::with_capacity(keys.len());
    for key in keys {
        let Some(link) = links.get(&key.stack_fingerprint) else {
            checks.check(false, || {
                format!(
                    "cached key {key:?} has no link in the fleet (fingerprint {:#018x})",
                    key.stack_fingerprint
                )
            });
            continue;
        };
        let (cached, _) = cache.get_or_solve(key, || {
            unreachable!("replayed keys are read from the cache itself")
        });
        #[allow(clippy::cast_precision_loss)]
        let temperature = Celsius::new(key.bucket as f64 / cache.buckets_per_kelvin());
        replays.push(Replay {
            key,
            link,
            temperature,
            target_ber: f64::from_bits(key.ber_bits),
            cached,
        });
    }

    link_probes(cache, &replays, checks, metrics);
    let sample = sample(&replays);
    photonics_probes(&sample, metrics);
    ber_probes(&sample, metrics);
    thermal_probes(config, assignments, &sample, report, checks, metrics)?;
    Ok(())
}

/// `onoc-link`: the cache's hit path and the full operating point.
fn link_probes(
    cache: &SharedOpCache,
    replays: &[Replay<'_>],
    checks: &mut Checks,
    metrics: &mut Metrics,
) {
    let hit_us = per_call_us(replays.len(), MIN_BATCH_S, || {
        for replay in replays {
            let _ = black_box(cache.get_or_solve(replay.key, || {
                unreachable!("replayed keys are already cached")
            }));
        }
    });
    metrics.push("link.cache.hit_ns", hit_us * 1e3, "ns");

    let overhead = overhead_s();
    let mut op_point_us = Vec::with_capacity(replays.len());
    let mut mismatches = 0usize;
    for replay in replays {
        let (solved, seconds) = time(|| {
            replay
                .link
                .operating_point_at(replay.key.scheme, replay.target_ber, replay.temperature)
        });
        op_point_us.push((seconds - overhead) * 1e6);
        if solved != replay.cached {
            mismatches += 1;
        }
    }
    checks.check(mismatches == 0, || {
        format!(
            "{mismatches} of {} replayed operating points differ from the cached ones",
            replays.len()
        )
    });
    metrics.push("link.op_point_us.p50", median(&op_point_us), "us");
    metrics.push("link.op_point_us.p99", percentile(&op_point_us, 99.0), "us");
    metrics.push(
        "link.op_point.total_s",
        op_point_us.iter().sum::<f64>() * 1e-6,
        "s",
    );
}

/// A solver over the channel state a cached point was solved on: drifted by
/// the point's worst residual, with the laser at the key's temperature.
struct LaserCase {
    solver: LaserPowerSolver,
    scheme: EccScheme,
    target_ber: f64,
    lane: usize,
}

/// `onoc-photonics`: the thermal solve and its laser-side stages.
fn photonics_probes(sample: &[&Replay<'_>], metrics: &mut Metrics) {
    let thermal_us = per_call_us(sample.len(), MIN_BATCH_S, || {
        for replay in sample {
            black_box(replay.link.thermal_solver().solve_at(
                replay.key.scheme,
                replay.target_ber,
                replay.temperature,
            ))
            .ok();
        }
    });
    metrics.push("photonics.thermal_solve_at_us", thermal_us, "us");

    let cases: Vec<LaserCase> = sample
        .iter()
        .filter_map(|replay| {
            let point = replay.cached.as_ref().ok()?;
            let channel = replay
                .link
                .channel()
                .with_resonance_drift(point.thermal.residual_drift)
                .with_laser_ambient(replay.temperature);
            Some(LaserCase {
                solver: LaserPowerSolver::new(channel),
                scheme: replay.key.scheme,
                target_ber: replay.target_ber,
                lane: point.thermal.worst_lane,
            })
        })
        .collect();
    let laser_us = per_call_us(cases.len(), MIN_BATCH_S, || {
        for case in &cases {
            black_box(
                case.solver
                    .solve_on_wavelength(case.scheme, case.target_ber, case.lane),
            )
            .ok();
        }
    });
    metrics.push("photonics.laser_solve_us", laser_us, "us");
    let wavelength_us = per_call_us(cases.len(), MIN_BATCH_S, || {
        for case in &cases {
            black_box(case.solver.worst_case_wavelength());
        }
    });
    metrics.push("photonics.worst_case_wavelength_us", wavelength_us, "us");
    let crosstalk_us = per_call_us(cases.len(), MIN_BATCH_S, || {
        for case in &cases {
            black_box(case.solver.channel().worst_case_crosstalk(case.lane));
        }
    });
    metrics.push("photonics.worst_case_crosstalk_us", crosstalk_us, "us");
    let path_us = per_call_us(cases.len(), MIN_BATCH_S, || {
        for case in &cases {
            black_box(case.solver.channel().path_transmission(case.lane));
        }
    });
    metrics.push("photonics.path_transmission_us", path_us, "us");
}

/// `onoc-ber` and `onoc-ecc-codes`: the two BER inversions of every solve.
fn ber_probes(sample: &[&Replay<'_>], metrics: &mut Metrics) {
    let raw: Vec<f64> = sample
        .iter()
        .map(|r| onoc_ecc_codes::raw_ber_for_target(r.key.scheme, r.target_ber))
        .collect();
    let erfc_us = per_call_us(raw.len(), MIN_BATCH_S, || {
        for &ber in &raw {
            black_box(onoc_ber::erfc_inv(black_box(2.0 * ber)));
        }
    });
    metrics.push("ber.erfc_inv_us", erfc_us, "us");
    let raw_us = per_call_us(sample.len(), MIN_BATCH_S, || {
        for replay in sample {
            black_box(onoc_ecc_codes::raw_ber_for_target(
                replay.key.scheme,
                black_box(replay.target_ber),
            ));
        }
    });
    metrics.push("ecc.raw_ber_for_target_us", raw_us, "us");
}

/// `onoc-thermal`: bank compensation on the replayed bank states, one RC
/// network step at the fleet's size, and the design-time assignment.
fn thermal_probes(
    config: &ScenarioConfig,
    assignments: &[WavelengthAssignment],
    sample: &[&Replay<'_>],
    report: &RunReport,
    checks: &mut Checks,
    metrics: &mut Metrics,
) -> Result<(), String> {
    let banks: Vec<_> = sample
        .iter()
        .map(|replay| {
            let stack = replay.link.thermal_solver().stack();
            (
                replay.link.ring_bank_state_at(replay.temperature),
                stack,
                replay.link.channel().geometry().grid.spacing().value(),
            )
        })
        .collect();
    let compensate_us = per_call_us(banks.len(), MIN_BATCH_S, || {
        for (state, stack, spacing) in &banks {
            black_box(stack.tuner.compensate_bank_assigned(
                state,
                *spacing,
                stack.rings.drift_nm_per_kelvin,
                stack.mode,
                stack.assignment.as_ref(),
            ));
        }
    });
    metrics.push("thermal.compensate_bank_us", compensate_us, "us");

    // The fleet's mean dissipated power per ONI (pJ / ns = mW) drives the
    // RC network, stepped at the default 25 ns epoch.
    let makespan_ns = report.stats.makespan_ns.max(1.0);
    let powers: Vec<f64> = report
        .per_oni
        .iter()
        .map(|o| (o.static_energy_pj + o.dynamic_energy_pj) / makespan_ns)
        .collect();
    let network = Mutex::new(ActivityCoupledEnvironment::new(
        config.oni_count,
        RcNetworkParameters::paper_package(),
    ));
    let rc_us = per_call_us(RC_STEPS_PER_PASS, MIN_BATCH_S, || {
        let mut network = network.lock().unwrap_or_else(PoisonError::into_inner);
        for _ in 0..RC_STEPS_PER_PASS {
            network.step(black_box(&powers), 25.0);
        }
    });
    metrics.push("thermal.rc_step_us", rc_us, "us");

    let assign_s = assign_fleet(config, assignments, checks)?;
    metrics.push("thermal.assign_fleet_s", assign_s, "s");
    Ok(())
}

/// Re-runs the design-time assignment of every ONI from outside and checks
/// it against the scenario's; 0 s for a workload without one.
fn assign_fleet(
    config: &ScenarioConfig,
    scenario_assignments: &[WavelengthAssignment],
    checks: &mut Checks,
) -> Result<f64, String> {
    let Some(spec) = config.assignment else {
        return Ok(0.0);
    };
    let design = config
        .thermal
        .design_temperatures(config.oni_count)
        .map_err(|e| e.to_string())?;
    let links: Vec<NanophotonicLink> = (0..config.oni_count)
        .map(|oni| oni_link(config, oni))
        .collect();
    let inputs: Vec<_> = links
        .iter()
        .zip(&design)
        .enumerate()
        .map(|(oni, (link, &temperature))| {
            (
                link.wavelength_assigner(spec.strategy, spec.oni_seed(oni)),
                link.ring_bank_state_at(temperature),
            )
        })
        .collect();
    let (assigned, seconds) = time(|| {
        inputs
            .iter()
            .map(|(assigner, state)| assigner.assign(state))
            .collect::<Vec<_>>()
    });
    checks.check(assigned == scenario_assignments, || {
        "replayed design-time assignments differ from the scenario's".to_string()
    });
    Ok(seconds)
}

/// The link of destination `oni` before any design-time assignment: the
/// paper link plus, with variation, that ONI's chip instance and tuning
/// mode (the fleet the simulator builds for this configuration).
fn oni_link(config: &ScenarioConfig, oni: usize) -> NanophotonicLink {
    let link = NanophotonicLink::paper_link();
    match &config.variation {
        Some(variation) => link
            .with_fabrication_variation(variation.oni_variation(oni))
            .with_bank_tuning_mode(variation.mode),
        None => link,
    }
}

/// Every distinct link of the fleet, by stack fingerprint: one link for a
/// homogeneous fleet, one per ONI otherwise.
fn fleet_links(
    config: &ScenarioConfig,
    assignments: &[WavelengthAssignment],
) -> Result<BTreeMap<u64, NanophotonicLink>, String> {
    let heterogeneous = config.variation.is_some() || !assignments.is_empty();
    let count = if heterogeneous { config.oni_count } else { 1 };
    let mut links = BTreeMap::new();
    for oni in 0..count {
        let mut link = oni_link(config, oni);
        if let Some(assignment) = assignments.get(oni) {
            link = link
                .with_wavelength_assignment(assignment.clone())
                .map_err(|e| e.to_string())?;
        }
        links.insert(link.stack_fingerprint(), link);
    }
    Ok(links)
}

/// The keys of every completed cache entry, in key order, read back from
/// the cache's JSON rendering.
fn cached_keys(cache: &SharedOpCache) -> Result<Vec<OpCacheKey>, String> {
    let document = cache.to_json();
    let entries = document
        .get("entries")
        .and_then(Json::as_array)
        .ok_or("cache rendering has no entries")?;
    let schemes = EccScheme::all();
    entries
        .iter()
        .map(|entry| {
            let label = entry.get("scheme").and_then(Json::as_str);
            let scheme = schemes
                .iter()
                .copied()
                .find(|s| Some(s.label()) == label)
                .ok_or_else(|| format!("unknown scheme {label:?}"))?;
            let hex = |field: &str| {
                entry
                    .get(field)
                    .and_then(Json::as_str)
                    .and_then(|text| text.strip_prefix("0x"))
                    .and_then(|digits| u64::from_str_radix(digits, 16).ok())
                    .ok_or_else(|| format!("bad {field} in cache entry"))
            };
            #[allow(clippy::cast_possible_truncation)]
            let bucket = entry
                .get("bucket")
                .and_then(Json::as_f64)
                .ok_or("bad bucket in cache entry")? as i64;
            Ok(OpCacheKey {
                scheme,
                ber_bits: hex("ber_bits")?,
                bucket,
                stack_fingerprint: hex("stack_fingerprint")?,
            })
        })
        .collect()
}

/// At most [`SAMPLED_KEYS`] replays, evenly strided over the key order.
fn sample<'r, 'a>(replays: &'r [Replay<'a>]) -> Vec<&'r Replay<'a>> {
    let stride = replays.len().div_ceil(SAMPLED_KEYS).max(1);
    replays.iter().step_by(stride).collect()
}
