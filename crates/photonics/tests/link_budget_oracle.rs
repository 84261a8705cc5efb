//! The once-per-solve link budget against a naive per-lane oracle.
//!
//! The oracle composes the channel's public per-lane functions the way the
//! solver did before the budget vectors existed: `max_by` over
//! `worst_case_crosstalk` (recomputing every aggressor path twice per
//! comparison), and one full `solve_on_wavelength` per lane with
//! `swing_factor` evaluated twice.  Every solver entry point must agree with
//! it bit for bit — errors included — and the oracle's ring-evaluation tally
//! is the reference the solver's own count is pinned against.

use onoc_ber::snr::snr_from_ber_uncoded;
use onoc_ecc_codes::{raw_ber_for_target, EccScheme};
use onoc_photonics::calibration::PaperCalibration;
use onoc_photonics::thermal::{ThermalLinkStack, ThermalSolver, ThermalSummary};
use onoc_photonics::{LaserOperatingPoint, LaserPowerSolver, MwsrChannel, SolveError};
use onoc_thermal::bank::splitmix64_mix;
use onoc_thermal::tuning::TuningAction;
use onoc_thermal::{
    BankCompensation, BankTuningMode, FabricationVariation, ResonanceDrift, TuningPolicy,
    WavelengthAssignment,
};
use onoc_units::{Celsius, Milliwatts};
use proptest::prelude::*;

/// Ring evaluations of one public per-lane call on a channel of `n` lanes.
mod cost {
    /// `path_transmission`: the granted modulator, the other drop filters
    /// and the lane's own drop filter.
    pub fn path(n: u64) -> u64 {
        n + 1
    }

    /// `worst_case_crosstalk`: every aggressor's path plus its leak.
    pub fn crosstalk(n: u64) -> u64 {
        (n - 1) * (path(n) + 1)
    }

    /// `swing_factor`: the path plus the ON/OFF extinction pair.
    pub fn swing_factor(n: u64) -> u64 {
        path(n) + 2
    }
}

fn lanes(channel: &MwsrChannel) -> u64 {
    channel.geometry().wavelength_count() as u64
}

fn oracle_worst_case_wavelength(channel: &MwsrChannel, evals: &mut u64) -> usize {
    let n = lanes(channel);
    (0..channel.geometry().wavelength_count())
        .max_by(|&a, &b| {
            *evals += 2 * cost::crosstalk(n);
            channel
                .worst_case_crosstalk(a)
                .value()
                .partial_cmp(&channel.worst_case_crosstalk(b).value())
                .expect("crosstalk powers are finite")
        })
        .expect("grid has at least one wavelength")
}

fn oracle_solve_on_wavelength(
    channel: &MwsrChannel,
    scheme: EccScheme,
    target_ber: f64,
    wavelength: usize,
    evals: &mut u64,
) -> Result<LaserOperatingPoint, SolveError> {
    let n = lanes(channel);
    if !(target_ber > 0.0 && target_ber < 0.5) {
        return Err(SolveError::InvalidTarget { target_ber });
    }
    let raw_ber = raw_ber_for_target(scheme, target_ber);
    let snr = snr_from_ber_uncoded(raw_ber);
    let crosstalk = channel.worst_case_crosstalk(wavelength);
    *evals += cost::crosstalk(n);
    let receiver = channel.photodetector().to_receiver_model();
    let required_swing = receiver.required_signal_power(snr, crosstalk);
    let laser = channel.laser();
    *evals += cost::swing_factor(n);
    if channel.swing_factor(wavelength) <= 0.0 {
        return Err(SolveError::LaserPowerExceeded {
            scheme,
            target_ber,
            required_microwatts: f64::INFINITY,
            maximum_microwatts: laser.max_output().value(),
        });
    }
    *evals += cost::swing_factor(n);
    let laser_output = channel.required_laser_output(required_swing, wavelength);
    if !laser.can_emit(laser_output) {
        return Err(SolveError::LaserPowerExceeded {
            scheme,
            target_ber,
            required_microwatts: laser_output.value(),
            maximum_microwatts: laser.max_output().value(),
        });
    }
    let activity = channel.geometry().chip_activity;
    let electrical = laser
        .try_electrical_power(laser_output, activity)
        .map_err(|runaway| SolveError::ThermalRunaway {
            scheme,
            target_ber,
            optical_microwatts: runaway.optical_output.value(),
        })?;
    let laser_efficiency = if electrical.is_zero() {
        laser
            .thermal_model()
            .efficiency_at(laser.junction_temperature(Milliwatts::zero(), activity))
    } else {
        laser_output.to_milliwatts().value() / electrical.value()
    };
    Ok(LaserOperatingPoint {
        scheme,
        target_ber,
        raw_ber,
        snr,
        crosstalk,
        required_swing,
        laser_output_power: laser_output,
        laser_electrical_power: electrical,
        laser_efficiency,
    })
}

fn oracle_solve_worst_case(
    channel: &MwsrChannel,
    scheme: EccScheme,
    target_ber: f64,
    evals: &mut u64,
) -> Result<(LaserOperatingPoint, usize), SolveError> {
    let mut worst: Option<(LaserOperatingPoint, usize)> = None;
    for wavelength in 0..channel.geometry().wavelength_count() {
        let point = oracle_solve_on_wavelength(channel, scheme, target_ber, wavelength, evals)?;
        let harder = worst.as_ref().is_none_or(|(best, _)| {
            point.laser_output_power.value() > best.laser_output_power.value()
        });
        if harder {
            worst = Some((point, wavelength));
        }
    }
    Ok(worst.expect("the grid has at least one wavelength"))
}

/// `ThermalSolver::solve_at` with every candidate solved through the
/// per-lane oracle.
fn oracle_solve_at(
    solver: &ThermalSolver,
    scheme: EccScheme,
    target_ber: f64,
    temperature: Celsius,
    evals: &mut u64,
) -> Result<(LaserOperatingPoint, ThermalSummary), SolveError> {
    let stack = solver.stack();
    let base = solver.base().channel();
    let delta = stack.rings.delta_at(temperature);
    let free_drift = stack.rings.drift_for(delta);
    let rings_per_lane = base.rings_per_lane();
    let state = solver.bank_state_at(temperature);
    let slope = stack.rings.drift_nm_per_kelvin;
    let spacing = base.geometry().grid.spacing().value();
    let assignment = stack.assignment.as_ref();
    let mut compensations: Vec<BankCompensation> = Vec::new();
    for &action in stack.policy.candidates() {
        let compensation = match action {
            TuningAction::Tolerate => {
                BankCompensation::off_assigned(&state, spacing, slope, assignment)
            }
            TuningAction::Tune => stack
                .tuner
                .compensate_bank_assigned(&state, spacing, slope, stack.mode, assignment),
        };
        if !compensations.contains(&compensation) {
            compensations.push(compensation);
        }
    }
    let mut best: Option<(LaserOperatingPoint, ThermalSummary, f64)> = None;
    let mut last_error: Option<SolveError> = None;
    for compensation in compensations {
        let tuning_power_per_ring = compensation.mean_heater_power_per_ring();
        let solved = match compensation.uniform_residual_nm() {
            Some(residual_nm) => {
                let channel = base
                    .with_resonance_drift(ResonanceDrift::new(residual_nm))
                    .with_laser_ambient(temperature);
                let worst_lane = oracle_worst_case_wavelength(&channel, evals);
                oracle_solve_on_wavelength(&channel, scheme, target_ber, worst_lane, evals)
                    .map(|point| (point, worst_lane))
            }
            None => {
                let channel = base
                    .with_ring_detunings(&compensation.residual_nm)
                    .with_laser_ambient(temperature);
                oracle_solve_worst_case(&channel, scheme, target_ber, evals)
            }
        };
        match solved {
            Ok((point, worst_lane)) => {
                let per_lane =
                    Milliwatts::new(tuning_power_per_ring.value() * rings_per_lane as f64 * 1e-3);
                let total = point.laser_electrical_power.value() + per_lane.value();
                let summary = ThermalSummary {
                    temperature,
                    free_drift,
                    residual_drift: compensation.worst_residual(),
                    tuning_power_per_ring,
                    rings_per_lane,
                    tuning_power_per_lane: per_lane,
                    barrel_shift: compensation.shift,
                    worst_lane,
                };
                if best.as_ref().is_none_or(|(_, _, b)| total < *b) {
                    best = Some((point, summary, total));
                }
            }
            Err(error) => last_error = Some(error),
        }
    }
    match best {
        Some((point, summary, _)) => Ok((point, summary)),
        None => Err(last_error.expect("policy always has at least one candidate")),
    }
}

fn paper_solver(stack: ThermalLinkStack) -> ThermalSolver {
    ThermalSolver::new(PaperCalibration::dac17().into_channel(), stack)
}

/// A seeded random permutation of `n` lanes (Fisher–Yates).
fn permutation(n: usize, seed: u64) -> WavelengthAssignment {
    let mut rings: Vec<usize> = (0..n).collect();
    let mut state = seed;
    for i in (1..n).rev() {
        state = splitmix64_mix(state);
        rings.swap(i, (state % (i as u64 + 1)) as usize);
    }
    WavelengthAssignment::new(rings).expect("a permutation is a valid assignment")
}

#[test]
fn ring_evaluations_are_pinned_against_the_oracle() {
    let calibration = Celsius::new(25.0);
    let target = 1e-11;
    let scheme = EccScheme::Hamming7164;

    // One uniform-bank candidate: the paper channel at calibration.
    let uniform = paper_solver(ThermalLinkStack::paper_default());
    let (fast, evals) = uniform.solve_at_counted(scheme, target, calibration);
    let mut oracle_evals = 0;
    let oracle = oracle_solve_at(&uniform, scheme, target, calibration, &mut oracle_evals);
    assert_eq!(fast, oracle);
    assert_eq!((evals, oracle_evals), (514, 8_408));

    // One heterogeneous candidate: a varied bank that only tolerates.
    let varied = paper_solver(ThermalLinkStack {
        policy: TuningPolicy::Tolerate,
        variation: FabricationVariation::new(0.01, 7),
        ..ThermalLinkStack::paper_default()
    });
    let (fast, evals) = varied.solve_at_counted(scheme, target, calibration);
    let mut oracle_evals = 0;
    let oracle = oracle_solve_at(&varied, scheme, target, calibration, &mut oracle_evals);
    assert_eq!(fast, oracle);
    assert_eq!((evals, oracle_evals), (544, 4_928));

    // An adaptive solve off calibration: tolerate and tune, two uniform
    // candidates.  This is the oracle per-solve count the CI gate divides.
    let hot = Celsius::new(55.0);
    let (fast, evals) = uniform.solve_at_counted(scheme, target, hot);
    let mut oracle_evals = 0;
    let oracle = oracle_solve_at(&uniform, scheme, target, hot, &mut oracle_evals);
    assert_eq!(fast, oracle);
    assert_eq!((evals, oracle_evals), (1_028, 16_797));
}

#[test]
fn the_aligned_paper_channel_matches_the_oracle() {
    // The calibration point, which the random temperatures never hit
    // exactly; on grid several lanes tie for the worst crosstalk.
    let channel = PaperCalibration::dac17().into_channel();
    let solver = LaserPowerSolver::new(channel.clone());
    assert_eq!(
        solver.worst_case_wavelength(),
        oracle_worst_case_wavelength(&channel, &mut 0)
    );
    for scheme in EccScheme::all() {
        for target in [1e-3, 1e-9, 1e-12] {
            assert_eq!(
                solver.solve_worst_case(scheme, target),
                oracle_solve_worst_case(&channel, scheme, target, &mut 0),
                "{scheme} at {target:e}"
            );
            assert_eq!(
                solver.solve(scheme, target),
                oracle_solve_on_wavelength(
                    &channel,
                    scheme,
                    target,
                    oracle_worst_case_wavelength(&channel, &mut 0),
                    &mut 0
                ),
                "{scheme} at {target:e}"
            );
        }
    }
}

#[test]
fn invalid_targets_match_the_oracle_and_cost_no_ring_evaluations() {
    let solver = paper_solver(ThermalLinkStack::paper_default());
    for target in [0.0, -1e-9, 0.5, 0.7, f64::INFINITY] {
        let (fast, evals) =
            solver.solve_at_counted(EccScheme::Hamming74, target, Celsius::new(40.0));
        let oracle = oracle_solve_at(
            &solver,
            EccScheme::Hamming74,
            target,
            Celsius::new(40.0),
            &mut 0,
        );
        assert_eq!(fast, oracle, "target {target}");
        assert_eq!(evals, 0);
    }
}

proptest! {
    #[test]
    fn every_entry_point_matches_the_per_lane_oracle(
        varied in any::<bool>(),
        sigma_nm in 0.0f64..0.06,
        seed in any::<u64>(),
        barrel in any::<bool>(),
        max_shift in 1usize..17,
        assigned in any::<bool>(),
        temperature_c in 5.0f64..95.0,
        scheme_index in 0usize..11,
        target_exponent in 3.0f64..13.0,
        lane in 0usize..16,
    ) {
        let stack = ThermalLinkStack {
            variation: FabricationVariation::new(if varied { sigma_nm } else { 0.0 }, seed),
            mode: if barrel {
                BankTuningMode::BarrelShift { max_shift }
            } else {
                BankTuningMode::PureHeater
            },
            assignment: assigned.then(|| permutation(16, seed ^ 0xA5A5)),
            ..ThermalLinkStack::paper_default()
        };
        let scheme = EccScheme::all()[scheme_index];
        let target = 10f64.powf(-target_exponent);
        let temperature = Celsius::new(temperature_c);

        let mut evals = 0;
        for policy in [TuningPolicy::Tolerate, TuningPolicy::AlwaysTune, TuningPolicy::Adaptive] {
            let solver = paper_solver(ThermalLinkStack { policy, ..stack.clone() });
            prop_assert_eq!(
                solver.solve_at(scheme, target, temperature),
                oracle_solve_at(&solver, scheme, target, temperature, &mut evals)
            );
        }
        let solver = paper_solver(stack);

        // The laser-level entry points on the tolerated bank of this chip
        // instance (heterogeneous whenever the bank is varied) and on the
        // uniformly drifted channel.
        let base = solver.base().channel();
        let state = solver.bank_state_at(temperature);
        let tolerated = BankCompensation::off_assigned(
            &state,
            base.geometry().grid.spacing().value(),
            solver.stack().rings.drift_nm_per_kelvin,
            solver.stack().assignment.as_ref(),
        );
        let drift = solver.stack().rings.drift_at(temperature);
        for channel in [
            base.with_ring_detunings(&tolerated.residual_nm).with_laser_ambient(temperature),
            base.with_resonance_drift(drift).with_laser_ambient(temperature),
        ] {
            let laser = LaserPowerSolver::new(channel.clone());
            prop_assert_eq!(
                laser.worst_case_wavelength(),
                oracle_worst_case_wavelength(&channel, &mut evals)
            );
            prop_assert_eq!(
                laser.solve_worst_case(scheme, target),
                oracle_solve_worst_case(&channel, scheme, target, &mut evals)
            );
            prop_assert_eq!(
                laser.solve_on_wavelength(scheme, target, lane),
                oracle_solve_on_wavelength(&channel, scheme, target, lane, &mut evals)
            );
        }
    }
}
