//! Host wall-clock timing through the repository's sanctioned clock.
//!
//! The simulator keeps host clocks out of its code (`onoc-lint` rule D002):
//! the one library site that reads one is the per-shard timer of
//! [`onoc_parallel::parallel_map_traced`], whose `ShardCompleted` events a
//! [`RegistryRecorder`] folds into a [`WallClockRegistry`].  The benchmark
//! times every call through that path: the work runs as the single item of a
//! one-shard map and its duration is read back from the registry.  The
//! resolution is one microsecond; each call also pays for spawning one
//! thread, which [`overhead_s`] measures so per-call timings can subtract it.

use std::sync::{Arc, Mutex, PoisonError};

use onoc_parallel::parallel_map_traced;
use onoc_telemetry::{MetricsRegistry, RecorderHandle, RegistryRecorder, WallClockRegistry};

const LABEL: &str = "perfbench";

/// Runs `work` once and returns its result with its host duration in
/// seconds.
pub fn time<R, W>(work: W) -> (R, f64)
where
    R: Send,
    W: FnOnce() -> R + Send,
{
    let wall = Arc::new(WallClockRegistry::new());
    let recorder = RecorderHandle::new(Arc::new(RegistryRecorder::new(
        Arc::new(MetricsRegistry::new()),
        Arc::clone(&wall),
    )));
    let slot = Mutex::new(Some(work));
    let mut results = parallel_map_traced(
        &[()],
        1,
        |_| {
            let work = slot.lock().unwrap_or_else(PoisonError::into_inner).take();
            work.map(|work| work())
        },
        &recorder,
        LABEL,
    );
    let micros = wall
        .snapshot()
        .get(&format!("shard.{LABEL}"))
        .map_or(0, |stats| stats.total_micros);
    let result = results
        .pop()
        .flatten()
        .unwrap_or_else(|| unreachable!("the single shard runs its single item once"));
    #[allow(clippy::cast_precision_loss)]
    let seconds = micros as f64 * 1e-6;
    (result, seconds)
}

/// Median cost of timing an empty closure, in seconds: the thread spawn and
/// registry bookkeeping that [`time`] adds to every measurement.
pub fn overhead_s() -> f64 {
    let samples: Vec<f64> = (0..64).map(|_| time(|| ()).1).collect();
    crate::stats::median(&samples)
}

/// Mean host time of one call, in microseconds, where `pass` makes `calls`
/// calls.  The pass is repeated until the timed batch lasts at least
/// `min_batch_s`, so a one-microsecond clock can time sub-microsecond calls.
pub fn per_call_us<F>(calls: usize, min_batch_s: f64, pass: F) -> f64
where
    F: Fn() + Sync,
{
    if calls == 0 {
        return 0.0;
    }
    let ((), first) = time(&pass);
    #[allow(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        clippy::cast_precision_loss
    )]
    let passes = ((min_batch_s / first.max(1e-6)).ceil() as usize).max(1);
    let ((), batch) = time(|| {
        for _ in 0..passes {
            pass();
        }
    });
    #[allow(clippy::cast_precision_loss)]
    let per_call = batch * 1e6 / (passes * calls) as f64;
    per_call
}
