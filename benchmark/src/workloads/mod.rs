//! The four workloads. Each one sets up (several times, timed),
//! warms up once untimed, then repeats its timed work until the run's
//! measuring time is used, checking every output as it goes.

pub mod ftsh_scripts;
pub mod live_verbs;
pub mod sim_figures;
pub mod sim_scale;

use crate::clock::Meter;
use crate::stats::Summary;
use crate::trace::Tracer;
use std::time::{Duration, Instant};

/// Each workload repeats its set-up at least this often, and until the
/// repetitions have taken [`SETUP_MIN_S`] together, so that a
/// millisecond set-up gets the hundred samples its median needs.
/// `setup_s` is the median.
const SETUP_MIN_REPS: usize = 7;
const SETUP_MIN_S: f64 = 0.25;
const SETUP_MAX_REPS: usize = 200;

/// State shared by a run: inputs, the calibrated clock, the span
/// recorder, and the tally of checked operations.
pub struct Ctx {
    /// Workload seed; the only source of input variation.
    pub seed: u64,
    /// Measuring time of the timed phase.
    pub seconds: f64,
    /// The calibrated clock.
    pub meter: Meter,
    /// The span recorder (off in an end-to-end run).
    pub tracer: Tracer,
    /// Operations whose outputs were checked.
    pub attempted: u64,
    /// Operations whose outputs failed a check.
    pub failed: u64,
    /// Why operations failed, for the report (first few only).
    pub failures: Vec<String>,
}

impl Ctx {
    /// A context for one run.
    pub fn new(seed: u64, seconds: f64, traced: bool) -> Ctx {
        Ctx {
            seed,
            seconds,
            meter: Meter::new(),
            tracer: Tracer::new(traced),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    /// Count one checked operation; `ok = false` fails it with `why`.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(why());
            }
        }
    }

    /// The instant the timed phase that starts now must stop at.
    pub fn deadline(&self) -> Instant {
        Instant::now() + Duration::from_secs_f64(self.seconds)
    }
}

/// Time `set_up` repeatedly inside a `setup` span. Every product but
/// the last goes to `dispose` (untimed); returns the calibrated seconds
/// of each repetition and the last product.
pub fn repeat_setup<T>(
    ctx: &mut Ctx,
    mut set_up: impl FnMut() -> T,
    mut dispose: impl FnMut(T),
) -> (Vec<f64>, T) {
    let span = ctx.tracer.open("bench", "setup");
    let started = Instant::now();
    let mut samples = Vec::new();
    let mut last = None;
    while samples.len() < SETUP_MIN_REPS
        || (samples.len() < SETUP_MAX_REPS && started.elapsed().as_secs_f64() < SETUP_MIN_S)
    {
        if let Some(previous) = last.take() {
            dispose(previous);
        }
        let (product, timed) = ctx.meter.time(&mut set_up);
        samples.push(timed.cal_s);
        last = Some(product);
    }
    ctx.tracer.close(span);
    (samples, last.expect("SETUP_MIN_REPS > 0"))
}

/// What a workload run measured.
pub struct Measured {
    /// `work_per_s`: the workload's units of work per calibrated second.
    pub work_per_s: f64,
    /// `latency_us`: the workload's single closed-loop operation.
    pub latency_us: f64,
    /// `setup_s`: median calibrated set-up time.
    pub setup_s: f64,
    /// Every timing behind the numbers above and the workload's own
    /// breakdown: `(name, unit, summary)`, printed in the report.
    pub timings: Vec<(String, &'static str, Summary)>,
    /// Individual latency samples in microseconds, where the workload
    /// has them, for the tail percentile.
    pub latency_samples_us: Vec<f64>,
}

/// Median of `samples`, recording the summary under `name`.
pub fn summarise(
    timings: &mut Vec<(String, &'static str, Summary)>,
    name: impl Into<String>,
    unit: &'static str,
    samples: &[f64],
) -> f64 {
    let s = Summary::of(samples).expect("every timing has at least one sample");
    timings.push((name.into(), unit, s));
    s.median
}
