//! Scenario 1 — job submission (Figures 1–3).
//!
//! N submitters run `condor_submit` against one Condor schedd
//! ([`simgrid::Schedd`]: a FIFO server on the kernel file-descriptor
//! table it shares with its clients, crashing when it cannot get the
//! transient descriptors a service needs — the "broadcast jam" visible
//! as upward FD spikes in Figure 2). This world is the clients' side
//! of it: the carrier-sense probe, the `condor_submit` launch, think
//! times and sampling. The schedd reads no clock; the world puts its
//! wakes on the run's queue and turns what it answers into completed
//! commands and trace records.
//!
//! Attempt lifecycle: the schedd's own ([`Schedd::launch`]). A
//! `condor_submit` pins its descriptors (or fails after
//! `connect_fail_delay`), starts up and connects; a down schedd
//! refuses it. The startup must be nonzero: with none, `launch`
//! connects inside `exec`, where a crash could not answer.
//!
//! The Ethernet client reads the free-descriptor count
//! (`cut -f2 /proc/sys/fs/file-nr`) and defers below a threshold of
//! 1000, which keeps the whole system out of the crash region.
//!
//! Service time grows mildly with the number of submitter processes to
//! model CPU competition (§5: the Ethernet client keeps "about 50
//! percent of peak performance under load, due to competition for
//! managed resources, such as the CPU").

use crate::driver::{staggered_starts, ClientId, CommandWorld, Ctx, ExecOutcome, SimDriver};
use crate::lifecycle::NextUnit;
use crate::scripts::{submit_script, unit_vm};
use ftsh::vm::{CmdResult, CmdToken, CommandSpec, Vm};
use retry::{Discipline, Dur, Time};
use simgrid::faults::{FaultKind, FaultPlan};
use simgrid::trace::{SharedSink, TraceEv};
use simgrid::{Schedd, ScheddEffect, ScheddParams, ScheddTimer, Series, SimRng};

/// Parameters of the submission scenario. Defaults reproduce the
/// paper's setup (see DESIGN.md, experiments E1–E3).
#[derive(Clone, Debug)]
pub struct SubmitParams {
    /// Number of concurrent submitters (the x-axis of Figure 1).
    pub n_clients: usize,
    /// Client discipline.
    pub discipline: Discipline,
    /// The schedd and the descriptor table it shares with the clients.
    pub schedd: ScheddParams,
    /// How quickly a refused/failed attempt reports back.
    pub connect_fail_delay: Dur,
    /// Ethernet carrier-sense threshold (free FDs).
    pub threshold: u64,
    /// Pause after a successful unit before submitting the next job.
    pub success_think: Dur,
    /// Pause after a failed unit before starting over (the Fixed
    /// client repeats "without delay").
    pub failure_think: Dur,
    /// Cost of the carrier-sense probe itself.
    pub probe_cost: Dur,
    /// Clients start uniformly spread over this span.
    pub start_stagger: Dur,
    /// Metrics sampling interval for the timeline figures.
    pub sample_every: Dur,
    /// Master seed.
    pub seed: u64,
    /// Faults injected into this run (empty: none).
    pub fault_plan: FaultPlan,
}

impl Default for SubmitParams {
    fn default() -> SubmitParams {
        SubmitParams {
            n_clients: 400,
            discipline: Discipline::Ethernet,
            schedd: ScheddParams::default(),
            connect_fail_delay: Dur::from_millis(200),
            threshold: 1000,
            success_think: Dur::from_secs(1),
            failure_think: Dur::ZERO,
            probe_cost: Dur::from_millis(10),
            start_stagger: Dur::from_secs(10),
            sample_every: Dur::from_secs(5),
            seed: 0x5eed,
            fault_plan: FaultPlan::default(),
        }
    }
}

/// Scenario events.
#[derive(Debug)]
pub enum SubmitEv {
    /// One of the schedd's own timers went off.
    Schedd(ScheddTimer),
    /// Periodic metrics sample.
    Sample,
}

/// A submission: the client and its `condor_submit` command.
type Conn = (ClientId, CmdToken);

/// The clients' side of the schedd world.
struct SubmitWorld {
    params: SubmitParams,
    rng: SimRng,
    schedd: Schedd<Conn>,
    /// Sojourn (connect-to-served) times of completed submissions, in
    /// seconds.
    sojourns: Vec<f64>,
    /// The counters and timelines the run returns.
    out: SubmitOutcome,
}

/// Carry out what the schedd answered: a wake goes on the run's
/// queue, a served, refused or failed job completes its
/// `condor_submit`, a crash is counted and recorded.
fn apply(
    ctx: &mut Ctx<'_, SubmitEv>,
    out: &mut SubmitOutcome,
    sojourns: &mut Vec<f64>,
    fx: ScheddEffect<Conn>,
) {
    match fx {
        ScheddEffect::Wake(at, timer) => ctx.schedule(at, SubmitEv::Schedd(timer)),
        ScheddEffect::Served {
            job: (client, token),
            since,
        } => {
            sojourns.push(ctx.now().saturating_since(since).as_secs_f64());
            out.jobs_submitted += 1;
            ctx.complete(client, token, CmdResult::succeed());
        }
        ScheddEffect::Refused((client, token)) => {
            out.failed_connects += 1;
            ctx.complete(client, token, CmdResult::fail());
        }
        ScheddEffect::Failed((client, token)) => ctx.complete(client, token, CmdResult::fail()),
        ScheddEffect::Crashed => {
            out.crashes += 1;
            ctx.record(None, TraceEv::ScheddCrash);
        }
    }
}

impl SubmitWorld {
    fn new(params: SubmitParams) -> SubmitWorld {
        assert!(
            !params.schedd.attempt_startup.is_zero(),
            "the submission world needs a nonzero attempt_startup: \
             a zero one connects inside exec, where a crash cannot answer"
        );
        SubmitWorld {
            rng: SimRng::new(params.seed),
            schedd: Schedd::new(params.schedd, params.n_clients),
            sojourns: Vec::new(),
            out: SubmitOutcome {
                fd_series: Series::new("available FDs"),
                jobs_series: Series::new("jobs submitted"),
                ..SubmitOutcome::default()
            },
            params,
        }
    }

    fn sample(&mut self, now: Time) {
        let out = &mut self.out;
        out.fd_series.push(now, self.schedd.fds().free() as f64);
        out.jobs_series.push(now, out.jobs_submitted as f64);
    }
}

impl CommandWorld for SubmitWorld {
    type Ev = SubmitEv;

    fn exec(
        &mut self,
        ctx: &mut Ctx<'_, SubmitEv>,
        client: ClientId,
        token: CmdToken,
        spec: &CommandSpec,
    ) -> ExecOutcome {
        match spec.program() {
            // The carrier-sense probe: report free descriptors.
            "cut" => {
                let free = self.schedd.fds().free();
                if ctx.sense(client, free, self.params.threshold) {
                    self.out.deferrals += 1;
                }
                ExecOutcome::At(ctx.now() + self.params.probe_cost, ctx.count(free))
            }
            "condor_submit" => {
                let now = ctx.now();
                let launched = self.schedd.launch(now, (client, token), &mut |fx| {
                    apply(ctx, &mut self.out, &mut self.sojourns, fx);
                });
                if launched.is_ok() {
                    return ExecOutcome::Held;
                }
                // No room for the attempt's own descriptors: the
                // process cannot even be loaded and run.
                self.out.failed_connects += 1;
                ExecOutcome::At(now + self.params.connect_fail_delay, CmdResult::fail())
            }
            _ => ExecOutcome::Now(CmdResult::fail()),
        }
    }

    fn cancelled(&mut self, ctx: &mut Ctx<'_, SubmitEv>, client: ClientId, token: CmdToken) {
        let conn = (client, token);
        self.schedd.leave(ctx.now(), |&j| j == conn, &mut |fx| {
            apply(ctx, &mut self.out, &mut self.sojourns, fx);
        });
    }

    fn inject_fault(&mut self, ctx: &mut Ctx<'_, SubmitEv>, kind: &FaultKind) {
        let now = ctx.now();
        let fx = &mut |fx| apply(ctx, &mut self.out, &mut self.sojourns, fx);
        match kind {
            FaultKind::ScheddKill { downtime } => self.schedd.kill(now, *downtime, fx),
            FaultKind::ScheddRestart => self.schedd.restart(now, fx),
            _ => {}
        }
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_, SubmitEv>, ev: SubmitEv) {
        let now = ctx.now();
        match ev {
            SubmitEv::Schedd(timer) => {
                self.schedd.on_timer(now, timer, &mut |fx| {
                    apply(ctx, &mut self.out, &mut self.sojourns, fx);
                });
            }
            SubmitEv::Sample => {
                self.sample(now);
                ctx.schedule(now + self.params.sample_every, SubmitEv::Sample);
            }
        }
    }

    fn unit_done(
        &mut self,
        ctx: &mut Ctx<'_, SubmitEv>,
        _client: ClientId,
        success: bool,
    ) -> Option<NextUnit> {
        let think = if success {
            self.params.success_think
        } else {
            self.params.failure_think
        };
        Some((ftsh::Env::new(), self.rng.next_u64(), ctx.now() + think))
    }
}

/// Results of one submission run.
#[derive(Debug, Default)]
pub struct SubmitOutcome {
    /// Jobs fully serviced by the schedd.
    pub jobs_submitted: u64,
    /// Times the schedd crashed from descriptor starvation.
    pub crashes: u64,
    /// Carrier-sense deferrals (Ethernet only).
    pub deferrals: u64,
    /// Refused or FD-starved attempts.
    pub failed_connects: u64,
    /// Lowest free-FD level seen.
    pub min_free_fds: u64,
    /// Timeline of free descriptors (sampled).
    pub fd_series: Series,
    /// Timeline of cumulative submissions (sampled).
    pub jobs_series: Series,
    /// Aggregated ftsh log summary across all finished work units
    /// (attempts, backoffs, kills).
    pub client_totals: ftsh::LogSummary,
    /// Median connect-to-served latency in seconds (None if no job
    /// completed).
    pub sojourn_p50: Option<f64>,
    /// 95th-percentile connect-to-served latency in seconds.
    pub sojourn_p95: Option<f64>,
    /// Events popped from this run's own queue (per-run engine work).
    pub events_popped: u64,
    /// VM ticks this run's driver issued.
    pub vm_ticks: u64,
    /// Past-scheduled events the queue clamped forward to `now`
    /// (nonzero means scenario or driver code asked for an instant
    /// already in the past).
    pub queue_clamps: u64,
    /// Events scheduled past the window's end, counted and not stored.
    pub events_discarded: u64,
    /// Wakes popped that an ended unit left behind ([`crate::RunCounts`]).
    pub stale_wakes: u64,
    /// Units a stale wake started before their start instant.
    pub early_units: u64,
}

/// Run the scenario for `duration` of virtual time. Panics if
/// `params.schedd.attempt_startup` is zero (see the module docs).
///
/// ```
/// use gridworld::{run_submission, SubmitParams};
/// use retry::{Discipline, Dur};
///
/// let o = run_submission(
///     SubmitParams {
///         n_clients: 5,
///         discipline: Discipline::Aloha,
///         ..SubmitParams::default()
///     },
///     Dur::from_secs(30),
/// );
/// assert!(o.jobs_submitted > 0);
/// assert_eq!(o.crashes, 0);
/// ```
pub fn run_submission(params: SubmitParams, duration: Dur) -> SubmitOutcome {
    run_submission_traced(params, duration, None)
}

/// [`run_submission`] with an optional structured-trace sink: every
/// client VM plus the schedd world record into it (attempt spans,
/// backoffs, probes, deferrals, crashes).
pub fn run_submission_traced(
    params: SubmitParams,
    duration: Dur,
    sink: Option<SharedSink>,
) -> SubmitOutcome {
    let world = SubmitWorld::new(params.clone());
    let mut rng = SimRng::new(params.seed ^ 0xC11E);
    let script = submit_script(params.discipline, params.threshold);
    let vms: Vec<Vm> = (0..params.n_clients)
        .map(|c| {
            let seed = rng.fork(c as u64).next_u64();
            unit_vm(&script, params.discipline, ftsh::Env::new(), seed)
        })
        .collect();
    let starts = staggered_starts(&mut rng, params.n_clients, params.start_stagger);
    let mut driver = SimDriver::with_starts(world, vms, starts);
    let run = driver.run_traced(sink, params.fault_plan, Time::ZERO + duration, |d| {
        d.schedule_world(Time::ZERO, SubmitEv::Sample);
    });
    let mut w = driver.world;
    SubmitOutcome {
        min_free_fds: w.schedd.fds().min_free_seen(),
        client_totals: driver.log_totals,
        sojourn_p50: simgrid::percentile(&mut w.sojourns, 0.5),
        sojourn_p95: simgrid::percentile(&mut w.sojourns, 0.95),
        events_popped: run.events_popped,
        vm_ticks: run.vm_ticks,
        queue_clamps: run.queue_clamps,
        events_discarded: run.events_discarded,
        stale_wakes: run.stale_wakes,
        early_units: run.early_units,
        ..w.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(discipline: Discipline, n: usize) -> SubmitOutcome {
        let params = SubmitParams {
            n_clients: n,
            discipline,
            ..SubmitParams::default()
        };
        run_submission(params, Dur::from_secs(120))
    }

    #[test]
    fn low_load_all_disciplines_submit() {
        for d in Discipline::ALL {
            let o = quick(d, 20);
            assert!(o.jobs_submitted > 50, "{d}: {} jobs", o.jobs_submitted);
            assert_eq!(o.crashes, 0, "{d} must not crash the schedd at n=20");
        }
    }

    #[test]
    fn fixed_overload_crashes_schedd_to_near_zero() {
        let o = quick(Discipline::Fixed, 450);
        assert!(o.crashes >= 2, "crash loop expected, got {}", o.crashes);
        let healthy = quick(Discipline::Fixed, 100).jobs_submitted;
        assert!(
            o.jobs_submitted * 4 < healthy,
            "fixed should collapse: {} vs healthy {}",
            o.jobs_submitted,
            healthy
        );
    }

    #[test]
    fn ethernet_overload_keeps_schedd_alive() {
        let o = quick(Discipline::Ethernet, 450);
        assert_eq!(o.crashes, 0, "carrier sense must prevent crashes");
        assert!(
            o.min_free_fds >= 300,
            "free FDs held near threshold, saw {}",
            o.min_free_fds
        );
        assert!(o.jobs_submitted > 100, "{} jobs", o.jobs_submitted);
        assert!(o.deferrals > 0);
    }

    #[test]
    fn ethernet_beats_aloha_beats_fixed_under_overload() {
        let e = quick(Discipline::Ethernet, 450).jobs_submitted;
        let a = quick(Discipline::Aloha, 450).jobs_submitted;
        let f = quick(Discipline::Fixed, 450).jobs_submitted;
        assert!(e > a, "ethernet {e} <= aloha {a}");
        assert!(a > f, "aloha {a} <= fixed {f}");
    }

    #[test]
    fn aloha_fd_timeline_recovers_after_crashes() {
        // The Figure 2 sawtooth: after the initial exhaustion the
        // backoff spreads clients out and free FDs rise again.
        let o = quick(Discipline::Aloha, 450);
        assert!(o.crashes >= 1, "aloha must crash at 450: {}", o.crashes);
        let late_max = o
            .fd_series
            .points
            .iter()
            .filter(|&&(t, _)| t > 20.0)
            .map(|&(_, v)| v)
            .fold(0.0f64, f64::max);
        assert!(
            late_max > 2000.0,
            "free FDs should spike upward after crashes, max {late_max}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let a = quick(Discipline::Aloha, 100);
        let b = quick(Discipline::Aloha, 100);
        assert_eq!(a.jobs_submitted, b.jobs_submitted);
        assert_eq!(a.fd_series, b.fd_series);
    }

    #[test]
    fn sojourn_latency_grows_with_load() {
        let light = quick(Discipline::Ethernet, 20);
        let heavy = quick(Discipline::Ethernet, 450);
        let (l, h) = (light.sojourn_p50.unwrap(), heavy.sojourn_p50.unwrap());
        assert!(
            h > 5.0 * l,
            "queueing under load: light p50 {l:.2}s vs heavy p50 {h:.2}s"
        );
        assert!(heavy.sojourn_p95.unwrap() >= h);
    }

    #[test]
    fn aggregated_log_shows_backoff_under_overload() {
        let a = quick(Discipline::Aloha, 450);
        assert!(a.client_totals.attempts > a.jobs_submitted);
        assert!(
            a.client_totals.total_backoff > retry::Dur::from_mins(10),
            "population-wide backoff time: {}",
            a.client_totals.total_backoff
        );
        let f = quick(Discipline::Fixed, 450);
        assert_eq!(f.client_totals.backoffs, 0, "fixed clients never back off");
    }

    #[test]
    #[should_panic(expected = "nonzero attempt_startup")]
    fn a_zero_attempt_startup_is_refused() {
        let params = SubmitParams {
            schedd: ScheddParams {
                attempt_startup: Dur::ZERO,
                ..ScheddParams::default()
            },
            ..SubmitParams::default()
        };
        run_submission(params, Dur::from_secs(1));
    }

    #[test]
    fn samples_cover_the_window() {
        let o = quick(Discipline::Ethernet, 50);
        assert!(o.fd_series.len() >= 23, "samples: {}", o.fd_series.len());
        assert_eq!(o.fd_series.len(), o.jobs_series.len());
    }
}
