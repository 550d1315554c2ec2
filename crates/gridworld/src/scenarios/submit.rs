//! Scenario 1 — job submission (Figures 1–3).
//!
//! N submitters run `condor_submit` against one Condor schedd. The
//! contended resource is the kernel file-descriptor table: every
//! running `condor_submit` *attempt* pins descriptors (stdio, the job
//! file, libraries, its socket) for its lifetime, accepted submissions
//! keep them pinned while queued at the schedd, and the schedd itself
//! needs a burst of transient descriptors to service each submission.
//! When that burst cannot be allocated the schedd dies — failing every
//! connected client at once, the "broadcast jam" visible as upward FD
//! spikes in Figure 2 — and restarts after a downtime.
//!
//! Attempt lifecycle: allocate FDs (or fail to even start), one second
//! of client-side startup, then connect. A down schedd or a full
//! accept backlog refuses the connection; otherwise the submission
//! queues and the single-threaded schedd services it in FIFO order,
//! pausing briefly for bookkeeping between services — the window in
//! which aggressive clients can steal the descriptors it needs.
//!
//! The Ethernet client reads the free-descriptor count
//! (`cut -f2 /proc/sys/fs/file-nr`) and defers below a threshold of
//! 1000, which keeps the whole system out of the crash region.
//!
//! Service time grows mildly with the number of submitter processes to
//! model CPU competition (§5: the Ethernet client keeps "about 50
//! percent of peak performance under load, due to competition for
//! managed resources, such as the CPU").

use crate::driver::{
    staggered_starts, ClientId, CommandWorld, Ctx, ExecOutcome, NextUnit, SimDriver,
};
use crate::scripts::{submit_script, unit_vm};
use ftsh::vm::{CmdResult, CmdToken, CommandSpec, Vm};
use retry::{Discipline, Dur, Time};
use simgrid::faults::{FaultKind, FaultPlan};
use simgrid::trace::{carrier_sense, emit, SharedSink, TraceEv, NO_ID};
use simgrid::{FdTable, IdMap, Series, SimRng};
use std::collections::VecDeque;

/// Parameters of the submission scenario. Defaults reproduce the
/// paper's setup (see DESIGN.md, experiments E1–E3).
#[derive(Clone, Debug)]
pub struct SubmitParams {
    /// Number of concurrent submitters (the x-axis of Figure 1).
    pub n_clients: usize,
    /// Client discipline.
    pub discipline: Discipline,
    /// Kernel FD table size (the paper's figures top out near 8000).
    pub fd_capacity: u64,
    /// Descriptors pinned by one running submission attempt.
    pub fds_per_attempt: u64,
    /// Transient descriptors the schedd needs while servicing one
    /// submission; failing to get them kills the schedd (the crash
    /// knee). The constant's only home: no fault plan overrides it.
    pub schedd_service_fds: u64,
    /// Client-side startup time of `condor_submit` before it connects.
    pub attempt_startup: Dur,
    /// Maximum connections the schedd will hold (accept backlog);
    /// beyond this, connections are refused quickly. The constant's
    /// only home: no fault plan overrides it.
    pub backlog: usize,
    /// Base time to service one submission on an idle machine.
    pub base_service: Dur,
    /// CPU competition: service time scales by `1 + n_clients / this`.
    pub cpu_scale: f64,
    /// How quickly a refused/failed attempt reports back.
    pub connect_fail_delay: Dur,
    /// Bookkeeping gap between services: the window in which clients
    /// can steal the schedd's descriptors.
    pub service_gap: Dur,
    /// Schedd restart downtime after a crash.
    pub restart_downtime: Dur,
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
            fd_capacity: 8000,
            fds_per_attempt: 20,
            schedd_service_fds: 50,
            attempt_startup: Dur::from_secs(1),
            backlog: 1000,
            base_service: Dur::from_millis(300),
            cpu_scale: 400.0,
            connect_fail_delay: Dur::from_millis(200),
            service_gap: Dur::from_millis(50),
            restart_downtime: Dur::from_secs(10),
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
    /// A submission attempt finished its client-side startup and is
    /// ready to connect.
    AttemptReady {
        /// Owning client.
        client: ClientId,
        /// Its command token.
        token: CmdToken,
    },
    /// The submission being serviced finished (valid only for the
    /// matching service sequence number).
    ServiceDone {
        /// Sequence number of the service this event belongs to.
        seq: u64,
    },
    /// The bookkeeping gap ended: pick up the next queued submission.
    ServiceStart,
    /// The schedd comes back up after a crash.
    Restart,
    /// Periodic metrics sample.
    Sample,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SubState {
    /// Client-side startup in progress (holds attempt FDs).
    Starting,
    /// Connected at `since`, waiting in the schedd's FIFO.
    Queued { since: Time },
    /// Connected at `since`, being serviced.
    Serving { since: Time },
}

/// The schedd + FD-table world.
pub struct SubmitWorld {
    params: SubmitParams,
    rng: SimRng,
    fds: FdTable,
    schedd_up: bool,
    /// Live submission attempts, where they are, and since when.
    subs: IdMap<(ClientId, CmdToken), SubState>,
    /// FIFO of connected submissions waiting for service.
    queue: VecDeque<(ClientId, CmdToken)>,
    /// Sojourn (connect-to-served) times of completed submissions, in
    /// seconds.
    pub sojourns: Vec<f64>,
    serving: Option<(ClientId, CmdToken)>,
    service_seq: u64,
    transient_held: bool,
    gap_pending: bool,
    /// Completed (serviced) job submissions — the paper's throughput
    /// metric.
    pub jobs_submitted: u64,
    /// Schedd crashes observed.
    pub crashes: u64,
    /// Carrier-sense deferrals (Ethernet only).
    pub deferrals: u64,
    /// Refused or FD-starved attempts.
    pub failed_connects: u64,
    /// Timeline of available FDs.
    pub fd_series: Series,
    /// Timeline of cumulative jobs submitted.
    pub jobs_series: Series,
    /// Structured-trace sink for scenario-level events (crashes,
    /// probes, deferrals); `None` ⇒ no records, no cost.
    trace: Option<SharedSink>,
    /// Interned probe outputs keyed by the free-FD count: the same
    /// handful of counts is reported millions of times, so the probe
    /// path reuses one `Istr` per distinct value instead of formatting
    /// a fresh `String` each time.
    probe_out: IdMap<u64, ftsh::Istr>,
}

impl SubmitWorld {
    fn new(params: SubmitParams) -> SubmitWorld {
        SubmitWorld {
            rng: SimRng::new(params.seed),
            fds: FdTable::new(params.fd_capacity),
            schedd_up: true,
            subs: IdMap::default(),
            queue: VecDeque::new(),
            sojourns: Vec::new(),
            serving: None,
            service_seq: 0,
            transient_held: false,
            gap_pending: false,
            jobs_submitted: 0,
            crashes: 0,
            deferrals: 0,
            failed_connects: 0,
            fd_series: Series::new("available FDs"),
            jobs_series: Series::new("jobs submitted"),
            trace: None,
            probe_out: IdMap::default(),
            params,
        }
    }

    fn service_time(&self) -> Dur {
        let factor = 1.0 + self.params.n_clients as f64 / self.params.cpu_scale;
        self.params.base_service.mul_f64(factor)
    }

    /// Drop a submission's descriptors and bookkeeping.
    fn release_sub(&mut self, conn: (ClientId, CmdToken)) {
        if self.subs.remove(&conn).is_some() {
            self.fds.release(self.params.fds_per_attempt);
        }
    }

    /// Begin servicing the head of the queue. On transient-FD
    /// starvation the schedd crashes, failing every connected client.
    fn start_service(&mut self, ctx: &mut Ctx<'_, SubmitEv>) {
        debug_assert!(self.serving.is_none());
        let Some(head) = self.queue.pop_front() else {
            return;
        };
        self.serving = Some(head);
        if let Some(state) = self.subs.get_mut(&head) {
            if let SubState::Queued { since } = *state {
                *state = SubState::Serving { since };
            }
        }
        if self.fds.alloc(self.params.schedd_service_fds).is_err() {
            self.crash(ctx);
            return;
        }
        self.transient_held = true;
        self.service_seq += 1;
        ctx.schedule(
            ctx.now() + self.service_time(),
            SubmitEv::ServiceDone {
                seq: self.service_seq,
            },
        );
    }

    /// The schedd dies: every connected client fails at once (the
    /// broadcast jam) and all of their descriptors return to the table.
    fn crash(&mut self, ctx: &mut Ctx<'_, SubmitEv>) {
        self.crash_after(ctx, self.params.restart_downtime);
    }

    /// [`crash`](Self::crash) with an explicit downtime — injected
    /// [`FaultKind::ScheddKill`] faults may override the default.
    fn crash_after(&mut self, ctx: &mut Ctx<'_, SubmitEv>, down: Dur) {
        self.crashes += 1;
        emit(&self.trace, ctx.now(), NO_ID, NO_ID, TraceEv::ScheddCrash);
        self.schedd_up = false;
        self.gap_pending = false;
        self.service_seq += 1; // invalidate any pending ServiceDone
        if self.transient_held {
            self.fds.release(self.params.schedd_service_fds);
            self.transient_held = false;
        }
        if let Some(conn) = self.serving.take() {
            self.release_sub(conn);
            ctx.complete(conn.0, conn.1, CmdResult::fail());
        }
        while let Some(conn) = self.queue.pop_front() {
            self.release_sub(conn);
            ctx.complete(conn.0, conn.1, CmdResult::fail());
        }
        ctx.schedule(ctx.now() + down, SubmitEv::Restart);
    }

    fn sample(&mut self, now: Time) {
        self.fd_series.push(now, self.fds.free() as f64);
        self.jobs_series.push(now, self.jobs_submitted as f64);
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
                let (free, now) = (self.fds.free(), ctx.now());
                if carrier_sense(free, self.params.threshold, |ev| {
                    emit(&self.trace, now, client as i64, NO_ID, ev);
                }) {
                    self.deferrals += 1;
                }
                // Interned per distinct count, with no trailing
                // newline so the VM's capture fast path can bind the
                // handle itself instead of re-trimming into a copy.
                let out = self
                    .probe_out
                    .entry(free)
                    .or_insert_with(|| ftsh::Istr::from(free.to_string()))
                    .clone();
                ExecOutcome::At(ctx.now() + self.params.probe_cost, CmdResult::ok(out))
            }
            "condor_submit" => {
                // The attempt's own descriptors: without them the
                // process cannot even be loaded and run.
                if self.fds.alloc(self.params.fds_per_attempt).is_err() {
                    self.failed_connects += 1;
                    return ExecOutcome::At(
                        ctx.now() + self.params.connect_fail_delay,
                        CmdResult::fail(),
                    );
                }
                self.subs.insert((client, token), SubState::Starting);
                ctx.schedule(
                    ctx.now() + self.params.attempt_startup,
                    SubmitEv::AttemptReady { client, token },
                );
                ExecOutcome::Held
            }
            _ => ExecOutcome::Now(CmdResult::fail()),
        }
    }

    fn cancelled(&mut self, ctx: &mut Ctx<'_, SubmitEv>, client: ClientId, token: CmdToken) {
        let conn = (client, token);
        match self.subs.get(&conn) {
            None => {}
            Some(SubState::Starting) => self.release_sub(conn),
            Some(SubState::Queued { .. }) => {
                self.queue.retain(|&c| c != conn);
                self.release_sub(conn);
            }
            Some(SubState::Serving { .. }) => {
                self.serving = None;
                self.service_seq += 1;
                if self.transient_held {
                    self.fds.release(self.params.schedd_service_fds);
                    self.transient_held = false;
                }
                self.release_sub(conn);
                if !self.gap_pending {
                    self.gap_pending = true;
                    ctx.schedule(ctx.now() + self.params.service_gap, SubmitEv::ServiceStart);
                }
            }
        }
    }

    fn inject_fault(&mut self, ctx: &mut Ctx<'_, SubmitEv>, kind: &FaultKind) {
        match kind {
            FaultKind::ScheddKill { downtime } if self.schedd_up => {
                let down = downtime.unwrap_or(self.params.restart_downtime);
                self.crash_after(ctx, down);
            }
            FaultKind::ScheddRestart => {
                self.schedd_up = true;
                if self.serving.is_none() && !self.gap_pending {
                    self.start_service(ctx);
                }
            }
            _ => {}
        }
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_, SubmitEv>, ev: SubmitEv) {
        match ev {
            SubmitEv::AttemptReady { client, token } => {
                let conn = (client, token);
                if self.subs.get(&conn) != Some(&SubState::Starting) {
                    return; // cancelled while starting up
                }
                if !self.schedd_up || self.queue.len() >= self.params.backlog {
                    // Connection refused.
                    self.failed_connects += 1;
                    self.release_sub(conn);
                    ctx.complete(client, token, CmdResult::fail());
                    return;
                }
                self.subs
                    .insert(conn, SubState::Queued { since: ctx.now() });
                self.queue.push_back(conn);
                if self.serving.is_none() && !self.gap_pending {
                    self.start_service(ctx);
                }
            }
            SubmitEv::ServiceDone { seq } => {
                if seq != self.service_seq || self.serving.is_none() {
                    return; // stale: service aborted or schedd died
                }
                let conn = self.serving.take().expect("checked");
                if self.transient_held {
                    self.fds.release(self.params.schedd_service_fds);
                    self.transient_held = false;
                }
                if let Some(&SubState::Serving { since }) = self.subs.get(&conn) {
                    self.sojourns
                        .push(ctx.now().saturating_since(since).as_secs_f64());
                }
                self.release_sub(conn);
                self.jobs_submitted += 1;
                ctx.complete(conn.0, conn.1, CmdResult::succeed());
                self.gap_pending = true;
                ctx.schedule(ctx.now() + self.params.service_gap, SubmitEv::ServiceStart);
            }
            SubmitEv::ServiceStart => {
                self.gap_pending = false;
                if self.schedd_up && self.serving.is_none() {
                    self.start_service(ctx);
                }
            }
            SubmitEv::Restart => {
                self.schedd_up = true;
            }
            SubmitEv::Sample => {
                self.sample(ctx.now());
                ctx.schedule(ctx.now() + self.params.sample_every, SubmitEv::Sample);
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
#[derive(Debug)]
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
}

/// Run the scenario for `duration` of virtual time.
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
    trace: Option<SharedSink>,
) -> SubmitOutcome {
    let mut world = SubmitWorld::new(params.clone());
    world.trace.clone_from(&trace);
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
    let (events_popped, vm_ticks, queue_clamps, events_discarded) =
        driver.run_traced(trace, params.fault_plan, Time::ZERO + duration, |d| {
            d.schedule_world(Time::ZERO, SubmitEv::Sample);
        });
    let totals = driver.log_totals;
    let w = &driver.world;
    let mut sojourns = w.sojourns.clone();
    let p50 = simgrid::percentile(&mut sojourns, 0.5);
    let p95 = simgrid::percentile(&mut sojourns, 0.95);
    SubmitOutcome {
        jobs_submitted: w.jobs_submitted,
        crashes: w.crashes,
        deferrals: w.deferrals,
        failed_connects: w.failed_connects,
        min_free_fds: w.fds.min_free_seen(),
        fd_series: w.fd_series.clone(),
        jobs_series: w.jobs_series.clone(),
        client_totals: totals,
        sojourn_p50: p50,
        sojourn_p95: p95,
        events_popped,
        vm_ticks,
        queue_clamps,
        events_discarded,
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
    fn samples_cover_the_window() {
        let o = quick(Discipline::Ethernet, 50);
        assert!(o.fd_series.len() >= 23, "samples: {}", o.fd_series.len());
        assert_eq!(o.fd_series.len(), o.jobs_series.len());
    }
}
