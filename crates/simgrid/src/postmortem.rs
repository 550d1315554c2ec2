//! Post-mortem analysis of structured traces (§4's "the log is the
//! artifact" workflow): reconstruct per-client timelines, aggregate
//! retry/backoff distributions and count "the frequency of each
//! failure branch" from a record stream — a VM's own retained log or
//! a trace file, with no access to the run that produced it. The one
//! table that puts an event into words (`describe`) is here, so
//! every view of a run reads the same.

use crate::metrics::percentile;
use crate::trace::{TraceEv, TraceRecord, NO_ID};
use retry::Time;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;

/// Aggregates over one trace: span outcomes, backoff-delay samples,
/// command results and the scenario contention counters.
#[derive(Clone, Debug, Default)]
pub struct TraceSummary {
    /// Total records consumed.
    pub records: u64,
    /// Distinct client ids seen (excluding [`NO_ID`]), ascending.
    pub clients: Vec<i64>,
    /// Earliest and latest instants in the trace.
    pub window: Option<(Time, Time)>,
    /// `try` attempts admitted.
    pub attempts: u64,
    /// `try` spans that closed successfully; the attempt number each
    /// one succeeded on (the paper's attempts-per-success metric).
    pub success_attempts: Vec<u64>,
    /// Backoff delays drawn, in microseconds.
    pub backoff_us: Vec<u64>,
    /// `try` frames that spent their whole budget between attempts.
    pub exhausted: u64,
    /// `try` deadlines that fired mid-attempt.
    pub timeouts: u64,
    /// Failed `try` frames that entered a `catch` block.
    pub catches: u64,
    /// Commands started.
    pub cmd_starts: u64,
    /// Commands that completed successfully.
    pub cmd_ok: u64,
    /// Commands that completed with failure.
    pub cmd_failed: u64,
    /// Commands cancelled in flight.
    pub cmd_killed: u64,
    /// `forany` alternatives bound (each loop's first one included).
    pub alternatives: u64,
    /// `forall` statements that spawned their branches.
    pub forall_spawns: u64,
    /// Variables bound by assignment or capture.
    pub vars_set: u64,
    /// Whole script units completed.
    pub units_done: u64,
    /// Units that completed successfully.
    pub units_ok: u64,
    /// Carrier-sense probes of the contended resource.
    pub carrier_reads: u64,
    /// Clients that deferred after sensing a busy medium.
    pub deferrals: u64,
    /// Collisions on the contended resource.
    pub collisions: u64,
    /// Schedd crashes (the paper's broadcast jam).
    pub crashes: u64,
    /// Mid-write ENOSPC hits.
    pub enospc: u64,
    /// Faults injected by an armed fault plan, counted per kind tag
    /// (`schedd-kill`, `msg-loss`, …) in first-seen order.
    pub faults_injected: Vec<(String, u64)>,
    /// Past-scheduled events the engine clamped forward to `now`
    /// (summed over the trace's `queue-clamps` records; nonzero means
    /// something asked for an instant already in the past).
    pub queue_clamps: u64,
    /// Attempts admitted per client.
    pub attempts_by_client: BTreeMap<i64, u64>,
}

impl TraceSummary {
    /// Aggregate a record stream.
    pub fn from_records<'a>(records: impl IntoIterator<Item = &'a TraceRecord>) -> TraceSummary {
        let mut s = TraceSummary::default();
        let mut clients = std::collections::BTreeSet::new();
        for r in records {
            s.records += 1;
            if r.client != NO_ID {
                clients.insert(r.client);
            }
            s.window = Some(match s.window {
                None => (r.t, r.t),
                Some((lo, hi)) => (lo.min(r.t), hi.max(r.t)),
            });
            match &r.ev {
                TraceEv::AttemptStart { .. } => {
                    s.attempts += 1;
                    *s.attempts_by_client.entry(r.client).or_insert(0) += 1;
                }
                TraceEv::AttemptOk { attempt } => s.success_attempts.push(u64::from(*attempt)),
                TraceEv::Backoff { delay, .. } => s.backoff_us.push(delay.as_micros()),
                TraceEv::TryExhausted => s.exhausted += 1,
                TraceEv::TryTimeout => s.timeouts += 1,
                TraceEv::CatchEntered => s.catches += 1,
                TraceEv::CmdStart { .. } => s.cmd_starts += 1,
                TraceEv::CmdEnd { ok, .. } => {
                    if *ok {
                        s.cmd_ok += 1;
                    } else {
                        s.cmd_failed += 1;
                    }
                }
                TraceEv::CmdKilled { .. } => s.cmd_killed += 1,
                TraceEv::ForAnyNext { .. } => s.alternatives += 1,
                TraceEv::ForAllSpawn { .. } => s.forall_spawns += 1,
                TraceEv::VarSet { .. } => s.vars_set += 1,
                TraceEv::UnitDone { ok } => {
                    s.units_done += 1;
                    if *ok {
                        s.units_ok += 1;
                    }
                }
                TraceEv::CarrierSense { .. } => s.carrier_reads += 1,
                TraceEv::Deferral => s.deferrals += 1,
                TraceEv::Collision => s.collisions += 1,
                TraceEv::ScheddCrash => s.crashes += 1,
                TraceEv::Enospc => s.enospc += 1,
                TraceEv::FaultInjected { kind, .. } => {
                    match s.faults_injected.iter_mut().find(|(k, _)| k == kind) {
                        Some((_, n)) => *n += 1,
                        None => s.faults_injected.push((kind.clone(), 1)),
                    }
                }
                TraceEv::QueueClamps { count } => s.queue_clamps += count,
            }
        }
        s.clients = clients.into_iter().collect();
        s
    }

    /// `(min, p50, p95, max)` of the backoff delays drawn, in seconds.
    pub fn backoff_stats_s(&self) -> Option<(f64, f64, f64, f64)> {
        let mut v: Vec<f64> = self.backoff_us.iter().map(|&us| us as f64 / 1e6).collect();
        Some((
            percentile(&mut v, 0.0)?,
            percentile(&mut v, 0.5)?,
            percentile(&mut v, 0.95)?,
            percentile(&mut v, 1.0)?,
        ))
    }

    /// `(p50, p95, max)` of attempts needed per successful `try` span.
    pub fn attempts_per_success(&self) -> Option<(f64, f64, f64)> {
        let mut v: Vec<f64> = self.success_attempts.iter().map(|&a| a as f64).collect();
        Some((
            percentile(&mut v, 0.5)?,
            percentile(&mut v, 0.95)?,
            percentile(&mut v, 1.0)?,
        ))
    }

    /// The aligned text report the `figures postmortem` subcommand
    /// prints.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== trace post-mortem ==");
        let _ = writeln!(out, "{:<22} {}", "records", self.records);
        let _ = writeln!(out, "{:<22} {}", "clients", self.clients.len());
        if let Some((lo, hi)) = self.window {
            let _ = writeln!(
                out,
                "{:<22} {:.1}s .. {:.1}s",
                "window",
                lo.as_secs_f64(),
                hi.as_secs_f64()
            );
        }
        match self.attempts_per_success() {
            Some((p50, p95, max)) => {
                let _ = writeln!(
                    out,
                    "{:<22} {} ({} spans succeeded; attempts/success p50 {p50:.0}, p95 {p95:.0}, max {max:.0})",
                    "try attempts",
                    self.attempts,
                    self.success_attempts.len(),
                );
            }
            None => {
                let _ = writeln!(out, "{:<22} {}", "try attempts", self.attempts);
            }
        }
        match self.backoff_stats_s() {
            Some((min, p50, p95, max)) => {
                let _ = writeln!(
                    out,
                    "{:<22} {} (delay s: min {min:.2}, p50 {p50:.2}, p95 {p95:.2}, max {max:.2})",
                    "backoffs drawn",
                    self.backoff_us.len(),
                );
            }
            None => {
                let _ = writeln!(out, "{:<22} 0", "backoffs drawn");
            }
        }
        let _ = writeln!(
            out,
            "{:<22} {} exhausted, {} timed out, {} entered catch",
            "failed tries", self.exhausted, self.timeouts, self.catches
        );
        let _ = writeln!(
            out,
            "{:<22} {} started, {} ok, {} failed, {} killed",
            "commands", self.cmd_starts, self.cmd_ok, self.cmd_failed, self.cmd_killed
        );
        let _ = writeln!(
            out,
            "{:<22} {} forany alternatives, {} forall spawns, {} variables set",
            "script steps", self.alternatives, self.forall_spawns, self.vars_set
        );
        let _ = writeln!(
            out,
            "{:<22} {} ({} ok)",
            "units completed", self.units_done, self.units_ok
        );
        let _ = writeln!(out, "{:<22} {}", "carrier-sense reads", self.carrier_reads);
        let _ = writeln!(out, "{:<22} {}", "deferrals", self.deferrals);
        let _ = writeln!(out, "{:<22} {}", "collisions", self.collisions);
        let _ = writeln!(out, "{:<22} {}", "schedd crashes", self.crashes);
        let _ = writeln!(out, "{:<22} {}", "enospc hits", self.enospc);
        let total: u64 = self.faults_injected.iter().map(|(_, n)| n).sum();
        let _ = writeln!(out, "{:<22} {}", "faults injected", total);
        for (kind, n) in &self.faults_injected {
            let _ = writeln!(out, "{:<22} {}", format!("  {kind}"), n);
        }
        if self.queue_clamps > 0 {
            let _ = writeln!(
                out,
                "{:<22} {} (events scheduled into the past, moved to now)",
                "queue clamps", self.queue_clamps
            );
        }
        out
    }
}

/// Per-program counters from [`per_program`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProgramStats {
    /// Times the program was dispatched.
    pub started: u64,
    /// Times it exited zero.
    pub succeeded: u64,
    /// Times it exited nonzero.
    pub failed: u64,
    /// Times a deadline killed it.
    pub cancelled: u64,
}

/// Per-program statistics keyed by `argv[0]` — "the frequency of each
/// failure branch" of §4's post-mortem analysis.
pub fn per_program(records: &[TraceRecord]) -> BTreeMap<String, ProgramStats> {
    let mut map = BTreeMap::<String, ProgramStats>::new();
    for r in records {
        match &r.ev {
            TraceEv::CmdStart { program, .. } => {
                map.entry(program.clone()).or_default().started += 1;
            }
            TraceEv::CmdEnd { program, ok: true } => {
                map.entry(program.clone()).or_default().succeeded += 1;
            }
            TraceEv::CmdEnd { program, ok: false } => {
                map.entry(program.clone()).or_default().failed += 1;
            }
            TraceEv::CmdKilled { program } => {
                map.entry(program.clone()).or_default().cancelled += 1;
            }
            _ => {}
        }
    }
    map
}

/// How often each `forany` alternative was tried, keyed by the bound
/// value — which alternates actually carried the load.
pub fn alternative_frequency(records: &[TraceRecord]) -> BTreeMap<String, u64> {
    let mut map = BTreeMap::<String, u64>::new();
    for r in records {
        if let TraceEv::ForAnyNext { value } = &r.ev {
            *map.entry(value.clone()).or_default() += 1;
        }
    }
    map
}

/// When the command each `(client, task)` has in flight started: a
/// task runs one command at a time, so its `cmd-end` or `cmd-killed`
/// closes the `cmd-start` before it.
type InFlight = HashMap<(i64, i64), Time>;

/// The words for one record — the only place an event kind is turned
/// into text. A command's end carries its duration when `in_flight`
/// saw it start (a ring-truncated trace may not have).
fn describe(r: &TraceRecord, in_flight: &mut InFlight) -> String {
    let key = (r.client, r.task);
    let took = |in_flight: &mut InFlight| match in_flight.remove(&key) {
        Some(t0) => format!(" ({:.3}s)", r.t.saturating_since(t0).as_secs_f64()),
        None => String::new(),
    };
    match &r.ev {
        TraceEv::AttemptStart { attempt, budget } => match budget {
            Some(d) => format!("try attempt #{attempt} (budget {:.1}s)", d.as_secs_f64()),
            None => format!("try attempt #{attempt} (unbounded)"),
        },
        TraceEv::AttemptOk { attempt } => format!("try succeeded on attempt #{attempt}"),
        TraceEv::Backoff { attempt, delay } => format!(
            "attempt #{attempt} failed, backing off {:.2}s",
            delay.as_secs_f64()
        ),
        TraceEv::TryExhausted => "try budget exhausted".into(),
        TraceEv::TryTimeout => "try deadline fired mid-attempt".into(),
        TraceEv::CatchEntered => "entered catch block".into(),
        TraceEv::CmdStart { program, args } => {
            in_flight.insert(key, r.t);
            let mut line = format!("exec {program}");
            for a in args {
                line.push(' ');
                line.push_str(a);
            }
            line
        }
        TraceEv::CmdEnd { program, ok } => {
            let verdict = if *ok { "ok" } else { "failed" };
            format!("{program} {verdict}{}", took(in_flight))
        }
        TraceEv::CmdKilled { program } => format!("{program} killed{}", took(in_flight)),
        TraceEv::ForAnyNext { value } => format!("forany -> {value}"),
        TraceEv::ForAllSpawn { branches } => format!("forall x{branches}"),
        TraceEv::VarSet { name } => format!("set {name}"),
        TraceEv::UnitDone { ok } => {
            format!("unit done ({})", if *ok { "success" } else { "failure" })
        }
        TraceEv::CarrierSense { free } => format!("carrier sense: free={free}"),
        TraceEv::Deferral => "medium busy, deferring".into(),
        TraceEv::Collision => "collision".into(),
        TraceEv::ScheddCrash => "schedd crashed".into(),
        TraceEv::Enospc => "ENOSPC mid-write".into(),
        TraceEv::FaultInjected { kind, detail } => {
            if detail.is_empty() {
                format!("fault injected: {kind}")
            } else {
                format!("fault injected: {kind} ({detail})")
            }
        }
        TraceEv::QueueClamps { count } => {
            format!("{count} past-scheduled events clamped to now")
        }
    }
}

/// The execution log as text: one line per record in emission order,
/// each naming the client and task it belongs to (whichever it has).
pub fn render_log(records: &[TraceRecord]) -> String {
    let mut in_flight = InFlight::new();
    let mut out = String::new();
    for r in records {
        let _ = write!(out, "[{:>10.3}s]", r.t.as_secs_f64());
        if r.client != NO_ID {
            let _ = write!(out, " client {}", r.client);
        }
        if r.task != NO_ID {
            let _ = write!(out, " task {}", r.task);
        }
        let _ = writeln!(out, "  {}", describe(r, &mut in_flight));
    }
    out
}

/// Reconstruct swimlanes: one block per client, inside it one lane per
/// VM task (emission order preserved within a lane). Records that name
/// no task — what the world saw of a client: carrier sense, deferrals,
/// collisions — head their client's block; records that name no client
/// come first, world-scope events under their own heading and then the
/// lanes of a VM run outside any population. Pass `only` to restrict to
/// a single client.
pub fn render_timeline(records: &[TraceRecord], only: Option<i64>) -> String {
    let mut lanes: BTreeMap<(i64, i64), Vec<&TraceRecord>> = BTreeMap::new();
    for r in records {
        if only.is_some_and(|c| c != r.client) {
            continue;
        }
        lanes.entry((r.client, r.task)).or_default().push(r);
    }
    let mut in_flight = InFlight::new();
    let mut out = String::new();
    let mut block = None;
    for ((client, task), recs) in &lanes {
        if *client != NO_ID && block != Some(*client) {
            let _ = writeln!(out, "== client {client} ==");
            block = Some(*client);
        }
        if *task != NO_ID {
            let _ = writeln!(out, "task {task}");
        } else if *client == NO_ID {
            let _ = writeln!(out, "== world ==");
        }
        for r in recs {
            let _ = writeln!(
                out,
                "  [{:>10.3}s]  {}",
                r.t.as_secs_f64(),
                describe(r, &mut in_flight)
            );
        }
    }
    out
}

/// Reconstruct the coordinated-workload view of a trace: each
/// client's `UnitDone` records are its rounds (successes advance the
/// round counter, failures are rounds lost), and a round is *globally*
/// complete when every participating client has finished it — the
/// barrier semantics of `gridworld::coord`. Reports the per-rank
/// round timeline plus a time-to-global-completion summary
/// (count, p50, max over the global completion instants).
pub fn render_rounds(records: &[TraceRecord]) -> String {
    // Per client: completion instants of successful rounds (in
    // emission order, which is time order within a client) and the
    // count of failed units (rounds lost).
    let mut done_at: BTreeMap<i64, Vec<Time>> = BTreeMap::new();
    let mut lost: BTreeMap<i64, u64> = BTreeMap::new();
    for r in records {
        if r.client == NO_ID {
            continue;
        }
        if let TraceEv::UnitDone { ok } = r.ev {
            if ok {
                done_at.entry(r.client).or_default().push(r.t);
            } else {
                *lost.entry(r.client).or_insert(0) += 1;
            }
        }
    }
    let mut out = String::new();
    let _ = writeln!(out, "== rounds ==");
    if done_at.is_empty() && lost.is_empty() {
        let _ = writeln!(out, "no units completed");
        return out;
    }
    for (client, times) in &done_at {
        let last = times.last().map_or(0.0, |t| t.as_secs_f64());
        let _ = writeln!(
            out,
            "rank {client:>3}: {} done, {} lost, last at {last:.3}s",
            times.len(),
            lost.get(client).copied().unwrap_or(0),
        );
    }
    for (client, n) in &lost {
        if !done_at.contains_key(client) {
            let _ = writeln!(out, "rank {client:>3}: 0 done, {n} lost");
        }
    }
    // Round k is globally complete when every rank that completed
    // anything has a k-th success; its instant is the straggler's.
    let global_rounds = done_at.values().map(Vec::len).min().unwrap_or(0);
    let mut globals: Vec<f64> = (0..global_rounds)
        .map(|k| {
            done_at
                .values()
                .map(|ts| ts[k].as_secs_f64())
                .fold(0.0, f64::max)
        })
        .collect();
    for (k, t) in globals.iter().enumerate() {
        let _ = writeln!(out, "round {:>2} globally complete at {t:.3}s", k + 1);
    }
    let (p50, max) = (
        percentile(&mut globals, 0.5).unwrap_or(0.0),
        percentile(&mut globals, 1.0).unwrap_or(0.0),
    );
    let _ = writeln!(
        out,
        "time-to-global-completion: count {global_rounds}, p50 {p50:.3}s, max {max:.3}s"
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use retry::Dur;

    fn rec(t_s: u64, client: i64, ev: TraceEv) -> TraceRecord {
        TraceRecord {
            t: Time::from_secs(t_s),
            client,
            task: if client == NO_ID { NO_ID } else { 1 },
            ev,
        }
    }

    fn sample() -> Vec<TraceRecord> {
        vec![
            rec(
                1,
                0,
                TraceEv::AttemptStart {
                    attempt: 1,
                    budget: Some(Dur::from_secs(60)),
                },
            ),
            rec(
                1,
                0,
                TraceEv::CmdStart {
                    program: "wget".into(),
                    args: vec!["http://x/f".into()],
                },
            ),
            rec(
                3,
                0,
                TraceEv::CmdEnd {
                    program: "wget".into(),
                    ok: false,
                },
            ),
            rec(
                3,
                0,
                TraceEv::Backoff {
                    attempt: 1,
                    delay: Dur::from_secs(2),
                },
            ),
            rec(
                5,
                0,
                TraceEv::AttemptStart {
                    attempt: 2,
                    budget: Some(Dur::from_secs(56)),
                },
            ),
            rec(6, 0, TraceEv::AttemptOk { attempt: 2 }),
            rec(6, 0, TraceEv::UnitDone { ok: true }),
            rec(2, 1, TraceEv::CarrierSense { free: 3 }),
            rec(2, 1, TraceEv::Deferral),
            rec(4, NO_ID, TraceEv::ScheddCrash),
        ]
    }

    #[test]
    fn summary_counts_everything() {
        let s = TraceSummary::from_records(&sample());
        assert_eq!(s.records, 10);
        assert_eq!(s.clients, vec![0, 1]);
        assert_eq!(s.attempts, 2);
        assert_eq!(s.success_attempts, vec![2]);
        assert_eq!(s.backoff_us, vec![2_000_000]);
        assert_eq!(s.cmd_starts, 1);
        assert_eq!(s.cmd_failed, 1);
        assert_eq!((s.alternatives, s.forall_spawns, s.vars_set), (0, 0, 0));
        assert_eq!(s.units_done, 1);
        assert_eq!(s.units_ok, 1);
        assert_eq!(s.carrier_reads, 1);
        assert_eq!(s.deferrals, 1);
        assert_eq!(s.crashes, 1);
        assert_eq!(s.window, Some((Time::from_secs(1), Time::from_secs(6))));
        assert_eq!(s.attempts_by_client.get(&0), Some(&2));
        let (min, p50, _, max) = s.backoff_stats_s().unwrap();
        assert_eq!((min, p50, max), (2.0, 2.0, 2.0));
        let report = s.render();
        assert!(report.contains("try attempts"));
        assert!(report.contains("deferrals"));
        assert!(report.contains("schedd crashes"));
        assert!(report
            .lines()
            .any(|l| l.starts_with("schedd crashes") && l.ends_with('1')));
    }

    #[test]
    fn timeline_groups_by_client() {
        let t = render_timeline(&sample(), None);
        assert!(t.contains("== client 0 =="));
        assert!(t.contains("== client 1 =="));
        assert!(t.contains("== world =="));
        assert!(t.contains("try attempt #1 (budget 60.0s)"));
        assert!(t.contains("exec wget http://x/f"));
        assert!(t.contains("wget failed (2.000s)"));
        assert!(t.contains("medium busy, deferring"));
        let only1 = render_timeline(&sample(), Some(1));
        assert!(!only1.contains("client 0"));
        assert!(only1.contains("carrier sense: free=3"));
    }

    /// A `forall` with one branch killed, as a VM outside a population
    /// records it (no client id).
    fn forall_run() -> Vec<TraceRecord> {
        let at = |t_s: u64, task: i64, ev: TraceEv| TraceRecord {
            t: Time::from_secs(t_s),
            client: NO_ID,
            task,
            ev,
        };
        let start = |program: &str, arg: &str| TraceEv::CmdStart {
            program: program.into(),
            args: vec![arg.into()],
        };
        vec![
            at(0, 0, TraceEv::ForAllSpawn { branches: 2 }),
            at(0, 1, start("wget", "u")),
            at(0, 2, start("tar", "xf")),
            at(
                2,
                1,
                TraceEv::CmdEnd {
                    program: "wget".into(),
                    ok: false,
                },
            ),
            at(
                2,
                2,
                TraceEv::CmdKilled {
                    program: "tar".into(),
                },
            ),
            at(
                2,
                0,
                TraceEv::ForAnyNext {
                    value: "yyy".into(),
                },
            ),
            at(2, 0, start("wget", "v")),
            at(
                3,
                0,
                TraceEv::VarSet {
                    name: "page".into(),
                },
            ),
            at(
                3,
                0,
                TraceEv::CmdEnd {
                    program: "wget".into(),
                    ok: true,
                },
            ),
            at(3, 0, TraceEv::UnitDone { ok: true }),
        ]
    }

    #[test]
    fn timeline_gives_each_task_a_lane_and_each_command_its_duration() {
        let t = render_timeline(&forall_run(), None);
        let lines: Vec<&str> = t.lines().collect();
        let lane = |head: &str| lines.iter().position(|l| *l == head).expect(head);
        let (t0, t1, t2) = (lane("task 0"), lane("task 1"), lane("task 2"));
        assert!(t0 < t1 && t1 < t2, "{t}");
        assert!(!t.contains("=="), "no client, no world heading: {t}");
        assert!(lines[t0 + 1].ends_with("forall x2"), "{t}");
        assert!(lines[t1 + 1].ends_with("exec wget u"), "{t}");
        assert!(lines[t1 + 2].ends_with("wget failed (2.000s)"), "{t}");
        assert!(lines[t2 + 2].ends_with("tar killed (2.000s)"), "{t}");
        assert!(t.contains("forany -> yyy") && t.contains("set page"), "{t}");
        assert!(t.contains("wget ok (1.000s)"), "{t}");
    }

    #[test]
    fn log_is_emission_order_with_the_same_words() {
        let recs = forall_run();
        let log = render_log(&recs);
        assert_eq!(log.lines().count(), recs.len());
        let first = log.lines().next().unwrap();
        assert_eq!(first, "[     0.000s] task 0  forall x2");
        assert!(log.contains("] task 2  tar killed (2.000s)"), "{log}");
        // Every line of the log is a line of the timeline, lane aside.
        let timeline = render_timeline(&recs, None);
        for line in log.lines() {
            let words = line.rsplit_once("  ").unwrap().1;
            assert!(timeline.contains(words), "{words} not in {timeline}");
        }
        // Attributed records say whose they are.
        let mut world = sample();
        world.truncate(1);
        assert!(render_log(&world).contains("] client 0 task 1  try attempt #1"));
    }

    #[test]
    fn per_program_and_alternatives() {
        let recs = forall_run();
        let per = per_program(&recs);
        assert_eq!(per["wget"].started, 2);
        assert_eq!(per["wget"].failed, 1);
        assert_eq!(per["wget"].succeeded, 1);
        assert_eq!(per["tar"].started, 1);
        assert_eq!(per["tar"].cancelled, 1);
        assert_eq!(alternative_frequency(&recs)["yyy"], 1);
        let s = TraceSummary::from_records(&recs);
        assert_eq!((s.alternatives, s.forall_spawns, s.vars_set), (1, 1, 1));
        assert!(s
            .render()
            .contains("1 forany alternatives, 1 forall spawns, 1 variables set"));
    }

    #[test]
    fn faults_counted_per_kind() {
        let recs = vec![
            rec(
                1,
                NO_ID,
                TraceEv::FaultInjected {
                    kind: "schedd-kill".into(),
                    detail: "downtime_us=default".into(),
                },
            ),
            rec(
                2,
                NO_ID,
                TraceEv::FaultInjected {
                    kind: "schedd-kill".into(),
                    detail: "downtime_us=default".into(),
                },
            ),
            rec(
                3,
                NO_ID,
                TraceEv::FaultInjected {
                    kind: "msg-loss".into(),
                    detail: "channel=wget probability=0.5 duration_us=1".into(),
                },
            ),
        ];
        let s = TraceSummary::from_records(&recs);
        assert_eq!(
            s.faults_injected,
            vec![("schedd-kill".to_string(), 2), ("msg-loss".to_string(), 1)]
        );
        let report = s.render();
        assert!(report
            .lines()
            .any(|l| l.starts_with("faults injected") && l.ends_with('3')));
        assert!(report.contains("  schedd-kill"));
        let t = render_timeline(&recs, None);
        assert!(t.contains("fault injected: msg-loss (channel=wget"));
    }

    #[test]
    fn rounds_report_finds_the_straggler() {
        // Two ranks, two rounds. Rank 1 loses a round mid-way and is
        // the straggler on both global completions.
        let recs = vec![
            rec(5, 0, TraceEv::UnitDone { ok: true }),
            rec(8, 1, TraceEv::UnitDone { ok: true }),
            rec(10, 0, TraceEv::UnitDone { ok: true }),
            rec(12, 1, TraceEv::UnitDone { ok: false }),
            rec(20, 1, TraceEv::UnitDone { ok: true }),
        ];
        let out = render_rounds(&recs);
        assert!(out.contains("rank   0: 2 done, 0 lost, last at 10.000s"));
        assert!(out.contains("rank   1: 2 done, 1 lost, last at 20.000s"));
        assert!(out.contains("round  1 globally complete at 8.000s"));
        assert!(out.contains("round  2 globally complete at 20.000s"));
        assert!(out.contains("time-to-global-completion: count 2, p50 8.000s, max 20.000s"));
    }

    #[test]
    fn rounds_report_handles_empty_and_lossy_traces() {
        assert!(render_rounds(&[]).contains("no units completed"));
        // A rank that never succeeded still shows its losses.
        let recs = vec![
            rec(3, 0, TraceEv::UnitDone { ok: true }),
            rec(4, 7, TraceEv::UnitDone { ok: false }),
        ];
        let out = render_rounds(&recs);
        assert!(out.contains("rank   7: 0 done, 1 lost"));
        assert!(out.contains("time-to-global-completion: count 1"));
    }

    #[test]
    fn empty_trace_renders() {
        let s = TraceSummary::from_records(&[]);
        assert_eq!(s.records, 0);
        assert!(s.backoff_stats_s().is_none());
        assert!(s.render().contains("records"));
        assert_eq!(render_timeline(&[], None), "");
    }
}
