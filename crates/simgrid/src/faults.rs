//! Deterministic, seeded fault-injection plans.
//!
//! The paper's argument is that the Ethernet discipline survives
//! *induced* failure — crashed schedds, full disks, black-holed
//! servers. A [`FaultPlan`] makes that induced failure data: a list of
//! seeded, time-triggered [`FaultSpec`]s that the sim driver arms at
//! startup and fires deterministically from the virtual clock plus a
//! per-plan RNG stream. Every injection is emitted as a
//! `TraceEv::FaultInjected` record through the structured-trace
//! pipeline, so a post-mortem can always reconstruct *which* faults a
//! run was subjected to.
//!
//! A plan holds only faults: time-triggered events the driver
//! schedules (schedd kill/restart, ENOSPC windows, free-space lies,
//! black-hole toggles, per-channel message loss and latency spikes, VM
//! clock skew, client kills), plus the conformance harness's standing
//! first-N command failures ([`FaultKind::CmdFailFirst`]). A world's
//! own constants — its crash knee, its disk size, its black holes —
//! live in its `*Params`, never here, so the empty plan is the paper's
//! world unperturbed.
//!
//! Plans serialize to a small JSON document (`PLAN.json`) consumed by
//! `figures --faults` and the conformance harness; see
//! [`FaultPlan::to_json`] for the schema.

use crate::rng::SimRng;
use retry::{Dur, Time};
use std::fmt::Write as _;

/// What a single fault does when it fires.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultKind {
    /// Kill the scenario's schedd (service process) immediately. The
    /// schedd restarts after `downtime`, or after the scenario's own
    /// default downtime when `None`.
    ScheddKill {
        /// Time until automatic restart (`None`: scenario default).
        downtime: Option<Dur>,
    },
    /// Restart the schedd now if it is down (no-op otherwise).
    ScheddRestart,
    /// All disk writes report mid-file ENOSPC for `duration`,
    /// regardless of actual free space.
    EnospcWindow {
        /// How long writes keep failing.
        duration: Dur,
    },
    /// The free-space estimator lies by `delta_bytes` (positive:
    /// reports more free than real; negative: less) for `duration` —
    /// an attack on carrier sense itself.
    FreeSpaceLie {
        /// Bytes added to every estimate while active.
        delta_bytes: i64,
        /// How long the estimator keeps lying.
        duration: Dur,
    },
    /// Turn a named server into a black hole (`enable`) or back into a
    /// normal server (`!enable`). Repeating this spec flaps the server.
    ServerBlackHole {
        /// Server name as the scenario knows it (e.g. `yyy`).
        server: String,
        /// `true`: become a black hole; `false`: recover.
        enable: bool,
    },
    /// While active, completions on `channel` (program name) are lost
    /// with `probability` (drawn from the plan RNG stream): the command
    /// appears to fail, as a dropped reply does.
    MsgLoss {
        /// Program name whose completions are lossy.
        channel: String,
        /// Per-message loss probability in `[0, 1]`.
        probability: f64,
        /// How long the channel stays lossy.
        duration: Dur,
    },
    /// While active, completions on `channel` are delayed by `extra`.
    LatencySpike {
        /// Program name whose completions are delayed.
        channel: String,
        /// Added latency per completion.
        extra: Dur,
        /// How long the spike lasts.
        duration: Dur,
    },
    /// Client `client`'s VM clock runs `skew_us` microseconds ahead
    /// (positive) or behind (negative) the sim clock from the trigger
    /// onward.
    ClockSkew {
        /// Client index within the scenario.
        client: usize,
        /// Offset applied to the VM's view of now, in microseconds.
        skew_us: i64,
    },
    /// Kill client `client`'s VM mid-run: the in-flight work unit is
    /// lost (live commands are cancelled, late completions dropped) and
    /// the client starts its script over after `restart`, or stays
    /// dead for the rest of the run when `None` — the rank-kill
    /// primitive coordinated (all-reduce / DAG) workloads are tested
    /// under.
    ClientKill {
        /// Client index within the scenario.
        client: usize,
        /// Delay until the world is asked for the unit the client
        /// resumes with (`None`: the client never comes back).
        restart: Option<Dur>,
    },
    /// The first `n` invocations of `program` fail deterministically —
    /// a standing budget, not a timed injection, which the sim↔real
    /// conformance harness mirrors with shim commands on the real side.
    CmdFailFirst {
        /// The name the `unreliable` shim is invoked with (its first
        /// argument), matched exactly.
        program: String,
        /// How many leading invocations fail.
        n: u32,
    },
}

impl FaultKind {
    /// The tag this kind serializes under (also the `kind` field of
    /// the `FaultInjected` trace event).
    pub fn tag(&self) -> &'static str {
        match self {
            FaultKind::ScheddKill { .. } => "schedd-kill",
            FaultKind::ScheddRestart => "schedd-restart",
            FaultKind::EnospcWindow { .. } => "enospc-window",
            FaultKind::FreeSpaceLie { .. } => "free-space-lie",
            FaultKind::ServerBlackHole { .. } => "black-hole",
            FaultKind::MsgLoss { .. } => "msg-loss",
            FaultKind::LatencySpike { .. } => "latency-spike",
            FaultKind::ClockSkew { .. } => "clock-skew",
            FaultKind::ClientKill { .. } => "client-kill",
            FaultKind::CmdFailFirst { .. } => "cmd-fail-first",
        }
    }

    /// Parameter summary in `key=value` form (the `detail` field of
    /// the `FaultInjected` trace event).
    pub fn detail(&self) -> String {
        let mut s = String::new();
        match self {
            FaultKind::ScheddKill { downtime } => match downtime {
                Some(d) => {
                    let _ = write!(s, "downtime_us={}", d.as_micros());
                }
                None => s.push_str("downtime_us=default"),
            },
            FaultKind::ScheddRestart => {}
            FaultKind::EnospcWindow { duration } => {
                let _ = write!(s, "duration_us={}", duration.as_micros());
            }
            FaultKind::FreeSpaceLie {
                delta_bytes,
                duration,
            } => {
                let _ = write!(
                    s,
                    "delta_bytes={delta_bytes} duration_us={}",
                    duration.as_micros()
                );
            }
            FaultKind::ServerBlackHole { server, enable } => {
                let _ = write!(s, "server={server} enable={enable}");
            }
            FaultKind::MsgLoss {
                channel,
                probability,
                duration,
            } => {
                let _ = write!(
                    s,
                    "channel={channel} probability={probability} duration_us={}",
                    duration.as_micros()
                );
            }
            FaultKind::LatencySpike {
                channel,
                extra,
                duration,
            } => {
                let _ = write!(
                    s,
                    "channel={channel} extra_us={} duration_us={}",
                    extra.as_micros(),
                    duration.as_micros()
                );
            }
            FaultKind::ClockSkew { client, skew_us } => {
                let _ = write!(s, "client={client} skew_us={skew_us}");
            }
            FaultKind::ClientKill { client, restart } => match restart {
                Some(d) => {
                    let _ = write!(s, "client={client} restart_us={}", d.as_micros());
                }
                None => {
                    let _ = write!(s, "client={client} restart_us=none");
                }
            },
            FaultKind::CmdFailFirst { program, n } => {
                let _ = write!(s, "program={program} n={n}");
            }
        }
        s
    }
}

/// One fault in a plan: a kind, a first trigger instant, and an
/// optional repeat schedule.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultSpec {
    /// Virtual instant of the first trigger.
    pub at: Time,
    /// Repeat period after the first trigger (`None`: fire once).
    pub every: Option<Dur>,
    /// Total number of triggers (≥ 1; ignored without `every`).
    pub count: u32,
    /// What happens at each trigger.
    pub kind: FaultKind,
}

impl FaultSpec {
    /// A spec firing once at `at`.
    pub fn once(at: Time, kind: FaultKind) -> FaultSpec {
        FaultSpec {
            at,
            every: None,
            count: 1,
            kind,
        }
    }

    /// A spec firing `count` times, first at `at`, then every `every`.
    pub fn repeating(at: Time, every: Dur, count: u32, kind: FaultKind) -> FaultSpec {
        FaultSpec {
            at,
            every: Some(every),
            count: count.max(1),
            kind,
        }
    }

    /// All trigger instants of the spec: `at`, then `count - 1` repeats
    /// spaced `every` apart (a spec without `every` fires once). The
    /// one expansion every consumer of a plan uses (the driver's
    /// [`FaultPlan::windows`] table and the static checker's kill list
    /// alike). `Time + Dur * k` saturates, so a long-period spec pins
    /// at the ceiling instead of overflowing.
    pub fn triggers(&self) -> Vec<Time> {
        match self.every {
            None => vec![self.at],
            Some(every) => (0..u64::from(self.count.max(1)))
                .map(|k| self.at + every * k)
                .collect(),
        }
    }
}

/// One expanded [`FaultKind::ClientKill`] trigger, as reported by
/// [`FaultPlan::client_kills`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClientKillInfo {
    /// Index of the client the trigger kills.
    pub client: usize,
    /// Virtual instant of the kill.
    pub at: Time,
    /// Downtime before the client restarts (`None`: it never does).
    pub restart: Option<Dur>,
}

/// A seeded collection of [`FaultSpec`]s: the whole adversarial
/// schedule for one run.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct FaultPlan {
    /// Seed of the plan's private RNG stream (used only by
    /// probabilistic kinds such as [`FaultKind::MsgLoss`]); independent
    /// of every scenario RNG, so arming a plan never perturbs the
    /// workload's own draws.
    pub seed: u64,
    /// The faults, in declaration order.
    pub specs: Vec<FaultSpec>,
}

impl FaultPlan {
    /// An empty plan with the given RNG seed.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            specs: Vec::new(),
        }
    }

    /// Builder: append a spec.
    pub fn with(mut self, spec: FaultSpec) -> FaultPlan {
        self.specs.push(spec);
        self
    }

    /// The plan's private RNG stream (decorrelated from scenario
    /// seeds by a fixed tweak).
    pub fn rng(&self) -> SimRng {
        SimRng::new(self.seed ^ 0xFA_17_FA_17)
    }

    /// Append another plan's specs (custom injections on top of a
    /// figure's own).
    pub fn extend_from(&mut self, other: &FaultPlan) {
        self.specs.extend(other.specs.iter().cloned());
    }

    /// The time-triggered injection specs, with their indices: every
    /// spec but the standing [`FaultKind::CmdFailFirst`] budgets.
    pub fn injections(&self) -> impl Iterator<Item = (usize, &FaultSpec)> {
        self.specs
            .iter()
            .enumerate()
            .filter(|(_, s)| !matches!(s.kind, FaultKind::CmdFailFirst { .. }))
    }

    /// Every [`FaultKind::ClientKill`] trigger the plan schedules, with
    /// repeats expanded, in trigger order. This is the static checker's
    /// view: which client dies when, and whether it comes back.
    pub fn client_kills(&self) -> Vec<ClientKillInfo> {
        let mut kills = Vec::new();
        for (_, spec) in self.injections() {
            let FaultKind::ClientKill { client, restart } = spec.kind else {
                continue;
            };
            for at in spec.triggers() {
                kills.push(ClientKillInfo {
                    client,
                    at,
                    restart,
                });
            }
        }
        kills.sort_by_key(|k| (k.at, k.client));
        kills
    }

    /// The plan's time-triggered specs expanded into [`FaultWindows`]:
    /// the one plan → windows compiler, shared by the simulator's
    /// drivers and worlds, the static checker and the live daemon.
    /// `default_downtime` stands in for a `schedd-kill` spec that names
    /// no downtime of its own.
    pub fn windows(&self, default_downtime: Dur) -> FaultWindows {
        let mut w = FaultWindows::default();
        let mut kills: Vec<(Time, Dur)> = Vec::new();
        let mut restarts: Vec<Time> = Vec::new();
        let mut enospc: Vec<Window> = Vec::new();
        let mut bh_events: Vec<(Time, bool)> = Vec::new();
        for (_, spec) in self.injections() {
            let triggers = spec.triggers();
            // The windows of a spec that holds for `d` from each trigger.
            let lasting = |d: Dur| triggers.iter().map(move |&at| Window::lasting(at, d));
            match &spec.kind {
                FaultKind::ScheddKill { downtime } => {
                    let d = downtime.unwrap_or(default_downtime);
                    kills.extend(triggers.iter().map(|&at| (at, d)));
                }
                FaultKind::ScheddRestart => restarts.extend(&triggers),
                FaultKind::ServerBlackHole { enable, .. } => {
                    bh_events.extend(triggers.iter().map(|&at| (at, *enable)));
                }
                FaultKind::EnospcWindow { duration } => enospc.extend(lasting(*duration)),
                FaultKind::FreeSpaceLie {
                    delta_bytes,
                    duration,
                } => w
                    .df_lie
                    .extend(lasting(*duration).map(|win| (win, *delta_bytes))),
                FaultKind::MsgLoss {
                    channel,
                    probability,
                    duration,
                } => w
                    .msg_loss
                    .extend(lasting(*duration).map(|win| (win, channel.clone(), *probability))),
                FaultKind::LatencySpike {
                    channel,
                    extra,
                    duration,
                } => w
                    .latency
                    .extend(lasting(*duration).map(|win| (win, channel.clone(), *extra))),
                // Not windows: a skew or a client kill changes a VM.
                FaultKind::ClockSkew { .. }
                | FaultKind::ClientKill { .. }
                | FaultKind::CmdFailFirst { .. } => {}
            }
        }
        // A kill opens a downtime window; the first restart inside it
        // closes it early. A kill that lands while the schedd is
        // already down kills nothing: no longer outage, no second crash.
        kills.sort_by_key(|&(at, _)| at);
        restarts.sort();
        for (at, downtime) in kills {
            if w.sched_down.last().is_some_and(|open| at < open.end) {
                continue;
            }
            let natural_end = at + downtime;
            let end = restarts
                .iter()
                .copied()
                .find(|&r| r > at && r < natural_end)
                .unwrap_or(natural_end);
            w.sched_down.push(Window { start: at, end });
        }
        w.enospc = coalesce(enospc);
        // The estimator tells one lie at a time: the latest to start.
        w.df_lie.sort_by_key(|(win, _)| win.start);
        // A black-hole enable opens a window the next disable closes.
        bh_events.sort_by_key(|&(at, _)| at);
        let mut open: Option<Time> = None;
        for (at, enable) in bh_events {
            match (enable, open) {
                (true, None) => open = Some(at),
                (false, Some(start)) => {
                    w.black_hole.push(Window { start, end: at });
                    open = None;
                }
                _ => {}
            }
        }
        if let Some(start) = open {
            w.black_hole.push(Window {
                start,
                end: Time::MAX,
            });
        }
        w
    }

    /// The [`FaultKind::EnospcWindow`] blackout intervals the plan
    /// schedules up to `horizon`, with repeats expanded, overlaps
    /// merged, and ends clipped to the horizon. During a blackout every
    /// publish/put fails.
    pub fn enospc_blackouts(&self, horizon: Time) -> Vec<(Time, Time)> {
        self.windows(Dur::ZERO)
            .enospc
            .iter()
            .filter(|w| w.start <= horizon)
            .map(|w| (w.start, w.end.min(horizon)))
            .collect()
    }

    /// The instant from which ENOSPC blackouts tile the rest of the
    /// analysis window, if they do: the start of a merged blackout
    /// interval that extends to `horizon`. From that instant on, no
    /// publish inside the window can ever succeed.
    pub fn enospc_permanent_from(&self, horizon: Time) -> Option<Time> {
        self.enospc_blackouts(horizon)
            .into_iter()
            .find(|&(_, e)| e >= horizon)
            .map(|(s, _)| s)
    }

    /// Duration of the longest merged ENOSPC blackout up to `horizon`.
    pub fn longest_enospc_blackout(&self, horizon: Time) -> Dur {
        self.enospc_blackouts(horizon)
            .into_iter()
            .map(|(s, e)| e - s)
            .max()
            .unwrap_or(Dur::ZERO)
    }

    /// Sum of `CmdFailFirst.n` over specs matching `program` — how
    /// many leading invocations of `program` must fail.
    pub fn fail_first(&self, program: &str) -> u32 {
        self.specs
            .iter()
            .filter_map(|s| match &s.kind {
                FaultKind::CmdFailFirst { program: p, n } if p == program => Some(*n),
                _ => None,
            })
            .sum()
    }

    /// Serialize as the `PLAN.json` document:
    ///
    /// ```json
    /// {
    ///   "seed": 42,
    ///   "specs": [
    ///     {"kind": "schedd-kill", "at_us": 60000000,
    ///      "every_us": 120000000, "count": 5, "downtime_us": 30000000},
    ///     {"kind": "black-hole", "at_us": 10000000,
    ///      "server": "yyy", "enable": true}
    ///   ]
    /// }
    /// ```
    ///
    /// Kind-specific fields: `downtime_us` (schedd-kill, null for the
    /// scenario default); `duration_us` (enospc-window, free-space-lie,
    /// msg-loss, latency-spike); `delta_bytes` (free-space-lie);
    /// `server`, `enable` (black-hole); `channel`, `probability`
    /// (msg-loss); `extra_us` (latency-spike); `client`, `skew_us`
    /// (clock-skew); `client`, `restart_us` (client-kill, null for no
    /// restart); `program`, `n` (cmd-fail-first).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "{{\n  \"seed\": {},\n  \"specs\": [", self.seed);
        for (i, spec) in self.specs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {");
            let _ = write!(
                out,
                "\"kind\": \"{}\", \"at_us\": {}",
                spec.kind.tag(),
                spec.at.as_micros()
            );
            if let Some(e) = spec.every {
                let _ = write!(
                    out,
                    ", \"every_us\": {}, \"count\": {}",
                    e.as_micros(),
                    spec.count
                );
            }
            match &spec.kind {
                FaultKind::ScheddKill { downtime } => match downtime {
                    Some(d) => {
                        let _ = write!(out, ", \"downtime_us\": {}", d.as_micros());
                    }
                    None => out.push_str(", \"downtime_us\": null"),
                },
                FaultKind::ScheddRestart => {}
                FaultKind::EnospcWindow { duration } => {
                    let _ = write!(out, ", \"duration_us\": {}", duration.as_micros());
                }
                FaultKind::FreeSpaceLie {
                    delta_bytes,
                    duration,
                } => {
                    let _ = write!(
                        out,
                        ", \"delta_bytes\": {delta_bytes}, \"duration_us\": {}",
                        duration.as_micros()
                    );
                }
                FaultKind::ServerBlackHole { server, enable } => {
                    let _ = write!(
                        out,
                        ", \"server\": \"{}\", \"enable\": {enable}",
                        crate::metrics::json_escape(server)
                    );
                }
                FaultKind::MsgLoss {
                    channel,
                    probability,
                    duration,
                } => {
                    let _ = write!(
                        out,
                        ", \"channel\": \"{}\", \"probability\": {probability}, \"duration_us\": {}",
                        crate::metrics::json_escape(channel),
                        duration.as_micros()
                    );
                }
                FaultKind::LatencySpike {
                    channel,
                    extra,
                    duration,
                } => {
                    let _ = write!(
                        out,
                        ", \"channel\": \"{}\", \"extra_us\": {}, \"duration_us\": {}",
                        crate::metrics::json_escape(channel),
                        extra.as_micros(),
                        duration.as_micros()
                    );
                }
                FaultKind::ClockSkew { client, skew_us } => {
                    let _ = write!(out, ", \"client\": {client}, \"skew_us\": {skew_us}");
                }
                FaultKind::ClientKill { client, restart } => {
                    let _ = write!(out, ", \"client\": {client}");
                    match restart {
                        Some(d) => {
                            let _ = write!(out, ", \"restart_us\": {}", d.as_micros());
                        }
                        None => out.push_str(", \"restart_us\": null"),
                    }
                }
                FaultKind::CmdFailFirst { program, n } => {
                    let _ = write!(
                        out,
                        ", \"program\": \"{}\", \"n\": {n}",
                        crate::metrics::json_escape(program)
                    );
                }
            }
            out.push('}');
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Parse a `PLAN.json` document (the format [`to_json`] emits).
    ///
    /// [`to_json`]: FaultPlan::to_json
    pub fn parse_json(text: &str) -> Result<FaultPlan, String> {
        let v = json::parse(text)?;
        let obj = v.as_object().ok_or("plan must be a JSON object")?;
        let seed = match json::get(obj, "seed") {
            Some(v) => v.as_u64().ok_or("\"seed\" must be an integer")?,
            None => 0,
        };
        let mut specs = Vec::new();
        if let Some(sv) = json::get(obj, "specs") {
            let arr = sv.as_array().ok_or("\"specs\" must be an array")?;
            for (i, s) in arr.iter().enumerate() {
                specs.push(parse_spec(s).map_err(|e| format!("specs[{i}]: {e}"))?);
            }
        }
        Ok(FaultPlan { seed, specs })
    }
}

/// One half-open window `[start, end)` on the plan's clock (virtual
/// time in the simulator, time since start at the daemon).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Window {
    start: Time,
    end: Time,
}

impl Window {
    fn lasting(start: Time, duration: Dur) -> Window {
        Window {
            start,
            end: start + duration,
        }
    }

    fn contains(&self, t: Time) -> bool {
        t >= self.start && t < self.end
    }
}

/// Coalesce possibly-overlapping windows into a disjoint, sorted set.
fn coalesce(mut windows: Vec<Window>) -> Vec<Window> {
    windows.sort_by_key(|w| w.start);
    let mut out: Vec<Window> = Vec::with_capacity(windows.len());
    for w in windows {
        match out.last_mut() {
            Some(prev) if w.start <= prev.end => prev.end = prev.end.max(w.end),
            _ => out.push(w),
        }
    }
    out
}

/// A plan compiled onto its clock ([`FaultPlan::windows`]): every
/// fault that is purely "this holds from `t` for `d`" becomes a window
/// answered by lookup, so the simulator (virtual time), the daemon
/// (time since start) and the static checker read one table. A window
/// covers its trigger instant and excludes its end.
#[derive(Clone, Debug, Default)]
pub struct FaultWindows {
    /// Forced schedd downtime, disjoint and sorted by start.
    sched_down: Vec<Window>,
    /// Writes fail with ENOSPC; disjoint and sorted by start.
    enospc: Vec<Window>,
    /// Free-space estimates skewed by this much; sorted by start.
    df_lie: Vec<(Window, i64)>,
    /// The file server swallows requests without answering.
    black_hole: Vec<Window>,
    /// Replies on the named channel lost with this probability.
    msg_loss: Vec<(Window, String, f64)>,
    /// Replies on the named channel delayed by this much.
    latency: Vec<(Window, String, Dur)>,
}

impl FaultWindows {
    /// The table of an empty plan: no fault, ever.
    pub const NONE: FaultWindows = FaultWindows {
        sched_down: Vec::new(),
        enospc: Vec::new(),
        df_lie: Vec::new(),
        black_hole: Vec::new(),
        msg_loss: Vec::new(),
        latency: Vec::new(),
    };

    /// Is the schedd inside a forced kill window at `t`?
    pub fn sched_forced_down(&self, t: Time) -> bool {
        self.sched_down.iter().any(|w| w.contains(t))
    }

    /// How many forced kill windows have *opened* by `t`. Added to a
    /// schedd's own crash count this is its crash epoch: a job accepted
    /// before a kill and completing after it sees a different epoch and
    /// is lost — the broadcast jam.
    pub fn forced_starts(&self, t: Time) -> u64 {
        self.sched_down.iter().take_while(|w| w.start <= t).count() as u64
    }

    /// Does a write landing at `t` fail with ENOSPC?
    pub fn enospc_active(&self, t: Time) -> bool {
        self.enospc.iter().any(|w| w.contains(t))
    }

    /// The skew a free-space estimate read at `t` carries: that of the
    /// lie that started last (declaration order breaks ties), for as
    /// long as its own window lasts — a new lie replaces the old one.
    pub fn df_delta(&self, t: Time) -> i64 {
        let latest = self.df_lie.iter().rev().find(|(w, _)| w.start <= t);
        latest.filter(|(w, _)| t < w.end).map_or(0, |(_, d)| *d)
    }

    /// When the black hole a request arriving at `t` falls into closes
    /// ([`Time::MAX`] for one never disabled), if it falls into one.
    pub fn black_hole_until(&self, t: Time) -> Option<Time> {
        self.black_hole
            .iter()
            .find(|w| w.contains(t))
            .map(|w| w.end)
    }

    /// The probability that a reply on `channel` at `t` is lost: the
    /// worst of the windows open on that channel. A channel is the name
    /// the caller gives the operation — the program name in a
    /// simulated script, the wire verb at the daemon.
    pub fn loss_probability(&self, channel: &str, t: Time) -> f64 {
        self.msg_loss
            .iter()
            .filter(|(w, ch, _)| ch == channel && w.contains(t))
            .map(|(_, _, p)| *p)
            .fold(0.0, f64::max)
    }

    /// The delay a reply on `channel` at `t` suffers: the longest of
    /// the spikes open on that channel (zero outside every spike).
    pub fn extra_latency(&self, channel: &str, t: Time) -> Dur {
        self.latency
            .iter()
            .filter(|(w, ch, _)| ch == channel && w.contains(t))
            .map(|(_, _, d)| *d)
            .max()
            .unwrap_or(Dur::ZERO)
    }
}

fn parse_spec(v: &json::Value) -> Result<FaultSpec, String> {
    let obj = v.as_object().ok_or("spec must be an object")?;
    let text = |k: &str| -> Result<String, String> {
        json::get(obj, k)
            .and_then(|v| v.as_str().map(str::to_string))
            .ok_or(format!("missing string field {k:?}"))
    };
    let int = |k: &str| -> Result<i64, String> {
        json::get(obj, k)
            .and_then(json::Value::as_i64)
            .ok_or(format!("missing integer field {k:?}"))
    };
    let uint = |k: &str| -> Result<u64, String> {
        json::get(obj, k)
            .and_then(json::Value::as_u64)
            .ok_or(format!("missing non-negative integer field {k:?}"))
    };
    let dur = |k: &str| -> Result<Dur, String> { Ok(Dur::from_micros(uint(k)?)) };
    // A count too wide for `u32` is refused, never truncated.
    let narrow = |k: &str, v: u64| -> Result<u32, String> {
        u32::try_from(v).map_err(|_| format!("{k:?} must fit in 32 bits, got {v}"))
    };

    let kind = match text("kind")?.as_str() {
        "schedd-kill" => FaultKind::ScheddKill {
            downtime: match json::get(obj, "downtime_us") {
                None | Some(json::Value::Null) => None,
                Some(v) => Some(Dur::from_micros(
                    v.as_u64()
                        .ok_or("\"downtime_us\" must be an integer or null")?,
                )),
            },
        },
        "schedd-restart" => FaultKind::ScheddRestart,
        "enospc-window" => FaultKind::EnospcWindow {
            duration: dur("duration_us")?,
        },
        "free-space-lie" => FaultKind::FreeSpaceLie {
            delta_bytes: int("delta_bytes")?,
            duration: dur("duration_us")?,
        },
        "black-hole" => FaultKind::ServerBlackHole {
            server: text("server")?,
            enable: json::get(obj, "enable")
                .and_then(json::Value::as_bool)
                .ok_or("missing bool field \"enable\"")?,
        },
        "msg-loss" => {
            let channel = text("channel")?;
            let probability = json::get(obj, "probability")
                .and_then(json::Value::as_f64)
                .ok_or("missing number field \"probability\"")?;
            if !(0.0..=1.0).contains(&probability) {
                return Err(format!(
                    "\"probability\" must be in [0, 1], got {probability}"
                ));
            }
            FaultKind::MsgLoss {
                channel,
                probability,
                duration: dur("duration_us")?,
            }
        }
        "latency-spike" => FaultKind::LatencySpike {
            channel: text("channel")?,
            extra: dur("extra_us")?,
            duration: dur("duration_us")?,
        },
        "clock-skew" => FaultKind::ClockSkew {
            client: uint("client")? as usize,
            skew_us: int("skew_us")?,
        },
        "client-kill" => FaultKind::ClientKill {
            client: uint("client")? as usize,
            restart: match json::get(obj, "restart_us") {
                None | Some(json::Value::Null) => None,
                Some(v) => Some(Dur::from_micros(
                    v.as_u64()
                        .ok_or("\"restart_us\" must be an integer or null")?,
                )),
            },
        },
        "cmd-fail-first" => FaultKind::CmdFailFirst {
            program: text("program")?,
            n: narrow("n", uint("n")?)?,
        },
        other => return Err(format!("unknown fault kind {other:?}")),
    };

    Ok(FaultSpec {
        at: Time::from_micros(uint("at_us").unwrap_or(0)),
        every: match json::get(obj, "every_us") {
            None | Some(json::Value::Null) => None,
            Some(v) => Some(Dur::from_micros(
                v.as_u64()
                    .ok_or("\"every_us\" must be an integer or null")?,
            )),
        },
        count: match json::get(obj, "count") {
            None | Some(json::Value::Null) => 1,
            Some(v) => narrow(
                "count",
                v.as_u64()
                    .ok_or("\"count\" must be a non-negative integer or null")?,
            )?
            .max(1),
        },
        kind,
    })
}

/// The JSON reader plans parse with; it lives in [`crate::json`].
pub use crate::json;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triggers_saturate_instead_of_panicking() {
        // A long-period repeating spec whose later triggers would
        // overflow a u64 of microseconds.
        let spec = FaultSpec::repeating(
            Time::from_micros(u64::MAX - 10),
            Dur::from_micros(u64::MAX / 2),
            1000,
            FaultKind::ScheddRestart,
        );
        let all = spec.triggers();
        assert_eq!(all.len(), 1000);
        assert_eq!(all[0], Time::from_micros(u64::MAX - 10));
        // Every subsequent trigger saturates at the u64 ceiling.
        assert_eq!(*all.last().unwrap(), Time::from_micros(u64::MAX));
        assert!(all.windows(2).all(|p| p[0] <= p[1]), "monotonic");
    }

    #[test]
    fn triggers_boundary_is_exact_below_saturation() {
        let spec = FaultSpec::repeating(
            Time::from_secs(10),
            Dur::from_secs(3600),
            100_000,
            FaultKind::ScheddRestart,
        );
        let all = spec.triggers();
        assert_eq!(all.len(), 100_000);
        assert_eq!(all[99_999], Time::from_secs(10 + 3600 * 99_999));
    }

    fn sample_plan() -> FaultPlan {
        FaultPlan::new(42)
            .with(FaultSpec::repeating(
                Time::from_secs(60),
                Dur::from_secs(120),
                5,
                FaultKind::ScheddKill {
                    downtime: Some(Dur::from_secs(30)),
                },
            ))
            .with(FaultSpec::once(
                Time::from_secs(10),
                FaultKind::ServerBlackHole {
                    server: "yyy".into(),
                    enable: true,
                },
            ))
            .with(FaultSpec::once(
                Time::from_secs(5),
                FaultKind::MsgLoss {
                    channel: "wget".into(),
                    probability: 0.25,
                    duration: Dur::from_secs(40),
                },
            ))
            .with(FaultSpec::once(
                Time::from_secs(7),
                FaultKind::LatencySpike {
                    channel: "condor_submit".into(),
                    extra: Dur::from_millis(750),
                    duration: Dur::from_secs(20),
                },
            ))
            .with(FaultSpec::once(
                Time::from_secs(1),
                FaultKind::ClockSkew {
                    client: 3,
                    skew_us: -2_000_000,
                },
            ))
            .with(FaultSpec::once(
                Time::from_secs(2),
                FaultKind::EnospcWindow {
                    duration: Dur::from_secs(15),
                },
            ))
            .with(FaultSpec::once(
                Time::from_secs(3),
                FaultKind::FreeSpaceLie {
                    delta_bytes: -1_000_000,
                    duration: Dur::from_secs(9),
                },
            ))
            .with(FaultSpec::once(
                Time::from_secs(90),
                FaultKind::ScheddRestart,
            ))
            .with(FaultSpec::once(
                Time::from_secs(12),
                FaultKind::ClientKill {
                    client: 2,
                    restart: Some(Dur::from_secs(4)),
                },
            ))
            .with(FaultSpec::once(
                Time::from_secs(14),
                FaultKind::ClientKill {
                    client: 5,
                    restart: None,
                },
            ))
            .with(FaultSpec::once(
                Time::ZERO,
                FaultKind::CmdFailFirst {
                    program: "unreliable".into(),
                    n: 2,
                },
            ))
    }

    #[test]
    fn json_roundtrip_every_kind() {
        let plan = sample_plan();
        let text = plan.to_json();
        let back = FaultPlan::parse_json(&text).expect("parses");
        assert_eq!(back, plan, "JSON roundtrip must be exact:\n{text}");
    }

    #[test]
    fn fail_first_budgets_are_not_injections() {
        let plan = sample_plan();
        let injected: Vec<_> = plan.injections().map(|(i, _)| i).collect();
        assert_eq!(injected, vec![0, 1, 2, 3, 4, 5, 6, 7, 8, 9]);
        assert_eq!(plan.fail_first("unreliable"), 2);
        assert_eq!(plan.fail_first("reliable"), 0);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FaultPlan::parse_json("").is_err());
        assert!(FaultPlan::parse_json("[]").is_err());
        assert!(FaultPlan::parse_json("{\"specs\": [{\"kind\": \"nope\"}]}").is_err());
        assert!(FaultPlan::parse_json("{\"specs\": [{\"at_us\": 5}]}").is_err());
        // Missing seed defaults to 0; missing specs to empty.
        let p = FaultPlan::parse_json("{}").unwrap();
        assert_eq!(p, FaultPlan::new(0));
    }

    /// Parse a plan holding the one spec `spec`.
    fn one_spec(spec: &str) -> Result<FaultPlan, String> {
        FaultPlan::parse_json(&format!("{{\"specs\": [{spec}]}}"))
    }

    #[test]
    fn parse_rejects_a_loss_probability_outside_the_unit_interval() {
        let loss = |p: &str| {
            one_spec(&format!(
                r#"{{"kind": "msg-loss", "channel": "get", "probability": {p}, "duration_us": 1}}"#
            ))
        };
        for p in ["-0.25", "1.5"] {
            let e = loss(p).unwrap_err();
            assert!(e.contains("\"probability\""), "{e}");
        }
        for p in ["0", "1"] {
            assert!(loss(p).is_ok(), "{p} is a probability");
        }
    }

    #[test]
    fn parse_rejects_a_fail_first_budget_wider_than_u32() {
        let budget = |n: u64| {
            one_spec(&format!(
                r#"{{"kind": "cmd-fail-first", "program": "a", "n": {n}}}"#
            ))
        };
        let e = budget(1 << 32).unwrap_err();
        assert!(e.contains("\"n\""), "{e}");
        assert_eq!(budget(u32::MAX.into()).unwrap().fail_first("a"), u32::MAX);
    }

    #[test]
    fn parse_rejects_a_repeat_count_wider_than_u32() {
        // Truncated, this count would read as 0 and fire the spec once.
        let e = one_spec(r#"{"kind": "schedd-restart", "every_us": 1, "count": 4294967296}"#)
            .unwrap_err();
        assert!(e.contains("\"count\""), "{e}");
    }

    #[test]
    fn parse_rejects_the_retired_physics_kinds() {
        // The constants these kinds carried live in each world's
        // `*Params` now. The names are split so that CI's grep for
        // them anywhere in the source stays empty.
        for kind in [
            concat!("schedd-crash", "-on-starvation"),
            concat!("enospc-at", "-capacity"),
            concat!("black-hole", "-servers"),
        ] {
            let e = one_spec(&format!(r#"{{"kind": "{kind}"}}"#)).unwrap_err();
            assert!(e.contains(&format!("unknown fault kind \"{kind}\"")), "{e}");
        }
    }

    #[test]
    fn plan_rng_is_decorrelated_from_scenario_seed() {
        let mut a = FaultPlan::new(0x5eed).rng();
        let mut b = SimRng::new(0x5eed);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn detail_strings_are_stable() {
        assert_eq!(
            FaultKind::ScheddKill {
                downtime: Some(Dur::from_secs(30))
            }
            .detail(),
            "downtime_us=30000000"
        );
        assert_eq!(
            FaultKind::ServerBlackHole {
                server: "yyy".into(),
                enable: false
            }
            .detail(),
            "server=yyy enable=false"
        );
        assert_eq!(FaultKind::ScheddRestart.detail(), "");
        assert_eq!(
            FaultKind::ClientKill {
                client: 4,
                restart: Some(Dur::from_secs(2))
            }
            .detail(),
            "client=4 restart_us=2000000"
        );
        assert_eq!(
            FaultKind::ClientKill {
                client: 4,
                restart: None
            }
            .detail(),
            "client=4 restart_us=none"
        );
    }

    fn plan_with(specs: Vec<FaultSpec>) -> FaultPlan {
        let mut p = FaultPlan::new(7);
        p.specs = specs;
        p
    }

    #[test]
    fn windows_expand_repeats_and_pair_black_holes() {
        let plan = plan_with(vec![
            FaultSpec::repeating(
                Time::from_secs(1),
                Dur::from_secs(10),
                3,
                FaultKind::ScheddKill {
                    downtime: Some(Dur::from_secs(2)),
                },
            ),
            FaultSpec::once(
                Time::from_secs(5),
                FaultKind::ServerBlackHole {
                    server: "yyy".into(),
                    enable: true,
                },
            ),
            FaultSpec::once(
                Time::from_secs(8),
                FaultKind::ServerBlackHole {
                    server: "yyy".into(),
                    enable: false,
                },
            ),
        ]);
        let w = plan.windows(Dur::from_secs(1));
        assert_eq!(w.sched_down.len(), 3);
        assert!(w.sched_forced_down(Time::from_secs(12)));
        assert!(!w.sched_forced_down(Time::from_secs(4)));
        assert_eq!(w.black_hole.len(), 1);
        assert_eq!(
            w.black_hole_until(Time::from_secs(6)),
            Some(Time::from_secs(8))
        );
        assert_eq!(w.black_hole_until(Time::from_secs(9)), None);
    }

    #[test]
    fn restart_truncates_kill_window() {
        let plan = plan_with(vec![
            FaultSpec::once(
                Time::from_secs(1),
                FaultKind::ScheddKill {
                    downtime: Some(Dur::from_secs(10)),
                },
            ),
            FaultSpec::once(Time::from_secs(3), FaultKind::ScheddRestart),
        ]);
        let w = plan.windows(Dur::from_secs(1));
        assert!(w.sched_forced_down(Time::from_secs(2)));
        assert!(!w.sched_forced_down(Time::from_secs(4)));
    }

    #[test]
    fn unterminated_black_hole_stays_open() {
        let plan = plan_with(vec![FaultSpec::once(
            Time::from_secs(2),
            FaultKind::ServerBlackHole {
                server: "yyy".into(),
                enable: true,
            },
        )]);
        let w = plan.windows(Dur::from_secs(1));
        assert!(w.black_hole_until(Time::from_secs(1)).is_none());
        assert!(w.black_hole_until(Time::from_secs(1000)).is_some());
    }

    fn lie(at: u64, delta_bytes: i64, secs: u64) -> FaultSpec {
        FaultSpec::once(
            Time::from_secs(at),
            FaultKind::FreeSpaceLie {
                delta_bytes,
                duration: Dur::from_secs(secs),
            },
        )
    }

    #[test]
    fn lie_window_applies_then_lapses() {
        let w = plan_with(vec![lie(0, -100, 5)]).windows(Dur::from_secs(1));
        assert_eq!(w.df_delta(Time::from_secs(1)), -100);
        assert_eq!(w.df_delta(Time::from_secs(6)), 0);
    }

    #[test]
    fn a_new_lie_replaces_the_old_one() {
        // Declared out of order on purpose: [0, 10) says -100, then
        // [2, 4) says +7. The later start wins while it lasts, and the
        // lie it replaced does not come back when it ends.
        let w = plan_with(vec![lie(2, 7, 2), lie(0, -100, 10)]).windows(Dur::ZERO);
        assert_eq!(w.df_delta(Time::from_secs(1)), -100);
        assert_eq!(w.df_delta(Time::from_secs(2)), 7);
        assert_eq!(w.df_delta(Time::from_secs(3)), 7);
        assert_eq!(w.df_delta(Time::from_secs(4)), 0);
        assert_eq!(w.df_delta(Time::from_secs(9)), 0);
    }

    #[test]
    fn forced_starts_counts_window_openings() {
        let plan = plan_with(vec![FaultSpec::repeating(
            Time::from_secs(1),
            Dur::from_secs(10),
            3,
            FaultKind::ScheddKill {
                downtime: Some(Dur::from_secs(2)),
            },
        )]);
        let w = plan.windows(Dur::from_secs(1));
        assert_eq!(w.forced_starts(Time::from_micros(500_000)), 0);
        assert_eq!(w.forced_starts(Time::from_secs(1)), 1);
        assert_eq!(w.forced_starts(Time::from_secs(5)), 1);
        assert_eq!(w.forced_starts(Time::from_secs(11)), 2);
        assert_eq!(w.forced_starts(Time::from_secs(100)), 3);
    }

    #[test]
    fn a_kill_while_already_down_is_ignored() {
        let kill = |at: u64| {
            FaultSpec::once(
                Time::from_secs(at),
                FaultKind::ScheddKill {
                    downtime: Some(Dur::from_secs(5)),
                },
            )
        };
        // The second kill finds the schedd dead: the outage stays the
        // first kill's [1, 6), and the third, at its very end, is a
        // fresh crash.
        let w = plan_with(vec![kill(1), kill(3), kill(6)]).windows(Dur::from_secs(1));
        assert_eq!(w.sched_down.len(), 2);
        assert!(w.sched_forced_down(Time::from_secs(5)));
        assert_eq!(w.forced_starts(Time::from_secs(5)), 1, "one broadcast jam");
        assert!(w.sched_forced_down(Time::from_secs(6)));
        assert_eq!(w.forced_starts(Time::from_secs(6)), 2);
        assert!(!w.sched_forced_down(Time::from_secs(11)));
    }

    #[test]
    fn loss_and_latency_are_per_channel() {
        let plan = plan_with(vec![
            FaultSpec::repeating(
                Time::from_secs(1),
                Dur::from_secs(10),
                2,
                FaultKind::MsgLoss {
                    channel: "get".into(),
                    probability: 0.25,
                    duration: Dur::from_secs(2),
                },
            ),
            FaultSpec::once(
                Time::from_secs(2),
                FaultKind::MsgLoss {
                    channel: "get".into(),
                    probability: 0.75,
                    duration: Dur::from_secs(5),
                },
            ),
            FaultSpec::once(
                Time::from_secs(1),
                FaultKind::LatencySpike {
                    channel: "submit".into(),
                    extra: Dur::from_millis(40),
                    duration: Dur::from_secs(1),
                },
            ),
        ]);
        let w = plan.windows(Dur::ZERO);
        assert_eq!(w.loss_probability("get", Time::from_secs(1)), 0.25);
        assert_eq!(w.loss_probability("get", Time::from_secs(2)), 0.75, "worst");
        assert_eq!(
            w.loss_probability("get", Time::from_secs(12)),
            0.25,
            "repeat"
        );
        assert_eq!(w.loss_probability("get", Time::from_secs(13)), 0.0);
        assert_eq!(w.loss_probability("put", Time::from_secs(2)), 0.0);
        let at = Time::from_micros(1_500_000);
        assert_eq!(w.extra_latency("submit", at), Dur::from_millis(40));
        assert_eq!(w.extra_latency("get", at), Dur::ZERO);
        assert_eq!(w.extra_latency("submit", Time::from_secs(2)), Dur::ZERO);
    }

    #[test]
    fn enospc_blackouts_merge_and_clip_to_the_horizon() {
        let window = |at: u64, secs: u64| {
            FaultSpec::once(
                Time::from_secs(at),
                FaultKind::EnospcWindow {
                    duration: Dur::from_secs(secs),
                },
            )
        };
        let plan = plan_with(vec![
            window(20, 100),
            window(1, 3),
            window(3, 4),
            window(50, 1),
        ]);
        let t = Time::from_secs;
        assert_eq!(plan.enospc_blackouts(t(30)), [(t(1), t(7)), (t(20), t(30))]);
        assert_eq!(plan.enospc_permanent_from(t(30)), Some(t(20)));
        assert_eq!(plan.enospc_permanent_from(t(200)), None);
        assert_eq!(plan.longest_enospc_blackout(t(30)), Dur::from_secs(10));
        assert_eq!(plan.enospc_blackouts(t(10)), [(t(1), t(7))]);
        let w = plan.windows(Dur::ZERO);
        assert!(w.enospc_active(t(6)) && !w.enospc_active(t(7)));
    }

    #[test]
    fn extend_appends_custom_injections() {
        let mut base = FaultPlan::new(1).with(FaultSpec::once(
            Time::from_secs(2),
            FaultKind::EnospcWindow {
                duration: Dur::from_secs(1),
            },
        ));
        let custom = FaultPlan::new(9).with(FaultSpec::once(
            Time::from_secs(1),
            FaultKind::ScheddRestart,
        ));
        base.extend_from(&custom);
        assert_eq!(base.specs.len(), 2);
        assert_eq!(base.seed, 1, "base seed wins");
    }
}
