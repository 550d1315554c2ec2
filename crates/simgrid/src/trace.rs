//! The unified structured-trace pipeline (paper §4's event log, grown
//! into a cross-layer artifact).
//!
//! Section 4 treats the ftsh log as a first-class object: attempt
//! counts, failure-branch frequency, post-mortem timelines. This
//! module is the one vocabulary for that data across every execution
//! mode. The ftsh VM's log *is* these records: one per transition —
//! a span per `try` attempt (attempt number, budget remaining, backoff
//! delay drawn, outcome), each command with its whole argv, each
//! `forany` alternative, `forall` spawn and variable binding — kept by
//! the VM while its log is detailed and handed to a [`TraceSink`] when
//! one is installed. The scenario worlds emit the contention counters
//! the figures plot (deferrals, collisions, carrier-sense reads, schedd
//! crashes, ENOSPC hits), and both the sim driver (`gridworld::driver`)
//! and the real driver (`procman::driver`) route everything through one
//! sink.
//!
//! Two properties are load-bearing:
//!
//! * **Traces off ⇒ zero cost.** A world's emission site is a single
//!   `Option` test, a VM's one test of "detailed or sink"; no record is
//!   built, nothing allocated, formatted or locked when nobody
//!   listens. `figures --stats` holds this at ≤ 2% of the committed
//!   baseline.
//! * **Bit-determinism per seed.** Records carry integer microsecond
//!   timestamps and serialize with a fixed field order, so two runs at
//!   the same seed produce byte-identical JSONL — traces are
//!   regression-testable artifacts, and a parallel sweep concatenates
//!   per-point buffers in point order to match the sequential run
//!   exactly.

use crate::json::{self, Value};
use crate::metrics::json_escape;
use retry::{Dur, Time};
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

/// `client` / `task` value for records not attributable to one client
/// task (world-level counters such as a schedd crash).
pub const NO_ID: i64 = -1;

/// What happened at one traced instant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceEv {
    /// A `try` frame admitted attempt `attempt` (1-based). `budget` is
    /// the time remaining until the frame's deadline, or `None` for an
    /// unbounded `try`.
    AttemptStart {
        /// 1-based attempt number within the `try` frame.
        attempt: u32,
        /// Time left before the `try` deadline (`None` = unbounded).
        budget: Option<Dur>,
    },
    /// The `try` body succeeded on attempt `attempt`; the span closes.
    AttemptOk {
        /// The attempt that succeeded.
        attempt: u32,
    },
    /// Attempt `attempt` failed and the exponential-backoff policy drew
    /// `delay` before the next admission.
    Backoff {
        /// The attempt that failed.
        attempt: u32,
        /// The randomized delay drawn before the next attempt.
        delay: Dur,
    },
    /// The `try` budget was spent between attempts; the frame failed.
    TryExhausted,
    /// The `try` deadline fired mid-attempt; the body was cancelled.
    TryTimeout,
    /// A failed `try` transferred control to its `catch` block.
    CatchEntered,
    /// An external command was handed to the executor.
    CmdStart {
        /// Program name (argv\[0\]).
        program: String,
        /// The arguments after it (argv\[1..\]), expanded.
        args: Vec<String>,
    },
    /// An external command completed.
    CmdEnd {
        /// Program name (argv\[0\]).
        program: String,
        /// True when the command exited successfully.
        ok: bool,
    },
    /// An in-flight command was cancelled (deadline or branch loss).
    CmdKilled {
        /// Program name (argv\[0\]).
        program: String,
    },
    /// `forany` bound its loop variable to the next alternative.
    ForAnyNext {
        /// The value now bound.
        value: String,
    },
    /// `forall` spawned its parallel branches.
    ForAllSpawn {
        /// Number of branches.
        branches: u64,
    },
    /// A variable was bound (assignment or `->` capture).
    VarSet {
        /// Variable name.
        name: String,
    },
    /// The client's whole script finished one unit of work.
    UnitDone {
        /// True when the script succeeded.
        ok: bool,
    },
    /// A carrier-sense probe read the contended resource's free level.
    CarrierSense {
        /// The observed free level (FDs, buffer bytes ÷ chunk, …).
        free: u64,
    },
    /// Carrier sense reported the medium busy; the client deferred.
    Deferral,
    /// Two transfers collided on the contended resource.
    Collision,
    /// The overloaded schedd crashed (the paper's broadcast jam).
    ScheddCrash,
    /// A write hit mid-file ENOSPC.
    Enospc,
    /// A fault plan injected a fault (`simgrid::faults`): `kind` is
    /// the [`FaultKind`] tag and `detail` its parameters, rendered in
    /// `key=value` form.
    ///
    /// [`FaultKind`]: crate::faults::FaultKind
    FaultInjected {
        /// The fault-kind tag (e.g. `schedd-kill`, `enospc-window`).
        kind: String,
        /// Parameter summary (e.g. `server=yyy enable=true`).
        detail: String,
    },
    /// The run's event queue clamped past-scheduled events forward to
    /// `now` this many times. Emitted once at the end of a traced run,
    /// and only when the count is nonzero — a healthy run never
    /// schedules into the past.
    QueueClamps {
        /// Past-schedules silently moved to `now`.
        count: u64,
    },
}

impl TraceEv {
    /// The `ev` tag this variant serializes under.
    pub fn tag(&self) -> &'static str {
        match self {
            TraceEv::AttemptStart { .. } => "attempt-start",
            TraceEv::AttemptOk { .. } => "attempt-ok",
            TraceEv::Backoff { .. } => "backoff",
            TraceEv::TryExhausted => "try-exhausted",
            TraceEv::TryTimeout => "try-timeout",
            TraceEv::CatchEntered => "catch",
            TraceEv::CmdStart { .. } => "cmd-start",
            TraceEv::CmdEnd { .. } => "cmd-end",
            TraceEv::CmdKilled { .. } => "cmd-killed",
            TraceEv::ForAnyNext { .. } => "forany-next",
            TraceEv::ForAllSpawn { .. } => "forall-spawn",
            TraceEv::VarSet { .. } => "var-set",
            TraceEv::UnitDone { .. } => "unit-done",
            TraceEv::CarrierSense { .. } => "carrier-sense",
            TraceEv::Deferral => "deferral",
            TraceEv::Collision => "collision",
            TraceEv::ScheddCrash => "schedd-crash",
            TraceEv::Enospc => "enospc",
            TraceEv::FaultInjected { .. } => "fault",
            TraceEv::QueueClamps { .. } => "queue-clamps",
        }
    }
}

/// One structured trace record: an event at a virtual instant,
/// attributed to a client (and task within that client's VM) where one
/// is known, or [`NO_ID`] for world-scope events.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    /// Virtual instant of the event.
    pub t: Time,
    /// Client index within the scenario, or [`NO_ID`].
    pub client: i64,
    /// Task id within the client's VM, or [`NO_ID`].
    pub task: i64,
    /// What happened.
    pub ev: TraceEv,
}

impl TraceRecord {
    /// Serialize as one JSONL line (no trailing newline). Field order
    /// is fixed and timestamps are integer microseconds, so equal
    /// records always produce equal bytes.
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(64);
        let _ = write!(
            out,
            "{{\"t\":{},\"client\":{},\"task\":{},\"ev\":\"{}\"",
            self.t.as_micros(),
            self.client,
            self.task,
            self.ev.tag()
        );
        match &self.ev {
            TraceEv::AttemptStart { attempt, budget } => {
                let _ = write!(out, ",\"attempt\":{attempt},\"budget_us\":");
                match budget {
                    Some(d) => {
                        let _ = write!(out, "{}", d.as_micros());
                    }
                    None => out.push_str("null"),
                }
            }
            TraceEv::AttemptOk { attempt } => {
                let _ = write!(out, ",\"attempt\":{attempt}");
            }
            TraceEv::Backoff { attempt, delay } => {
                let _ = write!(
                    out,
                    ",\"attempt\":{attempt},\"delay_us\":{}",
                    delay.as_micros()
                );
            }
            TraceEv::CmdStart { program, args } => {
                let _ = write!(out, ",\"program\":\"{}\",\"args\":[", json_escape(program));
                for (i, a) in args.iter().enumerate() {
                    let sep = if i == 0 { "" } else { "," };
                    let _ = write!(out, "{sep}\"{}\"", json_escape(a));
                }
                out.push(']');
            }
            TraceEv::CmdKilled { program } => {
                let _ = write!(out, ",\"program\":\"{}\"", json_escape(program));
            }
            TraceEv::CmdEnd { program, ok } => {
                let _ = write!(out, ",\"program\":\"{}\",\"ok\":{ok}", json_escape(program));
            }
            TraceEv::ForAnyNext { value } => {
                let _ = write!(out, ",\"value\":\"{}\"", json_escape(value));
            }
            TraceEv::ForAllSpawn { branches } => {
                let _ = write!(out, ",\"branches\":{branches}");
            }
            TraceEv::VarSet { name } => {
                let _ = write!(out, ",\"name\":\"{}\"", json_escape(name));
            }
            TraceEv::UnitDone { ok } => {
                let _ = write!(out, ",\"ok\":{ok}");
            }
            TraceEv::CarrierSense { free } => {
                let _ = write!(out, ",\"free\":{free}");
            }
            TraceEv::FaultInjected { kind, detail } => {
                let _ = write!(
                    out,
                    ",\"kind\":\"{}\",\"detail\":\"{}\"",
                    json_escape(kind),
                    json_escape(detail)
                );
            }
            TraceEv::QueueClamps { count } => {
                let _ = write!(out, ",\"count\":{count}");
            }
            TraceEv::TryExhausted
            | TraceEv::TryTimeout
            | TraceEv::CatchEntered
            | TraceEv::Deferral
            | TraceEv::Collision
            | TraceEv::ScheddCrash
            | TraceEv::Enospc => {}
        }
        out.push('}');
        out
    }

    /// Parse one JSONL line produced by [`to_json_line`]. Returns an
    /// error message naming the missing, malformed or out-of-range
    /// field: a trace file may come from anyone.
    ///
    /// [`to_json_line`]: TraceRecord::to_json_line
    pub fn parse_json_line(line: &str) -> Result<TraceRecord, String> {
        let doc = json::parse(line)?;
        let fields = doc.as_object().ok_or("expected a JSON object")?;
        let field = |k: &str| json::get(fields, k).ok_or_else(|| format!("missing field {k:?}"));
        let opt_num = |k: &str| -> Result<Option<i64>, String> {
            match field(k)? {
                Value::Int(n) => Ok(Some(*n)),
                Value::Null => Ok(None),
                _ => Err(format!("field {k:?} is not an integer or null")),
            }
        };
        let num = |k: &str| opt_num(k)?.ok_or_else(|| format!("field {k:?} is not an integer"));
        let uint = |k: &str| in_range::<u64>(k, num(k)?);
        let attempt = || in_range::<u32>("attempt", num("attempt")?);
        let text = |k: &str| -> Result<String, String> {
            let s = field(k)?.as_str();
            Ok(s.ok_or_else(|| format!("field {k:?} is not a string"))?
                .to_string())
        };
        let texts = |k: &str| -> Result<Vec<String>, String> {
            let items = field(k)?.as_array();
            let items = items.ok_or_else(|| format!("field {k:?} is not an array"))?;
            let strs = items.iter().map(|v| v.as_str().map(str::to_string));
            strs.collect::<Option<_>>()
                .ok_or_else(|| format!("field {k:?} holds a non-string"))
        };
        let flag = |k: &str| -> Result<bool, String> {
            let b = field(k)?.as_bool();
            b.ok_or_else(|| format!("field {k:?} is not a bool"))
        };
        let tag = text("ev")?;
        let ev = match tag.as_str() {
            "attempt-start" => TraceEv::AttemptStart {
                attempt: attempt()?,
                budget: match opt_num("budget_us")? {
                    Some(us) => Some(Dur::from_micros(in_range("budget_us", us)?)),
                    None => None,
                },
            },
            "attempt-ok" => TraceEv::AttemptOk {
                attempt: attempt()?,
            },
            "backoff" => TraceEv::Backoff {
                attempt: attempt()?,
                delay: Dur::from_micros(uint("delay_us")?),
            },
            "try-exhausted" => TraceEv::TryExhausted,
            "try-timeout" => TraceEv::TryTimeout,
            "catch" => TraceEv::CatchEntered,
            "cmd-start" => TraceEv::CmdStart {
                program: text("program")?,
                args: texts("args")?,
            },
            "cmd-end" => TraceEv::CmdEnd {
                program: text("program")?,
                ok: flag("ok")?,
            },
            "cmd-killed" => TraceEv::CmdKilled {
                program: text("program")?,
            },
            "forany-next" => TraceEv::ForAnyNext {
                value: text("value")?,
            },
            "forall-spawn" => TraceEv::ForAllSpawn {
                branches: uint("branches")?,
            },
            "var-set" => TraceEv::VarSet {
                name: text("name")?,
            },
            "unit-done" => TraceEv::UnitDone { ok: flag("ok")? },
            "carrier-sense" => TraceEv::CarrierSense {
                free: uint("free")?,
            },
            "deferral" => TraceEv::Deferral,
            "collision" => TraceEv::Collision,
            "schedd-crash" => TraceEv::ScheddCrash,
            "enospc" => TraceEv::Enospc,
            "fault" => TraceEv::FaultInjected {
                kind: text("kind")?,
                detail: text("detail")?,
            },
            "queue-clamps" => TraceEv::QueueClamps {
                count: uint("count")?,
            },
            other => return Err(format!("unknown ev tag {other:?}")),
        };
        Ok(TraceRecord {
            t: Time::from_micros(uint("t")?),
            client: num("client")?,
            task: num("task")?,
            ev,
        })
    }
}

/// `n` as field `k`'s type, or an error naming the field.
fn in_range<T: TryFrom<i64>>(k: &str, n: i64) -> Result<T, String> {
    T::try_from(n).map_err(|_| format!("field {k:?} is out of range: {n}"))
}

/// Receives trace records. Implementations must be cheap: emission
/// sites hold a lock only for the duration of one `record` call.
pub trait TraceSink: Send {
    /// Accept one record.
    fn record(&mut self, rec: &TraceRecord);
}

/// A sink handle shareable across a VM population and its world.
/// Cloning is an `Arc` bump; a `None` sink is the traces-off fast
/// path.
pub type SharedSink = Arc<Mutex<dyn TraceSink>>;

/// Wrap a sink for sharing.
pub fn shared<S: TraceSink + 'static>(sink: S) -> SharedSink {
    Arc::new(Mutex::new(sink))
}

/// Record `ev` into `sink` if one is installed; the traces-off path is
/// a single `Option` test.
#[inline]
pub fn emit(sink: &Option<SharedSink>, t: Time, client: i64, task: i64, ev: TraceEv) {
    if let Some(s) = sink {
        s.lock().expect("trace sink poisoned").record(&TraceRecord {
            t,
            client,
            task,
            ev,
        });
    }
}

/// One carrier-sense reading, recorded the same way by every world and
/// the live swarm: `carrier-sense` with the level read, then `deferral`
/// when it is below `busy_below`. Returns whether the medium read busy.
#[inline]
pub fn carrier_sense(free: u64, busy_below: u64, mut record: impl FnMut(TraceEv)) -> bool {
    record(TraceEv::CarrierSense { free });
    let busy = free < busy_below;
    if busy {
        record(TraceEv::Deferral);
    }
    busy
}

/// A bounded in-memory ring keeping the most recent `cap` records —
/// the "flight recorder" for long real-driver runs where a full trace
/// would be unbounded.
pub struct RingSink {
    cap: usize,
    buf: VecDeque<TraceRecord>,
    /// Total records offered, including those the ring has dropped.
    seen: u64,
}

impl RingSink {
    /// A ring keeping the last `cap` records (`cap` ≥ 1).
    pub fn new(cap: usize) -> RingSink {
        RingSink {
            cap: cap.max(1),
            buf: VecDeque::with_capacity(cap.clamp(1, 4096)),
            seen: 0,
        }
    }

    /// The retained records, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &TraceRecord> {
        self.buf.iter()
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Total records offered over the ring's lifetime (≥ [`len`]).
    ///
    /// [`len`]: RingSink::len
    pub fn total_seen(&self) -> u64 {
        self.seen
    }

    /// Drain the ring into a `Vec`, oldest first.
    pub fn into_vec(self) -> Vec<TraceRecord> {
        self.buf.into_iter().collect()
    }
}

impl TraceSink for RingSink {
    fn record(&mut self, rec: &TraceRecord) {
        if self.buf.len() == self.cap {
            self.buf.pop_front();
        }
        self.buf.push_back(rec.clone());
        self.seen += 1;
    }
}

/// An unbounded collector, the building block for per-point trace
/// buffers in parallel sweeps.
#[derive(Default)]
pub struct VecSink {
    recs: Vec<TraceRecord>,
}

impl VecSink {
    /// An empty collector.
    pub fn new() -> VecSink {
        VecSink::default()
    }

    /// The collected records in emission order.
    pub fn records(&self) -> &[TraceRecord] {
        &self.recs
    }

    /// Take the collected records, leaving the sink empty.
    pub fn take(&mut self) -> Vec<TraceRecord> {
        std::mem::take(&mut self.recs)
    }
}

impl TraceSink for VecSink {
    fn record(&mut self, rec: &TraceRecord) {
        self.recs.push(rec.clone());
    }
}

/// A JSONL file sink: one record per line, written as it arrives.
///
/// Flushes the underlying writer on drop, so a sink abandoned without
/// [`JsonlSink::into_inner`] — a deadline kill unwinding the driver, a
/// daemon worker dropping its connection state — still lands its final
/// complete line on disk rather than leaving it truncated in a buffer.
pub struct JsonlSink<W: std::io::Write + Send> {
    /// `None` only after `into_inner` has taken the writer.
    w: Option<W>,
    /// First write error, if any (later records are dropped).
    error: Option<std::io::Error>,
}

impl<W: std::io::Write + Send> JsonlSink<W> {
    /// Wrap a writer. Consider `std::io::BufWriter` for files.
    pub fn new(w: W) -> JsonlSink<W> {
        JsonlSink {
            w: Some(w),
            error: None,
        }
    }

    /// The first write error encountered, if any.
    pub fn error(&self) -> Option<&std::io::Error> {
        self.error.as_ref()
    }

    /// Flush and return the underlying writer.
    pub fn into_inner(mut self) -> std::io::Result<W> {
        let mut w = self.w.take().expect("writer taken once");
        w.flush()?;
        Ok(w)
    }
}

impl<W: std::io::Write + Send> TraceSink for JsonlSink<W> {
    fn record(&mut self, rec: &TraceRecord) {
        if self.error.is_some() {
            return;
        }
        let Some(w) = self.w.as_mut() else { return };
        let line = rec.to_json_line();
        if let Err(e) = w
            .write_all(line.as_bytes())
            .and_then(|()| w.write_all(b"\n"))
        {
            self.error = Some(e);
        }
    }
}

impl<W: std::io::Write + Send> Drop for JsonlSink<W> {
    fn drop(&mut self) {
        if let Some(w) = self.w.as_mut() {
            // Best effort: drop runs on kill/unwind paths where an
            // error has nowhere to go.
            let _ = w.flush();
        }
    }
}

/// Serialize records as a JSONL document (one line each, trailing
/// newline included when non-empty).
pub fn to_jsonl(records: &[TraceRecord]) -> String {
    let mut out = String::new();
    for r in records {
        out.push_str(&r.to_json_line());
        out.push('\n');
    }
    out
}

/// Parse a JSONL document into records, reporting the first bad line.
pub fn from_jsonl(text: &str) -> Result<Vec<TraceRecord>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(i, l)| TraceRecord::parse_json_line(l).map_err(|e| format!("line {}: {e}", i + 1)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(t_us: u64, client: i64, ev: TraceEv) -> TraceRecord {
        TraceRecord {
            t: Time::from_micros(t_us),
            client,
            task: 1,
            ev,
        }
    }

    /// Every string a script can put into a record, chosen to break a
    /// hand-rolled codec: quotes, backslashes, line breaks, control
    /// characters, non-ASCII, and nothing at all.
    const HOSTILE: &str = "cut -d\" \" -f2 \\n\\\\ \n\r\t\u{1} \u{e9}\u{4e16}\u{1f980} ]}";

    /// The sample after `ev` in the round-trip walk, `None` after the
    /// last. Matching on the variant with no wildcard arm is the point:
    /// a kind added to [`TraceEv`] does not compile until it has a
    /// sample here, and the walk reaches it.
    fn next_sample(ev: &TraceEv) -> Option<TraceEv> {
        let hostile = || HOSTILE.to_string();
        Some(match ev {
            TraceEv::AttemptStart {
                budget: Some(_), ..
            } => TraceEv::AttemptStart {
                attempt: u32::MAX,
                budget: None,
            },
            TraceEv::AttemptStart { budget: None, .. } => TraceEv::AttemptOk { attempt: 2 },
            TraceEv::AttemptOk { .. } => TraceEv::Backoff {
                attempt: 1,
                delay: Dur::from_millis(1500),
            },
            TraceEv::Backoff { .. } => TraceEv::TryExhausted,
            TraceEv::TryExhausted => TraceEv::TryTimeout,
            TraceEv::TryTimeout => TraceEv::CatchEntered,
            TraceEv::CatchEntered => TraceEv::CmdStart {
                program: hostile(),
                args: vec![hostile(), String::new(), "plain".into()],
            },
            TraceEv::CmdStart { args, .. } if !args.is_empty() => TraceEv::CmdStart {
                program: "true".into(),
                args: Vec::new(),
            },
            TraceEv::CmdStart { .. } => TraceEv::CmdEnd {
                program: hostile(),
                ok: false,
            },
            TraceEv::CmdEnd { .. } => TraceEv::CmdKilled { program: hostile() },
            TraceEv::CmdKilled { .. } => TraceEv::ForAnyNext { value: hostile() },
            TraceEv::ForAnyNext { value } if !value.is_empty() => TraceEv::ForAnyNext {
                value: String::new(),
            },
            TraceEv::ForAnyNext { .. } => TraceEv::ForAllSpawn { branches: 3 },
            TraceEv::ForAllSpawn { .. } => TraceEv::VarSet { name: hostile() },
            TraceEv::VarSet { .. } => TraceEv::UnitDone { ok: true },
            TraceEv::UnitDone { .. } => TraceEv::CarrierSense { free: 42 },
            TraceEv::CarrierSense { .. } => TraceEv::Deferral,
            TraceEv::Deferral => TraceEv::Collision,
            TraceEv::Collision => TraceEv::ScheddCrash,
            TraceEv::ScheddCrash => TraceEv::Enospc,
            TraceEv::Enospc => TraceEv::FaultInjected {
                kind: "schedd-kill".into(),
                detail: hostile(),
            },
            TraceEv::FaultInjected { .. } => TraceEv::QueueClamps { count: 7 },
            TraceEv::QueueClamps { .. } => return None,
        })
    }

    #[test]
    fn json_roundtrip_every_variant() {
        let mut ev = Some(TraceEv::AttemptStart {
            attempt: 3,
            budget: Some(Dur::from_secs(40)),
        });
        let mut tags = std::collections::BTreeSet::new();
        let mut i = 0;
        while let Some(e) = ev {
            ev = next_sample(&e);
            tags.insert(e.tag());
            let r = rec(i * 1_000_000, i as i64, e);
            let line = r.to_json_line();
            assert!(!line.contains('\n'), "one record, one line: {line}");
            let back = TraceRecord::parse_json_line(&line).expect("parses");
            assert_eq!(back, r, "roundtrip failed for {line}");
            i += 1;
        }
        assert_eq!((tags.len(), i), (20, 23), "kinds and samples walked");
    }

    #[test]
    fn out_of_range_and_mistyped_fields_are_rejected_by_name() {
        let line = |rest: &str| format!("{{\"t\":1,\"client\":0,\"task\":0,{rest}}}");
        for (rest, field) in [
            ("\"ev\":\"attempt-ok\",\"attempt\":4294967297", "attempt"),
            ("\"ev\":\"attempt-ok\",\"attempt\":-1", "attempt"),
            (
                "\"ev\":\"attempt-start\",\"attempt\":1,\"budget_us\":-5",
                "budget_us",
            ),
            (
                "\"ev\":\"backoff\",\"attempt\":1,\"delay_us\":-1",
                "delay_us",
            ),
            ("\"ev\":\"carrier-sense\",\"free\":-3", "free"),
            ("\"ev\":\"queue-clamps\",\"count\":-1", "count"),
            ("\"ev\":\"forall-spawn\",\"branches\":-2", "branches"),
            (
                "\"ev\":\"cmd-start\",\"program\":\"p\",\"args\":[\"a\",7]",
                "args",
            ),
            (
                "\"ev\":\"cmd-start\",\"program\":\"p\",\"args\":\"a\"",
                "args",
            ),
            ("\"ev\":\"cmd-start\",\"program\":\"p\"", "args"),
            ("\"ev\":\"forany-next\",\"value\":3", "value"),
            ("\"ev\":\"var-set\"", "name"),
        ] {
            let err = TraceRecord::parse_json_line(&line(rest)).unwrap_err();
            assert!(err.contains(&format!("{field:?}")), "{rest}: {err}");
        }
        // A negative instant would read back as one 584 000 years out.
        let err =
            TraceRecord::parse_json_line("{\"t\":-1,\"client\":0,\"task\":0,\"ev\":\"deferral\"}")
                .unwrap_err();
        assert!(
            err.contains("\"t\"") && err.contains("out of range"),
            "{err}"
        );
        // The ids are signed on purpose: -1 is NO_ID.
        let ok = "{\"t\":0,\"client\":-1,\"task\":-1,\"ev\":\"deferral\"}";
        assert_eq!(TraceRecord::parse_json_line(ok).unwrap().client, NO_ID);
    }

    #[test]
    fn integers_above_2_pow_53_round_trip_exactly() {
        // The shared reader keeps integer literals as integers; routed
        // through `f64`, 2^53 + 1 would come back as 2^53.
        let big = (1u64 << 53) + 1;
        let r = rec(big, 3, TraceEv::QueueClamps { count: big + 2 });
        let line = r.to_json_line();
        assert!(line.contains("9007199254740993") && line.contains("9007199254740995"));
        assert_eq!(TraceRecord::parse_json_line(&line).unwrap(), r);
    }

    #[test]
    fn world_scope_record_uses_no_id() {
        let r = TraceRecord {
            t: Time::from_secs(9),
            client: NO_ID,
            task: NO_ID,
            ev: TraceEv::ScheddCrash,
        };
        let line = r.to_json_line();
        assert_eq!(
            line,
            "{\"t\":9000000,\"client\":-1,\"task\":-1,\"ev\":\"schedd-crash\"}"
        );
        assert_eq!(TraceRecord::parse_json_line(&line).unwrap(), r);
    }

    #[test]
    fn jsonl_roundtrip_and_blank_lines() {
        let recs = vec![
            rec(1, 0, TraceEv::Deferral),
            rec(2, 1, TraceEv::UnitDone { ok: false }),
        ];
        let doc = to_jsonl(&recs);
        assert_eq!(doc.lines().count(), 2);
        let back = from_jsonl(&format!("\n{doc}\n")).expect("parses");
        assert_eq!(back, recs);
        assert!(from_jsonl("{\"t\":bogus}").is_err());
    }

    #[test]
    fn ring_keeps_most_recent() {
        let mut ring = RingSink::new(3);
        for i in 0..10u64 {
            ring.record(&rec(i, 0, TraceEv::Deferral));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.total_seen(), 10);
        let kept: Vec<u64> = ring.records().map(|r| r.t.as_micros()).collect();
        assert_eq!(kept, vec![7, 8, 9]);
        assert_eq!(ring.into_vec().len(), 3);
    }

    #[test]
    fn vec_sink_collects_in_order() {
        let buf = Arc::new(Mutex::new(VecSink::new()));
        let sink: SharedSink = buf.clone();
        let none: Option<SharedSink> = None;
        emit(&none, Time::ZERO, 0, 0, TraceEv::Deferral); // no-op
        emit(&Some(sink), Time::from_secs(1), 2, 3, TraceEv::Collision);
        let recs = buf.lock().unwrap().take();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].client, 2);
        assert_eq!(recs[0].ev, TraceEv::Collision);
    }

    #[test]
    fn jsonl_sink_writes_lines() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.record(&rec(5, 0, TraceEv::Enospc));
        sink.record(&rec(6, 1, TraceEv::CarrierSense { free: 7 }));
        let bytes = sink.into_inner().unwrap();
        let text = String::from_utf8(bytes).unwrap();
        assert_eq!(text.lines().count(), 2);
        let parsed = from_jsonl(&text).unwrap();
        assert_eq!(parsed[1].ev, TraceEv::CarrierSense { free: 7 });
    }

    #[test]
    fn jsonl_sink_flushes_on_drop() {
        // Regression: a sink abandoned without `into_inner` (deadline
        // kill, daemon disconnect) must not leave the final record
        // stuck in a buffer as a truncated line on disk.
        let dir = std::env::temp_dir().join(format!("eg_trace_drop_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("drop.jsonl");
        {
            let f = std::fs::File::create(&path).unwrap();
            let mut sink = JsonlSink::new(std::io::BufWriter::new(f));
            sink.record(&rec(1, 0, TraceEv::Deferral));
            sink.record(&rec(2, 1, TraceEv::CarrierSense { free: 3 }));
            // Dropped here — no into_inner.
        }
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.ends_with('\n'), "final line truncated: {text:?}");
        let parsed = from_jsonl(&text).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[1].ev, TraceEv::CarrierSense { free: 3 });
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn jsonl_sink_flushes_on_drop_behind_shared_sink() {
        // The `ftsh --trace` path holds the sink as
        // Arc<Mutex<dyn TraceSink>> and relies on the drop at end of
        // main — the flush must fire through the trait object too.
        let dir = std::env::temp_dir().join(format!("eg_trace_drop_dyn_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("drop_dyn.jsonl");
        {
            let f = std::fs::File::create(&path).unwrap();
            let sink: SharedSink = Arc::new(Mutex::new(JsonlSink::new(std::io::BufWriter::new(f))));
            emit(&Some(sink), Time::from_secs(9), 4, 2, TraceEv::Enospc);
            // Arc dropped here; last strong ref runs JsonlSink::drop.
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let parsed = from_jsonl(&text).unwrap();
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].client, 4);
        std::fs::remove_dir_all(&dir).ok();
    }
}
