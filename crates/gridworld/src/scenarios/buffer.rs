//! Scenario 2 — the shared output buffer (Figures 4–5).
//!
//! N producer jobs write output files of unknown size (uniform in
//! (0, 1 MB]) into a 120 MB shared filesystem buffer; a consumer drains
//! completed files at 1 MB/s and deletes them (the Kangaroo pattern).
//! Files are written incrementally over one second; running out of
//! space mid-write is a *collision*: the partial file is deleted and
//! the producer retries under its discipline.
//!
//! The Ethernet producer cannot know its own future output size budget
//! a priori, but it can observe the buffer: it assumes every incomplete
//! file will grow to the average size of the completed ones, subtracts
//! that from the reported free space, and defers when what remains is
//! smaller than the file it is about to write.

use crate::driver::{ClientId, CommandWorld, Ctx, ExecOutcome, SimDriver};
use crate::lifecycle::NextUnit;
use crate::scripts::{buffer_script, unit_vm};
use ftsh::vm::{CmdResult, CmdToken, CommandSpec, Vm};
use retry::{Discipline, Dur, Time};
use simgrid::faults::FaultPlan;
use simgrid::trace::{SharedSink, TraceEv};
use simgrid::{DiskBuffer, FileId, IdMap, Series, SimRng, WriteError};
use std::fmt::Write as _;

/// One mebibyte.
pub const MB: u64 = 1 << 20;

/// Parameters of the buffer scenario (defaults: the paper's numbers).
#[derive(Clone, Debug)]
pub struct BufferParams {
    /// Number of producers (x-axis of Figures 4–5).
    pub n_producers: usize,
    /// Producer discipline.
    pub discipline: Discipline,
    /// Shared buffer capacity (paper: 120 MB); a write past it hits
    /// mid-file ENOSPC. The constant's only home: no fault plan
    /// overrides it.
    pub capacity: u64,
    /// Consumer drain rate in bytes/second (paper: 1 MB/s).
    pub consumer_rate: u64,
    /// Maximum output file size (paper: 1 MB, uniform from 0).
    pub max_file: u64,
    /// Time to produce (write) one file (paper: one per second).
    pub write_time: Dur,
    /// Number of incremental write chunks per file.
    pub chunks: u32,
    /// Consumer poll interval when the buffer has nothing complete.
    pub consumer_poll: Dur,
    /// Total I/O bandwidth of the shared filesystem in bytes/second.
    /// Producer write attempts (including ones that end in ENOSPC —
    /// the data still crosses the wire before the server rejects it)
    /// compete with the consumer's reads for this bandwidth; wasted
    /// collision traffic is precisely how Fixed producers starve the
    /// consumer in Figure 4.
    pub io_capacity: u64,
    /// Cost of generating the next output / probing free space.
    pub probe_cost: Dur,
    /// Pause after a failed unit (exhausted try) before the next file.
    pub failure_think: Dur,
    /// Metrics sampling interval.
    pub sample_every: Dur,
    /// Master seed.
    pub seed: u64,
    /// Faults injected into this run (empty: none).
    pub fault_plan: FaultPlan,
}

impl Default for BufferParams {
    fn default() -> BufferParams {
        BufferParams {
            n_producers: 20,
            discipline: Discipline::Ethernet,
            capacity: 120 * MB,
            consumer_rate: MB,
            max_file: MB,
            write_time: Dur::from_secs(1),
            chunks: 4,
            consumer_poll: Dur::from_millis(100),
            io_capacity: 4 * MB,
            probe_cost: Dur::from_millis(10),
            failure_think: Dur::from_millis(100),
            sample_every: Dur::from_secs(5),
            seed: 0xbfed,
            fault_plan: FaultPlan::default(),
        }
    }
}

/// Scenario events.
#[derive(Debug)]
pub enum BufferEv {
    /// Write the next chunk of an in-progress file.
    WriteChunk {
        /// Producer that owns the write.
        client: ClientId,
        /// Its command token.
        token: CmdToken,
        /// Chunks still to write after this one.
        remaining: u32,
    },
    /// Consumer looks for (or finishes) a file.
    ConsumerTick,
    /// Consumer finished reading a file.
    ConsumerDone {
        /// The file being consumed.
        id: FileId,
    },
    /// Periodic metrics sample.
    Sample,
}

struct ActiveWrite {
    file: FileId,
    chunk_bytes: u64,
    last_chunk_bytes: u64,
    /// When the write began: ENOSPC surfaces at close time (as over
    /// NFS), so failures complete a full write-time after the start.
    started: Time,
}

/// The shared-buffer world.
struct BufferWorld {
    params: BufferParams,
    rng: SimRng,
    /// The shared buffer.
    disk: DiskBuffer,
    /// In-flight writes by (client, token).
    active: IdMap<(ClientId, CmdToken), ActiveWrite>,
    consumer_busy: bool,
    /// Cumulative bytes producers attempted to write (successful or
    /// rejected) — the filesystem's ingress load.
    bytes_attempted: u64,
    /// Snapshot of (time, bytes_attempted) at the last consumer
    /// scheduling decision, for the congestion estimate.
    io_snapshot: (Time, u64),
    /// The counters and timelines the run returns.
    out: BufferOutcome,
    /// Where [`BufferWorld::format_answer`] formats.
    answer_buf: String,
}

impl BufferWorld {
    fn new(params: BufferParams) -> BufferWorld {
        BufferWorld {
            rng: SimRng::new(params.seed),
            disk: DiskBuffer::new(params.capacity),
            active: IdMap::default(),
            consumer_busy: false,
            bytes_attempted: 0,
            io_snapshot: (Time::ZERO, 0),
            out: BufferOutcome {
                consumed_series: Series::new("files consumed"),
                collision_series: Series::new("collisions"),
                occupancy_series: Series::new("occupancy"),
                ..BufferOutcome::default()
            },
            answer_buf: String::new(),
            params,
        }
    }

    /// A probe's answer: the bare number, formatted into the world's
    /// one buffer and copied out once. With no trailing newline the VM
    /// binds the result itself instead of trimming it into a copy.
    /// Not [`Ctx::count`]: file sizes and space estimates hardly
    /// repeat, so interning them would grow a map entry per value.
    fn format_answer(&mut self, value: impl std::fmt::Display) -> CmdResult {
        self.answer_buf.clear();
        let _ = write!(self.answer_buf, "{value}");
        CmdResult::ok(self.answer_buf.as_str())
    }

    fn sample(&mut self, now: Time) {
        let out = &mut self.out;
        out.consumed_series.push(now, out.files_consumed as f64);
        out.collision_series
            .push(now, self.disk.collisions() as f64);
        out.occupancy_series.push(now, self.disk.used() as f64);
    }
}

impl CommandWorld for BufferWorld {
    type Ev = BufferEv;

    fn exec(
        &mut self,
        ctx: &mut Ctx<'_, BufferEv>,
        client: ClientId,
        token: CmdToken,
        spec: &CommandSpec,
    ) -> ExecOutcome {
        match spec.program() {
            // Generate the next output: its size is only known to the
            // job itself (captured into ${size} by the script).
            "make-output" => {
                let size = self.rng.range_u64(1, self.params.max_file + 1);
                ExecOutcome::At(ctx.now() + self.params.probe_cost, self.format_answer(size))
            }
            // The Ethernet estimator over the observable buffer state.
            "estimate-space" => {
                let est = self
                    .disk
                    .ethernet_estimate_free()
                    .saturating_add(ctx.windows().df_delta(ctx.now()));
                // Busy when nothing is estimated free (`est <= 0`).
                if ctx.sense(client, est.max(0) as u64, 1) {
                    self.out.deferrals += 1;
                }
                ExecOutcome::At(ctx.now() + self.params.probe_cost, self.format_answer(est))
            }
            "write-output" => {
                let Some(size) = spec.argv.get(1).and_then(|s| s.parse::<u64>().ok()) else {
                    return ExecOutcome::Now(CmdResult::fail());
                };
                let size = size.max(1);
                let chunks = self.params.chunks.max(1);
                let chunk_bytes = size / chunks as u64;
                let last_chunk_bytes = size - chunk_bytes * (chunks as u64 - 1);
                let file = self.disk.create();
                self.active.insert(
                    (client, token),
                    ActiveWrite {
                        file,
                        chunk_bytes,
                        last_chunk_bytes,
                        started: ctx.now(),
                    },
                );
                // First chunk lands after one chunk interval.
                ctx.schedule(
                    ctx.now() + self.params.write_time / chunks as u64,
                    BufferEv::WriteChunk {
                        client,
                        token,
                        remaining: chunks - 1,
                    },
                );
                ExecOutcome::Held
            }
            _ => ExecOutcome::Now(CmdResult::fail()),
        }
    }

    fn cancelled(&mut self, _ctx: &mut Ctx<'_, BufferEv>, client: ClientId, token: CmdToken) {
        // Deadline mid-write: abandon the partial file.
        if let Some(w) = self.active.remove(&(client, token)) {
            let _ = self.disk.delete(w.file);
        }
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_, BufferEv>, ev: BufferEv) {
        match ev {
            BufferEv::WriteChunk {
                client,
                token,
                remaining,
            } => {
                let Some(w) = self.active.get(&(client, token)) else {
                    return; // cancelled or already resolved
                };
                let bytes = if remaining == 0 {
                    w.last_chunk_bytes
                } else {
                    w.chunk_bytes
                };
                let file = w.file;
                let started = w.started;
                self.bytes_attempted += bytes;
                // An injected ENOSPC window fails every write landing
                // inside it, occupancy notwithstanding.
                let res = if ctx.windows().enospc_active(ctx.now()) {
                    self.disk.force_enospc(file).and(Err(WriteError::NoSpace))
                } else {
                    self.disk.write(file, bytes)
                };
                match res {
                    Err(WriteError::NoSpace) => {
                        // Collision: DiskBuffer already deleted the
                        // partial file and counted it. The producer
                        // only learns at close time (NFS semantics),
                        // so the failure lands when the write would
                        // have finished.
                        ctx.record(Some(client), TraceEv::Enospc);
                        self.active.remove(&(client, token));
                        let at = (started + self.params.write_time).max(ctx.now());
                        ctx.schedule_completion(at, client, token, CmdResult::fail());
                    }
                    Err(_) => {
                        self.active.remove(&(client, token));
                        ctx.complete(client, token, CmdResult::fail());
                    }
                    Ok(()) => {
                        if remaining == 0 {
                            self.disk.complete(file).expect("file is writable");
                            self.out.files_produced += 1;
                            self.active.remove(&(client, token));
                            ctx.complete(client, token, CmdResult::succeed());
                        } else {
                            ctx.schedule(
                                ctx.now() + self.params.write_time / self.params.chunks as u64,
                                BufferEv::WriteChunk {
                                    client,
                                    token,
                                    remaining: remaining - 1,
                                },
                            );
                        }
                    }
                }
            }
            BufferEv::ConsumerTick => {
                if self.consumer_busy {
                    return;
                }
                match self.disk.oldest_complete() {
                    Some((id, size)) => {
                        self.consumer_busy = true;
                        // Congestion: producer write traffic (including
                        // rejected collision bytes) shares the
                        // filesystem with the consumer's read.
                        let (t0, b0) = self.io_snapshot;
                        let dt = ctx.now().saturating_since(t0).as_secs_f64();
                        let write_rate = if dt > 0.25 {
                            let r = (self.bytes_attempted - b0) as f64 / dt;
                            self.io_snapshot = (ctx.now(), self.bytes_attempted);
                            r
                        } else {
                            0.0
                        };
                        let slowdown = 1.0 + write_rate / self.params.io_capacity as f64;
                        let read_time = Dur::from_secs_f64(
                            size as f64 / self.params.consumer_rate as f64 * slowdown,
                        );
                        ctx.schedule(ctx.now() + read_time, BufferEv::ConsumerDone { id });
                    }
                    None => {
                        ctx.schedule(
                            ctx.now() + self.params.consumer_poll,
                            BufferEv::ConsumerTick,
                        );
                    }
                }
            }
            BufferEv::ConsumerDone { id } => {
                let size = self.disk.delete(id).expect("consumed file existed");
                self.out.files_consumed += 1;
                self.out.bytes_consumed += size;
                self.consumer_busy = false;
                ctx.schedule(ctx.now(), BufferEv::ConsumerTick);
            }
            BufferEv::Sample => {
                self.sample(ctx.now());
                ctx.schedule(ctx.now() + self.params.sample_every, BufferEv::Sample);
            }
        }
    }

    fn unit_done(
        &mut self,
        ctx: &mut Ctx<'_, BufferEv>,
        _client: ClientId,
        success: bool,
    ) -> Option<NextUnit> {
        let think = if success {
            Dur::ZERO
        } else {
            self.params.failure_think
        };
        Some((ftsh::Env::new(), self.rng.next_u64(), ctx.now() + think))
    }
}

/// Results of a buffer run.
#[derive(Debug, Default)]
pub struct BufferOutcome {
    /// Files drained by the consumer over the whole run.
    pub files_consumed: u64,
    /// Bytes drained.
    pub bytes_consumed: u64,
    /// Files completed by producers.
    pub files_produced: u64,
    /// Mid-write ENOSPC collisions.
    pub collisions: u64,
    /// Ethernet deferrals.
    pub deferrals: u64,
    /// Timeline of cumulative consumption.
    pub consumed_series: Series,
    /// Timeline of cumulative collisions.
    pub collision_series: Series,
    /// Timeline of buffer occupancy.
    pub occupancy_series: Series,
    /// Events popped from this run's own queue (per-run engine work).
    pub events_popped: u64,
    /// VM ticks this run's driver issued.
    pub vm_ticks: u64,
    /// Past-scheduled events the queue clamped forward to `now`.
    pub queue_clamps: u64,
    /// Events scheduled past the window's end, counted and not stored.
    pub events_discarded: u64,
    /// Wakes popped that an ended unit left behind ([`crate::RunCounts`]).
    pub stale_wakes: u64,
    /// Units a stale wake started before their start instant.
    pub early_units: u64,
}

impl BufferOutcome {
    /// Files consumed within `[from, to]`, from the sampled series.
    pub fn consumed_between(&self, from: Time, to: Time) -> f64 {
        let v = |t: Time| {
            self.consumed_series
                .points
                .iter()
                .take_while(|&&(x, _)| x <= t.as_secs_f64())
                .last()
                .map(|&(_, y)| y)
                .unwrap_or(0.0)
        };
        v(to) - v(from)
    }
}

/// Run the scenario for `duration` of virtual time.
pub fn run_buffer(params: BufferParams, duration: Dur) -> BufferOutcome {
    run_buffer_traced(params, duration, None)
}

/// [`run_buffer`] with an optional structured-trace sink: every
/// producer VM plus the buffer world record into it (attempt spans,
/// backoffs, space probes, deferrals, ENOSPC collisions).
pub fn run_buffer_traced(
    params: BufferParams,
    duration: Dur,
    sink: Option<SharedSink>,
) -> BufferOutcome {
    let world = BufferWorld::new(params.clone());
    let rng = SimRng::new(params.seed ^ 0xD15C);
    let script = buffer_script(params.discipline);
    let vms: Vec<Vm> = (0..params.n_producers)
        .map(|c| {
            let seed = rng.fork(c as u64).next_u64();
            unit_vm(&script, params.discipline, ftsh::Env::new(), seed)
        })
        .collect();
    let mut driver = SimDriver::new(world, vms);
    let run = driver.run_traced(sink, params.fault_plan, Time::ZERO + duration, |d| {
        d.schedule_world(Time::ZERO, BufferEv::ConsumerTick);
        d.schedule_world(Time::ZERO, BufferEv::Sample);
    });
    let w = driver.world;
    BufferOutcome {
        collisions: w.disk.collisions(),
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

    fn quick(discipline: Discipline, n: usize, secs: u64) -> BufferOutcome {
        let params = BufferParams {
            n_producers: n,
            discipline,
            ..BufferParams::default()
        };
        run_buffer(params, Dur::from_secs(secs))
    }

    #[test]
    fn producers_fill_and_consumer_drains() {
        let o = quick(Discipline::Aloha, 4, 60);
        assert!(o.files_produced > 20, "produced {}", o.files_produced);
        assert!(o.files_consumed > 10, "consumed {}", o.files_consumed);
        assert!(o.bytes_consumed > 0);
    }

    #[test]
    fn no_collisions_while_buffer_is_ample() {
        // 4 producers x ~0.5 MB/s vs 120 MB: no pressure inside 60 s.
        let o = quick(Discipline::Fixed, 4, 60);
        assert_eq!(o.collisions, 0);
    }

    #[test]
    fn heavy_fixed_load_collides() {
        let o = quick(Discipline::Fixed, 40, 300);
        assert!(o.collisions > 50, "collisions {}", o.collisions);
    }

    #[test]
    fn ethernet_avoids_collisions_under_load() {
        let e = quick(Discipline::Ethernet, 40, 300);
        let f = quick(Discipline::Fixed, 40, 300);
        assert!(
            e.collisions * 10 < f.collisions.max(1),
            "ethernet {} vs fixed {}",
            e.collisions,
            f.collisions
        );
        assert!(e.deferrals > 0, "carrier sense must engage");
    }

    #[test]
    fn ethernet_throughput_beats_fixed_under_load() {
        let e = quick(Discipline::Ethernet, 40, 300);
        let f = quick(Discipline::Fixed, 40, 300);
        assert!(
            e.files_consumed > f.files_consumed,
            "ethernet {} vs fixed {}",
            e.files_consumed,
            f.files_consumed
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let a = quick(Discipline::Aloha, 10, 120);
        let b = quick(Discipline::Aloha, 10, 120);
        assert_eq!(a.files_consumed, b.files_consumed);
        assert_eq!(a.collisions, b.collisions);
    }

    #[test]
    fn consumed_between_reads_series() {
        let o = quick(Discipline::Aloha, 4, 120);
        let whole = o.consumed_between(Time::ZERO, Time::from_secs(120));
        assert!((whole - o.files_consumed as f64).abs() <= 3.0);
        let half = o.consumed_between(Time::from_secs(60), Time::from_secs(120));
        assert!(half <= whole);
    }
}
