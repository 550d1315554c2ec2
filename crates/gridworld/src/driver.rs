//! The simulation driver: multiplexes a population of ftsh VMs over
//! one discrete-event queue.
//!
//! Each client of a scenario runs a real ftsh script on a real
//! [`Vm`]; the scenario implements [`CommandWorld`], which decides what
//! each command (`condor_submit`, `wget`, `write-output`, …) does to
//! the shared resources and when it completes. The driver owns the
//! plumbing: wake-ups at backoff instants and `try` deadlines, command
//! completion routing, cancellation of in-flight work, and work-unit
//! restarts.
//!
//! A client is one VM for the whole run, as a §5 client is one ftsh
//! process running its script unit after unit: the world says only
//! what the next unit is ([`NextUnit`]), and the driver
//! [restarts](Vm::restart) the VM in place. Whether a unit runs, its
//! epoch and its start instant are each client's [`Lifecycle`], the
//! type the live swarm drives its clients by too.
//!
//! What is in flight is recorded once, in each client's VM. The driver
//! keeps no table of its own: a completion is delivered iff it carries
//! the client's current work-unit epoch *and* the client is running
//! *and* its VM still waits on the token ([`Vm::in_flight`]); anything
//! else — the `try` deadline won the race, the unit retired, the client
//! was killed — is dropped on arrival without ticking the VM. The epoch
//! is needed because token numbering restarts with every unit: a stale
//! completion must not be mistaken for the next unit's command of the
//! same number. What a world holds for a command it answered
//! [`ExecOutcome::Held`] is the world's own business; it is told
//! [`cancelled`](CommandWorld::cancelled) exactly when the VM gives up
//! on a command whose completion has not been delivered (held, or
//! scheduled with [`ExecOutcome::At`]), a client kill included.
//!
//! A world holds only its physics. Everything else it needs from the
//! run goes through its [`Ctx`]: the clock and the queue, releases of
//! held commands, trace records (into the one sink the driver installs
//! in every VM) and interned probe answers (one map per driver).

use crate::lifecycle::{Lifecycle, NextUnit, Wake};
use crate::phases::{self, Clock, Off, Phase, Tsc};
use ftsh::vm::{step, Answers, CmdResult, CmdToken, CommandSpec, Effect, Executor, Vm, VmStatus};
use ftsh::Istr;
use retry::{Dur, Time};
use simgrid::faults::{FaultKind, FaultPlan, FaultWindows};
use simgrid::trace::{carrier_sense, emit, SharedSink, TraceEv, NO_ID};
use simgrid::{EventQueue, IdMap, SimRng, NO_OWNER};
use std::marker::PhantomData;

/// A client index within a scenario.
pub type ClientId = usize;

/// What a wake or completion for `client` is scheduled for on the
/// queue: the client's index, which [`EventQueue::lookahead`] hands
/// back. Past `u32` it names the wrong client, and a hint is all it
/// steers.
fn owner(client: ClientId) -> u32 {
    debug_assert!(client < NO_OWNER as usize, "under 2^32 - 1 clients");
    client as u32
}

/// Events the driver understands; `W` is the scenario's own event type.
#[derive(Debug)]
pub enum SimEv<W> {
    /// Tick a client's VM (its start, a backoff wake-up or a `try`
    /// deadline).
    Wake {
        /// The client to tick.
        client: ClientId,
        /// The client's work-unit epoch when the wake was armed.
        epoch: u32,
    },
    /// A command scheduled with [`ExecOutcome::At`] finished.
    CmdDone {
        /// Owning client.
        client: ClientId,
        /// The client's work-unit epoch when the command started (VM
        /// token numbering restarts with every unit, so completions
        /// from a finished unit must not leak into the next). 32 bits,
        /// so the variant — and with it every queued event — stays
        /// 48 bytes with the `delayed` flag aboard.
        epoch: u32,
        /// The VM's token for the command.
        token: CmdToken,
        /// Result to deliver.
        result: CmdResult,
        /// A latency spike already held this message once (a spike
        /// adds its extra exactly once per message).
        delayed: bool,
    },
    /// A scenario-specific event.
    World(W),
    /// An armed [`FaultPlan`] spec (by index) triggers now.
    Fault(usize),
    /// A client killed by [`FaultKind::ClientKill`] reaches its
    /// restart instant; the world is asked for its next unit.
    Revive(ClientId),
}

/// What the world decides about a just-started command.
#[derive(Debug)]
pub enum ExecOutcome {
    /// Completes immediately with this result.
    Now(CmdResult),
    /// Completes at the given instant with this result, unless the VM
    /// cancels it first.
    At(Time, CmdResult),
    /// The world holds it and will complete it later, through
    /// [`Ctx::complete`] or [`Ctx::schedule_completion`] (e.g. a
    /// transfer that starts only when a server queue drains).
    Held,
}

/// A held command's result, released by a world callback and
/// delivered when that callback returns.
type Release = (ClientId, CmdToken, CmdResult);

/// What a [`SimDriver`] has counted over its run. Per driver, so
/// concurrent sweep workers never see each other's counts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunCounts {
    /// Events popped from the run's own queue: the engine-work metric.
    pub events_popped: u64,
    /// VM ticks issued; the perf harness divides allocations by it.
    pub vm_ticks: u64,
    /// Events that asked for an instant already past and were moved
    /// forward to it. Nonzero is worth surfacing in run stats.
    pub queue_clamps: u64,
    /// Events after [`SimDriver::run_traced`]'s end, counted and never
    /// stored: mostly `try` deadlines past the window.
    pub events_discarded: u64,
    /// Wakes popped that an ended unit left behind ([`Wake::Stale`] or
    /// [`Wake::Early`]). Each still ticks its client.
    pub stale_wakes: u64,
    /// Stale wakes that ticked a restarted unit strictly before its
    /// start instant ([`Wake::Early`]).
    pub early_units: u64,
}

/// A world callback's one way to reach the run: the clock and the
/// event queue, releases of held commands, the trace sink, the
/// interned probe answers and the armed plan's fault windows. A world
/// keeps none of these itself.
pub struct Ctx<'a, W> {
    queue: &'a mut EventQueue<SimEv<W>>,
    lives: &'a [Lifecycle],
    released: &'a mut Vec<Release>,
    tracer: &'a Option<SharedSink>,
    answers: &'a mut IdMap<u64, Istr>,
    windows: &'a FaultWindows,
}

/// The windows a run with no armed plan reads.
static NO_WINDOWS: FaultWindows = FaultWindows::NONE;

impl<W> Ctx<'_, W> {
    /// The current virtual instant.
    pub fn now(&self) -> Time {
        self.queue.now()
    }

    /// Schedule a world event.
    pub fn schedule(&mut self, at: Time, ev: W) {
        self.queue.schedule(at, SimEv::World(ev));
    }

    /// Schedule the completion of a currently held command. The
    /// completion is stamped with the client's current work-unit
    /// epoch, so it is dropped automatically if the unit has moved on
    /// by the time it fires.
    pub fn schedule_completion(
        &mut self,
        at: Time,
        client: ClientId,
        token: CmdToken,
        result: CmdResult,
    ) {
        self.queue.schedule_for(
            at,
            owner(client),
            SimEv::CmdDone {
                client,
                epoch: self.lives[client].epoch(),
                token,
                result,
                delayed: false,
            },
        );
    }

    /// Complete a currently held command now. Releases are delivered
    /// in call order when the callback returns, at the same instant
    /// and with the same epoch and in-flight checks as any completion;
    /// they add no queue event. Not for [`CommandWorld::exec`] or
    /// [`CommandWorld::cancelled`], which run inside a VM step: answer
    /// there through [`ExecOutcome`] or [`schedule_completion`].
    ///
    /// [`schedule_completion`]: Self::schedule_completion
    pub fn complete(&mut self, client: ClientId, token: CmdToken, result: CmdResult) {
        self.released.push((client, token, result));
    }

    /// Record `ev` now, labelled by `client` (`None` for the world
    /// itself), into the run's trace sink. Free when tracing is off.
    pub fn record(&self, client: Option<ClientId>, ev: TraceEv) {
        let client = client.map_or(NO_ID, |c| c as i64);
        emit(self.tracer, self.now(), client, NO_ID, ev);
    }

    /// One carrier-sense reading by `client` of `level` free, recorded
    /// as every world and the live swarm record it
    /// ([`carrier_sense`]). Returns whether the medium read busy
    /// (`level < busy_below`).
    pub fn sense(&self, client: ClientId, level: u64, busy_below: u64) -> bool {
        carrier_sense(level, busy_below, |ev| self.record(Some(client), ev))
    }

    /// A probe's answer: the bare number `n`, with no trailing newline
    /// so the VM binds it without trimming a copy. Interned per
    /// distinct value in one map the driver owns, for counts a
    /// population reads millions of times.
    pub fn count(&mut self, n: u64) -> CmdResult {
        let out = self
            .answers
            .entry(n)
            .or_insert_with(|| Istr::from(n.to_string()));
        CmdResult::ok(out.clone())
    }

    /// The armed plan's windows ([`FaultPlan::windows`], compiled once
    /// per run), or an empty table when no plan is armed. The kinds
    /// that are pure time windows (ENOSPC, free-space lie) reach a
    /// world only through here.
    pub fn windows(&self) -> &FaultWindows {
        self.windows
    }
}

/// A scenario: what commands do, and what happens between work units.
pub trait CommandWorld: Sized {
    /// Scenario-specific event payload.
    type Ev;

    /// A client's VM started a command. Decide its fate.
    fn exec(
        &mut self,
        ctx: &mut Ctx<'_, Self::Ev>,
        client: ClientId,
        token: CmdToken,
        spec: &CommandSpec,
    ) -> ExecOutcome;

    /// A command the world was still holding (or that was scheduled via
    /// `At`) has been cancelled by a `try` deadline: release whatever
    /// it held.
    fn cancelled(&mut self, ctx: &mut Ctx<'_, Self::Ev>, client: ClientId, token: CmdToken);

    /// A scenario event fired. Complete whatever held commands it
    /// releases with [`Ctx::complete`].
    fn on_event(&mut self, ctx: &mut Ctx<'_, Self::Ev>, ev: Self::Ev);

    /// A client's script finished (one work unit). Return the next
    /// unit, which the driver starts on the same VM, or `None` to
    /// retire the client.
    fn unit_done(
        &mut self,
        ctx: &mut Ctx<'_, Self::Ev>,
        client: ClientId,
        success: bool,
    ) -> Option<NextUnit>;

    /// An armed fault plan injected a fault that changes world state
    /// (schedd kill/restart, black-hole toggle, client kill). Complete
    /// whatever held commands the fault releases with
    /// [`Ctx::complete`]. The default ignores the fault — worlds opt in
    /// to the kinds they model. The kinds that are pure time windows
    /// (ENOSPC, free-space lie) never arrive here: a world reads them
    /// from the run's table, [`Ctx::windows`]. A client kill
    /// arrives only when it hit a running client, after the driver has
    /// torn that client down; one that finds the client dead or retired
    /// is traced and goes no further.
    fn inject_fault(&mut self, _ctx: &mut Ctx<'_, Self::Ev>, _kind: &FaultKind) {}

    /// A client killed by a [`FaultKind::ClientKill`] injection has
    /// reached its restart instant. Return the unit it resumes with,
    /// or `None` to leave the client dead. The default leaves it dead —
    /// worlds that model rank recovery (the coordinated workloads) opt
    /// in.
    fn restart_client(
        &mut self,
        ctx: &mut Ctx<'_, Self::Ev>,
        client: ClientId,
    ) -> Option<NextUnit> {
        let _ = (ctx, client);
        None
    }
}

/// `n` start instants drawn uniformly over `[0, stagger)`, in client
/// order: a t=0 thundering herd would defeat carrier sense at once.
pub fn staggered_starts(rng: &mut SimRng, n: usize, stagger: Dur) -> Vec<Time> {
    let span = stagger.as_secs_f64().max(1e-9);
    (0..n)
        .map(|_| Time::ZERO + Dur::from_secs_f64(rng.uniform(0.0, span)))
        .collect()
}

/// Driver-side state for an armed [`FaultPlan`]; absent (one `Option`
/// test) when no plan is armed, so the default path stays
/// allocation-free.
struct FaultState {
    plan: FaultPlan,
    /// The plan's private RNG stream (loss draws only).
    rng: SimRng,
    /// Triggers fired so far, per spec index.
    fired: Vec<u32>,
    /// The plan's windows, the run's one table: the driver reads the
    /// per-channel loss and latency ones (a channel is a program name),
    /// and worlds the rest through [`Ctx::windows`].
    windows: FaultWindows,
    /// Per-client VM clock offsets in microseconds.
    skew_us: Vec<i64>,
    /// Monotonicity clamp for each client's skewed clock (a VM must
    /// never observe time running backwards when skew changes mid-run).
    last_vm_now: Vec<Time>,
}

impl FaultState {
    fn new(plan: FaultPlan, n_clients: usize) -> FaultState {
        let rng = plan.rng();
        let fired = vec![0; plan.specs.len()];
        let windows = plan.windows();
        FaultState {
            plan,
            rng,
            fired,
            windows,
            skew_us: vec![0; n_clients],
            last_vm_now: vec![Time::ZERO; n_clients],
        }
    }

    /// Whether an active loss window swallows a completion of
    /// `program` arriving at `now` (draws from the plan RNG stream).
    fn lose(&mut self, program: &str, now: Time) -> bool {
        let p = self.windows.loss_probability(program, now);
        p > 0.0 && self.rng.chance(p)
    }
}

/// The generic scenario engine.
pub struct SimDriver<W: CommandWorld> {
    /// The scenario state, accessible between runs for metrics.
    pub world: W,
    /// Aggregated ftsh log summary over every finished work unit —
    /// total attempts, backoffs, kills across the population.
    pub log_totals: ftsh::LogSummary,
    queue: EventQueue<SimEv<W::Ev>>,
    /// One VM per client for the whole run. A killed or retired
    /// client's VM stays in its slot, never ticked.
    vms: Vec<Vm>,
    /// Each client's unit lifecycle; its epoch is stamped on wakes and
    /// completions.
    lives: Vec<Lifecycle>,
    /// Structured-trace sink shared by every client VM. `None` ⇒
    /// tracing off and the tick path pays nothing.
    tracer: Option<SharedSink>,
    /// Armed fault plan, if any. `None` ⇒ faults off and the event
    /// loop pays one `Option` test.
    faults: Option<FaultState>,
    /// Reusable effects buffer swapped into each VM tick, so the hot
    /// loop never allocates a fresh `Vec` per tick.
    effects_buf: Vec<Effect>,
    /// Reusable buffer world callbacks release held commands into
    /// ([`Ctx::complete`]).
    released: Vec<Release>,
    /// Probe answers interned per distinct value ([`Ctx::count`]).
    answers: IdMap<u64, Istr>,
    vm_ticks: u64,
    /// Wakes popped that an ended unit left behind, and those of them
    /// due before the current unit's start.
    stale_wakes: u64,
    early_units: u64,
}

impl<W: CommandWorld> SimDriver<W> {
    /// Create a driver over `world` with the given client VMs, all
    /// starting at `T+0`.
    pub fn new(world: W, vms: Vec<Vm>) -> SimDriver<W> {
        let n = vms.len();
        SimDriver::with_starts(world, vms, vec![Time::ZERO; n])
    }

    /// Create a driver whose clients start at the given instants (see
    /// [`staggered_starts`]).
    pub fn with_starts(world: W, vms: Vec<Vm>, starts: Vec<Time>) -> SimDriver<W> {
        assert_eq!(vms.len(), starts.len(), "one start time per client");
        let mut queue = EventQueue::new();
        for (client, &at) in starts.iter().enumerate() {
            queue.schedule_for(at, owner(client), SimEv::Wake { client, epoch: 0 });
        }
        let n = vms.len();
        SimDriver {
            world,
            log_totals: ftsh::LogSummary::default(),
            queue,
            vms,
            lives: vec![Lifecycle::default(); n],
            tracer: None,
            faults: None,
            effects_buf: Vec::new(),
            released: Vec::new(),
            answers: IdMap::default(),
            vm_ticks: 0,
            stale_wakes: 0,
            early_units: 0,
        }
    }

    /// Arm a fault plan: every time-triggered injection spec is
    /// scheduled on the event queue and will fire deterministically
    /// from the sim clock plus the plan's private RNG stream, emitting
    /// a `fault` trace record at each trigger. Standing
    /// `cmd-fail-first` budgets are not scheduled. Arming
    /// an empty plan schedules nothing and draws nothing, so the
    /// default path is unchanged.
    pub fn arm_faults(&mut self, plan: FaultPlan) {
        for (i, spec) in plan.injections() {
            self.queue.schedule(spec.at, SimEv::Fault(i));
        }
        let n = self.vms.len();
        self.faults = Some(FaultState::new(plan, n));
    }

    /// Schedule an initial scenario event (consumer ticks, samplers…).
    pub fn schedule_world(&mut self, at: Time, ev: W::Ev) {
        self.queue.schedule(at, SimEv::World(ev));
    }

    /// Install a structured-trace sink: every client VM records
    /// attempt spans, backoffs, and command boundaries into it, in
    /// every unit, labelled by client index, and the world records
    /// through [`Ctx::record`].
    fn set_trace(&mut self, sink: SharedSink) {
        let sink = phases::charge_trace(sink);
        for (c, vm) in self.vms.iter_mut().enumerate() {
            vm.set_tracer(sink.clone(), c as i64);
        }
        self.tracer = Some(sink);
    }

    /// What this run has counted so far.
    pub fn counts(&self) -> RunCounts {
        RunCounts {
            events_popped: self.queue.popped(),
            vm_ticks: self.vm_ticks,
            queue_clamps: self.queue.clamped(),
            events_discarded: self.queue.discarded(),
            stale_wakes: self.stale_wakes,
            early_units: self.early_units,
        }
    }

    /// The current virtual instant.
    pub fn now(&self) -> Time {
        self.queue.now()
    }

    /// Run one world callback with a [`Ctx`] over the queue, then
    /// deliver, in release order, the held commands it completed.
    fn ask<C: Clock, R>(&mut self, f: impl FnOnce(&mut W, &mut Ctx<'_, W::Ev>) -> R) -> R {
        let was = C::enter(Phase::World);
        // Taken, not borrowed: a delivery ticks a VM, and a tick may
        // run further callbacks.
        let mut released = std::mem::take(&mut self.released);
        let r = f(
            &mut self.world,
            &mut Ctx {
                queue: &mut self.queue,
                lives: &self.lives,
                released: &mut released,
                tracer: &self.tracer,
                answers: &mut self.answers,
                windows: self.faults.as_ref().map_or(&NO_WINDOWS, |f| &f.windows),
            },
        );
        let now = self.queue.now();
        for (client, token, result) in released.drain(..) {
            let epoch = self.lives[client].epoch();
            self.deliver::<C>(client, epoch, token, result, false, now);
        }
        self.released = released;
        C::enter(was);
        r
    }

    /// Run until the queue drains or virtual time would pass `end`.
    /// Events strictly after `end` remain unpopped, so the final clock
    /// never exceeds `end`. Resumable: it sets no end on the queue, so
    /// those events are still stored and a later call pops them.
    ///
    /// One event ahead (DESIGN.md §10): right after a pop it asks the
    /// queue whose event is next ([`EventQueue::lookahead`], which
    /// reads the next key, not the event, and hints the event's slot)
    /// and, if that wakes or completes for a client, prefetches the
    /// client's [`Vm`] and [`Lifecycle`]; once the popped event is
    /// handled, the `Vm` has arrived and [`Vm::prefetch`] follows its
    /// pointers. A prefetch is a hint, so a stale guess —
    /// the handler scheduled something earlier — costs a wasted load
    /// and nothing else.
    ///
    /// Inside a [`phases::timed`] scope it also charges the loop's
    /// cycles to their [`Phase`]s; the check is made once per call.
    pub fn run_until(&mut self, end: Time) {
        if phases::enabled() {
            self.run_timed(end);
        } else {
            self.run_loop::<Off>(end);
        }
    }

    /// The timed loop, out of line so that the untimed one, and what
    /// it inlines, is laid out as it was before the timer existed
    /// (DESIGN.md §10, "Where an event's cycles go").
    #[inline(never)]
    fn run_timed(&mut self, end: Time) {
        self.run_loop::<Tsc>(end);
    }

    /// [`SimDriver::run_until`]'s loop, timed by `C`.
    fn run_loop<C: Clock>(&mut self, end: Time) {
        C::start();
        while let Some(t) = self.queue.peek_time() {
            if t > end {
                break;
            }
            let (now, ev) = self.queue.pop().expect("peeked");
            let next = self.queue.lookahead().and_then(|c| {
                let c = c as ClientId;
                self.vms.get(c).map(|vm| {
                    simgrid::prefetch(vm);
                    simgrid::prefetch(&self.lives[c]);
                    c
                })
            });
            C::enter(Phase::Rest);
            match ev {
                SimEv::Wake { client, epoch } => {
                    // Every stale wake still ticks (ROADMAP item 2).
                    let wake = self.lives[client].wake(epoch, now);
                    self.stale_wakes += u64::from(wake != Wake::Fresh);
                    self.early_units += u64::from(wake == Wake::Early);
                    self.tick_client::<C>(client, now);
                }
                SimEv::CmdDone {
                    client,
                    epoch,
                    token,
                    result,
                    delayed,
                } => self.deliver::<C>(client, epoch, token, result, delayed, now),
                SimEv::World(w) => self.ask::<C, _>(|world, ctx| world.on_event(ctx, w)),
                SimEv::Fault(i) => self.trigger_fault::<C>(i, now),
                SimEv::Revive(c) => self.revive_client::<C>(c, now),
            }
            C::enter(Phase::Queue);
            if let Some(c) = next {
                self.vms[c].prefetch();
            }
        }
        C::enter(Phase::Rest);
    }

    /// What every scenario's `run_*_traced` does with the driver it
    /// built: install the sink, arm `plan` if it injects anything, let
    /// `first_events` schedule the world's opening events (after the
    /// plan's, so an injection at the same instant fires first), run
    /// until `end`, and return what the run counted. A nonzero clamp
    /// count also goes on the trace.
    ///
    /// One-shot: before anything is armed it gives the queue `end`, so
    /// every wake, completion, world event, fault re-trigger and
    /// revival scheduled after it is counted (see
    /// [`RunCounts::events_discarded`]) rather than stored. Such an
    /// event would never be popped, so nothing observable changes.
    pub fn run_traced(
        &mut self,
        trace: Option<SharedSink>,
        plan: FaultPlan,
        end: Time,
        first_events: impl FnOnce(&mut Self),
    ) -> RunCounts {
        self.queue.set_end(end);
        if let Some(sink) = trace {
            self.set_trace(sink);
        }
        if plan.injections().next().is_some() {
            self.arm_faults(plan);
        }
        first_events(self);
        self.run_until(end);
        let counts = self.counts();
        if counts.queue_clamps > 0 {
            let ev = TraceEv::QueueClamps {
                count: counts.queue_clamps,
            };
            emit(&self.tracer, self.now(), NO_ID, NO_ID, ev);
        }
        counts
    }

    /// Fire spec `i` of the armed plan at `now`: emit the trace
    /// record, apply (or forward) the fault, and reschedule the next
    /// trigger of a repeating spec.
    fn trigger_fault<C: Clock>(&mut self, i: usize, now: Time) {
        let was = C::enter(Phase::World);
        self.fault::<C>(i, now);
        C::enter(was);
    }

    /// [`SimDriver::trigger_fault`]'s body.
    fn fault<C: Clock>(&mut self, i: usize, now: Time) {
        let Some(fs) = &mut self.faults else {
            return; // plan disarmed after scheduling; nothing to do
        };
        let spec = fs.plan.specs[i].clone();
        fs.fired[i] += 1;
        if fs.fired[i] < spec.count {
            if let Some(every) = spec.every {
                self.queue.schedule(now + every, SimEv::Fault(i));
            }
        }
        emit(
            &self.tracer,
            now,
            NO_ID,
            NO_ID,
            TraceEv::FaultInjected {
                kind: spec.kind.tag().to_string(),
                detail: spec.kind.detail(),
            },
        );
        match &spec.kind {
            // Pure time windows change no state when they open: the
            // driver (channels) and the worlds (ENOSPC, lies) look
            // them up in the plan's window table when it matters.
            FaultKind::MsgLoss { .. }
            | FaultKind::LatencySpike { .. }
            | FaultKind::EnospcWindow { .. }
            | FaultKind::FreeSpaceLie { .. } => {}
            FaultKind::ClockSkew { client, skew_us } => {
                if let Some(s) = fs.skew_us.get_mut(*client) {
                    *s = *skew_us;
                }
            }
            FaultKind::ClientKill { client, restart } => {
                let (c, restart) = (*client, *restart);
                // Only a kill that found a running client reaches the
                // world (round accounting, resource bookkeeping, after
                // the VM is gone) and earns a revival: a client that
                // already retired, or is down from an earlier kill, is
                // neither counted twice nor resurrected by a stale
                // restart delay.
                if !self.kill_client::<C>(c) {
                    return;
                }
                self.ask::<C, _>(|world, ctx| world.inject_fault(ctx, &spec.kind));
                if let Some(delay) = restart {
                    self.queue.schedule(now + delay, SimEv::Revive(c));
                }
            }
            kind => self.ask::<C, _>(|world, ctx| world.inject_fault(ctx, kind)),
        }
    }

    /// Tear down client `client` right now: its unit stops mid-run
    /// and its epoch ends, which swallows any wake or completion
    /// already in the queue, and every command it had in flight is
    /// cancelled in token order (so the world releases held resources).
    /// The client stays dead until a [`SimEv::Revive`] asks the world
    /// for its next unit. Returns whether a running client was actually
    /// torn down.
    fn kill_client<C: Clock>(&mut self, client: ClientId) -> bool {
        if !self.lives.get_mut(client).is_some_and(Lifecycle::kill) {
            return false; // outside the population, dead or retired
        }
        let vm = &self.vms[client];
        self.log_totals += vm.log().summary();
        for token in vm.in_flight_tokens() {
            self.ask::<C, _>(|world, ctx| world.cancelled(ctx, client, token));
        }
        true
    }

    /// A killed client's restart delay elapsed: ask the world for its
    /// next unit and start it. A world that returns `None` (the
    /// default) leaves the client dead.
    fn revive_client<C: Clock>(&mut self, client: ClientId, now: Time) {
        if self.lives.get(client).is_none_or(Lifecycle::running) {
            return; // still alive, or out of range
        }
        if let Some(unit) = self.ask::<C, _>(|world, ctx| world.restart_client(ctx, client)) {
            match self.lives[client].restart(&mut self.vms[client], unit, now) {
                None => self.tick_client::<C>(client, now),
                Some(at) => self.wake_at(client, at),
            }
        }
    }

    /// Put a wake for `client` at `at` on the queue, stamped with its
    /// current unit epoch.
    fn wake_at(&mut self, client: ClientId, at: Time) {
        let epoch = self.lives[client].epoch();
        self.queue
            .schedule_for(at, owner(client), SimEv::Wake { client, epoch });
    }

    /// The instant client `client`'s VM observes when ticked at `now`:
    /// the sim clock plus any armed clock skew, clamped monotonic.
    fn vm_now(&mut self, client: ClientId, now: Time) -> Time {
        match &mut self.faults {
            None => now,
            Some(fs) => {
                let skew = fs.skew_us.get(client).copied().unwrap_or(0);
                let skewed = if skew >= 0 {
                    now + Dur::from_micros(skew as u64)
                } else {
                    Time::from_micros(now.as_micros().saturating_sub(skew.unsigned_abs()))
                };
                let clamped = skewed.max(fs.last_vm_now[client]);
                fs.last_vm_now[client] = clamped;
                clamped
            }
        }
    }

    /// Map a wake instant from client `client`'s (possibly skewed) VM
    /// timeline back onto the sim clock.
    fn unskew(&self, client: ClientId, t: Time) -> Time {
        match &self.faults {
            None => t,
            Some(fs) => {
                let skew = fs.skew_us.get(client).copied().unwrap_or(0);
                if skew >= 0 {
                    Time::from_micros(t.as_micros().saturating_sub(skew as u64))
                } else {
                    t + Dur::from_micros(skew.unsigned_abs())
                }
            }
        }
    }

    /// A completion arrives for `client`'s command `token`, issued in
    /// work unit `epoch`. Delivered only if that unit is still current
    /// and its VM still waits on the token; channel faults apply to
    /// what is deliverable. Out of line, with [`SimDriver::accept`]
    /// inlined into it, as before the timer.
    #[inline(never)]
    fn deliver<C: Clock>(
        &mut self,
        client: ClientId,
        epoch: u32,
        token: CmdToken,
        result: CmdResult,
        delayed: bool,
        now: Time,
    ) {
        let was = C::enter(Phase::Deliver);
        if self.accept(client, epoch, token, result, delayed, now) {
            self.tick_client::<C>(client, now);
        }
        C::enter(was);
    }

    /// [`SimDriver::deliver`] up to its tick: whether `client`'s VM
    /// took the result and is to be ticked.
    #[inline(always)]
    fn accept(
        &mut self,
        client: ClientId,
        epoch: u32,
        token: CmdToken,
        mut result: CmdResult,
        delayed: bool,
        now: Time,
    ) -> bool {
        let life = &self.lives[client];
        if epoch != life.epoch() || !life.running() {
            return false; // unit already retired, or client dead
        }
        let vm = &mut self.vms[client];
        let Some(fs) = &mut self.faults else {
            // No channel faults: one scan of the task table answers
            // whether the VM still waits, and delivers if it does.
            return vm.complete(token, result);
        };
        // Channel faults key on the program name, so ask for it first.
        let Some(program) = vm.in_flight(token) else {
            return false; // the try deadline beat the completion
        };
        // A latency spike holds the message once; on its delayed
        // arrival it is subject to loss as usual.
        let extra = fs.windows.extra_latency(program, now);
        if !delayed && !extra.is_zero() {
            let held = SimEv::CmdDone {
                client,
                epoch,
                token,
                result,
                delayed: true,
            };
            self.queue.schedule_for(now + extra, owner(client), held);
            return false;
        }
        if fs.lose(program, now) {
            result = CmdResult::fail();
        }
        vm.complete(token, result)
    }

    /// Step client `client`'s VM with the world as its executor, then
    /// retire a finished unit (starting the next one if it is due now)
    /// or arm the VM's next wake-up.
    fn tick_client<C: Clock>(&mut self, client: ClientId, now: Time) {
        let was = C::enter(Phase::Rest);
        let mut effects = std::mem::take(&mut self.effects_buf);
        loop {
            if !self.lives[client].running() {
                break;
            }
            let vm_now = self.vm_now(client, now);
            let vm = &mut self.vms[client];
            let mut exec = WorldExec {
                world: &mut self.world,
                ctx: Ctx {
                    queue: &mut self.queue,
                    lives: &self.lives,
                    released: &mut self.released,
                    tracer: &self.tracer,
                    answers: &mut self.answers,
                    windows: self.faults.as_ref().map_or(&NO_WINDOWS, |f| &f.windows),
                },
                client,
                clock: PhantomData::<C>,
            };
            let (status, ticks) = step(vm, vm_now, &mut effects, &mut exec);
            C::enter(Phase::Rest);
            debug_assert!(
                self.released.is_empty(),
                "exec and cancelled answer through ExecOutcome, not Ctx::complete"
            );
            self.vm_ticks += ticks;
            match status {
                VmStatus::Done { success } => {
                    self.log_totals += self.vms[client].log().summary();
                    let next = self.ask::<C, _>(|world, ctx| world.unit_done(ctx, client, success));
                    // The unit's epoch ends: what it left in the queue
                    // is stale on arrival.
                    let Some(unit) = self.lives[client].finish(next) else {
                        break; // client retired
                    };
                    if let Some(at) = self.lives[client].restart(&mut self.vms[client], unit, now) {
                        self.wake_at(client, at);
                        break; // its start is on the queue
                    }
                }
                VmStatus::Running { next_wake: Some(t) } => {
                    // A wake on every tick, armed or not: the ones an
                    // ended unit leaves behind are the stale wakes, and
                    // one due before the next unit's start starts it
                    // early (DESIGN §10, "Known limits"). ROADMAP item 2
                    // deletes this call for `Lifecycle::arm`, the live
                    // swarm's rule, and drops stale wakes on pop.
                    let t = self.unskew(client, t);
                    self.wake_at(client, t.max(now));
                    break;
                }
                VmStatus::Running { next_wake: None } => break,
            }
        }
        self.effects_buf = effects;
        C::enter(was);
    }
}

/// The world as one client's [`Executor`]: it decides each command's
/// fate and is told of each cancel. Under a timer `C`, a step's ticks
/// are [`Phase::Vm`] and the rest of it [`Phase::Exec`].
struct WorldExec<'a, W: CommandWorld, C> {
    world: &'a mut W,
    ctx: Ctx<'a, W::Ev>,
    client: ClientId,
    clock: PhantomData<C>,
}

impl<W: CommandWorld, C: Clock> Executor for WorldExec<'_, W, C> {
    #[inline(always)]
    fn tick(&mut self, vm: &mut Vm, now: Time, effects: &mut Vec<Effect>) -> VmStatus {
        C::enter(Phase::Vm);
        let status = vm.tick_into(now, effects);
        C::enter(Phase::Exec);
        status
    }

    fn start(&mut self, token: CmdToken, spec: &CommandSpec, answers: &mut Answers<'_>) {
        match self.world.exec(&mut self.ctx, self.client, token, spec) {
            ExecOutcome::Now(result) => answers.answer(token, result),
            ExecOutcome::At(at, result) => {
                self.ctx.schedule_completion(at, self.client, token, result);
            }
            ExecOutcome::Held => {}
        }
    }

    fn cancel(&mut self, token: CmdToken, _: &mut Answers<'_>) {
        self.world.cancelled(&mut self.ctx, self.client, token);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftsh::parse;
    use ftsh::Env;
    use retry::Dur;

    /// A toy world: `work` succeeds after 2 s; `flaky` fails the first
    /// `fail_first` times then behaves like `work`; units restart `gap`
    /// after finishing; clients retire after `max_units`.
    struct ToyWorld {
        fail_first: u32,
        failures_injected: u32,
        successes: u32,
        units: u32,
        max_units: u32,
        script: &'static str,
        cancel_count: u32,
        gap: Dur,
    }

    impl ToyWorld {
        fn vm(&self, seed: u64) -> Vm {
            Vm::with_seed(&parse(self.script).unwrap(), seed)
        }
    }

    impl CommandWorld for ToyWorld {
        type Ev = ();

        fn exec(
            &mut self,
            ctx: &mut Ctx<'_, ()>,
            _client: ClientId,
            _token: CmdToken,
            spec: &CommandSpec,
        ) -> ExecOutcome {
            match spec.program() {
                "work" => ExecOutcome::At(ctx.now() + Dur::from_secs(2), CmdResult::ok("")),
                "flaky" => {
                    if self.failures_injected < self.fail_first {
                        self.failures_injected += 1;
                        ExecOutcome::Now(CmdResult::fail())
                    } else {
                        ExecOutcome::At(ctx.now() + Dur::from_secs(2), CmdResult::ok(""))
                    }
                }
                "hang" => ExecOutcome::Held,
                _ => ExecOutcome::Now(CmdResult::fail()),
            }
        }

        fn cancelled(&mut self, _ctx: &mut Ctx<'_, ()>, _client: ClientId, _token: CmdToken) {
            self.cancel_count += 1;
        }

        fn on_event(&mut self, _ctx: &mut Ctx<'_, ()>, _ev: ()) {}

        fn unit_done(
            &mut self,
            ctx: &mut Ctx<'_, ()>,
            _client: ClientId,
            success: bool,
        ) -> Option<NextUnit> {
            self.units += 1;
            if success {
                self.successes += 1;
            }
            if self.units >= self.max_units {
                return None;
            }
            let seed = u64::from(self.units);
            Some((Env::new(), seed, ctx.now() + self.gap))
        }
    }

    #[test]
    fn repeated_units_accumulate() {
        let world = ToyWorld {
            fail_first: 0,
            failures_injected: 0,
            successes: 0,
            units: 0,
            max_units: 5,
            script: "work\n",
            cancel_count: 0,
            gap: Dur::from_secs(1),
        };
        let vm = world.vm(0);
        let mut d = SimDriver::new(world, vec![vm]);
        d.run_until(Time::from_secs(1000));
        assert_eq!(d.world.successes, 5);
        // 5 units x (2s work + 1s gap) minus the trailing gap.
        assert_eq!(d.now(), Time::from_secs(14));
    }

    #[test]
    fn retries_inside_try_use_backoff() {
        let world = ToyWorld {
            fail_first: 2,
            failures_injected: 0,
            successes: 0,
            units: 0,
            max_units: 1,
            script: "try for 1 hour\n flaky\nend\n",
            cancel_count: 0,
            gap: Dur::from_secs(1),
        };
        let vm = world.vm(7);
        let mut d = SimDriver::new(world, vec![vm]);
        d.run_until(Time::from_secs(1000));
        assert_eq!(d.world.successes, 1);
        // Two instant failures with backoff 1..2 then 2..4 s, then 2 s
        // of work: total in [5, 8] s.
        let t = d.now().as_secs_f64();
        assert!((5.0..=8.0).contains(&t), "elapsed {t}");
    }

    #[test]
    fn held_command_cancelled_by_deadline() {
        let world = ToyWorld {
            fail_first: 0,
            failures_injected: 0,
            successes: 0,
            units: 0,
            max_units: 1,
            script: "try for 10 seconds or 1 times\n hang\nend\n",
            cancel_count: 0,
            gap: Dur::from_secs(1),
        };
        let vm = world.vm(0);
        let mut d = SimDriver::new(world, vec![vm]);
        d.run_until(Time::from_secs(1000));
        assert_eq!(d.world.successes, 0);
        assert_eq!(d.world.cancel_count, 1, "world told about the cancel");
        assert_eq!(d.now(), Time::from_secs(10));
    }

    #[test]
    fn a_completion_after_its_deadline_ticks_nothing() {
        // `work` answers at 2 s, but the `try` gives up on it at 1 s and
        // the catch holds the unit open with `hang`: the answer arrives
        // while the unit runs and its VM waits on another token. It is
        // popped and dropped, with and without a (fault-free) plan
        // armed, whose path asks the VM for the program name first.
        for armed in [false, true] {
            let world = ToyWorld {
                fail_first: 0,
                failures_injected: 0,
                successes: 0,
                units: 0,
                max_units: 1,
                script: "try for 1 second\n work\ncatch\n hang\nend\n",
                cancel_count: 0,
                gap: Dur::from_secs(1),
            };
            let vm = world.vm(0);
            let mut d = SimDriver::new(world, vec![vm]);
            if armed {
                d.arm_faults(FaultPlan::default());
            }
            d.run_until(Time::from_micros(1_500_000));
            let before = d.counts();
            let summary = d.vms[0].log().summary();
            assert_eq!(d.world.cancel_count, 1, "armed {armed}: work cancelled");
            assert_eq!(d.vms[0].in_flight_tokens(), [1], "armed {armed}: hang held");
            d.run_until(Time::from_secs(3));
            let after = d.counts();
            assert_eq!(
                after.events_popped,
                before.events_popped + 1,
                "armed {armed}"
            );
            assert_eq!(after.vm_ticks, before.vm_ticks, "armed {armed}: no tick");
            assert_eq!(d.vms[0].log().summary(), summary, "armed {armed}");
            assert_eq!(d.vms[0].in_flight_tokens(), [1], "armed {armed}");
        }
    }

    #[test]
    fn the_phase_timer_charges_trace_writes_and_changes_nothing() {
        use crate::phases::{self, Phase, PhaseCycles};
        use simgrid::trace::VecSink;
        use std::sync::{Arc, Mutex};
        // The same traced run with the timer off and on: the same
        // counts and the same records, and with it on the sink's
        // writes are charged to `trace`.
        let run = |timed: bool| {
            let world = ToyWorld {
                fail_first: 2,
                failures_injected: 0,
                successes: 0,
                units: 0,
                max_units: 3,
                script: "try for 1 hour\n flaky\nend\n",
                cancel_count: 0,
                gap: Dur::from_secs(1),
            };
            let vm = world.vm(7);
            let mut d = SimDriver::new(world, vec![vm]);
            let sink = Arc::new(Mutex::new(VecSink::new()));
            let shared: SharedSink = sink.clone();
            let end = Time::from_secs(1000);
            let go = || d.run_traced(Some(shared), FaultPlan::default(), end, |_| {});
            let (counts, charged) = if timed {
                phases::timed(go)
            } else {
                (go(), PhaseCycles::default())
            };
            let records = sink.lock().unwrap().take();
            (counts, charged, records)
        };
        let (counts, _, records) = run(false);
        let (timed_counts, charged, timed_records) = run(true);
        assert_eq!(timed_counts, counts);
        assert_eq!(timed_records, records);
        assert!(!records.is_empty());
        for p in [
            Phase::Queue,
            Phase::Vm,
            Phase::Exec,
            Phase::Deliver,
            Phase::World,
        ] {
            assert!(charged.of(p) > 0, "{p:?}: {charged:?}");
        }
        assert!(charged.of(Phase::Trace) > 0, "{charged:?}");
    }

    #[test]
    fn cancelled_held_commands_leave_no_residue() {
        // 1 000 units, each holding one command until its 1 s `try`
        // deadline kills it (a unit every 2 s). A held command that
        // dies this way never completes, so nothing would ever clean up
        // a driver-side record of it; the only record of a command in
        // flight is its VM's, and that goes with the cancel.
        let world = ToyWorld {
            fail_first: 0,
            failures_injected: 0,
            successes: 0,
            units: 0,
            max_units: 1000,
            script: "try for 1 second or 1 times\n hang\nend\n",
            cancel_count: 0,
            gap: Dur::from_secs(1),
        };
        let vm = world.vm(0);
        let mut d = SimDriver::new(world, vec![vm]);
        // Inside the last unit: 999 kills behind, one command held.
        d.run_until(Time::from_secs(1998) + Dur::from_millis(500));
        assert_eq!(d.world.cancel_count, 999);
        assert!(d.lives[0].running(), "last unit running");
        assert_eq!(d.vms[0].in_flight_tokens(), [0]);
        d.run_until(Time::from_secs(100_000));
        assert_eq!((d.world.units, d.world.cancel_count), (1000, 1000));
        assert!(!d.lives[0].running(), "retired");
        assert!(d.vms.iter().all(|vm| vm.in_flight_tokens().is_empty()));
        assert!(d.queue.is_empty(), "nothing left to arrive");
    }

    #[test]
    fn command_answered_inline_is_not_cancelled_afterwards() {
        // Branch `a` starts a command the world answers on the spot;
        // branch `b` fails in the same tick, so the VM queues a cancel
        // for that command right behind its start. The world no longer
        // holds it and must not be asked to release it.
        let world = ToyWorld {
            fail_first: 0,
            failures_injected: 0,
            successes: 0,
            units: 0,
            max_units: 1,
            script: "forall x in a b\n if ${x} .eql. a\n  instant\n else\n  failure\n end\nend\n",
            cancel_count: 0,
            gap: Dur::from_secs(1),
        };
        let vm = world.vm(0);
        let mut d = SimDriver::new(world, vec![vm]);
        d.run_until(Time::from_secs(10));
        assert_eq!((d.world.units, d.world.successes), (1, 0));
        assert_eq!(d.world.cancel_count, 0);
        assert_eq!(
            d.counts().vm_ticks,
            2,
            "the inline answer earns one more tick"
        );
    }

    #[test]
    fn many_clients_interleave() {
        let world = ToyWorld {
            fail_first: 0,
            failures_injected: 0,
            successes: 0,
            units: 0,
            max_units: 30, // 10 clients x 3 units
            script: "work\n",
            cancel_count: 0,
            gap: Dur::from_secs(1),
        };
        let vms = (0..10).map(|i| world.vm(i)).collect();
        let mut d = SimDriver::new(world, vms);
        d.run_until(Time::from_secs(1000));
        // The budget is a shared counter checked on completion, so the
        // clients still in flight when it trips also land: between 30
        // and 39 units complete, then everyone retires.
        assert!(
            (30..40).contains(&d.world.units),
            "units = {}",
            d.world.units
        );
    }

    #[test]
    fn run_until_stops_at_horizon() {
        let world = ToyWorld {
            fail_first: 0,
            failures_injected: 0,
            successes: 0,
            units: 0,
            max_units: u32::MAX,
            script: "work\n",
            cancel_count: 0,
            gap: Dur::from_secs(1),
        };
        let vm = world.vm(0);
        let mut d = SimDriver::new(world, vec![vm]);
        d.run_until(Time::from_secs(30));
        assert!(d.now() <= Time::from_secs(30));
        let units_at_30 = d.world.units;
        assert!(units_at_30 >= 9, "about one unit per 3s: {units_at_30}");
        // Resume: more work happens.
        d.run_until(Time::from_secs(60));
        assert!(d.world.units > units_at_30);
    }

    #[test]
    fn run_traced_stores_nothing_past_its_end() {
        // A hanging command inside `try for 5 minutes` arms its deadline
        // wake at T+300 s; a 10 s run would never pop it.
        let world = ToyWorld {
            fail_first: 0,
            failures_injected: 0,
            successes: 0,
            units: 0,
            max_units: 1,
            script: "try for 5 minutes\n hang\nend\n",
            cancel_count: 0,
            gap: Dur::from_secs(1),
        };
        let vm = world.vm(0);
        let mut d = SimDriver::new(world, vec![vm]);
        let counts = d.run_traced(None, FaultPlan::new(0), Time::from_secs(10), |_| {});
        assert_eq!(counts.events_popped, 1, "the start wake only");
        assert!(counts.events_discarded > 0);
        assert!(d.queue.is_empty(), "the deadline wake was not stored");
    }

    #[test]
    fn run_traced_pops_an_event_exactly_at_its_end() {
        // `work` completes at exactly T+2 s, the end: it fires. The
        // next unit's start wake (T+3 s) is past the end.
        let world = ToyWorld {
            fail_first: 0,
            failures_injected: 0,
            successes: 0,
            units: 0,
            max_units: 5,
            script: "work\n",
            cancel_count: 0,
            gap: Dur::from_secs(1),
        };
        let vm = world.vm(0);
        let mut d = SimDriver::new(world, vec![vm]);
        d.run_traced(None, FaultPlan::new(0), Time::from_secs(2), |_| {});
        assert_eq!((d.world.successes, d.now()), (1, Time::from_secs(2)));
        assert_eq!(d.counts().events_discarded, 1);
        assert!(d.queue.is_empty());
    }

    #[test]
    fn a_deadline_wake_outliving_its_unit_starts_the_next_one_early() {
        // The first unit's `work` is done at 2 s, but its tick at T+0
        // armed the `try` deadline for 10 s. The next unit is due 20 s
        // later, at 22 s; the stale 10 s wake ticks it first. ROADMAP
        // item 2 drops stale wakes on pop, which flips this test.
        let world = ToyWorld {
            fail_first: 0,
            failures_injected: 0,
            successes: 0,
            units: 0,
            max_units: 2,
            script: "try for 10 seconds\n work\nend\n",
            cancel_count: 0,
            gap: Dur::from_secs(20),
        };
        let vm = world.vm(0);
        let mut d = SimDriver::new(world, vec![vm]);
        d.run_until(Time::from_secs(9));
        assert_eq!(
            (d.world.units, d.counts().vm_ticks, d.stale_wakes),
            (1, 2, 0)
        );
        assert!(d.vms[0].in_flight_tokens().is_empty(), "not started");
        d.run_until(Time::from_secs(10));
        assert_eq!((d.stale_wakes, d.early_units), (1, 1));
        assert_eq!(d.counts().vm_ticks, 3, "first ticked at 10 s, not at 22 s");
        assert_eq!(d.vms[0].in_flight_tokens(), [0], "its `work` is running");
    }

    #[test]
    fn tick_counter_is_per_driver() {
        // Two drivers on two threads, one doing three times the work:
        // each reports exactly its own ticks (one start tick plus one
        // completion tick per unit), whatever the other is doing.
        let ticks = |max_units: u32| {
            let world = ToyWorld {
                fail_first: 0,
                failures_injected: 0,
                successes: 0,
                units: 0,
                max_units,
                script: "work\n",
                cancel_count: 0,
                gap: Dur::from_secs(1),
            };
            let vm = world.vm(0);
            let mut d = SimDriver::new(world, vec![vm]);
            d.run_until(Time::from_secs(100_000));
            d.counts().vm_ticks
        };
        let (small, large) = std::thread::scope(|s| {
            let a = s.spawn(|| ticks(100));
            let b = s.spawn(|| ticks(300));
            (a.join().unwrap(), b.join().unwrap())
        });
        assert_eq!(small, 200);
        assert_eq!(large, 600);
    }
}

#[cfg(test)]
mod release_tests {
    use super::*;
    use ftsh::parse;

    /// `hold` is held until the world's event, which releases every
    /// held command, last held first; `mark` logs who ran it, and when.
    #[derive(Default)]
    struct ReleaseWorld {
        held: Vec<(ClientId, CmdToken)>,
        marks: Vec<(ClientId, Time)>,
    }

    impl CommandWorld for ReleaseWorld {
        type Ev = ();

        fn exec(
            &mut self,
            ctx: &mut Ctx<'_, ()>,
            client: ClientId,
            token: CmdToken,
            spec: &CommandSpec,
        ) -> ExecOutcome {
            match spec.program() {
                "hold" => {
                    self.held.push((client, token));
                    ExecOutcome::Held
                }
                "mark" => {
                    self.marks.push((client, ctx.now()));
                    ExecOutcome::Now(CmdResult::ok(""))
                }
                _ => ExecOutcome::Held,
            }
        }

        /// A cancelled command stays on `held`, so the event releases it
        /// anyway.
        fn cancelled(&mut self, _ctx: &mut Ctx<'_, ()>, _client: ClientId, _token: CmdToken) {}

        fn on_event(&mut self, ctx: &mut Ctx<'_, ()>, (): ()) {
            while let Some((client, token)) = self.held.pop() {
                ctx.complete(client, token, CmdResult::ok(""));
            }
        }

        fn unit_done(&mut self, _: &mut Ctx<'_, ()>, _: ClientId, _: bool) -> Option<NextUnit> {
            None
        }
    }

    #[test]
    fn releases_land_at_the_event_in_release_order_and_queue_nothing() {
        // Clients 0 and 1 hold until the world event at t = 5 s. Client
        // 2's hold is cancelled by its 2 s deadline, and the client
        // moves on to a command nobody answers.
        let hold = parse("hold\nmark\n").unwrap();
        let gives_up = parse("try for 2 seconds or 1 times\n hold\ncatch\n hang\nend\n").unwrap();
        let vms = vec![
            Vm::with_seed(&hold, 0),
            Vm::with_seed(&hold, 1),
            Vm::with_seed(&gives_up, 2),
        ];
        let mut d = SimDriver::new(ReleaseWorld::default(), vms);
        d.schedule_world(Time::from_secs(5), ());
        d.run_until(Time::from_secs(4));
        assert_eq!(d.world.held, [(0, 0), (1, 0), (2, 0)]);
        let (popped, ticks) = (d.counts().events_popped, d.counts().vm_ticks);
        d.run_until(Time::from_secs(100));
        // Released 2, 1, 0. Each live release is delivered at once, at
        // the event's instant: two ticks apiece (the release, then
        // `mark`'s inline answer). Client 2 no longer waits on its
        // token, so its release is dropped without a tick.
        let t5 = Time::from_secs(5);
        assert_eq!(d.world.marks, [(1, t5), (0, t5)]);
        assert_eq!(d.counts().vm_ticks, ticks + 4);
        assert_eq!(
            d.counts().events_popped,
            popped + 1,
            "the world event alone"
        );
        assert!(d.queue.is_empty());
    }
}

#[cfg(test)]
mod epoch_tests {
    use super::*;
    use ftsh::parse;
    use ftsh::Env;
    use retry::Dur;

    /// A world whose single command is Held forever; units time out via
    /// `try` and restart. Completions scheduled for dead units must be
    /// dropped, even though the new unit reuses token numbers.
    struct StaleWorld {
        delivered: u32,
        units: u32,
        /// `Some(lag)`: the command is instead scheduled with
        /// [`ExecOutcome::At`], `lag` ahead.
        at_lag: Option<Dur>,
    }

    impl CommandWorld for StaleWorld {
        type Ev = ();

        fn exec(
            &mut self,
            ctx: &mut Ctx<'_, ()>,
            client: ClientId,
            token: CmdToken,
            _spec: &CommandSpec,
        ) -> ExecOutcome {
            if let Some(lag) = self.at_lag {
                return ExecOutcome::At(ctx.now() + lag, CmdResult::ok("stale"));
            }
            // Schedule a completion far in the future — after the unit
            // will have died and been replaced.
            ctx.schedule_completion(
                ctx.now() + Dur::from_secs(100),
                client,
                token,
                CmdResult::ok("stale"),
            );
            ExecOutcome::Held
        }

        fn cancelled(&mut self, _ctx: &mut Ctx<'_, ()>, _c: ClientId, _t: CmdToken) {}

        fn on_event(&mut self, _ctx: &mut Ctx<'_, ()>, _ev: ()) {}

        fn unit_done(
            &mut self,
            ctx: &mut Ctx<'_, ()>,
            _client: ClientId,
            success: bool,
        ) -> Option<NextUnit> {
            self.units += 1;
            if success {
                self.delivered += 1;
            }
            if self.units >= 3 {
                return None;
            }
            Some((Env::new(), u64::from(self.units), ctx.now()))
        }
    }

    #[test]
    fn stale_completions_never_cross_unit_epochs() {
        // Held with a completion 100 s out: it fires after every unit
        // is gone. `At` 7 s out: the first unit's completion fires at
        // t = 7 s, while the second unit (5 s..10 s) waits on a command
        // of its own with the very same token number — only the epoch
        // tells them apart.
        for at_lag in [None, Some(Dur::from_secs(7))] {
            let script = parse("try for 5 seconds or 1 times\n hang\nend\n").unwrap();
            let vm = Vm::with_seed(&script, 0);
            let world = StaleWorld {
                delivered: 0,
                units: 0,
                at_lag,
            };
            let mut d = SimDriver::new(world, vec![vm]);
            // Run long enough for all stale completions (t+100s) to fire.
            d.run_until(Time::from_secs(1000));
            assert_eq!(d.world.units, 3, "three units each timed out");
            assert_eq!(
                d.world.delivered, 0,
                "no stale completion may succeed a later unit"
            );
        }
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use ftsh::parse;
    use ftsh::Env;
    use retry::Dur;
    use simgrid::faults::{FaultKind, FaultPlan, FaultSpec};
    use simgrid::trace::VecSink;
    use std::sync::{Arc, Mutex};

    /// `work` completes asynchronously after 2 s; units restart 1 s
    /// after finishing until `max_units` have run.
    struct WorkWorld {
        successes: u32,
        units: u32,
        max_units: u32,
        cancel_count: u32,
        /// Tokens the driver reported cancelled, in callback order.
        cancelled: Vec<CmdToken>,
        injected: Vec<String>,
        revive: bool,
        revivals: u32,
    }

    impl WorkWorld {
        fn new(max_units: u32) -> WorkWorld {
            WorkWorld {
                successes: 0,
                units: 0,
                max_units,
                cancel_count: 0,
                cancelled: Vec::new(),
                injected: Vec::new(),
                revive: false,
                revivals: 0,
            }
        }

        fn reviving(max_units: u32) -> WorkWorld {
            WorkWorld {
                revive: true,
                ..WorkWorld::new(max_units)
            }
        }

        fn vm(script: &str, seed: u64) -> Vm {
            Vm::with_seed(&parse(script).unwrap(), seed)
        }
    }

    impl CommandWorld for WorkWorld {
        type Ev = ();

        fn exec(
            &mut self,
            ctx: &mut Ctx<'_, ()>,
            _client: ClientId,
            _token: CmdToken,
            spec: &CommandSpec,
        ) -> ExecOutcome {
            match spec.program() {
                "work" => ExecOutcome::At(ctx.now() + Dur::from_secs(2), CmdResult::ok("")),
                "hang" => ExecOutcome::Held,
                _ => ExecOutcome::Now(CmdResult::fail()),
            }
        }

        fn cancelled(&mut self, _ctx: &mut Ctx<'_, ()>, _client: ClientId, token: CmdToken) {
            self.cancel_count += 1;
            self.cancelled.push(token);
        }

        fn on_event(&mut self, _ctx: &mut Ctx<'_, ()>, _ev: ()) {}

        fn inject_fault(&mut self, _ctx: &mut Ctx<'_, ()>, kind: &FaultKind) {
            self.injected.push(kind.tag().to_string());
        }

        fn restart_client(&mut self, ctx: &mut Ctx<'_, ()>, _client: ClientId) -> Option<NextUnit> {
            if !self.revive {
                return None;
            }
            self.revivals += 1;
            let seed = 1000 + u64::from(self.revivals);
            Some((Env::new(), seed, ctx.now()))
        }

        fn unit_done(
            &mut self,
            ctx: &mut Ctx<'_, ()>,
            _client: ClientId,
            success: bool,
        ) -> Option<NextUnit> {
            self.units += 1;
            if success {
                self.successes += 1;
            }
            if self.units >= self.max_units {
                return None;
            }
            let seed = u64::from(self.units);
            Some((Env::new(), seed, ctx.now() + Dur::from_secs(1)))
        }
    }

    #[test]
    fn msg_loss_fails_in_window_then_clears() {
        // Certain loss over [0, 3 s): the first `work` completion
        // (t = 2 s) is dropped on the wire and surfaces as a failure;
        // the second unit's completion (t = 5 s) is past the window.
        let mut d = SimDriver::new(WorkWorld::new(2), vec![WorkWorld::vm("work\n", 0)]);
        d.arm_faults(FaultPlan::new(1).with(FaultSpec::once(
            Time::ZERO,
            FaultKind::MsgLoss {
                channel: "work".into(),
                probability: 1.0,
                duration: Dur::from_secs(3),
            },
        )));
        d.run_until(Time::from_secs(100));
        assert_eq!(d.world.units, 2);
        assert_eq!(d.world.successes, 1, "lost in window, delivered after");
    }

    #[test]
    fn latency_spike_delays_completion_once() {
        // +5 s on the `work` channel: the t = 2 s completion lands at
        // t = 7 s instead. The message is delayed exactly once, not
        // re-delayed on its deferred arrival.
        let mut d = SimDriver::new(WorkWorld::new(1), vec![WorkWorld::vm("work\n", 0)]);
        d.arm_faults(FaultPlan::new(1).with(FaultSpec::once(
            Time::ZERO,
            FaultKind::LatencySpike {
                channel: "work".into(),
                extra: Dur::from_secs(5),
                duration: Dur::from_secs(60),
            },
        )));
        d.run_until(Time::from_secs(100));
        assert_eq!(d.world.successes, 1, "delayed is not lost");
        assert_eq!(d.now(), Time::from_secs(7));
    }

    #[test]
    fn spiked_then_cancelled_completion_is_dropped_without_a_tick() {
        // +5 s on `work`: its t = 2 s completion is held to t = 7 s.
        // The 4 s deadline cancels the command first; the script
        // catches that and moves on to `hang` (token 1, held until its
        // own deadline at t = 14 s). When the held message arrives the
        // unit is still current, but its VM no longer waits on token 0,
        // so the message is dropped: the world hears of each cancel
        // exactly once and the VM is ticked three times (start,
        // t = 4 s, t = 14 s), not four.
        let script = "try for 4 seconds or 1 times\n work\ncatch\n success\nend\n\
                      try for 10 seconds or 1 times\n hang\nend\n";
        let mut d = SimDriver::new(WorkWorld::new(1), vec![WorkWorld::vm(script, 0)]);
        d.arm_faults(FaultPlan::new(1).with(FaultSpec::once(
            Time::ZERO,
            FaultKind::LatencySpike {
                channel: "work".into(),
                extra: Dur::from_secs(5),
                duration: Dur::from_secs(60),
            },
        )));
        d.run_until(Time::from_secs(10));
        assert_eq!(d.now(), Time::from_secs(7), "the held message did arrive");
        assert_eq!(
            (d.world.cancelled.as_slice(), d.counts().vm_ticks),
            (&[0][..], 2)
        );
        d.run_until(Time::from_secs(100));
        assert_eq!(d.world.cancelled, [0, 1]);
        assert_eq!(d.counts().vm_ticks, 3);
        assert_eq!((d.world.units, d.world.successes), (1, 0));
    }

    #[test]
    fn client_kill_cancels_in_flight_commands_in_token_order() {
        // Four `forall` branches start tokens 0..=3; `work` (token 0)
        // completes at t = 2 s, which reshuffles the VM's in-flight
        // table. The kill at t = 3 s finds three commands in flight
        // and must release them lowest token first, whatever order the
        // VM keeps them in.
        let script = "forall x in work hang hang hang\n ${x}\nend\n";
        let mut d = SimDriver::new(WorkWorld::new(1), vec![WorkWorld::vm(script, 0)]);
        d.arm_faults(FaultPlan::new(1).with(FaultSpec::once(
            Time::from_secs(3),
            FaultKind::ClientKill {
                client: 0,
                restart: None,
            },
        )));
        d.run_until(Time::from_secs(100));
        assert_eq!(d.world.cancelled, [1, 2, 3]);
        assert_eq!(d.world.units, 0, "killed mid-unit");
    }

    #[test]
    fn clock_skew_stretches_vm_deadlines() {
        // A VM running 5 s behind the sim clock reaches its 10 s `try`
        // deadline 5 s of sim time late: the hang is cancelled at
        // t = 15 s, not t = 10 s.
        let script = "try for 10 seconds or 1 times\n hang\nend\n";
        let mut d = SimDriver::new(WorkWorld::new(1), vec![WorkWorld::vm(script, 0)]);
        d.arm_faults(FaultPlan::new(1).with(FaultSpec::once(
            Time::from_secs(1),
            FaultKind::ClockSkew {
                client: 0,
                skew_us: -5_000_000,
            },
        )));
        d.run_until(Time::from_secs(100));
        assert_eq!(d.world.cancel_count, 1);
        assert_eq!(d.now(), Time::from_secs(15));
    }

    #[test]
    fn unhandled_kinds_are_forwarded_to_the_world() {
        let mut d = SimDriver::new(WorkWorld::new(4), vec![WorkWorld::vm("work\n", 0)]);
        d.arm_faults(
            FaultPlan::new(1)
                .with(FaultSpec::repeating(
                    Time::from_secs(1),
                    Dur::from_secs(2),
                    3,
                    FaultKind::ScheddKill { downtime: None },
                ))
                .with(FaultSpec::once(
                    Time::from_secs(4),
                    FaultKind::ScheddRestart,
                )),
        );
        d.run_until(Time::from_secs(100));
        assert_eq!(
            d.world.injected,
            vec![
                "schedd-kill",
                "schedd-kill",
                "schedd-restart",
                "schedd-kill"
            ],
            "repeats fire every 2 s from t = 1 s, interleaved with the restart"
        );
    }

    #[test]
    fn client_kill_without_restart_leaves_client_dead() {
        // Kill at t = 1 s, mid-flight in the first 2 s `work`: the
        // in-flight command is cancelled (so the world releases it),
        // no unit ever completes, and the default `restart_client`
        // leaves the client dead.
        let mut d = SimDriver::new(WorkWorld::new(5), vec![WorkWorld::vm("work\n", 0)]);
        d.arm_faults(FaultPlan::new(1).with(FaultSpec::once(
            Time::from_secs(1),
            FaultKind::ClientKill {
                client: 0,
                restart: None,
            },
        )));
        d.run_until(Time::from_secs(100));
        assert_eq!(d.world.units, 0, "killed mid-unit, nothing completes");
        assert_eq!(d.world.cancel_count, 1, "in-flight work released");
        assert_eq!(d.world.injected, vec!["client-kill"], "world observes it");
        assert_eq!(d.world.revivals, 0);
    }

    #[test]
    fn client_kill_with_restart_resumes_units() {
        // Kill at t = 1 s, restart after 2 s: the revived client starts
        // over at t = 3 s, so two units land at t = 5 s and t = 8 s
        // (2 s work + 1 s gap). The completion of the killed unit
        // (scheduled for t = 2 s, old epoch) must not leak in.
        let mut d = SimDriver::new(WorkWorld::reviving(2), vec![WorkWorld::vm("work\n", 0)]);
        d.arm_faults(FaultPlan::new(1).with(FaultSpec::once(
            Time::from_secs(1),
            FaultKind::ClientKill {
                client: 0,
                restart: Some(Dur::from_secs(2)),
            },
        )));
        d.run_until(Time::from_secs(100));
        assert_eq!(d.world.revivals, 1);
        assert_eq!(d.world.successes, 2, "the revived client finishes the work");
        assert_eq!(d.now(), Time::from_secs(8));
        // The killed unit's one started command is counted once, at the
        // kill; each of the two later units adds its own start and
        // success. Summed again at the revival (a VM that kept its
        // counters), the start would count twice.
        let totals = d.log_totals;
        assert_eq!(totals.commands_started, 3);
        assert_eq!(totals.commands_succeeded, 2);
        assert_eq!(totals.commands_cancelled, 0, "a kill is not a cancel");
    }

    #[test]
    fn client_kill_after_retirement_is_a_noop() {
        // The single unit finishes at t = 2 s and the client retires;
        // a kill at t = 10 s finds no VM and must change nothing.
        let mut d = SimDriver::new(WorkWorld::new(1), vec![WorkWorld::vm("work\n", 0)]);
        d.arm_faults(FaultPlan::new(1).with(FaultSpec::once(
            Time::from_secs(10),
            FaultKind::ClientKill {
                client: 0,
                restart: Some(Dur::from_secs(1)),
            },
        )));
        d.run_until(Time::from_secs(100));
        assert_eq!(d.world.successes, 1);
        assert_eq!(d.world.cancel_count, 0);
        assert!(
            d.world.injected.is_empty(),
            "a miss never reaches the world"
        );
    }

    #[test]
    fn a_kill_of_a_dead_client_reaches_neither_world_nor_revival() {
        // Killed at t = 1 s until t = 5 s; a second kill at t = 3 s
        // finds it down. The world hears of the first kill only, and
        // the client is revived once.
        let kill = |at| {
            let restart = Some(Dur::from_secs(4));
            FaultSpec::once(
                Time::from_secs(at),
                FaultKind::ClientKill { client: 0, restart },
            )
        };
        let mut d = SimDriver::new(WorkWorld::reviving(1), vec![WorkWorld::vm("work\n", 0)]);
        d.arm_faults(FaultPlan::new(1).with(kill(1)).with(kill(3)));
        d.run_until(Time::from_secs(100));
        assert_eq!(d.world.injected, ["client-kill"]);
        assert_eq!((d.world.revivals, d.world.successes), (1, 1));
        assert_eq!(d.now(), Time::from_secs(7), "revived at 5 s, 2 s of work");
    }

    #[test]
    fn every_injection_lands_in_the_trace() {
        let buf = Arc::new(Mutex::new(VecSink::new()));
        let sink: SharedSink = buf.clone();
        let mut d = SimDriver::new(WorkWorld::new(2), vec![WorkWorld::vm("work\n", 0)]);
        d.set_trace(sink);
        d.arm_faults(
            FaultPlan::new(1)
                .with(FaultSpec::repeating(
                    Time::ZERO,
                    Dur::from_secs(1),
                    2,
                    FaultKind::ScheddKill { downtime: None },
                ))
                .with(FaultSpec::once(
                    Time::from_secs(2),
                    FaultKind::MsgLoss {
                        channel: "work".into(),
                        probability: 0.5,
                        duration: Dur::from_secs(1),
                    },
                )),
        );
        d.run_until(Time::from_secs(100));
        let records = buf.lock().unwrap().take();
        let faults: Vec<_> = records
            .iter()
            .filter_map(|r| match &r.ev {
                TraceEv::FaultInjected { kind, detail } => {
                    Some((r.t, kind.clone(), detail.clone()))
                }
                _ => None,
            })
            .collect();
        assert_eq!(faults.len(), 3, "two kills + one loss window");
        assert_eq!(faults[0].1, "schedd-kill");
        assert_eq!(faults[2].0, Time::from_secs(2));
        assert_eq!(faults[2].1, "msg-loss");
        assert!(faults[2].2.contains("channel=work"), "{}", faults[2].2);
    }
}

#[cfg(test)]
mod lookahead_tests {
    use super::*;
    use ftsh::parse;
    use ftsh::Env;
    use simgrid::faults::FaultSpec;

    /// `hold` waits for the world's event, which completes every held
    /// command through the queue at the event's instant; `work` takes
    /// 2 s; `mark` logs who ran it, and when. Killed clients come back.
    #[derive(Default)]
    struct AheadWorld {
        held: Vec<(ClientId, CmdToken)>,
        marks: Vec<(ClientId, Time)>,
        cancelled: u32,
        injected: Vec<String>,
        units: u32,
    }

    impl CommandWorld for AheadWorld {
        type Ev = ();

        fn exec(
            &mut self,
            ctx: &mut Ctx<'_, ()>,
            client: ClientId,
            token: CmdToken,
            spec: &CommandSpec,
        ) -> ExecOutcome {
            match spec.program() {
                "hold" => {
                    self.held.push((client, token));
                    ExecOutcome::Held
                }
                "work" => ExecOutcome::At(ctx.now() + Dur::from_secs(2), CmdResult::ok("")),
                "mark" => {
                    self.marks.push((client, ctx.now()));
                    ExecOutcome::Now(CmdResult::ok(""))
                }
                _ => ExecOutcome::Now(CmdResult::fail()),
            }
        }

        fn cancelled(&mut self, _ctx: &mut Ctx<'_, ()>, _client: ClientId, _token: CmdToken) {
            self.cancelled += 1;
        }

        fn on_event(&mut self, ctx: &mut Ctx<'_, ()>, (): ()) {
            let now = ctx.now();
            for (client, token) in self.held.drain(..) {
                ctx.schedule_completion(now, client, token, CmdResult::ok(""));
            }
        }

        fn inject_fault(&mut self, _ctx: &mut Ctx<'_, ()>, kind: &FaultKind) {
            self.injected.push(kind.tag().to_string());
        }

        fn restart_client(&mut self, ctx: &mut Ctx<'_, ()>, _client: ClientId) -> Option<NextUnit> {
            Some((Env::new(), 7, ctx.now()))
        }

        fn unit_done(&mut self, _: &mut Ctx<'_, ()>, _: ClientId, _: bool) -> Option<NextUnit> {
            self.units += 1;
            None
        }
    }

    /// Clients 0 and 1 hold from T+0 until the world event at 3 s;
    /// client 2 starts `work` at 5 s, is killed at 6 s and revived at
    /// 8 s, so its first completion (7 s) arrives stale.
    fn driver() -> SimDriver<AheadWorld> {
        driver_with(None)
    }

    /// [`driver`], with `more` armed after the kill (as fault 1).
    fn driver_with(more: Option<FaultSpec>) -> SimDriver<AheadWorld> {
        let hold = parse("hold\nmark\n").unwrap();
        let work = parse("work\nmark\n").unwrap();
        let vms = vec![
            Vm::with_seed(&hold, 0),
            Vm::with_seed(&hold, 1),
            Vm::with_seed(&work, 2),
        ];
        let starts = vec![Time::ZERO, Time::ZERO, Time::from_secs(5)];
        let mut d = SimDriver::with_starts(AheadWorld::default(), vms, starts);
        d.schedule_world(Time::from_secs(3), ());
        let kill = FaultPlan::new(1).with(FaultSpec::once(
            Time::from_secs(6),
            FaultKind::ClientKill {
                client: 2,
                restart: Some(Dur::from_secs(2)),
            },
        ));
        d.arm_faults(more.into_iter().fold(kill, FaultPlan::with));
        d
    }

    /// The next event, as its instant and what it is for.
    type Head = Option<(f64, String)>;

    fn head(secs: f64, kind: &str) -> (f64, String) {
        (secs, kind.to_string())
    }

    /// Run `d` one instant at a time and note the head each instant
    /// leaves. After each, the queue's lookahead must name the client
    /// of the event `peek` shows — none for a world event, a fault or
    /// a revival — so a schedule that forgot its client fails here.
    fn step_by_instant(d: &mut SimDriver<AheadWorld>) -> Vec<Head> {
        let mut heads = Vec::new();
        while let Some(t) = d.queue.peek_time() {
            d.run_until(t);
            let next = d.queue.peek().map(|(at, ev)| {
                let (client, kind) = match ev {
                    SimEv::Wake { client, .. } => (Some(*client), format!("wake {client}")),
                    SimEv::CmdDone { client, .. } => (Some(*client), format!("done {client}")),
                    SimEv::World(()) => (None, "world".to_string()),
                    SimEv::Fault(i) => (None, format!("fault {i}")),
                    SimEv::Revive(c) => (None, format!("revive {c}")),
                };
                (client, (at.as_secs_f64(), kind))
            });
            let owner = d.queue.lookahead().map(|c| c as ClientId);
            let client = next.as_ref().and_then(|&(c, _)| c);
            assert_eq!(owner, client, "the head after {t:?}");
            heads.push(next.map(|(_, head)| head));
        }
        heads
    }

    /// What the run did: ticks, events popped, and the world's record.
    type Outcome = (u64, u64, Vec<(ClientId, Time)>, u32, Vec<String>, u32);

    fn outcome(d: &SimDriver<AheadWorld>) -> Outcome {
        let w = &d.world;
        let (marks, injected) = (w.marks.clone(), w.injected.clone());
        let (ticks, popped) = (d.counts().vm_ticks, d.counts().events_popped);
        (ticks, popped, marks, w.cancelled, injected, w.units)
    }

    #[test]
    fn the_lookahead_hint_changes_nothing() {
        // Stepped one instant at a time, the head left after each
        // instant's last pop is, in turn, a world event, a wake, a
        // fault, a completion, a revival, a completion, and nothing.
        // Mid-instant, popping the world event at 3 s leaves client
        // 2's wake at the head; handling it schedules client 0's and
        // 1's completions at 3 s, ahead of that wake, so the client
        // the driver prefetched is not the one it ticks next. Each
        // head's key names its client, or none.
        let mut stepped = driver();
        let heads = step_by_instant(&mut stepped);
        assert_eq!(
            heads,
            [
                Some(head(3.0, "world")),
                Some(head(5.0, "wake 2")),
                Some(head(6.0, "fault 0")),
                Some(head(7.0, "done 2")),
                Some(head(8.0, "revive 2")),
                Some(head(10.0, "done 2")),
                None,
            ]
        );
        let mut whole = driver();
        whole.run_until(Time::from_secs(100));
        assert_eq!(outcome(&whole), outcome(&stepped));
        // Ten pops and ten ticks, as the driver gave before it looked
        // ahead.
        let (t3, t10) = (Time::from_secs(3), Time::from_secs(10));
        let marks = vec![(0, t3), (1, t3), (2, t10)];
        let injected = vec!["client-kill".to_string()];
        assert_eq!(outcome(&whole), (10, 10, marks, 1, injected, 3));
    }

    #[test]
    fn held_completions_and_armed_wakes_are_looked_ahead_to_as_their_clients() {
        // A latency spike on `work` from 9 s holds client 2's second
        // completion, due at 10 s, until 11 s: the held message is
        // scheduled again, for client 2.
        let spike = FaultSpec::once(
            Time::from_secs(9),
            FaultKind::LatencySpike {
                channel: "work".into(),
                extra: Dur::from_secs(1),
                duration: Dur::from_secs(5),
            },
        );
        let mut d = driver_with(Some(spike));
        let heads = step_by_instant(&mut d);
        assert_eq!(
            heads[4..],
            [
                Some(head(8.0, "revive 2")),
                Some(head(9.0, "fault 1")),
                Some(head(10.0, "done 2")),
                Some(head(11.0, "done 2")),
                None,
            ]
        );
        assert_eq!(d.world.marks.last(), Some(&(2, Time::from_secs(11))));
        // The wake a tick arms: a `try` deadline 5 s after the start.
        let script = parse("try for 5 seconds\n hold\nend\n").unwrap();
        let mut d = SimDriver::new(AheadWorld::default(), vec![Vm::with_seed(&script, 0)]);
        assert_eq!(step_by_instant(&mut d), [Some(head(5.0, "wake 0")), None]);
    }
}
