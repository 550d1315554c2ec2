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
//! [restarts](Vm::restart) the VM in place.
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

use ftsh::vm::{step, Answers, CmdResult, CmdToken, CommandSpec, Effect, Executor, Vm, VmStatus};
use ftsh::Env;
use retry::{Dur, Time};
use simgrid::faults::{FaultKind, FaultPlan, FaultWindows};
use simgrid::trace::{emit, SharedSink, TraceEv, NO_ID};
use simgrid::{EventQueue, SimRng};

/// A client index within a scenario.
pub type ClientId = usize;

/// Events the driver understands; `W` is the scenario's own event type.
#[derive(Debug)]
pub enum SimEv<W> {
    /// Tick a client's VM (backoff wake-up or `try` deadline).
    Wake(ClientId),
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

/// A client's next work unit: the environment its script starts from,
/// its VM's RNG seed, and when it starts — an instant on the
/// simulator's clock, a delay on the live swarm's.
pub type NextUnit<At = Time> = (Env, u64, At);

/// Access to the event queue (and clock) for world callbacks.
pub struct Ctx<'a, W> {
    queue: &'a mut EventQueue<SimEv<W>>,
    epochs: &'a [u32],
    released: &'a mut Vec<Release>,
}

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
        self.queue.schedule(
            at,
            SimEv::CmdDone {
                client,
                epoch: self.epochs[client],
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
    /// from its plan's [`FaultPlan::windows`] table.
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
    /// The plan's windows; the driver reads the per-channel loss and
    /// latency ones (a channel is a program name).
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
        // No forced downtime is read here, so no default is needed.
        let windows = plan.windows(Dur::ZERO);
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
    /// Whether each client is running a unit: false once it is killed
    /// (until revived) or retired.
    running: Vec<bool>,
    /// Work units each client has retired (or lost to a kill); stamped
    /// on scheduled completions.
    epochs: Vec<u32>,
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
    vm_ticks: u64,
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
    pub fn with_starts(world: W, mut vms: Vec<Vm>, starts: Vec<Time>) -> SimDriver<W> {
        assert_eq!(vms.len(), starts.len(), "one start time per client");
        let mut queue = EventQueue::new();
        for (c, &at) in starts.iter().enumerate() {
            queue.schedule(at, SimEv::Wake(c));
        }
        for vm in &mut vms {
            // The driver only ever reads the O(1) log summary;
            // retaining full event vectors across a large population
            // is pure allocation churn.
            vm.set_log_detail(false);
        }
        let n = vms.len();
        SimDriver {
            world,
            log_totals: ftsh::LogSummary::default(),
            queue,
            vms,
            running: vec![true; n],
            epochs: vec![0; n],
            tracer: None,
            faults: None,
            effects_buf: Vec::new(),
            released: Vec::new(),
            vm_ticks: 0,
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
    /// every unit, labelled by client index.
    pub fn set_trace(&mut self, sink: SharedSink) {
        for (c, vm) in self.vms.iter_mut().enumerate() {
            vm.set_tracer(sink.clone(), c as i64);
        }
        self.tracer = Some(sink);
    }

    /// Events popped from this run's own queue — the per-run
    /// engine-work metric. Per-queue, so concurrent sweep workers do
    /// not contaminate each other's counts.
    pub fn events_popped(&self) -> u64 {
        self.queue.popped()
    }

    /// VM ticks this driver has issued. Per-driver like
    /// [`events_popped`](Self::events_popped): the perf harness divides
    /// allocations by it, and concurrent runs must not see each
    /// other's ticks.
    pub fn vm_ticks(&self) -> u64 {
        self.vm_ticks
    }

    /// Past-schedules clamped to `now` by this run's queue. Nonzero
    /// means some event asked for an instant already in the past and
    /// was silently moved forward — worth surfacing in run stats.
    pub fn clamps(&self) -> u64 {
        self.queue.clamped()
    }

    /// Events [`run_traced`](Self::run_traced) did not store because
    /// they fell after its end — mostly `try` deadlines past the
    /// window. They were never going to be popped.
    pub fn discarded(&self) -> u64 {
        self.queue.discarded()
    }

    /// The current virtual instant.
    pub fn now(&self) -> Time {
        self.queue.now()
    }

    /// Run one world callback with a [`Ctx`] over the queue, then
    /// deliver, in release order, the held commands it completed.
    fn ask<R>(&mut self, f: impl FnOnce(&mut W, &mut Ctx<'_, W::Ev>) -> R) -> R {
        // Taken, not borrowed: a delivery ticks a VM, and a tick may
        // run further callbacks.
        let mut released = std::mem::take(&mut self.released);
        let r = f(
            &mut self.world,
            &mut Ctx {
                queue: &mut self.queue,
                epochs: &self.epochs,
                released: &mut released,
            },
        );
        let now = self.queue.now();
        for (client, token, result) in released.drain(..) {
            let epoch = self.epochs[client];
            self.deliver(client, epoch, token, result, false, now);
        }
        self.released = released;
        r
    }

    /// Run until the queue drains or virtual time would pass `end`.
    /// Events strictly after `end` remain unpopped, so the final clock
    /// never exceeds `end`. Resumable: it sets no end on the queue, so
    /// those events are still stored and a later call pops them.
    pub fn run_until(&mut self, end: Time) {
        while let Some(t) = self.queue.peek_time() {
            if t > end {
                break;
            }
            let (now, ev) = self.queue.pop().expect("peeked");
            match ev {
                SimEv::Wake(c) => self.tick_client(c, now),
                SimEv::CmdDone {
                    client,
                    epoch,
                    token,
                    result,
                    delayed,
                } => self.deliver(client, epoch, token, result, delayed, now),
                SimEv::World(w) => self.ask(|world, ctx| world.on_event(ctx, w)),
                SimEv::Fault(i) => self.trigger_fault(i, now),
                SimEv::Revive(c) => self.revive_client(c, now),
            }
        }
    }

    /// What every scenario's `run_*_traced` does with the driver it
    /// built: install the sink, arm `plan` if it injects anything, let
    /// `first_events` schedule the world's opening events (after the
    /// plan's, so an injection at the same instant fires first), run
    /// until `end`, and return `(events popped, VM ticks, queue
    /// clamps, events discarded)`. A nonzero clamp count also goes on
    /// the trace.
    ///
    /// One-shot: before anything is armed it gives the queue `end`, so
    /// every wake, completion, world event, fault re-trigger and
    /// revival scheduled after it is counted (see
    /// [`discarded`](Self::discarded)) rather than stored. Such an
    /// event would never be popped, so nothing observable changes.
    pub fn run_traced(
        &mut self,
        trace: Option<SharedSink>,
        plan: FaultPlan,
        end: Time,
        first_events: impl FnOnce(&mut Self),
    ) -> (u64, u64, u64, u64) {
        self.queue.set_end(end);
        if let Some(sink) = trace {
            self.set_trace(sink);
        }
        if plan.injections().next().is_some() {
            self.arm_faults(plan);
        }
        first_events(self);
        self.run_until(end);
        let clamps = self.clamps();
        if clamps > 0 {
            let ev = TraceEv::QueueClamps { count: clamps };
            emit(&self.tracer, self.now(), NO_ID, NO_ID, ev);
        }
        (
            self.events_popped(),
            self.vm_ticks(),
            clamps,
            self.discarded(),
        )
    }

    /// Fire spec `i` of the armed plan at `now`: emit the trace
    /// record, apply (or forward) the fault, and reschedule the next
    /// trigger of a repeating spec.
    fn trigger_fault(&mut self, i: usize, now: Time) {
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
                let killed = self.kill_client(c);
                // Let the world observe the kill (round accounting,
                // resource bookkeeping) after the VM is gone.
                self.ask(|world, ctx| world.inject_fault(ctx, &spec.kind));
                // Only a kill that found a live VM earns a revival: a
                // client that already retired (or was killed twice)
                // must not be resurrected by a stale restart delay.
                if let (true, Some(delay)) = (killed, restart) {
                    self.queue.schedule(now + delay, SimEv::Revive(c));
                }
            }
            kind => self.ask(|world, ctx| world.inject_fault(ctx, kind)),
        }
    }

    /// Tear down client `client` right now: its unit stops mid-run,
    /// every command it had in flight is cancelled in token order (so
    /// the world releases held resources), and the epoch bump swallows
    /// any completion already in the queue. The client stays dead until
    /// a [`SimEv::Revive`] asks the world for its next unit. Returns
    /// whether a running client was actually torn down.
    fn kill_client(&mut self, client: ClientId) -> bool {
        if !self.running.get(client).copied().unwrap_or(false) {
            return false; // outside the population, dead or retired
        }
        self.running[client] = false;
        let vm = &self.vms[client];
        self.log_totals += vm.log().summary();
        for token in vm.in_flight_tokens() {
            self.ask(|world, ctx| world.cancelled(ctx, client, token));
        }
        self.epochs[client] += 1;
        true
    }

    /// A killed client's restart delay elapsed: ask the world for its
    /// next unit and start it. A world that returns `None` (the
    /// default) leaves the client dead.
    fn revive_client(&mut self, client: ClientId, now: Time) {
        if self.running.get(client).copied().unwrap_or(true) {
            return; // still alive, or out of range
        }
        if let Some(unit) = self.ask(|world, ctx| world.restart_client(ctx, client)) {
            if self.restart(client, unit, now) {
                self.tick_client(client, now);
            }
        }
    }

    /// Start `unit` on `client`'s VM. Returns whether it starts right
    /// now; otherwise its first wake-up is on the queue.
    fn restart(&mut self, client: ClientId, (env, seed, at): NextUnit, now: Time) -> bool {
        self.vms[client].restart(env, seed);
        self.running[client] = true;
        if at > now {
            self.queue.schedule(at, SimEv::Wake(client));
        }
        at <= now
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
    /// what is deliverable.
    fn deliver(
        &mut self,
        client: ClientId,
        epoch: u32,
        token: CmdToken,
        mut result: CmdResult,
        delayed: bool,
        now: Time,
    ) {
        if epoch != self.epochs[client] || !self.running[client] {
            return; // unit already retired, or client dead
        }
        let vm = &mut self.vms[client];
        let Some(program) = vm.in_flight(token) else {
            return; // the try deadline beat the completion
        };
        if let Some(fs) = &mut self.faults {
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
                self.queue.schedule(now + extra, held);
                return;
            }
            if fs.lose(program, now) {
                result = CmdResult::fail();
            }
        }
        vm.complete(token, result);
        self.tick_client(client, now);
    }

    /// Step client `client`'s VM with the world as its executor, then
    /// retire a finished unit (starting the next one if it is due now)
    /// or arm the VM's next wake-up.
    fn tick_client(&mut self, client: ClientId, now: Time) {
        let mut effects = std::mem::take(&mut self.effects_buf);
        loop {
            if !self.running[client] {
                break;
            }
            let vm_now = self.vm_now(client, now);
            let vm = &mut self.vms[client];
            let mut exec = WorldExec {
                world: &mut self.world,
                ctx: Ctx {
                    queue: &mut self.queue,
                    epochs: &self.epochs,
                    released: &mut self.released,
                },
                client,
            };
            let (status, ticks) = step(vm, vm_now, &mut effects, &mut exec);
            debug_assert!(
                self.released.is_empty(),
                "exec and cancelled answer through ExecOutcome, not Ctx::complete"
            );
            self.vm_ticks += ticks;
            match status {
                VmStatus::Done { success } => {
                    // Retire the unit; its epoch's stale completions
                    // will be dropped on arrival.
                    self.epochs[client] += 1;
                    self.log_totals += self.vms[client].log().summary();
                    let Some(unit) = self.ask(|world, ctx| world.unit_done(ctx, client, success))
                    else {
                        self.running[client] = false;
                        break; // client retired
                    };
                    if !self.restart(client, unit, now) {
                        break; // its start is on the queue
                    }
                }
                VmStatus::Running { next_wake: Some(t) } => {
                    let t = self.unskew(client, t);
                    self.queue.schedule(t.max(now), SimEv::Wake(client));
                    break;
                }
                VmStatus::Running { next_wake: None } => break,
            }
        }
        self.effects_buf = effects;
    }
}

/// The world as one client's [`Executor`]: it decides each command's
/// fate and is told of each cancel.
struct WorldExec<'a, W: CommandWorld> {
    world: &'a mut W,
    ctx: Ctx<'a, W::Ev>,
    client: ClientId,
}

impl<W: CommandWorld> Executor for WorldExec<'_, W> {
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
    use retry::Dur;

    /// A toy world: `work` succeeds after 2 s; `flaky` fails the first
    /// `fail_first` times then behaves like `work`; units restart 1 s
    /// after finishing; clients retire after `max_units`.
    struct ToyWorld {
        fail_first: u32,
        failures_injected: u32,
        successes: u32,
        units: u32,
        max_units: u32,
        script: &'static str,
        cancel_count: u32,
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
            Some((Env::new(), seed, ctx.now() + Dur::from_secs(1)))
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
        };
        let vm = world.vm(0);
        let mut d = SimDriver::new(world, vec![vm]);
        d.run_until(Time::from_secs(1000));
        assert_eq!(d.world.successes, 0);
        assert_eq!(d.world.cancel_count, 1, "world told about the cancel");
        assert_eq!(d.now(), Time::from_secs(10));
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
        };
        let vm = world.vm(0);
        let mut d = SimDriver::new(world, vec![vm]);
        // Inside the last unit: 999 kills behind, one command held.
        d.run_until(Time::from_secs(1998) + Dur::from_millis(500));
        assert_eq!(d.world.cancel_count, 999);
        assert!(d.running[0], "last unit running");
        assert_eq!(d.vms[0].in_flight_tokens(), [0]);
        d.run_until(Time::from_secs(100_000));
        assert_eq!((d.world.units, d.world.cancel_count), (1000, 1000));
        assert!(!d.running[0], "retired");
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
        };
        let vm = world.vm(0);
        let mut d = SimDriver::new(world, vec![vm]);
        d.run_until(Time::from_secs(10));
        assert_eq!((d.world.units, d.world.successes), (1, 0));
        assert_eq!(d.world.cancel_count, 0);
        assert_eq!(d.vm_ticks(), 2, "the inline answer earns one more tick");
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
        };
        let vm = world.vm(0);
        let mut d = SimDriver::new(world, vec![vm]);
        let (popped, _, _, discarded) =
            d.run_traced(None, FaultPlan::new(0), Time::from_secs(10), |_| {});
        assert_eq!(popped, 1, "the start wake only");
        assert!(discarded > 0 && discarded == d.discarded());
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
        };
        let vm = world.vm(0);
        let mut d = SimDriver::new(world, vec![vm]);
        d.run_traced(None, FaultPlan::new(0), Time::from_secs(2), |_| {});
        assert_eq!((d.world.successes, d.now()), (1, Time::from_secs(2)));
        assert_eq!(d.discarded(), 1);
        assert!(d.queue.is_empty());
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
            };
            let vm = world.vm(0);
            let mut d = SimDriver::new(world, vec![vm]);
            d.run_until(Time::from_secs(100_000));
            d.vm_ticks()
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
        let (popped, ticks) = (d.events_popped(), d.vm_ticks());
        d.run_until(Time::from_secs(100));
        // Released 2, 1, 0. Each live release is delivered at once, at
        // the event's instant: two ticks apiece (the release, then
        // `mark`'s inline answer). Client 2 no longer waits on its
        // token, so its release is dropped without a tick.
        let t5 = Time::from_secs(5);
        assert_eq!(d.world.marks, [(1, t5), (0, t5)]);
        assert_eq!(d.vm_ticks(), ticks + 4);
        assert_eq!(d.events_popped(), popped + 1, "the world event alone");
        assert!(d.queue.is_empty());
    }
}

#[cfg(test)]
mod epoch_tests {
    use super::*;
    use ftsh::parse;
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
        assert_eq!((d.world.cancelled.as_slice(), d.vm_ticks()), (&[0][..], 2));
        d.run_until(Time::from_secs(100));
        assert_eq!(d.world.cancelled, [0, 1]);
        assert_eq!(d.vm_ticks(), 3);
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
