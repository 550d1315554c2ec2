//! What one simulated client costs in memory, pinned without a clock:
//! live bytes and live heap blocks per client measured the way the
//! benchmark's `ftsh.vm.bytes_per_client` probe measures them, and
//! again once every client has had a command answered; the cold part
//! of a VM, which no paper client makes, in its first command or in
//! the units after; the allocations of a
//! steady-state retry (none), of a world releasing held commands (none
//! per release) and of a work unit (none per unit), and the sizes of
//! the types a 100 000-client world holds by the hundred thousand.
//! These numbers repeat exactly on any host, so they gate in tier-1
//! where the benchmark's timings cannot.

use ftsh::vm::{CmdResult, CmdToken, CommandSpec, Effect, Vm, VmStatus};
use ftsh::Env;
use gridworld::scenarios::submit::SubmitEv;
use gridworld::scripts::{buffer_ethernet, reader_ethernet, submit_ethernet, unit_vm};
use gridworld::{ClientId, CommandWorld, Ctx, ExecOutcome, Lifecycle, NextUnit, SimDriver, SimEv};
use retry::{Discipline, Dur, Time, TrySession};
use simgrid::trace::{SharedSink, VecSink};
use simgrid::EventQueue;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::mem::size_of;
use std::sync::{Arc, Mutex};

// Every queued event of the submission world is one of these; 8 bytes
// more is 5 MB at 100 000 clients (PR 15 lost and re-won them).
const _: () = assert!(size_of::<SimEv<SubmitEv>>() <= 48);
// The queue's buckets hold an instant, a slab slot and an owner, not
// the event: a re-file moves 16 bytes where it moved a 56-byte
// `(at, event)`, and the owner fills what was the key's padding.
const _: () = assert!(EventQueue::<SimEv<SubmitEv>>::KEY_BYTES <= 16);
// The FIFO holds a slot and an owner: 8 bytes, where slots alone were 4.
const _: () = assert!(EventQueue::<SimEv<SubmitEv>>::FIFO_ENTRY_BYTES <= 8);
// One `BackoffPolicy`, not two, and that one is base, cap and a jitter
// flag (48 → 24 bytes): `TrySession` 88 → 64, a frame 104 → 80, a `Vm`
// 464 → 440.
const _: () = assert!(size_of::<TrySession>() <= 64);
const _: () = assert!(Vm::FRAME_BYTES <= 80);
// What only some clients use went out of line into the cold part, and
// the effects placeholder went: 440 → 288.
const _: () = assert!(size_of::<Vm>() <= 288);
// A client's unit lifecycle — running flag, unit epoch, armed wake —
// shared by the simulator and the live swarm: 16 bytes, 1.6 MB at
// 100 000 clients.
const _: () = assert!(size_of::<Lifecycle>() <= 16);

thread_local! {
    /// (allocator calls, live blocks, live bytes) of this thread: the
    /// test harness's other threads do not disturb the counts.
    static HEAP: Cell<(u64, i64, i64)> = const { Cell::new((0, 0, 0)) };
    /// Allocations of this thread the size of a VM's cold part.
    static COLD: Cell<u64> = const { Cell::new(0) };
}

fn record(calls: u64, blocks: i64, bytes: i64) {
    // `try_with`: a thread being torn down frees with its locals gone.
    let _ = HEAP.try_with(|h| {
        let (c, bl, by) = h.get();
        h.set((c + calls, bl + blocks, by + bytes));
    });
}

fn heap() -> (u64, i64, i64) {
    HEAP.with(Cell::get)
}

fn cold_blocks_made() -> u64 {
    COLD.with(Cell::get)
}

/// Counts, then delegates all memory work to the system allocator.
struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the bookkeeping beside it
// touches only a thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(1, 1, layout.size() as i64);
        if layout.size() == Vm::COLD_BYTES {
            let _ = COLD.try_with(|c| c.set(c.get() + 1));
        }
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        record(0, -1, -(layout.size() as i64));
        System.dealloc(ptr, layout);
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(1, 0, new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Most a client may hold, in bytes, once its first command is in
/// flight (552 when this was written; 744 before the cold part and the
/// boxed spill map; 1832 before the first diet, DESIGN.md §12).
const MAX_BYTES_PER_CLIENT: i64 = 576;
/// The heap blocks of such a client: its task table, the root task's
/// frame stack and its variable slots. (The `Vm` itself sits inline in
/// the population's vector.)
const BLOCKS_PER_CLIENT: i64 = 3;
/// Most a client may hold once its first answer came back and its spec
/// was handed back, as `SimDriver` hands them back (616 when this was
/// written; 640 while the pooled argv sat in a spare-vector list of its
/// own, 832 before the cold part and the boxed spill map).
const MAX_RUNNING_BYTES_PER_CLIENT: i64 = 640;
/// The heap blocks of such a client: the three above and the pooled
/// argv's buffer (the argv itself sits inline in the `Vm`).
const RUNNING_BLOCKS_PER_CLIENT: i64 = 4;

#[test]
fn a_client_is_under_a_kilobyte_and_a_steady_retry_allocates_nothing() {
    const CLIENTS: usize = 1000;
    let script = submit_ethernet(1000);
    // The compiled program is shared by every VM of the script; this
    // one keeps it alive (and out of the per-client counts) throughout.
    let _compiled = unit_vm(&script, Discipline::Ethernet, Env::new(), 0);

    // Phase 1 — the population, as `ftsh.vm.bytes_per_client` builds
    // it: log detail off, one tick into one shared effects buffer,
    // first command in flight, effects dropped.
    let mut effects: Vec<Effect> = Vec::new();
    let (_, blocks_before, bytes_before) = heap();
    let vms: Vec<Vm> = (0..CLIENTS as u64)
        .map(|i| {
            let mut vm = unit_vm(&script, Discipline::Ethernet, Env::new(), i);
            vm.set_log_detail(false);
            vm.tick_into(Time::ZERO, &mut effects);
            assert_eq!(effects.len(), 1, "the carrier-sense read is in flight");
            effects.clear();
            vm
        })
        .collect();
    let (_, blocks, bytes) = heap();
    // The shared buffer is the caller's; no VM kept one of its own.
    let shared = (effects.capacity() * size_of::<Effect>()) as i64;
    let held = bytes - bytes_before - shared;
    assert!(
        held <= MAX_BYTES_PER_CLIENT * CLIENTS as i64,
        "{held} B held by {CLIENTS} clients"
    );
    // One block more for the population's vector, one for the buffer.
    assert_eq!(
        blocks - blocks_before,
        BLOCKS_PER_CLIENT * CLIENTS as i64 + 2,
        "heap blocks held by {CLIENTS} clients"
    );
    drop(vms);

    // Phase 2 — the population once every client had its carrier-sense
    // read answered the way `SimDriver` answers it (result delivered,
    // spec handed back, ticked again): the schedd is busy, so the read
    // comes back under the threshold and the attempt defers.
    let busy = CmdResult::ok("12");
    let mut attempt = |vm: &mut Vm, now: Time| -> Time {
        vm.tick_into(now, &mut effects);
        let Some(Effect::Start { token, spec, .. }) = effects.pop() else {
            panic!("an attempt starts with the carrier-sense read")
        };
        assert!(effects.is_empty());
        vm.complete(token, busy.clone());
        vm.recycle_spec(spec);
        match vm.tick_into(now, &mut effects) {
            VmStatus::Running { next_wake: Some(t) } if effects.is_empty() => t,
            other => panic!("the attempt should defer, got {other:?} {effects:?}"),
        }
    };
    let (_, blocks_before, bytes_before) = heap();
    let vms: Vec<Vm> = (0..CLIENTS as u64)
        .map(|i| {
            let mut vm = unit_vm(&script, Discipline::Ethernet, Env::new(), i);
            vm.set_log_detail(false);
            attempt(&mut vm, Time::ZERO);
            vm
        })
        .collect();
    let (_, blocks, bytes) = heap();
    let held = bytes - bytes_before;
    assert!(
        held <= MAX_RUNNING_BYTES_PER_CLIENT * CLIENTS as i64,
        "{held} B held by {CLIENTS} running clients"
    );
    // One block more for the population's vector.
    assert_eq!(
        blocks - blocks_before,
        RUNNING_BLOCKS_PER_CLIENT * CLIENTS as i64 + 1,
        "heap blocks held by {CLIENTS} running clients"
    );
    drop(vms);

    // Phase 3 — one such client: a backoff wake and the whole attempt
    // after it reuse what the first attempt left.
    let mut vm = unit_vm(&script, Discipline::Ethernet, Env::new(), 7);
    vm.set_log_detail(false);
    let wake = attempt(&mut vm, Time::ZERO);
    let (calls_before, _, _) = heap();
    let next = attempt(&mut vm, wake);
    let (calls, _, _) = heap();
    assert!(next > wake);
    assert_eq!(
        calls - calls_before,
        0,
        "a backoff wake and a whole second attempt allocate nothing"
    );
    assert_eq!(vm.log().summary().backoffs, 2);
}

/// Run `vm`'s unit from `start` to its end as `SimDriver` would: every
/// command answered on the spot as [`answer`] says and its spec handed
/// back, the VM woken when it asks. Whether the unit succeeded.
fn run_unit(vm: &mut Vm, start: Time, effects: &mut Vec<Effect>) -> bool {
    let mut now = start;
    loop {
        let status = vm.tick_into(now, effects);
        let mut answered = false;
        for e in effects.drain(..) {
            if let Effect::Start { token, spec, .. } = e {
                if let Some(result) = answer(&spec) {
                    answered |= vm.complete(token, result);
                }
                vm.recycle_spec(spec);
            }
        }
        match status {
            VmStatus::Done { success } => return success,
            _ if answered => {}
            VmStatus::Running { next_wake: Some(t) } => now = t,
            VmStatus::Running { next_wake: None } => panic!("a unit waits on nothing"),
        }
    }
}

/// How the test worlds answer a command: the schedd has descriptors
/// to spare and takes the job, the buffer has room for the output, a
/// live server serves, and the one named `hole` never answers.
fn answer(spec: &CommandSpec) -> Option<CmdResult> {
    match spec.program() {
        "cut" => Some(CmdResult::ok("5000")),
        "make-output" => Some(CmdResult::ok("10")),
        "estimate-space" => Some(CmdResult::ok("100")),
        "wget" if spec.argv[1].contains("hole") => None,
        _ => Some(CmdResult::succeed()),
    }
}

#[test]
fn the_cold_part_is_made_on_first_use_and_survives_restart() {
    const CLIENTS: u64 = 1000;
    const UNITS: u64 = 4;
    // No paper client makes it: 1 000 of each script, ticked to its
    // first command, then run through four whole units, each answered
    // and restarted in place. The reader's first server is a black
    // hole: its flag fetch hangs until the 5 s `try` kills it, and
    // `forany` moves on to a live one.
    let mut hosts = Env::new();
    for (h, server) in [("h1", "hole"), ("h2", "server"), ("h3", "server")] {
        hosts.set(h, server);
    }
    let mut effects: Vec<Effect> = Vec::new();
    for (name, script, env) in [
        ("submit_ethernet", submit_ethernet(1000), Env::new()),
        ("buffer_ethernet", buffer_ethernet(), Env::new()),
        ("reader_ethernet", reader_ethernet(), hosts),
    ] {
        // Compiled once, outside the count.
        let _compiled = unit_vm(&script, Discipline::Ethernet, env.clone(), 0);
        let made = cold_blocks_made();
        let mut vms: Vec<Vm> = (0..CLIENTS)
            .map(|i| {
                let mut vm = unit_vm(&script, Discipline::Ethernet, env.clone(), i);
                vm.set_log_detail(false);
                vm.tick_into(Time::ZERO, &mut effects);
                assert_eq!(effects.len(), 1, "{name}: the first command is in flight");
                vm
            })
            .collect();
        assert_eq!(cold_blocks_made() - made, 0, "{name}: cold parts made");
        for (i, vm) in (0..).zip(&mut vms) {
            for unit in 0..UNITS {
                vm.restart(env.clone(), CLIENTS * unit + i);
                let start = Time::from_secs(1000 * unit);
                assert!(run_unit(vm, start, &mut effects), "{name}: a unit fails");
            }
        }
        assert_eq!(
            cold_blocks_made() - made,
            0,
            "{name}: cold parts made over {UNITS} units"
        );
        if name == "reader_ethernet" {
            // The last unit's log: the black hole, then the live server.
            let summary = vms[0].log().summary();
            assert_eq!(
                (summary.timed_out_tries, summary.alternatives_tried),
                (1, 2)
            );
        }
        drop(vms);
    }

    // A tracer makes it, as one block; a `forall` limit then adds none.
    let script = ftsh::parse("forall x in a b c d e\n  work ${x}\nend\n").unwrap();
    let trace = Arc::new(Mutex::new(VecSink::new()));
    let mut vm = Vm::with_seed(&script, 0);
    vm.set_log_detail(false);
    let ((_, blocks_before, _), made) = (heap(), cold_blocks_made());
    vm.set_tracer(trace.clone() as SharedSink, 42);
    let ((calls_before, blocks, _), made_after) = (heap(), cold_blocks_made());
    assert_eq!(blocks - blocks_before, 1, "set_tracer adds one block");
    assert_eq!(made_after - made, 1, "and that block is the cold part");
    vm.set_max_parallel(Some(2));
    assert_eq!(
        heap().0 - calls_before,
        0,
        "set_max_parallel allocates nothing"
    );

    // Both survive a restart mid-loop: every record is still labelled
    // with the client, and no more than two branches run at once.
    vm.tick_into(Time::ZERO, &mut effects);
    assert_eq!(effects.len(), 2, "two of five branches start");
    vm.restart(Env::new(), 1);
    trace.lock().unwrap().take();
    let (mut started, mut most) = (0, 0);
    loop {
        let status = vm.tick_into(Time::ZERO, &mut effects);
        if let VmStatus::Done { success } = status {
            assert!(success);
            break;
        }
        most = most.max(vm.in_flight_tokens().len());
        for e in effects.drain(..) {
            let Effect::Start { token, .. } = e else {
                panic!("nothing is cancelled")
            };
            started += 1;
            vm.complete(token, CmdResult::succeed());
        }
    }
    assert_eq!((started, most), (5, 2), "(branches run, most at once)");
    let records = trace.lock().unwrap().take();
    assert!(!records.is_empty());
    assert!(records.iter().all(|r| r.client == 42), "{records:?}");
}

/// One client's `hold`, failed by the world's next 1 s tick.
#[derive(Default)]
struct TickWorld {
    held: Option<(ClientId, CmdToken)>,
    releases: u64,
}

impl CommandWorld for TickWorld {
    type Ev = ();

    fn exec(
        &mut self,
        _: &mut Ctx<'_, ()>,
        client: ClientId,
        token: CmdToken,
        _: &CommandSpec,
    ) -> ExecOutcome {
        self.held = Some((client, token));
        ExecOutcome::Held
    }

    fn cancelled(&mut self, _: &mut Ctx<'_, ()>, _: ClientId, _: CmdToken) {}

    fn on_event(&mut self, ctx: &mut Ctx<'_, ()>, (): ()) {
        if let Some((client, token)) = self.held.take() {
            self.releases += 1;
            ctx.complete(client, token, CmdResult::fail());
        }
        ctx.schedule(ctx.now() + Dur::from_secs(1), ());
    }

    fn unit_done(&mut self, _: &mut Ctx<'_, ()>, _: ClientId, _: bool) -> Option<NextUnit> {
        None
    }
}

#[test]
fn releasing_a_held_command_does_not_allocate_per_release() {
    // Held at even seconds, failed by the tick at the next odd one: a
    // release every 2 s. Releases go into the driver's reused buffer
    // (1 allocation over the window when this was written); when each
    // world event returned a fresh `Vec` of them, the window cost one
    // allocation per release.
    let script = ftsh::parse("try 1000000 times every 1 second\n hold\nend\n").unwrap();
    let mut d = SimDriver::new(TickWorld::default(), vec![Vm::with_seed(&script, 0)]);
    d.schedule_world(Time::from_secs(1), ());
    d.run_until(Time::from_secs(20_000));
    let (releases, (calls_before, _, _)) = (d.world.releases, heap());
    d.run_until(Time::from_secs(40_000));
    let (calls, _, _) = heap();
    assert_eq!(d.world.releases - releases, 10_000);
    assert!(
        calls - calls_before <= 10,
        "{} allocations over 10 000 releases",
        calls - calls_before
    );
}

/// The submission script's two commands, answered on the spot: the
/// carrier-sense read reports plenty of free descriptors, so every
/// unit submits once and succeeds within its first tick, and arms no
/// `try` deadline. The next unit starts 1 s later.
struct UnitWorld {
    free: CmdResult,
    units: u64,
}

impl CommandWorld for UnitWorld {
    type Ev = ();

    fn exec(
        &mut self,
        _: &mut Ctx<'_, ()>,
        _: ClientId,
        _: CmdToken,
        spec: &CommandSpec,
    ) -> ExecOutcome {
        let result = match spec.program() {
            "cut" => self.free.clone(),
            _ => CmdResult::succeed(),
        };
        ExecOutcome::Now(result)
    }

    fn cancelled(&mut self, _: &mut Ctx<'_, ()>, _: ClientId, _: CmdToken) {}

    fn on_event(&mut self, _: &mut Ctx<'_, ()>, (): ()) {}

    fn unit_done(&mut self, ctx: &mut Ctx<'_, ()>, _: ClientId, ok: bool) -> Option<NextUnit> {
        assert!(ok, "every unit submits");
        self.units += 1;
        Some((Env::new(), self.units, ctx.now() + Dur::from_secs(1)))
    }
}

#[test]
fn a_work_unit_allocates_nothing() {
    // One client, one submission unit a second. The driver restarts
    // the client's VM in place, keeping its buffers; when every unit
    // was a fresh `Vm`, each cost 3 allocations (its task table, the
    // root task's frame stack and its variable slots).
    let script = submit_ethernet(1000);
    let world = UnitWorld {
        free: CmdResult::ok("5000"),
        units: 0,
    };
    let vm = unit_vm(&script, Discipline::Ethernet, Env::new(), 0);
    let mut d = SimDriver::new(world, vec![vm]);
    // The event queue first touches a bucket when the clock crosses a
    // power of two; past 2^30 µs the window below crosses none it has
    // not crossed already.
    d.run_until(Time::from_secs(1100));
    let (units, (calls_before, _, _)) = (d.world.units, heap());
    d.run_until(Time::from_secs(2100));
    let (calls, _, _) = heap();
    assert_eq!(d.world.units - units, 1000);
    assert_eq!(calls - calls_before, 0, "allocations over 1 000 work units");
    assert_eq!(d.log_totals.commands_succeeded, 2 * d.world.units);
}
