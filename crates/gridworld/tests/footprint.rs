//! What one simulated client costs in memory, pinned without a clock:
//! live bytes and live heap blocks per client measured the way the
//! benchmark's `ftsh.vm.bytes_per_client` probe measures them, the
//! allocations of a steady-state retry (none) and of a world releasing
//! held commands (none per release), and the sizes of the
//! types a 100 000-client world holds by the hundred thousand. These
//! numbers repeat exactly on any host, so they gate in tier-1 where the
//! benchmark's timings cannot.

use ftsh::vm::{CmdResult, CmdToken, CommandSpec, Effect, Vm, VmStatus};
use ftsh::Env;
use gridworld::scenarios::submit::SubmitEv;
use gridworld::scripts::{submit_ethernet, unit_vm};
use gridworld::{ClientId, CommandWorld, Ctx, ExecOutcome, SimDriver, SimEv};
use retry::{Discipline, Dur, Time, TrySession};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::mem::size_of;

// Every queued event of the submission world is one of these; 8 bytes
// more is 5 MB at 100 000 clients (PR 15 lost and re-won them).
const _: () = assert!(size_of::<SimEv<SubmitEv>>() <= 48);
// One `BackoffPolicy`, not two, and that one is base, cap and a jitter
// flag (48 → 24 bytes): `TrySession` 88 → 64, a frame 104 → 80, a `Vm`
// 464 → 440.
const _: () = assert!(size_of::<TrySession>() <= 64);
const _: () = assert!(Vm::FRAME_BYTES <= 80);
const _: () = assert!(size_of::<Vm>() <= 440);

thread_local! {
    /// (allocator calls, live blocks, live bytes) of this thread: the
    /// test harness's other threads do not disturb the counts.
    static HEAP: Cell<(u64, i64, i64)> = const { Cell::new((0, 0, 0)) };
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

/// Counts, then delegates all memory work to the system allocator.
struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the bookkeeping beside it
// touches only a thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(1, 1, layout.size() as i64);
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
/// flight (792 when this was written; 1832 before PR 17).
const MAX_BYTES_PER_CLIENT: i64 = 1024;
/// The heap blocks of such a client: its task table, the root task's
/// frame stack and its variable slots. (The `Vm` itself sits inline in
/// the population's vector.)
const BLOCKS_PER_CLIENT: i64 = 3;

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

    // Phase 2 — one client driven as `SimDriver` drives it (results
    // delivered, specs handed back): the schedd is busy, so every
    // carrier-sense read comes back under the threshold and the
    // attempt defers.
    let busy = CmdResult::ok("12");
    let mut vm = unit_vm(&script, Discipline::Ethernet, Env::new(), 7);
    vm.set_log_detail(false);
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

    fn unit_done(&mut self, _: &mut Ctx<'_, ()>, _: ClientId, _: bool) -> Option<(Vm, Time)> {
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
