//! One client's life between work units, for both drivers: the
//! simulator ([`SimDriver`](crate::SimDriver)) and the live swarm
//! (`egbench::swarm`). Whether a unit runs, which unit epoch is current
//! and which wake is armed are decided here; the caller keeps the
//! clock, the VM and the timer store. An epoch moves when a unit ends,
//! finished or killed, and whatever a driver arms for a unit carries
//! it, so what an ended unit left behind is stale on arrival.

use ftsh::vm::Vm;
use ftsh::Env;
use retry::Time;

/// A client's next work unit: the environment its script starts from,
/// its VM's RNG seed, and when it starts — an instant on the
/// simulator's clock, a delay on the live swarm's.
pub type NextUnit<At = Time> = (Env, u64, At);

/// What a popped wake finds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Wake {
    /// Armed in the current unit epoch.
    Fresh,
    /// Left behind by an ended unit.
    Stale,
    /// Left behind by an ended unit, and the first to pop strictly
    /// before the current unit's start instant: a tick on it starts
    /// the unit early.
    Early,
}

/// No wake armed.
const NONE: Time = Time::MAX;

/// One client's unit lifecycle, in 16 bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Lifecycle {
    /// The earliest wake armed in this epoch, or [`NONE`].
    armed: Time,
    epoch: u32,
    /// Killed (until revived) or retired.
    stopped: bool,
    /// `armed` is the start of a unit nothing has ticked yet.
    starting: bool,
}

impl Default for Lifecycle {
    /// Running its first unit, in epoch 0, with nothing armed.
    fn default() -> Lifecycle {
        Lifecycle {
            armed: NONE,
            epoch: 0,
            stopped: false,
            starting: false,
        }
    }
}

impl Lifecycle {
    /// Whether a unit is running (or due to start).
    pub fn running(&self) -> bool {
        !self.stopped
    }

    /// The current unit epoch, to stamp on what is armed for the unit.
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Start `unit` on `vm`. `None`: it starts now, and the caller
    /// ticks the VM. `Some(t)`: its start wake at `t` is armed, for the
    /// caller to put on its timer store.
    pub fn restart(&mut self, vm: &mut Vm, (env, seed, at): NextUnit, now: Time) -> Option<Time> {
        vm.restart(env, seed);
        self.stopped = false;
        self.starting = at > now;
        self.starting.then(|| {
            self.armed = at;
            at
        })
    }

    /// The running unit finished and `next` follows it: the unit's
    /// epoch ends, and with no next unit the client retires.
    pub fn finish<U>(&mut self, next: Option<U>) -> Option<U> {
        self.end_unit();
        self.stopped = next.is_none();
        next
    }

    /// A kill. Returns whether it hit a running client, whose unit then
    /// ends; a dead or retired client is left as it is.
    pub fn kill(&mut self) -> bool {
        let hit = !self.stopped;
        if hit {
            self.stopped = true;
            self.end_unit();
        }
        hit
    }

    /// A wake armed in `epoch` for `at` pops.
    pub fn wake(&mut self, epoch: u32, at: Time) -> Wake {
        if epoch == self.epoch {
            if at == self.armed {
                (self.armed, self.starting) = (NONE, false);
            }
            Wake::Fresh
        } else if self.starting && at < self.armed {
            self.starting = false; // reported once per unit
            Wake::Early
        } else {
            Wake::Stale
        }
    }

    /// The swarm's rule: a wake at `at` goes on the timer store only if
    /// it is earlier than the one armed, which otherwise covers it.
    /// Returns whether the caller must schedule it.
    pub fn arm(&mut self, at: Time) -> bool {
        let earlier = at < self.armed;
        if earlier {
            self.armed = at;
        }
        earlier
    }

    /// The one place a unit epoch moves.
    fn end_unit(&mut self) {
        self.epoch += 1;
        (self.armed, self.starting) = (NONE, false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vm() -> Vm {
        Vm::with_seed(&ftsh::parse("work\n").expect("parses"), 0)
    }

    fn secs(s: u64) -> Time {
        Time::from_secs(s)
    }

    /// A unit due at `s` seconds.
    fn unit(s: u64) -> NextUnit {
        (Env::new(), 1, secs(s))
    }

    #[test]
    fn a_unit_starts_now_or_arms_its_start() {
        let (mut life, mut vm) = (Lifecycle::default(), vm());
        assert_eq!(life.finish(Some(())), Some(()));
        assert_eq!(life.restart(&mut vm, unit(5), secs(5)), None, "due now");
        assert!(life.arm(secs(6)), "nothing was armed");

        assert_eq!(life.finish(Some(())), Some(()));
        assert_eq!(life.restart(&mut vm, unit(8), secs(5)), Some(secs(8)));
        assert!(!life.arm(secs(9)), "the start wake covers a later one");
        assert_eq!(life.wake(life.epoch(), secs(8)), Wake::Fresh);
        assert!(life.arm(secs(9)), "the start wake popped");
    }

    #[test]
    fn a_kill_that_finds_no_running_client_changes_nothing() {
        let mut dead = Lifecycle::default();
        assert!(dead.kill());
        let mut retired = Lifecycle::default();
        assert_eq!(retired.finish(None::<()>), None);
        for mut life in [dead, retired] {
            let before = life;
            assert!(!life.running());
            assert!(!life.kill());
            assert_eq!(life, before);
        }
    }

    #[test]
    fn the_epoch_moves_once_per_unit_and_once_per_kill() {
        let (mut life, mut vm) = (Lifecycle::default(), vm());
        for ended in 1..=3 {
            life.finish(Some(()));
            assert_eq!(life.epoch(), ended);
            life.restart(&mut vm, unit(0), secs(0));
            assert_eq!(life.epoch(), ended, "a restart does not move it");
        }
        assert!(life.kill());
        assert_eq!(life.epoch(), 4);
        life.restart(&mut vm, unit(0), secs(0));
        assert_eq!(life.epoch(), 4, "nor does a revival");
        life.finish(None::<()>);
        assert_eq!(life.epoch(), 5, "the last unit ends too");
        assert!(!life.kill());
        assert_eq!(life.epoch(), 5);
    }

    #[test]
    fn arm_keeps_the_earliest_wake() {
        let mut life = Lifecycle::default();
        assert!(life.arm(secs(10)));
        assert!(!life.arm(secs(10)), "already armed");
        assert!(!life.arm(secs(12)), "covered by 10 s");
        assert!(life.arm(secs(7)), "earlier");
        assert_eq!(life.wake(0, secs(10)), Wake::Fresh, "superseded, not stale");
        assert!(!life.arm(secs(8)), "7 s is still armed");
        assert_eq!(life.wake(0, secs(7)), Wake::Fresh);
        assert!(life.arm(secs(8)), "the armed wake popped");
    }

    #[test]
    fn a_wake_from_before_a_kill_is_stale_after_the_revival() {
        let (mut life, mut vm) = (Lifecycle::default(), vm());
        assert!(life.arm(secs(10)));
        let old = life.epoch();
        assert!(life.kill());
        assert_eq!(life.wake(old, secs(10)), Wake::Stale, "while dead");
        // Revived at 3 s for a unit due at 20 s: a stale wake due
        // before then would start it early, once; one due exactly at
        // its start would not.
        assert_eq!(life.restart(&mut vm, unit(20), secs(3)), Some(secs(20)));
        assert_eq!(life.wake(old, secs(20)), Wake::Stale, "not strictly early");
        assert_eq!(life.wake(old, secs(10)), Wake::Early);
        assert_eq!(life.wake(old, secs(12)), Wake::Stale, "once per unit");
        assert_eq!(life.wake(life.epoch(), secs(20)), Wake::Fresh);
        // Revived into a unit due at once: nothing is pending.
        assert!(life.kill());
        assert_eq!(life.restart(&mut vm, unit(30), secs(30)), None);
        assert_eq!(life.wake(old, secs(10)), Wake::Stale);
    }
}
