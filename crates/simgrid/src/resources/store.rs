//! The put/get key store behind one single-threaded server.
//!
//! A [`KeyStore`] is a key → value map whose every `put` and `get`
//! waits its turn at a [`FileServer`]: one operation in service at a
//! time, the rest in arrival order behind it. An operation is *priced*
//! when its service starts, against the key space as it stands then —
//! a put, a get that will find its key, or the expensive miss a blind
//! poll pays — and takes *effect* when its service ends: only then
//! does a put land, and only then is a get judged hit or miss. A put
//! that lands between the two turns a get priced as a miss into a hit.
//! Whoever gives up first ([`KeyStore::leave`]) frees the server for
//! the next in line.
//!
//! Like the server it is built on, the store takes no clock and
//! schedules nothing: it reports "service `seq` started and lasts
//! `dur`" ([`Started`]) and expects [`KeyStore::finish`] when that
//! has passed on the caller's clock. The simulator's coordinated
//! worlds turn a [`Started`] into an event on the virtual clock; the
//! live daemon turns it into a timer-wheel entry.
//!
//! Reading the key space directly ([`KeyStore::contains`]) never
//! touches the server: sensing is free, committing work is not.

use super::server::{Admission, FileServer, ServerKind};
use retry::Dur;
use std::collections::HashMap;
use std::hash::Hash;

/// One operation at the store.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoreOp<K, V> {
    /// Store `V` under `K`.
    Put(K, V),
    /// Look `K` up.
    Get(K),
}

/// The store began a service: come back with [`KeyStore::finish`]
/// after `dur`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Started {
    /// The service's sequence number.
    pub seq: u64,
    /// How long the operation holds the server.
    pub dur: Dur,
}

/// What a finished service did.
#[derive(Debug, PartialEq, Eq)]
pub enum Served<'a, K, V> {
    /// The put landed; `new` unless it overwrote the key.
    Stored {
        /// The key was absent before.
        new: bool,
    },
    /// The caller did not admit the put; nothing changed.
    Refused,
    /// The get found its key.
    Hit(&'a V),
    /// The get found nothing under this key.
    Miss(K),
}

/// A service that ran its course ([`KeyStore::finish`]).
#[derive(Debug, PartialEq, Eq)]
pub struct Finished<'a, K, V, W> {
    /// Whose operation it was.
    pub who: W,
    /// What it did.
    pub served: Served<'a, K, V>,
    /// The service that took over the server, if anyone waited. It was
    /// priced before this one's effect was applied.
    pub next: Option<Started>,
}

/// A key space served by one FIFO server. `W` names who an operation
/// belongs to, so the owner can be told when it ends and can be found
/// when they [`leave`](KeyStore::leave).
#[derive(Clone, Debug)]
pub struct KeyStore<K, V, W> {
    server: FileServer<(W, StoreOp<K, V>)>,
    keys: HashMap<K, V>,
    put_cost: Dur,
    hit_cost: Dur,
    miss_cost: Dur,
    misses: u64,
}

impl<K: Hash + Eq, V, W> KeyStore<K, V, W> {
    /// An empty, idle store with the given service times.
    pub fn new(put_cost: Dur, hit_cost: Dur, miss_cost: Dur) -> KeyStore<K, V, W> {
        KeyStore {
            server: FileServer::new(ServerKind::Normal),
            keys: HashMap::new(),
            put_cost,
            hit_cost,
            miss_cost,
            misses: 0,
        }
    }

    /// Place a key without going through the server (data staged
    /// before the run).
    pub fn stage(&mut self, key: K, value: V) {
        self.keys.insert(key, value);
    }

    /// Is the key there right now? Free: the server is not involved.
    pub fn contains(&self, key: &K) -> bool {
        self.keys.contains_key(key)
    }

    /// Gets served so far that found nothing.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Price the service that just started.
    fn started(&self, seq: u64) -> Started {
        let dur = match self.server.serving() {
            Some((_, StoreOp::Get(k))) if self.keys.contains_key(k) => self.hit_cost,
            Some((_, StoreOp::Get(_))) => self.miss_cost,
            _ => self.put_cost,
        };
        Started { seq, dur }
    }

    /// `who` asks for `op`. Returns the service this starts if the
    /// server was idle; otherwise the operation queues and starts
    /// when a later [`finish`](KeyStore::finish) or
    /// [`leave`](KeyStore::leave) says so.
    pub fn request(&mut self, who: W, op: StoreOp<K, V>) -> Option<Started> {
        match self.server.connect((who, op)) {
            Admission::Serving(seq) => Some(self.started(seq)),
            Admission::Queued | Admission::Hung => None,
        }
    }

    /// Service `seq` ran its course. The next waiting operation starts
    /// and is priced first; then this one takes effect: a put lands if
    /// `admit(key, value, overwritten)` says so (a full disk, an ENOSPC
    /// window — the caller's business), a get is judged against the key
    /// space as it now stands. A `seq` that is no longer the current
    /// service's changes nothing and returns `None`.
    pub fn finish(
        &mut self,
        seq: u64,
        admit: impl FnOnce(&K, &V, Option<&V>) -> bool,
    ) -> Option<Finished<'_, K, V, W>> {
        let ((who, op), next) = self.server.finish(seq)?;
        let next = next.map(|seq| self.started(seq));
        let served = match op {
            StoreOp::Put(key, value) => {
                if admit(&key, &value, self.keys.get(&key)) {
                    let new = self.keys.insert(key, value).is_none();
                    Served::Stored { new }
                } else {
                    Served::Refused
                }
            }
            StoreOp::Get(key) => match self.keys.get(&key) {
                Some(value) => Served::Hit(value),
                None => {
                    self.misses += 1;
                    Served::Miss(key)
                }
            },
        };
        Some(Finished { who, served, next })
    }

    /// Turn the server into a black hole or back
    /// ([`FileServer::set_kind`]). In a hole every operation waits in
    /// line and none is served; the one in service goes back to the
    /// head, its sequence number going stale. Recovering, the head
    /// starts, priced then: returns that service, if anyone waits.
    pub fn set_kind(&mut self, kind: ServerKind) -> Option<Started> {
        self.server.set_kind(kind).map(|seq| self.started(seq))
    }

    /// Whoever `is_who` picks out gives up: every operation of theirs
    /// leaves the queue, and one that was in service frees the server
    /// at once, its sequence number going stale. Returns the service
    /// that now runs in its place, if any.
    pub fn leave(&mut self, mut is_who: impl FnMut(&W) -> bool) -> Option<Started> {
        let mut started = None;
        while self.server.serving().is_some_and(|(who, _)| is_who(who)) {
            started = self.server.disconnect(|(who, _)| is_who(who)).started;
        }
        while self.server.disconnect(|(who, _)| is_who(who)).job.is_some() {}
        started.map(|seq| self.started(seq))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PUT: Dur = Dur::from_millis(100);
    const HIT: Dur = Dur::from_millis(50);
    const MISS: Dur = Dur::from_secs(2);

    type Store = KeyStore<&'static str, u32, usize>;

    fn store() -> Store {
        KeyStore::new(PUT, HIT, MISS)
    }

    /// Every put lands.
    const ADMIT: fn(&&str, &u32, Option<&u32>) -> bool = |_, _, _| true;

    fn started(seq: u64, dur: Dur) -> Started {
        Started { seq, dur }
    }

    #[test]
    fn serves_in_arrival_order_one_at_a_time() {
        let mut s = store();
        assert_eq!(s.request(0, StoreOp::Put("a", 1)), Some(started(1, PUT)));
        assert_eq!(s.request(1, StoreOp::Get("a")), None, "queues behind");
        assert_eq!(s.request(2, StoreOp::Get("b")), None);
        assert!(!s.contains(&"a"), "a put lands when served, not on arrival");

        let f = s.finish(1, ADMIT).expect("head served");
        assert_eq!((f.who, f.served), (0, Served::Stored { new: true }));
        let next = f.next.expect("client 1 starts");
        assert_eq!(next.seq, 2);
        assert!(s.contains(&"a"));

        let f = s.finish(2, ADMIT).expect("second served");
        assert_eq!((f.who, f.served), (1, Served::Hit(&1)));
        assert_eq!(f.next, Some(started(3, MISS)), "nothing under b: the scan");
        let f = s.finish(3, ADMIT).expect("third served");
        assert_eq!((f.who, f.served, f.next), (2, Served::Miss("b"), None));
        assert_eq!(s.misses(), 1);
        assert_eq!(
            s.request(3, StoreOp::Get("a")),
            Some(started(4, HIT)),
            "idle again"
        );
    }

    #[test]
    fn priced_at_start_judged_at_end() {
        // A get behind the put of its own key starts — and is priced —
        // before that put has landed: it pays for the scan and then
        // finds the key after all.
        let mut s = store();
        s.request(0, StoreOp::Put("k", 7));
        s.request(1, StoreOp::Get("k"));
        let f = s.finish(1, ADMIT).expect("put served");
        assert_eq!(f.next, Some(started(2, MISS)));
        let f = s.finish(2, ADMIT).expect("get served");
        assert_eq!(f.served, Served::Hit(&7));
        assert_eq!(s.misses(), 0, "priced as a miss, judged a hit");

        // And the other way round: a staged key costs a hit.
        s.stage("staged", 9);
        assert_eq!(s.request(2, StoreOp::Get("staged")), Some(started(3, HIT)));
    }

    #[test]
    fn the_caller_decides_whether_a_put_lands() {
        let mut s = store();
        s.request(0, StoreOp::Put("k", 1));
        let f = s.finish(1, |_, _, _| false).expect("served");
        assert_eq!(f.served, Served::Refused);
        assert!(!s.contains(&"k"));

        s.request(0, StoreOp::Put("k", 1));
        s.finish(2, ADMIT);
        s.request(0, StoreOp::Put("k", 2));
        let mut seen = None;
        let f = s
            .finish(3, |k, v, old| {
                seen = Some((*k, *v, old.copied()));
                true
            })
            .expect("served");
        assert_eq!(f.served, Served::Stored { new: false });
        assert_eq!(seen, Some(("k", 2, Some(1))), "the overwrite is shown");
        s.request(0, StoreOp::Get("k"));
        assert_eq!(s.finish(4, ADMIT).expect("served").served, Served::Hit(&2));
    }

    #[test]
    fn leaving_mid_service_promotes_the_next() {
        let mut s = store();
        s.request(0, StoreOp::Get("x"));
        s.request(1, StoreOp::Put("x", 1));
        s.request(2, StoreOp::Get("x"));
        // Leaving the queue is silent.
        assert_eq!(s.leave(|&w| w == 2), None);
        // Leaving mid-service starts the next at once; the aborted
        // service's number is stale from then on.
        assert_eq!(s.leave(|&w| w == 0), Some(started(2, PUT)));
        assert!(s.finish(1, ADMIT).is_none(), "stale seq ignored");
        assert_eq!(s.misses(), 0, "the abandoned get was never judged");
        let f = s.finish(2, ADMIT).expect("put served");
        assert_eq!((f.who, f.next), (1, None));
        assert_eq!(s.leave(|&w| w == 9), None, "a stranger leaving is a no-op");
        assert_eq!(
            s.request(3, StoreOp::Get("x")),
            Some(started(3, HIT)),
            "idle again"
        );
    }

    #[test]
    fn leaving_takes_every_operation_of_the_owner() {
        // One owner may have several operations in line (a connection
        // that pipelines). 7 is being served with two more queued
        // around 8's put: all three go, and 8 is served next.
        let mut s = store();
        s.request(7, StoreOp::Get("a"));
        s.request(7, StoreOp::Get("b"));
        s.request(8, StoreOp::Put("c", 1));
        s.request(7, StoreOp::Get("c"));
        assert_eq!(
            s.leave(|&w| w == 7),
            Some(started(3, PUT)),
            "seq 2 came and went"
        );
        let f = s.finish(3, ADMIT).expect("8's put");
        assert_eq!((f.who, f.next), (8, None), "nothing of 7's is left in line");
    }

    #[test]
    fn a_black_hole_holds_operations_until_it_recovers() {
        let mut s = store();
        s.request(0, StoreOp::Put("a", 1));
        s.request(1, StoreOp::Get("a"));
        assert_eq!(s.set_kind(ServerKind::BlackHole), None);
        assert!(
            s.finish(1, ADMIT).is_none(),
            "the put in service went stale"
        );
        assert_eq!(s.request(2, StoreOp::Get("a")), None, "waits in the hole");
        assert_eq!(s.leave(|&w| w == 1), None);
        // The put is served again from the start, then 2's get, now a hit.
        assert_eq!(s.set_kind(ServerKind::Normal), Some(started(2, PUT)));
        let f = s.finish(2, ADMIT).expect("the put");
        assert_eq!((f.who, f.next), (0, Some(started(3, MISS))));
        let f = s.finish(3, ADMIT).expect("the get");
        assert_eq!((f.who, f.served, f.next), (2, Served::Hit(&1), None));
    }
}
