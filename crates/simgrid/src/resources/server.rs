//! The single-threaded FIFO server, and black holes.
//!
//! One machine: a server that works on one job at a time, a FIFO of
//! clients waiting their turn, and clients that leave early when their
//! `try` deadline fires. The replica file servers of §5's third
//! scenario are it literally — *"Each server is single-threaded,
//! allowing only one client at a time to transfer data. One of the
//! three is a permanent black hole. It permits clients to connect, but
//! does not provide data or voluntarily disconnect."* — and so is the
//! shared key store of the coordinated workloads, whose jobs are puts
//! and gets.
//!
//! The server knows nothing about time. Whenever a service starts it
//! hands out that service's sequence number; the caller decides how
//! long the job at the head takes ([`FileServer::serving`]) and comes
//! back with [`FileServer::finish`] when that has passed. A number
//! that is no longer the current service's — the client left, or the
//! server collapsed into a black hole meanwhile — is ignored, so a
//! completion event already on a queue needs no unscheduling. That
//! keeps the model usable from a discrete-event clock and a wall
//! clock alike.

use std::collections::VecDeque;

/// Whether a server serves its clients or swallows them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServerKind {
    /// Serves one job at a time, in arrival order.
    Normal,
    /// Accepts connections, never serves, never disconnects.
    BlackHole,
}

/// The outcome of a connection attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admission {
    /// The server was idle: the job is being served, as the service
    /// with this sequence number.
    Serving(u64),
    /// The server is busy; the job waits in the accept queue.
    Queued,
    /// The server is a black hole: the connection is open but nothing
    /// will ever happen on it.
    Hung,
}

/// A single-threaded server of caller-defined jobs.
#[derive(Clone, Debug)]
pub struct FileServer<J> {
    kind: ServerKind,
    serving: Option<J>,
    queue: VecDeque<J>,
    hung: Vec<J>,
    /// Sequence number of the latest service started.
    seq: u64,
}

impl<J> FileServer<J> {
    /// An idle server of the given kind.
    pub fn new(kind: ServerKind) -> FileServer<J> {
        FileServer {
            kind,
            serving: None,
            queue: VecDeque::new(),
            hung: Vec::new(),
            seq: 0,
        }
    }

    /// The server's nature.
    pub fn kind(&self) -> ServerKind {
        self.kind
    }

    /// The job being served, if any.
    pub fn serving(&self) -> Option<&J> {
        self.serving.as_ref()
    }

    /// Is a job currently being served?
    pub fn is_busy(&self) -> bool {
        self.serving.is_some()
    }

    /// Jobs waiting in the accept queue.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Jobs stuck in the black hole.
    pub fn hung_count(&self) -> usize {
        self.hung.len()
    }

    /// Serve the head of the accept queue, if the server is idle and
    /// someone waits. Returns the new service's sequence number.
    fn start_next(&mut self) -> Option<u64> {
        debug_assert!(self.serving.is_none());
        self.serving = self.queue.pop_front();
        self.serving.as_ref()?;
        self.seq += 1;
        Some(self.seq)
    }

    /// A client connects with a job.
    pub fn connect(&mut self, job: J) -> Admission {
        match self.kind {
            ServerKind::BlackHole => {
                self.hung.push(job);
                Admission::Hung
            }
            ServerKind::Normal if self.serving.is_some() => {
                self.queue.push_back(job);
                Admission::Queued
            }
            ServerKind::Normal => {
                self.serving = Some(job);
                self.seq += 1;
                Admission::Serving(self.seq)
            }
        }
    }

    /// Service `seq` ran its course: its job leaves (returned) and the
    /// next queued job starts being served (its sequence number
    /// returned). A stale `seq` changes nothing and returns `None`.
    pub fn finish(&mut self, seq: u64) -> Option<(J, Option<u64>)> {
        if seq != self.seq {
            return None;
        }
        let done = self.serving.take()?;
        Some((done, self.start_next()))
    }

    /// Toggle the server's nature at runtime (fault injection — a
    /// healthy replica collapsing into a black hole, or one recovering).
    ///
    /// Collapsing (`BlackHole`): the current service and the accept
    /// queue fall silent — every connection moves to `hung`, still
    /// open, never to be served, and the interrupted service's
    /// sequence number goes stale. Recovering (`Normal`): the hung
    /// connections re-enter the accept queue in arrival order and the
    /// head starts being served (its sequence number returned).
    /// Setting the same kind is a no-op.
    pub fn set_kind(&mut self, kind: ServerKind) -> Option<u64> {
        if kind == self.kind {
            return None;
        }
        self.kind = kind;
        match kind {
            ServerKind::BlackHole => {
                self.hung.extend(self.serving.take());
                self.hung.extend(self.queue.drain(..));
                None
            }
            ServerKind::Normal => {
                self.queue.extend(self.hung.drain(..));
                self.start_next()
            }
        }
    }

    /// A client gives up (its `try` deadline fired): remove its job —
    /// the one `is_job` picks out — wherever it is. If it was the one
    /// being served, that service's sequence number goes stale and
    /// the next queued job starts at once.
    pub fn disconnect(&mut self, mut is_job: impl FnMut(&J) -> bool) -> Disconnect<J> {
        if self.serving.as_ref().is_some_and(&mut is_job) {
            return Disconnect {
                job: self.serving.take(),
                started: self.start_next(),
            };
        }
        let job = if let Some(pos) = self.queue.iter().position(&mut is_job) {
            self.queue.remove(pos)
        } else {
            let pos = self.hung.iter().position(is_job);
            pos.map(|pos| self.hung.swap_remove(pos))
        };
        Disconnect { job, started: None }
    }
}

/// Result of [`FileServer::disconnect`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Disconnect<J> {
    /// The job that left, if the client was connected here at all.
    pub job: Option<J>,
    /// The service that took over the server, if the client left
    /// mid-service and someone was waiting.
    pub started: Option<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normal_server_serves_one_and_queues_rest() {
        let mut s = FileServer::new(ServerKind::Normal);
        assert_eq!(s.connect(1), Admission::Serving(1));
        assert_eq!(s.connect(2), Admission::Queued);
        assert_eq!(s.connect(3), Admission::Queued);
        assert!(s.is_busy());
        assert_eq!(s.queue_len(), 2);
    }

    #[test]
    fn finish_promotes_fifo() {
        let mut s = FileServer::new(ServerKind::Normal);
        s.connect(1);
        s.connect(2);
        s.connect(3);
        assert_eq!(s.finish(1), Some((1, Some(2))));
        assert_eq!(s.serving(), Some(&2));
        assert_eq!(s.finish(2), Some((2, Some(3))));
        assert_eq!(s.serving(), Some(&3));
        assert_eq!(s.finish(3), Some((3, None)));
        assert!(!s.is_busy());
    }

    #[test]
    fn black_hole_hangs_everyone() {
        let mut s = FileServer::new(ServerKind::BlackHole);
        assert_eq!(s.connect(1), Admission::Hung);
        assert_eq!(s.connect(2), Admission::Hung);
        assert_eq!(s.hung_count(), 2);
        assert!(!s.is_busy(), "a black hole never serves");
    }

    #[test]
    fn disconnect_current_promotes_next() {
        let mut s = FileServer::new(ServerKind::Normal);
        s.connect(1);
        s.connect(2);
        let d = s.disconnect(|&j| j == 1);
        assert_eq!(d.job, Some(1));
        assert_eq!(d.started, Some(2));
        assert_eq!(s.serving(), Some(&2));
    }

    #[test]
    fn disconnect_queued_and_hung() {
        let mut s = FileServer::new(ServerKind::Normal);
        s.connect(1);
        s.connect(2);
        s.connect(3);
        let d = s.disconnect(|&j| j == 2);
        assert_eq!(d.job, Some(2));
        assert_eq!(d.started, None);
        assert_eq!(s.queue_len(), 1);
        s.finish(1);
        assert_eq!(s.serving(), Some(&3), "2 left the queue");

        let mut bh = FileServer::new(ServerKind::BlackHole);
        bh.connect(9);
        assert_eq!(bh.disconnect(|&j| j == 9).job, Some(9));
        assert_eq!(bh.hung_count(), 0);
    }

    #[test]
    fn set_kind_collapses_and_recovers() {
        let mut s = FileServer::new(ServerKind::Normal);
        s.connect(1);
        s.connect(2);
        s.connect(3);
        assert_eq!(s.set_kind(ServerKind::BlackHole), None);
        assert!(!s.is_busy());
        assert_eq!(s.queue_len(), 0);
        assert_eq!(s.hung_count(), 3, "everyone falls silent");
        assert_eq!(s.connect(4), Admission::Hung);
        assert!(
            s.finish(1).is_none(),
            "the collapse invalidated the service in progress"
        );
        let resumed = s.set_kind(ServerKind::Normal);
        assert_eq!(resumed, Some(2), "a fresh service");
        assert_eq!(
            s.serving(),
            Some(&1),
            "head of the line resumes in arrival order"
        );
        assert!(s.finish(1).is_none(), "and the old one stays stale");
        assert_eq!(s.queue_len(), 3);
        assert_eq!(s.set_kind(ServerKind::Normal), None, "same kind is a no-op");
        s.finish(2);
        assert_eq!(s.serving(), Some(&2));
    }

    #[test]
    fn disconnect_unknown_client_is_noop() {
        let mut s = FileServer::new(ServerKind::Normal);
        s.connect(1);
        let d = s.disconnect(|&j| j == 42);
        assert_eq!(d.job, None);
        assert!(s.is_busy());
    }

    /// Jobs need not be `Copy`: the coordinated workloads queue
    /// `(client, token, op)` with `String` keys.
    type Op = (usize, u64, String);

    fn op(client: usize, token: u64, key: &str) -> Op {
        (client, token, key.to_string())
    }

    #[test]
    fn fifo_order_and_seq_invalidation() {
        let mut q: FileServer<Op> = FileServer::new(ServerKind::Normal);
        assert_eq!(q.connect(op(0, 1, "put 7")), Admission::Serving(1));
        assert_eq!(q.connect(op(1, 1, "get 7")), Admission::Queued);
        assert_eq!(q.queue_len() + usize::from(q.is_busy()), 2);

        // Stale sequence numbers are ignored.
        assert!(q.finish(99).is_none());

        let (done, next) = q.finish(1).expect("head served");
        assert_eq!(done, op(0, 1, "put 7"));
        assert_eq!(next, Some(2));
        assert_eq!(q.serving(), Some(&op(1, 1, "get 7")));
        let ((c, _, _), next) = q.finish(2).expect("second served");
        assert_eq!(c, 1);
        assert!(next.is_none());
        assert_eq!(q.queue_len() + usize::from(q.is_busy()), 0);
    }

    #[test]
    fn cancel_aborts_service_and_starts_next() {
        let mut q: FileServer<Op> = FileServer::new(ServerKind::Normal);
        let Admission::Serving(seq) = q.connect(op(0, 1, "get 1")) else {
            panic!("starts");
        };
        q.connect(op(1, 1, "get 2"));
        q.connect(op(1, 2, "get 3"));
        let cancel = |q: &mut FileServer<Op>, client, token| {
            q.disconnect(|(c, t, _)| (*c, *t) == (client, token))
                .started
        };
        // Cancelling a queued (not serving) op removes it silently.
        assert!(cancel(&mut q, 1, 2).is_none());
        // Cancelling the in-service op starts client 1's first get;
        // the aborted service's seq goes stale.
        let next = cancel(&mut q, 0, 1).expect("next starts");
        assert!(q.finish(seq).is_none(), "aborted seq is stale");
        let ((c, t, _), more) = q.finish(next).expect("served");
        assert_eq!((c, t), (1, 1));
        assert!(more.is_none());
        assert_eq!(q.queue_len() + usize::from(q.is_busy()), 0);
    }
}
