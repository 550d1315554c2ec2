//! The shared filesystem output buffer of the producer-consumer
//! scenario.
//!
//! §5: producers write output files of unknown size into a 120 MB
//! buffer; completed files are atomically renamed to `x.done` so the
//! consumer (draining at 1 MB/s) knows they are whole. A write that
//! hits ENOSPC mid-file is a *collision*: the partial file is deleted
//! and the producer backs off. The Ethernet producer estimates free
//! space by assuming each incomplete file will grow to the average size
//! of the completed ones.
//!
//! That estimate is read on every probe and the consumer looks for the
//! oldest complete file on every tick, so the buffer keeps the answers
//! instead of scanning for them: in-progress files sit apart from
//! complete ones, and the complete files' byte total runs beside them.

use crate::hash::IdMap;
use std::collections::BTreeMap;

/// Identifier of a file in the buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FileId(u64);

/// Why a write failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WriteError {
    /// No space left on device — the paper's collision.
    NoSpace,
    /// The file does not exist (deleted or consumed).
    NoSuchFile,
    /// The file was already completed (renamed `.done`) and is
    /// immutable.
    AlreadyComplete,
}

impl std::fmt::Display for WriteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WriteError::NoSpace => write!(f, "no space left on device"),
            WriteError::NoSuchFile => write!(f, "no such file"),
            WriteError::AlreadyComplete => write!(f, "file already complete"),
        }
    }
}

impl std::error::Error for WriteError {}

/// A bounded shared buffer of in-progress and complete files.
///
/// ```
/// use simgrid::{DiskBuffer, WriteError};
///
/// let mut d = DiskBuffer::new(10);
/// let f = d.create();
/// d.write(f, 8).unwrap();
/// d.complete(f).unwrap();
/// // A second file colliding with ENOSPC is deleted and counted.
/// let g = d.create();
/// assert_eq!(d.write(g, 5), Err(WriteError::NoSpace));
/// assert_eq!(d.collisions(), 1);
/// assert_eq!(d.used(), 8);
/// ```
#[derive(Clone, Debug)]
pub struct DiskBuffer {
    capacity: u64,
    used: u64,
    /// In-progress files and their sizes so far. Looked up by id only,
    /// never iterated, so the hash order reaches no answer.
    writing: IdMap<FileId, u64>,
    /// Complete files and their sizes, oldest id first.
    done: BTreeMap<FileId, u64>,
    /// Total size of the files in `done`.
    done_bytes: u64,
    next_id: u64,
    collisions: u64,
}

impl DiskBuffer {
    /// A buffer with `capacity` bytes (the paper uses 120 MB).
    pub fn new(capacity: u64) -> DiskBuffer {
        DiskBuffer {
            capacity,
            used: 0,
            writing: IdMap::default(),
            done: BTreeMap::new(),
            done_bytes: 0,
            next_id: 0,
            collisions: 0,
        }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently occupied (complete + in-progress).
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Bytes free — what `df` would report.
    pub fn free(&self) -> u64 {
        self.capacity - self.used
    }

    /// Mid-write ENOSPC events so far (the collision counter of
    /// Figure 5).
    pub fn collisions(&self) -> u64 {
        self.collisions
    }

    /// Open a new in-progress file of size zero.
    pub fn create(&mut self) -> FileId {
        let id = FileId(self.next_id);
        self.next_id += 1;
        self.writing.insert(id, 0);
        id
    }

    /// The error for an id that is not in progress.
    fn not_writable(&self, id: FileId) -> WriteError {
        if self.done.contains_key(&id) {
            WriteError::AlreadyComplete
        } else {
            WriteError::NoSuchFile
        }
    }

    /// Delete an in-progress file and count the collision.
    fn collide(&mut self, id: FileId) {
        let size = self.writing.remove(&id).expect("caller checked");
        self.used -= size;
        self.collisions += 1;
    }

    /// Append `bytes` to an in-progress file. On ENOSPC the partial
    /// file is deleted (as the paper's producers do), the collision is
    /// counted, and the error returned.
    pub fn write(&mut self, id: FileId, bytes: u64) -> Result<(), WriteError> {
        if !self.writing.contains_key(&id) {
            return Err(self.not_writable(id));
        }
        if self.used + bytes > self.capacity {
            self.collide(id);
            return Err(WriteError::NoSpace);
        }
        *self.writing.get_mut(&id).expect("checked above") += bytes;
        self.used += bytes;
        Ok(())
    }

    /// Forcibly fail an in-progress write with ENOSPC regardless of
    /// actual occupancy (fault injection — a server lying about, or
    /// suddenly losing, its space): the partial file is deleted and
    /// the collision counted, exactly as a real mid-write ENOSPC. A
    /// complete file is not being written: it stays, and the answer is
    /// [`WriteError::AlreadyComplete`], as [`DiskBuffer::write`] gives.
    pub fn force_enospc(&mut self, id: FileId) -> Result<(), WriteError> {
        if !self.writing.contains_key(&id) {
            return Err(self.not_writable(id));
        }
        self.collide(id);
        Ok(())
    }

    /// Atomically rename to `.done`: the file becomes visible to the
    /// consumer and immutable.
    pub fn complete(&mut self, id: FileId) -> Result<(), WriteError> {
        let size = self
            .writing
            .remove(&id)
            .ok_or_else(|| self.not_writable(id))?;
        self.done.insert(id, size);
        self.done_bytes += size;
        Ok(())
    }

    /// Delete a file (producer abandoning a partial, or consumer
    /// removing what it has read), freeing its space.
    pub fn delete(&mut self, id: FileId) -> Result<u64, WriteError> {
        let size = match self.writing.remove(&id) {
            Some(size) => size,
            None => {
                let size = self.done.remove(&id).ok_or(WriteError::NoSuchFile)?;
                self.done_bytes -= size;
                size
            }
        };
        self.used -= size;
        Ok(size)
    }

    /// Size of a file, if it exists.
    pub fn size_of(&self, id: FileId) -> Option<u64> {
        self.writing
            .get(&id)
            .or_else(|| self.done.get(&id))
            .copied()
    }

    /// The oldest complete file (what the consumer reads next) and its
    /// size.
    pub fn oldest_complete(&self) -> Option<(FileId, u64)> {
        self.done.first_key_value().map(|(&id, &size)| (id, size))
    }

    /// Count and total size of complete files.
    pub fn complete_stats(&self) -> (u64, u64) {
        (self.done.len() as u64, self.done_bytes)
    }

    /// Number of in-progress (incomplete) files.
    pub fn incomplete_count(&self) -> u64 {
        self.writing.len() as u64
    }

    /// The paper's Ethernet carrier-sense estimate: assume every
    /// incomplete file will grow to the average size of the complete
    /// ones, subtract that projected demand from the reported free
    /// space. Negative means "expect a collision: defer".
    pub fn ethernet_estimate_free(&self) -> i64 {
        let (n_done, done_bytes) = self.complete_stats();
        let avg = if n_done > 0 {
            done_bytes as f64 / n_done as f64
        } else {
            0.0
        };
        let projected = avg * self.incomplete_count() as f64;
        self.free() as i64 - projected as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MB: u64 = 1 << 20;

    #[test]
    fn create_write_complete_consume_cycle() {
        let mut d = DiskBuffer::new(120 * MB);
        let f = d.create();
        d.write(f, 5 * MB).unwrap();
        assert_eq!(d.used(), 5 * MB);
        assert_eq!(d.oldest_complete(), None, "incomplete files are invisible");
        d.complete(f).unwrap();
        assert_eq!(d.oldest_complete(), Some((f, 5 * MB)));
        let freed = d.delete(f).unwrap();
        assert_eq!(freed, 5 * MB);
        assert_eq!(d.used(), 0);
    }

    #[test]
    fn enospc_deletes_partial_and_counts_collision() {
        let mut d = DiskBuffer::new(10 * MB);
        let a = d.create();
        d.write(a, 8 * MB).unwrap();
        let b = d.create();
        d.write(b, MB).unwrap();
        // b tries to grow past capacity.
        assert_eq!(d.write(b, 2 * MB), Err(WriteError::NoSpace));
        assert_eq!(d.collisions(), 1);
        assert_eq!(d.size_of(b), None, "partial deleted on collision");
        assert_eq!(d.used(), 8 * MB, "a unaffected");
    }

    #[test]
    fn exact_fit_is_not_a_collision() {
        let mut d = DiskBuffer::new(MB);
        let f = d.create();
        d.write(f, MB).unwrap();
        assert_eq!(d.free(), 0);
        assert_eq!(d.collisions(), 0);
    }

    #[test]
    fn complete_files_are_immutable() {
        let mut d = DiskBuffer::new(MB);
        let f = d.create();
        d.write(f, 1).unwrap();
        d.complete(f).unwrap();
        assert_eq!(d.write(f, 1), Err(WriteError::AlreadyComplete));
        assert_eq!(d.complete(f), Err(WriteError::AlreadyComplete));
    }

    #[test]
    fn missing_files_error() {
        let mut d = DiskBuffer::new(MB);
        let f = d.create();
        d.delete(f).unwrap();
        assert_eq!(d.write(f, 1), Err(WriteError::NoSuchFile));
        assert_eq!(d.delete(f), Err(WriteError::NoSuchFile));
        assert_eq!(d.complete(f), Err(WriteError::NoSuchFile));
    }

    #[test]
    fn oldest_complete_is_fifo() {
        let mut d = DiskBuffer::new(10 * MB);
        let a = d.create();
        let b = d.create();
        d.write(a, MB).unwrap();
        d.write(b, MB).unwrap();
        d.complete(b).unwrap();
        assert_eq!(d.oldest_complete(), Some((b, MB)));
        d.complete(a).unwrap();
        assert_eq!(d.oldest_complete(), Some((a, MB)), "a was created first");
    }

    #[test]
    fn ethernet_estimate_projects_incomplete_growth() {
        let mut d = DiskBuffer::new(10 * MB);
        // Two complete 2 MB files -> average 2 MB.
        for _ in 0..2 {
            let f = d.create();
            d.write(f, 2 * MB).unwrap();
            d.complete(f).unwrap();
        }
        // Three in-progress files of 0 bytes: projected 6 MB demand.
        for _ in 0..3 {
            d.create();
        }
        // free = 6 MB, projected = 6 MB -> estimate 0.
        assert_eq!(d.ethernet_estimate_free(), 0);
        // A fourth in-progress file pushes the estimate negative.
        d.create();
        assert!(d.ethernet_estimate_free() < 0);
    }

    #[test]
    fn estimate_with_no_completes_equals_free() {
        let mut d = DiskBuffer::new(5 * MB);
        d.create();
        assert_eq!(d.ethernet_estimate_free(), 5 * MB as i64);
    }

    #[test]
    fn forced_enospc_leaves_a_complete_file_alone() {
        let mut d = DiskBuffer::new(10 * MB);
        let f = d.create();
        d.write(f, 2 * MB).unwrap();
        d.complete(f).unwrap();
        assert_eq!(d.force_enospc(f), Err(WriteError::AlreadyComplete));
        assert_eq!(d.oldest_complete(), Some((f, 2 * MB)), "still readable");
        assert_eq!((d.used(), d.collisions()), (2 * MB, 0));
        // An in-progress file is failed, deleted and counted.
        let g = d.create();
        d.write(g, MB).unwrap();
        assert_eq!(d.force_enospc(g), Ok(()));
        assert_eq!((d.size_of(g), d.used(), d.collisions()), (None, 2 * MB, 1));
        assert_eq!(d.force_enospc(g), Err(WriteError::NoSuchFile));
    }

    /// The buffer as it was first written: one map of every file, each
    /// flagged complete or not, and every count found by a scan. The
    /// differential test below holds the running totals to it.
    #[derive(Default)]
    struct ScanBuffer {
        capacity: u64,
        used: u64,
        files: BTreeMap<u64, (u64, bool)>,
        next_id: u64,
        collisions: u64,
    }

    impl ScanBuffer {
        fn create(&mut self) -> u64 {
            self.next_id += 1;
            self.files.insert(self.next_id - 1, (0, false));
            self.next_id - 1
        }

        /// The file if it is in progress, else the error `write` gives.
        fn writable(&mut self, id: u64) -> Result<&mut u64, WriteError> {
            match self.files.get_mut(&id) {
                None => Err(WriteError::NoSuchFile),
                Some((_, true)) => Err(WriteError::AlreadyComplete),
                Some((size, false)) => Ok(size),
            }
        }

        fn collide(&mut self, id: u64) {
            self.used -= self.files.remove(&id).unwrap().0;
            self.collisions += 1;
        }

        fn write(&mut self, id: u64, bytes: u64) -> Result<(), WriteError> {
            let (used, capacity) = (self.used, self.capacity);
            let size = self.writable(id)?;
            if used + bytes > capacity {
                self.collide(id);
                return Err(WriteError::NoSpace);
            }
            *size += bytes;
            self.used += bytes;
            Ok(())
        }

        fn force_enospc(&mut self, id: u64) -> Result<(), WriteError> {
            self.writable(id)?;
            self.collide(id);
            Ok(())
        }

        fn complete(&mut self, id: u64) -> Result<(), WriteError> {
            self.writable(id)?;
            self.files.get_mut(&id).unwrap().1 = true;
            Ok(())
        }

        fn delete(&mut self, id: u64) -> Result<u64, WriteError> {
            let (size, _) = self.files.remove(&id).ok_or(WriteError::NoSuchFile)?;
            self.used -= size;
            Ok(size)
        }

        fn oldest_complete(&self) -> Option<(u64, u64)> {
            let mut done = self.files.iter().filter(|(_, f)| f.1);
            done.next().map(|(&id, f)| (id, f.0))
        }

        fn complete_stats(&self) -> (u64, u64) {
            let done = self.files.values().filter(|f| f.1);
            done.fold((0, 0), |(n, bytes), f| (n + 1, bytes + f.0))
        }

        fn incomplete_count(&self) -> u64 {
            self.files.values().filter(|f| !f.1).count() as u64
        }

        fn ethernet_estimate_free(&self) -> i64 {
            let (n_done, done_bytes) = self.complete_stats();
            let avg = if n_done > 0 {
                done_bytes as f64 / n_done as f64
            } else {
                0.0
            };
            let projected = avg * self.incomplete_count() as f64;
            (self.capacity - self.used) as i64 - projected as i64
        }
    }

    #[test]
    fn running_totals_answer_as_a_scan_of_every_file_does() {
        let mut ops = 0;
        for seed in 0..200u64 {
            let mut rng = crate::SimRng::new(seed);
            let capacity = rng.range_u64(1, 8) * MB;
            let mut d = DiskBuffer::new(capacity);
            let mut m = ScanBuffer {
                capacity,
                ..ScanBuffer::default()
            };
            for _ in 0..400 {
                // Any id ever handed out, or one never handed out: every
                // error path is reachable.
                let id = rng.range_u64(0, m.next_id + 2);
                let what = rng.range_u64(0, 10);
                match what {
                    0 | 1 => assert_eq!(d.create(), FileId(m.create())),
                    2..=4 => {
                        let bytes = rng.range_u64(0, MB + 1);
                        assert_eq!(d.write(FileId(id), bytes), m.write(id, bytes));
                    }
                    5 => assert_eq!(d.force_enospc(FileId(id)), m.force_enospc(id)),
                    6 | 7 => assert_eq!(d.complete(FileId(id)), m.complete(id)),
                    _ => assert_eq!(d.delete(FileId(id)), m.delete(id)),
                }
                let oldest = m.oldest_complete().map(|(id, size)| (FileId(id), size));
                assert_eq!(d.oldest_complete(), oldest, "seed {seed}");
                assert_eq!(d.used(), m.used, "seed {seed}");
                assert_eq!(d.collisions(), m.collisions, "seed {seed}");
                assert_eq!(d.complete_stats(), m.complete_stats(), "seed {seed}");
                assert_eq!(d.incomplete_count(), m.incomplete_count(), "seed {seed}");
                assert_eq!(
                    d.ethernet_estimate_free(),
                    m.ethernet_estimate_free(),
                    "seed {seed}"
                );
                assert_eq!(d.size_of(FileId(id)), m.files.get(&id).map(|f| f.0));
                ops += 1;
            }
        }
        assert_eq!(ops, 80_000);
    }

    #[test]
    fn used_never_exceeds_capacity_under_pressure() {
        let mut d = DiskBuffer::new(3 * MB);
        let mut ids = Vec::new();
        for i in 0..10 {
            let f = d.create();
            let _ = d.write(f, (i % 4) * MB / 2 + 1);
            ids.push(f);
            assert!(d.used() <= d.capacity());
        }
    }
}
