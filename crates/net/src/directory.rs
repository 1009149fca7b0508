//! The coordinator's replica directory: which worker holds which
//! object payload at which version.
//!
//! The simulator validates the paper's locality heuristic against its
//! simulated object directory; this is the same bookkeeping for the
//! real distributed backend. The coordinator's store always holds the
//! master copy (task results are lifted back before a task completes),
//! so the directory tracks *replicas*: for every shipped object, the
//! current master version, its payload size, and the set of workers
//! holding that version. Placement scores a worker by the resident
//! bytes of a task's read set ([`Directory::resident_bytes`] feeding
//! [`jade_core::place::choose`]); shipping is skipped entirely for
//! replicas the chosen worker already holds (a *replica hit*).
//!
//! Coherence is by write-invalidation: any write to an object — a
//! remote task committing, or a local closure body taking a write
//! guard — advances the master version, which implicitly invalidates
//! every replica (they hold an older version). When a worker dies its
//! replicas die with it; re-sending a payload that only that worker
//! held is a *re-ship*, counted in
//! [`FaultStats::reshipped`](jade_core::stats::FaultStats).

use std::collections::HashMap;

/// Per-object directory entry.
#[derive(Debug, Clone)]
struct ObjEntry {
    /// Master version. 0 = the coordinator's initial value; bumped on
    /// every write.
    version: u64,
    /// Payload bytes of the current version's lowered value.
    bytes: u64,
    /// Workers holding the current version.
    holders: Vec<bool>,
    /// The current version was resident on a worker that died, so
    /// sending it again is recovery traffic (a re-ship).
    evicted: bool,
}

/// The coordinator-side replica directory. All methods take `&mut`;
/// the cluster wraps it in a mutex.
#[derive(Debug)]
pub struct Directory {
    workers: usize,
    objects: HashMap<u64, ObjEntry>,
}

impl Directory {
    /// An empty directory over `workers` machines.
    pub fn new(workers: usize) -> Self {
        Directory { workers, objects: HashMap::new() }
    }

    fn entry(&mut self, object: u64) -> &mut ObjEntry {
        let workers = self.workers;
        self.objects.entry(object).or_insert_with(|| ObjEntry {
            version: 0,
            bytes: 0,
            holders: vec![false; workers],
            evicted: false,
        })
    }

    /// The object's current master version (0 if never written).
    pub fn version(&self, object: u64) -> u64 {
        self.objects.get(&object).map_or(0, |e| e.version)
    }

    /// Whether `worker` holds `object` at exactly `version`.
    pub fn holds(&self, object: u64, version: u64, worker: usize) -> bool {
        self.objects.get(&object).is_some_and(|e| {
            e.version == version && e.holders.get(worker).copied().unwrap_or(false)
        })
    }

    /// Record that `object@version` was shipped to `worker` with a
    /// `bytes`-byte payload. Returns `true` when this ship is recovery
    /// traffic (the version had been evicted with a dead worker).
    pub fn record_ship(&mut self, object: u64, version: u64, worker: usize, bytes: u64) -> bool {
        let e = self.entry(object);
        if e.version != version {
            // Shipping a fresh version supersedes the old replicas.
            e.version = version;
            e.holders.iter_mut().for_each(|h| *h = false);
            e.evicted = false;
        }
        let reship = e.evicted;
        e.evicted = false;
        e.bytes = bytes;
        if let Some(h) = e.holders.get_mut(worker) {
            *h = true;
        }
        reship
    }

    /// A remote task on `worker` committed a write: the master moves
    /// to `version` and `worker` is its sole holder (the payload lives
    /// in its cache; everyone else is invalidated).
    pub fn commit_remote_write(&mut self, object: u64, version: u64, worker: usize, bytes: u64) {
        let e = self.entry(object);
        e.version = version;
        e.bytes = bytes;
        e.evicted = false;
        for (i, h) in e.holders.iter_mut().enumerate() {
            *h = i == worker;
        }
    }

    /// A coordinator-local body wrote `object` through a guard: bump
    /// the master version, invalidating every replica.
    pub fn note_local_write(&mut self, object: u64) {
        let e = self.entry(object);
        e.version += 1;
        e.evicted = false;
        e.holders.iter_mut().for_each(|h| *h = false);
    }

    /// `worker` died: drop its replicas. An object whose *only*
    /// current-version holder was this worker is marked evicted, so
    /// the next ship of that version counts as recovery traffic.
    pub fn evict_worker(&mut self, worker: usize) {
        for e in self.objects.values_mut() {
            if e.holders.get(worker).copied().unwrap_or(false) {
                e.holders[worker] = false;
                if !e.holders.iter().any(|&h| h) {
                    e.evicted = true;
                }
            }
        }
    }

    /// Locality affinity: bytes of `objects` (by raw id) resident on
    /// `worker` at their current versions. The same number the
    /// simulator's directory feeds the shared placement policy.
    pub fn resident_bytes(&self, objects: &[u64], worker: usize) -> u64 {
        objects
            .iter()
            .filter_map(|o| self.objects.get(o))
            .filter(|e| e.holders.get(worker).copied().unwrap_or(false))
            .map(|e| e.bytes)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ship_then_hit_then_invalidate() {
        let mut d = Directory::new(3);
        assert_eq!(d.version(7), 0);
        assert!(!d.holds(7, 0, 1));
        assert!(!d.record_ship(7, 0, 1, 24));
        assert!(d.holds(7, 0, 1));
        assert_eq!(d.resident_bytes(&[7], 1), 24);
        assert_eq!(d.resident_bytes(&[7], 0), 0);
        // A local write invalidates the replica.
        d.note_local_write(7);
        assert_eq!(d.version(7), 1);
        assert!(!d.holds(7, 0, 1));
        assert!(!d.holds(7, 1, 1));
    }

    #[test]
    fn remote_commit_makes_writer_sole_holder() {
        let mut d = Directory::new(2);
        d.record_ship(5, 0, 0, 16);
        d.record_ship(5, 0, 1, 16);
        d.commit_remote_write(5, 1, 1, 16);
        assert_eq!(d.version(5), 1);
        assert!(d.holds(5, 1, 1));
        assert!(!d.holds(5, 1, 0), "other replicas invalidated");
    }

    #[test]
    fn dead_sole_holder_marks_reship() {
        let mut d = Directory::new(2);
        d.record_ship(3, 0, 0, 8);
        d.commit_remote_write(3, 1, 0, 8);
        d.evict_worker(0);
        assert!(!d.holds(3, 1, 0));
        // Next ship of the evicted version is recovery traffic.
        assert!(d.record_ship(3, 1, 1, 8), "re-ship counted");
        assert!(!d.record_ship(3, 1, 1, 8), "only the first ship is recovery");
    }

    #[test]
    fn surviving_replica_is_not_a_reship() {
        let mut d = Directory::new(2);
        d.record_ship(3, 0, 0, 8);
        d.record_ship(3, 0, 1, 8);
        d.evict_worker(0);
        assert!(d.holds(3, 0, 1), "survivor keeps its replica");
        assert!(!d.record_ship(3, 0, 0, 8), "version still resident elsewhere");
    }
}
