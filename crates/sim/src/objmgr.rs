//! The distributed object manager: directories, migration,
//! replication and invalidation.
//!
//! In a message-passing environment the Jade implementation "moves or
//! copies objects between machines as necessary to implement the
//! shared address space abstraction" (§5). This module decides *what
//! must move* for a task's enabled access:
//!
//! * a **write** access moves the authoritative version to the
//!   accessing machine and invalidates every replica (Figure 7(c):
//!   "the implementation has moved column 0 ... and deallocated the
//!   version on the first machine");
//! * a **read** access replicates the object, leaving the source
//!   intact so machines read concurrently ("Object Replication", §5);
//! * a writer that already holds a valid replica upgrades ownership
//!   with a control message instead of re-sending the data.
//!
//! The same module also implements the **page-granularity baseline**
//! of §6.1: with [`Granularity::Page`], residency, transfer sizes and
//! invalidation are accounted per virtual-memory page, so objects that
//! share a page *false-share* — a write to one object invalidates its
//! page-mates' residency everywhere, reproducing the extra traffic the
//! paper attributes to page-based distributed shared memory. (Object
//! *values* are still sourced from the object's last writer so results
//! stay exact; only traffic accounting is page-granular. Real
//! page-DSM would serialize such writers and ping-pong even more, so
//! the baseline is, if anything, optimistic.)

use jade_core::fasthash::FastMap;
use jade_core::ids::ObjectId;

/// Sharing granularity of the coherence protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Granularity {
    /// Jade's model: individual shared objects.
    Object,
    /// Page-based DSM baseline with the given page size in bytes.
    Page(usize),
}

/// One data or control message the plan requires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transfer {
    /// Source machine.
    pub from: usize,
    /// Payload bytes on the wire (page size in page mode, encoded
    /// object size in object mode, or a small control message).
    pub bytes: usize,
    /// Whether this transfer carries object data (drives value
    /// movement and format conversion) or is control-only.
    pub data: bool,
}

/// The result of planning a fetch.
#[derive(Debug, Default, Clone)]
pub struct FetchPlan {
    /// Messages to schedule (possibly empty if already resident).
    pub transfers: Vec<Transfer>,
    /// Machines whose replica of the object was invalidated (write
    /// fetches only). The runtime drops their store slots.
    pub invalidate: Vec<usize>,
    /// Whether this was an ownership upgrade without data.
    pub upgraded: bool,
    /// Whether the requesting machine must re-materialize the value
    /// from `value_source` (i.e. its local version is missing/stale).
    pub need_value: bool,
    /// Machine holding the authoritative value before this fetch.
    pub value_source: usize,
}

#[derive(Debug)]
struct ObjEntry {
    owner: usize,
    copies: Vec<usize>,
    size: usize,
    first_page: u64,
    page_count: u64,
}

#[derive(Debug, Default)]
struct PageEntry {
    owner: usize,
    copies: Vec<usize>,
}

/// Size of a control/request message on the wire.
pub const CTRL_BYTES: usize = 64;

/// Directory of object (and, in page mode, page) residency.
#[derive(Debug)]
pub struct ObjDirectory {
    gran: Granularity,
    objs: FastMap<ObjectId, ObjEntry>,
    pages: FastMap<u64, PageEntry>,
    next_addr: u64,
}

fn insert_unique(v: &mut Vec<usize>, m: usize) {
    if !v.contains(&m) {
        v.push(m);
    }
}

impl ObjDirectory {
    /// Create a directory with the given granularity.
    pub fn new(gran: Granularity) -> Self {
        ObjDirectory { gran, objs: FastMap::default(), pages: FastMap::default(), next_addr: 0 }
    }

    /// The configured granularity.
    pub fn granularity(&self) -> Granularity {
        self.gran
    }

    /// Register a newly created object, resident at its creator.
    pub fn register(&mut self, oid: ObjectId, machine: usize, size: usize) {
        let (first_page, page_count) = match self.gran {
            Granularity::Object => (0, 0),
            Granularity::Page(ps) => {
                let ps = ps as u64;
                // Bump allocation in a flat address space, 8-byte
                // aligned: small objects share pages (false sharing).
                let addr = (self.next_addr + 7) & !7;
                let sz = size.max(1) as u64;
                self.next_addr = addr + sz;
                let first = addr / ps;
                let last = (addr + sz - 1) / ps;
                for p in first..=last {
                    let e = self.pages.entry(p).or_default();
                    e.owner = machine;
                    insert_unique(&mut e.copies, machine);
                }
                (first, last - first + 1)
            }
        };
        self.objs.insert(
            oid,
            ObjEntry { owner: machine, copies: vec![machine], size, first_page, page_count },
        );
    }

    /// Current authoritative holder of the object's value.
    pub fn owner(&self, oid: ObjectId) -> usize {
        self.objs[&oid].owner
    }

    /// Whether `machine` holds a valid version for reading.
    pub fn readable_at(&self, oid: ObjectId, machine: usize) -> bool {
        self.objs[&oid].copies.contains(&machine)
    }

    /// Bytes of the listed objects' data currently valid at `machine`
    /// — the locality-heuristic affinity score.
    pub fn resident_bytes(
        &self,
        objects: impl IntoIterator<Item = ObjectId>,
        machine: usize,
    ) -> u64 {
        objects
            .into_iter()
            .filter_map(|o| self.objs.get(&o))
            .filter(|e| e.copies.contains(&machine))
            .map(|e| e.size as u64)
            .sum()
    }

    /// Record that the object's encoded size changed (it was written);
    /// keeps transfer accounting honest for growing objects.
    pub fn update_size(&mut self, oid: ObjectId, size: usize) {
        if let Some(e) = self.objs.get_mut(&oid) {
            e.size = size;
        }
    }

    /// Plan (and commit, in directory state) the residency changes for
    /// `machine` to perform a `write`/read access to `oid`. The
    /// returned plan tells the runtime what messages to schedule and
    /// which store slots to drop.
    pub fn plan_fetch(&mut self, oid: ObjectId, machine: usize, write: bool) -> FetchPlan {
        match self.gran {
            Granularity::Object => self.plan_object(oid, machine, write),
            Granularity::Page(_) => self.plan_page(oid, machine, write),
        }
    }

    fn plan_object(&mut self, oid: ObjectId, machine: usize, write: bool) -> FetchPlan {
        let e = self.objs.get_mut(&oid).expect("only created, so registered, objects are fetched");
        let mut plan = FetchPlan { value_source: e.owner, ..Default::default() };
        if write {
            if e.owner == machine {
                // Already own it; invalidate any other replica.
                plan.invalidate = e.copies.iter().copied().filter(|&m| m != machine).collect();
                e.copies.retain(|&m| m == machine);
                return plan;
            }
            if e.copies.contains(&machine) {
                // Valid replica present: ownership upgrade, no data.
                plan.transfers.push(Transfer { from: e.owner, bytes: CTRL_BYTES, data: false });
                plan.upgraded = true;
            } else {
                plan.transfers.push(Transfer { from: e.owner, bytes: e.size, data: true });
                plan.need_value = true;
            }
            plan.invalidate = e.copies.iter().copied().filter(|&m| m != machine).collect();
            e.owner = machine;
            e.copies = vec![machine];
        } else {
            if e.copies.contains(&machine) {
                return plan;
            }
            plan.transfers.push(Transfer { from: e.owner, bytes: e.size, data: true });
            plan.need_value = true;
            insert_unique(&mut e.copies, machine);
        }
        plan
    }

    /// The object protocol decides the value's validity and source
    /// (results stay exact); traffic and invalidations are per page.
    fn plan_page(&mut self, oid: ObjectId, machine: usize, write: bool) -> FetchPlan {
        let Granularity::Page(ps) = self.gran else { unreachable!() };
        let obj = self.plan_object(oid, machine, write);
        let mut plan = FetchPlan {
            need_value: obj.need_value,
            value_source: obj.value_source,
            ..Default::default()
        };
        let e = &self.objs[&oid];
        for p in e.first_page..e.first_page + e.page_count {
            let pe = self.pages.get_mut(&p).expect("registering creates the pages an object spans");
            if write {
                if pe.owner != machine {
                    plan.transfers.push(Transfer { from: pe.owner, bytes: ps, data: true });
                }
                for &m in &pe.copies {
                    if m != machine && !plan.invalidate.contains(&m) {
                        plan.invalidate.push(m);
                    }
                }
                pe.owner = machine;
                pe.copies = vec![machine];
            } else if !pe.copies.contains(&machine) {
                plan.transfers.push(Transfer { from: pe.owner, bytes: ps, data: true });
                insert_unique(&mut pe.copies, machine);
            }
        }
        if plan.need_value && plan.transfers.is_empty() {
            // Pages looked resident but the value was stale (a page
            // mate's traffic kept the page around): real DSM would
            // have invalidated it — charge one page fetch.
            plan.transfers.push(Transfer { from: plan.value_source, bytes: ps, data: true });
        }
        plan
    }

    /// A machine crashed: reassign residency away from it. Objects it
    /// owned whose replicas survive elsewhere get a surviving replica
    /// elected as the new owner (replicas hold the authoritative value
    /// — any write would have invalidated them); its replica markers
    /// are dropped so post-rejoin reads refetch. Objects solely
    /// resident on the crashed machine keep it as owner: the value
    /// survives on its stable store and becomes reachable again at
    /// rejoin. Returns `(object, new_owner)` for each ownership move.
    pub fn fail_machine(&mut self, machine: usize) -> Vec<(ObjectId, usize)> {
        // Objects are walked in id order, so `moved` never depends on
        // the map's hash order; each page's update depends on that page
        // alone, so pages are walked in any order.
        let mut moved = Vec::new();
        let mut objs: Vec<_> = self.objs.iter_mut().collect();
        objs.sort_unstable_by_key(|&(&oid, _)| oid);
        for (&oid, e) in objs {
            let Some(&survivor) = e.copies.iter().find(|&&c| c != machine) else {
                continue;
            };
            if e.owner == machine {
                e.owner = survivor;
                moved.push((oid, survivor));
            }
            e.copies.retain(|&c| c != machine);
        }
        for pe in self.pages.values_mut() {
            let Some(&survivor) = pe.copies.iter().find(|&&c| c != machine) else {
                continue;
            };
            if pe.owner == machine {
                pe.owner = survivor;
            }
            pe.copies.retain(|&c| c != machine);
        }
        moved
    }

    /// Drop `machine`'s replica markers for an object (used when the
    /// runtime processes invalidations).
    pub fn forget_replica(&mut self, oid: ObjectId, machine: usize) {
        if let Some(e) = self.objs.get_mut(&oid) {
            if e.owner != machine {
                e.copies.retain(|&m| m != machine);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const O: ObjectId = ObjectId(1);
    const P: ObjectId = ObjectId(2);

    #[test]
    fn read_replicates_write_invalidates() {
        let mut d = ObjDirectory::new(Granularity::Object);
        d.register(O, 0, 800);
        // Machine 1 reads: one data transfer, both hold copies.
        let r = d.plan_fetch(O, 1, false);
        assert_eq!(r.transfers, vec![Transfer { from: 0, bytes: 800, data: true }]);
        assert!(d.readable_at(O, 0) && d.readable_at(O, 1));
        // Machine 2 reads from the owner.
        let r2 = d.plan_fetch(O, 2, false);
        assert_eq!(r2.transfers[0].from, 0);
        // Machine 1 writes: upgrade (it holds a copy), others invalid.
        let w = d.plan_fetch(O, 1, true);
        assert!(w.upgraded);
        assert_eq!(w.transfers[0].bytes, CTRL_BYTES);
        assert_eq!(w.invalidate, vec![0, 2]);
        assert_eq!(d.owner(O), 1);
        assert!(!d.readable_at(O, 0));
    }

    #[test]
    fn repeated_read_is_free() {
        let mut d = ObjDirectory::new(Granularity::Object);
        d.register(O, 0, 100);
        d.plan_fetch(O, 1, false);
        let again = d.plan_fetch(O, 1, false);
        assert!(again.transfers.is_empty());
    }

    #[test]
    fn write_without_copy_moves_data() {
        let mut d = ObjDirectory::new(Granularity::Object);
        d.register(O, 0, 500);
        let w = d.plan_fetch(O, 3, true);
        assert_eq!(w.transfers, vec![Transfer { from: 0, bytes: 500, data: true }]);
        assert!(w.need_value && !w.upgraded);
        assert_eq!(w.invalidate, vec![0]);
    }

    #[test]
    fn locality_score_counts_resident_bytes() {
        let mut d = ObjDirectory::new(Granularity::Object);
        d.register(O, 0, 100);
        d.register(P, 1, 900);
        assert_eq!(d.resident_bytes([O, P], 0), 100);
        assert_eq!(d.resident_bytes([O, P], 1), 900);
        d.plan_fetch(P, 0, false);
        assert_eq!(d.resident_bytes([O, P], 0), 1000);
    }

    #[test]
    fn page_mode_false_sharing() {
        // Two small objects land on the same 4 KiB page.
        let mut d = ObjDirectory::new(Granularity::Page(4096));
        d.register(O, 0, 64);
        d.register(P, 0, 64);
        // Machine 1 reads O: fetches the shared page.
        let r = d.plan_fetch(O, 1, false);
        assert_eq!(r.transfers, vec![Transfer { from: 0, bytes: 4096, data: true }]);
        // Machine 2 writes P: invalidates the page at 0 AND 1 even
        // though machine 1 only ever touched O — false sharing.
        let w = d.plan_fetch(P, 2, true);
        assert!(w.invalidate.contains(&1));
        // Machine 1 re-reads O: the page must come back.
        let r2 = d.plan_fetch(O, 1, false);
        assert_eq!(r2.transfers.len(), 1);
        assert_eq!(r2.transfers[0].from, 2);
    }

    #[test]
    fn page_mode_large_object_spans_pages() {
        let mut d = ObjDirectory::new(Granularity::Page(4096));
        d.register(O, 0, 10_000); // 3 pages
        let r = d.plan_fetch(O, 1, false);
        assert_eq!(r.transfers.len(), 3);
        assert!(r.transfers.iter().all(|t| t.bytes == 4096));
    }

    #[test]
    fn object_mode_rewrite_by_owner_is_free() {
        let mut d = ObjDirectory::new(Granularity::Object);
        d.register(O, 0, 100);
        let w = d.plan_fetch(O, 0, true);
        assert!(w.transfers.is_empty() && w.invalidate.is_empty());
    }
}
