//! Access specifications: the information Jade programmers provide.
//!
//! A task's access specification is built by running an arbitrary
//! piece of code (the `withonly { ... }` access-declaration section)
//! against a [`SpecBuilder`]. Because the declaration section is code,
//! it may contain loops, conditionals and dynamically resolved object
//! references — this is what lets Jade express dynamic, data-dependent
//! concurrency such as the sparse Cholesky factorization's
//! `rd_wr(c[r[j]].column)`.
//!
//! The pipelining statements of §4.2 (`df_rd`, `df_wr`, `no_rd`,
//! `no_wr`) are built with a [`ContBuilder`] inside a
//! `with { ... } cont;` construct ([`crate::ctx::JadeCtx::with_cont`]);
//! the §4.3 higher-level commuting-update declaration is
//! [`SpecBuilder::cm`] (released early by [`ContBuilder::no_cm`]).

use std::fmt;

use crate::ids::{ObjectId, Placement};

/// The ways a task can touch an object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// The task observes the object's value.
    Read,
    /// The task mutates the object's value.
    Write,
    /// The task applies an order-independent (commuting) update —
    /// the §4.3 "higher-level" specification: "the programmer may know
    /// that even though two tasks update the same object, the updates
    /// can happen in either order." Commuting updates exclude reads
    /// and writes but not each other; the runtime serializes the
    /// actual accesses without constraining their order.
    Commute,
}

impl AccessKind {
    /// Every kind, in the order the sides of a declaration are listed.
    pub const ALL: [AccessKind; 3] = [AccessKind::Read, AccessKind::Write, AccessKind::Commute];
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessKind::Read => write!(f, "read"),
            AccessKind::Write => write!(f, "write"),
            AccessKind::Commute => write!(f, "commuting-update"),
        }
    }
}

/// The lifecycle state of one side (read or write) of a declaration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DeclState {
    /// The task never declared this kind of access.
    None,
    /// Declared as deferred (`df_rd`/`df_wr`): the task holds a serial
    /// position for the access but may not perform it yet, and the
    /// access does not gate task start.
    Deferred,
    /// Declared as immediate (`rd`/`wr`/`rd_wr`, or converted from
    /// deferred by a `with-cont`): the task may perform the access as
    /// soon as the declaration is enabled.
    Immediate,
    /// Retired by `no_rd`/`no_wr` (or never-used deferred rights after
    /// completion): the task promises not to perform this access any
    /// more, releasing successors early.
    Retired,
}

impl DeclState {
    /// Whether this side still holds a position that blocks
    /// conflicting successors in the object queue.
    #[inline]
    pub fn is_active(self) -> bool {
        matches!(self, DeclState::Deferred | DeclState::Immediate)
    }
}

/// The rights one declaration grants for one object: a read side, a
/// write side and a commuting-update side, each possibly deferred.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DeclRights {
    /// Read side of the declaration.
    pub read: DeclState,
    /// Write side of the declaration.
    pub write: DeclState,
    /// Commuting-update side (§4.3).
    pub commute: DeclState,
}

impl DeclRights {
    /// A declaration with no rights (an anchor; see the engine docs).
    pub const NONE: DeclRights =
        DeclRights { read: DeclState::None, write: DeclState::None, commute: DeclState::None };

    /// `rd`: immediate read.
    pub const RD: DeclRights =
        DeclRights { read: DeclState::Immediate, write: DeclState::None, commute: DeclState::None };

    /// `wr`: immediate write.
    pub const WR: DeclRights =
        DeclRights { read: DeclState::None, write: DeclState::Immediate, commute: DeclState::None };

    /// `rd_wr`: immediate read and write.
    pub const RD_WR: DeclRights = DeclRights {
        read: DeclState::Immediate,
        write: DeclState::Immediate,
        commute: DeclState::None,
    };

    /// `df_rd`: deferred read.
    pub const DF_RD: DeclRights =
        DeclRights { read: DeclState::Deferred, write: DeclState::None, commute: DeclState::None };

    /// `df_wr`: deferred write.
    pub const DF_WR: DeclRights =
        DeclRights { read: DeclState::None, write: DeclState::Deferred, commute: DeclState::None };

    /// `cm`: immediate commuting update (§4.3).
    pub const CM: DeclRights =
        DeclRights { read: DeclState::None, write: DeclState::None, commute: DeclState::Immediate };

    /// The state of the side that `kind` accesses go through.
    #[inline]
    pub fn side(self, kind: AccessKind) -> DeclState {
        match kind {
            AccessKind::Read => self.read,
            AccessKind::Write => self.write,
            AccessKind::Commute => self.commute,
        }
    }

    /// Whether any side is still active.
    #[inline]
    pub fn is_active(self) -> bool {
        self.read.is_active() || self.write.is_active() || self.commute.is_active()
    }

    /// Whether the declaration ever had any rights at all.
    #[inline]
    pub fn is_declared(self) -> bool {
        self.read != DeclState::None
            || self.write != DeclState::None
            || self.commute != DeclState::None
    }

    /// Merge a second declaration for the same object into this one
    /// (e.g. `rd` followed by `df_wr`). Immediate wins over deferred,
    /// deferred over none.
    pub fn merge(self, other: DeclRights) -> DeclRights {
        fn stronger(a: DeclState, b: DeclState) -> DeclState {
            use DeclState::*;
            match (a, b) {
                (Immediate, _) | (_, Immediate) => Immediate,
                (Deferred, _) | (_, Deferred) => Deferred,
                (Retired, _) | (_, Retired) => Retired,
                (None, None) => None,
            }
        }
        DeclRights {
            read: stronger(self.read, other.read),
            write: stronger(self.write, other.write),
            commute: stronger(self.commute, other.commute),
        }
    }

    /// Whether `child` rights are covered by `self` (the parent-side
    /// rights): a child may only declare accesses its parent declared,
    /// regardless of deferredness. A parent's write right covers a
    /// child's commuting update (a write is strictly stronger).
    pub fn covers(self, child: DeclRights) -> bool {
        (!child.read.is_active() || self.read.is_active())
            && (!child.write.is_active() || self.write.is_active())
            && (!child.commute.is_active() || self.commute.is_active() || self.write.is_active())
    }
}

/// One object's entry in a task's access specification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Declaration {
    /// The shared object being declared.
    pub object: ObjectId,
    /// The declared rights.
    pub rights: DeclRights,
}

/// Builder the access-declaration section runs against.
///
/// Mirrors the paper's access specification statements:
/// `rd`, `wr`, `rd_wr`, `df_rd`, `df_wr`. Multiple statements for the
/// same object merge (strongest state per side wins).
#[derive(Debug, Default)]
pub struct SpecBuilder {
    decls: Vec<Declaration>,
    placement: Placement,
}

impl SpecBuilder {
    /// Create an empty specification.
    pub fn new() -> Self {
        SpecBuilder { decls: Vec::new(), placement: Placement::Any }
    }

    fn add(&mut self, object: ObjectId, rights: DeclRights) {
        if let Some(d) = self.decls.iter_mut().find(|d| d.object == object) {
            d.rights = d.rights.merge(rights);
        } else {
            self.decls.push(Declaration { object, rights });
        }
    }

    /// Declare that the task may read the object (`rd`).
    pub fn rd(&mut self, object: impl Into<ObjectId>) -> &mut Self {
        self.add(object.into(), DeclRights::RD);
        self
    }

    /// Declare that the task may write the object (`wr`).
    pub fn wr(&mut self, object: impl Into<ObjectId>) -> &mut Self {
        self.add(object.into(), DeclRights::WR);
        self
    }

    /// Declare that the task may read and write the object (`rd_wr`).
    pub fn rd_wr(&mut self, object: impl Into<ObjectId>) -> &mut Self {
        self.add(object.into(), DeclRights::RD_WR);
        self
    }

    /// Declare a deferred read (`df_rd`, §4.2): the task may
    /// *eventually* read the object but will not do so immediately,
    /// so the declaration does not delay task start.
    pub fn df_rd(&mut self, object: impl Into<ObjectId>) -> &mut Self {
        self.add(object.into(), DeclRights::DF_RD);
        self
    }

    /// Declare a deferred write (`df_wr`).
    pub fn df_wr(&mut self, object: impl Into<ObjectId>) -> &mut Self {
        self.add(object.into(), DeclRights::DF_WR);
        self
    }

    /// Declare a commuting update (`cm`, §4.3): the task will update
    /// the object, the update commutes with other tasks' declared
    /// commuting updates, so the runtime may execute them in any
    /// order. Excludes concurrent readers and writers.
    pub fn cm(&mut self, object: impl Into<ObjectId>) -> &mut Self {
        self.add(object.into(), DeclRights::CM);
        self
    }

    /// Request a placement for the task (§4.5 low-level control).
    pub fn place(&mut self, placement: Placement) -> &mut Self {
        self.placement = placement;
        self
    }

    /// Finish building, yielding the declarations and placement.
    pub fn build(self) -> (Vec<Declaration>, Placement) {
        (self.decls, self.placement)
    }

    /// The declarations collected so far.
    pub fn declarations(&self) -> &[Declaration] {
        &self.decls
    }
}

/// One `with-cont` operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContOp {
    /// Convert a deferred read to an immediate read (`rd` inside a
    /// `with-cont`); blocks the task until the read is enabled.
    ToRd,
    /// Convert a deferred write to an immediate write (`wr` inside a
    /// `with-cont`).
    ToWr,
    /// Retire the read side (`no_rd`): the task will no longer read
    /// the object, releasing later writers early.
    NoRd,
    /// Retire the write side (`no_wr`).
    NoWr,
    /// Retire the commuting-update side (`no_cm`): the task has
    /// finished its commuting updates to the object.
    NoCm,
}

/// Builder the `with { ... } cont;` declaration section runs against.
#[derive(Debug, Default)]
pub struct ContBuilder {
    ops: Vec<(ObjectId, ContOp)>,
}

impl ContBuilder {
    /// Create an empty change set.
    pub fn new() -> Self {
        ContBuilder { ops: Vec::new() }
    }

    /// `rd(o)` inside a with-cont: convert the deferred read
    /// declaration on `o` to an immediate one.
    pub fn to_rd(&mut self, object: impl Into<ObjectId>) -> &mut Self {
        self.ops.push((object.into(), ContOp::ToRd));
        self
    }

    /// `wr(o)` inside a with-cont: convert the deferred write
    /// declaration on `o` to an immediate one.
    pub fn to_wr(&mut self, object: impl Into<ObjectId>) -> &mut Self {
        self.ops.push((object.into(), ContOp::ToWr));
        self
    }

    /// `no_rd(o)`: declare the task has finished reading `o`.
    pub fn no_rd(&mut self, object: impl Into<ObjectId>) -> &mut Self {
        self.ops.push((object.into(), ContOp::NoRd));
        self
    }

    /// `no_wr(o)`: declare the task has finished writing `o`.
    pub fn no_wr(&mut self, object: impl Into<ObjectId>) -> &mut Self {
        self.ops.push((object.into(), ContOp::NoWr));
        self
    }

    /// `no_cm(o)`: declare the task has finished its commuting
    /// updates to `o`, releasing waiting readers/writers early.
    pub fn no_cm(&mut self, object: impl Into<ObjectId>) -> &mut Self {
        self.ops.push((object.into(), ContOp::NoCm));
        self
    }

    /// Finish building, yielding the ordered operations.
    pub fn build(self) -> Vec<(ObjectId, ContOp)> {
        self.ops
    }

    /// The operations collected so far.
    pub fn ops(&self) -> &[(ObjectId, ContOp)] {
        &self.ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn o(n: u64) -> ObjectId {
        ObjectId(n)
    }

    #[test]
    fn merge_takes_strongest_per_side() {
        let m = DeclRights::DF_RD.merge(DeclRights::WR);
        assert_eq!(m.read, DeclState::Deferred);
        assert_eq!(m.write, DeclState::Immediate);
        let m2 = DeclRights::RD.merge(DeclRights::DF_RD);
        assert_eq!(m2.read, DeclState::Immediate);
    }

    #[test]
    fn builder_merges_duplicate_objects() {
        let mut b = SpecBuilder::new();
        b.rd(o(1)).wr(o(1)).rd(o(2));
        let (decls, _) = b.build();
        assert_eq!(decls.len(), 2);
        let d1 = decls.iter().find(|d| d.object == o(1)).unwrap();
        assert_eq!(d1.rights, DeclRights::RD_WR);
    }

    #[test]
    fn coverage_rules() {
        assert!(DeclRights::RD_WR.covers(DeclRights::RD));
        assert!(DeclRights::RD_WR.covers(DeclRights::WR));
        assert!(DeclRights::DF_RD.covers(DeclRights::RD)); // deferredness irrelevant
        assert!(!DeclRights::RD.covers(DeclRights::WR));
        assert!(!DeclRights::WR.covers(DeclRights::RD));
        assert!(DeclRights::RD.covers(DeclRights::NONE));
    }

    #[test]
    fn cont_builder_preserves_order() {
        let mut c = ContBuilder::new();
        c.to_rd(o(5)).no_rd(o(5));
        let ops = c.build();
        assert_eq!(ops, vec![(o(5), ContOp::ToRd), (o(5), ContOp::NoRd)]);
    }

    #[test]
    fn active_states() {
        assert!(DeclState::Deferred.is_active());
        assert!(DeclState::Immediate.is_active());
        assert!(!DeclState::Retired.is_active());
        assert!(!DeclState::None.is_active());
        assert!(DeclRights::DF_WR.is_active());
        assert!(!DeclRights::NONE.is_active());
    }

    #[test]
    fn commute_rights_and_coverage() {
        assert!(DeclRights::CM.is_active());
        assert!(DeclRights::CM.is_declared());
        // A parent's write covers a child's commuting update; a
        // parent's read does not.
        assert!(DeclRights::WR.covers(DeclRights::CM));
        assert!(DeclRights::CM.covers(DeclRights::CM));
        assert!(!DeclRights::RD.covers(DeclRights::CM));
        // Commute does not cover read or write.
        assert!(!DeclRights::CM.covers(DeclRights::RD));
        assert!(!DeclRights::CM.covers(DeclRights::WR));
        let merged = DeclRights::CM.merge(DeclRights::RD);
        assert_eq!(merged.commute, DeclState::Immediate);
        assert_eq!(merged.read, DeclState::Immediate);
    }

    #[test]
    fn dynamic_spec_via_loop() {
        // The paper's backsubst declares a whole matrix with a loop.
        let mut b = SpecBuilder::new();
        for i in 0..10u64 {
            b.df_rd(o(i));
        }
        assert_eq!(b.declarations().len(), 10);
    }
}
