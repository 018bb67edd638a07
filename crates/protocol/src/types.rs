//! Request, conflict, and transaction-visibility types shared between the
//! protocol engine and the HTM layer.

use std::fmt;

use commtm_cache::SpecBits;
use commtm_mem::{CoreId, LabelId};

/// One memory operation issued by a core.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemOp {
    /// Conventional load.
    Load,
    /// Conventional store of a word value.
    Store(u64),
    /// Labeled load (`load[L]`, Sec. III-A).
    LoadL(LabelId),
    /// Labeled store (`store[L]`).
    StoreL(LabelId, u64),
    /// Gather request (`load_gather[L]`, Sec. IV).
    Gather(LabelId),
}

impl MemOp {
    /// The label carried by the operation, if any.
    pub fn label(&self) -> Option<LabelId> {
        match *self {
            MemOp::LoadL(l) | MemOp::StoreL(l, _) | MemOp::Gather(l) => Some(l),
            MemOp::Load | MemOp::Store(_) => None,
        }
    }

    /// Whether the operation is a labeled access (including gathers).
    pub fn is_labeled(&self) -> bool {
        self.label().is_some()
    }

    /// Whether the operation writes data.
    pub fn is_store(&self) -> bool {
        matches!(self, MemOp::Store(_) | MemOp::StoreL(..))
    }
}

/// Coarse classification of a request for conflict bookkeeping.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReqClass {
    /// Conventional read (GETS).
    PlainRead,
    /// Conventional write (GETX).
    PlainWrite,
    /// Labeled access (GETU).
    Labeled,
    /// Split request on behalf of a gather.
    Split,
    /// Inclusion-driven recall (LLC eviction) or other non-request cause.
    Recall,
}

/// Why a transaction aborted. Mirrors the paper's Fig. 18 taxonomy via
/// [`AbortKind::bucket`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AbortKind {
    /// A read requested data this transaction wrote (or updated with
    /// labeled operations).
    ReadAfterWrite,
    /// A write requested data this transaction read.
    WriteAfterRead,
    /// A write requested data this transaction wrote.
    WriteAfterWrite,
    /// A gather's split request hit data this transaction accessed with
    /// labeled operations.
    GatherAfterLabeled,
    /// A labeled request with a different label forced a reduction of data
    /// this transaction touched.
    CrossLabel,
    /// The transaction issued an unlabeled access to data it had itself
    /// speculatively modified with labeled operations (Sec. III-B4); it
    /// restarts with labels demoted.
    SelfDemote,
    /// Speculatively-accessed data was evicted from the private hierarchy.
    Eviction,
    /// The inclusive L3 evicted a line the transaction had accessed.
    LlcEviction,
    /// A U-state eviction forwarded data onto a line the transaction
    /// touched (Sec. III-B5).
    UEvictionForward,
}

/// The paper's Fig. 18 wasted-cycle buckets.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum WasteBucket {
    /// "Read after Write" dependency violations.
    ReadAfterWrite,
    /// "Write after Read" dependency violations.
    WriteAfterRead,
    /// "Gather after Labeled access" conflicts.
    GatherAfterLabeled,
    /// Everything else (WaW, cross-label reductions, evictions, demotions).
    Others,
}

impl WasteBucket {
    /// All buckets, in the paper's legend order.
    pub const ALL: [WasteBucket; 4] = [
        WasteBucket::ReadAfterWrite,
        WasteBucket::WriteAfterRead,
        WasteBucket::GatherAfterLabeled,
        WasteBucket::Others,
    ];

    /// Display name matching the paper's Fig. 18 legend.
    pub fn name(self) -> &'static str {
        match self {
            WasteBucket::ReadAfterWrite => "Read after Write",
            WasteBucket::WriteAfterRead => "Write after Read",
            WasteBucket::GatherAfterLabeled => "Gather after Labeled access",
            WasteBucket::Others => "Others",
        }
    }
}

impl AbortKind {
    /// Maps the detailed cause to the paper's Fig. 18 bucket.
    pub fn bucket(self) -> WasteBucket {
        match self {
            AbortKind::ReadAfterWrite => WasteBucket::ReadAfterWrite,
            AbortKind::WriteAfterRead => WasteBucket::WriteAfterRead,
            AbortKind::GatherAfterLabeled => WasteBucket::GatherAfterLabeled,
            AbortKind::WriteAfterWrite
            | AbortKind::CrossLabel
            | AbortKind::SelfDemote
            | AbortKind::Eviction
            | AbortKind::LlcEviction
            | AbortKind::UEvictionForward => WasteBucket::Others,
        }
    }
}

impl fmt::Display for AbortKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// Classifies a conflict between a request and the victim's speculative
/// footprint on the conflicting line. The same classification is charged to
/// whichever side ends up aborting (victim on comply, requester on NACK),
/// matching how the paper attributes wasted cycles to dependency types.
pub fn classify_conflict(req: ReqClass, victim: SpecBits) -> AbortKind {
    match req {
        ReqClass::PlainRead => AbortKind::ReadAfterWrite,
        ReqClass::PlainWrite => {
            if victim.written || victim.labeled {
                AbortKind::WriteAfterWrite
            } else {
                AbortKind::WriteAfterRead
            }
        }
        ReqClass::Labeled => {
            if victim.labeled {
                AbortKind::CrossLabel
            } else {
                // A commutative update acts as a write against plain
                // footprints.
                if victim.written {
                    AbortKind::WriteAfterWrite
                } else {
                    AbortKind::WriteAfterRead
                }
            }
        }
        ReqClass::Split => AbortKind::GatherAfterLabeled,
        ReqClass::Recall => AbortKind::LlcEviction,
    }
}

/// Outcome of timestamp arbitration for a conflicting request
/// (Sec. III-B3: the earlier transaction wins).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Arbitration {
    /// The victim honors the request and aborts.
    VictimAborts,
    /// The victim NACKs; the requester must abort.
    Nack,
}

/// Decides a conflict by timestamp. `req_ts` is `None` for non-speculative
/// requests (plain blocks, reduction handlers, evictions), which cannot be
/// NACKed and therefore always win.
pub fn arbitrate(req_ts: Option<u64>, victim_ts: u64) -> Arbitration {
    match req_ts {
        None => Arbitration::VictimAborts,
        Some(ts) if ts < victim_ts => Arbitration::VictimAborts,
        Some(_) => Arbitration::Nack,
    }
}

/// Per-core transaction visibility the HTM layer shares with the protocol.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TxEntry {
    /// Whether the core is currently inside a transaction.
    pub active: bool,
    /// The transaction's timestamp (valid when `active`).
    pub ts: u64,
}

/// The table of per-core transaction states.
#[derive(Clone, Debug, Default)]
pub struct TxTable {
    entries: Vec<TxEntry>,
}

impl TxTable {
    /// Creates a table for `cores` cores, all idle.
    pub fn new(cores: usize) -> Self {
        TxTable {
            entries: vec![TxEntry::default(); cores],
        }
    }

    /// The entry for a core.
    pub fn entry(&self, core: CoreId) -> TxEntry {
        self.entries[core.index()]
    }

    /// Marks a core as inside a transaction with timestamp `ts`.
    pub fn begin(&mut self, core: CoreId, ts: u64) {
        self.entries[core.index()] = TxEntry { active: true, ts };
    }

    /// Marks a core as idle (commit or abort).
    pub fn end(&mut self, core: CoreId) {
        self.entries[core.index()].active = false;
    }

    /// The timestamp of the core's transaction, if one is active.
    pub fn active_ts(&self, core: CoreId) -> Option<u64> {
        let e = self.entries[core.index()];
        e.active.then_some(e.ts)
    }

    /// Number of cores tracked.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table tracks zero cores.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// A protocol-side event the HTM layer must react to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProtoEvent {
    /// A victim core's transaction was aborted (its cache state has already
    /// been rolled back and its [`TxTable`] entry deactivated).
    Aborted {
        /// The aborted core.
        core: CoreId,
        /// Why it aborted.
        cause: AbortKind,
    },
}

/// The result of one [`crate::MemSystem::access_into`]: everything in
/// [`Access`] except the event list, which is appended to the caller's
/// reusable buffer instead of allocated per access. This is what keeps the
/// simulator's access loop allocation-free in steady state.
#[derive(Clone, Copy, Debug)]
pub struct AccessOutcome {
    /// The value loaded (stores echo the stored value; a NACKed requester
    /// gets an unspecified value and must retry after aborting).
    pub value: u64,
    /// Cycles the access took beyond the 1-cycle issue cost.
    pub latency: u64,
    /// If set, the *requesting* transaction must abort with this cause.
    pub self_abort: Option<AbortKind>,
}

/// The result of one [`crate::MemSystem::access`].
#[derive(Clone, Debug)]
pub struct Access {
    /// The value loaded (stores echo the stored value; a NACKed requester
    /// gets an unspecified value and must retry after aborting).
    pub value: u64,
    /// Cycles the access took beyond the 1-cycle issue cost.
    pub latency: u64,
    /// If set, the *requesting* transaction must abort with this cause
    /// (NACKed request, self-demotion, or own-footprint eviction). Cache
    /// state for the requester has already been rolled back.
    pub self_abort: Option<AbortKind>,
    /// Victim aborts and other events produced by the access.
    pub events: Vec<ProtoEvent>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(read: bool, written: bool, labeled: bool) -> SpecBits {
        SpecBits {
            read,
            written,
            labeled,
            label: None,
            dirty_data: written || labeled,
        }
    }

    #[test]
    fn classification_matches_fig18_legend() {
        assert_eq!(
            classify_conflict(ReqClass::PlainRead, bits(false, true, false)),
            AbortKind::ReadAfterWrite
        );
        assert_eq!(
            classify_conflict(ReqClass::PlainRead, bits(false, false, true)),
            AbortKind::ReadAfterWrite
        );
        assert_eq!(
            classify_conflict(ReqClass::PlainWrite, bits(true, false, false)),
            AbortKind::WriteAfterRead
        );
        assert_eq!(
            classify_conflict(ReqClass::PlainWrite, bits(false, true, false)),
            AbortKind::WriteAfterWrite
        );
        assert_eq!(
            classify_conflict(ReqClass::Split, bits(false, false, true)),
            AbortKind::GatherAfterLabeled
        );
        assert_eq!(
            classify_conflict(ReqClass::Labeled, bits(true, false, false)),
            AbortKind::WriteAfterRead
        );
        assert_eq!(
            classify_conflict(ReqClass::Labeled, bits(false, false, true)),
            AbortKind::CrossLabel
        );
    }

    #[test]
    fn buckets_cover_all_kinds() {
        for k in [
            AbortKind::ReadAfterWrite,
            AbortKind::WriteAfterRead,
            AbortKind::WriteAfterWrite,
            AbortKind::GatherAfterLabeled,
            AbortKind::CrossLabel,
            AbortKind::SelfDemote,
            AbortKind::Eviction,
            AbortKind::LlcEviction,
            AbortKind::UEvictionForward,
        ] {
            assert!(WasteBucket::ALL.contains(&k.bucket()));
        }
    }

    #[test]
    fn arbitration_earlier_wins() {
        // Older (smaller ts) requester beats younger victim.
        assert_eq!(arbitrate(Some(3), 7), Arbitration::VictimAborts);
        // Younger requester is NACKed.
        assert_eq!(arbitrate(Some(9), 7), Arbitration::Nack);
        // Equal timestamps cannot happen between distinct transactions;
        // treat as NACK (requester yields).
        assert_eq!(arbitrate(Some(7), 7), Arbitration::Nack);
        // Non-speculative requests cannot be NACKed.
        assert_eq!(arbitrate(None, 0), Arbitration::VictimAborts);
    }

    #[test]
    fn tx_table_lifecycle() {
        let mut t = TxTable::new(2);
        let c = CoreId::new(1);
        assert_eq!(t.active_ts(c), None);
        t.begin(c, 42);
        assert_eq!(t.active_ts(c), Some(42));
        assert_eq!(
            t.entry(c),
            TxEntry {
                active: true,
                ts: 42
            }
        );
        t.end(c);
        assert_eq!(t.active_ts(c), None);
    }

    #[test]
    fn memop_accessors() {
        let l = LabelId::new(1);
        assert_eq!(MemOp::LoadL(l).label(), Some(l));
        assert!(MemOp::StoreL(l, 5).is_store());
        assert!(MemOp::Gather(l).is_labeled());
        assert!(!MemOp::Load.is_labeled());
        assert!(MemOp::Store(1).is_store());
    }
}
