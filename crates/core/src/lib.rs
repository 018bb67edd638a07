//! **CommTM** — a commutativity-aware hardware transactional memory, as a
//! deterministic full-system simulator.
//!
//! This crate is the public facade of a from-scratch reproduction of
//! *Exploiting Semantic Commutativity in Hardware Speculation* (Zhang,
//! Chiu, Sanchez — MICRO 2016). It simulates the paper's 128-core chip
//! (Table I): per-core L1/L2 caches, a banked shared L3 with an in-cache
//! directory, a MESI coherence protocol extended with the user-defined
//! reducible state **U**, an eager-lazy HTM with timestamp conflict
//! resolution, user-defined reductions, and gather requests.
//!
//! # Quickstart
//!
//! Multiple threads increment a shared counter inside transactions. Under
//! the conventional HTM they serialize; under CommTM the labeled updates
//! buffer locally and never conflict (the paper's Fig. 1):
//!
//! ```
//! use commtm::prelude::*;
//!
//! let mut builder = MachineBuilder::new(4, Scheme::CommTm);
//! let add = builder.register_label(commtm::labels::add())?;
//! let mut machine = builder.build();
//! let counter = machine.heap_mut().alloc_lines(1);
//!
//! for t in 0..4 {
//!     let mut p = Program::builder();
//!     let top = p.here();
//!     p.tx(move |c| {
//!         let v = c.load_l(add, counter);
//!         c.store_l(add, counter, v + 1);
//!     });
//!     p.ctl(move |c| {
//!         c.regs[0] += 1;
//!         if c.regs[0] < 100 { Ctl::Jump(top) } else { Ctl::Done }
//!     });
//!     machine.set_program(t, p.build(), ());
//! }
//!
//! let report = machine.run()?;
//! assert_eq!(machine.read_word(counter), 400);
//! assert_eq!(report.aborts(), 0); // commutative increments never conflict
//! # Ok::<(), commtm::Error>(())
//! ```
//!
//! # Crate map
//!
//! | layer | crate | contents |
//! |-------|-------|----------|
//! | facade | `commtm` | [`MachineBuilder`], [`labels`], re-exports |
//! | driver | `commtm-sim` | [`Machine`], scheduler, [`RunReport`] |
//! | engine | `commtm-htm` | transactions, conflicts, backoff |
//! | protocol | `commtm-protocol` | MESI+U, reductions, gathers |
//! | programs | `commtm-tx` | [`Program`], replay execution |
//! | substrate | `commtm-cache`, `commtm-noc`, `commtm-mem` | caches, mesh, memory |

pub mod labels;

mod builder;
mod error;

pub use builder::MachineBuilder;
pub use error::Error;

pub use commtm_htm::{CoreStats, HtmConfig, Scheme};
pub use commtm_mem::{
    Addr, CoreId, FxHashMap, FxHashSet, Heap, LabelId, LineAddr, LineData, WORDS_PER_LINE,
};
pub use commtm_noc::Mesh;
pub use commtm_protocol::{
    AbortKind, AccessOp, LabelDef, LabelTable, ProtoConfig, ReduceOps, Trace, TraceEvent,
    TraceEventKind, WasteBucket,
};
pub use commtm_sim::{CycleBreakdown, Machine, MachineConfig, RunReport, SimError, Tuning};
pub use commtm_tx::{Ctl, CtlCtx, Program, ProgramBuilder, TxCtx};

/// The common imports for writing CommTM workloads.
pub mod prelude {
    pub use crate::labels;
    pub use crate::{
        Addr, Ctl, CtlCtx, Error, LabelDef, LabelId, LineData, Machine, MachineBuilder,
        MachineConfig, Program, RunReport, Scheme, TxCtx,
    };
}
