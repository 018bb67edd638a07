//! Machine construction.

use commtm_protocol::{LabelDef, LabelTable};
use commtm_sim::{Machine, MachineConfig, Scheme};

use crate::error::Error;
use commtm_mem::LabelId;

/// Builds a [`Machine`]: configuration plus label registration.
///
/// # Example
///
/// ```
/// use commtm::{labels, MachineBuilder, Scheme};
///
/// let mut b = MachineBuilder::new(8, Scheme::CommTm);
/// let add = b.register_label(labels::add())?;
/// let min = b.register_label(labels::min())?;
/// assert_ne!(add, min);
/// let machine = b.build();
/// assert_eq!(machine.config().threads, 8);
/// # Ok::<(), commtm::Error>(())
/// ```
#[derive(Debug)]
pub struct MachineBuilder {
    cfg: MachineConfig,
    labels: LabelTable,
}

impl MachineBuilder {
    /// Starts a builder for `threads` cores under `scheme`, with the
    /// paper's Table I hierarchy.
    pub fn new(threads: usize, scheme: Scheme) -> Self {
        MachineBuilder {
            cfg: MachineConfig::new(threads, scheme),
            labels: LabelTable::new(),
        }
    }

    /// Starts a builder from an explicit configuration.
    pub fn with_config(cfg: MachineConfig) -> Self {
        MachineBuilder {
            cfg,
            labels: LabelTable::new(),
        }
    }

    /// Overrides the deterministic seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg = self.cfg.with_seed(seed);
        self
    }

    /// Mutable access to the configuration for fine-grained overrides.
    pub fn config_mut(&mut self) -> &mut MachineConfig {
        &mut self.cfg
    }

    /// Registers a user-defined label (identity + reduction handler +
    /// optional splitter) and returns its hardware id.
    ///
    /// # Errors
    ///
    /// Fails with [`Error::TooManyLabels`] past the architecture's 8-label
    /// budget.
    pub fn register_label(&mut self, def: LabelDef) -> Result<LabelId, Error> {
        self.labels.register(def).map_err(|_| Error::TooManyLabels)
    }

    /// Finishes construction.
    pub fn build(self) -> Machine {
        Machine::new(self.cfg, self.labels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::labels;

    #[test]
    fn label_budget_enforced() {
        let mut b = MachineBuilder::new(1, Scheme::CommTm);
        for _ in 0..8 {
            b.register_label(labels::add()).unwrap();
        }
        assert_eq!(b.register_label(labels::add()), Err(Error::TooManyLabels));
    }

    #[test]
    fn seed_override_applies() {
        let b = MachineBuilder::new(2, Scheme::Baseline).seed(42);
        assert_eq!(b.cfg.seed, 42);
    }
}
