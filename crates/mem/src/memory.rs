//! Sparse simulated main memory.

use crate::addr::{Addr, LineAddr};
use crate::hash::FxHashMap;
use crate::line::LineData;

/// Simulated physical memory: a sparse map from line address to line data.
///
/// Lines that have never been written read as zero, which matches both real
/// zero-initialized allocations and the convention that the identity value
/// of additive labels is zero.
///
/// `MainMemory` is purely functional storage; latency and coherence live in
/// the protocol crate. The line map uses the crate's deterministic
/// [`FxHashMap`](crate::FxHashMap) rather than std's SipHash: line fetches
/// sit on the protocol's miss path, and the keys are trusted addresses.
///
/// # Example
///
/// ```
/// use commtm_mem::{Addr, MainMemory};
///
/// let mut mem = MainMemory::new();
/// assert_eq!(mem.read_word(Addr::new(0x80)), 0);
/// mem.write_word(Addr::new(0x80), 9);
/// assert_eq!(mem.read_word(Addr::new(0x80)), 9);
/// ```
#[derive(Clone, Debug, Default)]
pub struct MainMemory {
    lines: FxHashMap<LineAddr, LineData>,
}

impl MainMemory {
    /// Creates an empty (all-zero) memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reads a full line; absent lines read as zero.
    pub fn read_line(&self, line: LineAddr) -> LineData {
        self.lines.get(&line).copied().unwrap_or_default()
    }

    /// Writes a full line.
    pub fn write_line(&mut self, line: LineAddr, data: LineData) {
        self.lines.insert(line, data);
    }

    /// Reads the word at a (word-aligned) byte address.
    pub fn read_word(&self, addr: Addr) -> u64 {
        self.read_line(addr.line()).word(addr.word_index())
    }

    /// Writes the word at a (word-aligned) byte address.
    pub fn write_word(&mut self, addr: Addr, value: u64) {
        let entry = self.lines.entry(addr.line()).or_default();
        entry.set_word(addr.word_index(), value);
    }

    /// Number of lines that have been materialized (written at least once).
    pub fn resident_lines(&self) -> usize {
        self.lines.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_default_to_zero() {
        let mem = MainMemory::new();
        assert_eq!(mem.read_line(LineAddr::new(99)), LineData::zeroed());
        assert_eq!(mem.read_word(Addr::new(1 << 30)), 0);
    }

    #[test]
    fn word_write_preserves_neighbors() {
        let mut mem = MainMemory::new();
        let line = LineAddr::new(2);
        mem.write_word(line.word(0), 1);
        mem.write_word(line.word(7), 7);
        assert_eq!(mem.read_word(line.word(0)), 1);
        assert_eq!(mem.read_word(line.word(7)), 7);
        assert_eq!(mem.read_word(line.word(3)), 0);
        assert_eq!(mem.resident_lines(), 1);
    }

    #[test]
    fn line_write_replaces_content() {
        let mut mem = MainMemory::new();
        let line = LineAddr::new(5);
        mem.write_word(line.word(1), 11);
        mem.write_line(line, LineData::splat(3));
        assert_eq!(mem.read_word(line.word(1)), 3);
    }
}
