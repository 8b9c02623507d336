//! Group membership: a closed group of `N` processes with per-process liveness.

use crate::error::SimError;
use crate::Result;
use std::fmt;

/// Identifier of a process within a [`Group`] (a dense index in `0..N`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct ProcessId(pub usize);

impl ProcessId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl From<usize> for ProcessId {
    fn from(value: usize) -> Self {
        ProcessId(value)
    }
}

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// A closed group of `N` processes, following the paper's system model: every
/// process knows the maximal membership (all `N − 1` peers), and processes
/// may be crashed (not alive) at any time.
///
/// Liveness is stored as a bitset (one bit per process) with the alive count
/// maintained incrementally, so the protocol runtimes' hot loops can probe
/// liveness with a single shift-and-mask ([`Group::is_alive_unchecked`]) and
/// skip probing entirely while nobody has crashed ([`Group::all_alive`]).
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Group {
    /// One bit per process, little-endian within each word; bits past `len`
    /// are always zero.
    words: Vec<u64>,
    len: usize,
    alive_count: usize,
}

impl Group {
    /// Creates a group of `n` processes, all initially alive.
    pub fn new(n: usize) -> Self {
        let full_words = n / 64;
        let tail_bits = n % 64;
        let mut words = vec![u64::MAX; full_words];
        if tail_bits > 0 {
            words.push((1u64 << tail_bits) - 1);
        }
        Group {
            words,
            len: n,
            alive_count: n,
        }
    }

    /// Total (maximal) group size `N`, including crashed processes.
    pub fn size(&self) -> usize {
        self.len
    }

    /// Number of currently alive processes.
    pub fn alive_count(&self) -> usize {
        self.alive_count
    }

    /// `true` while every process is alive — the runtimes' fast path: one
    /// comparison instead of a per-contact bit probe.
    pub fn all_alive(&self) -> bool {
        self.alive_count == self.len
    }

    /// `true` if process `id` is currently alive.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownProcess`] if `id` is out of range.
    pub(crate) fn is_alive(&self, id: ProcessId) -> Result<bool> {
        if id.index() >= self.len {
            return Err(SimError::UnknownProcess {
                id: id.index(),
                group_size: self.len,
            });
        }
        Ok(self.is_alive_unchecked(id.index()))
    }

    /// Infallible liveness probe: a single shift-and-mask on the bitset.
    ///
    /// # Panics
    ///
    /// Panics (by slice indexing) if `index >= size()`.
    #[inline]
    pub fn is_alive_unchecked(&self, index: usize) -> bool {
        (self.words[index >> 6] >> (index & 63)) & 1 != 0
    }

    /// Marks a process as crashed / departed. Idempotent: returns `true` if
    /// the process was alive (i.e. the call changed its liveness).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownProcess`] if `id` is out of range.
    pub fn crash(&mut self, id: ProcessId) -> Result<bool> {
        let i = id.index();
        if i >= self.len {
            return Err(SimError::UnknownProcess {
                id: i,
                group_size: self.len,
            });
        }
        let mask = 1u64 << (i & 63);
        let word = &mut self.words[i >> 6];
        if *word & mask != 0 {
            *word &= !mask;
            self.alive_count -= 1;
            Ok(true)
        } else {
            Ok(false)
        }
    }

    /// Marks a process as alive again (crash-recovery / rejoin). Idempotent:
    /// returns `true` if the process was crashed (i.e. the call changed its
    /// liveness).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownProcess`] if `id` is out of range.
    pub fn recover(&mut self, id: ProcessId) -> Result<bool> {
        let i = id.index();
        if i >= self.len {
            return Err(SimError::UnknownProcess {
                id: i,
                group_size: self.len,
            });
        }
        let mask = 1u64 << (i & 63);
        let word = &mut self.words[i >> 6];
        if *word & mask == 0 {
            *word |= mask;
            self.alive_count += 1;
            Ok(true)
        } else {
            Ok(false)
        }
    }

    /// Iterator over all process ids in the maximal membership.
    pub(crate) fn all_ids(&self) -> impl Iterator<Item = ProcessId> {
        (0..self.len).map(ProcessId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_group_is_fully_alive() {
        let g = Group::new(10);
        assert_eq!(g.size(), 10);
        assert_eq!(g.alive_count(), 10);
        assert!(g.all_alive());
        assert_eq!(g.all_ids().count(), 10);
    }

    #[test]
    fn crash_and_recover_are_idempotent() {
        let mut g = Group::new(5);
        g.crash(ProcessId(2)).unwrap();
        g.crash(ProcessId(2)).unwrap();
        assert_eq!(g.alive_count(), 4);
        assert!(!g.is_alive(ProcessId(2)).unwrap());
        assert!(!g.all_alive());
        g.recover(ProcessId(2)).unwrap();
        g.recover(ProcessId(2)).unwrap();
        assert_eq!(g.alive_count(), 5);
        assert!(g.is_alive(ProcessId(2)).unwrap());
        assert!(g.all_alive());
    }

    #[test]
    fn out_of_range_ids_error() {
        let mut g = Group::new(3);
        assert!(g.is_alive(ProcessId(3)).is_err());
        assert!(g.crash(ProcessId(7)).is_err());
        assert!(g.recover(ProcessId(7)).is_err());
    }

    #[test]
    fn bitset_covers_word_boundaries() {
        // Sizes straddling the 64-bit word boundary behave identically.
        for n in [63usize, 64, 65, 128, 130] {
            let mut g = Group::new(n);
            assert_eq!(g.alive_count(), n);
            for i in (0..n).step_by(2) {
                g.crash(ProcessId(i)).unwrap();
            }
            let crashed = n.div_ceil(2);
            assert_eq!(g.alive_count(), n - crashed, "n = {n}");
            for i in 0..n {
                assert_eq!(g.is_alive_unchecked(i), i % 2 == 1, "n = {n}, i = {i}");
            }
        }
    }

    #[test]
    fn process_id_display_and_conversion() {
        let id: ProcessId = 7.into();
        assert_eq!(id.index(), 7);
        assert_eq!(id.to_string(), "p7");
    }
}
