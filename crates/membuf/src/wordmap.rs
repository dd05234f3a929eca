//! The static-memory, word-granular hash map of MUTLS (paper §IV-G2).
//!
//! The paper avoids dynamically growing hash maps (whose rehashing cost
//! would land on the speculative fast path) by using statically sized,
//! direct-mapped storage: a word address `a` lives in slot
//! `(a / 8) & (capacity - 1)` or, when that slot already holds another
//! address, in a small *temporary overflow area*.  When the overflow area
//! is used the thread should stop at the next check point and wait to be
//! joined; when it is full the thread rolls back.
//!
//! Each slot is one 32-byte `[addr, data, mask, version]` record, so a
//! lookup touches a single cache line instead of one line per parallel
//! array (the paper's separate `buffer` / `addresses` / `mark` arrays):
//!
//! * `addr`    — the word-aligned address occupying the slot (0 = empty;
//!   the arena never hands out address 0),
//! * `data`    — the buffered word,
//! * `mask`    — per-byte mark of the bytes actually written (write-set) or
//!   read (read-set), needed for sub-word stores,
//! * `version` — the commit-log snapshot taken at first insertion.
//!
//! The slot array is allocated zeroed (`vec![[0; 4]; n]` is backed by a
//! zeroing allocation), so the pages of a large, sparsely used map never
//! become resident.  A separate stack of used slot indices (the paper's
//! `offsets`) keeps iteration, validation, commit and [`clear`]
//! proportional to the data actually touched, not the capacity.
//!
//! **Empty-slot invariant:** an address enters the overflow area only when
//! its slot holds a *different* address, and slots are freed only by
//! [`clear`], which empties the overflow area too.  So an address whose
//! slot is empty is in neither place, and [`get`] answers `None` from the
//! slot alone without scanning the overflow area.
//!
//! [`clear`]: WordMap::clear
//! [`get`]: WordMap::get

use crate::error::BufferError;
use crate::memory::{Addr, WORD_BYTES};

/// One buffered word: its address, data, per-byte write mask and the
/// commit-log version observed when the word was first buffered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WordEntry {
    /// Word-aligned byte address in the global address space.
    pub addr: Addr,
    /// Buffered data for the whole word.
    pub data: u64,
    /// Byte mask: every byte equal to `0xFF` marks a byte actually written
    /// (for the write-set) or read (for the read-set).
    pub mask: u64,
    /// Commit-log snapshot sampled when the entry was first inserted (0
    /// when the access was not versioned): the epoch of the log *shard*
    /// owning the address's range (`CommitLog::snapshot`).  For read-set
    /// entries this is the version join-time dependence validation
    /// compares against the range's current stamp in the
    /// [`CommitLog`](crate::CommitLog).  Versions of the same word are
    /// always same-shard and therefore comparable — which is what lets
    /// [`weaken_version`](WordMap::weaken_version) keep the oldest
    /// snapshot when read sets merge.
    pub version: u64,
}

/// One direct-mapped slot: `[addr, data, mask, version]`.  A plain `u64`
/// array (rather than a struct) so `vec![EMPTY; n]` uses a zeroing
/// allocation instead of writing every slot.
type Slot = [u64; 4];

const ADDR: usize = 0;
const DATA: usize = 1;
const MASK: usize = 2;
const VERSION: usize = 3;
const EMPTY: Slot = [0; 4];

#[inline]
fn entry(slot: &Slot) -> WordEntry {
    WordEntry {
        addr: slot[ADDR],
        data: slot[DATA],
        mask: slot[MASK],
        version: slot[VERSION],
    }
}

/// Result of probing the direct-mapped array for an address.
enum Probe {
    /// Slot index is empty.
    Empty(usize),
    /// Slot index holds this very address.
    Found(usize),
    /// Slot index holds a *different* address (hash conflict).
    Conflict,
}

/// Statically sized word-granular hash map with linear overflow area.
#[derive(Debug)]
pub struct WordMap {
    slot_mask: u64,
    slots: Vec<Slot>,
    /// Stack of used slot indices ("offsets" in the paper).
    used: Vec<u32>,
    overflow: Vec<WordEntry>,
    overflow_capacity: usize,
    /// True once the overflow area has been used at least once since the
    /// last clear; the runtime uses this to stall the thread at its next
    /// check point.
    overflow_pending: bool,
}

impl WordMap {
    /// Create a map with `capacity_words` direct-mapped slots (rounded up
    /// to the next power of two) and `overflow_capacity` overflow entries.
    pub fn new(capacity_words: usize, overflow_capacity: usize) -> Self {
        let capacity = capacity_words.max(8).next_power_of_two();
        WordMap {
            slot_mask: (capacity as u64) - 1,
            slots: vec![EMPTY; capacity],
            used: Vec::with_capacity(capacity.min(1024)),
            overflow: Vec::with_capacity(overflow_capacity.min(64)),
            overflow_capacity,
            overflow_pending: false,
        }
    }

    /// Number of direct-mapped slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Number of distinct words currently buffered (direct + overflow).
    pub fn len(&self) -> usize {
        self.used.len() + self.overflow.len()
    }

    /// True when no word is buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True once a hash conflict has pushed an entry into the overflow
    /// area since the last [`clear`](Self::clear).
    pub fn overflow_pending(&self) -> bool {
        self.overflow_pending
    }

    /// Number of entries currently sitting in the overflow area.
    pub fn overflow_len(&self) -> usize {
        self.overflow.len()
    }

    #[inline]
    fn probe(&self, addr: Addr) -> Probe {
        let slot = ((addr / WORD_BYTES) & self.slot_mask) as usize;
        let occupant = self.slots[slot][ADDR];
        if occupant == 0 {
            Probe::Empty(slot)
        } else if occupant == addr {
            Probe::Found(slot)
        } else {
            Probe::Conflict
        }
    }

    fn overflow_entry(&mut self, addr: Addr) -> Option<&mut WordEntry> {
        self.overflow.iter_mut().find(|e| e.addr == addr)
    }

    /// Look up the buffered word for `addr` (word aligned).
    #[inline]
    pub fn get(&self, addr: Addr) -> Option<WordEntry> {
        debug_assert_eq!(addr % WORD_BYTES, 0);
        match self.probe(addr) {
            Probe::Found(slot) => Some(entry(&self.slots[slot])),
            Probe::Empty(_) => {
                debug_assert!(
                    self.overflow.iter().all(|e| e.addr != addr),
                    "{addr:#x} is in the overflow area but its slot is empty"
                );
                None
            }
            Probe::Conflict => self.overflow.iter().find(|e| e.addr == addr).copied(),
        }
    }

    /// Merge `value` under byte-mask `mask` into the word buffered for
    /// `addr`, inserting the word if it is not present.
    ///
    /// Returns [`BufferError::OverflowPending`] when the insert had to use
    /// the overflow area (the data *is* recorded) and
    /// [`BufferError::OverflowFull`] when it could not be recorded at all.
    #[inline]
    pub fn merge(&mut self, addr: Addr, value: u64, mask: u64) -> Result<(), BufferError> {
        self.merge_versioned(addr, value, mask, 0)
    }

    /// Like [`merge`](Self::merge), stamping a freshly inserted word with
    /// `version` (the owning commit-log shard's epoch observed at access
    /// time).  Updating an existing entry keeps the *original* version:
    /// for the read-set, the first read's snapshot is the one dependence
    /// validation must check.
    #[inline]
    pub fn merge_versioned(
        &mut self,
        addr: Addr,
        value: u64,
        mask: u64,
        version: u64,
    ) -> Result<(), BufferError> {
        debug_assert_eq!(addr % WORD_BYTES, 0, "unaligned word address {addr:#x}");
        match self.probe(addr) {
            Probe::Found(slot) => {
                let slot = &mut self.slots[slot];
                slot[DATA] = (slot[DATA] & !mask) | (value & mask);
                slot[MASK] |= mask;
                Ok(())
            }
            Probe::Empty(slot) => {
                self.slots[slot] = [addr, value & mask, mask, version];
                self.used.push(slot as u32);
                Ok(())
            }
            Probe::Conflict => self.merge_overflow(addr, value, mask, version),
        }
    }

    /// The hash-conflict arm of [`merge_versioned`](Self::merge_versioned).
    #[cold]
    fn merge_overflow(
        &mut self,
        addr: Addr,
        value: u64,
        mask: u64,
        version: u64,
    ) -> Result<(), BufferError> {
        if let Some(e) = self.overflow_entry(addr) {
            e.data = (e.data & !mask) | (value & mask);
            e.mask |= mask;
            self.overflow_pending = true;
            return Err(BufferError::OverflowPending);
        }
        if self.overflow.len() >= self.overflow_capacity {
            return Err(BufferError::OverflowFull);
        }
        self.overflow.push(WordEntry {
            addr,
            data: value & mask,
            mask,
            version,
        });
        self.overflow_pending = true;
        Err(BufferError::OverflowPending)
    }

    /// Insert a whole word (mask = all bytes).  Convenience for the
    /// read-set, which always records complete words.
    pub fn insert_word(&mut self, addr: Addr, value: u64) -> Result<(), BufferError> {
        self.merge(addr, value, u64::MAX)
    }

    /// Insert a whole word stamped with a commit-log version.
    #[inline]
    pub fn insert_word_versioned(
        &mut self,
        addr: Addr,
        value: u64,
        version: u64,
    ) -> Result<(), BufferError> {
        self.merge_versioned(addr, value, u64::MAX, version)
    }

    /// The stored version of `addr`, if the word is buffered.
    fn version_mut(&mut self, addr: Addr) -> Option<&mut u64> {
        match self.probe(addr) {
            Probe::Found(slot) => Some(&mut self.slots[slot][VERSION]),
            Probe::Empty(_) => None,
            Probe::Conflict => self.overflow_entry(addr).map(|e| &mut e.version),
        }
    }

    /// Lower the stored version of `addr` to `version` if the entry exists
    /// and currently carries a newer stamp.  Used when two threads' read
    /// sets are merged: the *oldest* snapshot is the one every later
    /// commit must be checked against.
    pub fn weaken_version(&mut self, addr: Addr, version: u64) {
        if let Some(v) = self.version_mut(addr) {
            *v = (*v).min(version);
        }
    }

    /// Raise the stored version of `addr` to `version` if the entry
    /// exists and currently carries an older stamp.  Used by the
    /// value-predict retry path: a read whose conflicting range was
    /// re-validated by value is re-stamped with the snapshot observed at
    /// re-validation time, so only commits *after* the retry can flag it
    /// again.  (The dual of [`weaken_version`](Self::weaken_version).)
    pub fn refresh_version(&mut self, addr: Addr, version: u64) {
        if let Some(v) = self.version_mut(addr) {
            *v = (*v).max(version);
        }
    }

    /// Iterate over every buffered word (direct-mapped entries in
    /// insertion order, then overflow entries).
    pub fn iter(&self) -> impl Iterator<Item = WordEntry> + '_ {
        self.used
            .iter()
            .map(move |&slot| entry(&self.slots[slot as usize]))
            .chain(self.overflow.iter().copied())
    }

    /// Remove every entry, touching only the slots that were used
    /// (finalization cost is proportional to the data accessed).
    pub fn clear(&mut self) {
        for &slot in &self.used {
            self.slots[slot as usize] = EMPTY;
        }
        self.used.clear();
        self.overflow.clear();
        self.overflow_pending = false;
    }
}

/// Build a byte mask covering `size` bytes starting at byte offset
/// `offset_in_word` of a word, e.g. `byte_mask(2, 4) == 0x0000_FFFF_FFFF_0000`
/// on a little-endian layout.
///
/// `size` must be 1, 2, 4 or 8 and the access must not straddle the word.
#[inline]
pub fn byte_mask(offset_in_word: u64, size: u64) -> Result<u64, BufferError> {
    if !matches!(size, 1 | 2 | 4 | 8) {
        return Err(BufferError::UnsupportedSize);
    }
    if !offset_in_word.is_multiple_of(size) || offset_in_word + size > WORD_BYTES {
        return Err(BufferError::Misaligned);
    }
    let base: u64 = if size == 8 {
        u64::MAX
    } else {
        (1u64 << (size * 8)) - 1
    };
    Ok(base << (offset_in_word * 8))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_get_roundtrip() {
        let mut m = WordMap::new(64, 8);
        assert!(m.is_empty());
        m.insert_word(0x100, 42).unwrap();
        m.insert_word(0x108, 7).unwrap();
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(0x100).unwrap().data, 42);
        assert_eq!(m.get(0x108).unwrap().data, 7);
        assert!(m.get(0x110).is_none());
    }

    #[test]
    fn merge_partial_bytes_accumulates_mask() {
        let mut m = WordMap::new(16, 4);
        let lo = byte_mask(0, 4).unwrap();
        let hi = byte_mask(4, 4).unwrap();
        m.merge(0x200, 0x0000_0000_1111_2222, lo).unwrap();
        m.merge(0x200, 0x3333_4444_0000_0000, hi).unwrap();
        let e = m.get(0x200).unwrap();
        assert_eq!(e.data, 0x3333_4444_1111_2222);
        assert_eq!(e.mask, u64::MAX);
    }

    #[test]
    fn hash_conflict_goes_to_overflow() {
        let mut m = WordMap::new(8, 2);
        // capacity rounds to 8 slots; addresses 8 words apart collide.
        let a = 0x80;
        let b = a + 8 * WORD_BYTES;
        m.insert_word(a, 1).unwrap();
        let err = m.insert_word(b, 2).unwrap_err();
        assert_eq!(err, BufferError::OverflowPending);
        assert!(m.overflow_pending());
        assert_eq!(m.get(b).unwrap().data, 2);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn overflow_exhaustion_reports_full() {
        let mut m = WordMap::new(8, 1);
        let a = 0x80;
        m.insert_word(a, 1).unwrap();
        assert_eq!(
            m.insert_word(a + 8 * WORD_BYTES, 2).unwrap_err(),
            BufferError::OverflowPending
        );
        assert_eq!(
            m.insert_word(a + 16 * WORD_BYTES, 3).unwrap_err(),
            BufferError::OverflowFull
        );
    }

    #[test]
    fn overflow_entry_can_be_updated_in_place() {
        let mut m = WordMap::new(8, 2);
        let a = 0x80;
        let b = a + 8 * WORD_BYTES;
        m.insert_word(a, 1).unwrap();
        assert_eq!(
            m.insert_word(b, 2).unwrap_err(),
            BufferError::OverflowPending
        );
        assert_eq!(
            m.insert_word(b, 9).unwrap_err(),
            BufferError::OverflowPending
        );
        assert_eq!(m.get(b).unwrap().data, 9);
        assert_eq!(m.overflow_len(), 1);
    }

    #[test]
    fn clear_resets_everything() {
        let mut m = WordMap::new(8, 2);
        m.insert_word(0x80, 1).unwrap();
        let _ = m.insert_word(0x80 + 8 * WORD_BYTES, 2);
        m.clear();
        assert!(m.is_empty());
        assert!(!m.overflow_pending());
        assert!(m.get(0x80).is_none());
        // slot is reusable afterwards
        m.insert_word(0x80, 5).unwrap();
        assert_eq!(m.get(0x80).unwrap().data, 5);
    }

    #[test]
    fn iter_visits_direct_then_overflow() {
        let mut m = WordMap::new(8, 2);
        let a = 0x80;
        let b = a + 8 * WORD_BYTES;
        m.insert_word(a, 1).unwrap();
        let _ = m.insert_word(b, 2);
        let collected: Vec<_> = m.iter().collect();
        assert_eq!(collected.len(), 2);
        assert_eq!(collected[0].addr, a);
        assert_eq!(collected[1].addr, b);
    }

    #[test]
    fn byte_mask_validation() {
        assert_eq!(byte_mask(0, 8).unwrap(), u64::MAX);
        assert_eq!(byte_mask(0, 1).unwrap(), 0xFF);
        assert_eq!(byte_mask(6, 2).unwrap(), 0xFFFF_0000_0000_0000);
        assert_eq!(byte_mask(3, 2).unwrap_err(), BufferError::Misaligned);
        assert_eq!(byte_mask(0, 3).unwrap_err(), BufferError::UnsupportedSize);
        assert_eq!(byte_mask(6, 4).unwrap_err(), BufferError::Misaligned);
    }

    #[test]
    fn first_insertion_version_is_sticky() {
        let mut m = WordMap::new(8, 2);
        m.insert_word_versioned(0x100, 1, 7).unwrap();
        // Later merges to the same word keep the first snapshot version.
        m.merge_versioned(0x100, 2, u64::MAX, 9).unwrap();
        assert_eq!(m.get(0x100).unwrap().version, 7);
        assert_eq!(m.get(0x100).unwrap().data, 2);
        // Unversioned inserts stamp 0.
        m.insert_word(0x108, 3).unwrap();
        assert_eq!(m.get(0x108).unwrap().version, 0);
        // Overflow entries carry versions too.
        let conflicting = 0x100 + 8 * WORD_BYTES;
        let _ = m.insert_word_versioned(conflicting, 4, 11);
        assert_eq!(m.get(conflicting).unwrap().version, 11);
    }

    #[test]
    fn weaken_version_keeps_the_oldest_snapshot() {
        let mut m = WordMap::new(8, 2);
        m.insert_word_versioned(0x100, 1, 9).unwrap();
        m.weaken_version(0x100, 4);
        assert_eq!(m.get(0x100).unwrap().version, 4);
        // Weakening never raises a version.
        m.weaken_version(0x100, 7);
        assert_eq!(m.get(0x100).unwrap().version, 4);
        // Missing entries are a no-op; overflow entries are reachable.
        m.weaken_version(0x900, 1);
        let conflicting = 0x100 + 8 * WORD_BYTES;
        let _ = m.insert_word_versioned(conflicting, 2, 9);
        m.weaken_version(conflicting, 3);
        assert_eq!(m.get(conflicting).unwrap().version, 3);
    }

    #[test]
    fn refresh_version_only_raises() {
        let mut m = WordMap::new(8, 2);
        m.insert_word_versioned(0x100, 1, 4).unwrap();
        m.refresh_version(0x100, 9);
        assert_eq!(m.get(0x100).unwrap().version, 9);
        // Refreshing never lowers a version.
        m.refresh_version(0x100, 2);
        assert_eq!(m.get(0x100).unwrap().version, 9);
        // Missing entries are a no-op; overflow entries are reachable.
        m.refresh_version(0x900, 11);
        let conflicting = 0x100 + 8 * WORD_BYTES;
        let _ = m.insert_word_versioned(conflicting, 2, 3);
        m.refresh_version(conflicting, 6);
        assert_eq!(m.get(conflicting).unwrap().version, 6);
    }

    #[test]
    fn capacity_rounds_to_power_of_two() {
        let m = WordMap::new(100, 4);
        assert_eq!(m.capacity(), 128);
        let m2 = WordMap::new(1, 4);
        assert_eq!(m2.capacity(), 8);
    }
}
